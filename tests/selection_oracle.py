"""Route selection without repeat skipping or route reuse, kept as a test oracle.

The engine skips an attempt that repeats, at the same instant and key, an
attempt of the same copy that changed nothing; the key is the engine's
version, or for a critical copy under ``standard`` its node's stamp.
``dijkstra_bdt`` reuses a search kept on the engine's graph at its own
departure and, where the goal-directed order runs (``routesearch._exact``),
at later ones, and the route it last returned while ``routesearch.covers``
holds against the engine's residual volume table, which every graph of the
run shares.
``_candidates`` uses a listed route as it stands when its list was computed
at the same instant and ``covers`` holds.  ``yen_plus`` replays the spur
searches of the graph's last call, kept in ``ContactGraph.spurs``.
``FullSelectionEngine`` is the same engine with every attempt run in full,
every ``dijkstra_bdt`` call searching, every ``yen_plus`` call finding no
trace to replay, so that every spur searches, and every listed route timed
again, as selection ran before these shortcuts; it differs from the engine
in nothing else.
"""

from __future__ import annotations

from cgrlab.routesearch import ContactGraph, evaluate_route
from cgrlab.forwarding import POLICY_STANDARD
from cgrlab.simcore import _STORED, SimulationMetrics, _Engine


class _KeepNothing(dict):
    """A store that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


class FullSelectionEngine(_Engine):
    def _graph(self, node: str, dest: str) -> ContactGraph:
        graph = super()._graph(node, dest)
        graph.searches = _KeepNothing()
        return graph

    def _routes(self, graph, now, force=False):
        graph.spurs = None  # keep no trace of the last yen_plus call
        return super()._routes(graph, now, force)

    def _candidates(self, copy, now):
        graph = self._graph(copy.at_node, copy.bundle.dest)
        for attempt in (0, 1):
            cands = []
            for route in self._routes(graph, now, force=attempt == 1):
                fresh = evaluate_route(self.plan, self.residual, route.hops, now)
                if fresh is None:
                    continue
                cand = self._review_route(fresh, copy, now)
                if cand is not None:
                    cands.append(cand)
            if cands or attempt == 1:
                return cands

    def _attempt_forward(self, copy, now):
        if copy.state != _STORED:
            return
        bundle = copy.bundle
        if bundle.critical and self.policy == POLICY_STANDARD:
            cands = self._critical_candidates(copy, now)
        else:
            cands = self._candidates(copy, now)
        if not cands:
            self._rollback(copy, now)
            return
        self._dispatch_candidates(copy, cands, now)


def full_selection_run(plan, bundles, policy, owlt_mode="uniform", seed=0, k=4) -> SimulationMetrics:
    return FullSelectionEngine(plan, bundles, policy, seed, k, owlt_mode).run()

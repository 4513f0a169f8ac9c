"""Route selection without repeat skipping or route reuse, kept as a test oracle.

The engine skips an attempt that repeats, at the same instant and engine
version, an attempt of the same copy that changed nothing, and it reuses a
memoised route while the version holds.  ``dijkstra_bdt`` reuses a search
kept on the engine's graph at later instants.  ``FullSelectionEngine`` is the
same engine with every attempt run in full, every memoised hop sequence
re-evaluated on each use and every ``dijkstra_bdt`` call searching, as
selection ran before these shortcuts.
"""

from __future__ import annotations

from cgrlab.contactgraph import ContactGraph
from cgrlab.forwarding import POLICY_STANDARD
from cgrlab.routesearch import dijkstra_bdt, evaluate_route
from cgrlab.simcore import _RETIRED, _STORED, SimulationMetrics, _Engine


class _KeepNothing(dict):
    """A graph's search store that never keeps a search."""

    def __setitem__(self, key, value):
        pass


class FullSelectionEngine(_Engine):
    def _graph(self, node: str, dest: str) -> ContactGraph:
        graph = super()._graph(node, dest)
        graph.searches = _KeepNothing()
        return graph

    def _attempt_forward(self, copy, now):
        if copy.state != _STORED:
            return
        bundle = copy.bundle
        if now > bundle.t_exp or copy.at_node == bundle.dest:
            self._move(copy, _RETIRED, now)
            return
        if bundle.critical and self.policy == POLICY_STANDARD:
            cands = self._critical_candidates(copy, now)
        else:
            cands = self._candidates(copy, now)
        if not cands:
            self._rollback(copy, now)
            return
        self._dispatch_candidates(copy, cands, now)

    def _critical_candidates(self, copy, now):
        bundle = copy.bundle
        node = copy.at_node
        graph = self._graph(node, bundle.dest)
        if self.hop_memo_t != now:
            self.hop_memo.clear()
            self.hop_memo_t = now
        neighbors = {
            c.to_node
            for c in self.plan.contacts_from(node)
            if c.t_end - 1 >= now and c.to_node not in bundle.hop_trace
        }
        cands = []
        for neighbor in sorted(neighbors):
            graph.computing_counter += 1
            key = (node, bundle.dest, neighbor)
            if key in self.hop_memo:
                hops = self.hop_memo[key]
                route = None if hops is None else evaluate_route(self.plan, hops, now)
            else:
                route = dijkstra_bdt(graph, depart=now, via=neighbor)
                self.hop_memo[key] = None if route is None else route.hops
            if route is None:
                continue
            cand = self._review_route(graph, route, bundle, now)
            if cand is not None:
                cands.append(cand)
        return cands


def full_selection_run(plan, bundles, policy, owlt_mode="uniform", seed=0, k=4) -> SimulationMetrics:
    return FullSelectionEngine(plan, bundles, policy, seed, k, owlt_mode).run()

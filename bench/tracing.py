"""Per-layer spans from timing wrappers installed on the program's module attributes.

The engine and the route search call each other through module globals
(``cgrlab.simcore.dijkstra_bdt``, ``cgrlab.routesearch.evaluate_route``, ...),
so replacing those attributes with timing wrappers catches both the engine's
calls and ``yen_plus``'s internal ones without touching ``src/``.  Private
helpers such as ``routesearch._search`` are not wrapped: their time lands in
the self time of the wrapped function that called them.

Each wrapped call records a span (layer, start, end, parent span, op id) in
flat arrays kept in memory; outcome counts are taken at the same boundary.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

from cgrlab import constellation, contactplan, routesearch, simcore, traffic


def _found(counts: Counter, layer: str, result) -> None:
    counts[layer + ".found"] += result is not None


def _passed(counts: Counter, layer: str, result) -> None:
    counts[layer + ".passed"] += bool(result)


def _overbooking(counts: Counter, layer: str, result) -> None:
    accepted, displaced = result
    counts[layer + ".accepted"] += accepted
    counts[layer + ".displaced"] += len(displaced)


# (module, attribute, layer, outcome counter).  A function looked up through
# two modules is wrapped at both, under one layer name.
TARGETS = (
    (simcore, "run_simulation", "simcore.run_simulation", None),
    (simcore, "build_contact_graph", "contactgraph.build_contact_graph", None),
    (simcore, "occupancy_rate", "contactplan.occupancy_rate", None),
    (simcore, "yen_plus", "routesearch.yen_plus", None),
    (simcore, "dijkstra_bdt", "routesearch.dijkstra_bdt", _found),
    (routesearch, "dijkstra_bdt", "routesearch.dijkstra_bdt", _found),
    (simcore, "evaluate_route", "routesearch.evaluate_route", None),
    (routesearch, "evaluate_route", "routesearch.evaluate_route", None),
    (simcore, "basic_checks", "forwarding.basic_checks", _passed),
    (simcore, "compute_eto", "forwarding.compute_eto", None),
    (simcore, "compute_pat", "forwarding.compute_pat", None),
    (simcore, "compute_evl", "forwarding.compute_evl", None),
    (simcore, "forward_critical", "forwarding.forward_critical", None),
    (simcore, "handle_overbooking", "forwarding.handle_overbooking", _overbooking),
    (simcore, "find_rollback_contact", "forwarding.find_rollback_contact", _found),
    (contactplan, "parse_contact_plan", "contactplan.parse_contact_plan", None),
    (constellation, "generate_contact_plan", "constellation.generate_contact_plan", None),
    (traffic, "generate_scenario", "traffic.generate_scenario", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


class Tracer:
    """Spans and outcome counts for the calls made while the wrappers are installed."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, layer, outcome in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, LAYERS.index(layer), outcome))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer_id: int, outcome):
        layer, parent, op, start, end = self.layer, self.parent, self.op, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        name = LAYERS[layer_id]

        def timed(*args, **kwargs):
            sid = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if outcome is not None:
                outcome(counts, name, result)
            return result

        return timed

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def summary(self, own: list[float], scale: dict[int, float]) -> dict[str, dict]:
        """Calls, self seconds and total seconds per layer over the ops in ``scale``.

        Each op's times are multiplied by its scale.
        """
        table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        for sid, seconds in enumerate(own):
            k = scale.get(self.op[sid])
            if k is not None:
                row = table[LAYERS[self.layer[sid]]]
                row["calls"] += 1
                row["self_s"] += seconds * k
                row["total_s"] += (self.end[sid] - self.start[sid]) * k
        return table

    def balance(self, own: list[float]) -> dict[int, tuple[float, float]]:
        """Per op: (sum of all its spans' self times, sum of its root spans' durations).

        The two agree up to float rounding when every span lies inside a root.
        """
        sums: dict[int, list[float]] = {}
        for sid, seconds in enumerate(own):
            row = sums.setdefault(self.op[sid], [0.0, 0.0])
            row[0] += seconds
            if self.parent[sid] < 0:
                row[1] += self.end[sid] - self.start[sid]
        return {op: (s, r) for op, (s, r) in sums.items()}

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, one line per span in start order.

        The header names the layers; ``layer`` and ``parent`` are indexes
        (into that list and into the span lines, -1 for none), times are
        nanoseconds from the first span's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# layers: {' '.join(LAYERS)}\n")
            fh.write("layer,parent,op,start_ns,duration_ns\n")
            for sid in range(len(self.start)):
                s, e = self.start[sid], self.end[sid]
                fh.write(
                    f"{self.layer[sid]},{self.parent[sid]},{self.op[sid]},"
                    f"{round((s - t0) * 1e9)},{round((e - s) * 1e9)}\n"
                )

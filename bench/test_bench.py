"""Tracing must not change what the program computes, and its counts must repeat.

The golden outputs in ``golden.json`` were recorded from untraced ops, so a
traced op that matches them has the same fingerprint as an untraced one.
"""

import pytest

from workloads import WORKLOADS, golden_mismatch, load_golden, outputs, run_op, set_up
from tracing import TARGETS, Tracer


def traced_op(workload, inputs, seed):
    tracer = Tracer()
    tracer.current_op = 0
    with tracer:
        metrics = run_op(workload, inputs, seed)
    return tracer, metrics


@pytest.mark.parametrize(
    "name, seed",
    [("nels-critical-standard", 2), ("nels-critical-rmdg", 2), ("orbit-24x20-plain", 2)],
)
def test_trace_keeps_outputs_and_repeats_counts(name, seed):
    workload = WORKLOADS[name]
    inputs = set_up(workload, (seed,))
    golden = load_golden()
    originals = [getattr(module, attr) for module, attr, _, _ in TARGETS]
    seen = []
    for _ in range(2):
        tracer, metrics = traced_op(workload, inputs, seed)
        assert golden_mismatch(golden, workload, seed, metrics) is None
        own = tracer.self_times()
        ((self_sum, root_sum),) = tracer.balance(own).values()
        assert self_sum == pytest.approx(root_sum, abs=1e-6)
        calls = {layer: row["calls"] for layer, row in tracer.summary(own, {0: 1.0}).items()}
        seen.append((calls, dict(tracer.counts), outputs(metrics)))
    assert seen[0] == seen[1]
    calls = seen[0][0]
    assert calls["simcore.run_simulation"] == 1
    assert calls["contactplan.parse_contact_plan"] == int(workload.parse_plan)
    assert calls["routesearch.dijkstra_bdt"] > 0
    assert (calls["forwarding.forward_critical"] > 0) == workload.critical
    assert [getattr(module, attr) for module, attr, _, _ in TARGETS] == originals

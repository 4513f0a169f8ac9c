"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  The paired constellation runs are executed once in module fixtures
and shared by the statistical criteria.
"""

import random
import time
from dataclasses import dataclass

import pytest

from cgrlab.constellation import (
    IslConstraints,
    WalkerParams,
    generate_contact_plan,
    intraorbit_chord_km,
    orbit_period,
)
from cgrlab.contactplan import (
    Contact,
    ContactPlan,
    make_demo_plan,
    owlt_margin,
    total_transit_time,
)
from cgrlab.routesearch import build_contact_graph, yen_plus
from cgrlab.simcore import run_simulation
from cgrlab.traffic import ScenarioSpec, generate_scenario

from routing_oracle import enumerate_routes, signature

NELS = WalkerParams(
    sats_per_plane=12, planes=10, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
NELS_ISL = IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=4)
SOURCE = "1"
K = 7
CRITICAL_SEEDS = tuple(range(1, 21))
PLAIN_SEEDS = tuple(range(1, 11))


@dataclass
class PairedRun:
    seed: int
    bundles: list
    standard: object
    rmdg: object


@pytest.fixture(scope="module")
def nels_plan():
    return generate_contact_plan(NELS, NELS_ISL, horizon=130.0, step=5.0)


def _paired(plan, seed: int, with_critical: bool) -> PairedRun:
    pool = tuple(sorted(plan.node_ids - {SOURCE}))
    spec = ScenarioSpec(
        seed=seed, duration=25, source=SOURCE, dest_pool=pool, with_critical=with_critical
    )
    bundles = generate_scenario(spec)
    return PairedRun(
        seed=seed,
        bundles=bundles,
        standard=run_simulation(plan, bundles, "standard", seed=seed, k=K),
        rmdg=run_simulation(plan, bundles, "rmdg", seed=seed, k=K),
    )


@pytest.fixture(scope="module")
def critical_runs(nels_plan):
    t0 = time.time()
    runs = [_paired(nels_plan, seed, with_critical=True) for seed in CRITICAL_SEEDS]
    return runs, time.time() - t0


@pytest.fixture(scope="module")
def plain_runs(nels_plan):
    return [_paired(nels_plan, seed, with_critical=False) for seed in PLAIN_SEEDS]


def test_criterion_1_golden_route_list():
    plan = make_demo_plan()
    graph = build_contact_graph(plan, "A", "F")
    t0 = time.time()
    routes = yen_plus(graph, K)
    elapsed = time.time() - t0
    assert elapsed < 1.0

    assert len(routes) >= 9
    multiset = sorted((r.bdt, r.volume) for r in routes[:9])
    assert multiset == sorted(
        [(32, 10)] * 3 + [(32, 9)] + [(36, 10)] * 3 + [(36, 9)] + [(51, 9)]
    )
    first = routes[0]
    windows = [
        (plan.contact(h).from_node, plan.contact(h).to_node,
         plan.contact(h).t_start, plan.contact(h).t_end)
        for h in first.hops
    ]
    assert windows == [("A", "C", 0, 10), ("C", "E", 30, 40), ("E", "F", 0, 60)]
    assert first.bdt == 32
    assert first.volume == 10
    assert first.vti == (0, 9)
    print(
        f"\nACCEPTANCE 1 PASS: golden route list reproduced "
        f"(9+ routes, first hop set A-C/C-E/E-F, bdt 32, vti [0,9], {elapsed:.3f}s)"
    )


def test_criterion_2_ksp_oracle_equivalence():
    rng = random.Random(424242)
    t0 = time.time()
    graphs = 0
    comparisons = 0
    while graphs < 1000:
        n_contacts = rng.randint(1, 8)
        contacts = []
        for cid in range(1, n_contacts + 1):
            frm, to = rng.sample(["N0", "N1", "N2", "N3"], 2)
            ts = rng.randint(0, 40)
            contacts.append(
                Contact(
                    id=cid, from_node=frm, to_node=to,
                    t_start=ts, t_end=ts + rng.randint(1, 20),
                    rate=rng.choice([1, 2]), owlt=rng.choice([0, 1, 2]),
                )
            )
        base = ContactPlan.build(contacts)
        plan = ContactPlan(
            contacts=base.contacts, horizon=base.horizon,
            node_ids=base.node_ids | {"N0", "N1"},
        )
        graphs += 1
        expected = enumerate_routes(plan, "N0", "N1")
        graph = build_contact_graph(plan, "N0", "N1")
        for k in range(1, 11):
            got = yen_plus(graph, k)
            assert len(got) >= min(k, len(expected))
            sigs = [(r.hops, r.bdt, r.vti, r.volume) for r in got]
            assert sigs == [signature(e) for e in expected[: len(sigs)]]
            comparisons += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 PASS: {graphs} random graphs x K=1..10 "
        f"({comparisons} searches) matched brute force in {elapsed:.1f}s"
    )


def test_criterion_3_owlt_arithmetic():
    assert owlt_margin(18600) == 40.0
    assert total_transit_time(18600) == 18680.0
    print("\nACCEPTANCE 3 PASS: owlt_margin(18600)=40 and total_transit_time(18600)=18680 exactly")


def test_criterion_4_constellation_geometry():
    period = orbit_period(NELS)
    chord = intraorbit_chord_km(NELS)
    assert abs(period - 6565.0) / 6565.0 < 0.01
    assert abs(chord - 3922.0) / 3922.0 < 0.01
    print(
        f"\nACCEPTANCE 4 PASS: period {period:.0f}s (target 6565 +/-1%), "
        f"intraorbit chord {chord:.0f}km (target 3922 +/-1%)"
    )


def test_criterion_5_delivery_improvement(critical_runs):
    runs, elapsed = critical_runs
    assert elapsed < 600.0
    gaps = [run.rmdg.delivery_rate() - run.standard.delivery_rate() for run in runs]
    mean_gap = sum(gaps) / len(gaps)
    wins = sum(1 for g in gaps if g >= 0)
    assert mean_gap >= 0.10, f"mean delivery gap {mean_gap:.3f} below 10pp"
    assert wins >= 18, f"rmdg >= standard in only {wins}/20 seeds"
    print(
        f"\nACCEPTANCE 5 PASS: mean delivery gap {100 * mean_gap:.1f}pp over "
        f"{len(runs)} seeds, rmdg >= standard in {wins}/20, runs took {elapsed:.0f}s"
    )


def test_criterion_6_computing_reduction(critical_runs, plain_runs):
    runs, _ = critical_runs
    ratios = [
        run.rmdg.computing_total / run.standard.computing_total for run in runs[:10]
    ]
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio <= 0.10, f"critical computing ratio {mean_ratio:.3f} above 10%"

    diffs = [
        abs(run.rmdg.computing_total - run.standard.computing_total)
        / max(run.standard.computing_total, 1)
        for run in plain_runs
    ]
    mean_diff = sum(diffs) / len(diffs)
    assert mean_diff < 0.10, f"non-critical computing differs by {mean_diff:.3f}"
    print(
        f"\nACCEPTANCE 6 PASS: critical computing ratio {100 * mean_ratio:.1f}% "
        f"(<=10%), non-critical difference {100 * mean_diff:.2f}% (<10%)"
    )


def test_criterion_7_storage_reduction(critical_runs):
    runs, _ = critical_runs
    ratios = [
        run.rmdg.peak_at_sending() / max(run.standard.peak_at_sending(), 1e-9)
        for run in runs[:10]
    ]
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio <= 0.50, f"peak at-sending ratio {mean_ratio:.3f} above 50%"
    print(f"\nACCEPTANCE 7 PASS: peak at-sending ratio {100 * mean_ratio:.1f}% (<=50%)")


def test_criterion_8_occupancy(critical_runs, plain_runs):
    runs, _ = critical_runs
    for run in runs:
        assert run.rmdg.mean_occupancy() <= run.standard.mean_occupancy() + 1e-12, (
            f"seed {run.seed}: rmdg occupancy above standard"
        )
    diffs = [
        abs(run.rmdg.mean_occupancy() - run.standard.mean_occupancy())
        for run in plain_runs
    ]
    mean_diff = sum(diffs) / len(diffs)
    assert mean_diff < 0.01, f"non-critical occupancy differs by {mean_diff:.4f}"
    print(
        f"\nACCEPTANCE 8 PASS: rmdg occupancy <= standard in {len(runs)}/{len(runs)} "
        f"critical seeds; non-critical difference {100 * mean_diff:.3f}pp (<1pp)"
    )


def test_criterion_9_invariants(nels_plan, critical_runs, plain_runs):
    runs, _ = critical_runs
    everything = [(r, True) for r in runs] + [(r, False) for r in plain_runs]

    for run, _with_critical in everything:
        for metrics in (run.standard, run.rmdg):
            # conservation at the end of the run (the engine asserts it at
            # every sample while running)
            final = metrics.rows[-1]
            assert final.delivered + final.failed == metrics.generated
            # the in-transit series starts and ends empty
            assert metrics.rows[0].mb_at_sending == 0
            assert final.mb_at_sending == 0
            # volume accounting per contact
            for cid, used in metrics.contact_usage.items():
                c = nels_plan.contact(cid)
                assert used <= c.volume + 1e-9
            # causality of every dispatch
            by_id = {b.id: b for b in run.bundles}
            for t, bid, frm, to, cid, policy, reason in metrics.dispatch_log:
                b = by_id[bid]
                assert b.t_gen <= t <= b.t_exp
                contact = nels_plan.contact(cid)
                assert contact.t_start <= t < contact.t_end
            # critical dedup: under rmdg no node re-sends a critical bundle
            # to a neighbour it already knows holds a copy
            if metrics.policy == "rmdg":
                sent: dict[tuple[int, str], set[str]] = {}
                for t, bid, frm, to, cid, policy, reason in metrics.dispatch_log:
                    if reason != "critical_copy":
                        continue
                    targets = sent.setdefault((bid, frm), set())
                    assert to not in targets
                    targets.add(to)

    # determinism: bit-identical repeat of every acceptance scenario
    for run, with_critical in everything:
        for policy, metrics in (("standard", run.standard), ("rmdg", run.rmdg)):
            again = run_simulation(nels_plan, run.bundles, policy, seed=run.seed, k=K)
            assert again.fingerprint() == metrics.fingerprint(), (
                f"seed {run.seed} {policy} replay diverged"
            )

    print(
        f"\nACCEPTANCE 9 PASS: conservation, causality, volume accounting, "
        f"critical dedup and bit-identical replays held on "
        f"{len(everything) * 2} runs"
    )

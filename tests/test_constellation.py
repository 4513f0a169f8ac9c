"""Walker-delta geometry and constellation contact-plan generation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plan_oracle

from cgrlab.constellation import (
    IslConstraints,
    WalkerParams,
    generate_contact_plan,
    intraorbit_chord_km,
    orbit_period,
    pairwise_distance,
    positions_csv_chunks,
    propagate,
    sat_node_id,
)

NELS = WalkerParams(
    sats_per_plane=12, planes=10, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
NELS_ISL = IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=4)


class TestGeometry:
    def test_period_close_to_published_value(self):
        assert abs(orbit_period(NELS) - 6565.0) / 6565.0 < 0.01

    def test_intraorbit_chord_close_to_published_value(self):
        assert abs(intraorbit_chord_km(NELS) - 3922.0) / 3922.0 < 0.01

    def test_adjacent_same_plane_distance(self):
        pos = propagate(NELS, 0.0)
        d = pairwise_distance(pos, 0, 1)
        assert abs(d - 3922.0) / 3922.0 < 0.01

    def test_antipodal_same_plane_distance(self):
        pos = propagate(NELS, 0.0)
        d = pairwise_distance(pos, 0, 6)  # half the 12-slot ring away
        assert abs(d - 2 * NELS.semi_major_axis_km) / (2 * NELS.semi_major_axis_km) < 0.01

    def test_self_distance_zero(self):
        pos = propagate(NELS, 0.0)
        assert pairwise_distance(pos, 3, 3) == 0.0

    def test_positions_periodic(self):
        period = orbit_period(NELS)
        p0 = propagate(NELS, 0.0)
        p1 = propagate(NELS, period)
        assert np.abs(p1 - p0).max() < 1e-6

    def test_radius_constant(self):
        for t in (0.0, 100.0, 1234.0):
            pos = propagate(NELS, t)
            radii = np.linalg.norm(pos, axis=1)
            assert np.allclose(radii, NELS.semi_major_axis_km)

    def test_deterministic_reference_configuration(self):
        assert np.array_equal(propagate(NELS, 0.0), propagate(NELS, 0.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(NELS, -1.0)

    def test_bad_walker_params_rejected(self):
        with pytest.raises(ValueError):
            WalkerParams(sats_per_plane=12, planes=10, phase_factor=10,
                         altitude_km=1200.0, inclination_deg=55.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["altitude_km", "inclination_deg"])
    def test_non_finite_walker_field_rejected(self, field, value):
        kwargs = dict(sats_per_plane=4, planes=3, phase_factor=1,
                      altitude_km=1200.0, inclination_deg=55.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WalkerParams(**kwargs)


@pytest.fixture(scope="module")
def plan():
    return generate_contact_plan(NELS, NELS_ISL, horizon=120.0, step=5.0)


class TestPlanGeneration:
    def test_every_sat_has_two_permanent_intraorbit_contacts(self, plan):
        for p in range(NELS.planes):
            for s in range(NELS.sats_per_plane):
                node = sat_node_id(NELS, p, s)
                perm = [
                    c for c in plan.contacts_from(node)
                    if c.t_start == 0 and c.t_end == plan.horizon
                ]
                assert len([c for c in perm if _same_plane(c, NELS)]) == 2

    def test_contact_symmetry(self, plan):
        pairs = {(c.from_node, c.to_node, c.t_start, c.t_end) for c in plan.contacts}
        for frm, to, ts, te in pairs:
            assert (to, frm, ts, te) in pairs

    def test_interorbit_distance_bound(self, plan):
        times = np.arange(0.0, plan.horizon + 1, 5.0)
        positions = {t: propagate(NELS, t) for t in times}
        inter = [c for c in plan.contacts if not _same_plane(c, NELS)]
        assert inter, "expected inter-plane contacts"
        for c in inter:
            i = int(c.from_node) - 1
            j = int(c.to_node) - 1
            for t in times:
                if c.t_start <= t <= c.t_end:
                    assert pairwise_distance(positions[t], i, j) <= NELS_ISL.max_interorbit_km + 1e-6

    def test_terminal_budget_respected(self, plan):
        links = set()
        for c in plan.contacts:
            links.add(frozenset((c.from_node, c.to_node)))
        per_sat: dict[str, int] = {}
        for link in links:
            a, b = tuple(link)
            per_sat[a] = per_sat.get(a, 0) + 1
            per_sat[b] = per_sat.get(b, 0) + 1
        assert max(per_sat.values()) <= NELS_ISL.terminals_per_sat

    def test_zero_interorbit_distance_collapses_to_intraorbit(self):
        constraints = IslConstraints(max_interorbit_km=0.0, terminals_per_sat=4)
        plan = generate_contact_plan(NELS, constraints, horizon=60.0, step=10.0)
        assert all(_same_plane(c, NELS) for c in plan.contacts)

    def test_two_terminals_means_no_interorbit(self):
        constraints = IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=2)
        plan = generate_contact_plan(NELS, constraints, horizon=60.0, step=10.0)
        assert all(_same_plane(c, NELS) for c in plan.contacts)

    def test_too_few_terminals_rejected(self):
        with pytest.raises(ValueError):
            IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_interorbit_range_rejected(self, value):
        with pytest.raises(ValueError, match="max_interorbit_km must be finite"):
            IslConstraints(max_interorbit_km=value, terminals_per_sat=4)

    def test_negative_interorbit_range_rejected(self):
        with pytest.raises(ValueError, match="max_interorbit_km must be non-negative"):
            IslConstraints(max_interorbit_km=-1.0, terminals_per_sat=4)

    def test_owlt_below_one_light_second(self, plan):
        # every link in this constellation is far below one light-second
        assert all(c.owlt < 0.02 for c in plan.contacts)

    def test_node_count(self, plan):
        assert len(plan.node_ids) == 120

    def test_two_satellite_plane_links_once_and_keeps_terminals(self):
        # the ring wraps back onto the same neighbour, so it is one link, not two
        params = WalkerParams(sats_per_plane=2, planes=3, phase_factor=1,
                              altitude_km=1200.0, inclination_deg=55.0)
        reach = 2 * params.semi_major_axis_km  # every pair always in range
        plan = generate_contact_plan(params, IslConstraints(reach, 3), horizon=100.0, step=5.0)
        intra = [(c.from_node, c.to_node) for c in plan.contacts if _same_plane(c, params)]
        assert sorted(intra) == [("1", "2"), ("2", "1"), ("3", "4"), ("4", "3"),
                                 ("5", "6"), ("6", "5")]
        # one intra-plane terminal each leaves two for both adjacent planes
        for node in sorted(plan.node_ids):
            peers = {c.to_node for c in plan.contacts_from(node) if not _same_plane(c, params)}
            assert len(peers) == 2, node


def _same_plane(contact, params) -> bool:
    a = (int(contact.from_node) - 1) // params.sats_per_plane
    b = (int(contact.to_node) - 1) // params.sats_per_plane
    return a == b


ORBIT_24X20 = WalkerParams(
    sats_per_plane=24, planes=20, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
EPISODIC_ISL = IslConstraints(max_interorbit_km=4000.0, terminals_per_sat=4)


def _fields(plan):
    """Every contact field, light times by ``repr``, so equal means bit-equal."""
    return [
        (c.id, c.from_node, c.to_node, c.t_start, c.t_end, c.rate, repr(c.owlt))
        for c in plan.contacts
    ]


def _assert_matches_oracle(params, constraints, horizon, step, rate=1.0):
    plan = generate_contact_plan(params, constraints, horizon, step, rate)
    reference = plan_oracle.generate_contact_plan(params, constraints, horizon, step, rate)
    assert _fields(plan) == _fields(reference)
    assert plan.node_ids == reference.node_ids
    assert plan.horizon == reference.horizon
    return plan


def _walker(sats, planes, phase=1, alt=1200.0, inc=55.0):
    return WalkerParams(sats_per_plane=sats, planes=planes, phase_factor=phase,
                        altitude_km=alt, inclination_deg=inc)


class TestPlanOracle:
    """Plane-pair generation against the per-sample generator of ``plan_oracle``."""

    @pytest.mark.parametrize(
        "params, constraints, horizon, step",
        [
            (NELS, NELS_ISL, 130.0, 5.0),
            (NELS, EPISODIC_ISL, 6565.0, 5.0),
            (ORBIT_24X20, NELS_ISL, 6565.0, 5.0),
        ],
        ids=["nels-130s", "episodic-12x10", "orbit-24x20"],
    )
    def test_bench_and_gate_plans(self, params, constraints, horizon, step):
        _assert_matches_oracle(params, constraints, horizon, step)

    def test_episodic_plan_has_windows_that_open_and_close(self):
        plan = _assert_matches_oracle(NELS, EPISODIC_ISL, 6565.0, 5.0)
        assert len(plan.contacts) == 796
        assert any(0 < c.t_start and c.t_end < plan.horizon for c in plan.contacts)

    @pytest.mark.parametrize(
        "params, constraints, horizon, step",
        [
            (_walker(5, 1, phase=0), IslConstraints(9000.0, 4), 3000.0, 5.0),
            (_walker(1, 5, phase=2), IslConstraints(9000.0, 4), 3000.0, 5.0),
            (_walker(8, 2, alt=800.0, inc=70.0), IslConstraints(6000.0, 4), 3000.0, 7.0),
            (_walker(6, 4), IslConstraints(2500.0, 4), 600.0, 1.0),
            (_walker(6, 4), IslConstraints(2500.0, 4), 1000.0, 7.5),
        ],
        ids=["one-plane", "one-sat-planes", "two-planes", "step-1", "step-7.5"],
    )
    def test_edge_shapes(self, params, constraints, horizon, step):
        _assert_matches_oracle(params, constraints, horizon, step)

    def test_window_open_at_a_last_sample_past_the_horizon(self):
        # samples run to 6565 s; a run still in range there ends at 6562
        plan = _assert_matches_oracle(NELS, EPISODIC_ISL, 6562.0, 5.0)
        assert any(0 < c.t_start and c.t_end == 6562.0 for c in plan.contacts)

    def test_rate_is_every_contacts_rate(self):
        plan = _assert_matches_oracle(NELS, NELS_ISL, 60.0, 10.0, rate=2.5)
        assert {c.rate for c in plan.contacts} == {2.5}

    @settings(max_examples=60, deadline=None)
    @given(
        sats=st.integers(1, 6),
        planes=st.integers(1, 5),
        phase=st.integers(0, 4),
        alt=st.floats(400.0, 3000.0),
        inc=st.floats(0.0, 120.0),
        reach=st.floats(0.0, 1.5),
        terminals=st.integers(2, 5),
        horizon=st.integers(1, 4000),
        step=st.integers(2, 30).map(lambda k: k / 2),
    )
    def test_random_walker_plans(self, sats, planes, phase, alt, inc, reach, terminals,
                                 horizon, step):
        params = _walker(sats, planes, phase=phase % planes, alt=alt, inc=inc)
        # the range in units of the adjacent-plane chord, so some pairs come and go
        max_km = reach * 2 * params.semi_major_axis_km * math.sin(math.pi / planes)
        _assert_matches_oracle(params, IslConstraints(max_km, terminals), float(horizon), step)

    @settings(max_examples=60, deadline=None)
    @given(
        sats=st.integers(1, 6),
        planes=st.integers(1, 5),
        phase=st.integers(0, 4),
        alt=st.floats(400.0, 3000.0),
        inc=st.floats(0.0, 120.0),
        t=st.floats(0.0, 1e6),
    )
    def test_propagate_equals_per_sample_positions(self, sats, planes, phase, alt, inc, t):
        params = _walker(sats, planes, phase=phase % planes, alt=alt, inc=inc)
        assert np.array_equal(propagate(params, t), plan_oracle.propagate(params, t))


def test_orbit_plan_generation_memory_stays_per_plane():
    # the per-sample generator held a (T, N, 3) cube and peaked near 30 MB here
    generate_contact_plan(ORBIT_24X20, NELS_ISL, horizon=6565.0, step=5.0)  # warm caches
    tracemalloc.start()
    try:
        generate_contact_plan(ORBIT_24X20, NELS_ISL, horizon=6565.0, step=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize(
    "params, horizon, step",
    [
        (NELS, 130.0, 5.0),
        (_walker(20, 24), 600.0, 7.5),
        (_walker(1, 1, phase=0), 10.0, 2.5),
        (_walker(5, 3, phase=2), 3.0, 1.0),
    ],
    ids=["nels", "orbit-24x20-fractional-step", "one-satellite", "5x3"],
)
def test_positions_csv_equals_per_sample_rows(params, horizon, step):
    # gen-plan --positions samples the plan's instants k * step
    times = [k * step for k in range(int(horizon // step) + 1)]
    chunks = list(positions_csv_chunks(params, times))
    assert "".join(chunks) == plan_oracle.positions_csv(params, times)
    assert all(chunk.endswith("\n") for chunk in chunks)


def test_positions_csv_memory_stays_per_block():
    # a full orbit of the 24x20 plan every 50 s: joining its 63,841 rows
    # peaked near 11 MB (at step 5, 631k rows, near 105 MB); tracemalloc
    # makes a run at step 5 take seconds
    times = [k * 50.0 for k in range(int(6565.0 // 50.0) + 1)]
    tracemalloc.start()
    try:
        rows = sum(chunk.count("\n") for chunk in positions_csv_chunks(ORBIT_24X20, times))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 + len(times) * ORBIT_24X20.total_sats
    assert peak < 4e6

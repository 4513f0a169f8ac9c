"""Walker-delta geometry and constellation contact-plan generation."""

import numpy as np
import pytest

from cgrlab.constellation import (
    IslConstraints,
    WalkerParams,
    generate_contact_plan,
    intraorbit_chord_km,
    orbit_period,
    pairwise_distance,
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

    def test_owlt_below_one_light_second(self, plan):
        # every link in this constellation is far below one light-second
        assert all(c.owlt < 0.02 for c in plan.contacts)

    def test_node_count(self, plan):
        assert len(plan.node_ids) == 120


def _same_plane(contact, params) -> bool:
    a = (int(contact.from_node) - 1) // params.sats_per_plane
    b = (int(contact.to_node) - 1) // params.sats_per_plane
    return a == b

"""Candidate review gates, critical replication, overbooking, rollback."""

import math
from dataclasses import FrozenInstanceError

import pytest

from cgrlab import simcore
from cgrlab.contactplan import Contact, ContactPlan, make_demo_plan
from cgrlab.forwarding import (
    MAX_RUN_S,
    POLICY_RMDG,
    POLICY_STANDARD,
    Booking,
    Bundle,
    CandidateRoute,
    basic_checks,
    compute_eto,
    compute_evl,
    compute_pat,
    find_rollback_contact,
    forward_critical,
    handle_overbooking,
)
from cgrlab.routesearch import build_contact_graph, dijkstra_bdt, evaluate_route, yen_plus


def _bundle(**overrides):
    kwargs = dict(
        id=1, source="A", dest="F", size=1.0, priority=0, critical=False,
        t_gen=0.0, t_exp=40.0,
    )
    kwargs.update(overrides)
    return Bundle(**kwargs)


def _demo_route(depart=0.0):
    plan = make_demo_plan()
    g = build_contact_graph(plan, "A", "F")
    return plan, dijkstra_bdt(g, depart=depart)


def _one_hop_plan(ts=0, te=60, rate=1.0, owlt=1.0):
    return ContactPlan.build(
        [Contact(id=1, from_node="S", to_node="D", t_start=ts, t_end=te, rate=rate, owlt=owlt)]
    )


class TestBundleInvariants:
    def test_critical_requires_priority_two(self):
        with pytest.raises(ValueError):
            _bundle(critical=True, priority=1)

    def test_expiry_after_generation(self):
        with pytest.raises(ValueError):
            _bundle(t_gen=10.0, t_exp=10.0)

    @pytest.mark.parametrize(
        "size, t_exp",
        [(math.inf, 30.0), (1.0, math.inf), (1.0, math.nan)],
        ids=["inf-size", "inf-expiry", "nan-expiry"],
    )
    def test_non_finite_size_or_expiry_rejected(self, size, t_exp):
        with pytest.raises(ValueError, match="bundle 1: size and expiry must be finite"):
            _bundle(size=size, t_exp=t_exp)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="bundle 1: size must be positive"):
            _bundle(size=0.0)

    def test_expiry_past_run_cap_rejected(self):
        _bundle(t_exp=float(MAX_RUN_S))
        with pytest.raises(ValueError, match="bundle 1: expires past the run cap of 1000000 s"):
            _bundle(t_exp=MAX_RUN_S + 1)

    def test_copies_share_one_frozen_bundle(self):
        # critical copies are replicated and relayed on the demo plan; each
        # carries the bundle its record holds, and nothing can change it
        class Engine(simcore._Engine):
            def _new_copy(self, *args, **kwargs):
                copies.append(super()._new_copy(*args, **kwargs))
                return copies[-1]

        bundles = [_bundle(id=bid, priority=2, critical=True, t_gen=float(bid)) for bid in (1, 2, 3)]
        for policy in (POLICY_STANDARD, POLICY_RMDG):
            copies = []
            metrics = Engine(make_demo_plan(), bundles, policy, 0, 4, "file").run()
            assert metrics.delivered_count > 0
            assert len(copies) > len(bundles)
            assert max(len(c.hop_trace) for c in copies) > 2
            assert all(c.bundle is metrics.records[c.bundle.id].bundle for c in copies)
        with pytest.raises(FrozenInstanceError):
            bundles[0].t_exp = 100.0


class TestBasicChecks:
    def _first(self):
        plan, route = _demo_route()
        return plan.contact(route.first_hop), route

    def test_expired_bundle_fails(self):
        first, route = self._first()
        assert not basic_checks(first, route, _bundle(t_exp=30.0), ("A",), now=31.0)

    def test_bdt_after_expiry_fails(self):
        first, route = self._first()
        assert route.bdt == 32
        assert not basic_checks(first, route, _bundle(t_exp=30.0), ("A",), now=0.0)

    def test_fresh_bundle_valid_route_passes(self):
        first, route = self._first()
        assert basic_checks(first, route, _bundle(t_exp=40.0), ("A",), now=0.0)

    def test_ended_first_hop_fails(self):
        first, route = self._first()
        assert not basic_checks(first, route, _bundle(t_exp=40.0), ("A",), now=10.0)

    def test_traversed_next_hop_fails(self):
        first, route = self._first()
        assert first.to_node == "C"
        assert not basic_checks(first, route, _bundle(), ("X", "C", "A"), now=0.0)


def _eto_two_step(first, ahead_mb, busy_until, now):
    """The ETO as two steps: the transmission in progress added to the queued
    traffic from the window opening, then the drain time added to the opening."""
    window_open = now if now > first.t_start else first.t_start
    if busy_until > window_open:
        ahead_mb += (busy_until - window_open) * first.rate
    return window_open + ahead_mb / first.rate


class TestEto:
    IDLE = -1.0

    def test_empty_queue_open_contact(self):
        plan, route = _demo_route()
        first = plan.contact(route.first_hop)
        assert compute_eto(first, ahead_mb=0.0, busy_until=self.IDLE, now=0.0) == 0.0

    def test_queued_traffic_delays(self):
        plan, route = _demo_route()
        first = plan.contact(route.first_hop)
        assert compute_eto(first, ahead_mb=5.0, busy_until=self.IDLE, now=0.0) == 5.0

    def test_future_window_dominates(self):
        plan = _one_hop_plan(ts=20)
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        first = plan.contact(route.first_hop)
        assert compute_eto(first, ahead_mb=0.0, busy_until=self.IDLE, now=0.0) == 20.0

    @pytest.mark.parametrize("now", [1.3, 2.6], ids=["before-opening", "after-opening"])
    def test_transmission_in_progress_delays(self, now):
        # busy past the opening: the rest of the transmission, from the
        # opening or from now if later, drains first
        first = _one_hop_plan(ts=2, rate=3.0).contact(1)
        eto = compute_eto(first, ahead_mb=2.2, busy_until=4.7, now=now)
        assert eto == _eto_two_step(first, 2.2, 4.7, now)
        assert eto == pytest.approx(4.7 + 2.2 / 3.0)

    def test_transmission_ended_before_opening_ignored(self):
        first = _one_hop_plan(ts=20, rate=3.0).contact(1)
        eto = compute_eto(first, ahead_mb=2.2, busy_until=10.7, now=1.3)
        assert eto == _eto_two_step(first, 2.2, 10.7, 1.3) == 20.0 + 2.2 / 3.0


class TestPat:
    def test_demo_fastest_route_one_megabit(self):
        plan, route = _demo_route()
        # hop-by-hop: depart 0 -> C at 2, wait to 30 -> E at 32, -> F at 34
        assert compute_pat(plan, route, eto=0.0, size=1.0) == 34.0

    def test_one_hop(self):
        plan = _one_hop_plan()
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        assert compute_pat(plan, route, eto=0.0, size=1.0) == 2.0

    def test_zero_size_matches_first_byte_delivery(self):
        plan, route = _demo_route()
        assert compute_pat(plan, route, eto=0.0, size=0.0) == route.bdt

    def test_start_beyond_first_hop_window_is_none(self):
        plan = _one_hop_plan(ts=0, te=10)
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        assert compute_pat(plan, route, eto=9.5, size=1.0) is None

    def test_midroute_window_overrun_is_infinite(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="M", to_node="D", t_start=0, t_end=4, rate=1, owlt=1),
            ]
        )
        route = evaluate_route(plan, plan.volumes(), (1, 2), depart=0)
        assert compute_pat(plan, route, eto=0.0, size=3.0) == math.inf


class TestEvl:
    def test_no_bookings_gives_route_volume(self):
        plan, route = _demo_route()
        assert compute_evl(plan.volumes(), route, {}, priority=0) == 10.0

    def test_higher_priority_bookings_subtract(self):
        plan = _one_hop_plan(te=10)
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        bookings = {1: [Booking(copy_id=9, mb=4.0, priority=2)]}
        assert compute_evl(plan.volumes(), route, bookings, priority=1) == 6.0

    def test_residual_volume_caps(self):
        plan = _one_hop_plan(te=10)
        route = dijkstra_bdt(build_contact_graph(plan, "S", "D"), depart=0)
        bookings = {1: [Booking(copy_id=9, mb=4.0, priority=2)]}
        assert compute_evl({1: 7.0}, route, bookings, priority=1) == 3.0

    def test_lower_priority_bookings_ignored(self):
        plan = _one_hop_plan(te=10)
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        bookings = {1: [Booking(copy_id=9, mb=4.0, priority=0)]}
        assert compute_evl(plan.volumes(), route, bookings, priority=1) == 10.0

    def test_overbooked_contact_clamps_to_zero(self):
        plan = _one_hop_plan(te=10)
        g = build_contact_graph(plan, "S", "D")
        route = dijkstra_bdt(g, depart=0)
        bookings = {1: [Booking(copy_id=9, mb=15.0, priority=2)]}
        assert compute_evl(plan.volumes(), route, bookings, priority=1) == 0.0


def _cand(plan, route, admissible=True):
    return CandidateRoute(route=route, first=plan.contact(route.first_hop), admissible=admissible)


class TestForwardCritical:
    def _crit(self):
        return _bundle(priority=2, critical=True)

    def _demo_cands(self):
        plan = make_demo_plan()
        g = build_contact_graph(plan, "A", "F")
        return [_cand(plan, r) for r in yen_plus(g, 7)]

    def test_requires_critical(self):
        plan, route = _demo_route()
        with pytest.raises(ValueError):
            forward_critical(_bundle(), [_cand(plan, route)], set(), POLICY_STANDARD)

    def test_single_candidate_both_policies(self):
        plan, route = _demo_route()
        for policy in (POLICY_STANDARD, POLICY_RMDG):
            out = forward_critical(self._crit(), [_cand(plan, route)], {"A"}, policy)
            assert len(out) == 1

    def test_standard_copies_per_distinct_neighbor(self):
        out = forward_critical(self._crit(), self._demo_cands(), {"A"}, POLICY_STANDARD)
        neighbors = {c.first.to_node for c in out}
        assert len(out) == len(neighbors) == 2  # demo plan fans out through B and C

    def test_standard_merges_contacts_to_one_neighbor(self):
        # the two best candidates leave A for C on contacts 3 and 5: one copy
        # goes to C, on the better one, and one to B
        cands = self._demo_cands()
        assert [c.first.id for c in cands[:3]] == [3, 5, 1]
        out = forward_critical(self._crit(), cands, {"A"}, POLICY_STANDARD)
        assert [(c.first.id, c.first.to_node) for c in out] == [(3, "C"), (1, "B")]

    def test_rmdg_single_best_nonholder(self):
        out = forward_critical(self._crit(), self._demo_cands(), {"A"}, POLICY_RMDG)
        assert len(out) == 1
        assert out[0].first.to_node == "C"

    def test_rmdg_skips_holder_neighbor(self):
        out = forward_critical(self._crit(), self._demo_cands(), {"A", "C"}, POLICY_RMDG)
        assert len(out) == 1
        assert out[0].first.to_node == "B"

    def test_rmdg_all_holders_no_dispatch(self):
        out = forward_critical(self._crit(), self._demo_cands(), {"A", "B", "C"}, POLICY_RMDG)
        assert out == []

    def test_engine_candidates_carry_their_first_contact(self):
        reviewed = []

        class Engine(simcore._Engine):
            def _review_route(self, route, copy, now):
                cand = super()._review_route(route, copy, now)
                if cand is not None:
                    reviewed.append((self.plan, cand))
                return cand

        bundles = [
            _bundle(id=1, priority=2, critical=True),
            _bundle(id=2, priority=1, t_gen=1.0),
        ]
        for policy in (POLICY_STANDARD, POLICY_RMDG):
            Engine(make_demo_plan(), bundles, policy, 0, 4, "file").run()
        assert reviewed
        assert all(c.first is plan.contact(c.route.first_hop) for plan, c in reviewed)


class TestOverbooking:
    # the full volume of a 10 s contact at 1 Mb/s
    CAPACITY = 10.0

    def test_spare_volume_accepts_without_displacement(self):
        incoming = Booking(copy_id=2, mb=3.0, priority=0, seq=2)
        existing = [Booking(copy_id=1, mb=4.0, priority=0, seq=1)]
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert accepted and displaced == []

    def test_high_priority_displaces_low(self):
        existing = [Booking(copy_id=1, mb=10.0, priority=0, seq=1)]
        incoming = Booking(copy_id=2, mb=2.0, priority=2, seq=2)
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert accepted
        assert [b.copy_id for b in displaced] == [1]

    def test_low_priority_rejected_by_full_contact(self):
        existing = [Booking(copy_id=1, mb=10.0, priority=1, seq=1)]
        incoming = Booking(copy_id=2, mb=2.0, priority=0, seq=2)
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert not accepted and displaced == []

    def test_equal_priority_not_displaced(self):
        existing = [Booking(copy_id=1, mb=10.0, priority=1, seq=1)]
        incoming = Booking(copy_id=2, mb=2.0, priority=1, seq=2)
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert not accepted and displaced == []

    def test_latest_booked_evicted_first(self):
        existing = [
            Booking(copy_id=1, mb=5.0, priority=0, seq=1),
            Booking(copy_id=2, mb=5.0, priority=0, seq=2),
        ]
        incoming = Booking(copy_id=3, mb=4.0, priority=1, seq=3)
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert accepted
        assert [b.copy_id for b in displaced] == [2]

    def test_conservation_after_resolution(self):
        existing = [
            Booking(copy_id=1, mb=6.0, priority=0, seq=1),
            Booking(copy_id=2, mb=4.0, priority=1, seq=2),
        ]
        incoming = Booking(copy_id=3, mb=5.0, priority=2, seq=3)
        accepted, displaced = handle_overbooking(self.CAPACITY, existing, incoming)
        assert accepted
        kept = [b for b in existing if b not in displaced] + [incoming]
        assert sum(b.mb for b in kept) <= self.CAPACITY


class TestRollback:
    def test_live_reverse_contact_found(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=0, t_end=60, rate=1, owlt=1),
            ]
        )
        found = find_rollback_contact(
            plan, plan.volumes(), _bundle(), ("S", "X"), now=5.0, bookings={}
        )
        assert found == plan.contact(2)
        assert found.to_node == "S"

    def test_no_upstream_at_source(self):
        plan = _one_hop_plan()
        found = find_rollback_contact(plan, plan.volumes(), _bundle(), ("S",), now=0.0, bookings={})
        assert found is None

    def test_expired_reverse_contact_unusable(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=0, t_end=10, rate=1, owlt=1),
            ]
        )
        found = find_rollback_contact(
            plan, plan.volumes(), _bundle(), ("S", "X"), now=20.0, bookings={}
        )
        assert found is None

    def test_fully_booked_reverse_contact_unusable(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=0, t_end=60, rate=1, owlt=1),
            ]
        )
        bundle = _bundle(size=5.0)
        bookings = {2: [Booking(copy_id=7, mb=58.0, priority=2, seq=1)]}
        found = find_rollback_contact(
            plan, plan.volumes(), bundle, ("S", "X"), now=0.0, bookings=bookings
        )
        assert found is None

    def test_spent_reverse_contact_unusable(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=0, t_end=60, rate=1, owlt=1),
            ]
        )
        residual = plan.volumes()
        residual[2] = 4.0
        found = find_rollback_contact(
            plan, residual, _bundle(size=5.0), ("S", "X"), now=0.0, bookings={}
        )
        assert found is None

"""Simulation engine: lifecycles, discipline invariants, metrics, determinism."""

import hashlib
import math
from dataclasses import replace

import pytest

from cgrlab import routesearch, simcore
from cgrlab.contactplan import (
    Contact,
    ContactPlan,
    make_demo_plan,
    serialize_contact_plan,
    with_transit_margin,
)
from cgrlab.forwarding import POLICY_RMDG, POLICY_STANDARD, Bundle
from cgrlab.routesearch import build_contact_graph
from cgrlab.simcore import (
    OUTCOME_DELIVERED,
    OUTCOME_EXPIRED,
    OUTCOME_NEVER_ROUTED,
    run_simulation,
)
from cgrlab.traffic import ScenarioSpec, generate_scenario

from selection_oracle import full_selection_run
from spur_oracle import yen_full_loop


def _one_hop_plan(ts=0, te=60, rate=1.0):
    return ContactPlan.build(
        [
            Contact(id=1, from_node="S", to_node="D", t_start=ts, t_end=te, rate=rate, owlt=1),
            Contact(id=2, from_node="D", to_node="S", t_start=ts, t_end=te, rate=rate, owlt=1),
        ]
    )


def _bundle(bid=1, src="S", dst="D", size=1.0, priority=0, critical=False, t_gen=0.0, ttl=30.0):
    return Bundle(
        id=bid, source=src, dest=dst, size=size, priority=priority,
        critical=critical, t_gen=t_gen, t_exp=t_gen + ttl,
    )


class TestSingleBundle:
    def test_delivery_time_and_margin(self):
        metrics = run_simulation(_one_hop_plan(), [_bundle(t_gen=3.0, ttl=27.0)], POLICY_STANDARD)
        rec = metrics.records[1]
        assert rec.outcome == OUTCOME_DELIVERED
        assert rec.t_delivered == 5.0  # one second transmitting, one second in flight
        assert rec.early_margin == 25.0

    def test_zero_bundles(self):
        metrics = run_simulation(_one_hop_plan(), [], POLICY_STANDARD)
        assert metrics.generated == 0
        assert all(row.r_o == 0 for row in metrics.rows)
        assert all(row.mb_at_sending == 0 for row in metrics.rows)

    def test_unknown_node_rejected_before_start(self):
        with pytest.raises(ValueError, match="unknown node"):
            run_simulation(_one_hop_plan(), [_bundle(dst="Z")], POLICY_STANDARD)

    def test_unknown_policy_or_owlt_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown policy 'bogus'$"):
            run_simulation(_one_hop_plan(), [_bundle()], "bogus")
        with pytest.raises(ValueError, match="^unknown owlt mode 'bogus'$"):
            run_simulation(_one_hop_plan(), [_bundle()], POLICY_STANDARD, owlt_mode="bogus")

    def test_duplicate_bundle_id_rejected_before_start(self):
        bundles = [_bundle(bid=7), _bundle(bid=7, t_gen=2.0)]
        with pytest.raises(ValueError, match="duplicate bundle id 7"):
            run_simulation(_one_hop_plan(), bundles, POLICY_STANDARD)

    def test_generation_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            run_simulation(_one_hop_plan(), [_bundle(t_gen=100.0)], POLICY_STANDARD)

    @pytest.mark.parametrize(
        "size, t_exp",
        [(math.inf, 30.0), (1.0, math.inf), (1.0, math.nan)],
        ids=["inf-size", "inf-expiry", "nan-expiry"],
    )
    def test_non_finite_size_or_expiry_rejected_before_start(self, size, t_exp):
        # the Bundle itself refuses, so no run can be handed one
        with pytest.raises(ValueError, match="bundle 3: size and expiry must be finite"):
            Bundle(id=3, source="S", dest="D", size=size, priority=0, critical=False,
                   t_gen=0.0, t_exp=t_exp)

    @pytest.mark.parametrize(
        "owlt_mode, last", [("file", "1000000.5"), ("uniform", "1000001.0")], ids=["file", "uniform"]
    )
    def test_horizon_past_run_cap_rejected_before_start(self, owlt_mode, last):
        # the last arrival can land one light time after the horizon
        plan = ContactPlan.build(
            [Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=simcore.MAX_RUN_S,
                     rate=1, owlt=0.5)]
        )
        message = f"plan horizon plus light time {last} s passes the run cap of 1000000 s"
        with pytest.raises(ValueError, match=message):
            run_simulation(plan, [], POLICY_STANDARD, owlt_mode=owlt_mode)

    def test_unreachable_destination_never_routed(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="D", t_start=0, t_end=60, rate=1, owlt=1),
            ]
        )
        metrics = run_simulation(plan, [_bundle()], POLICY_STANDARD)
        assert metrics.records[1].outcome == OUTCOME_NEVER_ROUTED

    def test_demo_plan_end_to_end(self):
        plan = make_demo_plan()
        bundle = Bundle(id=1, source="A", dest="F", size=1.0, priority=1,
                        critical=False, t_gen=0.0, t_exp=40.0)
        metrics = run_simulation(plan, [bundle], POLICY_STANDARD, owlt_mode="file")
        rec = metrics.records[1]
        assert rec.outcome == OUTCOME_DELIVERED
        # best route waits for the 30s window: last byte lands at 34
        assert rec.t_delivered == 34.0


class TestPriorityDiscipline:
    def test_higher_priority_transmits_first(self):
        plan = _one_hop_plan(ts=2)
        bundles = [
            _bundle(bid=1, priority=0, size=2.0),
            _bundle(bid=2, priority=2, size=2.0, critical=True),
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        assert metrics.records[2].t_delivered < metrics.records[1].t_delivered

    def test_no_lower_priority_bit_before_queued_higher(self):
        plan = _one_hop_plan(ts=5)
        bundles = [
            _bundle(bid=1, priority=0, size=3.0),
            _bundle(bid=2, priority=1, size=3.0, t_gen=1.0),
            _bundle(bid=3, priority=2, size=3.0, t_gen=2.0, critical=True),
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        order = sorted(
            (rec.t_delivered, bid) for bid, rec in metrics.records.items()
        )
        assert [bid for _, bid in order] == [3, 2, 1]


class TestSelectionOrderPolicy:
    def test_rmdg_processes_by_priority_then_expiry(self):
        plan = _one_hop_plan(ts=2)
        bundles = [
            _bundle(bid=1, priority=0, size=4.0, ttl=30.0),
            _bundle(bid=2, priority=1, size=4.0, ttl=29.0),
            _bundle(bid=3, priority=1, size=4.0, ttl=28.0),
        ]
        log = run_simulation(plan, bundles, POLICY_RMDG).dispatch_log
        first_three = [entry[1] for entry in log[:3]]
        assert first_three == [3, 2, 1]  # priority desc, then earliest expiry

    def test_standard_processes_in_arrival_order(self):
        plan = _one_hop_plan(ts=2)
        bundles = [
            _bundle(bid=1, priority=0, size=4.0, ttl=30.0),
            _bundle(bid=2, priority=1, size=4.0, ttl=29.0),
            _bundle(bid=3, priority=1, size=4.0, ttl=28.0),
        ]
        log = run_simulation(plan, bundles, POLICY_STANDARD).dispatch_log
        assert [entry[1] for entry in log[:3]] == [1, 2, 3]


class TestOverbooking:
    def test_displacement_recorded_and_resolved(self):
        plan = _one_hop_plan(ts=2, te=10)
        bundles = [
            _bundle(bid=1, priority=0, size=8.0, ttl=25.0),
            _bundle(bid=2, priority=2, size=8.0, ttl=25.0, critical=True),
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        reasons = {entry[6] for entry in metrics.dispatch_log}
        assert "overbook_displace" in reasons
        assert metrics.records[2].outcome == OUTCOME_DELIVERED
        assert metrics.records[1].outcome in (OUTCOME_EXPIRED, OUTCOME_NEVER_ROUTED)

    def test_booked_volume_never_exceeds_capacity(self):
        plan = _one_hop_plan(te=20)
        bundles = [_bundle(bid=i, size=6.0, ttl=25.0) for i in range(1, 6)]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        c = plan.contact(1)
        assert metrics.contact_usage[1] <= c.volume + 1e-9


class TestQueuePaths:
    """Queued copies leaving a contact's queue without being transmitted."""

    def _two_window_plan(self):
        # S->D twice: [0, 10] and a later [20, 30]; reverse links for rollback
        return ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=2, from_node="D", to_node="S", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=3, from_node="S", to_node="D", t_start=20, t_end=30, rate=1, owlt=1),
                Contact(id=4, from_node="D", to_node="S", t_start=20, t_end=30, rate=1, owlt=1),
            ]
        )

    def _dispatches(self, metrics):
        return [(t, bid, cid, reason) for t, bid, _, _, cid, _, reason in metrics.dispatch_log]

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_contact_end_flushes_queued_copy_to_selection(self, policy):
        # bundle 4 (priority 1) overtakes queued bundle 3 and transmits until
        # the window closes at t=10; the contact end hands 3 back to
        # selection, which books it on the later window
        bundles = [
            _bundle(bid=1, size=1.0),
            _bundle(bid=2, size=2.0, t_gen=4.0),
            _bundle(bid=3, size=1.0, t_gen=4.0),
            _bundle(bid=4, size=4.0, priority=1, t_gen=5.0),
        ]
        metrics = run_simulation(self._two_window_plan(), bundles, policy)
        assert self._dispatches(metrics) == [
            (0.0, 1, 1, "select"),
            (4.0, 2, 1, "select"),
            (4.0, 3, 1, "select"),
            (5.0, 4, 1, "select"),
            (10.0, 3, 3, "select"),
        ]
        delivered = {bid: rec.t_delivered for bid, rec in metrics.records.items()}
        assert delivered == {1: 2.0, 2: 7.0, 3: 22.0, 4: 11.0}
        assert metrics.contact_usage[1] == 7.0 and metrics.contact_usage[3] == 1.0

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_expiry_removes_queued_copy(self, policy):
        # bundle 4 (priority 1) overtakes queued bundle 3, which expires at
        # t=8 while still queued; at t=9 the queue is empty, so 3 never
        # transmits although it would still fit the window
        bundles = [
            _bundle(bid=1, size=1.0),
            _bundle(bid=2, size=3.0, t_gen=3.0),
            _bundle(bid=3, size=1.0, t_gen=4.0, ttl=4.0),
            _bundle(bid=4, size=3.0, priority=1, t_gen=5.0),
        ]
        metrics = run_simulation(self._two_window_plan(), bundles, policy)
        assert self._dispatches(metrics) == [
            (0.0, 1, 1, "select"),
            (3.0, 2, 1, "select"),
            (4.0, 3, 1, "select"),
            (5.0, 4, 1, "select"),
        ]
        assert metrics.records[3].outcome == OUTCOME_NEVER_ROUTED
        delivered = {
            bid: rec.t_delivered for bid, rec in metrics.records.items() if bid != 3
        }
        assert delivered == {1: 2.0, 2: 7.0, 4: 10.0}
        assert metrics.contact_usage[1] == 7.0

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_booking_that_no_longer_fits_returns_to_selection(self, policy):
        # bundle 4 (priority 1) overtakes queued bundle 3, which at t=9 no
        # longer fits before the window ends at t=10 and is rebooked later
        bundles = [
            _bundle(bid=1, size=1.0),
            _bundle(bid=2, size=3.0, t_gen=3.0),
            _bundle(bid=3, size=2.0, t_gen=4.0),
            _bundle(bid=4, size=3.0, priority=1, t_gen=5.0),
        ]
        metrics = run_simulation(self._two_window_plan(), bundles, policy)
        assert self._dispatches(metrics) == [
            (0.0, 1, 1, "select"),
            (3.0, 2, 1, "select"),
            (4.0, 3, 1, "select"),
            (5.0, 4, 1, "select"),
            (9.0, 3, 3, "select"),
        ]
        delivered = {bid: rec.t_delivered for bid, rec in metrics.records.items()}
        assert delivered == {1: 2.0, 2: 7.0, 3: 23.0, 4: 10.0}
        assert metrics.contact_usage[1] == 7.0 and metrics.contact_usage[3] == 2.0


class TestCopyStates:
    def test_attempt_after_expiry_is_refused(self):
        # _handle_expire retires every stored copy at its bundle's expiry
        engine = simcore._Engine(_one_hop_plan(), [_bundle()], POLICY_STANDARD, 0, 4, "uniform")
        copy = engine._new_copy(engine.bundles[0], ("S",))
        with pytest.raises(AssertionError, match="copy 1: attempted at 31.0, after its expiry at 30.0"):
            engine._attempt_forward(copy, 31.0)

    def test_move_refuses_illegal_transitions(self):
        engine = simcore._Engine(_one_hop_plan(), [_bundle()], POLICY_STANDARD, 0, 4, "uniform")
        copy = engine._new_copy(engine.bundles[0], ("S",))
        assert copy.state == simcore._STORED and engine.nodes["S"].stored == {1: copy}
        with pytest.raises(AssertionError, match="stored -> in_flight"):
            engine._move(copy, simcore._IN_FLIGHT, 0.0)
        engine._move(copy, simcore._RETIRED, 0.0)
        assert not engine.alive and not engine.nodes["S"].stored
        with pytest.raises(AssertionError, match="retired -> stored"):
            engine._move(copy, simcore._STORED, 0.0)
        assert copy.state == simcore._RETIRED
        assert not engine.alive and not engine.nodes["S"].stored and not engine.heap


class TestRollback:
    def _contested_run(self):
        # A commits to S->X->D, but while it crosses the first hop a local
        # bundle at X seizes the onward window; A must return to S
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=0, t_end=20, rate=1, owlt=1),
                Contact(id=3, from_node="X", to_node="D", t_start=0, t_end=12, rate=1, owlt=1),
                Contact(id=4, from_node="D", to_node="X", t_start=0, t_end=12, rate=1, owlt=1),
            ]
        )
        bundles = [
            Bundle(id=1, source="S", dest="D", size=3.0, priority=0, critical=False,
                   t_gen=0.0, t_exp=20.0),
            Bundle(id=2, source="X", dest="D", size=8.0, priority=1, critical=False,
                   t_gen=2.0, t_exp=24.0),
        ]
        return run_simulation(plan, bundles, POLICY_STANDARD)

    def test_rollback_returns_to_upstream(self):
        metrics = self._contested_run()
        rollbacks = [e for e in metrics.dispatch_log if e[6] == "rollback"]
        assert rollbacks and rollbacks[0][1] == 1
        assert (rollbacks[0][2], rollbacks[0][3]) == ("X", "S")
        assert metrics.records[1].outcome == OUTCOME_EXPIRED
        assert metrics.records[2].outcome == OUTCOME_DELIVERED

    def test_rollback_consumes_reverse_volume(self):
        metrics = self._contested_run()
        assert metrics.contact_usage[2] == 3.0

    def test_stuck_at_source_is_stored_until_expiry(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="D", t_start=50, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="D", to_node="S", t_start=50, t_end=60, rate=1, owlt=1),
            ]
        )
        metrics = run_simulation(plan, [_bundle(ttl=20.0)], POLICY_STANDARD)
        assert metrics.records[1].outcome == OUTCOME_NEVER_ROUTED
        assert not [e for e in metrics.dispatch_log if e[6] == "rollback"]

    def test_no_second_rollback_to_the_node_it_left(self):
        # S and X reach each other, D is out of reach: a stuck copy's only
        # move is a rollback to the node before it on its trace
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="X", t_start=10, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="X", to_node="S", t_start=10, t_end=60, rate=1, owlt=1),
                Contact(id=3, from_node="D", to_node="S", t_start=10, t_end=60, rate=1, owlt=1),
            ]
        )
        bundle = _bundle()
        engine = simcore._Engine(plan, [bundle], POLICY_STANDARD, 0, 4, "uniform")
        # rolled back from X to S: it does not go back to X
        returned = engine._new_copy(bundle, ("S", "X", "S"))
        returned.no_rollback_to = "X"
        engine._rollback(returned, 5.0)
        assert returned.state == simcore._STORED
        # rolled back from X once, then forwarded to X again: it may return to S
        forwarded = engine._new_copy(bundle, ("S", "X", "S", "X"))
        forwarded.no_rollback_to = "X"
        engine._rollback(forwarded, 5.0)
        assert (forwarded.state, forwarded.queued_on) == (simcore._QUEUED, 2)
        assert [e[2:5] for e in engine.dispatch_log] == [("X", "S", 2)]


class TestCriticalReplication:
    def _critical(self):
        return Bundle(id=1, source="A", dest="F", size=1.0, priority=2,
                      critical=True, t_gen=0.0, t_exp=40.0)

    def test_standard_floods_distinct_neighbors(self):
        plan = make_demo_plan()
        log = run_simulation(plan, [self._critical()], POLICY_STANDARD, owlt_mode="file").dispatch_log
        first_wave = [e for e in log if e[0] == 0.0 and e[2] == "A"]
        assert {e[3] for e in first_wave} == {"B", "C"}

    def test_rmdg_sends_single_copy(self):
        plan = make_demo_plan()
        log = run_simulation(plan, [self._critical()], POLICY_RMDG, owlt_mode="file").dispatch_log
        first_wave = [e for e in log if e[0] == 0.0 and e[2] == "A"]
        assert len(first_wave) == 1 and first_wave[0][3] == "C"

    def test_both_policies_deliver(self):
        plan = make_demo_plan()
        for policy in (POLICY_STANDARD, POLICY_RMDG):
            metrics = run_simulation(plan, [self._critical()], policy, owlt_mode="file")
            assert metrics.records[1].outcome == OUTCOME_DELIVERED

    def test_rmdg_never_dispatches_to_known_holder(self):
        plan = make_demo_plan()
        metrics = run_simulation(plan, [self._critical()], POLICY_RMDG, owlt_mode="file")
        sent_to: dict[str, set[str]] = {}
        for t, bid, frm, to, cid, policy, reason in metrics.dispatch_log:
            if reason == "critical_copy":
                assert to not in sent_to.get(frm, set())
                sent_to.setdefault(frm, set()).add(to)

    def _spy_reviews(self, monkeypatch):
        """Log (bundle id, now, route volume) of each review."""
        reviews = []
        real_review = simcore._Engine._review_route

        def review(engine, route, copy, now):
            cand = real_review(engine, route, copy, now)
            reviews.append((copy.bundle.id, now, route.volume))
            return cand

        monkeypatch.setattr(simcore._Engine, "_review_route", review)
        return reviews

    def test_same_instant_reviews_see_current_volume(self, monkeypatch):
        # two critical bundles reviewed at S at t=0: the first starts
        # transmitting on the only contact, so the second must be reviewed
        # against the contact's reduced residual volume, from one search
        reviews, searches = self._spy_reviews(monkeypatch), []
        real_search = routesearch._search

        def search(plan, start, start_time, *args):
            searches.append((start, start_time))
            return real_search(plan, start, start_time, *args)

        monkeypatch.setattr(routesearch, "_search", search)
        bundles = [_bundle(bid=i, size=2.0, priority=2, critical=True) for i in (1, 2)]
        plan = _one_hop_plan(te=10)
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        assert reviews[:2] == [(1, 0.0, 10.0), (2, 0.0, 8.0)]
        assert searches.count((plan.node_index["S"], 0.0)) == 1
        assert metrics.rows[1].computing_cum == 4  # two searches, two reviews

    def test_route_is_re_evaluated_only_after_a_transmission_start(self, monkeypatch):
        # bundle 1 starts transmitting at t=0 and lowers the residual volume;
        # bundle 2 queues behind it and leaves the volume as it is, so bundle
        # 3 is reviewed on the route evaluated for bundle 2
        reviews, evaluations = self._spy_reviews(monkeypatch), []
        for module in (simcore, routesearch):
            def evaluate(plan, residual, hops, depart, real=module.evaluate_route):
                evaluations.append(depart)
                return real(plan, residual, hops, depart)

            monkeypatch.setattr(module, "evaluate_route", evaluate)
        bundles = [_bundle(bid=i, size=2.0, priority=2, critical=True) for i in (1, 2, 3)]
        run_simulation(_one_hop_plan(te=10), bundles, POLICY_STANDARD)
        assert reviews == [(1, 0.0, 10.0), (2, 0.0, 8.0), (3, 0.0, 8.0)]
        assert evaluations == [0.0, 0.0]

    @pytest.mark.parametrize(
        "now, trace, searched",
        [(0.0, ("A",), ["B", "C"]), (6.0, ("A",), ["B"]), (15.0, ("A",), ["B"]),
         (0.0, ("C", "A"), ["B"])],
        ids=["open", "one-closed", "latest-window", "on-trace"],
    )
    def test_one_search_per_neighbour_with_a_whole_second_left(
        self, monkeypatch, now, trace, searched
    ):
        # A reaches B over two contacts, [0, 10] and [20, 40], and C over one
        # whose last whole second starts at t=4
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te, rate=1.0, owlt=1)
                for cid, (frm, to, ts, te) in enumerate(
                    [("A", "B", 0, 10), ("A", "B", 20, 40), ("A", "C", 0, 5),
                     ("B", "D", 0, 40), ("C", "D", 0, 40)],
                    start=1,
                )
            ]
        )
        vias = []

        def bdt(graph, depart, via, real=simcore.dijkstra_bdt):
            vias.append(via)
            return real(graph, depart=depart, via=via)

        monkeypatch.setattr(simcore, "dijkstra_bdt", bdt)
        bundle = _bundle(src="A", priority=2, critical=True)
        engine = simcore._Engine(plan, [bundle], POLICY_STANDARD, 0, 4, "uniform")
        engine._critical_candidates(engine._new_copy(bundle, trace), now)
        assert vias == searched
        assert engine.computing == len(searched) * 2  # a search and a review each

    def test_standard_uses_more_transmissions(self):
        plan = make_demo_plan()
        std = run_simulation(plan, [self._critical()], POLICY_STANDARD, owlt_mode="file")
        rmdg = run_simulation(plan, [self._critical()], POLICY_RMDG, owlt_mode="file")
        assert sum(std.contact_usage.values()) > sum(rmdg.contact_usage.values())


class TestAdmission:
    """EVL is computed only for a non-critical bundle whose PAT meets expiry."""

    def _run(self, monkeypatch, plan, bundles, policy):
        evl_calls, reviews = [], []
        real_evl = simcore.compute_evl
        real_review = simcore._Engine._review_route

        def evl(*args):
            evl_calls.append(args)
            return real_evl(*args)

        def review(engine, route, copy, now):
            cand = real_review(engine, route, copy, now)
            reviews.append((copy.bundle.id, now, cand))
            return cand

        monkeypatch.setattr(simcore, "compute_evl", evl)
        monkeypatch.setattr(simcore._Engine, "_review_route", review)
        return run_simulation(plan, bundles, policy), evl_calls, reviews

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_critical_review_skips_evl(self, monkeypatch, policy):
        bundle = _bundle(priority=2, critical=True)
        metrics, evl_calls, reviews = self._run(monkeypatch, _one_hop_plan(), [bundle], policy)
        assert metrics.records[1].outcome == OUTCOME_DELIVERED
        assert reviews and not evl_calls

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_pat_past_expiry_skips_evl(self, monkeypatch, policy):
        # the first byte can arrive at t=1, the last only at t=6
        bundle = _bundle(size=5.0, ttl=4.0)
        metrics, evl_calls, reviews = self._run(monkeypatch, _one_hop_plan(), [bundle], policy)
        assert [cand.admissible for _, _, cand in reviews] == [False]
        assert metrics.records[1].outcome == OUTCOME_NEVER_ROUTED
        assert not evl_calls

    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_booked_second_hop_fails_evl_and_keeps_the_copy_stored(self, monkeypatch, policy):
        # a critical copy at R books all 2 Mb of R->D before it opens at t=10;
        # bundle 2 (priority 1) at S meets its expiry over S->R->D, but no
        # volume is left for it on the second hop
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="R", t_start=0, t_end=60, rate=1, owlt=1),
                Contact(id=2, from_node="R", to_node="D", t_start=10, t_end=12, rate=1, owlt=1),
            ]
        )
        bundles = [
            _bundle(bid=1, src="R", size=2.0, priority=2, critical=True),
            _bundle(bid=2, priority=1),
        ]
        metrics, evl_calls, reviews = self._run(monkeypatch, plan, bundles, policy)
        assert [(now, cand.admissible) for bid, now, cand in reviews if bid == 2] == [(0.0, False)]
        assert len(evl_calls) == 1
        assert metrics.records[1].outcome == OUTCOME_DELIVERED
        assert metrics.records[2].outcome == OUTCOME_NEVER_ROUTED
        assert [e[1] for e in metrics.dispatch_log] == [1]


class TestRepeatSelections:
    # A holds a critical bundle for D.  Its three neighbours' contacts open
    # at t=10 and each reaches D only at t=26, after expiry, so every review
    # fails and the copy stays stored; one attempt counts 3 searches and 3
    # reviews.
    ATTEMPT = 6

    def _plan(self):
        return ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=30, rate=1.0, owlt=1)
                for cid, (frm, to, ts) in enumerate(
                    [("A", "B", 10), ("A", "C", 10), ("A", "E", 10),
                     ("B", "D", 25), ("C", "D", 25), ("E", "D", 25)],
                    start=1,
                )
            ]
        )

    def _critical(self):
        return _bundle(src="A", priority=2, critical=True, ttl=20.0)

    def _spy(self, monkeypatch):
        """Number each attempt; log the number of the attempt behind each review."""
        attempts, reviews = [], []
        real_attempt = simcore._Engine._attempt_forward
        real_review = simcore._Engine._review_route

        def attempt(engine, copy, now):
            attempts.append((copy.copy_id, now))
            real_attempt(engine, copy, now)

        def review(engine, route, copy, now):
            reviews.append(len(attempts))
            return real_review(engine, route, copy, now)

        monkeypatch.setattr(simcore._Engine, "_attempt_forward", attempt)
        monkeypatch.setattr(simcore._Engine, "_review_route", review)
        return attempts, reviews

    def test_same_instant_repeats_are_counted_not_reviewed(self, monkeypatch):
        attempts, reviews = self._spy(monkeypatch)
        metrics = run_simulation(self._plan(), [self._critical()], POLICY_STANDARD)
        # each contact start re-attempts the stored copy
        assert attempts == [(1, 0.0)] + [(1, 10.0)] * 3
        assert reviews == [1] * 3 + [2] * 3
        assert metrics.rows[9].computing_cum == self.ATTEMPT
        assert metrics.rows[10].computing_cum == 4 * self.ATTEMPT
        assert metrics.dispatch_log == []
        assert metrics.records[1].outcome == OUTCOME_NEVER_ROUTED

    def test_enqueue_between_repeats_forces_a_fresh_review(self, monkeypatch):
        _, reviews = self._spy(monkeypatch)
        held_bundle = self._critical()
        other = _bundle(bid=2, src="A", dst="B")
        engine = simcore._Engine(self._plan(), [held_bundle, other], POLICY_STANDARD, 0, 4, "uniform")
        held = engine._new_copy(held_bundle, ("A",))
        engine.nodes["A"].seen_critical[held_bundle.id] = {"A"}
        # at t=5 no contact is open yet, so the enqueue starts no transmission
        engine._attempt_forward(held, 5.0)
        engine._attempt_forward(held, 5.0)
        assert len(reviews) == 3
        assert engine._enqueue(engine._new_copy(other, ("A",)), engine.plan.contact(1), 5.0, "select")
        assert engine.queues[1] and engine.busy_until.get(1, -1.0) < 5.0
        engine._attempt_forward(held, 5.0)
        assert len(reviews) == 6
        engine._attempt_forward(held, 5.0)
        assert len(reviews) == 6
        assert engine.computing == 4 * self.ATTEMPT

    def test_version_keyed_repeat_after_an_enqueue_elsewhere_is_attempted_in_full(
        self, monkeypatch
    ):
        # under rmdg the copy's key is the engine's version.  The first
        # attempt computes the route list (one search per route and one more,
        # then two passes of three reviews), which moves the version, so only
        # the second is kept as idle; an enqueue at B moves the version too
        _, reviews = self._spy(monkeypatch)
        held_bundle = self._critical()
        other = _bundle(bid=2, src="B")
        engine = simcore._Engine(self._plan(), [held_bundle, other], POLICY_RMDG, 0, 4, "uniform")
        held = engine._new_copy(held_bundle, ("A",))
        engine.nodes["A"].seen_critical[held_bundle.id] = {"A"}
        counted = []
        for attempt in range(5):
            if attempt == 3:
                # contact 4, B -> D, opens at t=25: the copy stays queued
                assert engine._enqueue(
                    engine._new_copy(other, ("B",)), engine.plan.contact(4), 5.0, "select")
            before = engine.computing
            engine._attempt_forward(held, 5.0)
            counted.append(engine.computing - before)
        assert counted == [10, 6, 6, 6, 6]
        assert reviews == [1] * 6 + [2] * 6 + [4] * 6

    def test_full_selection_oracle_runs_every_repeat(self, monkeypatch):
        # the oracle has its own _attempt_forward: count candidate computations
        computed = []
        real = simcore._Engine._critical_candidates

        def critical(engine, copy, now):
            computed.append(now)
            return real(engine, copy, now)

        monkeypatch.setattr(simcore._Engine, "_critical_candidates", critical)
        plan, bundles = self._plan(), [self._critical()]
        metrics = full_selection_run(plan, bundles, POLICY_STANDARD)
        assert computed == [0.0] + [10.0] * 3
        expected = run_simulation(plan, bundles, POLICY_STANDARD)
        assert computed[4:] == [0.0, 10.0]
        assert metrics.computing_total == expected.computing_total == 4 * self.ATTEMPT


class TestBlanketIdleKey:
    """A blanket attempt (a critical copy under standard) is kept as idle
    against its node's stamp, which moves with the queue, residual volume or
    busy_until of a contact leaving the node and with nothing else."""

    # A holds a critical bundle for D that expires at t=20: through B and
    # through C it reaches D only at t=26, so every attempt counts two
    # searches and two reviews and changes nothing.  X -> Y is elsewhere.
    LINKS = [("A", "B", 10, 30), ("A", "C", 10, 30), ("B", "D", 25, 30), ("C", "D", 25, 30),
             ("X", "Y", 10, 30), ("A", "B", 0, 8), ("X", "Y", 0, 8)]
    # per change: the contact it acts on at A, the one elsewhere, and its instant
    CHANGES = {
        "enqueue": (1, 5, 5.0),
        "transmission-start": (1, 5, 10.0),
        "expiry-removal": (1, 5, 8.0),
        "contact-end-flush": (6, 7, 8.0),
    }

    def _engine(self, other):
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te, rate=1.0, owlt=1)
                for cid, (frm, to, ts, te) in enumerate(self.LINKS, start=1)
            ]
        )
        held_bundle = _bundle(src="A", priority=2, critical=True, ttl=20.0)
        engine = simcore._Engine(plan, [held_bundle, *other], POLICY_STANDARD, 0, 4, "uniform")
        held = engine._new_copy(held_bundle, ("A",))
        engine.nodes["A"].seen_critical[held_bundle.id] = {"A"}
        return engine, held

    def _reviews(self, monkeypatch):
        reviews = []
        real_review = simcore._Engine._review_route

        def review(engine, route, copy, now):
            reviews.append(now)
            return real_review(engine, route, copy, now)

        monkeypatch.setattr(simcore._Engine, "_review_route", review)
        return reviews

    @pytest.mark.parametrize("at_a", [True, False], ids=["leaving-A", "elsewhere"])
    @pytest.mark.parametrize("change", list(CHANGES))
    def test_change_between_repeats(self, monkeypatch, change, at_a):
        reviews = self._reviews(monkeypatch)
        at, elsewhere, now = self.CHANGES[change]
        # other's copy waits in the queue of a contact that is not open
        frm, to, *_ = self.LINKS[(at if at_a else elsewhere) - 1]
        other = _bundle(bid=2, src=frm, dst=to, ttl=8.0 if change == "expiry-removal" else 30.0)
        engine, held = self._engine([other])
        contact = engine.plan.contact(at if at_a else elsewhere)
        queued = engine._new_copy(other, (frm,))
        if change != "enqueue":
            enqueue_at = 5.0 if change == "transmission-start" else now
            assert engine._enqueue(queued, contact, enqueue_at, "select")
            assert queued.state == simcore._QUEUED
        counted = []
        for attempt in range(3):
            if attempt == 2:
                if change == "enqueue":
                    assert engine._enqueue(queued, contact, now, "select")
                elif change == "transmission-start":
                    engine._try_start(contact, now)
                    assert queued.state == simcore._IN_FLIGHT
                elif change == "expiry-removal":
                    engine._handle_expire(other.id, now)
                    assert queued.state == simcore._RETIRED
                else:
                    engine._handle_contact_end(contact, now)
                    assert queued.state == simcore._STORED
            before = len(reviews)
            engine._attempt_forward(held, now)
            counted.append(len(reviews) - before)
        assert counted == ([2, 0, 2] if at_a else [2, 0, 0])
        assert engine.computing == 3 * 4
        assert held.state == simcore._STORED

    def test_arrival_clears_the_idle_record(self, monkeypatch):
        # kept at A against A's stamp, the record would match B's equal
        # stamp after an arrival at B at the same instant
        reviews = self._reviews(monkeypatch)
        engine, held = self._engine([])
        engine._attempt_forward(held, 12.0)
        engine._move(held, simcore._QUEUED, 12.0, queued_on=1)
        engine._move(held, simcore._IN_FLIGHT, 12.0)
        engine._handle_arrival(held, engine.plan.contact(1), 12.0)
        assert held.at_node == "B" and engine.stamps["A"] == engine.stamps["B"] == 0
        engine._attempt_forward(held, 12.0)
        # through D only, which it reaches at t=26
        assert reviews == [12.0, 12.0, 12.0]


class TestRouteListTiming:
    """``_candidates`` uses a listed route as it stands when its list was
    computed at this instant and each hop's residual volume still covers it."""

    def test_listed_route_is_timed_again_only_below_its_volume(self, monkeypatch):
        # S reaches D directly (contact 1, volume 60) and through A
        # (contacts 2 and 3, volume 59); both bundles are at S at t=0
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node=to, t_start=0, t_end=60, rate=1.0, owlt=1)
                for cid, (frm, to) in enumerate([("S", "D"), ("S", "A"), ("A", "D")], start=1)
            ]
        )
        bundles = [_bundle(bid=i, size=2.0) for i in (1, 2)]
        engine = simcore._Engine(plan, bundles, POLICY_RMDG, 0, 4, "uniform")
        timed = []

        def evaluate(plan, residual, hops, depart, real=simcore.evaluate_route):
            timed.append(tuple(hops))
            return real(plan, residual, hops, depart)

        monkeypatch.setattr(simcore, "evaluate_route", evaluate)
        first, second = (engine._new_copy(b, ("S",)) for b in bundles)
        listed = [c.route for c in engine._candidates(first, 0.0)]
        assert [(r.hops, r.volume) for r in listed] == [((1,), 60.0), ((2, 3), 59.0)]
        assert [c.route for c in engine._candidates(second, 0.0)] == listed
        assert timed == []
        # the first copy starts transmitting on contact 1 and lowers its residual
        assert engine._enqueue(first, plan.contact(1), 0.0, "select")
        assert engine.residual == {1: 58.0, 2: 60.0, 3: 60.0}
        routes = [c.route for c in engine._candidates(second, 0.0)]
        assert timed == [(1,)]
        assert routes[0] == listed[0]._replace(volume=58.0) and routes[1] is listed[1]


class TestSearchReuse:
    # S reaches D through A: A -> D closes at t=20, A -> B -> D stays open.
    # A critical copy at S is reviewed through its one neighbour A, one
    # bundle generated at each instant below.

    def _log(self, monkeypatch):
        """Log (depart, searched, hops) of each dijkstra_bdt call from S."""
        searches, log = [], []
        real_search = routesearch._search
        real_bdt = simcore.dijkstra_bdt

        def search(*args):
            searches.append(args)
            return real_search(*args)

        def bdt(graph, depart, via):
            before = len(searches)
            route = real_bdt(graph, depart=depart, via=via)
            if graph.source == "S":
                assert via == "A"
                log.append((depart, len(searches) > before, route and route.hops))
            return route

        monkeypatch.setattr(routesearch, "_search", search)
        monkeypatch.setattr(simcore, "dijkstra_bdt", bdt)
        return log

    def _run(self, links, t_gens):
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te, rate=1.0, owlt=1)
                for cid, (frm, to, ts, te) in enumerate(links, start=1)
            ]
        )
        bundles = [
            _bundle(bid=i, priority=2, critical=True, t_gen=t)
            for i, t in enumerate(t_gens, start=1)
        ]
        run_simulation(plan, bundles, POLICY_STANDARD)

    def test_reused_up_to_the_last_departure_the_window_allows(self, monkeypatch):
        log = self._log(monkeypatch)
        links = [("S", "A", 0, 60), ("A", "D", 0, 20), ("A", "B", 0, 60), ("B", "D", 0, 60)]
        self._run(links, [0.0, 17.0, 18.0, 19.0])
        # from S at 0 the search arrives at D at 2, and A's contact to D must
        # be left by 19, so the kept search stands in while that `last` stays
        # at or above the shifted arrival 2 + delta: up to 17.  From 18 the
        # short route still leaves A at 19; from 19 it has closed.
        short, long = (1, 2), (1, 3, 4)
        assert log[:4] == [
            (0.0, True, short), (17.0, False, short), (18.0, True, short), (19.0, True, long)
        ]

    def test_search_that_waits_is_never_reused(self, monkeypatch):
        # the search waits at S for contact 1, which opens at 10, before the
        # arrival at D, so the opening lies in every later span below 10
        log = self._log(monkeypatch)
        self._run([("S", "A", 10, 60), ("A", "D", 0, 60)], [0.0, 1.0, 2.0])
        assert [searched for t, searched, _ in log if t < 10] == [True] * 3


class TestMetricsSeries:
    def test_fresh_engine_samples_zero(self):
        metrics = run_simulation(_one_hop_plan(), [_bundle(t_gen=5.0)], POLICY_STANDARD)
        row = metrics.rows[0]
        assert row.t == 0 and row.computing_cum == 0
        assert row.r_o == 0 and row.storage_bundles == 0
        assert row.mb_to_send == 0 and row.mb_at_sending == 0 and row.mb_sent == 0

    def test_each_sample_calls_occupancy_rate_once_by_its_imported_name(self, monkeypatch):
        # the bench traces the contactplan.occupancy_rate layer through this name
        calls = []
        per_sample = []
        rate = simcore.occupancy_rate
        sample = simcore._Engine._sample

        def counted_rate(plan, t, active):
            calls.append(t)
            return rate(plan, t, active)

        def counted_sample(engine, t):
            before = len(calls)
            row = sample(engine, t)
            per_sample.append(len(calls) - before)
            return row

        monkeypatch.setattr(simcore, "occupancy_rate", counted_rate)
        monkeypatch.setattr(simcore._Engine, "_sample", counted_sample)
        metrics = run_simulation(_one_hop_plan(), [_bundle(size=5.0)], POLICY_STANDARD)
        assert any(row.r_o > 0 for row in metrics.rows)
        assert per_sample and per_sample == [1] * len(per_sample)
        assert len(calls) == len(per_sample) < len(metrics.rows)

    def test_idle_run_samples_every_second_to_last_contact_end(self):
        metrics = run_simulation(_one_hop_plan(), [], POLICY_STANDARD)
        assert [r.t for r in metrics.rows] == [float(s) for s in range(61)]

    def test_rows_view_reads_like_a_list(self):
        metrics = run_simulation(_one_hop_plan(), [_bundle(size=5.0)], POLICY_STANDARD)
        rows = metrics.rows
        expanded = list(rows)
        assert len(metrics.runs) < len(rows) == len(expanded) == 61
        assert [rows[i] for i in range(len(rows))] == expanded
        assert [rows[i] for i in range(-len(rows), 0)] == expanded
        assert rows[11:15] == expanded[11:15] and rows[::-7] == expanded[::-7]
        assert rows == expanded and expanded == rows and rows == metrics.rows
        assert rows != expanded[:-1] and rows != [*expanded[:-1], expanded[0]]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[index]

    def test_long_idle_run_keeps_runs_bounded_by_its_events(self, monkeypatch):
        # delivered at t=34, the bundle's expiry at t=999999 keeps the run
        # sampling a row per second up to it: 10**6 rows, a few dozen runs
        bundle = _bundle(src="A", dst="F", ttl=999999.0)
        engine = simcore._Engine(make_demo_plan(), [bundle], POLICY_STANDARD, 0, 4, "file")
        metrics = engine.run()
        assert len(metrics.rows) == 1_000_000 and metrics.rows[-1].t == 999999.0
        # _emit_rows adds at most two runs per popped event, run() one more
        assert len(metrics.runs) <= 2 * engine.event_seq + 1 < 100

        # the digests hash the rows in chunks, never expanding the view
        def refuse(*args):
            raise AssertionError("the full row list was built")

        sizes = []

        class Sha256:
            def __init__(self):
                self.digest = hashlib.sha256()

            def update(self, data):
                sizes.append(len(data))
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(simcore.MetricRows, "__iter__", refuse)
        monkeypatch.setattr(simcore.MetricRows, "__getitem__", refuse)
        monkeypatch.setattr(simcore, "hashlib", type("hashlib", (), {"sha256": Sha256}))
        metrics.fingerprint()
        metrics.exact_digest()
        assert max(sizes) < 200 * simcore._CHUNK_S

    def test_delivered_bundle_keeps_sampling_until_its_expiry(self):
        # the bundle is delivered at t=34 and the plan ends at t=60, yet its
        # expiry event at t=500 stays queued and the run samples up to it
        bundle = _bundle(src="A", dst="F", ttl=500.0)
        metrics = run_simulation(make_demo_plan(), [bundle], POLICY_STANDARD, owlt_mode="file")
        assert metrics.records[1].t_delivered == 34.0
        assert len(metrics.rows) == 501 and metrics.rows[-1].t == 500.0

    def test_rows_cover_fractional_light_times(self):
        # padded light times put arrivals between whole seconds; sampling
        # still ticks once per whole second until nothing is left to happen
        plan = with_transit_margin(make_demo_plan())
        spec = ScenarioSpec(seed=1, duration=25, source="A",
                            dest_pool=tuple(sorted(plan.node_ids - {"A"})),
                            with_critical=True)
        bundles = generate_scenario(spec)
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        times = [r.t for r in metrics.rows]
        assert times == [float(s) for s in range(len(times))]
        assert times[-1] >= max(c.t_end for c in plan.contacts)
        assert times[-1] >= max(b.t_exp for b in bundles)

    def test_mid_transmission_counts_at_sending(self):
        metrics = run_simulation(_one_hop_plan(), [_bundle(size=5.0)], POLICY_STANDARD)
        by_t = {row.t: row for row in metrics.rows}
        assert by_t[2.0].mb_at_sending == 5.0
        assert by_t[2.0].r_o > 0

    def test_at_sending_starts_and_ends_at_zero(self):
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=1.0 + i % 3, priority=i % 2,
                   critical=False, t_gen=float(i), t_exp=float(i) + 25.0)
            for i in range(1, 8)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        assert metrics.rows[0].mb_at_sending == 0
        assert metrics.rows[-1].mb_at_sending == 0

    def test_conservation_every_row(self):
        # the engine asserts the identity at each sample; a full run proves it held
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=1.0, priority=0, critical=False,
                   t_gen=0.0, t_exp=25.0)
            for i in range(1, 6)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        final = metrics.rows[-1]
        assert final.delivered + final.failed == metrics.generated

    def test_sent_series_monotone(self):
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=1.0, priority=0, critical=False,
                   t_gen=float(i), t_exp=float(i) + 25.0)
            for i in range(1, 6)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        sent = [row.mb_sent for row in metrics.rows]
        assert sent == sorted(sent)

    def test_storage_snapshot_matches_cached_copy_count(self):
        metrics = run_simulation(
            make_demo_plan(),
            [
                Bundle(id=i, source="A", dest="F", size=1.0, priority=0, critical=False,
                       t_gen=0.0, t_exp=25.0)
                for i in range(1, 4)
            ],
            POLICY_STANDARD,
            owlt_mode="file",
        )
        assert max(row.storage_bundles for row in metrics.rows) > 0
        # drained run: nothing cached anywhere
        assert metrics.rows[-1].storage_bundles == 0

    def test_computing_series_monotone(self):
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=1.0, priority=0, critical=False,
                   t_gen=float(i), t_exp=float(i) + 25.0)
            for i in range(1, 6)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        series = [row.computing_cum for row in metrics.rows]
        assert series == sorted(series)


# S -> M and T -> M open at t=10 and close at t=20; M -> D is open throughout
TWO_STARTS = ContactPlan.build(
    [
        Contact(id=1, from_node="S", to_node="M", t_start=10, t_end=20, rate=1, owlt=1),
        Contact(id=2, from_node="T", to_node="M", t_start=10, t_end=20, rate=1, owlt=1),
        Contact(id=3, from_node="M", to_node="D", t_start=0, t_end=60, rate=1, owlt=1),
    ]
)


class TestContactEdgeEvents:
    def test_one_event_per_edge_instant(self, monkeypatch):
        pushed = []
        push = simcore._Engine._push

        def spy(engine, t, rank, payload):
            if rank in (simcore._R_CONTACT_START, simcore._R_CONTACT_END):
                pushed.append((t, rank, [c.id for c in payload]))
            push(engine, t, rank, payload)

        monkeypatch.setattr(simcore._Engine, "_push", spy)
        run_simulation(TWO_STARTS, [], POLICY_STANDARD)
        assert sorted(pushed) == [
            (10, simcore._R_CONTACT_START, [1, 2]),
            (20, simcore._R_CONTACT_END, [1, 2]),
            (60, simcore._R_CONTACT_END, [3]),
        ]

    def test_same_instant_starts_are_handled_in_plan_order(self):
        # bundle 1 waits at S for contact 1 and bundle 2 at T for contact
        # 2; both transmissions start at t=10 and end at t=11, and the
        # arrivals at M are selected at t=12 in the order they started
        bundles = [
            Bundle(id=bid, source=src, dest="D", size=1.0, priority=0, critical=False,
                   t_gen=0.0, t_exp=40.0)
            for bid, src in ((1, "S"), (2, "T"))
        ]
        metrics = run_simulation(TWO_STARTS, bundles, POLICY_STANDARD)
        assert [e[:3] for e in metrics.dispatch_log if e[0] > 0] == [(12.0, 1, "M"), (12.0, 2, "M")]
        assert metrics.delivered_count == 2

    def test_same_instant_ends_are_handled_in_plan_order(self):
        # S -> D and T -> D each open in [0, 10] and [20, 30].  At each
        # node bundle 4 (priority 1) overtakes bundle 3, which is still
        # queued when the first windows close at t=10; the two flushed
        # copies are selected onto the second windows in plan order
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node=frm, to_node="D", t_start=ts, t_end=ts + 10, rate=1,
                        owlt=1)
                for cid, (frm, ts) in enumerate([("S", 0), ("T", 0), ("S", 20), ("T", 20)], 1)
            ]
        )
        bundles = [
            _bundle(bid=first + i, src=src, size=size, priority=priority, t_gen=t_gen)
            for first, src in ((1, "S"), (5, "T"))
            for i, (size, priority, t_gen) in enumerate(
                [(1.0, 0, 0.0), (2.0, 0, 4.0), (1.0, 0, 4.0), (4.0, 1, 5.0)]
            )
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        assert [e[:5] for e in metrics.dispatch_log if e[0] >= 10] == [
            (10, 3, "S", "D", 3), (10, 7, "T", "D", 4)
        ]


class TestReattemptGroups:
    """A contact start or transmission end re-attempts its node's stored
    copies as one selection event, in copy-id order."""

    def test_one_event_carries_the_stored_copies_in_copy_id_order(self):
        bundles = [_bundle(bid=1), _bundle(bid=2)]
        engine = simcore._Engine(_one_hop_plan(), bundles, POLICY_STANDARD, 0, 4, "uniform")
        first, second = (engine._new_copy(b, ("S",)) for b in bundles)
        # back into the store after the second copy
        engine._move(first, simcore._QUEUED, 0.0, queued_on=1)
        engine._move(first, simcore._STORED, 0.0)
        assert list(engine.nodes["S"].stored) == [2, 1]
        engine.heap.clear()
        engine._reattempt_stored("S", 0.0)
        engine._reattempt_stored("D", 0.0)
        assert [(t, rank, payload) for t, rank, _, payload in engine.heap] == [
            (0.0, simcore._R_SELECT, [first, second])
        ]

    def test_group_is_attempted_in_copy_id_order(self):
        # S -> D is open in [0, 10] and [20, 30].  Bundle 4 (priority 1)
        # overtakes queued bundle 3, which expires at t=8.  Bundles 5 and 6
        # (1 Mb, expiring at t=12) are stored at t=7: the first window's
        # backlog leaves them no room, and the second is too late.  At t=9
        # bundle 4's transmission ends, and of the re-attempted copies the
        # first takes the first window's last second
        plan = ContactPlan.build(
            [
                Contact(id=cid, from_node="S", to_node="D", t_start=ts, t_end=ts + 10, rate=1,
                        owlt=1)
                for cid, ts in ((1, 0), (2, 20))
            ]
        )
        bundles = [
            _bundle(bid=1, size=1.0),
            _bundle(bid=2, size=3.0, t_gen=3.0),
            _bundle(bid=3, size=1.0, t_gen=4.0, ttl=4.0),
            _bundle(bid=4, size=3.0, priority=1, t_gen=5.0),
            _bundle(bid=5, size=1.0, t_gen=7.0, ttl=5.0),
            _bundle(bid=6, size=1.0, t_gen=7.0, ttl=5.0),
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD)
        assert [e[:2] for e in metrics.dispatch_log if e[0] > 5] == [(9.0, 5)]
        assert metrics.records[5].outcome == OUTCOME_DELIVERED
        assert metrics.records[6].outcome == OUTCOME_NEVER_ROUTED


class TestComputingMetric:
    @pytest.mark.parametrize(
        "source, dest, k, counted",
        [
            ("A", "F", 1, 1),  # a full list: the first search only
            ("A", "F", 4, 4),  # a full list: and k - 1 deviation rounds
            ("A", "B", 4, 4),  # 3 routes: a fourth round finds the pool empty
            ("A", "B", 10, 4),
            ("E", "A", 4, 1),  # no route: the first search finds none
        ],
    )
    def test_route_list_counts_its_search_and_rounds(self, source, dest, k, counted):
        engine = simcore._Engine(make_demo_plan(), [], POLICY_RMDG, 0, k, "file")
        graph = engine._graph(source, dest)
        routes = engine._routes(graph, 0.0)
        rounds = []
        reference = build_contact_graph(engine.plan, source, dest)
        assert routes == yen_full_loop(reference, k, confirm=False, rounds=rounds)
        assert engine.computing == 1 + len(rounds) == counted
        # the route cache serves a live list without computing it again; an
        # empty list is searched again
        assert engine._routes(graph, 1.0) == routes
        assert engine.computing == counted + (not routes)

    @pytest.mark.parametrize("source, dest, k", [("A", "F", 1), ("A", "F", 4), ("A", "B", 4)])
    def test_list_failing_review_at_its_own_instant_is_reviewed_twice(self, source, dest, k):
        # every route from A reaches F or B at t = 1 or later, past the
        # bundle's expiry at t = 0.5, so each fails its review; the forced
        # second pass finds the list computed at this instant live and
        # reviews it again, counting each review again (ROADMAP item 9)
        bundle = Bundle(id=1, source=source, dest=dest, size=1.0, priority=0, critical=False,
                        t_gen=0.0, t_exp=0.5)
        engine = simcore._Engine(make_demo_plan(), [bundle], POLICY_RMDG, 0, k, "file")
        assert engine._candidates(engine._new_copy(bundle, (source,)), 0.0) == []
        listed = engine._graph(source, dest).routes[1]
        assert listed and all(r.bdt > bundle.t_exp for r in listed)
        assert engine.computing == min(len(listed) + 1, k) + 2 * len(listed)


class TestDeterminismAndIsolation:
    def _bundles(self):
        # the demo plan's routes from A reach F after t = 30, so these
        # bundles, generated by t = 4 with a 40 s lifetime, can be delivered
        # and use up contact volume
        return [
            Bundle(id=i, source="A", dest="F", size=1.0 + (i % 3), priority=i % 3,
                   critical=i % 3 == 2, t_gen=float(i % 5), t_exp=float(i % 5) + 40.0)
            for i in range(1, 10)
        ]

    def test_bit_identical_repeats(self):
        plan = make_demo_plan()
        a = run_simulation(plan, self._bundles(), POLICY_RMDG, seed=3, owlt_mode="file")
        b = run_simulation(plan, self._bundles(), POLICY_RMDG, seed=3, owlt_mode="file")
        assert a.delivered_count > 0
        assert a.fingerprint() == b.fingerprint()

    def test_input_plan_not_mutated(self):
        plan = make_demo_plan()
        contacts = [replace(c) for c in plan.contacts]
        text = serialize_contact_plan(plan)
        for owlt_mode in ("file", "uniform"):
            run_simulation(plan, self._bundles(), POLICY_STANDARD, owlt_mode=owlt_mode)
        assert list(plan.contacts) == contacts
        assert serialize_contact_plan(plan) == text

    @pytest.mark.parametrize("owlt_mode", ["file", "uniform"])
    @pytest.mark.parametrize("policy", [POLICY_STANDARD, POLICY_RMDG])
    def test_runs_sharing_a_plan_match_a_fresh_plan(self, monkeypatch, policy, owlt_mode):
        built = []
        real_post_init = Contact.__post_init__

        def post_init(contact):
            built.append(contact.id)
            real_post_init(contact)

        # bundles are delivered and contact volumes run out, so a run that
        # saw another's residual volumes would differ
        plan, bundles = make_demo_plan(), self._bundles
        monkeypatch.setattr(Contact, "__post_init__", post_init)
        shared = [simcore._Engine(plan, bundles(), policy, 0, 4, owlt_mode) for _ in "ab"]
        first, second = [engine.run() for engine in shared]
        # only the first uniform engine derives a plan, and no run builds a contact
        assert len(built) == (len(plan.contacts) if owlt_mode == "uniform" else 0)
        assert first.delivered_count > 0
        fresh = run_simulation(make_demo_plan(), bundles(), policy, owlt_mode=owlt_mode)
        for metrics in (second, fresh):
            assert metrics.fingerprint() == first.fingerprint()
            assert metrics.computing_total == first.computing_total
            assert metrics.dispatch_log == first.dispatch_log
        assert shared[0].plan is shared[1].plan
        assert (shared[0].plan is plan) == (owlt_mode == "file")

    def test_policies_may_diverge_but_each_repeats(self):
        plan = make_demo_plan()
        std = run_simulation(plan, self._bundles(), POLICY_STANDARD, owlt_mode="file")
        rmdg = run_simulation(plan, self._bundles(), POLICY_RMDG, owlt_mode="file")
        assert std.delivered_count > 0 and rmdg.delivered_count > 0
        assert std.fingerprint() == run_simulation(
            plan, self._bundles(), POLICY_STANDARD, owlt_mode="file"
        ).fingerprint()
        assert rmdg.fingerprint() == run_simulation(
            plan, self._bundles(), POLICY_RMDG, owlt_mode="file"
        ).fingerprint()


class TestCausality:
    def test_no_dispatch_before_generation_or_after_expiry(self):
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=2.0, priority=0, critical=False,
                   t_gen=float(2 * i), t_exp=float(2 * i) + 22.0)
            for i in range(1, 7)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        by_id = {b.id: b for b in bundles}
        for t, bid, frm, to, cid, policy, reason in metrics.dispatch_log:
            assert by_id[bid].t_gen <= t <= by_id[bid].t_exp

    def test_transmissions_within_contact_windows(self):
        plan = make_demo_plan()
        bundles = [
            Bundle(id=i, source="A", dest="F", size=2.0, priority=0, critical=False,
                   t_gen=float(2 * i), t_exp=float(2 * i) + 22.0)
            for i in range(1, 7)
        ]
        metrics = run_simulation(plan, bundles, POLICY_STANDARD, owlt_mode="file")
        for cid, used in metrics.contact_usage.items():
            c = plan.contact(cid)
            assert used <= c.volume + 1e-9

"""Engine invariants on small random plans and traffic, under both policies."""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import spur_oracle
from sampling_oracle import PerSecondEngine, per_second_run
from search_oracle import dijkstra_search
from selection_oracle import FullSelectionEngine
from spur_oracle import yen_full_loop

from cgrlab import routesearch, simcore
from cgrlab.contactplan import Contact, ContactPlan
from cgrlab.forwarding import Bundle
from cgrlab.simcore import POLICIES, POLICY_RMDG, POLICY_STANDARD, _Engine, run_simulation

HORIZON = 60

light_times = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.001, max_value=2.5, allow_nan=False, allow_infinity=False),
)


@st.composite
def scenarios(
    draw,
    starts=st.integers(0, HORIZON - 1),
    max_contacts=8,
    gens=st.integers(0, 40),
    whole_horizon=False,
    owlts=light_times,
    max_bundles=6,
    node_counts=st.integers(2, 5),
):
    nodes = [f"N{i}" for i in range(draw(node_counts))]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    contacts = []
    for cid in range(1, draw(st.integers(0, max_contacts)) + 1):
        frm, to = draw(pairs)
        t_start, t_end = 0, HORIZON
        if not whole_horizon:
            t_start = draw(starts)
            t_end = draw(st.integers(t_start + 1, HORIZON))
        contacts.append(
            Contact(
                id=cid, from_node=frm, to_node=to, t_start=t_start, t_end=t_end,
                rate=draw(st.sampled_from([0.5, 1.0, 2.0])), owlt=draw(owlts),
            )
        )
    plan = ContactPlan(contacts=tuple(contacts), horizon=HORIZON, node_ids=frozenset(nodes))
    bundles = []
    for bid in range(1, draw(st.integers(0, max_bundles)) + 1):
        source, dest = draw(pairs)
        priority = draw(st.integers(0, 2))
        t_gen = draw(gens)
        bundles.append(
            Bundle(
                id=bid, source=source, dest=dest,
                size=draw(st.sampled_from([0.5, 1.0, 2.0, 5.0])),
                priority=priority, critical=priority == 2 and draw(st.booleans()),
                t_gen=float(t_gen), t_exp=float(t_gen + draw(st.integers(1, 40))),
            )
        )
    return plan, bundles


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scenario=scenarios(),
    policy=st.sampled_from(POLICIES),
    owlt_mode=st.sampled_from(["file", "uniform"]),
)
def test_engine_invariants(scenario, policy, owlt_mode):
    check_engine_invariants(scenario, policy, owlt_mode)


def check_engine_invariants(scenario, policy, owlt_mode):
    """Replay determinism, volume accounting, causality, rows and conservation."""
    plan, bundles = scenario
    # a conservation breach raises AssertionError out of the run itself
    metrics = run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
    replay = run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
    assert metrics.fingerprint() == replay.fingerprint()

    for cid, used in metrics.contact_usage.items():
        assert used <= plan.contact(cid).volume

    by_id = {b.id: b for b in bundles}
    for t, bid, *_ in metrics.dispatch_log:
        assert by_id[bid].t_gen <= t <= by_id[bid].t_exp

    times = [row.t for row in metrics.rows]
    assert times == [float(s) for s in range(len(times))]
    assert times[-1] >= max((b.t_exp for b in bundles), default=0.0)
    final = metrics.rows[-1]
    assert final.delivered + final.failed == metrics.generated


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scenario=scenarios(),
    policy=st.sampled_from(POLICIES),
    owlt_mode=st.sampled_from(["file", "uniform"]),
)
def test_rows_match_per_second_sampling(scenario, policy, owlt_mode):
    plan, bundles = scenario
    metrics = run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
    assert metrics.rows == per_second_run(plan, bundles, policy, owlt_mode=owlt_mode).rows


# the moves a copy can make between its states, written out independently of
# the engine's own table
LEGAL_MOVES = {
    ("stored", "queued"), ("stored", "retired"),
    ("queued", "stored"), ("queued", "in_flight"), ("queued", "retired"),
    ("in_flight", "stored"), ("in_flight", "retired"),
}


class IndexSpyEngine(_Engine):
    """Records every copy and move, and checks the copy indices after every
    event (the contact starts or ends of one instant are one event) and
    every selection attempt."""

    def __init__(self, *args):
        super().__init__(*args)
        self.copies, self.moves = [], []

    def _new_copy(self, *args, **kwargs):
        copy = super()._new_copy(*args, **kwargs)
        self.copies.append(copy)
        return copy

    def _move(self, copy, state, now, queued_on=None):
        self.moves.append((copy.state, state))
        super()._move(copy, state, now, queued_on)

    def _attempt_forward(self, copy, now):
        super()._attempt_forward(copy, now)
        self.check()

    def _emit_rows(self, s, t):
        self.check()
        return super()._emit_rows(s, t)

    def check(self):
        live = [c for c in self.copies if c.state != "retired"]
        assert list(self.alive.items()) == [(c.copy_id, c) for c in live]
        for node, state in self.nodes.items():
            assert state.stored == {
                c.copy_id: c for c in live if c.state == "stored" and c.at_node == node
            }
        booked = [(cid, b.copy_id) for cid, queue in self.queues.items() for b in queue]
        queued = [c for c in live if c.state == "queued"]
        assert sorted(booked) == sorted((c.queued_on, c.copy_id) for c in queued)
        assert all(c.queued_on is None for c in self.copies if c.state != "queued")
        assert set(self.moves) <= LEGAL_MOVES


def _bulk(bid, size, t_gen, priority=0, ttl=30.0):
    return Bundle(
        id=bid, source="S", dest="D", size=size, priority=priority, critical=False,
        t_gen=t_gen, t_exp=t_gen + ttl,
    )


# S -> D open in [0, 10] and [20, 30]; at t=5 bundle 4 (priority 1) overtakes
# bundle 3, which is queued on the first window until it closes (FLUSHED) or
# until it expires at t=8 (EXPIRED)
TWO_WINDOWS = ContactPlan.build(
    [
        Contact(id=cid, from_node="S", to_node="D", t_start=ts, t_end=ts + 10, rate=1, owlt=1)
        for cid, ts in ((1, 0), (2, 20))
    ]
)
FLUSHED = (TWO_WINDOWS, [_bulk(1, 1.0, 0.0), _bulk(2, 2.0, 4.0), _bulk(3, 1.0, 4.0),
                         _bulk(4, 4.0, 5.0, priority=1)])
EXPIRED = (TWO_WINDOWS, [_bulk(1, 1.0, 0.0), _bulk(2, 3.0, 3.0), _bulk(3, 1.0, 4.0, ttl=4.0),
                         _bulk(4, 3.0, 5.0, priority=1)])
# S reaches D via A (S -> A in [0, 20], A -> D in [0, 6]) and via B (S -> B in
# [0, 8], B -> D in [0, 20]), both by t=2.  Critical bundle 1 (4 Mb) cannot
# clear A -> D in time, so it goes via B and lowers S -> B's residual volume
# from 8 to 4; at the same instant bundle 2 (1 Mb) then ranks A (volume 5)
# before B (volume 4), and a route kept at the old volume would not
LOWERED = (
    ContactPlan.build(
        [
            Contact(id=cid, from_node=frm, to_node=to, t_start=0, t_end=t_end, rate=1, owlt=1)
            for cid, (frm, to, t_end) in enumerate(
                [("S", "A", 20), ("S", "B", 8), ("A", "D", 6), ("B", "D", 20)], start=1
            )
        ]
    ),
    [
        Bundle(id=bid, source="S", dest="D", size=size, priority=2, critical=True,
               t_gen=0.0, t_exp=30.0)
        for bid, size in ((1, 4.0), (2, 1.0))
    ],
)
# S reaches D by t=2 via A (S -> A at 1 Mb/s in [0, 40], volume 39) and via B
# (S -> B in [0, 20], volume 20).  Bundle 1 (25 Mb, priority 1) takes A and
# lowers S -> A's residual volume from 40 to 15; at the same instant bundle
# 2 then ranks B before A, and a route listed at the old volume would not
RETIMED = (
    ContactPlan.build(
        [
            Contact(id=cid, from_node=frm, to_node=to, t_start=0, t_end=t_end, rate=rate, owlt=1)
            for cid, (frm, to, t_end, rate) in enumerate(
                [("S", "A", 40, 1), ("A", "D", 40, 100), ("S", "B", 20, 1), ("B", "D", 40, 100)],
                start=1,
            )
        ]
    ),
    [_bulk(1, 25.0, 0.0, priority=1), _bulk(2, 1.0, 0.0)],
)
# EXPIRED with bundles 5 and 6 (1 Mb, expiring at t=12), stored at t=7: the
# first window's backlog leaves them no room and the second is too late.  At
# t=9 bundle 4's transmission ends, and of S's re-attempted copies the first
# takes the first window's last second
REORDERED = (TWO_WINDOWS, EXPIRED[1] + [_bulk(5, 1.0, 7.0, ttl=5.0), _bulk(6, 1.0, 7.0, ttl=5.0)])
# FLUSHED at S and again at T: S -> D and T -> D share both windows, so at
# t=10 one group of contact ends flushes a copy at each node, and the two are
# selected onto the second windows in the order those ends are handled
TWIN_FLUSHED = (
    ContactPlan.build(
        [
            Contact(id=cid, from_node=frm, to_node="D", t_start=ts, t_end=ts + 10, rate=1, owlt=1)
            for cid, (frm, ts) in enumerate([("S", 0), ("T", 0), ("S", 20), ("T", 20)], 1)
        ]
    ),
    FLUSHED[1] + [replace(b, id=b.id + 4, source="T") for b in FLUSHED[1]],
)
# two or three nodes share short windows late in the horizon, so copies
# contend for them and some leave a queue untransmitted, as in FLUSHED and
# EXPIRED
CONTENDED = scenarios(
    starts=st.integers(45, 58), gens=st.integers(40, 55), max_bundles=16,
    node_counts=st.integers(2, 3),
)


def under_contention(check):
    """``check(scenario, policy, owlt_mode)`` as a test over CONTENDED, FLUSHED,
    EXPIRED, LOWERED, RETIMED, REORDERED and TWIN_FLUSHED."""
    check = example(scenario=TWIN_FLUSHED, policy=POLICY_STANDARD, owlt_mode="uniform")(check)
    check = example(scenario=REORDERED, policy=POLICY_STANDARD, owlt_mode="uniform")(check)
    check = example(scenario=RETIMED, policy=POLICY_RMDG, owlt_mode="uniform")(check)
    check = example(scenario=LOWERED, policy=POLICY_STANDARD, owlt_mode="uniform")(check)
    check = example(scenario=EXPIRED, policy=POLICY_RMDG, owlt_mode="uniform")(check)
    check = example(scenario=FLUSHED, policy=POLICY_STANDARD, owlt_mode="uniform")(check)
    check = given(
        scenario=CONTENDED,
        policy=st.sampled_from(POLICIES),
        owlt_mode=st.sampled_from(["file", "uniform"]),
    )(check)
    return settings(max_examples=300, deadline=None, derandomize=True, database=None)(check)


@under_contention
def test_engine_invariants_under_contention(scenario, policy, owlt_mode):
    check_engine_invariants(scenario, policy, owlt_mode)


def spy_moves(monkeypatch):
    """The set of (from, to) copy moves any engine makes from now on."""
    moves = set()
    real_move = _Engine._move

    def move(engine, copy, state, now, queued_on=None):
        moves.add((copy.state, state))
        real_move(engine, copy, state, now, queued_on)

    monkeypatch.setattr(_Engine, "_move", move)
    return moves


def test_copy_indices_follow_the_state():
    # copies are relayed in the plain scenarios and contend in CONTENDED
    seen = set()
    for strategy in (scenarios(), CONTENDED):
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(
            scenario=strategy,
            policy=st.sampled_from(POLICIES),
            owlt_mode=st.sampled_from(["file", "uniform"]),
        )
        @example(scenario=FLUSHED, policy=POLICY_STANDARD, owlt_mode="uniform")
        @example(scenario=EXPIRED, policy=POLICY_RMDG, owlt_mode="uniform")
        def check(scenario, policy, owlt_mode):
            plan, bundles = scenario
            engine = IndexSpyEngine(plan, bundles, policy, 0, 4, owlt_mode)
            metrics = engine.run()
            engine.check()
            assert metrics.fingerprint() == run_simulation(
                plan, bundles, policy, owlt_mode=owlt_mode
            ).fingerprint()
            seen.update(engine.moves)

        check()
    assert seen == LEGAL_MOVES


def count_selections(engine):
    """Log the instant of every candidate computation the engine runs."""
    calls = []
    for name in ("_candidates", "_critical_candidates"):
        def spy(copy, now, method=getattr(engine, name)):
            calls.append(now)
            return method(copy, now)

        setattr(engine, name, spy)
    return calls


def test_selection_matches_full_attempts():
    # contacts open on two shared instants after most bundles are generated,
    # so a node can re-attempt a stored copy several times at one instant
    skipped = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        scenario=scenarios(
            starts=st.sampled_from([10, 20]), max_contacts=12, gens=st.integers(0, 20)
        ),
        policy=st.sampled_from(POLICIES),
        owlt_mode=st.sampled_from(["file", "uniform"]),
    )
    def check(scenario, policy, owlt_mode):
        plan, bundles = scenario
        engine = _Engine(plan, bundles, policy, 0, 4, owlt_mode)
        oracle = FullSelectionEngine(plan, bundles, policy, 0, 4, owlt_mode)
        selections, full_selections = count_selections(engine), count_selections(oracle)
        metrics, expected = engine.run(), oracle.run()
        assert metrics.fingerprint() == expected.fingerprint()
        assert metrics.computing_total == expected.computing_total
        assert metrics.dispatch_log == expected.dispatch_log
        if len(selections) < len(full_selections):
            skipped.add(policy)

    check()
    # only a blanket attempt, a critical copy under standard, is skipped
    assert skipped == {POLICY_STANDARD}


def test_selection_matches_full_attempts_under_contention(monkeypatch):
    # copies leave queues untransmitted: displaced, flushed at a contact's
    # end, returned when they no longer fit, or expired while queued
    moves = spy_moves(monkeypatch)

    @under_contention
    def check(scenario, policy, owlt_mode):
        plan, bundles = scenario
        metrics = _Engine(plan, bundles, policy, 0, 4, owlt_mode).run()
        expected = FullSelectionEngine(plan, bundles, policy, 0, 4, owlt_mode).run()
        assert metrics.fingerprint() == expected.fingerprint()
        assert metrics.computing_total == expected.computing_total
        assert metrics.dispatch_log == expected.dispatch_log

    check()
    assert ("queued", "stored") in moves


def test_lowered_residual_volume_reorders_same_instant_dispatches():
    plan, bundles = LOWERED
    log = run_simulation(plan, bundles, POLICY_STANDARD).dispatch_log
    assert [e[1:4] for e in log if e[0] == 0.0] == [(1, "S", "B"), (2, "S", "A"), (2, "S", "B")]


@pytest.mark.parametrize("policy", POLICIES)
def test_lowered_residual_volume_reorders_same_instant_selections(policy):
    plan, bundles = RETIMED
    log = run_simulation(plan, bundles, policy).dispatch_log
    assert [e[1:4] for e in log if e[0] == 0.0] == [(1, "S", "A"), (2, "S", "B")]


def test_rows_match_per_second_sampling_under_contention(monkeypatch):
    moves = spy_moves(monkeypatch)

    @under_contention
    def check(scenario, policy, owlt_mode):
        plan, bundles = scenario
        metrics = run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
        assert metrics.rows == per_second_run(plan, bundles, policy, owlt_mode=owlt_mode).rows

    check()
    assert ("queued", "stored") in moves


def test_selection_matches_full_attempts_across_instants(monkeypatch):
    # every contact spans the horizon and every light time is whole, so a
    # per-neighbour search kept on the engine's graph is reused at later
    # instants; the oracle searches every time
    real_search, real_bdt = routesearch._search, simcore.dijkstra_bdt
    searches, reused = [], []

    def search(*args):
        searches.append(args)
        return real_search(*args)

    def bdt(graph, depart, via):
        before = len(searches)
        route = real_bdt(graph, depart=depart, via=via)
        if len(searches) == before:
            reused.append(depart - graph.searches[via][0])
        return route

    monkeypatch.setattr(routesearch, "_search", search)
    monkeypatch.setattr(simcore, "dijkstra_bdt", bdt)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        scenario=scenarios(
            max_contacts=12, whole_horizon=True, owlts=st.sampled_from([0.0, 1.0, 2.0])
        ),
        owlt_mode=st.sampled_from(["file", "uniform"]),
    )
    def check(scenario, owlt_mode):
        plan, bundles = scenario
        bundles = [replace(b, priority=2, critical=True) for b in bundles]
        metrics = _Engine(plan, bundles, POLICY_STANDARD, 0, 4, owlt_mode).run()
        expected = FullSelectionEngine(plan, bundles, POLICY_STANDARD, 0, 4, owlt_mode).run()
        assert metrics.fingerprint() == expected.fingerprint()
        assert metrics.computing_total == expected.computing_total
        assert metrics.dispatch_log == expected.dispatch_log

    check()
    assert reused and max(reused) > 0


class PerEdgeEngine(_Engine):
    """One event per contact start and per contact end, each carrying its
    one contact: the order the engine's one event per edge instant keeps."""

    def _push_contact_edges(self):
        for c in self.plan.contacts:
            if c.t_start > 0:
                self._push(c.t_start, simcore._R_CONTACT_START, [c])
            self._push(c.t_end, simcore._R_CONTACT_END, [c])


class PerCopyReattemptEngine(_Engine):
    """One selection event per stored copy a contact start or transmission
    end re-attempts: the order the engine's one event per group keeps."""

    def _reattempt_stored(self, node, now):
        for _, copy in sorted(self.nodes[node].stored.items()):
            self._push(now, simcore._R_SELECT, [copy])


class NoShortcutEngine(FullSelectionEngine, PerSecondEngine, PerEdgeEngine, PerCopyReattemptEngine):
    """Every attempt in full, no kept search, route or spur trace, every
    listed route timed again, every row sampled, every contact edge and every
    re-attempted copy its own event."""


def check_no_shortcut_run(scenario, policy, owlt_mode):
    """The engine equals a run with every shortcut off at once, spurs
    unrestricted and unbounded included and every search in Dijkstra's order,
    so shortcuts cannot interact unseen."""
    plan, bundles = scenario
    metrics = run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcore, "yen_plus", yen_full_loop)
        mp.setattr(routesearch, "_search", dijkstra_search)
        mp.setattr(spur_oracle, "_search", dijkstra_search)
        expected = NoShortcutEngine(plan, bundles, policy, 0, 4, owlt_mode).run()
    assert metrics.fingerprint() == expected.fingerprint()
    assert metrics.computing_total == expected.computing_total
    assert metrics.dispatch_log == expected.dispatch_log


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scenario=scenarios(),
    policy=st.sampled_from(POLICIES),
    owlt_mode=st.sampled_from(["file", "uniform"]),
)
def test_matches_run_without_shortcuts(scenario, policy, owlt_mode):
    check_no_shortcut_run(scenario, policy, owlt_mode)


@under_contention
def test_matches_run_without_shortcuts_under_contention(scenario, policy, owlt_mode):
    check_no_shortcut_run(scenario, policy, owlt_mode)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scenario=scenarios(), owlt_mode=st.sampled_from(["file", "uniform"]))
def test_policies_agree_on_one_non_critical_bundle(scenario, owlt_mode):
    # the policies differ only in critical forwarding and in the order of
    # same-instant selections, and one non-critical bundle meets neither
    plan, bundles = scenario
    assume(bundles)
    bundles = [replace(bundles[0], critical=False)]
    standard, rmdg = (
        run_simulation(plan, bundles, policy, owlt_mode=owlt_mode)
        for policy in (POLICY_STANDARD, POLICY_RMDG)
    )
    assert standard.records == rmdg.records
    assert standard.rows == rmdg.rows
    assert [e[:5] + e[6:] for e in standard.dispatch_log] == [
        e[:5] + e[6:] for e in rmdg.dispatch_log
    ]
    assert {e[5] for e in rmdg.dispatch_log} <= {POLICY_RMDG}


@pytest.mark.parametrize("policy", POLICIES)
def test_rows_settle_one_second_after_an_event(policy):
    # at t=10 contact 1 ends and bundle 1's first transmission starts on
    # contact 2; the next event is its end at t=15
    plan = ContactPlan.build(
        [
            Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=10, rate=1.0, owlt=1),
            Contact(id=2, from_node="S", to_node="D", t_start=10, t_end=30, rate=1.0, owlt=1),
        ]
    )
    bundles = [
        Bundle(id=1, source="S", dest="D", size=5.0, priority=0, critical=False,
               t_gen=10.0, t_exp=40.0)
    ]
    rows = run_simulation(plan, bundles, policy).rows
    assert rows == per_second_run(plan, bundles, policy).rows
    # the closed window still counts contact 1 at t=10, and bits sent at
    # t=10 are in transit only from t=11 on
    assert (rows[10].r_o, rows[10].mb_to_send, rows[10].mb_at_sending) == (0.5, 5.0, 0.0)
    for row in rows[11:15]:
        assert (row.r_o, row.mb_to_send, row.mb_at_sending) == (1.0, 0.0, 5.0)

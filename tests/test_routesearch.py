"""Route search: shortest route, K-best ordering, cost key, volumes."""

import heapq
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrlab import routesearch
from cgrlab.contactplan import Contact, ContactPlan, make_demo_plan, with_transit_margin
from cgrlab.forwarding import compute_pat
from cgrlab.routesearch import (
    Route,
    build_contact_graph,
    dijkstra_bdt,
    evaluate_route,
    routes_to_csv,
    yen_plus,
)

from routing_oracle import enumerate_routes, pat_of, signature, timing_of
from search_oracle import dijkstra_search
from spur_oracle import yen_full_loop


def _demo_graph():
    plan = make_demo_plan()
    return plan, build_contact_graph(plan, "A", "F")


def _route(bdt=0.0, hops=(1,), vti=(0.0, 10.0), volume=10.0):
    return Route(
        hops=tuple(hops),
        bdt=bdt,
        vti=vti,
        volume=volume,
        hop_cnt=len(hops),
        first_hop=hops[0],
    )


class TestDijkstra:
    def test_demo_plan_fastest_route(self):
        plan, g = _demo_graph()
        r = dijkstra_bdt(g, depart=0)
        assert r.bdt == 32
        assert r.volume == 10
        assert r.vti == (0, 9)
        names = [(plan.contact(h).from_node, plan.contact(h).to_node) for h in r.hops]
        assert names == [("A", "C"), ("C", "E"), ("E", "F")]

    def test_single_hop(self):
        plan = ContactPlan.build(
            [Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=60, rate=1, owlt=1)]
        )
        g = build_contact_graph(plan, "S", "D")
        r = dijkstra_bdt(g, depart=0)
        assert r.bdt == 1
        assert r.vti == (0, 59)
        assert r.volume == 60

    def test_no_route(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=5, rate=1),
                Contact(id=2, from_node="X", to_node="D", t_start=0, t_end=5, rate=1),
            ]
        )
        g = build_contact_graph(plan, "S", "D")
        assert dijkstra_bdt(g, depart=0) is None

    def test_departure_shifts_feasibility(self):
        plan, g = _demo_graph()
        mid = dijkstra_bdt(g, depart=25)
        assert mid.bdt == 32  # storage wait before the 30s window absorbs the delay
        assert mid.vti[0] == 25
        assert dijkstra_bdt(g, depart=31) is None  # no outbound opportunity left

    def test_via_restricts_first_hop_to_neighbour(self):
        plan, g = _demo_graph()
        via_b = dijkstra_bdt(g, depart=0, via="B")
        names = [(plan.contact(h).from_node, plan.contact(h).to_node) for h in via_b.hops]
        assert names == [("A", "B"), ("B", "D"), ("D", "C"), ("C", "E"), ("E", "F")]
        assert via_b.bdt == 32
        assert dijkstra_bdt(g, depart=0, via="C").hops == dijkstra_bdt(g, depart=0).hops
        assert dijkstra_bdt(g, depart=0, via="E") is None  # no contact from A to E

    def test_equal_arrivals_break_ties_in_name_string_order(self):
        # "10" sorts before "9" as a string and after it as a number; both
        # relays reach "2" at t=2, so the relay settled first is its parent
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="1", to_node="9", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=2, from_node="1", to_node="10", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=3, from_node="9", to_node="2", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=4, from_node="10", to_node="2", t_start=0, t_end=10, rate=1, owlt=1),
            ]
        )
        g = build_contact_graph(plan, "1", "2")
        assert dijkstra_bdt(g, depart=0).hops == (2, 4)
        assert [r.hops for r in yen_plus(g, 2)] == [(1, 3), (2, 4)]


class TestYenPlus:
    def test_golden_list(self):
        _, g = _demo_graph()
        routes = yen_plus(g, 7)
        assert len(routes) >= 9
        assert [r.bdt for r in routes[:4]] == [32, 32, 32, 32]
        assert [r.bdt for r in routes[4:8]] == [36, 36, 36, 36]
        assert routes[8].bdt == 51
        multiset = sorted((r.bdt, r.volume) for r in routes[:9])
        assert multiset == sorted(
            [(32, 10)] * 3 + [(32, 9)] + [(36, 10)] * 3 + [(36, 9)] + [(51, 9)]
        )

    def test_k1_best_route_matches_dijkstra(self):
        _, g = _demo_graph()
        routes = yen_plus(g, 1)
        best = dijkstra_bdt(g, depart=0)
        assert routes[0].hops == best.hops
        assert routes[0].bdt == best.bdt

    def test_k_zero_rejected(self):
        _, g = _demo_graph()
        with pytest.raises(ValueError):
            yen_plus(g, 0)

    def test_spur_failing_the_forward_rule_is_a_fault(self, monkeypatch):
        # by argument (iii) a root and a spur the search found pass
        # evaluate_route, so a None there is not a candidate to skip
        calls = []

        def evaluate(plan, residual, hops, depart, real=routesearch.evaluate_route):
            calls.append(hops)
            return real(plan, residual, hops, depart) if len(calls) == 1 else None

        monkeypatch.setattr(routesearch, "evaluate_route", evaluate)
        _, g = _demo_graph()
        with pytest.raises(AssertionError, match="fails the forward rule"):
            yen_plus(g, 3)

    def test_no_route_gives_empty_list(self):
        plan = ContactPlan.build(
            [Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=5, rate=1)],
        )
        plan = ContactPlan(
            contacts=plan.contacts, horizon=plan.horizon, node_ids=plan.node_ids | {"D"}
        )
        g = build_contact_graph(plan, "S", "D")
        assert yen_plus(g, 5) == []

    def test_full_enumeration_matches_oracle(self):
        plan, g = _demo_graph()
        routes = yen_plus(g, 12)
        expected = enumerate_routes(plan, "A", "F")
        assert len(routes) == len(expected) == 12
        got = [(r.hops, r.bdt, r.vti, r.volume) for r in routes]
        assert got == [signature(e) for e in expected]

    def test_output_sorted_and_distinct(self):
        _, g = _demo_graph()
        routes = yen_plus(g, 9)
        for a, b in zip(routes, routes[1:]):
            assert a.sort_key <= b.sort_key
        assert len({r.hops for r in routes}) == len(routes)

    def test_first_route_bdt_is_lower_bound(self):
        _, g = _demo_graph()
        routes = yen_plus(g, 9)
        assert all(r.bdt >= routes[0].bdt for r in routes)

    def test_routes_are_node_loop_free(self):
        plan, g = _demo_graph()
        for r in yen_plus(g, 12):
            nodes = ["A"] + [plan.contact(h).to_node for h in r.hops]
            assert len(nodes) == len(set(nodes))

    def test_deterministic(self):
        _, g1 = _demo_graph()
        _, g2 = _demo_graph()
        a = [(r.hops, r.bdt) for r in yen_plus(g1, 7)]
        b = [(r.hops, r.bdt) for r in yen_plus(g2, 7)]
        assert a == b

    def test_fast_mode_prefix(self):
        _, g = _demo_graph()
        full = yen_plus(g, 4)
        fast = yen_plus(g, 4, confirm=False)
        assert len(fast) == 4
        assert [r.hops for r in fast] == [r.hops for r in full[:4]]


class TestCompareRoutes:
    def test_bdt_dominates(self):
        a = _route(bdt=32, hops=(1, 2, 3))
        b = _route(bdt=36, hops=(4, 5, 6))
        assert a.sort_key < b.sort_key

    def test_fewer_hops_wins_at_equal_bdt(self):
        a = _route(bdt=32, hops=(1, 2, 3))
        b = _route(bdt=32, hops=(4, 5, 6, 7, 8))
        assert a.sort_key < b.sort_key

    def test_later_vti_end_wins_at_equal_shape(self):
        a = _route(bdt=32, hops=(1, 2, 3), vti=(0, 33))
        b = _route(bdt=32, hops=(4, 5, 6), vti=(0, 8))
        assert a.sort_key < b.sort_key

    def test_larger_volume_wins_before_vti(self):
        a = _route(bdt=32, hops=(1, 2, 3), volume=10, vti=(0, 8))
        b = _route(bdt=32, hops=(4, 5, 6), volume=9, vti=(0, 33))
        assert a.sort_key < b.sort_key

    def test_earlier_vti_start_wins(self):
        a = _route(bdt=32, hops=(1, 2, 3), vti=(0, 9))
        b = _route(bdt=32, hops=(4, 5, 6), vti=(20, 29))
        assert a.sort_key < b.sort_key

    def test_first_hop_id_is_final_tiebreak(self):
        a = _route(bdt=32, hops=(1, 2, 3))
        b = _route(bdt=32, hops=(2, 2, 3))
        assert a.sort_key < b.sort_key
        assert a.sort_key == _route(bdt=32, hops=(1, 2, 3)).sort_key


class TestRouteVolume:
    def test_demo_fastest_route_volume(self):
        plan, g = _demo_graph()
        r = dijkstra_bdt(g, depart=0)
        assert evaluate_route(plan, g.residual, r.hops, r.vti[0]).volume == 10

    def test_symmetric_hops(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=10, rate=2, owlt=0),
                Contact(id=2, from_node="M", to_node="D", t_start=0, t_end=10, rate=2, owlt=0),
            ]
        )
        g = build_contact_graph(plan, "S", "D")
        r = dijkstra_bdt(g, depart=0)
        assert evaluate_route(plan, g.residual, r.hops, r.vti[0]).volume == 20

    def test_residual_volume_caps(self):
        contacts = [
            Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=10, rate=1, owlt=1),
            Contact(id=2, from_node="M", to_node="D", t_start=0, t_end=10, rate=1, owlt=1),
        ]
        plan = ContactPlan.build(contacts)
        residual = {1: 10.0, 2: 3.0}
        g = build_contact_graph(plan, "S", "D", residual)
        r = dijkstra_bdt(g, depart=0)
        assert r.volume == 3
        assert evaluate_route(plan, residual, r.hops, r.vti[0]).volume == 3


class TestEvaluateRoute:
    def test_infeasible_when_window_passed(self):
        plan = ContactPlan.build(
            [Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=10, rate=1, owlt=1)]
        )
        assert evaluate_route(plan, plan.volumes(), (1,), depart=10) is None
        assert evaluate_route(plan, plan.volumes(), (1,), depart=9) is not None

    def test_empty_hops_are_a_fault(self):
        # no caller has a route of no hops: its source and destination differ
        plan = make_demo_plan()
        with pytest.raises(AssertionError, match="at least one hop"):
            evaluate_route(plan, plan.volumes(), (), depart=0)

    def test_margin_inflates_arrival(self):
        plan = ContactPlan.build(
            [Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=100, rate=1, owlt=10)]
        )
        plain = evaluate_route(plan, plan.volumes(), (1,), depart=0)
        padded = evaluate_route(with_transit_margin(plan), plan.volumes(), (1,), depart=0)
        assert padded.bdt > plain.bdt
        assert padded.bdt == 10 + 2 * (40 * 10 / 18600)


tenths = st.integers(0, 300).map(lambda n: n / 10)


@st.composite
def timed_sequences(draw):
    """A plan with fractional windows and light times, a hop sequence over it
    (any contacts, in any order, repeats allowed) and a residual table with
    some volumes lowered, some to zero."""
    nodes = ["N0", "N1", "N2", "N3"]
    contacts = []
    for cid in range(1, draw(st.integers(1, 6)) + 1):
        frm, to = draw(st.permutations(nodes))[:2]
        t_start = draw(tenths)
        t_end = t_start + draw(st.integers(0, 200).map(lambda n: n / 10))
        owlt = draw(st.one_of(
            st.just(0.0), tenths.map(lambda t: t / 10),
            st.floats(0.001, 2.5, allow_nan=False, allow_infinity=False),
        ))
        rate = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
        contacts.append(Contact(cid, frm, to, t_start, t_end, rate, owlt))
    plan = ContactPlan.build(contacts)
    residual = plan.volumes()
    for cid in residual:
        residual[cid] *= draw(st.sampled_from([1.0, 1.0, 0.5, 0.1, 0.0]))
    hops = draw(st.lists(st.sampled_from([c.id for c in contacts]), min_size=1, max_size=5))
    return plan, residual, hops


class TestTimingMatchesRecurrences:
    """``evaluate_route`` and ``compute_pat`` against the oracle's restated
    forward/backward and store-and-forward recurrences, field for field."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=timed_sequences(), depart=tenths)
    def test_evaluate_route(self, case, depart):
        plan, residual, hops = case
        route = evaluate_route(plan, residual, hops, depart)
        expected = timing_of(plan, hops, depart)
        if expected is None:
            assert route is None
            return
        assert route == Route(
            hops=tuple(hops),
            bdt=expected["bdt"],
            vti=expected["vti"],
            volume=min(expected["volume"], *(residual[h] for h in hops)),
            hop_cnt=len(hops),
            first_hop=hops[0],
        )

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=timed_sequences(), eto=tenths, size=st.sampled_from([0.1, 0.5, 1.0, 2.5]))
    def test_compute_pat(self, case, eto, size):
        plan, _, hops = case
        route = _route(hops=hops)
        assert compute_pat(plan, route, eto, size) == pat_of(plan, hops, eto, size)


class TestCsv:
    def test_route_csv_shape(self):
        _, g = _demo_graph()
        routes = yen_plus(g, 7)
        text = routes_to_csv(routes)
        lines = text.strip().splitlines()
        assert lines[0] == "rank,bdt,volume,vti_start,vti_end,hops"
        assert lines[1].startswith("1,32,10,0,9,")
        assert len(lines) == len(routes) + 1


def _random_plan(rng):
    n_contacts = rng.randint(1, 8)
    nodes = ["N0", "N1", "N2", "N3"]
    contacts = []
    for cid in range(1, n_contacts + 1):
        frm, to = rng.sample(nodes, 2)
        ts = rng.randint(0, 40)
        te = ts + rng.randint(1, 20)
        contacts.append(
            Contact(
                id=cid,
                from_node=frm,
                to_node=to,
                t_start=ts,
                t_end=te,
                rate=rng.choice([1, 2]),
                owlt=rng.choice([0, 1, 2]),
            )
        )
    plan = ContactPlan.build(contacts)
    return ContactPlan(
        contacts=plan.contacts,
        horizon=plan.horizon,
        node_ids=plan.node_ids | {"N0", "N1"},
    )


class TestOracleEquivalence:
    def test_random_graphs_match_bruteforce(self):
        rng = random.Random(20240817)
        checked = 0
        for _ in range(300):
            plan = _random_plan(rng)
            expected = enumerate_routes(plan, "N0", "N1")
            graph = build_contact_graph(plan, "N0", "N1")
            for k in (1, 2, 3, 5, 8):
                got = yen_plus(graph, k)
                assert len(got) >= min(k, len(expected))
                sigs = [(r.hops, r.bdt, r.vti, r.volume) for r in got]
                assert sigs == [signature(e) for e in expected[: len(sigs)]]
                checked += 1
        assert checked == 1500


TIE_WINDOWS = ((0, 10), (0, 20), (5, 15), (10, 30), (0, 30))


@st.composite
def tie_heavy_plans(
    draw, node_count=(2, 5), max_contacts=10, light_times=(0, 1, 2), windows=TIE_WINDOWS
):
    """Random plans where equal windows and few light times make ties common."""
    nodes = [f"N{i}" for i in range(draw(st.integers(*node_count)))]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    windows = st.sampled_from(list(windows))
    contacts = []
    for cid in range(1, draw(st.integers(1, max_contacts)) + 1):
        frm, to = draw(pairs)
        ts, te = draw(windows)
        contacts.append(
            Contact(
                id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te,
                rate=draw(st.sampled_from([1, 2])), owlt=draw(st.sampled_from(light_times)),
            )
        )
    return ContactPlan(contacts=tuple(contacts), horizon=30, node_ids=frozenset(nodes))


class TestSpurRestriction:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        plan=tie_heavy_plans(),
        k=st.integers(1, 10),
        confirm=st.booleans(),
        depart=st.sampled_from([0, 3]),
    )
    def test_matches_unrestricted_spur_loop(self, plan, k, confirm, depart):
        graph = build_contact_graph(plan, "N0", "N1")
        reference = build_contact_graph(plan, "N0", "N1")
        got = yen_plus(graph, k, depart=depart, confirm=confirm)
        assert got == yen_full_loop(reference, k, depart=depart, confirm=confirm)


class TestComputationCount:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        plan=st.one_of(tie_heavy_plans(), tie_heavy_plans(light_times=(0, 0.1, 0.2, 0.7))),
        k=st.integers(1, 10),
        depart=st.sampled_from([0, 3, 0.1]),
    )
    def test_one_search_then_one_round_per_route_sought(self, plan, k, depart):
        """The engine counts ``min(len(routes) + 1, k)`` per K-route search:
        the first search, then one deviation round per further route sought,
        where each round accepts a route or ends the search (Yen, 1971)."""
        rounds = []
        got = yen_full_loop(
            build_contact_graph(plan, "N0", "N1"), k, depart=depart, confirm=False, rounds=rounds
        )
        assert got == yen_plus(build_contact_graph(plan, "N0", "N1"), k, depart, confirm=False)
        assert 1 + len(rounds) == min(len(got) + 1, k)


class TestBoundedSpurs:
    def test_matches_unbounded_loop(self, monkeypatch):
        """Pruned spur searches leave the route list unchanged.

        Plans with whole-second and with fractional light times both run.
        The spy counts searches the bound cut short, where the unbounded
        search finds a spur and the bounded one does not.
        """
        search = routesearch._search
        cut = []

        def spy(plan, start, start_time, dest, banned_nodes, banned_first, *bounded):
            hops = search(plan, start, start_time, dest, banned_nodes, banned_first, *bounded)
            if hops is None and search(
                plan, start, start_time, dest, banned_nodes, banned_first
            ) is not None:
                cut.append(bounded[0])
            return hops

        monkeypatch.setattr(routesearch, "_search", spy)

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(
            plan=st.one_of(
                tie_heavy_plans(node_count=(6, 10), max_contacts=30),
                tie_heavy_plans(
                    node_count=(6, 10), max_contacts=30, light_times=(0, 0.1, 0.2, 0.7)
                ),
            ),
            k=st.integers(2, 10),
            confirm=st.booleans(),
            depart=st.sampled_from([0, 3, 0.1]),
        )
        def check(plan, k, confirm, depart):
            graph = build_contact_graph(plan, "N0", "N1")
            reference = build_contact_graph(plan, "N0", "N1")
            got = yen_plus(graph, k, depart=depart, confirm=confirm)
            assert got == yen_full_loop(reference, k, depart=depart, confirm=confirm)

        check()
        assert cut and all(b < math.inf for b in cut)


@st.composite
def waiting_searches(draw):
    """A plan with positive whole light times and windows that open late, so
    that labels wait, and one ``_search`` call over it: the departure, banned
    nodes, banned first hops and the bound are drawn too.

    Among five to seven nodes in random name order, the source reaches two
    relays that both lead to a node one hop before the destination, where
    equal arrivals can come from senders that pop out of arrival order; up
    to twelve random contacts join them.
    """
    nodes = draw(st.permutations([f"N{i}" for i in range(draw(st.integers(5, 7)))]))
    source, relay, other, joint, dest = nodes[:5]
    links = [(source, relay), (source, other), (relay, joint), (other, joint), (joint, dest)]
    links += draw(st.lists(st.permutations(nodes).map(lambda p: tuple(p[:2])), max_size=12))
    contacts = []
    for cid, (frm, to) in enumerate(links, start=1):
        t_start = draw(st.integers(0, 6))
        t_end = draw(st.sampled_from((30, 30, t_start + 3)))
        contacts.append(Contact(cid, frm, to, t_start, t_end, 1, draw(st.integers(1, 3))))
    plan = ContactPlan(tuple(contacts), 30, frozenset(nodes))
    index = plan.node_index
    start = index[source]
    banned_nodes = draw(st.lists(st.sampled_from([index[n] for n in nodes[1:4] + nodes[5:]]),
                                 max_size=1))
    first = [e[0] for e in plan.adjacency[start]]
    banned_first = draw(st.frozensets(st.sampled_from(first), max_size=1))
    bound = draw(st.one_of(
        st.just(math.inf), st.integers(0, 40).map(float), st.integers(0, 40).map(lambda b: b + 0.5)
    ))
    depart = draw(st.integers(0, 3).map(float))
    return plan, (start, depart, index[dest], banned_nodes, banned_first, bound)


def _search_pops(plan, source, dest, depart):
    """The hops ``_search`` returns from ``source`` to ``dest``, and the heap
    entries it pops, as ``(key, arrival, node index)``."""
    index = plan.node_index
    start, goal = index[source], index[dest]
    plan.owlt_to(goal)  # filled first, so that its own pops stay out of the log
    pops, pop = [], heapq.heappop

    def logged(heap):
        entry = pop(heap)
        pops.append(entry)
        return entry

    heapq.heappop = logged
    try:
        hops = routesearch._search(plan, start, depart, goal, [], frozenset())
    finally:
        heapq.heappop = pop
    return hops, pops


def _dijkstra(plan, source, dest, depart):
    index = plan.node_index
    return dijkstra_search(plan, index[source], depart, index[dest], [], frozenset())


def _plan(*links, horizon=None):
    """Contacts (from, to, t_start, owlt) open until t=30, numbered from 1."""
    return ContactPlan.build(
        [
            Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=30, rate=1, owlt=owlt)
            for cid, (frm, to, ts, owlt) in enumerate(links, start=1)
        ],
        horizon,
    )


# S reaches X at t=4 through A (S -> A at 1, A -> X takes 3) and through B
# (S -> B at 2, B -> X waits for t=3 and takes 1); X -> D takes 1
TIED_SENDERS = (
    ("S", "A", 0, 1), ("S", "B", 0, 2), ("A", "X", 0, 3), ("B", "X", 3, 1), ("X", "D", 0, 1),
)


class TestGoalDirectedOrder:
    """``_search`` pops by arrival plus ``owlt_to`` on whole-second, positive
    light-time searches and returns the hops of Dijkstra's order."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(search=waiting_searches())
    def test_matches_dijkstra_order(self, search):
        plan, args = search
        assert plan.positive_whole_times()
        assert routesearch._search(plan, *args) == dijkstra_search(plan, *args)

    def test_tie_keeps_the_parent_dijkstra_settles_first(self):
        # B's key (2 + 2 = 4) is below A's (1 + 4 = 5), so B pops first and
        # reaches X at 4; A, settled first by arrival, ties there later and
        # takes X over, as it does in Dijkstra's order
        plan = _plan(*TIED_SENDERS)
        hops, pops = _search_pops(plan, "S", "D", 0.0)
        popped = [node for _, _, node in pops]
        assert popped.index(plan.node_index["B"]) < popped.index(plan.node_index["A"])
        assert hops == _dijkstra(plan, "S", "D", 0.0) == [1, 3, 5]

    @pytest.mark.parametrize(
        "links, depart, horizon",
        [
            (TIED_SENDERS, 0.5, None),
            (TIED_SENDERS, 2.0**52, None),
            (TIED_SENDERS[:-1] + (("X", "D", 0, 1.5),), 0.0, None),
            (TIED_SENDERS[:-1] + (("X", "D", 0.5, 1),), 0.0, None),
            (TIED_SENDERS, 0.0, 2.0**52),
        ],
        ids=[
            "fractional-departure", "departure-2**52", "fractional-light-time",
            "fractional-window-start", "horizon-2**52",
        ],
    )
    def test_inexact_arithmetic_keeps_dijkstra_order(self, links, depart, horizon):
        # the whole-second search on TIED_SENDERS pops by key, these by arrival
        _, goal_pops = _search_pops(_plan(*TIED_SENDERS), "S", "D", 0.0)
        assert any(key != arrival for key, arrival, _ in goal_pops)
        plan = _plan(*links, horizon=horizon)
        hops, pops = _search_pops(plan, "S", "D", depart)
        if depart >= 2.0**52:
            # every window closes by the horizon, which `positive_whole_times`
            # keeps below 2**52, so the start has no edge left and pops alone
            start = plan.node_index["S"]
            assert plan.positive_whole_times() and hops is None
            assert pops == [(depart, depart, start)]
        else:
            assert pops and all(key == arrival for key, arrival, _ in pops)
        assert hops == _dijkstra(plan, "S", "D", depart)

    def test_zero_light_time_keeps_dijkstra_order(self):
        # S settles A and X at t=0 at once; X keeps S, the sender that popped
        # first, as its parent, although A comes first by (label, name)
        plan = _plan(("S", "X", 0, 0), ("S", "A", 0, 0), ("A", "X", 0, 0))
        hops, pops = _search_pops(plan, "S", "X", 0.0)
        assert not plan.positive_whole_times()
        assert all(key == arrival for key, arrival, _ in pops)
        assert hops == _dijkstra(plan, "S", "X", 0.0) == [1]


class TestSearchStart:
    """``_search``'s loop settles the start as any other node; each case
    returns the hops of ``dijkstra_search``."""

    @staticmethod
    def _matches_oracle(plan, source, dest, banned=(), banned_first=frozenset(), bound=math.inf):
        index = plan.node_index
        args = (index[source], 0.0, index[dest], [index[n] for n in banned], banned_first, bound)
        hops = routesearch._search(plan, *args)
        assert hops == dijkstra_search(plan, *args)
        return hops

    def test_banned_start_finds_nothing(self):
        assert self._matches_oracle(_plan(*TIED_SENDERS), "S", "D", banned=["S"]) is None

    def test_start_at_dest_returns_no_hops(self):
        plan = _plan(*TIED_SENDERS)
        assert self._matches_oracle(plan, "S", "S") == []
        assert self._matches_oracle(plan, "S", "S", banned=["S"]) is None

    def test_self_loop_at_start_is_skipped(self):
        # S reaches X at 4 directly (waiting for t=3) and through A; the
        # self-loop would move S's own label to 5, and A (label 1) would then
        # come first at the tie and take X over
        plan = _plan(("S", "S", 0, 5), ("S", "X", 3, 1), ("S", "A", 0, 1), ("A", "X", 0, 3),
                     ("X", "D", 0, 1))
        assert self._matches_oracle(plan, "S", "D") == [2, 5]

    def test_smaller_reach_into_one_neighbour_wins(self):
        plan = _plan(("S", "X", 3, 1), ("S", "X", 0, 2), ("X", "D", 0, 1))
        assert self._matches_oracle(plan, "S", "D") == [2, 3]

    def test_first_edge_into_one_neighbour_wins_a_tie(self):
        plan = _plan(("S", "X", 1, 1), ("S", "X", 0, 2), ("X", "D", 0, 1))
        assert [e[0] for e in plan.adjacency[plan.node_index["S"]]] == [1, 2]
        assert self._matches_oracle(plan, "S", "D") == [1, 3]

    def test_banned_first_hops_and_nodes_are_skipped(self):
        plan = _plan(*TIED_SENDERS)
        assert self._matches_oracle(plan, "S", "D", banned_first=frozenset({1})) == [2, 4, 5]
        assert self._matches_oracle(plan, "S", "D", banned=["A"]) == [2, 4, 5]

    def test_bound_cutting_every_start_edge_finds_nothing(self):
        # the start's edges reach A at 1 + 4 and B at 2 + 2 (arrival plus
        # light time left); D is reached at 5
        plan = _plan(*TIED_SENDERS)
        assert self._matches_oracle(plan, "S", "D", bound=3.5) is None
        assert self._matches_oracle(plan, "S", "D", bound=5.0) == [1, 3, 5]


def _departures(walk) -> list[float]:
    """Rising departures: whole-second steps, mostly of one second so that they
    land on window edges, and a 0.5 step probes half a second past the
    current departure without moving it."""
    t, steps = walk
    out = [t]
    for step in steps:
        if step == 0.5:
            out.append(t + 0.5)
        else:
            t += step
            out.append(t)
    return out


def _windowed(*windows):
    """Contacts N0 -> N2 -> N1 and N0 -> N3 -> N1, numbered from 1 in that
    order, with the given ``(t_start, t_end, owlt)``."""
    links = (("N0", "N2"), ("N2", "N1"), ("N0", "N3"), ("N3", "N1"))
    contacts = (
        Contact(cid, frm, to, ts, te, 1, owlt)
        for cid, ((frm, to), (ts, te, owlt)) in enumerate(zip(links, windows), start=1)
    )
    return ContactPlan(tuple(contacts), 30, frozenset({"N0", "N1", "N2", "N3"}))


class TestSearchReuse:
    @staticmethod
    def _searches(monkeypatch):
        """The argument tuples of every ``_search`` call from here on."""
        search = routesearch._search
        calls = []

        def spy(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(routesearch, "_search", spy)
        return calls

    def test_matches_fresh_search(self, monkeypatch):
        """Searches reused at later departures return what a fresh graph returns.

        One graph answers a rising sequence of whole and half-second
        departures, with and without ``via``; each answer is compared with a
        fresh graph's.  Whole-horizon windows let reuse fire, windows that
        open together and close apart let it end where a route closes, and
        windows that open apart make searches wait for a window.  A call is
        answered at a later departure than its kept search only where
        ``_exact`` holds, so zero or half-second light times and half-second
        departures reuse a search only at its own departure, and the plans
        whose light times are all 1 or 2 s keep reuse reachable where windows
        close and searches wait.  The spy records how much later than the
        kept search each call departed that was answered without a search.
        """
        calls = self._searches(monkeypatch)
        reused = []

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(
            plan=st.one_of(
                tie_heavy_plans(node_count=(2, 4), max_contacts=10, windows=[(0, 30)]),
                tie_heavy_plans(
                    node_count=(2, 4), max_contacts=10, windows=[(0, 10), (0, 20), (0, 30)]
                ),
                tie_heavy_plans(
                    node_count=(2, 4), max_contacts=10, windows=[(0, 30), (10, 30), (20, 30)]
                ),
                tie_heavy_plans(node_count=(2, 4), max_contacts=10, light_times=(0, 0.5, 1)),
                tie_heavy_plans(
                    node_count=(2, 4), max_contacts=10, light_times=(0, 0.5, 1),
                    windows=[(0, 30)],
                ),
                tie_heavy_plans(
                    node_count=(2, 4), max_contacts=10, light_times=(1, 2),
                    windows=[(0, 10), (0, 20), (0, 30), (10, 30), (20, 30)],
                ),
            ),
            departures=st.tuples(
                st.integers(0, 10), st.lists(st.sampled_from([1, 1, 1, 2, 5, 0.5]), max_size=14)
            ).map(_departures),
            vias=st.lists(st.sampled_from([None, "N1", "N2", "N3"]), min_size=1, max_size=3),
        )
        # a window opens, or closes, after the shifted departure and before
        # the shifted arrival on the kept path: from 2 the path through N3,
        # which waits for contact 4 to open at 4, arrives first; from 4
        # contact 2 has closed
        @example(
            plan=_windowed((0, 30, 2), (0, 30, 2), (0, 30, 1), (4, 30, 1)),
            departures=[0, 2], vias=[None],
        )
        @example(
            plan=_windowed((0, 30, 1), (0, 5, 1), (0, 30, 2), (0, 30, 2)),
            departures=[0, 4], vias=[None],
        )
        def check(plan, departures, vias):
            graph = build_contact_graph(plan, "N0", "N1")
            for depart in departures:
                for via in vias:
                    searched = len(calls)
                    got = dijkstra_bdt(graph, depart=depart, via=via)
                    if len(calls) == searched:
                        kept_at = graph.searches[via][0]
                        assert depart == kept_at or routesearch._exact(plan, depart)
                        reused.append(depart - kept_at)
                    fresh = build_contact_graph(plan, "N0", "N1")
                    assert got == dijkstra_bdt(fresh, depart=depart, via=via)
                    # reused hops are those a fresh search finds, even where
                    # neither evaluates to a route
                    assert graph.searches[via][1] == fresh.searches[via][1]

        check()
        assert reused and max(reused) > 0

    def test_equal_departure_reuses_on_fractional_light_times(self, monkeypatch):
        # half-second light times rule out `_shifts`, but a call at the kept
        # search's own departure runs the identical search; it still
        # evaluates the hops against the current residual volumes
        calls = self._searches(monkeypatch)
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="A", t_start=0, t_end=30, rate=1, owlt=0.5),
                Contact(id=2, from_node="A", to_node="D", t_start=0, t_end=30, rate=1, owlt=0.5),
            ]
        )
        graph = build_contact_graph(plan, "S", "D")
        first = dijkstra_bdt(graph, depart=3, via="A")
        graph.residual[1] -= 5
        again = dijkstra_bdt(graph, depart=3, via="A")
        assert len(calls) == 1
        assert again.hops == first.hops == (1, 2)
        assert (first.volume, again.volume) == (26.5, 25)
        dijkstra_bdt(graph, depart=4, via="A")
        assert len(calls) == 2

    def test_zero_light_time_searches_again_at_a_later_departure(self, monkeypatch):
        # the light times are whole, but A -> D takes none, so no search
        # runs in the goal order and none is reused at a later departure
        calls = self._searches(monkeypatch)
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="A", t_start=0, t_end=30, rate=1, owlt=1),
                Contact(id=2, from_node="A", to_node="D", t_start=0, t_end=30, rate=1, owlt=0),
            ]
        )
        assert not plan.positive_whole_times()
        graph = build_contact_graph(plan, "S", "D")
        assert dijkstra_bdt(graph, depart=3).hops == (1, 2)
        assert dijkstra_bdt(graph, depart=4).hops == (1, 2)
        assert len(calls) == 2

    def _kept_route(self, monkeypatch, lowered):
        """Route S -> A -> D at t=3, and again after contact 1's residual
        volume drops by ``lowered``.

        Returns both routes and the calls the second one made to ``_search``
        and ``evaluate_route``.
        """
        search, evaluate = routesearch._search, routesearch.evaluate_route
        calls = []

        def spy(name, real):
            def wrapped(*args):
                calls.append(name)
                return real(*args)

            return wrapped

        monkeypatch.setattr(routesearch, "_search", spy("search", search))
        monkeypatch.setattr(routesearch, "evaluate_route", spy("evaluate", evaluate))
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="A", t_start=0, t_end=30, rate=1, owlt=1),
                Contact(id=2, from_node="A", to_node="D", t_start=0, t_end=30, rate=1, owlt=1),
            ]
        )
        graph = build_contact_graph(plan, "S", "D")
        first = dijkstra_bdt(graph, depart=3, via="A")
        assert calls == ["search", "evaluate"]
        graph.residual[1] -= lowered
        calls.clear()
        return first, dijkstra_bdt(graph, depart=3, via="A"), calls

    @pytest.mark.parametrize("lowered", [0, 4])
    def test_kept_route_returned_while_residuals_cover_it(self, monkeypatch, lowered):
        # the route's volume is its 26 s window at rate 1, and contact 1's
        # residual volume stays at least that
        first, again, calls = self._kept_route(monkeypatch, lowered)
        assert first.volume == 26
        assert again is first
        assert calls == []

    def test_kept_route_re_evaluated_below_its_volume(self, monkeypatch):
        first, again, calls = self._kept_route(monkeypatch, 5)
        assert calls == ["evaluate"]
        assert again.hops == first.hops == (1, 2)
        assert (first.volume, again.volume) == (26, 25)

    def test_kept_none_is_answered_without_a_search(self, monkeypatch):
        calls = self._searches(monkeypatch)
        # D is in the plan but no contact reaches it
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="A", t_start=0, t_end=30, rate=1, owlt=1),
                Contact(id=2, from_node="D", to_node="S", t_start=0, t_end=30, rate=1, owlt=1),
            ]
        )
        graph = build_contact_graph(plan, "S", "D")
        assert dijkstra_bdt(graph, depart=3, via="A") is None
        assert dijkstra_bdt(graph, depart=3, via="A") is None
        assert len(calls) == 1

    def test_wait_past_the_shifted_arrival_is_reused(self, monkeypatch):
        # From t=0 the search settles A at 1 and D at 2.  A's contact to X
        # opens at 20, so A's label waits for it; that wait reaches X at 21,
        # after D, from t=5 as from t=0, and the kept search is reused.
        # From t=18 the shifted arrival, 20, reaches the opening.
        calls = self._searches(monkeypatch)
        plan = _contacts(
            ("S", "A", 0, 30, 1, 1), ("A", "D", 0, 30, 1, 1),
            ("A", "X", 20, 30, 1, 1), ("X", "D", 0, 30, 1, 1),
        )
        graph = build_contact_graph(plan, "S", "D")
        assert dijkstra_bdt(graph, depart=0, via="A").bdt == 2
        again = dijkstra_bdt(graph, depart=5, via="A")
        assert len(calls) == 1
        assert again == dijkstra_bdt(build_contact_graph(plan, "S", "D"), depart=5, via="A")
        assert (again.hops, again.bdt) == ((1, 2), 7)
        calls.clear()
        dijkstra_bdt(graph, depart=18, via="A")
        assert len(calls) == 1

    def test_earlier_departure_searches_again(self, monkeypatch):
        # the search kept from t=9 takes contact 4, as contact 3 closes at
        # t=10; from t=0 contact 3, still open, ties it at D and comes first
        calls = self._searches(monkeypatch)
        graph = build_contact_graph(CLOSING, "S", "D")
        assert dijkstra_bdt(graph, depart=9, via="A").hops == (2, 4)
        assert dijkstra_bdt(graph, depart=0, via="A").hops == (2, 3)
        assert len(calls) == 2


def _contacts(*links):
    """Contacts (from, to, t_start, t_end, owlt, rate), numbered from 1."""
    return ContactPlan.build(
        [
            Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te, rate=rate, owlt=owlt)
            for cid, (frm, to, ts, te, owlt, rate) in enumerate(links, start=1)
        ]
    )


@st.composite
def relayed_plans(draw, windows, light_times=(1, 2)):
    """Plans from N0 to N1 over three to five nodes: N0 -> N1 and, for every
    other node, N0 -> node -> N1, with up to eight more random contacts, so
    that most calls find several routes to deviate from."""
    nodes = [f"N{i}" for i in range(draw(st.integers(3, 5)))]
    links = [("N0", "N1")] + [(frm, to) for n in nodes[2:] for frm, to in (("N0", n), (n, "N1"))]
    links += draw(st.lists(st.permutations(nodes).map(lambda p: tuple(p[:2])), max_size=8))
    contacts = []
    for cid, (frm, to) in enumerate(links, start=1):
        ts, te = draw(st.sampled_from(windows))
        contacts.append(Contact(cid, frm, to, ts, te, draw(st.sampled_from([1, 2])),
                                draw(st.sampled_from(light_times))))
    return ContactPlan(tuple(contacts), 30, frozenset(nodes))


# S -> D, and S -> A -> D on contact 3 (open until t=10) or on contact 4
CLOSING = _contacts(
    ("S", "D", 0, 30, 1, 1), ("S", "A", 0, 30, 1, 1),
    ("A", "D", 0, 10, 1, 1), ("A", "D", 0, 30, 1, 1),
)


class TestKeptSpurs:
    """``yen_plus`` replays the spur searches its graph kept from its last call."""

    @staticmethod
    def _spy(monkeypatch):
        """Count the calls to ``_search`` and ``evaluate_route``."""
        calls = {"search": 0, "evaluate": 0}

        def spy(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        monkeypatch.setattr(routesearch, "_search", spy("search", routesearch._search))
        monkeypatch.setattr(
            routesearch, "evaluate_route", spy("evaluate", routesearch.evaluate_route)
        )
        return calls

    @classmethod
    def _again(cls, monkeypatch, plan, k, t0, t1, lower=None):
        """Two ``yen_plus`` calls on one S -> D graph, at ``t0`` and ``t1``,
        with ``lower(residual)`` run in between, and a fresh graph's call at
        ``t1`` on the same residual volumes.

        Returns the second call's routes and its ``_search`` and
        ``evaluate_route`` calls, then the fresh call's.  Both graphs search
        their first route: the kept ``dijkstra_bdt`` searches are dropped.
        """
        calls = cls._spy(monkeypatch)
        graph = build_contact_graph(plan, "S", "D")
        yen_plus(graph, k, depart=t0, confirm=False)
        if lower is not None:
            lower(graph.residual)
        graph.searches.clear()
        fresh = build_contact_graph(plan, "S", "D", dict(graph.residual))
        out = []
        for g in (graph, fresh):
            calls.update(search=0, evaluate=0)
            out.append((yen_plus(g, k, depart=t1, confirm=False), dict(calls)))
        return out

    def test_matches_fresh_graph(self, monkeypatch):
        """A second call on one graph, at a later or equal departure and after
        residual volumes dropped, returns what a fresh graph's call returns.

        Windows open and close inside the span of the calls; since any
        window opening or closing there stops a replay, some plans' windows
        only close and others' only open.  Light times of half a second and
        half-second departures rule out the shift, and dropped residual
        volumes reorder tied candidates.  Per example, the second call's
        spur searches are counted against the fresh call's: some examples
        replay a kept spur, and in some the graph kept spurs and none is
        replayed.
        """
        calls = self._spy(monkeypatch)
        replayed, refused = [], []
        closing = [(0, 30), (0, 30), (0, 8), (0, 12), (0, 15), (0, 20)]
        opening = [(0, 30), (0, 30), (2, 30), (4, 30), (6, 30), (10, 30)]
        windows = [(0, 30), (0, 30), (0, 8), (0, 15), (3, 30), (6, 20), (10, 30)]

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(
            plan=st.one_of(
                relayed_plans(windows=closing),
                relayed_plans(windows=opening),
                relayed_plans(windows=windows, light_times=(0.5, 1)),
                tie_heavy_plans(
                    node_count=(3, 6), max_contacts=14, light_times=(1, 2), windows=windows
                ),
            ),
            k=st.integers(1, 6),
            confirm=st.booleans(),
            t0=st.integers(0, 8),
            step=st.sampled_from([0, 1, 1, 2, 3, 5, 0.5]),
            lowered=st.lists(
                st.tuples(st.integers(1, 14), st.sampled_from([1, 5, 20])), max_size=3
            ),
        )
        def check(plan, k, confirm, t0, step, lowered):
            graph = build_contact_graph(plan, "N0", "N1")
            yen_plus(graph, k, depart=t0, confirm=confirm)
            kept = sum(len(found) for _, _, found in graph.spurs or ())
            for cid, drop in lowered:
                if cid in graph.residual:
                    graph.residual[cid] = max(0, graph.residual[cid] - drop)
            graph.searches.clear()
            t1 = t0 + step
            calls["search"] = 0
            got = yen_plus(graph, k, depart=t1, confirm=confirm)
            searched = calls["search"]
            fresh = build_contact_graph(plan, "N0", "N1", dict(graph.residual))
            calls["search"] = 0
            assert got == yen_plus(fresh, k, depart=t1, confirm=confirm)
            assert searched <= calls["search"]
            if searched < calls["search"]:
                replayed.append(calls["search"] - searched)
            elif kept:
                refused.append(kept)

        check()
        assert replayed and refused

    def test_unchanged_plan_replays_every_kept_spur(self, monkeypatch):
        # windows stay open over both calls: the round from S -> D at t=9
        # replays its one spur, S -> A -> D, shifted by 9 s
        plan = _contacts(
            ("S", "D", 0, 30, 1, 1), ("S", "A", 0, 30, 1, 1), ("A", "D", 0, 30, 1, 1)
        )
        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 2, 0, 9)
        assert got == expected
        assert [(r.hops, r.bdt) for r in got] == [((1,), 10), ((2, 3), 11)]
        assert (calls["search"], fresh["search"]) == (1, 2)
        assert calls["evaluate"] == fresh["evaluate"]

    def test_root_wait_shifts_the_spur_start_less(self, monkeypatch):
        # S -> M opens at t=2, so from t=0 and from t=1 the spur at M starts
        # at 3 and is replayed unshifted; the spur at S finds nothing and
        # is searched again
        plan = _contacts(
            ("S", "M", 2, 30, 1, 1), ("M", "D", 0, 30, 1, 1),
            ("M", "A", 0, 30, 1, 1), ("A", "D", 0, 30, 1, 1),
        )
        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 2, 0, 1)
        assert got == expected
        assert [(r.hops, r.bdt) for r in got] == [((1, 2), 4), ((1, 3, 4), 5)]
        assert (calls["search"], fresh["search"]) == (2, 3)

    def test_window_closing_in_the_span_searches_again(self, monkeypatch):
        # the kept spur S -> A -> D leaves A at 1 on contact 3, open until
        # t=10; from t=9 it would leave A at 10, after its window, and the
        # spur takes contact 4 instead
        (got, calls), (expected, fresh) = self._again(monkeypatch, CLOSING, 2, 0, 9)
        assert got == expected
        assert [r.hops for r in got] == [(1,), (2, 4)]
        assert calls == fresh

    def test_earlier_departure_searches_again(self, monkeypatch):
        # the spur kept from t=9 takes contact 4; from t=0 contact 3, still
        # open, ties it at D and comes first
        (got, calls), (expected, fresh) = self._again(monkeypatch, CLOSING, 2, 9, 0)
        assert got == expected
        assert [r.hops for r in got] == [(1,), (2, 3)]
        assert calls == fresh

    def test_fractional_light_times_search_again(self, monkeypatch):
        # From t=2 the spur at S reaches D at 2.2 directly and through X
        # (2.1 + 0.1), and keeps the direct contact it relaxed first; from
        # t=4, 4.1 + 0.1 rounds to 4.199999999999999, below 4.2.  No
        # departure is `_exact` on this plan, so the spur is searched again.
        plan = _contacts(
            ("S", "D", 0, 30, 0.1, 1), ("S", "D", 0, 30, 0.2, 1),
            ("S", "X", 0, 30, 0.1, 1), ("X", "D", 0, 30, 0.1, 1),
        )
        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 2, 2, 4)
        assert got == expected
        assert [r.hops for r in got] == [(1,), (3, 4)]
        assert calls == fresh

    def test_window_opening_in_the_span_searches_again(self, monkeypatch):
        # contact 3 (A -> D) opens at t=5: the kept spur waits for it no
        # longer from t=5, and ties contact 4 at D, which it comes before
        plan = _contacts(
            ("S", "D", 0, 30, 1, 1), ("S", "A", 0, 30, 1, 1),
            ("A", "D", 5, 30, 1, 1), ("A", "D", 0, 30, 1, 1),
        )
        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 2, 0, 5)
        assert got == expected
        assert [r.hops for r in got] == [(1,), (2, 3)]
        assert calls == fresh

    def test_kept_spur_arriving_after_the_bound_is_none(self, monkeypatch):
        # The best route is S -> A -> D; from t=0 the spurs at S (through B,
        # whose contact 3 opens at t=1) and at A (through C) both reach D at
        # 3, and the first bounds the second.  From t=2, the spur at S no
        # longer waits and reaches D at 4, which bounds the spur at A; its
        # kept arrival, 3 + 2, is past that, so it returns None unsearched
        # and adds no candidate for `evaluate_route`, as the bounded search
        # finds none.
        plan = _contacts(
            ("S", "A", 0, 30, 1, 1), ("A", "D", 0, 30, 1, 1), ("S", "B", 1, 30, 1, 1),
            ("B", "D", 0, 30, 1, 1), ("A", "C", 0, 30, 1, 1), ("C", "D", 0, 30, 1, 1),
        )
        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 2, 0, 2)
        assert got == expected
        assert [(r.hops, r.bdt) for r in got] == [((1, 2), 4), ((3, 4), 4)]
        assert (calls["search"], fresh["search"]) == (2, 3)
        assert calls["evaluate"] == fresh["evaluate"]

    def test_reordered_pool_replays_no_later_round(self, monkeypatch):
        # From t=0 the spurs from S -> M -> D are S -> A -> D (contacts 3, 4)
        # and S -> M -> D on contact 5; both reach D at 3 and the first
        # carries more, so the next round deviates from it, at A, and keeps
        # A -> D on contact 6.  With contact 3's residual volume lowered, the
        # second call's next round deviates from S -> M -> D instead, at M,
        # where the kept spur of A does not apply.
        plan = _contacts(
            ("S", "M", 0, 30, 1, 1), ("M", "D", 0, 30, 1, 1), ("S", "A", 0, 30, 1, 2),
            ("A", "D", 0, 30, 2, 2), ("M", "D", 0, 30, 2, 1), ("A", "D", 0, 30, 2, 2),
        )

        def lower(residual):
            residual[3] = 10

        (got, calls), (expected, fresh) = self._again(monkeypatch, plan, 3, 0, 1, lower)
        assert got == expected
        assert [r.hops for r in got] == [(1, 2), (1, 5), (3, 4)]
        # the first round replays both its spurs, the next searches at M
        assert (calls["search"], fresh["search"]) == (2, 4)
        assert calls["evaluate"] == fresh["evaluate"]

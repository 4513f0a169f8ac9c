"""Contact graph construction and the storage edges route search follows."""

import pytest

from cgrlab.contactplan import Contact, ContactPlan, make_demo_plan
from cgrlab.routesearch import build_contact_graph, dijkstra_bdt, evaluate_route, yen_plus


def _single_contact_plan():
    return ContactPlan.build(
        [Contact(id=1, from_node="S", to_node="D", t_start=0, t_end=60, rate=1, owlt=1)]
    )


class TestBuild:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            build_contact_graph(_single_contact_plan(), "S", "X")

    def test_same_source_dest_rejected(self):
        with pytest.raises(ValueError):
            build_contact_graph(_single_contact_plan(), "S", "S")

    def test_demo_plan_admits_fastest_route(self):
        plan = make_demo_plan()
        g = build_contact_graph(plan, "A", "F")
        hops = yen_plus(g, 1)[0].hops
        windows = [
            (plan.contact(h).from_node, plan.contact(h).to_node,
             plan.contact(h).t_start, plan.contact(h).t_end)
            for h in hops
        ]
        assert windows == [("A", "C", 0, 10), ("C", "E", 30, 40), ("E", "F", 0, 60)]

    def test_disconnected_destination(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=60, rate=1),
                Contact(id=2, from_node="X", to_node="D", t_start=0, t_end=60, rate=1),
            ]
        )
        g = build_contact_graph(plan, "S", "D")
        assert yen_plus(g, 3) == []


class TestSuccessors:
    """Storage edges between contacts, as the route search follows them."""

    def test_wait_edge_reaches_later_contact(self):
        plan = make_demo_plan()
        g = build_contact_graph(plan, "A", "F")
        ac = next(c for c in plan.contacts
                  if (c.from_node, c.to_node, c.t_start) == ("A", "C", 0))
        ce = next(c for c in plan.contacts
                  if (c.from_node, c.to_node, c.t_start) == ("C", "E", 30))
        hops = dijkstra_bdt(g, depart=0).hops
        assert hops[:2] == (ac.id, ce.id)  # data waits at C from t=1 until t=30

    def test_expired_successors_excluded(self):
        # arriving at M at t=6, after the only M-outbound window has closed
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=5, t_end=10, rate=1, owlt=1),
                Contact(id=2, from_node="M", to_node="D", t_start=0, t_end=3, rate=1, owlt=1),
            ]
        )
        g = build_contact_graph(plan, "S", "D")
        assert evaluate_route(plan, g.residual, (1, 2), depart=0) is None
        assert yen_plus(g, 3) == []

    def test_parallel_successors_both_returned(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="S", to_node="M", t_start=0, t_end=10, rate=1),
                Contact(id=2, from_node="M", to_node="D", t_start=0, t_end=30, rate=1),
                Contact(id=3, from_node="M", to_node="D", t_start=5, t_end=40, rate=1),
            ]
        )
        g = build_contact_graph(plan, "S", "D")
        assert {r.hops for r in yen_plus(g, 2)} == {(1, 2), (1, 3)}


class TestEdgeRule:
    def test_returned_routes_respect_edge_rule(self):
        plan = make_demo_plan()
        g = build_contact_graph(plan, "A", "F")
        for route in yen_plus(g, 12):
            for u, v in zip(route.hops, route.hops[1:]):
                cu, cv = plan.contact(u), plan.contact(v)
                assert cu.to_node == cv.from_node
                assert cv.t_end >= cu.t_start

"""Contact plan parsing, light-time arithmetic and availability queries."""

import math
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.constellation import IslConstraints, WalkerParams, generate_contact_plan
from cgrlab.contactplan import (
    Contact,
    ContactPlan,
    ContactPlanError,
    make_demo_plan,
    occupancy_rate,
    owlt_margin,
    parse_contact_plan,
    serialize_contact_plan,
    total_transit_time,
    with_transit_margin,
)

from sampling_oracle import available_contacts


class TestOwltArithmetic:
    def test_margin_zero(self):
        assert owlt_margin(0) == 0.0

    def test_margin_at_reference_range(self):
        assert owlt_margin(18600) == 40.0

    def test_margin_one_light_second(self):
        assert owlt_margin(1) == 40.0 / 18600.0

    def test_margin_rejects_negative(self):
        with pytest.raises(ValueError):
            owlt_margin(-1)

    def test_transit_zero(self):
        assert total_transit_time(0) == 0.0

    def test_transit_one_light_second(self):
        assert total_transit_time(1) == 1 + 80.0 / 18600.0
        assert total_transit_time(1) == pytest.approx(1.0043010752688172)

    def test_transit_at_reference_range(self):
        assert total_transit_time(18600) == 18680.0

    def test_transit_rejects_negative(self):
        with pytest.raises(ValueError):
            total_transit_time(-0.5)

    def test_transit_dominates_distance(self):
        for d in (0.0, 0.25, 1.0, 3.5, 18600.0):
            assert total_transit_time(d) >= d
            if d > 0:
                assert total_transit_time(d) > d


class TestParsing:
    def test_empty_input(self):
        plan = parse_contact_plan("")
        assert plan.contacts == ()
        assert plan.horizon == 0

    def test_single_contact_with_range(self):
        plan = parse_contact_plan("a contact +0 +60 A B 1\na range +0 +60 A B 1\n")
        assert len(plan.contacts) == 1
        c = plan.contacts[0]
        assert (c.from_node, c.to_node) == ("A", "B")
        assert (c.t_start, c.t_end) == (0, 60)
        assert c.rate == 1 and c.owlt == 1
        assert plan.horizon == 60

    def test_comments_and_blank_lines(self):
        text = "# header\n\na contact +0 +10 A B 2  # inline\na range +0 +10 A B 0.5\n"
        plan = parse_contact_plan(text)
        assert plan.contacts[0].owlt == 0.5
        assert plan.contacts[0].rate == 2

    def test_range_applies_to_reverse_direction(self):
        text = (
            "a contact +0 +10 A B 1\n"
            "a contact +0 +10 B A 1\n"
            "a range +0 +10 A B 3\n"
        )
        plan = parse_contact_plan(text)
        assert plan.contacts[0].owlt == 3
        assert plan.contacts[1].owlt == 3

    def test_range_lookup_exact_pair_first_then_reversed_in_file_order(self):
        text = (
            "a contact +0 +10 A B 1\n"
            "a contact +20 +30 B A 1\n"
            "a contact +0 +10 C D 1\n"
            "a contact +0 +10 E F 1\n"
            "a range +40 +50 A B 9\n"  # A B, overlaps neither A B window
            "a range +0 +5 B A 4\n"  # overlaps A->B, but A->B has exact ranges
            "a range +5 +25 A B 2\n"  # first overlapping A B line
            "a range +0 +10 A B 3\n"  # also overlaps A->B, later in the file
            "a range +20 +30 D C 7\n"
            "a range +0 +10 D C 6\n"  # C D has only reversed lines
        )
        plan = parse_contact_plan(text)
        # B->A: its exact line misses [20, 30], so the first overlapping A B line
        assert [c.owlt for c in plan.contacts] == [2, 2, 6, 0.0]

    def test_explicit_owlt_field_wins(self):
        text = "a contact +0 +10 A B 1 7\na range +0 +10 A B 3\n"
        plan = parse_contact_plan(text)
        assert plan.contacts[0].owlt == 7

    def test_horizon_header_override(self):
        plan = parse_contact_plan("a horizon +100\na contact +0 +10 A B 1\n")
        assert plan.horizon == 100

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ContactPlanError, match="line 2"):
            parse_contact_plan("a contact +0 +10 A B 1\na contact +0 +10 A B\n")

    def test_reversed_window_rejected(self):
        with pytest.raises(ContactPlanError, match="t_start"):
            parse_contact_plan("a contact +20 +10 A B 1\n")

    def test_time_without_plus_rejected(self):
        with pytest.raises(ContactPlanError, match="'\\+'-prefixed"):
            parse_contact_plan("a contact 0 +10 A B 1\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ContactPlanError):
            parse_contact_plan("a link +0 +10 A B 1\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "line, field",
        [
            ("a contact +0 +10 A B {}", "rate"),
            ("a contact +0 +10 A B 1 {}", "owlt"),
            ("a range +0 +10 A B {}", "owlt"),
        ],
        ids=["rate", "contact-owlt", "range-owlt"],
    )
    def test_non_finite_number_rejected(self, line, field, token):
        text = "a contact +0 +10 B A 1\n" + line.format(token) + "\n"
        with pytest.raises(ContactPlanError, match=f"^line 2: {field} must be finite"):
            parse_contact_plan(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["t_start", "t_end", "rate", "owlt"])
    def test_contact_rejects_non_finite_field(self, name, value):
        fields = dict(id=7, from_node="A", to_node="B", t_start=0, t_end=10, rate=1, owlt=0)
        fields[name] = value
        with pytest.raises(ContactPlanError, match=f"^contact 7: {name} must be finite"):
            Contact(**fields)

    def test_contact_node_outside_plan_rejected(self):
        c = Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=5, rate=1)
        with pytest.raises(ContactPlanError, match="node 'B' not in the plan"):
            ContactPlan(contacts=(c,), horizon=5, node_ids=frozenset("A"))

    def test_contact_rejects_reversed_window(self):
        with pytest.raises(ContactPlanError, match="^contact 7: t_start 20 > t_end 10$"):
            Contact(id=7, from_node="A", to_node="B", t_start=20, t_end=10, rate=1)

    def test_contact_past_horizon_rejected(self):
        c = Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=5, rate=1)
        with pytest.raises(ContactPlanError, match="^contact 1 ends at 5, beyond horizon 4$"):
            ContactPlan(contacts=(c,), horizon=4, node_ids=frozenset("AB"))

    def test_duplicate_contact_id_rejected(self):
        c = Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=5, rate=1)
        with pytest.raises(ContactPlanError, match="duplicate"):
            ContactPlan.build([c, c])

    def test_roundtrip_preserves_fields(self):
        plan = make_demo_plan()
        again = parse_contact_plan(serialize_contact_plan(plan))
        assert len(again.contacts) == len(plan.contacts)
        assert again.horizon == plan.horizon
        for a, b in zip(plan.contacts, again.contacts):
            assert (a.id, a.from_node, a.to_node) == (b.id, b.from_node, b.to_node)
            assert (a.t_start, a.t_end, a.rate, a.owlt) == (b.t_start, b.t_end, b.rate, b.owlt)

    def test_demo_plan_shape(self):
        plan = make_demo_plan()
        assert plan.node_ids == frozenset("ABCDEF")
        assert len(plan.contacts) == 20
        # permanent pairs
        perms = [c for c in plan.contacts if (c.t_start, c.t_end) == (0, 60)]
        assert {(c.from_node, c.to_node) for c in perms} == {
            ("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("E", "F"), ("F", "E"),
        }


class TestEdges:
    @pytest.mark.parametrize("margin", [False, True], ids=["demo", "with-margin"])
    def test_edges_match_contacts_from(self, margin):
        plan = make_demo_plan()
        if margin:
            plan = with_transit_margin(plan)
        index = plan.node_index
        assert list(index) == sorted(plan.node_ids) and "Z" not in index
        assert list(index.values()) == list(range(len(plan.adjacency)))
        for node, i in index.items():
            assert plan.adjacency[i] == tuple(
                (c.id, c.t_start, c.t_end - 1, c.owlt, index[c.to_node])
                for c in plan.contacts_from(node)
            )

    @pytest.mark.parametrize("kind", ["demo", "parsed", "generated", "uniform"])
    def test_timing_rows_match_contacts(self, kind):
        if kind == "generated":
            params = WalkerParams(sats_per_plane=4, planes=3, phase_factor=1,
                                  altitude_km=1200.0, inclination_deg=55.0)
            plan = generate_contact_plan(params, IslConstraints(4909.0, 4), 60.0, 7.5)
        elif kind == "parsed":
            plan = parse_contact_plan(
                "a contact +0 +10 A B 2.5\na contact +3 +3 B A 1 0.25\n"
                "a contact +4 +9 B C 0.5\na range +0 +20 A B 1.5\n"
            )
        else:
            plan = make_demo_plan()
            if kind == "uniform":
                plan = plan.uniform()
        assert plan.contacts
        index = plan.node_index
        assert plan.timing == {
            c.id: (c.t_start, c.t_end - 1, c.owlt, c.rate, index[c.to_node], c.t_end)
            for c in plan.contacts
        }

    def test_owlt_to_is_least_light_time_sum(self):
        plan = ContactPlan.build(
            [
                Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=10, rate=1, owlt=1),
                Contact(id=2, from_node="A", to_node="B", t_start=20, t_end=30, rate=1, owlt=3),
                Contact(id=3, from_node="B", to_node="C", t_start=0, t_end=60, rate=1, owlt=2),
            ]
        )
        a, b, c = (plan.node_index[n] for n in "ABC")
        # windows are ignored: contact 1 closes before contact 3 matters
        assert plan.owlt_to(c) == [3.0, 2.0, 0.0]
        assert plan.owlt_to(a) == [0.0, math.inf, math.inf]
        assert plan.owlt_to(c) is plan.owlt_to(c)
        padded = with_transit_margin(plan)
        assert padded.owlt_to(c)[a] == total_transit_time(1.0) + total_transit_time(2.0)


def _interval_plan():
    return ContactPlan.build(
        [
            Contact(id=1, from_node="A", to_node="B", t_start=0, t_end=10, rate=1),
            Contact(id=2, from_node="A", to_node="B", t_start=20, t_end=30, rate=1),
            Contact(id=3, from_node="B", to_node="C", t_start=0, t_end=60, rate=1),
        ]
    )


class TestAvailability:
    def test_membership_is_closed_interval(self):
        plan = _interval_plan()
        assert available_contacts(plan, 5) == {1, 3}
        assert available_contacts(plan, 10) == {1, 3}
        assert available_contacts(plan, 15) == {3}
        assert available_contacts(plan, 20) == {2, 3}

    def test_empty_plan(self):
        plan = ContactPlan.build([])
        assert available_contacts(plan, 0) == set()

    def test_monotone_under_plan_extension(self):
        plan = _interval_plan()
        bigger = ContactPlan.build(
            list(plan.contacts)
            + [Contact(id=9, from_node="C", to_node="D", t_start=0, t_end=50, rate=1)]
        )
        for t in range(0, 61, 5):
            assert available_contacts(plan, t) <= available_contacts(bigger, t)


class TestOccupancy:
    def test_zero_when_idle(self):
        assert occupancy_rate(_interval_plan(), 5, set()) == 0.0

    def test_half(self):
        plan = ContactPlan.build(
            [
                Contact(id=i, from_node="A", to_node="B", t_start=0, t_end=10, rate=1)
                for i in range(1, 5)
            ]
        )
        assert occupancy_rate(plan, 5, {1, 2}) == 0.5
        assert occupancy_rate(plan, 5, {1, 2, 3, 4}) == 1.0

    def test_empty_available_set_is_zero(self):
        plan = _interval_plan()
        assert occupancy_rate(plan, 55, set()) == 0.0

    def test_unavailable_active_contact_rejected(self):
        plan = _interval_plan()
        with pytest.raises(ValueError):
            occupancy_rate(plan, 15, {1})

    def test_range_bounds(self):
        plan = _interval_plan()
        for t in range(0, 61, 3):
            avail = available_contacts(plan, t)
            assert 0.0 <= occupancy_rate(plan, t, avail) <= 1.0


@st.composite
def plans_and_instants(draw):
    """A small random plan and an instant at, just before, just after or between its edges."""
    contacts = []
    for cid in range(1, draw(st.integers(0, 6)) + 1):
        t_start = draw(st.integers(0, 40)) / 2
        t_end = t_start + draw(st.integers(0, 20)) / 2
        contacts.append(Contact(id=cid, from_node="A", to_node="B", t_start=t_start,
                                t_end=t_end, rate=1))
    plan = ContactPlan.build(contacts, horizon=40)
    edges = sorted({0.0, 40.0} | {t for c in contacts for t in (c.t_start, c.t_end)})
    i = draw(st.integers(0, len(edges) - 1))
    t = draw(st.sampled_from([
        edges[i],
        math.nextafter(edges[i], -math.inf),
        math.nextafter(edges[i], math.inf),
        (edges[i] + edges[min(i + 1, len(edges) - 1)]) / 2,
    ]))
    return plan, t


class TestOccupancyMatchesAvailability:
    """``occupancy_rate`` counts by bisection; ``available_contacts`` is its reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(plans_and_instants())
    def test_every_available_subset(self, case):
        plan, t = case
        avail = available_contacts(plan, t)
        for n in range(len(avail) + 1):
            for active in combinations(sorted(avail), n):
                expected = len(active) / len(avail) if avail else 0.0
                assert occupancy_rate(plan, t, set(active)) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(plans_and_instants(), st.data())
    def test_unavailable_active_contacts_are_named(self, case, data):
        plan, t = case
        avail = available_contacts(plan, t)
        # 99 is no contact of the plan at all
        unavailable = sorted({c.id for c in plan.contacts} - avail | {99})
        off = set(data.draw(st.lists(st.sampled_from(unavailable), min_size=1)))
        on = data.draw(st.lists(st.sampled_from(sorted(avail)))) if avail else []
        active = off | set(on)
        with pytest.raises(ValueError) as exc:
            occupancy_rate(plan, t, active)
        named = re.fullmatch(r"active contacts \{(.*)\} not available at t=.*", str(exc.value))
        assert named and {int(cid) for cid in named.group(1).split(",")} == off

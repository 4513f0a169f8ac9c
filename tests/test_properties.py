"""Engine invariants on small random plans and traffic, under both policies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.contactplan import Contact, ContactPlan
from cgrlab.forwarding import Bundle
from cgrlab.simcore import POLICIES, run_simulation

HORIZON = 60

light_times = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.001, max_value=2.5, allow_nan=False, allow_infinity=False),
)


@st.composite
def scenarios(draw):
    nodes = [f"N{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    contacts = []
    for cid in range(1, draw(st.integers(0, 8)) + 1):
        frm, to = draw(pairs)
        t_start = draw(st.integers(0, HORIZON - 1))
        t_end = draw(st.integers(t_start + 1, HORIZON))
        contacts.append(
            Contact(
                id=cid, from_node=frm, to_node=to, t_start=t_start, t_end=t_end,
                rate=draw(st.sampled_from([0.5, 1.0, 2.0])), owlt=draw(light_times),
            )
        )
    plan = ContactPlan(contacts=tuple(contacts), horizon=HORIZON, node_ids=frozenset(nodes))
    bundles = []
    for bid in range(1, draw(st.integers(0, 6)) + 1):
        source, dest = draw(pairs)
        priority = draw(st.integers(0, 2))
        t_gen = draw(st.integers(0, 40))
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

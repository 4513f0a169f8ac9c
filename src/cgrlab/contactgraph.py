"""Time-ordered contact graph with a computing-resource counter.

Vertices are the contacts reachable from the source.  An edge u -> v means
data received through contact u can be cached at the shared node and
transmitted later through contact v; edges therefore encode storage
opportunities, not links.

The graph carries the computing-resource tally ``computing_counter``, fed by
route search iterations and by the engine's candidate-route reviews.
"""

from __future__ import annotations

from dataclasses import dataclass

from cgrlab.contactplan import ContactPlan


@dataclass
class ContactGraph:
    """Contact-vertex graph for one source/destination pair."""

    plan: ContactPlan
    source: str
    dest: str
    vertices: frozenset[int]
    computing_counter: int = 0


def build_contact_graph(plan: ContactPlan, source: str, dest: str) -> ContactGraph:
    """Build the graph of contacts reachable from ``source``.

    A contact c is kept when some already-reachable contact u into c's
    sending node satisfies c.t_end >= u.t_start, i.e. a later-or-overlapping
    transmission opportunity exists.  Contacts unreachable from the source
    are pruned.
    """
    for node in (source, dest):
        if node not in plan.node_ids:
            raise ValueError(f"unknown node id {node!r}")
    if source == dest:
        raise ValueError("source and destination must differ")

    # earliest t_start over reachable contacts into each node; the weakest
    # constraint any successor must beat
    min_ts: dict[str, float] = {source: 0.0}
    reachable: set[int] = set()
    frontier = [source]
    while frontier:
        node = frontier.pop()
        bound = min_ts[node]
        for c in plan.contacts_from(node):
            if c.t_end < bound:
                continue
            reachable.add(c.id)
            nxt = min_ts.get(c.to_node)
            if nxt is None or c.t_start < nxt:
                min_ts[c.to_node] = c.t_start
                frontier.append(c.to_node)

    return ContactGraph(plan=plan, source=source, dest=dest, vertices=frozenset(reachable))

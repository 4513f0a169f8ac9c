"""Per source/destination route-search context with a computing-resource counter.

The contact graph is implicit in ``ContactPlan.adjacency``: a contact u
leads to a contact v when u delivers to v's sending node early enough that
data cached there can still leave through v.  Route search follows these
storage edges, which encode storage opportunities, not links.

The graph carries the computing-resource tally ``computing_counter``, fed by
route search iterations and by the engine's candidate-route reviews, and the
residual volume table its routes are evaluated against.  It also keeps
``dijkstra_bdt``'s last search and last route per first-hop restriction, so
that a call reuses them where they are what it would compute (see
``routesearch.dijkstra_bdt``), and the engine's route list for its pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from cgrlab.contactplan import ContactPlan

if TYPE_CHECKING:
    from cgrlab.routesearch import Route


@dataclass
class ContactGraph:
    """Contact graph for one source/destination pair.

    ``residual`` maps each contact id to the volume left on it; a run passes
    its own table, which it lowers as it commits data.  ``searches`` maps a ``via`` neighbour (or None) to ``(depart, slack,
    hops, answered, route)``: the hops ``dijkstra_bdt`` found departing at
    ``depart`` (None when it found none), which a search departing then, or
    up to ``slack`` seconds later, finds again, and the route it last
    returned, for a call departing at ``answered``.  ``routes`` is the
    engine's ``(computed_at, routes)`` (see ``simcore._Engine._routes``).
    """

    plan: ContactPlan
    source: str
    dest: str
    residual: dict[int, float] = field(repr=False, compare=False)
    computing_counter: int = 0
    searches: dict[
        str | None, tuple[float, float, list[int] | None, float, Route | None]
    ] = field(default_factory=dict, repr=False, compare=False)
    routes: tuple[float, list[Route]] | None = field(default=None, repr=False, compare=False)


def build_contact_graph(
    plan: ContactPlan, source: str, dest: str, residual: dict[int, float] | None = None
) -> ContactGraph:
    """The contact graph from ``source`` to ``dest`` over ``plan``.

    ``residual`` is the volume table routes are evaluated against; without
    one, every contact has its full volume.
    """
    for node in (source, dest):
        if node not in plan.node_ids:
            raise ValueError(f"unknown node id {node!r}")
    if source == dest:
        raise ValueError("source and destination must differ")
    return ContactGraph(plan, source, dest, plan.volumes() if residual is None else residual)

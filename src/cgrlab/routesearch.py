"""K-best route search over a contact graph.

Routes are sequences of contacts from a source to a destination node.  The
primary cost is the best delivery time (BDT): the earliest instant the first
byte can reach the destination, accounting for per-hop light time and for
storage waits when the next contact has not opened yet.  Ties are broken by
hop count, then carried volume (larger first), then the valid transmission
interval (earlier start, later end), then the first-hop contact id.

``yen_plus`` extends Dijkstra to the K-shortest loop-free routes by spur-path
deviation.  In its default mode it keeps extracting candidate routes until it
has proven that no undiscovered route can outrank the K-th one (the proof is
a popped route with a strictly larger BDT), so the returned list may contain
a few confirmed routes beyond K.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from cgrlab.contactgraph import ContactGraph
from cgrlab.contactplan import ContactPlan


@dataclass(frozen=True)
class Route:
    """An ordered contact sequence with its delivery-time cost terms.

    ``vti`` is the closed interval of feasible first-byte departure seconds
    at the source; ``volume`` is the largest transferable amount in megabits
    given every hop's usable window and residual volume.  ``sort_key`` is the
    total order on routes: smaller keys rank first.
    """

    hops: tuple[int, ...]
    bdt: float
    vti: tuple[float, float]
    volume: float
    hop_cnt: int
    first_hop: int

    @property
    def sort_key(self) -> tuple:
        return (
            self.bdt,
            self.hop_cnt,
            -self.volume,
            self.vti[0],
            -self.vti[1],
            self.first_hop,
        )


def evaluate_route(
    plan: ContactPlan,
    hops: tuple[int, ...] | list[int],
    depart: float,
) -> Route | None:
    """Compute BDT, VTI and volume for a contact sequence, or None if infeasible.

    Forward pass: leave each node no earlier than max(arrival, window start),
    first byte lands after the one-way light time; a hop is feasible while at
    least one whole second of its window remains.  Backward pass finds the
    latest workable departure per hop, which bounds both the VTI and each
    hop's usable capacity.
    """
    contacts = [plan.contact(h) for h in hops]
    if not contacts:
        return None
    arrival = depart
    departures = []
    for c in contacts:
        dep = arrival if arrival > c.t_start else c.t_start
        if dep > c.t_end - 1:
            return None
        departures.append(dep)
        arrival = dep + c.owlt

    last_deps = [0.0] * len(contacts)
    nxt = math.inf
    for i in range(len(contacts) - 1, -1, -1):
        c = contacts[i]
        ld = min(c.t_end - 1, nxt - c.owlt)
        last_deps[i] = ld
        nxt = ld
    volume = math.inf
    for c, dep, ld in zip(contacts, departures, last_deps):
        volume = min(volume, (ld - dep + 1) * c.rate, c.residual_volume)

    return Route(
        hops=tuple(hops),
        bdt=arrival,
        vti=(departures[0], last_deps[0]),
        volume=volume,
        hop_cnt=len(contacts),
        first_hop=contacts[0].id,
    )


def _search(
    graph: ContactGraph,
    start_node: str,
    start_time: float,
    banned_nodes: frozenset[str],
    banned_first: frozenset[int],
) -> tuple[list[int], float] | None:
    """Earliest-arrival search from a node; returns (hops, arrival) or None.

    The search walks ``graph.plan.edges_from`` and takes an edge when a
    whole second of its window remains on arrival at its sending node.
    """
    edges_from = graph.plan.edges_from
    dest = graph.dest
    best: dict[str, float] = {start_node: start_time}
    parent: dict[str, tuple[int, str]] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(start_time, start_node)]
    heappop, heappush, best_get, inf = heapq.heappop, heapq.heappush, best.get, math.inf
    while heap:
        arrival, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == dest:
            hops: list[int] = []
            n = node
            while n != start_node:
                cid, prev = parent[n]
                hops.append(cid)
                n = prev
            hops.reverse()
            return hops, arrival
        at_start = node == start_node
        for cid, t_start, last, owlt, to in edges_from(node):
            if at_start and cid in banned_first:
                continue
            if to in done or to in banned_nodes:
                continue
            dep = arrival if arrival > t_start else t_start
            if dep > last:
                continue
            reach = dep + owlt
            if reach < best_get(to, inf):
                best[to] = reach
                parent[to] = (cid, node)
                heappush(heap, (reach, to))
    return None


def dijkstra_bdt(
    graph: ContactGraph,
    depart: float = 0.0,
    via: str | None = None,
) -> Route | None:
    """Route minimizing the best delivery time from the graph's source.

    ``via`` restricts the first hop to contacts into that neighbour node,
    which yields the best route through it.  Returns None when the
    destination is unreachable.
    """
    banned_first: frozenset[int] = frozenset()
    if via is not None:
        banned_first = frozenset(
            c.id for c in graph.plan.contacts_from(graph.source) if c.to_node != via
        )
    found = _search(graph, graph.source, depart, frozenset(), banned_first)
    if found is None:
        return None
    hops, _ = found
    return evaluate_route(graph.plan, hops, depart)


def yen_plus(
    graph: ContactGraph,
    k: int,
    depart: float = 0.0,
    confirm: bool = True,
) -> list[Route]:
    """K best loop-free routes, ordered by ``Route.sort_key``.

    With ``confirm`` (the default) the search keeps extracting candidates
    until a popped route's BDT strictly exceeds the K-th best found, which
    proves every route tied with the K-th on BDT has been seen, and then
    finishes that last BDT class as well; the returned list is an exact
    prefix of the full loop-free ranking and holds at least K routes when
    that many exist.  With ``confirm=False`` the search stops as soon as K
    routes are found (faster, but routes tied on BDT with the K-th may be
    ordered greedily).

    Each search iteration increments the graph's computing counter.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    first = dijkstra_bdt(graph, depart)
    graph.computing_counter += 1
    if first is None:
        return []

    accepted: list[Route] = [first]
    seen: set[tuple[int, ...]] = {first.hops}
    pool: list[tuple[tuple, int, Route]] = []
    seq = 0
    plan = graph.plan

    # once the K-th best BDT is certain, `boundary` holds the BDT class of the
    # first route beyond it; that whole class is still confirmed before
    # stopping so the returned list is a true prefix of the full ranking
    boundary: float | None = None
    while True:
        if confirm:
            if boundary is None and len(accepted) >= k:
                kth_bdt = sorted(r.bdt for r in accepted)[k - 1]
                if accepted[-1].bdt > kth_bdt:
                    boundary = accepted[-1].bdt
        else:
            if len(accepted) >= k:
                break

        # deviate from the most recently accepted route at every spur point,
        # walking its root path one hop per spur index
        graph.computing_counter += 1
        base = accepted[-1].hops
        spur_node = graph.source
        start_time = depart
        root_nodes: list[str] = []
        for j in range(len(base)):
            if j:
                c = plan.contact(base[j - 1])
                root_nodes.append(spur_node)
                spur_node = c.to_node
                dep = start_time if start_time > c.t_start else c.t_start
                start_time = dep + c.owlt
            root_hops = base[:j]
            banned_first = frozenset(
                r.hops[j] for r in accepted if len(r.hops) > j and r.hops[:j] == root_hops
            )
            found = _search(
                graph, spur_node, start_time, frozenset(root_nodes), banned_first
            )
            if found is None:
                continue
            total = root_hops + tuple(found[0])
            if total in seen:
                continue
            route = evaluate_route(plan, total, depart)
            if route is None:
                continue
            seen.add(total)
            seq += 1
            heapq.heappush(pool, (route.sort_key, seq, route))

        if not pool:
            break
        nxt = heapq.heappop(pool)[2]
        if boundary is not None and nxt.bdt > boundary:
            break
        accepted.append(nxt)

    accepted.sort(key=lambda r: r.sort_key)
    return accepted


def routes_to_csv(routes: list[Route]) -> str:
    """Route list as CSV: rank,bdt,volume,vti_start,vti_end,hops."""
    lines = ["rank,bdt,volume,vti_start,vti_end,hops"]
    for rank, r in enumerate(routes, start=1):
        hops = ";".join(str(h) for h in r.hops)
        lines.append(
            f"{rank},{r.bdt:g},{r.volume:g},{r.vti[0]:g},{r.vti[1]:g},{hops}"
        )
    return "\n".join(lines) + "\n"

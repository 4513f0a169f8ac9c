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
a few confirmed routes beyond K.  Spur searches from an accepted route start
at the hop index where it deviated from its parent route (Lawler, 1972).  In
the non-confirming mode, once the candidate pool holds enough routes to fill
the list, a spur search drops every label whose arrival plus the least light
time left to the destination (``ContactPlan.owlt_to``, a consistent lower
bound in the sense of Hart, Nilsson & Raphael, 1968) exceeds the BDT of the
last route that can still be accepted; the returned routes are unchanged.

The earliest-arrival search runs on the plan's integer node indices, which
follow the node names' string order, so equal arrivals break ties as they
would on the names.  Where ``_exact`` holds (a whole-second departure over a
plan with positive whole light times and whole window starts), it pops
labels by arrival plus ``owlt_to`` (Hart, Nilsson & Raphael, 1968), so it
settles no label that cannot reach the destination by the delivery time,
and on an equal arrival it keeps the parent the arrival order would pick,
so the hops are those of Dijkstra's order (the argument is in ``_search``).

A ``ContactGraph`` is one source/destination pair's search context; the
graph is ``ContactPlan.adjacency``, whose storage edges lead from a contact
to one leaving its receiving node late enough.  Both kept-search sites keep
one record, ``(start, route)``: the start of a search and the route it gave,
or None when it found none.  ``dijkstra_bdt`` keeps its last answer per
first-hop restriction, and ``yen_plus`` a trace of its last call with a
record per spur search that added a candidate.  ``_answers`` is the one test
of whether a record stands in for a later search: at its own start, or where
``_shifts``, which holds the argument, moves it to a later one.  Route
search counts nothing; ``simcore`` counts computations.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections.abc import Set
from dataclasses import dataclass, field
from typing import NamedTuple

from cgrlab.contactplan import ContactPlan, _fmt


class Route(NamedTuple):
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


_new_tuple = tuple.__new__

# a kept search: its start and the route it gave, or None (see `_answers`)
Kept = tuple[float, Route | None]
# one deviation round of a `yen_plus` call, as `ContactGraph.spurs` keeps it
SpurRound = tuple[tuple[int, ...], int, dict[int, Kept]]


@dataclass
class ContactGraph:
    """Route search context for one source/destination pair.

    ``residual`` maps each contact id to the volume left on it; a run passes
    its own table, which it lowers as it commits data.  ``searches`` maps a
    ``via`` neighbour (or None) to the ``(start, route)`` record of the last
    ``dijkstra_bdt`` call: its departure and the route it returned.
    ``spurs`` is the trace of the last ``yen_plus`` call, one ``(base,
    deviation, found)`` per deviation round: the hops deviated from, the
    first spur index searched and, per spur index whose search added a pool
    candidate, the ``(start, route)`` record of that search and candidate.
    ``routes`` is the engine's ``(computed_at, routes)``
    (see ``simcore._Engine._routes``).
    """

    plan: ContactPlan
    source: str
    dest: str
    residual: dict[int, float] = field(repr=False, compare=False)
    searches: dict[str | None, Kept] = field(default_factory=dict, repr=False, compare=False)
    spurs: list[SpurRound] | None = field(default=None, repr=False, compare=False)
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


def evaluate_route(
    plan: ContactPlan,
    residual: dict[int, float],
    hops: tuple[int, ...] | list[int],
    depart: float,
) -> Route | None:
    """Compute BDT, VTI and volume for a contact sequence, or None if infeasible.

    Forward pass: leave each node no earlier than max(arrival, window start),
    first byte lands after the one-way light time; a hop is feasible while at
    least one whole second of its window remains.  Backward pass finds the
    latest workable departure per hop, which bounds both the VTI and each
    hop's usable capacity; ``residual`` maps each contact id to the volume
    left on it, which bounds that capacity too.  Both passes read the hops'
    rows of ``plan.timing``.
    """
    if not hops:
        # every caller's hops lead from a node to a destination it differs
        # from: a search's, or a root and a spur from a node before the end
        raise AssertionError("evaluate_route: a route needs at least one hop")
    timing = plan.timing
    rows = [timing[h] for h in hops]
    arrival = depart
    departures = []
    for t_start, last, owlt, _, _, _ in rows:
        dep = arrival if arrival > t_start else t_start
        if dep > last:
            return None
        departures.append(dep)
        arrival = dep + owlt

    # Backward pass: each hop's latest departure min(last, next latest -
    # owlt), which is `last` unless `nxt - owlt < last`, and the volume, the
    # least of every hop's window term and residual.  `min` over them in
    # forward order (window term, residual of hop 0, then of hop 1, ...)
    # returns the first of equal least terms; walking that sequence
    # backwards with `<=` lets the last visited of them, the same one, win.
    # No term is NaN (contact fields and residuals are finite), so every
    # comparison is decided and the result is the very value `min` takes,
    # -0.0 against 0.0 or an int against an equal float included.
    volume = nxt = math.inf
    for i in range(len(rows) - 1, -1, -1):
        _, last, owlt, rate, _, _ = rows[i]
        ld = nxt - owlt
        if not ld < last:
            ld = last
        left = residual[hops[i]]
        if left <= volume:
            volume = left
        term = (ld - departures[i] + 1) * rate
        if term <= volume:
            volume = term
        nxt = ld

    # the tuple constructor, not Route's generated __new__, which adds a frame
    return _new_tuple(
        Route, (tuple(hops), arrival, (departures[0], nxt), volume, len(rows), hops[0])
    )


def covers(residual: dict[int, float], route: Route) -> bool:
    """Whether every hop's residual volume is still at least ``route.volume``.

    Then ``evaluate_route`` at the route's own departure returns the route
    unchanged: a departure fixes every window term, residual volumes only
    fall, and ``Route.volume`` is the least of those terms and the hops'
    residuals, so it moves only once some residual drops below it.
    """
    return min(map(residual.__getitem__, route.hops)) >= route.volume


def _exact(plan: ContactPlan, t: float) -> bool:
    """Whether a search departing at ``t`` over ``plan`` is exact.

    ``t`` is a whole second in ``[0, 2**52)`` and
    ``plan.positive_whole_times()`` holds, so every label, ``owlt_to`` bound
    and key of the search is a whole number below 2**53, each sum is exact
    and every comparison decides as on the reals.  ``_search`` runs the goal
    order, and ``_shifts`` lets a kept search stand in for one at a later
    departure, only then.
    """
    return 0 <= t < 2.0**52 and float(t).is_integer() and plan.positive_whole_times()


def _search(
    plan: ContactPlan,
    start: int,
    start_time: float,
    dest: int,
    banned_nodes: list[int],
    banned_first: Set[int],
    bound: float = math.inf,
) -> list[int] | None:
    """Earliest-arrival search between node indices; returns the hops or None.

    The search walks ``plan.adjacency`` and takes an edge when a whole second
    of its window remains on arrival at its sending node.  ``banned_nodes``
    start out settled and ``banned_first`` removes contacts from the first
    hop.  It returns the hops of the Dijkstra order, which pops labels by
    ``(arrival, node index)``; indices follow the names' string order, so
    ties break as they would on the names.  The heap starts with the start
    alone, and the loop settles it as any other node: a banned start finds
    nothing, and a start equal to ``dest`` returns no hops.

    Heap entries are ``(key, arrival, node index)``.  The key is the arrival
    plus ``h[node]``, with ``h = plan.owlt_to(dest)`` (goal-directed, Hart,
    Nilsson & Raphael, 1968), where ``_exact(plan, start_time)`` holds;
    otherwise it is the arrival.  The loop argues why both orders return the
    same hops.

    A label ``reach`` at node ``to`` is kept only when ``reach + h[to] <=
    bound``; ``yen_plus`` argues at its prune site why that returns what the
    unbounded search returns whenever that arrives by ``bound``.
    """
    # The goal-directed order returns the Dijkstra order's hops.  A node's
    # final label is its earliest arrival over the edges the search may take.
    # With positive light times a sender w reaching v at v's final label L
    # has label(w) <= L - owlt < L, Dijkstra pops labels in strictly rising
    # (label, index) order, and its strict `reach < best[to]` keeps the
    # first edge that reaches the least label.  So v's Dijkstra parent is
    # the first edge, in adjacency order, that reaches L from the first
    # such sender in (label, index) order.
    # - Exact arithmetic: by `_exact`, every label, h and key is a whole
    #   number below 2**53 (h is inf where no contact path leads to dest).
    # - h is consistent: h[u] <= owlt + h[v] on every edge u -> v, and a
    #   relaxation from label(u) reaches v at reach >= label(u) + owlt, so
    #   f(v) = reach + h[v] >= label(u) + h[u] = f(u) and reach > label(u):
    #   keys rise strictly along every edge.  Reach never falls as label(u)
    #   rises (FIFO: leaving later never arrives sooner, Dreyfus, 1969), so
    #   a label is final when it pops, and nodes pop in rising key order.
    # - Every tied sender pops before its receiver: a sender w reaching v at
    #   L has f(w) <= f(v) and label(w) < label(v), so its key is smaller,
    #   and w pops, at its final label, and relaxes v before v pops.
    # - At v's pop every such sender has relaxed v.  `reach < best[to]`
    #   keeps the first edge to reach the least label, an equal reach moves
    #   the parent to a sender that comes first in (label, index), and a
    #   sender's later edges never move it: that is the Dijkstra parent.
    #   Parents come from settled nodes, so `best[sender]` is final.
    # In the Dijkstra order senders relax in rising (label, index) order and
    # the tie test would never move a parent, so only the goal order runs
    # it.  A zero light time would let a sender pop after its receiver,
    # hence the positivity guard.
    adjacency = plan.adjacency
    goal = _exact(plan, start_time)
    h = plan.owlt_to(dest)
    best = [math.inf] * len(adjacency)
    parent: list[tuple[int, int] | None] = [None] * len(adjacency)
    done = bytearray(len(adjacency))
    for n in banned_nodes:
        done[n] = 1
    best[start] = start_time
    heap = [(start_time + h[start] if goal else start_time, start_time, start)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        _, arrival, node = heappop(heap)
        if done[node]:
            continue
        done[node] = 1
        if node == dest:
            hops = []
            while node != start:
                cid, node = parent[node]
                hops.append(cid)
            hops.reverse()
            return hops
        for cid, t_start, last, owlt, to in adjacency[node]:
            if done[to] or node == start and cid in banned_first:
                continue
            dep = arrival if arrival > t_start else t_start
            if dep > last:
                continue
            reach = dep + owlt
            if reach < best[to]:
                key = reach + h[to]
                if key > bound:
                    continue
                best[to] = reach
                parent[to] = (cid, node)
                heappush(heap, (key if goal else reach, reach, to))
            elif reach == best[to] and goal:
                sender = parent[to][1]
                if arrival < best[sender] or arrival == best[sender] and node < sender:
                    parent[to] = (cid, node)
    return None


def _shifts(plan: ContactPlan, s0: float, s1: float, arrival: float) -> bool:
    """Whether a search from ``s1`` returns the hops a kept one from ``s0`` did.

    The kept search started at ``s0`` and, unbounded, returned hops arriving
    at ``arrival``.  The same search (start, banned nodes and banned first
    hops) from ``s1`` returns the same hops, arriving ``s1 - s0`` later, when
    ``s1 >= s0``, ``_exact`` holds at both starts, and no window of the plan
    opens in ``(s0, arrival + s1 - s0]`` or closes (no ``last``) in ``[s0,
    arrival + s1 - s0)``.  ``_answers`` applies it to both kept-search
    sites.
    """
    # Say delta = s1 - s0 and A0 = arrival.  The search from s1 returns the
    # kept hops at A0 + delta when
    # (a) delta >= 0 and `_exact` holds at s0 and s1, so both run the goal
    #     order and every label, h and key is an exact whole number;
    # (b) no window opens in (s0, A0 + delta];
    # (c) no window closes (no `last`) in [s0, A0 + delta).
    # The search from s0 pops keys in rising order, up to dest's A0, and a
    # label is at most its key, so every node it pops has a label l in
    # [s0, A0].  Call a reach low when it is at most A0 from s0, or A0 +
    # delta from s1.  By induction over the pops, the start's pop first,
    # the search from s1 pops each such node at l + delta, and every
    # node's best is low in both searches and shifted by delta, with the
    # same parent, or high in both.  An edge of a popped node either opens
    # at or before s0 <= l: it leaves at once in both, stays feasible in
    # both or in neither by (c), and reaches r and r + delta.  Or by (b) it
    # opens after A0 + delta: it waits in both, is feasible in both or in
    # neither, and reaches the same W > A0 + delta, high in both.  A low
    # reach beats a high best in both, a high reach never beats or ties a
    # low best, and two low reaches compare as their shifts, as does the tie
    # test on popped labels.  So the low entries pushed are the same,
    # shifted by delta, and the rest have keys above A0 from s0 and above
    # A0 + delta from s1, beyond every pop up to dest.  The heap's `(key,
    # arrival, index)` order of the low entries, the `done` flags and the
    # parents then match, and so does the return.  The first-hop ban and
    # the banned nodes are inputs, the same in both.  A wait for a window
    # that opens after A0 + delta reaches only high labels, so it never
    # stops a reuse.
    # The bisects test (b) and (c) over every window of the plan; for whole
    # x >= 0, `t_end - 1 >= x` exactly when `t_end >= x + 1`, since the
    # subtraction is exact for 0.5 <= t_end < 2**53 and below 0 otherwise.
    # Where (a) holds, delta, A0 + delta and the sums with 1 are exact whole
    # numbers, and so is each comparison.
    shifted = arrival + (s1 - s0)
    starts, ends = plan.window_bounds()
    return (
        s1 >= s0
        and _exact(plan, s0)
        and _exact(plan, s1)
        and bisect_right(starts, s0) == bisect_right(starts, shifted)
        and bisect_left(ends, s0 + 1) == bisect_left(ends, shifted + 1)
    )


def _answers(plan: ContactPlan, kept: Kept, start: float) -> bool:
    """Whether a kept search ``(s0, route)`` answers the same search from ``start``.

    A search reads only the plan and its start, so one from ``s0`` repeats
    the kept one whatever the residual volumes.  A route's BDT is its
    search's arrival, since ``evaluate_route`` repeats the search's forward
    rule, so where ``_shifts`` holds for it a later search returns the
    route's hops.
    """
    s0, route = kept
    return start == s0 or route is not None and _shifts(plan, s0, start, route.bdt)


def dijkstra_bdt(
    graph: ContactGraph,
    depart: float = 0.0,
    via: str | None = None,
) -> Route | None:
    """Route minimizing the best delivery time from the graph's source.

    ``via`` restricts the first hop to contacts into that neighbour node,
    which yields the best route through it.  Returns None when the
    destination is unreachable.

    The graph keeps the last answer for each ``via`` (None included) as a
    ``(depart, route)`` record.  Where ``_answers`` holds, the call takes the
    kept route's hops instead of searching: at the record's own departure
    the route stands while ``covers`` holds, and otherwise its hops are
    timed again.  Each answer re-keys the record at its own departure, which
    loses no later hit: a window edge between the two starts would have
    refused this answer.  The result is the same either way.
    """
    plan, residual = graph.plan, graph.residual
    kept = graph.searches.get(via)
    if kept and _answers(plan, kept, depart):
        route = kept[1]
        if route is not None and not (depart == kept[0] and covers(residual, route)):
            route = evaluate_route(plan, residual, route.hops, depart)
    else:
        banned_first = frozenset() if via is None else frozenset(
            c.id for c in plan.contacts_from(graph.source) if c.to_node != via
        )
        index = plan.node_index
        hops = _search(plan, index[graph.source], depart, index[graph.dest], [], banned_first)
        route = None if hops is None else evaluate_route(plan, residual, hops, depart)
    graph.searches[via] = (depart, route)
    return route


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

    Spur searches from an accepted route start at its deviation index
    (Lawler's restriction; the argument is at the spur loop).  With
    ``confirm=False`` they are also bounded: a label that cannot reach the
    destination by the BDT of the last route that can still be accepted is
    dropped, which leaves the result unchanged (the argument is at the
    search call).

    Each call keeps on the graph the base hops of each deviation round and
    the ``(start, route)`` record of each spur search that added a
    candidate.  A later call on the graph, at any departure, uses a kept
    spur in place of its search while every round so far deviated from the
    same base hops at the same index and ``_answers`` holds for the spur's
    start; the arrival is then the kept one shifted, and a spur arriving
    after the bound is None (Acar, 2005, on reusing a trace of a
    computation; the argument is at the spur loop).  The result is the same
    either way.

    The loop makes one shortest-path search for the first route, then one
    deviation round per further route sought (Yen, 1971).  With
    ``confirm=False`` each round either accepts a route or finds the pool
    empty and stops, and the loop stops once k routes are accepted, so a
    call makes ``min(len(routes) + 1, k)`` of these computations.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    first = dijkstra_bdt(graph, depart)
    if first is None:
        return []

    accepted: list[Route] = [first]
    seen: set[tuple[int, ...]] = {first.hops}
    # root prefix -> first hops after it of the accepted routes it starts
    banned: dict[tuple[int, ...], set[int]] = {}
    # (sort_key, seq, route, deviation index); seq is unique, so entries
    # never compare beyond it
    pool: list[tuple[tuple, int, Route, int]] = []
    seq = 0
    plan, residual = graph.plan, graph.residual
    timing = plan.timing
    index = plan.node_index
    source = index[graph.source]
    dest = index[graph.dest]
    deviation = 0
    # non-confirming mode: `cutoff` is B*, the latest BDT a route can have
    # and still be accepted, and `bound` the prune threshold (see the spurs)
    cutoff = bound = math.inf
    # the rounds the graph kept from its last call, replayed while this
    # call repeats them (see the spurs), and this call's own rounds
    kept_rounds = iter(graph.spurs or ())
    rounds: list[SpurRound] = []

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

        # Deviate from the most recently accepted route X at each spur index
        # j, walking its root path one hop per index.  Lawler's restriction:
        # when X came from deviating route P at index d (d = 0 for the first
        # route), the searches at j < d are skipped.  The pool stays that of
        # the full loop:
        # - A spur search at j is a deterministic function of the root
        #   R = X[:j], which fixes the spur node, the arrival there and the
        #   banned root nodes, and of B(R), the j-th hops of the accepted
        #   routes that start with R.  Equal inputs give equal results,
        #   whatever the heap's tie-breaks, and so does `evaluate_route`.
        # - Invariant after every round: for each proper prefix R of an
        #   accepted route, the search on (R, B(R)) finds nothing, a route
        #   in `seen`, or one that `evaluate_route` rejects.  The full loop
        #   adds none of the three to the pool.
        # - Accepting X adds X[j] to B(X[:j]) and changes no other B.  For
        #   j < d, X[:j] = P[:j] is a proper prefix of the accepted P and
        #   X[j] = P[j] is already in B(X[:j]), so the invariant still holds
        #   there and the full loop's search would add nothing.  For j >= d,
        #   B(X[:j]) gained X[j] or X[:j] is a new prefix; this round
        #   searches those and restores the invariant.
        # `seq` moves only on additions, so the pool entries, their order
        # and every later round equal the full loop's.  `banned[R]` is B(R):
        # X[j] joins B(X[:j]) as this round reaches j >= d, before its
        # search, and nothing else changes a B.  The root walk repeats the
        # forward rule of `evaluate_route` on the same `plan.timing` rows.
        base = accepted[-1].hops
        traced = next(kept_rounds, None)
        if traced is not None and traced[0] == base and traced[1] == deviation:
            replayed = traced[2]
        else:
            replayed = {}
            kept_rounds = iter(())
        found: dict[int, Kept] = {}
        rounds.append((base, deviation, found))
        spur_node = source
        start_time = depart
        root_nodes: list[int] = []
        for j in range(len(base)):
            if j:
                t_start, _, owlt, _, to, _ = timing[base[j - 1]]
                root_nodes.append(spur_node)
                spur_node = to
                dep = start_time if start_time > t_start else t_start
                start_time = dep + owlt
            if j < deviation:
                continue
            root_hops = base[:j]
            banned_first = banned.setdefault(root_hops, set())
            banned_first.add(base[j])
            # Bounded spurs, in the non-confirming mode only.  Once the pool
            # holds m = k - len(accepted) entries, B* is the BDT of its m-th
            # best.  Each later round pops one entry and accepts it, those m
            # entries (or better ones) pop first, and after m rounds
            # len(accepted) == k ends the search, so a route whose BDT is
            # above B* can never be accepted.  B* never rises: a push can
            # only lower the m-th best, and a pop removes the best entry
            # while m drops by one, which leaves the same entry m-th.  With
            # h = plan.owlt_to(dest), `_search` keeps a label only when
            # reach + h[to] <= B*.  The accepted routes stay those of the
            # unbounded search:
            # (i) A pruned candidate is hopeless, and so is any later re-find
            #     of it, because B* never rises; the unbounded search would
            #     push it and never pop it.  The surviving entries keep their
            #     relative `seq` order, so the sequence of pops is unchanged.
            # (ii) h is consistent: h[u] <= owlt + h[v] on every edge, and
            #     reach >= label(u) + owlt, so f = label + h never falls
            #     along an edge, and a label the bound prunes has f > bound.
            #     A node whose final label has f <= bound gets it along edges
            #     whose labels all have f <= bound, and a sender tying at it
            #     has f no larger (`_search`), so every relaxation that sets
            #     a surviving node's label, ties included, comes from a
            #     surviving node.  The surviving labels pop in the same
            #     relative order, by (arrival, node) or by (f, arrival,
            #     node), and get the same parents as in the unbounded
            #     search.
            # (iii) BDT equals the search's arrival at dest, because
            #     `evaluate_route` applies the same forward rule to the same
            #     root, so a spur the unbounded search ends by B* is found
            #     unchanged, and any other is hopeless.
            # `bound` sits 1e-9 * (1 + |B*|) above B*.  Fractional sums round,
            # and the padding lies far above the rounding along any route, so
            # the labels of a route arriving by B* still survive; a bound
            # above B* only prunes less.  On whole-second plans and departures
            # every label sum and B* are whole numbers and the padding is
            # below one second (|B*| < 1e9 s), so it never changes what is
            # pruned.  No spur is skipped before its search: X's own tail
            # takes start_time + h[spur_node] <= BDT(X), and every candidate
            # deviating from X arrives no sooner than X, so B* >= BDT(X).
            #
            # Kept spurs.  The graph's last call, at any departure, deviated
            # in its rounds up to this one from the same base hops at the
            # same deviation index as this call.  So both visited the same
            # spur indices and built every B(R) by the same additions: its
            # search at j had this search's root, banned nodes and banned
            # first hops.  `found[j]` holds (s0, route) of a spur that added
            # a pool candidate: it started at s0 and returned, under its
            # bound, the spur of `route`, whose hops are the root's and the
            # spur's and whose BDT is the spur's arrival A0 by (iii).  A
            # bounded search returns the unbounded result exactly when that
            # arrives by the bound, by (ii), and None otherwise, since each
            # label it sets at dest is the arrival of some route.  So the
            # unbounded search from s0 returns that spur at A0, and where
            # `_answers` holds, the one from this spur's start returns it at
            # A0 + delta, delta = start - s0; the bounded search then
            # returns it when that is at most `bound`, and None otherwise,
            # without a search.  delta is the spur's own shift: a later
            # departure moves the spur start by at most as much, and less
            # where the root waited for a window.
            kept = replayed.get(j)
            if kept is not None and _answers(plan, kept, start_time):
                if kept[1].bdt + (start_time - kept[0]) > bound:
                    continue
                total = kept[1].hops
            else:
                spur = _search(plan, spur_node, start_time, dest, root_nodes, banned_first, bound)
                if spur is None:
                    continue
                total = root_hops + tuple(spur)
            if total in seen:
                continue
            route = evaluate_route(plan, residual, total, depart)
            if route is None:
                # (iii): the root and the spur pass the search's forward rule
                raise AssertionError(f"yen_plus: spur {total} fails the forward rule")
            seen.add(total)
            seq += 1
            heapq.heappush(pool, (route.sort_key, seq, route, j))
            found[j] = (start_time, route)
            if not confirm and route.bdt < cutoff and len(pool) >= k - len(accepted):
                cutoff = heapq.nsmallest(k - len(accepted), pool)[-1][2].bdt
                bound = cutoff + 1e-9 * (1.0 + abs(cutoff))

        if not pool:
            break
        _, _, nxt, next_deviation = heapq.heappop(pool)
        if boundary is not None and nxt.bdt > boundary:
            break
        accepted.append(nxt)
        deviation = next_deviation

    graph.spurs = rounds
    accepted.sort(key=lambda r: r.sort_key)
    return accepted


def routes_to_csv(routes: list[Route]) -> str:
    """Route list as CSV: rank,bdt,volume,vti_start,vti_end,hops."""
    lines = ["rank,bdt,volume,vti_start,vti_end,hops"]
    for rank, r in enumerate(routes, start=1):
        hops = ";".join(str(h) for h in r.hops)
        lines.append(
            f"{rank},{_fmt(r.bdt)},{_fmt(r.volume)},{_fmt(r.vti[0])},{_fmt(r.vti[1])},{hops}"
        )
    return "\n".join(lines) + "\n"

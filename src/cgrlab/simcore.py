"""Deterministic discrete-event engine for bundle delivery over a contact plan.

The engine executes bundle lifecycles (generation, per-node route selection,
queued transmission, delivery, expiry) under one of two forwarding policies:

* ``standard``: bundles are processed in arrival order; critical bundles are
  replicated through every distinct candidate first-hop neighbour.
* ``rmdg``: same-instant bundles are processed by priority then expiry;
  critical bundles travel as a single copy along the best candidate whose
  neighbour is not already known to hold them.

Both policies share candidate review (``_Engine._review_route``), the
priority transmission discipline, overbooking displacement and rollback.
The engine is single-threaded and strictly deterministic: identical inputs
produce bit-identical metrics and dispatch logs.  The plan's contacts open
and close on few distinct instants, so each instant at which contacts start
(after 0) or end is one event that carries those contacts in plan order.
Metrics are sampled every whole second, one row each; a row can change only
at an event, so between two events the engine keeps two runs of equal rows,
the first second's and the rest's, and ``SimulationMetrics.rows`` expands
them (see ``_Engine._emit_rows``).

A stored copy is re-attempted once per contact start or transmission end at
its node, so it is often attempted several times at one instant; each such
re-attempt is one selection event that carries the node's stored copies in
copy-id order.  An attempt that repeats, at the same instant and key, an
attempt of the same copy that changed nothing is skipped.  The key is a
``version`` that moves on every change an attempt can read, except for a
critical copy under ``standard``: its key is its node's stamp, which moves
only on changes to the contacts leaving the node (see ``_attempt_forward``).
Per-neighbour routes are reused through ``routesearch.dijkstra_bdt``'s kept
searches, over a per-node table of neighbours and their last usable seconds.

The paper's ``computing`` metric is one counter, ``_Engine.computing``, moved
only here.  One computation is a candidate review, a per-neighbour
``dijkstra_bdt`` call, or one of a ``yen_plus`` call's ``min(len(routes) + 1,
k)`` searches (the first, then one deviation round per further route sought).
Kept searches and routes still count, and a skipped attempt adds what its
first run counted; a route list served from the route cache counts nothing.

A copy is stored at its node, queued on a contact, in flight, or retired.
Only ``_Engine._move`` changes that state; it refuses any move outside
``_MOVES`` and keeps the live-copy and per-node store indices in step.  All
copies of a bundle share one ``Bundle``; a copy's node ends its ``hop_trace``.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import math
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from cgrlab.contactplan import Contact, ContactPlan, occupancy_rate
from cgrlab.forwarding import (
    MAX_RUN_S,
    POLICY_RMDG,
    POLICY_STANDARD,
    Booking,
    Bundle,
    CandidateRoute,
    basic_checks,
    booked_mb,
    compute_eto,
    compute_evl,
    compute_pat,
    find_rollback_contact,
    forward_critical,
    handle_overbooking,
)
from cgrlab.routesearch import (
    ContactGraph, Route, build_contact_graph, covers, dijkstra_bdt, evaluate_route, yen_plus
)

POLICIES = (POLICY_STANDARD, POLICY_RMDG)

# an event's rank is its kind and fixes the processing order at equal timestamps
_R_CONTACT_END = 0
_R_CONTACT_START = 1
_R_TX_COMPLETE = 2
_R_ARRIVAL = 3
_R_SELECT = 4
_R_EXPIRE = 5

OUTCOME_DELIVERED = "delivered"
OUTCOME_EXPIRED = "expired_in_transit"
OUTCOME_NEVER_ROUTED = "never_routed"

# a copy's states and the moves between them (see _Engine._move)
_STORED, _QUEUED, _IN_FLIGHT, _RETIRED = "stored", "queued", "in_flight", "retired"
_MOVES = {
    _STORED: (_QUEUED, _RETIRED),
    _QUEUED: (_STORED, _IN_FLIGHT, _RETIRED),
    _IN_FLIGHT: (_STORED, _RETIRED),
    _RETIRED: (),
}


@dataclass
class NodeState:
    """Per-node bookkeeping: stored copies and critical-holder knowledge."""

    stored: dict[int, "_Copy"] = field(default_factory=dict)
    seen_critical: dict[int, set[str]] = field(default_factory=dict)


@dataclass
class _Copy:
    """One traveling instance of a bundle (critical bundles may have many)."""

    copy_id: int
    bundle: Bundle
    hop_trace: tuple[str, ...]  # the nodes it has been at, its current node last
    first_tx_at: float | None = None
    # changed only by _Engine._move; queued_on is the contact while queued
    state: str = _STORED
    queued_on: int | None = None
    no_rollback_to: str | None = None
    # (now, key, computing delta) of its last attempt that changed nothing
    idle_attempt: tuple[float, int, int] | None = None

    @property
    def at_node(self) -> str:
        return self.hop_trace[-1]


class MetricsRow(NamedTuple):
    t: float
    r_o: float
    computing_cum: int
    storage_bundles: int
    mb_to_send: float
    mb_at_sending: float
    mb_sent: float
    delivered: int
    failed: int


# (first second, count, row): the rows of seconds first, first + 1, ...,
# first + count - 1, equal but for t, which is row.t at the first
RowRun = tuple[float, int, MetricsRow]

# the most seconds of text that metrics_csv and the digests build at once
_CHUNK_S = 4096


class MetricRows(Sequence):
    """The per-second rows of a run, read-only, expanded from its runs.

    A row's ``t`` is its run's first second plus its offset, which equals
    the engine's ``s += 1.0`` bit for bit: every second is a whole number
    below 2**53.  Compares equal to a list or another view with equal rows.
    """

    __slots__ = ("_runs", "_ends")

    def __init__(self, runs: list[RowRun]) -> None:
        self._runs = runs
        self._ends = list(accumulate(count for _, count, _ in runs))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("row index out of range")
        at = bisect_right(self._ends, index)
        first, count, row = self._runs[at]
        offset = index - (self._ends[at] - count)
        return MetricsRow(first + offset, *row[1:]) if offset else row

    def __iter__(self) -> Iterator[MetricsRow]:
        for first, count, row in self._runs:
            yield row
            for offset in range(1, count):
                yield MetricsRow(first + offset, *row[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, MetricRows)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"MetricRows({list(self)!r})"


@dataclass
class BundleRecord:
    bundle: Bundle
    t_delivered: float | None = None
    outcome: str | None = None
    first_tx: bool = False

    @property
    def early_margin(self) -> float | None:
        if self.t_delivered is None:
            return None
        return self.bundle.t_exp - self.t_delivered


@dataclass
class SimulationMetrics:
    """Per-second series plus per-bundle delivery records for one run."""

    policy: str
    seed: int
    k: int
    runs: list[RowRun]
    records: dict[int, BundleRecord]
    dispatch_log: list[tuple[float, int, str, str, int, str, str]]
    computing_total: int
    contact_usage: dict[int, float]

    @property
    def rows(self) -> MetricRows:
        """One row per whole second from 0, expanded from ``runs``."""
        return MetricRows(self.runs)

    @property
    def generated(self) -> int:
        return len(self.records)

    @property
    def delivered_count(self) -> int:
        return sum(1 for r in self.records.values() if r.outcome == OUTCOME_DELIVERED)

    @property
    def failed_count(self) -> int:
        return sum(
            1
            for r in self.records.values()
            if r.outcome in (OUTCOME_EXPIRED, OUTCOME_NEVER_ROUTED)
        )

    def delivery_rate(self) -> float:
        return self.delivered_count / self.generated if self.records else 0.0

    def mean_occupancy(self) -> float:
        # one addition per second, in order: float addition is not associative
        seconds = sum(count for _, count, _ in self.runs)
        r_o = chain.from_iterable(repeat(row.r_o, count) for _, count, row in self.runs)
        return sum(r_o) / seconds if seconds else 0.0

    def peak_at_sending(self) -> float:
        return max((row.mb_at_sending for _, _, row in self.runs), default=0.0)

    def mean_early_margin(self) -> float:
        margins = [
            r.early_margin for r in self.records.values() if r.early_margin is not None
        ]
        return sum(margins) / len(margins) if margins else 0.0

    def _row_lines(
        self, time: Callable[[float], str], rest: Callable[[MetricsRow], str]
    ) -> Iterator[str]:
        """The line ``time(t) + rest(row)`` of every second, in order, joined
        in chunks of at most ``_CHUNK_S`` seconds; ``rest`` is formatted once
        per run, since a run's rows differ only in ``t``."""
        for first, count, row in self.runs:
            text = rest(row)
            for lo in range(0, count, _CHUNK_S):
                offsets = range(lo, min(count, lo + _CHUNK_S))
                yield "".join([time(first + offset) + text for offset in offsets])

    def _metrics_csv_chunks(self) -> Iterator[str]:
        yield "t,r_o,computing_cum,storage_bundles,mb_to_send,mb_at_sending,mb_sent,delivered,failed\n"
        yield from self._row_lines(
            "{:g}".format,
            lambda r: (
                f",{r.r_o:.6f},{r.computing_cum},{r.storage_bundles},"
                f"{r.mb_to_send:g},{r.mb_at_sending:g},{r.mb_sent:g},{r.delivered},{r.failed}\n"
            ),
        )

    def metrics_csv(self) -> str:
        return "".join(self._metrics_csv_chunks())

    def bundles_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            ["bundle_id", "priority", "critical", "t_gen", "t_exp", "t_delivered", "early_margin", "outcome"]
        )
        for bid in sorted(self.records):
            r = self.records[bid]
            b = r.bundle
            writer.writerow(
                [
                    bid,
                    b.priority,
                    int(b.critical),
                    f"{b.t_gen:g}",
                    f"{b.t_exp:g}",
                    "" if r.t_delivered is None else f"{r.t_delivered:g}",
                    "" if r.early_margin is None else f"{r.early_margin:g}",
                    r.outcome or "",
                ]
            )
        return out.getvalue()

    def dispatch_csv(self) -> str:
        out = ["time,bundle_id,from,to,contact_id,policy,reason"]
        for t, bid, frm, to, cid, policy, reason in self.dispatch_log:
            out.append(f"{t:g},{bid},{frm},{to},{cid},{policy},{reason}")
        return "\n".join(out) + "\n"

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for chunk in self._metrics_csv_chunks():
            digest.update(chunk.encode())
        digest.update(self.bundles_csv().encode())
        digest.update(self.dispatch_csv().encode())
        return digest.hexdigest()

    def exact_digest(self) -> str:
        """sha256 over the ``repr`` of every output float, bit for bit.

        ``fingerprint()`` prints times and volumes with ``:g`` (six
        significant digits); ``repr`` round-trips, so equal digests mean
        equal doubles.  It covers every row field, each record's delivery
        time and outcome in id order, every dispatch tuple and
        ``contact_usage`` in id order, one line each.
        """
        digest = hashlib.sha256()
        digest.update(b"rows\n")
        for chunk in self._row_lines(repr, lambda r: "," + ",".join(map(repr, r[1:])) + "\n"):
            digest.update(chunk.encode())
        digest.update(b"records\n")
        for bid in sorted(self.records):
            r = self.records[bid]
            digest.update(f"{bid!r},{r.t_delivered!r},{r.outcome!r}\n".encode())
        digest.update(b"dispatches\n")
        for entry in self.dispatch_log:
            digest.update((",".join(map(repr, entry)) + "\n").encode())
        digest.update(b"contact_usage\n")
        for cid in sorted(self.contact_usage):
            digest.update(f"{cid!r},{self.contact_usage[cid]!r}\n".encode())
        return digest.hexdigest()


class _Engine:
    def __init__(
        self,
        plan: ContactPlan,
        bundles: list[Bundle],
        policy: str,
        seed: int,
        k: int,
        owlt_mode: str,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if owlt_mode not in ("uniform", "file"):
            raise ValueError(f"unknown owlt mode {owlt_mode!r}")
        ids: set[int] = set()
        for b in bundles:
            if b.id in ids:
                raise ValueError(f"duplicate bundle id {b.id}")
            ids.add(b.id)
            b.check_plan(plan)
        # nothing writes a plan, so runs share it and the tables it fills
        self.plan = plan.uniform() if owlt_mode == "uniform" else plan
        last = self.plan.horizon + max((c.owlt for c in self.plan.contacts), default=0.0)
        if last > MAX_RUN_S:
            raise ValueError(
                f"plan horizon plus light time {last} s passes the run cap of {MAX_RUN_S} s")
        self.policy = policy
        self.seed = seed
        self.k = k
        self.bundles = sorted(bundles, key=lambda b: b.id)

        # each contact's reservations in booking order, the volume it has
        # left, and the end of its last transmission, kept only for contacts
        # that have started one
        self.queues: dict[int, list[Booking]] = {c.id: [] for c in self.plan.contacts}
        self.residual = self.plan.volumes()
        self.busy_until: dict[int, float] = {}
        self.nodes = {n: NodeState() for n in sorted(self.plan.node_ids)}
        self.records = {b.id: BundleRecord(b) for b in self.bundles}
        # the copies not retired, in copy-id order
        self.alive: dict[int, _Copy] = {}

        self.graphs: dict[tuple[str, str], ContactGraph] = {}
        self.computing = 0  # the paper's metric (see the module docstring)
        # moves on every change a selection attempt can read: each non-select
        # event, accepted enqueue and route-cache recompute; _try_start runs
        # only right after an event or an accepted enqueue
        self.version = 0
        # per node, moves on every change to the queue, residual volume or
        # busy_until of a contact leaving it: the key of a blanket attempt
        self.stamps = dict.fromkeys(self.nodes, 0)
        # per node, (neighbour, last second of its latest contact) in
        # neighbour order, filled on first use by _critical_candidates
        self.neighbours: dict[str, list[tuple[str, float]]] = {}
        self.booking_seq = 0
        self.copy_seq = 0

        self.delivered = 0
        self.failed = 0
        self.mb_sent = 0.0
        self.runs: list[RowRun] = []
        self.dispatch_log: list[tuple[float, int, str, str, int, str, str]] = []

        self.heap: list[tuple[float, int, int, object]] = []
        self.event_seq = 0

    # -- event plumbing --------------------------------------------------

    def _push(self, t: float, rank: int, payload: object) -> None:
        self.event_seq += 1
        heapq.heappush(self.heap, (t, rank, self.event_seq, payload))

    # -- route computation -----------------------------------------------

    def _graph(self, node: str, dest: str) -> ContactGraph:
        key = (node, dest)
        graph = self.graphs.get(key)
        if graph is None:
            graph = self.graphs[key] = build_contact_graph(self.plan, node, dest, self.residual)
        return graph

    def _routes(self, graph: ContactGraph, now: float, force: bool = False) -> list[Route]:
        cached, timing = graph.routes, self.plan.timing
        if cached is not None and not (force and cached[0] < now):
            # a route is live while its first hop has a whole second left
            live = [r for r in cached[1] if timing[r.first_hop][1] >= now]
            if live:
                graph.routes = (cached[0], live)
                return live
        routes = yen_plus(graph, self.k, depart=now, confirm=False)
        self.computing += min(len(routes) + 1, self.k)  # see yen_plus
        graph.routes = (now, routes)
        self.version += 1
        return routes

    def _review_route(self, route: Route, copy: _Copy, now: float) -> CandidateRoute | None:
        """Apply the forwarding gates to one route for one copy.

        None when basic checks fail or the first hop cannot carry the bundle.
        Admissible when PAT meets expiry and, for a non-critical bundle only,
        EVL, computed only then, holds the bundle: critical reservations
        displace lower priorities at enqueue.  Each review counts one computation.
        """
        self.computing += 1
        bundle = copy.bundle
        first = self.plan.contact(route.first_hop)
        if not basic_checks(first, route, bundle, copy.hop_trace, now):
            return None
        ahead = booked_mb(self.queues[first.id], bundle.priority)
        eto = compute_eto(first, ahead, self.busy_until.get(first.id, -1.0), now)
        pat = compute_pat(self.plan, route, eto, bundle.size)
        if pat is None:
            return None
        admissible = pat <= bundle.t_exp and (
            bundle.critical
            or compute_evl(self.residual, route, self.queues, bundle.priority) >= bundle.size
        )
        return CandidateRoute(route, first, admissible)

    def _candidates(self, copy: _Copy, now: float) -> list[CandidateRoute]:
        graph = self._graph(copy.at_node, copy.bundle.dest)
        residual = self.residual
        for attempt in (0, 1):
            routes = self._routes(graph, now, force=attempt == 1)
            timed = graph.routes[0] == now  # a list computed now was timed now
            cands: list[CandidateRoute] = []
            for route in routes:
                if not timed or not covers(residual, route):
                    route = evaluate_route(self.plan, residual, route.hops, now)
                    if route is None:
                        continue
                cand = self._review_route(route, copy, now)
                if cand is not None:
                    cands.append(cand)
            if cands or attempt == 1:
                return cands

    def _critical_candidates(self, copy: _Copy, now: float) -> list[CandidateRoute]:
        """Best route through every usable neighbour (blanket replication).

        Mirrors the baseline's critical handling: a route is computed per
        proximate node rather than taken from the K-route list, so a copy can
        be launched through each neighbour that still has a path.

        ``dijkstra_bdt`` answers a repeat at this instant from the route it
        kept on the graph; each call still counts one computation.
        """
        node = copy.at_node
        graph = self._graph(node, copy.bundle.dest)
        table = self.neighbours.get(node)
        if table is None:
            # a neighbour is usable while any contact into it has a whole
            # second left, so while the latest of them has
            last: dict[str, float] = {}
            for c in self.plan.contacts_from(node):
                last[c.to_node] = max(last.get(c.to_node, -math.inf), c.t_end - 1)
            table = self.neighbours[node] = sorted(last.items())
        hop_trace = copy.hop_trace
        cands: list[CandidateRoute] = []
        for neighbor, last_s in table:
            if last_s < now or neighbor in hop_trace:
                continue
            self.computing += 1
            route = dijkstra_bdt(graph, depart=now, via=neighbor)
            if route is None:
                continue
            cand = self._review_route(route, copy, now)
            if cand is not None:
                cands.append(cand)
        return cands

    # -- copy lifecycle ---------------------------------------------------

    def _new_copy(
        self, bundle: Bundle, hop_trace: tuple[str, ...], first_tx_at: float | None = None
    ) -> _Copy:
        """A new copy, stored at its trace's last node until something moves it."""
        self.copy_seq += 1
        copy = _Copy(
            copy_id=self.copy_seq, bundle=bundle, hop_trace=hop_trace, first_tx_at=first_tx_at
        )
        self.alive[copy.copy_id] = copy
        self.nodes[copy.at_node].stored[copy.copy_id] = copy
        return copy

    def _move(self, copy: _Copy, state: str, now: float, queued_on: int | None = None) -> None:
        """Move ``copy`` to ``state``; a copy coming back into a store is sent
        to selection.

        A copy is stored from its creation or arrival on, not only once its
        first selection fails, and no event can tell: stores are read only by
        the re-attempts of contact starts and transmission ends (ranks 1 and
        2).  A copy created in a selection batch is attempted in that batch.
        An arrival pops once no rank 1 or 2 event is left at its instant and
        pushes only its copy's selection, which pops before any re-attempt.
        """
        if state not in _MOVES[copy.state]:
            raise AssertionError(f"copy {copy.copy_id}: illegal move {copy.state} -> {state}")
        stored = self.nodes[copy.at_node].stored
        if copy.state == _STORED:
            del stored[copy.copy_id]
        copy.state = state
        copy.queued_on = queued_on
        if state == _STORED:
            stored[copy.copy_id] = copy
            self._push(now, _R_SELECT, [copy])
        elif state == _RETIRED:
            del self.alive[copy.copy_id]

    def _reattempt_stored(self, node: str, now: float) -> None:
        """Push one selection event carrying ``node``'s stored copies in
        copy-id order.

        One event per copy would pop in the same order: their pushes would
        take consecutive sequence numbers at one instant and rank, so they
        would pop back to back, and the batch expands the group in place.
        """
        stored = self.nodes[node].stored
        if stored:
            self._push(now, _R_SELECT, [stored[i] for i in sorted(stored)])

    # -- dispatch ---------------------------------------------------------

    def _enqueue(self, copy: _Copy, contact: Contact, now: float, reason: str) -> bool:
        queue = self.queues[contact.id]
        bundle = copy.bundle
        self.booking_seq += 1
        booking = Booking(
            copy_id=copy.copy_id, mb=bundle.size, priority=bundle.priority, seq=self.booking_seq
        )
        accepted, displaced = handle_overbooking(self.residual[contact.id], queue, booking)
        if not accepted:
            return False
        self.version += 1
        self.stamps[contact.from_node] += 1
        for victim in displaced:
            queue.remove(victim)
            self.dispatch_log.append(
                (now, self.alive[victim.copy_id].bundle.id, contact.from_node, contact.to_node, contact.id, self.policy, "overbook_displace")
            )
            self._move(self.alive[victim.copy_id], _STORED, now)
        queue.append(booking)
        self._move(copy, _QUEUED, now, queued_on=contact.id)
        if bundle.critical:
            self.nodes[copy.at_node].seen_critical[bundle.id].add(contact.to_node)
        self.dispatch_log.append(
            (now, bundle.id, contact.from_node, contact.to_node, contact.id, self.policy, reason)
        )
        self._try_start(contact, now)
        return True

    def _try_start(self, c: Contact, now: float) -> None:
        queue = self.queues[c.id]
        while queue and self.busy_until.get(c.id, -1.0) <= now and c.t_start <= now < c.t_end:
            self.stamps[c.from_node] += 1
            booking = min(queue, key=lambda b: (-b.priority, b.seq))
            queue.remove(booking)
            copy = self.alive[booking.copy_id]
            duration = booking.mb / c.rate
            if now + duration > c.t_end:
                # no longer fits in the remaining window: back to selection
                self._move(copy, _STORED, now)
                continue
            if copy.first_tx_at is None:
                copy.first_tx_at = now
            self._move(copy, _IN_FLIGHT, now)
            self.records[copy.bundle.id].first_tx = True
            self.residual[c.id] -= booking.mb
            self.busy_until[c.id] = now + duration
            self._push(now + duration, _R_TX_COMPLETE, (c, copy))
            return

    def _dispatch_candidates(
        self, copy: _Copy, cands: list[CandidateRoute], now: float
    ) -> None:
        bundle = copy.bundle
        node = copy.at_node
        if bundle.critical:
            # the holder set already has this node: added on generation or arrival
            holders = self.nodes[node].seen_critical[bundle.id]
            dispatches = forward_critical(bundle, cands, holders, self.policy)
            sent = 0
            for cand in dispatches:
                child = self._new_copy(bundle, copy.hop_trace, first_tx_at=copy.first_tx_at)
                if self._enqueue(child, cand.first, now, "critical_copy"):
                    sent += 1
                else:
                    self._move(child, _RETIRED, now)
            if sent:
                self._move(copy, _RETIRED, now)
            return
        # non-critical: single best admissible candidate, next-best on refusal
        admissible = sorted(
            (c for c in cands if c.admissible), key=lambda c: c.route.sort_key
        )
        for cand in admissible:
            if self._enqueue(copy, cand.first, now, "select"):
                return
        self._rollback(copy, now)

    def _rollback(self, copy: _Copy, now: float) -> None:
        contact = find_rollback_contact(
            self.plan, self.residual, copy.bundle, copy.hop_trace, now, self.queues
        )
        if contact is not None and contact.to_node != copy.no_rollback_to:
            if self._enqueue(copy, contact, now, "rollback"):
                copy.no_rollback_to = copy.at_node

    # -- event handlers ----------------------------------------------------

    def _attempt_forward(self, copy: _Copy, now: float) -> None:
        if copy.state != _STORED:
            return
        bundle = copy.bundle
        # never at its destination: a bundle's source is not its destination,
        # and an arrival there retires the copy
        if now > bundle.t_exp:
            # _handle_expire retires every stored copy at t_exp, after every
            # selection at that instant (expiry ranks last), and an arrival
            # after t_exp retires its copy
            raise AssertionError(
                f"copy {copy.copy_id}: attempted at {now}, after its expiry at {bundle.t_exp}")
        blanket = bundle.critical and self.policy == POLICY_STANDARD
        key = self.stamps[copy.at_node] if blanket else self.version
        idle = copy.idle_attempt
        if idle is not None and idle[0] == now and idle[1] == key:
            # This copy's last attempt ran at this instant and key and
            # changed nothing: it moved neither the version nor the booking
            # and copy sequences, so it dispatched nothing, tried no enqueue
            # and left the copy stored.  This attempt would read what that
            # one read, and equal inputs give equal outputs; the plan is
            # never written.
            # - The version: everything an attempt reads (the copy and its
            #   bundle, the queues, the residual table the graphs share,
            #   busy_until, the holder sets and the route-cache timestamp)
            #   changes only where the version moves or in the _try_start
            #   right after.
            # - The node's stamp, for a blanket attempt (a critical copy
            #   under standard): apart from `now` and the copy, whose node
            #   changes only on arrival, which clears its record, such an
            #   attempt reads only contacts leaving its node: each first
            #   hop's queue and busy_until (ETO, PAT) and the rollback
            #   contact's queue and residual.  A route's hops, BDT and
            #   None-ness depend on the plan and `now` alone; a residual
            #   moves only its volume, and so its rank, and rank matters
            #   only among admissible candidates, of which the last attempt
            #   had none.  Standard reads no holder set.
            # The caches it reads are pure: a graph's kept searches and
            # routes give what a fresh search returns, and the route-cache
            # live filter writes back a list that filtering again at the same
            # or a later `now` leaves as it is.  So the attempt would end as
            # the last one did, having counted the same computations.
            self.computing += idle[2]
            return
        before = (self.version, self.booking_seq, self.copy_seq)
        counted = self.computing
        if blanket:
            cands = self._critical_candidates(copy, now)
        else:
            cands = self._candidates(copy, now)
        if cands:
            self._dispatch_candidates(copy, cands, now)
        else:
            self._rollback(copy, now)
        if (self.version, self.booking_seq, self.copy_seq) == before:
            # no enqueue ran, so no stamp moved either
            copy.idle_attempt = (now, key, self.computing - counted)

    def _handle_arrival(self, copy: _Copy, contact: Contact, now: float) -> None:
        from_node, to_node = contact.from_node, contact.to_node
        copy.hop_trace += (to_node,)
        copy.idle_attempt = None  # it was kept against the stamp of the node it left
        bundle = copy.bundle
        if bundle.critical:
            holders = self.nodes[to_node].seen_critical.setdefault(bundle.id, set())
            holders.add(from_node)
            holders.add(to_node)
        record = self.records[bundle.id]
        expired = now > bundle.t_exp
        if to_node == bundle.dest and not expired and record.outcome is None:
            record.outcome = OUTCOME_DELIVERED
            record.t_delivered = now
            self.delivered += 1
            self.mb_sent += bundle.size
        self._move(copy, _RETIRED if expired or to_node == bundle.dest else _STORED, now)

    def _handle_expire(self, bundle_id: int, now: float) -> None:
        record = self.records[bundle_id]
        if record.outcome is None:
            record.outcome = OUTCOME_EXPIRED if record.first_tx else OUTCOME_NEVER_ROUTED
            self.failed += 1
        # a copy in flight retires on arrival
        for copy in [c for c in self.alive.values() if c.bundle.id == bundle_id]:
            if copy.state == _QUEUED:
                self.stamps[self.plan.contact(copy.queued_on).from_node] += 1
                queue = self.queues[copy.queued_on]
                queue[:] = [b for b in queue if b.copy_id != copy.copy_id]
            if copy.state != _IN_FLIGHT:
                self._move(copy, _RETIRED, now)

    def _handle_contact_end(self, c: Contact, now: float) -> None:
        self.stamps[c.from_node] += 1
        flushed = self.queues[c.id]
        self.queues[c.id] = []
        for booking in flushed:
            self._move(self.alive[booking.copy_id], _STORED, now)

    def _sample(self, t: float) -> MetricsRow:
        # a transfer in progress at t started no later than t and ends within
        # its contact's window, so the window contains t
        active = {cid for cid, busy_until in self.busy_until.items() if busy_until > t}
        r_o = occupancy_rate(self.plan, t, active)
        storage = 0
        mb_to_send = 0.0
        mb_at_sending = 0.0
        for copy in self.alive.values():
            if copy.state != _IN_FLIGHT:
                storage += 1
            # a bundle is counted in transit only once bits left its
            # origin strictly before the sample instant
            if copy.first_tx_at is not None and copy.first_tx_at < t:
                mb_at_sending += copy.bundle.size
            else:
                mb_to_send += copy.bundle.size
        generated = sum(1 for b in self.bundles if b.t_gen <= t)
        live = sum(1 for b in self.bundles if b.t_gen <= t and self.records[b.id].outcome is None)
        if generated != self.delivered + self.failed + live:
            raise AssertionError(
                f"conservation violated at t={t}: {generated} generated vs "
                f"{self.delivered} delivered + {self.failed} failed + {live} live"
            )
        return MetricsRow(
            t=t,
            r_o=r_o,
            computing_cum=self.computing,
            storage_bundles=storage,
            mb_to_send=mb_to_send,
            mb_at_sending=mb_at_sending,
            mb_sent=self.mb_sent,
            delivered=self.delivered,
            failed=self.failed,
        )

    def _emit_rows(self, s: float, t: float) -> float:
        """Append the runs of the rows of whole seconds ``s, s + 1, ...``
        before ``t``.

        Called when the event at ``t`` is popped, so these seconds are all the
        samples between the last handled event, at ``t_prev <= s``, and ``t``
        (before the first event, ``t_prev`` is 0).  Returns the next second
        to sample.

        Only the first two rows are computed: the row of ``s`` is a run of
        one, and the row of ``s + 1`` stands for every later second before
        ``t``, whose row equals it but for ``t``.  A row depends on ``t``
        only through ``t_start <= t <= t_end``, ``busy_until > t``,
        ``first_tx_at < t`` and ``t_gen <= t``, and each threshold is the
        time of an event: a contact start or end, a transmission end, the
        event that started a first transmission, a generation.  So each is
        at most ``t_prev`` or at least ``t``.  For ``t_prev < s < t`` every comparison is therefore
        settled; only a sample exactly at ``t_prev`` can differ, where a
        contact ending at ``t_prev`` still counts and a first transmission
        at ``t_prev`` does not yet.  The second sample is past ``t_prev``.

        A row a run stands for has the same engine state and the same
        settled comparisons as the computed row, so the conservation
        assertion in ``_sample`` (and ``occupancy_rate``'s availability
        check) holds at it exactly when it holds at the computed row.

        Every second is whole and every event time below 2**53, so ``t - s``
        is exact, and ``s + count`` equals ``count`` additions of 1.0.
        """
        if s >= t:
            return s
        self.runs.append((s, 1, self._sample(s)))
        s += 1.0
        if s < t:
            count = math.ceil(t - s)
            self.runs.append((s, count, self._sample(s)))
            s += count
        return s

    def _push_contact_edges(self) -> None:
        """Push one event per distinct contact start after 0 and one per
        distinct contact end, each carrying its contacts in plan order.

        One event per contact would pop in the same order: only contact
        edges have ranks 0 and 1, so the events of one instant and rank
        would pop back to back, in the plan order they were pushed in, and
        their handlers push nothing that pops between them.  Pushing fewer
        events keeps the order of the rest.
        """
        starts: dict[float, list[Contact]] = {}
        ends: dict[float, list[Contact]] = {}
        for c in self.plan.contacts:
            if c.t_start > 0:
                starts.setdefault(c.t_start, []).append(c)
            ends.setdefault(c.t_end, []).append(c)
        for t, group in starts.items():
            self._push(t, _R_CONTACT_START, group)
        for t, group in ends.items():
            self._push(t, _R_CONTACT_END, group)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationMetrics:
        self._push_contact_edges()
        for b in self.bundles:
            self._push(b.t_gen, _R_SELECT, [b])
            self._push(b.t_exp, _R_EXPIRE, b.id)

        # second s is sampled once every event at or before s is handled;
        # the last sample is the first whole second not before the last event;
        # between two events only the first two rows are computed (_emit_rows
        # says why the second stands for the rest)
        next_sample = 0.0
        while self.heap:
            t, rank, _, payload = heapq.heappop(self.heap)
            next_sample = self._emit_rows(next_sample, t)
            if rank == _R_SELECT:
                # each selection event carries a list of bundles and copies;
                # the batch is the first one's, extended in place
                batch = payload
                while self.heap and self.heap[0][0] == t and self.heap[0][1] == _R_SELECT:
                    batch += heapq.heappop(self.heap)[3]
                self._process_selection_batch(batch, t)
                continue
            # one bump for a group of contact edges: no attempt runs between
            # its contacts, so no attempt could see the bumps between them
            self.version += 1
            if rank == _R_CONTACT_START:
                for c in payload:
                    self._try_start(c, t)
                    self._reattempt_stored(c.from_node, t)
            elif rank == _R_CONTACT_END:
                for c in payload:
                    self._handle_contact_end(c, t)
            elif rank == _R_TX_COMPLETE:
                c, copy = payload
                self._push(t + c.owlt, _R_ARRIVAL, (copy, c))
                self._try_start(c, t)
                self._reattempt_stored(c.from_node, t)
            elif rank == _R_ARRIVAL:
                self._handle_arrival(*payload, t)
            else:
                self._handle_expire(payload, t)
        self.runs.append((next_sample, 1, self._sample(next_sample)))

        return SimulationMetrics(
            policy=self.policy,
            seed=self.seed,
            k=self.k,
            runs=self.runs,
            records=self.records,
            dispatch_log=self.dispatch_log,
            computing_total=self.computing,
            contact_usage={c.id: c.volume - self.residual[c.id] for c in self.plan.contacts},
        )

    def _process_selection_batch(self, batch: list[Bundle | _Copy], now: float) -> None:
        """Route a same-instant batch of generated bundles and copies to select."""
        ready: list[tuple[tuple, _Copy]] = []
        for order, payload in enumerate(batch, 1):
            if isinstance(payload, Bundle):
                copy = self._new_copy(payload, (payload.source,))
                if payload.critical:
                    self.nodes[payload.source].seen_critical[payload.id] = {payload.source}
            else:
                copy = payload
            b = copy.bundle
            if self.policy == POLICY_RMDG:
                key = (-b.priority, b.t_exp, b.id, order)
            else:
                key = (order,)
            ready.append((key, copy))
        for _, copy in sorted(ready, key=lambda item: item[0]):
            self._attempt_forward(copy, now)


def run_simulation(
    plan: ContactPlan,
    bundles: list[Bundle],
    policy: str,
    seed: int = 0,
    k: int = 4,
    owlt_mode: str = "uniform",
) -> SimulationMetrics:
    """Execute one deterministic simulation run and return its metrics.

    ``seed`` only labels the returned metrics: the engine draws no random
    numbers, so equal inputs give equal runs whatever the seed.

    ``owlt_mode`` selects the propagation delay source: ``uniform`` applies
    ``contactplan.UNIFORM_OWLT`` seconds on every contact (the
    constellation-scale default) through ``plan.uniform()``, which is built
    once per plan; ``file`` keeps each contact's own range value.  The plan
    is only read, so runs may share it.
    """
    return _Engine(plan, bundles, policy, seed, k, owlt_mode).run()


"""Per-node dynamic route computation for bundles.

Candidate routes pass gates before a bundle is queued: basic checks (first
hop alive, no revisit of a node the copy traversed, delivery before expiry), the
earliest transmission opportunity after the first hop's backlog (queued
equal-or-higher-priority traffic and the transmission in progress), the
projected last-byte arrival time and, for a non-critical bundle whose arrival
meets expiry, the effective volume limit after higher-priority bookings.  A
gate refusal is returned as a value (False or None), never raised.
Critical bundles are replicated by policy; overbooked contacts displace
lower-priority bookings; a bundle with no usable candidate rolls back upstream.

All operations are pure: bookings, residual volumes and a copy's hop trace
come in as explicit arguments, and only the simulation engine changes them.
Nothing writes the contact plan or a ``Bundle``, which all its copies share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from cgrlab.contactplan import Contact, ContactPlan
from cgrlab.routesearch import Route

POLICY_STANDARD = "standard"
POLICY_RMDG = "rmdg"

# the latest second a run may reach (about 11.6 days): a run samples every
# second up to its last expiry or its plan's horizon plus the longest light time
MAX_RUN_S = 10**6


@dataclass(frozen=True)
class Bundle:
    """A unit of application data with priority, criticality and lifetime.

    Its size and expiry are finite, and it expires by ``MAX_RUN_S``.
    """

    id: int
    source: str
    dest: str
    size: float
    priority: int
    critical: bool
    t_gen: float
    t_exp: float

    def __post_init__(self) -> None:
        if self.priority not in (0, 1, 2):
            raise ValueError(f"bundle {self.id}: priority must be 0, 1 or 2")
        if self.critical and self.priority != 2:
            raise ValueError(f"bundle {self.id}: critical bundles carry priority 2")
        if self.source == self.dest:
            raise ValueError(f"bundle {self.id}: source and destination must differ")
        if not (math.isfinite(self.size) and math.isfinite(self.t_exp)):
            raise ValueError(f"bundle {self.id}: size and expiry must be finite")
        if self.t_exp > MAX_RUN_S:
            raise ValueError(f"bundle {self.id}: expires past the run cap of {MAX_RUN_S} s")
        if self.t_exp <= self.t_gen:
            raise ValueError(f"bundle {self.id}: t_exp must exceed t_gen")
        if self.size <= 0:
            raise ValueError(f"bundle {self.id}: size must be positive")

    def check_plan(self, plan: ContactPlan) -> None:
        """Raise ValueError unless both end nodes are in ``plan`` and the
        bundle is generated inside its horizon."""
        for node in (self.source, self.dest):
            if node not in plan.node_ids:
                raise ValueError(f"bundle {self.id} references unknown node {node!r}")
        if not 0 <= self.t_gen <= plan.horizon:
            raise ValueError(f"bundle {self.id} generated outside the plan horizon")


class CandidateRoute(NamedTuple):
    """A route past basic checks and PAT, with its first-hop contact ``first``;
    kept when inadmissible too."""

    route: Route
    first: Contact
    admissible: bool


@dataclass(frozen=True)
class Booking:
    """A volume reservation on one contact for one queued bundle copy.

    ``copy_id`` identifies the queued copy: a critical bundle may have
    several copies in flight, each with its own reservation.
    """

    copy_id: int
    mb: float
    priority: int
    seq: int = 0  # booking order, used for latest-booked eviction


def booked_mb(queue: list[Booking], priority: int) -> float:
    """Megabits booked in ``queue`` at or above ``priority``, summed in queue order."""
    return sum(b.mb for b in queue if b.priority >= priority)


def basic_checks(
    first: Contact, route: Route, bundle: Bundle, hop_trace: tuple[str, ...], now: float
) -> bool:
    """First screening of a route with first hop ``first`` for a copy of ``bundle``.

    True when the bundle is still alive, the first hop has at least a second
    of window left, its next-hop node is not on the hop trace, and the first
    byte can reach the destination before expiry.
    """
    return (
        now <= bundle.t_exp
        and first.t_end - 1 >= now
        and first.to_node not in hop_trace
        and route.bdt <= bundle.t_exp
    )


def compute_eto(first: Contact, ahead_mb: float, busy_until: float, now: float) -> float:
    """Earliest transmission opportunity on a route's first hop ``first``.

    The contact's whole backlog drains first under the priority transmission
    discipline: ``ahead_mb``, the equal-or-higher-priority traffic queued for
    it (megabits), and the transmission in progress, which ends at
    ``busy_until`` (anything not past the window opening when it is idle).
    """
    start = now if now > first.t_start else first.t_start
    if busy_until > start:
        ahead_mb += (busy_until - start) * first.rate
    return start + ahead_mb / first.rate


def compute_pat(plan: ContactPlan, route: Route, eto: float, size: float) -> float | None:
    """Projected last-byte arrival at the destination.

    Store-and-forward recurrence: each hop departs at max(previous arrival,
    window start) and delivers size/rate plus the light time later.  Returns
    None when the first hop cannot carry the bundle before its window closes,
    and infinity when a later hop cannot.  Each hop's fields come from
    its ``plan.timing`` row, whose ``t_end`` is the contact's own (``t_end -
    1`` plus one can round on a fractional window).
    """
    arrival = eto
    timing = plan.timing
    for idx, cid in enumerate(route.hops):
        t_start, _, owlt, rate, _, t_end = timing[cid]
        dep = arrival if arrival > t_start else t_start
        tx = size / rate
        if dep + tx > t_end:
            return None if idx == 0 else math.inf
        arrival = dep + tx + owlt
    return arrival


def compute_evl(
    residual: dict[int, float],
    route: Route,
    bookings: dict[int, list[Booking]],
    priority: int,
) -> float:
    """Effective volume limit: route capacity left after competing bookings.

    Per hop, the residual volume minus bookings of equal or higher priority
    (lower-priority bookings would be displaced, so they do not constrain),
    clamped at zero; the route limit is the minimum over hops.
    """
    evl = math.inf
    for cid in route.hops:
        booked = booked_mb(bookings.get(cid, ()), priority)
        evl = min(evl, max(0.0, residual[cid] - booked))
    return evl


def forward_critical(
    bundle: Bundle,
    candidates: list[CandidateRoute],
    holders: set[str],
    policy: str,
) -> list[CandidateRoute]:
    """Dispatch plan for a critical bundle under the given policy.

    standard: one copy through each distinct first-hop neighbour, along that
    neighbour's best admissible candidate (blanket replication).
    rmdg: a single copy along the best admissible candidate whose first-hop
    neighbour is not already known to hold the bundle.

    Callers decide what admissible means for critical traffic; the engine
    admits a critical candidate on PAT alone, with no volume gate, since
    critical reservations displace lower-priority ones instead of yielding.
    """
    if not bundle.critical:
        raise ValueError("forward_critical requires a critical bundle")
    ranked = sorted(
        (c for c in candidates if c.admissible), key=lambda c: c.route.sort_key
    )
    if policy == POLICY_STANDARD:
        chosen: dict[str, CandidateRoute] = {}
        for cand in ranked:
            if cand.first.to_node not in chosen:
                chosen[cand.first.to_node] = cand
        return list(chosen.values())
    if policy == POLICY_RMDG:
        for cand in ranked:
            if cand.first.to_node not in holders:
                return [cand]
        return []
    raise ValueError(f"unknown policy {policy!r}")


def handle_overbooking(
    capacity: float, bookings: list[Booking], incoming: Booking
) -> tuple[bool, list[Booking]]:
    """Resolve an incoming booking against a contact's reservation list.

    ``capacity`` is the contact's residual volume.  When the bookings leave
    room for the incoming one it is accepted outright.  Otherwise strictly
    lower-priority bookings are displaced, lowest priority and latest-booked
    first, until the incoming booking fits; if displacing every outranked
    booking still cannot make room, the incoming booking is rejected and
    nothing is displaced.

    Returns (accepted, displaced bookings).
    """
    booked = sum(b.mb for b in bookings)
    if booked + incoming.mb <= capacity:
        return True, []
    evictable = sorted(
        (b for b in bookings if b.priority < incoming.priority),
        key=lambda b: (b.priority, -b.seq),
    )
    freed = 0.0
    displaced: list[Booking] = []
    for victim in evictable:
        if booked - freed + incoming.mb <= capacity:
            break
        displaced.append(victim)
        freed += victim.mb
    if booked - freed + incoming.mb > capacity:
        return False, []
    return True, displaced


def find_rollback_contact(
    plan: ContactPlan,
    residual: dict[int, float],
    bundle: Bundle,
    hop_trace: tuple[str, ...],
    now: float,
    bookings: dict[int, list[Booking]],
) -> Contact | None:
    """Reverse contact for returning a stuck copy to its upstream custodian.

    The copy is at the last node of ``hop_trace`` and its upstream node is the
    one before, which the contact returned leads to.  A usable reverse
    contact must fit the whole bundle within its remaining window and residual
    volume (rollback consumes real capacity).  Returns None when there is no
    upstream node or no usable contact, in which case the copy stays stored
    until expiry.
    """
    at_node = hop_trace[-1]
    upstream = hop_trace[-2] if len(hop_trace) > 1 else at_node
    if upstream == at_node:
        return None
    for c in plan.contacts_from(at_node):
        if c.to_node != upstream:
            continue
        dep = now if now > c.t_start else c.t_start
        if dep + bundle.size / c.rate > c.t_end:
            continue
        booked = booked_mb(bookings.get(c.id, ()), bundle.priority)
        if residual[c.id] - booked < bundle.size:
            continue
        return c
    return None

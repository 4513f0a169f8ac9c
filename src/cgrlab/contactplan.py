"""Contact plans: scheduled, directed transmission opportunities between nodes.

A contact plan is the full schedule of one-way transmission windows over a
topology horizon.  Plans are parsed from an ION-style text format (one
directive per line) or built programmatically.  Nothing writes a plan after
construction, so runs and route searches can share one: the volume a run has
left on each contact is the run's own table (see ``ContactPlan.volumes``).
The light-time lower bounds of ``ContactPlan.owlt_to``, its timing test
``positive_whole_times``, its sorted ``window_bounds`` and its ``uniform``
variant are filled on first use and kept with the plan.

Text format, one directive per line, ``#`` starts a comment::

    a contact +<t_start> +<t_end> <from> <to> <rate> [<owlt>]
    a range   +<t_start> +<t_end> <from> <to> <owlt>
    a horizon +<seconds>

Times are non-negative integer seconds prefixed with ``+``; rates are in
megabits/second; ranges are in light-seconds.  A range line applies to both
directions of the node pair unless a direction-exact line exists.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

LIGHT_SPEED_KM_S = 299792.458

# light time on every contact of ``ContactPlan.uniform``
UNIFORM_OWLT = 1.0


class ContactPlanError(ValueError):
    """Malformed contact-plan input or inconsistent plan data."""


def owlt_margin(distance: float) -> float:
    """Worst-case growth of the one-way light time over a given range.

    The margin pads range estimates against relative platform motion: two
    nodes closing or receding at up to 40 mi/s each can change their
    separation by 80 mi/s, so a transfer planned against a stale range
    needs this allowance per direction.

    Args:
        distance: range between the nodes in light-seconds.
    """
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    return 40.0 * distance / 18600.0


def total_transit_time(distance: float) -> float:
    """Pessimistic transit time: nominal light time plus twice the margin."""
    return distance + 2.0 * owlt_margin(distance)


@dataclass
class Contact:
    """One directed transmission opportunity between two nodes.

    Times are integer seconds; ``rate`` is megabits/second; ``owlt`` is the
    one-way light time (range) in light-seconds.  A contact is never
    written after construction; the volume a run commits to it is counted in
    the run's own residual table.
    """

    id: int
    from_node: str
    to_node: str
    t_start: float
    t_end: float
    rate: float
    owlt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end", "rate", "owlt"):
            if not math.isfinite(getattr(self, name)):
                raise ContactPlanError(
                    f"contact {self.id}: {name} must be finite, got {getattr(self, name)}"
                )
        if self.t_start > self.t_end:
            raise ContactPlanError(
                f"contact {self.id}: t_start {self.t_start} > t_end {self.t_end}"
            )
        if self.rate <= 0:
            raise ContactPlanError(f"contact {self.id}: rate must be positive")
        if self.owlt < 0:
            raise ContactPlanError(f"contact {self.id}: owlt must be non-negative")

    @property
    def volume(self) -> float:
        """Total capacity in megabits: window length times rate."""
        return (self.t_end - self.t_start) * self.rate


Edge = tuple[int, float, float, float, int]
# (t_start, t_end - 1, owlt, rate, to_index, t_end) of one contact
Timing = tuple[float, float, float, float, int, float]


@dataclass
class ContactPlan:
    """An immutable schedule of contacts over a topology horizon.

    ``node_index`` numbers the nodes in sorted string order, so comparing
    two indices orders them as their names; ``adjacency[i]`` lists
    ``contacts_from`` of node ``i`` as ``(id, t_start, t_end - 1, owlt,
    to_index)`` tuples, the fields route search reads per edge.
    ``timing`` maps each contact id to ``(t_start, t_end - 1, owlt, rate,
    to_index, t_end)``, the fields route timing reads per hop.
    ``owlt_to``, the timing test ``positive_whole_times``, ``window_bounds``
    and ``uniform`` are filled on first use and kept.
    """

    contacts: tuple[Contact, ...]
    horizon: float
    node_ids: frozenset[str]
    _by_id: dict[int, Contact] = field(init=False, repr=False)
    _by_from: dict[str, tuple[Contact, ...]] = field(init=False, repr=False)
    node_index: dict[str, int] = field(init=False, repr=False)
    adjacency: tuple[tuple[Edge, ...], ...] = field(init=False, repr=False)
    timing: dict[int, Timing] = field(init=False, repr=False, compare=False)
    _owlt_to: dict[int, list[float]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # reverse adjacency of owlt_to, (owlt, from_index) per node index
    _into: list[list[tuple[float, int]]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _positive_whole: bool | None = field(init=False, repr=False, compare=False, default=None)
    _bounds: tuple[list[float], list[float]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _uniform: ContactPlan | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        by_id: dict[int, Contact] = {}
        for c in self.contacts:
            if c.id in by_id:
                raise ContactPlanError(f"duplicate contact id {c.id}")
            if c.t_end > self.horizon:
                raise ContactPlanError(
                    f"contact {c.id} ends at {c.t_end}, beyond horizon {self.horizon}"
                )
            for node in (c.from_node, c.to_node):
                if node not in self.node_ids:
                    raise ContactPlanError(f"contact {c.id}: node {node!r} not in the plan")
            by_id[c.id] = c
        self._by_id = by_id
        by_from: dict[str, list[Contact]] = {}
        for c in sorted(self.contacts, key=lambda c: c.id):
            by_from.setdefault(c.from_node, []).append(c)
        self._by_from = {n: tuple(cs) for n, cs in by_from.items()}
        index = {n: i for i, n in enumerate(sorted(self.node_ids))}
        self.node_index = index
        self.adjacency = tuple(
            tuple(
                (c.id, c.t_start, c.t_end - 1, c.owlt, index[c.to_node])
                for c in self._by_from.get(n, ())
            )
            for n in index
        )
        self.timing = {
            c.id: (c.t_start, c.t_end - 1, c.owlt, c.rate, index[c.to_node], c.t_end)
            for c in self.contacts
        }

    def owlt_to(self, dest: int) -> list[float]:
        """Least sum of light times from each node index to node index ``dest``.

        One reverse Dijkstra over ``adjacency`` that ignores the windows, so
        no route from a node can reach ``dest`` sooner after leaving it;
        ``inf`` where no contact path leads there.  Filled on first use, one
        list per destination, and kept with the plan, as is the reverse
        adjacency all destinations share.
        """
        h = self._owlt_to.get(dest)
        if h is not None:
            return h
        into = self._into
        if into is None:
            into = self._into = [[] for _ in self.adjacency]
            for node, edges in enumerate(self.adjacency):
                for _, _, _, owlt, to in edges:
                    into[to].append((owlt, node))
        h = [math.inf] * len(into)
        h[dest] = 0.0
        heap = [(0.0, dest)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > h[node]:
                continue
            for owlt, frm in into[node]:
                reach = dist + owlt
                if reach < h[frm]:
                    h[frm] = reach
                    heapq.heappush(heap, (reach, frm))
        self._owlt_to[dest] = h
        return h

    def positive_whole_times(self) -> bool:
        """Whether every light time is a positive whole number, every window
        start is whole, and the horizon plus twice the light times' sum is
        below 2**52.

        Then a search from a whole-second departure in ``[0, 2**52)`` labels
        only whole numbers, each the departure or a window start plus the
        light times of a path that repeats no contact, and each label plus an
        ``owlt_to`` bound is a whole number below 2**53, so it is exact.
        Computed on first use and kept with the plan.
        """
        whole = self._positive_whole
        if whole is None:
            whole = self._positive_whole = all(
                c.owlt > 0 and float(c.owlt).is_integer() and float(c.t_start).is_integer()
                for c in self.contacts
            ) and max(self.horizon, 0) + 2 * sum(c.owlt for c in self.contacts) < 2.0**52
        return whole

    def window_bounds(self) -> tuple[list[float], list[float]]:
        """Every contact's ``t_start``, then every ``t_end``, each list sorted."""
        if self._bounds is None:
            self._bounds = (sorted(c.t_start for c in self.contacts),
                            sorted(c.t_end for c in self.contacts))
        return self._bounds

    def uniform(self) -> ContactPlan:
        """This plan with every light time set to ``UNIFORM_OWLT``.

        Built on first use and kept with the plan, so every run on one plan
        shares the derived plan and the tables it fills in turn.
        """
        if self._uniform is None:
            # the constructor, not dataclasses.replace, which costs more
            self._uniform = ContactPlan(
                tuple(Contact(c.id, c.from_node, c.to_node, c.t_start, c.t_end, c.rate,
                              UNIFORM_OWLT) for c in self.contacts),
                self.horizon, self.node_ids)
        return self._uniform

    def volumes(self) -> dict[int, float]:
        """A fresh table of every contact's full volume by id, for a caller to lower."""
        return {c.id: c.volume for c in self.contacts}

    @classmethod
    def build(
        cls, contacts: list[Contact] | tuple[Contact, ...], horizon: float | None = None
    ) -> "ContactPlan":
        """Assemble a plan, deriving horizon and node set from the contacts."""
        contacts = tuple(contacts)
        if horizon is None:
            horizon = max((c.t_end for c in contacts), default=0)
        nodes = frozenset(n for c in contacts for n in (c.from_node, c.to_node))
        return cls(contacts=contacts, horizon=horizon, node_ids=nodes)

    def contact(self, cid: int) -> Contact:
        return self._by_id[cid]

    def contacts_from(self, node: str) -> tuple[Contact, ...]:
        """All contacts transmitting from ``node``, ordered by id."""
        return self._by_from.get(node, ())


def with_transit_margin(plan: ContactPlan) -> ContactPlan:
    """A fresh plan whose light times carry the pessimistic range margin.

    Each contact's ``owlt`` becomes ``total_transit_time(owlt)``; routes
    searched over the result are planned against the padded transit time.
    """
    contacts = tuple(replace(c, owlt=total_transit_time(c.owlt)) for c in plan.contacts)
    return ContactPlan(contacts=contacts, horizon=plan.horizon, node_ids=plan.node_ids)


def occupancy_rate(plan: ContactPlan, t: float, active: set[int]) -> float:
    """Fraction of currently available contacts with a transfer in progress.

    Returns 0 when no contact is available at ``t``.  The available contacts
    are counted as those starting at or before ``t`` less those ending before
    it, which all start before it too; only ``active``'s windows are read.
    """
    by_id = plan._by_id
    off = {i for i in active if i not in by_id or not by_id[i].t_start <= t <= by_id[i].t_end}
    if off:
        raise ValueError(f"active contacts {off} not available at t={t}")
    starts, ends = plan.window_bounds()
    avail = bisect_right(starts, t) - bisect_left(ends, t)
    return len(active) / avail if avail else 0.0


def _parse_time(token: str, lineno: int) -> int:
    if not token.startswith("+"):
        raise ContactPlanError(f"line {lineno}: time {token!r} must be '+'-prefixed")
    try:
        value = int(token[1:])
    except ValueError:
        raise ContactPlanError(f"line {lineno}: bad time {token!r}") from None
    if value < 0:
        raise ContactPlanError(f"line {lineno}: negative time {token!r}")
    return value


def _parse_number(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ContactPlanError(f"line {lineno}: bad {what} field {token!r}") from None
    if not math.isfinite(value):
        raise ContactPlanError(f"line {lineno}: {what} must be finite, got {token!r}")
    return value


def parse_contact_plan(text: str) -> ContactPlan:
    """Parse the line-oriented contact plan format into a ContactPlan.

    Contact ids are assigned sequentially in file order.  Each contact picks
    up its one-way light time from an explicit trailing field or from the
    first matching range line (direction-exact match preferred, otherwise the
    reversed pair).
    """
    raw_contacts: list[tuple[int, int, int, str, str, float, float | None]] = []
    # range lines per (from, to) pair, in file order
    ranges: dict[tuple[str, str], list[tuple[int, int, float]]] = {}
    horizon_override: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "a":
            raise ContactPlanError(f"line {lineno}: unknown directive {tokens[0]!r}")
        if len(tokens) < 2:
            raise ContactPlanError(f"line {lineno}: truncated directive")
        kind = tokens[1]
        if kind == "horizon":
            if len(tokens) != 3:
                raise ContactPlanError(f"line {lineno}: horizon takes one time field")
            horizon_override = _parse_time(tokens[2], lineno)
            continue
        if kind not in ("contact", "range"):
            raise ContactPlanError(f"line {lineno}: unknown directive {kind!r}")
        if kind == "contact" and len(tokens) not in (7, 8):
            raise ContactPlanError(f"line {lineno}: contact needs 5 or 6 fields")
        if kind == "range" and len(tokens) != 7:
            raise ContactPlanError(f"line {lineno}: range needs 5 fields")
        t_start = _parse_time(tokens[2], lineno)
        t_end = _parse_time(tokens[3], lineno)
        if t_start > t_end:
            raise ContactPlanError(f"line {lineno}: t_start {t_start} > t_end {t_end}")
        from_node, to_node = tokens[4], tokens[5]
        if kind == "range":
            value = _parse_number(tokens[6], lineno, "owlt")
            if value < 0:
                raise ContactPlanError(f"line {lineno}: negative owlt")
            ranges.setdefault((from_node, to_node), []).append((t_start, t_end, value))
        else:
            rate = _parse_number(tokens[6], lineno, "rate")
            owlt = _parse_number(tokens[7], lineno, "owlt") if len(tokens) == 8 else None
            raw_contacts.append((lineno, t_start, t_end, from_node, to_node, rate, owlt))

    def lookup_owlt(t_start: int, t_end: int, frm: str, to: str) -> float:
        for pair in ((frm, to), (to, frm)):
            for rs, re, owlt in ranges.get(pair, ()):
                if rs <= t_end and re >= t_start:
                    return owlt
        return 0.0

    contacts = []
    for idx, (lineno, t_start, t_end, frm, to, rate, owlt) in enumerate(raw_contacts, 1):
        if horizon_override is not None and t_end > horizon_override:
            raise ContactPlanError(
                f"line {lineno}: contact {idx} ends at {t_end}, beyond horizon {horizon_override}"
            )
        if owlt is None:
            owlt = lookup_owlt(t_start, t_end, frm, to)
        try:
            contacts.append(Contact(id=idx, from_node=frm, to_node=to, t_start=t_start,
                                    t_end=t_end, rate=rate, owlt=owlt))
        except ContactPlanError as exc:
            raise ContactPlanError(f"line {lineno}: {exc}") from None
    return ContactPlan.build(contacts, horizon=horizon_override)


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def serialize_contact_plan(plan: ContactPlan) -> str:
    """Emit a plan in the text format; reparsing restores identical fields."""
    lines = [f"a horizon +{_fmt(plan.horizon)}"]
    for c in plan.contacts:
        lines.append(
            f"a contact +{_fmt(c.t_start)} +{_fmt(c.t_end)} "
            f"{c.from_node} {c.to_node} {_fmt(c.rate)}"
        )
        lines.append(
            f"a range +{_fmt(c.t_start)} +{_fmt(c.t_end)} "
            f"{c.from_node} {c.to_node} {_fmt(c.owlt)}"
        )
    return "\n".join(lines) + "\n"


# Six-node demonstration network: three permanent links (A-B, C-D, E-F) and a
# set of episodic links, every link represented as a pair of one-way contacts
# with rate 1 Mb/s and a 1 light-second range.
_DEMO_LINKS = (
    ("A", "B", 0, 60),
    ("A", "C", 0, 10),
    ("A", "C", 20, 30),
    ("B", "D", 0, 12),
    ("B", "D", 1, 10),
    ("C", "D", 0, 60),
    ("C", "E", 30, 40),
    ("D", "F", 35, 45),
    ("D", "F", 50, 59),
    ("E", "F", 0, 60),
)


def make_demo_plan() -> ContactPlan:
    """Reference six-node plan used by the route-search examples and tests."""
    pairs = [(frm, to, ts, te) for a, b, ts, te in _DEMO_LINKS for frm, to in ((a, b), (b, a))]
    contacts = [
        Contact(id=cid, from_node=frm, to_node=to, t_start=ts, t_end=te, rate=1.0, owlt=1.0)
        for cid, (frm, to, ts, te) in enumerate(pairs, 1)
    ]
    return ContactPlan.build(contacts, horizon=60)

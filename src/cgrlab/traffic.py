"""Seeded generation of the three bundle traffic classes.

Streaming traffic models periodic telemetry: one 1 Mb critical bundle every
5 seconds at priority 2.  Expedited traffic models urgent sensor data: up to
three 1-5 Mb bundles per 10-second window at priority 1.  Data traffic models
bulk imagery: bursts of twenty 1-5 Mb bundles spread over 25 seconds at
priority 0.  Composite scenarios rescale the classes so that priorities 2 and
1 together contribute 25% of the bundles and priority 0 the remaining 75%.

Only the priority-2 and priority-1 classes are generated within
``ScenarioSpec.duration``.  Priority-0 burst ``b`` covers seconds
``[25 b, 25 b + 25)`` whatever the duration, and there are as many bursts as
the 75% share needs, so bulk bundles can be generated after the duration
ends: with a 25 s duration, seed 1 generates them until t=32 s.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

from cgrlab.contactplan import ContactPlan, _fmt
from cgrlab.forwarding import Bundle

TTL_RANGE = (20, 30)  # bundle lifetimes, whole seconds


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one seeded traffic scenario.

    ``duration`` is the generation window of the priority-2 and priority-1
    classes; priority-0 bursts follow the class sizes instead (see the module
    docstring).
    """

    seed: int
    duration: int
    source: str
    dest_pool: tuple[str, ...]
    with_critical: bool = True

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.source in self.dest_pool:
            raise ValueError("dest_pool must exclude the source")


def _rng(spec: ScenarioSpec, stream: str) -> random.Random:
    return random.Random(f"{spec.seed}:{stream}")


def _finish(spec: ScenarioSpec, raw: list[tuple[float, float, int, bool]]) -> list[Bundle]:
    """Assign ids, destinations and expiry times to raw (t_gen, size, prio, crit) rows."""
    rng = _rng(spec, "assign")
    pool = sorted(spec.dest_pool)
    bundles = []
    for bid, (t_gen, size, priority, critical) in enumerate(
        sorted(raw, key=lambda r: (r[0], -r[2])), start=1
    ):
        dest = pool[rng.randrange(len(pool))]
        ttl = rng.randint(*TTL_RANGE)
        bundles.append(
            Bundle(
                id=bid,
                source=spec.source,
                dest=dest,
                size=size,
                priority=priority,
                critical=critical,
                t_gen=t_gen,
                t_exp=t_gen + ttl,
            )
        )
    return bundles


def _streaming_raw(spec: ScenarioSpec) -> list[tuple[float, float, int, bool]]:
    return [(float(t), 1.0, 2, True) for t in range(0, spec.duration, 5)]


def _expedited_raw(spec: ScenarioSpec) -> list[tuple[float, float, int, bool]]:
    rng = _rng(spec, "expedited")
    raw = []
    for window in range(0, spec.duration, 10):
        end = min(window + 10, spec.duration)
        for _ in range(rng.randint(0, 3)):
            t = rng.randrange(window, end)
            raw.append((float(t), float(rng.randint(1, 5)), 1, False))
    return raw


def _data_raw(spec: ScenarioSpec, bursts: int) -> list[tuple[float, float, int, bool]]:
    rng = _rng(spec, "data")
    raw = []
    for burst in range(bursts):
        start = burst * 25
        for _ in range(20):
            t = start + rng.randrange(0, 25)
            raw.append((float(t), float(rng.randint(1, 5)), 0, False))
    return raw


def generate_scenario(spec: ScenarioSpec) -> list[Bundle]:
    """Composite scenario with the 25/75 priority split.

    Streaming is omitted when ``with_critical`` is false.  The number of
    priority-0 bundles is scaled to three times the higher-priority pool,
    trimming data bursts in generation order.
    """
    if not spec.dest_pool:
        raise ValueError("dest_pool must not be empty")
    pool = list(_expedited_raw(spec))
    if spec.with_critical:
        pool += _streaming_raw(spec)
    if not pool:
        pool = [(0.0, 1.0, 1, False)]  # degenerate seed draw: keep one bundle
    n_data = 3 * len(pool)
    bursts = (n_data + 19) // 20
    data = sorted(_data_raw(spec, bursts=bursts), key=lambda r: r[0])[:n_data]
    return _finish(spec, pool + data)


def _node_id(raw: str) -> str:
    if not raw:
        raise ValueError("empty node id")
    return raw


def _finite(raw: str) -> float:
    if not math.isfinite(float(raw)):
        raise ValueError(f"not finite: {raw!r}")
    return float(raw)


def _flag(raw: str) -> bool:
    if int(raw) not in (0, 1):
        raise ValueError(f"not 0 or 1: {raw!r}")
    return int(raw) == 1


# task CSV columns, in file order, with the parser of each field; the order
# is that of Bundle's fields, which read_tasks fills positionally
_TASK_COLUMNS = (
    ("bundle_id", int),
    ("source", _node_id),
    ("dest", _node_id),
    ("size_mb", _finite),
    ("priority", int),
    ("critical", _flag),
    ("t_gen", _finite),
    ("t_exp", _finite),
)


def write_tasks(bundles: list[Bundle]) -> str:
    """Serialize bundles to the task CSV format."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(name for name, _ in _TASK_COLUMNS)
    for b in bundles:
        writer.writerow(
            [b.id, b.source, b.dest, _fmt(b.size), b.priority, int(b.critical), _fmt(b.t_gen), _fmt(b.t_exp)]
        )
    return out.getvalue()


def parse_fields(row: dict, columns, where: str) -> dict:
    """Parse a CSV row's ``(name, parser)`` columns by name.

    Raises ValueError naming ``where`` and the field when the row lacks a
    field or a field does not parse.
    """
    values = {}
    for name, parse in columns:
        raw = row.get(name)
        try:
            values[name] = parse(raw)
        except (TypeError, ValueError):
            problem = "missing" if raw in (None, "") else f"unparsable ({raw!r})"
            raise ValueError(f"{where}: field {name!r} {problem}") from None
    return values


def read_tasks(text: str, plan: ContactPlan | None = None) -> list[Bundle]:
    """Parse the task CSV format back into bundles.

    Raises ValueError naming the line and the field when a row lacks a
    field or a field does not parse, and naming the line when the fields
    do not make a valid ``Bundle``, repeat an earlier row's bundle id or,
    given a ``plan``, fail ``Bundle.check_plan`` against it.
    """
    reader = csv.DictReader(io.StringIO(text))
    bundles = []
    ids = set()
    for row in reader:
        where = f"tasks line {reader.line_num}"
        values = parse_fields(row, _TASK_COLUMNS, where)
        try:
            bundle = Bundle(*values.values())
            if plan is not None:
                bundle.check_plan(plan)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if bundle.id in ids:
            raise ValueError(f"{where}: duplicate bundle id {bundle.id}")
        ids.add(bundle.id)
        bundles.append(bundle)
    return bundles

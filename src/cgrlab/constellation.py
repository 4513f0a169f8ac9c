"""Walker-delta constellation propagation and contact-plan generation.

Satellites fly circular orbits; orbital planes spread their ascending nodes
evenly over 360 degrees and in-plane slots are evenly phased, with the
standard Walker inter-plane phase offset.  Intra-plane neighbours hold
permanent links; inter-plane links pair same-slot satellites in adjacent
planes and stay up while the pair is within the configured range.

``_positions`` is the one place the orbital arithmetic lives: ``propagate``
is its view of every plane at one instant, which ``positions_csv_chunks``
writes one sample at a time, and ``generate_contact_plan`` takes one plane
over every sample at a time.  Generation thus runs one adjacent plane pair
at a time, in O(T x S) memory for T samples and S satellites per plane, and
finds each pair's windows with array diffs over the (T, S) ranges of its
same-slot satellites.  The arithmetic is element-wise and the same as
``propagate``'s, so a plan is bit-identical to one built from per-sample
positions (``tests/plan_oracle.py``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from cgrlab.contactplan import LIGHT_SPEED_KM_S, Contact, ContactPlan, _fmt

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418


@dataclass(frozen=True)
class WalkerParams:
    """Walker-delta constellation geometry."""

    sats_per_plane: int
    planes: int
    phase_factor: int
    altitude_km: float
    inclination_deg: float

    def __post_init__(self) -> None:
        for name in ("altitude_km", "inclination_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sats_per_plane <= 0 or self.planes <= 0 or self.altitude_km <= 0:
            raise ValueError("constellation dimensions must be positive")
        if not 0 <= self.phase_factor < self.planes:
            raise ValueError("phase_factor must lie in [0, planes)")

    @property
    def total_sats(self) -> int:
        return self.sats_per_plane * self.planes

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km


@dataclass(frozen=True)
class IslConstraints:
    """Limits on inter-satellite link formation."""

    max_interorbit_km: float
    terminals_per_sat: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.max_interorbit_km):
            raise ValueError(f"max_interorbit_km must be finite, got {self.max_interorbit_km}")
        if self.max_interorbit_km < 0:
            raise ValueError("max_interorbit_km must be non-negative")
        if self.terminals_per_sat < 2:
            raise ValueError("at least 2 ISL terminals are required")


def orbit_period(params: WalkerParams) -> float:
    """Orbital period in seconds from the circular-orbit relation."""
    a = params.semi_major_axis_km
    return 2.0 * math.pi * math.sqrt(a**3 / MU_KM3_S2)


def sat_node_id(params: WalkerParams, plane: int, slot: int) -> str:
    """Node label for the satellite in the given plane and slot (1-based)."""
    return str(plane * params.sats_per_plane + slot + 1)


def _positions(params: WalkerParams, times: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Earth-centered inertial positions (km), shape (T, len(planes), S, 3).

    Entry ``[i, j, s]`` is the satellite in plane ``planes[j]`` and slot
    ``s`` at ``times[i]``.  The arithmetic is element-wise, so a position
    is the same whatever times and planes are computed beside it.
    """
    a = params.semi_major_axis_km
    inc = math.radians(params.inclination_deg)
    n = 2.0 * math.pi / orbit_period(params)
    slots = np.arange(params.sats_per_plane)
    raan = 2.0 * math.pi * planes / params.planes
    phase = (
        2.0 * math.pi * slots[None, :] / params.sats_per_plane
        + 2.0 * math.pi * params.phase_factor * planes[:, None] / params.total_sats
        + n * times[:, None, None]
    )
    cos_u, sin_u = np.cos(phase), np.sin(phase)
    cos_o, sin_o = np.cos(raan)[:, None], np.sin(raan)[:, None]
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    x = a * (cos_o * cos_u - sin_o * sin_u * cos_i)
    y = a * (sin_o * cos_u + cos_o * sin_u * cos_i)
    z = a * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


def propagate(params: WalkerParams, t: float) -> np.ndarray:
    """Earth-centered inertial positions (km) of every satellite at time t.

    Row index is plane * sats_per_plane + slot.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    times = np.array([t], dtype=float)
    return _positions(params, times, np.arange(params.planes)).reshape(params.total_sats, 3)


def pairwise_distance(positions: np.ndarray, i: int, j: int) -> float:
    """Euclidean chord distance in km between satellites i and j."""
    return float(np.linalg.norm(positions[i] - positions[j]))


def intraorbit_chord_km(params: WalkerParams) -> float:
    """Distance between adjacent satellites in the same plane."""
    return 2.0 * params.semi_major_axis_km * math.sin(math.pi / params.sats_per_plane)


def _runs(in_range: np.ndarray) -> list[list[tuple[int, int]]]:
    """Per column, the first and last row of each maximal run where it holds."""
    edges = np.diff(in_range, axis=0, prepend=False, append=False)
    cols, rows = np.nonzero(edges.T)  # column-major: each run's start, then its stop
    runs: list[list[tuple[int, int]]] = [[] for _ in range(in_range.shape[1])]
    for col, first, stop in zip(cols[::2].tolist(), rows[::2].tolist(), rows[1::2].tolist()):
        runs[col].append((first, stop - 1))
    return runs


def generate_contact_plan(
    params: WalkerParams,
    constraints: IslConstraints,
    horizon: float,
    step: float = 1.0,
    rate: float = 1.0,
) -> ContactPlan:
    """Contact plan for the constellation over [0, horizon].

    Intra-plane neighbour links span the whole horizon.  Inter-plane links
    pair same-slot satellites in adjacent planes, consuming the terminals
    left after the intra-plane links (one in a two-satellite plane, whose
    ring closes on the same neighbour), and contribute one contact pair
    per maximal sampled interval where the pair stays within range, rounded
    inward to whole seconds; an interval that rounds to nothing is dropped.
    Each pair's light time is its largest sampled range over the interval,
    in light-seconds.
    """
    if step < 1:
        raise ValueError("step must be at least 1 second")
    S, P = params.sats_per_plane, params.planes
    times = np.arange(0.0, horizon + step, step)

    contacts: list[Contact] = []
    next_id = 1

    def add_pair(a: str, b: str, ts: float, te: float, owlt: float) -> None:
        nonlocal next_id
        for frm, to in ((a, b), (b, a)):
            contacts.append(
                Contact(
                    id=next_id,
                    from_node=frm,
                    to_node=to,
                    t_start=ts,
                    t_end=te,
                    rate=rate,
                    owlt=owlt,
                )
            )
            next_id += 1

    intra_owlt = intraorbit_chord_km(params) / LIGHT_SPEED_KM_S
    link_count = {sat_node_id(params, p, s): 0 for p in range(P) for s in range(S)}
    if S > 1:
        for p in range(P):
            for s in range(S if S > 2 else 1):
                a = sat_node_id(params, p, s)
                b = sat_node_id(params, p, (s + 1) % S)
                add_pair(a, b, 0, horizon, intra_owlt)
                link_count[a] += 1
                link_count[b] += 1

    if constraints.max_interorbit_km > 0 and P > 1:
        # A run still open at the last sample ends at the horizon; its light
        # time spans the samples up to the first at or past that end.
        last_end = min(times[-1], horizon)
        last_stop = int(np.searchsorted(times, last_end))

        def plane(p: int) -> np.ndarray:  # (T, S, 3)
            return _positions(params, times, np.array([p]))[:, 0]

        here = plane(0)
        for p in range(P if P > 2 else 1):
            q = (p + 1) % P
            there = plane(q)
            dist = np.linalg.norm(here - there, axis=-1)  # (T, S): slot s to slot s
            here = there
            runs = _runs(dist <= constraints.max_interorbit_km)
            for s in range(S):
                a = sat_node_id(params, p, s)
                b = sat_node_id(params, q, s)
                if max(link_count[a], link_count[b]) >= constraints.terminals_per_sat:
                    continue
                spans = []
                for i0, i1 in runs[s]:
                    if i1 < len(times) - 1:
                        te, stop = times[i1], i1
                    else:
                        te, stop = last_end, last_stop
                    ts, te = math.ceil(times[i0]), math.floor(te)
                    if te > ts:
                        owlt = float(dist[i0 : stop + 1, s].max()) / LIGHT_SPEED_KM_S
                        spans.append((float(ts), float(te), owlt))
                if not spans:
                    continue
                link_count[a] += 1
                link_count[b] += 1
                for ts, te, owlt in spans:
                    add_pair(a, b, ts, te, owlt)

    return ContactPlan(contacts=tuple(contacts), horizon=horizon, node_ids=frozenset(link_count))


def positions_csv_chunks(params: WalkerParams, times: list[float]) -> Iterator[str]:
    """Satellite positions as CSV rows ``t,sat_id,x,y,z``, the header first.

    Each later chunk holds every satellite's rows at one sample, from one
    ``propagate`` call, its time written as plan lines write theirs, so a
    caller that writes the chunks as they come holds one sample's rows.
    """
    yield "t,sat_id,x,y,z\n"
    S, P = params.sats_per_plane, params.planes
    ids = [sat_node_id(params, p, s) for p in range(P) for s in range(S)]
    for t in times:
        stamp = _fmt(t)
        yield "".join([
            f"{stamp},{sat},{x:.3f},{y:.3f},{z:.3f}\n"
            for sat, (x, y, z) in zip(ids, propagate(params, t).tolist())
        ])

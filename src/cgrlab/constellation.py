"""Walker-delta constellation propagation and contact-plan generation.

Satellites fly circular orbits; orbital planes spread their ascending nodes
evenly over 360 degrees and in-plane slots are evenly phased, with the
standard Walker inter-plane phase offset.  Intra-plane neighbours hold
permanent links; inter-plane links pair same-slot satellites in adjacent
planes and stay up while the pair is within the configured range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cgrlab.contactplan import LIGHT_SPEED_KM_S, Contact, ContactPlan

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


def propagate(params: WalkerParams, t: float) -> np.ndarray:
    """Earth-centered inertial positions (km) of every satellite at time t.

    Row index is plane * sats_per_plane + slot.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    a = params.semi_major_axis_km
    inc = math.radians(params.inclination_deg)
    n = 2.0 * math.pi / orbit_period(params)
    planes = np.arange(params.planes)
    slots = np.arange(params.sats_per_plane)
    raan = 2.0 * math.pi * planes / params.planes
    phase = (
        2.0 * math.pi * slots[None, :] / params.sats_per_plane
        + 2.0 * math.pi * params.phase_factor * planes[:, None] / params.total_sats
        + n * t
    )
    cos_u, sin_u = np.cos(phase), np.sin(phase)
    cos_o, sin_o = np.cos(raan)[:, None], np.sin(raan)[:, None]
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    x = a * (cos_o * cos_u - sin_o * sin_u * cos_i)
    y = a * (sin_o * cos_u + cos_o * sin_u * cos_i)
    z = a * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1).reshape(params.total_sats, 3)


def pairwise_distance(positions: np.ndarray, i: int, j: int) -> float:
    """Euclidean chord distance in km between satellites i and j."""
    return float(np.linalg.norm(positions[i] - positions[j]))


def intraorbit_chord_km(params: WalkerParams) -> float:
    """Distance between adjacent satellites in the same plane."""
    return 2.0 * params.semi_major_axis_km * math.sin(math.pi / params.sats_per_plane)


def _windows(mask: np.ndarray, times: np.ndarray, horizon: float) -> list[tuple[float, float]]:
    """Maximal sampled intervals where the mask holds."""
    windows = []
    start = None
    for ok, t in zip(mask, times):
        if ok and start is None:
            start = t
        elif not ok and start is not None:
            windows.append((start, prev_t))
            start = None
        prev_t = t
    if start is not None:
        windows.append((start, min(times[-1], horizon)))
    return windows


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
    left after the two intra-plane links, and contribute one contact pair
    per maximal sampled interval where the pair stays within range, rounded
    inward to whole seconds; an interval that rounds to nothing is dropped.
    Each pair's light time is its largest sampled range over the interval,
    in light-seconds.
    """
    if step < 1:
        raise ValueError("step must be at least 1 second")
    S, P = params.sats_per_plane, params.planes
    times = np.arange(0.0, horizon + step, step)
    positions = np.stack([propagate(params, t) for t in times])  # (T, N, 3)

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
            for s in range(S):
                a = sat_node_id(params, p, s)
                b = sat_node_id(params, p, (s + 1) % S)
                if a == b:
                    continue
                add_pair(a, b, 0, horizon, intra_owlt)
                link_count[a] += 1
                link_count[b] += 1

    if constraints.max_interorbit_km > 0 and P > 1:
        plane_pairs = [(p, (p + 1) % P) for p in range(P if P > 2 else 1)]
        for p, q in plane_pairs:
            for s in range(S):
                a = sat_node_id(params, p, s)
                b = sat_node_id(params, q, s)
                if link_count[a] >= constraints.terminals_per_sat:
                    continue
                if link_count[b] >= constraints.terminals_per_sat:
                    continue
                ia = p * S + s
                ib = q * S + s
                dist = np.linalg.norm(positions[:, ia] - positions[:, ib], axis=1)
                mask = dist <= constraints.max_interorbit_km
                spans = []
                for ts, te in _windows(mask, times, horizon):
                    i0 = int(np.searchsorted(times, ts))
                    i1 = int(np.searchsorted(times, te))
                    owlt = float(dist[i0 : i1 + 1].max()) / LIGHT_SPEED_KM_S
                    ts, te = math.ceil(ts), math.floor(te)
                    if te > ts:
                        spans.append((float(ts), float(te), owlt))
                if not spans:
                    continue
                link_count[a] += 1
                link_count[b] += 1
                for ts, te, owlt in spans:
                    add_pair(a, b, ts, te, owlt)

    plan_nodes = frozenset(link_count)
    plan = ContactPlan(
        contacts=tuple(contacts),
        horizon=horizon,
        node_ids=plan_nodes | frozenset(n for c in contacts for n in (c.from_node, c.to_node)),
    )
    return plan


def positions_csv(params: WalkerParams, times: list[float]) -> str:
    """Satellite positions as CSV rows ``t,sat_id,x,y,z``."""
    lines = ["t,sat_id,x,y,z"]
    for t in times:
        pos = propagate(params, t)
        for p in range(params.planes):
            for s in range(params.sats_per_plane):
                i = p * params.sats_per_plane + s
                x, y, z = pos[i]
                lines.append(
                    f"{t:g},{sat_node_id(params, p, s)},{x:.3f},{y:.3f},{z:.3f}"
                )
    return "\n".join(lines) + "\n"

"""Per-sample contact-plan generation, kept as a test oracle for the generator.

``constellation.generate_contact_plan`` propagates one plane over the whole
time axis at a time and finds each pair's windows with array diffs.
``generate_contact_plan`` here is the plain version it replaced: every
satellite's position at every sample (``propagate``, one call per sample),
each inter-plane pair's range by ``np.linalg.norm`` over that cube, and its
windows by a walk over the samples.  Plans from the two must be equal field
for field, light times to the last bit.  ``positions_csv`` is likewise the
per-sample build that ``constellation.positions_csv_chunks`` must equal
byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from cgrlab.constellation import (
    IslConstraints,
    WalkerParams,
    intraorbit_chord_km,
    orbit_period,
    sat_node_id,
)
from cgrlab.contactplan import LIGHT_SPEED_KM_S, Contact, ContactPlan


def propagate(params: WalkerParams, t: float) -> np.ndarray:
    """Positions (km) of every satellite at time t, row plane * S + slot."""
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
    """The contact plan ``constellation.generate_contact_plan`` must equal."""
    if step < 1:
        raise ValueError("step must be at least 1 second")
    S, P = params.sats_per_plane, params.planes
    times = np.arange(0.0, horizon + step, step)
    positions = np.stack([propagate(params, t) for t in times])  # (T, N, 3)

    contacts: list[Contact] = []

    def add_pair(a: str, b: str, ts: float, te: float, owlt: float) -> None:
        for frm, to in ((a, b), (b, a)):
            contacts.append(Contact(len(contacts) + 1, frm, to, ts, te, rate, owlt))

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
        for p in range(P if P > 2 else 1):
            q = (p + 1) % P
            for s in range(S):
                a = sat_node_id(params, p, s)
                b = sat_node_id(params, q, s)
                if max(link_count[a], link_count[b]) >= constraints.terminals_per_sat:
                    continue
                dist = np.linalg.norm(positions[:, p * S + s] - positions[:, q * S + s], axis=1)
                spans = []
                for ts, te in _windows(dist <= constraints.max_interorbit_km, times, horizon):
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

    return ContactPlan(
        contacts=tuple(contacts),
        horizon=horizon,
        node_ids=frozenset(link_count),
    )


def positions_csv(params: WalkerParams, times: list[float]) -> str:
    """Satellite positions as CSV rows ``t,sat_id,x,y,z``, one sample at a time."""
    lines = ["t,sat_id,x,y,z"]
    for t in times:
        pos = propagate(params, t)
        for p in range(params.planes):
            for s in range(params.sats_per_plane):
                x, y, z = pos[p * params.sats_per_plane + s]
                lines.append(f"{t:g},{sat_node_id(params, p, s)},{x:.3f},{y:.3f},{z:.3f}")
    return "\n".join(lines) + "\n"

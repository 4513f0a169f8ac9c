"""Independent brute-force route enumeration used as a test oracle.

Everything here is written from the route definitions alone, without reusing
the search implementation: loop-free contact sequences are enumerated by
exhaustive DFS, timed by the same forward/backward recurrences restated from
scratch, and ordered by an explicitly restated comparison key.
"""

from __future__ import annotations

import math


def enumerate_routes(plan, source, dest, depart=0.0):
    """All loop-free contact sequences source->dest, sorted by the route order.

    Returns a list of dicts with hops, bdt, vti, volume and hop_cnt.
    """
    found = []

    def walk(node, arrival, visited, hops):
        if node == dest:
            found.append(tuple(hops))
            return
        for c in plan.contacts:
            if c.from_node != node or c.to_node in visited:
                continue
            dep = max(arrival, c.t_start)
            if dep > c.t_end - 1:
                continue
            hops.append(c.id)
            walk(c.to_node, dep + c.owlt, visited | {c.to_node}, hops)
            hops.pop()

    walk(source, depart, {source}, [])
    routes = [timing_of(plan, hops, depart) for hops in found]
    routes.sort(key=lambda r: r["key"])
    return routes


def timing_of(plan, hops, depart=0.0):
    """Delivery time, transmission interval and volume of one contact sequence.

    None when the first byte reaches some hop with less than a whole second
    of its window left.
    """
    contacts = [plan.contact(h) for h in hops]
    arrival = depart
    deps = []
    for c in contacts:
        dep = max(arrival, c.t_start)
        if dep > c.t_end - 1:
            return None
        deps.append(dep)
        arrival = dep + c.owlt
    lasts = [0.0] * len(contacts)
    bound = math.inf
    for i in reversed(range(len(contacts))):
        c = contacts[i]
        lasts[i] = min(c.t_end - 1, bound - c.owlt)
        bound = lasts[i]
    # the full volume: the oracle times routes on plans no run has used
    volume = min(
        min((ld - dep + 1) * c.rate, c.volume)
        for c, dep, ld in zip(contacts, deps, lasts)
    )
    route = {
        "hops": tuple(hops),
        "bdt": arrival,
        "vti": (deps[0], lasts[0]),
        "volume": volume,
        "hop_cnt": len(hops),
    }
    route["key"] = (
        route["bdt"],
        route["hop_cnt"],
        -route["volume"],
        route["vti"][0],
        -route["vti"][1],
        hops[0],
    )
    return route


def pat_of(plan, hops, eto, size):
    """Last-byte arrival of a ``size`` Mb bundle sent along ``hops`` from ``eto``.

    Each hop sends from max(previous arrival, window start) for size / rate
    seconds and the last byte lands a light time later.  None when the first
    hop's window closes before the bundle is sent; infinity when a later
    hop's does.
    """
    arrival = eto
    for i, h in enumerate(hops):
        c = plan.contact(h)
        dep = max(arrival, c.t_start)
        if dep + size / c.rate > c.t_end:
            return None if i == 0 else math.inf
        arrival = dep + size / c.rate + c.owlt
    return arrival


def signature(route_dict):
    return (
        route_dict["hops"],
        route_dict["bdt"],
        route_dict["vti"],
        route_dict["volume"],
    )

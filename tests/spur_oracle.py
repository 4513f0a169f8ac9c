"""Yen's spur loop without Lawler's restriction, kept as a test oracle.

``yen_full_loop`` is ``routesearch.yen_plus`` with a spur search at every
hop index of each accepted route, the loop as Yen (1971) states it.  It
shares ``_search`` and ``evaluate_route`` with the engine, so a differential
test against it checks the restriction alone: the returned routes must be
equal.  ``rounds``, when given, gets the hops of the route each deviation
round deviates from, one entry per round.
"""

from __future__ import annotations

import heapq

from cgrlab.routesearch import _search, dijkstra_bdt, evaluate_route


def yen_full_loop(graph, k, depart=0.0, confirm=True, rounds=None):
    first = dijkstra_bdt(graph, depart)
    if first is None:
        return []
    accepted = [first]
    seen = {first.hops}
    pool = []
    seq = 0
    plan = graph.plan
    index = plan.node_index
    dest = index[graph.dest]
    boundary = None
    while True:
        if confirm:
            if boundary is None and len(accepted) >= k:
                kth_bdt = sorted(r.bdt for r in accepted)[k - 1]
                if accepted[-1].bdt > kth_bdt:
                    boundary = accepted[-1].bdt
        elif len(accepted) >= k:
            break
        base = accepted[-1].hops
        if rounds is not None:
            rounds.append(base)
        for j in range(len(base)):
            # restate the root from scratch at every spur index
            root_hops = base[:j]
            spur_node = index[graph.source]
            start_time = depart
            root_nodes = []
            for cid in root_hops:
                c = plan.contact(cid)
                root_nodes.append(spur_node)
                spur_node = index[c.to_node]
                start_time = max(start_time, c.t_start) + c.owlt
            banned_first = frozenset(
                r.hops[j] for r in accepted if len(r.hops) > j and r.hops[:j] == root_hops
            )
            spur = _search(plan, spur_node, start_time, dest, root_nodes, banned_first)
            if spur is None:
                continue
            total = root_hops + tuple(spur)
            if total in seen:
                continue
            route = evaluate_route(plan, graph.residual, total, depart)
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

"""Earliest-arrival search in Dijkstra's pop order, kept as a test oracle.

``dijkstra_search`` is ``routesearch._search`` with its heap ordered by
``(arrival, node index)`` alone, the order every search took before the
goal-directed one.  A differential test against it checks that ordering by
arrival plus the light-time bound, with its tie rule, returns the same hops.
It takes ``_search``'s arguments, so it can stand in for it.
"""

from __future__ import annotations

import heapq
import math


def dijkstra_search(plan, start, start_time, dest, banned_nodes, banned_first, bound=math.inf):
    h = plan.owlt_to(dest)
    adjacency = plan.adjacency
    best = [math.inf] * len(adjacency)
    parent = [None] * len(adjacency)
    done = [False] * len(adjacency)
    for n in banned_nodes:
        done[n] = True
    best[start] = start_time
    heap = [(start_time, start)]
    while heap:
        arrival, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        if node == dest:
            hops = []
            while node != start:
                cid, node = parent[node]
                hops.append(cid)
            return hops[::-1]
        for cid, t_start, last, owlt, to in adjacency[node]:
            if done[to] or node == start and cid in banned_first:
                continue
            dep = max(arrival, t_start)
            if dep > last:
                continue
            reach = dep + owlt
            # the strict `<` keeps the first sender in pop order on a tie
            if reach < best[to] and reach + h[to] <= bound:
                best[to] = reach
                parent[to] = (cid, node)
                heapq.heappush(heap, (reach, to))
    return None

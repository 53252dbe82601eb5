"""Hopcroft-Karp maximum bipartite matching.

Left vertices are list indices; right vertices are arbitrary hashables
(color numbers in practice).  Deterministic: adjacency is scanned in the
order given.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

_UNREACHED = -1


def maximum_bipartite_matching(
    adjacency: Sequence[Sequence[Hashable]],
) -> dict[int, Hashable]:
    """Maximum matching from left indices into right values.

    Returns a dict mapping matched left index -> right value; unmatched
    left indices are absent.
    """
    pair_left: dict[int, Hashable] = {}
    pair_right: dict[Hashable, int] = {}
    n = len(adjacency)
    dist: list[int] = [0] * n

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n):
            if u not in pair_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _UNREACHED
        found = False
        while queue:
            u = queue.popleft()
            for r in adjacency[u]:
                w = pair_right.get(r)
                if w is None:
                    found = True
                elif dist[w] == _UNREACHED:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for r in adjacency[u]:
            w = pair_right.get(r)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u] = r
                pair_right[r] = u
                return True
        dist[u] = _UNREACHED
        return False

    while bfs():
        for u in range(n):
            if u not in pair_left:
                dfs(u)
    return pair_left


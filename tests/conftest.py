"""Shared helpers: small random graphs and independent brute-force oracles."""

from __future__ import annotations

import random
from collections import deque

from hypothesis import settings

from sparse2dc.graph import Graph

# The property tests draw the same examples on every run, so a tree passes
# or fails the suite the same way each time; each test keeps its own
# ``max_examples``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_sparse_graph(rng: random.Random, n: int, extra: int = 2) -> Graph:
    """Connected-ish sparse graph: random tree plus a few extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist

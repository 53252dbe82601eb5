"""Immutable simple undirected graphs and their distance-2 structure.

Vertices are dense 0-based integers.  A ``Graph`` is frozen after
construction; every operation in this package is a pure function that
returns fresh values, so graphs can be shared freely between threads.
The one thing a ``Graph`` gains after construction is derived data:
``potential`` keeps the closure network of its potential queries and
that network's max flow in ``_closure``, and never changes a stored
entry, so every answer equals that of a fresh graph.

Vertex subsets are plain ``frozenset[int]`` throughout the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import Iterable, Sequence

INFINITE_GIRTH = float("inf")


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Invariants: no self-loops, no parallel edges, symmetric adjacency,
    vertex ids exactly ``0..n-1``.  Built from one sorted list per vertex,
    where a parallel edge shows as a repeat; a bad edge raises the error of
    the first one in input order.
    """

    __slots__ = ("n", "adjacency", "_edges", "_closure")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        ids = list(range(n))  # one int per vertex; the caller's ints are not kept
        adj: list[list[int]] = [[] for _ in ids]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise _first_bad_edge(n, edges)
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        for a in adj:
            a.sort()
        canon = [(u, v) for u, a in zip(ids, adj) for v in a if v > u]
        if any(map(eq, canon, canon[1:])):
            raise _first_bad_edge(n, edges)
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edges: tuple[tuple[int, int], ...] = tuple(canon)
        self._closure: dict = {}  # kept by potential._closure_minimum

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted."""
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    def min_degree(self) -> int:
        return min(map(len, self.adjacency), default=0)

    def vertices(self) -> range:
        return range(self.n)

    def edge_count_inside(self, subset: frozenset[int] | set[int]) -> int:
        """Number of edges with both endpoints in ``subset``."""
        count = 0
        for v in subset:
            for w in self.adjacency[v]:
                if w > v and w in subset:
                    count += 1
        return count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _first_bad_edge(n: int, edges: Sequence[tuple[int, int]]) -> ValueError:
    """The error for the first out-of-range, self-loop or parallel edge."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return ValueError(f"parallel edge ({e[0]},{e[1]})")
        seen.add(e)
    raise AssertionError("no bad edge")


@dataclass(frozen=True, order=True)
class PathDescriptor:
    """A maximal run of degree-2 vertices between two anchor vertices.

    ``endpoints`` are the bordering vertices (equal when the run leaves and
    re-enters the same anchor).  ``internal`` lists the run's degree-2
    vertices in path order from ``endpoints[0]`` to ``endpoints[1]``.  Runs
    order by (endpoints, internal).
    """

    endpoints: tuple[int, int]
    internal: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.internal)

    @property
    def closed(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


def square(g: Graph) -> Graph:
    """Graph on the same vertices joining every pair at distance 1 or 2."""
    edges = set(g.edges())
    for v in g.vertices():
        nbrs = g.adjacency[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                edges.add((a, b) if a < b else (b, a))
    return Graph(g.n, edges)


def two_distance_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """All vertices at distance 1 or 2 from ``v``, excluding ``v``."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    out = set(g.adjacency[v])
    for w in g.adjacency[v]:
        out.update(g.adjacency[w])
    out.discard(v)
    return frozenset(out)


def d_star(g: Graph, v: int) -> int:
    """Size of the 2-distance neighborhood of ``v``."""
    return len(two_distance_neighborhood(g, v))


def girth(g: Graph):
    """Length of a shortest cycle; ``INFINITE_GIRTH`` for forests.

    Per-vertex BFS, O(n*m); adequate at the scale this package targets.
    """
    best = INFINITE_GIRTH
    for root in g.vertices():
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if best is not INFINITE_GIRTH and 2 * dist[x] >= best:
                break
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
    return best


def degree_two_runs(g: Graph) -> tuple[list[PathDescriptor], list[list[int]]]:
    """Decompose the degree-2 vertices into maximal runs and pure cycles.

    Returns ``(runs, cycles)`` where each run is anchored at non-2-degree
    vertices on both sides (possibly the same one) and each cycle is a
    connected component consisting entirely of 2-vertices, listed in cyclic
    order.  Every degree-2 vertex appears in exactly one run or cycle.
    """
    used = [False] * g.n
    runs: list[PathDescriptor] = []
    for u in g.vertices():
        if g.degree(u) == 2:
            continue
        for w in g.adjacency[u]:
            if g.degree(w) != 2 or used[w]:
                continue
            internal, v = _walk_run(g, u, w)
            for x in internal:
                used[x] = True
            runs.append(_canonical_run(u, v, internal))
    cycles: list[list[int]] = []
    for s in g.vertices():
        if g.degree(s) != 2 or used[s]:
            continue
        cyc, _ = _walk_run(g, g.adjacency[s][1], s)
        for x in cyc:
            used[x] = True
        cycles.append(cyc)
    return runs, cycles


def _walk_run(g: Graph, u: int, w: int) -> tuple[list[int], int]:
    """Walk from ``u`` into its neighbor ``w``, a 2-vertex, along 2-vertices.

    Returns the 2-vertices passed, in order, and where the walk stopped:
    the first vertex whose degree is not 2, or ``w`` again when the walk
    went round a cycle of 2-vertices.
    """
    adj = g.adjacency
    internal = [w]
    prev, cur = u, w
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == w or len(adj[nxt]) != 2:
            return internal, nxt
        internal.append(nxt)
        prev, cur = cur, nxt


def _canonical_run(u: int, v: int, internal: list[int]) -> PathDescriptor:
    if v < u or (v == u and internal and internal[-1] < internal[0]):
        return PathDescriptor((v, u), tuple(reversed(internal)))
    return PathDescriptor((u, v), tuple(internal))


def subdivide(g: Graph, t: int) -> Graph:
    """Replace every edge by a path with ``t`` new internal 2-vertices."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return g
    edges: list[tuple[int, int]] = []
    nxt = g.n
    for u, v in g.edges():
        chain = [u] + list(range(nxt, nxt + t)) + [v]
        nxt += t
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


def remove_edges(g: Graph, drop: Iterable[tuple[int, int]]) -> Graph:
    """Copy of ``g`` without the given edges (ids unchanged)."""
    gone = {(min(e), max(e)) for e in drop}
    for u, v in gone:
        if not (0 <= u and v < g.n and g.has_edge(u, v)):
            raise ValueError(f"edge {(u, v)} not present")
    return Graph(g.n, [e for e in g.edges() if e not in gone])


def remove_vertices(g: Graph, drop: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the kept vertices plus the old->new id map."""
    gone = set(drop)
    keep = [v for v in g.vertices() if v not in gone]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges()
        if u not in gone and v not in gone
    ]
    return Graph(len(keep), edges), remap


def check_girth_mad_bound(mad: Fraction, g: int) -> bool:
    """Exact test of the planar sparsity bound (mad-2)(g-2) < 4."""
    if g < 3:
        raise ValueError("girth must be at least 3")
    return (Fraction(mad) - 2) * (g - 2) < 4

"""2-distance colorings: validity, exact chromatic search, Hall checks, and
the cycle and list colorings and local check the reduction chain uses.

Colors are integers ``1..k``.  A total coloring is valid when no two
vertices at distance at most 2 share a color, i.e. when it properly colors
the square graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import Graph, square, two_distance_neighborhood
from .matching import maximum_bipartite_matching


class SearchBudgetExceeded(Exception):
    """Exact search ran out of decision nodes before proving an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class Coloring:
    """Partial or total map vertex -> color in 1..k."""

    __slots__ = ("k", "colors")

    def __init__(self, k: int, colors: dict[int, int] | None = None):
        if k < 1:
            raise ValueError("palette size must be at least 1")
        self.k = k
        self.colors: dict[int, int] = dict(colors or {})
        for v, c in self.colors.items():
            if not 1 <= c <= k:
                raise ValueError(f"color {c} outside palette 1..{k}")

    def get(self, v: int) -> int | None:
        return self.colors.get(v)

    def set(self, v: int, c: int) -> None:
        if not 1 <= c <= self.k:
            raise ValueError(f"color {c} outside palette 1..{self.k}")
        self.colors[v] = c

    def unset(self, v: int) -> None:
        self.colors.pop(v, None)

    def is_total(self, g: Graph) -> bool:
        return all(v in self.colors for v in g.vertices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.k == other.k and self.colors == other.colors

    def __repr__(self) -> str:
        return f"Coloring(k={self.k}, assigned={len(self.colors)})"


def is_valid_2distance(g: Graph, c: Coloring):
    """Validity of a total coloring; returns (ok, first violation).

    The violation, when present, is ``(u, v, dist)`` with dist 1 or 2.
    """
    colors, adjacency = c.colors, g.adjacency
    get = colors.__getitem__
    try:  # one set per closed neighbourhood; the loops below find the first clash
        if all(len({get(v), *map(get, adjacency[v])}) > len(adjacency[v])
               for v in g.vertices()):
            return True, None
    except KeyError:
        pass
    if not c.is_total(g):
        missing = next(v for v in g.vertices() if v not in colors)
        raise ValueError(f"coloring is partial (vertex {missing} unassigned)")
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return False, (u, v, 1)
    for v in g.vertices():
        nbrs = adjacency[v]
        for i in range(len(nbrs)):
            a = nbrs[i]
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if colors[a] == colors[b] and b not in adjacency[a]:
                    return False, ((a, b, 2) if a < b else (b, a, 2))
    return True, None


def cycle_pattern(n: int) -> list[int]:
    """A valid distance-2 coloring of the n-cycle in cyclic vertex order."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    if n % 3 == 0:
        return [1, 2, 3] * (n // 3)
    if n == 4:
        return [1, 2, 3, 4]
    if n == 5:
        return [1, 2, 3, 4, 5]
    k = n // 3
    tail = [1, 2, 3, 4] if n % 3 == 1 else [1, 2, 3, 4, 5]
    return [1, 2, 3] * (k - 1) + tail


def _list_color_cycle(lists: list[list[int]]) -> list[int] | None:
    """Proper coloring of a cycle from per-vertex lists, or None.

    Always succeeds on even cycles whose lists all have size >= 2.
    """
    m = len(lists)
    for c0 in lists[0]:
        reach: list[set[int]] = [set() for _ in range(m)]
        reach[0] = {c0}
        for i in range(1, m):
            allowed = set(lists[i])
            if i == m - 1:
                allowed.discard(c0)
            prev = reach[i - 1]
            if not prev:
                break
            # a color is reachable unless the sole predecessor equals it
            reach[i] = allowed - {next(iter(prev))} if len(prev) == 1 else allowed
        if m >= 2 and not reach[m - 1]:
            continue
        out: list[int | None] = [None] * m
        out[0] = c0
        out[m - 1] = min(reach[m - 1])
        feasible = True
        for i in range(m - 2, 0, -1):
            options = [c for c in reach[i] if c != out[i + 1]]
            if not options:
                feasible = False
                break
            out[i] = min(options)
        if feasible:
            return out  # type: ignore[return-value]
    return None


class _Tracked(Coloring):
    """The solver's coloring, which also collects the vertices set or
    unset on it: the vertices an extension step colored."""

    __slots__ = ("touched",)

    def __init__(self, k: int, colors: dict[int, int] | None = None):
        super().__init__(k, colors)
        self.touched: set[int] = set()

    def set(self, v: int, c: int) -> None:
        super().set(v, c)
        self.touched.add(v)

    def unset(self, v: int) -> None:
        super().unset(v)
        self.touched.add(v)


def _local_violation(g, phi: Coloring, t) -> tuple[int, int, int] | None:
    """A pair at distance at most 2 in ``g`` that shares a color, found in
    the closed neighbourhood N[x] of some x in T or next to T, as (u, v, dist).

    Let T hold the vertices a step colored, its removed vertices and both
    ends of each removed edge.  When ``phi`` was valid on the reduced
    graph, this finds every clash: a pair at distance at most 2 with no
    end in T meets through a removed vertex or edge, so through a vertex
    of T; a pair with an end in T lies in N[x] for that end or for the
    vertex between them.
    """
    around = set(t)
    for v in t:
        around.update(g.adjacency[v])
    colors, adjacency = phi.colors, g.adjacency
    get = colors.__getitem__
    for x in sorted(around):
        try:  # distinct colors on N[x]: no clash here
            if len({get(x), *map(get, adjacency[x])}) > len(adjacency[x]):
                continue
        except KeyError:
            pass
        first: dict[int, int] = {}
        for y in (x, *adjacency[x]):
            c = colors.get(y)
            if c is None:
                raise ValueError(f"coloring is partial (vertex {y} unassigned)")
            if c in first:
                u, v = sorted((first[c], y))
                return u, v, 1 if g.has_edge(u, v) else 2
            first[c] = y
    return None


def seen_colors(g: Graph, c: Coloring, v: int) -> dict[int, int]:
    """Colors assigned within distance 2 of v, as {neighbor: color}."""
    out: dict[int, int] = {}
    for w in two_distance_neighborhood(g, v):
        col = c.get(w)
        if col is not None:
            out[w] = col
    return out


def available_colors(g: Graph, c: Coloring, v: int) -> list[int]:
    """The colors of 1..k that no vertex within distance 2 of v holds."""
    colors, adjacency = c.colors, g.adjacency
    used = set()
    for w in adjacency[v]:
        used.add(colors.get(w))
        for x in adjacency[w]:
            if x != v:
                used.add(colors.get(x))
    return [col for col in range(1, c.k + 1) if col not in used]


def square_adjacency(g: Graph) -> list[set[int]]:
    sq = square(g)
    return [set(sq.adjacency[v]) for v in range(sq.n)]


def _peel(adj: list[set[int]], vertices: set[int], k: int) -> tuple[set[int], list[int]]:
    """Iteratively shed vertices with fewer than k live neighbors.

    Returns the surviving core and the peel order; re-coloring the peeled
    vertices in reverse order is always possible with k colors.
    """
    live = set(vertices)
    deg = {v: len(adj[v] & live) for v in live}
    stack = [v for v in sorted(live) if deg[v] < k]
    order: list[int] = []
    queued = set(stack)
    while stack:
        v = stack.pop()
        if v not in live:
            continue
        live.discard(v)
        order.append(v)
        for w in adj[v]:
            if w in live:
                deg[w] -= 1
                if deg[w] < k and w not in queued:
                    stack.append(w)
                    queued.add(w)
    return live, order


def _decide_k_colorable(adj: list[set[int]], core: set[int], k: int, budget: int | None,
                        counter: list[int]) -> dict[int, int] | None:
    """Exact decision search on the core: depth first, symmetry broken by
    capping fresh colors at max-used+1, with DSATUR's saturation kept up to
    date as colors are set and unset (Brélaz, CACM 22(4), 1979).

    Core vertices sit in a fixed rank order by (-degree in the core, id).
    For rank i, ``nbrs[i]`` holds its neighbors' ranks, bit c of ``seen[i]``
    is set while a neighbor holds color c (so it bans c at i), and
    ``sat[i]`` counts those bits, or is -1 while rank i is colored.  Setting
    a color touches only the neighbors that gain it, and the path keeps
    them, so unsetting it undoes exactly that.  The first maximum of ``sat``
    is the least key (-saturation, -degree, id): pick order, color order and
    node count are those of DSATUR recomputed at every node.  Raises
    SearchBudgetExceeded."""
    if not core:
        return {}
    ids = sorted(core, key=lambda v: (-len(adj[v] & core), v))
    rank = {v: i for i, v in enumerate(ids)}
    nbrs = [[rank[w] for w in adj[v] if w in rank] for v in ids]
    seen, sat, color = [0] * len(ids), [0] * len(ids), [0] * len(ids)
    path: list[tuple[int, int, int, list[int]]] = []  # (rank, color, max used before, gained)
    push, pop = path.append, path.pop
    nodes, max_used, cap = counter[0], 0, min(k, 1)  # cap: min(k, max_used + 1)
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            counter[0] = nodes
            raise SearchBudgetExceeded(nodes)
        top, c = max(sat), 0
        if top < 0:
            counter[0] = nodes
            return dict(zip(ids, color))
        i = sat.index(top)
        while True:  # the next free color for rank i, backing up while none is left
            free = ~(seen[i] | ((2 << c) - 1))  # set bits: the colors above c not banned
            c = (free & -free).bit_length() - 1
            if c <= cap:
                break
            if not path:
                counter[0] = nodes
                return None
            i, c, max_used, gained = pop()
            cap = max_used + 1 if max_used < k else k
            color[i], sat[i], bit = 0, seen[i].bit_count(), 1 << c
            for j in gained:
                seen[j] ^= bit
                if not color[j]:
                    sat[j] -= 1
        bit = 1 << c
        gained = []
        for j in nbrs[i]:
            if not seen[j] & bit:
                seen[j] |= bit
                gained.append(j)
                if not color[j]:
                    sat[j] += 1
        color[i], sat[i] = c, -1
        push((i, c, max_used, gained))
        if c > max_used:
            max_used, cap = c, c + 1 if c < k else k


def color_2distance(g: Graph, k: int, budget: int | None = None) -> Coloring | None:
    """A valid 2-distance coloring with at most k colors, or None if no
    such coloring exists.  Budget exhaustion raises SearchBudgetExceeded,
    distinctly from a proven None; a negative budget is a ValueError."""
    if k < 1:
        raise ValueError("palette size must be at least 1")
    if budget is not None and budget < 0:
        raise ValueError(f"negative node budget {budget}")
    adj = square_adjacency(g)
    core, peel_order = _peel(adj, set(g.vertices()), k)
    counter = [0]
    core_colors = _decide_k_colorable(adj, core, k, budget, counter)
    if core_colors is None:
        return None
    out = Coloring(k, core_colors)
    for v in reversed(peel_order):
        used = {out.get(w) for w in adj[v] if out.get(w) is not None}
        free = next(c for c in range(1, k + 1) if c not in used)
        out.set(v, free)
    return out


def _greedy_clique(masks: list[int], seed: int) -> int:
    """A clique of the square containing ``seed``, as a bitmask: bit x of
    ``masks[v]`` is set when x is a square-neighbor of v.  Each step adds
    the candidate with the most candidate neighbors, the least on a tie;
    one adjacent to all the others cannot be beaten, so the scan stops."""
    clique, candidates = 1 << seed, masks[seed]
    while candidates:
        best = most = -1
        rest, full = candidates, candidates.bit_count() - 1
        while rest:  # the candidates in ascending order
            low = rest & -rest
            x = low.bit_length() - 1
            count = (masks[x] & candidates).bit_count()
            if count > most:
                best, most = x, count
                if count == full:
                    break
            rest ^= low
        clique |= 1 << best
        candidates &= masks[best]
    return clique


def _greedy_square_coloring(adj: list[set[int]], n: int) -> dict[int, int]:
    """DSATUR greedy, an upper bound: the search with k = n, where color
    max-used+1 is always free, so each node takes its smallest free color."""
    return _decide_k_colorable(adj, set(range(n)), n, None, [0])


def chi2_exact(g: Graph, budget: int | None = None):
    """Exact 2-distance chromatic number, or a proven (low, high) interval
    if the node budget runs out first (a negative budget is a ValueError).

    Lower bounds come from greedy cliques in the square, on one bitmask per
    vertex (every closed neighborhood of g is one such clique); upper bounds
    from DSATUR greedy.
    The gap is closed by exact k-colorability decisions with peeling.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"negative node budget {budget}")
    if g.n == 0:
        return 0
    adj = square_adjacency(g)
    high = max(_greedy_square_coloring(adj, g.n).values())
    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
    seeds = sorted(range(g.n), key=lambda v: -len(adj[v]))[:8]
    low = max(1, max(_greedy_clique(masks, s).bit_count() for s in seeds))
    counter = [0]
    for k in range(low, high):
        core, _ = _peel(adj, set(g.vertices()), k)
        try:
            found = _decide_k_colorable(adj, core, k, budget, counter)
        except SearchBudgetExceeded:
            return (k, high)
        if found is not None:
            return k
    return high


def hall_check(lists: Sequence[Iterable[int]]) -> bool:
    """Whether pairwise-conflicting vertices with these color lists can be
    simultaneously colored (system of distinct representatives)."""
    lists = [tuple(l) for l in lists]
    return len(maximum_bipartite_matching(lists)) == len(lists)

"""Forbidden configurations, reduction surgeries, and constructive coloring.

Every detector names a local structure that admits a color-saving rewrite:
delete it (possibly splicing in a short replacement path whose safety is
certified by an exact potential bound), 8-color the smaller graph, then
extend the coloring back over the deleted vertices in an order that keeps
every step under 8 forbidden colors.  Chaining these rewrites yields an
exact 2-distance 8-coloring for graphs with density at most 18/7 and
maximum degree 7.

Vertex classification (small/medium/large 2-vertices, bridge pairs,
sponsor assignment) lives here too; the discharging engine consumes it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from typing import Callable, NamedTuple

from .coloring import (
    Coloring,
    _list_color_cycle,
    _local_violation,
    _Tracked,
    available_colors,
    color_2distance,
    cycle_pattern,
    is_valid_2distance,
    seen_colors,
)
from .graph import (
    Graph,
    PathDescriptor,
    _canonical_run,
    _walk_run,
    d_star,
    degree_two_runs,
    remove_vertices,
)
from .potential import DENSITY_BOUND, mad_exact, rho_star

PALETTE = 8
#: Color-budget anchor: a vertex can always be colored while it sees at
#: most PALETTE-1 distinct colors.
ANCHOR = PALETTE - 1
#: Below this |V|+|E| total the solver switches to exhaustive search.
BASE_THRESHOLD = 24


class ForestOfStarsError(Exception):
    """The 3-paths do not form a forest of stars, a precondition of
    classification; carries the witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class InternalContradiction(Exception):
    """A guaranteed reduction branch was missing: detector gap or a false
    density precondition."""


class ExtensionError(Exception):
    """A proof-backed extension step ran out of colors (implementation bug);
    carries the blocking vertex and its constraint state."""

    def __init__(self, tag: str, vertex, state):
        super().__init__(f"extension {tag} blocked at {vertex}: {state}")
        self.tag = tag
        self.vertex = vertex
        self.state = state


@dataclass(frozen=True)
class Configuration:
    """A detected forbidden configuration with its witness data."""

    kind: str
    data: dict
    potentials: dict = field(default_factory=dict)

    def validate(self, g: Graph) -> None:
        """Recheck the witness against ``g``.

        A witness of a local kind is valid exactly when its kind's detector
        could produce it at its centre: it must be among the witnesses the
        kind's enumerator yields there, and the potentials it carries must
        be the ones recomputed for it, unless it is the very witness
        detection stored on the working graph, unchanged, with no edit
        since.  So a hand-made witness in an order no detector produces is
        refused.  The witnesses of the two kinds that are not local,
        ThreePathCycle and ThreeConsecutiveThreePaths, are always read back
        run by run.  Raises ValueError naming the kind, also for an unknown
        kind or malformed data.
        """
        _require(self.kind in KINDS and isinstance(self.data, dict), self.kind,
                 "unknown kind, or data not a dict")
        kind = _BY_KIND[self.kind]
        idx = g._index if isinstance(g, _WorkGraph) else None
        if kind.centre is None or idx is None or not idx.detected(self):
            kind.validate(g, _index(g), self)


@dataclass
class Reduction:
    """The reduced graph plus everything needed to lift a coloring back.

    ``removed`` lists the deleted vertices in ascending order (empty when
    only edges were deleted); ``added`` the ids of spliced-in vertices.
    ``graph`` numbers the kept vertices 0.. in ascending order and the
    spliced ones after them; inside the solver it is the working graph
    itself, edited in place, and every id is stable.  ``recipe`` lifts a
    coloring back: the steps ``_run_recipe`` runs, which name a spliced
    vertex by its position in ``added``.
    """

    graph: Graph
    removed: tuple[int, ...]
    added: tuple[int, ...]
    tag: str
    recorded: dict
    detail: dict
    recipe: tuple


# ---------------------------------------------------------------------------
# the working graph


class _WorkGraph:
    """The solver's one mutable graph, with the read API of ``Graph``.

    Ids are stable: a deleted vertex is never renumbered and a spliced one
    gets a fresh id above every id used so far, so the rank of a live id
    is the id ``remove_vertices`` and ``add_path`` would have given it.
    ``n`` bounds the ids (the graph functions size arrays and range-check
    by it), while ``size`` counts what is live.  The potential queries
    (``rho_star``, ``mad_exact``) read it as they read a ``Graph``.  Each
    step opens an undo record with ``begin``; an edit saves the touched
    vertices' adjacency there first and marks them ``dirty`` for the run
    index, and ``undo`` restores the graph the step started from.
    ``graph`` is the ``Graph`` it was built from, left as it was.
    """

    __slots__ = ("graph", "n", "m", "adjacency", "dirty", "_ids", "_log", "_index")

    def __init__(self, g: Graph):
        self.graph = g
        self.n = g.n
        self.m = g.m
        self.adjacency: list[tuple[int, ...]] = list(g.adjacency)
        self.dirty: set[int] = set()
        self._ids = list(range(g.n))  # the live ids, ascending
        self._log: list[tuple] = []
        self._index: _RunIndex | None = None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def vertices(self) -> list[int]:
        return self._ids

    def max_degree(self) -> int:  # live ids only: a removed id is no 0-vertex
        return max(map(len, map(self.adjacency.__getitem__, self._ids)), default=0)

    def min_degree(self) -> int:
        return min(map(len, map(self.adjacency.__getitem__, self._ids)), default=0)

    edge_count_inside = Graph.edge_count_inside

    def edges(self) -> list[tuple[int, int]]:
        """The live edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in self._ids for v in self.adjacency[u] if u < v]

    def size(self) -> int:
        """Live vertices plus edges, the measure every step shrinks."""
        return len(self._ids) + self.m

    def run_index(self) -> _RunIndex:
        """The chain's run index, caught up with the edits since its last read."""
        idx = self.pendant_index()
        idx.sync()
        return idx

    def pendant_index(self) -> _RunIndex:
        """The chain's run index with the edits since its last read noted,
        and its runs not synced."""
        if self._index is None:
            self.dirty.clear()
            self._index = _RunIndex(self)
        elif self.dirty:
            self._index.note(self.dirty)
            self.dirty = set()
        return self._index

    def begin(self) -> None:
        self._log.append((self.n, self.m, {}, []))

    def _set(self, v: int, adj: tuple[int, ...]) -> None:
        self._log[-1][2].setdefault(v, self.adjacency[v])
        self.adjacency[v] = adj
        self.dirty.add(v)

    def remove_edge(self, u: int, v: int) -> None:
        a, b = self.adjacency[u], self.adjacency[v]
        if v not in a:
            raise ValueError(f"edge {(u, v)} not present")
        i, j = a.index(v), b.index(u)
        self._set(u, a[:i] + a[i + 1:])
        self._set(v, b[:j] + b[j + 1:])
        self.m -= 1

    def remove_vertex(self, v: int) -> None:
        for w in self.adjacency[v]:
            a = self.adjacency[w]
            i = a.index(v)
            self._set(w, a[:i] + a[i + 1:])
        self.m -= self.degree(v)
        self._set(v, ())
        del self._ids[bisect_left(self._ids, v)]
        self._log[-1][3].append(v)

    def add_path(self, u: int, v: int, k: int) -> range:
        """Join u and v by a path through k fresh vertices; their ids."""
        fresh = range(self.n, self.n + k)
        self.adjacency += [()] * k
        self._ids.extend(fresh)
        self.n += k
        chain = [u, *fresh, v]
        for a, b in zip(chain, chain[1:]):
            self._set(a, tuple(sorted((*self.adjacency[a], b))))
            self._set(b, tuple(sorted((*self.adjacency[b], a))))
        self.m += k + 1
        return fresh

    def undo(self) -> None:
        """Restore the graph before the last step, and drop the run index."""
        n, m, saved, gone = self._log.pop()
        for v, adj in saved.items():
            self.adjacency[v] = adj
        del self.adjacency[n:]
        for v in gone:
            insort(self._ids, v)
        del self._ids[bisect_left(self._ids, n):]  # the fresh ids, live or removed
        self.n, self.m = n, m
        self._index = None


# ---------------------------------------------------------------------------
# run bookkeeping

#: The worklists, one per structural run detector, that runs of each
#: length 0..4 feed (4 stands for 4 or more), and those whose detectors
#: read the anchors: FourPlusPath reads only the length.
_WORKLISTS = ((), (), ("TwoPathBadEnds", "TwoPathChord"), ("ThreePathBadEnd",), ("FourPlusPath",))
_ANCHOR_WORKLISTS = _WORKLISTS[:4] + ((),)


class _RunIndex:
    """Degree-2 runs of a graph, addressable by (anchor, first internal).

    On the working graph one index lives through the chain.  ``note`` takes
    the vertices edited since the last read: it forgets ``found`` and pushes
    the new degree-1 vertices onto ``pendants``, the heap DegreeOne reads.
    ``sync``, run only once a reader past DegreeOne needs the runs, drops
    the runs through a noted vertex, or at one that now has degree 2, and
    walks the changed runs; a run kept at an edited anchor goes back on the
    worklists that read anchors.  The run detectors read lazily checked
    worklist heaps, least (endpoints, internal) first, that hold a run at
    most once (``queued``) and drop a run a detector does not fire on.  The
    later detectors read ``three_adj`` and ``cycle_of``, kept with the runs,
    and ``reach``, d* memoized per vertex until an edit lands next to it.
    ``found`` keeps the configuration ``detect_configuration`` found, and
    ``seen`` its data and potentials, until the next edit.
    """

    def __init__(self, g: Graph):
        self.g = g
        # (anchor, first internal) -> (internals away from it, far anchor)
        self.from_edge: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        self.run_of: dict[int, PathDescriptor] = {}  # internal vertex -> run
        # the multigraph of the open 3-runs: anchor -> [(other anchor, run)]
        self.three_adj: dict[int, list[tuple[int, PathDescriptor]]] = {}
        self.cycle_of: dict[int, frozenset[int]] = {}  # the cycles of 2-vertices
        self.ds: dict[int, int] = {}  # the d* values read so far
        adj = g.adjacency
        self.pendants = [v for v in g.vertices() if len(adj[v]) == 1]  # sorted: a heap
        self.stale: set[int] = set()  # the vertices noted and not yet synced
        self.found: Configuration | None = None
        self.seen: tuple[dict, dict] | None = None  # found's data and potentials
        self.worklists = {name: [] for names in _WORKLISTS for name in names}
        self.queued = {name: set() for name in self.worklists}  # each heap's keys
        self._walk(g.vertices())

    def note(self, edited: set[int]) -> None:
        """Take the vertices edited since the last read; ``sync`` walks them."""
        self.found = None
        adj, heap = self.g.adjacency, self.pendants
        for x in edited:
            if len(adj[x]) == 1:
                heapq.heappush(heap, x)
        self.stale |= edited

    def detected(self, cfg: Configuration) -> bool:
        """Whether ``cfg`` is the configuration detection stored, with its
        data and potentials as found and no edit since."""
        return (cfg is self.found and not self.g.dirty
                and (cfg.data, cfg.potentials) == self.seen)

    def sync(self) -> None:
        """Catch up with the edits noted since the last sync."""
        dirty = self.stale
        if not dirty:
            return
        self.stale = set()
        run_at, forget, cycle_of, adj = self.run_of.get, self.ds.pop, self.cycle_of, self.g.adjacency
        for x in dirty:
            # an edit changes d* only at the vertices it touches and next to them
            forget(x, None)
            for z in cycle_of.get(x, ()):
                del cycle_of[z]
            r = run_at(x)
            if r is not None:
                self._drop(r)
            nbrs = adj[x]
            for y in nbrs:
                forget(y, None)
                r = run_at(y)
                if r is None:
                    continue
                if len(nbrs) == 2:  # x was an anchor of r: its runs merge
                    self._drop(r)
                else:  # r is unchanged, but an anchor's degree may not be
                    self._push(r, _ANCHOR_WORKLISTS)
        self._walk(dirty)

    def _walk(self, seeds) -> None:
        """Index every run or cycle through or at a seed that is not indexed yet."""
        g, adj = self.g, self.g.adjacency
        for x in seeds:
            if len(adj[x]) != 2:
                starts = adj[x]
            elif x in self.run_of or x in self.cycle_of:
                continue
            else:  # walk to an anchor of x's run and start from there
                ints, x = _walk_run(g, adj[x][0], x)
                if len(adj[x]) == 2:  # back at x: a cycle of 2-vertices
                    self.cycle_of.update(dict.fromkeys(ints, frozenset(ints)))
                    continue
                starts = (ints[-1],)
            for w in starts:
                if len(adj[w]) == 2 and (x, w) not in self.from_edge:
                    self._add(x, *_walk_run(g, x, w))

    def _add(self, u: int, internal: list[int], v: int) -> None:
        ints = tuple(internal)
        self.from_edge[(u, ints[0])] = (ints, v)
        self.from_edge[(v, ints[-1])] = (ints[::-1], u)
        r = _canonical_run(u, v, internal)
        self.run_of.update(dict.fromkeys(ints, r))
        if len(ints) == 3 and u != v:
            self.three_adj.setdefault(u, []).append((v, r))
            self.three_adj.setdefault(v, []).append((u, r))
        self._push(r)

    def _drop(self, r: PathDescriptor) -> None:
        (u, v), ints = r.endpoints, r.internal
        del self.from_edge[(u, ints[0])], self.from_edge[(v, ints[-1])]
        for x in ints:
            del self.run_of[x]
        if len(ints) == 3 and u != v:
            for a, b in ((u, v), (v, u)):
                self.three_adj[a].remove((b, r))
                if not self.three_adj[a]:
                    del self.three_adj[a]

    def _push(self, r: PathDescriptor, worklists=_WORKLISTS) -> None:
        key = (r.endpoints, r.internal)
        for name in worklists[min(len(r.internal), 4)]:
            if key not in self.queued[name]:
                self.queued[name].add(key)
                heapq.heappush(self.worklists[name], key)

    def holds(self, r) -> bool:
        """Whether ``r`` is a run the index holds, as the index holds it."""
        ints = r.internal if isinstance(r, PathDescriptor) else ()
        return bool(ints) and self.run_of.get(ints[0]) == r

    def pendant(self) -> int | None:
        """The smallest degree-1 vertex, or None."""
        heap, adj = self.pendants, self.g.adjacency
        while heap and len(adj[heap[0]]) != 1:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def worklist(self, name: str):
        """The named worklist's current runs, smallest first; each run the
        caller passes over is dropped."""
        heap, queued = self.worklists[name], self.queued[name]
        while heap:
            r = self.run_of.get(heap[0][1][0])
            if r is not None and (r.endpoints, r.internal) == heap[0]:
                yield r
            queued.discard(heapq.heappop(heap))

    def reach(self, v: int) -> int:
        """d*(v), computed on first use after the last edit next to v."""
        d = self.ds.get(v)
        if d is None:
            d = self.ds[v] = d_star(self.g, v)
        return d


def _slot_kinds(g: Graph, idx: _RunIndex, u: int):
    """Classify each edge at ``u``: (neighbor, run internals or None, far)."""
    out = []
    for w in g.adjacency[u]:
        if g.degree(w) == 2:
            ints, far = idx.from_edge[(u, w)]
            out.append((w, ints, far))
        else:
            out.append((w, None, w))
    return out


def _signature(g: Graph, idx: _RunIndex, v: int) -> tuple[int, ...]:
    """The run signature of ``v``: the number of 2-vertices along each of
    its edges, capped at 4, sorted descending.  A run that comes back to
    ``v`` reads 4, so a 2-vertex on a cycle of 2-vertices reads (4, 4)."""
    if v in idx.cycle_of:
        return (4, 4)
    r = idx.run_of.get(v)
    if r is not None:  # a 2-vertex: the 2-vertices before it and after it,
        # read within 4 of each end of its run, as the cap makes the rest 4
        head, tail = r.internal[:4], r.internal[-1:-5:-1]
        lengths = (head.index(v) if v in head else 4, tail.index(v) if v in tail else 4)
    else:  # an anchor: each slot's run, or 0 for a neighbour that is no 2-vertex
        lengths = [0 if ints is None else 4 if far == v else len(ints)
                   for _, ints, far in _slot_kinds(g, idx, v)]
    return tuple(sorted((min(x, 4) for x in lengths), reverse=True))


def _capped(g: Graph, u: int, slot, cap: int) -> bool:
    """Whether ``slot`` at ``u`` is a 2-run whose far end is not ``u`` and
    has degree at most ``cap``."""
    _, ints, far = slot
    return ints is not None and len(ints) == 2 and far != u and g.degree(far) <= cap


def _two_kind(g: Graph, v: int) -> str:
    """The role of the 2-vertex ``v``: large, medium or small as 0, 1 or 2
    of its neighbours are 2-vertices."""
    a, b = g.adjacency[v]
    return ("large", "medium", "small")[(g.degree(a) == 2) + (g.degree(b) == 2)]


def _lower_end(g: Graph, r: PathDescriptor) -> int:
    """The endpoint of ``r`` of smaller degree (smaller id on ties)."""
    return min((g.degree(x), x) for x in r.endpoints)[1]


# ---------------------------------------------------------------------------
# witness enumerators: ``_*_at(g, idx, c)`` yields every witness of one local
# kind at its centre ``c`` (a vertex, or a run for the run kinds), in the
# order its detector takes them; the registry's ``_local`` builds the
# detector and the witness check from it


def _pendant(g: Graph, idx: _RunIndex):
    v = idx.pendant()
    return () if v is None else (v,)


def _vertices(g: Graph, idx: _RunIndex):
    return g.vertices()


def _of_degree(lo: int, hi: int):
    """Centres: the vertices of degree ``lo`` to ``hi``, ascending."""
    return lambda g, idx: [v for v in g.vertices() if lo <= len(g.adjacency[v]) <= hi]


def _three_anchors(g: Graph, idx: _RunIndex):
    return sorted(idx.three_adj)


def _degree_one_at(g, idx, v):
    if g.degree(v) == 1:
        yield {"v": v, "u": g.adjacency[v][0]}


def _four_plus_path_at(g, idx, r):
    if r.length >= 4:
        chain = (r.endpoints[0], *r.internal, r.endpoints[1])
        yield {"chain": chain[:6], "run": r}


def _three_path_bad_end_at(g, idx, r):
    if r.length != 3:
        return
    if r.closed:
        yield {"case": "closed", "run": r}
    elif min(map(g.degree, r.endpoints)) < 7:
        yield {"case": "low-end", "run": r, "low": _lower_end(g, r)}


def _two_path_bad_ends_at(g, idx, r):
    if r.length != 2:
        return
    lo, hi = sorted(map(g.degree, r.endpoints))
    if r.closed:
        yield {"case": "closed", "run": r}
    elif lo <= ANCHOR - 2 and hi <= ANCHOR - 1:
        yield {"case": "low-ends", "run": r, "low": _lower_end(g, r)}


def _two_path_chord_at(g, idx, r):
    u, v = r.endpoints
    if r.length != 2 or r.closed or not g.has_edge(u, v):
        return
    for hi, lo in ((u, v), (v, u)):
        if g.degree(hi) == 7 and g.degree(lo) <= 6:
            yield {"run": r, "seven": hi, "other": lo}


def _three_path_cycle(g: Graph, idx: _RunIndex) -> Configuration | None:
    """A cycle in the index's multigraph ``three_adj`` of the open 3-runs.

    Returns anchors (a_0..a_{m-1}) and runs (r_0..r_{m-1}) with r_i joining
    a_i to a_{i+1 mod m}.
    """

    def chain_to_root(parent, x):
        out, links = [x], []
        while parent[x][0] is not None:
            links.append(parent[x][1])
            x = parent[x][0]
            out.append(x)
        return out, links

    adj = idx.three_adj
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        parent: dict[int, tuple] = {start: (None, None)}
        stack = [(start, None)]
        while stack:
            x, via = stack.pop()
            for y, r in sorted(adj.get(x, ())):
                if r is via:
                    continue
                if y in parent:
                    vx, rx = chain_to_root(parent, x)
                    vy, ry = chain_to_root(parent, y)
                    pos = {v: i for i, v in enumerate(vx)}
                    j = next(i for i, v in enumerate(vy) if v in pos)
                    lca = vy[j]
                    # cycle: y -> ... -> lca -> ... -> x -> (r) -> y
                    anchors = list(reversed(vx[: pos[lca] + 1])) + vy[:j]
                    runs = list(reversed(rx[: pos[lca]])) + [r] + ry[:j]
                    return Configuration(
                        "ThreePathCycle",
                        {"anchors": tuple(anchors), "runs": tuple(runs)},
                    )
                parent[y] = (x, r)
                stack.append((y, r))
        visited.update(parent)
    return None


def _small_vertex_at(g, idx, v):
    if not 3 <= g.degree(v) <= (ANCHOR + 1) // 2:
        return
    if any(g.degree(w) != 2 for w in g.adjacency[v]) or idx.reach(v) > ANCHOR + 1:
        return
    for w in g.adjacency[v]:
        if idx.reach(w) <= ANCHOR and _two_kind(g, w) == "medium":
            yield {"v": v, "w": w}


def _counting_pair_at(g, idx, w):
    # components that are pure cycles of 2-vertices are a base case for
    # the solver, not a configuration
    if w in idx.cycle_of:
        return
    reach = idx.reach
    nbrs = sorted(g.adjacency[w], key=lambda u: (reach(u), u))
    for k in range(1, len(nbrs) + 1):
        if reach(nbrs[k - 1]) > ANCHOR + k - 1:
            return
        if reach(w) <= ANCHOR + k:
            yield {"w": w, "removed_neighbors": tuple(nbrs[:k])}


def _weird_seven_at(g, idx, u):
    if g.degree(u) != 7:
        return
    low2, other = [], []
    for s in _slot_kinds(g, idx, u):
        (low2 if _capped(g, u, s, 5) else other).append(s)
    if len(low2) == 7:
        yield {"u": u, "case": "two-path", "six": tuple(low2[:6]), "extra": low2[6]}
        return
    if len(low2) != 6:
        return
    w, ints, far = extra = other[0]
    if ints is not None and len(ints) == 3 and far != u:
        case = "three-path"
    elif _capped(g, u, extra, 6):
        case = "two-path"
    elif ints is None and _signature(g, idx, w) == (2, 2, 0):
        case = "deg-three"
    else:
        return
    yield {"u": u, "case": case, "six": tuple(low2), "extra": extra}


def _weird_six_at(g, idx, u):
    if g.degree(u) != 6:
        return
    slots = _slot_kinds(g, idx, u)
    if all(_capped(g, u, s, 6) and g.degree(s[2]) == 6 for s in slots):
        yield {"u": u, "paths": tuple(slots)}


def _potential_without(g: Graph, dropped, query) -> int:
    return rho_star(g, query, without=dropped).value


def _end_potentials(g: Graph, ints, u: int, v: int) -> tuple[int, int]:
    """The potentials of u and v, the ends of a run, once its internals
    ``ints`` are removed.  The tie rule: the detectors take u as the
    constrained end, the sponsor, when pot(u) <= pot(v); classification
    roots the end of larger potential, on a tie the smaller id, so the
    larger id sponsors."""
    dropped = set(ints)
    return _potential_without(g, dropped, {u}), _potential_without(g, dropped, {v})


def _two_consecutive_at(g, idx, v):
    # the open 3-runs at v, as (internals from v, far end), in the order of
    # their first internals
    runs_here = sorted((_oriented_from(r, v), far) for far, r in idx.three_adj.get(v, ()))
    for (ints_a, u), (ints_b, w) in combinations(runs_here, 2):
        if u != w:  # a 2-cycle of 3-runs is an earlier detector's job
            yield {"u": u, "v": v, "w": w, "pu": ints_a[::-1], "pw": ints_b[::-1]}


def _bridge(g, idx, data) -> dict | None:
    """The potential of {u, w} without both runs, when it allows the splice."""
    value = _potential_without(g, {*data["pu"], *data["pw"]}, {data["u"], data["w"]})
    return {"bridge": value} if value >= 1 else None


def _three_consecutive_three_paths(g: Graph, idx: _RunIndex) -> Configuration | None:
    """Three open 3-runs chaining four distinct anchors in ``three_adj``."""
    adj = idx.three_adj
    for v in sorted(adj):
        for w, r2 in sorted(adj[v]):
            for u, r1 in sorted(adj[v]):
                if r1 is r2:
                    continue
                for x, r3 in sorted(adj.get(w, ())):
                    if r3 is r2 or len({u, v, w, x}) != 4:
                        continue
                    return Configuration(
                        "ThreeConsecutiveThreePaths",
                        {"anchors": (u, v, w, x), "runs": (r1, r2, r3)},
                    )
    return None


def _oriented_from(run: PathDescriptor, anchor: int) -> tuple[int, ...]:
    if run.endpoints[0] == anchor:
        return run.internal
    return tuple(reversed(run.internal))


def _seven_seven_at(g, idx, u):
    if g.degree(u) != 7:
        return
    slots = _slot_kinds(g, idx, u)
    low = [s for s in slots if _capped(g, u, s, 5)]
    high = [s for s in slots if _capped(g, u, s, 7) and g.degree(s[2]) == 7]
    if len(low) == 6 and len(high) == 1:
        _, p, v = high[0]
        yield {"u": u, "v": v, "p": p, "six": tuple(low)}


def _orientation(g, idx, data) -> dict | None:
    """The end potentials of the run p from u to v, when they orient p with
    u as the constrained end."""
    center, far = _end_potentials(g, data["p"], data["u"], data["v"])
    return {"center": center, "far": far} if center <= far else None


def _sponsor(g: Graph, idx: _RunIndex, u: int):
    """What the sponsor kinds read at a 7-vertex ``u`` with a unique open
    3-run: (its internals from u, its far end, then u's other slots split
    into 2-runs to another vertex, (2,2,0) neighbors and the rest), or
    None."""
    links = idx.three_adj.get(u, ())
    if g.degree(u) != 7 or len(links) != 1:
        return None
    [(v, r)] = links
    p = _oriented_from(r, u)
    qpaths, wvertices, rest = [], [], []
    for s in _slot_kinds(g, idx, u):
        w, ints, _ = s
        if w == p[0]:
            continue
        if _capped(g, u, s, g.n):  # any far degree
            qpaths.append(s)
        elif ints is None and _signature(g, idx, w) == (2, 2, 0):
            wvertices.append(w)
        else:
            rest.append(w)
    return p, v, qpaths, wvertices, rest


def _sponsor_bridges_at(g, idx, u):
    found = _sponsor(g, idx, u)
    if found is None:
        return
    p, v, qpaths, _, _ = found
    low2 = [q for q in qpaths if _capped(g, u, q, 5)]
    if len(low2) >= 3:
        yield {"u": u, "v": v, "p": p, "qpaths": tuple(low2[:3])}


def _sponsor_all_bad_at(g, idx, u):
    found = _sponsor(g, idx, u)
    if found is None or found[4]:
        return
    p, v, qpaths, wvertices, _ = found
    yield {"u": u, "v": v, "p": p, "qpaths": tuple(qpaths), "wvertices": tuple(wvertices)}


def _sponsor_small_x_at(g, idx, u):
    found = _sponsor(g, idx, u)
    if found is None or len(found[4]) != 1 or idx.reach(found[4][0]) > 12:
        return
    p, v, qpaths, wvertices, [x] = found
    low = [q for q in qpaths if _capped(g, u, q, 5)]
    if low:
        # the capped 2-run with a small far end plays the first slot
        ordered = (low[0],) + tuple(q for q in qpaths if q != low[0])
        yield {"u": u, "v": v, "p": p, "qpaths": ordered,
               "wvertices": tuple(wvertices), "x": x}


def _small_x_potentials(g, idx, data) -> dict | None:
    pots = _orientation(g, idx, data)
    return pots and {**pots, "x_reach": idx.reach(data["x"])}


def _working(g) -> _WorkGraph:
    """``g`` itself when it is a working graph, else a working graph on it."""
    return g if isinstance(g, _WorkGraph) else _WorkGraph(g)


def _index(g) -> _RunIndex:
    """The run index detection reads: the chain's own on the working graph."""
    return g.run_index() if isinstance(g, _WorkGraph) else _RunIndex(g)


def detect_configuration(g: Graph) -> Configuration | None:
    """First firing configuration in dispatch order (that of ``KINDS``),
    or None.  On a working graph the run index keeps the configuration
    until the next edit, so detecting again before it runs no detector,
    and syncs its runs only if DegreeOne does not fire.  No later kind
    fires on a residual of cycles of 2-vertices and isolated vertices."""
    idx = g.pendant_index() if isinstance(g, _WorkGraph) else _RunIndex(g)
    synced = False
    for kind in _REGISTRY if idx.found is None else ():
        if not synced and kind.name != "DegreeOne":
            idx.sync()
            synced = True
            if not idx.run_of and idx.pendant() is None and g.max_degree() <= 2:
                break
        found = kind.detect(g, idx)
        if found is not None:
            idx.found, idx.seen = found, (dict(found.data), dict(found.potentials))
            break
    return idx.found


# ---------------------------------------------------------------------------
# reduction surgeries

from .matching import maximum_bipartite_matching  # noqa: E402


class ConstructiveFailure(Exception):
    """The exhaustive fallback could not produce an 8-coloring."""


def _edge_removal(g: _WorkGraph, edges, tag: str, detail: dict, recipe: tuple) -> Reduction:
    for u, v in edges:
        g.remove_edge(u, v)
    return Reduction(g, (), (), tag, {"removed_edges": tuple(edges)}, detail, recipe)


def _vertex_removal(g: _WorkGraph, dropped, tag: str, detail: dict, recipe: tuple) -> Reduction:
    removed = tuple(sorted(dropped))
    for v in removed:
        g.remove_vertex(v)
    return Reduction(g, removed, (), tag, {}, detail, recipe)


def _surgery(
    g: _WorkGraph,
    dropped,
    paths: list[tuple[int, int, int]],
    tag: str,
    detail: dict,
    recipe: tuple,
) -> Reduction:
    """Remove ``dropped`` and splice in the given (u, v, k) paths in order.

    Each splice requires the current graph's potential of {u, v} to reach
    7-2k (re-verified here); a k=0 splice whose edge already exists is
    skipped, since the adjacency already enforces the constraint the edge
    would add.
    """
    red = _vertex_removal(g, dropped, tag, detail, recipe)
    red.recorded["splices"] = []
    added: list[int] = []
    for u, v, k in paths:
        if k == 0 and g.has_edge(u, v):
            red.recorded["splices"].append({"k": 0, "pre_existing": True})
            continue
        need = 7 - 2 * k
        have = rho_star(g, {u, v}).value
        if have < need:
            raise InternalContradiction(
                f"{tag}: potential {have} below required {need} for a k={k} splice"
            )
        red.recorded["splices"].append({"k": k, "need": need, "have": have})
        added.extend(g.add_path(u, v, k))
    red.added = tuple(added)
    return red


def _greedy(order) -> tuple:
    """The tag, detail and recipe of a greedy kind: color ``order`` back
    greedily, in that order."""
    return "greedy", {"order": order}, (("greedy", order),)


def _apply_degree_one(g, cfg):
    """Peel the pendant edges that repeated DegreeOne steps would, at once.

    After the configuration's own edge, the smallest degree-1 vertex drops
    its edge next (the vertex ``_detect_degree_one`` would pick), until none
    is left or the solver's loop would stop at ``BASE_THRESHOLD``.  Coloring
    the peeled vertices back in reverse order gives the per-edge chain's
    colors: the vertices peeled before one are unset when it is colored,
    and every other vertex within distance 2 of it is colored alike.
    """
    v, u = cfg.data["v"], cfg.data["u"]
    adj, heap, live = g.adjacency, g.pendant_index().pendants, len(g.vertices())
    dropped = []
    while True:  # only edges go, so the live count stays and size() is live + m
        g.remove_edge(v, u)
        dropped.append((v, u))
        if len(adj[u]) == 1:
            heapq.heappush(heap, u)
        while heap and len(adj[heap[0]]) != 1:
            heapq.heappop(heap)
        if not heap or live + g.m <= BASE_THRESHOLD:
            break
        v, u = heap[0], adj[heap[0]][0]
    tag, detail, recipe = _greedy(tuple(v for v, _ in reversed(dropped)))
    return Reduction(g, (), (), tag, {"removed_edges": tuple(dropped)}, detail, recipe)


def _apply_four_plus_path(g, cfg):
    chain = cfg.data["chain"]
    return _edge_removal(g, [(chain[2], chain[3])], *_greedy((chain[3], chain[2])))


def _apply_three_path_bad_end(g, cfg):
    r: PathDescriptor = cfg.data["run"]
    if cfg.data["case"] == "closed":
        i0, i1, i2 = r.internal
        return _vertex_removal(g, set(r.internal), *_greedy((i0, i2, i1)))
    ints = _oriented_from(r, cfg.data["low"])
    return _edge_removal(g, [(ints[0], ints[1])], *_greedy((ints[0], ints[1])))


def _apply_two_path_bad_ends(g, cfg):
    r: PathDescriptor = cfg.data["run"]
    if cfg.data["case"] == "closed":
        return _vertex_removal(g, set(r.internal), *_greedy(r.internal))
    ints = _oriented_from(r, cfg.data["low"])
    # keep-first vertex is the internal far from the low-degree endpoint
    return _edge_removal(g, [(ints[0], ints[1])], *_greedy((ints[1], ints[0])))


def _apply_two_path_chord(g, cfg):
    r: PathDescriptor = cfg.data["run"]
    return _vertex_removal(g, set(r.internal), *_greedy(_oriented_from(r, cfg.data["seven"])))


def _apply_small_vertex(g, cfg):
    v, w = cfg.data["v"], cfg.data["w"]
    return _edge_removal(g, [(v, w)], *_greedy((v, w)))


def _apply_counting_pair(g, cfg):
    w = cfg.data["w"]
    removed = cfg.data["removed_neighbors"]
    order = (w,) + tuple(reversed(removed))
    return _edge_removal(g, [(w, u) for u in removed], *_greedy(order))


def _apply_three_path_cycle(g, cfg):
    anchors = cfg.data["anchors"]
    triples = tuple(_oriented_from(r, a) for a, r in zip(anchors, cfg.data["runs"]))
    # the run ends make an even cycle, colored from their lists; the middles last
    recipe = (("ring", tuple(v for a, _, b in triples for v in (a, b))),
              ("greedy", tuple(y for _, y, _ in triples)))
    return _vertex_removal(g, set(chain(*triples)), "cycle-threepaths",
                           {"anchors": anchors, "triples": triples}, recipe)


def _w_triples(g: Graph, wvertices):
    """(w, first internals of its two capped runs) per capped 3-vertex."""
    out = []
    for w in wvertices:
        starts = [n for n in g.adjacency[w] if g.degree(n) == 2]
        out.append((w, starts[0], starts[1]))
    return out


def _first_fit(g: _WorkGraph, templates, message: str) -> Reduction:
    """The surgery of the first ``(dropped, paths, tag, detail, recipe)``
    template that fits.  ``_surgery`` re-proves each splice, so a template
    fits when it does not raise; one that falls short is undone before the
    next is tried, and the step keeps one undo record."""
    for template in templates:
        try:
            return _surgery(g, *template)
        except InternalContradiction:  # a certificate fell short: next template
            g.undo()
            g.begin()
    raise InternalContradiction(message)


def _far_templates(dropped, v: int, triples, tag: str, detail: dict, recipe):
    """The k=2 splice templates from ``v`` to each far end of ``triples``
    other than ``v``, in order; ``chosen`` is the far end's position, and
    ``recipe(chosen)`` the template's recipe."""
    for pos, (_, _, far) in enumerate(triples):
        if far != v:
            yield dropped, [(v, far, 2)], tag, dict(detail, chosen=pos), recipe(pos)


def _apply_weird_seven(g, cfg):
    u = cfg.data["u"]
    six = cfg.data["six"]
    case = cfg.data["case"]
    dropped = {u}
    for _, ints, _ in six:
        dropped.update(ints)
    w, ints, far = cfg.data["extra"]
    if case == "deg-three":  # a 3-neighbor with two capped runs
        extra = _w_triples(g, [w])[0]
        dropped.update(extra)
    else:
        extra = (ints[0], ints[1], far)
        dropped.update(ints[:2])
    a, b, c = extra
    core = (*sorted(s[1][0] for s in six), u, *sorted(s[1][1] for s in six))
    if case == "three-path":
        recipe = (("greedy", (a, *core, b)),)
    elif case == "two-path":  # a color from beyond the far end c, so b sees a repeat
        recipe = (("repeat", a, c, b), ("greedy", (*core, b)))
    else:
        recipe = (("greedy", (a, *core, b, c)),)
    detail = {"u": u, "six": six, "case": case, "extra": extra}
    return _vertex_removal(g, dropped, "weird-seven", detail, recipe)


def _apply_weird_six(g, cfg):
    u = cfg.data["u"]
    paths = cfg.data["paths"]
    dropped = {u}
    for _, ints, _ in paths:
        dropped.update(ints)
    triples = tuple((ints[0], ints[1], far) for _, ints, far in paths)
    firsts, seconds = [t[0] for t in triples], [t[1] for t in triples]
    recipe = (("share", seconds[0], firsts[1]),
              ("greedy", (*seconds[1:], u, *firsts[2:], firsts[0])))
    return _vertex_removal(g, dropped, "weird-six", {"u": u, "paths": triples}, recipe)


def _bridge_template(u, v, w, pu, pw):
    """The two-consecutive splice of u to w past v, whose 3-runs ``pu`` and
    ``pw`` run from u and from w."""
    recipe = (("copy", pu[0], ("added", 0)), ("copy", pw[0], ("added", 2)),
              ("sdr", (pu[2], pw[2])), ("greedy", (pu[1], pw[1])))
    detail = {"u": u, "v": v, "w": w, "pu": pu, "pw": pw}
    return set(pu) | set(pw), [(u, w, 3)], "two-consecutive", detail, recipe


def _apply_two_consecutive(g, cfg):
    d = cfg.data
    return _surgery(g, *_bridge_template(d["u"], d["v"], d["w"], d["pu"], d["pw"]))


def _apply_three_consecutive(g, cfg):
    a, b, c, d = cfg.data["anchors"]
    r1, r2, r3 = cfg.data["runs"]
    templates = (
        _bridge_template(u, v, w, _oriented_from(ru, u), _oriented_from(rw, w))
        for (u, v, w), (ru, rw) in (((a, b, c), (r1, r2)), ((b, c, d), (r2, r3)))
    )
    return _first_fit(
        g, templates, "both bridge splices unavailable on three consecutive 3-paths"
    )


def _apply_seven_seven(g, cfg):
    u, v = cfg.data["u"], cfg.data["v"]
    p = cfg.data["p"]
    six = cfg.data["six"]
    dropped = set(p)
    for _, ints, _ in six:
        dropped.update(ints)
    six_ends = tuple((ints[0], ints[1], f) for _, ints, f in six)
    detail = {"u": u, "v": v, "p": p, "six": six_ends}
    recipe = (("unset", (u,)), ("copy", p[1], ("added", 0)),
              ("sdr", (p[0], u, *(t[0] for t in six_ends))),
              ("greedy", tuple(t[1] for t in six_ends)))
    templates = _far_templates(dropped, v, six_ends, "seven-seven", detail, lambda _: recipe)
    return _first_fit(g, templates, "no splice endpoint for the capped 7-vertex")


def _apply_sponsor_bridges(g, cfg):
    u, v = cfg.data["u"], cfg.data["v"]
    p = cfg.data["p"]
    qpaths = cfg.data["qpaths"]
    dropped = set(p)
    for _, ints, _ in qpaths:
        dropped.update(ints)
    triples = tuple((ints[0], ints[1], far) for _, ints, far in qpaths)
    q1, q2 = tuple(t[0] for t in triples), tuple(t[1] for t in triples)
    detail = {"u": u, "v": v, "p": p, "q": triples}
    splice = (("copy", p[2], ("added", 0)), ("sdr", (p[0], *q1)), ("greedy", (p[1], *q2)))
    edge = (("copy", p[2], u), ("greedy", (*q1, p[0], p[1], *q2)))
    templates = chain(
        _far_templates(dropped, v, triples, "sponsor-bridges-a", detail, lambda _: splice),
        [(dropped, [(u, v, 0)], "sponsor-bridges-b", detail, edge)],
    )
    return _first_fit(g, templates, "no splice available at the bridged sponsor")


def _sponsor_parts(g, cfg):
    """What the saturated sponsors' recipes read: the (w, r, s) triple of
    each capped 3-vertex w, the (first, second, far) triple of each capped
    2-run, its firsts and its seconds, and the r's and s's, which the
    recipes color last."""
    wtriples = tuple(_w_triples(g, cfg.data["wvertices"]))
    qtriples = tuple((ints[0], ints[1], far) for _, ints, far in cfg.data["qpaths"])
    q1, q2 = [t[0] for t in qtriples], [t[1] for t in qtriples]
    rs = [x for _, r, s in wtriples for x in (r, s)]
    return wtriples, qtriples, q1, q2, rs


def _others(xs, *skip) -> list:
    """The entries of ``xs`` whose positions are not in ``skip``."""
    return [x for t, x in enumerate(xs) if t not in skip]


def _apply_sponsor_all_bad(g, cfg):
    u, v = cfg.data["u"], cfg.data["v"]
    p = cfg.data["p"]
    ws = cfg.data["wvertices"]
    wtriples, qtriples, q1, q2, rs = _sponsor_parts(g, cfg)
    k = len(qtriples)
    detail = {"u": u, "v": v, "p": p, "q": qtriples, "w": wtriples}

    local = [x for triple in wtriples for x in triple]
    if k == 0:
        dropped = {u, p[0], p[1], *local}
        recipe = (("greedy", (*ws, p[0], u, p[1], *rs)),)
        return _vertex_removal(g, dropped, "sponsor-allbad-k0", detail, recipe)

    if k == 1:
        dropped = {u, *p, q1[0], q2[0], *local}
        recipe = (("copy", p[2], ("added", 0)), ("copy", q2[0], ("added", 2)),
                  ("greedy", (*ws, q1[0])), ("sdr", (u, p[0])), ("greedy", (p[1], *rs)))
        return _surgery(
            g, dropped, [(v, qtriples[0][2], 3)], "sponsor-allbad-k1", detail, recipe
        )

    dropped = {u, *p, *q1, *q2}
    far = [t[2] for t in qtriples]

    def keep(*kept):
        """Uncolor the capped 3-vertices and their runs' first internals,
        except the 3-vertices ``kept``, whose colors the recipe copies."""
        return ("unset", tuple(x for x in local if x not in kept))

    def templates():
        """(dropped, paths, tag, detail, recipe) per template, in order."""
        # two capped-path far ends splice plus a direct edge to a w
        for i in range(k):
            for ip in range(i + 1, k):
                if far[i] == far[ip] or far[i] == v or far[ip] == v:
                    continue
                for j, w in enumerate(ws):
                    if w != v:
                        mids = sorted(_others(ws, j) + _others(q1, i, ip))
                        yield (dropped, [(far[i], far[ip], 2), (v, w, 0)],
                               "sponsor-allbad-claim2", dict(detail, i=i, ip=ip, j=j),
                               (keep(w), ("copy", p[2], w), ("copy", q2[i], ("added", 0)),
                                ("copy", q2[ip], ("added", 1)),
                                ("greedy", (*_others(q2, i, ip), u, *mids)),
                                ("sdr", (q1[i], q1[ip])), ("greedy", (p[0], p[1], *rs))))
        # two direct edges into distinct w's; when w_j and w_j' share a
        # color, nothing in the reduced graph parted these two neighbors of
        # u, so w_j is recolored: it sees at most 3 colors here (w_j' and
        # the second vertices of its two capped runs), and p[2] and q_i[1]
        # still repeat the color of w_j' at p[0] and q_i[0]
        for jp, wjp in enumerate(ws):
            if wjp == v:
                continue
            for i in range(k):
                for j, wj in enumerate(ws):
                    if j != jp and far[i] != wj:
                        mids = sorted(_others(ws, j, jp) + _others(q1, i))
                        yield (dropped, [(v, wjp, 0), (far[i], wj, 0)],
                               "sponsor-allbad-claim3", dict(detail, i=i, j=j, jp=jp),
                               (keep(wj, wjp), ("copy", p[2], wjp), ("copy", q2[i], wj),
                                ("part", wj, wjp),
                                ("greedy", (*_others(q2, i), u, *mids, q1[i], p[0], p[1],
                                            *rs))))
        # two capped-path splices
        for i in range(k):
            for ip in range(i + 1, k):
                if far[i] == far[ip]:
                    continue
                for ipp in range(k):
                    if ipp not in (i, ip) and far[ipp] != v:
                        yield (dropped, [(far[i], far[ip], 2), (v, far[ipp], 2)],
                               "sponsor-allbad-claim4", dict(detail, i=i, ip=ip, ipp=ipp),
                               (keep(), ("copy", p[2], ("added", 2)),
                                ("copy", q2[ipp], ("added", 3)),
                                ("copy", q2[i], ("added", 0)), ("copy", q2[ip], ("added", 1)),
                                ("greedy", tuple(_others(q2, i, ip, ipp))),
                                ("sdr", (u, p[0], *ws, *q1)), ("greedy", (p[1], *rs))))
        # one capped-path splice at v plus a far-to-w edge
        for ip in range(k):
            if far[ip] == v:
                continue
            for i in range(k):
                for j, wj in enumerate(ws):
                    if i != ip and far[i] != wj:
                        yield (dropped, [(v, far[ip], 2), (far[i], wj, 0)],
                               "sponsor-allbad-claim5", dict(detail, i=i, ip=ip, j=j),
                               (keep(wj), ("copy", p[2], ("added", 0)),
                                ("copy", q2[ip], ("added", 1)), ("copy", q2[i], wj),
                                ("greedy", tuple(_others(q2, i, ip))),
                                ("sdr", (u, p[0], *_others(ws, j), *q1)),
                                ("greedy", (p[1], *rs))))

    return _first_fit(g, templates(), "no splice template fits the saturated sponsor")


def _apply_sponsor_small_x(g, cfg):
    u, v, x = cfg.data["u"], cfg.data["v"], cfg.data["x"]
    p = cfg.data["p"]
    ws = cfg.data["wvertices"]
    wtriples, qtriples, q1, q2, rs = _sponsor_parts(g, cfg)
    dropped = {u, *p, *q1, *q2}
    detail = {"u": u, "v": v, "x": x, "p": p, "q": qtriples, "w": wtriples}
    local = (*(y for triple in wtriples for y in triple), x)
    last = (p[1], q2[0], *rs)  # the capped 2-run q_0 plays the first slot

    def splice(i0):
        copies = (("copy", q2[i0], ("added", 1)),) if i0 else ()
        return (("unset", local), ("copy", p[2], ("added", 0)), *copies,
                ("greedy", tuple(_others(q2, 0, i0))), ("sdr", (u, x, p[0], *q1, *ws)),
                ("greedy", last))

    def edge(z):
        hall = (u, *q1, *(w for w in ws if w != z), *((x,) if x != z else ()))
        return (("unset", tuple(y for y in local if y != z)), ("copy", p[2], z),
                ("greedy", tuple(q2[1:])), ("sdr", hall), ("greedy", (p[0], *last)))

    templates = chain(
        _far_templates(dropped, v, qtriples, "sponsor-smallx-a", detail, splice),
        ((dropped, [(v, z, 0)], "sponsor-smallx-b", dict(detail, z=z), edge(z))
         for z in sorted(set(ws) | {x}) if z != v),
    )
    return _first_fit(g, templates, "no splice available at the small-reach sponsor")


def apply_reduction(g: Graph, cfg: Configuration) -> Reduction:
    """Perform the configuration's surgery; the result is strictly smaller
    and any spliced path's density precondition is re-verified, followed by
    an independent exact density check of the reduced graph.

    ``g`` is left as it is and the result holds the reduced ``Graph``;
    the solver's working graph is edited in place instead, behind an undo
    record.
    """
    wg = _working(g)
    cfg.validate(wg)
    before = wg.size()
    wg.begin()
    red = _BY_KIND[cfg.kind].apply(wg, cfg)
    if wg.size() >= before:
        raise AssertionError(f"{cfg.kind}: reduction failed to shrink the graph")
    if red.recorded.get("splices"):
        value, _ = mad_exact(wg)
        if value > DENSITY_BOUND:
            raise InternalContradiction(
                f"{cfg.kind}: spliced graph exceeds density 18/7 ({value})"
            )
        red.recorded["density_after"] = str(value)
    return red if wg is g else _dense(red)


def _dense(red: Reduction) -> Reduction:
    """``red`` with its working graph replaced by a ``Graph`` snapshot,
    numbered by rank, and ``added`` in the snapshot's ids."""
    h, remap = remove_vertices(red.graph, ())
    return replace(red, graph=h, added=tuple(remap[v] for v in red.added))


# ---------------------------------------------------------------------------
# coloring extensions


def _greedy_seq(g: Graph, phi: Coloring, order, tag: str) -> None:
    """Color ``order`` in turn, each with the first of ``available_colors``."""
    colors, adjacency, get = phi.colors, g.adjacency, phi.colors.get
    touched = phi.touched if isinstance(phi, _Tracked) else set()
    for v in order:
        own = colors.pop(v, None)  # v's own color does not block it
        used = set()
        for w in adjacency[v]:
            used.add(get(w))
            for x in adjacency[w]:
                used.add(get(x))
        c = 1
        while c in used:
            c += 1
        if c > phi.k:
            if own is not None:
                colors[v] = own
            raise ExtensionError(tag, v, seen_colors(g, phi, v))
        colors[v] = c
        touched.add(v)


def _sdr_seq(g: Graph, phi: Coloring, targets, tag: str) -> None:
    targets = list(targets)
    lists = [tuple(available_colors(g, phi, t)) for t in targets]
    match = maximum_bipartite_matching(lists)
    if len(match) != len(targets):
        blocked = next(t for i, t in enumerate(targets) if i not in match)
        raise ExtensionError(tag, blocked, dict(zip(targets, lists)))
    for i, t in enumerate(targets):
        phi.set(t, match[i])


def _run_recipe(g: Graph, phi: Coloring, red: Reduction) -> None:
    """Run ``red.recipe`` on ``g``, the graph before the step, extending
    ``phi`` from the reduced graph's coloring.  Its steps, in order:

    - ``("unset", vs)``: uncolor the vertices ``vs``;
    - ``("greedy", order)``: uncolor ``order``, then ``_greedy_seq``: each
      of its vertices in turn gets its first free color;
    - ``("sdr", targets)``: ``_sdr_seq``, distinct free colors by matching;
    - ``("copy", v, src)``: v takes the color of ``src``, a vertex or
      ``("added", i)`` for the spliced vertex ``red.added[i]``;
    - ``("ring", cycle)``: list-color the even cycle from its free colors;
    - ``("share", a, b)``: a and b take the least color free at both;
    - ``("part", a, b)``: when a repeats b's color, recolor a greedily;
    - ``("repeat", t, z, t2)``: t takes the least color that a neighbor of
      z other than t2 holds and z does not, so that t2 sees a repeat, or
      else its first free color.

    A blocked step raises ExtensionError with the tag and the blocked
    vertex; an unknown step raises ValueError.
    """
    tag, colors = red.tag, phi.colors
    touched = phi.touched if isinstance(phi, _Tracked) else set()
    for step in red.recipe:
        op = step[0]
        if op == "greedy":
            for v in step[1]:
                colors.pop(v, None)
            _greedy_seq(g, phi, step[1], tag)
        elif op == "unset":
            for v in step[1]:
                colors.pop(v, None)
            touched.update(step[1])
        elif op == "sdr":
            _sdr_seq(g, phi, step[1], tag)
        elif op == "copy":
            src = step[2]
            phi.set(step[1], phi.get(red.added[src[1]] if isinstance(src, tuple) else src))
        elif op == "ring":
            cycle = step[1]
            lists = [available_colors(g, phi, v) for v in cycle]
            bad = next((v for v, l in zip(cycle, lists) if len(l) < 2), None)
            if bad is not None:
                raise ExtensionError(tag, bad, seen_colors(g, phi, bad))
            chosen = _list_color_cycle(lists)
            if chosen is None:
                raise ExtensionError(tag, cycle[0], dict(zip(cycle, lists)))
            for v, c in zip(cycle, chosen):
                phi.set(v, c)
        elif op == "share":
            _, a, b = step
            la, lb = available_colors(g, phi, a), available_colors(g, phi, b)
            common = min(set(la).intersection(lb), default=None)
            if common is None:
                raise ExtensionError(tag, a, {"deep": la, "near": lb})
            phi.set(a, common)
            phi.set(b, common)
        elif op == "part":
            _, a, b = step
            if phi.get(a) == phi.get(b):  # a's own color does not block it
                _greedy_seq(g, phi, (a,), tag)
        elif op == "repeat":
            _, t, z, t2 = step
            usable = {phi.get(y) for y in g.adjacency[z] if y != t2} - {None, phi.get(z)}
            if usable:
                phi.set(t, min(usable))
            else:
                _greedy_seq(g, phi, (t,), tag)
        else:
            raise ValueError(f"{tag} recipe: unknown step {op!r}")


def extend_coloring(g: Graph, cfg: Configuration, red: Reduction, ch: Coloring) -> Coloring:
    """Lift a total coloring of the reduced graph back onto ``g``.

    ``red.recipe`` runs on ``g`` as it was before the step; it may read the
    colors of the spliced vertices, which are dropped after it.  A blocked
    step (impossible when the detector's side conditions held) raises
    ExtensionError with the full constraint state.  On a ``Graph``, ``ch``
    colors ``red.graph``, the spliced vertices get the ids after ``g``'s,
    and the whole result is re-validated.  On the solver's working graph,
    the step is undone, ``ch`` (keyed by stable id) is extended in place,
    and only the neighbourhoods the step can reach are checked.
    """
    if isinstance(g, _WorkGraph):
        g.undo()
        ch.touched.clear()
        _run_recipe(g, ch, red)
        t = ch.touched.union(red.removed)
        for e in red.recorded.get("removed_edges", ()):
            t.update(e)
        for v in red.added:
            ch.unset(v)
        violation = _local_violation(g, ch, t)
        if violation is not None:
            raise ExtensionError(red.tag, violation, {"stage": "local-validation"})
        return ch
    if not ch.is_total(red.graph):
        raise ValueError("reduced-graph coloring must be total")
    if ch.k != PALETTE:
        raise ValueError(f"palette must be {PALETTE}")
    gone = set(red.removed)
    added = tuple(range(g.n, g.n + len(red.added)))
    ids = [v for v in g.vertices() if v not in gone] + list(added)
    phi = Coloring(PALETTE, {v: ch.get(i) for i, v in enumerate(ids)})
    _run_recipe(g, phi, replace(red, added=added))
    for v in added:
        phi.unset(v)
    ok, violation = is_valid_2distance(g, phi)
    if not ok:
        raise ExtensionError(red.tag, violation, {"stage": "final-validation"})
    return phi


# ---------------------------------------------------------------------------
# vertex classification for the discharging engine


@dataclass(frozen=True)
class VertexClasses:
    """Structural roles used by the charge rules."""

    two_kind: dict[int, str]
    one_path_bridges: frozenset[int]
    bridge_pairs: tuple[dict, ...]
    sponsors: dict[int, int]
    roots: frozenset[int]


def classify_vertices(g: Graph) -> VertexClasses:
    """Label 2-vertices small/medium/large, find bridge structures, and
    assign sponsors, reading the run index the detectors read.

    Requires the 3-paths to form a forest of stars: a closed 3-path, or
    what the ThreePathCycle or ThreeConsecutiveThreePaths detector finds,
    is refused.  Star centers root their stars; a single-path tree roots
    at an end chosen by ``_end_potentials``; every non-root 3-path endpoint
    sponsors the path's middle vertex.  The runs are taken in (first
    endpoint, first internal) order, that of ``degree_two_runs``.
    """
    idx = _index(g)
    key = lambda r: (r.endpoints[0], r.internal[0])  # noqa: E731
    runs = sorted((r for x, r in idx.run_of.items() if x == r.internal[0]), key=key)
    for r in runs:
        if r.length == 3 and r.closed:
            raise ForestOfStarsError("a 3-path closes on its own anchor", r)
    for kind, message in (("ThreePathCycle", "the 3-paths contain a cycle"),
                          ("ThreeConsecutiveThreePaths", "three consecutive 3-paths")):
        cfg = _BY_KIND[kind].detect(g, idx)
        if cfg is not None:
            raise ForestOfStarsError(message, cfg.data)

    two_kind = {v: _two_kind(g, v) for v in g.vertices() if g.degree(v) == 2}
    one_path: set[int] = set()
    pairs: list[dict] = []
    for r in runs:
        (a, b), ints = r.endpoints, r.internal
        da, db = g.degree(a), g.degree(b)
        if r.length == 1 and ((da == 3 and db >= 6) or (db == 3 and da >= 6)):
            one_path.add(ints[0])
        for seven, first in ((a, ints[0]), (b, ints[-1])) if r.length == 2 else ():
            slot = (first, *idx.from_edge[(seven, first)])
            if g.degree(seven) == 7 and _capped(g, seven, slot, 5):
                _, (near_seven, near_low), low = slot
                pairs.append({"seven": seven, "low": low,
                              "near_seven": near_seven, "near_low": near_low})

    sponsors: dict[int, int] = {}
    roots: set[int] = set()
    for anchor, links in sorted(idx.three_adj.items()):
        if len(links) >= 2:
            roots.add(anchor)
            for other, r in sorted(links, key=lambda link: key(link[1])):
                sponsors[other] = r.internal[1]
    for r in runs:
        a, b = r.endpoints
        if r.length != 3 or a in roots or b in roots:
            continue
        pa, pb = _end_potentials(g, r.internal, a, b)
        root, other = (a, b) if pa >= pb else (b, a)
        roots.add(root)
        sponsors[other] = r.internal[1]

    return VertexClasses(
        two_kind, frozenset(one_path), tuple(pairs), sponsors, frozenset(roots)
    )


# ---------------------------------------------------------------------------
# the constructive solver


def _base_color(g: _WorkGraph) -> dict[int, int]:
    """Color the residual working graph, on which no configuration fires,
    by stable id: an isolated vertex 1, a cycle of 2-vertices by
    ``cycle_pattern``, any other component by search on its snapshot."""
    if g.size() <= BASE_THRESHOLD:
        h, remap = remove_vertices(g, ())
        c = color_2distance(h, PALETTE)
        if c is None:
            raise ConstructiveFailure("exhaustive base case found no 8-coloring")
        return {v: c.colors[remap[v]] for v in g.vertices()}
    colors: dict[int, int] = {}
    for ring in degree_two_runs(g)[1]:
        colors.update(zip(ring, cycle_pattern(len(ring))))
    adj = g.adjacency
    for v in g.vertices():
        if v in colors:
            continue
        if not adj[v]:
            colors[v] = 1
            continue
        comp, todo = {v}, [v]
        while todo:
            new = set(adj[todo.pop()]) - comp
            comp |= new
            todo += new
        sub, remap = remove_vertices(g, set(g.vertices()) - comp)
        if sub.max_degree() == 7:
            raise InternalContradiction(
                "no configuration fires on an irreducible max-degree-7 component"
            )
        c = color_2distance(sub, PALETTE, budget=5_000_000)
        if c is None:
            raise ConstructiveFailure(
                "irreducible low-degree component admits no 8-coloring"
            )
        for x in comp:
            colors[x] = c.colors[remap[x]]
    return colors


def constructive_color(g: Graph | _WorkGraph, verify_preconditions: bool = True) -> Coloring:
    """Exact 2-distance 8-coloring via chained configuration reductions.

    Preconditions (verified by default): maximum degree at most 7 and exact
    density at most 18/7, which holds exactly when no vertex set has a
    negative potential.  Emits InternalContradiction if no detector fires
    on a non-base max-degree-7 instance, which the underlying result rules
    out.  ``g`` may be a working graph that only detection or classification
    has read yet, so such a caller shares its run index; the coloring is of,
    and validated against, the ``Graph`` it was built from.
    """
    wg = g if isinstance(g, _WorkGraph) else _WorkGraph(g)
    g = wg.graph
    if g.max_degree() > 7:
        raise ValueError("constructive coloring requires maximum degree <= 7")
    if verify_preconditions and g.m and rho_star(g, ()).value < 0:
        value, witness = mad_exact(g)
        raise ValueError(f"density {value} exceeds 18/7 (witness {sorted(witness)})")
    steps: list[tuple[Configuration, Reduction]] = []
    while wg.size() > BASE_THRESHOLD:
        cfg = detect_configuration(wg)
        if cfg is None:
            break
        steps.append((cfg, apply_reduction(wg, cfg)))
    phi = _Tracked(PALETTE, _base_color(wg))
    for cfg, red in reversed(steps):
        phi = extend_coloring(wg, cfg, red, phi)
    phi = Coloring(PALETTE, phi.colors)
    ok, violation = is_valid_2distance(g, phi)
    if not ok:
        raise ExtensionError("solver", violation, {"stage": "final"})
    return phi


# ---------------------------------------------------------------------------
# the configuration registry


def _require(cond: bool, kind: str, message: str) -> None:
    if not cond:
        raise ValueError(f"{kind} witness invalid: {message}")


def _validate_three_runs(g, idx, cfg):
    """The check of ThreePathCycle and ThreeConsecutiveThreePaths: each run
    is a 3-run the index holds, run i joins anchors i and i + 1 (cyclically
    for a cycle), and no anchor or run repeats, so no run is closed."""
    kind, cycle = cfg.kind, cfg.kind == "ThreePathCycle"
    anchors, runs = cfg.data.get("anchors"), cfg.data.get("runs")
    _require(isinstance(anchors, tuple) and isinstance(runs, tuple), kind, "not tuples")
    m = len(anchors)
    shape = len(runs) == m >= 2 if cycle else len(runs) + 1 == m == 4
    _require(shape, kind, "shape mismatch")
    for i, r in enumerate(runs):
        a, b = anchors[i], anchors[(i + 1) % m]
        _require(idx.holds(r) and r.length == 3, kind, "run length: not a 3-run of the graph")
        _require(r.endpoints in ((a, b), (b, a)), kind, "anchors do not chain")
    _require(len(set(anchors)) == m and len(set(runs)) == len(runs), kind,
             "anchor or run repeated")


class _Kind(NamedTuple):
    """One reducible configuration: its detector, surgery and witness check,
    and for a local kind the witness key that names its centre."""

    name: str
    detect: Callable
    apply: Callable
    validate: Callable
    centre: str | None = None


def _local(name: str, centre: str, centres, at, apply, potentials=None) -> _Kind:
    """A local kind, built on ``at``, its one enumerator of witnesses.

    The detector takes the first witness at the first of ``centres(g, idx)``
    that has one (a run kind's centres are its worklist's runs).  A witness
    is valid when ``at`` yields it at the centre it names under ``centre``.
    A potential-backed kind's ``potentials(g, idx, witness)`` gives the
    potentials, or None when its condition fails: detection asks it of
    each witness in turn, and validation once, of the witness it checks.
    """
    if centres is None:
        centres = lambda g, idx: idx.worklist(name)  # noqa: E731

    def detect(g, idx):
        for c in centres(g, idx):
            for data in at(g, idx, c):
                pots = {} if potentials is None else potentials(g, idx, data)
                if pots is not None:
                    return Configuration(name, data, pots)
        return None

    def validate(g, idx, cfg):
        c = cfg.data.get(centre)
        live = idx.holds(c) if centre == "run" else isinstance(c, int) and 0 <= c < g.n
        if not (live and cfg.data in at(g, idx, c)):
            raise ValueError(f"{name} witness invalid: no such witness at {centre} {c}")
        pots = {} if potentials is None else potentials(g, idx, cfg.data)
        _require(pots is not None, name, "potential condition fails")
        _require(pots == cfg.potentials, name, "potentials drifted")

    return _Kind(name, detect, apply, validate, centre)


#: Every configuration in dispatch order.  Cheap structural detectors run
#: before the potential-backed ones, and a later detector (and its
#: extension recipe) may assume that no earlier one fires anywhere in the
#: graph.
_REGISTRY: tuple[_Kind, ...] = (
    _local("DegreeOne", "v", _pendant, _degree_one_at, _apply_degree_one),
    _local("FourPlusPath", "run", None, _four_plus_path_at, _apply_four_plus_path),
    _local("ThreePathBadEnd", "run", None, _three_path_bad_end_at,
           _apply_three_path_bad_end),
    _local("TwoPathBadEnds", "run", None, _two_path_bad_ends_at,
           _apply_two_path_bad_ends),
    _local("TwoPathChord", "run", None, _two_path_chord_at, _apply_two_path_chord),
    _Kind("ThreePathCycle", _three_path_cycle, _apply_three_path_cycle,
          _validate_three_runs),
    _local("SmallVertex", "v", _of_degree(3, (ANCHOR + 1) // 2), _small_vertex_at,
           _apply_small_vertex),
    _local("CountingPair", "w", _vertices, _counting_pair_at, _apply_counting_pair),
    _local("WeirdSeven", "u", _of_degree(7, 7), _weird_seven_at, _apply_weird_seven),
    _local("WeirdSix", "u", _of_degree(6, 6), _weird_six_at, _apply_weird_six),
    _local("TwoConsecutiveThreePaths", "v", _three_anchors, _two_consecutive_at,
           _apply_two_consecutive, _bridge),
    _Kind("ThreeConsecutiveThreePaths", _three_consecutive_three_paths,
          _apply_three_consecutive, _validate_three_runs),
    _local("SevenSevenTwoPaths", "u", _of_degree(7, 7), _seven_seven_at,
           _apply_seven_seven, _orientation),
    _local("SponsorManyBridges", "u", _three_anchors, _sponsor_bridges_at,
           _apply_sponsor_bridges, _orientation),
    _local("SponsorAllBadNeighbors", "u", _three_anchors, _sponsor_all_bad_at,
           _apply_sponsor_all_bad, _orientation),
    _local("SponsorWithSmallX", "u", _three_anchors, _sponsor_small_x_at,
           _apply_sponsor_small_x, _small_x_potentials),
)
_BY_KIND = {kind.name: kind for kind in _REGISTRY}
#: The configuration kinds, in dispatch order.
KINDS = tuple(_BY_KIND)

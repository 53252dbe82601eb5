"""Exact potential-function machinery for sparse graphs.

The potential of a vertex set A in G is ``rho(A) = a|A| - b|E(G[A])|``
(default coefficients a=9, b=7, matching the density threshold
``mad <= 2a/b = 18/7``).  ``rho_star(A)`` minimizes rho over all supersets
of A; it is computed exactly, never with floating point, as a minimum cut
of a closure network.  When a >= b the network dissolves runs of
2-vertices into weighted edges, and a cycle of 2-vertices into a loop,
which keeps the answer (see ``_closure_minimum``).  The network is built
with no vertex forced, and every query patches its forced vertices in.  A
``Graph`` is frozen, so it keeps that network and its max flow as derived
data: a later query on it augments a copy and answers exactly as a fresh
build would.
``rho_star(g, A, without=D)`` answers in G - D with no copy of the graph
and no renumbering, so ids stay those of ``g``.  ``rho``, ``rho_star``
and ``mad_exact`` read only ``n``, ``m``, ``adjacency``, ``vertices()``
and ``edge_count_inside``: they run on the reduction chain's working
graph, whose ids may have gaps, as on a ``Graph``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable

from .flow import FlowNetwork
from .graph import Graph, remove_edges

#: Density threshold tied to the default coefficients: mad <= 18/7.
DENSITY_BOUND = Fraction(18, 7)


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of the potential a|S| - b|E(S)|."""

    a: int = 9
    b: int = 7

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("potential coefficients must be positive")


DEFAULT_PARAMS = PotentialParams()


@dataclass(frozen=True)
class PotentialResult:
    value: int
    witness: frozenset[int]
    params: PotentialParams


def _check_subset(g: Graph, a_set: Iterable[int]) -> frozenset[int]:
    """``a_set`` as a frozenset of live ids; ``vertices()`` is sorted (a
    range on a ``Graph``), so each id is looked up by bisection."""
    out = frozenset(a_set)
    live = g.vertices()
    for v in out:
        i = bisect_left(live, v)
        if i == len(live) or live[i] != v:
            raise ValueError(f"vertex {v} not in the graph")
    return out


def rho(g: Graph, a_set: Iterable[int], params: PotentialParams = DEFAULT_PARAMS) -> int:
    """Exact a|A| - b|E(G[A])|."""
    a = _check_subset(g, a_set)
    return params.a * len(a) - params.b * g.edge_count_inside(a)


class _Structure:
    """G - excluded shrunk for ``_closure_minimum`` with no vertex forced:
    the ``anchors``, which are network nodes 2, 3, ..., and ``runs``, each
    run of 2-vertices between anchors as (x, z, inner), whatever its gain.
    A cycle of 2-vertices with no anchor is a loop run on its smallest
    vertex.  Without ``shrink`` every edge is a run."""

    __slots__ = ("anchors", "node", "runs", "_where", "_starts")

    def __init__(self, g: Graph, shrink: bool, excluded: Iterable[int] = ()):
        adjacency = g.adjacency
        degree = [len(nbrs) for nbrs in adjacency]
        alive = [True] * g.n
        for x in excluded:
            alive[x] = False
            for w in adjacency[x]:
                degree[w] -= 1
        inner = [shrink and alive[v] and degree[v] == 2 for v in range(g.n)]
        self.anchors = [v for v in g.vertices() if alive[v] and not inner[v]]
        self.runs, self._where, self._starts = [], None, None
        reverse = set()  # where the walk back along each run walked would start
        loops = []
        # then each 2-vertex no walk has reached when the scan gets to it:
        # the smallest vertex of a cycle of 2-vertices with no anchor
        for x in chain(self.anchors, compress(range(g.n), inner)):
            if inner[x]:
                inner[x] = False
                loops.append(x)
            for first in adjacency[x]:
                if not alive[first] or (x, first) in reverse:
                    continue
                prev, z, run = x, first, []
                while inner[z]:
                    inner[z] = False  # walked
                    run.append(z)
                    nbrs = adjacency[z]
                    u, w = nbrs if len(nbrs) == 2 else [y for y in nbrs if alive[y]]
                    prev, z = z, w if u == prev else u
                reverse.add((z, prev))
                self.runs.append((x, z, run))
        self.anchors += loops
        self.node = {v: i for i, v in enumerate(self.anchors, 2)}

    def where(self) -> dict[int, tuple[int, int]]:
        """Run-internal vertex -> (run number, position), built on first use."""
        if self._where is None:
            self._where = {v: (r, i) for r, (_, _, run) in enumerate(self.runs)
                           for i, v in enumerate(run)}
        return self._where

    def starts(self) -> dict[int, list[tuple[int, int, list[int]]]]:
        """Anchor x -> (run number, z, inner) of each run (x, z, inner),
        built on first use and stored only once whole, since threads may
        share a ``Graph`` and so its structure."""
        if self._starts is None:
            starts: dict[int, list[tuple[int, int, list[int]]]] = {}
            for r, (x, z, run) in enumerate(self.runs):
                starts.setdefault(x, []).append((r, z, run))
            self._starts = starts
        return self._starts


def _terminal(net: FlowNetwork, i: int, weight: int) -> int:
    """Drain node ``i``'s weight to the sink, or feed its negative from the
    source; returns the feed."""
    if weight > 0:
        net.add_arc(i, 1, weight)
    elif weight < 0:
        net.add_arc(0, i, -weight)
    return max(-weight, 0)


def _network(structure: _Structure, vertex_cost: int, edge_gain: int, spare: int = 0):
    """The closure network of ``structure`` with no vertex forced and
    ``spare`` free nodes after the anchors, each run's gain and x -> z arc
    (-1 for none), and the summed feeds."""
    node = structure.node
    net = FlowNetwork(2 + len(node) + spare)
    weight = [2 * vertex_cost] * (2 + len(node))
    gains, arcs = [], []
    for x, z, run in structure.runs:
        gain = (len(run) + 1) * edge_gain - len(run) * vertex_cost
        gains.append(gain)
        arcs.append(len(net.to) if gain > 0 and x != z else -1)
        if gain > 0:
            weight[node[x]] -= gain
            weight[node[z]] -= gain
            if x != z:
                net.add_arc(node[x], node[z], gain, gain)
    return net, gains, arcs, sum(_terminal(net, i, weight[i]) for i in range(2, len(weight)))


def _force(net, structure, gains, arcs, forced, loose, vertex_cost, edge_gain):
    """Patch ``forced`` into ``net``, a network of ``structure`` that may
    carry a flow; returns the feed added and the new run pieces of positive
    gain.  A forced anchor gets an effectively infinite source arc.  The
    ``loose`` vertices, forced inside runs, become nodes after the anchors
    and cut their runs into pieces, and a run arc's flow moves onto its
    pieces: a piece of j <= k vertices gains at least the whole run's gain.
    An end anchor's weight falls by what its piece gains over the whole run,
    which is raised source capacity, so the flow stays valid."""
    node = dict(structure.node)
    node.update((v, i) for i, v in enumerate(loose, 2 + len(structure.anchors)))
    where = structure.where() if loose else {}
    cuts: dict[int, list[int]] = {}
    for v in loose:
        r, i = where[v]
        cuts.setdefault(r, []).append(i)
    minus_weight = dict.fromkeys(loose, -2 * vertex_cost)  # of each touched node
    pieces = []
    for r, at in cuts.items():
        (x, z, run), gain, arc = structure.runs[r], gains[r], arcs[r]
        flow = gain - net.cap[arc] if arc >= 0 else 0
        if arc >= 0:
            net.cap[arc] = net.cap[arc ^ 1] = 0
        minus_weight[x] = minus_weight.get(x, 0) - max(gain, 0)
        minus_weight[z] = minus_weight.get(z, 0) - max(gain, 0)
        at.sort()
        ends = [x] + [run[i] for i in at] + [z]
        for u, w, lo, hi in zip(ends, ends[1:], [-1] + at, at + [len(run)]):
            piece = run[lo + 1:hi]
            gain = (len(piece) + 1) * edge_gain - len(piece) * vertex_cost
            if gain > 0:
                net.add_arc(node[u], node[w], gain - flow, gain + flow)
                minus_weight[u] += gain
                minus_weight[w] += gain
                pieces.append((u, w, piece))
    feed = sum(_terminal(net, node[v], -w) for v, w in minus_weight.items())
    infinite = 1 + 2 * vertex_cost * net.size  # above the cut with every node in S
    for v in forced:
        net.add_arc(0, node[v], infinite)
    return feed, pieces


def _closure_minimum(
    g: Graph,
    forced: frozenset[int],
    vertex_cost: int,
    edge_gain: int,
    excluded: Iterable[int] = (),
) -> tuple[int, frozenset[int]]:
    """Minimize ``vertex_cost*|S| - edge_gain*|E(S)|`` over S containing
    ``forced`` in G - ``excluded``.

    If vertex_cost >= edge_gain, the graph shrinks first and keeps its
    smallest minimizer (the intersection of all minimizers).  Each maximal
    run of k 2-vertices of G - excluded between x and z (the anchors: every
    other vertex, degree <= 1 included) becomes one edge, a loop if x = z,
    of gain (k+1)*edge_gain - k*vertex_cost, kept only when positive: j
    unforced vertices of a run short of the whole cost at least
    j*(vertex_cost - edge_gain) >= 0.  A cycle of 2-vertices with no anchor
    is a loop on its smallest vertex.  Otherwise every vertex is an anchor.

    Vertex-only closure network on the anchors (Picard and Queyranne 1982,
    Goldberg 1984): anchor v has weight w = 2*vertex_cost minus the gains of
    its edges (a loop's twice) and drains w to the sink, or is fed -w from
    the source (C sums the feeds); an edge is an arc pair of its gain both
    ways; forced vertices get an effectively infinite source arc.  A cut
    with source side S costs C + 2*objective(S), so the minimum is
    (cut - C) / 2; the residual source side is the smallest minimizer, and
    the runs with both ends in it complete the witness.

    The structure and the network are built with no vertex forced, and
    every query patches its forced vertices in (``_force``).  On a
    ``Graph`` with nothing excluded, the structure per shrink flag and the
    network of the latest cost pair with its max flow are kept in
    ``g._closure`` and never changed: a query with nothing forced reads its
    answer there, any other patches a copy and augments the kept flow
    (dynamic cuts, Kohli and Torr 2005).  Elsewhere nothing is kept: the
    query patches a fresh network and runs one max flow from zero.
    """
    shrink = vertex_cost >= edge_gain
    keep = isinstance(g, Graph) and not excluded
    memo = g._closure if keep else {}
    structure = memo.get(shrink)
    if structure is None:
        structure = memo[shrink] = _Structure(g, shrink, excluded)
    loose = sorted(v for v in forced if v not in structure.node)
    base = memo.get("base")
    if base is None or base[0] != (vertex_cost, edge_gain):
        net, gains, arcs, feed = _network(structure, vertex_cost, edge_gain,
                                          0 if keep else len(loose))
        base = memo["base"] = ((vertex_cost, edge_gain), net, gains, arcs, feed,
                               net.max_flow(0, 1) if keep else 0)
    _, net, gains, arcs, feed, cut = base
    pieces = []
    if forced or not keep:
        if keep:
            net = net.copy(len(loose))
        added, pieces = _force(net, structure, gains, arcs, forced, loose, vertex_cost, edge_gain)
        feed += added
        cut += net.max_flow(0, 1)
    labels = structure.anchors + loose
    side = frozenset(labels[i - 2] for i in net.source_side(0) if i)
    starts = structure.starts()
    inside = [run for x in side for r, z, run in starts.get(x, ()) if gains[r] > 0 and z in side]
    inside += [piece for x, z, piece in pieces if x in side and z in side]
    return (cut - feed) // 2, side.union(*inside)


def rho_star(
    g: Graph, a_set: Iterable[int], params: PotentialParams = DEFAULT_PARAMS,
    *, without: Iterable[int] = (),
) -> PotentialResult:
    """Exact minimum of rho over all supersets of A; the witness is the
    smallest minimizer, contained in every superset attaining the minimum.

    With ``without=D`` the minimum is taken in G - D, over supersets of A
    that avoid D, in the ids of ``g``; A must not meet D.
    """
    a = _check_subset(g, a_set)
    d = _check_subset(g, without)
    if a & d:
        raise ValueError(f"forced vertices {sorted(a & d)} are excluded")
    value, witness = _closure_minimum(g, a, params.a, params.b, d)
    if not a <= witness:
        raise AssertionError("closure witness lost a forced vertex")
    if witness & d:
        raise AssertionError("closure witness holds an excluded vertex")
    if rho(g, witness, params) != value:
        raise AssertionError("closure value disagrees with direct recount")
    return PotentialResult(value, witness, params)


def _subset_edge_counts(g: Graph) -> list[int]:
    """edge_count_inside for every subset mask of V(g); requires small n."""
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    counts = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        counts[mask] = counts[rest] + bin(masks[low] & rest).count("1")
    return counts


def rho_star_bruteforce(
    g: Graph, a_set: Iterable[int], params: PotentialParams = DEFAULT_PARAMS
) -> PotentialResult:
    """Exhaustive minimum over every superset of A; test oracle, n <= 20."""
    if g.n > 20:
        raise ValueError("bruteforce oracle refuses n > 20")
    a = _check_subset(g, a_set)
    a_mask = sum(1 << v for v in a)
    counts = _subset_edge_counts(g)
    best_value = None
    best_mask = 0
    for mask in range(1 << g.n):
        if mask & a_mask != a_mask:
            continue
        val = params.a * bin(mask).count("1") - params.b * counts[mask]
        if best_value is None or val < best_value:
            best_value, best_mask = val, mask
    witness = frozenset(v for v in range(g.n) if best_mask >> v & 1)
    return PotentialResult(best_value, witness, params)


def mad_exact(g: Graph) -> tuple[Fraction, frozenset[int]]:
    """Exact maximum average degree with a densest vertex set as witness.

    Dinkelbach-style iteration: for the current density guess p/q, the
    closure reduction minimizes ``p|S| - 2q|E(S)|``; a negative minimum
    yields a strictly denser witness, a zero minimum proves optimality.
    Terminates because each round strictly increases the guess and only
    finitely many densities exist.
    """
    live = g.vertices()
    if not live:
        raise ValueError("mad of the empty graph is undefined")
    if g.m == 0:
        return Fraction(0), frozenset(live[:1])
    density = Fraction(2 * g.m, len(live))
    witness = frozenset(live)
    while True:
        p, q = density.numerator, density.denominator
        value, candidate = _closure_minimum(g, frozenset(), p, 2 * q)
        if value >= 0:
            return density, witness
        better = Fraction(2 * g.edge_count_inside(candidate), len(candidate))
        if better <= density:
            raise AssertionError("density iteration failed to improve")
        density, witness = better, candidate


def mad_bruteforce(g: Graph) -> Fraction:
    """Exhaustive max over nonempty subsets of 2|E(S)|/|S|; oracle, n <= 20."""
    if g.n > 20:
        raise ValueError("bruteforce oracle refuses n > 20")
    if g.n == 0:
        raise ValueError("mad of the empty graph is undefined")
    counts = _subset_edge_counts(g)
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        best = max(best, Fraction(2 * counts[mask], bin(mask).count("1")))
    return best


def add_path(g: Graph, u: int, v: int, k: int) -> Graph:
    """Join u and v by a path with ``k`` new internal 2-vertices.

    ``k=0`` adds a bare edge and requires u, v non-adjacent.  New vertices
    receive ids ``n .. n+k-1``.
    """
    if u == v:
        raise ValueError("path endpoints must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 and g.has_edge(u, v):
        raise ValueError("adding a duplicate edge")
    chain = [u] + list(range(g.n, g.n + k)) + [v]
    return Graph(g.n + k, list(g.edges()) + list(zip(chain, chain[1:])))


@dataclass
class LawReport:
    """Outcome of sampling the potential laws on one graph."""

    checked: dict[str, int] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, law: str, holds: bool, detail: dict) -> None:
        self.checked[law] = self.checked.get(law, 0) + 1
        if not holds:
            self.violations.append({"law": law, **detail})


def _random_subset(rng: random.Random, n: int, p: float = 0.35) -> frozenset[int]:
    return frozenset(v for v in range(n) if rng.random() < p)


def verify_potential_laws(
    g: Graph,
    trials: int = 50,
    rng: random.Random | None = None,
    params: PotentialParams = DEFAULT_PARAMS,
) -> LawReport:
    """Sample the superset, subgraph, submodularity, boundary, and
    path-addition laws of the potential on ``g``.

    The boundary law additionally requires every potential of ``g`` to be
    nonnegative (density at most 2a/b); it is skipped otherwise.  Violations
    are report content with full witnesses, never exceptions.
    """
    rng = rng or random.Random(0)
    report = LawReport()
    nonnegative = rho_star(g, frozenset(), params).value >= 0

    for _ in range(trials):
        a = _random_subset(rng, g.n)
        b = _random_subset(rng, g.n)
        s = a | _random_subset(rng, g.n)

        ra = rho_star(g, a, params).value
        # superset monotonicity: growing the forced set cannot lower rho*
        rs = rho_star(g, s, params).value
        report.record(
            "superset", rs >= ra, {"A": sorted(a), "S": sorted(s), "lhs": rs, "rhs": ra}
        )

        # passing to a subgraph cannot lower rho*
        if g.m:
            dropped = rng.sample(g.edges(), k=rng.randint(1, min(3, g.m)))
            h = remove_edges(g, dropped)
            rha = rho_star(h, a, params).value
            report.record(
                "subgraph",
                rha >= ra,
                {"A": sorted(a), "dropped": dropped, "lhs": rha, "rhs": ra},
            )

        # submodularity of rho* across unions and intersections
        rb = rho_star(g, b, params).value
        run = rho_star(g, a | b, params).value
        rin = rho_star(g, a & b, params).value
        report.record(
            "submodular",
            ra + rb >= run + rin,
            {"A": sorted(a), "B": sorted(b), "sum": ra + rb, "split": run + rin},
        )

        # boundary bound: after deleting A, any S covering N(A) keeps
        # potential at least b|E(A,S)| - rho(A); needs all potentials >= 0
        if nonnegative and a and len(a) < g.n:
            boundary = frozenset(
                w for v in a for w in g.adjacency[v] if w not in a
            )
            s_cover = boundary | (_random_subset(rng, g.n) - a)
            cross = sum(1 for u, v in g.edges() if (u in a) != (v in a) and (u in s_cover or v in s_cover))
            lhs = rho_star(g, s_cover, params, without=a).value
            rhs = params.b * cross - rho(g, a, params)
            report.record(
                "boundary",
                lhs >= rhs,
                {"A": sorted(a), "S": sorted(s_cover), "lhs": lhs, "rhs": rhs},
            )

        # path addition: rho* of sets through {u,v} drops by a bounded amount…
        if g.n >= 2:
            u, v = rng.sample(range(g.n), 2)
            k = rng.randint(0, 3)
            if k == 0 and g.has_edge(u, v):
                continue
            h2 = add_path(g, u, v, k)
            # a path with k internals costs b(k+1) edge units against ak
            drop = params.b - (params.a - params.b) * k
            base = rho_star(g, frozenset({u, v}) | a, params).value
            after = rho_star(h2, frozenset({u, v}) | a, params).value
            report.record(
                "path-drop",
                after >= base - drop,
                {"u": u, "v": v, "k": k, "before": base, "after": after},
            )
            # …and the two-sided chain for sets avoiding the new path
            ra_h2 = rho_star(h2, a, params).value
            ra_uv = rho_star(g, a | {u, v}, params).value
            chain_ok = ra_h2 == ra or (ra_h2 <= ra <= ra_uv <= ra_h2 + drop)
            report.record(
                "path-chain",
                chain_ok,
                {"A": sorted(a), "u": u, "v": v, "k": k,
                 "after": ra_h2, "before": ra, "forced": ra_uv},
            )
    return report

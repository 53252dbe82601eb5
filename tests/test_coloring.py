"""Coloring: validity, exact chi^2, decision search, Hall machinery."""

import functools
import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sparse2dc.coloring import (
    Coloring,
    SearchBudgetExceeded,
    _greedy_clique,
    _greedy_square_coloring,
    _local_violation,
    available_colors,
    chi2_exact,
    color_2distance,
    hall_check,
    is_valid_2distance,
    seen_colors,
    square_adjacency,
)
from sparse2dc.families import (
    cycle,
    hoffman_singleton,
    path,
    petersen,
    random_hub_network,
    random_skeleton,
    star,
)
from sparse2dc.graph import Graph, subdivide
from sparse2dc.reductions import ExtensionError, _greedy_seq, _sdr_seq, _Tracked

from conftest import bfs_distances, random_graph


def chi2_oracle(g: Graph, k_max: int = 12) -> int:
    """Independent exhaustive k-sweep over colorings of the square."""
    pairs = []
    for v in g.vertices():
        dist = bfs_distances(g, v)
        pairs.extend((v, w) for w, d in dist.items() if v < w and d <= 2)
    for k in range(1, k_max + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[w] for u, w in pairs):
                return k
    raise AssertionError("oracle sweep exhausted")


def sdr_oracle(lists) -> bool:
    """Exhaustive system-of-distinct-representatives search."""
    order = sorted(range(len(lists)), key=lambda i: len(lists[i]))

    def go(i, used):
        if i == len(order):
            return True
        for c in lists[order[i]]:
            if c not in used:
                if go(i + 1, used | {c}):
                    return True
        return False

    return go(0, frozenset())


class TestValidity:
    def test_rainbow_c5_valid(self):
        c = Coloring(5, {i: i + 1 for i in range(5)})
        ok, violation = is_valid_2distance(cycle(5), c)
        assert ok and violation is None

    def test_repeat_on_c5_invalid(self):
        c = Coloring(5, {0: 1, 1: 2, 2: 3, 3: 1, 4: 4})
        ok, violation = is_valid_2distance(cycle(5), c)
        assert not ok
        assert violation == (0, 3, 2)

    def test_proper_but_not_2distance(self):
        c = Coloring(3, {0: 1, 1: 2, 2: 1})
        ok, violation = is_valid_2distance(path(3), c)
        assert not ok and violation == (0, 2, 2)

    def test_partial_rejected(self):
        with pytest.raises(ValueError):
            is_valid_2distance(path(3), Coloring(3, {0: 1}))


class TestChi2:
    def test_c5_is_five(self):
        assert chi2_exact(cycle(5)) == 5

    def test_petersen_is_ten(self):
        assert chi2_exact(petersen()) == 10

    def test_star_is_eight(self):
        assert chi2_exact(star(7)) == 8

    def test_c9_is_three(self):
        assert chi2_exact(cycle(9)) == 3

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_sweep(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.4)
        assert chi2_exact(g) == chi2_oracle(g)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_monotone_under_subgraphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 8, 0.4)
        if g.m == 0:
            return
        dropped = rng.choice(g.edges())
        h = Graph(g.n, [e for e in g.edges() if e != dropped])
        assert chi2_exact(h) <= chi2_exact(g)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_trivial_lower_bound(self, seed):
        g = random_graph(random.Random(seed), 9, 0.3)
        if g.m:
            assert chi2_exact(g) >= g.max_degree() + 1

    def test_budget_interval(self):
        """The smallest budget B that proves χ2 gives the exact value, and
        B − 1 gives an interval that contains it."""
        for record in search_records():
            exact, smallest, below = record["chi2"], record["budget"], record["interval"]
            assert chi2_exact(record["graph"], budget=smallest) == exact
            if smallest == 0:  # the bounds meet, so no search runs
                assert below is None
            else:
                low, high = below
                assert low <= exact <= high


def reference_clique(adj: list[set[int]], seed: int) -> set[int]:
    """The greedy square clique as first written, on Python sets."""
    clique = {seed}
    candidates = set(adj[seed])
    while candidates:
        v = max(candidates, key=lambda x: (len(adj[x] & candidates), -x))
        clique.add(v)
        candidates &= adj[v]
    return clique


def bitmask_clique(adj: list[set[int]], seed: int) -> set[int]:
    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
    clique = _greedy_clique(masks, seed)
    return {x for x in range(len(adj)) if clique >> x & 1}


class TestCliqueBound:
    """The bitmask clique is the set clique, so every ``low`` is kept."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_squares(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        adj = square_adjacency(random_graph(rng, n, rng.uniform(0.02, 0.3)))
        for v in range(n):
            assert bitmask_clique(adj, v) == reference_clique(adj, v)

    @pytest.mark.parametrize("g, chi2", [(cycle(5), 5), (petersen(), 10), (hoffman_singleton(), 50)],
                             ids=["C5", "Petersen", "Hoffman-Singleton"])
    def test_moore_fixtures(self, g, chi2):
        adj = square_adjacency(g)
        for v in g.vertices():
            assert bitmask_clique(adj, v) == reference_clique(adj, v)
        seeds = sorted(range(g.n), key=lambda v: -len(adj[v]))[:8]
        low = max(len(reference_clique(adj, s)) for s in seeds)
        assert low == max(len(bitmask_clique(adj, s)) for s in seeds) == chi2
        assert chi2_exact(g) == chi2


def random_cubic(rng: random.Random, n: int) -> Graph:
    """A simple 3-regular graph by the pairing model (retried until simple)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == len(points) // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def search_corpus():
    """Moore fixtures, pairing-model cubic graphs, small hub networks,
    2-subdivided skeletons and sparse random graphs, all seeded."""
    yield from (cycle(5), petersen(), hoffman_singleton())
    rng = random.Random(2222)
    for i in range(16):
        yield random_cubic(rng, 20 + 2 * (i % 13))
    for hubs in (4, 4, 6, 6):
        while True:
            try:
                g = random_hub_network(rng, hubs)
            except ValueError:
                continue  # a bad shuffle of the leftover hub slots
            yield g
            break
    for n in (8, 9, 10, 12):
        yield subdivide(random_skeleton(rng, n, 7, 2), 2)
    for n in (20, 24, 28, 32):
        yield random_graph(rng, n, 3 / n)
        yield random_graph(rng, n, 4 / n)


def smallest_budget(g: Graph) -> int:
    """The smallest node budget at which chi2_exact returns an integer,
    found by doubling and bisection on the public API."""
    failed, budget = -1, 0
    while isinstance(chi2_exact(g, budget=budget), tuple):
        failed, budget = budget, max(1, 2 * budget)
    while budget - failed > 1:
        mid = (failed + budget) // 2
        if isinstance(chi2_exact(g, budget=mid), tuple):
            failed = mid
        else:
            budget = mid
    return budget


@functools.lru_cache(maxsize=None)
def search_records() -> tuple:
    """Per corpus graph: χ2 with no budget, the smallest budget B that
    proves it, the interval at B − 1, the χ2-coloring of
    ``color_2distance``, and the greedy upper-bound coloring."""
    records = []
    for g in search_corpus():
        exact = chi2_exact(g)
        smallest = smallest_budget(g)
        phi = color_2distance(g, exact)
        assert is_valid_2distance(g, phi)[0]
        records.append({
            "graph": g,
            "chi2": exact,
            "budget": smallest,
            "interval": chi2_exact(g, budget=smallest - 1) if smallest else None,
            "colors": [phi.get(v) for v in g.vertices()],
            "greedy": sorted(_greedy_square_coloring(square_adjacency(g), g.n).items()),
        })
    return tuple(records)


class TestSearchTree:
    """The exact search visits the same tree, node for node: the smallest
    proving budget is its node count, so the digest pins the count with
    every answer and coloring, and the greedy bound's pick order with its
    coloring."""

    #: Computed with the from-scratch DSATUR pick.
    PINNED_SEARCH = "de73a831cd82"

    def test_search_digest(self):
        rows = [[r["graph"].n, r["graph"].edges(), r["chi2"], r["budget"],
                 r["interval"], r["colors"], r["greedy"]] for r in search_records()]
        blob = json.dumps(rows)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_SEARCH


class TestDecision:
    def test_c9_three_colorable_pattern(self):
        c = color_2distance(cycle(9), 3)
        assert c is not None
        assert is_valid_2distance(cycle(9), c)[0]

    def test_star_needs_eight(self):
        assert color_2distance(star(7), 7) is None
        c = color_2distance(star(7), 8)
        assert c is not None and is_valid_2distance(star(7), c)[0]

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_delta_squared_plus_one_always_succeeds(self, seed):
        g = random_graph(random.Random(seed), 8, 0.3)
        k = max(1, g.max_degree() ** 2 + 1)
        c = color_2distance(g, k)
        assert c is not None
        assert is_valid_2distance(g, c)[0]

    def test_core_deeper_than_the_recursion_limit(self):
        """The search keeps its path on a list, so a core with more vertices
        than the interpreter's recursion limit is colored, not overflowed."""
        g = random_cubic(random.Random(3), 2 * (sys.getrecursionlimit() // 2) + 200)
        c = color_2distance(g, 7, budget=5000)
        assert c is not None and is_valid_2distance(g, c)[0]

    def test_budget_exhaustion_is_distinct(self):
        g = random_graph(random.Random(11), 16, 0.45)
        k = chi2_oracle_upper = g.max_degree() + 1
        try:
            result = color_2distance(g, k, budget=1)
        except SearchBudgetExceeded:
            return  # distinct signal, as specified
        # budget may have been enough; then the answer must be real
        assert result is None or is_valid_2distance(g, result)[0]


class TestHall:
    def test_two_identical_singletons(self):
        assert hall_check([{1}, {1}]) is False

    def test_three_pairs(self):
        assert hall_check([{1, 2}, {2, 3}, {1, 3}]) is True

    @given(st.integers(0, 2000))
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_sdr(self, seed):
        rng = random.Random(seed)
        count = rng.randint(1, 8)
        lists = [
            sorted(rng.sample(range(1, 9), rng.randint(0, 6)))
            for _ in range(count)
        ]
        assert hall_check(lists) == sdr_oracle(lists)


def greedy_seq_reference(g, phi, order, tag):
    """The greedy extension step as first written, one color list per vertex."""
    for v in order:
        avail = available_colors(g, phi, v)
        if not avail:
            raise ExtensionError(tag, v, seen_colors(g, phi, v))
        phi.set(v, avail[0])


class TestListExtend:
    """The solver's two list extensions: ``_greedy_seq`` colors vertices in
    order with the smallest free color, ``_sdr_seq`` colors a set of
    pairwise conflicting vertices at once through a matching."""

    def test_lone_vertex_with_room(self):
        g = star(7)
        out = Coloring(8, {v: v for v in range(1, 8)})
        _greedy_seq(g, out, [0], "greedy")
        assert out.get(0) == 8

    def test_blocking_vertex_reported(self):
        g = star(7)
        partial = Coloring(7, {v: v for v in range(1, 8)})
        with pytest.raises(ExtensionError) as info:
            _greedy_seq(g, partial, [0], "greedy")
        assert info.value.vertex == 0
        assert set(info.value.state.values()) == set(range(1, 8))
        assert partial.get(0) is None

    def test_greedy_step_matches_the_list_built_reference(self):
        """The one-loop greedy step colors, touches and blocks exactly as
        the first-of-``available_colors`` loop it replaced, on palettes of
        3 to 8 colors, with vertices of the order colored or not."""
        rng = random.Random(26)
        outcomes = set()
        for trial in range(600):
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.15, 0.3, 0.5)))
            k = 3 + trial % 6
            start = {v: rng.randint(1, k) for v in g.vertices() if rng.random() < 0.5}
            order = rng.sample(range(g.n), rng.randint(0, g.n))
            runs = []
            for greedy in (_greedy_seq, greedy_seq_reference):
                phi = _Tracked(k, start)
                try:
                    greedy(g, phi, order, "greedy")
                    blocked = None
                except ExtensionError as e:
                    blocked = (e.tag, e.vertex, e.state)
                runs.append((phi.colors, phi.touched, blocked))
            assert runs[0] == runs[1]
            outcomes.add(runs[0][2] is None)
        assert outcomes == {True, False}

    def test_available_colors_skip_every_color_within_distance_two(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 14), 0.3)
            c = Coloring(8, {v: rng.randint(1, 8) for v in g.vertices() if rng.random() < 0.6})
            for v in g.vertices():
                near = {w for w, d in bfs_distances(g, v).items() if 1 <= d <= 2}
                seen = {c.get(w) for w in near}
                assert available_colors(g, c, v) == [k for k in range(1, 9) if k not in seen]
                assert set(seen_colors(g, c, v).values()) == seen - {None}

    def test_simultaneous_mode_uses_matching(self):
        # two conflicting vertices whose lists force a swap
        g = path(3)  # 0-1-2, all within distance 2
        out = Coloring(3, {1: 3})
        _sdr_seq(g, out, [0, 2], "sdr")
        assert out.get(0) is not None and out.get(2) is not None
        assert out.get(0) != out.get(2)
        assert is_valid_2distance(g, out)[0]

    def test_simultaneous_mode_reports_the_blocked_vertex(self):
        # both ends see color 2 in the middle, so only color 1 is free
        g = path(3)
        partial = Coloring(2, {1: 2})
        with pytest.raises(ExtensionError) as info:
            _sdr_seq(g, partial, [0, 2], "sdr")
        assert info.value.vertex in (0, 2)
        assert info.value.state == {0: (1,), 2: (1,)}
        assert partial.get(0) is None and partial.get(2) is None


def reference_validity(g, c: Coloring):
    """``is_valid_2distance`` as first written: all edges, then every pair
    of neighbors."""
    colors = c.colors
    if not c.is_total(g):
        missing = next(v for v in g.vertices() if v not in colors)
        raise ValueError(f"coloring is partial (vertex {missing} unassigned)")
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return False, (u, v, 1)
    for v in g.vertices():
        nbrs = g.adjacency[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                if colors[a] == colors[b] and b not in g.adjacency[a]:
                    return False, ((a, b, 2) if a < b else (b, a, 2))
    return True, None


def reference_local(g, phi: Coloring, t):
    """``_local_violation`` as first written: every N[x] scanned in order."""
    around = set(t)
    for v in t:
        around.update(g.adjacency[v])
    for x in sorted(around):
        first: dict[int, int] = {}
        for y in (x, *g.adjacency[x]):
            c = phi.colors.get(y)
            if c is None:
                raise ValueError(f"coloring is partial (vertex {y} unassigned)")
            if c in first:
                u, v = sorted((first[c], y))
                return u, v, 1 if g.has_edge(u, v) else 2
            first[c] = y
    return None


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as error:
        return "ValueError", str(error)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_solver_checks_match_reference_loops(seed):
    """On valid, invalid and partial colorings, both checks report the
    first violation or the partial-coloring error the loops report, and
    ``available_colors`` the same colors, v colored or not."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.4))
    k = rng.randint(1, 3 * g.n)
    base = color_2distance(g, g.n) if rng.random() < 0.5 else None
    colors = {v: (base.get(v) if base else rng.randint(1, k)) for v in g.vertices()}
    for v in rng.sample(range(g.n), rng.randint(0, min(2, g.n))):
        colors[v] = rng.randint(1, max(k, g.n))  # a recolor may clash
    if rng.random() < 0.3:
        del colors[rng.randrange(g.n)]
    c = Coloring(max(colors.values(), default=1), colors)
    assert outcome(is_valid_2distance, g, c) == outcome(reference_validity, g, c)
    t = rng.sample(range(g.n), rng.randint(0, g.n))
    assert outcome(_local_violation, g, c, t) == outcome(reference_local, g, c, t)
    for v in g.vertices():
        seen = {c.get(x) for x, d in bfs_distances(g, v).items() if 1 <= d <= 2}
        assert available_colors(g, c, v) == [col for col in range(1, c.k + 1) if col not in seen]


def test_parallel_calls_are_pure():
    """Graphs are immutable and operations pure, so concurrent identical
    calls must agree with the sequential result."""
    from concurrent.futures import ThreadPoolExecutor

    from sparse2dc.reductions import constructive_color

    g = cycle(30)
    baseline = constructive_color(g).colors
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: constructive_color(g).colors, range(8)))
    assert all(r == baseline for r in results)

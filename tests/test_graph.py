"""graph_core: structure, distance-2 machinery, runs, signatures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sparse2dc.families import (
    _random_tree,
    complete,
    cycle,
    path,
    petersen,
    random_skeleton,
    star,
)
from sparse2dc.graph import (
    INFINITE_GIRTH,
    Graph,
    check_girth_mad_bound,
    d_star,
    degree_two_runs,
    girth,
    square,
    subdivide,
    two_distance_neighborhood,
)
from sparse2dc.reductions import (
    _RunIndex,
    _signature,
    _WorkGraph,
    apply_reduction,
    detect_configuration,
)

from conftest import bfs_distances, random_graph


def girth_oracle(g: Graph):
    """Independent girth: min over edges of dist in G-e plus one."""
    best = INFINITE_GIRTH
    for u, v in g.edges():
        h = Graph(g.n, [e for e in g.edges() if e != (u, v)])
        dist = bfs_distances(h, u)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_parallel(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_edge_count_matches_degree_sum(self):
        g = petersen()
        assert 2 * g.m == sum(g.degree(v) for v in g.vertices())

    def test_adjacency_sorted_symmetric(self):
        g = random_graph(random.Random(1), 12, 0.3)
        for v in g.vertices():
            assert list(g.adjacency[v]) == sorted(g.adjacency[v])
            for w in g.adjacency[v]:
                assert v in g.adjacency[w]


def _graph_by_sets(n, edges) -> Graph:
    """The former constructor body, kept as an oracle: one set per vertex,
    one set of canonical edges, each checked edge by edge in input order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj: list[set[int]] = [set() for _ in range(n)]
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in canon:
            raise ValueError(f"parallel edge ({e[0]},{e[1]})")
        canon.add(e)
        adj[u].add(v)
        adj[v].add(u)
    g = object.__new__(Graph)
    g.n = n
    g.adjacency = tuple(tuple(sorted(s)) for s in adj)
    g._edges = tuple(sorted(canon))
    g._closure = {}
    return g


def _built(make, n, edges):
    try:
        return make(n, edges)
    except ValueError as exc:
        return str(exc)


def _edge_lists(seed):
    """Seeded shuffled edge lists with random endpoint order, n = 0..60."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(0, 60)
        g = random_graph(rng, n, rng.choice((0.0, 0.05, 0.2, 0.6)))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        yield rng, n, edges


def _containers(edges):
    """``edges`` as each kind of iterable the constructor takes, twice
    over, so each build reads its own copy (a generator is read once)."""
    for wrap in (list, tuple, set, lambda es: (e for e in es)):
        yield wrap(edges), wrap(edges)


class TestConstructorOracle:
    def test_builds_the_oracle_graph(self):
        for _rng, n, edges in _edge_lists(11):
            for mine, theirs in _containers(edges):
                g, h = Graph(n, mine), _graph_by_sets(n, theirs)
                assert g.adjacency == h.adjacency
                assert g.edges() == h.edges()
                assert g.m == h.m == len(edges)
                assert g == h and hash(g) == hash(h)

    def test_rejects_the_first_bad_edge_with_the_oracle_message(self):
        for rng, n, edges in _edge_lists(12):
            n = max(n, 1)
            bad = list(edges)
            for _ in range(rng.randint(1, 4)):
                fault = rng.choice(("parallel", "loop", "high", "negative")[not bad:])
                u, v = rng.randrange(n), rng.randrange(n)
                if fault == "parallel":
                    u, v = rng.choice(bad)
                    edge = (v, u) if rng.random() < 0.5 else (u, v)
                elif fault == "loop":
                    edge = (u, u)
                elif fault == "high":
                    edge = (u, n + rng.randrange(3))
                else:
                    edge = (-1 - rng.randrange(3), v)
                if rng.random() < 0.5:
                    edge = edge[::-1]
                bad.insert(rng.randint(0, len(bad)), edge)
            assert isinstance(_built(_graph_by_sets, n, bad), str)
            # a set may merge a planted parallel edge into its twin
            for mine, theirs in _containers(bad):
                assert _built(Graph, n, mine) == _built(_graph_by_sets, n, theirs)


class TestSquare:
    def test_c5_squares_to_k5(self):
        assert square(cycle(5)) == complete(5)

    def test_petersen_squares_to_k10(self):
        assert square(petersen()) == complete(10)

    def test_edgeless_stays_edgeless(self):
        g = Graph(4, [])
        assert square(g).m == 0

    @given(st.integers(0, 400), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_square_matches_distance_oracle(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.3)
        sq = square(g)
        for v in g.vertices():
            dist = bfs_distances(g, v)
            expect = {w for w, d in dist.items() if w != v and d <= 2}
            assert set(sq.adjacency[v]) == expect


class TestTwoDistanceNeighborhood:
    def test_star_center_sees_all_leaves(self):
        g = star(7)
        assert two_distance_neighborhood(g, 0) == frozenset(range(1, 8))
        assert d_star(g, 0) == 7

    def test_middle_of_four_path(self):
        # chain a-v1-v2-v3-v4-b with interior all degree 2
        g = path(6)
        assert d_star(g, 2) == 4
        assert d_star(g, 3) == 4

    def test_degree_sum_upper_bound(self):
        g = random_graph(random.Random(7), 14, 0.3)
        for v in g.vertices():
            bound = g.degree(v) + sum(g.degree(u) - 1 for u in g.adjacency[v])
            assert d_star(g, v) <= bound


class TestGirth:
    def test_c9(self):
        assert girth(cycle(9)) == 9

    def test_tree_is_acyclic(self):
        assert girth(path(8)) == INFINITE_GIRTH

    def test_petersen_matches_oracle(self):
        assert girth_oracle(petersen()) == 5
        assert girth(petersen()) == 5

    @given(st.integers(0, 300), st.integers(3, 11))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_graphs(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.25)
        assert girth(g) == girth_oracle(g)


class TestRuns:
    def test_explicit_three_path(self):
        # a-x-y-z-b with both anchors degree 3 via extra leaves... anchors
        # just need degree != 2, so give each anchor two extra leaves.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6), (4, 7), (4, 8)]
        g = Graph(9, edges)
        paths = [r for r in degree_two_runs(g)[0] if r.length == 3]
        assert len(paths) == 1
        assert paths[0].endpoints == (0, 4)
        assert paths[0].internal == (1, 2, 3)

    def test_pure_cycle_reported_separately(self):
        runs, cycles = degree_two_runs(cycle(5))
        assert runs == []
        assert len(cycles) == 1 and sorted(cycles[0]) == [0, 1, 2, 3, 4]
        assert [r for r in runs if r.length == 2] == []

    def test_double_subdivided_claw(self):
        g = subdivide(star(3), 2)
        paths = [r for r in degree_two_runs(g)[0] if r.length == 2]
        assert len(paths) == 3
        for p in paths:
            assert 0 in p.endpoints

    def test_closed_run_at_single_anchor(self):
        # pendant triangle of 2-vertices hanging off a degree-4 vertex
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (4, 5)])
        runs, cycles = degree_two_runs(g)
        closed = [r for r in runs if r.closed]
        assert len(closed) == 1
        assert closed[0].endpoints == (0, 0)
        assert set(closed[0].internal) == {1, 2}
        assert not cycles

    @given(st.integers(0, 300), st.integers(4, 14))
    @settings(max_examples=40, deadline=None)
    def test_runs_partition_degree_two_vertices(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.2)
        runs, cycles = degree_two_runs(g)
        seen: list[int] = []
        for r in runs:
            seen.extend(r.internal)
        for c in cycles:
            seen.extend(c)
        two_vertices = [v for v in g.vertices() if g.degree(v) == 2]
        assert sorted(seen) == sorted(two_vertices)
        for r in runs:
            u, v = r.endpoints
            chain = [u, *r.internal, v]
            for x in r.internal:
                assert g.degree(x) == 2
            for a, b in zip(chain, chain[1:]):
                assert g.has_edge(a, b)


class TestVertexSignature:
    def test_two_two_zero(self):
        # degree-3 vertex with two 2-paths and one high-degree neighbor
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7),
                 (7, 8), (7, 9), (3, 10), (3, 11), (6, 12), (6, 13)]
        g = Graph(14, edges)
        assert signature(g, 0) == (2, 2, 0)

    def test_two_two_two_zero(self):
        edges = []
        # three 2-paths from hub 0: (1,2), (3,4), (5,6) ending at 7,8,9
        for i, (a, b, end) in enumerate([(1, 2, 7), (3, 4, 8), (5, 6, 9)]):
            edges += [(0, a), (a, b), (b, end), (end, 10 + 2 * i), (end, 11 + 2 * i)]
        # plus one plain high-degree neighbor
        edges += [(0, 16), (16, 17), (16, 18), (16, 19), (16, 20)]
        g = Graph(21, edges)
        assert signature(g, 0) == (2, 2, 2, 0)

    def test_star_center_all_zero(self):
        g = star(5)
        sig = signature(g, 0)
        assert sig == (0, 0, 0, 0, 0)

    def test_loop_walk_truncates(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (4, 5)])
        sig = signature(g, 0)
        assert 4 in sig
        assert sig == (4, 4, 1, 0)  # the closed run reads 4 on both its edges

    @given(st.integers(0, 200), st.integers(4, 12))
    @settings(max_examples=30, deadline=None)
    def test_signature_consistent_with_runs(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.25)
        runs, _ = degree_two_runs(g)
        for v in g.vertices():
            if g.degree(v) < 1 or g.degree(v) == 2:
                continue
            sig = signature(g, v)
            if 4 in sig:
                continue
            # each positive entry is the length of a run anchored at v
            anchored = sorted(
                (r.length for r in runs if v in r.endpoints and not r.closed),
                reverse=True,
            )
            positives = [e for e in sig if e > 0]
            assert positives == anchored

    def test_matches_reference_walk(self):
        """The run index gives every vertex the signature a walk of each of
        its runs gives, on graphs with every kind of run."""
        rng = random.Random(29)
        features, checked = set(), 0
        for _ in range(300):
            g = run_rich_graph(rng)
            features |= run_features(g)
            idx = _RunIndex(g)
            for v in g.vertices():
                expected = signature_reference(g, v) if g.degree(v) else ()
                assert _signature(g, idx, v) == expected, (g.edges(), v)
                checked += 1
        assert features == {"pendant", "closed", "cycle", "long"}
        assert checked > 5000

    def test_matches_reference_on_working_graph(self):
        """After a DegreeOne peel and a splice, the synced index of the
        working graph gives every live vertex its walked signature."""
        rng = random.Random(30)
        tested = 0
        while tested < 40:
            g = run_rich_graph(rng)
            if not any(g.degree(v) == 1 for v in g.vertices()):
                continue
            wg = _WorkGraph(g)
            wg.run_index()
            cfg = detect_configuration(wg)
            assert cfg.kind == "DegreeOne"
            apply_reduction(wg, cfg)
            live = [v for v in wg.vertices() if wg.degree(v) != 2]
            if len(live) < 2 or wg.has_edge(live[0], live[-1]):
                continue
            wg.begin()
            wg.add_path(live[0], live[-1], rng.randint(1, 6))
            idx = wg.run_index()
            for v in wg.vertices():
                expected = signature_reference(wg, v) if wg.degree(v) else ()
                assert _signature(wg, idx, v) == expected, (g.edges(), v)
            tested += 1


def signature(g: Graph, v: int) -> tuple[int, ...]:
    return _signature(g, _RunIndex(g), v)


def signature_reference(g, v: int) -> tuple[int, ...]:
    """A vertex's run signature by walking each of its runs: the number of
    2-vertices along each edge, capped at 4, a walk back to ``v`` reading
    4, sorted descending."""
    if g.degree(v) < 1:
        raise ValueError(f"vertex {v} has degree 0")
    entries = []
    for w in g.adjacency[v]:
        if g.degree(w) != 2:
            entries.append(0)
            continue
        internal, prev, cur = [w], v, w
        while True:
            a, b = g.adjacency[cur]
            nxt = b if a == prev else a
            if nxt == w or g.degree(nxt) != 2:
                break
            internal.append(nxt)
            prev, cur = cur, nxt
        # back at v: a loop (a 2-vertex v on a cycle is passed, up to w)
        entries.append(4 if nxt in (v, w) else min(len(internal), 4))
    return tuple(sorted(entries, reverse=True))


def run_rich_graph(rng: random.Random) -> Graph:
    """A random skeleton whose edges become runs of 0-6 2-vertices, with
    closed runs and pendant vertices at some skeleton vertices and up to
    two cycles of 2-vertices beside it."""
    n = rng.randint(2, 8)
    edges: list[tuple[int, int]] = []
    fresh = [n]

    def run(u: int, v: int, k: int) -> None:
        chain = [u, *range(fresh[0], fresh[0] + k), v]
        fresh[0] += k
        edges.extend(zip(chain, chain[1:]))

    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                run(u, v, rng.randint(0, 6))
        roll = rng.random()
        if roll < 0.2:
            run(u, u, rng.randint(2, 6))
        elif roll < 0.4:
            run(u, fresh[0], 0)
            fresh[0] += 1
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(3, 7)
        ring = list(range(fresh[0], fresh[0] + k))
        fresh[0] += k
        edges.extend(zip(ring, ring[1:] + ring[:1]))
    return Graph(fresh[0], edges)


def run_features(g: Graph) -> set[str]:
    runs, cycles = degree_two_runs(g)
    found = {"pendant"} if any(g.degree(v) == 1 for v in g.vertices()) else set()
    found |= {"closed"} if any(r.closed for r in runs) else set()
    found |= {"cycle"} if cycles else set()
    found |= {"long"} if any(r.length >= 5 for r in runs) else set()
    return found


class TestSubdivide:
    def test_identity_at_zero(self):
        g = complete(4)
        assert subdivide(g, 0) == g

    def test_triangle_twice_is_c9(self):
        g = subdivide(cycle(3), 2)
        assert g.n == 9 and g.m == 9
        assert girth(g) == 9
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_vertex_and_edge_counts(self):
        g = petersen()
        h = subdivide(g, 3)
        assert h.n == g.n + 3 * g.m
        assert h.m == 4 * g.m

    @given(st.integers(0, 200), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_girth_multiplies(self, seed, t):
        g = random_graph(random.Random(seed), 8, 0.35)
        base = girth(g)
        if base is INFINITE_GIRTH:
            assert girth(subdivide(g, t)) is INFINITE_GIRTH
        else:
            assert girth(subdivide(g, t)) >= (t + 1) * base


class TestGirthMadBound:
    def test_strict_boundary_fails(self):
        assert check_girth_mad_bound(Fraction(18, 7), 9) is False

    def test_mad_two_always_passes(self):
        for g in (3, 9, 100):
            assert check_girth_mad_bound(Fraction(2), g) is True

    def test_five_halves_at_girth_nine(self):
        assert check_girth_mad_bound(Fraction(5, 2), 9) is True

    def test_rejects_small_girth(self):
        with pytest.raises(ValueError):
            check_girth_mad_bound(Fraction(2), 2)


def test_three_path_middle_reach():
    # u-p1-p2-p3-v: the middle of a 3-run sees exactly 4 vertices
    from sparse2dc.families import spider

    g = spider(3, 4)  # legs 0-1-2-3-4; vertex 2 is a 3-run middle
    assert d_star(g, 2) == 4


def random_skeleton_reference(rng, n, hub_degree, extra_edges):
    """``random_skeleton`` as first written, counting each degree by a scan
    of the edge set."""
    if n < hub_degree + 1:
        raise ValueError("skeleton too small for the requested hub degree")
    edges = set()

    def add(u, v):
        if u == v:
            return False
        e = (min(u, v), max(u, v))
        if e in edges:
            return False
        edges.add(e)
        return True

    for e in _random_tree(rng, n):
        add(*e)

    def degree(v):
        return sum(1 for e in edges if v in e)

    hub = 0
    others = [v for v in range(n) if v != hub]
    rng.shuffle(others)
    for v in others:
        if degree(hub) >= hub_degree:
            break
        add(hub, v)
    leaves = [v for v in range(n) if degree(v) == 1]
    rng.shuffle(leaves)
    for i in range(0, len(leaves) - 1, 2):
        if not add(leaves[i], leaves[i + 1]):
            add(leaves[i], rng.randrange(n))
    for v in range(n):
        tries = 0
        while degree(v) < 2 and tries < 20:
            add(v, rng.randrange(n))
            tries += 1
    for _ in range(extra_edges):
        add(rng.randrange(n), rng.randrange(n))
    return Graph(n, sorted(edges))


def test_skeleton_generator_matches_the_edge_scan_reference():
    """Kept degree counts build the same skeletons from the same draws and
    leave the generator where the edge-scanning version left it."""
    sizes = random.Random(26)
    for seed in range(300):
        hub = sizes.randint(2, 7)
        n, extra = sizes.randint(hub + 1, 60), sizes.randint(0, 4)
        ours, theirs = random.Random(seed), random.Random(seed)
        g = random_skeleton(ours, n, hub, extra)
        assert g == random_skeleton_reference(theirs, n, hub, extra)
        assert ours.getstate() == theirs.getstate()


def test_degree_extremes_match_a_scan():
    rng = random.Random(26)
    assert (Graph(0, []).max_degree(), Graph(0, []).min_degree()) == (0, 0)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), 0.3)
        degrees = [g.degree(v) for v in g.vertices()]
        assert (g.max_degree(), g.min_degree()) == (max(degrees), min(degrees))

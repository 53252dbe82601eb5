"""Potential function: closure min-cut vs brute force, exact mad, surgery."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sparse2dc import potential
from sparse2dc.families import (
    cycle,
    decorated_tree,
    path,
    petersen,
    random_hub_network,
    random_skeleton,
    star,
)
from sparse2dc.flow import FlowNetwork
from sparse2dc.graph import Graph, degree_two_runs, remove_vertices, subdivide
from sparse2dc.potential import (
    DENSITY_BOUND,
    PotentialParams,
    _closure_minimum,
    _subset_edge_counts,
    add_path,
    mad_bruteforce,
    mad_exact,
    rho,
    rho_star,
    rho_star_bruteforce,
    verify_potential_laws,
)

from conftest import random_graph, random_sparse_graph


class TestRho:
    def test_single_vertex(self):
        assert rho(star(3), {1}) == 9

    def test_three_path_interior(self):
        # u-p1-p2-p3-v: the three interior vertices span two edges
        g = path(5)
        assert rho(g, {1, 2, 3}) == 9 * 3 - 7 * 2 == 13

    def test_whole_five_cycle(self):
        assert rho(cycle(5), set(range(5))) == 9 * 5 - 7 * 5 == 10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rho(cycle(5), {5})

    def test_params_validated(self):
        with pytest.raises(ValueError):
            PotentialParams(0, 7)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_rho_submodular(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 10, 0.35)
        a = frozenset(v for v in range(10) if rng.random() < 0.4)
        b = frozenset(v for v in range(10) if rng.random() < 0.4)
        assert rho(g, a) + rho(g, b) >= rho(g, a | b) + rho(g, a & b)


class TestRhoStar:
    def test_empty_set_is_zero_on_sparse_graphs(self):
        # the empty set always attains 0, so the minimum is 0 exactly when
        # no set has negative potential (density at most 18/7)
        res = rho_star(subdivide(star(7), 1), frozenset())
        assert res.value == 0 and res.witness == frozenset()

    def test_empty_set_never_positive(self):
        assert rho_star(petersen(), frozenset()).value <= 0

    def test_sparse_graph_nonnegative(self):
        g = subdivide(star(7), 1)  # mad below 18/7
        for v in g.vertices():
            assert rho_star(g, {v}).value >= 0

    def test_full_set_matches_rho(self):
        g = petersen()
        full = frozenset(g.vertices())
        assert rho_star_bruteforce(g, full).value == rho(g, full)

    def test_single_edge_pair(self):
        g = Graph(2, [(0, 1)])
        assert rho_star_bruteforce(g, {0, 1}).value == 11

    def test_bruteforce_refuses_large(self):
        with pytest.raises(ValueError):
            rho_star_bruteforce(Graph(21, []), set())

    @given(st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_mincut_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        a = frozenset(v for v in range(n) if rng.random() < 0.3)
        fast = rho_star(g, a)
        slow = rho_star_bruteforce(g, a)
        assert fast.value == slow.value
        assert a <= fast.witness
        assert rho(g, fast.witness) == fast.value

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_rho_star_below_explicit_supersets(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 10, 0.3)
        a = frozenset(v for v in range(10) if rng.random() < 0.3)
        value = rho_star(g, a).value
        for _ in range(10):
            s = a | frozenset(v for v in range(10) if rng.random() < 0.4)
            assert value <= rho(g, s)


def _edge_node_closure_minimum(g, forced, vertex_cost, edge_gain):
    """The former closure network, kept as an oracle: one node per edge
    fed ``edge_gain`` by the source, infinite arcs to both endpoints, and
    ``vertex_cost`` from every vertex to the sink (n + m + 2 nodes)."""
    n, m = g.n, g.m
    infinite = 1 + edge_gain * m + vertex_cost * n
    net = FlowNetwork(2 + n + m)
    for v in range(n):
        net.add_arc(2 + v, 1, vertex_cost)
    for j, (u, v) in enumerate(g.edges()):
        net.add_arc(0, 2 + n + j, edge_gain)
        net.add_arc(2 + n + j, 2 + u, infinite)
        net.add_arc(2 + n + j, 2 + v, infinite)
    for v in forced:
        net.add_arc(0, 2 + v, infinite)
    cut = net.max_flow(0, 1)
    side = net.source_side(0)
    return cut - edge_gain * m, frozenset(v for v in range(n) if 2 + v in side)


def _smallest_minimizer(g, forced, vertex_cost, edge_gain):
    """Brute force: the minimum over supersets of ``forced`` and the
    intersection of every set attaining it."""
    counts = _subset_edge_counts(g)
    forced_mask = sum(1 << v for v in forced)
    values = {
        mask: vertex_cost * bin(mask).count("1") - edge_gain * counts[mask]
        for mask in range(1 << g.n)
        if mask & forced_mask == forced_mask
    }
    best = min(values.values())
    common = (1 << g.n) - 1
    for mask, value in values.items():
        if value == best:
            common &= mask
    return best, frozenset(v for v in range(g.n) if common >> v & 1)


def _hub_network(rng, hubs):
    while True:
        try:
            return random_hub_network(rng, hubs)
        except ValueError:
            continue  # a bad shuffle of the leftover hub slots


def _thread_heavy_graph(rng):
    """Mostly runs of 2-vertices: subdivisions with runs of 1-4 vertices,
    hub networks, decorated trees with pendant paths, or a small core with a
    cycle hanging on one vertex beside an isolated cycle and path."""
    kind = rng.randrange(4)
    if kind == 0:
        core = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.7))
        return subdivide(core, rng.randint(1, 4))
    if kind == 1:
        return _hub_network(rng, rng.choice((4, 6, 8)))
    if kind == 2:
        return decorated_tree(
            rng, rng.randint(3, 8), rng.randint(3, 7), rng.randint(0, 3), rng.randint(0, 2)
        )
    return _two_vertex_cycles_graph(rng)


def _two_vertex_cycles_graph(rng):
    """A small core with a cycle of 2-vertices hanging on vertex 0, beside
    an isolated cycle and an isolated path."""
    core = random_graph(rng, rng.randint(1, 5), 0.5)
    edges, n = list(core.edges()), core.n
    loop = [0] + list(range(n, n + rng.randint(2, 5))) + [0]
    n = loop[-2] + 1
    ring = list(range(n, n + rng.randint(3, 6)))
    tail = list(range(ring[-1] + 1, ring[-1] + 1 + rng.randint(1, 4)))
    edges += zip(loop, loop[1:])
    edges += zip(ring, ring[1:] + ring[:1])
    edges += zip(tail, tail[1:])
    return Graph(tail[-1] + 1, edges)


class TestClosureNetwork:
    @given(st.integers(0, 2000))
    @settings(max_examples=150, deadline=None)
    def test_matches_edge_node_network(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 40)
        g = random_graph(rng, n, rng.uniform(0.02, 0.5))
        forced = frozenset(v for v in range(n) if rng.random() < rng.choice([0, 0.1, 0.4]))
        density = Fraction(2 * rng.randint(1, max(g.m, 1)), max(n, 1))
        pairs = [
            (9, 7),
            (rng.randint(1, 40), rng.randint(1, 40)),
            (density.numerator, 2 * density.denominator),
        ]
        for vertex_cost, edge_gain in pairs:
            got = _closure_minimum(g, forced, vertex_cost, edge_gain)
            assert got == _edge_node_closure_minimum(g, forced, vertex_cost, edge_gain)
            if n <= 12:
                assert got == _smallest_minimizer(g, forced, vertex_cost, edge_gain)

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_edge_node_network_on_threads(self, seed):
        rng = random.Random(seed)
        g = _thread_heavy_graph(rng)
        # forced vertices inside runs, on pendants and on cycles
        low = [v for v in g.vertices() if g.degree(v) <= 2]
        forced = frozenset(rng.sample(low, min(len(low), rng.randint(0, 3))))
        big, small = sorted(rng.sample(range(1, 30), 2), reverse=True)
        k, t = rng.randint(1, 4), rng.randint(1, 5)
        zero = ((k + 1) * t, k * t)  # a run of k vertices gains exactly 0
        for vertex_cost, edge_gain in [(9, 7), (big, small), zero, (big, big), (small, big)]:
            got = _closure_minimum(g, forced, vertex_cost, edge_gain)
            assert got == _edge_node_closure_minimum(g, forced, vertex_cost, edge_gain)
            if g.n <= 14:
                assert got == _smallest_minimizer(g, forced, vertex_cost, edge_gain)

    @staticmethod
    def record_networks(monkeypatch):
        built = []

        class Recording(FlowNetwork):
            def __init__(self, size):
                super().__init__(size)
                built.append(self)

        monkeypatch.setattr(potential, "FlowNetwork", Recording)
        return built

    def test_runs_dissolve_into_hub_edges(self, monkeypatch):
        built = self.record_networks(monkeypatch)
        hubs = 8
        g = _hub_network(random.Random(8), hubs)
        run_vertex = next(v for v in g.vertices() if g.degree(v) == 2)
        rho_star(g, ())
        rho_star(g, {run_vertex})
        assert [net.size for net in built] == [hubs + 2, hubs + 3]

    def test_network_has_one_node_per_vertex(self, monkeypatch):
        built = self.record_networks(monkeypatch)
        g = petersen()
        forced = frozenset({0, 5})
        rho_star(g, forced)
        # the kept base network, then the copy the forced vertices patch
        assert [net.size for net in built] == [g.n + 2] * 2
        assert all(len(net.to) // 2 <= g.n + g.m + len(forced) for net in built)


def _mixed_runs_graph(rng):
    """A random core whose edges become runs of 0-3 vertices, so anchors
    fed by the source sit next to anchors that drain to the sink and the
    kept flow crosses the runs."""
    core = random_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.9))
    edges, n = [], core.n
    for u, v in core.edges():
        chain = [u] + list(range(n, n + rng.randint(0, 3))) + [v]
        n += len(chain) - 2
        edges += zip(chain, chain[1:])
    return Graph(n, edges)


def _aimed_forced_set(rng, g):
    """A forced set aimed at the patches of the warm path: anchors, one or
    several vertices of one run (its ends, or a loop's), vertices on cycles
    of 2-vertices and in pendant trees, or a mix of these."""
    runs, cycles = degree_two_runs(g)
    runs = [r.internal for r in runs if r.internal]
    picks = []
    for _ in range(rng.randint(1, 3)):
        aim = rng.randrange(8)
        if aim == 0:
            picks += rng.sample([v for v in g.vertices() if g.degree(v) > 2] or [0], 1)
        elif aim == 1 and runs:
            run = rng.choice(runs)
            picks.append(rng.choice((run[0], run[-1])))
        elif aim in (2, 3, 4) and runs:
            run = rng.choice(runs)
            picks += rng.sample(run, rng.randint(1, len(run)))
        elif aim == 5 and cycles:
            picks += rng.sample(rng.choice(cycles), 1)
        elif aim == 6:
            picks += rng.sample([v for v in g.vertices() if g.degree(v) <= 1] or [0], 1)
    return frozenset(picks) if g.n else frozenset()


def _cost_pairs(rng):
    """(9, 7), a > b, a run of k vertices gaining exactly 0, a = b, a < b."""
    big, small = sorted(rng.sample(range(1, 30), 2), reverse=True)
    k, t = rng.randint(1, 4), rng.randint(1, 5)
    return [(9, 7), (big, small), ((k + 1) * t, k * t), (big, big), (small, big)]


class TestWarmQueries:
    """A ``Graph`` keeps its closure structure and the base network of the
    latest cost pair with its max flow; queries patch a copy and augment.
    Every answer equals a from-zero build's."""

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_from_zero_build(self, seed):
        from sparse2dc.reductions import _WorkGraph

        rng = random.Random(seed)
        g = _mixed_runs_graph(rng) if seed % 2 else _thread_heavy_graph(rng)
        queries = [(_aimed_forced_set(rng, g), a, b)
                   for _ in range(6) for a, b in _cost_pairs(rng)]
        rng.shuffle(queries)
        for forced, a, b in queries:
            if g.m and rng.random() < 0.2:
                assert mad_exact(g) == mad_exact(Graph(g.n, g.edges()))
            got = _closure_minimum(g, forced, a, b)
            assert got == _closure_minimum(_WorkGraph(g), forced, a, b)
            assert got == _edge_node_closure_minimum(g, forced, a, b)
            if g.n <= 12:
                assert got == _smallest_minimizer(g, forced, a, b)

    #: At costs (20, 15) the kept flow of this graph saturates the run
    #: 0-10-4 (gain 2*15 - 20 = 10) from 4 to 0.
    FLOW_ON_A_RUN = Graph(12, [(0, 5), (0, 8), (0, 10), (1, 2), (1, 3), (1, 4), (2, 7), (2, 11),
                               (3, 4), (3, 9), (4, 10), (4, 11), (5, 6), (6, 7), (8, 9)])

    def test_flow_on_a_split_run_moves_onto_its_pieces(self):
        g = Graph(12, self.FLOW_ON_A_RUN.edges())
        assert _closure_minimum(g, frozenset(), 20, 15) == (0, frozenset())
        want = _smallest_minimizer(g, {10}, 20, 15)
        assert want == (15, {1, 2, 3, 4, 10, 11})
        assert _closure_minimum(g, frozenset({10}), 20, 15) == want

    def test_kept_network_is_never_changed(self):
        g = Graph(12, self.FLOW_ON_A_RUN.edges())
        _closure_minimum(g, frozenset(), 20, 15)
        base = g._closure["base"]
        net = base[1]
        arrays = [arcs[:] for arcs in net.head], net.to[:], net.cap[:]
        for u in g.vertices():
            for v in g.vertices():
                _closure_minimum(g, frozenset({u, v}), 20, 15)
        assert g._closure["base"] is base
        assert ([arcs[:] for arcs in net.head], net.to, net.cap) == arrays

    def test_relabeling_moves_witnesses(self):
        rng = random.Random(21)
        for _ in range(8):
            g = _thread_heavy_graph(rng)
            label = list(g.vertices())
            rng.shuffle(label)
            h = Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])
            for _ in range(12):
                forced = _aimed_forced_set(rng, g)
                a, b = rng.choice(_cost_pairs(rng))
                value, witness = _closure_minimum(g, forced, a, b)
                assert _closure_minimum(h, frozenset(label[v] for v in forced), a, b) == (
                    value, frozenset(label[v] for v in witness))

    def test_edits_and_exclusions_match_a_fresh_graph(self):
        from sparse2dc.reductions import _WorkGraph

        rng = random.Random(22)
        for _ in range(10):
            g = _hub_network(rng, 2 * rng.randint(3, 6))
            rho_star(g, ())  # fill the memo first
            rho_star(g, _aimed_forced_set(rng, g))
            wg = _WorkGraph(g)
            wg.begin()
            for v in rng.sample(range(g.n), 4):
                if v in wg.vertices():
                    wg.remove_vertex(v)
            fresh, remap = remove_vertices(wg, ())
            back = {new: old for old, new in remap.items()}
            for _ in range(8):
                live = wg.vertices()
                forced = frozenset(rng.sample(live, rng.randint(0, 3)))
                got = rho_star(wg, forced)
                want = rho_star(fresh, [remap[v] for v in forced])
                assert got.value == want.value
                assert got.witness == {back[v] for v in want.witness}
                gone = frozenset(rng.sample([v for v in live if v not in forced], 3))
                got = rho_star(g, forced, without=gone | (set(g.vertices()) - set(live)))
                snapshot, ids = remove_vertices(fresh, [remap[v] for v in gone])
                want = rho_star(snapshot, [ids[remap[v]] for v in forced])
                assert got.value == want.value
                assert {ids[remap[v]] for v in got.witness} == want.witness

    def test_threads_sharing_a_graph_get_fresh_answers(self):
        import sys
        import threading

        rng = random.Random(23)
        g = _mixed_runs_graph(rng)
        work = [[(_aimed_forced_set(rng, g), *rng.choice(_cost_pairs(rng)))
                 for _ in range(40)] for _ in range(4)]
        want = [[_closure_minimum(Graph(g.n, g.edges()), f, a, b) for f, a, b in queries]
                for queries in work]
        got = [[] for _ in work]

        def ask(i):
            for forced, a, b in work[i]:
                got[i].append(_closure_minimum(g, forced, a, b))
                if len(got[i]) % 10 == 0:
                    mad_exact(g)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_memo_leaves_equality_and_hash_alone(self):
        g = _hub_network(random.Random(24), 8)
        h = Graph(g.n, g.edges())
        before = hash(g)
        rho_star(g, ())
        rho_star(g, {next(v for v in g.vertices() if g.degree(v) == 2)})
        mad_exact(g)
        assert g._closure
        assert g == h and hash(g) == hash(h) == before
        assert {h: "kept"}[g] == "kept"


class TestOneBuildPath:
    """Every query patches its forced vertices into the structure built
    with nothing forced, so the answers of each input kind are pinned, and
    a ``Graph`` builds one structure and one base flow per cost pair."""

    #: At the commit before forced vertices in pendant trees and on cycles
    #: of 2-vertices stopped rebuilding the structure.
    PINNED_CLOSURES = "02e7ea1285e7"

    @staticmethod
    def digest_graphs(rng):
        """Subdivisions, hub networks, decorated trees and graphs with
        cycles of 2-vertices, in turn."""
        for i in range(48):
            kind = i % 4
            if kind == 0:
                core = random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8))
                yield subdivide(core, rng.randint(1, 3))
            elif kind == 1:
                yield _hub_network(rng, rng.choice((4, 6, 8)))
            elif kind == 2:
                yield decorated_tree(rng, rng.randint(3, 8), rng.randint(3, 7),
                                     rng.randint(0, 3), rng.randint(0, 2))
            else:
                yield _two_vertex_cycles_graph(rng)

    def test_closure_digest(self):
        from sparse2dc.reductions import _WorkGraph

        def answer(value, witness):
            return [str(value), sorted(witness)]  # sorted: a set's repr is unordered

        rng = random.Random(1717)
        records = []
        for g in self.digest_graphs(rng):
            wg = _WorkGraph(g)
            wg.begin()
            for v in rng.sample(range(g.n), min(2, g.n)):
                wg.remove_vertex(v)
            live = set(wg.vertices())
            record = {"mad": answer(*mad_exact(g)) if g.m else None,
                      "work mad": answer(*mad_exact(wg)) if wg.m else None, "queries": []}
            for _ in range(4):
                forced = _aimed_forced_set(rng, g)
                rest = [v for v in g.vertices() if v not in forced]
                excluded = frozenset(rng.sample(rest, min(len(rest), rng.randint(1, 3))))
                for a, b in _cost_pairs(rng):
                    record["queries"].append([
                        answer(*_closure_minimum(g, forced, a, b)),
                        answer(*_closure_minimum(wg, forced & live, a, b)),
                        answer(*_closure_minimum(g, forced, a, b, excluded)),
                    ])
            records.append(record)
        blob = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_CLOSURES

    @pytest.mark.parametrize("family", ["decorated tree", "cycles of 2-vertices"])
    def test_one_structure_and_one_base_flow_per_graph(self, family, monkeypatch):
        rng = random.Random(31)
        if family == "decorated tree":
            g = decorated_tree(rng, 8, 5, 3, 1)
            assert any(g.degree(v) == 1 for v in g.vertices())
        else:
            g = _two_vertex_cycles_graph(rng)
        queries = [frozenset({v}) for v in g.vertices()]
        queries += [frozenset(rng.sample(range(g.n), 3)) for _ in range(10)]
        want = [_edge_node_closure_minimum(g, forced, 9, 7) for forced in queries]
        structures, flows = [], []
        build, max_flow = potential._Structure, FlowNetwork.max_flow

        class Counted(build):
            __slots__ = ()

            def __init__(self, *args):
                structures.append(self)
                build.__init__(self, *args)

        def counted_flow(net, s, t):
            flows.append(net)
            return max_flow(net, s, t)

        monkeypatch.setattr(potential, "_Structure", Counted)
        monkeypatch.setattr(FlowNetwork, "max_flow", counted_flow)
        assert [_closure_minimum(g, forced, 9, 7) for forced in queries] == want
        # one base flow, then one augmenting flow on a copy per query
        assert len(structures) == 1
        assert len(flows) == 1 + len(queries)
        assert len({id(net) for net in flows}) == len(flows)


class TestRelabeling:
    """Relabelling the vertices and shuffling the edge order moves every
    witness with the labels and leaves every value alone."""

    @pytest.mark.parametrize("family", ["hub network", "subdivided skeleton"])
    def test_rho_star_and_mad_follow_the_labels(self, family):
        rng = random.Random(17)
        if family == "hub network":
            g = _hub_network(rng, 16)
        else:
            g = subdivide(random_skeleton(rng, 16, 7, 2), 2)
        label = list(g.vertices())
        rng.shuffle(label)
        edges = [(label[u], label[v])[:: rng.choice((1, -1))] for u, v in g.edges()]
        rng.shuffle(edges)
        h = Graph(g.n, edges)
        for _ in range(10):
            a = rng.sample(range(g.n), rng.randint(0, 2))
            want = rho_star(g, a)
            got = rho_star(h, [label[v] for v in a])
            assert got.value == want.value
            assert got.witness == {label[v] for v in want.witness}
        density, witness = mad_exact(g)
        assert mad_exact(h) == (density, {label[v] for v in witness})


class TestWithout:
    """``rho_star(g, A, without=D)`` answers in G - D in the ids of ``g``: it
    equals ``rho_star`` on the snapshot ``remove_vertices(g, D)``, in value
    and in the witness mapped through the snapshot's renumbering, on a
    ``Graph`` and on the solver's working graph alike."""

    def check(self, g, rng, queries=8):
        live = list(g.vertices())
        for _ in range(queries):
            d = frozenset(rng.sample(live, rng.randint(0, len(live) // 3)))
            rest = [v for v in live if v not in d]
            a = rng.sample(rest, min(len(rest), rng.randint(0, 2)))
            got = rho_star(g, a, without=d)
            h, remap = remove_vertices(g, d)
            want = rho_star(h, [remap[v] for v in a])
            assert got.value == want.value
            assert not got.witness & d
            assert frozenset(remap[v] for v in got.witness) == want.witness

    @pytest.mark.parametrize("family", ["sparse", "hub network", "subdivided skeleton"])
    def test_matches_the_snapshot(self, family):
        rng = random.Random(14)
        for _ in range(12):
            if family == "sparse":
                g = random_sparse_graph(rng, rng.randint(2, 40), rng.randint(0, 12))
            elif family == "hub network":
                g = _hub_network(rng, 2 * rng.randint(2, 6))
            else:
                g = subdivide(random_skeleton(rng, rng.randint(8, 20), 7, 2), 2)
            self.check(g, rng)

    def test_matches_the_snapshot_on_the_working_graph(self, monkeypatch):
        from sparse2dc import reductions

        original = reductions.apply_reduction
        rng = random.Random(15)
        spliced = []

        def checked(wg, cfg):
            red = original(wg, cfg)
            if red.added:  # after a splice: dead ids below fresh ones
                assert len(wg.vertices()) < wg.n and max(wg.vertices()) >= n
                self.check(wg, rng, queries=20)
                h, remap = remove_vertices(wg, ())
                density, witness = mad_exact(h)
                assert mad_exact(wg) == (density, {v for v in wg.vertices() if remap[v] in witness})
                spliced.append(cfg.kind)
            return red

        monkeypatch.setattr(reductions, "apply_reduction", checked)
        for seed in range(4):
            g = random_hub_network(random.Random(seed), 12)
            n = g.n
            reductions.constructive_color(g)
        assert len(spliced) >= 4

    def test_forced_and_excluded_must_not_meet(self):
        with pytest.raises(ValueError):
            rho_star(cycle(6), {0, 2}, without={2, 3})

    def test_a_deleted_id_is_rejected_on_the_working_graph(self):
        from sparse2dc.reductions import _WorkGraph

        wg = _WorkGraph(cycle(12))
        wg.begin()
        wg.remove_vertex(3)
        for bad in (3, -1, 12):
            with pytest.raises(ValueError, match=f"vertex {bad} "):
                rho(wg, {bad})
            with pytest.raises(ValueError, match=f"vertex {bad} "):
                rho_star(wg, {0, bad})
            with pytest.raises(ValueError, match=f"vertex {bad} "):
                rho_star(wg, {0}, without={bad})
        # the live ids on either side of the gap still answer
        assert rho_star(wg, {2, 4}).value == rho_star(path(11), {0, 10}).value == 18
        assert rho_star(wg, {0}, without={2, 4}).value == 9


class TestMad:
    def test_cycle_is_two(self):
        for n in (3, 5, 9, 12):
            assert mad_exact(cycle(n))[0] == 2

    def test_tree_formula(self):
        for n in (2, 5, 9):
            g = path(n)
            assert mad_exact(g)[0] == Fraction(2 * (n - 1), n)

    def test_petersen_matches_oracle(self):
        assert mad_bruteforce(petersen()) == 3
        value, witness = mad_exact(petersen())
        assert value == 3
        assert witness == frozenset(range(10))

    def test_subdivided_star_value(self):
        g = subdivide(star(7), 1)
        value, _ = mad_exact(g)
        assert value == Fraction(28, 15)
        assert value < DENSITY_BOUND

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mad_exact(Graph(0, []))

    def test_edgeless_graph_is_zero(self):
        assert mad_exact(Graph(4, []))[0] == 0

    @given(st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        value, witness = mad_exact(g)
        assert value == mad_bruteforce(g)
        if g.m:
            assert Fraction(2 * g.edge_count_inside(witness), len(witness)) == value

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_threshold_equivalence(self, seed):
        # mad <= 18/7 exactly when the default potential is nonnegative
        rng = random.Random(seed)
        g = random_sparse_graph(rng, rng.randint(2, 12))
        below = mad_exact(g)[0] <= DENSITY_BOUND
        nonneg = rho_star(g, frozenset()).value >= 0
        assert below == nonneg


class TestAddPath:
    def test_bare_edge(self):
        g = path(4)
        h = add_path(g, 0, 3, 0)
        assert h.m == g.m + 1 and h.n == g.n

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            add_path(path(4), 0, 1, 0)

    def test_three_internal_vertices(self):
        g = cycle(6)
        h = add_path(g, 0, 3, 3)
        assert h.n == g.n + 3 and h.m == g.m + 4
        for v in range(g.n, h.n):
            assert h.degree(v) == 2

    @given(st.integers(0, 800))
    @settings(max_examples=60, deadline=None)
    def test_safe_surgery_keeps_potential_nonnegative(self, seed):
        # whenever rho*({u,v}) clears the 7-2k threshold, the enlarged
        # graph keeps every potential nonnegative (checked exhaustively)
        rng = random.Random(seed)
        g = random_sparse_graph(rng, rng.randint(3, 10))
        if rho_star(g, frozenset()).value < 0:
            return
        u, v = rng.sample(range(g.n), 2)
        k = rng.randint(0, 3)
        if k == 0 and g.has_edge(u, v):
            return
        if rho_star(g, {u, v}).value < 7 - 2 * k:
            return
        h = add_path(g, u, v, k)
        assert rho_star_bruteforce(h, frozenset()).value >= 0
        assert mad_exact(h)[0] <= DENSITY_BOUND


class TestLaws:
    @given(st.integers(0, 120))
    @settings(max_examples=12, deadline=None)
    def test_no_violations_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 9), 0.35)
        report = verify_potential_laws(g, trials=6, rng=rng)
        assert report.ok, report.violations

    def test_counts_recorded(self):
        report = verify_potential_laws(cycle(6), trials=4, rng=random.Random(0))
        assert report.checked["superset"] == 4
        assert report.checked["submodular"] == 4

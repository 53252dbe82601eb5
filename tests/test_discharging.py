"""Charge rules: exact per-case arithmetic, conservation, mutation sensitivity."""

import random

import pytest

import fixture_graphs as fx
from sparse2dc.discharging import (
    DEFAULT_AMOUNTS,
    endgame_report,
    initial_charge_halves,
    run_discharge,
    verify_ledger,
)
from sparse2dc.families import cycle, random_skeleton
from sparse2dc.graph import Graph, degree_two_runs, subdivide
from sparse2dc.reductions import ForestOfStarsError


class CaseFixture:
    """A graph plus the vertices whose exact final charges are pinned."""

    def __init__(self, graph: Graph, exact: dict[int, int]):
        self.graph = graph
        self.exact = exact  # vertex -> final charge in half-units


def two_one_zero_case() -> CaseFixture:
    """Degree-3 vertex with a bridged 2-run, a 1-run, and a 5-degree donor."""
    b = fx.GraphBuilder()
    v, x1, x2, s7, y, w, u, t = (b.vertex() for _ in range(8))
    b.edge(v, x1), b.edge(x1, x2), b.edge(x2, s7)
    b.edge(v, y), b.edge(y, w)
    b.edge(v, u)
    for _ in range(2):
        b.run(s7, u, 1)
        b.run(s7, w, 1)
        b.run(s7, t, 1)
        b.run(t, u, 1)
    g = b.build()
    assert g.degree(s7) == 7 and g.degree(u) == 5 and g.degree(w) == 3
    return CaseFixture(g, {v: 0, x1: 0, x2: 0, y: 0})


def two_two_zero_case() -> CaseFixture:
    """(2,2,0)-vertex with both runs bridged and a 6-degree donor."""
    b = fx.GraphBuilder()
    v, a1, a2, s1, b1, b2, s2, u = (b.vertex() for _ in range(8))
    b.edge(v, a1), b.edge(a1, a2), b.edge(a2, s1)
    b.edge(v, b1), b.edge(b1, b2), b.edge(b2, s2)
    b.edge(v, u)
    for _ in range(3):
        b.run(s1, u, 1)
        b.run(s1, s2, 1)
        b.run(s2, u, 1)
    g = b.build()
    assert g.degree(s1) == 7 and g.degree(s2) == 7 and g.degree(u) == 7
    return CaseFixture(g, {v: 0, a1: 0, a2: 0, b1: 0, b2: 0})


def sponsor_case() -> CaseFixture:
    """Two 7-hubs joined by a 3-run; the sponsor feeds the middle vertex."""
    b = fx.GraphBuilder()
    u, v = b.vertex(), b.vertex()
    p = b.run(u, v, 3)
    for _ in range(6):
        b.run(u, v, 1)
    g = b.build()
    return CaseFixture(g, {p[0]: 0, p[1]: 0, p[2]: 0})


def one_one_zero_case() -> CaseFixture:
    """(1,1,0)-vertex: two 1-runs to 3-vertices plus a 4-degree donor."""
    b = fx.GraphBuilder()
    v, w1, w2, u, t = (b.vertex() for _ in range(5))
    y1 = b.run(v, w1, 1)
    y2 = b.run(v, w2, 1)
    b.edge(v, u)
    for _ in range(2):
        b.run(w1, w2, 1)
    for _ in range(3):
        b.run(u, t, 1)
    g = b.build()
    assert g.degree(u) == 4 and g.degree(w1) == 3
    return CaseFixture(g, {v: 0, y1[0]: 0, y2[0]: 0})


def two_zero_zero_case() -> CaseFixture:
    """(2,0,0)-vertex: bridged 2-run plus donors of degree 4 and 3."""
    b = fx.GraphBuilder()
    v, x1, x2, s7, u1, u2, t = (b.vertex() for _ in range(7))
    b.edge(v, x1), b.edge(x1, x2), b.edge(x2, s7)
    b.edge(v, u1), b.edge(v, u2)
    for _ in range(2):
        b.run(s7, u1, 1)
    b.run(s7, u2, 1)
    for _ in range(3):
        b.run(s7, t, 1)
    b.run(u1, t, 1)
    b.run(u2, t, 1)
    g = b.build()
    assert g.degree(s7) == 7 and g.degree(u1) == 4 and g.degree(u2) == 3
    return CaseFixture(g, {v: 0, x1: 0, x2: 0})


def one_path_triple_case() -> CaseFixture:
    """(1,1,1)-vertex whose three 1-runs are all relay bridges."""
    b = fx.GraphBuilder()
    v = b.vertex()
    ws = [b.vertex() for _ in range(3)]
    c = b.vertex()
    mids = [b.run(v, w, 1)[0] for w in ws]
    for i in range(3):
        for j in range(i + 1, 3):
            b.run(ws[i], ws[j], 1)
        b.run(ws[i], ws[(i + 1) % 3], 1)
        b.run(ws[i], c, 1)
    g = b.build()
    assert all(g.degree(w) == 6 for w in ws)
    return CaseFixture(g, {v: 0, mids[0]: 0, mids[1]: 0, mids[2]: 0})


def two_two_two_zero_case() -> CaseFixture:
    """(2,2,2,0)-vertex: three bridged runs plus a 5-degree donor."""
    b = fx.GraphBuilder()
    v = b.vertex()
    hubs = [b.vertex() for _ in range(3)]
    u = b.vertex()
    sinks = [b.vertex() for _ in range(3)]
    firsts = []
    for h in hubs:
        ints = b.run(v, h, 2)
        firsts.append(ints[0])
    b.edge(v, u)
    for i in range(3):
        for j in range(i + 1, 3):
            b.run(hubs[i], hubs[j], 1)
    for h, t in zip(hubs, sinks):
        for _ in range(4):
            b.run(h, t, 1)
    b.run(u, sinks[0], 1)
    b.run(u, sinks[1], 1)
    for _ in range(2):
        b.run(u, sinks[2], 1)
    g = b.build()
    assert all(g.degree(h) == 7 for h in hubs) and g.degree(u) == 5
    assert g.max_degree() == 7
    return CaseFixture(g, {v: 0, firsts[0]: 0, firsts[1]: 0, firsts[2]: 0})


def low_three_case() -> CaseFixture:
    """(1,0,0)-vertex keeps a full unit of slack."""
    b = fx.GraphBuilder()
    v, w, u1, u2 = (b.vertex() for _ in range(4))
    b.run(v, w, 1)
    b.edge(v, u1), b.edge(v, u2)
    b.run(u1, u2, 1)
    b.run(u1, w, 1)
    b.run(u2, w, 1)
    g = b.build()
    assert g.degree(u1) == 3 and g.degree(w) == 3
    return CaseFixture(g, {v: 2})


ALL_CASES = (
    two_one_zero_case,
    two_two_zero_case,
    sponsor_case,
    one_one_zero_case,
    two_zero_zero_case,
    one_path_triple_case,
    two_two_two_zero_case,
    low_three_case,
)


class TestInitialCharges:
    def test_degree_two_and_seven(self):
        g = fx.seven_seven_local()
        assert initial_charge_halves(g, 0) == 2 * 31
        two = next(v for v in g.vertices() if g.degree(v) == 2)
        assert initial_charge_halves(g, two) == 2 * -4

    def test_pure_cycle_totals(self):
        g = cycle(9)
        ledger = run_discharge(g)
        assert all(c == -8 for c in ledger.final)
        assert ledger.total_final() == 28 * 9 - 36 * 9 == -72
        assert not ledger.transfers


class TestCaseArithmetic:
    @pytest.mark.parametrize("make", ALL_CASES, ids=lambda f: f.__name__)
    def test_exact_final_charges(self, make):
        case = make()
        ledger = run_discharge(case.graph)
        for v, expected in case.exact.items():
            assert ledger.final[v] == expected, (v, ledger.final[v], expected)

    def test_nonsponsor_three_path_endpoint_keeps_slack(self):
        case = sponsor_case()
        g = case.graph
        ledger = run_discharge(g)
        runs3 = [r for r in degree_two_runs(g)[0] if r.length == 3]
        u, v = runs3[0].endpoints
        from sparse2dc.reductions import classify_vertices

        classes = classify_vertices(g)
        root = next(iter(classes.roots))
        sponsor = next(iter(classes.sponsors))
        assert {root, sponsor} == {u, v}
        assert ledger.final[root] >= 1  # at least a half unit of slack
        assert ledger.final[root] - ledger.final[sponsor] == DEFAULT_AMOUNTS["R0ii"]


class TestConservation:
    def test_totals_on_random_inputs(self):
        rng = random.Random(21)
        produced = 0
        for _ in range(30):
            skel = random_skeleton(rng, rng.randint(5, 9), 4, rng.randint(0, 2))
            g = subdivide(skel, rng.choice((1, 2)))
            if g.max_degree() > 7 or g.n == 0 or g.min_degree() < 2:
                continue
            try:
                ledger = run_discharge(g)
            except ForestOfStarsError:
                continue
            assert ledger.total_final() == ledger.total_initial() == 28 * g.m - 36 * g.n
            again = run_discharge(g)
            assert again == ledger  # determinism
            produced += 1
        assert produced >= 15

    def test_verify_ledger_report(self):
        case = two_two_zero_case()
        ledger = run_discharge(case.graph)
        report = verify_ledger(case.graph, ledger)
        assert report.conserved
        assert report.total_halves == report.expected_total_halves
        if report.negatives:
            assert report.negative_implies_configuration is True

    def test_one_run_index_per_call(self, monkeypatch):
        """The rules, classification and the report's signatures read one
        run index: ``run_discharge`` on a ``Graph`` builds exactly one, and
        ``verify_ledger`` at most one, its configuration check included."""
        from sparse2dc import reductions

        built = []
        index_init = reductions._RunIndex.__init__

        def counted_index(self, g):
            built.append(g)
            index_init(self, g)

        monkeypatch.setattr(reductions._RunIndex, "__init__", counted_index)
        detected = 0
        for make in (*ALL_CASES, lambda: CaseFixture(cycle(7), {})):
            g = make().graph
            built.clear()
            ledger = run_discharge(g)
            assert len(built) == 1
            built.clear()
            report = verify_ledger(g, ledger)
            assert len(built) == (1 if report.negatives or report.positives else 0)
            detected += report.negative_implies_configuration is not None
        assert detected  # some report also ran its configuration check

    def test_preconditions(self):
        with pytest.raises(ValueError):
            run_discharge(Graph(2, [(0, 1)]))  # degree-1 vertices
        with pytest.raises(ValueError):
            run_discharge(_star8())


def _star8():
    return Graph(9, [(0, i) for i in range(1, 9)])


class TestMutationSensitivity:
    def test_every_amount_is_pinned_by_some_fixture(self):
        """Perturbing any rule amount must break at least one exact value."""
        for slot in DEFAULT_AMOUNTS:
            broken = False
            for make in ALL_CASES:
                case = make()
                mutated = run_discharge(
                    case.graph, amounts={slot: DEFAULT_AMOUNTS[slot] + 1}
                )
                if any(mutated.final[v] != e for v, e in case.exact.items()):
                    broken = True
                    break
            assert broken, f"no fixture pins rule amount {slot}"

    def test_mutants_conserve_but_shift(self):
        case = two_one_zero_case()
        mutated = run_discharge(case.graph, amounts={"R0iv": 2})
        assert mutated.total_final() == mutated.total_initial()

    def test_unknown_slot_rejected(self):
        with pytest.raises(ValueError):
            run_discharge(cycle(9), amounts={"R9x": 1})


class TestEndgame:
    def test_cycle_confirmed(self):
        g = cycle(12)
        report = endgame_report(g, run_discharge(g))
        assert report.violated_step is None and report.cycles_confirmed

    def test_rejects_nonzero_charges(self):
        case = sponsor_case()
        ledger = run_discharge(case.graph)
        with pytest.raises(ValueError):
            endgame_report(case.graph, ledger)

    def test_names_the_violated_step(self):
        # force an all-zero ledger on a graph with a 3-vertex
        b = fx.GraphBuilder()
        v, w1, w2, u, t = (b.vertex() for _ in range(5))
        b.run(v, w1, 1)
        b.run(v, w2, 1)
        b.edge(v, u)
        for _ in range(2):
            b.run(w1, w2, 1)
        for _ in range(3):
            b.run(u, t, 1)
        g = b.build()
        ledger = run_discharge(g)
        zero = ledger.__class__(
            tuple(0 for _ in ledger.initial),
            (),
            tuple(0 for _ in ledger.final),
        )
        report = endgame_report(g, zero)
        assert report.violated_step == "no-four-or-five-vertices"


def test_two_zero_zero_receives_from_every_qualified_donor():
    """A vertex fitting a receiver pattern collects from each adjacent
    donor that clears the degree threshold."""
    b = fx.GraphBuilder()
    v, x1, x2, s7, u1, u2, t = (b.vertex() for _ in range(7))
    b.edge(v, x1), b.edge(x1, x2), b.edge(x2, s7)
    b.edge(v, u1), b.edge(v, u2)
    for _ in range(2):
        b.run(s7, u1, 1)
        b.run(s7, u2, 1)
    for _ in range(2):
        b.run(s7, t, 1)
    b.run(u1, t, 1)
    b.run(u2, t, 1)
    g = b.build()
    assert g.degree(u1) == 4 and g.degree(u2) == 4 and g.degree(s7) == 7
    ledger = run_discharge(g)
    # 3 - 4 (run feed) + 1/2 + 1/2 (both donors) + 1/2 (relay) = +1/2
    assert ledger.final[v] == 1

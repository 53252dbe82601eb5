"""Configuration detectors, reduction surgeries, extensions, and the solver."""

import hashlib
import json
import random
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import replace

import pytest

import fixture_graphs as fx
from sparse2dc.coloring import Coloring, color_2distance, is_valid_2distance
from sparse2dc.discharging import run_discharge
from sparse2dc.families import cycle, petersen, spider, star
from sparse2dc.graph import (
    Graph,
    PathDescriptor,
    _walk_run as walk_run,
    d_star,
    degree_two_runs,
    girth,
    remove_vertices,
    subdivide,
)
from sparse2dc.potential import DENSITY_BOUND, mad_bruteforce, mad_exact, rho_star
from sparse2dc.reductions import (
    BASE_THRESHOLD,
    Configuration,
    ConstructiveFailure,
    ExtensionError,
    ForestOfStarsError,
    InternalContradiction,
    _RunIndex,
    _Tracked,
    _WorkGraph,
    _edge_removal,
    _greedy,
    _local_violation,
    apply_reduction,
    classify_vertices,
    constructive_color,
    cycle_pattern,
    detect_configuration,
    extend_coloring,
)

from conftest import random_sparse_graph


def run_pipeline(g, cfg, budget=10_000_000):
    """apply -> exact-color the reduced graph -> extend -> validate."""
    assert cfg is not None
    before = g.n + g.m
    red = apply_reduction(g, cfg)
    assert red.graph.n + red.graph.m < before
    ch = color_2distance(red.graph, 8, budget=budget)
    assert ch is not None, "reduced graph must stay 8-colorable"
    phi = extend_coloring(g, cfg, red, ch)
    ok, violation = is_valid_2distance(g, phi)
    assert ok, violation
    return red, phi


def only_templates(monkeypatch, tag, **choice):
    """Let the splice appliers try only their own templates tagged ``tag``
    whose detail holds ``choice``, to reach a template that the fixtures'
    exact certificates never leave to the search."""
    from sparse2dc import reductions as module

    first_fit = module._first_fit

    def chosen(g, templates, message):
        picked = (t for t in templates
                  if t[2] == tag and all(t[3].get(k) == x for k, x in choice.items()))
        return first_fit(g, picked, message)

    monkeypatch.setattr(module, "_first_fit", chosen)


class TestDispatchKinds:
    def test_degree_one(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        cfg = detect_configuration(g)
        assert cfg.kind == "DegreeOne"
        run_pipeline(g, cfg)

    def test_four_plus_path(self):
        g = fx.four_plus_path()
        cfg = detect_configuration(g)
        assert cfg.kind == "FourPlusPath"
        run_pipeline(g, cfg)

    def test_three_path_low_end(self):
        g = fx.three_path_low_end()
        cfg = detect_configuration(g)
        assert cfg.kind == "ThreePathBadEnd" and cfg.data["case"] == "low-end"
        run_pipeline(g, cfg)

    def test_three_path_closed(self):
        g = fx.three_path_closed()
        cfg = detect_configuration(g)
        assert cfg.kind == "ThreePathBadEnd" and cfg.data["case"] == "closed"
        run_pipeline(g, cfg)

    def test_two_path_low_ends(self):
        g = fx.two_path_low_ends()
        cfg = detect_configuration(g)
        assert cfg.kind == "TwoPathBadEnds" and cfg.data["case"] == "low-ends"
        run_pipeline(g, cfg)

    def test_two_path_closed(self):
        g = fx.two_path_closed()
        cfg = detect_configuration(g)
        assert cfg.kind == "TwoPathBadEnds" and cfg.data["case"] == "closed"
        run_pipeline(g, cfg)

    def test_two_path_chord(self):
        g = fx.two_path_chord()
        cfg = detect_configuration(g)
        assert cfg.kind == "TwoPathChord"
        run_pipeline(g, cfg)

    def test_small_vertex(self):
        g = fx.small_vertex()
        cfg = detect_configuration(g)
        assert cfg.kind == "SmallVertex"
        run_pipeline(g, cfg)

    def test_counting_pair(self):
        g = fx.counting_pair()
        cfg = detect_configuration(g)
        assert cfg.kind == "CountingPair"
        assert cfg.data["w"] == 0
        run_pipeline(g, cfg)

    def test_three_path_cycle(self):
        g = fx.three_path_cycle()
        assert mad_exact(g)[0] <= DENSITY_BOUND
        cfg = detect_configuration(g)
        assert cfg.kind == "ThreePathCycle"
        run_pipeline(g, cfg)

    def test_two_consecutive_three_paths(self):
        g = fx.two_consecutive_three_paths()
        assert mad_exact(g)[0] <= DENSITY_BOUND
        cfg = detect_configuration(g)
        assert cfg.kind == "TwoConsecutiveThreePaths"
        assert cfg.potentials["bridge"] >= 1
        run_pipeline(g, cfg)

    def test_weird_seven_dispatch(self):
        g = fx.weird_seven_dispatch()
        cfg = detect_configuration(g)
        assert cfg.kind == "WeirdSeven"

    def test_pure_cycle_detects_nothing(self):
        assert detect_configuration(cycle(9)) is None


class TestLocalKinds:
    def test_weird_seven_cases(self):
        for case in ("two-path", "three-path", "deg-three"):
            g = fx.weird_seven_local(case)
            cfg = registry_witness("WeirdSeven", g)
            assert cfg is not None and cfg.data["case"] == case
            run_pipeline(g, cfg)

    def test_weird_six(self):
        g = fx.weird_six_local()
        cfg = registry_witness("WeirdSix", g)
        run_pipeline(g, cfg)

    def test_seven_seven(self):
        g = fx.seven_seven_local()
        cfg = registry_witness("SevenSevenTwoPaths", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "seven-seven"
        assert red.recorded["splices"][0]["k"] == 2

    def test_sponsor_bridges_splice_branch(self):
        g = fx.sponsor_bridges_local()
        cfg = registry_witness("SponsorManyBridges", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-bridges-a"

    def test_sponsor_bridges_edge_branch_direct(self, monkeypatch):
        # the edge branch needs every splice target blocked, which sparse
        # fixtures cannot arrange; the applier tries its edge template only
        g = fx.sponsor_bridges_local()
        cfg = registry_witness("SponsorManyBridges", g)
        only_templates(monkeypatch, "sponsor-bridges-b")
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-bridges-b"

    def test_sponsor_all_bad_small_k(self):
        for k, tag in ((0, "sponsor-allbad-k0"), (1, "sponsor-allbad-k1")):
            g = fx.sponsor_all_bad_local(k)
            cfg = registry_witness("SponsorAllBadNeighbors", g)
            red, _ = run_pipeline(g, cfg)
            assert red.tag == tag

    def test_sponsor_all_bad_spliced_templates(self):
        g = fx.sponsor_all_bad_local(2)
        cfg = registry_witness("SponsorAllBadNeighbors", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-allbad-claim2"

        g = fx.sponsor_all_bad_local(6)
        cfg = registry_witness("SponsorAllBadNeighbors", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-allbad-claim4"

    def test_sponsor_all_bad_two_edge_template(self):
        g = fx.sponsor_all_bad_same_far()
        cfg = registry_witness("SponsorAllBadNeighbors", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-allbad-claim3"

    def test_sponsor_all_bad_two_edge_template_same_w_colors(self):
        # the reduced graph does not part w_j from w_j' (both neighbors of
        # u); the solver's own coloring of it gives them one color
        g = fx.sponsor_all_bad_same_far(4)
        cfg = registry_witness("SponsorAllBadNeighbors", g)
        red = apply_reduction(g, cfg)
        assert red.tag == "sponsor-allbad-claim3"
        ch = constructive_color(red.graph)
        _, remap = remove_vertices(g, red.removed)
        d = red.detail
        wj, wjp = d["w"][d["j"]][0], d["w"][d["jp"]][0]
        assert ch.get(remap[wj]) == ch.get(remap[wjp])
        phi = extend_coloring(g, cfg, red, ch)
        assert is_valid_2distance(g, phi)[0]

    def test_sponsor_all_bad_mixed_template_direct(self, monkeypatch):
        # the path-plus-edge splice is template 29 of 36 on this fixture, and
        # the first, a claim-2 one, fits; the applier tries claim 5's only
        g = fx.sponsor_all_bad_local(2)
        cfg = registry_witness("SponsorAllBadNeighbors", g)
        only_templates(monkeypatch, "sponsor-allbad-claim5")
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-allbad-claim5"

    def test_sponsor_small_x_splice_branch(self):
        g = fx.sponsor_small_x_local()
        cfg = registry_witness("SponsorWithSmallX", g)
        red, _ = run_pipeline(g, cfg)
        assert red.tag == "sponsor-smallx-a"

    def test_sponsor_small_x_edge_branch_direct(self, monkeypatch):
        # the direct edge to x itself, which leaves x out of the matching
        g = fx.sponsor_small_x_local()
        cfg = registry_witness("SponsorWithSmallX", g)
        only_templates(monkeypatch, "sponsor-smallx-b", z=cfg.data["x"])
        red, _ = run_pipeline(g, cfg)
        assert red.detail["z"] == cfg.data["x"]


def short_certificates(monkeypatch, short):
    """Stub ``rho_star`` in the reductions so that the splice certificates
    whose ordinals (from 1) are in ``short`` fall short; the potentials the
    detectors and validators ask (with ``without``) stay exact.  Returns the
    list the certificate values are recorded in."""
    from dataclasses import replace

    from sparse2dc import reductions as module

    certificates = []

    def rho_star_short(graph, a_set, *args, **kwargs):
        result = rho_star(graph, a_set, *args, **kwargs)
        if "without" in kwargs:
            return result
        certificates.append(result.value)
        return replace(result, value=-1) if len(certificates) in short else result

    monkeypatch.setattr(module, "rho_star", rho_star_short)
    return certificates


def small_x_ends(cfg):
    """The far ends the small-x sponsor tries for its direct edge, in order."""
    v = cfg.data["v"]
    return [z for z in sorted({*cfg.data["wvertices"], cfg.data["x"]}) if z != v]


class TestTrialSplices:
    """Every splice applier tries its templates in order on the working
    graph; a template whose certificate falls short is undone before the
    next is tried, so the step keeps one undo record, and the run index
    the next detection reads matches a fresh scan."""

    def apply(self, monkeypatch, g, kind, short):
        from sparse2dc import reductions as module

        wg = _WorkGraph(g)
        cfg = module._BY_KIND[kind].detect(wg, wg.run_index())
        assert cfg is not None and cfg.kind == kind
        certificates = short_certificates(monkeypatch, short)
        red = apply_reduction(wg, cfg)
        monkeypatch.undo()
        assert len(wg._log) == 1
        assert red.added == tuple(range(g.n, wg.n))
        assert len(red.added) == sum(s["k"] for s in red.recorded["splices"])
        TestLiveRunIndex().check(wg, Counter())
        return wg, cfg, red, certificates

    def extend(self, g, wg, cfg, red):
        h, remap = remove_vertices(wg, ())
        colors = color_2distance(h, 8, budget=10_000_000).colors
        ch = _Tracked(8, {v: colors[remap[v]] for v in wg.vertices()})
        phi = extend_coloring(wg, cfg, red, ch)
        assert wg.adjacency == list(g.adjacency)
        assert (wg.n, wg.m, wg.vertices()) == (g.n, g.m, list(g.vertices()))
        assert not wg._log
        assert is_valid_2distance(g, Coloring(8, phi.colors))[0]

    @pytest.mark.parametrize(
        "make, tag, choice",
        [
            # both capped runs end at one vertex, so claim 2 has no candidate
            (fx.sponsor_all_bad_same_far, "sponsor-allbad-claim3", {"i": 0, "j": 2, "jp": 0}),
            (lambda: fx.sponsor_all_bad_local(6), "sponsor-allbad-claim4",
             {"i": 0, "ip": 1, "ipp": 3}),
        ],
    )
    def test_a_short_certificate_undoes_the_trial(self, monkeypatch, make, tag, choice):
        g = make()
        # the first template's second splice, after its first is in
        wg, cfg, red, certificates = self.apply(monkeypatch, g, "SponsorAllBadNeighbors", {2})
        assert len(certificates) == 4  # two for the failed template, two for the next
        assert red.tag == tag
        assert {key: red.detail[key] for key in choice} == choice
        self.extend(g, wg, cfg, red)

    # (fixture, kind, short certificates, tag, the detail the choice shows);
    # sparse fixtures never reach these templates with exact certificates
    FALLBACKS = {
        "seven-seven second far end": (
            fx.seven_seven_local, "SevenSevenTwoPaths", {1}, "seven-seven",
            lambda cfg: {"chosen": 1},
        ),
        "bridges edge": (
            fx.sponsor_bridges_local, "SponsorManyBridges", {1, 2, 3}, "sponsor-bridges-b",
            lambda cfg: {"u": cfg.data["u"], "v": cfg.data["v"]},
        ),
        "small-x edge at the first z": (
            fx.sponsor_small_x_local, "SponsorWithSmallX", {1}, "sponsor-smallx-b",
            lambda cfg: {"z": small_x_ends(cfg)[0]},
        ),
        "small-x edge at a later z": (
            fx.sponsor_small_x_local, "SponsorWithSmallX", {1, 2}, "sponsor-smallx-b",
            lambda cfg: {"z": small_x_ends(cfg)[1]},
        ),
        "three-consecutive second bridge": (
            fx.two_consecutive_three_paths, "ThreeConsecutiveThreePaths", {1},
            "two-consecutive",
            lambda cfg: dict(zip("uvw", cfg.data["anchors"][1:])),
        ),
    }

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_a_fallback_template_fits_after_short_certificates(self, monkeypatch, case):
        make, kind, short, tag, choice = self.FALLBACKS[case]
        g = make()
        wg, cfg, red, certificates = self.apply(monkeypatch, g, kind, short)
        assert len(certificates) == len(short) + 1  # every short one, then the fit
        assert red.tag == tag
        expected = choice(cfg)
        assert {key: red.detail[key] for key in expected} == expected
        assert "chosen" not in red.detail or tag == "seven-seven"
        [splice] = red.recorded["splices"]
        assert splice["have"] == certificates[-1] >= splice["need"]
        self.extend(g, wg, cfg, red)


class TestConfigurationContracts:
    def test_witness_revalidates(self):
        g = fx.two_consecutive_three_paths()
        cfg = detect_configuration(g)
        cfg.validate(g)

    def test_stale_witness_rejected(self):
        g = fx.three_path_low_end()
        cfg = detect_configuration(g)
        other = fx.four_plus_path()
        with pytest.raises(ValueError):
            cfg.validate(other)

    def test_splice_preconditions_recorded(self):
        g = fx.two_consecutive_three_paths()
        cfg = detect_configuration(g)
        red = apply_reduction(g, cfg)
        assert red.recorded["splices"][0]["have"] >= red.recorded["splices"][0]["need"]
        assert "density_after" in red.recorded

    def test_determinism(self):
        g = fx.two_consecutive_three_paths()
        a = detect_configuration(g)
        b = detect_configuration(g)
        assert a.kind == b.kind and a.data == b.data and a.potentials == b.potentials


def registry_witness(kind, g):
    """The witness the registry detector of ``kind`` finds in ``g``."""
    from sparse2dc import reductions as module

    cfg = module._BY_KIND[kind].detect(g, _RunIndex(g))
    assert cfg is not None and cfg.kind == kind
    return cfg


class TestWitnessReadBack:
    """``Configuration.validate`` accepts a local kind's witness only when
    its kind's enumerator yields it at the centre it names, and reads the
    runs of the other two kinds back from the graph: a witness no detector
    could produce raises ValueError, and the detector's own witness still
    validates."""

    PATH = Graph(10, [(i, i + 1) for i in range(9)])

    def test_three_consecutive_runs_have_three_internals(self):
        runs = tuple(PathDescriptor((a, a + 3), (a + 1, a + 2)) for a in (0, 3, 6))
        cfg = Configuration(
            "ThreeConsecutiveThreePaths", {"anchors": (0, 3, 6, 9), "runs": runs}
        )
        with pytest.raises(ValueError, match="run length"):
            cfg.validate(self.PATH)

    def test_two_consecutive_runs_have_three_internals(self):
        bridge = rho_star(self.PATH, {0, 6}, without={1, 2, 4, 5}).value
        assert bridge >= 1  # every other check of the witness holds
        cfg = Configuration(
            "TwoConsecutiveThreePaths",
            {"u": 0, "v": 3, "w": 6, "pu": (1, 2), "pw": (5, 4)},
            {"bridge": bridge},
        )
        with pytest.raises(ValueError, match="TwoConsecutiveThreePaths witness invalid"):
            cfg.validate(self.PATH)

    @pytest.mark.parametrize("kind", ["TwoConsecutiveThreePaths", "ThreeConsecutiveThreePaths"])
    def test_consecutive_witnesses_validate(self, kind):
        g = fx.two_consecutive_three_paths()
        registry_witness(kind, g).validate(g)

    SLOTS = [
        ("WeirdSeven", lambda: fx.weird_seven_local("two-path"), "six"),
        ("WeirdSix", fx.weird_six_local, "paths"),
        ("SevenSevenTwoPaths", fx.seven_seven_local, "six"),
        ("SponsorManyBridges", fx.sponsor_bridges_local, "qpaths"),
        ("SponsorAllBadNeighbors", lambda: fx.sponsor_all_bad_local(3), "qpaths"),
    ]

    @pytest.mark.parametrize("kind, make, key", SLOTS)
    def test_swapped_slot_internals_are_refused(self, kind, make, key):
        g = make()
        cfg = registry_witness(kind, g)
        cfg.validate(g)
        (w0, (a0, b0), f0), (w1, (a1, b1), f1), *rest = cfg.data[key]
        swapped = ((w0, (a0, b1), f0), (w1, (a1, b0), f1), *rest)
        with pytest.raises(ValueError, match=f"{kind} witness invalid: no such witness"):
            replace(cfg, data={**cfg.data, key: swapped}).validate(g)

    @pytest.mark.parametrize("kind, make", [
        ("SponsorAllBadNeighbors", lambda: fx.sponsor_all_bad_local(3)),
        ("SponsorWithSmallX", fx.sponsor_small_x_local),
    ])
    def test_w_vertices_are_neighbors_of_u(self, kind, make):
        one = make()
        # two disjoint copies: w + one.n is w in the second, with w's signature
        g = Graph(2 * one.n, [*one.edges(), *((u + one.n, v + one.n) for u, v in one.edges())])
        cfg = registry_witness(kind, g)
        cfg.validate(g)
        w, *rest = cfg.data["wvertices"]
        far = {**cfg.data, "wvertices": (w + one.n, *rest)}
        with pytest.raises(ValueError, match=f"{kind} witness invalid: no such witness"):
            replace(cfg, data=far).validate(g)

    # (fixture, kind, the detected witness -> a tampered one); each of these
    # validated while every kind had a hand-written witness check
    TAMPERED = {
        # k = 3 would loosen the reach bound of w from d* <= 8 to d* <= 10
        "a counting pair repeats a neighbour": (
            fx.counting_pair, "CountingPair",
            lambda d: {"w": 0, "removed_neighbors": (1, 1, 1)},
        ),
        "the low end of a 3-run is an internal": (
            fx.three_path_low_end, "ThreePathBadEnd", lambda d: {**d, "low": 1},
        ),
        "the low end of a 2-run is not on it": (
            fx.two_path_low_ends, "TwoPathBadEnds", lambda d: {**d, "low": 5},
        ),
        "a long run's chain is cut short": (
            fx.four_plus_path, "FourPlusPath", lambda d: {**d, "chain": d["chain"][:3]},
        ),
        "a 3-run walked out and back": (
            fx.three_path_cycle, "ThreePathCycle",
            lambda d: {"anchors": d["anchors"][:2], "runs": (d["runs"][0],) * 2},
        ),
        "a cycle of 3-runs listed twice": (
            fx.three_path_cycle, "ThreePathCycle",
            lambda d: {"anchors": d["anchors"] * 2, "runs": d["runs"] * 2},
        ),
        # each of these raised KeyError or AttributeError
        "a cycle of 3-runs without its runs": (
            fx.three_path_cycle, "ThreePathCycle", lambda d: {"anchors": d["anchors"]},
        ),
        "a run given as an int": (
            fx.three_path_cycle, "ThreePathCycle",
            lambda d: {**d, "runs": (7, *d["runs"][1:])},
        ),
        "a run given as None": (
            fx.three_path_cycle, "ThreePathCycle",
            lambda d: {**d, "runs": (*d["runs"][:-1], None)},
        ),
    }

    @staticmethod
    def refused_before_any_edit(g, bad, kind):
        with pytest.raises(ValueError, match=f"{kind} witness invalid"):
            bad.validate(g)
        wg = _WorkGraph(g)
        with pytest.raises(ValueError, match=f"{kind} witness invalid"):
            apply_reduction(wg, bad)
        assert wg.adjacency == list(g.adjacency) and not wg._log

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_tampered_witness_is_refused_before_any_edit(self, case):
        make, kind, tamper = self.TAMPERED[case]
        g = make()
        cfg = detect_configuration(g)
        assert cfg.kind == kind
        cfg.validate(g)
        bad = replace(cfg, data=tamper(cfg.data))
        assert bad.data != cfg.data
        self.refused_before_any_edit(g, bad, kind)

    # (graph, a witness no detector produces on it)
    MALFORMED = {
        # these three raised KeyError or AttributeError
        "an unknown kind": (cycle(8), Configuration("Bogus", {})),
        "a witness that is not a dict": (cycle(8), Configuration("DegreeOne", [("v", 0)])),
        "a consecutive witness without its anchors": (
            fx.three_path_cycle(),
            Configuration("ThreeConsecutiveThreePaths", {"runs": ()}),
        ),
        # C8 has no runs, only a cycle of 2-vertices; apply_reduction deleted
        # six of its vertices
        "two halves of a cycle of 2-vertices": (
            cycle(8),
            Configuration("ThreePathCycle", {
                "anchors": (0, 4),
                "runs": (PathDescriptor((0, 4), (1, 2, 3)), PathDescriptor((0, 4), (7, 6, 5))),
            }),
        ),
        # apply_reduction spliced a k = 3 path into C16
        "three quarters of a cycle of 2-vertices": (
            cycle(16),
            Configuration("ThreeConsecutiveThreePaths", {
                "anchors": (0, 4, 8, 12),
                "runs": tuple(PathDescriptor((a, a + 4), (a + 1, a + 2, a + 3))
                              for a in (0, 4, 8)),
            }),
        ),
        # runs of the graph, but 2-runs: hubs 0 and 1 joined by 0-2-3-1 and 0-4-5-1
        "a cycle of two 2-runs": (
            Graph(8, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (1, 7)]),
            Configuration("ThreePathCycle", {
                "anchors": (0, 1),
                "runs": (PathDescriptor((0, 1), (2, 3)), PathDescriptor((0, 1), (4, 5))),
            }),
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_witness_is_refused_before_any_edit(self, case):
        g, bad = self.MALFORMED[case]
        self.refused_before_any_edit(g, bad, bad.kind)

    #: The most ``rho_star`` queries one witness check may ask, per kind;
    #: the kinds not listed ask none.
    POTENTIAL_QUERIES = {
        "TwoConsecutiveThreePaths": 1,
        "SevenSevenTwoPaths": 2,
        "SponsorManyBridges": 2,
        "SponsorAllBadNeighbors": 2,
        "SponsorWithSmallX": 2,
    }

    def test_validation_asks_at_most_one_potential_per_condition(self, monkeypatch):
        from sparse2dc import reductions as module

        queries = 0

        def counted(*args, **kwargs):
            nonlocal queries
            queries += 1
            return rho_star(*args, **kwargs)

        asked = {}
        validate = Configuration.validate

        def counted_validate(cfg, g):
            before = queries
            validate(cfg, g)
            asked[cfg.kind] = max(asked.get(cfg.kind, 0), queries - before)

        monkeypatch.setattr(module, "rho_star", counted)
        monkeypatch.setattr(Configuration, "validate", counted_validate)
        knockouts = TestDetectorKnockouts()
        cases = [(kind, knockouts.fixture_for(kind)) for kind in knockouts.EXPECTED_FALLBACK]
        cases += [(kind, g) for kind, _, g in TestKindRecipes().corpus()]
        for kind, g in cases:
            apply_reduction(g, registry_witness(kind, g))
        assert set(asked) == set(module.KINDS)
        for kind, most in asked.items():
            assert most <= self.POTENTIAL_QUERIES.get(kind, 0), kind


class TestClassification:
    def test_two_vertex_kinds(self):
        g = fx.three_path_low_end()
        classes = classify_vertices(g)
        runs = [r for r in degree_two_runs(g)[0] if r.length == 3]
        mid = runs[0].internal[1]
        ends = {runs[0].internal[0], runs[0].internal[2]}
        assert classes.two_kind[mid] == "small"
        assert all(classes.two_kind[e] == "medium" for e in ends)

    def test_bridge_pair_orientation(self):
        b = fx.GraphBuilder()
        seven, low = b.vertex(), b.vertex()
        ints = b.run(seven, low, 2)
        b.leaves(seven, 6)
        b.leaves(low, 2)
        g = b.build()
        classes = classify_vertices(g)
        assert len(classes.bridge_pairs) == 1
        pair = classes.bridge_pairs[0]
        assert pair["seven"] == seven and pair["low"] == low
        assert pair["near_seven"] == ints[0] and pair["near_low"] == ints[1]

    def test_one_path_bridge(self):
        b = fx.GraphBuilder()
        six, three = b.vertex(), b.vertex()
        mid = b.run(six, three, 1)
        b.leaves(six, 5)
        b.leaves(three, 2)
        g = b.build()
        classes = classify_vertices(g)
        assert classes.one_path_bridges == frozenset(mid)

    def test_single_path_root_by_potential(self):
        g = fx.sponsor_bridges_local()
        classes = classify_vertices(g)
        assert len(classes.sponsors) == 1
        sponsor, small = next(iter(classes.sponsors.items()))
        runs3 = [r for r in degree_two_runs(g)[0] if r.length == 3]
        assert small == runs3[0].internal[1]
        root = next(iter(classes.roots))
        P = set(runs3[0].internal)
        h, remap = remove_vertices(g, P)
        pr = rho_star(h, {remap[root]}).value
        ps = rho_star(h, {remap[sponsor]}).value
        assert pr >= ps

    def test_star_center_roots(self):
        b = fx.GraphBuilder()
        center = b.vertex()
        others = []
        for _ in range(3):
            o = b.vertex()
            b.run(center, o, 3)
            b.leaves(o, 6)
            others.append(o)
        b.leaves(center, 4)
        g = b.build()
        classes = classify_vertices(g)
        assert classes.roots == frozenset({center})
        assert set(classes.sponsors) == set(others)

    def test_three_path_cycle_refused(self):
        with pytest.raises(ForestOfStarsError):
            classify_vertices(fx.three_path_cycle())

    def test_three_consecutive_refused(self):
        with pytest.raises(ForestOfStarsError):
            classify_vertices(three_consecutive_chain())

    def test_roles_agree_with_the_detectors(self):
        """On the output-identity corpus and relabelled copies of it: each
        bridge pair is a 2-run slot capped at 5 at a 7-vertex, and each such
        slot is one; the sponsor of a 3-run outside the stars passes the
        sponsor kinds' orientation as u, the larger id on a tie; bridge
        pairs, then the stars' sponsors by centre and the other sponsors,
        come in ``degree_two_runs`` order; a refusal carries the first closed
        3-run in that order, or what the registry's own detector returns."""
        from sparse2dc import reductions as module

        rng = random.Random(24)
        seen = Counter()
        for _, g in TestOutputIdentity().corpus():
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])):
                self.check_roles(module, h, seen)
        # every refusal message, bridge pairs, sponsors, and potential ties
        assert len(seen) == 6 and min(seen.values()) >= 1, seen

    @staticmethod
    def check_roles(module, g, seen):
        idx = _RunIndex(g)
        runs = degree_two_runs(g)[0]
        order = {x: i for i, r in enumerate(runs) for x in r.internal}
        closed = [r for r in runs if r.length == 3 and r.closed]
        refusals = [("a 3-path closes on its own anchor", closed[0] if closed else None)]
        for kind, message in (("ThreePathCycle", "the 3-paths contain a cycle"),
                              ("ThreeConsecutiveThreePaths", "three consecutive 3-paths")):
            cfg = module._BY_KIND[kind].detect(g, idx)
            refusals.append((message, cfg and cfg.data))
        expected = next(((m, w) for m, w in refusals if w is not None), None)
        try:
            c = classify_vertices(g)
        except ForestOfStarsError as exc:
            assert (str(exc), exc.witness) == expected
            seen[str(exc)] += 1
            return
        assert expected is None
        capped = {
            (u, s) for u in g.vertices() if g.degree(u) == 7
            for s in module._slot_kinds(g, idx, u) if module._capped(g, u, s, 5)
        }
        pairs = {(p["seven"], (p["near_seven"], (p["near_seven"], p["near_low"]), p["low"]))
                 for p in c.bridge_pairs}
        assert pairs == capped and len(pairs) == len(c.bridge_pairs)
        assert [order[p["near_seven"]] for p in c.bridge_pairs] == sorted(
            order[p["near_seven"]] for p in c.bridge_pairs
        )
        seen["bridge pairs"] += len(pairs)
        keys = []
        for sponsor, mid in c.sponsors.items():
            centre = next(x for x in idx.run_of[mid].endpoints if x != sponsor)
            star = len(idx.three_adj[centre]) >= 2
            keys.append((0, centre, order[mid]) if star else (1, 0, order[mid]))
        assert keys == sorted(keys)
        for r in {r for links in idx.three_adj.values() for _, r in links}:
            if any(len(idx.three_adj[x]) >= 2 for x in r.endpoints):
                continue  # a star's runs are sponsored by the ends away from its centre
            [u] = [x for x in r.endpoints if c.sponsors.get(x) == r.internal[1]]
            [v] = [x for x in r.endpoints if x != u and x in c.roots]
            data = {"u": u, "v": v, "p": module._oriented_from(r, u)}
            assert module._orientation(g, idx, data) is not None
            pu, pv = module._end_potentials(g, r.internal, u, v)
            assert pu < pv or u > v
            seen["sponsors"] += 1
            seen["ties"] += pu == pv


class TestConstructive:
    def test_cycle_pattern_validity(self):
        for n in range(3, 40):
            pat = cycle_pattern(n)
            for i in range(n):
                assert pat[i] != pat[(i + 1) % n]
                assert pat[i] != pat[(i + 2) % n]

    def test_families(self):
        for g in (cycle(9), cycle(14), spider(7, 2), subdivide(star(7), 2),
                  subdivide(petersen(), 2)):
            phi = constructive_color(g)
            assert is_valid_2distance(g, phi)[0]

    def test_disconnected_input(self):
        base = subdivide(star(7), 1)
        shifted = [(u + base.n, v + base.n) for u, v in cycle(9).edges()]
        g = Graph(base.n + 9, list(base.edges()) + shifted)
        phi = constructive_color(g)
        assert is_valid_2distance(g, phi)[0]

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            constructive_color(star(8))

    def test_rejects_dense(self):
        with pytest.raises(ValueError):
            constructive_color(petersen())

    def test_determinism(self):
        g = fx.two_consecutive_three_paths()
        a = constructive_color(g)
        b = constructive_color(g)
        assert a.colors == b.colors

    def test_random_subdivided_corpus_lite(self):
        rng = random.Random(7)
        solved = 0
        for _ in range(12):
            base = random_sparse_graph(rng, rng.randint(5, 9), extra=2)
            g = subdivide(base, rng.choice((2, 3)))
            if g.max_degree() > 7:
                continue
            value, _ = mad_exact(g)
            if value > DENSITY_BOUND:
                continue
            phi = constructive_color(g)
            assert is_valid_2distance(g, phi)[0]
            solved += 1
        assert solved >= 8

    def test_thousand_vertex_instance(self):
        import time

        from sparse2dc.families import random_skeleton

        rng = random.Random(31)
        skel = random_skeleton(rng, 24, 7, 1)
        while skel.max_degree() > 7:
            skel = random_skeleton(rng, 24, 7, 1)
        g = subdivide(skel, 30)
        extra = subdivide(cycle(3), 80)
        shifted = [(u + g.n, v + g.n) for u, v in extra.edges()]
        big = Graph(g.n + extra.n, list(g.edges()) + shifted)
        assert big.n >= 1000
        start = time.time()
        phi = constructive_color(big)
        assert time.time() - start < 120
        assert is_valid_2distance(big, phi)[0]


class TestDetectorKnockouts:
    """Removing one detector either hands its fixture to a later detector
    (the legitimate fallback) or opens a coverage gap — never a silent
    wrong answer."""

    EXPECTED_FALLBACK = {
        "DegreeOne": "CountingPair",
        "FourPlusPath": "CountingPair",
        "ThreePathBadEnd": "CountingPair",
        "TwoPathBadEnds": "CountingPair",
        "TwoPathChord": "CountingPair",
        "ThreePathCycle": "TwoConsecutiveThreePaths",
        "SmallVertex": "CountingPair",
        "CountingPair": None,
        "WeirdSeven": None,
        "TwoConsecutiveThreePaths": "ThreeConsecutiveThreePaths",
    }

    def fixture_for(self, kind):
        return {
            "DegreeOne": lambda: Graph(4, [(0, 1), (1, 2), (1, 3)]),
            "FourPlusPath": fx.four_plus_path,
            "ThreePathBadEnd": fx.three_path_low_end,
            "TwoPathBadEnds": fx.two_path_low_ends,
            "TwoPathChord": fx.two_path_chord,
            "ThreePathCycle": fx.three_path_cycle,
            "SmallVertex": fx.small_vertex,
            "CountingPair": fx.counting_pair,
            "WeirdSeven": fx.weird_seven_dispatch,
            "TwoConsecutiveThreePaths": fx.two_consecutive_three_paths,
        }[kind]()

    @pytest.mark.parametrize("kind", sorted(EXPECTED_FALLBACK))
    def test_knockout(self, kind, monkeypatch):
        from sparse2dc import reductions as module

        g = self.fixture_for(kind)
        assert detect_configuration(g).kind == kind
        crippled = tuple(k for k in module._REGISTRY if k.name != kind)
        monkeypatch.setattr(module, "_REGISTRY", crippled)
        after = detect_configuration(g)
        expected = self.EXPECTED_FALLBACK[kind]
        if expected is None:
            assert after is None
        else:
            assert after is not None and after.kind == expected
            # the fallback reduction is itself sound on this fixture
            red = apply_reduction(g, after)
            assert red.graph.n + red.graph.m < g.n + g.m


class TestLocalCheck:
    """Inside the solver each extension step checks only the closed
    neighbourhoods of T ∪ N(T), where T is what the step colored, removed
    or cut; the public ``extend_coloring`` still checks the whole graph."""

    def test_agrees_with_the_whole_graph_check(self):
        # phi is valid on g minus the removed vertices and cut edges, and T
        # (those vertices, the cut edges' ends, a few recolored vertices)
        # gets random colors
        rng = random.Random(41)
        verdicts = Counter()
        for _ in range(400):
            g = random_sparse_graph(rng, rng.randint(2, 14), extra=rng.randint(0, 6))
            removed = set(rng.sample(range(g.n), rng.randint(0, 2)))
            kept = [e for e in g.edges() if not removed & set(e)]
            cut = rng.sample(kept, rng.randint(0, min(2, len(kept))))
            h = Graph(g.n, [e for e in kept if e not in cut])
            phi = Coloring(g.n + 4, color_2distance(h, g.n).colors)
            t = removed | set(rng.sample(range(g.n), rng.randint(0, 2)))
            t.update(x for e in cut for x in e)
            for v in t:
                phi.set(v, rng.randint(1, g.n + 4))
            local = _local_violation(g, phi, t) is None
            assert local == is_valid_2distance(g, phi)[0]
            verdicts[local] += 1
        assert min(verdicts.values()) >= 100

    def test_a_clash_in_the_chain_names_its_step(self, monkeypatch):
        from sparse2dc import reductions as module

        run_recipe = module._run_recipe

        def clashing(g, phi, red):
            run_recipe(g, phi, red)
            if red.tag == "greedy":
                v = red.detail["order"][-1]
                phi.set(v, phi.get(g.adjacency[v][0]))

        monkeypatch.setattr(module, "_run_recipe", clashing)
        with pytest.raises(ExtensionError) as info:
            constructive_color(fx.four_plus_path(), verify_preconditions=False)
        assert info.value.tag == "greedy"
        assert info.value.state == {"stage": "local-validation"}

    def test_public_extension_checks_the_whole_graph(self):
        g = fx.four_plus_path()
        cfg = detect_configuration(g)
        red = apply_reduction(g, cfg)
        assert red.recorded["removed_edges"] == ((9, 10),)
        ch = color_2distance(red.graph, 8)
        ch.set(5, ch.get(6))  # a K4 edge at distance 4 from the cut edge
        with pytest.raises(ExtensionError) as info:
            extend_coloring(g, cfg, red, ch)
        assert info.value.vertex == (5, 6, 1)
        assert info.value.state == {"stage": "final-validation"}


class TestPrecondition:
    def test_density_verdict_matches_the_bruteforce_mad(self):
        # the solver refuses exactly the graphs with mad > 18/7, with the
        # witness mad_exact gives
        rng = random.Random(1812)
        verdicts = Counter()
        while min(verdicts[True], verdicts[False]) < 25:
            g = random_sparse_graph(rng, rng.randint(2, 14), extra=rng.randint(0, 12))
            if g.max_degree() > 7:
                continue
            dense = mad_bruteforce(g) > DENSITY_BOUND
            if dense:
                value, witness = mad_exact(g)
                message = f"density {value} exceeds 18/7 (witness {sorted(witness)})"
                with pytest.raises(ValueError, match=re.escape(message)):
                    constructive_color(g)
            else:
                assert is_valid_2distance(g, constructive_color(g))[0]
            verdicts[dense] += 1


class TestDegenerateInputs:
    def test_empty_graph(self):
        g = Graph(0, [])
        phi = constructive_color(g)
        assert phi.colors == {}

    def test_isolated_vertices(self):
        g = Graph(3, [])
        phi = constructive_color(g)
        assert is_valid_2distance(g, phi)[0]

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        phi = constructive_color(g)
        assert is_valid_2distance(g, phi)[0]
        assert phi.get(0) != phi.get(1)


class TestRecipeStability:
    """Extension recipes must work for every valid reduced-graph coloring,
    not just the one the solver happens to find; palette permutations
    exercise the forced-copy steps with varied inputs."""

    def permuted(self, ch, rng):
        p = list(range(1, 9))
        rng.shuffle(p)
        remap = {i + 1: p[i] for i in range(8)}
        from sparse2dc.coloring import Coloring

        return Coloring(8, {v: remap[c] for v, c in ch.colors.items()})

    def stress(self, g, cfg, rng, rounds=8):
        red = apply_reduction(g, cfg)
        ch = color_2distance(red.graph, 8, budget=10_000_000)
        assert ch is not None
        for _ in range(rounds):
            phi = extend_coloring(g, cfg, red, self.permuted(ch, rng))
            assert is_valid_2distance(g, phi)[0]

    def test_dispatch_fixtures(self):
        rng = random.Random(5)
        for g in (fx.four_plus_path(), fx.three_path_cycle(),
                  fx.two_consecutive_three_paths(), fx.weird_seven_dispatch()):
            self.stress(g, detect_configuration(g), rng)

    def test_local_fixtures(self):
        rng = random.Random(6)
        for case in ("two-path", "three-path", "deg-three"):
            g = fx.weird_seven_local(case)
            self.stress(g, registry_witness("WeirdSeven", g), rng)
        g = fx.weird_six_local()
        self.stress(g, registry_witness("WeirdSix", g), rng)
        g = fx.seven_seven_local()
        self.stress(g, registry_witness("SevenSevenTwoPaths", g), rng)
        g = fx.sponsor_bridges_local()
        self.stress(g, registry_witness("SponsorManyBridges", g), rng)
        for k in range(7):
            g = fx.sponsor_all_bad_local(k)
            self.stress(g, registry_witness("SponsorAllBadNeighbors", g), rng)
        g = fx.sponsor_small_x_local()
        self.stress(g, registry_witness("SponsorWithSmallX", g), rng)

    def test_jittered_sponsor_shapes(self):
        """Randomized far degrees and slot mixes across the sponsor family."""
        from sparse2dc import reductions as module

        rng = random.Random(7)
        for trial in range(12):
            b = fx.GraphBuilder()
            u, v = b.vertex(), b.vertex()
            b.run(u, v, 3)
            b.leaves(v, 6)
            k = rng.randint(0, 6)
            for _ in range(k):
                c = b.vertex()
                b.run(u, c, 2)
                b.leaves(c, rng.randint(1, 4))  # far degree 2..5
            for _ in range(6 - k):
                w = b.vertex()
                b.edge(u, w)
                for _ in range(2):
                    f = b.vertex()
                    b.run(w, f, 2)
                    b.leaves(f, rng.randint(1, 3))
            g = b.build()
            cfg = module._BY_KIND["SponsorAllBadNeighbors"].detect(g, _RunIndex(g))
            if cfg is None:
                continue  # a far vertex may be degree 2, changing the run shape
            self.stress(g, cfg, rng, rounds=4)

    def test_small_x_as_relay_two_vertex(self):
        """x may be the 2-vertex between u and a 3-vertex."""
        g, x = small_x_relay()
        cfg = registry_witness("SponsorWithSmallX", g)
        assert cfg is not None and cfg.data["x"] == x
        self.stress(g, cfg, random.Random(8), rounds=6)


class TestBaseComponents:
    """Above the size threshold, a graph on which no configuration fires is
    colored one component at a time by ``_base_color``."""

    def test_irreducible_degree_seven_component(self):
        with pytest.raises(InternalContradiction) as caught:
            constructive_color(fx.weird_seven_dispatch(), verify_preconditions=False)
        assert str(caught.value) == (
            "no configuration fires on an irreducible max-degree-7 component"
        )

    def test_petersen_has_no_eight_coloring(self):
        g = petersen()
        assert g.n + g.m == 25 > BASE_THRESHOLD and detect_configuration(g) is None
        with pytest.raises(ConstructiveFailure) as caught:
            constructive_color(g, verify_preconditions=False)
        assert str(caught.value) == "irreducible low-degree component admits no 8-coloring"

    def test_dodecahedron_is_colored_by_search(self):
        # the generalized Petersen graph GP(10, 2)
        g = Graph(20, [e for i in range(10)
                       for e in ((i, (i + 1) % 10), (i, 10 + i), (10 + i, 10 + (i + 2) % 10))])
        assert {g.degree(v) for v in g.vertices()} == {3} and girth(g) == 5
        assert detect_configuration(g) is None
        phi = constructive_color(g, verify_preconditions=False)
        assert is_valid_2distance(g, phi)[0] and phi.is_total(g)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted."""
    seen, comps = set(), []
    for s in g.vertices():
        if s in seen:
            continue
        comp, todo = [s], [s]
        seen.add(s)
        while todo:
            for y in g.adjacency[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    todo.append(y)
        comps.append(sorted(comp))
    return comps


def reference_base_color(g: Graph) -> Coloring:
    """``_base_color`` as it was, on a whole ``Graph`` snapshot of the
    residual: one component at a time."""
    phi = Coloring(8)
    if g.n == 0:
        return phi
    if g.n + g.m <= BASE_THRESHOLD:
        c = color_2distance(g, 8)
        if c is None:
            raise ConstructiveFailure("exhaustive base case found no 8-coloring")
        return c
    _, cycles = degree_two_runs(g)
    cycle_by_set = {frozenset(c): c for c in cycles}
    for comp in connected_components(g):
        if len(comp) == 1:
            phi.set(comp[0], 1)
            continue
        key = frozenset(comp)
        if key in cycle_by_set:
            ring = cycle_by_set[key]
            for v, c in zip(ring, cycle_pattern(len(ring))):
                phi.set(v, c)
            continue
        sub, remap = remove_vertices(g, set(g.vertices()) - key)
        if sub.max_degree() == 7:
            raise InternalContradiction(
                "no configuration fires on an irreducible max-degree-7 component"
            )
        c = color_2distance(sub, 8, budget=5_000_000)
        if c is None:
            raise ConstructiveFailure(
                "irreducible low-degree component admits no 8-coloring"
            )
        for v in comp:
            phi.set(v, c.get(remap[v]))
    return phi


def gapped_residual(rng, pieces) -> _WorkGraph:
    """A working graph whose live part is the ``pieces``, with gaps in its
    ids: removed ghost vertices sit between and next to them, and some
    cycles close through fresh ids.  A piece is "isolated", ("cycle", L),
    ("low", n) (a random connected graph of maximum degree at most 6),
    "seven" (the star K_{1,7}), "star8" (K_{1,8}) or "petersen"."""
    b = fx.GraphBuilder()
    ghosts, closes = [], []

    def place(n, edges):
        ids = [b.vertex() for _ in range(n)]
        rng.shuffle(ids)
        for u, v in edges:
            b.edge(ids[u], ids[v])
        return ids

    for piece in pieces:
        for _ in range(rng.randint(0, 2)):
            ghost = b.vertex()
            ghosts.append(ghost)
            if ghost and rng.random() < 0.5:  # its removal edits a neighbour
                b.edge(rng.randrange(ghost), ghost)
        kind, size = piece if isinstance(piece, tuple) else (piece, 0)
        if kind == "isolated":
            place(1, [])
        elif kind == "cycle":
            fresh = rng.randint(0, size - 2)
            ids = place(size - fresh, [(i, i + 1) for i in range(size - fresh - 1)])
            if fresh:
                closes.append((ids[-1], ids[0], fresh))
            else:
                b.edge(ids[-1], ids[0])
        elif kind == "low":
            deg = [0] * size
            edges = []
            for v in range(1, size):
                u = rng.choice([u for u in range(v) if deg[u] < 6])
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
            for _ in range(2):
                u, v = rng.sample(range(size), 2)
                if max(deg[u], deg[v]) < 6 and (u, v) not in edges and (v, u) not in edges:
                    edges.append((u, v))
                    deg[u] += 1
                    deg[v] += 1
            place(size, edges)
        elif kind in ("seven", "star8"):
            leaves = 7 if kind == "seven" else 8
            place(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        else:
            place(10, petersen().edges())
    wg = _WorkGraph(b.build())
    wg.begin()
    for ghost in ghosts:
        wg.remove_vertex(ghost)
    for u, v, k in closes:
        wg.add_path(u, v, k)
    return wg


class TestBaseCase:
    """The base case colors the residual working graph in place, by stable
    id, exactly as the whole-snapshot version did."""

    @staticmethod
    def outcome(color, wg):
        try:
            return color(wg)
        except (InternalContradiction, ConstructiveFailure) as exc:
            return type(exc).__name__, str(exc)

    @staticmethod
    def by_snapshot(wg):
        h, remap = remove_vertices(wg, ())
        colors = reference_base_color(h).colors
        return {v: colors[remap[v]] for v in wg.vertices()}

    def test_colors_as_the_snapshot_did(self, monkeypatch):
        from sparse2dc import reductions

        cuts = []
        cut = reductions.remove_vertices

        def counted_cut(g, drop):
            cuts.append(frozenset(g.vertices()) - frozenset(drop))  # the kept ids
            return cut(g, drop)

        monkeypatch.setattr(reductions, "remove_vertices", counted_cut)
        rng = random.Random(27)
        seen = Counter()
        for trial in range(160):
            pieces = ["isolated"] * rng.randint(0, 6)
            pieces += [("cycle", rng.randint(3, 12)) for _ in range(rng.randint(0, 3))]
            pieces += [("low", rng.randint(3, 9)) for _ in range(rng.randint(0, 2))]
            pieces += rng.sample(["seven", "petersen", "star8"], rng.choice((0, 0, 0, 1, 2)))
            rng.shuffle(pieces)
            wg = gapped_residual(rng, pieces)
            cuts.clear()
            got = self.outcome(reductions._base_color, wg)
            assert got == self.outcome(self.by_snapshot, wg), pieces
            small = wg.size() <= BASE_THRESHOLD
            seen[small, got if isinstance(got, tuple) else "colored"] += 1
            if not small:  # each search cuts out its component, and nothing else
                h, ids = remove_vertices(wg, ())
                live = {new: old for old, new in ids.items()}
                searched = {frozenset(map(live.get, c)) for c in connected_components(h)
                            if len(c) > 1 and any(h.degree(v) != 2 for v in c)}
                assert len(set(cuts)) == len(cuts) and set(cuts) <= searched
                assert set(cuts) == searched or not isinstance(got, dict)
        assert set(seen) == {
            (True, "colored"), (False, "colored"),
            (True, ("ConstructiveFailure", "exhaustive base case found no 8-coloring")),
            (False, ("ConstructiveFailure",
                     "irreducible low-degree component admits no 8-coloring")),
            (False, ("InternalContradiction",
                     "no configuration fires on an irreducible max-degree-7 component")),
        }, seen


class TestBoundaryFuzz:
    """Mutated hub networks sit right at the density boundary and mix every
    long-run shape; the solver must hold up across local edits."""

    def test_mutated_hub_networks(self):
        from sparse2dc.families import random_hub_network

        rng = random.Random(31337)

        def fresh_hub():
            while True:
                try:
                    return random_hub_network(rng, rng.choice((4, 6)))
                except ValueError:
                    continue

        def mutate(g):
            edges = list(g.edges())
            if rng.random() < 0.5 and edges:
                edges.remove(rng.choice(edges))
                return Graph(g.n, edges)
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            if a == b:
                return g
            k = rng.randint(1, 3)
            chain = [a] + list(range(g.n, g.n + k)) + [b]
            try:
                return Graph(g.n + k, edges + list(zip(chain, chain[1:])))
            except ValueError:
                return g

        solved = 0
        while solved < 150:
            g = fresh_hub()
            for _ in range(rng.randint(0, 6)):
                g2 = mutate(g)
                if g2.max_degree() <= 7:
                    g = g2
            if mad_exact(g)[0] > DENSITY_BOUND:
                continue
            phi = constructive_color(g, verify_preconditions=False)
            assert is_valid_2distance(g, phi)[0]
            solved += 1


class TestRelabeling:
    def test_relabeling_keeps_density_potential_kind_and_validity(self):
        """A random vertex permutation keeps the exact density, the
        potential of a mapped pair, the first firing kind, and the validity
        of the solver's coloring.  Shuffling the edge list and swapping
        endpoints gives an equal graph, the same first kind and the very
        same coloring."""
        from sparse2dc.verify import (
            GenerationError,
            random_capped_instance,
            random_hub_instance,
            random_tree_instance,
        )

        def first_kind(g):
            cfg = detect_configuration(g)
            return None if cfg is None else cfg.kind

        rng = random.Random(31)
        shuffle_rng = random.Random(32)
        makers = (random_capped_instance, random_tree_instance, random_hub_instance)
        checked = 0
        for i in range(60):
            try:
                g, _ = makers[i % 3](rng)
            except GenerationError:
                continue
            value = mad_exact(g)[0]
            if g.max_degree() > 7 or value > DENSITY_BOUND:
                continue
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert mad_exact(h)[0] == value
            u, v = rng.sample(range(g.n), 2)
            assert rho_star(h, {perm[u], perm[v]}).value == rho_star(g, {u, v}).value
            assert first_kind(h) == first_kind(g)
            phi = constructive_color(h, verify_preconditions=False)
            assert is_valid_2distance(h, phi)[0]
            edges = [
                (v, u) if shuffle_rng.random() < 0.5 else (u, v) for u, v in g.edges()
            ]
            shuffle_rng.shuffle(edges)
            s = Graph(g.n, edges)
            assert s == g
            assert first_kind(s) == first_kind(g)
            coloring = constructive_color(g, verify_preconditions=False).colors
            assert constructive_color(s, verify_preconditions=False).colors == coloring
            checked += 1
        assert checked >= 40


def fold_degree_one(steps):
    """Merge each run of consecutive DegreeOne records into one record with
    the removed edges concatenated in order, so a chain that peels pendant
    edges one at a time and one that peels them in batches read alike."""
    out = []
    for kind, tag, recorded in steps:
        if kind == "DegreeOne" and out and out[-1][0] == "DegreeOne":
            edges = out[-1][2]["removed_edges"] + recorded["removed_edges"]
            out[-1] = [kind, tag, {"removed_edges": edges}]
        else:
            out.append([kind, tag, recorded])
    return out


def record_steps(monkeypatch):
    """Wrap ``apply_reduction`` so each reduction appends its
    ``[kind, tag, recorded]`` to the returned list.  The solver's working
    graph keeps stable ids, so each id of a removed edge is recorded as its
    rank among the live ids before the step: the id a graph renumbered
    after every step would give it."""
    from sparse2dc import reductions as module

    steps: list = []
    original = module.apply_reduction

    def recording(g, cfg, *args, **kwargs):
        rank = {v: i for i, v in enumerate(g.vertices())}
        red = original(g, cfg, *args, **kwargs)
        recorded = dict(red.recorded)
        if "removed_edges" in recorded:
            recorded["removed_edges"] = tuple(
                (rank[u], rank[v]) for u, v in recorded["removed_edges"]
            )
        steps.append([cfg.kind, red.tag, recorded])
        return red

    monkeypatch.setattr(module, "apply_reduction", recording)
    return steps


class TestOutputIdentity:
    """The reduction chain is pinned byte for byte: a refactor that changes
    a fired kind, a surgery tag, a splice certificate, the order of a
    removed pendant edge or a color anywhere in this corpus changes the
    digest.  Runs of DegreeOne steps are folded into one record, so the
    digest does not depend on how many pendant edges one step peels."""

    PINNED = "d813dad8e3ac"

    FIXTURES = (
        "four_plus_path", "three_path_low_end", "three_path_closed",
        "two_path_low_ends", "two_path_closed", "two_path_chord", "small_vertex",
        "counting_pair", "three_path_cycle", "two_consecutive_three_paths",
        "weird_seven_dispatch", "weird_six_local", "seven_seven_local",
        "sponsor_bridges_local", "sponsor_all_bad_same_far", "sponsor_small_x_local",
    )

    def corpus(self):
        from sparse2dc.verify import (
            GenerationError,
            random_capped_instance,
            random_hub_instance,
            random_tree_instance,
        )

        for name in self.FIXTURES:
            yield name, getattr(fx, name)()
        for case in ("two-path", "three-path", "deg-three"):
            yield f"weird_seven_local({case})", fx.weird_seven_local(case)
        for k in range(7):
            yield f"sponsor_all_bad_local({k})", fx.sponsor_all_bad_local(k)
        rng = random.Random(2103)
        makers = (random_capped_instance, random_tree_instance, random_hub_instance)
        for i in range(42):
            maker = makers[i % 3]
            try:
                g, _ = maker(rng)
            except GenerationError:
                continue
            yield f"{maker.__name__}#{i}", g

    def test_chain_and_coloring_digest(self, monkeypatch):
        steps = record_steps(monkeypatch)
        records = []
        for name, g in self.corpus():
            steps.clear()
            try:
                phi = constructive_color(g)
            except ValueError:  # outside the hypotheses: degree or density
                records.append({"graph": name, "accepted": False})
                continue
            colors = [phi.get(v) for v in g.vertices()]
            records.append(
                {"graph": name, "steps": fold_degree_one(steps), "colors": colors}
            )
        assert sum("steps" in r for r in records) >= 60
        blob = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED

    #: ``classify_vertices`` and ``run_discharge`` on the same corpus; the
    #: sponsors are kept in the order classification assigns them.
    PINNED_CLASSES = "a8789dd2fb8d"

    def test_classification_and_ledger_digest(self):
        records = []
        for name, g in self.corpus():
            record = {"graph": name}
            try:
                c = classify_vertices(g)
                record["classes"] = [
                    sorted(c.two_kind.items()), sorted(c.one_path_bridges),
                    c.bridge_pairs, list(c.sponsors.items()), sorted(c.roots),
                ]
                record["ledger"] = run_discharge(g).to_json()
            except ForestOfStarsError as exc:
                record["refused"] = [str(exc), repr(exc.witness)]
            except ValueError as exc:  # discharging needs minimum degree 2
                record["refused"] = str(exc)
            records.append(record)
        assert sum("classes" in r for r in records) >= 35
        assert sum("ledger" in r for r in records) >= 15
        assert sum(isinstance(r.get("refused"), list) for r in records) >= 1
        blob = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_CLASSES


def three_consecutive_chain():
    """Four hubs chained by three 3-runs, each hub with two leaves."""
    b = fx.GraphBuilder()
    hubs = [b.vertex() for _ in range(4)]
    for x, y in zip(hubs, hubs[1:]):
        b.run(x, y, 3)
    for h in hubs:
        b.leaves(h, 2)
    return b.build()


def small_x_relay():
    """A sponsor whose x is the 2-vertex between u and a 3-vertex; returns
    the graph and x."""
    b = fx.GraphBuilder()
    u, v = b.vertex(), b.vertex()
    b.run(u, v, 3)
    b.leaves(v, 6)
    c = b.vertex()
    b.run(u, c, 2)
    b.leaves(c, 2)
    for _ in range(4):
        w = b.vertex()
        b.edge(u, w)
        for _ in range(2):
            f = b.vertex()
            b.run(w, f, 2)
            b.leaves(f, 2)
    t = b.vertex()
    x = b.run(u, t, 1)[0]  # large 2-vertex relay toward a 3-vertex
    b.leaves(t, 2)
    return b.build(), x


class TestKindRecipes:
    """The eight kinds that ``TestOutputIdentity``'s corpus never fires are
    pinned on their own fixtures: each graph goes through its kind's
    registry detector, ``apply_reduction`` (which validates the witness),
    an exact coloring of the reduced graph and ``extend_coloring``."""

    PINNED_KINDS = "382d1af69558"

    def corpus(self):
        yield "TwoPathChord", "two_path_chord", fx.two_path_chord()
        yield "WeirdSeven", "weird_seven_dispatch", fx.weird_seven_dispatch()
        for case in ("two-path", "three-path", "deg-three"):
            yield "WeirdSeven", f"weird_seven_local({case})", fx.weird_seven_local(case)
        yield "WeirdSix", "weird_six_local", fx.weird_six_local()
        yield "ThreeConsecutiveThreePaths", "two_consecutive_three_paths", \
            fx.two_consecutive_three_paths()
        yield "ThreeConsecutiveThreePaths", "three_consecutive_chain", \
            three_consecutive_chain()
        yield "SevenSevenTwoPaths", "seven_seven_local", fx.seven_seven_local()
        yield "SponsorManyBridges", "sponsor_bridges_local", fx.sponsor_bridges_local()
        for k in range(7):
            yield "SponsorAllBadNeighbors", f"sponsor_all_bad_local({k})", \
                fx.sponsor_all_bad_local(k)
        yield "SponsorAllBadNeighbors", "sponsor_all_bad_same_far", \
            fx.sponsor_all_bad_same_far()
        yield "SponsorWithSmallX", "sponsor_small_x_local", fx.sponsor_small_x_local()
        yield "SponsorWithSmallX", "small_x_relay", small_x_relay()[0]

    def test_recipe_digest(self):
        records = []
        for kind, name, g in self.corpus():
            cfg = registry_witness(kind, g)
            red = apply_reduction(g, cfg)
            phi = extend_coloring(g, cfg, red, color_2distance(red.graph, 8))
            colors = [phi.get(v) for v in g.vertices()]
            records.append([kind, name, red.tag, red.recorded, red.detail, colors])
        assert len({r[0] for r in records}) == 8
        blob = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_KINDS

    PINNED_RELABELLED = "4ea2407552fa"

    def test_relabelled_extensions_digest(self):
        """Each recipe of the corpus runs on 30 reduced colorings per graph:
        the reduced graph is relabelled at random, colored by
        ``color_2distance``, and its palette shuffled.  Those colorings never
        give claim 3's w_j and w_j' one color, so the fixture
        ``sponsor_all_bad_same_far(4)`` runs once more with the solver
        coloring its reduced graph, which does.  The colors, any errors and
        the count of such ties are pinned."""
        exact = lambda h: color_2distance(h, 8)  # noqa: E731
        solver = lambda h: constructive_color(h, verify_preconditions=False)  # noqa: E731
        inputs = [(kind, name, g, exact) for kind, name, g in self.corpus()]
        inputs.append(("SponsorAllBadNeighbors", "sponsor_all_bad_same_far(4)",
                       fx.sponsor_all_bad_same_far(4), solver))
        records, ties = [], 0
        for kind, name, g, color in inputs:
            cfg = registry_witness(kind, g)
            red = apply_reduction(g, cfg)
            h = red.graph
            _, remap = remove_vertices(g, red.removed)
            for seed in range(30):
                rng = random.Random(seed)
                perm = list(range(h.n))
                rng.shuffle(perm)
                palette = list(range(1, 9))
                rng.shuffle(palette)
                c = color(Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()]))
                ch = Coloring(8, {v: palette[c.colors[perm[v]] - 1] for v in h.vertices()})
                if red.tag == "sponsor-allbad-claim3":
                    d = red.detail
                    w_j, w_jp = (remap[d["w"][t][0]] for t in (d["j"], d["jp"]))
                    ties += ch.get(w_j) == ch.get(w_jp)
                try:
                    phi = extend_coloring(g, cfg, red, ch)
                    out = [phi.get(v) for v in g.vertices()]
                except ExtensionError as exc:
                    out = [exc.tag, repr(exc.vertex), repr(exc.state)]
                records.append([name, seed, out])
        assert ties > 0
        blob = json.dumps([records, ties], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_RELABELLED


#: The recipe steps, each with the number of arguments it takes.
STEP_ARITY = {"unset": 1, "greedy": 1, "sdr": 1, "ring": 1,
              "copy": 2, "share": 2, "part": 2, "repeat": 3}


def recipe_ops(recipe, live, n_added, removed):
    """Check a recipe against the graph before its step: every step is one
    of the eight, every vertex it names is live there (a copy may read a
    spliced vertex instead, by a valid position in ``added``), every removed
    vertex gets colored, and every vertex a step uncolors is colored again
    by a later one.  Returns the ops used."""
    painted, uncolored, ops = set(), set(), set()
    for step in recipe:
        op, args = step[0], step[1:]
        assert STEP_ARITY.get(op) == len(args), step
        ops.add(op)
        if op == "copy" and isinstance(args[1], tuple):
            assert args[1][0] == "added" and 0 <= args[1][1] < n_added, step
            args = args[:1]
        named = list(args[0]) if STEP_ARITY[op] == 1 else list(args)
        assert all(isinstance(v, int) and v in live for v in named), step
        if op == "unset":
            uncolored.update(named)
            continue
        # a copy, part or repeat colors its first vertex and reads the rest
        colors = named if op in ("greedy", "sdr", "ring", "share") else named[:1]
        painted.update(colors)
        uncolored.difference_update(colors)
    assert set(removed) <= painted and not uncolored, recipe
    return ops


class TestRecipeForm:
    """Every recipe is data in the eight-step vocabulary of ``_run_recipe``
    that names only vertices of the graph before its step: on every
    reduction of the ``PINNED`` and ``PINNED_KINDS`` corpora, and on every
    template a splice applier offers there, fitting or not."""

    def test_recipes_are_well_formed(self, monkeypatch):
        from sparse2dc import reductions as module

        ops, tags = set(), Counter()
        apply, first_fit = module.apply_reduction, module._first_fit

        def checked_apply(g, cfg):
            live = set(g.vertices())
            red = apply(g, cfg)
            ops.update(recipe_ops(red.recipe, live, len(red.added), red.removed))
            tags[red.tag] += 1
            return red

        def checked_first_fit(g, templates, message):
            templates, live = list(templates), set(g.vertices())
            for dropped, paths, tag, _, recipe in templates:
                ops.update(recipe_ops(recipe, live, sum(k for _, _, k in paths), dropped))
                tags["template " + tag] += 1
            return first_fit(g, templates, message)

        monkeypatch.setattr(module, "apply_reduction", checked_apply)
        monkeypatch.setattr(module, "_first_fit", checked_first_fit)
        for _, g in TestOutputIdentity().corpus():
            try:
                constructive_color(g)
            except ValueError:  # outside the hypotheses
                pass
        for kind, _, g in TestKindRecipes().corpus():
            module.apply_reduction(g, registry_witness(kind, g))
        assert ops == set(STEP_ARITY)
        # 13 tags fire; claim 5 and the two edge templates are only offered
        assert len({t.removeprefix("template ") for t in tags}) == 16
        assert len([t for t in tags if not t.startswith("template ")]) == 13

    def test_an_unknown_step_is_refused(self):
        g = fx.two_consecutive_three_paths()
        cfg = detect_configuration(g)
        red = apply_reduction(g, cfg)
        ch = color_2distance(red.graph, 8)
        planted = replace(red, recipe=red.recipe[:1] + (("paint", 0, 1),) + red.recipe[1:])
        with pytest.raises(ValueError, match="^two-consecutive recipe: unknown step 'paint'$"):
            extend_coloring(g, cfg, planted, ch)


def _apply_degree_one_per_edge(g, cfg):
    """The single-edge DegreeOne surgery that batched peeling replaced."""
    v, u = cfg.data["v"], cfg.data["u"]
    return _edge_removal(g, [(v, u)], *_greedy((v,)))


class ReferenceWorkGraph(_WorkGraph):
    """The working graph's edits as first written: each new adjacency is
    filtered from the old one through ``_set``."""

    __slots__ = ()

    def remove_edge(self, u, v):
        if not self.has_edge(u, v):
            raise ValueError(f"edge {(u, v)} not present")
        self._set(u, tuple(x for x in self.adjacency[u] if x != v))
        self._set(v, tuple(x for x in self.adjacency[v] if x != u))
        self.m -= 1

    def remove_vertex(self, v):
        for w in self.adjacency[v]:
            self._set(w, tuple(x for x in self.adjacency[w] if x != v))
        self.m -= self.degree(v)
        self._set(v, ())
        del self._ids[bisect_left(self._ids, v)]
        self._log[-1][3].append(v)


class TestWorkGraphEdits:
    """Random edit sequences on the working graph agree, after every
    operation, with an edge-set model and with the filter-built edits."""

    @staticmethod
    def state(wg):
        return (list(wg.adjacency), wg.n, wg.m, list(wg._ids), list(wg.dirty),
                [(n, m, dict(saved), list(gone)) for n, m, saved, gone in wg._log])

    def test_edits_match_the_model_and_the_reference(self):
        rng = random.Random(26)
        counts = Counter()
        for trial in range(150):
            g = random_sparse_graph(rng, rng.randint(2, 16), extra=rng.randint(0, 6))
            ours, theirs = _WorkGraph(g), ReferenceWorkGraph(g)
            edges, live = set(g.edges()), set(g.vertices())
            stack = []  # per open step: the model and the adjacency at ``begin``
            for _ in range(40):
                op = rng.choice(("begin", "edge", "missing", "vertex", "path", "undo"))
                if op == "begin" or not stack:
                    op = "begin"
                    stack.append((set(edges), set(live), list(ours.adjacency)))
                    for wg in (ours, theirs):
                        wg.begin()
                elif op == "undo":
                    edges, live, before = stack.pop()
                    for wg in (ours, theirs):
                        wg.undo()
                    assert all(a is b for a, b in zip(ours.adjacency, before, strict=True))
                elif op == "edge" and edges:
                    u, v = rng.choice(sorted(edges))
                    u, v = (u, v) if rng.random() < 0.5 else (v, u)
                    edges.discard((min(u, v), max(u, v)))
                    for wg in (ours, theirs):
                        wg.remove_edge(u, v)
                elif op == "missing":
                    u, v = rng.randrange(ours.n), rng.randrange(ours.n)
                    if (min(u, v), max(u, v)) in edges:
                        continue
                    before = self.state(ours)
                    with pytest.raises(ValueError, match=re.escape(f"edge {(u, v)} not present")):
                        ours.remove_edge(u, v)
                    assert self.state(ours) == before
                elif op == "vertex" and live:
                    v = rng.choice(sorted(live))
                    live.discard(v)
                    edges = {e for e in edges if v not in e}
                    for wg in (ours, theirs):
                        wg.remove_vertex(v)
                elif op == "path" and len(live) >= 2:
                    u, v = rng.sample(sorted(live), 2)
                    k = rng.randint(0 if (min(u, v), max(u, v)) not in edges else 1, 3)
                    chain = [u, *range(ours.n, ours.n + k), v]
                    for wg in (ours, theirs):
                        wg.add_path(u, v, k)
                    live.update(chain)
                    edges.update((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
                counts[op] += 1
                assert self.state(ours) == self.state(theirs)
                assert ours.adjacency == list(Graph(ours.n, sorted(edges)).adjacency)
                assert all(list(a) == sorted(a) for a in ours.adjacency)
                assert (ours.m, ours.vertices()) == (len(edges), sorted(live))
        assert min(counts.values()) >= 200


class TestBatchedPeeling:
    """One DegreeOne step peels the pendant edges that one-edge steps would
    peel one by one, and the solver's colorings stay the same."""

    def corpus(self):
        from sparse2dc.families import random_skeleton
        from sparse2dc.verify import (
            GenerationError,
            random_capped_instance,
            random_hub_instance,
            random_tree_instance,
        )

        rng = random.Random(11687)
        makers = (random_capped_instance, random_tree_instance, random_hub_instance)
        for i in range(40):
            try:
                yield makers[i % 3](rng)[0]
            except GenerationError:
                continue
        skel = random_skeleton(rng, 144, 7, 2)
        while skel.max_degree() != 7:
            skel = random_skeleton(rng, 144, 7, 2)
        yield subdivide(skel, 2)
        yield self.tree()

    def tree(self):
        tree = random_sparse_graph(random.Random(4), 20, extra=0)
        assert tree.n + tree.m == 39 and tree.max_degree() <= 7
        return tree

    def solve(self, g, monkeypatch):
        with monkeypatch.context() as patch:
            steps = record_steps(patch)
            try:
                phi = constructive_color(g)
            except ValueError:  # outside the hypotheses: degree or density
                return None
        return steps, [phi.get(v) for v in g.vertices()]

    def test_same_chain_and_coloring_as_per_edge_surgery(self, monkeypatch):
        from sparse2dc import reductions as module

        batched = [self.solve(g, monkeypatch) for g in self.corpus()]
        per_edge = module._BY_KIND["DegreeOne"]._replace(
            apply=_apply_degree_one_per_edge
        )
        monkeypatch.setattr(module, "_REGISTRY", tuple(
            per_edge if k.name == "DegreeOne" else k for k in module._REGISTRY
        ))
        monkeypatch.setitem(module._BY_KIND, "DegreeOne", per_edge)
        single = [self.solve(g, monkeypatch) for g in self.corpus()]

        assert sum(r is not None for r in batched) >= 35
        assert max(len(r[1]) for r in batched if r) >= 500
        assert [r is None for r in batched] == [r is None for r in single]
        batches = 0
        for ours, theirs in zip(batched, single):
            if ours is None:
                continue
            (steps, colors), (one_by_one, their_colors) = ours, theirs
            assert colors == their_colors
            assert fold_degree_one(one_by_one) == steps
            kinds = [kind for kind, _, _ in steps]
            assert ("DegreeOne", "DegreeOne") not in zip(kinds, kinds[1:])
            batches += len(one_by_one) > len(steps)
        assert batches >= 10

    def test_batch_stops_at_the_base_threshold(self):
        tree = self.tree()
        cfg = detect_configuration(tree)
        assert cfg.kind == "DegreeOne"
        red = apply_reduction(tree, cfg)
        assert red.graph.n + red.graph.m == BASE_THRESHOLD == 24
        assert len(red.recorded["removed_edges"]) == 15


def capped_skeleton(rng, size):
    """A 2-subdivided skeleton built in O(size): a random tree with every
    degree at most 3, vertex 0 topped up to degree 7, and its leaves
    paired by extra edges."""
    degree = [0] * size
    edges = set()

    def join(u, v):
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    open_ = [0]  # the vertices a new vertex may hang from
    for v in range(1, size):
        i = rng.randrange(len(open_))
        u = open_[i]
        join(u, v)
        if degree[u] == 3:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    for v in rng.sample(range(1, size), size - 1):
        if degree[0] == 7:
            break
        if degree[v] < 3 and (0, v) not in edges:
            join(0, v)
    leaves = [v for v in range(size) if degree[v] == 1]
    for a, b in zip(leaves[::2], leaves[1::2]):
        if (min(a, b), max(a, b)) not in edges:
            join(a, b)
    return subdivide(Graph(size, edges), 2)


def scan_degree_one(g, runs):
    for v in g.vertices():
        if g.degree(v) == 1:
            return Configuration("DegreeOne", {"v": v, "u": g.adjacency[v][0]})
    return None


def scan_four_plus_path(g, runs):
    for r in runs:
        if r.length >= 4:
            chain = (r.endpoints[0], *r.internal, r.endpoints[1])
            return Configuration("FourPlusPath", {"chain": chain[:6], "run": r})
    return None


def scan_three_path_bad_end(g, runs):
    for r in runs:
        if r.length != 3:
            continue
        u, v = r.endpoints
        if r.closed:
            return Configuration("ThreePathBadEnd", {"case": "closed", "run": r})
        if g.degree(u) < 7 or g.degree(v) < 7:
            low = min((g.degree(u), u), (g.degree(v), v))[1]
            return Configuration(
                "ThreePathBadEnd", {"case": "low-end", "run": r, "low": low}
            )
    return None


def scan_two_path_bad_ends(g, runs):
    for r in runs:
        if r.length != 2:
            continue
        u, v = r.endpoints
        if r.closed:
            return Configuration("TwoPathBadEnds", {"case": "closed", "run": r})
        lo, hi = sorted((g.degree(u), g.degree(v)))
        if lo <= 5 and hi <= 6:
            low = min((g.degree(u), u), (g.degree(v), v))[1]
            return Configuration(
                "TwoPathBadEnds", {"case": "low-ends", "run": r, "low": low}
            )
    return None


def scan_two_path_chord(g, runs):
    for r in runs:
        if r.length != 2 or r.closed:
            continue
        u, v = r.endpoints
        if not g.has_edge(u, v):
            continue
        for hi, lo in ((u, v), (v, u)):
            if g.degree(hi) == 7 and g.degree(lo) <= 6:
                return Configuration(
                    "TwoPathChord", {"run": r, "seven": hi, "other": lo}
                )
    return None


def with_ring(g):
    """``g`` plus a disjoint 9-cycle, on which no configuration fires: it
    lifts a small fixture above the base-case size."""
    ring = [(g.n + i, g.n + (i + 1) % 9) for i in range(9)]
    return Graph(g.n + 9, list(g.edges()) + ring)


#: The five structural detectors as they were before the run index was kept
#: up to date: scans of the whole graph and of every run in sorted order.
SORTED_SCANS = {
    "DegreeOne": scan_degree_one,
    "FourPlusPath": scan_four_plus_path,
    "ThreePathBadEnd": scan_three_path_bad_end,
    "TwoPathBadEnds": scan_two_path_bad_ends,
    "TwoPathChord": scan_two_path_chord,
}


def three_run_multigraph(runs):
    """The open 3-runs of ``runs`` as anchor -> [(other anchor, index)],
    each list in the order of ``runs``."""
    runs3 = [r for r in runs if r.length == 3 and not r.closed]
    adj = {}
    for i, r in enumerate(runs3):
        u, v = r.endpoints
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    return runs3, adj


def scan_three_path_cycle(g, runs, cycles):
    runs3, adj = three_run_multigraph(runs)

    def chain_to_root(parent, x):
        out, links = [x], []
        while parent[x][0] != -1:
            links.append(parent[x][1])
            x = parent[x][0]
            out.append(x)
        return out, links

    visited = set()
    for start in sorted(adj):
        if start in visited:
            continue
        parent = {start: (-1, -1)}
        stack = [(start, -1)]
        while stack:
            x, via = stack.pop()
            for y, ridx in sorted(adj.get(x, ())):
                if ridx == via:
                    continue
                if y in parent:
                    vx, rx = chain_to_root(parent, x)
                    vy, ry = chain_to_root(parent, y)
                    pos = {v: i for i, v in enumerate(vx)}
                    j = next(i for i, v in enumerate(vy) if v in pos)
                    lca = vy[j]
                    anchors = list(reversed(vx[: pos[lca] + 1])) + vy[:j]
                    chain = list(reversed(rx[: pos[lca]])) + [ridx] + ry[:j]
                    return Configuration("ThreePathCycle", {
                        "anchors": tuple(anchors),
                        "runs": tuple(runs3[i] for i in chain),
                    })
                parent[y] = (x, ridx)
                stack.append((y, ridx))
        visited.update(parent)
    return None


def scan_three_consecutive_three_paths(g, runs, cycles):
    runs3, adj = three_run_multigraph(runs)
    for v in sorted(adj):
        for w, i2 in sorted(adj[v]):
            for u, i1 in sorted(adj[v]):
                if i1 == i2:
                    continue
                for x, i3 in sorted(adj.get(w, ())):
                    if i3 != i2 and len({u, v, w, x}) == 4:
                        return Configuration("ThreeConsecutiveThreePaths", {
                            "anchors": (u, v, w, x),
                            "runs": (runs3[i1], runs3[i2], runs3[i3]),
                        })
    return None


def scan_counting_pair(g, runs, cycles):
    skip = {v for cyc in cycles for v in cyc}
    ds = {v: d_star(g, v) for v in g.vertices()}
    for w in g.vertices():
        if w in skip:
            continue
        nbrs = sorted(g.adjacency[w], key=lambda u: (ds[u], u))
        for k in range(1, len(nbrs) + 1):
            if ds[nbrs[k - 1]] > 7 + k - 1:
                break
            if ds[w] <= 7 + k:
                return Configuration(
                    "CountingPair", {"w": w, "removed_neighbors": tuple(nbrs[:k])}
                )
    return None


def open_three_runs_at(g, v):
    """(internals from v, far end) of each open 3-run at v, walked from the
    edges at v in order."""
    out = []
    for w in g.adjacency[v]:
        if g.degree(w) == 2:
            ints, far = walk_run(g, v, w)
            if len(ints) == 3 and far != v:
                out.append((tuple(ints), far))
    return out


def scan_two_consecutive_three_paths(g):
    from sparse2dc.reductions import _potential_without

    for v in g.vertices():
        if g.degree(v) < 3:
            continue
        runs_here = open_three_runs_at(g, v)
        for ai in range(len(runs_here)):
            for bi in range(ai + 1, len(runs_here)):
                (ints_a, u), (ints_b, w) = runs_here[ai], runs_here[bi]
                if u == w:
                    continue
                value = _potential_without(g, set(ints_a) | set(ints_b), {u, w})
                if value >= 1:
                    return Configuration(
                        "TwoConsecutiveThreePaths",
                        {"u": u, "v": v, "w": w, "pu": tuple(reversed(ints_a)),
                         "pw": tuple(reversed(ints_b))},
                        {"bridge": value},
                    )
    return None


def scan_sponsor_runs(g):
    """(u, internals from u, far end) of the one open 3-run at each 7-vertex
    u that has exactly one."""
    out = []
    for u in g.vertices():
        if g.degree(u) != 7:
            continue
        runs_here = open_three_runs_at(g, u)
        if len(runs_here) == 1:
            out.append((u, *runs_here[0]))
    return out


#: Detectors as they were while they read a whole-graph ``degree_two_runs``
#: (in its order) and a d* table of every vertex, rebuilt at each step.
WHOLE_SCANS = {
    "ThreePathCycle": scan_three_path_cycle,
    "CountingPair": scan_counting_pair,
    "ThreeConsecutiveThreePaths": scan_three_consecutive_three_paths,
}


class TestLiveRunIndex:
    """The solver keeps one run index and updates it around the vertices
    each step edits; after every step it matches a fresh scan."""

    def corpus(self):
        from sparse2dc.families import random_hub_network

        for _, g in TestOutputIdentity().corpus():
            yield g
        yield from TestBatchedPeeling().corpus()
        yield random_hub_network(random.Random(56), 56)

    def check(self, wg, found):
        from sparse2dc import reductions as module

        idx = wg.run_index()
        runs, cycles = degree_two_runs(wg)
        assert set(idx.run_of.values()) == set(runs)
        from_edge = {}
        for r in runs:
            (u, v), ints = r.endpoints, r.internal
            from_edge[(u, ints[0])] = (ints, v)
            from_edge[(v, ints[-1])] = (ints[::-1], u)
        assert idx.from_edge == from_edge
        runs3, adj = three_run_multigraph(runs)
        assert {a: sorted(links) for a, links in idx.three_adj.items()} == {
            a: sorted((b, runs3[i]) for b, i in links) for a, links in adj.items()
        }
        assert set(idx.cycle_of.values()) == {frozenset(c) for c in cycles}
        assert set(idx.cycle_of) == {v for c in cycles for v in c}
        assert {v: d_star(wg, v) for v in idx.ds} == idx.ds
        found["memoized d*"] += len(idx.ds)
        pendants = [v for v in wg.vertices() if wg.degree(v) == 1]
        assert idx.pendant() == min(pendants, default=None)
        for kind, scan in WHOLE_SCANS.items():
            cfg = scan(wg, runs, cycles)
            assert module._BY_KIND[kind].detect(wg, idx) == cfg
            found[kind] += cfg is not None
        # the open 3-runs the potential-backed kinds read, as they were
        # walked from every vertex; with every potential 1 (the potentials
        # do not depend on the index) each candidate shows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_potential_without", lambda g, dropped, query: 1)
            cfg = scan_two_consecutive_three_paths(wg)
            assert module._BY_KIND["TwoConsecutiveThreePaths"].detect(wg, idx) == cfg
            found["TwoConsecutiveThreePaths"] += cfg is not None
        sponsors = []
        for u in sorted(idx.three_adj):
            at_u = module._sponsor(wg, idx, u)
            if at_u is not None:
                sponsors.append((u, *at_u[:2]))
        assert sponsors == scan_sponsor_runs(wg)
        found["sponsor runs"] += len(sponsors)
        runs.sort(key=lambda r: (r.endpoints, r.internal))
        for kind, scan in SORTED_SCANS.items():
            cfg = scan(wg, runs)
            assert module._BY_KIND[kind].detect(wg, idx) == cfg
            found[kind] += cfg is not None

    def test_index_matches_a_fresh_scan_after_every_step(self, monkeypatch):
        from sparse2dc import reductions as module

        original = module.apply_reduction
        steps = 0
        found = Counter()  # steps at which each detector fires, d* entries checked

        def checked(g, cfg):
            nonlocal steps
            self.check(g, found)
            red = original(g, cfg)
            self.check(g, found)
            steps += 1
            return red

        monkeypatch.setattr(module, "apply_reduction", checked)
        solved = 0
        largest = 0
        for g in self.corpus():
            try:
                constructive_color(g)
            except ValueError:  # outside the hypotheses: degree or density
                continue
            solved += 1
            largest = max(largest, g.n)
        # the corpus has no 2-run with a chord; that fixture carries a K4
        constructive_color(with_ring(fx.two_path_chord()), verify_preconditions=False)
        assert solved >= 90 and largest >= 500
        assert min(found[kind] for kind in (*SORTED_SCANS, *WHOLE_SCANS)) >= 1
        assert found["TwoConsecutiveThreePaths"] >= 1 and found["sponsor runs"] >= 1
        assert found["memoized d*"] >= 10_000
        assert steps >= 1000

    def test_an_indexed_splice_undone_matches_a_fresh_scan(self):
        from sparse2dc import reductions as module

        g = fx.seven_seven_local()
        wg = _WorkGraph(g)
        cfg = module._BY_KIND["SevenSevenTwoPaths"].detect(wg, wg.run_index())
        assert len(apply_reduction(wg, cfg).added) == 2
        idx = wg.run_index()  # a later detection indexes the spliced 2-vertices
        assert any(v >= g.n for v in idx.run_of)
        wg.undo()
        assert wg.adjacency == list(g.adjacency)
        self.check(wg, Counter())
        assert all(v < g.n for v in wg.run_index().run_of)

    def test_a_cut_run_is_walked_again_in_place(self):
        wg = _WorkGraph(fx.four_plus_path())
        idx = wg.run_index()
        cfg = detect_configuration(wg)
        run = cfg.data["run"]
        assert cfg.kind == "FourPlusPath" and run in idx.run_of.values()
        wg.begin()
        wg.remove_edge(*cfg.data["chain"][2:4])
        assert wg.run_index() is idx
        assert run not in idx.run_of.values()
        assert set(idx.run_of.values()) == set(degree_two_runs(wg)[0])


    def test_cycles_of_2_vertices_follow_the_edits(self):
        # a 6-cycle, and a triangle with a pendant edge at vertex 6
        ring = [(i, (i + 1) % 6) for i in range(6)]
        g = Graph(10, ring + [(6, 7), (6, 8), (6, 9), (7, 8)])
        wg = _WorkGraph(g)
        idx = wg.run_index()
        assert set(idx.cycle_of.values()) == {frozenset(range(6))}
        wg.begin()
        wg.remove_edge(0, 1)  # the 6-cycle opens into a run
        wg.remove_edge(6, 9)  # the triangle closes into a cycle
        self.check(wg, Counter())
        assert wg.run_index() is idx
        assert set(idx.cycle_of.values()) == {frozenset({6, 7, 8})}

    def test_a_changed_run_is_walked_once(self, monkeypatch):
        from sparse2dc import reductions as module

        walk = module._walk_run
        walked = []

        def counting(g, u, w):
            internal, end = walk(g, u, w)
            walked.append((g.degree(u), frozenset(internal)))
            return internal, end

        # hubs 0 and 1 joined by the 2-vertices 2 and 3
        wg = _WorkGraph(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        wg.run_index()
        monkeypatch.setattr(module, "_walk_run", counting)
        wg.begin()
        wg.add_path(0, 1, 300)  # 300 edited 2-vertices in one run
        idx = wg.run_index()
        assert set(idx.run_of.values()) == set(degree_two_runs(wg)[0])
        # only the new run is walked from an anchor, after at most one walk
        # from an edited 2-vertex to find that anchor; the runs 0-2-1 and
        # 0-3-1 at the edited hubs are kept and not walked again
        from_anchors = [ints for degree, ints in walked if degree != 2]
        assert sorted(map(len, from_anchors)) == [300]
        assert sum(len(ints) for _, ints in walked) <= 2 * 302


class TestSolverWork:
    STRUCTURAL = tuple(SORTED_SCANS)

    @pytest.mark.parametrize("kind", STRUCTURAL)
    def test_the_solver_reads_the_registry(self, kind, monkeypatch):
        """Knocking a structural kind out of the registry changes what the
        solver fires on its knockout fixture: it takes the fallback."""
        from sparse2dc import reductions as module

        g = with_ring(TestDetectorKnockouts().fixture_for(kind))

        def fired():
            with monkeypatch.context() as patch:
                steps = record_steps(patch)
                phi = constructive_color(g, verify_preconditions=False)
            assert is_valid_2distance(g, phi)[0]
            return [k for k, _, _ in steps]

        assert fired()[0] == kind
        monkeypatch.setattr(
            module, "_REGISTRY", tuple(k for k in module._REGISTRY if k.name != kind)
        )
        after = fired()
        assert kind not in after
        assert after[0] == TestDetectorKnockouts.EXPECTED_FALLBACK[kind]

    def test_whole_graph_run_scans_only_past_the_structural_detectors(
        self, monkeypatch
    ):
        """Detection reads the live run index alone: ``degree_two_runs``
        runs at most once per solve, for the base case, however many steps
        reach ThreePathCycle and the detectors after it.  A cycles-only
        residual ends detection before ThreePathCycle, so the skeleton
        carries a disjoint component on which a later kind fires mid-chain,
        with runs left in the graph."""
        from sparse2dc import reductions as module

        g = disjoint(capped_skeleton(random.Random(7), 570), fx.two_consecutive_three_paths())
        assert 1900 <= g.n <= 2100 and g.max_degree() == 7
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        cycle_kind = module._BY_KIND["ThreePathCycle"]
        monkeypatch.setattr(module, "_REGISTRY", tuple(
            k._replace(detect=counted("reached", k.detect)) if k is cycle_kind else k
            for k in module._REGISTRY
        ))
        monkeypatch.setattr(
            module, "degree_two_runs", counted("runs", module.degree_two_runs)
        )
        steps = record_steps(monkeypatch)
        phi = constructive_color(g, verify_preconditions=False)
        assert is_valid_2distance(g, phi)[0]
        assert len(steps) >= 200 and calls["reached"] >= 1
        kinds = [kind for kind, _, _ in steps]
        assert "TwoConsecutiveThreePaths" in kinds[:-1]
        assert calls["runs"] <= 1


def run_enumerators():
    """Each run worklist's enumerator: its kind's predicate holds at a run
    when the enumerator yields a witness there."""
    from sparse2dc import reductions as module

    return {"FourPlusPath": module._four_plus_path_at,
            "ThreePathBadEnd": module._three_path_bad_end_at,
            "TwoPathBadEnds": module._two_path_bad_ends_at,
            "TwoPathChord": module._two_path_chord_at}


def check_worklists(g, idx) -> int:
    """No worklist heap holds a key twice, ``queued`` holds each heap's
    keys, and every live run at which a worklist's kind has a witness is
    queued there; returns the number of such runs."""
    runs = set(idx.run_of.values())
    held = 0
    for name, at in run_enumerators().items():
        heap = idx.worklists[name]
        assert len(set(heap)) == len(heap) and set(heap) == idx.queued[name], name
        for r in runs:
            if next(at(g, idx, r), None) is not None:
                assert (r.endpoints, r.internal) in idx.queued[name], (name, r)
                held += 1
    return held


def eager_detect(g):
    """Detection with the whole run index synced first and every kind tried
    in order: no sync deferred past DegreeOne and no early exit."""
    from sparse2dc import reductions as module

    idx = g.run_index() if isinstance(g, _WorkGraph) else _RunIndex(g)
    return next((cfg for cfg in (k.detect(g, idx) for k in module._REGISTRY) if cfg), None)


def disjoint(*graphs) -> Graph:
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    return Graph(n, edges)


class TestChainBookkeeping:
    """The chain's bookkeeping: the run sync waits past DegreeOne, each run
    is queued at most once per worklist, the detected witness is not
    enumerated again, and a residual of cycles of 2-vertices and isolated
    vertices ends detection."""

    @staticmethod
    def chains(monkeypatch, detect):
        """The (kind, data, potentials) of every step and the colorings,
        solving ``TestLiveRunIndex``'s corpus with ``detect``."""
        from sparse2dc import reductions as module

        steps, colorings = [], []
        apply = module.apply_reduction

        def recording(g, cfg):
            steps.append((cfg.kind, dict(cfg.data), dict(cfg.potentials)))
            return apply(g, cfg)

        with monkeypatch.context() as patch:
            patch.setattr(module, "apply_reduction", recording)
            patch.setattr(module, "detect_configuration", detect)
            for g in TestLiveRunIndex().corpus():
                try:
                    colorings.append(constructive_color(g).colors)
                except ValueError:  # outside the hypotheses: degree or density
                    colorings.append(None)
        return steps, colorings

    def test_deferred_sync_matches_an_eager_sync(self, monkeypatch):
        """The chain as shipped, with the index and the worklists checked
        against a fresh scan after every sync that does work, takes the
        steps and gives the colorings of the eager reference."""
        from sparse2dc import reductions as module

        sync, detect = _RunIndex.sync, module.detect_configuration
        found = Counter()

        def checked_sync(idx):
            work = bool(idx.stale)
            sync(idx)
            if work:
                TestLiveRunIndex().check(idx.g, found)
                found["runs on a worklist predicate"] += check_worklists(idx.g, idx)
                found["syncs"] += 1

        def counting_detect(g):
            cfg = detect(g)
            found["deferred"] += cfg is not None and bool(g._index.stale)
            return cfg

        monkeypatch.setattr(_RunIndex, "sync", checked_sync)
        shipped = self.chains(monkeypatch, counting_detect)
        monkeypatch.setattr(_RunIndex, "sync", sync)
        eager = self.chains(monkeypatch, eager_detect)
        assert len(shipped[0]) >= 1000 and sum(c is not None for c in shipped[1]) >= 90
        assert shipped == eager
        assert found["syncs"] >= 500 and found["deferred"] >= 300
        assert found["runs on a worklist predicate"] >= 1000

    def test_detection_matches_the_eager_reference(self):
        """The early exit is taken only where no kind fires: graphs with no
        run (a cubic graph, K4 beside cycles) or with runs and maximum degree
        3 detect what every kind tried in order detects."""
        k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        cube = Graph(8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit])
        rings = disjoint(cycle(5), Graph(2, []), cycle(12))
        graphs = [k4, cube, petersen(), rings, disjoint(rings, k4), subdivide(k4, 1),
                  subdivide(cube, 1), disjoint(rings, subdivide(cube, 2)), star(3), spider(3, 2)]
        fired = set()
        for g in graphs:
            expect = eager_detect(_WorkGraph(g))
            assert detect_configuration(g) == expect
            assert detect_configuration(_WorkGraph(g)) == expect
            fired.add(expect and expect.kind)
        assert {None, "CountingPair", "DegreeOne"} <= fired and len(fired) >= 4

    def test_cycles_only_residual_fires_nothing(self):
        """On unions of cycles of 2-vertices and isolated vertices, every
        detector returns None, so ending detection there is exact."""
        from sparse2dc import reductions as module

        rng = random.Random(31)
        for _ in range(60):
            edges, n = [], 0
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(3, 30)
                edges += [(n + i, n + (i + 1) % k) for i in range(k)]
                n += k
            n += rng.randint(0, 4)
            label = rng.sample(range(n), n)
            g = Graph(n, [(label[u], label[v]) for u, v in edges])
            for idx in (_RunIndex(g), _WorkGraph(g).run_index()):
                assert not idx.run_of
                assert all(kind.detect(idx.g, idx) is None for kind in module._REGISTRY)
            assert detect_configuration(g) is None

    @pytest.mark.parametrize("how", ["in place", "replaced"])
    @pytest.mark.parametrize("case", sorted(TestWitnessReadBack.TAMPERED))
    def test_a_detected_witness_changed_is_refused(self, case, how):
        """A detected witness changed in place after detection, or a copy
        of it with changed data, is refused on the working graph it was
        detected on, before any edit."""
        make, kind, tamper = TestWitnessReadBack.TAMPERED[case]
        wg = _WorkGraph(make())
        cfg = detect_configuration(wg)
        assert cfg.kind == kind
        data = tamper(cfg.data)
        if how == "in place":
            cfg.data.clear()
            cfg.data.update(data)
            bad = cfg
        else:
            bad = replace(cfg, data=data)
        before = list(wg.adjacency)
        with pytest.raises(ValueError, match=f"{kind} witness invalid"):
            apply_reduction(wg, bad)
        assert wg.adjacency == before and not wg._log

    def test_potentials_changed_in_place_are_refused(self):
        wg = _WorkGraph(fx.two_consecutive_three_paths())
        cfg = detect_configuration(wg)
        assert cfg.kind == "TwoConsecutiveThreePaths"
        cfg.potentials["bridge"] += 1
        with pytest.raises(ValueError, match="potentials drifted"):
            apply_reduction(wg, cfg)
        assert not wg._log

    def test_a_witness_carried_across_an_edit_is_refused(self):
        wg = _WorkGraph(fx.four_plus_path())
        cfg = detect_configuration(wg)
        apply_reduction(wg, cfg)  # the run is cut
        before = list(wg.adjacency)
        with pytest.raises(ValueError, match="FourPlusPath witness invalid"):
            apply_reduction(wg, cfg)
        assert wg.adjacency == before and len(wg._log) == 1
        # an edit with no detection since
        wg = _WorkGraph(fx.three_path_low_end())
        cfg = detect_configuration(wg)
        wg.begin()
        wg.remove_edge(*cfg.data["run"].internal[:2])
        with pytest.raises(ValueError, match="ThreePathBadEnd witness invalid"):
            cfg.validate(wg)

    def test_only_the_stored_local_witness_skips_its_check(self, monkeypatch):
        from sparse2dc import reductions as module

        checked = Counter()
        for kind in module.KINDS:
            entry = module._BY_KIND[kind]

            def counting(g, idx, cfg, validate=entry.validate):
                checked[cfg.kind] += 1
                validate(g, idx, cfg)

            monkeypatch.setitem(module._BY_KIND, kind, entry._replace(validate=counting))
        for make, kind in ((fx.counting_pair, "CountingPair"),
                           (fx.two_consecutive_three_paths, "TwoConsecutiveThreePaths"),
                           (fx.three_path_cycle, "ThreePathCycle")):
            g = make()
            wg = _WorkGraph(g)
            cfg = detect_configuration(wg)
            assert cfg.kind == kind
            cfg.validate(wg)
            always = kind == "ThreePathCycle"
            assert checked[kind] == always
            cfg.validate(g)  # a plain Graph
            cfg.validate(_WorkGraph(g))  # another working graph
            replace(cfg).validate(wg)  # a copy
            assert checked[kind] == 3 + always

    def test_chain_work_per_detection(self, monkeypatch):
        """A work guard with no timing.  On one 112-hub network, per
        detection: at most 0.6 syncs that do work, 1.0 runs walked and 3.5
        worklist heap pushes.  An eager sync, one before every detection
        with a push at every walk and anchor edit, makes 0.998, 1.44 and
        8.5."""
        import heapq
        import types

        from sparse2dc import reductions as module
        from sparse2dc.families import random_hub_network

        g = random_hub_network(random.Random(1), 112)
        counts = Counter()
        sync, add, detect = _RunIndex.sync, _RunIndex._add, module.detect_configuration

        def counting_sync(idx):
            counts["syncs"] += bool(idx.stale)
            sync(idx)

        def counting_add(idx, *args):
            counts["walked"] += 1
            add(idx, *args)

        def counting_push(heap, item):
            counts["pushes"] += isinstance(item, tuple)  # a pendant is an int
            heapq.heappush(heap, item)

        def counting_detect(wg):
            counts["detections"] += 1
            return detect(wg)

        monkeypatch.setattr(_RunIndex, "sync", counting_sync)
        monkeypatch.setattr(_RunIndex, "_add", counting_add)
        monkeypatch.setattr(module, "heapq", types.SimpleNamespace(
            heappush=counting_push, heappop=heapq.heappop))
        monkeypatch.setattr(module, "detect_configuration", counting_detect)
        phi = constructive_color(g)
        assert is_valid_2distance(g, phi)[0]
        d = counts["detections"]
        assert d >= 500
        assert counts["syncs"] <= 0.6 * d
        assert counts["walked"] <= 1.0 * d
        assert counts["pushes"] <= 3.5 * d

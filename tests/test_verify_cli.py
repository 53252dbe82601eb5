"""Corpus records, theorem verdicts, the hunt, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparse2dc.families import hoffman_singleton, petersen
from sparse2dc.graph import girth, subdivide
from sparse2dc.io import from_graph6, to_graph6, write_edge_list
from sparse2dc.reductions import ConstructiveFailure, ExtensionError
from sparse2dc.families import cycle, random_hub_network, spider, star
from sparse2dc.verify import (
    generate_corpus,
    hunt,
    random_capped_instance,
    save_corpus,
    verify_theorem,
)
import random


class TestFixtures:
    def test_hoffman_singleton_shape(self):
        g = hoffman_singleton()
        assert g.n == 50 and g.m == 175
        assert all(g.degree(v) == 7 for v in g.vertices())
        assert girth(g) == 5

    def test_fixture_corpus(self):
        records = generate_corpus({"kind": "fixtures"}, 0, seed=0)
        by_name = {r.provenance["name"]: r for r in records}
        assert {"c5", "petersen", "hoffman-singleton"} <= set(by_name)
        assert by_name["c5"].chi2 == 5
        assert by_name["petersen"].chi2 == 10
        assert by_name["hoffman-singleton"].chi2 == 50
        assert by_name["c5"].constructive_status == "valid-8-coloring"
        assert by_name["petersen"].constructive_status == "skipped-density"


class TestGenerators:
    def test_seeded_reproducibility(self):
        a = generate_corpus({"kind": "subdivision"}, 5, seed=11)
        b = generate_corpus({"kind": "subdivision"}, 5, seed=11)
        assert [r.graph6 for r in a] == [r.graph6 for r in b]
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_records_round_trip_and_verify(self):
        from sparse2dc.potential import DENSITY_BOUND, mad_exact

        for record in generate_corpus({"kind": "subdivision"}, 6, seed=3):
            g = from_graph6(record.graph6)
            assert to_graph6(g) == record.graph6
            assert g.n == record.n and g.m == record.m
            assert mad_exact(g)[0] == record.mad <= DENSITY_BOUND
            assert g.max_degree() == record.max_degree == 7

    def test_strict_density_generation(self):
        from sparse2dc.potential import DENSITY_BOUND

        rng = random.Random(5)
        for _ in range(4):
            g, _ = random_capped_instance(rng, hub_degree=8, strict=True)
            assert g.max_degree() == 8
            from sparse2dc.potential import mad_exact

            assert mad_exact(g)[0] < DENSITY_BOUND

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown generator kind 'hubz'"):
            generate_corpus({"kind": "hubz"}, 3, seed=0)
        with pytest.raises(ValueError, match="unknown generator kind 'hubz'"):
            hunt(0, 3, {"kind": "hubz"})

    def test_persistence(self, tmp_path):
        records = generate_corpus({"kind": "subdivision"}, 3, seed=2)
        save_corpus(records, tmp_path)
        for i, record in enumerate(records):
            line = (tmp_path / f"{i:04d}.g6").read_text().strip()
            assert from_graph6(line) == from_graph6(record.graph6)
            facts = json.loads((tmp_path / f"{i:04d}.json").read_text())
            assert facts["mad"] == str(record.mad)


class TestVerdicts:
    def test_spider_theorem_case(self):
        g = subdivide(star(7), 1)
        verdict = verify_theorem(g)
        assert verdict.hypotheses_hold
        assert verdict.chi2 == 8 and verdict.conclusion is True
        assert verdict.constructive_valid is True

    def test_petersen_out_of_scope(self):
        verdict = verify_theorem(petersen())
        assert not verdict.hypotheses_hold
        assert verdict.chi2 == 10
        assert verdict.conclusion is None

    def test_c9_below_degree_threshold(self):
        verdict = verify_theorem(cycle(9))
        assert not verdict.hypotheses_hold
        assert verdict.chi2 == 3

    def test_planar_consistency_flag(self):
        g = subdivide(cycle(3), 2)  # girth 9, density 2
        verdict = verify_theorem(g, assert_planar=True)
        assert verdict.planar_bound_consistent is True
        assert verdict.girth_at_least_nine


class TestHunt:
    def test_small_hunt_is_clean(self):
        report = hunt(seed=1, budget=8)
        assert report.instances >= 6
        assert report.ok, report.findings

    def test_one_run_index_per_solved_instance(self, monkeypatch):
        """Coverage, discharge and solve share one working graph, so each
        instance walks its runs into exactly one ``_RunIndex``.  At Δ = 7
        the coverage check builds it; on pure cycles and at Δ < 7, where
        coverage is skipped, the discharge builds it and the solve reuses
        it."""
        from sparse2dc import reductions, verify

        phase = [None]
        built, solved, discharged = [], [], []  # built: (graph, phase)
        index_init = reductions._RunIndex.__init__

        def counted_index(self, g):
            built.append((g, phase[0]))
            index_init(self, g)

        def in_phase(name, log, call):
            def wrapper(g, *args, **kwargs):
                log.append(g)
                phase[0] = name
                try:
                    return call(g, *args, **kwargs)
                finally:
                    phase[0] = None
            return wrapper

        monkeypatch.setattr(reductions._RunIndex, "__init__", counted_index)
        monkeypatch.setattr(verify, "detect_configuration",
                            in_phase("coverage", [], verify.detect_configuration))
        monkeypatch.setattr(verify, "run_discharge",
                            in_phase("discharge", discharged, verify.run_discharge))
        monkeypatch.setattr(verify, "constructive_color",
                            in_phase("solve", solved, verify.constructive_color))
        def builder(g):  # the first check to read the instance's runs
            if g.min_degree() < 2:
                return "solve"
            pure_cycle = all(g.degree(v) == 2 for v in g.vertices())
            return "coverage" if g.max_degree() == 7 and not pure_cycle else "discharge"

        seen = set()
        for spec, kind in ((None, "mixed"),
                           ({"kind": "subdivision", "hub_degree": 6}, "Δ = 6"),
                           ({"kind": "subdivision", "hub_degree": 2}, "pure cycles")):
            built.clear(), solved.clear(), discharged.clear()
            report = hunt(seed=1, budget=8, spec=spec)
            assert report.ok, report.findings
            assert len(solved) == report.instances >= 6
            expected = [[builder(wg.graph)] for wg in solved]
            assert [[p for b, p in built if b is wg] for wg in solved] == expected
            assert len(built) == len(solved)
            assert discharged and all(any(d is wg for wg in solved) for d in discharged)
            seen.update((kind, p) for [p] in expected)
            if kind == "pure cycles":
                assert all(wg.graph.max_degree() == 2 == wg.graph.min_degree() for wg in solved)
        assert seen == {("mixed", "coverage"), ("mixed", "solve"),
                        ("Δ = 6", "discharge"), ("pure cycles", "discharge")}

    def test_the_solve_reuses_the_coverage_detection(self, monkeypatch):
        """The solve's first detection on the working graph the coverage
        check detected on runs no detector and returns the same
        configuration; every later detection follows an edit and runs the
        detectors again."""
        from sparse2dc import reductions, verify

        calls = 0
        log = []  # (caller, detectors run, configuration) per detection

        def counted(detect):
            def wrapper(g, idx):
                nonlocal calls
                calls += 1
                return detect(g, idx)
            return wrapper

        def logged(caller, detect):
            def wrapper(g):
                before = calls
                cfg = detect(g)
                log.append((caller, calls - before, cfg))
                return cfg
            return wrapper

        detect = reductions.detect_configuration
        monkeypatch.setattr(reductions, "_REGISTRY", tuple(
            k._replace(detect=counted(k.detect)) for k in reductions._REGISTRY
        ))
        monkeypatch.setattr(verify, "detect_configuration", logged("coverage", detect))
        monkeypatch.setattr(reductions, "detect_configuration", logged("solve", detect))
        report = hunt(seed=1, budget=8)
        assert report.ok, report.findings
        reused = 0
        for (caller, _, cfg), (then, ran, cfg_then) in zip(log, log[1:]):
            if (caller, then) == ("coverage", "solve"):
                assert ran == 0 and cfg_then is cfg is not None
                reused += 1
            else:
                assert ran >= 1
        assert reused >= 3

    @staticmethod
    def block_solver(monkeypatch):
        from sparse2dc import verify
        from sparse2dc.reductions import ExtensionError

        def blocked(g, **kwargs):
            raise ExtensionError("probe", 0, {})

        monkeypatch.setattr(verify, "constructive_color", blocked)

    def test_any_exception_becomes_a_finding(self, monkeypatch):
        """An exception type the hunt does not expect is recorded, with its
        type, instead of aborting the hunt."""
        self.block_solver(monkeypatch)
        report = hunt(seed=1, budget=3)
        assert report.findings
        for finding in report.findings:
            assert finding["check"] == "coloring"
            assert finding["detail"].startswith("ExtensionError: extension probe")

    def test_finding_replays_through_the_cli(self, monkeypatch):
        self.block_solver(monkeypatch)
        finding = hunt(seed=1, budget=1).findings[0]
        g6 = finding["graph6"]
        assert finding["replay"] == f"printf '%s\\n' '{g6}' | sparse2dc verify --input -"
        proc = run_cli(["verify", "--input", "-"], stdin=g6 + "\n")
        assert proc.returncode != 2, proc.stderr
        assert json.loads(proc.stdout)["constructive_valid"] is True

    def test_finding_witness_file_replays_through_the_cli(
        self, monkeypatch, capsys, tmp_path
    ):
        """Each finding's witness is written as ``finding-NNN.g6`` next to
        its JSON, and ``verify --input finding-NNN.g6`` replays the finding."""
        from sparse2dc import cli

        self.block_solver(monkeypatch)
        report = hunt(seed=1, budget=3, findings_dir=tmp_path)
        assert len(report.findings) >= 2
        for i, finding in enumerate(report.findings):
            witness = tmp_path / f"finding-{i:03d}.g6"
            assert witness.read_text() == finding["graph6"] + "\n"
            saved = json.loads((tmp_path / f"finding-{i:03d}.json").read_text())
            assert saved == finding
        capsys.readouterr()
        assert cli.main(["verify", "--input", str(tmp_path / "finding-000.g6")]) == 1
        err = capsys.readouterr().err
        assert err == f"internal failure: {report.findings[0]['detail']}\n"


class TestHuntChecks:
    """Each invariant the hunt checks, driven to fail on a small seeded
    hunt: the finding names its check and detail and replays verbatim."""

    @staticmethod
    def findings(report, check):
        found = [f for f in report.findings if f["check"] == check]
        for f in found:
            assert f["graph6"] == to_graph6(from_graph6(f["graph6"]))
            assert f["replay"] == f"printf '%s\\n' '{f['graph6']}' | sparse2dc verify --input -"
        return found

    def test_coverage_finds_nothing(self, monkeypatch):
        from sparse2dc import verify

        monkeypatch.setattr(verify, "detect_configuration", lambda g: None)
        report = hunt(seed=1, budget=8)
        found = self.findings(report, "coverage")
        assert found and {f["detail"] for f in found} == {"no configuration fires"}
        assert len(found) == len(report.findings)

    def test_a_raising_coverage_check_leaves_a_fresh_working_graph(self, monkeypatch):
        from sparse2dc import verify

        checked, solved = [], []
        solve = verify.constructive_color

        def broken(wg):
            checked.append(wg)
            wg.begin()
            wg.remove_vertex(wg.vertices()[0])  # an edit left half done
            raise RuntimeError("probe")

        def recorded_solve(g, **kwargs):
            solved.append(g)
            return solve(g, **kwargs)

        monkeypatch.setattr(verify, "detect_configuration", broken)
        monkeypatch.setattr(verify, "constructive_color", recorded_solve)
        report = hunt(seed=1, budget=8)
        found = self.findings(report, "coverage")
        assert len(found) == len(checked) >= 1
        assert {f["detail"] for f in found} == {"RuntimeError: probe"}
        assert len(found) == len(report.findings)  # every solve still succeeds
        assert len(solved) == report.instances
        assert not any(wg is checked_wg for wg in solved for checked_wg in checked)

    def test_discharge_raises(self, monkeypatch):
        from sparse2dc import verify

        def broken(g):
            raise RuntimeError("probe")

        monkeypatch.setattr(verify, "run_discharge", broken)
        report = hunt(seed=1, budget=8)
        found = self.findings(report, "discharge")
        assert found and {f["detail"] for f in found} == {"RuntimeError: probe"}
        assert len(found) == len(report.findings)

    @pytest.mark.parametrize("shift, details", [
        (-2, ["total drifted"]),
        (None, ["total drifted", "positive total"]),  # a total of +2
    ])
    def test_conservation(self, monkeypatch, shift, details):
        from dataclasses import replace

        from sparse2dc import verify

        discharge = verify.run_discharge

        def shifted(g):
            ledger = discharge(g)
            by = shift if shift is not None else 2 - ledger.total_final()
            return replace(ledger, final=(ledger.final[0] + by, *ledger.final[1:]))

        monkeypatch.setattr(verify, "run_discharge", shifted)
        report = hunt(seed=1, budget=8)
        found = self.findings(report, "conservation")
        assert found and len(found) == len(report.findings)
        assert [f["detail"] for f in found] == details * (len(found) // len(details))


class TestHuntReport:
    """The hunt discharges each instance on the working graph the coverage
    check read, before the solve edits it, and still reports coverage,
    coloring, discharge and conservation findings in that order."""

    @staticmethod
    def instances():
        """Hunt instances the discharge accepts as input, from every
        generator at hub degrees 5 to 7."""
        from sparse2dc.verify import GenerationError, _generator

        rng = random.Random(27)
        for hub_degree in (5, 6, 7):
            for kind in ("subdivision", "tree", "hub"):
                make = _generator({"hub_degree": hub_degree}, kind)
                for _ in range(12):
                    try:
                        g, _ = make(rng)
                    except GenerationError:
                        continue
                    if g.n and g.min_degree() >= 2 and g.max_degree() <= 7:
                        yield g

    def test_the_unedited_working_graph_discharges_as_its_graph(self):
        """Initial charges, transfers and final charges, or the
        ForestOfStarsError refusal with its witness, are those of the
        ``Graph``, also after a detection has read the working graph."""
        from sparse2dc.discharging import run_discharge
        from sparse2dc.reductions import ForestOfStarsError, _WorkGraph, detect_configuration

        def outcome(g):
            try:
                ledger = run_discharge(g)
            except ForestOfStarsError as exc:
                return "refused", str(exc), exc.witness
            return "ledger", ledger.initial, ledger.transfers, ledger.final

        seen = {"ledger": 0, "refused": 0}
        for g in self.instances():
            expected = outcome(g)
            detected = _WorkGraph(g)
            detect_configuration(detected)
            for wg in (_WorkGraph(g), detected):
                assert outcome(wg) == expected
                assert wg.size() == g.n + g.m  # the discharge edits nothing
            seen[expected[0]] += 1
        assert seen["ledger"] >= 20 and seen["refused"] >= 20, seen

    #: The findings of the planted faults below, as first reported when
    #: the discharge ran after the solve.
    PINNED_FINDINGS = "628c628b2c6d"

    def test_planted_faults_come_out_in_order(self, monkeypatch):
        """Faults planted in coverage, coloring, discharge and conservation
        give the same findings and replay lines, in the same order."""
        from collections import Counter
        from dataclasses import replace

        from sparse2dc import verify

        solve, discharge = verify.constructive_color, verify.run_discharge
        calls = Counter()

        def coverage(wg):
            calls["coverage"] += 1
            if calls["coverage"] % 2:
                return None
            raise RuntimeError("coverage probe")

        def faulty_solve(g, **kwargs):
            calls["solve"] += 1
            if calls["solve"] % 2:
                raise ExtensionError("probe", 0, {})
            return solve(g, **kwargs)

        def faulty_discharge(g):
            calls["discharge"] += 1
            fault = calls["discharge"] % 3
            if fault == 0:
                raise RuntimeError("discharge probe")
            ledger = discharge(g)
            by = -2 if fault == 1 else 2 - ledger.total_final()
            return replace(ledger, final=(ledger.final[0] + by, *ledger.final[1:]))

        monkeypatch.setattr(verify, "detect_configuration", coverage)
        monkeypatch.setattr(verify, "constructive_color", faulty_solve)
        monkeypatch.setattr(verify, "run_discharge", faulty_discharge)
        report = hunt(seed=3, budget=12)
        rank = {"coverage": 0, "coloring": 1, "discharge": 2, "conservation": 2}
        for before, after in zip(report.findings, report.findings[1:]):
            if before["graph6"] == after["graph6"]:
                assert rank[before["check"]] <= rank[after["check"]]
        for f in report.findings:
            assert f["replay"] == f"printf '%s\\n' '{f['graph6']}' | sparse2dc verify --input -"
        assert {(f["check"], f["detail"]) for f in report.findings} == {
            ("coverage", "no configuration fires"),
            ("coverage", "RuntimeError: coverage probe"),
            ("coloring", "ExtensionError: extension probe blocked at 0: {}"),
            ("discharge", "RuntimeError: discharge probe"),
            ("conservation", "total drifted"),
            ("conservation", "positive total"),
        }
        blob = json.dumps(report.findings)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_FINDINGS

    def test_work_graph_degree_bounds_range_over_live_ids(self):
        """A removed id is no 0-vertex: on edited working graphs the
        degree bounds are those of the live graph's snapshot."""
        from sparse2dc.graph import remove_vertices
        from sparse2dc.reductions import _WorkGraph

        from conftest import random_sparse_graph

        wg = _WorkGraph(cycle(6))
        wg.begin()
        wg.remove_vertex(0)
        assert (wg.max_degree(), wg.min_degree()) == (2, 1)
        for v in list(wg.vertices()):
            wg.remove_vertex(v)
        assert (wg.max_degree(), wg.min_degree()) == (0, 0)
        wg.undo()
        assert (wg.max_degree(), wg.min_degree()) == (2, 2)

        rng = random.Random(27)
        for _ in range(60):
            g = random_sparse_graph(rng, rng.randint(4, 16))
            wg = _WorkGraph(g)
            for _ in range(rng.randint(1, 4)):
                wg.begin()
                live = wg.vertices()
                if rng.random() < 0.5 and len(live) > 1:
                    wg.remove_vertex(rng.choice(live))
                elif wg.m and rng.random() < 0.6:
                    wg.remove_edge(*rng.choice(wg.edges()))
                elif len(live) > 1:
                    wg.add_path(*rng.sample(live, 2), rng.randint(1, 3))
                h, _ = remove_vertices(wg, ())
                assert (wg.max_degree(), wg.min_degree()) == (h.max_degree(), h.min_degree())


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, stdin=""):
    """Run ``python -m sparse2dc.cli`` from this checkout's ``src``.

    The child runs in the repo root with the absolute ``src`` first on
    ``PYTHONPATH``, so a relative ``PYTHONPATH=src`` or an installed copy
    of another version cannot change what it imports.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "sparse2dc.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )


class TestCli:
    def test_mad_on_stdin(self):
        g = petersen()
        proc = run_cli(["mad", "--input", "-"], stdin=write_edge_list(g))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["value"] == "3"

    def test_rho_star_json(self):
        g = spider(7, 2)
        proc = run_cli(
            ["rho-star", "--input", "-", "--vertices", "0"],
            stdin=to_graph6(g),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["params"] == [9, 7]
        assert payload["value"] >= 0

    def test_chi2(self):
        proc = run_cli(["chi2", "--input", "-"], stdin=write_edge_list(cycle(5)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["chi2"] == 5

    def test_color_decision_and_constructive(self):
        g = spider(7, 1)  # star subdivided once
        proc = run_cli(["color", "--input", "-", "--k", "7"], stdin=write_edge_list(g))
        assert proc.returncode == 1, proc.stderr  # proven impossible
        proc = run_cli(["color", "--input", "-", "--constructive"],
                       stdin=write_edge_list(g))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["k"] == 8 and len(payload["colors"]) == g.n

    def test_constructive_coloring_is_validated_once(self, monkeypatch, capsys, tmp_path):
        """``color --constructive`` prints the solver's coloring, which the
        solver has validated as a whole; the command does not check it again."""
        from sparse2dc import cli, reductions
        from sparse2dc.coloring import is_valid_2distance

        g = random_hub_network(random.Random(1), 12)
        path = tmp_path / "hub.g6"
        path.write_text(to_graph6(g) + "\n")
        want = reductions.constructive_color(g)
        validated = []

        def counted(graph, phi):
            validated.append(graph.n)
            return is_valid_2distance(graph, phi)

        monkeypatch.setattr(cli, "is_valid_2distance", counted)
        monkeypatch.setattr(reductions, "is_valid_2distance", counted)
        capsys.readouterr()
        assert cli.main(["color", "--input", str(path), "--constructive"]) == 0
        assert validated == [g.n]
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"k": 8, "colors": [want.get(v) for v in g.vertices()]}

    def test_find_config(self):
        proc = run_cli(["find-config", "--input", "-"],
                       stdin=write_edge_list(spider(7, 2)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kind"] is not None

    def test_discharge_json_schema(self):
        g = subdivide(cycle(3), 2)
        proc = run_cli(["discharge", "--input", "-", "--verify"],
                       stdin=write_edge_list(g))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) >= {"initial", "transfers", "final", "sum_halves"}
        assert payload["sum_halves"] == 28 * g.m - 36 * g.n

    def test_verify_exit_codes(self):
        proc = run_cli(["verify", "--input", "-"],
                       stdin=write_edge_list(subdivide(star(7), 1)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["conclusion"] is True

    def test_gen_and_hunt(self, tmp_path):
        out = tmp_path / "corpus"
        proc = run_cli(["gen", "--count", "3", "--seed", "4", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "0000.g6").exists()
        proc = run_cli(["hunt", "--seed", "2", "--budget", "4"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["findings"] == []

    def test_input_error_exit_code(self):
        proc = run_cli(["mad", "--input", "/nonexistent/path.g6"])
        assert proc.returncode == 2, proc.stderr

    def test_several_graph6_lines_exit_2(self):
        proc = run_cli(["mad", "--input", "-"], stdin="Bw\nDQc\n")
        assert proc.returncode == 2, proc.stderr
        assert "expected one graph" in proc.stderr

    def test_trailing_graph6_bytes_exit_2(self, capsys, tmp_path):
        from sparse2dc import cli

        path = tmp_path / "long.g6"
        path.write_text("Bw??\n")
        assert cli.main(["mad", "--input", str(path)]) == 2
        assert "need exactly 1" in capsys.readouterr().err

    def test_graph6_size_header_byte_out_of_range_exit_2(self, capsys, tmp_path):
        from sparse2dc import cli

        path = tmp_path / "bad.g6"
        path.write_text("0" + "?" * 20 + "\n")
        assert cli.main(["mad", "--input", str(path)]) == 2
        assert "invalid graph6 byte" in capsys.readouterr().err

    def test_hunt_budget_zero_runs_no_instance(self, capsys):
        from sparse2dc import cli

        assert cli.main(["hunt", "--seed", "0", "--budget", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [(["gen", "--kind", "fixtures", "--count", "-2"], "negative record count -2"),
         (["hunt", "--seed", "0", "--budget", "-1"], "negative instance budget -1"),
         (["chi2", "--input", "C5", "--budget", "-1"], "negative node budget -1"),
         (["color", "--input", "C5", "--k", "4", "--budget", "-1"], "negative node budget -1"),
         (["color", "--input", "C5", "--constructive", "--budget", "-1"],
          "negative node budget -1"),
         (["verify", "--input", "C5", "--budget", "-3"], "negative node budget -3")],
        ids=["gen", "hunt", "chi2", "color", "color-constructive", "verify"],
    )
    def test_negative_counts_exit_2(self, argv, message, capsys, tmp_path):
        """A negative count or node budget is an input error, also where no
        search would run: the χ2 bounds of C5 meet."""
        from sparse2dc import cli

        path = tmp_path / "c5.txt"
        path.write_text(write_edge_list(cycle(5)))
        assert cli.main([str(path) if a == "C5" else a for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv", [["mad", "--budget", "5"], ["chi2", "--json"]], ids=" ".join
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        from sparse2dc import cli

        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chi2_budget_still_parses(self):
        from sparse2dc import cli

        assert cli.build_parser().parse_args(["chi2", "--budget", "5"]).budget == 5

    @pytest.mark.parametrize("hub", ["1", "0", "-3"])
    def test_gen_hub_degree_below_two_exit_2(self, hub):
        """No skeleton has a hub degree below 2, so it is refused before a
        draw, with one line and no traceback."""
        proc = run_cli(["gen", "--hub-degree", hub, "--count", "1"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (f"error: hub degree {hub} is below 2; "
                               "every skeleton has a vertex of degree 2 or more\n")

    def test_gen_exhausted_generator_exit_3(self, capsys, monkeypatch):
        from sparse2dc import cli, verify

        def exhausted(rng, hub_degree=7, strict=False):
            raise verify.GenerationError("subdivided-skeleton generator exhausted its retries")

        monkeypatch.setattr(verify, "random_capped_instance", exhausted)
        assert cli.main(["gen", "--count", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "budget exhausted: subdivided-skeleton generator exhausted its retries\n"

    def test_three_path_cycle_discharge_exit_2(self, capsys, tmp_path):
        """Charge rules need the 3-paths to form a forest of stars; an
        input that breaks this is an input error, not a crash."""
        import fixture_graphs as fx
        from sparse2dc import cli

        path = tmp_path / "cycle.txt"
        path.write_text(write_edge_list(fx.three_path_cycle()))
        assert cli.main(["discharge", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: the 3-paths contain a cycle\n"

    def test_color_reports_an_invalid_coloring(self, monkeypatch, capsys, tmp_path):
        """The validity check survives ``python -O``: a coloring that breaks
        the distance-2 condition is reported with exit code 1."""
        from sparse2dc import cli
        from sparse2dc.coloring import Coloring

        def monochrome(g, k, budget=None):
            return Coloring(k, {v: 1 for v in g.vertices()})

        path = tmp_path / "c5.txt"
        path.write_text(write_edge_list(cycle(5)))
        monkeypatch.setattr(cli, "color_2distance", monochrome)
        assert cli.main(["color", "--input", str(path), "--k", "5"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violation"] == [0, 1, 1]
        assert payload["colors"] == [1] * 5

    @pytest.mark.parametrize(
        "failure",
        [ExtensionError("greedy", 3, {0: [1, 2]}), ConstructiveFailure("no 8-coloring")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_internal_failure_exit_1(self, failure, monkeypatch, capsys, tmp_path):
        """A failed extension or base case is reported on one stderr line
        with exit code 1, not as a traceback."""
        from sparse2dc import cli

        def failing(g):
            raise failure

        path = tmp_path / "c5.txt"
        path.write_text(write_edge_list(cycle(5)))
        monkeypatch.setattr(cli, "constructive_color", failing)
        assert cli.main(["color", "--input", str(path), "--constructive"]) == 1
        err = capsys.readouterr().err
        assert err == f"internal failure: {type(failure).__name__}: {failure}\n"


class TestDetectorMutation:
    def test_disabling_detectors_breaks_coverage(self, monkeypatch):
        """Knocking out the long-run detectors leaves a crafted instance
        with no firing configuration, which the coverage check flags."""
        import fixture_graphs as fx
        from sparse2dc import reductions
        from sparse2dc.reductions import detect_configuration

        g = fx.four_plus_path()
        assert detect_configuration(g).kind == "FourPlusPath"
        crippled = tuple(
            kind
            for kind in reductions._REGISTRY
            if kind.name not in ("FourPlusPath", "CountingPair")
        )
        monkeypatch.setattr(reductions, "_REGISTRY", crippled)
        assert detect_configuration(g) is None  # the coverage gap appears


class TestHubNetworks:
    def test_generator_contract(self):
        import random

        from sparse2dc.potential import DENSITY_BOUND, mad_exact
        from sparse2dc.verify import random_hub_instance

        rng = random.Random(9)
        for _ in range(6):
            g, provenance = random_hub_instance(rng)
            assert provenance["generator"] == "hub-network"
            assert g.max_degree() == 7 and g.min_degree() == 2
            assert mad_exact(g)[0] <= DENSITY_BOUND

    def test_solver_handles_splice_rich_instances(self):
        import random

        from sparse2dc import constructive_color, is_valid_2distance
        from sparse2dc.verify import random_hub_instance

        rng = random.Random(10)
        for _ in range(6):
            g, _ = random_hub_instance(rng)
            phi = constructive_color(g, verify_preconditions=False)
            assert is_valid_2distance(g, phi)[0]


def test_find_config_serializes_path_witnesses():
    import fixture_graphs as fx
    from sparse2dc.io import write_edge_list

    g = fx.two_consecutive_three_paths()
    proc = run_cli(["find-config", "--input", "-"], stdin=write_edge_list(g))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "TwoConsecutiveThreePaths"
    assert payload["potentials"]["bridge"] >= 1

    g2 = fx.three_path_cycle()
    proc = run_cli(["find-config", "--input", "-"], stdin=write_edge_list(g2))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "ThreePathCycle"
    assert all("endpoints" in r for r in payload["witness"]["runs"])


class TestCliOutputIdentity:
    """The JSON reports are pinned byte for byte: standard output, standard
    error and exit code of each run below, on inputs whose witnesses hold
    runs, slots and potentials, on verdicts with an exact and an interval
    χ2, and on the corpus and hunt reports."""

    PINNED_CLI = "3cff43b25457"

    INPUTS = (
        "four_plus_path", "three_path_low_end", "two_path_chord", "counting_pair",
        "small_vertex", "three_path_cycle", "two_consecutive_three_paths",
        "weird_seven_dispatch",
    )
    COMMANDS = (
        ["find-config"], ["verify"], ["verify", "--assert-planar"],
        ["verify", "--budget", "1"], ["discharge", "--verify"], ["mad"],
        ["chi2", "--budget", "50"], ["rho-star", "--vertices", "0,1"],
    )
    RUNS = (
        ["gen", "--kind", "subdivision", "--count", "3", "--seed", "5"],
        ["gen", "--kind", "hub", "--count", "2", "--seed", "5"],
        ["gen", "--kind", "fixtures", "--count", "0"],
        ["hunt", "--seed", "3", "--budget", "6"],
    )

    def test_cli_digest(self, capsys, tmp_path):
        import hashlib

        import fixture_graphs as fx
        from sparse2dc import cli

        graphs = {name: getattr(fx, name)() for name in self.INPUTS}
        graphs["c7"] = cycle(7)  # χ2 at budget 1 is the interval (3, 4)
        records = []
        for name, g in graphs.items():
            path = tmp_path / f"{name}.g6"
            path.write_text(to_graph6(g) + "\n")
            for command in self.COMMANDS:
                code = cli.main([*command, "--input", str(path)])
                records.append([name, command, code, *capsys.readouterr()])
        for argv in self.RUNS:
            code = cli.main(argv)
            records.append([argv[0], argv[1:], code, *capsys.readouterr()])
        assert sum('"endpoints"' in r[3] for r in records) >= 4
        assert sum(r[1] == ["verify", "--budget", "1"] and '"chi2": [' in r[3]
                   for r in records) >= 1
        blob = json.dumps(records)
        assert hashlib.sha256(blob.encode()).hexdigest()[:12] == self.PINNED_CLI

"""Corpus generation, end-to-end theorem checking, and falsification hunts.

A corpus record stores a graph (graph6), its provenance, and exact facts
(degree, girth, density, chromatic data).  The hunt streams seeded random
instances through the full pipeline — exact density, configuration
coverage, constructive coloring, charge conservation — and persists any
violation with a replayable witness; the expected number of findings is
zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .coloring import chi2_exact
from .discharging import run_discharge
from .families import (
    cycle,
    decorated_tree,
    hoffman_singleton,
    petersen,
    random_hub_network,
    random_skeleton,
    triangle_gadget,
)
from .graph import INFINITE_GIRTH, Graph, check_girth_mad_bound, girth, subdivide
from .io import json_data, to_graph6
from .potential import DENSITY_BOUND, mad_exact, rho_star
from .reductions import ForestOfStarsError, _WorkGraph, constructive_color, detect_configuration


@dataclass(frozen=True)
class CorpusRecord:
    graph6: str
    provenance: dict
    n: int
    m: int
    max_degree: int
    girth: int | None
    mad: Fraction
    chi2: int | tuple[int, int] | None = None
    constructive_status: str | None = None

    def to_json(self) -> dict:
        return json_data(self)


def _named(exc: Exception) -> str:
    """An exception as reported in findings: its type, then its message."""
    return f"{type(exc).__name__}: {exc}"


def _exact_facts(g: Graph, budget: int | None):
    """The exact density (0 with no vertices), the girth (None for a
    forest), and χ2, a (low, high) interval if ``budget`` runs out."""
    density = mad_exact(g)[0] if g.n else Fraction(0)
    gir = girth(g)
    gir = None if gir is INFINITE_GIRTH else int(gir)
    return density, gir, chi2_exact(g, budget=budget)


def _facts(g: Graph, provenance: dict) -> CorpusRecord:
    value, gir, chi2 = _exact_facts(g, 2_000_000)
    if g.max_degree() > 7:
        status = "skipped-degree"
    elif value > DENSITY_BOUND:
        status = "skipped-density"
    else:
        try:  # constructive_color validates its coloring and raises if it fails
            constructive_color(g, verify_preconditions=False)
            status = "valid-8-coloring"
        except Exception as exc:
            status = f"failed: {_named(exc)}"
    return CorpusRecord(
        to_graph6(g),
        provenance,
        g.n,
        g.m,
        g.max_degree(),
        gir,
        value,
        chi2,
        status,
    )


class GenerationError(Exception):
    """The generator could not satisfy its constraints in budget."""


#: Candidates each random generator draws before it gives up.
_CAPPED_RETRIES, _HUB_RETRIES = 60, 40


def random_capped_instance(
    rng: random.Random, hub_degree: int = 7, strict: bool = False
) -> tuple[Graph, dict]:
    """A random subdivided-skeleton graph with the exact density bound.

    The skeleton keeps minimum degree 2 and one hub of the requested
    degree; two or three rounds of subdivision push the girth up and the
    density below 18/7 (strictly below when ``strict``).  A hub degree
    below 2 is refused before any draw, since no skeleton has one.
    """
    _require_hub_degree(hub_degree)
    for attempt in range(_CAPPED_RETRIES):
        n = rng.randint(5, 11)
        extra = rng.randint(0, 2)
        t = rng.choice((2, 3))
        skeleton = random_skeleton(rng, max(n, hub_degree + 1), hub_degree, extra)
        if skeleton.max_degree() > max(7, hub_degree):
            continue
        g = subdivide(skeleton, t)
        if g.max_degree() != hub_degree:
            continue
        if strict:
            if mad_exact(g)[0] >= DENSITY_BOUND:
                continue
        elif g.m and rho_star(g, ()).value < 0:  # mad > 18/7
            continue
        provenance = {
            "generator": "subdivided-skeleton",
            "skeleton_n": skeleton.n,
            "subdivisions": t,
            "attempt": attempt,
        }
        return g, provenance
    raise GenerationError("subdivided-skeleton generator exhausted its retries")


def _require_hub_degree(hub_degree: int) -> None:
    if hub_degree < 2:
        raise ValueError(
            f"hub degree {hub_degree} is below 2; every skeleton has a vertex of degree 2 or more"
        )


def random_tree_instance(rng: random.Random, hub_degree: int = 7) -> tuple[Graph, dict]:
    """A random subdivided tree with pendant paths whose hub has degree at
    least ``hub_degree``; the maximum degree may be higher.  A hub degree
    below 2 is refused before any draw."""
    _require_hub_degree(hub_degree)
    g = decorated_tree(
        rng,
        rng.randint(6, 12),
        hub_degree,
        pendant_paths=rng.randint(0, 3),
        subdivision=rng.randint(1, 3),
    )
    return g, {"generator": "decorated-tree"}


def random_hub_instance(rng: random.Random) -> tuple[Graph, dict]:
    """A random degree-7 hub network; rich in long-run configurations."""
    for attempt in range(_HUB_RETRIES):
        hubs = rng.choice((4, 6, 8))
        try:
            g = random_hub_network(rng, hubs)
        except ValueError:
            continue
        if g.max_degree() != 7:
            continue
        if g.m and rho_star(g, ()).value < 0:  # mad > 18/7
            continue
        return g, {"generator": "hub-network", "hubs": hubs, "attempt": attempt}
    raise GenerationError("hub-network generator exhausted its retries")


FIXTURES = {
    "c5": lambda: cycle(5),
    "petersen": petersen,
    "hoffman-singleton": hoffman_singleton,
    "gadget-girth3-d4": lambda: triangle_gadget(4, True),
    "gadget-girth4-d4": lambda: triangle_gadget(4, False),
}


def _generator(spec: dict, kind: str):
    """The instance maker of a random generator ``kind``, a function of the
    rng that reads the spec's ``hub_degree`` and ``strict``."""
    hub_degree = spec.get("hub_degree", 7)
    if kind == "subdivision":
        strict = spec.get("strict", False)
        return lambda rng: random_capped_instance(rng, hub_degree=hub_degree, strict=strict)
    if kind == "tree":
        return lambda rng: random_tree_instance(rng, hub_degree=hub_degree)
    if kind == "hub":
        return random_hub_instance
    raise ValueError(f"unknown generator kind {kind!r}")


def generate_corpus(
    spec: dict,
    count: int,
    seed: int,
) -> list[CorpusRecord]:
    """Seeded corpus of ``count`` records per the generator spec.

    spec keys: ``kind`` in {"subdivision", "tree", "hub", "fixtures"}; for
    random kinds, ``hub_degree`` (default 7) and ``strict`` (density
    strictly below 18/7).  Records carry exact, reproducible facts.
    """
    if count < 0:
        raise ValueError(f"negative record count {count}")
    rng = random.Random(seed)
    kind = spec.get("kind", "subdivision")
    records: list[CorpusRecord] = []
    if kind == "fixtures":
        for name, make in FIXTURES.items():
            record = _facts(make(), {"generator": "fixture", "name": name})
            records.append(record)
        return records[:count] if count else records
    make = _generator(spec, kind)
    for index in range(count):
        g, provenance = make(rng)
        provenance["seed"] = seed
        provenance["index"] = index
        records.append(_facts(g, provenance))
    return records


def save_corpus(records: list[CorpusRecord], directory: str | Path) -> None:
    """Persist as ``NNNN.g6`` plus ``NNNN.json`` sidecars."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for i, record in enumerate(records):
        stem = f"{i:04d}"
        (path / f"{stem}.g6").write_text(record.graph6 + "\n")
        (path / f"{stem}.json").write_text(
            json.dumps(record.to_json(), indent=2) + "\n"
        )


@dataclass(frozen=True)
class VerificationVerdict:
    density: Fraction
    max_degree: int
    girth: int | None
    density_within_bound: bool
    hypotheses_hold: bool
    chi2: int | tuple[int, int]
    constructive_valid: bool | None
    conclusion: bool | None
    girth_at_least_nine: bool
    planarity_asserted: bool
    planar_bound_consistent: bool | None

    def to_json(self) -> dict:
        return json_data(self)


def verify_theorem(
    g: Graph, assert_planar: bool = False, budget: int | None = 5_000_000
) -> VerificationVerdict:
    """Check the degree-plus-one colorability claim on one graph.

    Hypotheses: exact density at most 18/7 with maximum degree exactly 7
    (the constructive route), or strictly below 18/7 with maximum degree
    at least 8 (the previously known range, checked by exact search only).
    Budget exhaustion yields an inconclusive verdict, never a false claim.
    """
    density, gir, chi2 = _exact_facts(g, budget)
    delta = g.max_degree()
    within = density <= DENSITY_BOUND
    hypotheses = (delta == 7 and within) or (delta >= 8 and density < DENSITY_BOUND)

    constructive_valid: bool | None = None
    conclusion: bool | None = None
    if hypotheses:
        if delta == 7:  # constructive_color validates its coloring and raises if it fails
            constructive_color(g, verify_preconditions=False)
            constructive_valid = True
        if isinstance(chi2, int):
            conclusion = chi2 == delta + 1
    planar_consistent = None
    if assert_planar and gir is not None:
        planar_consistent = check_girth_mad_bound(density, gir)
    return VerificationVerdict(
        density,
        delta,
        gir,
        within,
        hypotheses,
        chi2,
        constructive_valid,
        conclusion,
        gir is None or gir >= 9,
        assert_planar,
        planar_consistent,
    )


@dataclass
class HuntReport:
    instances: int = 0
    findings: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return json_data(self)


def _record_finding(report: HuntReport, g: Graph, check: str, detail: str) -> None:
    g6 = to_graph6(g)
    report.findings.append(
        {
            "check": check,
            "detail": detail,
            "graph6": g6,
            # graph6 bytes are 63..126, so no single quote needs escaping
            "replay": f"printf '%s\\n' '{g6}' | sparse2dc verify --input -",
        }
    )


def hunt(
    seed: int,
    budget: int,
    spec: dict | None = None,
    findings_dir: str | Path | None = None,
) -> HuntReport:
    """Stream ``budget`` generated instances through every invariant.

    Checks per instance: configuration coverage (something fires on any
    non-cycle with minimum degree 2), constructive 8-coloring validity,
    and exact charge conservation.  Zero findings expected; when a
    directory is given, finding i is persisted under ``findings_dir`` as
    ``finding-NNN.json`` plus its witness ``finding-NNN.g6``, which
    ``sparse2dc verify --input finding-NNN.g6`` replays.  ``spec`` is a
    random generator spec of ``generate_corpus``, or kind "mixed" (the
    default), which draws subdivision, tree and hub instances 2 : 1 : 1.
    """
    if budget < 0:
        raise ValueError(f"negative instance budget {budget}")
    rng = random.Random(seed)
    spec = spec or {"kind": "mixed"}
    kind = spec.get("kind", "mixed")
    mixed = ("subdivision", "subdivision", "tree", "hub")
    makers = {k: _generator(spec, k) for k in (mixed if kind == "mixed" else (kind,))}
    report = HuntReport()
    for _ in range(budget):
        try:
            g, _prov = makers[rng.choice(mixed) if kind == "mixed" else kind](rng)
        except GenerationError:
            continue
        report.instances += 1
        if g.max_degree() > 7 or (g.m and rho_star(g, ()).value < 0):
            continue
        pure_cycle = g.n and all(g.degree(v) == 2 for v in g.vertices())
        wg = _WorkGraph(g)  # every check reads its one run index
        if g.min_degree() >= 2 and not pure_cycle and g.max_degree() == 7:
            try:
                if detect_configuration(wg) is None:
                    _record_finding(report, g, "coverage", "no configuration fires")
            except Exception as exc:
                _record_finding(report, g, "coverage", _named(exc))
                wg = _WorkGraph(g)
        later = []  # the discharge's findings, reported after the coloring's
        if g.n and g.min_degree() >= 2:  # discharged before the solve edits wg
            try:
                total = run_discharge(wg).total_final()
            except ForestOfStarsError:  # the charge rules do not apply
                pass
            except Exception as exc:
                later.append(("discharge", _named(exc)))
                wg = _WorkGraph(g)
            else:
                if total != 28 * g.m - 36 * g.n:
                    later.append(("conservation", "total drifted"))
                if total > 0:
                    later.append(("conservation", "positive total"))
        try:  # constructive_color validates its coloring and raises if it fails
            constructive_color(wg, verify_preconditions=False)
        except Exception as exc:
            _record_finding(report, g, "coloring", _named(exc))
        for check, detail in later:
            _record_finding(report, g, check, detail)
    if findings_dir is not None and report.findings:
        path = Path(findings_dir)
        path.mkdir(parents=True, exist_ok=True)
        for i, finding in enumerate(report.findings):
            (path / f"finding-{i:03d}.g6").write_text(finding["graph6"] + "\n")
            (path / f"finding-{i:03d}.json").write_text(
                json.dumps(finding, indent=2) + "\n"
            )
    return report

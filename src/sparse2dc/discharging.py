"""Charge assignment, transfer rules, and the ledger verifier.

Every vertex starts with charge 7*deg - 18, stored in exact half-units.
The transfer rules R0-R2 move charge along local structures (2-vertex
runs, bridges, sponsors); the ledger records every transfer so that the
final charges are auditable and conservation is checkable exactly.
The roles come from ``classify_vertices``; the run signatures that R1-R2
and the audit report read come from the run index it reads, the one the
detectors read.  Each call reads one index: the working graph's own when
``g`` is one, else one built for the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, degree_two_runs
from .io import json_data
from .potential import DENSITY_BOUND, mad_exact
from .reductions import _signature, _working, classify_vertices, detect_configuration

#: Transfer amounts in half-units, keyed by rule slot.  R0(i) and R1(iii)
#: each carry two distinct amounts, so they get two slots.
DEFAULT_AMOUNTS: dict[str, int] = {
    "R0i-large": 4,
    "R0i-medium": 8,
    "R0ii": 8,
    "R0iii": 2,
    "R0iv": 1,
    "R1i": 8,
    "R1ii": 5,
    "R1iii-one-paths": 2,
    "R1iii-two-path": 1,
    "R1iv": 2,
    "R2i": 1,
    "R2ii": 1,
    "BRIDGE-EQ": 1,
}


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: int
    target: int
    halves: int


@dataclass(frozen=True)
class ChargeLedger:
    """Initial charges, rule transfers, and resulting final charges."""

    initial: tuple[int, ...]
    transfers: tuple[Transfer, ...]
    final: tuple[int, ...]

    def total_initial(self) -> int:
        return sum(self.initial)

    def total_final(self) -> int:
        return sum(self.final)

    def final_charge(self, v: int) -> Fraction:
        return Fraction(self.final[v], 2)

    def to_json(self) -> dict:
        return {
            "initial": list(self.initial),
            "transfers": [
                {"rule": t.rule, "from": t.source, "to": t.target, "halves": t.halves}
                for t in self.transfers
            ],
            "final": list(self.final),
            "sum_halves": self.total_final(),
        }


def initial_charge_halves(g: Graph, v: int) -> int:
    return 14 * g.degree(v) - 36


#: The ledger's rule name of each two-amount slot; every other slot is its rule.
_RULE_OF_SLOT = {"R0i-large": "R0i", "R0i-medium": "R0i",
                 "R1iii-one-paths": "R1iii", "R1iii-two-path": "R1iii"}


def run_discharge(g: Graph, amounts: dict[str, int] | None = None) -> ChargeLedger:
    """Assign charges and apply every transfer rule.

    Preconditions: maximum degree at most 7, minimum degree at least 2, and
    the 3-paths must form a forest of stars (classification succeeds).
    ``amounts`` overrides individual rule amounts; the mutation tests lean
    on this hook.
    """
    if g.max_degree() > 7:
        raise ValueError("discharging requires maximum degree at most 7")
    if g.n and g.min_degree() < 2:
        raise ValueError("discharging requires minimum degree at least 2")
    amt = dict(DEFAULT_AMOUNTS)
    if amounts:
        unknown = set(amounts) - set(amt)
        if unknown:
            raise ValueError(f"unknown rule slots: {sorted(unknown)}")
        amt.update(amounts)
    wg = _working(g)
    classes = classify_vertices(wg)
    idx = wg.run_index()

    transfers: list[Transfer] = []

    def give(rule: str, source: int, target: int) -> None:
        transfers.append(Transfer(_RULE_OF_SLOT.get(rule, rule), source, target, amt[rule]))

    # R0(i): every 3+-vertex feeds its large and medium 2-neighbors
    for v, kind in sorted(classes.two_kind.items()):
        if kind in ("large", "medium"):
            for u in g.adjacency[v]:
                if g.degree(u) >= 3:
                    give(f"R0i-{kind}", u, v)

    # R0(ii): sponsors feed the small 2-vertex in the middle of their path
    for sponsor, small in sorted(classes.sponsors.items()):
        give("R0ii", sponsor, small)

    # R0(iii)/R1(iv): 1-path bridges relay between their 6+- and 3-ends
    for b in sorted(classes.one_path_bridges):
        heavy = next(u for u in g.adjacency[b] if g.degree(u) >= 6)
        light = next(u for u in g.adjacency[b] if g.degree(u) == 3)
        give("R0iii", heavy, b)
        give("R1iv", b, light)

    # R0(iv)/BRIDGE-EQ/R2(ii): 2-path bridges relay a half unit from the
    # 7-end to the low end, one vertex at a time
    for pair in classes.bridge_pairs:
        give("R0iv", pair["seven"], pair["near_seven"])
        give("BRIDGE-EQ", pair["near_seven"], pair["near_low"])
        give("R2ii", pair["near_low"], pair["low"])

    # R1(i)-(iii) and R2(i): donors keyed by their degree and the
    # receiving neighbor's run signature
    signature_rules = (
        ((2, 2, 0), 6, "R1i"),
        ((2, 1, 0), 5, "R1ii"),
        ((1, 1, 0), 4, "R1iii-one-paths"),
        ((2, 0, 0), 4, "R1iii-two-path"),
        ((2, 2, 2, 0), 5, "R2i"),
    )
    for u in g.vertices():
        du = g.degree(u)
        if du < 4:
            continue
        for w in g.adjacency[u]:
            if g.degree(w) < 3:
                continue
            sig = _signature(wg, idx, w)
            for pattern, min_degree, rule in signature_rules:
                if du >= min_degree and sig == pattern:
                    give(rule, u, w)

    initial = tuple(initial_charge_halves(g, v) for v in g.vertices())
    final = list(initial)
    for t in transfers:
        final[t.source] -= t.halves
        final[t.target] += t.halves
    return ChargeLedger(initial, tuple(transfers), tuple(final))


@dataclass(frozen=True)
class LedgerReport:
    conserved: bool
    total_halves: int
    expected_total_halves: int
    density: Fraction
    total_nonpositive_as_expected: bool | None
    negatives: tuple[tuple[int, int, tuple[int, ...]], ...]
    positives: tuple[tuple[int, int, tuple[int, ...]], ...]
    negative_implies_configuration: bool | None

    @property
    def ok(self) -> bool:
        return self.conserved and self.total_nonpositive_as_expected is not False

    def to_json(self) -> dict:
        return {
            "conserved": self.conserved,
            "sum_halves": self.total_halves,
            "expected_sum_halves": self.expected_total_halves,
            "density": str(self.density),
            "total_nonpositive_as_expected": self.total_nonpositive_as_expected,
            "negative_vertices": [
                {"vertex": v, "degree": d, "signature": list(s)}
                for v, d, s in self.negatives
            ],
            "positive_vertices": [
                {"vertex": v, "degree": d, "signature": list(s)}
                for v, d, s in self.positives
            ],
            "negative_implies_configuration": self.negative_implies_configuration,
        }


def verify_ledger(g: Graph, ledger: ChargeLedger) -> LedgerReport:
    """Audit a ledger: conservation, the exact total, and per-vertex signs.

    The total always equals 14m - 18n; it is nonpositive whenever the exact
    density is at most 18/7.  Negative vertices witness reducible structure,
    so the report cross-checks that some configuration fires.
    """
    recomputed = list(ledger.initial)
    for t in ledger.transfers:
        recomputed[t.source] -= t.halves
        recomputed[t.target] += t.halves
    conserved = (
        tuple(recomputed) == ledger.final
        and ledger.total_initial() == ledger.total_final()
    )
    expected = 28 * g.m - 36 * g.n
    density, _ = mad_exact(g) if g.n else (Fraction(0), frozenset())
    nonpositive = None
    if density <= DENSITY_BOUND:
        nonpositive = ledger.total_final() <= 0

    wg = _working(g)  # its run index is built on first read, and only once

    def annotate(vs):
        return tuple((v, g.degree(v), _signature(wg, wg.run_index(), v)) for v in vs)

    negatives = annotate([v for v in g.vertices() if ledger.final[v] < 0])
    positives = annotate([v for v in g.vertices() if ledger.final[v] > 0])
    implies = None
    if negatives:
        implies = detect_configuration(wg) is not None
    return LedgerReport(
        conserved and ledger.total_initial() == expected,
        ledger.total_final(),
        expected,
        density,
        nonpositive,
        negatives,
        positives,
        implies,
    )


#: The exclusion chain checked once all charges are exactly zero, in order.
ENDGAME_STEPS = (
    "no-three-paths",
    "no-seven-vertices",
    "no-four-or-five-vertices",
    "no-six-vertices",
    "no-three-vertices",
)


@dataclass(frozen=True)
class EndgameReport:
    violated_step: str | None
    cycles_confirmed: bool

    def to_json(self) -> dict:
        return json_data(self)


def endgame_report(g: Graph, ledger: ChargeLedger) -> EndgameReport:
    """With every final charge exactly zero, walk the exclusion chain and
    report the first structural violation, or confirm the graph is a
    disjoint union of cycles.

    Vertices on pure 2-regular cycles are exempt from the zero requirement:
    they sit at -4 by construction and are exactly what the terminal step
    confirms.
    """
    runs, cycles = degree_two_runs(g)
    exempt = {v for cyc in cycles for v in cyc}
    offending = [v for v in g.vertices() if ledger.final[v] != 0 and v not in exempt]
    if offending:
        raise ValueError(
            f"endgame analysis requires zero charges (vertex {offending[0]} "
            f"has {ledger.final[offending[0]]} half-units)"
        )
    checks = {
        "no-three-paths": any(r.length == 3 for r in runs),
        "no-seven-vertices": any(g.degree(v) == 7 for v in g.vertices()),
        "no-four-or-five-vertices": any(g.degree(v) in (4, 5) for v in g.vertices()),
        "no-six-vertices": any(g.degree(v) == 6 for v in g.vertices()),
        "no-three-vertices": any(g.degree(v) == 3 for v in g.vertices()),
    }
    for step in ENDGAME_STEPS:
        if checks[step]:
            return EndgameReport(step, False)
    cycles = g.n > 0 and all(g.degree(v) == 2 for v in g.vertices())
    return EndgameReport(None, cycles)

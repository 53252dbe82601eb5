"""Command-line surface: exact sparse-graph 2-distance coloring toolkit.

JSON reports go to stdout, human-readable summaries to stderr.  Exit
codes: 0 success / nothing found, 1 violation found or internal failure,
2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coloring import SearchBudgetExceeded, chi2_exact, color_2distance, is_valid_2distance
from .discharging import endgame_report, run_discharge, verify_ledger
from .graph import Graph
from .io import autodetect, json_data
from .potential import PotentialParams, mad_exact, rho, rho_star
from .reductions import (
    ConstructiveFailure,
    ExtensionError,
    ForestOfStarsError,
    InternalContradiction,
    constructive_color,
    detect_configuration,
)
from .verify import GenerationError, generate_corpus, hunt, save_corpus, verify_theorem

OK, VIOLATION, INPUT_ERROR, BUDGET = 0, 1, 2, 3


def _load_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return autodetect(text)


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, indent=2))
    print(summary, file=sys.stderr)


def _parse_vertices(raw: str | None) -> frozenset[int]:
    if not raw:
        return frozenset()
    return frozenset(int(tok) for tok in raw.replace(",", " ").split())


def _cmd_mad(args) -> int:
    g = _load_graph(args.input)
    value, witness = mad_exact(g)
    _emit(
        {
            "value": str(value),
            "numerator": value.numerator,
            "denominator": value.denominator,
            "witness": sorted(witness),
        },
        f"mad = {value} on {len(witness)} vertices",
    )
    return OK


def _cmd_rho(args) -> int:
    g = _load_graph(args.input)
    vertices = _parse_vertices(args.vertices)
    params = PotentialParams(args.a, args.b)
    value = rho(g, vertices, params)
    _emit(
        {"value": value, "witness": sorted(vertices), "params": [params.a, params.b]},
        f"rho = {value}",
    )
    return OK


def _cmd_rho_star(args) -> int:
    g = _load_graph(args.input)
    vertices = _parse_vertices(args.vertices)
    params = PotentialParams(args.a, args.b)
    result = rho_star(g, vertices, params)
    _emit(
        {
            "value": result.value,
            "witness": sorted(result.witness),
            "params": [params.a, params.b],
        },
        f"rho* = {result.value} with witness of size {len(result.witness)}",
    )
    return OK


def _cmd_chi2(args) -> int:
    g = _load_graph(args.input)
    result = chi2_exact(g, budget=args.budget)
    if isinstance(result, tuple):
        _emit(
            {"chi2_low": result[0], "chi2_high": result[1], "exact": False},
            f"budget exhausted: chi2 in [{result[0]}, {result[1]}]",
        )
        return BUDGET
    _emit({"chi2": result, "exact": True}, f"chi2 = {result}")
    return OK


def _cmd_color(args) -> int:
    g = _load_graph(args.input)
    if args.constructive:
        if args.budget < 0:  # no search runs, but the budget is still checked
            raise ValueError(f"negative node budget {args.budget}")
        coloring = constructive_color(g)
        k = coloring.k
    else:
        if args.k is None:
            print("--k is required without --constructive", file=sys.stderr)
            return INPUT_ERROR
        k = args.k
        try:
            coloring = color_2distance(g, k, budget=args.budget)
        except SearchBudgetExceeded:
            _emit({"k": k, "colors": None, "budget_exhausted": True}, "budget exhausted")
            return BUDGET
        if coloring is None:
            _emit({"k": k, "colors": None}, f"no {k}-coloring exists")
            return VIOLATION
    colors = [coloring.get(v) for v in g.vertices()]
    if not args.constructive:  # constructive_color validates its coloring and raises
        ok, violation = is_valid_2distance(g, coloring)
        if not ok:
            u, v, dist = violation
            _emit({"k": k, "colors": colors, "violation": [u, v, dist]},
                  f"invalid coloring: vertices {u} and {v} at distance {dist} share a color")
            return VIOLATION
    _emit(
        {"k": k, "colors": colors},
        f"valid 2-distance coloring with {len(set(coloring.colors.values()))} colors",
    )
    return OK


def _cmd_find_config(args) -> int:
    g = _load_graph(args.input)
    cfg = detect_configuration(g)
    if cfg is None:
        _emit({"kind": None}, "no configuration fires")
        return OK
    _emit(
        {"kind": cfg.kind, "witness": json_data(cfg.data), "potentials": cfg.potentials},
        f"configuration: {cfg.kind}",
    )
    return OK


def _cmd_discharge(args) -> int:
    g = _load_graph(args.input)
    ledger = run_discharge(g)
    payload = ledger.to_json()
    if args.verify:
        payload["report"] = verify_ledger(g, ledger).to_json()
        if all(c == 0 for c in ledger.final):
            payload["endgame"] = endgame_report(g, ledger).to_json()
    _emit(payload, f"sum of charges: {ledger.total_final()} half-units")
    return OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.input)
    verdict = verify_theorem(g, assert_planar=args.assert_planar, budget=args.budget)
    _emit(verdict.to_json(), f"hypotheses hold: {verdict.hypotheses_hold}, "
                             f"conclusion: {verdict.conclusion}")
    if verdict.hypotheses_hold and verdict.conclusion is None:
        return BUDGET
    if verdict.hypotheses_hold and verdict.conclusion is False:
        return VIOLATION
    return OK


def _cmd_gen(args) -> int:
    spec = {"kind": args.kind, "hub_degree": args.hub_degree, "strict": args.strict}
    records = generate_corpus(spec, args.count, args.seed)
    if args.out:
        save_corpus(records, args.out)
    _emit(
        {"records": [r.to_json() for r in records]},
        f"generated {len(records)} records",
    )
    return OK


def _cmd_hunt(args) -> int:
    report = hunt(args.seed, args.budget, findings_dir=args.out)
    _emit(
        report.to_json(),
        f"{report.instances} instances, {len(report.findings)} findings",
    )
    return OK if report.ok else VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse2dc",
        description="Exact 2-distance coloring toolkit for sparse graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--input", default="-", help="edge list or graph6 file, - for stdin")
        if budget:
            p.add_argument("--budget", type=int, default=5_000_000,
                           help="search budget in decision nodes")

    p = sub.add_parser("mad", help="exact maximum average degree")
    common(p)
    p.set_defaults(func=_cmd_mad)

    for name, func in (("rho", _cmd_rho), ("rho-star", _cmd_rho_star)):
        p = sub.add_parser(name, help=f"potential function {name}")
        common(p)
        p.add_argument("--vertices", default="", help="vertex set, e.g. '0,1,2'")
        p.add_argument("--a", type=int, default=9)
        p.add_argument("--b", type=int, default=7)
        p.set_defaults(func=func)

    p = sub.add_parser("chi2", help="exact 2-distance chromatic number")
    common(p, budget=True)
    p.set_defaults(func=_cmd_chi2)

    p = sub.add_parser("color", help="find a 2-distance coloring")
    common(p, budget=True)
    p.add_argument("--k", type=int, help="palette size for exact search")
    p.add_argument("--constructive", action="store_true",
                   help="use the reduction-based 8-coloring solver")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("find-config", help="first firing configuration")
    common(p)
    p.set_defaults(func=_cmd_find_config)

    p = sub.add_parser("discharge", help="run the charge rules")
    common(p)
    p.add_argument("--verify", action="store_true", help="attach the audit report")
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("verify", help="end-to-end theorem check")
    common(p, budget=True)
    p.add_argument("--assert-planar", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a corpus")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("subdivision", "tree", "hub", "fixtures"),
                   default="subdivision")
    p.add_argument("--hub-degree", type=int, default=7)
    p.add_argument("--strict", action="store_true",
                   help="require density strictly below 18/7")
    p.add_argument("--out", help="directory for .g6/.json record files")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hunt", help="stream instances through all invariants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=50, help="instances to try")
    p.add_argument("--out", help="directory to persist finding witnesses")
    p.set_defaults(func=_cmd_hunt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ForestOfStarsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (SearchBudgetExceeded, GenerationError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return BUDGET
    except InternalContradiction as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return VIOLATION
    except (ExtensionError, ConstructiveFailure) as exc:
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())

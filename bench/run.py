"""End-to-end and per-layer benchmark of sparse2dc.

    python3 bench/run.py --workload large-solve --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs as a closed loop: one caller in one single-threaded
process starts each operation when the previous one has finished.  The
workload's fixed operation list (a "pass") repeats while another pass fits
in ``--seconds``; at least one pass always runs.  Every answer is checked
outside the timed operation (see ``workloads.check``) and the answers of
every pass must hash to the same digest.  Operation times are also given
in units of a reference loop timed beside them (see ``SpeedSampler``), and
so is set-up time before it is converted back to seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the rest, and reports the
per-layer metrics (see ``tracing``) averaged per pass, plus the tracing
overhead.  ``--workload all`` runs every workload in its own process and
prints all end-to-end metrics side by side.

Standard output carries a one-line JSON report and, as its last line, the
result object; standard error carries a human summary.  The full report,
with span records when traced, is also written under ``bench/out/``.  The
exit code is 0 when every answer check passed, 1 when one failed and 2 when
the sparse2dc sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: The gated end-to-end metrics, reported on every workload.  ``wall_ref``
#: is a time in units of the reference loop sampled beside the operations.
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))
#: Further end-to-end metrics, reported where they apply.
FAMILY_METRICS = (("setup_raw_s", "s"), ("import_s", "s"), ("inputs_s", "s"),
                  ("op_ref_p50", "ref"), ("wall_s", "s"), ("ops_per_s", "1/s"),
                  ("op_ms_p50", "ms"), ("fail_frac", "ratio"),
                  ("solve_s_n500", "s"), ("solve_s_n1000", "s"), ("op_ms_p90", "ms"),
                  ("chi2_s", "s"), ("mad_s", "s"), ("rho_star_ms_p50", "ms"),
                  ("rho_star_ms_p90", "ms"))
#: Host-speed reference: a fixed pure-Python loop (``reference_seconds``),
#: timed every ``SAMPLE_PERIOD`` seconds from set-up to the last operation.
REFERENCE_VERTICES = 300
SAMPLE_PERIOD = 0.1
#: Shortest window of samples that normalizes one operation; the host keeps
#: one speed for seconds at a time.
SMOOTHING = 1.0
#: A typical reference time on the host this was tuned on (2-vCPU Intel
#: Xeon, Python 3.11); ``setup_s`` is set-up time in reference units times
#: this, i.e. seconds at that host's typical speed.
NOMINAL_REFERENCE_S = 0.0025
#: Set-up is a fresh import of the library plus a warm-up pass; it runs
#: this many times and its median counts.  Input generation is left out of
#: set-up: how many candidates a seed's filters reject is luck, and it made
#: generation take from 1.0 to 3.5 s over six ``large-solve`` seeds.
SETUP_REPEATS = 15
#: The warm-up pass runs the workload's tiny operation list for this seed,
#: whatever ``--seed`` is, so that its cost does not depend on the seed.
WARM_UP_SEED = 0
#: mallopt's parameter number for glibc's mmap threshold, and the
#: threshold's initial value.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024
#: The 90th percentile needs ten samples beyond it.
P90_SAMPLES = 100


def _import_library():
    """Import sparse2dc from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import sparse2dc
    except ImportError as exc:
        print(f"bench: cannot import sparse2dc from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(sparse2dc.__file__).resolve().parent.parent != SRC:
        print(f"bench: sparse2dc was imported from {sparse2dc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _pin_malloc() -> bool:
    """Fix glibc's mmap threshold at its initial value.

    glibc raises the threshold whenever a large block is freed, so whether
    a later large block is mapped afresh or carved from the retained heap
    depends on everything allocated before it: the peak resident memory of
    one ``exact-oracles`` seed ranged from 46 to 61 MB between runs, and
    from 46 to 48 MB with the threshold fixed.  Fixed, every operation
    meets the allocator as a fresh CLI process does.  Returns whether the
    C library took the setting.
    """
    try:
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))
    except (OSError, AttributeError):
        return False


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_seconds() -> float:
    """Time of a fixed loop, a few milliseconds long, that builds and
    unions small sets of integers as the library does.

    Garbage collection is off while it runs: a collection would traverse
    the program's live objects, and the loop's time would then grow with
    the program's heap instead of tracking the host's speed alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_loop()
    finally:
        if enabled:
            gc.enable()


def _reference_loop() -> float:
    start = time.perf_counter()
    adj = [set() for _ in range(REFERENCE_VERTICES)]
    x = 12345
    for _ in range(4 * REFERENCE_VERTICES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % REFERENCE_VERTICES
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % REFERENCE_VERTICES
        adj[u].add(v)
        adj[v].add(u)
    for v in range(REFERENCE_VERTICES):
        ball = set(adj[v])
        for w in adj[v]:
            ball |= adj[w]
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while the benchmark runs.

    A shared host changes speed from one second to the next, by half and
    more, which no amount of repetition averages out of a raw time.  From
    a SIGALRM handler, every ``SAMPLE_PERIOD`` seconds, this times the
    reference loop; a span's time divided by the mean reference time
    sampled during it (within ``SMOOTHING`` seconds of it, for a short one)
    is its time in reference units.  Callers subtract the handler's own
    time, ``spent``, from the spans they time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.references: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference = reference_seconds()
        self.times.append(start)
        self.references.append(reference)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_for(self, start: float, end: float) -> float:
        """Mean reference time sampled during [start, end], widened to at
        least ``SMOOTHING`` seconds so that one sample's jitter averages out."""
        pad = max(0.0, SMOOTHING - (end - start)) / 2
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        return statistics.fmean(self.references[lo:hi] or self.references)


def run_pass(ops, kind_log, sampler: SpeedSampler, tracer=None) -> dict:
    """Run every operation once; check each answer after its timed call.

    ``sampler`` must be running; it gives each operation its time in
    reference units.
    """
    import workloads

    state: dict = {}
    latencies, windows, families, answers, failures, errors = [], [], [], [], [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        mark, spent = len(kind_log.kinds), sampler.spent
        start = time.perf_counter()
        try:
            result, raised = workloads.run(op, state), None
        except Exception as exc:  # every exception type is a failed operation
            result, raised = None, exc
        end = time.perf_counter()
        latencies.append(end - start - (sampler.spent - spent))
        windows.append((start, end))
        families.append(op.family)
        failure = None
        if raised is not None:
            answer = {"raised": type(raised).__name__}
            failure = type(raised).__name__
        else:
            try:
                answer = workloads.check(op, result)
                failure = workloads.failure_of(answer)
            except workloads.CheckFailed as exc:
                answer = {"check_failed": str(exc)}
                failure = "CheckFailed"
                errors.append(f"op {index} ({op.family}): {exc}")
        fired = kind_log.kinds[mark:]
        if fired:
            answer["fired"] = fired
        answers.append(answer)
        if failure is not None:
            failures.append({"op": index, "family": op.family, "type": failure,
                             "message": str(raised or answer)[:300],
                             "graph6": op.graph6(), "replay": op.replay()})
    digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
    references = [sampler.reference_for(a, b) for a, b in windows]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"latencies": latencies, "references": references, "families": families,
            "failures": failures, "errors": errors, "digest": digest, "peak_rss_mb": peak_rss_mb}


def timed_passes(ops, seconds, kind_log, sampler, tracer=None) -> list[dict]:
    """Whole passes, repeated while another one fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, kind_log, sampler, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _pass_ref(p: dict) -> float:
    """A pass's operation time in reference units."""
    return sum(t / r for t, r in zip(p["latencies"], p["references"]))


def end_to_end(passes, setup_ref, setup_raw_s, import_s, inputs_s) -> dict[str, float]:
    """Every end-to-end metric that this workload's operations define."""
    latencies = [t for p in passes for t in p["latencies"]]
    by_family: dict[str, list[list[float]]] = {}
    for p in passes:
        per_pass: dict[str, list[float]] = {}
        for family, t in zip(p["families"], p["latencies"]):
            per_pass.setdefault(family, []).append(t)
        for family, values in per_pass.items():
            by_family.setdefault(family, []).append(values)
    failed = sum(len(p["failures"]) for p in passes)
    values = {
        "setup_s": setup_ref * NOMINAL_REFERENCE_S,
        "setup_raw_s": setup_raw_s,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "wall_ref": statistics.median(map(_pass_ref, passes)),
        "op_ref_p50": statistics.median(
            t / r for p in passes for t, r in zip(p["latencies"], p["references"])),
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        # after the first pass, so that it does not grow with the number
        # of passes that fit in the run
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "fail_frac": failed / len(latencies),
    }
    if len(latencies) >= P90_SAMPLES:
        values["op_ms_p90"] = 1e3 * _percentile(latencies, 90)
    for name in ("n500", "n1000"):
        if f"solve_{name}" in by_family:
            values[f"solve_s_{name}"] = statistics.median(
                t for per_pass in by_family[f"solve_{name}"] for t in per_pass)
    for family in ("chi2", "mad"):
        if family in by_family:
            values[f"{family}_s"] = statistics.median(sum(v) for v in by_family[family])
    if "rho_star" in by_family:
        queries = [t for per_pass in by_family["rho_star"] for t in per_pass]
        values["rho_star_ms_p50"] = 1e3 * statistics.median(queries)
        if len(queries) >= P90_SAMPLES:
            values["rho_star_ms_p90"] = 1e3 * _percentile(queries, 90)
    return values


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        cpu = next(l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                   if l.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "sparse2dc").glob("*.py"))
    return {"seed": seed, "commit": _git_commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "src_lines": src_lines}


def _library_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "sparse2dc" or name.startswith("sparse2dc.")}


def import_library_again() -> None:
    """Import every loaded sparse2dc module afresh, then put the loaded
    ones back; the benchmark keeps using those, and the fresh copies are
    dropped."""
    loaded = _library_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        for name in sorted(loaded):  # the package before its modules
            importlib.import_module(name)
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def set_up(workload: str, kind_log, sampler) -> dict:
    """Set up ``SETUP_REPEATS`` times: import the library afresh and run the
    warm-up pass.

    Returns the median set-up time in seconds and in reference units, and
    the failures and check errors of every warm-up pass.  Every warm-up
    pass must give the same answer digest.
    """
    import workloads

    seconds, units, digests, failures, errors = [], [], set(), [], []
    for _ in range(SETUP_REPEATS):
        spent = sampler.spent
        start = time.perf_counter()
        import_library_again()
        done = run_pass(workloads.build(workload, WARM_UP_SEED, "tiny"), kind_log, sampler)
        end = time.perf_counter()
        seconds.append(end - start - (sampler.spent - spent))
        units.append(seconds[-1] / sampler.reference_for(start, end))
        # free this set-up's library copy now, untimed, so that copies do
        # not pile up until a collection happens to find them
        gc.collect()
        digests.add(done["digest"])
        failures += done["failures"]
        errors += [f"warm-up {e}" for e in done["errors"]]
    if len(digests) != 1:
        errors.append("answer digests differ between warm-up passes")
    return {"seconds": statistics.median(seconds), "units": statistics.median(units),
            "failures": failures, "errors": errors}


def measure(args) -> int:
    start = time.perf_counter()
    malloc_pinned = _pin_malloc()
    _import_library()
    import tracing
    import workloads

    import_s = time.perf_counter() - start
    kind_log = tracing.KindLog()
    with SpeedSampler() as sampler:
        spent = sampler.spent
        build_start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, args.scale)
        inputs_s = time.perf_counter() - build_start - (sampler.spent - spent)
        # the operation list stays alive to the end; frozen, it is no longer
        # traversed by the garbage collections that the program triggers
        gc.collect()
        gc.freeze()
        prepared = set_up(args.workload, kind_log, sampler)
        errors = prepared["errors"]
        tracer = None
        if args.trace:
            passes = timed_passes(ops, args.seconds / 2, kind_log, sampler)
            tracer = tracing.Tracer()
            mark = len(kind_log.kinds)
            tracer.install()
            try:
                traced = timed_passes(ops, args.seconds / 2, kind_log, sampler, tracer)
            finally:
                tracer.uninstall()
        else:
            passes, traced = timed_passes(ops, args.seconds, kind_log, sampler), []

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "malloc_pinned": malloc_pinned, **metadata(args.seed),
              "operations_per_pass": len(ops)}
    if args.trace:
        layers = tracer.metrics(len(traced), kind_log.kinds[mark:])
        layers["trace.overhead_ratio"] = (
            statistics.median(map(_pass_ref, traced)) / statistics.median(map(_pass_ref, passes)))
        errors += tracing.expectation_errors(args.workload, layers)
        report["per_layer"] = layers
        result_metrics = {name: {"value": layers[name], "unit": unit}
                          for name, unit in tracing.LAYER_METRICS}
    measured = end_to_end(passes, prepared["units"], prepared["seconds"], import_s, inputs_s)
    if not args.trace:
        result_metrics = {name: {"value": measured[name], "unit": unit}
                          for name, unit in END_TO_END}

    everything = passes + traced
    digests = sorted({p["digest"] for p in everything})
    if len(digests) > 1:
        errors.append(f"answer digests differ between passes{' (traced vs untraced)' if traced else ''}")
    errors += [e for p in everything for e in p["errors"]]
    failures = [f for p in everything for f in p["failures"]]
    units = dict(END_TO_END + FAMILY_METRICS)
    report.update({
        "passes": len(passes), "traced_passes": len(traced), "digest": digests[0],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in measured.items()},
        "failure_types": dict(sorted(Counter(f["type"] for f in failures).items())),
        "failures": failures[:50], "warm_up_failures": prepared["failures"][:50],
        "check_errors": errors[:50],
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    per_op = [{k: p[k] for k in ("families", "latencies", "references")} for p in everything]
    path.write_text(json.dumps({**report, "per_op": per_op,
                                "spans": tracer.spans if tracer else []}) + "\n")

    attempted = sum(len(p["latencies"]) for p in everything)
    print(json.dumps(report, sort_keys=True))
    _summary(report, errors)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(failures),
                      "metrics": result_metrics}))
    return 0 if not errors else 1


def _summary(report: dict, errors: list[str]) -> None:
    lines = [f"{report['workload']} seed={report['seed']} passes={report['passes']} "
             f"ops/pass={report['operations_per_pass']} digest={report['digest'][:16]}"]
    for name, metric in report["metrics"].items():
        lines.append(f"  {name:<18} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in report.get("per_layer", {}).items():
        lines.append(f"  {name:<44} {value:>14.6g}")
    if report["failure_types"]:
        lines.append(f"  failures: {report['failure_types']}")
    lines += [f"  CHECK FAILED: {e}" for e in errors]
    print("\n".join(lines), file=sys.stderr)


def measure_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    reports, status = {}, 0
    names = [name for name, _ in END_TO_END + FAMILY_METRICS]
    for workload in ("large-solve", "hunt-stream", "exact-oracles"):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        reports[workload] = json.loads(lines[-2]) if len(lines) >= 2 else None
    table = [f"{'metric':<18}" + "".join(f"{w:>16}" for w in reports)]
    for name in names:
        cells = []
        for report in reports.values():
            metric = (report or {}).get("metrics", {}).get(name)
            cells.append(f"{metric['value']:>16.6g}" if metric else f"{'-':>16}")
        table.append(f"{name:<18}" + "".join(cells))
    print("\n".join(table), file=sys.stderr)
    print(json.dumps(reports, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("large-solve", "hunt-stream", "exact-oracles", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations per workload, for the self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return measure_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own smoke test passes against the library in this checkout:
every traced target still exists and every counter it expects to move does.
The result line each run ends with is one the benchmark's gate can read."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    # a subprocess, since importing the bench's tests rebinds apply_reduction;
    # no bytecode is written, so bench/ is left as it was
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "test_bench.TestSmoke"],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """``bench/`` and ``src/`` copied out, so the runs write nothing here."""
    root = tmp_path_factory.mktemp("bench-copy")
    junk = shutil.ignore_patterns("__pycache__", "out")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=junk)
    return root


def _reject(constant):
    raise ValueError(f"{constant} is not a JSON number")


# Seed 2, as the smoke test uses: at seed 1 the tiny traced large-solve reads
# zero calls in two layers it expects to move, and fails its own check.
@pytest.mark.parametrize("workload, trace", [
    ("large-solve", 1), ("hunt-stream", 1), ("exact-oracles", 1), ("large-solve", 0),
])
def test_result_line_is_a_valid_result(bench_copy, workload, trace):
    """The last stdout line parses as strict JSON and names exactly the
    metrics ``BENCHMARK.json`` declares: the per-layer ones when traced, the
    end-to-end ones when not.  The names come from ``reductions.KINDS`` too,
    so adding, dropping or renaming a kind changes them."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--scale", "tiny", "--trace", str(trace)],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["correct"] is True

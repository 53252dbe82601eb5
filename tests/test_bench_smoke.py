"""The benchmark's own smoke test passes against the library in this checkout:
every traced target still exists and every counter it expects to move does."""

import os
import subprocess
import sys
from pathlib import Path

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

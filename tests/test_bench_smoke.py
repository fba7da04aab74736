"""The benchmark's own self-check still runs against this program.

``bench/selfcheck.py`` drives every benchmark workload at a tiny size with
all its output checks (about 4 s). A program change that breaks a call the
benchmark makes fails here. No timing is checked.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

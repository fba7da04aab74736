"""What importing gridse loads.

Every CLI call imports the package first, so its start-up is part of each
analysis. scipy.stats alone would add about 385 modules to it; gridse takes
its one chi-square quantile from scipy.special instead.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def test_importing_gridse_does_not_load_scipy_stats():
    # a fresh interpreter: the test modules themselves import scipy.stats
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, gridse, gridse.cli, gridse.scenarios; "
         "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

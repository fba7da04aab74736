"""The shipped outputs, byte for byte: the table and machine reports of the
five shipped dc scenarios, the machine report of the shipped ac scenario
(readings simulated on a lossy four-bus grid, one gross error, all three
detectors), the three-bus estimate and a seeded Monte Carlo run.

The files under ``golden/`` are the CLI's stdout for the arguments below.
A change that moves any of them moves a published number; regenerate them
only for a change meant to do so, and say so where the change is logged.
"""

from pathlib import Path

import pytest

from gridse.cli import main
from helpers import CASES_DIR, SCENARIO_FILES, THREE_BUS

GOLDEN_DIR = Path(__file__).parent / "golden"

RUNS = [
    (f"scenario_{path.stem}.{fmt}.txt",
     ["scenario", "run", str(path), "--format", fmt])
    for path in SCENARIO_FILES for fmt in ("machine", "table")
] + [
    ("scenario_ac_gross_error.machine.txt",
     ["scenario", "run", str(CASES_DIR / "ac_gross_error.json"),
      "--format", "machine"]),
    ("estimate_three_bus.txt", ["estimate", "--case", str(THREE_BUS)]),
    ("montecarlo_three_bus_stealth.machine.txt",
     ["montecarlo", "--case", str(THREE_BUS), "--trials", "500",
      "--attack", "stealth", "--format", "machine"]),
]


@pytest.mark.parametrize("golden, argv", RUNS, ids=[g for g, _ in RUNS])
def test_cli_output_matches_the_golden_file(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()


def test_every_golden_file_is_checked():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == \
        sorted(g for g, _ in RUNS)

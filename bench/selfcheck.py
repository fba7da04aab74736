#!/usr/bin/env python3
"""Fast check that the benchmark still works, with no timing bounds.

    python3 bench/selfcheck.py

Runs every workload at a tiny size (n of 5 to 6 buses): the generator, one
op (one detector cycle for the Monte Carlo workload) with all its output
checks, and the traced run. It then checks that the metric names and units
each mode prints are exactly those BENCHMARK.json declares, and that
bench/design.json records the same workloads. Exits 1 on any failure.
"""

import json
import sys

import run

TINY = {
    "mc_dc_30": {"n": 5, "chords": 2, "trials": 20},
    "scenario_dc_1000": {"n": 6, "chords": 2},
    "ac_scenario_118": {"n": 6, "chords": 2},
}
SEED = 7


def main() -> int:
    run.load_gridse()
    import workloads

    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    design = json.loads((run.BENCH / "design.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in contract["workloads"]]
    if names != list(workloads.WORKLOADS) or names != [w["name"] for w in design["workloads"]]:
        problems.append(f"workload lists differ: BENCHMARK.json {names}, "
                        f"workloads.py {list(workloads.WORKLOADS)}, design.json "
                        f"{[w['name'] for w in design['workloads']]}")

    for name, cls in workloads.WORKLOADS.items():
        workdir = run.OUT / "selfcheck" / name
        workdir.mkdir(parents=True, exist_ok=True)
        workload = cls(SEED, workdir, **TINY[name])
        for trace in (0, 1):
            metrics, _, phases, _ = run.measure(workload, 0.0, trace, setup_s=1.0)
            for phase in phases:
                problems += [f"{name}: {msg}" for msg in phase.problems]
            units = {metric: unit for metric, (_, unit) in metrics.items()}
            if units != declared[trace]:
                differ = set(units.items()) ^ set(declared[trace].items())
                problems.append(f"{name} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(differ)}")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else f"{name}: FAILED")

    for msg in problems:
        print(msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

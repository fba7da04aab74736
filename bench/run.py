#!/usr/bin/env python3
"""gridse benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridse checkout: the program is imported from the
``src/`` directory beside ``bench/``, never from an installed copy. The
workload's inputs are generated from the seed into ``bench/out/``, then
ops run in a closed loop (one caller, one op at a time) for S seconds and
every op's output is checked.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference machine speed measured between ops (see KERNELS). ``--trace 1`` runs S/2
seconds untraced and S/2 seconds with timing wrappers around every public
gridse function, and reports the per-layer metrics (per traced op) and
the tracing overhead. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
and ``bench/out/<workload>-seed<N>-trace<T>.json`` record the environment,
the tail percentile used and its sample count. The traced run also writes
its spans to ``bench/out/<workload>-seed<N>-spans.jsonl``.

``--setup-only`` prepares the inputs, prints the set-up time and exits; the
runner uses it to time set-up again in fresh interpreters.
"""

import os
import time

RUNNER_START = time.perf_counter()

# Fixed before numpy loads, on every run: with the default two OpenBLAS
# threads on a 2-core machine the ac workload is slower and far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, OP, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is timed in this process and in this many fresh interpreters more.
SETUP_REPEATS = 2
# Set-up is mostly imports, whose speed no calibration kernel below
# tracked. It is scaled instead by the time a fresh interpreter takes to
# import what gridse imports from numpy and scipy (reference 1.5 s), timed
# after each set-up; a change to gridse's own imports still shows.
IMPORT_KERNEL = "import numpy, scipy.linalg, scipy.stats"
IMPORT_REFERENCE_S = 1.5
TAIL_BEYOND = 10
# Shared cloud cores (measured on a 2-vCPU VM) change speed by up to a
# factor of two over seconds to minutes, more than any run length averages
# out. Between ops (and between the program calls of a long op) the runner
# times a fixed calibration kernel of the kind of work the workload mostly
# does, and reports op times scaled to the speed at which that kernel takes
# its reference time; the raw times are printed beside them. See
# bench/design.json for the measured effect.
CALIBRATION_SHARE = 0.05

LAYER_FUNCTIONS = (
    "network.parse_case", "network.build_admittance",
    "measurement.dc_jacobian", "measurement.simulate_measurements",
    "measurement.h_eval_ac", "measurement.ac_jacobian",
    "estimation.estimate_dc", "estimation.estimate_ac",
    "baddata.largest_normalized_residual", "baddata.chi_square_test",
    "baddata.norm_threshold_test",
    "attack.constrained_stealth_attack", "attack.verify_stealth",
    "attack.protection_check", "attack.random_stealth_attack",
    "attack.craft_stealth_attack",
    "scenarios.load_scenario", "scenarios.run_scenario",
    "scenarios.run_monte_carlo", "scenarios.emit_report",
)
COUNTED_FUNCTIONS = (
    "network.parse_case", "measurement.dc_jacobian",
    "measurement.simulate_measurements", "measurement.h_eval_ac",
    "measurement.ac_jacobian", "estimation.estimate_dc",
    "baddata.largest_normalized_residual", "baddata.chi_square_test",
)


def load_gridse():
    """Import gridse from this checkout's src/; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gridse
    if Path(gridse.__file__).resolve().parent != src / "gridse":
        raise SystemExit(f"gridse imported from {gridse.__file__}, not {src}")
    return gridse


def environment(gridse) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        sha = ref_file.read_text().strip() if ref.startswith("ref: ") \
            and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridse").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gridse": gridse.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def interpreter_kernel():
    """Python loop, small numpy calls on fresh generators, a small SVD."""
    total = 0
    for i in range(50000):
        total += i * i
    for i in range(150):
        a = np.random.default_rng([i, 7]).normal(size=60)
        total += a @ a
    np.linalg.svd(np.random.default_rng(0).normal(size=(100, 100)))


def generator_kernel():
    """Fresh seeded generators drawing single values, and small dense
    solves: the make-up of one Monte Carlo trial on a 30-bus grid."""
    for i in range(250):
        np.random.default_rng([i, 7]).normal(0.0, 0.01)
    a = np.random.default_rng(0).normal(size=(67, 29))
    gain = a.T @ a
    for _ in range(20):
        np.linalg.cond(gain)
        np.linalg.solve(gain, a.T)


def dense_kernel():
    """A dense SVD too large for the caches, like the 1000-bus grid's."""
    np.linalg.svd(np.random.default_rng(0).normal(size=(900, 400)),
                  full_matrices=False)


# name -> (kernel, its time in seconds at reference speed)
KERNELS = {"interpreter": (interpreter_kernel, 0.0125),
           "generator": (generator_kernel, 0.0105),
           "dense": (dense_kernel, 0.09)}


def calibrate(kernel, part_s: float) -> float:
    """Mean kernel time over a gap after a timed part: at least one kernel
    run, and about CALIBRATION_SHARE of the part's time."""
    samples = []
    while not samples or sum(samples) < CALIBRATION_SHARE * part_s:
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.fmean(samples)


class Stopwatch:
    """Times one op in parts. ``lap`` ends a part and runs the calibration
    kernel, untimed, before the next part starts, so an op whose parts take
    seconds is scaled by the machine speed around each part."""

    def __init__(self, kernel, reference_s: float, before: float):
        self.kernel, self.reference_s, self.before = kernel, reference_s, before
        self.wall = self.scaled = 0.0
        self.start = time.perf_counter()

    def lap(self):
        part = time.perf_counter() - self.start
        after = calibrate(self.kernel, part)
        self.wall += part
        self.scaled += part * 2.0 * self.reference_s / (self.before + after)
        self.before = after
        self.start = time.perf_counter()


@dataclass
class Phase:
    """Outcome of one closed-loop stretch of ops.

    ``walls`` are raw wall times of the timed ops; ``scaled`` are the same
    times scaled to reference speed by the calibration gaps around each part
    of the op. The first op of a phase warms caches: it is checked, not timed.
    """

    walls: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    detections: Counter = field(default_factory=Counter)
    next_op: int = 0


def run_ops(workload, seconds: float, first_op: int = 0, tracer=None) -> Phase:
    """Run ops back to back until ``seconds`` have passed (at least one
    timed op after the warm-up op); time each op and check its output."""
    phase = Phase()
    kernel, reference_s = KERNELS[workload.kernel]
    kernel()  # warm-up, discarded
    before = calibrate(kernel, 0.0)
    deadline = time.perf_counter() + seconds
    i = first_op
    while i - first_op < 2 or time.perf_counter() < deadline:
        phase.attempted += 1
        watch = Stopwatch(kernel, reference_s, before)
        try:
            with tracer.op(i) if tracer else nullcontext():
                out = workload.op(i, watch.lap)
                watch.lap()
            if i > first_op:
                phase.walls.append(watch.wall)
                phase.scaled.append(watch.scaled)
            bad = workload.check(i, out)
            workload.tally(i, out, phase.detections)
        except Exception:  # one broken op must not end the run
            bad = [traceback.format_exc()]
        before = watch.before
        phase.kernel_s.append(before)
        if bad:
            phase.failed += 1
            phase.problems += [f"op {i}: {b}" for b in bad]
        i += 1
    phase.next_op = i
    return phase


def tail(walls: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, never below the median."""
    q = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(walls)))
    return q, float(np.percentile(walls, q))


def timing(workload, walls: list) -> tuple[dict, float]:
    q, tail_s = tail(walls)
    return {
        "trials_per_s": (workload.op_trials * len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
    }, q


def end_to_end(workload, phase: Phase, setup_s: float) -> tuple[dict, dict]:
    scaled, q = timing(workload, phase.scaled)
    raw, _ = timing(workload, phase.walls)
    metrics = {"setup_s": (setup_s, "s"), **scaled,
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    detail = {"tail_percentile": q, "samples": len(phase.walls),
              "kernel_ms_median": 1e3 * statistics.median(phase.kernel_s),
              "raw": {name: value for name, (value, _) in raw.items()}}
    return metrics, detail


def observers() -> dict:
    """Counts taken from arguments and results at the span boundary."""
    def matrix(args, kwargs, h):
        return h.shape[0], h.shape[1], int(np.count_nonzero(h))

    def dc_solve(args, kwargs, result):
        m, k = np.shape(args[0])
        return m * k * k + k ** 3

    def ac_solve(args, kwargs, result):
        m, k = len(args[2]), len(result.state)
        return result.iterations, result.iterations * (m * k * k + k ** 3)

    return {
        "network.parse_case": lambda a, kw, r: len(a[0].encode()),
        "measurement.dc_jacobian": matrix,
        "measurement.ac_jacobian": matrix,
        "estimation.estimate_dc": dc_solve,
        "estimation.estimate_ac": ac_solve,
        "baddata.largest_normalized_residual": lambda a, kw, r: len(r.critical_meters),
        "attack.verify_stealth": lambda a, kw, r: bool(r),
    }


def per_layer(workload, tracer, traced: Phase, untraced: Phase) -> dict:
    inclusive, calls, self_time = tracer.summary()
    ops, op_wall = calls[OP], inclusive[OP]
    seen = tracer.observed
    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.ms"] = (1e3 * inclusive.get(name, 0.0) / ops, "ms")
    for name in COUNTED_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "count")
    metrics["network.case_bytes"] = (
        sum(v for _, v in seen["network.parse_case"]) / ops, "bytes")
    shapes = [v for _, v in seen["measurement.dc_jacobian"] + seen["measurement.ac_jacobian"]]
    m, k, nnz = max(shapes) if shapes else (0, 0, 0)
    metrics["measurement.meters"] = (m, "count")
    metrics["measurement.states"] = (k, "count")
    metrics["measurement.h_nnz"] = (nnz, "count")
    ac = [v for _, v in seen["estimation.estimate_ac"]]
    flops = sum(v for _, v in seen["estimation.estimate_dc"]) + sum(f for _, f in ac)
    metrics["estimation.gn_iterations"] = (sum(it for it, _ in ac) / ops, "count")
    metrics["estimation.gain_flops"] = (flops / ops, "flop_computed")
    for method in ("chi_square", "norm_threshold", "lnr"):
        for arm in ("attacked", "clean"):
            hits, total = traced.detections.get((method, arm), (0, 0))
            metrics[f"baddata.detected_ratio.{method}.{arm}"] = (
                float(hits / total) if total else 0.0, "ratio")
    critical = [v for _, v in seen["baddata.largest_normalized_residual"]]
    metrics["baddata.critical_meters"] = (
        sum(critical) / len(critical) if critical else 0.0, "count")
    verified = [v for _, v in seen["attack.verify_stealth"]]
    metrics["attack.stealth_verified_ratio"] = (
        sum(verified) / len(verified) if verified else 0.0, "ratio")
    # Only the Monte Carlo workload calls run_monte_carlo, and all of its
    # trials run inside it.
    mc_ms = 1e3 * inclusive.get("scenarios.run_monte_carlo", 0.0)
    metrics["scenarios.mc_trial_ms"] = (
        mc_ms / (ops * workload.op_trials) if mc_ms else 0.0, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * self_time[layer] / ops, "ms")
        metrics[f"{layer}.self_share"] = (self_time[layer] / op_wall, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.scaled) / statistics.median(untraced.scaled) - 1.0,
        "ratio")
    return metrics


def measure(workload, seconds: float, trace: int, setup_s: float):
    """One run's metrics: end-to-end with tracing off, or per-layer from
    an untraced then a traced stretch of S/2 seconds each."""
    if not trace:
        phase = run_ops(workload, seconds)
        metrics, detail = end_to_end(workload, phase, setup_s)
        return metrics, detail, [phase], None
    untraced = run_ops(workload, seconds / 2)
    tracer = Tracer(observers())
    tracer.install()
    try:
        traced = run_ops(workload, seconds / 2, untraced.next_op, tracer)
    finally:
        tracer.remove()
    metrics = per_layer(workload, tracer, traced, untraced)
    detail = {"untraced_ops": len(untraced.walls), "traced_ops": len(traced.walls),
              "spans": len(tracer.spans)}
    return metrics, detail, [untraced, traced], tracer


def prepare(workload_cls, seed: int) -> tuple[object, float]:
    """The workload, and the set-up time from runner start: interpreter
    imports (numpy, scipy, gridse) plus generating, checking and writing the
    inputs. The answers the output checks compare against are not part of it."""
    workdir = OUT / f"{workload_cls.name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(seed, workdir)
    return workload, time.perf_counter() - RUNNER_START


def import_kernel_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_KERNEL], check=True, timeout=60)
    return time.perf_counter() - start


def fresh_setup_s(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running ``--setup-only``."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gridse = load_gridse()
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload, setup_s = prepare(workload_cls, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    env = environment(gridse)
    env["load_before"] = os.getloadavg()
    raw_setup = [setup_s]
    if args.trace == 0:
        # Each set-up is scaled by an import kernel timed right after it.
        scaled_setup = [setup_s * IMPORT_REFERENCE_S / import_kernel_s()]
        for _ in range(SETUP_REPEATS):
            raw_setup.append(fresh_setup_s(workload.name, args.seed))
            scaled_setup.append(raw_setup[-1] * IMPORT_REFERENCE_S / import_kernel_s())
        setup_s = statistics.median(scaled_setup)

    metrics, detail, phases, tracer = measure(workload, args.seconds, args.trace, setup_s)
    if tracer is not None:
        tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl")
    env["load_after"] = os.getloadavg()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  n_m_k=[workload.n, workload.m, workload.k],
                  setup_raw_s=raw_setup, failed_ratio=failed / attempted,
                  problems=problems[:20])
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"environment": env, "detail": detail, "metrics": values}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    for msg in problems:
        print(msg, file=sys.stderr)
    print(f"environment {json.dumps(env)}")
    print(f"detail {json.dumps({k: v for k, v in detail.items() if k != 'problems'})}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

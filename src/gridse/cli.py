"""Command-line front end.

Subcommands: ``estimate``, ``attack``, ``detect``, ``scenario run``,
``montecarlo``. Exit codes: 0 success, 2 input or parse errors, 3 numerical
errors (unobservable or singular systems), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .attack import apply_attack, craft_stealth_attack
from .baddata import DetectorConfig, run_detector
from .errors import InputError, MalformedDocument, NumericalError
from .estimation import estimate_ac, estimate_dc, weights_from_config
from .measurement import build_meter_model, state_from_free
from .network import parse_case
from .scenarios import emit_report, load_scenario, run_monte_carlo, run_scenario

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise MalformedDocument(f"expected comma-separated numbers, got {text!r}") from exc


def _require_values(parsed, path: str) -> np.ndarray:
    if parsed.values is None:
        raise MalformedDocument(f"{path} carries no measurement values")
    return parsed.values


def _cmd_estimate(args) -> int:
    parsed = parse_case(Path(args.case).read_text())
    z = _require_values(parsed, args.case)
    weights = weights_from_config(parsed.config)
    network = parsed.network
    if args.mode == "dc":
        h = build_meter_model(network, parsed.config).dc_matrix
        result = estimate_dc(h, z, weights)
    else:
        result = estimate_ac(network, z, parsed.config, weights,
                             tol=args.tol, max_iter=args.max_iter)
    state = state_from_free(network, result.state, args.mode)
    print(f"mode: {args.mode}")
    for bus in sorted(state.angles):
        suffix = "  (reference)" if bus == network.reference_bus else ""
        print(f"angle[{bus}] = {_fmt(state.angles[bus])}{suffix}")
    if state.magnitudes is not None:
        for bus in sorted(state.magnitudes):
            print(f"v[{bus}] = {_fmt(state.magnitudes[bus])}")
    print(f"squared_error_raw = {_fmt(result.squared_error_raw)}")
    print(f"objective_weighted = {_fmt(result.objective_weighted)}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {'yes' if result.converged else 'no'}")
    return 0 if result.converged else EXIT_NO_CONVERGENCE


def _cmd_attack(args) -> int:
    parsed = parse_case(Path(args.case).read_text())
    z = _require_values(parsed, args.case)
    h = build_meter_model(parsed.network, parsed.config).dc_matrix
    a = craft_stealth_attack(h, _vector(args.shift))
    z_a = apply_attack(z, a)
    print("a   = " + " ".join(_fmt(v) for v in a))
    print("z_a = " + " ".join(_fmt(v) for v in z_a))
    return 0


def _cmd_detect(args) -> int:
    parsed = parse_case(Path(args.case).read_text())
    z = _vector(args.z)
    config = parsed.config
    if len(z) != len(config):
        raise MalformedDocument(
            f"--z carries {len(z)} readings for {len(config)} meters"
        )
    weights = weights_from_config(config)
    h = build_meter_model(parsed.network, config).dc_matrix
    detector = DetectorConfig(
        method=args.method,
        tau=args.tau,
        alpha=args.alpha,
        lnr_threshold=args.lnr_threshold,
    )
    result = estimate_dc(h, z, weights)
    verdict = run_detector(detector, h, z, weights, result)
    print(f"method = {verdict.method}")
    print(f"statistic = {_fmt(verdict.statistic)}")
    print(f"threshold = {_fmt(verdict.threshold_used)}")
    print(f"detected = {'yes' if verdict.detected else 'no'}")
    if verdict.suspect_meter is not None:
        tag = " (ambiguous)" if verdict.ambiguous else ""
        print(f"suspect_meter = {verdict.suspect_meter}{tag}")
    if verdict.critical_meters:
        print("critical_meters = "
              + ",".join(str(i) for i in verdict.critical_meters))
    return 0


def _cmd_scenario_run(args) -> int:
    report = run_scenario(load_scenario(args.file))
    print(emit_report(report, format=args.format), end="")
    return 0 if report.converged else EXIT_NO_CONVERGENCE


def _cmd_montecarlo(args) -> int:
    stats = run_monte_carlo(
        args.case,
        trials=args.trials,
        noise_seed_base=args.seed,
        attack=args.attack,
        magnitude=args.magnitude,
    )
    print(emit_report(stats, format=args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridse",
        description="State estimation, bad-data detection, and stealth "
                    "measurement-attack analysis for small power networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the state from a case file")
    p.add_argument("--case", required=True, help="case file path")
    p.add_argument("--mode", choices=("dc", "ac"), default="dc")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("attack", help="craft a stealth attack from a state shift")
    p.add_argument("--case", required=True)
    p.add_argument("--shift", required=True,
                   help="comma-separated state shift c, one value per "
                        "non-reference bus")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("detect", help="run a bad-data detector on readings")
    p.add_argument("--case", required=True)
    p.add_argument("--z", required=True, help="comma-separated meter readings")
    p.add_argument("--method", choices=("chi_square", "norm_threshold", "lnr"),
                   default="chi_square")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lnr-threshold", type=float, default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("scenario", help="scenario file operations")
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)
    p = scenario_sub.add_parser("run", help="run one scenario file")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=_cmd_scenario_run)

    p = sub.add_parser("montecarlo", help="seeded detection-rate experiment")
    p.add_argument("--case", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--attack", choices=("stealth", "none"), default="none")
    p.add_argument("--magnitude", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

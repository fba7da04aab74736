"""End-to-end scenario runs, Monte Carlo experiments, and report emission.

A scenario file is a JSON object with the keys ``name``, ``case``,
``measurements``, ``attack``, ``detectors``, ``mode`` (unknown keys are
rejected; only ``name`` and ``case`` are required):

    {
      "name": "stealth-small",
      "case": "three_bus.json",
      "measurements": {"source": "case"},
      "attack": {"type": "stealth_shift", "c": [0.005, 0.001]},
      "detectors": [{"method": "chi_square", "alpha": 0.05}],
      "mode": "dc"
    }

``measurements`` is one of ``{"source": "case"}`` (use the readings stored in
the case file), ``{"values": [...]}`` (explicit readings), or
``{"simulate": {"angles": {...}, "magnitudes": {...}, "seed": 0,
"noise_scale": 1.0}}`` (synthesize from a true state). ``attack`` is one of
``none``, ``explicit_deltas`` (key ``deltas``, or ``replacement`` holding the
raw substituted readings), ``stealth_shift`` (key ``c``), ``random_stealth``
(``magnitude``, ``seed``), or ``constrained`` (``accessible``, optional
``magnitude``). Every number must be finite, and seeds and meter numbers
are integers. Relative case paths resolve against the scenario file's
directory. Defaults: no attack, case-file readings, dc mode, one chi-square
detector at alpha 0.05.

Reports render as a fixed-width table (columns: Case, False Data Injection
Attack, State Variables, Squared Error, Bad Data Detection, followed by
per-detector detail lines) or as one JSON object with stable keys; floats
are printed with 6 significant digits in both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .attack import (
    apply_attack,
    constrained_stealth_attack,
    craft_stealth_attack,
    random_stealth_attack,
)
from .baddata import DetectionResult, DetectorConfig, run_detector
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
)
from .estimation import estimate_ac, estimate_dc, factor_gain, weights_from_config
from .measurement import (
    MeterModel,
    StateVector,
    _simulate,
    _with_noise,
    build_meter_model,
    dc_jacobian,
    state_dimension,
)
from .network import (
    ParsedCase,
    _check_keys,
    _finite_number,
    _reject_constant,
    _require_int,
    _require_number,
    build_admittance,
    parse_case,
)

_SCENARIO_KEYS = {"name", "case", "measurements", "attack", "detectors", "mode"}
_ATTACK_KEYS = {
    "none": set(),
    "explicit_deltas": {"deltas", "replacement"},
    "stealth_shift": {"c"},
    "random_stealth": {"magnitude", "seed"},
    "constrained": {"accessible", "magnitude"},
}
_MEASUREMENT_KEYS = {"source", "values", "simulate"}
_SIMULATE_KEYS = {"angles", "magnitudes", "seed", "noise_scale"}
_DETECTOR_KEYS = {"method", "tau", "alpha", "lnr_threshold"}


@dataclass(frozen=True)
class Scenario:
    """One validated scenario: where the readings come from, what corruption
    is applied, and which detectors judge the outcome."""

    name: str
    case_path: Path
    mode: str = "dc"
    measurements: dict = None
    attack: dict = None
    detectors: tuple[DetectorConfig, ...] = ()

    def __post_init__(self):
        if self.measurements is None:
            object.__setattr__(self, "measurements", {"source": "case"})
        if self.attack is None:
            object.__setattr__(self, "attack", {"type": "none"})
        if not self.detectors:
            object.__setattr__(self, "detectors",
                               (DetectorConfig(method="chi_square"),))


@dataclass(frozen=True)
class ScenarioReport:
    """One row of the comparison table plus per-detector details."""

    name: str
    attacked: bool
    state: tuple[float, ...]
    squared_error_raw: float
    objective_weighted: float
    verdicts: tuple[DetectionResult, ...]
    converged: bool = True

    def as_dict(self) -> dict:
        """The machine rendering, floats rounded to 6 significant digits."""
        return {
            "name": self.name,
            "attacked": self.attacked,
            "state": [_round6(v) for v in self.state],
            "squared_error_raw": _round6(self.squared_error_raw),
            "objective_weighted": _round6(self.objective_weighted),
            "verdicts": [
                {
                    "method": v.method,
                    "detected": v.detected,
                    "statistic": _round6(v.statistic),
                    "threshold": _round6(v.threshold_used),
                }
                for v in self.verdicts
            ],
        }


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregate detection behaviour over independent seeded trials.

    The unattacked arm reuses the attacked arm's noise seeds, so its
    false-alarm rate is directly comparable. Per-trial statistics are kept
    for auditing but stay out of the rendered reports.
    """

    trials: int
    detection_rate: float
    false_alarm_rate: float
    mean_statistic: float
    interval_low: float
    interval_high: float
    attacked_statistics: tuple[float, ...] = ()
    unattacked_statistics: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "detection_rate": _round6(self.detection_rate),
            "false_alarm_rate": _round6(self.false_alarm_rate),
            "mean_statistic": _round6(self.mean_statistic),
            "interval_low": _round6(self.interval_low),
            "interval_high": _round6(self.interval_high),
        }


def _round6(x: float) -> float:
    return float(f"{float(x):.6g}")


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _number_list(value, context: str) -> list[float]:
    numbers = [_finite_number(v) for v in value] if isinstance(value, list) else [None]
    if None in numbers:
        raise MalformedDocument(f"{context}: expected an array of finite numbers")
    return numbers


def _validate_measurements(spec, context: str) -> dict:
    _check_keys(spec, _MEASUREMENT_KEYS, set(), context)
    if len(spec) != 1:
        raise MalformedDocument(
            f"{context}: exactly one of {sorted(_MEASUREMENT_KEYS)} is required"
        )
    if "source" in spec:
        if spec["source"] != "case":
            raise MalformedDocument(f"{context}: the only source is 'case'")
    elif "values" in spec:
        _number_list(spec["values"], context)
    else:
        sim = spec["simulate"]
        context = f"{context}.simulate"
        _check_keys(sim, _SIMULATE_KEYS, {"angles", "seed"}, context)
        _require_int(sim, "seed", context)
        if "noise_scale" in sim:
            _require_number(sim, "noise_scale", context)
        for key in ("angles", "magnitudes"):
            table = sim.get(key, {})
            if not isinstance(table, dict) or not all(b.isdigit() for b in table):
                raise MalformedDocument(f"{context}: {key!r} must map bus -> number")
            for bus in table:
                _require_number(table, bus, f"{context}.{key}")
    return spec


def _validate_attack(spec, context: str) -> dict:
    if not isinstance(spec, dict) or "type" not in spec:
        raise MalformedDocument(f"{context}: attack needs a 'type'")
    kind = spec["type"]
    if kind not in _ATTACK_KEYS:
        raise MalformedDocument(f"{context}: unknown attack type {kind!r}")
    _check_keys(spec, _ATTACK_KEYS[kind] | {"type"}, {"type"}, context)
    if kind == "explicit_deltas":
        present = [k for k in ("deltas", "replacement") if k in spec]
        if len(present) != 1:
            raise MalformedDocument(
                f"{context}: explicit_deltas needs 'deltas' or 'replacement'"
            )
        _number_list(spec[present[0]], context)
    elif kind == "stealth_shift":
        if "c" not in spec:
            raise MalformedDocument(f"{context}: stealth_shift needs 'c'")
        _number_list(spec["c"], context)
    elif kind == "random_stealth":
        if "magnitude" not in spec or "seed" not in spec:
            raise MalformedDocument(
                f"{context}: random_stealth needs 'magnitude' and 'seed'"
            )
        _require_number(spec, "magnitude", context)
        _require_int(spec, "seed", context)
    elif kind == "constrained":
        accessible = spec.get("accessible")
        if not isinstance(accessible, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in accessible
        ):
            raise MalformedDocument(
                f"{context}: constrained needs 'accessible', an array of meter numbers"
            )
        if "magnitude" in spec:
            _require_number(spec, "magnitude", context)
    return spec


def _detector_from_dict(record, context: str) -> DetectorConfig:
    _check_keys(record, _DETECTOR_KEYS, {"method"}, context)
    for key in ("tau", "alpha", "lnr_threshold"):
        if key in record:
            _require_number(record, key, context)
    return DetectorConfig(
        method=record["method"],
        tau=record.get("tau"),
        alpha=record.get("alpha"),
        lnr_threshold=record.get("lnr_threshold"),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: invalid JSON: {exc}") from exc
    _check_keys(doc, _SCENARIO_KEYS, {"name", "case"}, str(path))
    if not isinstance(doc["name"], str) or not isinstance(doc["case"], str):
        raise MalformedDocument(f"{path}: 'name' and 'case' must be strings")
    mode = doc.get("mode", "dc")
    if mode not in ("dc", "ac"):
        raise MalformedDocument(f"{path}: mode must be 'dc' or 'ac'")
    case_path = Path(doc["case"])
    if not case_path.is_absolute():
        case_path = path.parent / case_path
    if not isinstance(doc.get("detectors", []), list):
        raise MalformedDocument(f"{path}: 'detectors' must be an array")
    detectors = tuple(
        _detector_from_dict(d, f"{path}: detectors[{i}]")
        for i, d in enumerate(doc.get("detectors", []))
    )
    return Scenario(
        name=doc["name"],
        case_path=case_path,
        mode=mode,
        measurements=_validate_measurements(
            doc.get("measurements", {"source": "case"}), f"{path}: measurements"
        ),
        attack=_validate_attack(doc.get("attack", {"type": "none"}),
                                f"{path}: attack"),
        detectors=detectors,
    )


def _scenario_readings(scenario: Scenario, parsed: ParsedCase,
                       model: MeterModel) -> np.ndarray:
    spec = scenario.measurements
    m = len(parsed.config)
    if "source" in spec:
        if parsed.values is None:
            raise MalformedDocument(
                f"{scenario.name}: case file carries no measurement values"
            )
        return parsed.values
    if "values" in spec:
        z = np.array(spec["values"], dtype=float)
        if z.shape != (m,):
            raise LengthMismatch(
                f"{scenario.name}: {len(z)} readings for {m} meters"
            )
        return z
    sim = spec["simulate"]
    angles = {int(k): float(v) for k, v in sim["angles"].items()}
    mags = None
    if "magnitudes" in sim:
        mags = {int(k): float(v) for k, v in sim["magnitudes"].items()}
    state = StateVector(angles=angles, magnitudes=mags)
    return _simulate(model, state, scenario.mode, int(sim["seed"]),
                     float(sim.get("noise_scale", 1.0)))


def _scenario_attack_vector(scenario: Scenario, model: MeterModel,
                            z: np.ndarray) -> np.ndarray | None:
    spec = scenario.attack
    kind = spec["type"]
    if kind == "none":
        return None
    m = len(model.config)
    if kind == "explicit_deltas":
        if "deltas" in spec:
            a = np.array(spec["deltas"], dtype=float)
        else:
            replacement = np.array(spec["replacement"], dtype=float)
            if replacement.shape != z.shape:
                raise LengthMismatch(
                    f"{scenario.name}: replacement length {len(replacement)}"
                    f" for {m} meters"
                )
            a = replacement - z
        if a.shape != (m,):
            raise LengthMismatch(
                f"{scenario.name}: attack length {len(a)} for {m} meters"
            )
        return a
    # The remaining attack families are defined against the linear model.
    h = model.dc_matrix
    if kind == "stealth_shift":
        c = np.array(spec["c"], dtype=float)
        if c.shape != (h.shape[1],):
            raise DimensionMismatch(
                f"{scenario.name}: shift length {len(c)} for "
                f"{h.shape[1]} state variables"
            )
        return craft_stealth_attack(h, c)
    if kind == "random_stealth":
        _, a = random_stealth_attack(h, float(spec["magnitude"]),
                                     int(spec["seed"]))
        return a
    found = constrained_stealth_attack(
        h, [int(i) for i in spec["accessible"]],
        float(spec.get("magnitude", 0.01))
    )
    return None if found is None else found[1]


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Build readings, apply the attack, estimate, and run every detector.

    One meter model serves the readings, the attack and the detectors.
    Deterministic given the scenario content. A constrained attack with no
    feasible direction degrades to an unattacked run (reported as such).
    """
    parsed = parse_case(Path(scenario.case_path).read_text())
    network, config = parsed.network, parsed.config
    weights = weights_from_config(config)
    model = build_meter_model(network, config)

    z = _scenario_readings(scenario, parsed, model)
    a = _scenario_attack_vector(scenario, model, z)
    z_final = apply_attack(z, a) if a is not None else z

    state_dim = state_dimension(network, scenario.mode)
    if scenario.mode == "dc":
        h_detect = model.dc_matrix
        result = estimate_dc(h_detect, z_final, weights)
    else:
        result = estimate_ac(network, build_admittance(network), z_final,
                             config, weights)
        h_detect = model.jacobian(result.state)

    verdicts = tuple(
        run_detector(d, h_detect, z_final, weights, result, state_dim)
        for d in scenario.detectors
    )
    return ScenarioReport(
        name=scenario.name,
        attacked=a is not None,
        state=tuple(float(v) for v in result.state),
        squared_error_raw=result.squared_error_raw,
        objective_weighted=result.objective_weighted,
        verdicts=verdicts,
        converged=result.converged,
    )


def run_monte_carlo(case_path: str | Path, *, trials: int,
                    noise_seed_base: int = 0, attack: str = "none",
                    magnitude: float = 0.01,
                    detector: DetectorConfig | None = None,
                    noise_scale: float = 1.0) -> MonteCarloStats:
    """Seeded detection-rate experiment on the linear model.

    Trial t draws meter noise with seed ``noise_seed_base + t``, optionally
    adds a random stealth attack of the given magnitude (same per-trial
    seed), estimates, and runs the detector. The unattacked arm always runs
    on the same noisy readings, so with ``attack="stealth"`` the two arms
    differ only by the added Hc. H, its gain factor and the noiseless
    readings are computed once per call; each trial adds its own noise to
    them and estimates through that one factor, which the lnr detector
    reuses. Serial and deterministic; trials are independent, so any
    parallel split over t aggregates identically.
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    if attack not in ("none", "stealth"):
        raise MalformedDocument(f"unknown attack arm {attack!r}")
    detector = detector or DetectorConfig(method="chi_square")

    parsed = parse_case(Path(case_path).read_text())
    network, config = parsed.network, parsed.config
    admittance = build_admittance(network)
    weights = weights_from_config(config)
    h = dc_jacobian(network, admittance, config)
    k = state_dimension(network, "dc")

    if parsed.values is not None:
        truth = estimate_dc(h, parsed.values, weights)
        factor, truth_free = truth.factor, truth.state
    else:
        factor, truth_free = factor_gain(h, weights), np.zeros(k)
    clean = h @ truth_free
    sigmas = config.sigmas()

    base_detected = 0
    attack_detected = 0
    base_stats = []
    attack_stats = []
    for t in range(trials):
        seed = noise_seed_base + t
        z = _with_noise(clean, sigmas, seed, noise_scale)
        base = run_detector(detector, h, z, weights, factor.estimate(z), k)
        base_detected += base.detected
        base_stats.append(base.statistic)
        if attack == "stealth":
            _, a = random_stealth_attack(h, magnitude, seed)
            z_a = apply_attack(z, a)
            hit = run_detector(detector, h, z_a, weights,
                               factor.estimate(z_a), k)
        else:
            hit = base
        attack_detected += hit.detected
        attack_stats.append(hit.statistic)

    rate = attack_detected / trials
    half_width = 1.96 * float(np.sqrt(rate * (1.0 - rate) / trials))
    return MonteCarloStats(
        trials=trials,
        detection_rate=rate,
        false_alarm_rate=base_detected / trials,
        mean_statistic=float(np.mean(attack_stats)),
        interval_low=max(0.0, rate - half_width),
        interval_high=min(1.0, rate + half_width),
        attacked_statistics=tuple(attack_stats),
        unattacked_statistics=tuple(base_stats),
    )


_TABLE_COLUMNS = ("Case", "False Data Injection Attack", "State Variables",
                  "Squared Error", "Bad Data Detection")


def _scenario_rows(reports: Sequence[ScenarioReport]) -> list[tuple[str, ...]]:
    rows = []
    for rep in reports:
        verdict = " / ".join(
            "Detected" if v.detected else "Not Detected" for v in rep.verdicts
        )
        rows.append((
            rep.name,
            "Yes" if rep.attacked else "No",
            " ".join(_fmt(v) for v in rep.state),
            _fmt(rep.squared_error_raw),
            verdict,
        ))
    return rows


def _render_table(reports: Sequence[ScenarioReport]) -> str:
    rows = _scenario_rows(reports)
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(_TABLE_COLUMNS)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(_TABLE_COLUMNS), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    for rep in reports:
        for v in rep.verdicts:
            out.append(
                f"  {rep.name}: {v.method} statistic={_fmt(v.statistic)} "
                f"threshold={_fmt(v.threshold_used)} -> "
                f"{'Detected' if v.detected else 'Not Detected'}"
            )
    return "\n".join(out) + "\n"


def _render_monte_carlo(stats: MonteCarloStats) -> str:
    pairs = stats.as_dict()
    width = max(len(k) for k in pairs)
    return "".join(f"{k.ljust(width)}  {_fmt(v) if isinstance(v, float) else v}\n"
                   for k, v in pairs.items())


def emit_report(report, format: str = "table") -> str:
    """Render a scenario report, a sequence of them, or Monte Carlo stats.

    ``table`` is the fixed-width human layout; ``machine`` is a single JSON
    object with stable keys. Identical inputs give byte-identical output.
    """
    if format not in ("table", "machine"):
        raise InvalidArgument(f"format must be 'table' or 'machine', got {format!r}")
    if isinstance(report, MonteCarloStats):
        if format == "machine":
            return json.dumps(report.as_dict()) + "\n"
        return _render_monte_carlo(report)
    reports = [report] if isinstance(report, ScenarioReport) else list(report)
    if format == "machine":
        if len(reports) == 1 and isinstance(report, ScenarioReport):
            return json.dumps(reports[0].as_dict()) + "\n"
        return json.dumps({"scenarios": [r.as_dict() for r in reports]}) + "\n"
    return _render_table(reports)

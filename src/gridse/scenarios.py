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
``magnitude``). Every number must be finite, seeds are non-negative
integers and meter numbers are integers; the keys of ``angles`` and
``magnitudes`` are ASCII decimal bus numbers, no two naming the same bus
(so not both "2" and "02"). Relative case paths resolve against the
scenario file's directory. Defaults: no attack, case-file readings, dc
mode, one chi-square detector at alpha 0.05. A :class:`Scenario` checks all
of this itself, also when built in code. ``stealth_shift``,
``random_stealth`` and ``constrained`` build a = Hc from the linear H and
are dc-only: in ac mode Hc is not invisible to the nonlinear estimator, so
an ac scenario with one of them is rejected.

Reports render as a fixed-width table (columns: Case, False Data Injection
Attack, State Variables, Squared Error, Bad Data Detection, followed by
per-detector detail lines) or as one JSON object with stable keys; floats
are printed with 6 significant digits in both, and one that is not finite
is inf in the table and null in the JSON, which stays RFC 8259 JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._streams import _meter_noise
from .attack import (
    DEFAULT_MAGNITUDE,
    _finite_image,
    _stealth_shifts,
    apply_attack,
    constrained_stealth_attack,
    craft_stealth_attack,
    random_stealth_attack,
)
from .baddata import DetectionResult, DetectorConfig, _resolve, run_detector
from .errors import (
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
    _array,
    _check_keys,
    _count,
    _decode_json,
    _instance,
    _read_text,
    _real,
)
from .estimation import estimate_ac, estimate_dc, factor_gain, weights_from_config
from .measurement import (
    MeterModel,
    StateVector,
    build_meter_model,
    simulate_measurements,
)
from .network import ParsedCase, _read_case

_SCENARIO_KEYS = {"name", "case", "measurements", "attack", "detectors", "mode"}
_MEASUREMENT_KEYS = {"source", "values", "simulate"}
_SIMULATE_KEYS = {"angles", "magnitudes", "seed", "noise_scale"}
_DETECTOR_KEYS = {"method", "tau", "alpha", "lnr_threshold"}


@dataclass(frozen=True)
class Scenario:
    """One scenario: where the readings come from, what corruption is applied
    and which detectors judge the outcome. Construction checks every field
    (MalformedDocument); empty ``detectors`` means one chi-square detector."""

    name: str
    case_path: Path
    mode: str = "dc"
    measurements: dict = field(default_factory=lambda: {"source": "case"})
    attack: dict = field(default_factory=lambda: {"type": "none"})
    detectors: tuple[DetectorConfig, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(
                self.case_path, (str, os.PathLike)):
            raise MalformedDocument("name must be a string and case_path a path")
        if self.mode not in ("dc", "ac"):
            raise MalformedDocument(f"mode must be 'dc' or 'ac', got {self.mode!r}")
        _validate_measurements(self.measurements, "measurements")
        _validate_attack(self.attack, "attack")
        if self.mode == "ac" and self.attack["type"] in _LINEAR_ATTACKS:
            raise MalformedDocument(f"attack: {self.attack['type']} is dc-only")
        if not isinstance(self.detectors, (tuple, list)) or not all(
                isinstance(d, DetectorConfig) for d in self.detectors):
            raise MalformedDocument("detectors must be DetectorConfig objects")
        object.__setattr__(self, "detectors", tuple(self.detectors)
                           or (DetectorConfig(method="chi_square"),))


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
        """The machine rendering, floats rounded to 6 significant digits and
        a non-finite one (an overflowed residual or statistic) as None."""
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
                    "suspect_meter": v.suspect_meter,
                    "ambiguous": v.ambiguous,
                    "critical_meters": list(v.critical_meters),
                }
                for v in self.verdicts
            ],
            "converged": self.converged,
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
        """The machine rendering, floats rounded to 6 significant digits and
        a non-finite one (a mean statistic that overflowed) as None."""
        return {
            "trials": self.trials,
            "detection_rate": _round6(self.detection_rate),
            "false_alarm_rate": _round6(self.false_alarm_rate),
            "mean_statistic": _round6(self.mean_statistic),
            "interval_low": _round6(self.interval_low),
            "interval_high": _round6(self.interval_high),
        }


def _round6(x: float) -> float | None:
    """x to 6 significant digits; None, JSON's null, if it is not finite."""
    x = float(x)
    return float(f"{x:.6g}") if math.isfinite(x) else None


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


# Each attack family's keys besides "type": (required, optional).
_ATTACKS = {
    "none": (set(), set()),
    "explicit_deltas": (set(), {"deltas", "replacement"}),
    "stealth_shift": ({"c"}, set()),
    "random_stealth": ({"magnitude", "seed"}, set()),
    "constrained": ({"accessible"}, {"magnitude"}),
}
# The families built as a = Hc from the linear meter matrix: dc-only.
_LINEAR_ATTACKS = {"stealth_shift", "random_stealth", "constrained"}


# How each attack value is checked, in this order: a one-item list holds
# the check of every entry of an array.
_ATTACK_VALUES = {"deltas": [_real], "replacement": [_real], "c": [_real],
                  "magnitude": _real, "seed": _count, "accessible": [_count]}


def _check_field(record: dict, key: str, context: str, check):
    """Check record[key] with ``check``, or each of its entries with
    ``check[0]``; the MalformedDocument raised names the field."""
    name, value = f"{context}: field {key!r}", record[key]
    if not isinstance(check, list):
        check(value, name, error=MalformedDocument)
    elif not isinstance(value, list):
        raise MalformedDocument(f"{name} must be an array")
    else:
        name = f"an entry of {name}"
        for entry in value:
            check[0](entry, name, error=MalformedDocument)


def _validate_measurements(spec, context: str):
    _check_keys(spec, _MEASUREMENT_KEYS, set(), context)
    if len(spec) != 1:
        raise MalformedDocument(
            f"{context}: exactly one of {sorted(_MEASUREMENT_KEYS)} is required"
        )
    if "source" in spec:
        if spec["source"] != "case":
            raise MalformedDocument(f"{context}: the only source is 'case'")
    elif "values" in spec:
        _check_field(spec, "values", context, [_real])
    else:
        sim = spec["simulate"]
        context = f"{context}.simulate"
        _check_keys(sim, _SIMULATE_KEYS, {"angles", "seed"}, context)
        _check_field(sim, "seed", context, _count)
        if "noise_scale" in sim:
            _check_field(sim, "noise_scale", context, _real)
        for key in ("angles", "magnitudes"):
            table = sim.get(key, {})
            if not isinstance(table, dict) or not all(
                isinstance(b, str) and b.isascii() and b.isdigit() for b in table
            ):
                raise MalformedDocument(f"{context}: {key!r} must map bus -> number")
            try:
                buses = {int(b) for b in table}
            except ValueError:  # more digits than int() converts
                raise MalformedDocument(
                    f"{context}: {key!r} names a bus too long to read") from None
            if len(buses) < len(table):
                raise MalformedDocument(f"{context}: {key!r} names a bus twice")
            for bus in table:
                _check_field(table, bus, f"{context}.{key}", _real)


def _validate_attack(spec, context: str):
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _ATTACKS:
        raise MalformedDocument(
            f"{context}: 'type' must be one of {sorted(_ATTACKS)}, got {kind!r}"
        )
    required, optional = _ATTACKS[kind]
    _check_keys(spec, required | optional | {"type"}, required | {"type"}, context)
    if kind == "explicit_deltas" and len(spec) != 2:
        raise MalformedDocument(
            f"{context}: explicit_deltas needs 'deltas' or 'replacement'")
    for key, check in _ATTACK_VALUES.items():
        if key in spec:
            _check_field(spec, key, context, check)


def _detector_from_dict(record, context: str) -> DetectorConfig:
    _check_keys(record, _DETECTOR_KEYS, {"method"}, context)
    return DetectorConfig(**record)


def load_scenario(path: str | Path) -> Scenario:
    """Read one scenario file into a :class:`Scenario`, which checks it. A
    relative ``case`` resolves against the file's directory; every
    MalformedDocument raised here names the file."""
    text, path = _read_text(path), Path(path)
    try:
        doc = _decode_json(text)
        _check_keys(doc, _SCENARIO_KEYS, {"name", "case"}, "scenario document")
        if not isinstance(doc["name"], str) or not isinstance(doc["case"], str):
            raise MalformedDocument("'name' and 'case' must be strings")
        fields = {k: doc[k] for k in ("mode", "measurements", "attack") if k in doc}
        if "detectors" in doc:
            if not isinstance(doc["detectors"], list):
                raise MalformedDocument("'detectors' must be an array")
            fields["detectors"] = tuple(
                _detector_from_dict(d, f"detectors[{i}]")
                for i, d in enumerate(doc["detectors"])
            )
        return Scenario(name=doc["name"], case_path=path.parent / doc["case"],
                        **fields)
    except MalformedDocument as exc:
        raise MalformedDocument(f"{path}: {exc}") from exc


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
        return _array(spec["values"], f"{scenario.name}: readings", (m,),
                      error=LengthMismatch)
    sim = spec["simulate"]
    angles = {int(k): v for k, v in sim["angles"].items()}
    mags = None
    if "magnitudes" in sim:
        mags = {int(k): v for k, v in sim["magnitudes"].items()}
    state = StateVector(angles=angles, magnitudes=mags)
    return simulate_measurements(model, state, scenario.mode, sim["seed"],
                                 sim.get("noise_scale", 1.0))


def _scenario_attack_vector(scenario: Scenario, model: MeterModel,
                            z: np.ndarray) -> np.ndarray | None:
    spec = scenario.attack
    kind = spec["type"]
    if kind == "none":
        return None
    m = len(model.config)
    if kind == "explicit_deltas":
        # z has one reading per meter, so a replacement of that length gives
        # deltas of that length too.
        a = _array(spec.get("deltas", spec.get("replacement")),
                   f"{scenario.name}: attack", (m,), error=LengthMismatch)
        return a if "deltas" in spec else a - z
    # The remaining attack families are defined against the linear model.
    h = model.dc_matrix
    if kind == "stealth_shift":
        return craft_stealth_attack(h, spec["c"])
    if kind == "random_stealth":
        _, a = random_stealth_attack(h, spec["magnitude"], spec["seed"])
        return a
    found = constrained_stealth_attack(
        h, spec["accessible"], spec.get("magnitude", DEFAULT_MAGNITUDE))
    return None if found is None else found[1]


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Build readings, apply the attack, estimate, and run every detector.

    The case's meter model is built once and passed to
    ``simulate_measurements`` for simulated readings, to the attack and to
    ``estimate_dc`` (its H) or ``estimate_ac`` (each iterate); the
    estimate's gain factor, for ac the gain at the estimated state, serves
    every detector. Deterministic given the scenario content. A constrained
    attack with no feasible direction degrades to an unattacked run
    (reported as such).
    """
    parsed = _read_case(scenario.case_path)
    network, config = parsed.network, parsed.config
    weights = weights_from_config(config)
    model = build_meter_model(network, config)

    z = _scenario_readings(scenario, parsed, model)
    a = _scenario_attack_vector(scenario, model, z)
    z_final = apply_attack(z, a) if a is not None else z

    if scenario.mode == "dc":
        result = estimate_dc(model.dc_matrix, z_final, weights)
    else:
        result = estimate_ac(model, z_final, weights)

    verdicts = tuple(run_detector(d, result) for d in scenario.detectors)
    return ScenarioReport(
        name=scenario.name,
        attacked=a is not None,
        state=tuple(float(v) for v in result.state),
        squared_error_raw=result.squared_error_raw,
        objective_weighted=result.objective_weighted,
        verdicts=verdicts,
        converged=result.converged,
    )


# At most this many meter-noise draws are made at once in run_monte_carlo.
_NOISE_BLOCK_DRAWS = 1 << 16


def run_monte_carlo(case_path: str | Path, *, trials: int,
                    noise_seed_base: int = 0, attack: str = "none",
                    magnitude: float = DEFAULT_MAGNITUDE,
                    detector: DetectorConfig | None = None,
                    noise_scale: float = 1.0) -> MonteCarloStats:
    """Seeded detection-rate experiment on the linear model.

    Trial t draws meter noise with seed ``noise_seed_base + t``, optionally
    adds a random stealth attack of the given magnitude (same per-trial
    seed), estimates, and runs the detector. The unattacked arm always runs
    on the same noisy readings, so with ``attack="stealth"`` the two arms
    differ only by the added Hc. H, its gain factor and the noiseless
    readings are computed once per call; each trial adds its own noise to
    them and estimates through that one factor. The detector is resolved
    once per call too: its threshold and, for LNR, the factor's Omega
    terms, with NoRedundancy or NumericallySingularOmega raised before any
    noise is drawn. A trial then runs the arithmetic of
    ``GainFactor.estimate`` and of ``run_detector``, which the public tests
    call, shared with them and so bit for bit theirs, but builds no
    EstimationResult or DetectionResult: it keeps the statistic and
    compares it with the threshold. One np.errstate covers a whole block
    of trials. Serial and deterministic; trials are independent, so any
    parallel split over t aggregates identically.

    Trial t reads exactly what ``simulate_measurements`` gives for seed
    ``noise_seed_base + t`` at the state estimated from the case's readings
    (the flat state when it has none): meter i's noise
    is ``np.random.default_rng([noise_seed_base + t, i]).normal(0.0,
    sigma_i * noise_scale)`` bit for bit. Under NEP 19 numpy keeps that
    stream's seeding stable. The noise of a block of trials is seeded and
    drawn in one vectorized pass, as ``simulate_measurements`` draws it,
    instead of one ``default_rng`` per draw.

    Trial t's stealth shift is the c of ``random_stealth_attack(H,
    magnitude, noise_seed_base + t)`` bit for bit. The stealth directions
    of a block are seeded in one pass too, and numpy draws each from one
    reused generator.

    A ``trials`` that is not an integer >= 1, a ``noise_seed_base`` that is
    not a non-negative integer, a ``magnitude`` that is not a positive
    finite number (on either arm), a ``noise_scale`` that is not a
    non-negative finite number (a bool is neither, and an int too large for
    a float is not finite) or a ``detector`` that is not a DetectorConfig
    raises InvalidArgument before the case is read, and a sigma times
    ``noise_scale``, readings, readings with Hc added or a residual too
    large for a float raise it too, unwarned.
    """
    trials = _count(trials, "trials")
    if not trials:
        raise InvalidArgument("trials must be at least 1")
    noise_seed_base = _count(noise_seed_base, "noise_seed_base")
    magnitude = _real(magnitude, "magnitude", 0.0)
    noise_scale = _real(noise_scale, "noise_scale", 0.0, include_low=True)
    if attack not in ("none", "stealth"):
        raise MalformedDocument(f"unknown attack arm {attack!r}")
    if detector is None:
        detector = DetectorConfig(method="chi_square")
    _instance(detector, DetectorConfig, "detector")

    parsed = _read_case(case_path)
    network, config = parsed.network, parsed.config
    weights = weights_from_config(config)
    h = build_meter_model(network, config).dc_matrix

    if parsed.values is not None:
        truth = estimate_dc(h, parsed.values, weights)
        factor, truth_free = truth.factor, truth.state
    else:
        factor, truth_free = factor_gain(h, weights), np.zeros(h.shape[1])
    clean = h @ truth_free

    with np.errstate(over="ignore"):
        scales = _array(config.sigmas() * noise_scale, "sigma * noise_scale",
                        finite=True)
    statistic, threshold = _resolve(detector, factor)
    base_stats = []
    attack_stats = []
    block = max(1, _NOISE_BLOCK_DRAWS // len(scales))
    for start in range(0, trials, block):
        seeds = range(noise_seed_base + start,
                      noise_seed_base + min(trials, start + block))
        shifts = (_stealth_shifts(seeds, h.shape[1], magnitude)
                  if attack == "stealth" else None)
        with np.errstate(over="ignore", invalid="ignore"):
            readings = _array(clean + _meter_noise(seeds, scales),
                              "simulated readings", finite=True)
            for t, z in enumerate(readings):
                value = statistic(factor._fit(z)[1])
                base_stats.append(value)
                if shifts is not None:
                    z = _finite_image(z + h @ shifts[t])
                    value = statistic(factor._fit(z)[1])
                attack_stats.append(value)

    base_detected = sum(s > threshold for s in base_stats)
    attack_detected = sum(s > threshold for s in attack_stats)
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
    # the machine report's keys, each float printed from its own field, so
    # one that is not finite reads inf, not None
    pairs = {key: _fmt(getattr(stats, key)) if key != "trials" else stats.trials
             for key in stats.as_dict()}
    width = max(len(k) for k in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs.items())


def emit_report(report, format: str = "table") -> str:
    """Render a scenario report, a sequence of them, or Monte Carlo stats.

    ``table`` is the fixed-width human layout; ``machine`` is a single JSON
    object with stable keys. It is always RFC 8259 JSON: a float that is
    not finite (a residual or statistic that overflowed) is written as
    null, while the table prints it as inf. Identical inputs give
    byte-identical output. Anything else to render, or another format,
    raises InvalidArgument.
    """
    if format not in ("table", "machine"):
        raise InvalidArgument(f"format must be 'table' or 'machine', got {format!r}")
    if isinstance(report, MonteCarloStats):
        if format == "machine":
            return json.dumps(report.as_dict(), allow_nan=False) + "\n"
        return _render_monte_carlo(report)
    reports = [report] if isinstance(report, ScenarioReport) else report
    if not isinstance(reports, Sequence) or not all(
            isinstance(r, ScenarioReport) for r in reports):
        raise InvalidArgument(f"cannot render {report!r} as a report")
    if format == "machine":
        if len(reports) == 1 and isinstance(report, ScenarioReport):
            return json.dumps(reports[0].as_dict(), allow_nan=False) + "\n"
        return json.dumps({"scenarios": [r.as_dict() for r in reports]},
                          allow_nan=False) + "\n"
    return _render_table(reports)

"""Scenario files, end-to-end runs, report emission, and Monte Carlo."""

import hashlib
import json
import re

import numpy as np
import pytest

import gridse.scenarios
from gridse import (
    DetectionResult,
    DetectorConfig,
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
    MonteCarloStats,
    Scenario,
    ScenarioReport,
    emit_report,
    build_meter_model,
    chi_square_test,
    estimate_ac,
    estimate_dc,
    factor_gain,
    largest_normalized_residual,
    load_scenario,
    MeasurementConfig,
    MeasurementSpec,
    parse_case,
    random_stealth_attack,
    run_detector,
    run_monte_carlo,
    run_scenario,
    serialize_case,
    simulate_measurements,
    state_from_free,
    weights_from_config,
)
from gridse.errors import _decode_json
from helpers import (
    CASES_DIR,
    SCENARIO_FILES,
    THREE_BUS,
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
)

EXPECTED_ROWS = {
    "base-case": (False, (0.02857142857142857, -0.09428571428571429),
                  0.00021428571428571427, False),
    "gross-errors": (True, (0.03127619047619048, -0.0919047619047619),
                     0.0013038095238095237, True),
    "stealth-small": (True, (0.03357142857142857, -0.09328571428571429),
                      0.00021428571428571427, False),
    "stealth-large": (True, (0.03857142857142857, -0.05428571428571429),
                      0.00021428571428571427, False),
    # meter 3 (flow 3->2) reads only bus 2's angle, so the attack on meters
    # 1 and 2 shifts bus 1's angle by the default magnitude 0.01
    "constrained-small": (True, (0.03857142857142857, -0.09428571428571429),
                          0.00021428571428571427, False),
}


def shipped_reports():
    return [run_scenario(load_scenario(path)) for path in SCENARIO_FILES]


def test_shipped_scenarios_reproduce_expected_rows():
    for report in shipped_reports():
        attacked, state, sqerr, detected = EXPECTED_ROWS[report.name]
        assert report.attacked is attacked
        np.testing.assert_allclose(report.state, state, atol=1e-9)
        assert report.squared_error_raw == pytest.approx(sqerr, abs=1e-12)
        assert [v.detected for v in report.verdicts] == [detected]
        assert report.converged


def test_stealth_scenarios_share_error_but_not_state():
    small = run_scenario(load_scenario(CASES_DIR / "stealth_small.json"))
    large = run_scenario(load_scenario(CASES_DIR / "stealth_large.json"))
    assert np.max(np.abs(np.subtract(small.state, large.state))) > 1e-3
    assert small.squared_error_raw == pytest.approx(large.squared_error_raw,
                                                    abs=1e-12)
    assert [v.detected for v in small.verdicts] == [False]
    assert [v.detected for v in large.verdicts] == [False]


def test_scenario_defaults():
    scenario = Scenario(name="defaults", case_path=THREE_BUS)
    assert scenario.measurements == {"source": "case"}
    assert scenario.attack == {"type": "none"}
    assert scenario.detectors == (DetectorConfig(method="chi_square"),)
    report = run_scenario(scenario)
    assert not report.attacked
    assert report.verdicts[0].method == "chi_square"


LINEAR_ATTACKS = [
    {"type": "stealth_shift", "c": [0.005, 0.001]},
    {"type": "random_stealth", "magnitude": 0.01, "seed": 1},
    {"type": "constrained", "accessible": [1, 3]},
]


@pytest.mark.parametrize("fields", [
    {"mode": "bogus"},
    {"attack": {"type": "bogus"}},
    {"attack": {"type": ["stealth_shift"]}},
    {"attack": {"type": "stealth_shift", "c": ["x", 0.0]}},
    {"attack": {"type": "constrained", "magnitude": 0.01}},
    {"measurements": {"simulate": {"angles": {1: 0.0}, "seed": 1}}},
    {"detectors": ({"method": "chi_square"},)},
    {"detectors": "chi_square"},
    {"measurements": {"simulate": {"angles": {"1": 0.0}, "seed": -1}}},
    {"attack": {"type": "random_stealth", "magnitude": 0.01, "seed": -1}},
    {"attack": {"type": "random_stealth", "magnitude": 0.01, "seed": True}},
] + [{"mode": "ac", "attack": attack} for attack in LINEAR_ATTACKS], ids=[
    "bad-mode", "unknown-attack", "unhashable-attack", "non-numeric-shift",
    "missing-accessible", "integer-bus-key", "detector-dict", "detector-string",
    "negative-simulate-seed", "negative-attack-seed", "bool-attack-seed",
] + [f"ac-{attack['type']}" for attack in LINEAR_ATTACKS])
def test_scenario_built_in_code_checks_itself(fields):
    with pytest.raises(MalformedDocument):
        Scenario(name="x", case_path=THREE_BUS, **fields)


@pytest.mark.parametrize("name,case_path", [(5, THREE_BUS), ("x", 3),
                                            (None, str(THREE_BUS))])
def test_scenario_checks_its_name_and_case_path(name, case_path):
    with pytest.raises(MalformedDocument):
        Scenario(name=name, case_path=case_path)


@pytest.mark.parametrize("attack", LINEAR_ATTACKS,
                         ids=[attack["type"] for attack in LINEAR_ATTACKS])
def test_ac_scenario_with_a_linear_attack_is_rejected_at_load(tmp_path, attack):
    path = tmp_path / "ac_stealth.json"
    path.write_text(json.dumps({"name": "x", "case": str(THREE_BUS),
                                "mode": "ac", "attack": attack}))
    with pytest.raises(MalformedDocument, match="dc-only") as info:
        load_scenario(path)
    assert str(path) in str(info.value)


def test_constrained_scenario_rejects_a_zero_magnitude(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(THREE_BUS),
        "attack": {"type": "constrained", "accessible": [1, 3],
                   "magnitude": 0}}))
    with pytest.raises(InvalidArgument, match="magnitude"):
        run_scenario(load_scenario(path))


def test_machine_report_is_deterministic_and_round_trips():
    report = run_scenario(load_scenario(CASES_DIR / "stealth_small.json"))
    text1 = emit_report(report, format="machine")
    text2 = emit_report(
        run_scenario(load_scenario(CASES_DIR / "stealth_small.json")),
        format="machine",
    )
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed == report.as_dict()
    assert list(parsed) == ["name", "attacked", "state", "squared_error_raw",
                            "objective_weighted", "verdicts", "converged"]
    assert list(parsed["verdicts"][0]) == ["method", "detected", "statistic",
                                           "threshold", "suspect_meter",
                                           "ambiguous", "critical_meters"]


def test_machine_report_keeps_convergence_and_lnr_details():
    verdict = DetectionResult(method="lnr", detected=True, statistic=6.3,
                              threshold_used=3.0, suspect_meter=2,
                              ambiguous=True, critical_meters=(3, 5))
    report = ScenarioReport(name="ac", attacked=False, state=(0.1,),
                            squared_error_raw=1.0, objective_weighted=2.0,
                            verdicts=(verdict,), converged=False)
    parsed = json.loads(emit_report(report, format="machine"))
    assert parsed["converged"] is False
    assert parsed["verdicts"][0]["suspect_meter"] == 2
    assert parsed["verdicts"][0]["ambiguous"] is True
    assert parsed["verdicts"][0]["critical_meters"] == [3, 5]
    clean = json.loads(emit_report(
        run_scenario(load_scenario(CASES_DIR / "base_case.json")),
        format="machine"))
    assert clean["converged"] is True
    assert clean["verdicts"][0]["suspect_meter"] is None
    assert clean["verdicts"][0]["critical_meters"] == []


def test_machine_report_of_overflowed_statistics_is_strict_json(tmp_path):
    # squared residuals past float range give inf statistics: the machine
    # report writes them as null, so gridse's own strict reader parses it,
    # and the table still prints inf
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow", "case": str(THREE_BUS),
        "measurements": {"values": [1e308, 1e308, -1e308]},
        "detectors": [{"method": "chi_square"},
                      {"method": "norm_threshold", "tau": 1.0},
                      {"method": "lnr"}]}))
    report = run_scenario(load_scenario(path))
    parsed = _decode_json(emit_report(report, format="machine"))
    assert parsed["squared_error_raw"] is None
    assert parsed["objective_weighted"] is None
    assert [v["statistic"] is None for v in parsed["verdicts"]] == [
        True, False, True]
    assert [v["detected"] for v in parsed["verdicts"]] == [
        v.detected for v in report.verdicts] == [True, True, True]
    assert parsed["verdicts"][1]["statistic"] == 9.759e306
    table = emit_report(report, format="table").splitlines()
    assert table[2].split()[4] == "inf"
    assert table[3:] == [
        "  overflow: chi_square statistic=inf threshold=3.84146 -> Detected",
        "  overflow: norm_threshold statistic=9.759e+306 threshold=1 -> "
        "Detected",
        "  overflow: lnr statistic=inf threshold=3 -> Detected"]


def test_monte_carlo_report_of_an_overflowed_mean_is_strict_json():
    stats = MonteCarloStats(trials=2, detection_rate=1.0,
                            false_alarm_rate=0.5, mean_statistic=np.inf,
                            interval_low=0.2, interval_high=1.0)
    parsed = _decode_json(emit_report(stats, format="machine"))
    assert parsed == {"trials": 2, "detection_rate": 1.0,
                      "false_alarm_rate": 0.5, "mean_statistic": None,
                      "interval_low": 0.2, "interval_high": 1.0}
    assert emit_report(stats, format="table") == (
        "trials            2\n"
        "detection_rate    1\n"
        "false_alarm_rate  0.5\n"
        "mean_statistic    inf\n"
        "interval_low      0.2\n"
        "interval_high     1\n")


def test_table_report_matches_known_rows():
    text = emit_report(shipped_reports(), format="table")
    lines = text.splitlines()
    assert lines[0].split("  ")[0] == "Case"
    base_row = next(l for l in lines if l.startswith("base-case"))
    assert "No" in base_row
    # printed state and squared error agree with the expected row at the
    # table's 6-significant-digit precision
    assert "0.0285714" in base_row and "-0.0942857" in base_row
    assert "0.000214286" in base_row
    assert base_row.rstrip().endswith("Not Detected")
    gross_row = next(l for l in lines if l.startswith("gross-errors"))
    assert "0.0013038" in gross_row
    assert gross_row.rstrip().endswith("Detected")
    assert not gross_row.rstrip().endswith("Not Detected")
    # per-detector details follow the table
    assert any("statistic=" in l and "threshold=" in l for l in lines)


def test_machine_report_for_a_report_list():
    reports = shipped_reports()
    parsed = json.loads(emit_report(reports, format="machine"))
    assert list(parsed) == ["scenarios"]
    assert [r["name"] for r in parsed["scenarios"]] == [
        "base-case", "gross-errors", "stealth-small", "stealth-large",
        "constrained-small",
    ]


def test_table_report_empty_is_header_only():
    text = emit_report([], format="table")
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == 2  # header and rule
    assert lines[0].startswith("Case")


@pytest.mark.parametrize("report", [5, [5], "report"])
def test_emit_report_rejects_what_is_not_a_report(report):
    for format in ("table", "machine"):
        with pytest.raises(InvalidArgument):
            emit_report(report, format=format)


def test_scenario_unknown_keys_rejected(tmp_path):
    doc = {"name": "x", "case": str(THREE_BUS), "surprise": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument):
        load_scenario(path)
    # neither an integer literal json refuses to convert nor bytes that
    # are not text is a traceback, and a repeated key is refused, not read
    # as its last value
    for content in (b'{"name": "x", "case": "c.json", "mode": ' + b"1" * 5000 + b"}",
                    b"\xff\xfe{",
                    b'{"name": "x", "name": "y", "case": "c.json"}',
                    b'{"name": "x", "case": "c.json", "measurements": {"simulate":'
                    b' {"angles": {"1": 0.01, "2": -0.09, "2": -0.02}, "seed": 1}}}'):
        path.write_bytes(content)
        with pytest.raises(MalformedDocument):
            load_scenario(path)


@pytest.mark.parametrize("attack", [
    {"type": "unknown"},
    {"type": "stealth_shift"},
    {"type": "stealth_shift", "c": [0.1], "extra": 2},
    {"type": "explicit_deltas"},
    {"type": "explicit_deltas", "deltas": [0.1], "replacement": [0.1]},
    {"type": "random_stealth", "magnitude": 0.01},
])
def test_scenario_attack_validation(tmp_path, attack):
    doc = {"name": "x", "case": str(THREE_BUS), "attack": attack}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument):
        load_scenario(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                     '"text"'])
@pytest.mark.parametrize("doc", [
    {"attack": {"type": "stealth_shift", "c": [0.001, "PLACEHOLDER"]}},
    {"attack": {"type": "explicit_deltas", "deltas": [0.0, "PLACEHOLDER", 0.0]}},
    {"attack": {"type": "random_stealth", "magnitude": "PLACEHOLDER", "seed": 1}},
    {"attack": {"type": "constrained", "accessible": [1, "PLACEHOLDER"]}},
    {"attack": {"type": "constrained", "accessible": [1], "magnitude": "PLACEHOLDER"}},
    {"measurements": {"values": ["PLACEHOLDER", 0.06, 0.37]}},
    {"measurements": {"simulate": {"angles": {"1": "PLACEHOLDER"}, "seed": 1}}},
    {"measurements": {"simulate": {"angles": {}, "magnitudes": {"2": "PLACEHOLDER"},
                                   "seed": 1}}},
    {"measurements": {"simulate": {"angles": {}, "seed": "PLACEHOLDER"}}},
    {"measurements": {"simulate": {"angles": {}, "seed": 1,
                                   "noise_scale": "PLACEHOLDER"}}},
    {"detectors": [{"method": "norm_threshold", "tau": "PLACEHOLDER"}]},
    {"detectors": [{"method": "chi_square", "alpha": "PLACEHOLDER"}]},
    {"detectors": [{"method": "lnr", "lnr_threshold": "PLACEHOLDER"}]},
    {"detectors": "PLACEHOLDER"},
])
def test_scenario_rejects_bad_numbers(tmp_path, literal, doc):
    doc = {"name": "x", "case": str(THREE_BUS)} | doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    with pytest.raises(MalformedDocument):
        load_scenario(path)


@pytest.mark.parametrize("table", [
    {"1": 0.01, "\u00b2": -0.09, "3": 0.0},
    {"1": 0.01, "\uff12": -0.09, "3": 0.0},
    {"1": 0.01, "2": -0.09, "02": -0.02, "3": 0.0},
    {"1": 0.01, "02": -0.09, "2": -0.02, "3": 0.0},
], ids=["superscript-digit", "fullwidth-digit", "zero-padded-repeat",
        "zero-padded-first"])
@pytest.mark.parametrize("key", ["angles", "magnitudes"])
def test_scenario_rejects_bad_bus_keys(tmp_path, table, key):
    # bus keys are ASCII decimal numbers, each naming a different bus
    sim = {"angles": {"1": 0.01, "2": -0.09, "3": 0.0}, "seed": 1, key: table}
    doc = {"name": "x", "case": str(THREE_BUS),
           "measurements": {"simulate": sim}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match=repr(key)):
        load_scenario(path)


def test_scenario_shift_length_checked(tmp_path):
    doc = {"name": "x", "case": str(THREE_BUS),
           "attack": {"type": "stealth_shift", "c": [0.1, 0.2, 0.3]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from gridse import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        run_scenario(load_scenario(path))


def test_scenario_deltas_length_checked(tmp_path):
    doc = {"name": "x", "case": str(THREE_BUS),
           "attack": {"type": "explicit_deltas", "deltas": [0.1, 0.2]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LengthMismatch):
        run_scenario(load_scenario(path))


def test_scenario_replacement_values_convert_to_deltas(tmp_path):
    doc = {"name": "replacement", "case": str(THREE_BUS),
           "attack": {"type": "explicit_deltas",
                      "replacement": [0.63, 0.05, 0.35]}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report = run_scenario(load_scenario(path))
    assert report.attacked
    np.testing.assert_allclose(
        report.state, EXPECTED_ROWS["gross-errors"][1], atol=1e-12
    )


def test_scenario_explicit_values_and_simulation(tmp_path):
    explicit = {"name": "explicit", "case": str(THREE_BUS),
                "measurements": {"values": [0.62, 0.06, 0.37]}}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(explicit))
    report = run_scenario(load_scenario(path))
    np.testing.assert_allclose(report.state, EXPECTED_ROWS["base-case"][1],
                               atol=1e-12)

    simulated = {"name": "simulated", "case": str(THREE_BUS),
                 "measurements": {"simulate": {
                     "angles": {"1": 0.02857142857142857,
                                "2": -0.09428571428571429, "3": 0.0},
                     "seed": 4, "noise_scale": 0.0}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(simulated))
    report = run_scenario(load_scenario(path))
    np.testing.assert_allclose(report.state, EXPECTED_ROWS["base-case"][1],
                               atol=1e-10)
    assert report.squared_error_raw <= 1e-20


def test_scenario_constrained_attack_runs(tmp_path):
    doc = {"name": "constrained", "case": str(THREE_BUS),
           "attack": {"type": "constrained", "accessible": [1, 3],
                      "magnitude": 0.02}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    report = run_scenario(load_scenario(path))
    assert report.attacked
    assert [v.detected for v in report.verdicts] == [False]
    # only the estimate of the accessible direction moves
    assert report.squared_error_raw == pytest.approx(
        EXPECTED_ROWS["base-case"][2], abs=1e-12
    )


def test_scenario_ac_mode_runs(tmp_path):
    case = json.loads(THREE_BUS.read_text())
    case["measurements"] += [
        {"kind": "voltage_magnitude", "bus": b, "sigma": 0.0001, "value": 1.0}
        for b in (1, 2, 3)
    ]
    case_path = tmp_path / "case_ac.json"
    case_path.write_text(json.dumps(case))
    doc = {"name": "ac", "case": str(case_path), "mode": "ac"}
    path = tmp_path / "ac.json"
    path.write_text(json.dumps(doc))
    report = run_scenario(load_scenario(path))
    assert report.converged
    assert len(report.state) == 5
    assert report.state[0] == pytest.approx(0.0286, rel=0.02)
    assert report.state[1] == pytest.approx(-0.0943, rel=0.02)


def test_monte_carlo_single_clean_trial():
    stats = run_monte_carlo(THREE_BUS, trials=1, noise_scale=0.0)
    assert stats.trials == 1
    assert stats.detection_rate == 0.0
    assert stats.false_alarm_rate == 0.0
    assert stats.interval_low == 0.0


def test_monte_carlo_stealth_statistics_match_per_seed():
    stats = run_monte_carlo(THREE_BUS, trials=200, noise_seed_base=10,
                            attack="stealth", magnitude=0.01)
    paired = zip(stats.attacked_statistics, stats.unattacked_statistics)
    assert all(abs(a - b) <= 1e-10 for a, b in paired)
    assert stats.detection_rate == stats.false_alarm_rate
    assert stats.interval_low <= stats.detection_rate <= stats.interval_high


def test_monte_carlo_trials_read_simulated_measurements():
    # trial t sees exactly the readings simulate_measurements gives for
    # seed noise_seed_base + t
    parsed, model, h = load_three_bus()
    weights = weights_from_config(parsed.config)
    truth = state_from_free(
        parsed.network, estimate_dc(h, parsed.values, weights).state, "dc")
    detector = DetectorConfig(method="chi_square")
    stats = run_monte_carlo(THREE_BUS, trials=5, noise_seed_base=7,
                            detector=detector)
    for t, statistic in enumerate(stats.unattacked_statistics):
        z = simulate_measurements(model, truth, "dc", 7 + t)
        expected = run_detector(detector, estimate_dc(h, z, weights))
        assert statistic == expected.statistic


def test_monte_carlo_lnr_trials_match_a_fresh_estimate():
    # trials estimate through one gain factor per call; each statistic must
    # equal the detector run on a fresh estimate_dc of the same readings
    parsed, model, h = load_three_bus()
    weights = weights_from_config(parsed.config)
    truth = state_from_free(
        parsed.network, estimate_dc(h, parsed.values, weights).state, "dc")
    stats = run_monte_carlo(THREE_BUS, trials=6, noise_seed_base=11,
                            attack="stealth", magnitude=0.02,
                            detector=DetectorConfig(method="lnr"))
    for t in range(stats.trials):
        z = simulate_measurements(model, truth, "dc", 11 + t)
        z_a = z + random_stealth_attack(h, 0.02, 11 + t)[1]
        for readings, statistic in ((z, stats.unattacked_statistics[t]),
                                    (z_a, stats.attacked_statistics[t])):
            expected = largest_normalized_residual(
                estimate_dc(h, readings, weights))
            assert statistic == expected.statistic


def grid_case(tmp_path, dense):
    """A seeded 30-bus case with readings: a flow meter on every branch and
    an injection meter at each bus of at most four branches, so that H's
    widest row has w nonzeros with w^2 <= 29 and the gain is summed from
    H's row pattern; with ``dense``, also one at the bus of the most
    branches, whose row is too wide for that, so the gain is the dense
    product."""
    rng = np.random.default_rng(2023)
    net = random_network(rng, 30)
    degree = {b.id: len(net.branches_at(b.id)) for b in net.buses}
    hub = max(degree, key=degree.get)
    specs = [MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                             to_bus=br.to_bus, sigma=0.01)
             for br in net.branches]
    specs += [MeasurementSpec(kind="injection_p", bus=bus, sigma=0.02)
              for bus, d in degree.items() if d <= 4 or (dense and bus == hub)]
    config = MeasurementConfig(specs=tuple(specs))
    h = build_meter_model(net, config).dc_matrix
    z = h @ rng.normal(0.0, 0.1, h.shape[1]) + config.sigmas() * rng.normal(
        size=len(h))
    path = tmp_path / "grid.json"
    path.write_text(serialize_case(net, config, z))
    return path


@pytest.mark.parametrize("dense", [False, True], ids=["row-pattern", "dense"])
@pytest.mark.parametrize("method", ["chi_square", "norm_threshold", "lnr"])
def test_monte_carlo_trials_are_the_public_detectors_bit_for_bit(
        tmp_path, dense, method):
    # each trial runs the estimator's and the detector's own arithmetic
    # without building their results: every statistic and verdict of both
    # arms must be the public detector's on a fresh estimate_dc
    parsed = parse_case(grid_case(tmp_path, dense).read_text())
    model = build_meter_model(parsed.network, parsed.config)
    h = model.dc_matrix
    weights = weights_from_config(parsed.config)
    assert (factor_gain(h, weights).pattern is None) == dense
    truth = state_from_free(
        parsed.network, estimate_dc(h, parsed.values, weights).state, "dc")
    detector = {"chi_square": DetectorConfig(method="chi_square", alpha=0.3),
                "norm_threshold": DetectorConfig(method="norm_threshold",
                                                 tau=0.1),
                "lnr": DetectorConfig(method="lnr", lnr_threshold=2.5)}[method]
    trials, base, magnitude = 30, 2**32 - 10, 0.05
    stats = run_monte_carlo(grid_case(tmp_path, dense), trials=trials,
                            noise_seed_base=base, attack="stealth",
                            magnitude=magnitude, detector=detector)
    verdicts = {"clean": [], "attacked": []}
    for t in range(trials):
        z = simulate_measurements(model, truth, "dc", base + t)
        z_a = z + random_stealth_attack(h, magnitude, base + t)[1]
        for arm, readings, statistic in (
                ("clean", z, stats.unattacked_statistics[t]),
                ("attacked", z_a, stats.attacked_statistics[t])):
            expected = run_detector(detector, estimate_dc(h, readings, weights))
            assert float.hex(statistic) == float.hex(expected.statistic)
            verdicts[arm].append(expected.detected)
    assert stats.false_alarm_rate == sum(verdicts["clean"]) / trials
    assert stats.detection_rate == sum(verdicts["attacked"]) / trials
    # the thresholds split the trials, so a verdict could go either way
    assert 0 < sum(verdicts["clean"]) < trials


@pytest.mark.parametrize("dense", [False, True], ids=["row-pattern", "dense"])
def test_chi_square_statistic_is_the_dc_weighted_objective_bit_for_bit(
        tmp_path, dense):
    # the detector sums r^T W r from the residual and the factor's weights,
    # as the estimator sums objective_weighted, on either gain path
    parsed = parse_case(grid_case(tmp_path, dense).read_text())
    h = build_meter_model(parsed.network, parsed.config).dc_matrix
    estimate = estimate_dc(h, parsed.values, weights_from_config(parsed.config))
    assert (estimate.factor.pattern is None) == dense
    assert float.hex(chi_square_test(estimate).statistic) \
        == float.hex(estimate.objective_weighted)


def test_chi_square_statistic_is_the_ac_weighted_objective_bit_for_bit():
    rng = np.random.default_rng(48)
    net = random_network(rng, 6, lossy=True)
    model = build_meter_model(net, full_ac_config(net))
    z = simulate_measurements(model, random_ac_state(rng, net), "ac", seed=9)
    estimate = estimate_ac(model, z, weights_from_config(model.config))
    assert float.hex(chi_square_test(estimate).statistic) \
        == float.hex(estimate.objective_weighted)


# Two-sided normal tail probability below which a gap between the mean
# statistic and its expectation fails the test, as bench/workloads.py
# bounds false alarms.
CALIBRATION_P_FLOOR = 1e-6
# About one second of trials on the 30-bus case below.
CALIBRATION_TRIALS = 10_000


def test_chi_square_statistic_has_mean_m_minus_k_under_noise_alone(tmp_path):
    # with Gaussian noise alone r^T W r is chi-square with m - k degrees of
    # freedom: mean m - k and variance 2 (m - k), so the mean of N trials
    # is m - k within a normal quantile times sqrt(2 (m - k) / N)
    from scipy.stats import norm

    path = grid_case(tmp_path, dense=False)
    parsed = parse_case(path.read_text())
    m, k = build_meter_model(parsed.network, parsed.config).dc_matrix.shape
    stats = run_monte_carlo(path, trials=CALIBRATION_TRIALS)
    bound = norm.isf(CALIBRATION_P_FLOOR / 2) \
        * np.sqrt(2.0 * (m - k) / CALIBRATION_TRIALS)
    assert abs(np.mean(stats.unattacked_statistics) - (m - k)) <= bound


def test_monte_carlo_rejects_an_attack_whose_hc_overflows():
    # the attacked readings are checked once per trial, unwarned (the suite
    # turns a RuntimeWarning into an error)
    with pytest.raises(InvalidArgument, match="overflows"):
        run_monte_carlo(THREE_BUS, trials=3, attack="stealth", magnitude=1e308)


# SHA-256 of the float.hex of every attacked, then every unattacked,
# statistic of a 200-trial stealth run on the three-bus case, one digest per
# (detector, noise_seed_base); recorded before the stealth directions were
# seeded per block and the LNR terms cached on the gain factor, so any bit
# those changes moved would show here
MONTE_CARLO_DIGESTS = {
    ("chi_square", 0):
        "68049709aedfa842b0b82b690bf3f6b6c91b6ebf814378fc87fb2d33e0706dfa",
    ("chi_square", 2**32 - 100):
        "2428240679336b03c013fceb1bf9cb86aa3ae67e8c02720dffff774d0686759c",
    ("norm_threshold", 0):
        "b9ee86ad24688de8ab4c22463e2fa8dadef7e39e8ae1c700c2ada1f8667ad6b7",
    ("norm_threshold", 2**32 - 100):
        "1c6b16266633bb6661945329bff8ea15ca3e9f5d0b19100900a7716329ba1cca",
    ("lnr", 0):
        "a614b0c4c735b9f92eaac54df196b3eb951d0bda2a1abdfb534873aa2c1163c5",
    ("lnr", 2**32 - 100):
        "7a2b898478372c1bf92402aaf317242b50af5434b76eadec2c62fd126bef13b0",
}
DIGEST_DETECTORS = {"chi_square": DetectorConfig(method="chi_square"),
                    "norm_threshold": DetectorConfig(method="norm_threshold",
                                                     tau=0.05),
                    "lnr": DetectorConfig(method="lnr")}


@pytest.mark.parametrize("method,seed_base", list(MONTE_CARLO_DIGESTS),
                         ids=lambda v: str(v))
def test_monte_carlo_statistics_are_pinned_bit_for_bit(method, seed_base):
    stats = run_monte_carlo(THREE_BUS, trials=200, noise_seed_base=seed_base,
                            attack="stealth",
                            detector=DIGEST_DETECTORS[method])
    text = " ".join(float.hex(x) for x in stats.attacked_statistics
                    + stats.unattacked_statistics)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == MONTE_CARLO_DIGESTS[method, seed_base]


def test_monte_carlo_determinism():
    first = run_monte_carlo(THREE_BUS, trials=50, noise_seed_base=3,
                            attack="stealth")
    second = run_monte_carlo(THREE_BUS, trials=50, noise_seed_base=3,
                             attack="stealth")
    assert first == second


def test_monte_carlo_report_formats():
    stats = run_monte_carlo(THREE_BUS, trials=20, noise_seed_base=1)
    machine = emit_report(stats, format="machine")
    parsed = json.loads(machine)
    assert parsed == stats.as_dict()
    table = emit_report(stats, format="table")
    assert "detection_rate" in table and "false_alarm_rate" in table


def test_monte_carlo_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_monte_carlo(THREE_BUS, trials=0)
    with pytest.raises(MalformedDocument):
        run_monte_carlo(THREE_BUS, trials=1, attack="subtle")
    # magnitude is checked on both arms, and both checks come before the
    # case is read
    for attack in ("none", "stealth"):
        for magnitude in (-1.0, 0.0, float("nan"), float("inf"), "0.01", True,
                          10**400):
            with pytest.raises(InvalidArgument, match="magnitude"):
                run_monte_carlo("no_such_case.json", trials=3, attack=attack,
                                magnitude=magnitude)
    for noise_scale in (-1.0, float("nan"), float("inf"), "1", True, 10**400):
        with pytest.raises(InvalidArgument, match="noise_scale"):
            run_monte_carlo("no_such_case.json", trials=3,
                            noise_scale=noise_scale)


def test_monte_carlo_rejects_noise_too_large_for_a_float(tmp_path,
                                                        monkeypatch):
    # sigma 1e10 times noise_scale 1e300 leaves float range: InvalidArgument
    # once per call, before any noise is drawn
    doc = json.loads(THREE_BUS.read_text())
    for meter in doc["measurements"]:
        meter["sigma"] = 1e10
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(gridse.scenarios, "_meter_noise", refuse)
    with pytest.raises(InvalidArgument, match="noise_scale must be finite"):
        run_monte_carlo(path, trials=2, noise_scale=1e300)


@pytest.mark.parametrize("arguments", [
    {"trials": 2.5}, {"trials": True}, {"trials": "3"},
    {"trials": 3, "noise_seed_base": -1},
    {"trials": 3, "noise_seed_base": 1.0},
    {"trials": 3, "noise_seed_base": False},
    {"trials": 3, "detector": "chi_square"},
    {"trials": 3, "detector": {"method": "lnr"}},
])
def test_monte_carlo_checks_trials_and_seed_before_reading_the_case(arguments):
    # the case file does not exist, so reading it first would raise the
    # read error instead of the argument's own
    with pytest.raises(InvalidArgument, match=r"^(?!.*cannot read)"):
        run_monte_carlo("no_such_case.json", **arguments)


@pytest.mark.parametrize("noise_scale", [1.0, 0.5, 0.0])
def test_monte_carlo_noise_blocks_do_not_change_any_trial(
        monkeypatch, noise_scale):
    # trials are drawn in blocks; a block boundary must not change the
    # readings any trial sees
    monkeypatch.setattr(gridse.scenarios, "_NOISE_BLOCK_DRAWS", 7)
    blocked = run_monte_carlo(THREE_BUS, trials=7, noise_seed_base=2**32 - 3,
                              attack="stealth", noise_scale=noise_scale)
    monkeypatch.undo()
    whole = run_monte_carlo(THREE_BUS, trials=7, noise_seed_base=2**32 - 3,
                            attack="stealth", noise_scale=noise_scale)
    assert blocked == whole


def test_emit_report_rejects_unknown_format():
    stats = MonteCarloStats(trials=1, detection_rate=0.0, false_alarm_rate=0.0,
                            mean_statistic=0.0, interval_low=0.0,
                            interval_high=0.0)
    with pytest.raises(ValueError):
        emit_report(stats, format="csv")


@pytest.mark.parametrize("run", [
    lambda path: run_scenario(Scenario(name="x", case_path=path)),
    lambda path: run_monte_carlo(path, trials=1),
], ids=["run_scenario", "run_monte_carlo"])
def test_case_file_that_is_not_text_is_malformed(tmp_path, run):
    path = tmp_path / "case.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(MalformedDocument, match="case.json: not UTF-8"):
        run(path)


@pytest.mark.parametrize("run", [
    lambda path: run_scenario(Scenario(name="x", case_path=path)),
    lambda path: run_monte_carlo(path, trials=1),
    lambda path: load_scenario(path),
], ids=["run_scenario", "run_monte_carlo", "load_scenario"])
def test_path_holding_a_nul_character_is_an_invalid_argument(tmp_path, run):
    # open() refuses it with a ValueError of its own
    with pytest.raises(InvalidArgument, match="^path must be a file path"):
        run(str(tmp_path / "case\x00.json"))


@pytest.mark.parametrize("run", [
    lambda path: run_scenario(Scenario(name="x", case_path=path)),
    lambda path: run_monte_carlo(path, trials=1),
    lambda path: load_scenario(path),
], ids=["run_scenario", "run_monte_carlo", "load_scenario"])
@pytest.mark.parametrize("name", ["no_such_file.json", ""],
                         ids=["missing", "directory"])
def test_file_that_cannot_be_read_is_an_invalid_argument(tmp_path, run, name):
    path = tmp_path / name
    with pytest.raises(InvalidArgument,
                       match=f"^{re.escape(str(path))}: cannot read: "):
        run(path)


@pytest.mark.parametrize("case", ["no_such_case.json", ""],
                         ids=["missing", "directory"])
def test_scenario_naming_a_case_that_cannot_be_read(tmp_path, case):
    # an empty 'case' names the scenario's own directory
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "x", "case": case}))
    scenario = load_scenario(path)
    with pytest.raises(InvalidArgument, match=": cannot read: "):
        run_scenario(scenario)


def test_scenario_file_that_is_not_text_is_malformed(tmp_path):
    # the message names the file once, as a case file's does
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(MalformedDocument) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: ")


def test_scenario_bus_key_too_long_to_read_is_malformed(tmp_path):
    # int() refuses more than 4300 digits; that is a bad document, whether
    # it comes from a file or is built in code
    angles = {"1": 0.0, "2" * 5000: 0.0}
    measurements = {"simulate": {"angles": angles, "seed": 0}}
    with pytest.raises(MalformedDocument, match="names a bus too long"):
        Scenario(name="x", case_path=THREE_BUS, measurements=measurements)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "x", "case": str(THREE_BUS),
                                "measurements": measurements}))
    with pytest.raises(MalformedDocument, match="names a bus too long"):
        load_scenario(path)

"""Scenario files, end-to-end runs, report emission, and Monte Carlo."""

import json

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
    estimate_dc,
    largest_normalized_residual,
    load_scenario,
    random_stealth_attack,
    run_detector,
    run_monte_carlo,
    run_scenario,
    simulate_measurements,
    state_from_free,
    weights_from_config,
)
from helpers import CASES_DIR, SCENARIO_FILES, THREE_BUS, load_three_bus

EXPECTED_ROWS = {
    "base-case": (False, (0.02857142857142857, -0.09428571428571429),
                  0.00021428571428571427, False),
    "gross-errors": (True, (0.03127619047619048, -0.0919047619047619),
                     0.0013038095238095237, True),
    "stealth-small": (True, (0.03357142857142857, -0.09328571428571429),
                      0.00021428571428571427, False),
    "stealth-large": (True, (0.03857142857142857, -0.05428571428571429),
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
        "base-case", "gross-errors", "stealth-small", "stealth-large"
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
    # are not text is a traceback
    for content in (b'{"name": "x", "case": "c.json", "mode": ' + b"1" * 5000 + b"}",
                    b"\xff\xfe{"):
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
    parsed, _, h = load_three_bus()
    weights = weights_from_config(parsed.config)
    truth = state_from_free(
        parsed.network, estimate_dc(h, parsed.values, weights).state, "dc")
    detector = DetectorConfig(method="chi_square")
    stats = run_monte_carlo(THREE_BUS, trials=5, noise_seed_base=7,
                            detector=detector)
    for t, statistic in enumerate(stats.unattacked_statistics):
        z = simulate_measurements(parsed.network, truth,
                                  parsed.config, "dc", 7 + t)
        expected = run_detector(detector, h, z, weights,
                                estimate_dc(h, z, weights))
        assert statistic == expected.statistic


def test_monte_carlo_lnr_trials_match_a_fresh_estimate():
    # trials estimate through one gain factor per call; each statistic must
    # equal the detector run on a fresh estimate_dc of the same readings
    parsed, _, h = load_three_bus()
    weights = weights_from_config(parsed.config)
    truth = state_from_free(
        parsed.network, estimate_dc(h, parsed.values, weights).state, "dc")
    stats = run_monte_carlo(THREE_BUS, trials=6, noise_seed_base=11,
                            attack="stealth", magnitude=0.02,
                            detector=DetectorConfig(method="lnr"))
    for t in range(stats.trials):
        z = simulate_measurements(parsed.network, truth,
                                  parsed.config, "dc", 11 + t)
        z_a = z + random_stealth_attack(h, 0.02, 11 + t)[1]
        for readings, statistic in ((z, stats.unattacked_statistics[t]),
                                    (z_a, stats.attacked_statistics[t])):
            expected = largest_normalized_residual(
                h, readings, weights, estimate_dc(h, readings, weights))
            assert statistic == expected.statistic


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


@pytest.mark.parametrize("arguments", [
    {"trials": 2.5}, {"trials": True}, {"trials": "3"},
    {"trials": 3, "noise_seed_base": -1},
    {"trials": 3, "noise_seed_base": 1.0},
    {"trials": 3, "noise_seed_base": False},
    {"trials": 3, "detector": "chi_square"},
    {"trials": 3, "detector": {"method": "lnr"}},
])
def test_monte_carlo_checks_trials_and_seed_before_reading_the_case(arguments):
    with pytest.raises(InvalidArgument):
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

"""Command-line interface: output shapes and exit codes."""

import json

import pytest

import gridse
from gridse.cli import main
from helpers import CASES_DIR, THREE_BUS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_dc(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--case", str(THREE_BUS))
    assert code == 0
    assert "angle[1] = 0.0285714" in out
    assert "angle[2] = -0.0942857" in out
    assert "angle[3] = 0  (reference)" in out
    assert "squared_error_raw = 0.000214286" in out


def ac_case_path(tmp_path):
    # the bundled case plus voltage meters, so the full ac state is observable
    doc = json.loads(THREE_BUS.read_text())
    doc["measurements"] += [
        {"kind": "voltage_magnitude", "bus": b, "sigma": 0.0001, "value": 1.0}
        for b in (1, 2, 3)
    ]
    path = tmp_path / "three_bus_ac.json"
    path.write_text(json.dumps(doc))
    return path


def test_estimate_ac_runs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "estimate", "--case",
                           str(ac_case_path(tmp_path)), "--mode", "ac")
    assert code == 0
    assert "mode: ac" in out
    assert "v[1] = " in out
    assert "converged = yes" in out


def test_estimate_ac_underdetermined_is_numerical_error(capsys):
    # flows alone cannot pin the three voltage magnitudes
    code, _, err = run_cli(capsys, "estimate", "--case", str(THREE_BUS),
                           "--mode", "ac")
    assert code == 3
    assert "numerical error" in err


def test_estimate_non_convergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--case", str(THREE_BUS),
                           "--mode", "ac", "--max-iter", "0")
    assert code == 4
    assert "converged = no" in out


@pytest.mark.parametrize("extra", [
    ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--max-iter", "-1"),
], ids=["zero-tol", "negative-tol", "nan-tol", "negative-max-iter"])
def test_bad_ac_estimate_arguments_are_input_errors(tmp_path, capsys, extra):
    code, _, err = run_cli(capsys, "estimate", "--case",
                           str(ac_case_path(tmp_path)), "--mode", "ac", *extra)
    assert code == 2
    assert "error" in err


def test_attack_prints_vectors(capsys):
    code, out, _ = run_cli(capsys, "attack", "--case", str(THREE_BUS),
                           "--shift", "0.005,0.001")
    assert code == 0
    assert "a   = 0.02 0.0125 -0.004" in out
    assert "z_a = 0.64 0.0725 0.366" in out


def test_attack_with_a_non_finite_shift_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "attack", "--case", str(THREE_BUS),
                           "--shift", "nan,0")
    assert code == 2
    assert "finite" in err


def test_detect_chi_square(capsys):
    code, out, _ = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                           "--z", "0.63,0.05,0.35")
    assert code == 0
    assert "statistic = 13.0381" in out
    assert "detected = yes" in out


def test_detect_norm_threshold(capsys):
    code, out, _ = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                           "--z", "0.62,0.06,0.37",
                           "--method", "norm_threshold", "--tau", "0.02")
    assert code == 0
    assert "detected = no" in out


def test_detect_lnr(capsys):
    code, out, _ = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                           "--z", "0.62,0.16,0.37", "--method", "lnr")
    assert code == 0
    assert "detected = yes" in out
    assert "suspect_meter = 1 (ambiguous)" in out


@pytest.mark.parametrize("extra", [
    ("--method", "lnr", "--lnr-threshold", "nan"),
    ("--method", "lnr", "--lnr-threshold", "inf"),
    ("--method", "norm_threshold", "--tau", "nan"),
    ("--method", "norm_threshold", "--tau", "inf"),
], ids=["nan-lnr-threshold", "inf-lnr-threshold", "nan-tau", "inf-tau"])
def test_non_finite_detector_thresholds_are_input_errors(capsys, extra):
    code, _, err = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                           "--z", "0.62,0.06,0.37", *extra)
    assert code == 2
    assert "error" in err


def test_scenario_run_table(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run",
                           str(CASES_DIR / "base_case.json"))
    assert code == 0
    assert out.startswith("Case")
    assert "Not Detected" in out


def test_scenario_run_machine(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run",
                           str(CASES_DIR / "stealth_large.json"),
                           "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "stealth-large"
    assert doc["attacked"] is True
    assert doc["verdicts"][0]["detected"] is False


def test_montecarlo_machine(capsys):
    code, out, _ = run_cli(capsys, "montecarlo", "--case", str(THREE_BUS),
                           "--trials", "25", "--attack", "stealth",
                           "--seed", "2", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 25
    assert doc["detection_rate"] == doc["false_alarm_rate"]


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--case", "no_such_case.json")
    assert code == 2
    assert "error" in err


def test_malformed_case_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"buses": []}')
    code, _, err = run_cli(capsys, "estimate", "--case", str(path))
    assert code == 2


def test_unobservable_case_is_a_numerical_error(tmp_path, capsys):
    doc = json.loads(THREE_BUS.read_text())
    doc["measurements"] = [doc["measurements"][1]]  # one meter, two states
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "estimate", "--case", str(path))
    assert code == 3
    assert "numerical error" in err


def test_detect_wrong_reading_count(capsys):
    code, _, err = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                           "--z", "0.62,0.06")
    assert code == 2


def test_scenario_file_with_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "case": str(THREE_BUS),
                                "mystery": True}))
    code, _, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2


def test_ac_scenario_with_a_stealth_attack_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "ac_stealth.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(ac_case_path(tmp_path)), "mode": "ac",
        "attack": {"type": "stealth_shift", "c": [0.005, 0.001]}}))
    code, out, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err


def test_non_finite_numbers_are_input_errors(tmp_path, capsys):
    case = THREE_BUS.read_text().replace('"sigma": 0.01', '"sigma": Infinity', 1)
    assert "Infinity" in case
    case_path = tmp_path / "infinite.json"
    case_path.write_text(case)
    code, _, err = run_cli(capsys, "estimate", "--case", str(case_path))
    assert code == 2
    assert "error" in err

    scenario_path = tmp_path / "nan.json"
    scenario_path.write_text(
        '{"name": "x", "case": "%s", '
        '"attack": {"type": "stealth_shift", "c": [NaN, 0.0]}}' % THREE_BUS)
    code, _, err = run_cli(capsys, "scenario", "run", str(scenario_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("extra", [
    ("--trials", "0"),
    ("--trials", "3", "--attack", "stealth", "--magnitude", "-1"),
    ("--trials", "3", "--attack", "stealth", "--magnitude", "nan"),
    ("--trials", "3", "--attack", "none", "--magnitude", "-1"),
    ("--trials", "3", "--attack", "none", "--magnitude", "nan"),
], ids=["zero-trials", "negative-magnitude", "nan-magnitude",
        "clean-arm-negative-magnitude", "clean-arm-nan-magnitude"])
def test_bad_montecarlo_arguments_are_input_errors(capsys, extra):
    code, _, err = run_cli(capsys, "montecarlo", "--case", str(THREE_BUS),
                           *extra)
    assert code == 2
    assert "error" in err


def test_simulated_state_without_angle_is_input_error(tmp_path, capsys):
    path = tmp_path / "missing_angle.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(THREE_BUS),
        "measurements": {"simulate": {"angles": {"1": 0.01, "3": 0.0},
                                      "seed": 1}}}))
    code, _, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert "no angle for bus 2" in err


def test_simulated_state_with_nonzero_reference_is_input_error(tmp_path, capsys):
    path = tmp_path / "reference_angle.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(THREE_BUS),
        "measurements": {"simulate": {"angles": {"1": 0.01, "2": -0.09,
                                                 "3": 0.02}, "seed": 1}}}))
    code, _, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert "reference bus 3" in err


def test_negative_noise_scale_is_input_error(tmp_path, capsys):
    path = tmp_path / "negative_noise.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(THREE_BUS),
        "measurements": {"simulate": {"angles": {"1": 0.01, "2": -0.09,
                                                 "3": 0.0},
                                      "seed": 1, "noise_scale": -1}}}))
    code, _, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert "noise_scale" in err


def test_no_path_builds_the_admittance(tmp_path, capsys, monkeypatch):
    # nothing reads the bus admittance, so no internal path may build it
    def refuse(*args, **kwargs):
        raise AssertionError("the bus admittance was built")

    monkeypatch.setattr(gridse.network, "AdmittanceMatrix", refuse)
    with pytest.raises(AssertionError):
        gridse.build_admittance(gridse.parse_case(THREE_BUS.read_text()).network)

    ac_case = ac_case_path(tmp_path)
    scenario = tmp_path / "ac.json"
    scenario.write_text(json.dumps({"name": "ac", "case": str(ac_case),
                                    "mode": "ac"}))
    assert gridse.run_scenario(gridse.load_scenario(scenario)).converged
    assert gridse.run_monte_carlo(THREE_BUS, trials=3,
                                  attack="stealth").trials == 3
    for argv in (
        ("estimate", "--case", str(ac_case), "--mode", "ac"),
        ("estimate", "--case", str(THREE_BUS)),
        ("detect", "--case", str(THREE_BUS), "--z", "0.63,0.05,0.35"),
        ("attack", "--case", str(THREE_BUS), "--shift", "0.005,0.001"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

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


@pytest.mark.parametrize("argv", [
    ("estimate",), ("estimate", "--mode", "ac"),
    ("detect", "--z", "0.62,0.06,0.37", "--method", "lnr"),
    ("montecarlo", "--trials", "3", "--attack", "stealth"),
])
def test_a_reactance_whose_reciprocal_overflows_is_an_input_error(
        tmp_path, capsys, argv):
    # x = 1e-310 makes 1/x overflow: refused at parse time, exit 2, with no
    # RuntimeWarning on the way (the suite turns those into errors)
    doc = json.loads(THREE_BUS.read_text())
    doc["branches"][0]["x"] = 1e-310
    path = tmp_path / "tiny_x.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], "--case", str(path), *argv[1:])
    assert code == 2
    assert "reactance 1e-310" in err and "Traceback" not in err
    assert out == ""


def test_estimate_ac_underdetermined_is_numerical_error(capsys):
    # flows alone cannot pin the three voltage magnitudes, also at the start
    # when no Gauss-Newton step runs
    for extra in ((), ("--max-iter", "0")):
        code, out, err = run_cli(capsys, "estimate", "--case", str(THREE_BUS),
                                 "--mode", "ac", *extra)
        assert code == 3
        assert "numerical error" in err
        assert out == ""


def test_estimate_non_convergence_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "estimate", "--case",
                           str(ac_case_path(tmp_path)), "--mode", "ac",
                           "--max-iter", "0")
    assert code == 4
    assert "iterations = 0" in out
    assert "converged = no" in out


def test_a_reading_too_large_to_square_is_an_input_error(tmp_path, capsys):
    # the first iterate's weighted objective overflows: an input error, with
    # no RuntimeWarning (the suite turns those into errors)
    doc = json.loads(THREE_BUS.read_text())
    doc["measurements"][0]["value"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "estimate", "--case", str(path),
                             "--mode", "ac")
    assert code == 2
    assert "not finite" in err
    assert out == ""


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


@pytest.mark.parametrize("extra, statistic", [
    (("--method", "chi_square"), "statistic = inf"),
    (("--method", "norm_threshold", "--tau", "1"), "statistic = 9.759e+306"),
    (("--method", "lnr"), "statistic = inf"),
], ids=["chi_square", "norm_threshold", "lnr"])
def test_detect_on_readings_whose_squares_overflow(capsys, extra, statistic):
    # r . r overflows: the norm is taken at a power-of-two scale, and a
    # normalized residual too large for a float reads inf, with no
    # RuntimeWarning (the suite turns those into errors)
    code, out, err = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                             "--z", "1e308,1e308,-1e308", *extra)
    assert code == 0, err
    assert statistic in out
    assert "detected = yes" in out


@pytest.mark.parametrize("extra", [
    ("--method", "chi_square"),
    ("--method", "norm_threshold", "--tau", "1"),
    ("--method", "lnr"),
], ids=["chi_square", "norm_threshold", "lnr"])
@pytest.mark.parametrize("z", [
    "1.7e308,-1.7e308,1.7e308", "-1.79e308,1.79e308,1.79e308",
], ids=["hx-overflows", "z-minus-hx-overflows"])
def test_detect_on_readings_whose_residual_overflows(capsys, z, extra):
    # the residual z - Hx itself leaves float range: an input error with
    # no RuntimeWarning (the suite turns those into errors)
    code, out, err = run_cli(capsys, "detect", "--case", str(THREE_BUS),
                             f"--z={z}", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: residual z - Hx is not finite\n"


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


def test_montecarlo_attack_too_large_for_a_float_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "montecarlo", "--case", str(THREE_BUS),
                             "--trials", "3", "--attack", "stealth",
                             "--magnitude", "1e308")
    assert code == 2
    assert "overflows" in err
    assert out == ""


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--case", "no_such_case.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("case", ["no_such_case.json", ""],
                         ids=["missing", "directory"])
def test_scenario_naming_a_case_that_cannot_be_read_exits_2(tmp_path, capsys,
                                                            case):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "x", "case": case}))
    code, out, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ": cannot read: " in err
    assert "Traceback" not in err


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


def test_one_bus_network(tmp_path, capsys):
    # no angle state: estimation is a numerical error and a random stealth
    # attack an input error, raised before any direction is drawn
    case = tmp_path / "one_bus.json"
    case.write_text(json.dumps({
        "buses": [{"id": 1, "ref": True, "v": 1.0}], "branches": [],
        "measurements": [{"kind": "injection_p", "bus": 1, "sigma": 0.01,
                          "value": 0.0}]}))
    code, _, err = run_cli(capsys, "estimate", "--case", str(case))
    assert code == 3
    assert "numerical error" in err
    scenario = tmp_path / "one_bus_random.json"
    scenario.write_text(json.dumps({
        "name": "one-bus", "case": case.name, "mode": "dc",
        "attack": {"type": "random_stealth", "magnitude": 0.01, "seed": 1}}))
    code, out, err = run_cli(capsys, "scenario", "run", str(scenario))
    assert code == 2
    assert out == ""
    assert "no columns" in err


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


def test_simulated_state_with_a_bad_bus_key_is_input_error(tmp_path, capsys):
    # a key int() refuses, and two keys for one bus, exit 2 with no traceback
    for angles in ({"1": 0.01, "\u00b2": -0.09, "3": 0.0},
                   {"1": 0.01, "2": -0.09, "02": -0.02, "3": 0.0}):
        path = tmp_path / "bad_bus_key.json"
        path.write_text(json.dumps({
            "name": "x", "case": str(THREE_BUS),
            "measurements": {"simulate": {"angles": angles, "seed": 1}}}))
        code, out, err = run_cli(capsys, "scenario", "run", str(path))
        assert code == 2
        assert out == ""
        assert "'angles'" in err


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


def test_simulated_readings_too_large_for_a_float_are_input_errors(
        tmp_path, capsys):
    path = tmp_path / "huge_angle.json"
    path.write_text(json.dumps({
        "name": "x", "case": str(THREE_BUS),
        "measurements": {"simulate": {"angles": {"1": 0.0, "2": 1e308,
                                                 "3": 0.0}, "seed": 1}}}))
    code, out, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert out == ""
    assert "h(true state) must be finite" in err


def test_negative_seeds_are_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "montecarlo", "--case", str(THREE_BUS),
                           "--trials", "3", "--seed", "-1")
    assert code == 2
    assert "seed" in err
    for fields in (
        {"measurements": {"simulate": {"angles": {"1": 0.01, "2": -0.09,
                                                  "3": 0.0}, "seed": -1}}},
        {"attack": {"type": "random_stealth", "magnitude": 0.01, "seed": -1}},
    ):
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps({"name": "x", "case": str(THREE_BUS),
                                    **fields}))
        code, _, err = run_cli(capsys, "scenario", "run", str(path))
        assert code == 2
        assert "'seed' must be a non-negative integer" in err


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


def test_each_path_builds_one_meter_model(tmp_path, capsys, monkeypatch):
    # one (network, meter set), one compiled model: the ac estimate iterates
    # the model that simulated the readings
    built = []

    class Counting(gridse.measurement.MeterModel):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gridse.measurement, "MeterModel", Counting)
    report = gridse.run_scenario(
        gridse.load_scenario(CASES_DIR / "ac_gross_error.json"))
    assert report.converged
    assert len(built) == 1

    built.clear()
    code, _, err = run_cli(capsys, "estimate", "--case",
                           str(ac_case_path(tmp_path)), "--mode", "ac")
    assert code == 0, err
    assert len(built) == 1


def test_paths_call_the_public_entry_points(tmp_path, capsys, monkeypatch):
    # a scenario simulates its readings and estimates through the public
    # functions, and so does the CLI's ac estimate, so the benchmark's
    # wrappers of the public names see every call
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(gridse.scenarios, "estimate_ac")
    counting(gridse.scenarios, "simulate_measurements")
    counting(gridse.cli, "estimate_ac")
    report = gridse.run_scenario(
        gridse.load_scenario(CASES_DIR / "ac_gross_error.json"))
    assert report.converged
    assert sorted(calls) == ["estimate_ac", "simulate_measurements"]

    calls.clear()
    code, _, err = run_cli(capsys, "estimate", "--case",
                           str(ac_case_path(tmp_path)), "--mode", "ac")
    assert code == 0, err
    assert calls == ["estimate_ac"]


def test_scenario_naming_a_case_path_with_a_nul_character_exits_2(
        tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "x", "case": "case\u0000.json"}))
    code, out, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: path must be a file path")


@pytest.mark.parametrize("argv", [
    ["estimate", "--case", "{case}"],
    ["attack", "--shift", "0.1,0.2", "--case", "{case}"],
    ["detect", "--z", "0.1,0.2,0.3", "--case", "{case}"],
    ["scenario", "run", "{scenario}"],
    ["montecarlo", "--trials", "1", "--case", "{case}"],
], ids=["estimate", "attack", "detect", "scenario-run", "montecarlo"])
def test_case_file_that_is_not_text_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "case.json"
    path.write_bytes(b"\xff\xfe{")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"name": "x", "case": "case.json"}))
    code, out, err = run_cli(capsys, *(arg.format(case=path, scenario=scenario)
                                       for arg in argv))
    assert code == 2
    assert out == ""
    assert f"{path}: not UTF-8" in err

"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import itertools
import time

import numpy as np

from gridse import (
    DetectorConfig,
    ac_jacobian,
    build_admittance,
    constrained_stealth_attack,
    craft_stealth_attack,
    dc_jacobian,
    estimate_ac,
    estimate_dc,
    free_vector,
    load_scenario,
    protection_check,
    run_detector,
    run_monte_carlo,
    run_scenario,
    simulate_measurements,
    verify_stealth,
    weights_from_config,
)
from helpers import (
    SCENARIO_FILES,
    THREE_BUS,
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
    random_observable_config,
)
from oracles import brute_force_wls, row_reduction_rank
from test_measurement import finite_difference_jacobian


def _verdict(name, check):
    try:
        check()
    except AssertionError:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_comparison_table_reproduction():
    expected = [
        ("base-case", (0.0286, -0.0943), 0.00021429, 1e-8, False),
        ("gross-errors", (0.0313, -0.0919), 0.0013, 1e-4, True),
        ("stealth-small", (0.0336, -0.0933), 0.00021429, 1e-8, False),
        ("stealth-large", (0.0386, -0.0543), 0.00021429, 1e-8, False),
    ]

    def check():
        start = time.perf_counter()
        reports = [run_scenario(load_scenario(p)) for p in SCENARIO_FILES]
        elapsed = time.perf_counter() - start
        for report, (name, state, sqerr, sqerr_tol, detected) in zip(reports,
                                                                     expected):
            assert report.name == name
            assert abs(report.state[0] - state[0]) <= 1e-4
            assert abs(report.state[1] - state[1]) <= 1e-4
            assert abs(report.squared_error_raw - sqerr) <= sqerr_tol
            assert [v.detected for v in report.verdicts] == [detected]
        assert elapsed < 1.0, f"scenario sweep took {elapsed:.3f}s"

    _verdict("criterion 1: four-scenario comparison table", check)


def test_criterion_2_attack_vector_golden_values():
    def check():
        _, _, h = load_three_bus()
        a_small = craft_stealth_attack(h, np.array([0.005, 0.001]))
        a_large = craft_stealth_attack(h, np.array([0.01, 0.04]))
        assert np.max(np.abs(a_small - np.array([0.02, 0.0125, -0.004]))) <= 1e-12
        assert np.max(np.abs(a_large - np.array([-0.15, 0.025, -0.16]))) <= 1e-12

    _verdict("criterion 2: attack-vector golden values", check)


def test_criterion_3_stealth_blindness_sweep():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        detectors = (
            DetectorConfig(method="chi_square", alpha=0.05),
            DetectorConfig(method="norm_threshold", tau=0.02),
            DetectorConfig(method="lnr"),
        )
        for _ in range(500):
            net = random_network(rng, int(rng.integers(3, 9)))
            adm = build_admittance(net)
            config = random_observable_config(rng, net, min_redundancy=1)
            h = dc_jacobian(net, adm, config)
            m, k = h.shape
            z = rng.uniform(-0.5, 0.5, size=m)
            c = rng.normal(size=k) * 0.02
            z_attacked = z + craft_stealth_attack(h, c)
            w = np.full(m, 1e4)
            clean = estimate_dc(h, z, w)
            hit = estimate_dc(h, z_attacked, w)
            assert np.max(np.abs(hit.residual - clean.residual)) <= 1e-10
            for det in detectors:
                s_clean = run_detector(det, h, z, w, clean).statistic
                s_hit = run_detector(det, h, z_attacked, w, hit).statistic
                assert abs(s_clean - s_hit) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"

    _verdict("criterion 3: stealth blindness on 500 random instances", check)


def test_criterion_4_estimator_matches_brute_force_oracle():
    def check():
        rng = np.random.default_rng(404)
        for _ in range(100):
            net = random_network(rng, int(rng.integers(3, 8)))
            adm = build_admittance(net)
            config = random_observable_config(rng, net)
            h = dc_jacobian(net, adm, config)
            z = rng.uniform(-1.0, 1.0, size=h.shape[0])
            w = rng.uniform(0.5, 2.0, size=h.shape[0]) * 1e4
            assert np.max(np.abs(estimate_dc(h, z, w).state
                                 - brute_force_wls(h, z, w))) <= 1e-10

    _verdict("criterion 4: closed-form estimator vs explicit-inverse oracle",
             check)


def test_criterion_5_ac_model_correctness():
    def check():
        rng = np.random.default_rng(505)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(3, 7)), lossy=True,
                                 shunts=True)
            config = full_ac_config(net)
            state = random_ac_state(rng, net, angle_span=0.3, mag_span=0.1)
            jac = ac_jacobian(net, state, config)
            fd = finite_difference_jacobian(net, config,
                                            free_vector(net, state, "ac"))
            assert np.max(np.abs(jac - fd)) <= 1e-6
        for _ in range(8):
            net = random_network(rng, int(rng.integers(3, 7)), lossy=True,
                                 shunts=True)
            config = full_ac_config(net)
            truth = random_ac_state(rng, net)
            z = simulate_measurements(net, truth, config, "ac", seed=0,
                                      noise_scale=0.0)
            w = weights_from_config(config)
            result = estimate_ac(net, z, config, w, tol=1e-10)
            assert result.converged
            assert np.max(np.abs(result.state
                                 - free_vector(net, truth, "ac"))) <= 1e-8

    _verdict("criterion 5: analytic Jacobian and noiseless ac round-trip",
             check)


def test_criterion_6_detector_calibration():
    def check():
        start = time.perf_counter()
        clean = run_monte_carlo(THREE_BUS, trials=2000, noise_seed_base=9000,
                                attack="none")
        assert 0.03 <= clean.false_alarm_rate <= 0.07, clean.false_alarm_rate
        attacked = run_monte_carlo(THREE_BUS, trials=2000,
                                   noise_seed_base=9000, attack="stealth",
                                   magnitude=0.01)
        pairs = zip(attacked.attacked_statistics,
                    attacked.unattacked_statistics)
        assert all(abs(a - b) <= 1e-10 for a, b in pairs)
        assert attacked.false_alarm_rate == clean.false_alarm_rate
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"calibration took {elapsed:.1f}s"

    _verdict("criterion 6: chi-square calibration and per-seed stealth "
             "identity", check)


def test_criterion_7_protection_analysis():
    def check():
        _, _, h = load_three_bus()
        assert protection_check(h, (2, 3)).protected
        for size in (0, 1, 2, 3):
            for subset in itertools.combinations((1, 2, 3), size):
                report = protection_check(h, subset)
                rows = [i - 1 for i in subset]
                oracle_rank = row_reduction_rank(h[rows, :]) if rows else 0
                assert report.protected == (oracle_rank == 2)
                assert report.residual_attack_dim == 2 - oracle_rank
        rng = np.random.default_rng(707)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(3, 8)))
            adm = build_admittance(net)
            config = random_observable_config(rng, net)
            hh = dc_jacobian(net, adm, config)
            m, k = hh.shape
            size = int(rng.integers(0, m + 1))
            subset = [int(i) + 1
                      for i in rng.choice(m, size=size, replace=False)]
            rows = [i - 1 for i in subset]
            oracle_rank = row_reduction_rank(hh[rows, :]) if rows else 0
            report = protection_check(hh, subset)
            assert report.residual_attack_dim == k - oracle_rank
            assert report.protected == (oracle_rank == k)

    _verdict("criterion 7: protected-set analysis vs rank oracle", check)


def test_criterion_8_constrained_attacks():
    def check():
        rng = np.random.default_rng(808)
        # exhaustive accessible subsets on small instances
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 5)))
            adm = build_admittance(net)
            config = random_observable_config(rng, net)
            h = dc_jacobian(net, adm, config)
            m, k = h.shape
            if m > 6:
                continue
            for size in range(m + 1):
                for accessible in itertools.combinations(range(1, m + 1), size):
                    blocked = [i - 1 for i in range(1, m + 1)
                               if i not in accessible]
                    oracle_rank = (row_reduction_rank(h[blocked, :])
                                   if blocked else 0)
                    found = constrained_stealth_attack(h, accessible)
                    if found is None:
                        assert oracle_rank == k
                        continue
                    _, a = found
                    assert oracle_rank < k
                    assert verify_stealth(h, a)
                    if blocked:
                        assert np.max(np.abs(a[blocked])) <= 1e-12
        # larger random instances: returned attacks stay stealthy and silent
        for _ in range(30):
            net = random_network(rng, int(rng.integers(4, 9)))
            adm = build_admittance(net)
            config = random_observable_config(rng, net)
            h = dc_jacobian(net, adm, config)
            m = h.shape[0]
            size = int(rng.integers(0, m + 1))
            accessible = [int(i) + 1
                          for i in rng.choice(m, size=size, replace=False)]
            found = constrained_stealth_attack(h, accessible)
            if found is None:
                continue
            _, a = found
            blocked = [i - 1 for i in range(1, m + 1) if i not in accessible]
            assert verify_stealth(h, a)
            if blocked:
                assert np.max(np.abs(a[blocked])) <= 1e-12

    _verdict("criterion 8: constrained attacks vs exhaustive rank oracle",
             check)

"""Residual tests and the three detectors.

Frozen three-bus expectations (hand derivation): the residual space is the
line spanned by (1, -2, -1.25) with squared norm 6.5625, so every normalized
residual equals |r_1| * sqrt(6.5625) / sigma. Base readings give
1.4638501094227996 on all meters; a +0.1 gross error on meter 2 gives
6.343350474165465 on all meters (single-degree redundancy forces the tie).
"""

import dataclasses

import numpy as np
import pytest

from gridse import (
    DetectorConfig,
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
    MeasurementConfig,
    MeasurementSpec,
    NoRedundancy,
    NumericallySingularOmega,
    UnobservableNetwork,
    build_admittance,
    chi_square_test,
    Branch,
    Bus,
    NetworkModel,
    craft_stealth_attack,
    dc_jacobian,
    estimate_dc,
    factor_gain,
    largest_normalized_residual,
    norm_threshold_test,
    residual,
    run_detector,
)
from helpers import load_three_bus, random_network, random_observable_config
from oracles import chi2_quantile

BASE_Z = np.array([0.62, 0.06, 0.37])
S2_Z = np.array([0.63, 0.05, 0.35])
W = np.full(3, 1e4)

BASE_RESIDUAL = (0.005714285714285714, -0.011428571428571429,
                 -0.007142857142857143)
S2_RESIDUAL = (0.014095238095238095, -0.02819047619047619,
               -0.017619047619047618)
NORM_BASE = 0.014638501094227997
NORM_S2 = 0.03610830269909573
LNR_BASE = 1.4638501094227996
LNR_GROSS = 6.343350474165465
CHI2_BASE = 2.142857142857143
CHI2_S2 = 13.038095238095236


def base_estimate(h, z=BASE_Z):
    return estimate_dc(h, z, W)


def test_residual_values():
    _, _, h = load_three_bus()
    np.testing.assert_allclose(
        residual(BASE_Z, h @ base_estimate(h).state), BASE_RESIDUAL, atol=1e-12
    )
    np.testing.assert_allclose(
        residual(S2_Z, h @ base_estimate(h, S2_Z).state), S2_RESIDUAL, atol=1e-12
    )
    np.testing.assert_array_equal(residual(BASE_Z, BASE_Z), np.zeros(3))
    with pytest.raises(LengthMismatch):
        residual(BASE_Z, np.zeros(4))


def test_norm_threshold_base_not_detected():
    _, _, h = load_three_bus()
    verdict = norm_threshold_test(base_estimate(h).residual, tau=0.02)
    assert verdict.statistic == pytest.approx(NORM_BASE, abs=1e-12)
    assert not verdict.detected


def test_norm_threshold_corrupted_detected():
    _, _, h = load_three_bus()
    verdict = norm_threshold_test(base_estimate(h, S2_Z).residual, tau=0.02)
    assert verdict.statistic == pytest.approx(NORM_S2, abs=1e-12)
    assert verdict.detected


def test_norm_threshold_zero_residual():
    verdict = norm_threshold_test(np.zeros(3), tau=1e-6)
    assert verdict.statistic == 0.0
    assert not verdict.detected


def test_chi_square_base_not_detected():
    _, _, h = load_three_bus()
    est = base_estimate(h)
    verdict = chi_square_test(BASE_Z, h @ est.state, W, state_dim=2, alpha=0.05)
    assert verdict.statistic == pytest.approx(CHI2_BASE, abs=1e-9)
    assert verdict.threshold_used == pytest.approx(chi2_quantile(0.95, 1), abs=1e-8)
    assert verdict.threshold_used == pytest.approx(3.841, abs=1e-3)
    assert not verdict.detected


def test_chi_square_corrupted_detected():
    _, _, h = load_three_bus()
    est = base_estimate(h, S2_Z)
    verdict = chi_square_test(S2_Z, h @ est.state, W, state_dim=2, alpha=0.05)
    assert verdict.statistic == pytest.approx(CHI2_S2, abs=1e-9)
    assert verdict.detected


def test_chi_square_requires_redundancy():
    with pytest.raises(NoRedundancy):
        chi_square_test(np.zeros(2), np.zeros(2), np.ones(2), state_dim=2)


def test_run_detector_takes_the_state_dimension_from_h():
    _, _, h = load_three_bus()
    est = base_estimate(h)
    detector = DetectorConfig(method="chi_square")
    verdict = run_detector(detector, h, BASE_Z, W, est)
    assert verdict == chi_square_test(BASE_Z, BASE_Z - est.residual, W,
                                      state_dim=2)
    with pytest.raises(DimensionMismatch):
        run_detector(detector, h[0], BASE_Z, W, est)


def test_chi_square_quantiles_match_oracle():
    from scipy.stats import chi2

    for dof in (1, 2, 3, 5, 8):
        for alpha in (0.01, 0.05, 0.2):
            assert chi2.ppf(1 - alpha, dof) == pytest.approx(
                chi2_quantile(1 - alpha, dof), abs=1e-8
            )


def test_lnr_base_case_ties_below_threshold():
    _, _, h = load_three_bus()
    verdict = largest_normalized_residual(h, BASE_Z, W, base_estimate(h))
    assert verdict.statistic == pytest.approx(LNR_BASE, abs=1e-9)
    assert not verdict.detected
    assert verdict.ambiguous
    assert verdict.suspect_meter == 1
    assert verdict.critical_meters == ()


def test_lnr_gross_error_detected():
    _, _, h = load_three_bus()
    z_bad = BASE_Z + np.array([0.0, 0.1, 0.0])
    verdict = largest_normalized_residual(h, z_bad, W, base_estimate(h, z_bad))
    assert verdict.statistic == pytest.approx(LNR_GROSS, abs=1e-9)
    assert verdict.detected
    assert verdict.ambiguous  # single-degree redundancy ties every meter


def test_lnr_zero_residual():
    _, _, h = load_three_bus()
    z = h @ np.array([0.03, -0.09])
    verdict = largest_normalized_residual(h, z, W, base_estimate(h, z))
    assert verdict.statistic == pytest.approx(0.0, abs=1e-9)
    assert not verdict.detected


def test_lnr_excludes_critical_meters():
    # duplicate meter 1 and keep one lone meter: the lone meter's residual
    # is structurally zero, so it must be excluded and reported
    h = np.array([[5.0, -5.0], [5.0, -5.0], [2.5, 0.0]])
    z = np.array([0.62, 0.63, 0.06])
    est = estimate_dc(h, z, W)
    verdict = largest_normalized_residual(h, z, W, est)
    assert verdict.critical_meters == (3,)
    assert verdict.suspect_meter in (1, 2)
    assert verdict.ambiguous


def test_lnr_all_critical_raises():
    # square invertible H has zero redundancy: every meter is critical
    h = np.array([[5.0, -5.0], [2.5, 0.0]])
    z = np.array([0.62, 0.06])
    est = estimate_dc(h, z, np.full(2, 1e4))
    with pytest.raises(NumericallySingularOmega):
        largest_normalized_residual(h, z, np.full(2, 1e4), est)


def test_lnr_unobservable_raises():
    h = np.array([[5.0, -5.0], [10.0, -10.0], [2.5, -2.5]])
    est_like = estimate_dc(np.array([[5.0, -5.0], [2.5, 0.0], [0.0, -4.0]]),
                           BASE_Z, W)
    with pytest.raises(UnobservableNetwork):
        largest_normalized_residual(h, BASE_Z, W, est_like)


def test_normalized_residuals_invariant_under_sigma_rescaling():
    # multiply every sigma by a common factor, with the same underlying
    # standard-normal draws: the residual r = S e and sqrt(Omega) pick up the
    # identical factor, so the normalized statistic cannot move
    from gridse import StateVector, simulate_measurements

    parsed, _, h = load_three_bus()
    truth = StateVector(angles={1: 0.03, 2: -0.09, 3: 0.0})
    reference = None
    for scale in (1.0, 0.1, 3.0, 42.0):
        z = simulate_measurements(parsed.network, truth,
                                  parsed.config, "dc", seed=77,
                                  noise_scale=scale)
        w_scaled = W / scale**2
        verdict = largest_normalized_residual(h, z, w_scaled,
                                              estimate_dc(h, z, w_scaled))
        if reference is None:
            reference = verdict.statistic
        assert verdict.statistic == pytest.approx(reference, abs=1e-10)


def test_single_redundancy_forces_equal_normalized_residuals():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 7)))
        adm = build_admittance(net)
        config = random_observable_config(rng, net, exact_redundancy=1)
        h = dc_jacobian(net, adm, config)
        z = rng.uniform(-0.5, 0.5, size=h.shape[0])
        w = np.full(h.shape[0], 1e4)
        verdict = largest_normalized_residual(h, z, w, estimate_dc(h, z, w))
        usable = [i for i in range(1, h.shape[0] + 1)
                  if i not in verdict.critical_meters]
        if verdict.statistic < 1e-9 or len(usable) < 2:
            continue
        assert verdict.ambiguous


def test_detectors_are_blind_to_stealth_shifts():
    rng = np.random.default_rng(42)
    detectors = (
        DetectorConfig(method="chi_square", alpha=0.05),
        DetectorConfig(method="norm_threshold", tau=0.02),
        DetectorConfig(method="lnr"),
    )
    for _ in range(25):
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
        np.testing.assert_allclose(hit.residual, clean.residual, atol=1e-10)
        for det in detectors:
            s_clean = run_detector(det, h, z, w, clean).statistic
            s_hit = run_detector(det, h, z_attacked, w, hit).statistic
            assert abs(s_clean - s_hit) <= 1e-10


def test_detector_config_validation():
    with pytest.raises(MalformedDocument):
        DetectorConfig(method="median")
    with pytest.raises(MalformedDocument):
        DetectorConfig(method="norm_threshold")  # tau is mandatory
    with pytest.raises(MalformedDocument):
        DetectorConfig(method="chi_square", alpha=1.5)
    with pytest.raises(MalformedDocument):
        DetectorConfig(method="chi_square", tau=0.1)
    with pytest.raises(MalformedDocument):
        DetectorConfig(method="lnr", alpha=0.05)
    assert DetectorConfig(method="chi_square").alpha == 0.05
    assert DetectorConfig(method="lnr").lnr_threshold == 3.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("method,key", [("norm_threshold", "tau"),
                                        ("lnr", "lnr_threshold")])
def test_detector_config_rejects_non_finite_thresholds(method, key, value):
    with pytest.raises(MalformedDocument):
        DetectorConfig(method=method, **{key: value})


@pytest.mark.parametrize("method,key,value", [
    ("norm_threshold", "tau", "0.1"), ("norm_threshold", "tau", True),
    ("chi_square", "alpha", "0.05"), ("chi_square", "alpha", [0.05]),
    ("lnr", "lnr_threshold", "3"), ("chi_square", "tau", "0.1"),
    pytest.param("norm_threshold", "tau", 10**400, id="huge-int-tau"),
    pytest.param("lnr", "lnr_threshold", 10**400, id="huge-int-lnr-threshold"),
])
def test_detector_config_rejects_non_numbers(method, key, value):
    with pytest.raises(MalformedDocument, match="number"):
        DetectorConfig(method=method, **{key: value})


@pytest.mark.parametrize("call", [
    lambda h, est: chi_square_test(BASE_Z, BASE_Z - est.residual, W, 2, 0.0),
    lambda h, est: chi_square_test(BASE_Z, BASE_Z - est.residual, W, 2, 2.0),
    lambda h, est: chi_square_test(BASE_Z, BASE_Z - est.residual, W, 2, "0.05"),
    lambda h, est: chi_square_test(BASE_Z, BASE_Z - est.residual, W, "2"),
    lambda h, est: norm_threshold_test(est.residual, "0.1"),
    lambda h, est: norm_threshold_test(est.residual, 0.0),
    lambda h, est: largest_normalized_residual(h, BASE_Z, W, est, "3"),
    lambda h, est: largest_normalized_residual(h, BASE_Z, W, est, float("nan")),
    lambda h, est: run_detector("lnr", h, BASE_Z, W, est),
], ids=["zero-alpha", "alpha-above-one", "string-alpha", "string-state-dim",
        "string-tau", "zero-tau", "string-lnr-threshold", "nan-lnr-threshold",
        "method-name-as-config"])
def test_detector_functions_check_their_parameters(call):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument):
        call(h, base_estimate(h))


def with_radial_bus(rng, parallel):
    """A random network plus one bus hanging off bus 1 by a single line.

    The meters are an observable random set with no injection meter at
    bus 1, plus one flow meter on the radial line, placed last: the only
    meter that sees the new bus, so it is critical.
    """
    while True:
        net = random_network(rng, int(rng.integers(4, 9)), parallel=parallel)
        n = net.n_buses
        radial = NetworkModel(
            buses=net.buses + (Bus(id=n + 1, is_reference=False),),
            branches=net.branches + (Branch(from_bus=1, to_bus=n + 1,
                                            resistance_r=0.0, reactance_x=0.2,
                                            shunt_conductance_gs=0.0,
                                            shunt_susceptance_bs=0.0),),
        )
        config = random_observable_config(rng, net, min_redundancy=3)
        specs = tuple(s for s in config.specs
                      if not (s.kind == "injection_p" and s.bus == 1))
        specs += (MeasurementSpec(kind="flow_p", from_bus=n + 1, to_bus=1,
                                  sigma=0.01),)
        h = dc_jacobian(radial, build_admittance(radial),
                        MeasurementConfig(specs=specs))
        if np.linalg.matrix_rank(h) == h.shape[1]:
            return h


def test_lnr_reports_radial_flow_meter_as_critical():
    rng = np.random.default_rng(43)
    for parallel in (0, 2, 0, 2):
        h = with_radial_bus(rng, parallel)
        m = h.shape[0]
        w = np.full(m, 1e4)
        z = rng.uniform(-0.5, 0.5, size=m)
        verdict = largest_normalized_residual(h, z, w, estimate_dc(h, z, w))
        assert m in verdict.critical_meters
        assert verdict.suspect_meter != m


def test_lnr_reuses_or_rebuilds_the_gain_factor_alike():
    rng = np.random.default_rng(44)
    for parallel in (0, 3):
        for _ in range(4):
            net = random_network(rng, int(rng.integers(4, 10)), parallel=parallel)
            config = random_observable_config(rng, net, min_redundancy=2)
            h = dc_jacobian(net, build_admittance(net), config)
            w = rng.uniform(1e3, 1e5, size=h.shape[0])
            z = rng.uniform(-0.5, 0.5, size=h.shape[0])
            est = estimate_dc(h, z, w)
            reused = largest_normalized_residual(h, z, w, est)
            rebuilt = largest_normalized_residual(
                h, z, w, dataclasses.replace(est, factor=None))
            other_w = largest_normalized_residual(
                h, z, w, factor_gain(h, 2.0 * w).estimate(z))
            assert reused == rebuilt
            assert other_w.statistic == pytest.approx(reused.statistic, rel=1e-12)

"""Residual tests and the three detectors.

Frozen three-bus expectations (hand derivation): the residual space is the
line spanned by (1, -2, -1.25) with squared norm 6.5625, so every normalized
residual equals |r_1| * sqrt(6.5625) / sigma. Base readings give
1.4638501094227996 on all meters; a +0.1 gross error on meter 2 gives
6.343350474165465 on all meters (single-degree redundancy forces the tie).
"""

import dataclasses
import math

import numpy as np
import pytest

from gridse import (
    DetectorConfig,
    InvalidArgument,
    MalformedDocument,
    MeasurementConfig,
    MeasurementSpec,
    NoRedundancy,
    NumericallySingularOmega,
    build_meter_model,
    chi_square_test,
    Branch,
    Bus,
    NetworkModel,
    craft_stealth_attack,
    estimate_ac,
    estimate_dc,
    factor_gain,
    largest_normalized_residual,
    norm_threshold_test,
    run_detector,
    run_monte_carlo,
    simulate_measurements,
    weights_from_config,
)
from helpers import (
    THREE_BUS,
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
    random_observable_config,
)
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
    # the detectors read the estimate's residual r = z - H x'
    _, _, h = load_three_bus()
    for z, expected in ((BASE_Z, BASE_RESIDUAL), (S2_Z, S2_RESIDUAL)):
        est = base_estimate(h, z)
        np.testing.assert_allclose(est.residual, expected, atol=1e-12)
        np.testing.assert_array_equal(est.residual, z - h @ est.state)


def test_norm_threshold_base_not_detected():
    _, _, h = load_three_bus()
    verdict = norm_threshold_test(base_estimate(h), tau=0.02)
    assert verdict.statistic == pytest.approx(NORM_BASE, abs=1e-12)
    assert not verdict.detected


def test_norm_threshold_corrupted_detected():
    _, _, h = load_three_bus()
    verdict = norm_threshold_test(base_estimate(h, S2_Z), tau=0.02)
    assert verdict.statistic == pytest.approx(NORM_S2, abs=1e-12)
    assert verdict.detected


def test_norm_threshold_zero_residual():
    _, _, h = load_three_bus()
    est = dataclasses.replace(base_estimate(h), residual=np.zeros(3))
    verdict = norm_threshold_test(est, tau=1e-6)
    assert verdict.statistic == 0.0
    assert not verdict.detected


def test_statistics_of_a_residual_whose_square_overflows():
    # r . r leaves float range although ||r|| (about 9.8e306) does not: the
    # norm is taken at a power-of-two scale, and a normalized residual too
    # large for a float reads inf, with no RuntimeWarning (the suite turns
    # those into errors)
    _, _, h = load_three_bus()
    est = base_estimate(h, np.array([1e308, 1e308, -1e308]))
    norm = norm_threshold_test(est, tau=1.0)
    assert norm.statistic == pytest.approx(math.hypot(*est.residual),
                                           rel=1e-15)
    assert 9e306 < norm.statistic < 1e307 and norm.detected
    lnr = largest_normalized_residual(est)
    assert lnr.statistic == np.inf and lnr.detected
    # Monte Carlo noise of sigma * 1e300 squares past float range too
    stats = run_monte_carlo(THREE_BUS, trials=2, noise_scale=1e300,
                            detector=DetectorConfig(method="norm_threshold",
                                                    tau=1.0))
    assert stats.detection_rate == 1.0
    assert all(1e297 < v < np.inf for v in stats.unattacked_statistics)


def test_chi_square_base_not_detected():
    _, _, h = load_three_bus()
    est = base_estimate(h)
    verdict = chi_square_test(est, alpha=0.05)
    assert verdict.statistic == pytest.approx(CHI2_BASE, abs=1e-9)
    assert verdict.threshold_used == pytest.approx(chi2_quantile(0.95, 1), abs=1e-8)
    assert verdict.threshold_used == pytest.approx(3.841, abs=1e-3)
    assert not verdict.detected


def test_chi_square_corrupted_detected():
    _, _, h = load_three_bus()
    est = base_estimate(h, S2_Z)
    verdict = chi_square_test(est, alpha=0.05)
    assert verdict.statistic == pytest.approx(CHI2_S2, abs=1e-9)
    assert verdict.detected


def test_chi_square_requires_redundancy():
    est = estimate_dc(np.array([[5.0, -5.0], [2.5, 0.0]]), np.zeros(2),
                      np.ones(2))
    with pytest.raises(NoRedundancy):
        chi_square_test(est)


def test_run_detector_takes_the_state_dimension_from_h():
    # the degrees of freedom are m - k of the estimate's factored H
    _, _, h = load_three_bus()
    est = base_estimate(h)
    verdict = run_detector(DetectorConfig(method="chi_square"), est)
    assert verdict == chi_square_test(est)
    assert verdict.statistic == est.objective_weighted
    assert verdict.threshold_used == pytest.approx(chi2_quantile(0.95, 1),
                                                   abs=1e-8)


def test_chi_square_quantiles_match_oracle():
    from scipy.stats import chi2

    for dof in (1, 2, 3, 5, 8):
        for alpha in (0.01, 0.05, 0.2):
            assert chi2.ppf(1 - alpha, dof) == pytest.approx(
                chi2_quantile(1 - alpha, dof), abs=1e-8
            )


@pytest.fixture(scope="module")
def chi2_estimates():
    """An estimate with m - k = dof for each dof the threshold test covers."""
    dofs = (*range(1, 201), 10**3, 10**5, 10**6)
    return {dof: estimate_dc(np.ones((dof + 1, 1)), np.zeros(dof + 1),
                             np.ones(dof + 1)) for dof in dofs}


@pytest.mark.parametrize("alpha", [1e-12, 1e-3, 0.05, 0.5, 0.999999])
def test_chi_square_threshold_is_scipy_stats_chi2_ppf_bit_for_bit(
        alpha, chi2_estimates):
    # the library takes the quantile from scipy.special; it must be the
    # number scipy.stats' chi2.ppf gives, to the last bit
    from scipy.stats import chi2

    config = DetectorConfig(method="chi_square", alpha=alpha)
    differ = [dof for dof, est in chi2_estimates.items()
              if run_detector(config, est).threshold_used.hex()
              != float(chi2.ppf(1 - alpha, dof)).hex()]
    assert differ == []


def test_lnr_base_case_ties_below_threshold():
    _, _, h = load_three_bus()
    verdict = largest_normalized_residual(base_estimate(h))
    assert verdict.statistic == pytest.approx(LNR_BASE, abs=1e-9)
    assert not verdict.detected
    assert verdict.ambiguous
    assert verdict.suspect_meter == 1
    assert verdict.critical_meters == ()


def test_lnr_gross_error_detected():
    _, _, h = load_three_bus()
    z_bad = BASE_Z + np.array([0.0, 0.1, 0.0])
    verdict = largest_normalized_residual(base_estimate(h, z_bad))
    assert verdict.statistic == pytest.approx(LNR_GROSS, abs=1e-9)
    assert verdict.detected
    assert verdict.ambiguous  # single-degree redundancy ties every meter


def test_lnr_zero_residual():
    _, _, h = load_three_bus()
    z = h @ np.array([0.03, -0.09])
    verdict = largest_normalized_residual(base_estimate(h, z))
    assert verdict.statistic == pytest.approx(0.0, abs=1e-9)
    assert not verdict.detected


# meter 1 twice and one lone meter, whose residual is structurally zero
CRITICAL_H = np.array([[5.0, -5.0], [5.0, -5.0], [2.5, 0.0]])
CRITICAL_Z = np.array([0.62, 0.63, 0.06])


def test_lnr_excludes_critical_meters():
    # the lone meter must be excluded and reported
    verdict = largest_normalized_residual(estimate_dc(CRITICAL_H, CRITICAL_Z, W))
    assert verdict.critical_meters == (3,)
    assert verdict.suspect_meter in (1, 2)
    assert verdict.ambiguous


def test_lnr_all_critical_raises():
    # square invertible H has zero redundancy: every meter is critical
    h = np.array([[5.0, -5.0], [2.5, 0.0]])
    z = np.array([0.62, 0.06])
    est = estimate_dc(h, z, np.full(2, 1e4))
    with pytest.raises(NumericallySingularOmega):
        largest_normalized_residual(est)


@pytest.mark.parametrize("sigma", [1e-7, 1e3])
def test_lnr_judges_critical_meters_at_any_sigma(sigma):
    # S_11 = S_22 = 0.5 and S_33 = 0 at every sigma, so meter 3 alone is
    # critical: a floor on Omega_ii = S_ii sigma^2 calls all three critical
    # at sigma 1e-7 and none at sigma 1e3
    verdict = largest_normalized_residual(
        estimate_dc(CRITICAL_H, CRITICAL_Z, np.full(3, sigma ** -2.0)))
    assert verdict.critical_meters == (3,)
    assert verdict.suspect_meter == 1
    assert verdict.ambiguous


def test_lnr_verdict_does_not_move_when_every_sigma_scales():
    # dividing every sigma by 2^j multiplies W by 4^j: the estimate, the
    # residual and S_ii = 1 - w_i hat_ii stay bit for bit and each
    # sqrt(Omega_ii) is divided by exactly 2^j, so the statistic is
    # multiplied by exactly 2^j and the critical meters, the suspect and
    # the tie do not move, from sigma near 1e-14 to near 1e10
    rng = np.random.default_rng(47)
    h = with_radial_bus(rng, 1)
    z = h @ rng.uniform(-0.2, 0.2, h.shape[1])
    z[0] += 0.5  # one clear suspect, tied with no other meter
    for h, z, w in ((CRITICAL_H, CRITICAL_Z, W),
                    (h, z, rng.uniform(1e3, 1e5, size=len(z)))):
        base = largest_normalized_residual(estimate_dc(h, z, w))
        for j in range(-40, 41):
            verdict = largest_normalized_residual(estimate_dc(h, z, w * 4.0 ** j))
            assert verdict.statistic == math.ldexp(base.statistic, j)
            assert (verdict.critical_meters, verdict.suspect_meter,
                    verdict.ambiguous) == (base.critical_meters,
                                           base.suspect_meter, base.ambiguous)
    assert len(z) in base.critical_meters and not base.ambiguous


def test_normalized_residuals_invariant_under_sigma_rescaling():
    # multiply every sigma by a common factor, with the same underlying
    # standard-normal draws: the residual r = S e and sqrt(Omega) pick up the
    # identical factor, so the normalized statistic cannot move
    from gridse import StateVector, simulate_measurements

    _, model, h = load_three_bus()
    truth = StateVector(angles={1: 0.03, 2: -0.09, 3: 0.0})
    reference = None
    for scale in (1.0, 0.1, 3.0, 42.0):
        z = simulate_measurements(model, truth, "dc", seed=77,
                                  noise_scale=scale)
        w_scaled = W / scale**2
        verdict = largest_normalized_residual(estimate_dc(h, z, w_scaled))
        if reference is None:
            reference = verdict.statistic
        assert verdict.statistic == pytest.approx(reference, abs=1e-10)


def test_single_redundancy_forces_equal_normalized_residuals():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 7)))
        config = random_observable_config(rng, net, exact_redundancy=1)
        h = build_meter_model(net, config).dc_matrix
        z = rng.uniform(-0.5, 0.5, size=h.shape[0])
        w = np.full(h.shape[0], 1e4)
        verdict = largest_normalized_residual(estimate_dc(h, z, w))
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
        config = random_observable_config(rng, net, min_redundancy=1)
        h = build_meter_model(net, config).dc_matrix
        m, k = h.shape
        z = rng.uniform(-0.5, 0.5, size=m)
        c = rng.normal(size=k) * 0.02
        z_attacked = z + craft_stealth_attack(h, c)
        w = np.full(m, 1e4)
        clean = estimate_dc(h, z, w)
        hit = estimate_dc(h, z_attacked, w)
        np.testing.assert_allclose(hit.residual, clean.residual, atol=1e-10)
        for det in detectors:
            s_clean = run_detector(det, clean).statistic
            s_hit = run_detector(det, hit).statistic
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
    lambda est: chi_square_test(est, 0.0),
    lambda est: chi_square_test(est, 2.0),
    lambda est: chi_square_test(est, "0.05"),
    lambda est: norm_threshold_test(est, "0.1"),
    lambda est: norm_threshold_test(est, 0.0),
    lambda est: largest_normalized_residual(est, "3"),
    lambda est: largest_normalized_residual(est, float("nan")),
    lambda est: run_detector("lnr", est),
], ids=["zero-alpha", "alpha-above-one", "string-alpha", "string-tau",
        "zero-tau", "string-lnr-threshold", "nan-lnr-threshold",
        "method-name-as-config"])
def test_detector_functions_check_their_parameters(call):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument):
        call(base_estimate(h))


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
        h = build_meter_model(radial, MeasurementConfig(specs=specs)).dc_matrix
        if np.linalg.matrix_rank(h) == h.shape[1]:
            return h


def test_lnr_reports_radial_flow_meter_as_critical():
    rng = np.random.default_rng(43)
    for parallel in (0, 2, 0, 2):
        h = with_radial_bus(rng, parallel)
        m = h.shape[0]
        w = np.full(m, 1e4)
        z = rng.uniform(-0.5, 0.5, size=m)
        verdict = largest_normalized_residual(estimate_dc(h, z, w))
        assert m in verdict.critical_meters
        assert verdict.suspect_meter != m


def lnr_by_hand(estimate):
    """Omega's diagonal, the critical meters and the LNR statistic, from
    the factor's hat diagonal and weights alone."""
    w = estimate.factor.weights
    sensitivity = 1.0 - w * estimate.factor.hat_diagonal
    omega = sensitivity / w
    usable = sensitivity > 1e-10
    normalized = np.abs(estimate.residual[usable]) / np.sqrt(omega[usable])
    critical = tuple(int(i) + 1 for i in np.flatnonzero(~usable))
    return omega, critical, float(np.max(normalized))


def test_lnr_terms_cached_on_a_shared_factor_match_a_by_hand_computation():
    rng = np.random.default_rng(46)
    h = with_radial_bus(rng, 1)
    m = h.shape[0]
    factor = factor_gain(h, rng.uniform(1e3, 1e5, size=m))
    first, second = (factor.estimate(rng.uniform(-0.5, 0.5, size=m))
                     for _ in range(2))
    for estimate in (first, first, second, first, second):
        omega, critical, statistic = lnr_by_hand(estimate)
        verdict = largest_normalized_residual(estimate)
        assert verdict.statistic == statistic
        assert verdict.critical_meters == critical
        assert m in critical
        np.testing.assert_array_equal(factor.omega_terms[0], omega)
    assert first.factor.omega_terms is second.factor.omega_terms
    assert not any(array.flags.writeable for array in
                   (factor.omega_terms[0], factor.omega_terms[2],
                    factor.omega_terms[3]))


def test_lnr_all_critical_raises_on_every_call():
    # the cached terms must not let a second call past the check
    h = np.array([[5.0, -5.0], [2.5, 0.0]])
    factor = factor_gain(h, np.full(2, 1e4))
    for z in ([0.62, 0.06], [0.62, 0.06], [0.1, 0.2]):
        with pytest.raises(NumericallySingularOmega):
            largest_normalized_residual(factor.estimate(np.array(z)))
    assert factor.omega_terms[1] == (1, 2)


def test_lnr_reuses_or_rebuilds_the_gain_factor_alike():
    rng = np.random.default_rng(44)
    for parallel in (0, 3):
        for _ in range(4):
            net = random_network(rng, int(rng.integers(4, 10)), parallel=parallel)
            config = random_observable_config(rng, net, min_redundancy=2)
            h = build_meter_model(net, config).dc_matrix
            w = rng.uniform(1e3, 1e5, size=h.shape[0])
            z = rng.uniform(-0.5, 0.5, size=h.shape[0])
            reused = largest_normalized_residual(estimate_dc(h, z, w))
            rebuilt = largest_normalized_residual(factor_gain(h, w).estimate(z))
            assert reused == rebuilt
            # 2 W is sigma / sqrt(2) on every meter: the residual and the
            # ranking stay, each normalized residual grows by sqrt(2)
            other_w = largest_normalized_residual(
                factor_gain(h, 2.0 * w).estimate(z))
            assert other_w.statistic == pytest.approx(
                np.sqrt(2.0) * reused.statistic, rel=1e-12)
            assert other_w.suspect_meter == reused.suspect_meter


def test_detectors_factor_no_gain(monkeypatch):
    # every detector reads the gain factor the estimate carries, dc or ac
    import gridse.baddata

    _, _, h = load_three_bus()
    rng = np.random.default_rng(45)
    net = random_network(rng, 5, lossy=True)
    model = build_meter_model(net, full_ac_config(net))
    z = simulate_measurements(model, random_ac_state(rng, net), "ac", seed=8)
    estimates = (base_estimate(h, S2_Z),
                 estimate_ac(model, z, weights_from_config(model.config)))

    def refuse(*args):
        raise AssertionError("a detector factored a gain")

    monkeypatch.setattr("gridse.estimation.factor_gain", refuse)
    monkeypatch.setattr("gridse.estimation._pivoted_gain", refuse)
    assert not hasattr(gridse.baddata, "factor_gain")
    for est in estimates:
        for det in (DetectorConfig(method="chi_square"),
                    DetectorConfig(method="norm_threshold", tau=0.02),
                    DetectorConfig(method="lnr")):
            assert run_detector(det, est).method == det.method

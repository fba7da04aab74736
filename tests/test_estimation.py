"""Linear and Gauss-Newton WLS estimation.

Frozen three-bus expectations were computed by hand from the normal
equations (gain [[31.25, -25], [-25, 41]], determinant 656.25):

    base readings (0.62, 0.06, 0.37):
        state (1/35, -33/350), residual (1/175, -2/175, -1/140),
        squared error 3/14000, weighted objective 15/7
    corrupted readings (0.63, 0.05, 0.35):
        state (3284/105000, -193/2100),
        residual (148, -296, -185)/10500, squared error 143745/110250000
"""

import numpy as np
import pytest

from gridse import (
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    UnobservableNetwork,
    build_admittance,
    dc_jacobian,
    estimate_ac,
    estimate_dc,
    factor_gain,
    flat_state,
    free_vector,
    simulate_measurements,
    weighted_objective,
    weights_from_config,
)
from helpers import (
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
    random_observable_config,
)
from oracles import brute_force_wls

BASE_Z = np.array([0.62, 0.06, 0.37])
BASE_STATE = (0.02857142857142857, -0.09428571428571429)
BASE_RESIDUAL = (0.005714285714285714, -0.011428571428571429,
                 -0.007142857142857143)
BASE_SQERR = 0.00021428571428571427
BASE_OBJECTIVE = 2.142857142857143

S2_Z = np.array([0.63, 0.05, 0.35])
S2_STATE = (0.03127619047619048, -0.0919047619047619)
S2_SQERR = 0.0013038095238095237


def test_estimate_dc_base_case():
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    result = estimate_dc(h, BASE_Z, w)
    np.testing.assert_allclose(result.state, BASE_STATE, atol=1e-12)
    np.testing.assert_allclose(result.residual, BASE_RESIDUAL, atol=1e-12)
    assert result.squared_error_raw == pytest.approx(BASE_SQERR, abs=1e-14)
    assert result.squared_error_raw == pytest.approx(0.00021429, abs=1e-8)
    assert result.objective_weighted == pytest.approx(BASE_OBJECTIVE, abs=1e-9)
    assert abs(result.state[0] - 0.0286) < 5e-5
    assert abs(result.state[1] + 0.0943) < 5e-5
    assert result.converged and result.iterations == 1


def test_estimate_dc_corrupted_case():
    _, _, h = load_three_bus()
    result = estimate_dc(h, S2_Z, np.full(3, 1e4))
    np.testing.assert_allclose(result.state, S2_STATE, atol=1e-12)
    assert result.squared_error_raw == pytest.approx(S2_SQERR, abs=1e-14)
    assert result.squared_error_raw == pytest.approx(0.0013, abs=1e-4)
    assert abs(result.state[0] - 0.0313) < 5e-5
    assert abs(result.state[1] + 0.0919) < 5e-5


def test_estimate_dc_exact_data_round_trip():
    rng = np.random.default_rng(31)
    _, _, h = load_three_bus()
    for _ in range(5):
        x = rng.uniform(-0.2, 0.2, size=2)
        result = estimate_dc(h, h @ x, np.full(3, 1e4))
        np.testing.assert_allclose(result.state, x, atol=1e-12)
        np.testing.assert_allclose(result.residual, 0.0, atol=1e-12)


def test_estimate_dc_rejects_rank_deficient_h():
    h = np.array([[5.0, -5.0], [2.5, -2.5], [1.0, -1.0]])  # rank 1
    with pytest.raises(UnobservableNetwork):
        estimate_dc(h, np.zeros(3), np.ones(3))


def test_estimate_dc_shape_checks():
    _, _, h = load_three_bus()
    with pytest.raises(DimensionMismatch):
        estimate_dc(h, np.zeros(4), np.ones(4))
    with pytest.raises(DimensionMismatch):
        estimate_dc(h, np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        estimate_dc(h, np.zeros(3), np.array([1.0, -1.0, 1.0]))
    # entries that are not numbers, ragged rows and ints too large for a
    # float, in z, the weights or H
    w = [1.0, 1.0, 1.0]
    for bad in ("x", [0.0], 10**400):
        for args in (([0.0, bad, 0.0], w), ([0.0] * 3, [1.0, bad, 1.0])):
            with pytest.raises(InvalidArgument):
                estimate_dc(h, *args)
        with pytest.raises(InvalidArgument):
            estimate_dc([[5.0, -5.0], [bad, 0.0], [0.0, -4.0]], np.zeros(3), w)
        with pytest.raises(InvalidArgument):
            factor_gain([[5.0, -5.0], [bad, 0.0], [0.0, -4.0]], w)


def test_estimate_dc_matches_brute_force_inversion():
    rng = np.random.default_rng(32)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(3, 8)))
        adm = build_admittance(net)
        config = random_observable_config(rng, net)
        from gridse import dc_jacobian
        h = dc_jacobian(net, adm, config)
        z = rng.uniform(-1, 1, size=len(config))
        w = rng.uniform(0.5, 2.0, size=len(config)) * 1e4
        result = estimate_dc(h, z, w)
        np.testing.assert_allclose(result.state, brute_force_wls(h, z, w),
                                   atol=1e-10)


def test_normal_equation_optimality():
    # first-order condition at the minimizer: H^T W r = 0
    _, _, h = load_three_bus()
    unit = estimate_dc(h, BASE_Z, np.ones(3))
    assert np.max(np.abs(h.T @ unit.residual)) <= 1e-10
    w = np.full(3, 1e4)
    weighted = estimate_dc(h, BASE_Z, w)
    assert np.max(np.abs(h.T @ (w * weighted.residual))) <= 1e-10 * np.max(w)


def test_perturbation_optimality():
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    result = estimate_dc(h, BASE_Z, w)
    at_min = weighted_objective(BASE_Z, h @ result.state, w)
    rng = np.random.default_rng(33)
    for _ in range(100):
        step = rng.normal(size=2)
        step = step / np.linalg.norm(step) * 1e-3
        perturbed = weighted_objective(BASE_Z, h @ (result.state + step), w)
        assert perturbed >= at_min


def test_weight_scaling_leaves_the_state_unchanged():
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    base = estimate_dc(h, BASE_Z, w)
    scaled = estimate_dc(h, BASE_Z, w * 6.25)
    np.testing.assert_allclose(scaled.state, base.state, atol=1e-14)


def test_weighted_objective_values():
    w = np.full(3, 1e4)
    r = np.array(BASE_RESIDUAL)
    assert weighted_objective(r, np.zeros(3), w) == pytest.approx(
        BASE_OBJECTIVE, abs=1e-9
    )
    assert weighted_objective(BASE_Z, BASE_Z, w) == 0.0
    # unit weights reduce the objective to the raw squared error
    assert weighted_objective(r, np.zeros(3), np.ones(3)) == pytest.approx(
        BASE_SQERR, abs=1e-16
    )
    with pytest.raises(LengthMismatch):
        weighted_objective(BASE_Z, np.zeros(4), w)


def test_estimate_ac_recovers_noiseless_state():
    rng = np.random.default_rng(34)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 7)), lossy=True, shunts=True)
        config = full_ac_config(net)
        truth = random_ac_state(rng, net)
        z = simulate_measurements(net, truth, config, "ac", seed=0,
                                  noise_scale=0.0)
        w = weights_from_config(config)
        result = estimate_ac(net, z, config, w, tol=1e-10)
        assert result.converged
        assert np.max(np.abs(result.state - free_vector(net, truth, "ac"))) <= 1e-8


def test_estimate_ac_agrees_with_linear_angles():
    # lossless flows plus tight voltage pins reproduce the linear solution
    from gridse import MeasurementConfig, MeasurementSpec

    parsed, _, _ = load_three_bus()
    specs = parsed.config.specs + tuple(
        MeasurementSpec(kind="voltage_magnitude", bus=b, sigma=1e-4)
        for b in (1, 2, 3)
    )
    config = MeasurementConfig(specs=specs)
    z = np.concatenate([BASE_Z, np.ones(3)])
    result = estimate_ac(parsed.network, z, config,
                         weights_from_config(config))
    assert result.converged
    assert result.state[0] == pytest.approx(BASE_STATE[0], rel=0.02)
    assert result.state[1] == pytest.approx(BASE_STATE[1], rel=0.02)


def test_estimate_ac_zero_iterations_returns_start():
    parsed, _, _ = load_three_bus()
    config = full_ac_config(parsed.network)
    truth = flat_state(parsed.network)
    z = simulate_measurements(parsed.network, truth, config, "ac",
                              seed=1, noise_scale=0.0)
    w = weights_from_config(config)
    result = estimate_ac(parsed.network, z + 0.05, config, w, max_iter=0)
    assert not result.converged
    assert result.iterations == 0
    np.testing.assert_array_equal(
        result.state, free_vector(parsed.network, truth, "ac")
    )


@pytest.mark.parametrize("bad", [
    {"max_iter": -1}, {"max_iter": 1.5},
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
    {"tol": "1e-8"}, {"tol": True}, {"max_iter": True}, {"init": "x"},
], ids=["negative-max-iter", "fractional-max-iter", "zero-tol", "negative-tol",
        "nan-tol", "inf-tol", "string-tol", "bool-tol", "bool-max-iter",
        "string-init"])
def test_estimate_ac_checks_its_arguments_up_front(bad, monkeypatch):
    parsed, _, _ = load_three_bus()
    config = full_ac_config(parsed.network)
    z = simulate_measurements(parsed.network, flat_state(parsed.network),
                              config, "ac", seed=1, noise_scale=0.0)

    def refuse(*args):
        raise AssertionError("a gain was factored")

    monkeypatch.setattr("gridse.estimation.factor_gain", refuse)
    with pytest.raises(InvalidArgument):
        estimate_ac(parsed.network, z, config, weights_from_config(config),
                    **bad)


def test_estimate_ac_unobservable_raises():
    from gridse import MeasurementConfig, MeasurementSpec

    parsed, _, _ = load_three_bus()
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="voltage_magnitude", bus=1, sigma=0.01),
    ))
    with pytest.raises(UnobservableNetwork):
        estimate_ac(parsed.network, np.array([1.0]), config, np.array([1e4]))


def test_gauss_newton_fixed_point():
    # one extra iteration after convergence moves the state by less than tol
    rng = np.random.default_rng(35)
    net = random_network(rng, 4, lossy=True)
    config = full_ac_config(net)
    truth = random_ac_state(rng, net)
    z = simulate_measurements(net, truth, config, "ac", seed=5)
    w = weights_from_config(config)
    tol = 1e-8
    first = estimate_ac(net, z, config, w, tol=tol)
    assert first.converged
    from gridse import state_from_free
    resumed = estimate_ac(net, z, config, w,
                          init=state_from_free(net, first.state, "ac"),
                          max_iter=1)
    assert resumed.converged
    assert np.max(np.abs(resumed.state - first.state)) < tol


def random_dc_problem(seed, parallel=0, min_redundancy=2):
    rng = np.random.default_rng(seed)
    net = random_network(rng, int(rng.integers(4, 10)), parallel=parallel)
    config = random_observable_config(rng, net, min_redundancy=min_redundancy)
    h = dc_jacobian(net, build_admittance(net), config)
    w = rng.uniform(1e3, 1e5, size=h.shape[0])
    return rng, h, w


def test_hat_diagonal_matches_explicit_projector():
    for seed in range(6):
        for parallel in (0, 3):
            _, h, w = random_dc_problem(seed, parallel)
            gain = h.T @ (w[:, None] * h)
            hat = np.diag(h @ np.linalg.solve(gain, h.T))
            factor = factor_gain(h, w)
            np.testing.assert_allclose(factor.hat_diagonal, hat, rtol=1e-10)
            omega = (1.0 - w * factor.hat_diagonal) / w
            omega_ref = (1.0 - w * hat) / w
            np.testing.assert_allclose(omega, omega_ref, rtol=1e-10,
                                       atol=1e-12 * float(np.max(1.0 / w)))


def test_factor_estimate_is_estimate_dc():
    for seed in range(4):
        rng, h, w = random_dc_problem(seed, parallel=2)
        z = rng.uniform(-0.5, 0.5, size=h.shape[0])
        factor = factor_gain(h, w)
        direct = estimate_dc(h, z, w)
        reused = factor.estimate(z)
        np.testing.assert_array_equal(direct.state, reused.state)
        np.testing.assert_array_equal(direct.residual, reused.residual)
        assert direct.condition == reused.condition == factor.condition
        assert direct.factor.matches(h, w)
        np.testing.assert_allclose(direct.state, brute_force_wls(h, z, w),
                                   atol=1e-10)


def test_condition_estimate_tracks_one_norm_condition():
    for seed in range(4):
        _, h, w = random_dc_problem(seed)
        gain = h.T @ (w[:, None] * h)
        exact = np.linalg.cond(gain, 1)
        # LAPACK's estimate never exceeds the 1-norm condition number
        assert exact / 10 <= factor_gain(h, w).condition <= exact * (1 + 1e-9)


def scaled_first_column(h, w, target):
    """H with its first column scaled so the gain's 1-norm condition number
    lands near target; returns it with that condition number."""
    base = np.linalg.cond(h.T @ (w[:, None] * h), 1)
    scaled = h.copy()
    scaled[:, 0] *= np.sqrt(target / base)
    return scaled, np.linalg.cond(scaled.T @ (w[:, None] * scaled), 1)


def test_condition_guard_threshold():
    for seed in range(3):
        _, h, w = random_dc_problem(seed, parallel=1)
        ill, cond = scaled_first_column(h, w, 1e13)
        assert cond > 1e12
        with pytest.raises(UnobservableNetwork):
            factor_gain(ill, w)
        with pytest.raises(UnobservableNetwork):
            estimate_dc(ill, np.zeros(h.shape[0]), w)
        usable, cond = scaled_first_column(h, w, 1e10)
        assert 1e9 < cond < 1e11
        assert 1e9 < factor_gain(usable, w).condition < 1e11


def test_condition_guard_rejects_rank_deficiency():
    _, h, w = random_dc_problem(11)
    deficient = h.copy()
    deficient[:, 1] = deficient[:, 0]
    with pytest.raises(UnobservableNetwork):
        factor_gain(deficient, w)
    deficient[:, 1] = 0.0
    with pytest.raises(UnobservableNetwork):
        factor_gain(deficient, w)


def test_factor_rejects_non_finite_input():
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    with pytest.raises(InvalidArgument):
        estimate_dc(h, np.array([0.62, np.nan, 0.37]), w)
    with pytest.raises(UnobservableNetwork), np.errstate(invalid="ignore"):
        factor_gain(np.where(h == 0.0, np.inf, h), w)


def test_estimate_ac_reports_last_step_condition():
    rng = np.random.default_rng(36)
    net = random_network(rng, 5, lossy=True, parallel=1)
    config = full_ac_config(net)
    truth = random_ac_state(rng, net)
    z = simulate_measurements(net, truth, config, "ac", seed=6)
    w = weights_from_config(config)
    result = estimate_ac(net, z, config, w)
    assert result.converged
    assert result.factor is not None
    assert result.condition == result.factor.condition
    assert 1.0 <= result.condition < 1e12
    assert estimate_ac(net, z, config, w, max_iter=0).condition is None

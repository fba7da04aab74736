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

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import gridse.estimation
from gridse import (
    DimensionMismatch,
    InvalidArgument,
    MeasurementConfig,
    MeasurementSpec,
    UnobservableNetwork,
    build_meter_model,
    estimate_ac,
    estimate_dc,
    factor_gain,
    flat_state,
    free_vector,
    largest_normalized_residual,
    simulate_measurements,
    weights_from_config,
)
from gridse.estimation import _lead_norms, _pivoted_gain
from gridse.measurement import RowPattern
from helpers import (
    dc_meter_candidates,
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
    random_observable_config,
)
from oracles import (
    brute_force_wls,
    dense_gain,
    dense_hat_diagonal,
    pivoted_gain_with_copies,
)

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
        config = random_observable_config(rng, net)
        h = build_meter_model(net, config).dc_matrix
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

    def objective(x):
        r = BASE_Z - h @ x
        return float(w @ (r * r))

    at_min = result.objective_weighted
    rng = np.random.default_rng(33)
    for _ in range(100):
        step = rng.normal(size=2)
        step = step / np.linalg.norm(step) * 1e-3
        assert objective(result.state + step) >= at_min


def test_weight_scaling_leaves_the_state_unchanged():
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    base = estimate_dc(h, BASE_Z, w)
    scaled = estimate_dc(h, BASE_Z, w * 6.25)
    np.testing.assert_allclose(scaled.state, base.state, atol=1e-14)


def test_weighted_objective_values():
    # objective_weighted is sum_i w_i r_i^2 over the estimate's residual
    _, _, h = load_three_bus()
    w = np.full(3, 1e4)
    result = estimate_dc(h, BASE_Z, w)
    assert result.objective_weighted == pytest.approx(BASE_OBJECTIVE, abs=1e-9)
    assert result.objective_weighted == float(w @ (result.residual ** 2))
    # unit weights reduce the objective to the raw squared error
    unit = estimate_dc(h, BASE_Z, np.ones(3))
    assert unit.objective_weighted == pytest.approx(BASE_SQERR, abs=1e-16)
    assert unit.objective_weighted == pytest.approx(unit.squared_error_raw,
                                                    rel=1e-15)


def test_estimate_ac_recovers_noiseless_state():
    rng = np.random.default_rng(34)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 7)), lossy=True, shunts=True)
        model = build_meter_model(net, full_ac_config(net))
        truth = random_ac_state(rng, net)
        z = simulate_measurements(model, truth, "ac", seed=0, noise_scale=0.0)
        w = weights_from_config(model.config)
        result = estimate_ac(model, z, w, tol=1e-10)
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
    result = estimate_ac(build_meter_model(parsed.network, config), z,
                         weights_from_config(config))
    assert result.converged
    assert result.state[0] == pytest.approx(BASE_STATE[0], rel=0.02)
    assert result.state[1] == pytest.approx(BASE_STATE[1], rel=0.02)


def test_estimate_ac_zero_iterations_returns_start():
    parsed, _, _ = load_three_bus()
    model = build_meter_model(parsed.network, full_ac_config(parsed.network))
    truth = flat_state(parsed.network)
    z = simulate_measurements(model, truth, "ac", seed=1, noise_scale=0.0)
    w = weights_from_config(model.config)
    result = estimate_ac(model, z + 0.05, w, max_iter=0)
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
    model = build_meter_model(parsed.network, full_ac_config(parsed.network))
    z = simulate_measurements(model, flat_state(parsed.network), "ac", seed=1,
                              noise_scale=0.0)

    def refuse(*args):
        raise AssertionError("a gain was factored")

    monkeypatch.setattr("gridse.estimation.factor_gain", refuse)
    with pytest.raises(InvalidArgument):
        estimate_ac(model, z, weights_from_config(model.config), **bad)


def test_estimate_ac_rejects_a_reading_too_large_to_square(monkeypatch):
    # r * r overflows at the flat start: InvalidArgument, the error a solve
    # of non-finite values raises, before any gain is factored and with no
    # RuntimeWarning (the suite turns those into errors)
    parsed, _, _ = load_three_bus()
    model = build_meter_model(parsed.network, full_ac_config(parsed.network))
    z = simulate_measurements(model, flat_state(parsed.network), "ac", seed=1,
                              noise_scale=0.0)
    z[0] = 1e308

    def refuse(*args):
        raise AssertionError("a gain was factored")

    monkeypatch.setattr("gridse.estimation.factor_gain", refuse)
    with pytest.raises(InvalidArgument, match="not finite"):
        estimate_ac(model, z, weights_from_config(model.config))


@pytest.mark.parametrize("z", [
    [1.7e308, -1.7e308, 1.7e308], [-1.79e308, 1.79e308, 1.79e308],
], ids=["hx-overflows", "z-minus-hx-overflows"])
def test_estimate_dc_rejects_a_residual_too_large_for_a_float(z):
    # the solve is finite, but H x or z - H x leaves float range:
    # InvalidArgument, the error a solve of non-finite values raises, with
    # no RuntimeWarning (the suite turns those into errors)
    _, _, h = load_three_bus()
    weights = np.full(3, 1e4)
    for estimate in (lambda: estimate_dc(h, np.array(z), weights),
                     lambda: factor_gain(h, weights).estimate(z)):
        with pytest.raises(InvalidArgument, match="residual z - Hx is not finite"):
            estimate()
    # readings whose residual only squares past float range still estimate
    assert estimate_dc(h, np.array([1e308, 1e308, -1e308]),
                       weights).objective_weighted == np.inf


def test_estimate_ac_unobservable_raises():
    from gridse import MeasurementConfig, MeasurementSpec

    parsed, _, _ = load_three_bus()
    model = build_meter_model(parsed.network, MeasurementConfig(specs=(
        MeasurementSpec(kind="voltage_magnitude", bus=1, sigma=0.01),
    )))
    with pytest.raises(UnobservableNetwork):
        estimate_ac(model, np.array([1.0]), np.array([1e4]))
    # the start's gain is factored for the result even when no step runs
    with pytest.raises(UnobservableNetwork):
        estimate_ac(model, np.array([1.0]), np.array([1e4]), max_iter=0)


def test_gauss_newton_fixed_point():
    # one extra iteration after convergence moves the state by less than tol
    rng = np.random.default_rng(35)
    net = random_network(rng, 4, lossy=True)
    model = build_meter_model(net, full_ac_config(net))
    truth = random_ac_state(rng, net)
    z = simulate_measurements(model, truth, "ac", seed=5)
    w = weights_from_config(model.config)
    tol = 1e-8
    first = estimate_ac(model, z, w, tol=tol)
    assert first.converged
    from gridse import state_from_free
    resumed = estimate_ac(model, z, w,
                          init=state_from_free(net, first.state, "ac"),
                          max_iter=1)
    assert resumed.converged
    assert np.max(np.abs(resumed.state - first.state)) < tol


def random_dc_problem(seed, parallel=0, min_redundancy=2):
    rng = np.random.default_rng(seed)
    net = random_network(rng, int(rng.integers(4, 10)), parallel=parallel)
    config = random_observable_config(rng, net, min_redundancy=min_redundancy)
    h = build_meter_model(net, config).dc_matrix
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


def narrow_meters(network, ac):
    """Every branch flow at both ends (p and q for ac) and every voltage
    magnitude for ac, plus the injections at the buses whose rows have w
    nonzeros with w^2 <= k: an observable set whose H takes the row
    pattern."""
    neighbours = {bus.id: {bus.id} for bus in network.buses}
    for br in network.branches:
        neighbours[br.from_bus].add(br.to_bus)
        neighbours[br.to_bus].add(br.from_bus)
    per_bus = 2 if ac else 1
    k = per_bus * network.n_buses - 1
    kinds = ("p", "q") if ac else ("p",)
    specs = [MeasurementSpec(kind=f"flow_{q}", from_bus=i, to_bus=j, sigma=0.01)
             for br in network.branches
             for i, j in ((br.from_bus, br.to_bus), (br.to_bus, br.from_bus))
             for q in kinds]
    specs += [MeasurementSpec(kind=f"injection_{q}", bus=bus, sigma=0.01)
              for bus, near in neighbours.items()
              if (per_bus * len(near)) ** 2 <= k for q in kinds]
    if ac:
        specs += [MeasurementSpec(kind="voltage_magnitude", bus=bus.id,
                                  sigma=0.01) for bus in network.buses]
    return MeasurementConfig(specs=tuple(specs))


def assert_factor_matches_dense_oracle(h, w, pattern):
    """factor_gain(h, w) took the row pattern or not as asked, and its gain
    (P U^T U P^T, unscaled) and hat diagonal agree with the dense oracle's
    to 1e-10 relative."""
    factor = factor_gain(h, w)
    assert (factor.pattern is not None) == pattern
    k = h.shape[1]
    u = np.triu(factor.upper)
    gain = np.empty((k, k))
    gain[np.ix_(factor.piv, factor.piv)] = u.T @ u
    gain *= np.ldexp(w / factor.scale, factor.shift)[0]  # 2^(e + 2 shift)
    expected = dense_gain(h, w)
    assert np.max(np.abs(gain - expected)) <= 1e-10 * np.max(np.abs(expected))
    np.testing.assert_allclose(factor.hat_diagonal, dense_hat_diagonal(h, w),
                               rtol=1e-10, atol=0.0)


def test_row_pattern_gain_and_hat_diagonal_match_the_dense_oracle():
    rng = np.random.default_rng(39)
    for n in (30, 60, 120, 300):
        net = random_network(rng, n)
        config = narrow_meters(net, ac=False)
        h = build_meter_model(net, config).dc_matrix
        w = weights_from_config(config) * rng.uniform(0.5, 4.0, h.shape[0])
        assert_factor_matches_dense_oracle(h, w, pattern=True)
    # the ac Jacobian of a 60-bus lossy grid, away from the flat start
    net = random_network(rng, 60, lossy=True, shunts=True)
    config = narrow_meters(net, ac=True)
    x = free_vector(net, random_ac_state(rng, net), "ac")
    h = build_meter_model(net, config).jacobian(x)
    assert_factor_matches_dense_oracle(h, weights_from_config(config),
                                       pattern=True)
    # dense random H, and the rule's edge: widest row w = 3 with w^2 = k
    # takes the row pattern and with w^2 = k + 1 the dense product
    for k, pattern in ((5, False), (9, True), (8, False)):
        h = rng.normal(size=(3 * k, k))
        if k != 5:
            for row in h:
                row[rng.permutation(k)[3:]] = 0.0
        assert_factor_matches_dense_oracle(h, rng.uniform(0.5, 2.0, 3 * k),
                                           pattern)


def test_gain_edge_cases_on_both_paths():
    rng = np.random.default_rng(40)
    sparse = np.zeros((20, 9))
    for row in sparse:
        row[rng.permutation(9)[:3]] = rng.normal(size=3)
    dense = rng.normal(size=(20, 4))
    for h, pattern in ((sparse, True), (dense, False)):
        w = rng.uniform(0.5, 2.0, len(h))
        # meters that read nothing add nothing: to the gain, and their own
        # hat diagonal entries are zero
        padded = np.vstack([h[:5], np.zeros((3, h.shape[1])), h[5:]])
        factor = factor_gain(padded, np.insert(w, 5, [1.0, 2.0, 4.0]))
        assert (factor.pattern is not None) == pattern
        np.testing.assert_array_equal(factor.hat_diagonal[5:8], 0.0)
        np.testing.assert_allclose(np.delete(factor.hat_diagonal, [5, 6, 7]),
                                   dense_hat_diagonal(h, w), rtol=1e-10)
        # a state no meter reads: rank k - 1, and factor_gain refuses it
        blind = h.copy()
        blind[:, 1] = 0.0
        assert _pivoted_gain(blind, w).rank == h.shape[1] - 1
        with pytest.raises(UnobservableNetwork):
            factor_gain(blind, w)
        # NaN and inf are nonzero, so they reach the finiteness check; each
        # replaces a nonzero, so the pattern's width stays
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = h.copy()
            poisoned[3, np.flatnonzero(h[3])[0]] = bad
            with pytest.raises(UnobservableNetwork, match="not finite"):
                _pivoted_gain(poisoned, w)
    # an all-zero H and an H with no rows: no products to sum, rank 0
    for h in (np.zeros((4, 3)), np.zeros((0, 3))):
        factor = _pivoted_gain(h, np.ones(len(h)))
        assert factor.rank == 0 and factor.upper.dtype == float
        with pytest.raises(UnobservableNetwork):
            factor_gain(h, np.ones(len(h)))


def test_factor_estimate_is_estimate_dc():
    for seed in range(4):
        rng, h, w = random_dc_problem(seed, parallel=2)
        z = rng.uniform(-0.5, 0.5, size=h.shape[0])
        factor = factor_gain(h, w)
        direct = estimate_dc(h, z, w)
        reused = factor.estimate(z)
        np.testing.assert_array_equal(direct.state, reused.state)
        np.testing.assert_array_equal(direct.residual, reused.residual)
        assert reused.factor is factor
        assert direct.factor.condition == factor.condition
        np.testing.assert_array_equal(direct.factor.h, h)
        np.testing.assert_array_equal(direct.factor.weights, w)
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


def test_estimate_is_exact_under_power_of_two_scaling():
    # the gain is scaled by powers of two before it is formed, so scaling H
    # and z by 2^s moves no bit of the state, even where H^T W H or the
    # squared residual would leave float range
    rng = np.random.default_rng(38)
    for n in (3, 12):
        net = random_network(rng, n)
        config = random_observable_config(rng, net)
        h = build_meter_model(net, config).dc_matrix
        z = h @ rng.normal(0.0, 0.1, n - 1) + rng.normal(0.0, 0.01, h.shape[0])
        w = weights_from_config(config) * rng.uniform(0.5, 4.0, h.shape[0])
        base = estimate_dc(h, z, w)
        for s in (520, -520, 3):
            scaled = estimate_dc(np.ldexp(h, s), np.ldexp(z, s), w)
            np.testing.assert_array_equal(scaled.state, base.state)
            np.testing.assert_array_equal(scaled.residual, np.ldexp(base.residual, s))


def test_estimate_ac_reports_last_step_condition():
    rng = np.random.default_rng(36)
    net = random_network(rng, 5, lossy=True, parallel=1)
    model = build_meter_model(net, full_ac_config(net))
    truth = random_ac_state(rng, net)
    z = simulate_measurements(model, truth, "ac", seed=6)
    w = weights_from_config(model.config)
    result = estimate_ac(model, z, w)
    assert result.converged
    assert 1.0 <= result.factor.condition < 1e12
    # the factor is the gain at the returned state, converged or not: at
    # the solution, at the best of a capped run and at an unmoved start
    capped = estimate_ac(model, z, w, max_iter=1)
    start = estimate_ac(model, z, w, max_iter=0)
    assert not capped.converged and not start.converged
    assert start.iterations == 0
    np.testing.assert_array_equal(start.state,
                                  free_vector(net, flat_state(net), "ac"))
    for est in (result, capped, start):
        np.testing.assert_array_equal(est.factor.h, model.jacobian(est.state))
        np.testing.assert_array_equal(est.factor.weights, w)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def all_meters_h(rng, n):
    """The dc H of every flow (both ends) and injection meter of a seeded
    random n-bus grid."""
    net = random_network(rng, n)
    config = MeasurementConfig(specs=tuple(dc_meter_candidates(net)))
    return build_meter_model(net, config).dc_matrix


def assert_factor_is_the_oracles(h, w):
    """_pivoted_gain(h, w) equals the copying oracle's factor bit for bit
    in rank, piv, the leading rank rows of upper and, at full rank, the hat
    diagonal; its condition estimate to 1e-12 (pocon is not reproducible in
    its last bit at some sizes). Returns whether it has full rank and
    whether its gain was summed from the row pattern."""
    new, old = _pivoted_gain(h, w), pivoted_gain_with_copies(h, w)
    assert new.rank == old.rank
    assert new.piv.tolist() == old.piv.tolist()
    assert hexes(new.upper[:new.rank]) == hexes(old.upper[:old.rank])
    assert (new.pattern is None) == (old.pattern is None)
    if 0 < new.rank == h.shape[1]:
        assert hexes(new.hat_diagonal) == hexes(old.hat_diagonal)
    np.testing.assert_allclose(new.condition, old.condition, rtol=1e-12)
    return new.rank == h.shape[1], new.pattern is not None


def test_pivoted_gain_is_the_copying_oracles_bit_for_bit():
    rng = np.random.default_rng(41)
    kinds = set()
    # random grids, every meter: the row pattern from a few dozen buses on
    for n in (6, 30, 120, 300):
        h = all_meters_h(rng, n)
        m, k = h.shape
        w = rng.uniform(0.5, 4.0, m)
        kinds.add(assert_factor_is_the_oracles(h, w))
        for share in (0.5, 0.7, 0.9):
            # the blocked rows of a constrained attack, as it builds them
            # from the accessible meters, and the rows protection_check keeps
            meters = np.sort(rng.choice(m, int(share * m), replace=False))
            blocked = h[np.setdiff1d(np.arange(m), meters)]
            kept = h[meters[:int(share * k)]]
            for sub in (blocked, kept):
                kinds.add(assert_factor_is_the_oracles(sub,
                                                       np.ones(len(sub))))
    # dense random H takes SYRK, at full rank and below it
    for k in (2, 9, 40):
        h = rng.normal(size=(2 * k, k)) * rng.uniform(0.1, 10.0, k)
        kinds.add(assert_factor_is_the_oracles(h, rng.uniform(0.5, 2.0,
                                                              2 * k)))
        kinds.add(assert_factor_is_the_oracles(h[:k // 2 + 1],
                                               np.ones(k // 2 + 1)))
    # full rank and below it, each from the row pattern and from SYRK
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_a_row_subset_of_a_pattern_is_the_copied_rows_own():
    # RowPattern.rows is the pattern RowPattern.of finds in the copied rows,
    # and its positions in H hold their values; a pattern that also holds
    # zeros of H (as a compiled one may) keeps them
    rng = np.random.default_rng(51)
    h = all_meters_h(rng, 40)
    m, k = h.shape
    wider = h.copy()
    wider[(rng.random((m, k)) < 0.05) & (h == 0.0)] = 1.0
    for index in (np.arange(0), np.arange(m), np.array([m - 1]),
                  np.sort(rng.choice(m, m // 3, replace=False))):
        for g in (h, wider):
            sub, at = RowPattern.of(g).rows(index)
            own = RowPattern.of(g[index])
            assert sub.shape == own.shape == (len(index), k)
            assert sub.flat.tolist() == own.flat.tolist()
            assert sub.starts.tolist() == own.starts.tolist()
            assert hexes(np.take(h, at)) == hexes(np.take(h[index], sub.flat))


def dense_lead_norm(gain, piv, rank):
    """The guard's 1-norm from a dense copy of the leading block (of the
    gain itself at full rank), as the copying oracle takes it."""
    lead = piv[:rank]
    block = gain[np.ix_(lead, lead)] if rank < len(gain) else gain
    return np.abs(block).sum(0).max()


def test_lead_norms_from_the_nonzeros_are_the_dense_block_norms():
    rng = np.random.default_rng(42)
    orders_matter = False
    for k in (4, 7, 25, 60):
        for trial in range(6):
            # symmetric, magnitudes from 1e-8 to 1e8 so that the order of a
            # column sum shows in its last bits, with exact zeros, -0.0,
            # sums that cancel to +0.0 and, in every other one, a zero row
            a = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-8, 9, (k, k))
            a[rng.random((k, k)) < 0.5] = 0.0
            a[rng.random((k, k)) < 0.05] = -0.0
            gain = np.triu(a)
            lower = np.tril_indices(k, -1)
            gain[lower] = gain.T[lower]
            x = rng.normal(size=k)
            i, j = rng.integers(k, size=2)
            gain[i, j] = gain[j, i] = x[0] + -x[0]
            if trial % 2:
                gain[i] = gain[:, i] = 0.0
            # the gather of _pivoted_gain
            col = np.flatnonzero(gain != 0.0)
            size = np.abs(np.take(gain, col))
            starts = np.searchsorted(col, np.arange(k + 1) * k)
            col %= k
            piv = rng.permutation(k)
            for first in (k, k - 2):
                ranks = range(first, first - 4, -1)
                norms = _lead_norms(col, size, starts, piv, first)
                for rank, got in zip(ranks, norms):
                    expected = dense_lead_norm(gain, piv, rank)
                    assert float(got).hex() == float(expected).hex()
                    # the same sums in the reverse row order
                    lead = piv[:rank] if rank < k else np.arange(k)
                    block = np.abs(gain[np.ix_(lead, lead)])
                    orders_matter |= block[::-1].sum(0).max() != expected
    assert orders_matter


@pytest.mark.parametrize("kind", ["full", "subset", "dense", "dense-deficient"])
def test_pivoted_gain_makes_no_second_gain_sized_array(kind):
    # peak traced memory of one factor, in units of the gain's 8 k^2 bytes.
    # On a 400-bus grid the gain, its nonzero mask and gather and the row
    # pattern read about 1.8 at full rank; a rank-deficient 60 % row subset
    # adds pocon's copy of the leading block, about 2.4. Copying the gain
    # for pstrf, taking |G| densely or copying the leading block adds 1
    # each (the copying oracle reads about 3.6 and 4.4). A dense 2k x k H
    # takes SYRK: its nonzero indices (2), the scaled rows (2) and the gain
    # peak at about 5.0 in both. The rows are freed after the product, and
    # a dense gain's gather (its columns and |G|) is as large as the pstrf
    # copy and |G| of the oracle, so one more gain-sized array (the
    # gathered row indices, say) would read 6.0. A dense k/2 x k H (rank
    # k/2) reads about 5.0 too: the gather's runs of the leading rows are
    # taken while the full gather is still held, and the full gather is
    # freed right after (held to the end, the peak is about 5.3); the
    # oracle's block copies read about 3.2.
    rng = np.random.default_rng(43)
    if kind.startswith("dense"):
        k = 200
        h = rng.normal(size=(2 * k if kind == "dense" else k // 2, k))
    else:
        h = all_meters_h(rng, 400)
        m, k = h.shape
        if kind == "subset":
            h = h[np.sort(rng.choice(m, int(0.6 * m), replace=False))]
    w = np.ones(len(h))
    bound = {"full": 2.5, "subset": 3.0, "dense": 5.25,
             "dense-deficient": 5.15}[kind]
    for factor_of in (_pivoted_gain, pivoted_gain_with_copies):
        tracemalloc.start()
        try:
            factor = factor_of(h, w)
            peak = tracemalloc.get_traced_memory()[1] / (8 * k * k)
        finally:
            tracemalloc.stop()
        assert (factor.pattern is None) == kind.startswith("dense")
        assert (factor.rank == k) == (kind in ("full", "dense"))
        assert (peak < bound) == (factor_of is _pivoted_gain
                                  or kind.startswith("dense")), peak


def assert_compiled_pattern_factor_is_the_found_ones(model, x, w):
    """The factor of J(x) summed from the model's compiled pattern equals
    _pivoted_gain(J, w), whose pattern is found from J's nonzeros, bit for
    bit: the path taken, rank, piv, the leading rank rows of upper (the
    gain's own memory) and, at full rank, the hat diagonal; the condition
    estimate to 1e-12. Returns whether the gain was summed from a pattern."""
    jac = model.jacobian(x)
    pattern = model.jacobian_pattern
    assert pattern.shape == jac.shape
    assert np.isin(np.flatnonzero(jac), pattern.flat).all()
    found, compiled = _pivoted_gain(jac, w), _pivoted_gain(jac, w, pattern)
    assert (compiled.pattern is None) == (found.pattern is None)
    assert compiled.pattern in (None, pattern)
    assert compiled.rank == found.rank
    assert compiled.piv.tolist() == found.piv.tolist()
    assert hexes(compiled.upper[:compiled.rank]) \
        == hexes(found.upper[:found.rank])
    if 0 < found.rank == jac.shape[1]:
        assert hexes(compiled.hat_diagonal) == hexes(found.hat_diagonal)
    np.testing.assert_allclose(compiled.condition, found.condition,
                               rtol=1e-12)
    return compiled.pattern is not None


def test_the_compiled_jacobian_pattern_gives_the_found_patterns_factor():
    rng = np.random.default_rng(44)
    paths = set()
    # lossy grids with shunts and parallel branches, away from the flat
    # start: the pattern holds no zeros
    for n in (12, 30, 60):
        net = random_network(rng, n, lossy=True, shunts=True, parallel=2)
        x = free_vector(net, random_ac_state(rng, net), "ac")
        for config in (narrow_meters(net, ac=True),
                       full_ac_config(net, currents=True)):
            model = build_meter_model(net, config)
            w = weights_from_config(config) * rng.uniform(0.5, 4.0, len(config))
            paths.add(assert_compiled_pattern_factor_is_the_found_ones(
                model, x, w))
    # lossless branches at the flat start: P reads no magnitude and Q no
    # angle, so J holds structural zeros, and every current meter reads
    # |S| = 0 and has a zero row
    for n in (12, 30):
        net = random_network(rng, n, parallel=1)
        model = build_meter_model(net, full_ac_config(net, currents=True))
        x = free_vector(net, flat_state(net), "ac")
        jac = model.jacobian(x)
        assert np.count_nonzero(jac) < len(model.jacobian_pattern.flat)
        assert not jac.any(axis=1).all()
        paths.add(assert_compiled_pattern_factor_is_the_found_ones(
            model, x, weights_from_config(model.config)))
    assert paths == {True, False}


def test_a_compiled_pattern_wider_than_its_matrix_takes_the_matrixs_path():
    # injections at buses of 4 to 7 neighbours and themselves, on a
    # lossless 30-bus grid: the pattern's rows are up to 14 wide, more than
    # sqrt(k) = sqrt(59), but at the flat start J's are at most 7 wide
    rng = np.random.default_rng(45)
    net = random_network(rng, 30)
    k = 2 * 30 - 1
    near = {bus.id: {bus.id} for bus in net.buses}
    for br in net.branches:
        near[br.from_bus].add(br.to_bus)
        near[br.to_bus].add(br.from_bus)
    wide = [bus for bus, ends in near.items() if 4 <= len(ends) <= 7]
    assert wide
    specs = list(full_ac_config(net).specs)
    config = MeasurementConfig(specs=tuple(
        spec for spec in specs if not spec.kind.startswith("injection")
        or spec.bus in wide))
    model = build_meter_model(net, config)
    w = weights_from_config(config)
    widths = np.diff(model.jacobian_pattern.starts)
    assert widths.max() ** 2 > k
    flat = free_vector(net, flat_state(net), "ac")
    assert np.count_nonzero(model.jacobian(flat), axis=1).max() ** 2 <= k
    assert assert_compiled_pattern_factor_is_the_found_ones(model, flat, w)
    # away from the flat start the same rows are as wide as the pattern's,
    # and both take the dense product
    moved = free_vector(net, random_ac_state(rng, net), "ac")
    assert not assert_compiled_pattern_factor_is_the_found_ones(model, moved,
                                                                w)


def test_every_gauss_newton_factor_shares_the_models_pair_list(monkeypatch):
    rng = np.random.default_rng(46)
    net = random_network(rng, 60, lossy=True, shunts=True)
    model = build_meter_model(net, narrow_meters(net, ac=True))
    z = simulate_measurements(model, random_ac_state(rng, net), "ac", seed=7)
    factors = []

    def spy(h, weights, pattern=None):
        factors.append((pattern, _pivoted_gain(h, weights, pattern)))
        return factors[-1][1]

    monkeypatch.setattr(gridse.estimation, "_pivoted_gain", spy)
    result = estimate_ac(model, z, weights_from_config(model.config))
    assert result.converged
    # one factor per iteration, and one at the returned state
    assert len(factors) == result.iterations + 1
    assert result.factor is factors[-1][1]
    pattern = model.jacobian_pattern
    pairs = pattern.pairs
    for given, factor in factors:
        assert given is pattern and factor.pattern is pattern
        assert factor.pattern.pairs is pairs


def test_complex_arrays_are_refused_not_cast():
    # a cast to float would drop the imaginary part and estimate z itself
    _, _, h = load_three_bus()
    w = np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((h, BASE_Z + 1j, w), (h, BASE_Z.astype(complex), w),
                     (h.astype(complex), BASE_Z, w),
                     (h, BASE_Z, w + 0j)):
            with pytest.raises(InvalidArgument, match="real numbers"):
                estimate_dc(*args)


def lnr_problem():
    """A dc problem with one gross error that the LNR test finds, at unit
    weights: (H, z)."""
    rng = np.random.default_rng(47)
    net = random_network(rng, 14)
    config = random_observable_config(rng, net, min_redundancy=8)
    h = build_meter_model(net, config).dc_matrix
    z = h @ rng.normal(0.0, 0.1, h.shape[1]) \
        + rng.normal(0.0, 0.01, h.shape[0])
    factor = factor_gain(h, np.ones(len(z)))
    usable = factor.omega_terms[2]
    z[usable[0]] += 50.0
    return h, z


@pytest.mark.parametrize("weight", [2.0 ** -1030, 2.0 ** -1074, 2.0 ** -1024])
def test_weights_whose_reciprocal_overflows_are_refused(weight):
    h, z = lnr_problem()
    w = np.full(len(z), 1.0)
    w[3] = weight
    rng = np.random.default_rng(48)
    net = random_network(rng, 5, lossy=True)
    model = build_meter_model(net, full_ac_config(net))
    w_ac = np.full(len(model.config), weight)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: factor_gain(h, w), lambda: estimate_dc(h, z, w),
                     lambda: estimate_ac(model, np.zeros(len(w_ac)), w_ac)):
            with pytest.raises(InvalidArgument, match="reciprocal"):
                call()


def test_the_smallest_weights_keep_the_lnr_verdict():
    # 1/w is finite down to just above 2^-1024. At uniform weights w the
    # LNR statistic scales by sqrt(w) and the suspect, the ambiguity and
    # the critical meters stay, unwarned; at w = 4^-511 = 2^-1022 with
    # readings 2^511 z the whole verdict is the one at w = 1, bit for bit
    h, z = lnr_problem()
    base = largest_normalized_residual(estimate_dc(h, z, np.ones(len(z))))
    assert base.detected and base.critical_meters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = largest_normalized_residual(
            estimate_dc(h, np.ldexp(z, 511), np.full(len(z), 2.0 ** -1022)))
        assert scaled == base
        for weight in (2.0 ** -1022, 2.0 ** -1023, 1.5 * 2.0 ** -1024,
                       np.nextafter(2.0 ** -1024, 1.0)):
            verdict = largest_normalized_residual(
                estimate_dc(h, z, np.full(len(z), weight)))
            assert (verdict.suspect_meter, verdict.ambiguous,
                    verdict.critical_meters) \
                == (base.suspect_meter, base.ambiguous, base.critical_meters)
            np.testing.assert_allclose(verdict.statistic,
                                       base.statistic * np.sqrt(weight),
                                       rtol=1e-12)


def block_solve_h(rng, k, dense):
    """A seeded 2k + 3 by k H of full column rank: dense, or with at most
    isqrt(k) nonzeros a row, so that its gain is summed from the row
    pattern."""
    m = 2 * k + 3
    if dense:
        return rng.normal(size=(m, k))
    h = np.zeros((m, k))
    h[np.arange(k), np.arange(k)] = rng.uniform(0.5, 2.0, k)
    width = math.isqrt(k)
    for row in h[k:]:
        row[rng.choice(k, width, replace=False)] = rng.normal(size=width)
    return h


@pytest.mark.parametrize("dense", [False, True], ids=["row-pattern", "dense"])
@pytest.mark.parametrize("k", [2, 29, 300])
def test_a_block_solve_is_each_rows_own_solve_bit_for_bit(dense, k):
    # a Monte Carlo block is solved at once: H^T times each row is one
    # stacked matrix-vector product, and potrs solves every row's
    # right-hand side as one column; each row must come out as the solve
    # of that row alone, also where the factor scales H up (2^-600)
    rng = np.random.default_rng(k)
    for power in (0, -600):
        h = np.ldexp(block_solve_h(rng, k, dense), power)
        m = len(h)
        factor = factor_gain(h, rng.uniform(0.5, 4.0, m))
        assert (factor.pattern is None) == dense
        assert (factor.shift < 0) == (power < 0)
        for trials in (1, 2, 7, 61, 1000):
            z = np.ldexp(rng.normal(size=(trials, m)), power)
            x = factor.solve(z)
            for t in range(trials):
                assert hexes(x[t]) == hexes(factor.solve(z[t]))
            if trials <= 61:
                x, r = factor._fit(z)
                for t in range(trials):
                    estimate = factor.estimate(z[t])
                    assert hexes(x[t]) == hexes(estimate.state)
                    assert hexes(r[t]) == hexes(estimate.residual)

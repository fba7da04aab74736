"""Meter functions, Jacobians, and synthetic readings."""

import numpy as np
import pytest

from gridse import (
    DanglingReference,
    DetectorConfig,
    DimensionMismatch,
    InvalidArgument,
    MeasurementConfig,
    MeasurementSpec,
    MissingMagnitudes,
    StateVector,
    UnsupportedKindForDC,
    ac_jacobian,
    build_admittance,
    build_meter_model,
    dc_jacobian,
    estimate_ac,
    estimate_dc,
    flat_state,
    free_vector,
    h_eval_ac,
    run_detector,
    simulate_measurements,
    state_dimension,
    state_from_free,
)
from gridse.measurement import _meter_noise
from helpers import (
    full_ac_config,
    load_three_bus,
    random_ac_state,
    random_network,
    random_observable_config,
)
from oracles import branch_power

# hand-solved three-bus quantities (see test_estimation for the derivation)
TRUE_ANGLES = {1: 0.02857142857142857, 2: -0.09428571428571429, 3: 0.0}
H_AT_TRUE = (0.6142857142857143, 0.07142857142857142, 0.37714285714285717)


def test_dc_jacobian_three_bus():
    parsed, _, h = load_three_bus()
    np.testing.assert_allclose(h, [[5.0, -5.0], [2.5, 0.0], [0.0, -4.0]])


def test_dc_flow_reversal_negates_the_row():
    parsed, admittance, h = load_three_bus()
    reversed_specs = tuple(
        MeasurementSpec(kind="flow_p", from_bus=s.to_bus, to_bus=s.from_bus,
                        sigma=s.sigma)
        for s in parsed.config.specs
    )
    h_rev = dc_jacobian(parsed.network, admittance,
                        MeasurementConfig(specs=reversed_specs))
    np.testing.assert_allclose(h_rev, -h, atol=1e-15)


def test_dc_injection_row_sums_incident_flows():
    # bus 1 feeds branches 1-2 and 1-3: row = [5 + 2.5, -5], which is also
    # the bus-1 row of the susceptance table restricted to free columns
    parsed, admittance, _ = load_three_bus()
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="injection_p", bus=1, sigma=0.01),
    ))
    h = dc_jacobian(parsed.network, admittance, config)
    np.testing.assert_allclose(h, [[7.5, -5.0]])
    np.testing.assert_allclose(h[0], admittance.b[0, :2])


@pytest.mark.parametrize("kind, where", [
    ("flow_q", "branch"),
    ("injection_q", "bus"),
    ("current_magnitude", "branch"),
    ("voltage_magnitude", "bus"),
])
def test_dc_rejects_nonlinear_kinds(kind, where):
    parsed, admittance, _ = load_three_bus()
    if where == "branch":
        spec = MeasurementSpec(kind=kind, from_bus=1, to_bus=2, sigma=0.01)
    else:
        spec = MeasurementSpec(kind=kind, bus=1, sigma=0.01)
    with pytest.raises(UnsupportedKindForDC):
        dc_jacobian(parsed.network, admittance, MeasurementConfig(specs=(spec,)))


@pytest.mark.parametrize("spec", [
    MeasurementSpec(kind="injection_p", bus=99, sigma=0.01),
    MeasurementSpec(kind="injection_q", bus=0, sigma=0.01),
    MeasurementSpec(kind="voltage_magnitude", bus=99, sigma=0.01),
    MeasurementSpec(kind="flow_p", from_bus=1, to_bus=99, sigma=0.01),
    MeasurementSpec(kind="current_magnitude", from_bus=99, to_bus=1, sigma=0.01),
], ids=lambda spec: spec.kind)
def test_meter_model_rejects_dangling_meters(spec):
    # a hand-built meter set is checked as a parsed one is
    parsed, _, _ = load_three_bus()
    with pytest.raises(DanglingReference):
        build_meter_model(parsed.network, MeasurementConfig(specs=(spec,)))


def test_flat_state_zeroes_lossless_flows():
    rng = np.random.default_rng(21)
    net = random_network(rng, 5)
    specs = []
    for br in net.branches:
        specs.append(MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                                     to_bus=br.to_bus, sigma=0.01))
        specs.append(MeasurementSpec(kind="flow_q", from_bus=br.from_bus,
                                     to_bus=br.to_bus, sigma=0.01))
    values = h_eval_ac(net, flat_state(net), MeasurementConfig(specs=tuple(specs)))
    np.testing.assert_allclose(values, 0.0, atol=1e-15)


def test_voltage_meter_reads_the_state():
    parsed, _, _ = load_three_bus()
    state = StateVector(angles={1: 0.0, 2: 0.0, 3: 0.0},
                        magnitudes={1: 1.03, 2: 0.96, 3: 1.0})
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="voltage_magnitude", bus=2, sigma=0.01),
    ))
    assert h_eval_ac(parsed.network, state, config)[0] == 0.96


def test_ac_flow_matches_linear_model_near_flat():
    parsed, _, _ = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES, magnitudes={1: 1.0, 2: 1.0, 3: 1.0})
    values = h_eval_ac(parsed.network, state, parsed.config)
    assert values[0] == pytest.approx(0.614, rel=0.02)
    np.testing.assert_allclose(values, H_AT_TRUE, rtol=0.02)


def test_h_eval_requires_magnitudes():
    parsed, _, _ = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES)
    with pytest.raises(MissingMagnitudes):
        h_eval_ac(parsed.network, state, parsed.config)


def test_free_vector_rejects_nonzero_reference_angle():
    parsed, _, _ = load_three_bus()
    state = StateVector(angles={1: 0.1, 2: 0.0, 3: 0.01})
    with pytest.raises(ValueError):
        free_vector(parsed.network, state, "dc")


def test_current_magnitude_is_apparent_power_over_voltage():
    rng = np.random.default_rng(26)
    net = random_network(rng, 4, lossy=True, shunts=True)
    br = net.branches[0]
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="flow_p", from_bus=br.from_bus, to_bus=br.to_bus, sigma=0.01),
        MeasurementSpec(kind="flow_q", from_bus=br.from_bus, to_bus=br.to_bus, sigma=0.01),
        MeasurementSpec(kind="current_magnitude", from_bus=br.from_bus,
                        to_bus=br.to_bus, sigma=0.01),
    ))
    state = random_ac_state(rng, net)
    p, q, current = h_eval_ac(net, state, config)
    assert current == pytest.approx(
        np.hypot(p, q) / state.magnitudes[br.from_bus], abs=1e-14
    )


def test_current_magnitude_flat_lossless_guard():
    # apparent power is exactly zero here; value and sensitivities must be
    # zero, never NaN
    rng = np.random.default_rng(27)
    net = random_network(rng, 3)
    br = net.branches[0]
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="current_magnitude", from_bus=br.from_bus,
                        to_bus=br.to_bus, sigma=0.01),
    ))
    value = h_eval_ac(net, flat_state(net), config)
    jac = ac_jacobian(net, flat_state(net), config)
    assert value[0] == 0.0
    np.testing.assert_array_equal(jac, 0.0)


def finite_difference_jacobian(net, config, x0, step=1e-6):
    fd = np.zeros((len(config.specs), len(x0)))
    for k in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        fd[:, k] = (
            h_eval_ac(net, state_from_free(net, xp, "ac"), config)
            - h_eval_ac(net, state_from_free(net, xm, "ac"), config)
        ) / (2.0 * step)
    return fd


def test_ac_jacobian_matches_finite_differences():
    rng = np.random.default_rng(22)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 7)), lossy=True, shunts=True)
        config = full_ac_config(net)
        state = random_ac_state(rng, net, angle_span=0.3, mag_span=0.1)
        x0 = free_vector(net, state, "ac")
        jac = ac_jacobian(net, state, config)
        fd = finite_difference_jacobian(net, config, x0)
        assert np.max(np.abs(jac - fd)) <= 1e-6


def test_current_magnitude_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    net = random_network(rng, 4, lossy=True)
    specs = tuple(
        MeasurementSpec(kind="current_magnitude", from_bus=br.from_bus,
                        to_bus=br.to_bus, sigma=0.01)
        for br in net.branches
    )
    config = MeasurementConfig(specs=specs)
    state = random_ac_state(rng, net, angle_span=0.2)
    x0 = free_vector(net, state, "ac")
    jac = ac_jacobian(net, state, config)
    fd = finite_difference_jacobian(net, config, x0)
    assert np.max(np.abs(jac - fd)) <= 1e-6


def test_voltage_jacobian_row_is_a_unit_vector():
    parsed, _, _ = load_three_bus()
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="voltage_magnitude", bus=2, sigma=0.01),
    ))
    jac = ac_jacobian(parsed.network, flat_state(parsed.network), config)
    expected = np.zeros(5)
    expected[2 + 1] = 1.0  # columns: angle 1, angle 2, mag 1, mag 2, mag 3
    np.testing.assert_array_equal(jac[0], expected)


def test_flat_lossless_flow_sensitivity_equals_linear_coefficient():
    # at v = 1, angles 0: dP(i->j)/d(angle_i) = -b_series = 1/X
    parsed, _, h = load_three_bus()
    jac = ac_jacobian(parsed.network, flat_state(parsed.network), parsed.config)
    np.testing.assert_allclose(jac[:, :2], h, atol=1e-12)


def test_small_angle_dc_consistency():
    rng = np.random.default_rng(24)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 7)))
        adm = build_admittance(net)
        config = random_observable_config(rng, net)
        h = dc_jacobian(net, adm, config)
        angles = {b.id: float(rng.uniform(-0.01, 0.01)) for b in net.buses}
        angles[net.reference_bus] = 0.0
        state = StateVector(angles=angles,
                            magnitudes={b.id: 1.0 for b in net.buses})
        linear = h @ free_vector(net, state, "dc")
        exact = h_eval_ac(net, state, config)
        assert np.max(np.abs(exact - linear)) <= 1e-4


def test_dc_flow_rows_have_two_nonzeros_or_one_at_reference():
    rng = np.random.default_rng(28)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 8)))
        adm = build_admittance(net)
        ref = net.reference_bus
        specs = tuple(
            MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                            to_bus=br.to_bus, sigma=0.01)
            for br in net.branches
        )
        h = dc_jacobian(net, adm, MeasurementConfig(specs=specs))
        for row, br in zip(h, net.branches):
            touches_ref = ref in (br.from_bus, br.to_bus)
            assert np.count_nonzero(row) == (1 if touches_ref else 2)


def test_dc_flow_antisymmetry():
    rng = np.random.default_rng(25)
    net = random_network(rng, 6)
    adm = build_admittance(net)
    forward = []
    backward = []
    for br in net.branches:
        forward.append(MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                                       to_bus=br.to_bus, sigma=0.01))
        backward.append(MeasurementSpec(kind="flow_p", from_bus=br.to_bus,
                                        to_bus=br.from_bus, sigma=0.01))
    hf = dc_jacobian(net, adm, MeasurementConfig(specs=tuple(forward)))
    hb = dc_jacobian(net, adm, MeasurementConfig(specs=tuple(backward)))
    x = rng.uniform(-0.2, 0.2, size=net.n_buses - 1)
    np.testing.assert_allclose(hf @ x, -(hb @ x), atol=1e-14)


def test_simulate_noiseless_matches_h():
    parsed, _, h = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES)
    z = simulate_measurements(parsed.network, state,
                              parsed.config, "dc", seed=0, noise_scale=0.0)
    np.testing.assert_array_equal(z, h @ free_vector(parsed.network, state, "dc"))
    np.testing.assert_allclose(z, H_AT_TRUE, atol=1e-6)


def test_simulate_seed_determinism():
    parsed, _, _ = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES)
    args = (parsed.network, state, parsed.config, "dc")
    z1 = simulate_measurements(*args, seed=42)
    z2 = simulate_measurements(*args, seed=42)
    z3 = simulate_measurements(*args, seed=43)
    np.testing.assert_array_equal(z1, z2)
    assert np.any(z1 != z3)


def test_simulate_streams_are_stable_under_meter_insertion():
    # appending a meter must not change the draws of the earlier meters
    parsed, _, _ = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES)
    longer = MeasurementConfig(specs=parsed.config.specs + (
        MeasurementSpec(kind="injection_p", bus=1, sigma=0.01),
    ))
    z_short = simulate_measurements(parsed.network, state,
                                    parsed.config, "dc", seed=9)
    z_long = simulate_measurements(parsed.network, state,
                                   longer, "dc", seed=9)
    np.testing.assert_array_equal(z_long[:3], z_short)


def test_simulated_noise_is_zero_mean():
    parsed, _, h = load_three_bus()
    state = StateVector(angles=TRUE_ANGLES)
    clean = h @ free_vector(parsed.network, state, "dc")
    draws = np.array([
        simulate_measurements(parsed.network, state,
                              parsed.config, "dc", seed=s) - clean
        for s in range(10_000)
    ])
    bound = 4 * 0.01 / np.sqrt(10_000)
    assert np.all(np.abs(draws.mean(axis=0)) <= bound)


def default_rng_noise(seeds, meters, scales):
    """The reference stream: one default_rng per (seed, meter) pair."""
    return np.array([[np.random.default_rng([s, i]).normal(0.0, scale)
                      for i, scale in zip(meters, scales)] for s in seeds])


@pytest.mark.parametrize("seeds,meters", [
    (range(0, 40), range(67)),
    (range(2**32 - 20, 2**32 + 20), range(67)),
    # the benchmark's seeds: 3 entropy words with the meter
    (range(901 * 10**9, 901 * 10**9 + 40), range(67)),
    ([0, 5, 2**32 - 1, 2**32, 2**63, 2**64 - 1], range(6)),
    # 5 or more entropy words: the default_rng fallback
    ([2**64, 2**80 + 9, 2**96 - 1, 2**96, 2**100 + 7], range(5)),
], ids=["small", "word-boundary", "bench-sized", "wide-meters", "fallback"])
def test_meter_noise_is_the_default_rng_stream(seeds, meters):
    # the batched noise must equal default_rng([seed, i]).normal bit for bit
    rng = np.random.default_rng(34)
    scales = rng.uniform(0.001, 0.1, len(meters))
    np.testing.assert_array_equal(
        _meter_noise(seeds, scales),
        default_rng_noise(seeds, meters, scales))


def test_zero_noise_scale_gives_exact_readings():
    assert not np.any(_meter_noise(range(3), np.zeros(4)))
    rng = np.random.default_rng(35)
    net = random_network(rng, 8)
    config = full_ac_config(net)
    state = random_ac_state(rng, net)
    z = simulate_measurements(net, state, config, "ac", seed=3, noise_scale=0.0)
    np.testing.assert_array_equal(z, h_eval_ac(net, state, config))


@pytest.mark.parametrize("seed", [-1, True, 1.5, "1", None])
def test_simulate_rejects_bad_seeds(seed):
    parsed, _, _ = load_three_bus()
    with pytest.raises(InvalidArgument, match="seed"):
        simulate_measurements(parsed.network, StateVector(angles=TRUE_ANGLES),
                              parsed.config, "dc", seed=seed)


@pytest.mark.parametrize("noise_scale", [-1.0, float("nan"), float("inf"),
                                         "1", True,
                                         pytest.param(10**400, id="huge-int")])
def test_simulate_rejects_bad_noise_scale(noise_scale):
    parsed, _, _ = load_three_bus()
    with pytest.raises(InvalidArgument, match="noise_scale"):
        simulate_measurements(parsed.network, StateVector(angles=TRUE_ANGLES),
                              parsed.config, "dc", seed=0,
                              noise_scale=noise_scale)


@pytest.mark.parametrize("call", [
    lambda net, config: StateVector(angles=[0, 1, 2]),
    lambda net, config: StateVector(angles=TRUE_ANGLES, magnitudes={1: "1.0"}),
    lambda net, config: simulate_measurements(
        net, StateVector(angles={1: 0.01, 2: np.nan, 3: 0.0}), config, "dc",
        seed=0),
    lambda net, config: state_dimension(net, "xx"),
    lambda net, config: state_from_free(net, [0.0, "x"], "dc"),
    lambda net, config: state_from_free(net, [0.0, 10**400], "dc"),
    lambda net, config: h_eval_ac(net, "x", full_ac_config(net)),
], ids=["angle-list", "string-magnitude", "nan-angle", "unknown-mode",
        "string-free-entry", "huge-free-entry", "string-state"])
def test_states_and_modes_are_checked(call):
    parsed, _, _ = load_three_bus()
    with pytest.raises(InvalidArgument):
        call(parsed.network, parsed.config)


def test_calls_with_the_removed_arguments_fail_loudly():
    # the admittance was dropped from the ac meter functions and estimate_ac,
    # and the state dimension from run_detector: a call written for the old
    # signatures must raise, never bind its arguments to the wrong names
    parsed, admittance, h = load_three_bus()
    net, config = parsed.network, parsed.config
    state = flat_state(net)
    w = np.full(len(config), 1e4)
    estimate = estimate_dc(h, parsed.values, w)
    old_calls = [
        lambda: h_eval_ac(net, admittance, state, config),
        lambda: ac_jacobian(net, admittance, state, config),
        lambda: simulate_measurements(net, admittance, state, config, "ac", 0),
        lambda: simulate_measurements(net, admittance, state, config, "ac",
                                      seed=0),
        lambda: estimate_ac(net, admittance, parsed.values, config, w),
        lambda: run_detector(DetectorConfig(method="chi_square"), h,
                             parsed.values, w, estimate, 2),
    ]
    for call in old_calls:
        with pytest.raises((TypeError, InvalidArgument)):
            call()


def test_meter_functions_match_phasor_oracle_on_parallel_branches():
    # flow and current meters read the first branch joining their ends, in
    # file order, from their 'from' end; injections sum every branch at
    # their bus
    rng = np.random.default_rng(29)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 7)), lossy=True,
                             shunts=True, parallel=3)
        pairs = {frozenset((br.from_bus, br.to_bus)) for br in net.branches}
        assert len(pairs) < len(net.branches)  # some branches run in parallel
        config = full_ac_config(net, currents=True)
        state = random_ac_state(rng, net, angle_span=0.3, mag_span=0.1)
        values = h_eval_ac(net, state, config)
        expected = []
        for spec in config.specs:
            if spec.kind == "voltage_magnitude":
                expected.append(state.magnitudes[spec.bus])
                continue
            if spec.kind in ("injection_p", "injection_q"):
                s = sum(branch_power(br, state, spec.bus,
                                     br.to_bus if br.from_bus == spec.bus else br.from_bus)
                        for br in net.branches if spec.bus in (br.from_bus, br.to_bus))
            else:
                first = next(br for br in net.branches
                             if {br.from_bus, br.to_bus} == {spec.from_bus, spec.to_bus})
                s = branch_power(first, state, spec.from_bus, spec.to_bus)
            if spec.kind == "current_magnitude":
                expected.append(abs(s) / state.magnitudes[spec.from_bus])
            else:
                expected.append(s.real if spec.kind.endswith("_p") else s.imag)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


def test_ac_jacobian_matches_finite_differences_on_parallel_branches():
    rng = np.random.default_rng(30)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 7)), lossy=True,
                             shunts=True, parallel=2)
        config = full_ac_config(net, currents=True)
        state = random_ac_state(rng, net, angle_span=0.3, mag_span=0.1)
        x0 = free_vector(net, state, "ac")
        jac = ac_jacobian(net, state, config)
        fd = finite_difference_jacobian(net, config, x0)
        assert np.max(np.abs(jac - fd)) <= 1e-6


def test_current_rows_vanish_at_flat_lossless_state():
    # |S| = 0 on every branch here, so each current meter reads 0 with a
    # zero Jacobian row, while the other meters keep their sensitivities
    rng = np.random.default_rng(31)
    net = random_network(rng, 5, parallel=2)
    config = full_ac_config(net, currents=True)
    current = np.array([s.kind == "current_magnitude" for s in config.specs])
    values = h_eval_ac(net, flat_state(net), config)
    jac = ac_jacobian(net, flat_state(net), config)
    assert np.all(np.isfinite(jac))
    np.testing.assert_array_equal(values[current], 0.0)
    np.testing.assert_array_equal(jac[current], 0.0)
    assert np.all(np.any(jac[~current] != 0.0, axis=1))


def test_dc_rows_on_parallel_branches():
    # a reversed flow meter's row is the exact negation; a flow meter uses
    # the first of two parallel branches; an injection sums all of them
    rng = np.random.default_rng(32)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 8)), parallel=3)
        adm = build_admittance(net)
        cols = {b: c for c, b in enumerate(net.non_reference_ids())}

        def row(terms):
            out = np.zeros(net.n_buses - 1)
            for i, j, x in terms:
                if i in cols:
                    out[cols[i]] += 1.0 / x
                if j in cols:
                    out[cols[j]] -= 1.0 / x
            return out

        forward = [MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                                   to_bus=br.to_bus, sigma=0.01)
                   for br in net.branches]
        backward = [MeasurementSpec(kind="flow_p", from_bus=br.to_bus,
                                    to_bus=br.from_bus, sigma=0.01)
                    for br in net.branches]
        hf = dc_jacobian(net, adm, MeasurementConfig(specs=tuple(forward)))
        hb = dc_jacobian(net, adm, MeasurementConfig(specs=tuple(backward)))
        np.testing.assert_array_equal(hb, -hf)
        for h_row, br in zip(hf, net.branches):
            first = net.branch_between(br.from_bus, br.to_bus)
            np.testing.assert_array_equal(
                h_row, row([(br.from_bus, br.to_bus, first.reactance_x)]))
        injections = MeasurementConfig(specs=tuple(
            MeasurementSpec(kind="injection_p", bus=b.id, sigma=0.01)
            for b in net.buses))
        h_inj = dc_jacobian(net, adm, injections)
        for h_row, bus in zip(h_inj, net.buses):
            expected = row([(bus.id, br.to_bus if br.from_bus == bus.id else br.from_bus,
                             br.reactance_x)
                            for br in net.branches if bus.id in (br.from_bus, br.to_bus)])
            np.testing.assert_allclose(h_row, expected, rtol=1e-15)


def test_meter_model_checks_its_inputs():
    rng = np.random.default_rng(33)
    net = random_network(rng, 4, lossy=True)
    model = build_meter_model(net, full_ac_config(net))
    with pytest.raises(UnsupportedKindForDC):
        model.dc_matrix
    with pytest.raises(DimensionMismatch):
        model.values(np.zeros(net.n_buses))
    with pytest.raises(DimensionMismatch):
        model.jacobian(np.zeros(2 * net.n_buses))

"""Properties of the compiled linear meter model and the estimate, on
generated networks.

Each dc example is a random connected grid of 3 to 30 buses, some of its
branches doubled by a parallel one, metered by every dc meter (both flow
ends and every injection) in a random order, with readings H x + noise.
Each ac example is a lossy grid of the same sizes with line shunts and
parallel branches, metered by every ac meter (p and q flows at both ends,
injections, voltages and both ends' currents), at a random state. Runs are
derandomized, so every run checks the same examples.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridse import (
    MeasurementConfig,
    build_meter_model,
    chi_square_test,
    estimate_dc,
    free_vector,
    weights_from_config,
)
from helpers import (
    dc_meter_candidates,
    full_ac_config,
    random_ac_state,
    random_network,
)
from test_measurement import finite_difference_jacobian

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


@st.composite
def metered_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng, draw(st.integers(3, 30)),
                         parallel=draw(st.integers(0, 3)))
    specs = dc_meter_candidates(net)
    config = MeasurementConfig(specs=tuple(
        dataclasses.replace(specs[i], sigma=float(rng.uniform(0.005, 0.02)))
        for i in rng.permutation(len(specs))))
    h = build_meter_model(net, config).dc_matrix
    z = h @ rng.uniform(-0.2, 0.2, h.shape[1]) \
        + rng.normal(size=len(config)) * config.sigmas()
    return net, config, z, rng.permutation(len(config))


@EXAMPLES
@given(metered_grids())
def test_permuting_the_meters_permutes_the_rows_and_keeps_the_estimate(grid):
    net, config, z, order = grid
    moved = MeasurementConfig(specs=tuple(config.specs[i] for i in order))
    h = build_meter_model(net, config).dc_matrix
    np.testing.assert_array_equal(build_meter_model(net, moved).dc_matrix, h[order])
    estimate = estimate_dc(h, z, weights_from_config(config))
    again = estimate_dc(h[order], z[order], weights_from_config(moved))
    np.testing.assert_allclose(again.state, estimate.state, rtol=1e-9, atol=1e-13)
    np.testing.assert_allclose(again.residual, estimate.residual[order],
                               rtol=1e-9, atol=1e-12)
    assert np.isclose(chi_square_test(again).statistic,
                      chi_square_test(estimate).statistic, rtol=1e-9, atol=0.0)


@EXAMPLES
@given(metered_grids(), st.data())
def test_reversing_a_flow_meter_negates_its_row(grid, data):
    net, config, _, _ = grid
    flows = [i for i, s in enumerate(config.specs) if s.kind == "flow_p"]
    i = data.draw(st.sampled_from(flows))
    spec = config.specs[i]
    specs = list(config.specs)
    specs[i] = dataclasses.replace(spec, from_bus=spec.to_bus, to_bus=spec.from_bus)
    h = build_meter_model(net, config).dc_matrix
    reversed_h = build_meter_model(net, MeasurementConfig(specs=tuple(specs))).dc_matrix
    np.testing.assert_array_equal(reversed_h[i], -h[i])
    others = np.arange(len(specs)) != i
    np.testing.assert_array_equal(reversed_h[others], h[others])


@st.composite
def ac_metered_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng, draw(st.integers(3, 30)), lossy=True,
                         shunts=True, parallel=draw(st.integers(0, 3)))
    model = build_meter_model(net, full_ac_config(net, currents=True))
    state = random_ac_state(rng, net, angle_span=0.3, mag_span=0.1)
    return model, free_vector(net, state, "ac")


@EXAMPLES
@given(ac_metered_grids())
def test_ac_jacobian_matches_finite_differences(grid):
    # central differences of h(x) at step 1e-6 agree with the analytic J(x)
    # to 1e-6, scaled by the largest reading where that exceeds 1
    model, x0 = grid
    bound = 1e-6 * max(1.0, np.max(np.abs(model.values(x0))))
    error = np.abs(model.jacobian(x0) - finite_difference_jacobian(model, x0))
    assert np.max(error) <= bound

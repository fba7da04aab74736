"""Properties of the compiled linear meter model and the estimate, on
generated networks.

Each example is a random connected grid of 3 to 30 buses, some of its
branches doubled by a parallel one, metered by every dc meter (both flow
ends and every injection) in a random order, with readings H x + noise.
Runs are derandomized, so every run checks the same examples.
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
    weights_from_config,
)
from helpers import dc_meter_candidates, random_network

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

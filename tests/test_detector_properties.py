"""The bad-data theory behind the detectors, on generated networks.

Each example is a random connected grid of 3 to 30 buses, some of its
branches doubled by a parallel one, metered by a random subset of its dc
meters (all of them where the subset leaves the state unobservable), each
with its own sigma. Small subsets leave critical meters and critical pairs,
so the LNR terms the gain factor caches meet both. Runs are derandomized,
so every run checks the same examples.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridse import (
    DetectorConfig,
    MeasurementConfig,
    UnobservableNetwork,
    build_meter_model,
    estimate_dc,
    factor_gain,
    largest_normalized_residual,
    run_detector,
    weights_from_config,
)
from gridse.baddata import TIE_TOLERANCE
from helpers import dc_meter_candidates, estimator_accepts, random_network

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
DETECTORS = (DetectorConfig(method="chi_square"),
             DetectorConfig(method="norm_threshold", tau=1.0),
             DetectorConfig(method="lnr"))
# Rounding bounds, about 500x the worst seen on 300 such grids: a residual
# moves by at most 1e-11 of the largest attacked reading, a statistic by at
# most 1e-9 of itself.
RESIDUAL_RTOL = 1e-11
STATISTIC_RTOL = 1e-9


@st.composite
def metered_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng, draw(st.integers(3, 30)),
                         parallel=draw(st.integers(0, 3)))
    specs = dc_meter_candidates(net)
    size = draw(st.integers(net.n_buses, len(specs)))
    for chosen in (rng.permutation(len(specs))[:size], range(len(specs))):
        config = MeasurementConfig(specs=tuple(
            dataclasses.replace(specs[i], sigma=float(rng.uniform(0.005, 0.02)))
            for i in chosen))
        h = build_meter_model(net, config).dc_matrix
        if estimator_accepts(h):
            return h, weights_from_config(config), config.sigmas(), rng
    raise AssertionError("every dc meter together must observe the grid")


@EXAMPLES
@given(metered_grids())
def test_a_stealth_shift_moves_no_residual_and_no_statistic(grid):
    h, w, sigmas, rng = grid
    z = h @ rng.uniform(-0.2, 0.2, h.shape[1]) + rng.normal(size=len(w)) * sigmas
    z_a = z + h @ rng.normal(0.0, 0.1, h.shape[1])
    clean, hit = estimate_dc(h, z, w), estimate_dc(h, z_a, w)
    np.testing.assert_allclose(hit.residual, clean.residual, rtol=0.0,
                               atol=RESIDUAL_RTOL * np.max(np.abs(z_a)))
    for detector in DETECTORS:
        expected = run_detector(detector, clean).statistic
        assert abs(run_detector(detector, hit).statistic - expected) \
            <= STATISTIC_RTOL * expected


@EXAMPLES
@given(metered_grids(), st.data())
def test_lnr_names_the_meter_of_a_single_gross_error(grid, data):
    # with noise-free readings and one gross error b on a meter i that is
    # not critical, r = S b u_i, and Cauchy-Schwarz on Omega puts meter i's
    # normalized residual b sqrt(Omega_ii) / sigma_i^2 on top; a meter
    # that ties it (a critical pair) must make the verdict ambiguous
    h, w, sigmas, rng = grid
    factor = factor_gain(h, w)
    omega, critical = factor.omega_terms[:2]
    i = data.draw(st.sampled_from([i for i in range(len(w))
                                   if i + 1 not in critical]))
    z = h @ rng.uniform(-0.2, 0.2, h.shape[1])
    z[i] += 50.0 * sigmas[i]
    estimate = factor.estimate(z)
    verdict = largest_normalized_residual(estimate)
    own = abs(estimate.residual[i]) / np.sqrt(omega[i])
    assert own >= verdict.statistic - TIE_TOLERANCE
    assert verdict.suspect_meter == i + 1 or verdict.ambiguous


@EXAMPLES
@given(metered_grids())
def test_lnr_critical_meters_are_the_rows_the_gain_cannot_lose(grid):
    # LNR calls a meter critical when S_ii = 1 - w_i hat_ii vanishes, and
    # factor_gain accepts rows by pivoted rank and condition: the two rules
    # must agree. A critical meter's residual stays zero whatever its
    # reading, and H without its row is refused; H without any other
    # meter's row is accepted.
    h, w, sigmas, rng = grid
    factor = factor_gain(h, w)
    critical = factor.omega_terms[1]
    z = h @ rng.uniform(-0.2, 0.2, h.shape[1]) + rng.normal(size=len(w)) * sigmas
    for i in range(len(w)):
        rest = np.arange(len(w)) != i
        if i + 1 not in critical:
            factor_gain(h[rest], w[rest])
            continue
        moved = z.copy()
        moved[i] += rng.uniform(-1e3, 1e3)
        assert abs(factor.estimate(moved).residual[i]) \
            <= RESIDUAL_RTOL * np.max(np.abs(moved))
        with pytest.raises(UnobservableNetwork):
            factor_gain(h[rest], w[rest])

"""Properties of the one rank rule that protection_check,
constrained_stealth_attack and factor_gain share, on generated networks.

Each example is a random connected grid of 3 to 30 buses metered by every
dc meter (both flow ends and every injection) in a random order, so H is
observable, with H scaled by 2^s for s in [-520, 520] (the ends, where
the plain gain H^T H under- or overflows, are drawn often), and a random
list of meter numbers (repeats allowed). Runs are derandomized, so every
run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridse import (
    MeasurementConfig,
    build_meter_model,
    constrained_stealth_attack,
    protection_check,
    verify_stealth,
)
from helpers import dc_meter_candidates, estimator_accepts, random_network
from oracles import row_reduction_rank

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)


@st.composite
def grids_and_meters(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng, draw(st.integers(3, 30)))
    specs = dc_meter_candidates(net)
    config = MeasurementConfig(
        specs=tuple(specs[i] for i in rng.permutation(len(specs))))
    h = build_meter_model(net, config).dc_matrix
    meters = draw(st.lists(st.integers(1, h.shape[0]), max_size=2 * h.shape[0]))
    s = draw(st.sampled_from((-520, 520)) | st.integers(-520, 520))
    return np.ldexp(h, s), meters, s


def _rows(h, meters):
    return h[sorted(set(i - 1 for i in meters))]


@EXAMPLES
@given(grids_and_meters())
def test_protection_rank_is_the_row_reduction_rank(case):
    h, meters, s = case
    report = protection_check(h, meters)
    assert h.shape[1] - report.residual_attack_dim == \
        row_reduction_rank(np.ldexp(_rows(h, meters), -s))


@EXAMPLES
@given(grids_and_meters(), st.randoms(use_true_random=False))
def test_protection_ignores_meter_order_and_repeats(case, shuffler):
    h, meters, _ = case
    report = protection_check(h, meters)
    m = h.shape[0]
    order = list(range(m))
    shuffler.shuffle(order)  # new meter i + 1 is old meter order[i] + 1
    relabel = {old + 1: new + 1 for new, old in enumerate(order)}
    again = [relabel[i] for i in meters] * 2
    shuffler.shuffle(again)
    assert protection_check(h[order], again) == report


@EXAMPLES
@given(grids_and_meters())
def test_protected_exactly_when_the_estimator_accepts_the_rows(case):
    h, meters, _ = case
    assert protection_check(h, meters).protected == estimator_accepts(_rows(h, meters))


@EXAMPLES
@given(grids_and_meters())
def test_constrained_attack_exists_exactly_when_unprotected(case):
    h, blocked_meters, _ = case
    m, _ = h.shape
    accessible = sorted(set(range(1, m + 1)) - set(blocked_meters))
    found = constrained_stealth_attack(h, accessible)
    assert (found is None) == protection_check(h, blocked_meters).protected
    if found is not None:
        c, a = found
        assert verify_stealth(h, a)
        blocked = _rows(h, blocked_meters)
        if blocked.size:
            sigma_1 = np.linalg.norm(blocked, 2)
            assert np.linalg.norm(blocked @ c) <= \
                2.0 * sigma_1 * np.linalg.norm(c) / np.sqrt(1e12)

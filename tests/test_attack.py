"""Stealth attack construction, verification, and protection analysis."""

import importlib.util
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridse.attack
from gridse import (
    Branch,
    Bus,
    DetectorConfig,
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    MeasurementConfig,
    MeasurementSpec,
    NetworkModel,
    UnobservableNetwork,
    apply_attack,
    build_meter_model,
    check_observability,
    constrained_stealth_attack,
    craft_stealth_attack,
    estimate_dc,
    protection_check,
    random_stealth_attack,
    run_detector,
    verify_stealth,
)
from gridse._streams import _seeded_generators
from gridse.attack import ProtectionReport
from gridse.estimation import _pivoted_gain
from helpers import (
    dc_meter_candidates,
    estimator_accepts,
    load_three_bus,
    random_network,
    random_observable_config,
    state_before,
    ziggurat_word,
)
from oracles import (
    constrained_attack_by_copy,
    protection_rank_by_copy,
    row_reduction_rank,
    rows_by_copy,
    verify_stealth_by_copy,
)

BASE_Z = np.array([0.62, 0.06, 0.37])
W = np.full(3, 1e4)
CHI2_BASE = 2.142857142857143

SHIFT_SMALL = np.array([0.005, 0.001])
ATTACK_SMALL = np.array([0.02, 0.0125, -0.004])
SHIFT_LARGE = np.array([0.01, 0.04])
ATTACK_LARGE = np.array([-0.15, 0.025, -0.16])

# References taken straight from numpy's SVD and least squares, bound
# before any test patches np.linalg: the singular-value rank rule (1e-9 of
# the largest) and the least-squares range test of verify_stealth.
_SVD, _LSTSQ = np.linalg.svd, np.linalg.lstsq


def _reference_rank(sub):
    s = _SVD(sub, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0])) if s.size else 0


def _reference_in_range(h, a):
    # a scaled by the power of two that brings max |a_i| into [0.5, 1)
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), initial=0.0))[1])
    c, *_ = _LSTSQ(h, a, rcond=None)
    return bool(np.linalg.norm(a - h @ c) <= 1e-9 * np.linalg.norm(a))


@contextmanager
def _without_svd_or_lstsq():
    """np.linalg.svd, lstsq and matrix_rank raise inside the block."""
    def forbidden(*args, **kwargs):
        raise AssertionError("SVD, least squares or matrix_rank taken")
    with pytest.MonkeyPatch.context() as patch:
        for name in ("svd", "lstsq", "matrix_rank"):
            patch.setattr(np.linalg, name, forbidden)
        yield



def test_craft_known_attack_vectors():
    _, _, h = load_three_bus()
    np.testing.assert_allclose(craft_stealth_attack(h, SHIFT_SMALL),
                               ATTACK_SMALL, atol=1e-12)
    np.testing.assert_allclose(craft_stealth_attack(h, SHIFT_LARGE),
                               ATTACK_LARGE, atol=1e-12)
    np.testing.assert_array_equal(craft_stealth_attack(h, np.zeros(2)),
                                  np.zeros(3))


def test_craft_dimension_check():
    _, _, h = load_three_bus()
    with pytest.raises(DimensionMismatch):
        craft_stealth_attack(h, np.zeros(3))


@pytest.mark.parametrize("c", [
    [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0],
    # finite, but Hc overflows
    [0.01, -1e308],
], ids=["nan", "inf", "-inf", "overflow"])
def test_craft_rejects_a_non_finite_shift(c):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument):
        craft_stealth_attack(h, np.array(c))


@pytest.mark.parametrize("build", [
    lambda h: random_stealth_attack(h, 1e308, 1),
    lambda h: constrained_stealth_attack(h, (1, 2), magnitude=1e308),
], ids=["random", "constrained"])
def test_an_attack_whose_hc_overflows_is_rejected(build):
    # each magnitude is finite, but Hc is not: InvalidArgument, with no
    # RuntimeWarning (the suite turns those into errors)
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match="overflows"):
        build(h)


def test_apply_attack_values():
    _, _, h = load_three_bus()
    np.testing.assert_allclose(apply_attack(BASE_Z, ATTACK_SMALL),
                               [0.6400, 0.0725, 0.3660], atol=1e-12)
    np.testing.assert_allclose(apply_attack(BASE_Z, ATTACK_LARGE),
                               [0.4700, 0.0850, 0.2100], atol=1e-12)
    np.testing.assert_array_equal(apply_attack(BASE_Z, np.zeros(3)), BASE_Z)
    with pytest.raises(LengthMismatch):
        apply_attack(BASE_Z, np.zeros(4))


def test_estimate_shift_law():
    # adding Hc moves the estimate by exactly c
    _, _, h = load_three_bus()
    rng = np.random.default_rng(51)
    for _ in range(10):
        c = rng.normal(size=2) * 0.05
        z = rng.uniform(-0.5, 0.5, size=3)
        clean = estimate_dc(h, z, W)
        hit = estimate_dc(h, z + craft_stealth_attack(h, c), W)
        np.testing.assert_allclose(hit.state - clean.state, c, atol=1e-10)


def test_residual_invariance_for_shipped_shifts():
    _, _, h = load_three_bus()
    clean = estimate_dc(h, BASE_Z, W)
    for shift in (SHIFT_SMALL, SHIFT_LARGE):
        hit = estimate_dc(h, apply_attack(BASE_Z, craft_stealth_attack(h, shift)), W)
        np.testing.assert_allclose(hit.residual, clean.residual, atol=1e-10)
        assert hit.squared_error_raw == pytest.approx(clean.squared_error_raw,
                                                      abs=1e-12)


def test_random_stealth_attack_contract():
    _, _, h = load_three_bus()
    c, a = random_stealth_attack(h, magnitude=0.01, seed=7)
    np.testing.assert_allclose(a, h @ c, atol=1e-14)
    assert np.linalg.norm(c) == pytest.approx(0.01, abs=1e-12)
    c2, _ = random_stealth_attack(h, magnitude=0.01, seed=8)
    assert not np.allclose(c, c2)
    c_again, _ = random_stealth_attack(h, magnitude=0.01, seed=7)
    np.testing.assert_array_equal(c, c_again)
    with pytest.raises(ValueError):
        random_stealth_attack(h, magnitude=0.0, seed=1)
    for seed in (-1, True, 1.5):
        with pytest.raises(InvalidArgument, match="seed"):
            random_stealth_attack(h, magnitude=0.01, seed=seed)
    for magnitude in ("0.01", True, None, 10**400):
        with pytest.raises(InvalidArgument, match="magnitude"):
            random_stealth_attack(h, magnitude=magnitude, seed=1)


# Seeds below 2**128 are seeded as one block; 2**128 and wider take
# default_rng itself.
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1,
                2**128, 2**200)
WIDE_SEEDS = [2**128, 2**200]


def hexes(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


def default_rng_stealth_attack(h, magnitude, seed):
    """The reference: one default_rng per call, as random_stealth_attack
    drew its direction before stealth directions were seeded in blocks."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=h.shape[1])
    while not np.linalg.norm(direction) > 0:
        direction = rng.normal(size=h.shape[1])
    c = direction / np.linalg.norm(direction) * magnitude
    return c, h @ c


@pytest.mark.parametrize("k", [1, 29, 300])
def test_seeded_generators_are_the_default_rng_streams(monkeypatch, k):
    # each Generator must continue exactly as default_rng(seed) does, and
    # only the seeds too wide for the pool may build a default_rng
    default_rng = np.random.default_rng
    built = []

    def spy(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    draws = [(rng.normal(size=k), rng.normal(size=k))
             for rng in _seeded_generators(STREAM_SEEDS)]
    monkeypatch.undo()
    assert built == WIDE_SEEDS
    for seed, (first, second) in zip(STREAM_SEEDS, draws):
        reference = default_rng(seed)
        assert hexes(first) == hexes(reference.normal(size=k))
        assert hexes(second) == hexes(reference.normal(size=k))


@pytest.mark.parametrize("k", [1, 29, 300])
def test_random_stealth_attack_is_the_default_rng_stream(k):
    h = np.random.default_rng(k).uniform(-5.0, 5.0, size=(k + 3, k))
    for seed in STREAM_SEEDS:
        c, a = random_stealth_attack(h, 0.05, seed)
        expected_c, expected_a = default_rng_stealth_attack(h, 0.05, seed)
        assert hexes(c) == hexes(expected_c)
        assert hexes(a) == hexes(expected_a)


def test_a_zero_direction_is_drawn_again_from_the_same_generator(monkeypatch):
    # a stream whose first draw is exactly 0.0 (layer 2, rabs 0): with k = 1
    # the direction has norm 0, so the next draw of that stream is taken
    zero = state_before(ziggurat_word(2, 0))

    def generators(seeds):
        for _ in seeds:
            rng = np.random.Generator(np.random.PCG64(0))
            rng.bit_generator.state = zero
            yield rng

    reference = np.random.Generator(np.random.PCG64(0))
    reference.bit_generator.state = zero
    assert reference.normal(size=1)[0] == 0.0
    second = reference.normal(size=1)[0]
    monkeypatch.setattr(gridse.attack, "_seeded_generators", generators)
    h = np.array([[2.0], [-1.0]])
    c, a = random_stealth_attack(h, 0.5, 3)
    assert c.tolist() == [np.copysign(0.5, second)]
    assert a.tolist() == [2.0 * c[0], -c[0]]


def test_random_stealth_attack_on_h_without_columns_is_rejected():
    # a one-bus network has no angle state: H is m x 0, and no direction
    # can be drawn from a zero-dimensional sphere
    with pytest.raises(DimensionMismatch):
        random_stealth_attack(np.zeros((1, 0)), magnitude=0.01, seed=1)


def test_verify_stealth_raises_where_the_estimator_rejects_h():
    _, _, h = load_three_bus()
    for thin in (h[1:2], np.zeros((3, 2)), np.zeros((1, 0))):
        with pytest.raises(UnobservableNetwork):
            estimate_dc(thin, np.zeros(len(thin)), np.ones(len(thin)))
        with pytest.raises(UnobservableNetwork):
            verify_stealth(thin, np.zeros(len(thin)))


def test_random_stealth_attack_is_invisible():
    _, _, h = load_three_bus()
    _, a = random_stealth_attack(h, magnitude=0.01, seed=3)
    z_attacked = apply_attack(BASE_Z, a)
    detector = DetectorConfig(method="chi_square")
    verdict = run_detector(detector, estimate_dc(h, z_attacked, W))
    assert verdict.statistic == pytest.approx(CHI2_BASE, abs=1e-10)


def test_constrained_attack_avoids_protected_meter():
    # protecting meter 2 forces c_1 = 0 (its row is (2.5, 0)), so the attack
    # direction collapses to c proportional to (0, 1) and a to (-5, 0, -4)
    _, _, h = load_three_bus()
    found = constrained_stealth_attack(h, accessible_meters=(1, 3))
    assert found is not None
    c, a = found
    assert abs(c[0]) <= 1e-12
    assert np.linalg.norm(c) == pytest.approx(0.01, abs=1e-12)
    np.testing.assert_allclose(a, np.array([-5.0, 0.0, -4.0]) * c[1], atol=1e-12)
    assert abs(a[1]) <= 1e-12
    assert verify_stealth(h, a)


def test_constrained_attack_infeasible():
    # meters 2 and 3 protected: rows (2.5, 0) and (0, -4) have rank 2
    _, _, h = load_three_bus()
    assert constrained_stealth_attack(h, accessible_meters=(1,)) is None


@pytest.mark.parametrize("magnitude", [0.0, -1.0, np.nan, np.inf, "0.01", True,
                                       pytest.param(10**400, id="huge-int")])
def test_constrained_attack_rejects_bad_magnitude(magnitude):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match="magnitude"):
        constrained_stealth_attack(h, (1, 3), magnitude)


def test_constrained_attack_unconstrained():
    _, _, h = load_three_bus()
    found = constrained_stealth_attack(h, accessible_meters=(1, 2, 3))
    assert found is not None
    c, a = found
    # with no blocked meter every column is free; the last state moves
    np.testing.assert_array_equal(c, [0.0, 0.01])
    assert verify_stealth(h, a)


def test_constrained_attack_random_instances():
    rng = np.random.default_rng(52)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(3, 8)))
        config = random_observable_config(rng, net)
        h = build_meter_model(net, config).dc_matrix
        m, k = h.shape
        n_accessible = int(rng.integers(0, m + 1))
        accessible = set(
            int(i) + 1 for i in rng.choice(m, size=n_accessible, replace=False)
        )
        found = constrained_stealth_attack(h, accessible)
        blocked = [i - 1 for i in range(1, m + 1) if i not in accessible]
        oracle_rank = row_reduction_rank(h[blocked, :]) if blocked else 0
        if found is None:
            assert oracle_rank == k
        else:
            c, a = found
            assert oracle_rank < k
            assert verify_stealth(h, a)
            if blocked:
                assert np.max(np.abs(a[blocked])) <= 1e-12


def _forty_bus_h():
    rng = np.random.default_rng(61)
    net = random_network(rng, 40)
    h = build_meter_model(
        net, MeasurementConfig(specs=tuple(dc_meter_candidates(net)))).dc_matrix
    return rng, net, h


def _region_of_a_branch(net, k):
    """The indicator of the two angle states joined by the first branch
    between two non-reference buses."""
    states = [b.id for b in net.buses if not b.is_reference]
    pair = next(br for br in net.branches
                if br.from_bus in states and br.to_bus in states)
    region = np.zeros(k)
    region[[states.index(pair.from_bus), states.index(pair.to_bus)]] = 1.0
    return region


def test_constrained_attack_with_many_blocked_rows_finds_the_region_shift():
    # blocked rows that see two adjacent buses only through their common
    # shift leave 1_S free but no column zero, so the null vector comes from
    # the pivoted factor; it is the region's shift up to rounding and sign
    _, net, h = _forty_bus_h()
    m, k = h.shape
    region = _region_of_a_branch(net, k)
    accessible = set(int(i) + 1 for i in np.flatnonzero(h @ region))
    blocked = [i for i in range(m) if i + 1 not in accessible]
    assert len(blocked) >= k
    assert np.all(np.any(h[blocked], axis=0))
    assert _reference_rank(h[blocked]) == k - 1
    with _without_svd_or_lstsq():
        c, a = constrained_stealth_attack(h, accessible, magnitude=0.02)
    expected = 0.02 * region / np.linalg.norm(region)
    np.testing.assert_allclose(c * np.sign(c @ region), expected,
                               rtol=0, atol=1e-16)
    np.testing.assert_array_equal(a, h @ c)
    assert np.max(np.abs(a[blocked])) <= 1e-12


def test_constrained_attack_on_a_zero_column_shifts_only_that_state():
    # the targeted attack: the accessible meters are every meter that sees
    # one angle, so the blocked rows leave exactly that column zero
    rng, _, h = _forty_bus_h()
    m, k = h.shape
    col = int(rng.integers(k))
    accessible = set(int(i) + 1 for i in np.flatnonzero(h[:, col]))
    blocked = [i for i in range(m) if i + 1 not in accessible]
    np.testing.assert_array_equal(
        np.flatnonzero(~np.any(h[blocked], axis=0)), [col])
    c, a = constrained_stealth_attack(h, accessible, magnitude=0.02)
    np.testing.assert_array_equal(c, 0.02 * np.eye(k)[col])
    np.testing.assert_array_equal(a, 0.02 * h[:, col])
    assert not np.any(a[blocked])


def test_constrained_attack_prefers_a_zero_column_to_other_free_shifts():
    # with the region's shift free as well, the attack is still the exact
    # unit shift of the last zero column, never a blend with the region
    _, net, h = _forty_bus_h()
    m, k = h.shape
    region = _region_of_a_branch(net, k)
    for col in range(k):
        seen = (h[:, col] != 0) | (h @ region != 0)
        blocked = np.flatnonzero(~seen)
        last_zero = np.flatnonzero(~np.any(h[blocked], axis=0))[-1]
        c, a = constrained_stealth_attack(h, np.flatnonzero(seen) + 1,
                                          magnitude=0.02)
        np.testing.assert_array_equal(c, 0.02 * np.eye(k)[last_zero])
        assert not np.any(a[blocked])


def test_verify_stealth_judgements():
    _, _, h = load_three_bus()
    assert verify_stealth(h, ATTACK_SMALL)
    assert verify_stealth(h, np.zeros(3))
    # the gross corruption (0.01, -0.01, -0.02) solves rows 2 and 3 with
    # c = (-0.004, 0.005) but row 1 then gives -0.045, not 0.01
    assert not verify_stealth(h, np.array([0.01, -0.01, -0.02]))
    with pytest.raises(DimensionMismatch):
        verify_stealth(h, np.zeros(4))


def test_protection_check_three_bus():
    _, _, h = load_three_bus()
    full = protection_check(h, protected_meters=(2, 3))
    assert full.protected and full.residual_attack_dim == 0
    partial = protection_check(h, protected_meters=(2,))
    assert not partial.protected and partial.residual_attack_dim == 1
    empty = protection_check(h, protected_meters=())
    assert not empty.protected and empty.residual_attack_dim == 2


def test_protection_check_monotone():
    rng = np.random.default_rng(53)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 8)))
        config = random_observable_config(rng, net)
        h = build_meter_model(net, config).dc_matrix
        m = h.shape[0]
        meters = list(range(1, m + 1))
        rng.shuffle(meters)
        previous_dim = protection_check(h, ()).residual_attack_dim
        for cut in range(1, m + 1):
            dim = protection_check(h, meters[:cut]).residual_attack_dim
            assert dim <= previous_dim
            previous_dim = dim


def test_rank_decisions_follow_the_estimator_over_a_reactance_sweep():
    # one reactance swept over 1e-3..1e9 drives the gain from well to badly
    # conditioned; every decision must be the estimator's, with no SVD,
    # least squares or matrix_rank taken
    rng = np.random.default_rng(71)
    cases = rejected = moved = 0
    for _ in range(40):
        net = random_network(rng, int(rng.integers(3, 31)))
        config = random_observable_config(rng, net)
        j = int(rng.integers(len(net.branches)))
        for x in 10.0 ** np.arange(-3, 10):
            branches = list(net.branches)
            branches[j] = replace(branches[j], reactance_x=float(x))
            swept = replace(net, branches=tuple(branches))
            h = build_meter_model(swept, config).dc_matrix
            m, k = h.shape
            protected = rng.choice(m, size=int(rng.integers(1, m + 1)),
                                   replace=False) + 1
            rows = h[protected - 1]
            a = h @ rng.normal(0.0, 0.05, k)
            a_out = a + rng.normal(0.0, 1e-3, m)
            with _without_svd_or_lstsq():
                report = protection_check(h, protected)
                observable = check_observability(swept, config).observable
                # the same rows, blocked from an attacker who holds the rest
                found = constrained_stealth_attack(
                    h, np.setdiff1d(np.arange(1, m + 1), protected))
                answers = []
                for vec in (a, a_out) + (() if found is None else (found[1],)):
                    try:
                        answers.append(verify_stealth(h, vec))
                    except UnobservableNetwork:
                        answers.append(None)
            assert report.protected == estimator_accepts(rows)
            accepted = estimator_accepts(h)
            assert observable == accepted
            assert (None in answers) == (not accepted)
            if accepted:
                assert answers[0] == _reference_in_range(h, a)
                assert answers[1] == _reference_in_range(h, a_out)
            assert (found is None) == report.protected
            if found is not None:
                c = found[0]
                assert answers[2] is not False
                sigma_1 = _SVD(rows, compute_uv=False)[0]
                assert (np.linalg.norm(rows @ c)
                        <= 2.0 * sigma_1 * np.linalg.norm(c) / np.sqrt(1e12))
            # where the rank moved from the singular-value rule, the
            # dropped direction lies between 1e-9 and about 1e-6 of sigma_1
            rank = k - report.residual_attack_dim
            if rank != _reference_rank(rows):
                s = _SVD(rows, compute_uv=False)
                assert 1e-9 < s[rank] / s[0] < 2e-6
                moved += 1
            rejected += not accepted
            cases += 1
    assert cases == 520
    assert 0 < moved < cases
    assert 0 < rejected < cases


def test_protection_with_a_nearly_open_line_follows_the_estimator():
    # chain 1-2-3 with x_23 = 1e7, metering flows 1-2 and 2-3 and
    # injection 1: the estimator rejects the gain (condition about 1e16).
    # The smallest singular value is about 7e-9 of the largest, above the
    # old 1e-9 rule, but the rows no longer count as protecting
    net = NetworkModel(
        buses=(Bus(id=1), Bus(id=2), Bus(id=3, is_reference=True)),
        branches=(Branch(from_bus=1, to_bus=2, reactance_x=0.2),
                  Branch(from_bus=2, to_bus=3, reactance_x=1e7)))
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="flow_p", from_bus=1, to_bus=2, sigma=0.01),
        MeasurementSpec(kind="flow_p", from_bus=2, to_bus=3, sigma=0.01),
        MeasurementSpec(kind="injection_p", bus=1, sigma=0.01)))
    h = build_meter_model(net, config).dc_matrix
    with pytest.raises(UnobservableNetwork):
        estimate_dc(h, np.zeros(3), np.full(3, 1e4))
    assert _reference_rank(h) == 2
    report = protection_check(h, (1, 2, 3))
    assert not report.protected and report.residual_attack_dim == 1
    assert check_observability(net, config).rank == 1
    assert constrained_stealth_attack(h, ()) is not None
    with pytest.raises(UnobservableNetwork):
        verify_stealth(h, np.zeros(3))


def _hundred_bus_h(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 100)
    h = build_meter_model(
        net, MeasurementConfig(specs=tuple(dc_meter_candidates(net)))).dc_matrix
    return rng, h


def test_protection_counts_zero_columns_as_stealth_directions():
    # rows that never see one angle leave that column zero; dropping a bus's
    # meters can strand a neighbour too, so more directions may survive
    for seed in (71, 72, 73):
        _, h = _hundred_bus_h(seed)
        m, k = h.shape
        for col in (0, k // 2, k - 1):
            rows = np.flatnonzero(h[:, col] == 0)
            zero_columns = int(np.sum(~np.any(h[rows], axis=0)))
            report = protection_check(h, rows + 1)
            assert report.residual_attack_dim == k - _reference_rank(h[rows])
            assert report.residual_attack_dim >= zero_columns >= 1


def test_well_conditioned_answers_take_neither_svd_nor_lstsq():
    rng, h = _hundred_bus_h(72)
    m, k = h.shape
    # on this grid the rows that never see this angle leave every other
    # column at full rank, so the only deficiency is the zero column
    col = int(rng.integers(k))
    rows = np.flatnonzero(h[:, col] == 0) + 1
    assert _reference_rank(h[rows - 1]) == k - 1
    a = h @ rng.normal(0.0, 0.05, k)
    with _without_svd_or_lstsq():
        assert verify_stealth(h, a)
        assert verify_stealth(h, np.zeros(m))
        full = protection_check(h, range(1, m + 1))
        assert full.protected and full.residual_attack_dim == 0
        assert protection_check(h, rows).residual_attack_dim == 1
        assert protection_check(h, ()).residual_attack_dim == k
        c, _ = constrained_stealth_attack(h, np.flatnonzero(h[:, col]) + 1)
        np.testing.assert_array_equal(c, 0.01 * np.eye(k)[col])
        assert constrained_stealth_attack(h, ()) is None


def test_verify_stealth_rescales_attacks_that_would_overflow():
    # ||a|| and H^T a overflow unless a is rescaled first; the relative bound
    # makes the decision that of the rescaled vector
    _, _, h = load_three_bus()
    huge = np.full(3, 1e308)
    assert verify_stealth(h, huge) is False
    assert not _reference_in_range(h, np.ldexp(huge, -1024))
    assert verify_stealth(h, h @ np.array([1e307, 2e307])) is True


def test_certificates_treat_an_overflowing_gain_as_rejected():
    # H^T H would overflow or underflow; the one gain factor scales H by a
    # power of two first, so every answer, the estimator's included, is
    # that of H itself
    _, _, h = load_three_bus()
    state = estimate_dc(h, BASE_Z, W).state
    for scale in (1e200, 1e160, 1e-160, 1e-200):
        big = h * scale
        assert estimator_accepts(big)
        assert protection_check(big, (1, 2, 3)) == protection_check(h, (1, 2, 3))
        assert protection_check(big, (2,)) == protection_check(h, (2,))
        assert constrained_stealth_attack(big, ()) is None
        c, a = constrained_stealth_attack(big, (1, 3))
        np.testing.assert_array_equal(c, constrained_stealth_attack(h, (1, 3))[0])
        assert a[1] == 0.0
        assert verify_stealth(big, a)
        assert verify_stealth(big, big @ SHIFT_SMALL)
        # the bound is 1e-9 * ||a|| at every scale, so a perturbation of
        # 1e-5 on H is seen also where a is far below unit size
        assert not verify_stealth(
            big, big @ SHIFT_SMALL + np.array([scale * 1e-5, 0, 0]))
        np.testing.assert_allclose(
            estimate_dc(big, BASE_Z * scale, W).state, state, rtol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attack_functions_reject_non_finite_inputs(bad):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match="attack vector must be finite"):
        verify_stealth(h, np.array([0.0, bad, 0.0]))
    h = h.copy()
    h[1, 0] = bad
    with pytest.raises(InvalidArgument, match="H must be finite"):
        verify_stealth(h, np.zeros(3))
    with pytest.raises(InvalidArgument, match="H must be finite"):
        protection_check(h, (1, 2, 3))
    with pytest.raises(InvalidArgument, match="H must be finite"):
        constrained_stealth_attack(h, (1, 3))
    with pytest.raises(InvalidArgument, match="H must be finite"):
        craft_stealth_attack(h, SHIFT_SMALL)
    with pytest.raises(InvalidArgument, match="H must be finite"):
        random_stealth_attack(h, magnitude=0.01, seed=1)


def test_a_complex_attack_vector_is_refused_not_cast():
    # a cast to float would drop the imaginary part and call it stealthy
    _, _, h = load_three_bus()
    a = h @ SHIFT_SMALL
    assert verify_stealth(h, a)
    for bad in (a + 1j, a.astype(complex), [complex(v) for v in a]):
        with pytest.raises(InvalidArgument, match="real numbers"):
            verify_stealth(h, bad)
    with pytest.raises(InvalidArgument, match="real numbers"):
        verify_stealth(h.astype(complex), a)


@pytest.mark.parametrize("bad", ["x", [0.0], 10**400],
                         ids=["text", "ragged", "huge-int"])
def test_attack_functions_reject_entries_that_are_not_numbers(bad):
    _, _, h = load_three_bus()
    vector = [0.0, bad, 0.0]
    h_bad = [[5.0, -5.0], [bad, 0.0], [0.0, -4.0]]
    calls = [
        lambda: craft_stealth_attack(h, [0.01, bad]),
        lambda: craft_stealth_attack(h_bad, SHIFT_SMALL),
        lambda: verify_stealth(h, vector),
        lambda: verify_stealth(h_bad, np.zeros(3)),
        lambda: apply_attack(vector, np.zeros(3)),
        lambda: apply_attack(np.zeros(3), vector),
        lambda: protection_check(h_bad, (1, 2)),
        lambda: constrained_stealth_attack(h_bad, (1, 3)),
        lambda: random_stealth_attack(h_bad, magnitude=0.01, seed=1),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()


@pytest.mark.parametrize("meters", ["12", [1.5], [True], [np.bool_(True)],
                                    [1, None], 3])
def test_meter_indices_must_be_integers(meters):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match="meter ind"):
        protection_check(h, meters)
    with pytest.raises(InvalidArgument, match="meter ind"):
        constrained_stealth_attack(h, meters)


def test_numpy_integer_meter_indices_are_accepted():
    _, _, h = load_three_bus()
    assert protection_check(h, np.array([2, 3])) == protection_check(h, (2, 3))
    assert protection_check(h, [np.int32(2)]).residual_attack_dim == 1
    c, _ = constrained_stealth_attack(h, np.array([1, 3], dtype=np.int64))
    np.testing.assert_array_equal(c, constrained_stealth_attack(h, (1, 3))[0])


def all_meters_h(rng, n):
    """The dc H of every flow (both ends) and injection meter of a seeded
    random n-bus grid."""
    net = random_network(rng, n)
    config = MeasurementConfig(specs=tuple(dc_meter_candidates(net)))
    return build_meter_model(net, config).dc_matrix


def assert_subset_answers_are_the_copying_oracles(h, accessible, protected):
    """constrained_stealth_attack (c and a), verify_stealth and
    protection_check on h equal the oracle's, which copies the rows it
    factors, by float.hex. Returns the (full rank, row pattern) kinds of the
    blocked and the protected rows' factors."""
    m, k = h.shape
    found = constrained_stealth_attack(h, accessible)
    expected = constrained_attack_by_copy(h, accessible)
    assert (found is None) == (expected is None)
    vectors = [h @ np.linspace(-1.0, 1.0, k), np.linspace(1.0, 2.0, m)]
    if found is not None:
        assert hexes(found[0]) == hexes(expected[0])
        assert hexes(found[1]) == hexes(expected[1])
        vectors.append(found[1])
    for a in vectors:
        if estimator_accepts(h):
            assert verify_stealth(h, a) is verify_stealth_by_copy(h, a)
        else:
            with pytest.raises(UnobservableNetwork):
                verify_stealth(h, a)
    rank = protection_rank_by_copy(h, protected)
    assert protection_check(h, protected) == ProtectionReport(rank == k, k - rank)
    blocked = np.setdiff1d(np.arange(m), np.asarray(accessible, dtype=int) - 1)
    return {(f.rank == k, f.pattern is not None)
            for f in (rows_by_copy(h, blocked),
                      rows_by_copy(h, np.asarray(protected, dtype=int) - 1))}


def test_subset_answers_are_the_copying_oracles_bit_for_bit():
    rng = np.random.default_rng(47)
    matrices = [all_meters_h(rng, n) for n in (30, 120, 250)]
    # dense (w^2 > k): full rank, and of rank k/2 + 1 below k
    matrices += [rng.normal(size=(2 * k, k)) for k in (3, 9, 40)]
    matrices += [rng.normal(size=(2 * k, k // 2 + 1)) @ rng.normal(size=(k // 2 + 1, k))
                 for k in (6, 30)]
    kinds = set()
    for h in matrices:
        m = len(h)
        # every meter accessible leaves no blocked row, and () protects none
        for share in (0.0, 0.25, 0.75, 1.0):
            accessible = sorted(int(i) + 1 for i in
                                rng.choice(m, int(share * m), replace=False))
            protected = sorted(int(i) + 1 for i in
                               rng.choice(m, int((1 - share) * m), replace=False))
            kinds |= assert_subset_answers_are_the_copying_oracles(
                h, accessible, protected)
    # full rank and below it, each from the row pattern and from SYRK
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_h_is_refused_before_any_meter_index(bad):
    # the entry sits in the last row, outside every subset factored here,
    # once where H is zero and once on a nonzero
    h = all_meters_h(np.random.default_rng(48), 30)
    m = len(h)
    with pytest.raises(DimensionMismatch):
        protection_check(h, (1, m + 1))
    for column in (np.flatnonzero(h[-1] == 0.0)[0], np.flatnonzero(h[-1])[0]):
        bad_h = h.copy()
        bad_h[-1, column] = bad
        calls = [
            lambda: protection_check(bad_h, (1, 2)),
            lambda: protection_check(bad_h, (1, m + 1)),
            lambda: protection_check(bad_h, ()),
            lambda: constrained_stealth_attack(bad_h, (m,)),
            lambda: constrained_stealth_attack(bad_h, (m, m + 1)),
            lambda: verify_stealth(bad_h, np.zeros(m)),
        ]
        for call in calls:
            with pytest.raises(InvalidArgument, match="H must be finite"):
                call()


def bench_generator():
    """bench/gen.py, the benchmark's seeded grid generator (it imports no
    gridse)."""
    path = Path(__file__).parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    gen = sys.modules.setdefault("_bench_gen", importlib.util.module_from_spec(spec))
    if not hasattr(gen, "dc_grid"):
        spec.loader.exec_module(gen)
    return gen


@pytest.mark.parametrize("call", ["protection", "constrained"])
def test_subset_answers_copy_no_rows(call):
    # peak traced memory of one call, in units of the gain's 8 k^2 bytes,
    # on the 900 x 399 H of the benchmark generator's 400-bus grid (w^2 <=
    # k, so the gain is summed from the row pattern). The gain, its gather
    # and H's nonzero mask (m k bytes, 0.28) read about 2.34, both for the
    # check of three quarters of the rows and for an attack with a quarter
    # of the meters accessible. A copy of those rows would add about 0.8
    # at the peak: the copying oracle reads about 3.13 on both.
    h = bench_generator().dc_grid(5, 400, 100).p_matrix()
    m, k = h.shape
    assert (m, k) == (900, 399)
    rng = np.random.default_rng(49)
    if call == "protection":
        meters = sorted(int(i) + 1 for i in rng.choice(m, 3 * m // 4, replace=False))
        calls = (lambda: protection_check(h, meters),
                 lambda: protection_rank_by_copy(h, meters))
    else:
        meters = sorted(int(i) + 1 for i in rng.choice(m, m // 4, replace=False))
        calls = (lambda: constrained_stealth_attack(h, meters),
                 lambda: constrained_attack_by_copy(h, meters))
    for run in calls:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1] / (8 * k * k)
        finally:
            tracemalloc.stop()
        assert (peak < 2.7) == (run is calls[0]), peak


@pytest.mark.parametrize("power", [-1020, -1030, -1074])
def test_rank_answers_hold_at_the_bottom_of_the_float_range(power):
    # below 2^-1022 the gain's scale 2^-shift would leave the float range
    # (2^1029 at 2^-1030), which read rank 0 and called the meters
    # unprotected; the shift stops at -1022, so every rank answer is that of
    # the same H scaled back up by exactly 2^-power. At 2^-1074 the entries
    # round to integers times 2^-1074, so that H is no longer the case's.
    _, _, h = load_three_bus()
    tiny = np.ldexp(h, power)
    ref = np.ldexp(tiny, -power)
    assert np.array_equal(ref, h) == (power > -1074)
    f, g = _pivoted_gain(tiny, np.ones(3)), _pivoted_gain(ref, np.ones(3))
    assert f.rank == g.rank == 2
    assert f.piv.tolist() == g.piv.tolist()
    assert f.condition == g.condition
    # U scales with H, exactly
    assert np.array_equal(np.ldexp(np.triu(f.upper), f.shift - g.shift - power),
                          np.triu(g.upper))
    for meters in ((1, 2), (2,), (1, 2, 3), ()):
        assert protection_check(tiny, meters) == protection_check(ref, meters)
    for accessible in ((1, 3), (2, 3), (1, 2, 3), ()):
        found, expected = (constrained_stealth_attack(x, accessible)
                           for x in (tiny, ref))
        assert (found is None) == (expected is None)
        if found is not None:
            assert hexes(found[0]) == hexes(expected[0])
    # the solve's H^T products round subnormal entries' low bits away, so
    # only an H whose nonzeros keep enough of them is judged as at unit scale
    if power > -1074:
        assert verify_stealth(tiny, tiny @ np.array([1.0, 2.0]))
        assert not verify_stealth(tiny, np.array([1.0, 2.0, 3.0]))

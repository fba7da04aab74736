"""Stealth attack construction, verification, and protection analysis."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

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
    build_admittance,
    check_observability,
    constrained_stealth_attack,
    craft_stealth_attack,
    dc_jacobian,
    estimate_dc,
    protection_check,
    random_stealth_attack,
    run_detector,
    verify_stealth,
)
from helpers import (
    dc_meter_candidates,
    estimator_accepts,
    load_three_bus,
    random_network,
    random_observable_config,
)
from oracles import row_reduction_rank

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
    c, *_ = _LSTSQ(h, a, rcond=None)
    return bool(np.linalg.norm(a - h @ c) <= 1e-9 * max(1.0, np.linalg.norm(a)))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_craft_rejects_a_non_finite_shift(bad):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument):
        craft_stealth_attack(h, np.array([bad, 0.0]))


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
    verdict = run_detector(detector, h, z_attacked, W,
                           estimate_dc(h, z_attacked, W))
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
        adm = build_admittance(net)
        config = random_observable_config(rng, net)
        h = dc_jacobian(net, adm, config)
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
    h = dc_jacobian(net, build_admittance(net),
                    MeasurementConfig(specs=tuple(dc_meter_candidates(net))))
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
        adm = build_admittance(net)
        config = random_observable_config(rng, net)
        h = dc_jacobian(net, adm, config)
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
            h = dc_jacobian(swept, build_admittance(swept), config)
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
    h = dc_jacobian(net, build_admittance(net), config)
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
    h = dc_jacobian(net, build_admittance(net),
                    MeasurementConfig(specs=tuple(dc_meter_candidates(net))))
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
    # H^T H would overflow; the rank rule scales H by a power of two first,
    # so every answer is that of H itself
    _, _, h = load_three_bus()
    big = h * 1e200
    assert protection_check(big, (1, 2, 3)) == protection_check(h, (1, 2, 3))
    assert protection_check(big, (2,)) == protection_check(h, (2,))
    assert constrained_stealth_attack(big, ()) is None
    c, a = constrained_stealth_attack(big, (1, 3))
    np.testing.assert_array_equal(c, constrained_stealth_attack(h, (1, 3))[0])
    assert a[1] == 0.0
    assert verify_stealth(big, a)
    assert verify_stealth(big, big @ SHIFT_SMALL)
    assert not verify_stealth(big, big @ SHIFT_SMALL + np.array([1e195, 0, 0]))


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

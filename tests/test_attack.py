"""Stealth attack construction, verification, and protection analysis."""

import numpy as np
import pytest

from gridse import (
    DetectorConfig,
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    MeasurementConfig,
    apply_attack,
    build_admittance,
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


@pytest.mark.parametrize("magnitude", [0.0, -1.0, np.nan, np.inf])
def test_constrained_attack_rejects_bad_magnitude(magnitude):
    _, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match="magnitude"):
        constrained_stealth_attack(h, (1, 3), magnitude)


def test_constrained_attack_unconstrained():
    _, _, h = load_three_bus()
    found = constrained_stealth_attack(h, accessible_meters=(1, 2, 3))
    assert found is not None
    c, a = found
    assert np.linalg.norm(c) > 0
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


def test_constrained_attack_with_many_blocked_rows_matches_full_svd():
    # with at least k blocked rows the attack takes the thin SVD; its
    # direction must be exactly the full SVD's last right singular vector
    rng = np.random.default_rng(61)
    net = random_network(rng, 40)
    h = dc_jacobian(net, build_admittance(net),
                    MeasurementConfig(specs=tuple(dc_meter_candidates(net))))
    m, k = h.shape
    # blocked rows never see this angle, so a stealth direction exists
    col = int(rng.integers(k))
    accessible = set(int(i) + 1 for i in np.flatnonzero(h[:, col]))
    blocked = [i for i in range(m) if i + 1 not in accessible]
    assert len(blocked) >= k
    c, a = constrained_stealth_attack(h, accessible, magnitude=0.02)
    vh = np.linalg.svd(h[blocked, :], full_matrices=True)[2]
    expected = vh[-1] / np.linalg.norm(vh[-1]) * 0.02
    np.testing.assert_array_equal(c, expected)
    np.testing.assert_array_equal(a, h @ expected)


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

"""Stealth measurement-attack construction and protection analysis.

A corruption a added to the readings (z_a = z + a) is invisible to every
residual-based detector exactly when a = Hc for some state shift c: the
estimate moves by c while the residual, and therefore every detection
statistic, stays identical. All constructions here work against the constant
linear meter matrix H (m x k, k = angle state dimension); meter index sets
are 1-based file order. A non-finite H, or a meter index that is not an
integer (a bool is not), raises InvalidArgument.

Every rank question is the estimator's: one pivoted Cholesky of the rows'
unit-weight gain under the condition guard of :func:`estimation.factor_gain`
(limit 1e12), so rows have full column rank exactly when
``factor_gain(rows, ones)`` accepts them, and a direction whose singular
value is below about 1e-6 of the largest counts as unseen. Its rank answers
:func:`protection_check`, its null vectors :func:`constrained_stealth_attack`
and its solve :func:`verify_stealth`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    UnobservableNetwork,
)
from .estimation import _pivoted_gain, _unit_scale
from .measurement import _check_seed

STEALTH_RTOL = 1e-9
DEFAULT_MAGNITUDE = 0.01


@dataclass(frozen=True)
class ProtectionReport:
    """Outcome of guarding a meter subset against stealth corruption.

    ``protected`` is true when the guarded rows of H have full column rank,
    leaving no nonzero shift invisible; ``residual_attack_dim`` counts the
    independent stealth directions that survive the guard.
    """

    protected: bool
    residual_attack_dim: int


def _as_matrix(h_matrix: np.ndarray) -> np.ndarray:
    h = np.asarray(h_matrix, dtype=float)
    if h.ndim != 2:
        raise DimensionMismatch(f"H must be a matrix, got ndim {h.ndim}")
    if not np.isfinite(h).all():
        raise InvalidArgument("H must be finite")
    return h


def _meter_rows(meters: Iterable[int], m: int) -> np.ndarray:
    try:
        indices = list(meters)
    except TypeError:
        raise InvalidArgument(
            f"meter indices must be iterable, got {meters!r}") from None
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise InvalidArgument(f"meter index must be an integer, got {i!r}")
    rows = sorted(set(int(i) for i in indices))
    for i in rows:
        if not 1 <= i <= m:
            raise DimensionMismatch(f"meter index {i} outside 1..{m}")
    return np.array(rows, dtype=int) - 1


def _check_magnitude(magnitude: float):
    if isinstance(magnitude, bool) or not isinstance(magnitude, numbers.Real) \
            or not 0.0 < magnitude < np.inf:
        raise InvalidArgument(
            f"magnitude must be a positive finite number, got {magnitude!r}")


def craft_stealth_attack(h_matrix: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a = Hc: the corruption that shifts the estimate by exactly c.

    A non-finite entry of c raises InvalidArgument.
    """
    h = _as_matrix(h_matrix)
    c = np.asarray(c, dtype=float)
    if c.shape != (h.shape[1],):
        raise DimensionMismatch(
            f"c has shape {c.shape} but H has {h.shape[1]} columns"
        )
    if not np.all(np.isfinite(c)):
        raise InvalidArgument("c must be finite")
    return h @ c


def random_stealth_attack(h_matrix: np.ndarray, magnitude: float,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random stealth direction: c on the sphere of the given radius.

    Deterministic in the seed; returns (c, Hc). A magnitude that is not
    positive and finite, or a seed that is not a non-negative integer,
    raises InvalidArgument; an H with no columns raises DimensionMismatch.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
    if not h.shape[1]:
        raise DimensionMismatch("H has no columns, so there is no state to shift")
    rng = np.random.default_rng(_check_seed(seed))
    direction = rng.normal(size=h.shape[1])
    while not np.linalg.norm(direction) > 0:
        direction = rng.normal(size=h.shape[1])
    c = direction / np.linalg.norm(direction) * magnitude
    return c, h @ c


def constrained_stealth_attack(h_matrix: np.ndarray,
                               accessible_meters: Iterable[int],
                               magnitude: float = DEFAULT_MAGNITUDE,
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """Stealth attack touching only the accessible meters.

    Finds a nonzero shift c with (Hc)_i = 0 on every meter outside the
    accessible set, i.e. c in the null space of the blocked-row submatrix,
    scaled to ``magnitude``, which must be positive and finite (else
    InvalidArgument). Returns None exactly when the blocked rows are
    protected (:func:`protection_check`); that is not an error.

    If a free column j of the blocked rows' pivoted Cholesky U is all zero
    (the last such; with no blocked meter, the last state), c is exactly
    ``magnitude`` e_j and a is exactly zero on every blocked meter. Else j
    is the last column in pivot order and c is the null vector
    [-U11^-1 U12 e_j; e_j], scaled. Its footprint is the pivot the factor
    cut: ||H_blocked c|| is within a small multiple of
    sigma_1(H_blocked) ||c|| / sqrt(CONDITION_LIMIT), a multiple above 1
    only where the condition guard cut the rank below ``pstrf``'s.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
    m, k = h.shape
    sub = h[np.setdiff1d(np.arange(m), _meter_rows(accessible_meters, m))]
    rank, upper, piv = _pivoted_gain(sub)
    if rank == k:
        return None
    free = piv[rank:]
    zero = free[~np.any(sub[:, free], axis=0)]
    c = np.zeros(k)
    if zero.size:
        c[zero.max()] = magnitude
    else:
        c[free[-1]] = 1.0
        c[piv[:rank]] = -solve_triangular(upper[:rank, :rank], upper[:rank, -1])
        c *= magnitude / np.linalg.norm(c)
    return c, h @ c


def apply_attack(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """z_a = z + a."""
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    if z.shape != a.shape:
        raise LengthMismatch(f"z has shape {z.shape}, attack has shape {a.shape}")
    return z + a


def verify_stealth(h_matrix: np.ndarray, a: np.ndarray) -> bool:
    """True iff a lies in the column space of H.

    The projection residual ||a - Hc|| must be at most
    1e-9 * max(1, ||a||), with c solved on the pivoted Cholesky of H's
    unit-weight gain. An a with an entry above 1 in magnitude, and H, are
    first scaled by powers of two to below 1: the bound is then relative,
    so no scale changes a decision, and no product can overflow. An H the
    estimator rejects (rank below k, or k = 0) raises UnobservableNetwork,
    as :func:`estimation.estimate_dc` does; a non-finite H or attack vector
    raises InvalidArgument.
    """
    h = _unit_scale(_as_matrix(h_matrix))
    a = np.asarray(a, dtype=float)
    if a.shape != (h.shape[0],):
        raise DimensionMismatch(
            f"attack has shape {a.shape} but H has {h.shape[0]} rows"
        )
    if not np.isfinite(a).all():
        raise InvalidArgument("attack vector must be finite")
    if np.max(np.abs(a), initial=0.0) > 1.0:
        a = _unit_scale(a)
        bound = STEALTH_RTOL * np.linalg.norm(a)
    else:
        bound = STEALTH_RTOL * max(1.0, np.linalg.norm(a))
    k = h.shape[1]
    rank, upper, piv = _pivoted_gain(h)
    if not 0 < rank == k:
        raise UnobservableNetwork(f"H has numerical rank {rank} of {k}")
    c = np.empty(k)
    c[piv], _ = lapack.dpotrs(upper, (h.T @ a)[piv], lower=0)
    return bool(np.linalg.norm(a - h @ c) <= bound)


def protection_check(h_matrix: np.ndarray,
                     protected_meters: Iterable[int]) -> ProtectionReport:
    """Does tamper-proofing this meter subset rule out stealth attacks?

    A stealth shift must vanish on the protected rows, so the surviving
    attack directions form the null space of the protected-row submatrix:
    dimension k - rank. Full rank means no nonzero shift survives; with
    the rank rule of the module docstring, exactly when
    ``factor_gain(rows, ones)`` accepts the protected rows.
    """
    h = _as_matrix(h_matrix)
    m, k = h.shape
    rank = _pivoted_gain(h[_meter_rows(protected_meters, m), :])[0]
    return ProtectionReport(protected=rank == k, residual_attack_dim=k - rank)

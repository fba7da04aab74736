"""Stealth measurement-attack construction and protection analysis.

A corruption a added to the readings (z_a = z + a) is invisible to every
residual-based detector exactly when a = Hc for some state shift c: the
estimate moves by c while the residual, and therefore every detection
statistic, stays identical. All constructions here work against the constant
linear meter matrix H (m x k, k = angle state dimension); meter index sets
are 1-based file order. A non-finite H, or a meter index that is not an
integer (a bool is not), raises InvalidArgument.

Rank decisions use singular values: anything below 1e-9 times the largest
singular value counts as zero. Three questions are first answered from the
gain Cholesky that estimation already uses (:func:`estimation.factor_gain`,
condition limit 1e12): "is a = Hc?" (:func:`verify_stealth`), "do these
rows have full column rank?" (:func:`protection_check`) and "which shift
do these rows not see?" (:func:`constrained_stealth_attack`). The last two
share one certificate: each all-zero column of the rows is an exact null
direction, and when the gain of the other columns is accepted (a gain
whose product overflows is not) those columns have full rank. Only when a
certificate fails do they take the least-squares fit or the SVD, whose
rules are unchanged, so every decision equals theirs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    UnobservableNetwork,
)
from .estimation import GainFactor, factor_gain
from .measurement import _check_seed

RANK_RTOL = 1e-9
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


def _svd_rank(s: np.ndarray) -> int:
    """Number of singular values s (descending) above RANK_RTOL * s[0]."""
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0


def _unit_gain(h: np.ndarray) -> GainFactor | None:
    """factor_gain(h, ones), or None when it rejects the gain; a gain whose
    product overflows is rejected without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return factor_gain(h, np.ones(h.shape[0]))
        except UnobservableNetwork:
            return None


def _zero_column_certificate(sub: np.ndarray) -> tuple[np.ndarray, bool]:
    """The all-zero columns of sub (a boolean mask), and whether they span
    its whole null space under the singular-value rule.

    That holds when no other column is left or the gain of the others is
    accepted: its condition is then at most 1e12, so their smallest singular
    value is about 1e-6 of the largest or more, well above RANK_RTOL.
    """
    zero = ~np.any(sub, axis=0)
    return zero, bool(zero.all()) or _unit_gain(sub[:, ~zero]) is not None


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
    raises InvalidArgument.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
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
    InvalidArgument). Returns None when only c = 0 satisfies the
    constraints; that is a legitimate outcome, not an error.

    When the zero-column certificate in the module docstring holds, the
    null space is spanned by the all-zero columns of the blocked rows, and c
    is ``magnitude`` times the unit vector of the last of them (exactly zero
    on every blocked meter); with no blocked meter that is the last state.
    Otherwise the SVD of the blocked rows decides, and c is the right
    singular vector of the smallest singular value (deterministic SVD
    ordering), unit-normalized.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
    m, k = h.shape
    blocked = np.setdiff1d(np.arange(m), _meter_rows(accessible_meters, m))
    sub = h[blocked, :]
    zero, certified = _zero_column_certificate(sub)
    if certified:
        if not zero.any():
            return None
        c = np.zeros(k)
        c[np.flatnonzero(zero)[-1]] = magnitude
    else:
        # With k or more rows the thin vh is already k x k (the full SVD only
        # adds unread columns of U); with fewer, only the full vh is.
        _, s, vh = np.linalg.svd(sub, full_matrices=len(blocked) < k)
        if _svd_rank(s) == k:
            return None
        c = vh[-1] / np.linalg.norm(vh[-1]) * magnitude
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
    1e-9 * max(1, ||a||). An a with an entry above 1 in magnitude is first
    rescaled by a power of two to below 1: the bound is then relative, so
    the scale changes no decision, and no product can overflow. c comes
    first from the unit-weight gain Cholesky (:func:`estimation.factor_gain`);
    a gap within the bound proves the answer True, since the least-squares
    minimum is no larger. When the gain is rejected or the gap exceeds the
    bound, c is the least-squares fit (``np.linalg.lstsq``) and its gap
    decides. A non-finite H or a non-finite attack vector raises
    InvalidArgument.
    """
    h = _as_matrix(h_matrix)
    a = np.asarray(a, dtype=float)
    if a.shape != (h.shape[0],):
        raise DimensionMismatch(
            f"attack has shape {a.shape} but H has {h.shape[0]} rows"
        )
    if not np.isfinite(a).all():
        raise InvalidArgument("attack vector must be finite")
    peak = np.max(np.abs(a), initial=0.0)
    if peak > 1.0:
        a = np.ldexp(a, -np.frexp(peak)[1])  # exact: a power-of-two scale
        bound = STEALTH_RTOL * np.linalg.norm(a)
    else:
        bound = STEALTH_RTOL * max(1.0, np.linalg.norm(a))
    # With every |a_i| at most 1 and a finite gain, H^T a cannot overflow.
    gain = _unit_gain(h)
    if gain is not None and np.linalg.norm(a - h @ gain.solve(a)) <= bound:
        return True
    c, *_ = np.linalg.lstsq(h, a, rcond=None)
    return bool(np.linalg.norm(a - h @ c) <= bound)


def protection_check(h_matrix: np.ndarray,
                     protected_meters: Iterable[int]) -> ProtectionReport:
    """Does tamper-proofing this meter subset rule out stealth attacks?

    A stealth shift must vanish on the protected rows, so the surviving
    attack directions form the null space of the protected-row submatrix:
    dimension k - rank. Full rank means no nonzero shift survives.

    The rank is that of the singular-value rule in the module docstring,
    counted from the zero-column certificate when it holds (each all-zero
    column is one exact null direction) and otherwise from the singular
    values of the submatrix.
    """
    h = _as_matrix(h_matrix)
    m, k = h.shape
    sub = h[_meter_rows(protected_meters, m), :]
    zero, certified = _zero_column_certificate(sub)
    if certified:
        rank = k - int(zero.sum())
    else:
        rank = _svd_rank(np.linalg.svd(sub, compute_uv=False))
    return ProtectionReport(protected=rank == k, residual_attack_dim=k - rank)

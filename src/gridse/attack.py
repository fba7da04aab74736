"""Stealth measurement-attack construction and protection analysis.

A corruption a added to the readings (z_a = z + a) is invisible to every
residual-based detector exactly when a = Hc for some state shift c: the
estimate moves by c while the residual, and therefore every detection
statistic, stays identical. All constructions here work against the constant
linear meter matrix H (m x k, k = angle state dimension); meter index sets
are 1-based file order. An H or vector whose entries are not finite
numbers, or a meter index that is not a non-negative integer (a bool is
not one), raises InvalidArgument; a non-finite H does so before any
meter index is read.

Every rank question is the estimator's: the rank of the rows' unit-weight
gain factor from :func:`estimation._pivoted_gain`, the one routine that
scales, factors and guards a gain (condition limit 1e12). So rows have full
column rank exactly when ``factor_gain(rows, ones)`` accepts them, at any
finite scale, and a direction whose singular value is below about 1e-6 of
the largest counts as unseen. The rank answers :func:`protection_check`,
the factor's null vectors :func:`constrained_stealth_attack` and the
accepted factor's solve :func:`verify_stealth`. Each of the three scans
the dense H once, for the pattern of its nonzeros (``RowPattern.of``),
and judges H finite from the values found there. The blocked or protected
rows are factored from that pattern's row subset (``RowPattern.rows``) at
H's own memory, with no copy of the rows unless their gain is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import solve_triangular

from ._streams import _seeded_generators
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    LengthMismatch,
    _array,
    _count,
    _real,
)
from .estimation import _full_rank, _pivoted_gain
from .measurement import RowPattern

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


def _scanned(h_matrix: np.ndarray) -> tuple[np.ndarray, RowPattern]:
    """H as a float matrix and the pattern of its nonzeros, from one scan;
    NaN and inf are nonzero, so an H that is not finite raises
    InvalidArgument here."""
    h = _array(h_matrix, "H", ndim=2)
    pattern = RowPattern.of(h)
    if not np.isfinite(np.take(h, pattern.flat)).all():
        raise InvalidArgument("H must be finite")
    return h, pattern


def _meter_rows(meters: Iterable[int], m: int) -> np.ndarray:
    try:
        indices = list(meters)
    except TypeError:
        raise InvalidArgument(
            f"meter indices must be iterable, got {meters!r}") from None
    rows = sorted({_count(i, "meter index") for i in indices})
    for i in rows:
        if not 1 <= i <= m:
            raise DimensionMismatch(f"meter index {i} outside 1..{m}")
    return np.array(rows, dtype=int) - 1


def craft_stealth_attack(h_matrix: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a = Hc: the corruption that shifts the estimate by exactly c.

    A non-finite entry of c, or an Hc too large for a float, raises
    InvalidArgument.
    """
    h = _array(h_matrix, "H", ndim=2, finite=True)
    return _image(h, _array(c, "c", (h.shape[1],), finite=True))


def _image(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Hc of a finite H and c, or InvalidArgument (unwarned) if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_image(h @ c)


def _finite_image(a: np.ndarray) -> np.ndarray:
    """a, an attack Hc or readings with Hc added, if every entry is finite,
    else InvalidArgument."""
    if not np.isfinite(a).all():
        raise InvalidArgument("Hc overflows: the attack is too large for a float")
    return a


def random_stealth_attack(h_matrix: np.ndarray, magnitude: float,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random stealth direction: c on the sphere of the given radius.

    Deterministic in the seed; returns (c, Hc). The direction is exactly
    ``np.random.default_rng(seed).normal(size=k)``, drawn again from the
    same generator while its norm is 0, and c is that direction divided by
    its norm, times ``magnitude``. A magnitude that is not positive and
    finite, a seed that is not a non-negative integer or an Hc that
    overflows raises InvalidArgument, an H with no columns
    DimensionMismatch.
    """
    magnitude = _real(magnitude, "magnitude", 0.0)
    h = _array(h_matrix, "H", ndim=2, finite=True)
    if not h.shape[1]:
        raise DimensionMismatch("H has no columns, so there is no state to shift")
    c, = _stealth_shifts([_count(seed, "seed")], h.shape[1], magnitude)
    return c, _image(h, c)


def _stealth_shifts(seeds: Iterable[int], k: int,
                    magnitude: float) -> list[np.ndarray]:
    """The shift c of :func:`random_stealth_attack` for each seed, bit for
    bit, with the streams of the whole block seeded in one pass. The caller
    has checked the seeds, k >= 1 and the magnitude."""
    shifts = []
    for rng in _seeded_generators(seeds):
        direction = rng.normal(size=k)
        # the sqrt of x.dot(x), as np.linalg.norm computes it
        norm = math.sqrt(direction.dot(direction))
        while not norm > 0:
            direction = rng.normal(size=k)
            norm = math.sqrt(direction.dot(direction))
        shifts.append(direction / norm * magnitude)
    return shifts


def constrained_stealth_attack(h_matrix: np.ndarray,
                               accessible_meters: Iterable[int],
                               magnitude: float = DEFAULT_MAGNITUDE,
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """Stealth attack touching only the accessible meters.

    Finds a nonzero shift c with (Hc)_i = 0 on every meter outside the
    accessible set, i.e. c in the null space of the blocked-row submatrix,
    scaled to ``magnitude``, positive and finite with a finite Hc (else
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
    magnitude = _real(magnitude, "magnitude", 0.0)
    h, pattern = _scanned(h_matrix)
    m, k = h.shape
    blocked = np.setdiff1d(np.arange(m), _meter_rows(accessible_meters, m))
    f = _pivoted_gain(h, np.ones(len(blocked)), pattern, blocked)
    rank, upper, piv = f.rank, f.upper, f.piv
    if rank == k:
        return None
    free = piv[rank:]
    zero = free[~np.any(h[np.ix_(blocked, free)], axis=0)]
    c = np.zeros(k)
    if zero.size:
        c[zero.max()] = magnitude
    else:
        c[free[-1]] = 1.0
        # U11 is finite: the factor of a finite, scaled gain
        c[piv[:rank]] = -solve_triangular(upper[:rank, :rank], upper[:rank, -1],
                                          check_finite=False)
        c *= magnitude / np.linalg.norm(c)
    return c, _image(h, c)


def apply_attack(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """z_a = z + a."""
    z = _array(z, "z")
    return z + _array(a, "attack", z.shape, error=LengthMismatch)


def verify_stealth(h_matrix: np.ndarray, a: np.ndarray) -> bool:
    """True iff a lies in the column space of H.

    a is first scaled by the power of two that brings max |a_i| into
    [0.5, 1); the projection residual ||a - Hc|| of the scaled a must then
    be at most 1e-9 * ||a||, with c = ``factor_gain(H, ones).solve(a)``.
    Where the factor scales H up (its ``shift`` is negative), c and the
    residual are computed for 2^shift a, at H's own scale, and the residual
    is scaled back, so that c stays a float. The factor scales H too, so
    the bound is relative, no product overflows and no power-of-two scale
    of H or a changes a decision while H's nonzeros are normal floats (the
    solve's H^T products round a subnormal one's low bits away). An H the
    estimator rejects raises UnobservableNetwork, as
    :func:`estimation.estimate_dc` does; a non-finite H or attack vector
    raises InvalidArgument.
    """
    h, pattern = _scanned(h_matrix)
    a = _array(a, "attack vector", (h.shape[0],), finite=True)
    factor = _full_rank(_pivoted_gain(h, np.ones(h.shape[0]), pattern))
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), initial=0.0))[1])
    bound = STEALTH_RTOL * np.linalg.norm(a)
    low = min(factor.shift, 0)
    near = np.ldexp(a, low)
    return bool(np.linalg.norm(np.ldexp(near - h @ factor.solve(near), -low))
                <= bound)


def protection_check(h_matrix: np.ndarray,
                     protected_meters: Iterable[int]) -> ProtectionReport:
    """Does tamper-proofing this meter subset rule out stealth attacks?

    A stealth shift must vanish on the protected rows, so the surviving
    attack directions form the null space of the protected-row submatrix:
    dimension k - rank. Full rank means no nonzero shift survives; with
    the rank rule of the module docstring, exactly when
    ``factor_gain(rows, ones)`` accepts the protected rows.
    """
    h, pattern = _scanned(h_matrix)
    m, k = h.shape
    rows = _meter_rows(protected_meters, m)
    rank = _pivoted_gain(h, np.ones(len(rows)), pattern, rows).rank
    return ProtectionReport(protected=rank == k, residual_attack_dim=k - rank)

"""Stealth measurement-attack construction and protection analysis.

A corruption a added to the readings (z_a = z + a) is invisible to every
residual-based detector exactly when a = Hc for some state shift c: the
estimate moves by c while the residual, and therefore every detection
statistic, stays identical. All constructions here work against the constant
linear meter matrix H (m x k, k = angle state dimension); meter index sets
are 1-based file order.

Rank decisions use singular values: anything below 1e-9 times the largest
singular value counts as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, LengthMismatch

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
    return h


def _meter_rows(meters: Iterable[int], m: int) -> np.ndarray:
    rows = sorted(set(int(i) for i in meters))
    for i in rows:
        if not 1 <= i <= m:
            raise DimensionMismatch(f"meter index {i} outside 1..{m}")
    return np.array(rows, dtype=int) - 1


def _check_magnitude(magnitude: float):
    if not 0.0 < magnitude < np.inf:
        raise InvalidArgument("magnitude must be positive and finite")


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
    positive and finite raises InvalidArgument.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
    rng = np.random.default_rng(seed)
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
    accessible set, i.e. c in the null space of the inaccessible-row
    submatrix, via SVD. When several directions survive, the one attached to
    the smallest singular value is returned (deterministic SVD ordering),
    unit-normalized and scaled to ``magnitude``, which must be positive and
    finite (else InvalidArgument). Returns None when only c = 0 satisfies
    the constraints; that is a legitimate outcome, not an error.
    """
    _check_magnitude(magnitude)
    h = _as_matrix(h_matrix)
    m, k = h.shape
    accessible = set(_meter_rows(accessible_meters, m).tolist())
    blocked = np.array([i for i in range(m) if i not in accessible], dtype=int)
    if len(blocked) == 0:
        c_dir = np.zeros(k)
        c_dir[-1] = 1.0
    else:
        # With k or more rows the thin vh is already k x k (the full SVD only
        # adds unread columns of U); with fewer, only the full vh is.
        _, s, vh = np.linalg.svd(h[blocked, :], full_matrices=len(blocked) < k)
        tol = RANK_RTOL * s[0] if s.size else 0.0
        rank = int(np.sum(s > tol))
        if rank == k:
            return None
        c_dir = vh[-1]
    c = c_dir / np.linalg.norm(c_dir) * magnitude
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

    Checked by least squares: the projection residual must be at most
    1e-9 * max(1, ||a||).
    """
    h = _as_matrix(h_matrix)
    a = np.asarray(a, dtype=float)
    if a.shape != (h.shape[0],):
        raise DimensionMismatch(
            f"attack has shape {a.shape} but H has {h.shape[0]} rows"
        )
    c, *_ = np.linalg.lstsq(h, a, rcond=None)
    gap = np.linalg.norm(a - h @ c)
    return bool(gap <= STEALTH_RTOL * max(1.0, np.linalg.norm(a)))


def protection_check(h_matrix: np.ndarray,
                     protected_meters: Iterable[int]) -> ProtectionReport:
    """Does tamper-proofing this meter subset rule out stealth attacks?

    A stealth shift must vanish on the protected rows, so the surviving
    attack directions form the null space of the protected-row submatrix:
    dimension k - rank. Full rank means no nonzero shift survives.
    """
    h = _as_matrix(h_matrix)
    m, k = h.shape
    rows = _meter_rows(protected_meters, m)
    if len(rows) == 0:
        rank = 0
    else:
        s = np.linalg.svd(h[rows, :], compute_uv=False)
        tol = RANK_RTOL * s[0] if s.size else 0.0
        rank = int(np.sum(s > tol))
    return ProtectionReport(protected=rank == k, residual_attack_dim=k - rank)

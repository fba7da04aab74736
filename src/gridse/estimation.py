"""Weighted least squares state estimation.

The linear (dc) problem z = Hx + e solves in closed form through the normal
equations x' = (H^T W H)^-1 H^T W z; the nonlinear (ac) problem iterates
Gauss-Newton steps dx = (H^T W H)^-1 H^T W (z - h(x)) with H re-evaluated at
every iterate. W is diagonal with entries 1/sigma_i^2. Each (H, W) pair is
factored once into a :class:`GainFactor`: the upper Cholesky factor of the
gain H^T W H (LAPACK ``potrf``) and LAPACK's 1-norm condition estimate of
the gain (``pocon``). A gain that is not positive definite or whose
condition estimate exceeds 1e12 raises UnobservableNetwork instead of
returning garbage. The factor serves every solve with that (H, W), and the
largest-normalized-residual detector reads its hat diagonal. The same guard
decides every rank question of the package (observability, protection and
stealth) on a pivoted Cholesky (``pstrf``) of the unit-weight gain: full
rank there means that factor_gain accepts the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    InvalidArgument,
    LengthMismatch,
    UnobservableNetwork,
    _array,
    _count,
    _real,
)
from .measurement import StateVector, build_meter_model, flat_state, free_vector
from .network import MeasurementConfig, NetworkModel

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class GainFactor:
    """The gain matrix H^T W H of one (H, W) pair, factored once.

    ``upper`` is the upper Cholesky factor U (G = U^T U) as LAPACK ``potrf``
    leaves it: the strict lower triangle still holds the gain and is never
    read. ``condition`` is 1/rcond, LAPACK's estimate of the gain's 1-norm
    condition number. H and W are kept by reference and must not be
    modified while the factor is in use. Build one with :func:`factor_gain`.
    """

    h: np.ndarray
    weights: np.ndarray
    upper: np.ndarray
    condition: float

    def matches(self, h: np.ndarray, weights: np.ndarray) -> bool:
        """True when (h, weights) is the pair this factor was built from."""
        return (np.array_equal(h, self.h)
                and np.array_equal(weights, self.weights))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The weighted least-squares solve of a meter-space vector:
        (H^T W H)^-1 H^T W rhs."""
        b = self.h.T @ (self.weights * rhs)
        if not np.all(np.isfinite(b)):
            raise InvalidArgument("readings or model values are not finite")
        x, _ = lapack.dpotrs(self.upper, b, lower=0)
        return x

    def estimate(self, z: np.ndarray) -> EstimationResult:
        """The exact linear WLS estimate from readings z."""
        z = _array(z, "z", (self.h.shape[0],))
        x = self.solve(z)
        r = z - self.h @ x
        return EstimationResult(
            state=x,
            residual=r,
            squared_error_raw=float(r @ r),
            objective_weighted=float(self.weights @ (r * r)),
            converged=True,
            iterations=1,
            condition=self.condition,
            factor=self,
        )

    @cached_property
    def hat_diagonal(self) -> np.ndarray:
        """diag(H G^-1 H^T), from Y = U^-T H^T as the column sums of Y * Y;
        the m x m matrix is never formed."""
        y = solve_triangular(self.upper, self.h.T, trans="T", lower=False)
        return np.einsum("ij,ij->j", y, y)


@dataclass(frozen=True)
class EstimationResult:
    """Solution of one estimation run.

    ``state`` is the free-variable vector in the canonical state ordering
    (use measurement.state_from_free to label it by bus). ``residual`` is
    z - h(state), ``squared_error_raw`` its plain squared norm and
    ``objective_weighted`` the weighted sum actually minimized.
    ``condition`` is the gain's condition estimate (for ac, the gain of the
    last Gauss-Newton step; None when no step ran) and ``factor`` the
    factored gain behind it, which detectors reuse.
    """

    state: np.ndarray
    residual: np.ndarray
    squared_error_raw: float
    objective_weighted: float
    converged: bool
    iterations: int
    condition: float | None = None
    factor: GainFactor | None = field(default=None, compare=False, repr=False)


def weights_from_config(config: MeasurementConfig) -> np.ndarray:
    """Per-meter weights 1/sigma^2 in file order."""
    return 1.0 / config.sigmas() ** 2


def _condition(upper: np.ndarray, anorm: float) -> float:
    """LAPACK's condition estimate (pocon) of U^T U, of 1-norm anorm."""
    rcond, _ = lapack.dpocon(upper, anorm)
    return 1.0 / rcond if rcond > 0.0 else np.inf


def factor_gain(h_matrix: np.ndarray, weights: np.ndarray) -> GainFactor:
    """Factor the gain H^T W H once, guarded against ill-conditioning.

    Raises UnobservableNetwork when the gain is not numerically positive
    definite or its 1-norm condition estimate exceeds CONDITION_LIMIT. No
    singular value decomposition is taken.
    """
    h = _array(h_matrix, "H", ndim=2)
    w = _array(weights, "weights", (h.shape[0],), positive=True)
    gain = h.T @ (w[:, None] * h)
    anorm = float(np.max(np.sum(np.abs(gain), axis=0), initial=0.0))
    if not 0.0 < anorm < np.inf:
        raise UnobservableNetwork("gain matrix is empty, zero or not finite")
    upper, info = lapack.dpotrf(gain, lower=0, clean=0)
    if info != 0:
        raise UnobservableNetwork(
            f"gain matrix is not positive definite (potrf info {info})"
        )
    condition = _condition(upper, anorm)
    if not condition <= CONDITION_LIMIT:
        raise UnobservableNetwork(
            f"gain matrix condition estimate {condition:.3g} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    return GainFactor(h=h, weights=w, upper=upper, condition=condition)


def _unit_scale(x: np.ndarray) -> np.ndarray:
    """x scaled exactly by the power of two that brings max |x| to [0.5, 1)."""
    exponent = np.frexp(np.max(np.abs(x), initial=0.0))[1]
    return np.ldexp(x, -exponent) if exponent else x


def _pivoted_gain(h: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, U, piv): the column rank of h under the guard of factor_gain.

    The pivoted Cholesky (LAPACK ``pstrf``) of the unit gain G of h, scaled
    by _unit_scale so G cannot overflow, stops at a pivot of at most
    max diag(G) / CONDITION_LIMIT; the rank then drops until the leading
    block passes the guard. The first rank rows of U hold U11 and U12 of
    P^T G P = U^T U, and piv is the 0-based column order (zero columns last).
    """
    scaled = _unit_scale(h)
    gain = scaled.T @ scaled
    top = float(np.max(np.diag(gain), initial=0.0))
    if top == 0.0:
        return 0, gain, np.arange(h.shape[1])
    upper, piv, rank, _ = lapack.dpstrf(gain, tol=top / CONDITION_LIMIT, lower=0)
    piv -= 1
    while rank:
        anorm = np.abs(gain[np.ix_(piv[:rank], piv[:rank])]).sum(axis=0).max()
        if _condition(upper[:rank, :rank], anorm) <= CONDITION_LIMIT:
            break
        rank -= 1
    return rank, upper, piv


def weighted_objective(z: np.ndarray, h_of_x: np.ndarray,
                       weights: np.ndarray) -> float:
    """sum_i w_i (z_i - h_i)^2, the quantity the estimators minimize."""
    z = _array(z, "z", ndim=1)
    h_of_x = _array(h_of_x, "h(x)", z.shape, error=LengthMismatch)
    w = _array(weights, "weights", z.shape, positive=True)
    r = z - h_of_x
    return float(w @ (r * r))


def estimate_dc(h_matrix: np.ndarray, z: np.ndarray,
                weights: np.ndarray) -> EstimationResult:
    """Exact linear WLS minimizer.

    Requires full column rank (an observable meter set); a singular or
    ill-conditioned gain matrix raises UnobservableNetwork.
    """
    return factor_gain(h_matrix, weights).estimate(z)


def estimate_ac(network: NetworkModel, z: np.ndarray,
                config: MeasurementConfig, weights: np.ndarray, *,
                init: StateVector | None = None, tol: float = 1e-8,
                max_iter: int = 50) -> EstimationResult:
    """Gauss-Newton WLS on the nonlinear meter functions.

    Starts from ``init`` (default: flat start, v = 1 and angles 0) and stops
    when the step's max component drops below ``tol`` or after ``max_iter``
    iterations. On non-convergence the best iterate seen (lowest weighted
    objective) is returned with ``converged=False``; a singular gain matrix
    at any iterate raises UnobservableNetwork. The meter model is built once
    and every iterate is evaluated against it; each step factors the gain at
    its own iterate once. ``max_iter`` must be an integer >= 0 and ``tol``
    positive and finite (a bool is neither), and ``init`` a StateVector,
    else InvalidArgument before any iteration.
    """
    max_iter = _count(max_iter, "max_iter")
    tol = _real(tol, "tol", 0.0)
    m = len(config.specs)
    z = _array(z, "z", (m,), error=LengthMismatch)
    w = _array(weights, "weights", (m,), positive=True)
    x = free_vector(network, init if init is not None else flat_state(network),
                    "ac")
    model = build_meter_model(network, config)

    def evaluate(vec):
        r = z - model.values(vec)
        return r, float(w @ (r * r))

    r, obj = evaluate(x)
    best = (obj, x, r)
    converged = False
    iterations = 0
    factor = None
    for it in range(max_iter):
        factor = factor_gain(model.jacobian(x), w)
        dx = factor.solve(r)
        x = x + dx
        r, obj = evaluate(x)
        iterations = it + 1
        if obj < best[0]:
            best = (obj, x, r)
        if np.max(np.abs(dx)) < tol:
            converged = True
            break

    if not converged:
        obj, x, r = best
    return EstimationResult(
        state=x,
        residual=r,
        squared_error_raw=float(r @ r),
        objective_weighted=float(w @ (r * r)),
        converged=converged,
        iterations=iterations,
        condition=None if factor is None else factor.condition,
        factor=factor,
    )

"""Weighted least squares state estimation.

The linear (dc) problem z = Hx + e solves in closed form through the normal
equations x' = (H^T W H)^-1 H^T W z; the nonlinear (ac) problem iterates
Gauss-Newton steps dx = (H^T W H)^-1 H^T W (z - h(x)) with H re-evaluated at
every iterate. W is diagonal with entries 1/sigma_i^2. Normal equations are
solved by Cholesky factorization, never by forming the inverse, and a gain
matrix with condition estimate above 1e12 raises UnobservableNetwork instead
of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, LengthMismatch, UnobservableNetwork
from .measurement import StateVector, build_meter_model, flat_state, free_vector
from .network import AdmittanceMatrix, MeasurementConfig, NetworkModel

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class EstimationResult:
    """Solution of one estimation run.

    ``state`` is the free-variable vector in the canonical state ordering
    (use measurement.state_from_free to label it by bus). ``residual`` is
    z - h(state), ``squared_error_raw`` its plain squared norm and
    ``objective_weighted`` the weighted sum actually minimized.
    """

    state: np.ndarray
    residual: np.ndarray
    squared_error_raw: float
    objective_weighted: float
    converged: bool
    iterations: int


def weights_from_config(config: MeasurementConfig) -> np.ndarray:
    """Per-meter weights 1/sigma^2 in file order."""
    return 1.0 / config.sigmas() ** 2


def _check_weights(weights: np.ndarray, m: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise DimensionMismatch(f"expected {m} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be positive and finite")
    return w


def _checked_gain(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The gain matrix H^T W H; UnobservableNetwork when its condition
    number is not finite or exceeds CONDITION_LIMIT."""
    gain = h.T @ (w[:, None] * h)
    cond = np.linalg.cond(gain)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise UnobservableNetwork(
            f"gain matrix condition estimate {cond:.3g} exceeds {CONDITION_LIMIT:.0e}"
        )
    return gain


def _solve_normal_equations(h: np.ndarray, w: np.ndarray,
                            rhs_vec: np.ndarray) -> np.ndarray:
    """Solve (H^T W H) x = H^T W rhs via Cholesky with a conditioning guard."""
    gain = _checked_gain(h, w)
    try:
        factor = scipy.linalg.cho_factor(gain)
    except scipy.linalg.LinAlgError as exc:
        raise UnobservableNetwork(f"gain matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, h.T @ (w * rhs_vec))


def weighted_objective(z: np.ndarray, h_of_x: np.ndarray,
                       weights: np.ndarray) -> float:
    """sum_i w_i (z_i - h_i)^2, the quantity the estimators minimize."""
    z = np.asarray(z, dtype=float)
    h_of_x = np.asarray(h_of_x, dtype=float)
    if z.shape != h_of_x.shape:
        raise LengthMismatch(f"z has shape {z.shape}, h(x) has shape {h_of_x.shape}")
    w = _check_weights(weights, len(z))
    r = z - h_of_x
    return float(w @ (r * r))


def estimate_dc(h_matrix: np.ndarray, z: np.ndarray,
                weights: np.ndarray) -> EstimationResult:
    """Exact linear WLS minimizer.

    Requires full column rank (an observable meter set); a singular or
    ill-conditioned gain matrix raises UnobservableNetwork.
    """
    h = np.asarray(h_matrix, dtype=float)
    z = np.asarray(z, dtype=float)
    if h.ndim != 2:
        raise DimensionMismatch(f"H must be a matrix, got ndim {h.ndim}")
    if z.shape != (h.shape[0],):
        raise DimensionMismatch(
            f"z has shape {z.shape} but H has {h.shape[0]} rows"
        )
    w = _check_weights(weights, h.shape[0])
    x = _solve_normal_equations(h, w, z)
    r = z - h @ x
    return EstimationResult(
        state=x,
        residual=r,
        squared_error_raw=float(r @ r),
        objective_weighted=float(w @ (r * r)),
        converged=True,
        iterations=1,
    )


def estimate_ac(network: NetworkModel, admittance: AdmittanceMatrix,
                z: np.ndarray, config: MeasurementConfig,
                weights: np.ndarray, *, init: StateVector | None = None,
                tol: float = 1e-8, max_iter: int = 50) -> EstimationResult:
    """Gauss-Newton WLS on the nonlinear meter functions.

    Starts from ``init`` (default: flat start, v = 1 and angles 0) and stops
    when the step's max component drops below ``tol`` or after ``max_iter``
    iterations. On non-convergence the best iterate seen (lowest weighted
    objective) is returned with ``converged=False``; a singular gain matrix
    at any iterate raises UnobservableNetwork. The meter model is built once
    and every iterate is evaluated against it. ``admittance`` is not read.
    """
    z = np.asarray(z, dtype=float)
    m = len(config.specs)
    if z.shape != (m,):
        raise LengthMismatch(f"z has shape {z.shape} but config has {m} meters")
    w = _check_weights(weights, m)
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
    for it in range(max_iter):
        dx = _solve_normal_equations(model.jacobian(x), w, r)
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
    )

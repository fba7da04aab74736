"""Residual-based bad data detection.

Three single-pass detectors over the estimation residual r = z - h(x'):

* ``norm_threshold``: flag when ||r|| exceeds a caller-chosen tau (no
  sensible default exists, so tau is mandatory).
* ``chi_square``: flag when the weighted objective sum w_i r_i^2 exceeds the
  upper-alpha quantile of chi-square with m - state_dim degrees of freedom.
* ``lnr``: largest normalized residual. With the residual sensitivity
  S = I - H (H^T W H)^-1 H^T W and residual covariance Omega = S R
  (R = diag(sigma^2)), each r_i^N = |r_i| / sqrt(Omega_ii); flag when the
  largest exceeds the threshold (default 3.0) and name the argmax meter.
  Only the diagonal Omega_ii = (1 - w_i (H G^-1 H^T)_ii) / w_i is computed,
  from the gain factor the estimate already holds when it was built from the
  same H and W; the m x m matrices S and Omega are never formed.

Meters whose Omega_ii vanishes are critical: their residual is structurally
zero, so they are excluded from the lnr argmax and reported instead. All
meter indices in results and configurations are 1-based file order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import chi2

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    MalformedDocument,
    NoRedundancy,
    NumericallySingularOmega,
)
from .estimation import (
    EstimationResult,
    _check_weights,
    factor_gain,
    weighted_objective,
)

OMEGA_FLOOR = 1e-14
TIE_TOLERANCE = 1e-9

DETECTOR_METHODS = ("norm_threshold", "chi_square", "lnr")


@dataclass(frozen=True)
class DetectorConfig:
    """Method selector plus exactly the parameters that method needs.

    chi_square defaults alpha to 0.05 and lnr defaults its threshold to 3.0;
    norm_threshold has no default tau. A parameter that is given must be
    a real number (not a bool); anything else raises MalformedDocument.
    """

    method: str
    tau: float | None = None
    alpha: float | None = None
    lnr_threshold: float | None = None

    def __post_init__(self):
        if self.method not in DETECTOR_METHODS:
            raise MalformedDocument(f"unknown detector method {self.method!r}")
        for key in ("tau", "alpha", "lnr_threshold"):
            value = getattr(self, key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                raise MalformedDocument(f"{key} must be a number, got {value!r}")
        if self.method == "norm_threshold":
            if self.tau is None or not 0.0 < self.tau < np.inf:
                raise MalformedDocument("norm_threshold requires 0 < tau < inf")
            extras = (self.alpha, self.lnr_threshold)
        elif self.method == "chi_square":
            if self.alpha is None:
                object.__setattr__(self, "alpha", 0.05)
            if not 0.0 < self.alpha < 1.0:
                raise MalformedDocument("chi_square requires alpha in (0, 1)")
            extras = (self.tau, self.lnr_threshold)
        else:
            if self.lnr_threshold is None:
                object.__setattr__(self, "lnr_threshold", 3.0)
            if not 0.0 < self.lnr_threshold < np.inf:
                raise MalformedDocument("lnr requires 0 < lnr_threshold < inf")
            extras = (self.tau, self.alpha)
        if any(v is not None for v in extras):
            raise MalformedDocument(
                f"{self.method} accepts only its own parameter"
            )


@dataclass(frozen=True)
class DetectionResult:
    """Verdict of one detector run.

    ``suspect_meter`` is set by lnr only (1-based; lowest index on ties, with
    ``ambiguous`` true when the top normalized residuals tie within 1e-9).
    ``critical_meters`` lists meters excluded from the lnr ranking because
    their residual variance is structurally zero.
    """

    method: str
    detected: bool
    statistic: float
    threshold_used: float
    suspect_meter: int | None = None
    ambiguous: bool = False
    critical_meters: tuple[int, ...] = ()


def residual(z: np.ndarray, h_of_x: np.ndarray) -> np.ndarray:
    """r = z - h(x'), elementwise."""
    z = np.asarray(z, dtype=float)
    h_of_x = np.asarray(h_of_x, dtype=float)
    if z.shape != h_of_x.shape:
        raise LengthMismatch(f"z has shape {z.shape}, h(x) has shape {h_of_x.shape}")
    return z - h_of_x


def norm_threshold_test(r: np.ndarray, tau: float) -> DetectionResult:
    """Detected iff the Euclidean norm of the residual exceeds tau."""
    statistic = float(np.linalg.norm(np.asarray(r, dtype=float)))
    return DetectionResult(
        method="norm_threshold",
        detected=statistic > tau,
        statistic=statistic,
        threshold_used=float(tau),
    )


@lru_cache
def _chi2_threshold(alpha: float, dof: int) -> float:
    """The upper-alpha quantile of chi-square with dof degrees of freedom."""
    return float(chi2.ppf(1.0 - alpha, dof))


def chi_square_test(z: np.ndarray, h_of_x: np.ndarray, weights: np.ndarray,
                    state_dim: int, alpha: float = 0.05) -> DetectionResult:
    """Weighted objective against the chi-square upper-alpha quantile.

    Degrees of freedom are m - state_dim; without redundancy (m <= state_dim)
    the test is undefined and NoRedundancy is raised.
    """
    m = len(np.asarray(z))
    if m <= state_dim:
        raise NoRedundancy(
            f"{m} meters cannot test a {state_dim}-dimensional state"
        )
    statistic = weighted_objective(z, h_of_x, weights)
    threshold = _chi2_threshold(alpha, m - state_dim)
    return DetectionResult(
        method="chi_square",
        detected=statistic > threshold,
        statistic=statistic,
        threshold_used=threshold,
    )


def largest_normalized_residual(h_matrix: np.ndarray, z: np.ndarray,
                                weights: np.ndarray,
                                estimate: EstimationResult,
                                lnr_threshold: float = 3.0) -> DetectionResult:
    """Normalize each residual by its own standard deviation and rank them.

    Omega_ii = S_ii * sigma_i^2 with S = I - H (H^T W H)^-1 H^T W, computed
    as (1 - w_i * hat_ii) / w_i from the hat diagonal hat_ii of
    H (H^T W H)^-1 H^T. The estimate's gain factor is reused when it was
    built from this H and these weights; otherwise the gain is factored
    here, once. Meters with Omega_ii <= 1e-14 are critical and skipped; if
    every meter is critical there is nothing to normalize and
    NumericallySingularOmega is raised.
    """
    h = np.asarray(h_matrix, dtype=float)
    z = np.asarray(z, dtype=float)
    m = h.shape[0]
    if z.shape != (m,):
        raise LengthMismatch(f"z has shape {z.shape} but H has {m} rows")
    w = _check_weights(weights, m)
    r = np.asarray(estimate.residual, dtype=float)
    if r.shape != (m,):
        raise LengthMismatch(f"residual has shape {r.shape} but H has {m} rows")

    factor = estimate.factor
    if factor is None or not factor.matches(h, w):
        factor = factor_gain(h, w)
    omega_diag = (1.0 - w * factor.hat_diagonal) / w

    critical = omega_diag <= OMEGA_FLOOR
    critical_meters = tuple(int(i) + 1 for i in np.flatnonzero(critical))
    if critical.all():
        raise NumericallySingularOmega(
            "every meter is critical; normalized residuals are undefined"
        )
    normalized = np.full(m, -np.inf)
    usable = ~critical
    normalized[usable] = np.abs(r[usable]) / np.sqrt(omega_diag[usable])

    statistic = float(np.max(normalized))
    top = np.flatnonzero(normalized >= statistic - TIE_TOLERANCE)
    return DetectionResult(
        method="lnr",
        detected=statistic > lnr_threshold,
        statistic=statistic,
        threshold_used=float(lnr_threshold),
        suspect_meter=int(top[0]) + 1,
        ambiguous=len(top) > 1,
        critical_meters=critical_meters,
    )


def run_detector(config: DetectorConfig, h_matrix: np.ndarray, z: np.ndarray,
                 weights: np.ndarray,
                 estimate: EstimationResult) -> DetectionResult:
    """Dispatch one DetectorConfig against an estimation result.

    H is the matrix the estimate was solved with (for ac, the Jacobian at
    the estimate); chi-square takes its column count as the state dimension.
    """
    if config.method == "norm_threshold":
        return norm_threshold_test(estimate.residual, config.tau)
    if config.method == "chi_square":
        shape = np.shape(h_matrix)
        if len(shape) != 2:
            raise DimensionMismatch(f"H must be a matrix, got shape {shape}")
        h_of_x = np.asarray(z, dtype=float) - estimate.residual
        return chi_square_test(z, h_of_x, weights, shape[1], config.alpha)
    return largest_normalized_residual(h_matrix, z, weights, estimate,
                                       config.lnr_threshold)

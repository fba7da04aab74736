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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import chi2

from .errors import (
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
    NoRedundancy,
    NumericallySingularOmega,
    _array,
    _count,
    _real,
)
from .estimation import EstimationResult, factor_gain, weighted_objective

OMEGA_FLOOR = 1e-14
TIE_TOLERANCE = 1e-9

DETECTOR_METHODS = ("norm_threshold", "chi_square", "lnr")
# Each method's own parameter: its name, its default (norm_threshold has
# none) and the upper end of its open range, whose lower end is 0.
_PARAMETERS = {"norm_threshold": ("tau", None, math.inf),
               "chi_square": ("alpha", 0.05, 1.0),
               "lnr": ("lnr_threshold", 3.0, math.inf)}


@dataclass(frozen=True)
class DetectorConfig:
    """Method selector plus exactly the parameters that method needs.

    chi_square defaults alpha to 0.05 and lnr defaults its threshold to 3.0;
    norm_threshold has no default tau. A parameter that is given must be
    a finite real number (not a bool), and the method's own one within
    0 < tau, lnr_threshold < inf or 0 < alpha < 1; anything else raises
    MalformedDocument.
    """

    method: str
    tau: float | None = None
    alpha: float | None = None
    lnr_threshold: float | None = None

    def __post_init__(self):
        if self.method not in DETECTOR_METHODS:
            raise MalformedDocument(f"unknown detector method {self.method!r}")
        own, default, high = _PARAMETERS[self.method]
        for key in ("tau", "alpha", "lnr_threshold"):
            value = getattr(self, key)
            if value is not None:
                _real(value, key, error=MalformedDocument)
                if key != own:
                    raise MalformedDocument(
                        f"{self.method} accepts only its own parameter")
        value = default if getattr(self, own) is None else getattr(self, own)
        if value is None:
            raise MalformedDocument(f"{self.method} requires {own}")
        object.__setattr__(self, own, _real(value, own, 0.0, high,
                                            error=MalformedDocument))


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
    z = _array(z, "z")
    return z - _array(h_of_x, "h(x)", z.shape, error=LengthMismatch)


def norm_threshold_test(r: np.ndarray, tau: float) -> DetectionResult:
    """Detected iff the Euclidean norm of the residual exceeds tau, which
    must be positive and finite (else InvalidArgument)."""
    tau = _real(tau, "tau", 0.0)
    statistic = float(np.linalg.norm(_array(r, "r")))
    return DetectionResult(
        method="norm_threshold",
        detected=statistic > tau,
        statistic=statistic,
        threshold_used=tau,
    )


@lru_cache
def _chi2_threshold(alpha: float, dof: int) -> float:
    """The upper-alpha quantile of chi-square with dof degrees of freedom."""
    return float(chi2.ppf(1.0 - alpha, dof))


def chi_square_test(z: np.ndarray, h_of_x: np.ndarray, weights: np.ndarray,
                    state_dim: int, alpha: float = 0.05) -> DetectionResult:
    """Weighted objective against the chi-square upper-alpha quantile.

    Degrees of freedom are m - state_dim; without redundancy (m <= state_dim)
    the test is undefined and NoRedundancy is raised. A ``state_dim`` that
    is not a non-negative integer, or an ``alpha`` outside (0, 1), raises
    InvalidArgument.
    """
    state_dim = _count(state_dim, "state_dim")
    alpha = _real(alpha, "alpha", 0.0, 1.0)
    m = len(_array(z, "z", ndim=1))
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
    NumericallySingularOmega is raised. An ``lnr_threshold`` that is not
    positive and finite raises InvalidArgument.
    """
    lnr_threshold = _real(lnr_threshold, "lnr_threshold", 0.0)
    h = _array(h_matrix, "H", ndim=2)
    m = h.shape[0]
    z = _array(z, "z", (m,), error=LengthMismatch)
    w = _array(weights, "weights", (m,), positive=True)
    r = _array(estimate.residual, "residual", (m,), error=LengthMismatch)

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
        threshold_used=lnr_threshold,
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
    A ``config`` that is not a DetectorConfig raises InvalidArgument.
    """
    if not isinstance(config, DetectorConfig):
        raise InvalidArgument(f"config must be a DetectorConfig, got {config!r}")
    if config.method == "norm_threshold":
        return norm_threshold_test(estimate.residual, config.tau)
    if config.method == "chi_square":
        h = _array(h_matrix, "H", ndim=2)
        h_of_x = _array(z, "z") - estimate.residual
        return chi_square_test(z, h_of_x, weights, h.shape[1], config.alpha)
    return largest_normalized_residual(h_matrix, z, weights, estimate,
                                       config.lnr_threshold)

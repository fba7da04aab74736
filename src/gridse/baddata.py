"""Residual-based bad data detection.

Three single-pass detectors over the estimation residual r = z - h(x'),
each a function of the :class:`EstimationResult` alone: its residual and
gain factor G = H^T W H at x' (for ac, H is the Jacobian there) hold all a
detector reads, so no detector factors a gain. One private resolution per
factor gives a method's threshold and its statistic as a function of a
residual: :func:`run_detector`, which the three public tests call, and a
Monte Carlo trial, which builds no result, evaluate that one function.

* ``norm_threshold``: flag when ||r|| exceeds a caller-chosen tau (no
  sensible default exists, so tau is mandatory).
* ``chi_square``: flag when the weighted sum w_i r_i^2 exceeds the
  upper-alpha quantile of chi-square with m - k degrees of freedom, for the
  m x k matrix H of the factor. The sum is taken from the residual and the
  factor's weights, as ``GainFactor.estimate`` (dc) and ``estimate_ac``
  take ``objective_weighted``, so the two are equal bit for bit. The
  quantile is 2 * gammaincinv((m - k) / 2, 1 - alpha) from scipy.special,
  the expression SciPy's ``chi2.ppf(1 - alpha, m - k)`` evaluates, so it
  is that quantile bit for bit, and SciPy's statistics package, which
  would double the package's start-up, is never imported.
* ``lnr``: largest normalized residual. With the residual sensitivity
  S = I - H G^-1 H^T W and residual covariance Omega = S R
  (R = diag(sigma^2)), each r_i^N = |r_i| / sqrt(Omega_ii); flag when the
  largest exceeds the threshold (default 3.0) and name the argmax meter.
  Only the diagonal Omega_ii = (1 - w_i (H G^-1 H^T)_ii) / w_i is computed,
  from the factor's weights and hat diagonal; the m x m matrices S and
  Omega are never formed. The factor holds Omega's diagonal, the critical
  meters and sqrt(Omega_ii) of the others (``GainFactor.omega_terms``),
  computed once however many estimates share it, so the test itself only
  divides and ranks.

Meters whose sensitivity S_ii = 1 - w_i hat_ii is at most 1e-10
(``estimation.SENSITIVITY_FLOOR``) are critical: their residual is
structurally zero, so they are excluded from the lnr argmax and reported
instead. S has no units, so no common scale of sigma changes which meters
are critical. All meter indices in results and configurations are 1-based
file order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaincinv

from .errors import (
    MalformedDocument,
    NoRedundancy,
    NumericallySingularOmega,
    _instance,
    _real,
)
from .estimation import EstimationResult, GainFactor, _weighted

# Normalized residuals within this relative gap of the largest tie with it.
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
    ``ambiguous`` true when the top normalized residuals tie within a
    relative 1e-9).
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


def _norm(r: np.ndarray) -> float:
    """||r||, as np.linalg.norm computes it, under the caller's np.errstate
    ignoring overflow; where r . r overflows but ||r|| does not, taken at a
    power-of-two scale."""
    statistic = math.sqrt(r.dot(r))
    if statistic == math.inf and np.isfinite(r).all():
        shift = int(np.frexp(np.max(np.abs(r)))[1])
        statistic = float(np.ldexp(np.linalg.norm(np.ldexp(r, -shift)), shift))
    return statistic


def _normalized(r: np.ndarray, usable: np.ndarray,
                root: np.ndarray) -> np.ndarray:
    """|r_i| / sqrt(Omega_ii) on the usable rows, under the caller's
    np.errstate ignoring overflow: a quotient too large for a float reads
    inf."""
    return np.abs(r[usable]) / root


def _resolve(config: DetectorConfig, factor: GainFactor
             ) -> tuple[Callable[[np.ndarray], float], float]:
    """The statistic of ``config``'s method as a function of a residual of
    ``factor``, and its threshold, both taken once per factor: the one
    per-method dispatch of the detectors. :func:`run_detector` and each
    Monte Carlo trial evaluate the statistic, under np.errstate ignoring
    overflow, and compare it with the threshold. Raises NoRedundancy for
    chi-square without redundancy (m <= k) and NumericallySingularOmega
    for lnr when every meter is critical."""
    if config.method == "norm_threshold":
        return _norm, config.tau
    if config.method == "chi_square":
        m, k = factor.h.shape
        if m <= k:
            raise NoRedundancy(f"{m} meters cannot test a {k}-dimensional state")
        return (lambda r: _weighted(r, factor.weights),
                float(2.0 * gammaincinv((m - k) / 2, 1.0 - config.alpha)))
    _, _, usable, root = factor.omega_terms
    if not len(usable):
        raise NumericallySingularOmega(
            "every meter is critical; normalized residuals are undefined")
    return (lambda r: float(_normalized(r, usable, root).max()),
            config.lnr_threshold)


def run_detector(config: DetectorConfig,
                 estimate: EstimationResult) -> DetectionResult:
    """Run one DetectorConfig against an estimation result, which holds all
    a detector reads. A ``config`` that is not a DetectorConfig, or an
    ``estimate`` that is not an EstimationResult with a GainFactor, raises
    InvalidArgument; a method that cannot test the estimate raises as its
    public test says.
    """
    _instance(config, DetectorConfig, "config")
    _instance(estimate, EstimationResult, "estimate")
    factor = _instance(estimate.factor, GainFactor, "estimate.factor")
    statistic, threshold = _resolve(config, factor)
    r, lnr = estimate.residual, {}
    with np.errstate(over="ignore"):  # a square or quotient too large reads inf
        value = statistic(r)
        if config.method == "lnr":
            _, critical, usable, root = factor.omega_terms
            tied = value * (1.0 - TIE_TOLERANCE)
            top = usable[_normalized(r, usable, root) >= tied]
            lnr = dict(suspect_meter=int(top[0]) + 1, ambiguous=len(top) > 1,
                       critical_meters=critical)
    return DetectionResult(method=config.method, detected=value > threshold,
                           statistic=value, threshold_used=threshold, **lnr)


def norm_threshold_test(estimate: EstimationResult,
                        tau: float) -> DetectionResult:
    """Detected iff the Euclidean norm of the estimate's residual exceeds
    tau, which must be positive and finite (else InvalidArgument)."""
    return run_detector(DetectorConfig(method="norm_threshold",
                                       tau=_real(tau, "tau", 0.0)), estimate)


def chi_square_test(estimate: EstimationResult,
                    alpha: float = 0.05) -> DetectionResult:
    """The estimate's weighted objective against the chi-square upper-alpha
    quantile with m - k degrees of freedom, for the m x k H of the
    estimate's gain factor. The quantile is taken as 2 * gammaincinv((m -
    k) / 2, 1 - alpha) (scipy.special), which is SciPy's ``chi2.ppf(1 -
    alpha, m - k)`` bit for bit. Without redundancy (m <= k) the test is
    undefined and NoRedundancy is raised; an ``alpha`` outside (0, 1)
    raises InvalidArgument."""
    return run_detector(DetectorConfig(method="chi_square",
                                       alpha=_real(alpha, "alpha", 0.0, 1.0)),
                        estimate)


def largest_normalized_residual(estimate: EstimationResult,
                                lnr_threshold: float = 3.0) -> DetectionResult:
    """Normalize each residual by its own standard deviation and rank them.

    Omega_ii = S_ii * sigma_i^2 with S = I - H (H^T W H)^-1 H^T W, computed
    as (1 - w_i * hat_ii) / w_i from the weights and the hat diagonal
    hat_ii of H (H^T W H)^-1 H^T, once per gain factor
    (``GainFactor.omega_terms``). Meters with S_ii = 1 - w_i * hat_ii <=
    1e-10 are critical and skipped; S_ii has no units, so scaling every
    sigma moves no meter in or out. If every meter is critical there is
    nothing to normalize and NumericallySingularOmega is raised, on every
    call. An ``lnr_threshold`` that is not positive and finite raises
    InvalidArgument.
    """
    return run_detector(DetectorConfig(
        method="lnr", lnr_threshold=_real(lnr_threshold, "lnr_threshold", 0.0)),
        estimate)

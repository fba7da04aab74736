"""Weighted least squares state estimation.

The linear (dc) problem z = Hx + e solves in closed form through the normal
equations x' = (H^T W H)^-1 H^T W z; the nonlinear (ac) problem iterates
Gauss-Newton steps dx = (H^T W H)^-1 H^T W (z - h(x)) with H re-evaluated at
every iterate. W is diagonal with entries 1/sigma_i^2.

Every gain of the package is formed, factored and guarded in one place,
:func:`_pivoted_gain`, into a :class:`GainFactor`: H and W are scaled by
exact powers of two, so no finite H overflows the gain and no scale changes
an answer; the gain of the scaled rows W^1/2 H gets a pivoted Cholesky
factor (LAPACK ``pstrf``), whose rank drops until the leading block's
1-norm condition estimate (``pocon``) is at most 1e12. Where H is sparse,
its widest row having w nonzeros with w^2 <= k (as on grids of a few dozen
buses and more), the gain is summed from H's row pattern and the hat
diagonal gathered from the inverse gain at each row's nonzeros, never from
the dense m x k H; a denser H takes the dense product and triangular solve.
The two paths sum in another order, so their results agree to rounding
(about 1e-16 relative for a gain, 1e-13 for the hat diagonal), not bit for
bit. The row pattern is an input of the one gain routine: found from a
dense H's nonzeros (dc estimates; the attack module finds it once per call
and factors its row subsets from it), or the one the meter model compiled
for every Jacobian (each Gauss-Newton iterate and the returned state of
:func:`estimate_ac`), whose pairs of entries are enumerated once per
model. A compiled pattern may hold zeros of H; each
adds exactly +-0 to a sum, so the factor is bit for bit the one the found
pattern gives, and the path is chosen by H's own nonzeros. The gain is
exactly symmetric, so ``pstrf`` factors it in place, and the guard's
1-norm of the leading block is summed from |G| at the gain's nonzeros,
read before the factor overwrites them, bit for bit the dense block's
column sums. A sparse gain thus makes no second k x k array; a
dense one's gather (its columns and |G|) is the size of the ``pstrf`` copy
and dense |G| it replaces, and below full rank it is freed once the leading
rows' runs are gathered from it. Below full rank ``pocon`` still gets a
copy of the leading block of U, since f2py passes only contiguous arrays.
:func:`factor_gain` is the full-rank case and raises UnobservableNetwork on
any other rank. Its factor serves every solve with that (H, W), and every
estimate, dc or ac, carries the factor of the gain at the state it
returns, from which the detectors read all they need. The rank of the
unit-weight factor answers observability, protection and stealth, so full
rank there means exactly that factor_gain accepts the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    InvalidArgument,
    LengthMismatch,
    UnobservableNetwork,
    _array,
    _count,
    _instance,
    _real,
)
from .measurement import (
    MeterModel,
    RowPattern,
    StateVector,
    build_meter_model,
    flat_state,
    free_vector,
)
from .network import MeasurementConfig, NetworkModel

CONDITION_LIMIT = 1e12
# A meter whose residual sensitivity S_ii = 1 - w_i hat_ii is at most this
# is critical. S has no units, so no common scale of sigma moves a meter
# into or out of the critical set.
SENSITIVITY_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class GainFactor:
    """The gain H^T W H of one (H, W) pair, scaled, pivoted and factored once.

    H is scaled by 2^-``shift`` into max |H| in [0.5, 1), or by 2^1022 when
    max |H| is below 2^-1022, so that ``scale`` stays a float and no rank
    answer depends on a power-of-two scale of H; W is scaled by 2^-e, e
    even, into [0.5, 2). The scaled gain G = R^T R is formed from the rows
    R = (2^-e W)^1/2 2^-shift H, whose square roots are exact. ``scale``
    is 2^-(e + shift) W, so that a solve's right-hand side
    2^-shift H^T (scale * rhs) stays near the size of its answer.
    ``upper`` and ``piv`` are the pivoted Cholesky factor P^T G P = U^T U
    (LAPACK ``pstrf``, piv 0-based); the first ``rank`` rows of U hold U11
    and U12, the rest is not read. ``upper`` is the gain's own memory,
    factored in place and read in Fortran order, so its strictly lower
    triangle still holds the gain's. ``condition`` is 1/rcond, LAPACK's
    1-norm condition estimate of the leading rank x rank block (inf at rank
    0); its last bits are not reproducible at every size, so compare it to
    rounding. The solves need full rank, which :func:`factor_gain`
    guarantees. H and W are kept by reference and must not be modified
    while the factor is in use.

    ``pattern`` is the row pattern the gain was summed from (the widest row
    of H has w nonzeros with w^2 <= k), else None. It covers every nonzero
    of H and may hold zeros of H too, when the meter model compiled it.
    ``products`` holds, for each of its ``pairs`` in order, the product of
    the pair's two 2^-shift H values, +-0 at a zero of H.
    """

    h: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    shift: int
    upper: np.ndarray
    piv: np.ndarray
    rank: int
    condition: float
    pattern: RowPattern | None = None
    products: np.ndarray | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The weighted least-squares solve (H^T W H)^-1 H^T W rhs of a
        meter-space vector, or of each row of a (T, m) block of them, bit
        for bit the solve of that row alone: H^T takes one matrix-vector
        product per row (stacked ``matmul``), and one ``potrs`` call solves
        every row's right-hand side as a column. The power of two 2^-shift
        goes on the right-hand side before the product where it scales up
        (shift < 0), so that a subnormal H's products keep their bits, and
        on the product after it elsewhere; being exact, either order gives
        the same bits on a normal H."""
        rhs = self.scale * rhs
        if self.shift < 0:
            np.ldexp(rhs, -self.shift, out=rhs)
        b = np.matmul(self.h.T, rhs[..., None])[..., 0]
        if self.shift > 0:
            np.ldexp(b, -self.shift, out=b)
        if not np.isfinite(b).all():
            raise InvalidArgument("readings or model values are not finite")
        x = np.empty_like(b)
        x[..., self.piv] = lapack.dpotrs(self.upper, b[..., self.piv].T,
                                         lower=0, overwrite_b=1)[0].T
        return x

    def _fit(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The estimate x of readings z and its residual r = z - Hx, for
        one vector or each row of a (T, m) block, with z unchecked: floats
        of H's row count, under the caller's np.errstate ignoring overflow
        and invalid values. Hx is one matrix-vector product per row, so a
        row's results are bit for bit those of the row alone. A residual
        that is not finite raises InvalidArgument, as the solve does for
        readings that are not."""
        x = self.solve(z)
        r = z - np.matmul(self.h, x[..., None])[..., 0]
        if not np.isfinite(r).all():
            raise InvalidArgument("residual z - Hx is not finite")
        return x, r

    def estimate(self, z: np.ndarray) -> EstimationResult:
        """The exact linear WLS estimate from readings z; readings or a
        residual too large for a float raise InvalidArgument, unwarned.
        A Monte Carlo trial runs the same arithmetic (``_fit``) on a block
        of readings with no result built."""
        z = _array(z, "z", (self.h.shape[0],))
        with np.errstate(over="ignore", invalid="ignore"):
            x, r = self._fit(z[None])
        raw, weighted = _squares(r[0], self.weights)
        return EstimationResult(
            state=x[0], residual=r[0], squared_error_raw=raw,
            objective_weighted=weighted, converged=True, iterations=1,
            factor=self)

    @cached_property
    def hat_diagonal(self) -> np.ndarray:
        """diag(H (H^T W H)^-1 H^T), 2^-e times row i's 2^-shift h_i^T
        G^-1 2^-shift h_i; the m x m matrix is never formed.

        With the row pattern, ``potri`` gives the upper triangle of
        (P^T G P)^-1, and each row sums only its entries at the pivot
        positions of the row's nonzero pairs: the sparse inverse subset of
        Takahashi et al. (1973). A dense H takes the column sums of Y * Y
        for Y = U^-T (2^-shift H P)^T instead. The two agree to rounding, not
        bit for bit."""
        if self.pattern is None:
            cols = np.take(self.h, self.piv, axis=1)  # solved in place below
            y = solve_triangular(self.upper,
                                 np.ldexp(cols, -self.shift, out=cols).T,
                                 trans="T", lower=False, overwrite_b=True)
            leverage = np.einsum("ij,ij->j", y, y)
        else:
            _, _, rows, a, b, _ = self.pattern.pairs
            inverse = lapack.dpotri(self.upper)[0]  # only its upper triangle
            position = np.empty_like(self.piv)
            position[self.piv] = np.arange(len(self.piv))
            a, b = position[a], position[b]
            leverage = np.bincount(rows, self.products
                                   * inverse[np.minimum(a, b), np.maximum(a, b)],
                                   len(self.h))
        return leverage * np.ldexp(self.scale, self.shift) / self.weights

    @cached_property
    def omega_terms(self) -> tuple[np.ndarray, tuple[int, ...], np.ndarray,
                                   np.ndarray]:
        """What the largest normalized residual test divides by, once per
        factor: the diagonal of the residual covariance Omega, S_ii / w_i
        for the residual sensitivity S_ii = 1 - w_i hat_ii; the critical
        meters, whose S_ii is at most SENSITIVITY_FLOOR (1-based); the
        other, usable rows (0-based); and sqrt(Omega_ii) on those rows.
        S_ii is unchanged, bit for bit, when every sigma is scaled by a
        power of two, so the critical meters are too. The arrays are
        read-only."""
        sensitivity = 1.0 - self.weights * self.hat_diagonal
        omega = sensitivity / self.weights
        critical = sensitivity <= SENSITIVITY_FLOOR
        usable = np.flatnonzero(~critical)
        root = np.sqrt(omega[usable])
        for array in (omega, usable, root):
            array.setflags(write=False)
        return (omega, tuple(int(i) + 1 for i in np.flatnonzero(critical)),
                usable, root)


@dataclass(frozen=True)
class EstimationResult:
    """Solution of one estimation run.

    ``state`` is the free-variable vector in the canonical state ordering
    (use measurement.state_from_free to label it by bus). ``residual`` is
    z - h(state), ``squared_error_raw`` its plain squared norm and
    ``objective_weighted`` the weighted sum actually minimized.
    ``factor`` is the factored gain H^T W H at ``state`` (for ac, H is the
    Jacobian there), with its condition estimate; every detector reads the
    estimate through it and factors nothing.
    """

    state: np.ndarray
    residual: np.ndarray
    squared_error_raw: float
    objective_weighted: float
    converged: bool
    iterations: int
    factor: GainFactor = field(compare=False, repr=False)


def weights_from_config(config: MeasurementConfig) -> np.ndarray:
    """Per-meter weights 1/sigma^2 in file order."""
    return 1.0 / config.sigmas() ** 2


def _weighted(r: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """r^T W r of a residual, or of each row of a block of them, under the
    caller's np.errstate: the weighted objective and chi-square statistic.
    Each is one dot product of the weights and the row's squares, so a
    row's is bit for bit its own; a square too large for a float reads
    inf."""
    return np.matmul(weights, (r * r)[..., None])[..., 0]


def _squares(r: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """r^T r and r^T W r; a square too large for a float reads inf, unwarned."""
    with np.errstate(over="ignore"):
        return float(r @ r), float(_weighted(r, weights))


def _lead_norms(col: np.ndarray, size: np.ndarray, starts: np.ndarray,
                piv: np.ndarray, rank: int) -> Iterator[float]:
    """The 1-norm of the leading r x r block of P^T G P for r = rank,
    rank - 1, ... in turn, from |G| at G's nonzeros: ``size`` at columns
    ``col``, in row-major order, row i's in ``starts[i]:starts[i + 1]``.
    Each is ``np.abs(block).sum(0).max()`` bit for bit. That sum adds the
    block's rows in turn and adding +0.0 is exact, so each column sum is a
    ``bincount`` of the nonzeros in the block's row order: G's own at full
    rank, where the block is G, and pivot order below it. The runs of the
    leading rows are gathered once, in pivot order; a smaller block's rows
    are a prefix of them, and columns outside it fall in bins past r."""
    k = len(piv)
    if rank == k:
        yield np.bincount(col, size, k).max()
        rank -= 1
    lead = piv[:rank]
    counts = starts[lead + 1] - starts[lead]
    ends = np.cumsum(counts)
    run = np.repeat(starts[lead] - ends + counts, counts) + np.arange(ends[-1])
    position = np.empty_like(piv)
    position[piv] = np.arange(k)
    col = position[col[run]]
    size = size[run]
    for r in range(rank, 0, -1):
        yield np.bincount(col[:ends[r - 1]], size[:ends[r - 1]], k)[:r].max()


def _pivoted_gain(h: np.ndarray, weights: np.ndarray,
                  pattern: RowPattern | None = None,
                  rows: np.ndarray | None = None) -> GainFactor:
    """The scaled, pivoted gain factor of (h, weights), of any rank: ``pstrf``
    stops at a pivot of at most max diag(G) / CONDITION_LIMIT, then the rank
    drops until the leading block's condition estimate is at most
    CONDITION_LIMIT. A zero or column-free gain has rank 0 and piv 0..k-1;
    an h that is not finite raises UnobservableNetwork.

    ``pattern`` is h's row pattern when the caller has one (every nonzero
    of h must lie in it), else it is found from h's nonzeros. With
    ``rows`` (0-based, ascending, distinct; ``pattern`` required), the gain
    is that of h[rows], factored from ``pattern.rows(rows)`` at h's own
    memory, bit for bit the factor of the copy; only the dense path copies
    the rows. Its ``h`` is still the whole h, so only its rank, ``upper``,
    ``piv`` and ``condition`` describe the rows. The
    gain is summed from the pattern when h's widest row has w nonzeros
    (counted in h, not in the pattern) with w^2 <= k: one ``bincount`` over
    the products of the pattern's pairs (see ``RowPattern.pairs``, cached
    on the pattern), in row order, so the sum is deterministic. There are
    at most m w^2 <= m k pairs of nonzeros, never more than h has entries.
    A pair at a zero of h adds a product of exactly +-0, which leaves every
    partial sum as it is, so a compiled pattern and the found one give the
    same gain bit for bit. A denser h takes ``rows.T @ rows``, which numpy
    runs as SYRK. The two sum the same products in another order, so a gain
    differs between them only in the last bits; the guard is the same on
    both. Either gain is exactly symmetric, so its transpose is itself in
    Fortran order and ``pstrf``, which reads and writes only the upper
    triangle, factors it without a copy; the guard's 1-norms come from
    :func:`_lead_norms`, on |G| gathered at the nonzeros first.
    """
    k = h.shape[1]
    if pattern is None:
        pattern = RowPattern.of(h)
        sparse = int(np.diff(pattern.starts).max(initial=0)) ** 2 <= k
        values = np.take(h, pattern.flat) if sparse else h
    else:  # it may hold zeros of h, so h's own nonzeros are counted
        at = pattern.flat
        if rows is not None:
            pattern, at = pattern.rows(rows)
        values = np.take(h, at)
        sparse = int(np.bincount(pattern.row, values != 0.0, pattern.shape[0])
                     .max(initial=0)) ** 2 <= k
    top = max(values.max(initial=0.0), -values.min(initial=0.0))  # or NaN
    if not top < np.inf:
        raise UnobservableNetwork("H is not finite")
    # -shift <= 1022, so 2^-shift times a scaled weight (below 2) is a float
    shift = max(int(np.frexp(top)[1]), -1022)
    even = np.frexp(np.max(weights, initial=0.0))[1] // 2 * 2
    if sparse:
        first, second, pair_row, _, _, key = pattern.pairs
        scaled = np.ldexp(values, -shift)
        products = scaled[first] * scaled[second]
        # no pairs at all sum to integer zeros
        gain = np.bincount(key, products * np.ldexp(weights, -even)[pair_row],
                           k * k).reshape(k, k).astype(float, copy=False)
    else:
        pattern = products = None
        root = np.ldexp(np.sqrt(np.ldexp(weights, -even)), -shift)[:, None]
        if rows is None:
            scaled = h * root
        else:  # the rows' one copy, scaled in place
            scaled = np.take(h, rows, axis=0)
            scaled *= root
        gain = scaled.T @ scaled  # numpy takes SYRK for this product
        del scaled
    top = float(np.max(np.diag(gain), initial=0.0))
    upper, piv, rank, condition = gain, np.arange(k), 0, np.inf
    if top > 0.0:
        # |G| at its nonzeros, row by row, read before the factor overwrites G
        g_col = np.flatnonzero(gain != 0.0)
        g_abs = np.take(gain, g_col)
        np.abs(g_abs, out=g_abs)
        g_starts = np.searchsorted(g_col, np.arange(k + 1) * k)
        np.remainder(g_col, k, out=g_col)
        upper, piv, rank, _ = lapack.dpstrf(gain.T, tol=top / CONDITION_LIMIT,
                                            overwrite_a=1)
        piv = piv.astype(np.intp) - 1  # intp indexes faster than LAPACK's int32
        norms = _lead_norms(g_col, g_abs, g_starts, piv, rank)
        # below full rank the generator frees them once it has gathered
        # the leading rows' runs
        del g_col, g_abs
    while rank:
        rcond = lapack.dpocon(upper[:rank, :rank], next(norms))[0]
        condition = 1.0 / rcond if rcond > 0.0 else np.inf
        if condition <= CONDITION_LIMIT:
            break
        rank -= 1
    return GainFactor(h, weights, np.ldexp(weights, -(even + shift)), shift,
                      upper, piv, rank, condition, pattern, products)


def _full_rank(factor: GainFactor) -> GainFactor:
    """factor when its rank is its state count k > 0; else
    UnobservableNetwork."""
    k = factor.h.shape[1]
    if not 0 < factor.rank == k:
        raise UnobservableNetwork(f"gain matrix has numerical rank "
                                  f"{factor.rank} of {k}")
    return factor


def factor_gain(h_matrix: np.ndarray, weights: np.ndarray) -> GainFactor:
    """Factor the gain H^T W H once, guarded against ill-conditioning.

    The full-rank case of :func:`_pivoted_gain`: any finite H whose scaled
    gain passes the guard at rank k > 0 is accepted. Raises
    UnobservableNetwork when H is not finite, or the gain is empty, zero,
    not numerically positive definite or its 1-norm condition estimate
    exceeds CONDITION_LIMIT, and InvalidArgument for a weight that is not
    positive and finite with a finite reciprocal. No singular value
    decomposition is taken.
    """
    h = _array(h_matrix, "H", ndim=2)
    return _full_rank(_pivoted_gain(
        h, _array(weights, "weights", (h.shape[0],), positive=True)))


@dataclass(frozen=True)
class ObservabilityReport:
    rank: int
    observable: bool


def check_observability(network: NetworkModel,
                        config: MeasurementConfig) -> ObservabilityReport:
    """Numerical rank of the linear meter-to-angle matrix H.

    The rank is the estimator's: observable means it equals the angle state
    count n - 1 and is positive, i.e. exactly when ``factor_gain(H, ones)``
    accepts H.
    """
    h = build_meter_model(network, config).dc_matrix
    rank = _pivoted_gain(h, np.ones(len(h))).rank
    return ObservabilityReport(rank, 0 < rank == network.n_buses - 1)


def estimate_dc(h_matrix: np.ndarray, z: np.ndarray,
                weights: np.ndarray) -> EstimationResult:
    """Exact linear WLS minimizer.

    Requires full column rank (an observable meter set); a singular or
    ill-conditioned gain matrix raises UnobservableNetwork.
    """
    return factor_gain(h_matrix, weights).estimate(z)


def estimate_ac(model: MeterModel, z: np.ndarray, weights: np.ndarray, *,
                init: StateVector | None = None, tol: float = 1e-8,
                max_iter: int = 50) -> EstimationResult:
    """Gauss-Newton WLS on the nonlinear meter functions of ``model`` (see
    measurement.build_meter_model).

    Starts from ``init`` (default: flat start, v = 1 and angles 0) and stops
    when the step's max component drops below ``tol`` or after ``max_iter``
    iterations. On non-convergence the best iterate seen (lowest weighted
    objective) is returned with ``converged=False``; a singular gain matrix
    at any iterate raises UnobservableNetwork, an iterate whose weighted
    objective is not finite InvalidArgument. Every iterate is evaluated
    against the one model; each step factors the gain at its own iterate
    once, and the gain at the returned state is factored once more for the
    result, also with ``max_iter=0``, so an unobservable start raises.
    ``model`` must be a MeterModel, ``max_iter`` an integer >= 0 and
    ``tol`` positive and finite (a bool is neither), and ``init`` a
    StateVector, else InvalidArgument before any iteration.
    """
    _instance(model, MeterModel, "model")
    max_iter = _count(max_iter, "max_iter")
    tol = _real(tol, "tol", 0.0)
    z = _array(z, "z", (len(model.config),), error=LengthMismatch)
    w = _array(weights, "weights", z.shape, positive=True)
    x = free_vector(model.network, init if init is not None
                    else flat_state(model.network), "ac")

    def evaluate(vec):
        r = z - model.values(vec)
        obj = _squares(r, w)[1]
        if not obj < np.inf:  # also NaN; raised before J(vec) is evaluated
            raise InvalidArgument("readings or model values are not finite")
        return r, obj

    def factor_at(vec):  # every J(vec) summed from the model's one pattern
        return _full_rank(_pivoted_gain(model.jacobian(vec), w,
                                        model.jacobian_pattern))

    r, obj = evaluate(x)
    best = (obj, x, r)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # the last step's factor is freed only once this one is built, so
        # glibc does not trim the heap and fault it in again every step
        factor = factor_at(x)
        dx = factor.solve(r)
        x = x + dx
        r, obj = evaluate(x)
        if obj < best[0]:
            best = (obj, x, r)
        if np.max(np.abs(dx)) < tol:
            converged = True
            break

    if not converged:
        obj, x, r = best
    raw, weighted = _squares(r, w)
    return EstimationResult(
        state=x, residual=r, squared_error_raw=raw,
        objective_weighted=weighted, converged=converged,
        iterations=iterations, factor=factor_at(x))

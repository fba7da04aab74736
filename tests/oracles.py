"""Independent oracle routines for the test suite.

Deliberately written from scratch, without the package's linear-algebra
paths: inversion by Gauss-Jordan elimination, the gain as one dense product
and the hat diagonal through that inverse, rank by row reduction, the
chi-square distribution through the classic erf/exponential recurrence,
branch power flows from complex phasors, and the meter model compiled meter
by meter. Slow and simple on purpose. The exceptions are made the way the
package made them before, for its faster forms to match bit for bit: the
gain factor with the same LAPACK calls on copies of the gain, the attack
analysis on copies of the rows it factors, and the bus admittance summed
branch by branch.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import lapack

from scipy.linalg import solve_triangular

from gridse.errors import UnobservableNetwork
from gridse.estimation import (
    CONDITION_LIMIT,
    GainFactor,
    _pivoted_gain,
    factor_gain,
)
from gridse.measurement import _TERM_CODES, MeterModel, RowPattern
from gridse.network import AdmittanceMatrix


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination with row pivoting."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n)
    work = np.hstack([a.copy(), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
        work[col] /= work[col, col]
        for row in range(n):
            if row != col:
                work[row] -= work[row, col] * work[col]
    return work[:, n:]


def brute_force_wls(h: np.ndarray, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """WLS solution through an explicitly inverted gain matrix."""
    h = np.asarray(h, dtype=float)
    w = np.diag(np.asarray(weights, dtype=float))
    gain = h.T @ w @ h
    return gauss_jordan_inverse(gain) @ h.T @ w @ np.asarray(z, dtype=float)


def dense_gain(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The gain H^T W H as one plain dense product."""
    h = np.asarray(h, dtype=float)
    return h.T @ (np.asarray(weights, dtype=float)[:, None] * h)


def dense_hat_diagonal(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """diag(H (H^T W H)^-1 H^T) through a Gauss-Jordan inverse of the gain."""
    h = np.asarray(h, dtype=float)
    return np.einsum("ij,jk,ik->i", h,
                     gauss_jordan_inverse(dense_gain(h, weights)), h)


def row_reduction_rank(a: np.ndarray, tol: float = 1e-8) -> int:
    """Rank by Gaussian elimination with partial pivoting."""
    work = np.asarray(a, dtype=float).copy()
    if work.size == 0:
        return 0
    scale = max(1.0, float(np.max(np.abs(work))))
    rows, cols = work.shape
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(work[row:, col])))
        if abs(work[pivot, col]) <= tol * scale:
            continue
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        work[row] /= work[row, col]
        for other in range(rows):
            if other != row:
                work[other] -= work[other, col] * work[row]
        rank += 1
        row += 1
    return rank


def chi2_cdf(x: float, dof: int) -> float:
    """Chi-square CDF by the downward recurrence in the degrees of freedom.

    F_1(x) = erf(sqrt(x/2)), F_2(x) = 1 - exp(-x/2) and
    F_k(x) = F_{k-2}(x) - (x/2)^{(k-2)/2} exp(-x/2) / Gamma(k/2).
    """
    assert dof >= 1
    if x <= 0:
        return 0.0
    if dof % 2 == 1:
        value = math.erf(math.sqrt(x / 2.0))
        start = 3
    else:
        value = 1.0 - math.exp(-x / 2.0)
        start = 4
    for k in range(start, dof + 1, 2):
        value -= (x / 2.0) ** ((k - 2) / 2.0) * math.exp(-x / 2.0) / math.gamma(k / 2.0)
    return value


def chi2_quantile(p: float, dof: int) -> float:
    """Upper-p quantile complement: the x with chi2_cdf(x, dof) = p."""
    assert 0.0 < p < 1.0
    low, high = 0.0, 1.0
    while chi2_cdf(high, dof) < p:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if chi2_cdf(mid, dof) < p:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def branch_power(branch, state, i: int, j: int) -> complex:
    """Complex power leaving bus i on a pi-model branch between i and j,
    from phasors: S = V_i conj((y + y_sh) V_i - y V_j) with y = 1/(r + jX)
    and y_sh = gs + j*bs the shunt at each end."""
    v_i = state.magnitudes[i] * cmath.exp(1j * state.angles[i])
    v_j = state.magnitudes[j] * cmath.exp(1j * state.angles[j])
    y = 1.0 / complex(branch.resistance_r, branch.reactance_x)
    y_sh = complex(branch.shunt_conductance_gs, branch.shunt_susceptance_bs)
    return v_i * ((y + y_sh) * v_i - y * v_j).conjugate()


def meter_model_by_loop(network, config):
    """A MeterModel compiled meter by meter: one term per flow or current
    meter (the first branch joining its ends, in file order) and one per
    branch at an injection meter's bus (in file order)."""
    n = network.n_buses
    ref = network.reference_bus - 1
    angle_col = np.arange(n) - (np.arange(n) > ref)
    angle_col[ref] = -1
    rows, codes, ends, branches = [], [], [], []
    voltage_rows, voltage_buses = [], []
    for row, spec in enumerate(config.specs):
        if spec.kind == "voltage_magnitude":
            voltage_rows.append(row)
            voltage_buses.append(spec.bus - 1)
            continue
        if spec.to_bus is not None:
            reads = [(network.branch_between(spec.from_bus, spec.to_bus),
                      spec.from_bus, spec.to_bus)]
        else:
            reads = [(br, spec.bus, other)
                     for br, other in network.branches_at(spec.bus)]
        for branch, i, j in reads:
            rows.append(row)
            codes.append(_TERM_CODES[spec.kind])
            ends.append((i - 1, j - 1))
            branches.append(branch)
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    i, j = ends[:, 0], ends[:, 1]
    series = np.array([br.series_admittance for br in branches]).reshape(-1, 2)
    return MeterModel(
        network=network,
        config=config,
        row=np.array(rows, dtype=np.intp),
        code=np.array(codes, dtype=np.intp),
        i=i,
        j=j,
        columns=np.stack([angle_col[i], angle_col[j], n - 1 + i, n - 1 + j],
                         axis=1),
        g=series[:, 0].copy(),
        b=series[:, 1].copy(),
        gs=np.array([br.shunt_conductance_gs for br in branches], dtype=float),
        bs=np.array([br.shunt_susceptance_bs for br in branches], dtype=float),
        inv_x=np.array([1.0 / br.reactance_x for br in branches], dtype=float),
        voltage_rows=np.array(voltage_rows, dtype=np.intp),
        voltage_buses=np.array(voltage_buses, dtype=np.intp),
    )


# The gain factor as it was built before it was factored in place: pstrf
# on its own copy of the gain, and the guard's 1-norm from a dense copy of
# the leading block and its absolute value.
def pivoted_gain_with_copies(h: np.ndarray, weights: np.ndarray) -> GainFactor:
    """The scaled, pivoted gain factor of (h, weights), of any rank: ``pstrf``
    stops at a pivot of at most max diag(G) / CONDITION_LIMIT, then the rank
    drops until the leading block's condition estimate is at most
    CONDITION_LIMIT. A zero or column-free gain has rank 0 and piv 0..k-1;
    an h that is not finite raises UnobservableNetwork.

    The gain is summed from h's row pattern when its widest row has w
    nonzeros with w^2 <= k: one ``bincount`` over the products of every
    pair of nonzeros in a row, in row order, so the sum is deterministic.
    There are at most m w^2 <= m k such pairs, never more than h has
    entries. A denser h takes ``rows.T @ rows``, which numpy runs as SYRK.
    The two sum the same products in another order, so a gain differs
    between them only in the last bits; the guard is the same on both.
    """
    m, k = h.shape
    flat = np.flatnonzero(h != 0.0)  # NaN and inf are nonzero too
    starts = np.searchsorted(flat, np.arange(m + 1) * k)
    counts = np.diff(starts)
    sparse = int(counts.max(initial=0)) ** 2 <= k
    values = np.take(h, flat) if sparse else h
    top = max(values.max(initial=0.0), -values.min(initial=0.0))  # or NaN
    if not top < np.inf:
        raise UnobservableNetwork("H is not finite")
    shift = int(np.frexp(top)[1])
    even = np.frexp(np.max(weights, initial=0.0))[1] // 2 * 2
    pattern = products = None
    if sparse:
        # every ordered pair (a, b) of nonzeros in one row, row by row
        row = np.repeat(np.arange(m), counts)
        col = flat - row * k
        length = counts[row]
        a = np.repeat(np.arange(len(flat)), length)
        b = np.arange(len(a)) + np.repeat(starts[row] - np.cumsum(length) + length,
                                          length)
        scaled = np.ldexp(values, -shift)
        pair_row, left, right, products = \
            row[a], col[a], col[b], scaled[a] * scaled[b]
        # the pattern's pair list is this one, not the package's
        pattern = RowPattern((m, k), flat, starts)
        pattern.__dict__["pairs"] = (a, b, pair_row, left, right,
                                     left * k + right)
        # no pairs at all sum to integer zeros
        gain = np.bincount(left * k + right, products
                           * np.ldexp(weights, -even)[pair_row], k * k) \
            .reshape(k, k).astype(float, copy=False)
    else:
        rows = h * np.ldexp(np.sqrt(np.ldexp(weights, -even)), -shift)[:, None]
        gain = rows.T @ rows  # numpy takes SYRK for this product
        del rows
    top = float(np.max(np.diag(gain), initial=0.0))
    upper, piv, rank, condition = gain, np.arange(k), 0, np.inf
    if top > 0.0:
        upper, piv, rank, _ = lapack.dpstrf(gain, tol=top / CONDITION_LIMIT)
        piv = piv.astype(np.intp) - 1  # intp indexes faster than LAPACK's int32
    while rank:
        lead = piv[:rank]
        block = gain[np.ix_(lead, lead)] if rank < len(gain) else gain
        rcond = lapack.dpocon(upper[:rank, :rank], np.abs(block).sum(0).max())[0]
        condition = 1.0 / rcond if rcond > 0.0 else np.inf
        if condition <= CONDITION_LIMIT:
            break
        rank -= 1
    return GainFactor(h, weights, np.ldexp(weights, -(even + shift)), shift,
                      upper, piv, rank, condition, pattern, products)


# The attack analysis as it was before it factored row subsets in place: a
# copy of the rows, h[rows], handed to the gain routine, which finds their
# pattern again. H is finite and the meter indices are checked.
def rows_by_copy(h: np.ndarray, rows) -> GainFactor:
    """The unit-weight gain factor of the copied rows h[rows] (0-based)."""
    sub = h[np.asarray(rows, dtype=int)]
    return _pivoted_gain(sub, np.ones(len(sub)))


def constrained_attack_by_copy(h: np.ndarray, accessible, magnitude=0.01):
    """(c, Hc) of a constrained stealth attack on the accessible meters
    (1-based), or None, from the copied blocked rows."""
    m, k = h.shape
    blocked = np.setdiff1d(np.arange(m), np.asarray(accessible, dtype=int) - 1)
    f = rows_by_copy(h, blocked)
    if f.rank == k:
        return None
    free = f.piv[f.rank:]
    zero = free[~np.any(h[blocked][:, free], axis=0)]
    c = np.zeros(k)
    if zero.size:
        c[zero.max()] = magnitude
    else:
        c[free[-1]] = 1.0
        c[f.piv[:f.rank]] = -solve_triangular(f.upper[:f.rank, :f.rank],
                                              f.upper[:f.rank, -1])
        c *= magnitude / np.linalg.norm(c)
    return c, h @ c


def verify_stealth_by_copy(h: np.ndarray, a: np.ndarray) -> bool:
    """Whether a lies in H's column space: the residual of a, scaled into
    [0.5, 1), after factor_gain(H, ones)'s solve, within 1e-9 of ||a||."""
    factor = factor_gain(h, np.ones(len(h)))
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return bool(np.linalg.norm(a - h @ factor.solve(a))
                <= 1e-9 * np.linalg.norm(a))


def protection_rank_by_copy(h: np.ndarray, protected) -> int:
    """The rank of the copied protected rows (1-based meters)."""
    return rows_by_copy(h, np.asarray(sorted(set(protected)), dtype=int) - 1).rank


def admittance_by_loop(network) -> AdmittanceMatrix:
    """The bus admittance summed branch by branch into a complex matrix:
    y = 1/(r + jX) off the diagonal as -y, and y plus the end's shunt on
    each end's diagonal; g is the real part, b the negated imaginary."""
    n = network.n_buses
    y_bus = np.zeros((n, n), dtype=complex)
    for br in network.branches:
        i, j = br.from_bus - 1, br.to_bus - 1
        y = 1.0 / complex(br.resistance_r, br.reactance_x)
        shunt = complex(br.shunt_conductance_gs, br.shunt_susceptance_bs)
        y_bus[i, i] += y + shunt
        y_bus[j, j] += y + shunt
        y_bus[i, j] -= y
        y_bus[j, i] -= y
    return AdmittanceMatrix(g=y_bus.real.copy(), b=(-y_bus.imag).copy())

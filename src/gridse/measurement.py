"""Meter models: h(x) evaluation, Jacobians, and synthetic readings.

Two modes share one meter vocabulary:

* ``dc``: angles are the only states, voltages are 1 pu, branches are purely
  reactive; active flows and injections are linear in the angles and the
  Jacobian is constant. Supported kinds: ``flow_p``, ``injection_p``.
* ``ac``: states are all non-reference angles followed by every bus voltage
  magnitude (dimension 2n - 1); flows, injections, current and voltage
  magnitudes are the usual pi-model trigonometric functions of the state.

State ordering everywhere: angles of non-reference buses ascending by id,
then (in ac mode) voltage magnitudes of all buses ascending by id. Meter
vectors are plain float arrays index-aligned with the MeasurementConfig.

Both modes evaluate one compiled :class:`MeterModel`, which
:func:`build_meter_model` makes from a (network, meter set) pair with array
operations: Python passes over the branches and the meters, then numpy
gathers, so O(m + branches) Python steps. It holds one term per flow
or current meter (the first branch joining its ends, in file order) and one
per branch incident to an injection meter's bus (in file order), each with
its meter row, its two ends and the branch parameters; terms come in meter
order, and voltage meters are a separate row/bus list. The dc matrix H and
the ac h(x) and J(x) are numpy expressions over these arrays, summed into
rows with ``np.bincount`` in term order, so each row adds its terms in the
same order as a meter-by-meter loop would. J(x) has the same sparsity
pattern at every x; the model compiles it once (``jacobian_pattern``), and
the estimator sums every ac gain from it.

Every path builds one model per (network, meter set).
:func:`simulate_measurements` and ``estimation.estimate_ac`` take the model
itself, and ``estimate_ac`` evaluates every iterate against it; only
``dc_jacobian`` and ``check_observability``, which take the pair, build one
per call. ``run_scenario`` passes its model to the readings, the attack and
the estimate, the CLI's ``estimate`` to either mode, and ``run_monte_carlo``
computes H and H x once for all its trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ._streams import _meter_noise
from .errors import (
    InvalidArgument,
    MissingMagnitudes,
    UnsupportedKindForDC,
    _array,
    _count,
    _instance,
    _real,
)
from .network import (
    AdmittanceMatrix,
    MeasurementConfig,
    NetworkModel,
    _check_measurement_references,
    _pair,
)

DC_KINDS = ("flow_p", "injection_p")
# What a meter term contributes to its row; a voltage meter has no terms.
_P, _Q, _CURRENT, _VOLTAGE = 0, 1, 2, 3
_TERM_CODES = {"flow_p": _P, "injection_p": _P, "flow_q": _Q,
               "injection_q": _Q, "current_magnitude": _CURRENT,
               "voltage_magnitude": _VOLTAGE}


@dataclass(frozen=True)
class StateVector:
    """Bus angles (radians) and, in ac mode, voltage magnitudes (pu).

    ``angles`` must cover every bus and hold exactly 0.0 at the reference.
    ``magnitudes`` is None for an angles-only (dc) state. Each is a mapping
    from bus id to a finite number, else InvalidArgument.
    """

    angles: Mapping[int, float]
    magnitudes: Mapping[int, float] | None = None

    def __post_init__(self):
        for key in ("angles", "magnitudes"):
            table = getattr(self, key)
            if table is None and key == "magnitudes":
                continue
            if not isinstance(table, Mapping):
                raise InvalidArgument(f"{key} must map bus ids to numbers")
            object.__setattr__(self, key, {bus: _real(v, f"{key}[{bus!r}]")
                                           for bus, v in table.items()})


def state_dimension(network: NetworkModel, mode: str) -> int:
    _check_mode(network, mode)
    n = network.n_buses
    return n - 1 if mode == "dc" else 2 * n - 1


def _check_mode(network: NetworkModel, mode: str):
    """A network and a mode name; else InvalidArgument."""
    _instance(network, NetworkModel, "network")
    if mode not in ("dc", "ac"):
        raise InvalidArgument(f"mode must be 'dc' or 'ac', got {mode!r}")


def _check_state(network: NetworkModel, state: StateVector, mode: str):
    _instance(state, StateVector, "state")
    for b in network.buses:
        if b.id not in state.angles:
            raise InvalidArgument(f"state has no angle for bus {b.id}")
    ref = network.reference_bus
    if state.angles[ref] != 0.0:
        raise InvalidArgument(f"reference bus {ref} angle must be exactly 0")
    if mode == "ac":
        if state.magnitudes is None:
            raise MissingMagnitudes("ac state requires voltage magnitudes")
        for b in network.buses:
            if b.id not in state.magnitudes:
                raise MissingMagnitudes(f"state has no magnitude for bus {b.id}")


def free_vector(network: NetworkModel, state: StateVector, mode: str) -> np.ndarray:
    """Flatten a state into the free-variable column ordering."""
    _check_mode(network, mode)
    _check_state(network, state, mode)
    parts = [state.angles[b] for b in network.non_reference_ids()]
    if mode == "ac":
        parts += [state.magnitudes[b.id]
                  for b in sorted(network.buses, key=lambda b: b.id)]
    return np.array(parts, dtype=float)


def state_from_free(network: NetworkModel, x: np.ndarray, mode: str) -> StateVector:
    """Inverse of :func:`free_vector`; pins the reference angle at 0."""
    x = _array(x, "state vector", (state_dimension(network, mode),))
    non_ref = network.non_reference_ids()
    angles = {network.reference_bus: 0.0}
    angles.update({b: float(x[i]) for i, b in enumerate(non_ref)})
    if mode == "dc":
        return StateVector(angles=angles)
    mags = {b.id: float(x[len(non_ref) + i])
            for i, b in enumerate(sorted(network.buses, key=lambda b: b.id))}
    return StateVector(angles=angles, magnitudes=mags)


def flat_state(network: NetworkModel, mode: str = "ac") -> StateVector:
    """All angles 0; all magnitudes 1 in ac mode."""
    _check_mode(network, mode)
    angles = {b.id: 0.0 for b in network.buses}
    if mode == "dc":
        return StateVector(angles=angles)
    return StateVector(angles=angles,
                       magnitudes={b.id: 1.0 for b in network.buses})


@dataclass(frozen=True, eq=False)
class RowPattern:
    """Where an m x k matrix (``shape``) may hold nonzeros: the row-major
    flat positions ``flat``, ascending, row i's in
    ``flat[starts[i]:starts[i + 1]]``. Every nonzero lies at one of them,
    and a position may hold a zero. Build it from a matrix's own nonzeros
    with :meth:`of`, or compile it once for every value of a matrix whose
    pattern is fixed, as :attr:`MeterModel.jacobian_pattern` does; take a
    row subset's with :meth:`rows`, which copies no row of the matrix. The
    arrays must not be modified."""

    shape: tuple[int, int]
    flat: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray) -> RowPattern:
        """The pattern of h's nonzeros; NaN and inf are nonzero too."""
        m, k = h.shape
        flat = np.flatnonzero(h != 0.0)
        return cls((m, k), flat, np.searchsorted(flat, np.arange(m + 1) * k))

    @cached_property
    def row(self) -> np.ndarray:
        """The row of each position."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.starts))

    def rows(self, index: np.ndarray) -> tuple[RowPattern, np.ndarray]:
        """The pattern of the rows ``index`` (0-based, ascending, distinct)
        of the matrix, and the flat positions in the matrix of its entries,
        in its order. Of a pattern found by :meth:`of`, it is the one
        ``of(h[index])`` finds, and h at those positions are its values."""
        m, k = self.shape
        keep = np.zeros(m, dtype=bool)
        keep[index] = True
        row = self.row
        taken = keep[row]
        at = self.flat[taken]
        # each kept row moves up by the rows dropped above it
        dropped = np.cumsum(~keep)[row[taken]]
        counts = np.diff(self.starts)[index]
        starts = np.zeros(len(counts) + 1, dtype=self.starts.dtype)
        np.cumsum(counts, out=starts[1:])
        return RowPattern((len(counts), k), at - dropped * k, starts), at

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """Every ordered pair (a, b) of positions in one row, row by row and
        within a row in position order, enumerated once per pattern: six
        arrays of a and b (indices into ``flat``), their row, their columns
        i and j, and the flat position i * k + j of the k x k product H^T H
        that the pair adds to."""
        k = self.shape[1]
        starts, row = self.starts, self.row
        col = self.flat - row * k
        length = np.diff(starts)[row]
        first = np.repeat(np.arange(len(row)), length)
        second = np.arange(len(first)) \
            + np.repeat(starts[row] - np.cumsum(length) + length, length)
        left, right = col[first], col[second]
        return first, second, row[first], left, right, left * k + right


@dataclass(frozen=True, eq=False)
class MeterModel:
    """One meter set compiled against one network, as flat per-term arrays.

    Build it with :func:`build_meter_model`. Term t is one branch read by
    meter ``row[t]`` from bus ``i[t]`` towards bus ``j[t]`` (0-based bus
    indices); ``code[t]`` says whether it yields P, Q or the current
    magnitude, and ``g``/``b``/``gs``/``bs``/``inv_x`` hold that branch's
    series admittance, shunt and 1/X. ``columns[t]`` holds the state columns
    of (angle i, angle j, magnitude i, magnitude j), with -1 for the
    reference angle. ``jacobian_pattern`` is where J(x) may hold nonzeros
    at any x, compiled on first use with the slot of the pattern each term
    entry sums into, so that no evaluation of J searches for its pattern.
    """

    network: NetworkModel
    config: MeasurementConfig
    row: np.ndarray
    code: np.ndarray
    i: np.ndarray
    j: np.ndarray
    columns: np.ndarray
    g: np.ndarray
    b: np.ndarray
    gs: np.ndarray
    bs: np.ndarray
    inv_x: np.ndarray
    voltage_rows: np.ndarray
    voltage_buses: np.ndarray

    @cached_property
    def dc_matrix(self) -> np.ndarray:
        """The constant linear meter matrix H, m x (n-1); computed once."""
        for row, spec in enumerate(self.config.specs):
            if spec.kind not in DC_KINDS:
                raise UnsupportedKindForDC(
                    f"{spec.kind} has no linear model (row {row})"
                )
        m, k = len(self.config), self.network.n_buses - 1
        cols = self.columns[:, :2]
        keep = cols >= 0
        coeff = np.stack([self.inv_x, -self.inv_x], axis=1)
        index = (self.row[:, None] * k + cols)[keep]
        return _sum_at(index, coeff[keep], m * k).reshape(m, k)

    def values(self, x: np.ndarray) -> np.ndarray:
        """h(x) at an ac free vector x (see :func:`free_vector`).

        Flows follow the pi-model equations (see ``_branch_flows``), an
        injection is the sum of the flows leaving its bus, current magnitude
        is sqrt(P^2 + Q^2) / v_i, and a voltage meter reads v_i directly."""
        v, vi, _, p, q, _, _ = self._branch_flows(x)
        term = np.where(self.code == _P, p, q)
        current, apparent = self._apparent(p, q)
        term[current] = apparent / vi[current]
        out = _sum_at(self.row, term, len(self.config))
        out[self.voltage_rows] = v[self.voltage_buses]
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic dh/dx at an ac free vector x, m x (2n-1)."""
        _, vi, vj, p, q, gc_bs, gs_bc = self._branch_flows(x)
        g, b, gs, bs = self.g, self.b, self.gs, self.bs
        vv = vi * vj
        dp = np.stack([vv * gs_bc, -vv * gs_bc,
                       2.0 * vi * (gs + g) - vj * gc_bs, -vi * gc_bs], axis=1)
        dq = np.stack([-vv * gc_bs, vv * gc_bs,
                       -2.0 * vi * (bs + b) - vj * gs_bc, -vi * gs_bc], axis=1)
        grad = np.where((self.code == _P)[:, None], dp, dq)
        current, apparent = self._apparent(p, q)
        # |S| is not differentiable at 0: those current rows stay zero.
        grad[current] = 0.0
        live = apparent != 0.0
        current, apparent = current[live], apparent[live]
        v_cur = vi[current]
        d_cur = (p[current, None] * dp[current] + q[current, None] * dq[current]) \
            / (apparent * v_cur)[:, None]
        d_cur[:, 2] -= apparent / (v_cur * v_cur)
        grad[current] = d_cur

        pattern, keep, term_slot, voltage_slot = self._jacobian_slots
        slots = _sum_at(term_slot, grad[keep], len(pattern.flat))
        slots[voltage_slot] = 1.0
        jac = np.zeros(pattern.shape)
        jac.put(pattern.flat, slots)
        return jac

    @property
    def jacobian_pattern(self) -> RowPattern:
        """Where J(x) may hold nonzeros at any x, compiled once per model:
        each term's angle and magnitude columns (not the reference angle's)
        and each voltage meter's magnitude column. A position may hold a
        zero at some x, as on a lossless branch at the flat start or on a
        current meter at |S| = 0."""
        return self._jacobian_slots[0]

    @cached_property
    def _jacobian_slots(self) -> tuple[RowPattern, np.ndarray, np.ndarray,
                                       np.ndarray]:
        """J's row pattern; which of the term x column entries are kept
        (those not at the reference angle); the slot of the pattern each
        kept entry sums into; and the slot of each voltage meter's entry."""
        m, n = len(self.config), self.network.n_buses
        k = 2 * n - 1
        keep = self.columns >= 0
        entries = np.concatenate([(self.row[:, None] * k + self.columns)[keep],
                                  self.voltage_rows * k + n - 1
                                  + self.voltage_buses])
        flat, slot = np.unique(entries, return_inverse=True)
        terms = len(entries) - len(self.voltage_rows)
        return (RowPattern((m, k), flat,
                           np.searchsorted(flat, np.arange(m + 1) * k)),
                keep, slot[:terms], slot[terms:])

    def _branch_flows(self, x):
        """Bus magnitudes v, then per term v_i, v_j, the P and Q leaving the
        i end, and the factors g cos + b sin and g sin - b cos:

            p =  vi^2 (gs + g) - vi vj (g cos dij + b sin dij)
            q = -vi^2 (bs + b) - vi vj (g sin dij - b cos dij)
        """
        n = self.network.n_buses
        x = _array(x, "state vector", (2 * n - 1,))
        theta = np.insert(x[:n - 1], self.network.reference_bus - 1, 0.0)
        v = x[n - 1:]
        vi, vj = v[self.i], v[self.j]
        dij = theta[self.i] - theta[self.j]
        c, s = np.cos(dij), np.sin(dij)
        g, b = self.g, self.b
        gc_bs = g * c + b * s
        gs_bc = g * s - b * c
        p = vi * vi * (self.gs + g) - vi * vj * gc_bs
        q = -vi * vi * (self.bs + b) - vi * vj * gs_bc
        return v, vi, vj, p, q, gc_bs, gs_bc

    def _apparent(self, p, q):
        """The current-magnitude terms and their |S| = hypot(P, Q)."""
        current = np.flatnonzero(self.code == _CURRENT)
        # math.hypot is correctly rounded in more cases than np.hypot.
        apparent = np.array([math.hypot(a, b) for a, b in
                             zip(p[current].tolist(), q[current].tolist())])
        return current, apparent


def _sum_at(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """out[index[t]] += weights[t] for t in order, into zeros(size).

    Sequential in t, so each entry adds its terms in term order. (bincount
    returns integers when there are no terms, hence the cast.)
    """
    return np.bincount(index, weights=weights, minlength=size).astype(float, copy=False)


def build_meter_model(network: NetworkModel,
                      config: MeasurementConfig) -> MeterModel:
    """Compile a meter set against a network with array operations, in
    O(m + branches) Python steps plus numpy sorts of the branch ends.

    A flow or current meter reads the first branch joining its ends, in file
    order, from its ``from`` end; an injection reads every branch at its bus
    in file order. Terms come in meter order, then in that branch order,
    the order of a meter-by-meter loop. A meter on an unknown bus, or a flow
    meter whose ends no branch joins, raises DanglingReference.
    """
    _check_measurement_references(network, config)
    n = network.n_buses
    ref = network.reference_bus - 1
    angle_col = np.arange(n) - (np.arange(n) > ref)
    angle_col[ref] = -1
    # per branch in file order: its ends, then g, b, gs, bs and X
    table = np.array([(br.from_bus, br.to_bus, *br.series_admittance,
                       br.shunt_conductance_gs, br.shunt_susceptance_bs,
                       br.reactance_x) for br in network.branches],
                     dtype=float).reshape(-1, 7)
    first = {}  # each pair of ends: the first branch joining them
    for k, br in enumerate(network.branches):
        first.setdefault(_pair(br.from_bus, br.to_bus), k)
    # per meter: its term code, its bus or from end, its to end or -1, and
    # the branch a flow or current meter reads
    code, at, to = (np.array([(_TERM_CODES[s.kind], s.from_bus or s.bus,
                               s.to_bus or 0) for s in config.specs],
                             dtype=np.intp).reshape(-1, 3) - (0, 1, 1)).T
    flow_branch = np.array([first[_pair(s.from_bus, s.to_bus)] if s.to_bus
                            else -1 for s in config.specs], dtype=np.intp)
    # branch k's from end at 2k and its to end at 2k + 1; sorted stably by
    # bus, that is each bus's incident branches in file order
    incidence = table[:, :2].astype(np.intp).ravel() - 1
    order = np.argsort(incidence, kind="stable")
    degree = np.bincount(incidence, minlength=n)
    # a flow or current meter has one term, an injection one per branch at
    # its bus, a voltage meter none
    count = np.where(to >= 0, 1, np.where(code == _VOLTAGE, 0, degree[at]))
    row = np.repeat(np.arange(len(code)), count)
    i = at[row]
    # a term's place among its meter's terms: an injection's k-th term reads
    # its bus's k-th incidence, of branch slot // 2 and far end at slot ^ 1
    place = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    slot = order[np.cumsum(degree)[i] - degree[i] + place]
    flow = to[row] >= 0
    branch = np.where(flow, flow_branch[row], slot // 2)
    j = np.where(flow, to[row], incidence[slot ^ 1])
    voltage_rows = np.flatnonzero(code == _VOLTAGE)
    return MeterModel(
        network=network,
        config=config,
        row=row,
        code=code[row],
        i=i,
        j=j,
        columns=np.stack([angle_col[i], angle_col[j], n - 1 + i, n - 1 + j],
                         axis=1),
        g=table[branch, 2],
        b=table[branch, 3],
        gs=table[branch, 4],
        bs=table[branch, 5],
        inv_x=1.0 / table[branch, 6],
        voltage_rows=voltage_rows,
        voltage_buses=at[voltage_rows],
    )


def dc_jacobian(network: NetworkModel, admittance: AdmittanceMatrix,
                config: MeasurementConfig) -> np.ndarray:
    """Constant linear meter matrix, m x (n-1).

    A flow meter on i->j contributes +1/X at the angle of i and -1/X at the
    angle of j (reference columns dropped), so a reversed meter is the exact
    negation. An injection row is the sum of the flow rows of every branch
    leaving that bus. Resistance and shunts play no role here.

    ``admittance`` is not read; it stays because the benchmark workloads
    pass three positional arguments. The package itself uses
    ``build_meter_model(network, config).dc_matrix``.
    """
    return build_meter_model(network, config).dc_matrix


def simulate_measurements(model: MeterModel, true_state: StateVector,
                          mode: str, seed: int,
                          noise_scale: float = 1.0) -> np.ndarray:
    """h(true state) plus independent zero-mean Gaussian meter noise, for
    the meter set compiled into ``model`` (see :func:`build_meter_model`).

    Meter i (0-based) reads ``np.random.default_rng([seed, i]).normal(0.0,
    sigma_i * noise_scale)``, bit for bit, so adding or removing meters never
    perturbs the draws of the others. The draws do not go through
    ``default_rng``: every (seed, meter) stream is seeded and drawn in one
    vectorized pass. The seeding follows NEP 19, under which numpy keeps
    ``SeedSequence`` hashing and PCG64 seeding stable across versions; the
    draw is numpy's ziggurat on the stream's first output, with numpy's
    tables frozen in ``_streams``, and the draws its first test rejects are
    made by numpy's own ``normal`` (see ``_streams._meter_noise``).

    ``noise_scale`` multiplies every sigma; 0 returns h(true state)
    exactly. A ``model`` that is not a MeterModel, a scale that is not a
    non-negative finite number (a bool is not one) or a seed that is not a
    non-negative integer raises InvalidArgument, and so do readings or a
    sigma times ``noise_scale`` too large for a float; the clean readings
    and the scales are checked before any noise is drawn.
    """
    _instance(model, MeterModel, "model")
    _check_mode(model.network, mode)
    seed = _count(seed, "seed")
    noise_scale = _real(noise_scale, "noise_scale", 0.0, include_low=True)
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "dc":
            clean = model.dc_matrix @ free_vector(model.network, true_state, "dc")
        else:
            clean = model.values(free_vector(model.network, true_state, "ac"))
        scales = model.config.sigmas() * noise_scale
    _array(clean, "h(true state)", finite=True)
    scales = _array(scales, "sigma * noise_scale", finite=True)
    with np.errstate(over="ignore"):  # a draw times its sigma may overflow
        return _array(clean + _meter_noise([seed], scales)[0],
                      "simulated readings", finite=True)

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
:func:`build_meter_model` makes from a (network, meter set) pair in
O(m + branches). It holds one term per flow or current meter (the first
branch joining its ends, in file order) and one per branch incident to an
injection meter's bus (in file order), each with its meter row, its two
ends and the branch parameters; voltage meters are a separate row/bus
list. The dc matrix H and the ac h(x) and J(x) are numpy expressions over
these arrays, summed into rows with ``np.bincount`` in term order, so each
row adds its terms in the same order as a meter-by-meter loop would.

``dc_jacobian``, ``h_eval_ac``, ``ac_jacobian`` and
``simulate_measurements`` build a model per call. The entry points that
evaluate many times build one and reuse it: ``estimate_ac`` for every
Gauss-Newton iterate, ``run_scenario`` for readings, attack and detection,
and ``run_monte_carlo`` computes H and H x once for all its trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

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
    FLOW_KINDS,
    AdmittanceMatrix,
    MeasurementConfig,
    NetworkModel,
    _check_measurement_references,
)

DC_KINDS = ("flow_p", "injection_p")
# What a meter term contributes to its row.
_P, _Q, _CURRENT = 0, 1, 2
_TERM_CODES = {"flow_p": _P, "injection_p": _P, "flow_q": _Q,
               "injection_q": _Q, "current_magnitude": _CURRENT}


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
    _check_mode(mode)
    n = network.n_buses
    return n - 1 if mode == "dc" else 2 * n - 1


def _check_mode(mode: str):
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
    _check_mode(mode)
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
    _check_mode(mode)
    angles = {b.id: 0.0 for b in network.buses}
    if mode == "dc":
        return StateVector(angles=angles)
    return StateVector(angles=angles,
                       magnitudes={b.id: 1.0 for b in network.buses})


@dataclass(frozen=True, eq=False)
class MeterModel:
    """One meter set compiled against one network, as flat per-term arrays.

    Build it with :func:`build_meter_model`. Term t is one branch read by
    meter ``row[t]`` from bus ``i[t]`` towards bus ``j[t]`` (0-based bus
    indices); ``code[t]`` says whether it yields P, Q or the current
    magnitude, and ``g``/``b``/``gs``/``bs``/``inv_x`` hold that branch's
    series admittance, shunt and 1/X. ``columns[t]`` holds the state columns
    of (angle i, angle j, magnitude i, magnitude j), with -1 for the
    reference angle.
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
        """h(x) at an ac free vector x (see :func:`free_vector`)."""
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

        m, n = len(self.config), self.network.n_buses
        k = 2 * n - 1
        keep = self.columns >= 0
        index = (self.row[:, None] * k + self.columns)[keep]
        jac = _sum_at(index, grad[keep], m * k).reshape(m, k)
        jac[self.voltage_rows, n - 1 + self.voltage_buses] = 1.0
        return jac

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
    """Compile a meter set against a network in O(m + branches).

    A flow or current meter reads the first branch joining its ends, in file
    order, from its ``from`` end; an injection reads every branch at its bus
    in file order. A meter on an unknown bus, or a flow meter whose ends no
    branch joins, raises DanglingReference.
    """
    _check_measurement_references(network, config)
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
        if spec.kind in FLOW_KINDS:
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


def h_eval_ac(network: NetworkModel, state: StateVector,
              config: MeasurementConfig) -> np.ndarray:
    """Evaluate every meter function at an ac state.

    Flows follow the pi-model equations (see ``MeterModel._branch_flows``),
    an injection is the sum of the flows leaving its bus, current magnitude
    is sqrt(P^2 + Q^2) / v_i, and a voltage meter reads v_i directly.
    """
    x = free_vector(network, state, "ac")
    return build_meter_model(network, config).values(x)


def ac_jacobian(network: NetworkModel, state: StateVector,
                config: MeasurementConfig) -> np.ndarray:
    """Analytic dh/dx at the given state, m x (2n-1)."""
    x = free_vector(network, state, "ac")
    return build_meter_model(network, config).jacobian(x)


def simulate_measurements(network: NetworkModel, true_state: StateVector,
                          config: MeasurementConfig, mode: str, seed: int,
                          noise_scale: float = 1.0) -> np.ndarray:
    """h(true state) plus independent zero-mean Gaussian meter noise.

    Meter i (0-based) reads ``np.random.default_rng([seed, i]).normal(0.0,
    sigma_i * noise_scale)``, bit for bit, so adding or removing meters never
    perturbs the draws of the others. The draws do not go through
    ``default_rng``: the (seed, meter) streams are seeded in one vectorized
    pass that follows NEP 19, under which numpy keeps ``SeedSequence``
    hashing and PCG64 seeding stable across versions, and then read through
    numpy's own ``normal``. ``noise_scale`` multiplies every sigma; 0 returns
    h(true state) exactly, and a scale that is not a non-negative finite
    number (a bool is not one) raises InvalidArgument, as does a seed that is
    not a non-negative integer.
    """
    _check_mode(mode)
    return _simulate(build_meter_model(network, config), true_state, mode,
                     seed, noise_scale)


def _simulate(model: MeterModel, true_state: StateVector, mode: str,
              seed: int, noise_scale: float) -> np.ndarray:
    """simulate_measurements against a model already built."""
    seed = _count(seed, "seed")
    noise_scale = _real(noise_scale, "noise_scale", 0.0, include_low=True)
    if mode == "dc":
        clean = model.dc_matrix @ free_vector(model.network, true_state, "dc")
    else:
        clean = model.values(free_vector(model.network, true_state, "ac"))
    scales = model.config.sigmas() * noise_scale
    return clean + _meter_noise([seed], scales)[0]


# SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants, fixed
# by NEP 19: numpy/random/bit_generator.pyx and the pcg64 sources.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a read-only uint32 array."""
    out = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                    for k in range(count + 1)], dtype=np.uint32)
    out.setflags(write=False)
    return out


# SeedSequence calls its entropy hash 4 + 12 times and its output hash
# 8 times (4 uint64 words); call k xors constant k and multiplies by k + 1.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS ** 2)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> _XSHIFT)


def _words(values: list[int], count: int) -> np.ndarray:
    """The low ``count`` 32-bit words of each value, least significant first."""
    return np.array([[(v >> (32 * w)) & 0xFFFFFFFF for w in range(count)]
                     for v in values], dtype=np.uint32).reshape(len(values), count)


def _word_count(value: int) -> int:
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return max(1, -(-value.bit_length() // 32))


def _pcg64_states(entropy: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64 (state, inc) of ``default_rng(entropy words)`` for each row of
    a zero-padded (P, 4) uint32 entropy array.

    The pool mixing and ``generate_state(4, uint64)`` of SeedSequence, then
    the two ``pcg_setseq_128_srandom_r`` steps. With at most 4 entropy words
    the zero padding is exactly what the pool mixing hashes in their place.
    """
    a, b = _HASH_A, _HASH_B
    pool = _xorshift((entropy ^ a[:_POOL_WORDS]) * a[1:_POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        # each other word takes in this one, hashed with its own constant
        dst = [d for d in range(_POOL_WORDS) if d != src]
        hashed = _xorshift((pool[:, src, None] ^ a[k:k + 3]) * a[k + 1:k + 4])
        pool[:, dst] = _xorshift(pool[:, dst] * _MIX_MULT_L - hashed * _MIX_MULT_R)
        k += 3
    out = _xorshift((np.tile(pool, 2) ^ b[:-1]) * b[1:])
    # as generate_state does: little-endian uint32 pairs to uint64
    seed_words = out.astype("<u4").view("<u8").astype(np.uint64).tolist()
    states, incs = [], []
    for s_hi, s_lo, i_hi, i_lo in seed_words:
        inc = (((i_hi << 64 | i_lo) << 1) | 1) & _MASK128
        states.append(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


def _meter_noise(seeds, scales: np.ndarray) -> np.ndarray:
    """out[r, c] = default_rng([seeds[r], c]).normal(0.0, scales[c]).

    Bit-identical to that expression for non-negative integer seeds.
    SeedSequence turns the pair into 32-bit words: the seed's (one below
    2**32, two below 2**64, ...), then the meter index's one. Seeds below
    2**96 leave room in its 4-word pool, so their pairs are seeded in one
    vectorized pass and read through one PCG64 generator; larger seeds go
    through default_rng itself.
    """
    seeds, scales = [int(s) for s in seeds], scales.tolist()
    counts = np.array([_word_count(s) for s in seeds], dtype=np.intp)
    fits = counts < _POOL_WORDS
    entropy = np.repeat(_words(seeds, _POOL_WORDS)[:, None], len(scales), axis=1)
    entropy[fits, :, counts[fits]] = np.arange(len(scales), dtype=np.uint32)
    states, incs = _pcg64_states(entropy.reshape(-1, _POOL_WORDS))

    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    stream = {"state": 0, "inc": 0}
    pcg_state = {"bit_generator": "PCG64", "state": stream,
                 "has_uint32": 0, "uinteger": 0}
    noise = []
    for state, inc, scale in zip(states, incs, scales * len(seeds)):
        stream["state"], stream["inc"] = state, inc
        bit_generator.state = pcg_state
        noise.append(generator.normal(0.0, scale))
    noise = np.array(noise, dtype=float).reshape(len(seeds), len(scales))
    for r in np.flatnonzero(~fits):
        noise[r] = [np.random.default_rng([seeds[r], c]).normal(0.0, scale)
                    for c, scale in enumerate(scales)]
    return noise

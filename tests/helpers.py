"""Shared builders for the test suite: the bundled three-bus case and random
connected instances with observable meter sets."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gridse import (
    Branch,
    Bus,
    MeasurementConfig,
    MeasurementSpec,
    NetworkModel,
    UnobservableNetwork,
    build_meter_model,
    factor_gain,
    parse_case,
)

CASES_DIR = Path(__file__).parents[1] / "cases"
THREE_BUS = CASES_DIR / "three_bus.json"

SCENARIO_FILES = (
    CASES_DIR / "base_case.json",
    CASES_DIR / "gross_errors.json",
    CASES_DIR / "stealth_small.json",
    CASES_DIR / "stealth_large.json",
    CASES_DIR / "constrained_small.json",
)


def load_three_bus():
    """The bundled case, its compiled meter model and its dc matrix H."""
    parsed = parse_case(THREE_BUS.read_text())
    model = build_meter_model(parsed.network, parsed.config)
    return parsed, model, model.dc_matrix


def estimator_accepts(h: np.ndarray) -> bool:
    """Whether the estimator's gain guard accepts h with unit weights."""
    try:
        factor_gain(h, np.ones(h.shape[0]))
    except UnobservableNetwork:
        return False
    return True


def random_network(rng: np.random.Generator, n: int, lossy: bool = False,
                   shunts: bool = False, parallel: int = 0) -> NetworkModel:
    """Connected network on n buses: a random spanning tree plus extras.

    ``parallel`` more branches each run beside an earlier one, in the
    opposite orientation and with their own parameters; with shunts they
    also carry a shunt conductance.
    """
    ref = int(rng.integers(1, n + 1))
    buses = tuple(Bus(id=i, is_reference=(i == ref)) for i in range(1, n + 1))
    edges = set()
    branches = []

    def add_branch(i, j, gs=0.0):
        edges.add(frozenset((i, j)))
        branches.append(Branch(
            from_bus=i,
            to_bus=j,
            resistance_r=float(rng.uniform(0.01, 0.08)) if lossy else 0.0,
            reactance_x=float(rng.uniform(0.1, 0.5)),
            shunt_conductance_gs=gs,
            shunt_susceptance_bs=float(rng.uniform(0.0, 0.04)) if shunts else 0.0,
        ))

    for i in range(2, n + 1):
        add_branch(int(rng.integers(1, i)), i)
    for _ in range(n // 2):
        i, j = rng.choice(n, size=2, replace=False) + 1
        if frozenset((int(i), int(j))) not in edges:
            add_branch(int(i), int(j))
    for _ in range(parallel):
        twin = branches[int(rng.integers(len(branches)))]
        add_branch(twin.to_bus, twin.from_bus,
                   gs=float(rng.uniform(0.0, 0.004)) if shunts else 0.0)
    return NetworkModel(buses=buses, branches=tuple(branches))


def dc_meter_candidates(network: NetworkModel, sigma: float = 0.01):
    """Every linear-model meter: both flow orientations plus all injections."""
    specs = []
    for br in network.branches:
        specs.append(MeasurementSpec(kind="flow_p", from_bus=br.from_bus,
                                     to_bus=br.to_bus, sigma=sigma))
        specs.append(MeasurementSpec(kind="flow_p", from_bus=br.to_bus,
                                     to_bus=br.from_bus, sigma=sigma))
    for bus in network.buses:
        specs.append(MeasurementSpec(kind="injection_p", bus=bus.id, sigma=sigma))
    return specs


def random_observable_config(rng: np.random.Generator, network: NetworkModel,
                             min_redundancy: int = 1,
                             exact_redundancy: int | None = None,
                             ) -> MeasurementConfig:
    """Random meter subset with full angle rank and at least the requested
    redundancy (or exactly ``exact_redundancy``); resamples until observable."""
    candidates = dc_meter_candidates(network)
    state_dim = network.n_buses - 1
    while True:
        if exact_redundancy is not None:
            m = state_dim + exact_redundancy
        else:
            m = state_dim + min_redundancy + int(rng.integers(0, 3))
        m = min(m, len(candidates))
        picks = rng.choice(len(candidates), size=m, replace=False)
        config = MeasurementConfig(specs=tuple(candidates[i] for i in picks))
        h = build_meter_model(network, config).dc_matrix
        if np.linalg.matrix_rank(h) == state_dim:
            return config


def full_ac_config(network: NetworkModel, sigma: float = 0.01,
                   currents: bool = False) -> MeasurementConfig:
    """Flows (p and q, both ends), injections (p and q), and voltages; with
    ``currents``, then a current meter at both ends of every branch."""
    specs = []
    for br in network.branches:
        for i, j in ((br.from_bus, br.to_bus), (br.to_bus, br.from_bus)):
            specs.append(MeasurementSpec(kind="flow_p", from_bus=i, to_bus=j, sigma=sigma))
            specs.append(MeasurementSpec(kind="flow_q", from_bus=i, to_bus=j, sigma=sigma))
    for bus in network.buses:
        specs.append(MeasurementSpec(kind="injection_p", bus=bus.id, sigma=sigma))
        specs.append(MeasurementSpec(kind="injection_q", bus=bus.id, sigma=sigma))
        specs.append(MeasurementSpec(kind="voltage_magnitude", bus=bus.id, sigma=sigma))
    if currents:
        for br in network.branches:
            for i, j in ((br.from_bus, br.to_bus), (br.to_bus, br.from_bus)):
                specs.append(MeasurementSpec(kind="current_magnitude", from_bus=i,
                                             to_bus=j, sigma=sigma))
    return MeasurementConfig(specs=tuple(specs))


def random_ac_state(rng: np.random.Generator, network: NetworkModel,
                    angle_span: float = 0.1, mag_span: float = 0.05):
    from gridse import StateVector

    angles = {b.id: float(rng.uniform(-angle_span, angle_span))
              for b in network.buses}
    angles[network.reference_bus] = 0.0
    mags = {b.id: float(rng.uniform(1.0 - mag_span, 1.0 + mag_span))
            for b in network.buses}
    return StateVector(angles=angles, magnitudes=mags)


# PCG64 outputs the XSL-RR of its state after a step. A post-step state
# with high word 0 and low word w outputs w, and with increment 1 the state
# before it is (w - 1) / MULT mod 2**128, so any chosen word can be drawn.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
PCG_MULT_INVERSE = pow(PCG_MULT, -1, 1 << 128)


def state_before(word):
    """The PCG64.state whose next output is ``word``."""
    return {"bit_generator": "PCG64",
            "state": {"state": (word - 1) * PCG_MULT_INVERSE % (1 << 128),
                      "inc": 1},
            "has_uint32": 0, "uinteger": 0}


def ziggurat_word(layer, rabs, sign=0):
    """The output word numpy's ziggurat reads as this layer, sign and rabs."""
    return layer | sign << 8 | rabs << 9

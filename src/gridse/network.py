"""Network model: buses, branches, meters, case files, and admittance structure.

Everything is per-unit and angles are radians. Bus ids are dense 1-based
integers; exactly one bus is the angle reference and its angle is pinned to
0 rad. Models are frozen after construction and safe to share across threads.

Case file format (UTF-8 JSON object with exactly these top-level keys):

    {
      "buses":        [{"id": 1, "ref": false, "v": 1.0}, ...],
      "branches":     [{"from": 1, "to": 2, "r": 0.0, "x": 0.2,
                        "gs": 0.0, "bs": 0.0}, ...],
      "measurements": [{"kind": "flow_p", "from": 1, "to": 2,
                        "sigma": 0.01, "value": 0.62}, ...]
    }

Meter kinds are ``flow_p``, ``flow_q``, ``injection_p``, ``injection_q``,
``current_magnitude``, ``voltage_magnitude``. Flow and current meters locate
by the ordered pair ``from``/``to`` (an existing branch, either orientation);
injection and voltage meters locate by ``bus``. ``value`` is optional but must
be present on all meters or on none; ``r``/``gs``/``bs`` default to 0,
``ref`` to false and ``v`` to 1.0. Unknown keys anywhere are rejected, and
so are non-finite numbers (NaN, Infinity, or a literal too large for a
float) and bus ids or ends that are not non-negative integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingReference,
    DisconnectedNetwork,
    MalformedDocument,
    MultipleReferenceBuses,
    NoReferenceBus,
    ZeroReactance,
    _array,
    _check_keys,
    _count,
    _real,
    _reject_constant,
)

FLOW_KINDS = ("flow_p", "flow_q", "current_magnitude")
BUS_KINDS = ("injection_p", "injection_q", "voltage_magnitude")
MEASUREMENT_KINDS = FLOW_KINDS + BUS_KINDS


@dataclass(frozen=True)
class Bus:
    """A network node.

    ``voltage_magnitude`` is the case file's ``v``. It is parsed, checked
    and written back by ``serialize_case``, but no model reads it: the
    linear model takes every voltage as 1 pu and the nonlinear model treats
    voltages as states.
    """

    id: int
    is_reference: bool = False
    voltage_magnitude: float = 1.0

    def __post_init__(self):
        if self.id < 1:
            raise MalformedDocument(f"bus id must be a positive integer, got {self.id}")
        if self.voltage_magnitude <= 0:
            raise MalformedDocument(f"bus {self.id}: voltage magnitude must be > 0")


@dataclass(frozen=True)
class Branch:
    """A series r + jX element with optional per-end shunt gs + j*bs."""

    from_bus: int
    to_bus: int
    resistance_r: float = 0.0
    reactance_x: float = 0.0
    shunt_conductance_gs: float = 0.0
    shunt_susceptance_bs: float = 0.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise MalformedDocument(
                f"branch endpoints must differ, got {self.from_bus}-{self.to_bus}"
            )
        if self.reactance_x == 0.0:
            raise ZeroReactance(
                f"branch {self.from_bus}-{self.to_bus} has zero reactance"
            )

    @property
    def series_admittance(self) -> tuple[float, float]:
        """(g, b) of 1 / (r + jX); with r = 0 this is (0, -1/X)."""
        y = 1.0 / complex(self.resistance_r, self.reactance_x)
        return (y.real, y.imag)


@dataclass(frozen=True)
class MeasurementSpec:
    """One meter: what it measures, where, and its noise level.

    Flow-style kinds set ``from_bus``/``to_bus`` (ordered: the measured
    direction); bus-style kinds set ``bus``.
    """

    kind: str
    sigma: float
    bus: int | None = None
    from_bus: int | None = None
    to_bus: int | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in MEASUREMENT_KINDS:
            raise MalformedDocument(f"unknown measurement kind {self.kind!r}")
        if self.sigma <= 0:
            raise MalformedDocument(f"{self.kind} meter: sigma must be > 0")
        if self.kind in FLOW_KINDS:
            if self.from_bus is None or self.to_bus is None or self.bus is not None:
                raise MalformedDocument(
                    f"{self.kind} meter locates by 'from' and 'to'"
                )
        else:
            if self.bus is None or self.from_bus is not None or self.to_bus is not None:
                raise MalformedDocument(f"{self.kind} meter locates by 'bus'")


@dataclass(frozen=True)
class MeasurementConfig:
    """Ordered meter list; file order defines the index of every meter-aligned
    vector downstream (readings, residuals, attack vectors)."""

    specs: tuple[MeasurementSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def sigmas(self) -> np.ndarray:
        return np.array([s.sigma for s in self.specs], dtype=float)


@dataclass(frozen=True)
class NetworkModel:
    """The physical grid: buses plus branches, validated on construction.

    Construction enforces dense 1..n bus ids, exactly one reference bus,
    branch endpoints that exist, and a connected branch graph. It also
    indexes the branches once, so branch and reference lookups take O(1).
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    _reference: int = field(init=False, repr=False, compare=False)
    _non_reference: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pair_branch: dict = field(init=False, repr=False, compare=False)
    _incident: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        ids = sorted(b.id for b in self.buses)
        if ids != list(range(1, len(ids) + 1)):
            raise MalformedDocument(f"bus ids must be dense 1..n, got {ids}")
        refs = [b.id for b in self.buses if b.is_reference]
        if not refs:
            raise NoReferenceBus("no bus is flagged as reference")
        if len(refs) > 1:
            raise MultipleReferenceBuses(f"reference flagged on buses {refs}")
        pair_branch: dict[tuple[int, int], Branch] = {}
        incident: dict[int, list[tuple[Branch, int]]] = {i: [] for i in ids}
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if not 1 <= end <= len(ids):
                    raise DanglingReference(
                        f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}"
                    )
            pair_branch.setdefault(_pair(br.from_bus, br.to_bus), br)
            incident[br.from_bus].append((br, br.to_bus))
            incident[br.to_bus].append((br, br.from_bus))
        object.__setattr__(self, "_reference", refs[0])
        object.__setattr__(self, "_non_reference",
                           tuple(i for i in ids if i != refs[0]))
        object.__setattr__(self, "_pair_branch", pair_branch)
        object.__setattr__(self, "_incident",
                           {i: tuple(at) for i, at in incident.items()})
        self._check_connected()

    def _check_connected(self):
        n = len(self.buses)
        if n <= 1:
            return
        seen = {1}
        stack = [1]
        while stack:
            for _, j in self._incident[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise DisconnectedNetwork(f"buses {missing} unreachable from bus 1")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def reference_bus(self) -> int:
        return self._reference

    def non_reference_ids(self) -> tuple[int, ...]:
        """Non-reference bus ids, ascending: the angle state ordering."""
        return self._non_reference

    def branch_between(self, i: int, j: int) -> Branch | None:
        """First branch joining i and j in either orientation, else None."""
        return self._pair_branch.get(_pair(i, j))

    def branches_at(self, bus_id: int) -> list[tuple[Branch, int]]:
        """Branches incident to a bus in file order, each with the id of the
        far end."""
        return list(self._incident.get(bus_id, ()))


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Bus conductance/susceptance tables.

    ``g`` is the real part of the standard bus-admittance assembly. ``b``
    carries the susceptance with the sign convention of the linear power-flow
    B matrix (negated imaginary part of the assembly): diagonals are positive
    for inductive networks and, for a lossless branch, the off-diagonal entry
    equals the series value -1/X. Arrays are indexed by bus id - 1.
    """

    g: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class ObservabilityReport:
    rank: int
    observable: bool


@dataclass(frozen=True)
class ParsedCase:
    """Everything a case file carries. ``values`` is the meter reading vector
    in file order, or None when the file gives meter specs only."""

    network: NetworkModel
    config: MeasurementConfig
    values: np.ndarray | None = None


_TOP_KEYS = ("buses", "branches", "measurements")
_BUS_KEYS = {"id", "ref", "v"}
_BRANCH_KEYS = {"from", "to", "r", "x", "gs", "bs"}
_MEAS_KEYS = {"kind", "from", "to", "bus", "sigma", "value"}


# The number fields of case records: bus ids and ends are integers, the
# rest finite reals.
_CASE_NUMBERS = {"id": _count, "from": _count, "to": _count, "bus": _count,
                 "v": _real, "r": _real, "x": _real, "gs": _real, "bs": _real,
                 "sigma": _real, "value": _real}


def _case_record(record, allowed: set[str], required: set[str], ctx: str) -> dict:
    """A parsed case record with its keys checked and its number fields
    converted in place."""
    _check_keys(record, allowed, required, ctx)
    try:
        for key, value in record.items():
            if key in _CASE_NUMBERS:
                record[key] = _CASE_NUMBERS[key](value, key, error=MalformedDocument)
    except MalformedDocument as exc:
        # the record's context is added only here, off the hot path
        raise MalformedDocument(f"{ctx}: field {exc}") from None
    return record


def parse_case(text: str) -> ParsedCase:
    """Parse and validate a case document.

    Raises MalformedDocument for syntax and schema problems and the specific
    DanglingReference / NoReferenceBus / MultipleReferenceBuses /
    DisconnectedNetwork / ZeroReactance errors for semantic ones.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # also an integer literal too long to convert
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    _check_keys(doc, set(_TOP_KEYS), set(_TOP_KEYS), "case document")
    for key in _TOP_KEYS:
        if not isinstance(doc[key], list):
            raise MalformedDocument(f"case document: {key!r} must be an array")

    buses = []
    for idx, record in enumerate(doc["buses"]):
        ctx = f"buses[{idx}]"
        record = _case_record(record, _BUS_KEYS, {"id"}, ctx)
        ref = record.get("ref", False)
        if not isinstance(ref, bool):
            raise MalformedDocument(f"{ctx}: field 'ref' must be a boolean")
        buses.append(Bus(id=record["id"], is_reference=ref,
                         voltage_magnitude=record.get("v", 1.0)))

    branches = []
    for idx, record in enumerate(doc["branches"]):
        ctx = f"branches[{idx}]"
        record = _case_record(record, _BRANCH_KEYS, {"from", "to", "x"}, ctx)
        branches.append(Branch(
            from_bus=record["from"],
            to_bus=record["to"],
            resistance_r=record.get("r", 0.0),
            reactance_x=record["x"],
            shunt_conductance_gs=record.get("gs", 0.0),
            shunt_susceptance_bs=record.get("bs", 0.0),
        ))

    network = NetworkModel(buses=tuple(buses), branches=tuple(branches))

    specs = []
    values = []
    for idx, record in enumerate(doc["measurements"]):
        ctx = f"measurements[{idx}]"
        record = _case_record(record, _MEAS_KEYS, {"kind", "sigma"}, ctx)
        kind = record["kind"]
        if not isinstance(kind, str) or kind not in MEASUREMENT_KINDS:
            raise MalformedDocument(f"{ctx}: unknown measurement kind {kind!r}")
        spec = MeasurementSpec(
            kind=kind,
            sigma=record["sigma"],
            bus=record.get("bus"),
            from_bus=record.get("from"),
            to_bus=record.get("to"),
            value=record.get("value"),
        )
        specs.append(spec)
        values.append(spec.value)

    config = MeasurementConfig(specs=tuple(specs))
    _check_measurement_references(network, config)

    have = [v is not None for v in values]
    if any(have) and not all(have):
        raise MalformedDocument(
            "measurement values must be present on every meter or on none"
        )
    z = np.array(values, dtype=float) if values and all(have) else None
    return ParsedCase(network=network, config=config, values=z)


def _check_measurement_references(network: NetworkModel, config: MeasurementConfig):
    for i, spec in enumerate(config.specs):
        if spec.kind in FLOW_KINDS:
            for end in (spec.from_bus, spec.to_bus):
                if not 1 <= end <= network.n_buses:
                    raise DanglingReference(
                        f"measurements[{i}]: unknown bus {end}"
                    )
            if network.branch_between(spec.from_bus, spec.to_bus) is None:
                raise DanglingReference(
                    f"measurements[{i}]: no branch joins "
                    f"{spec.from_bus} and {spec.to_bus}"
                )
        else:
            if not 1 <= spec.bus <= network.n_buses:
                raise DanglingReference(f"measurements[{i}]: unknown bus {spec.bus}")


def serialize_case(network: NetworkModel, config: MeasurementConfig,
                   values: np.ndarray | None = None) -> str:
    """Render a model back to the case-file format (see module docstring).

    parse_case(serialize_case(...)) reproduces the inputs exactly. Values
    that are not one finite number per meter raise MalformedDocument (wrong
    length) or InvalidArgument.
    """
    if values is not None:
        values = _array(values, "values", (len(config.specs),), finite=True,
                        error=MalformedDocument)
    buses = [
        {"id": b.id, "ref": b.is_reference, "v": b.voltage_magnitude}
        for b in network.buses
    ]
    branches = [
        {"from": br.from_bus, "to": br.to_bus, "r": br.resistance_r,
         "x": br.reactance_x, "gs": br.shunt_conductance_gs,
         "bs": br.shunt_susceptance_bs}
        for br in network.branches
    ]
    measurements = []
    for i, spec in enumerate(config.specs):
        record: dict = {"kind": spec.kind}
        if spec.kind in FLOW_KINDS:
            record["from"] = spec.from_bus
            record["to"] = spec.to_bus
        else:
            record["bus"] = spec.bus
        record["sigma"] = spec.sigma
        if values is not None:
            record["value"] = float(values[i])
        elif spec.value is not None:
            record["value"] = spec.value
        measurements.append(record)
    doc = {"buses": buses, "branches": branches, "measurements": measurements}
    return json.dumps(doc, indent=2)


def build_admittance(network: NetworkModel) -> AdmittanceMatrix:
    """Assemble the bus conductance/susceptance tables.

    Per branch i-j with series admittance y = 1/(r + jX) and per-end shunt
    gs + j*bs: the off-diagonal assembly entry is -y and each diagonal picks
    up y plus the end's shunt. ``g`` is the real part; ``b`` is the negated
    imaginary part (see AdmittanceMatrix for the sign convention).
    """
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


def check_observability(network: NetworkModel,
                        config: MeasurementConfig) -> ObservabilityReport:
    """Numerical rank of the linear meter-to-angle matrix H.

    The rank is the estimator's (see :mod:`estimation`): observable means it
    equals the angle state count n - 1 and is positive, i.e. exactly when
    ``factor_gain(H, ones)`` accepts H.
    """
    from .estimation import _pivoted_gain
    from .measurement import build_meter_model

    rank = _pivoted_gain(build_meter_model(network, config).dc_matrix)[0]
    return ObservabilityReport(rank=rank,
                               observable=0 < rank == network.n_buses - 1)

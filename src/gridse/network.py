"""Network model: buses, branches, meters, case files, and admittance structure.

Everything is per-unit and angles are radians. Bus ids are dense 1-based
integers; exactly one bus is the angle reference and its angle is pinned to
0 rad. Models are frozen after construction and safe to share across threads.

A case file is a UTF-8 JSON object with exactly the arrays ``buses``,
``branches`` and ``measurements`` (README shows one). Each record class,
:class:`Bus`, :class:`Branch` and :class:`MeasurementSpec`, is the one
declaration of its record's format: ``_FILE_KEYS`` maps file keys to fields
in file order, ``_REQUIRED`` names the keys a record must carry, and an
omitted key takes the field's default. Its ``__post_init__`` is the one rule
for a record's validity, in code and in files alike: the parser fills each
record's fields straight from the file, without the generated ``__init__``,
and runs that check once per record. Flow and current meters locate by an
ordered ``from``/``to`` pair that a branch joins, the other kinds by ``bus``;
``value`` is on all meters or on none. Unknown keys, non-finite numbers and
bus ids or ends that are not non-negative integers are rejected.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

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
    _decode_json,
    _instance,
    _instances,
    _read_text,
    _real,
)

FLOW_KINDS = ("flow_p", "flow_q", "current_magnitude")
BUS_KINDS = ("injection_p", "injection_q", "voltage_magnitude")
MEASUREMENT_KINDS = FLOW_KINDS + BUS_KINDS


def _store(record, counts: tuple[str, ...], reals: tuple[str, ...],
           optional: tuple[str, ...] = ()):
    """Check the named integer and real fields of a frozen record (None
    passes only in an ``optional`` field) and store the number each check
    returns; a failure is MalformedDocument."""
    values = record.__dict__
    try:
        for names, check in ((counts, _count), (reals, _real)):
            for name in names:
                value = values[name]
                if value is not None or name not in optional:
                    values[name] = check(value, name, error=MalformedDocument)
    except MalformedDocument as exc:
        raise MalformedDocument(f"field {exc}") from None


@dataclass(frozen=True)
class Bus:
    """A network node.

    ``voltage_magnitude`` is parsed, checked and written back by
    ``serialize_case``, but no model reads it: the linear model takes every
    voltage as 1 pu and the nonlinear model treats voltages as states. Like
    the other model records, a bus checks its own fields, raising MalformedDocument.
    """

    id: int
    is_reference: bool = False
    voltage_magnitude: float = 1.0

    _FILE_KEYS = {"id": "id", "ref": "is_reference", "v": "voltage_magnitude"}
    _REQUIRED = frozenset({"id"})

    def __post_init__(self):
        _store(self, ("id",), ("voltage_magnitude",))
        if not isinstance(self.is_reference, bool):
            raise MalformedDocument("field is_reference must be a boolean")
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

    _FILE_KEYS = {"from": "from_bus", "to": "to_bus", "r": "resistance_r",
                  "x": "reactance_x", "gs": "shunt_conductance_gs",
                  "bs": "shunt_susceptance_bs"}
    _REQUIRED = frozenset({"from", "to", "x"})

    def __post_init__(self):
        _store(self, ("from_bus", "to_bus"),
               ("resistance_r", "reactance_x", "shunt_conductance_gs",
                "shunt_susceptance_bs"))
        if self.from_bus == self.to_bus:
            raise MalformedDocument(
                f"branch endpoints must differ, got {self.from_bus}-{self.to_bus}"
            )
        if self.reactance_x == 0.0:
            raise ZeroReactance(
                f"branch {self.from_bus}-{self.to_bus} has zero reactance"
            )
        if not (math.isfinite(1.0 / self.reactance_x) and cmath.isfinite(
                1.0 / complex(self.resistance_r, self.reactance_x))):
            raise ZeroReactance(
                f"branch {self.from_bus}-{self.to_bus}: reactance "
                f"{self.reactance_x!r} is too small for 1/X and the series "
                f"admittance to be finite")

    @property
    def series_admittance(self) -> tuple[float, float]:
        """(g, b) of 1 / (r + jX); with r = 0 this is (0, -1/X). Finite for
        every Branch."""
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

    _FILE_KEYS = {"kind": "kind", "from": "from_bus", "to": "to_bus",
                  "bus": "bus", "sigma": "sigma", "value": "value"}
    _REQUIRED = frozenset({"kind", "sigma"})

    def __post_init__(self):
        if self.kind not in MEASUREMENT_KINDS:
            raise MalformedDocument(f"unknown measurement kind {self.kind!r}")
        _store(self, ("bus", "from_bus", "to_bus"), ("sigma", "value"),
               optional=("bus", "from_bus", "to_bus", "value"))
        # the estimator weighs the meter by 1 / sigma**2
        square = self.sigma * self.sigma
        if self.sigma <= 0 or not 0.0 < square < math.inf \
                or 1.0 / square == math.inf:
            raise MalformedDocument(
                f"{self.kind} meter: sigma must be > 0 with a positive, "
                f"finite weight 1/sigma**2, got {self.sigma!r}")
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
        object.__setattr__(self, "specs",
                           _instances(self.specs, MeasurementSpec, "specs"))

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
        object.__setattr__(self, "buses", _instances(self.buses, Bus, "buses"))
        object.__setattr__(self, "branches",
                           _instances(self.branches, Branch, "branches"))
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
class ParsedCase:
    """Everything a case file carries. ``values`` is the meter reading vector
    in file order, or None when the file gives meter specs only."""

    network: NetworkModel
    config: MeasurementConfig
    values: np.ndarray | None = None


_TOP_KEYS = ("buses", "branches", "measurements")


def _records(doc: dict, key: str, cls) -> list:
    """A cls for each record of doc[key], its keys checked and mapped by
    cls._FILE_KEYS; a MalformedDocument raised gains the record's context.

    Each record is made as cls's generated ``__init__`` would make it, field
    by field in declaration order with omitted keys at their defaults, and
    then checked by its own ``__post_init__``, once."""
    table, required = cls._FILE_KEYS, cls._REQUIRED
    allowed = frozenset(table)
    # a field without a default is a required key, so its None is always
    # replaced (MISSING there would make every record's dict GC-tracked)
    template = {f.name: None if f.default is MISSING else f.default
                for f in fields(cls)}
    check, new, built = cls.__post_init__, object.__new__, []
    for idx, record in enumerate(doc[key]):
        if record.__class__ is not dict or not (
                record.keys() >= required and allowed.issuperset(record)):
            _check_keys(record, allowed, required, f"{key}[{idx}]")
        built.append(item := new(cls))
        values = item.__dict__
        values.update(template)  # a plain dict: faster than a shared-key one
        for name, value in record.items():  # a comprehension is slower here
            values[table[name]] = value
        try:
            check(item)
        except MalformedDocument as exc:
            raise MalformedDocument(f"{key}[{idx}]: {exc}") from None
    return built


def parse_case(text: str) -> ParsedCase:
    """Parse and validate a case document.

    Raises MalformedDocument for syntax and schema problems and the specific
    DanglingReference / NoReferenceBus / MultipleReferenceBuses /
    DisconnectedNetwork / ZeroReactance errors for semantic ones; text that
    is not a str raises InvalidArgument.
    """
    doc = _decode_json(text)
    _check_keys(doc, set(_TOP_KEYS), set(_TOP_KEYS), "case document")
    for key in _TOP_KEYS:
        if not isinstance(doc[key], list):
            raise MalformedDocument(f"case document: {key!r} must be an array")

    network = NetworkModel(buses=_records(doc, "buses", Bus),
                           branches=_records(doc, "branches", Branch))
    config = MeasurementConfig(specs=_records(doc, "measurements", MeasurementSpec))
    _check_measurement_references(network, config)
    values = [spec.value for spec in config.specs]
    missing = values.count(None)
    if 0 < missing < len(values):
        raise MalformedDocument(
            "measurement values must be present on every meter or on none")
    z = np.array(values, dtype=float) if values and not missing else None
    return ParsedCase(network=network, config=config, values=z)


def _read_case(path: str | Path) -> ParsedCase:
    """parse_case on the text of the case file at path (see _read_text)."""
    return parse_case(_read_text(path))


def _check_measurement_references(network: NetworkModel, config: MeasurementConfig):
    """Every meter names buses of the network, and flow meters a branch; a
    network or config of the wrong class raises InvalidArgument."""
    _instance(network, NetworkModel, "network")
    _instance(config, MeasurementConfig, "config")
    for i, spec in enumerate(config.specs):
        flow = spec.kind in FLOW_KINDS
        for end in (spec.from_bus, spec.to_bus) if flow else (spec.bus,):
            if not 1 <= end <= network.n_buses:
                raise DanglingReference(f"measurements[{i}]: unknown bus {end}")
        if flow and network.branch_between(spec.from_bus, spec.to_bus) is None:
            raise DanglingReference(f"measurements[{i}]: no branch joins "
                                    f"{spec.from_bus} and {spec.to_bus}")


def _file_record(record) -> dict:
    """A record's case-file object, via its ``_FILE_KEYS``; None fields are left out."""
    return {key: value for key, name in record._FILE_KEYS.items()
            if (value := getattr(record, name)) is not None}


def serialize_case(network: NetworkModel, config: MeasurementConfig,
                   values: np.ndarray | None = None) -> str:
    """Render a model back to the case-file format, ``values`` (one finite
    number per meter), if given, as the readings; parse_case(serialize_case(
    ...)) reproduces the inputs exactly. Inputs it could not have returned
    raise InvalidArgument, DanglingReference or, for values of the wrong
    length, MalformedDocument."""
    _check_measurement_references(network, config)
    doc = {key: [_file_record(record) for record in records] for key, records
           in zip(_TOP_KEYS, (network.buses, network.branches, config.specs))}
    if values is not None:
        values = _array(values, "values", (len(config.specs),), finite=True,
                        error=MalformedDocument)
        for record, value in zip(doc["measurements"], values.tolist()):
            record["value"] = value
    return json.dumps(doc, indent=2)


def build_admittance(network: NetworkModel) -> AdmittanceMatrix:
    """Assemble the bus conductance/susceptance tables.

    Per branch i-j with series admittance y = 1/(r + jX) and per-end shunt
    gs + j*bs: the off-diagonal assembly entry is -y and each diagonal picks
    up y plus the end's shunt. ``g`` is the real part; ``b`` is the negated
    imaginary part (see AdmittanceMatrix for the sign convention). Each
    entry sums its branches' terms in file order, one ``bincount`` for the
    real parts and one for the imaginary, bit for bit the sums of a
    branch-by-branch loop.
    """
    n = network.n_buses
    table = np.array([(br.from_bus, br.to_bus, *br.series_admittance,
                       br.shunt_conductance_gs, br.shunt_susceptance_bs)
                      for br in network.branches], dtype=float).reshape(-1, 6)
    i, j = table[:, 0].astype(np.intp) - 1, table[:, 1].astype(np.intp) - 1
    # per branch in file order: its entries ii, jj, ij and ji
    key = np.stack([i * n + i, j * n + j, i * n + j, j * n + i], axis=1).ravel()

    def assemble(series, shunt):
        end = series + shunt
        return np.bincount(key, np.stack([end, end, -series, -series], axis=1)
                           .ravel(), n * n).reshape(n, n)

    b = assemble(table[:, 3], table[:, 5])
    return AdmittanceMatrix(g=assemble(table[:, 2], table[:, 4]),
                            b=np.negative(b, out=b))

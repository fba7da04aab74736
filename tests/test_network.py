"""Case parsing, admittance assembly, and observability checks."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from gridse import (
    Branch,
    Bus,
    DanglingReference,
    DetectorConfig,
    DisconnectedNetwork,
    InvalidArgument,
    MalformedDocument,
    MeasurementConfig,
    MeasurementSpec,
    MultipleReferenceBuses,
    NetworkModel,
    NoReferenceBus,
    StateVector,
    UnobservableNetwork,
    ZeroReactance,
    build_admittance,
    build_meter_model,
    check_observability,
    estimate_ac,
    estimate_dc,
    flat_state,
    free_vector,
    largest_normalized_residual,
    load_scenario,
    parse_case,
    run_detector,
    run_monte_carlo,
    serialize_case,
    simulate_measurements,
    state_dimension,
)
from gridse.errors import _count, _real
from helpers import (
    CASES_DIR,
    THREE_BUS,
    full_ac_config,
    load_three_bus,
    random_network,
)
from oracles import admittance_by_loop, row_reduction_rank


def three_bus_doc():
    return json.loads(THREE_BUS.read_text())


def test_parse_three_bus_case():
    parsed = parse_case(THREE_BUS.read_text())
    net = parsed.network
    assert net.n_buses == 3
    assert net.reference_bus == 3
    assert net.non_reference_ids() == (1, 2)
    assert [br.reactance_x for br in net.branches] == [0.2, 0.4, 0.25]
    assert len(parsed.config) == 3
    assert all(s.kind == "flow_p" and s.sigma == 0.01 for s in parsed.config.specs)
    assert parsed.values is not None
    np.testing.assert_allclose(parsed.values, [0.62, 0.06, 0.37])


def test_parse_minimal_two_bus_case():
    text = json.dumps({
        "buses": [{"id": 1}, {"id": 2, "ref": True}],
        "branches": [{"from": 1, "to": 2, "x": 0.5}],
        "measurements": [],
    })
    parsed = parse_case(text)
    assert parsed.network.n_buses == 2
    assert parsed.network.reference_bus == 2
    assert parsed.values is None


def test_parse_zero_reactance_is_an_error():
    doc = three_bus_doc()
    doc["branches"][0]["x"] = 0.0
    with pytest.raises(ZeroReactance):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("x", [-0.0, 1e-310, -1e-310, 2.0 ** -1024, 5e-324])
def test_a_reactance_whose_reciprocal_overflows_is_zero(x):
    # a reactance whose 1/X or series admittance 1/(r + jX) is not finite
    # is refused as zero is, in the case file and in code
    doc = three_bus_doc()
    doc["branches"][0]["x"] = x
    with pytest.raises(ZeroReactance):
        parse_case(json.dumps(doc))
    with pytest.raises(ZeroReactance):
        Branch(from_bus=1, to_bus=2, resistance_r=0.05, reactance_x=x)


def test_the_smallest_reactance_with_a_finite_reciprocal_is_accepted():
    x = math.nextafter(2.0 ** -1024, 1.0)
    for r in (0.0, x, 1.0, 1e308):
        branch = Branch(from_bus=1, to_bus=2, resistance_r=r, reactance_x=x)
        assert all(map(math.isfinite, branch.series_admittance))


@pytest.mark.parametrize("mutate, error", [
    (lambda d: d.update(extra=[]), MalformedDocument),
    (lambda d: d.pop("branches"), MalformedDocument),
    (lambda d: d["buses"][0].update(name="x"), MalformedDocument),
    (lambda d: d["buses"][0].update(v=-1.0), MalformedDocument),
    (lambda d: d["buses"][0].update(id=5), MalformedDocument),
    (lambda d: d["buses"][2].update(ref=False), NoReferenceBus),
    (lambda d: d["buses"][0].update(ref=True), MultipleReferenceBuses),
    (lambda d: d["branches"][0].update(to=9), DanglingReference),
    (lambda d: d["branches"][0].update(to=1), MalformedDocument),
    (lambda d: d["measurements"][0].update({"from": 7}), DanglingReference),
    (lambda d: d["measurements"][0].update(kind="flow_x"), MalformedDocument),
    (lambda d: d["measurements"][0].update(sigma=0.0), MalformedDocument),
    (lambda d: d["measurements"][0].update(bus=1), MalformedDocument),
    (lambda d: d["measurements"][0].pop("value"), MalformedDocument),
    # null is a value only for a meter's bus, ends and reading
    (lambda d: d["buses"][0].update(id=None), MalformedDocument),
    (lambda d: d["buses"][0].update(v=None), MalformedDocument),
    (lambda d: d["branches"][0].update({"from": None}), MalformedDocument),
    (lambda d: d["branches"][0].update(x=None), MalformedDocument),
    (lambda d: d["branches"][0].update(gs=None), MalformedDocument),
    (lambda d: d["measurements"][0].update(sigma=None), MalformedDocument),
    # the weight 1/sigma**2 overflows, or underflows to 0
    (lambda d: d["measurements"][0].update(sigma=1e-160), MalformedDocument),
    (lambda d: d["measurements"][0].update(sigma=1e200), MalformedDocument),
])
def test_parse_rejects_bad_documents(mutate, error):
    doc = three_bus_doc()
    mutate(doc)
    with pytest.raises(error):
        parse_case(json.dumps(doc))


NON_FINITE_LITERALS = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                       "1" + "0" * 400)


@pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
@pytest.mark.parametrize("section, index, key", [
    ("buses", 0, "v"),
    ("branches", 0, "x"),
    ("branches", 1, "r"),
    ("measurements", 0, "sigma"),
    ("measurements", 2, "value"),
])
def test_parse_rejects_non_finite_numbers(literal, section, index, key):
    doc = three_bus_doc()
    doc[section][index][key] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(MalformedDocument):
        parse_case(text)


def test_parse_not_json_is_malformed():
    with pytest.raises(MalformedDocument):
        parse_case("buses: []")
    # json itself refuses integer literals of more than 4300 digits
    with pytest.raises(MalformedDocument):
        parse_case('{"buses": [' + "1" * 5000 + "]}")
    # and nesting deeper than the interpreter's recursion limit
    with pytest.raises(MalformedDocument, match="^invalid JSON: "):
        parse_case("[" * 100_000)
    # a key names one entry of its object: a repeat is refused, not read as
    # the last value, at the top and in any record
    text = THREE_BUS.read_text()
    for old, new in (('"buses":', '"branches": [], "buses":'),
                     ('"x":', '"x": 0.5, "x":'),
                     ('"sigma":', '"sigma": 0.02, "sigma":')):
        assert old in text
        with pytest.raises(MalformedDocument, match="repeated key"):
            parse_case(text.replace(old, new, 1))


def test_flow_meter_needs_an_actual_branch():
    # buses 1 and 4 both exist on the chain, but no line joins them
    text = json.dumps({
        "buses": [{"id": 1, "ref": True}, {"id": 2}, {"id": 3}, {"id": 4}],
        "branches": [{"from": 1, "to": 2, "x": 0.2},
                     {"from": 2, "to": 3, "x": 0.2},
                     {"from": 3, "to": 4, "x": 0.2}],
        "measurements": [{"kind": "flow_p", "from": 1, "to": 4, "sigma": 0.01}],
    })
    with pytest.raises(DanglingReference):
        parse_case(text)


def test_parse_disconnected_network():
    text = json.dumps({
        "buses": [{"id": 1, "ref": True}, {"id": 2}, {"id": 3}, {"id": 4}],
        "branches": [{"from": 1, "to": 2, "x": 0.2},
                     {"from": 3, "to": 4, "x": 0.2}],
        "measurements": [],
    })
    with pytest.raises(DisconnectedNetwork):
        parse_case(text)


def test_serialize_parse_round_trip():
    parsed = parse_case(THREE_BUS.read_text())
    text = serialize_case(parsed.network, parsed.config, parsed.values)
    again = parse_case(text)
    assert again.network == parsed.network
    assert again.config == parsed.config
    np.testing.assert_array_equal(again.values, parsed.values)


@pytest.mark.parametrize("values", [
    [0.62, "x", 0.37], [0.62, [0.06], 0.37], [0.62, 10**400, 0.37],
    [0.62, np.nan, 0.37],
], ids=["text", "ragged", "huge-int", "nan"])
def test_serialize_rejects_values_that_are_not_finite_numbers(values):
    parsed = parse_case(THREE_BUS.read_text())
    with pytest.raises(InvalidArgument):
        serialize_case(parsed.network, parsed.config, values)


def test_serialize_round_trip_without_values():
    rng = np.random.default_rng(11)
    net = random_network(rng, 5, lossy=True, shunts=True)
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="injection_q", bus=2, sigma=0.02),
        MeasurementSpec(kind="current_magnitude",
                        from_bus=net.branches[0].from_bus,
                        to_bus=net.branches[0].to_bus, sigma=0.015),
    ))
    again = parse_case(serialize_case(net, config))
    assert again.network == net
    assert again.config == config
    assert again.values is None


@pytest.mark.parametrize("seed", range(8))
def test_serialize_round_trip_on_generated_grids(seed):
    # a lossy grid with parallel branches and bus voltages, every kind of
    # meter in a random order with its own sigma, readings over the whole
    # float range: without readings, with them passed in, and with them
    # carried by the meters
    rng = np.random.default_rng(seed)
    net = random_network(rng, int(rng.integers(2, 12)), lossy=True,
                         shunts=True, parallel=2)
    net = NetworkModel(buses=tuple(
        dataclasses.replace(b, voltage_magnitude=float(rng.uniform(0.9, 1.1)))
        for b in net.buses), branches=net.branches)
    specs = full_ac_config(net, currents=True).specs
    specs = [dataclasses.replace(specs[i], sigma=float(rng.uniform(1e-3, 0.1)))
             for i in rng.permutation(len(specs))]
    values = rng.normal(size=len(specs)) * 10.0 ** rng.integers(-300, 300,
                                                                len(specs))
    values[:4] = (5e-324, -1.7e308, 0.0, -0.0)

    def reading(readings):
        return MeasurementConfig(specs=tuple(
            dataclasses.replace(s, value=v) for s, v in zip(
                specs, [None] * len(specs) if readings is None
                else readings.tolist())))

    for config, passed, readings in (
            (reading(None), None, None), (reading(None), values, values),
            (reading(values), None, values), (reading(values), -values, -values)):
        text = serialize_case(net, config, passed)
        again = parse_case(text)
        assert again.network == net
        assert again.config == reading(readings)
        if readings is None:
            assert again.values is None
        else:
            np.testing.assert_array_equal(again.values, readings)
        assert serialize_case(again.network, again.config, again.values) == text


def test_admittance_three_bus_values():
    # hand-summed 1/X over incident branches: 5 + 2.5, 5 + 4, 2.5 + 4
    admittance = build_admittance(parse_case(THREE_BUS.read_text()).network)
    np.testing.assert_allclose(np.diag(admittance.b), [7.5, 9.0, 6.5])
    assert admittance.b[0, 1] == pytest.approx(-5.0)
    assert admittance.b[0, 2] == pytest.approx(-2.5)
    assert admittance.b[1, 2] == pytest.approx(-4.0)
    np.testing.assert_allclose(admittance.g, 0.0)


def test_admittance_single_branch_structure():
    net = NetworkModel(
        buses=(Bus(id=1), Bus(id=2, is_reference=True)),
        branches=(Branch(from_bus=1, to_bus=2, reactance_x=0.5),),
    )
    adm = build_admittance(net)
    np.testing.assert_allclose(np.abs(adm.b), 2.0)
    np.testing.assert_array_equal(adm.b, adm.b.T)


def test_series_admittance_complex_reciprocal():
    # 1/(0.1 + 0.2j) = (0.1 - 0.2j)/0.05, computed independently
    br = Branch(from_bus=1, to_bus=2, resistance_r=0.1, reactance_x=0.2)
    g, b = br.series_admittance
    assert g == pytest.approx(2.0, abs=1e-15)
    assert b == pytest.approx(-4.0, abs=1e-15)


def test_admittance_symmetry_and_sparsity_pattern():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(3, 9)), lossy=True, shunts=True)
        adm = build_admittance(net)
        assert np.max(np.abs(adm.b - adm.b.T)) <= 1e-12
        assert np.max(np.abs(adm.g - adm.g.T)) <= 1e-12
        for i in range(net.n_buses):
            for j in range(i + 1, net.n_buses):
                joined = net.branch_between(i + 1, j + 1) is not None
                entry = abs(adm.b[i, j]) + abs(adm.g[i, j])
                assert (entry != 0.0) == joined


def test_admittance_is_the_branch_loops_byte_for_byte():
    # every entry sums its branches' terms in file order, as the loop does,
    # parallel branches and shunts included; signed zeros count too
    rng = np.random.default_rng(50)
    for n in range(2, 121):
        net = random_network(rng, n, lossy=True, shunts=True, parallel=2)
        got, expected = build_admittance(net), admittance_by_loop(net)
        assert got.g.shape == got.b.shape == (n, n)
        assert got.g.dtype == got.b.dtype == np.float64
        assert got.g.tobytes() == expected.g.tobytes()
        assert got.b.tobytes() == expected.b.tobytes()


def test_lossless_network_has_zero_conductance():
    rng = np.random.default_rng(6)
    net = random_network(rng, 6)
    np.testing.assert_array_equal(build_admittance(net).g, 0.0)


def test_observability_three_bus_meters():
    parsed, _, h = load_three_bus()
    report = check_observability(parsed.network, parsed.config)
    assert report.rank == row_reduction_rank(h) == 2
    assert report.observable


def test_observability_single_flow_meter():
    parsed, _, _ = load_three_bus()
    config = MeasurementConfig(specs=(parsed.config.specs[1],))  # 1->3 only
    report = check_observability(parsed.network, config)
    assert report.rank == 1
    assert not report.observable


def test_observability_of_a_network_without_angle_state():
    # one reference bus and one injection meter: H is 1 x 0, which the
    # estimator rejects, so the network is not observable
    net = NetworkModel(buses=(Bus(id=1, is_reference=True),), branches=())
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="injection_p", bus=1, sigma=0.01),))
    report = check_observability(net, config)
    assert report.rank == 0
    assert not report.observable
    with pytest.raises(UnobservableNetwork):
        estimate_dc(np.zeros((1, 0)), np.zeros(1), np.ones(1))


def test_observability_empty_config():
    parsed, _, _ = load_three_bus()
    report = check_observability(parsed.network, MeasurementConfig(specs=()))
    assert report.rank == 0
    assert not report.observable


def test_observability_propagates_unsupported_kinds():
    from gridse import UnsupportedKindForDC

    parsed, _, _ = load_three_bus()
    config = MeasurementConfig(specs=(
        MeasurementSpec(kind="voltage_magnitude", bus=1, sigma=0.01),
    ))
    with pytest.raises(UnsupportedKindForDC):
        check_observability(parsed.network, config)


def test_observability_pigeonhole():
    # fewer meters than angle states can never be observable
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(3, 9)))
        state_dim = net.n_buses - 1
        branch = net.branches[0]
        specs = tuple(
            MeasurementSpec(kind="flow_p", from_bus=branch.from_bus,
                            to_bus=branch.to_bus, sigma=0.01)
            for _ in range(state_dim - 1)
        )
        report = check_observability(net, MeasurementConfig(specs=specs))
        assert not report.observable


@pytest.mark.parametrize("build, field", [
    (lambda: Bus(id="1"), "id"),
    (lambda: Bus(id=True), "id"),
    (lambda: Bus(id=1, voltage_magnitude="1.0"), "voltage_magnitude"),
    (lambda: Bus(id=1, voltage_magnitude=float("nan")), "voltage_magnitude"),
    (lambda: Bus(id=1, is_reference=1), "is_reference"),
    (lambda: Branch(from_bus=1, to_bus=2, reactance_x="0.2"), "reactance_x"),
    (lambda: Branch(from_bus=1.0, to_bus=2, reactance_x=0.2), "from_bus"),
    (lambda: Branch(from_bus=1, to_bus=2, reactance_x=0.2,
                    resistance_r=10**400), "resistance_r"),
    (lambda: Branch(from_bus=1, to_bus=2, reactance_x=0.2,
                    shunt_susceptance_bs=float("inf")), "shunt_susceptance_bs"),
    (lambda: MeasurementSpec(kind="flow_p", sigma="x", from_bus=1, to_bus=2),
     "sigma"),
    (lambda: MeasurementSpec(kind="flow_p", sigma=0.01, from_bus="1", to_bus=2),
     "from_bus"),
    (lambda: MeasurementSpec(kind="injection_p", sigma=0.01, bus=-1), "bus"),
    (lambda: MeasurementSpec(kind="injection_p", sigma=0.01, bus=1, value=[0.1]),
     "value"),
])
def test_model_records_check_their_own_numbers(build, field):
    with pytest.raises(MalformedDocument, match=f"^field {field} must be"):
        build()


def test_model_records_store_checked_numbers():
    branch = Branch(from_bus=np.int64(1), to_bus=2, reactance_x=1)
    assert type(branch.from_bus) is int and type(branch.reactance_x) is float
    spec = MeasurementSpec(kind="injection_p", sigma=1, bus=1,
                           value=np.float32(0.5))
    assert type(spec.sigma) is float and type(spec.value) is float
    assert Bus(id=1, voltage_magnitude=1).voltage_magnitude == 1.0
    # a parse error still names the record and the field
    doc = three_bus_doc()
    doc["branches"][1]["x"] = "0.2"
    with pytest.raises(MalformedDocument,
                       match=r"^branches\[1\]: field reactance_x must be"):
        parse_case(json.dumps(doc))


RECORD_CLASSES = {"buses": Bus, "branches": Branch, "measurements": MeasurementSpec}


def test_parse_runs_each_records_check_once(monkeypatch):
    # the record class's own check is the one rule, run once per record
    doc = json.loads((CASES_DIR / "lossy_four_bus.json").read_text())
    calls = {cls: [] for cls in RECORD_CLASSES.values()}
    for cls in RECORD_CLASSES.values():
        def counted(record, check=cls.__post_init__, seen=calls[cls]):
            seen.append(record)
            check(record)
        monkeypatch.setattr(cls, "__post_init__", counted)
    parsed = parse_case(json.dumps(doc))
    records = {Bus: parsed.network.buses, Branch: parsed.network.branches,
               MeasurementSpec: parsed.config.specs}
    for key, cls in RECORD_CLASSES.items():
        assert len(calls[cls]) == len(doc[key])
        assert [id(r) for r in calls[cls]] == [id(r) for r in records[cls]]


@pytest.mark.parametrize("cls", RECORD_CLASSES.values())
def test_each_field_without_a_default_is_a_required_key(cls):
    # the parser relies on it: such a field is always filled from the file
    required = {cls._FILE_KEYS[key] for key in cls._REQUIRED}
    assert {f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING} <= required


@pytest.mark.parametrize("key", RECORD_CLASSES)
def test_parse_fails_when_a_records_check_fails(monkeypatch, key):
    def refuse(record):
        raise MalformedDocument("refused by its check")

    monkeypatch.setattr(RECORD_CLASSES[key], "__post_init__", refuse)
    with pytest.raises(MalformedDocument,
                       match=rf"^{key}\[0\]: refused by its check$"):
        parse_case(THREE_BUS.read_text())


def test_parsed_records_equal_records_built_in_code():
    # int-valued numbers in real fields become floats, as in code; each
    # record holds the same field values, of the same types, in the same
    # order as the generated __init__ stores them
    text = json.dumps({
        "buses": [{"id": 1, "v": 1}, {"ref": True, "id": 2}],
        "branches": [{"x": 1, "to": 2, "from": 1, "r": 0, "bs": 0}],
        "measurements": [
            {"kind": "flow_p", "from": 2, "to": 1, "sigma": 1, "value": 2},
            {"sigma": 0.5, "bus": 1, "kind": "voltage_magnitude", "value": 0},
        ]})
    parsed = parse_case(text)
    built = (
        Bus(id=1, voltage_magnitude=1.0), Bus(id=2, is_reference=True),
        Branch(from_bus=1, to_bus=2, resistance_r=0.0, reactance_x=1.0,
               shunt_susceptance_bs=0.0),
        MeasurementSpec(kind="flow_p", sigma=1.0, from_bus=2, to_bus=1,
                        value=2.0),
        MeasurementSpec(kind="voltage_magnitude", sigma=0.5, bus=1, value=0.0),
    )
    records = parsed.network.buses + parsed.network.branches + parsed.config.specs
    assert records == built
    for record, expected in zip(records, built):
        assert list(vars(record)) == list(vars(expected))
        assert [type(v) for v in vars(record).values()] == \
            [type(v) for v in vars(expected).values()]
    np.testing.assert_array_equal(parsed.values, [2.0, 0.0])


@pytest.mark.parametrize("value", [
    0, 3, 2**64, 10**400, -1, True, 1.0, -0.0, 0.5, 1e308, 5e-324, math.inf,
    -math.inf, math.nan, np.int64(3), np.int32(-2), np.float64(0.25), "1",
], ids=repr)
def test_record_fields_are_what_the_checks_return(value):
    # a record stores what _count or _real returns for its field, of the same
    # type, and fails with that check's message: the checks are the one rule
    for name, check, make in (
            ("bus", _count, lambda v: MeasurementSpec(
                kind="injection_p", sigma=1.0, bus=v)),
            ("value", _real, lambda v: MeasurementSpec(
                kind="injection_p", sigma=1.0, bus=1, value=v))):
        try:
            expected = check(value, name, error=MalformedDocument)
        except MalformedDocument as exc:
            with pytest.raises(MalformedDocument, match=f"^field {re.escape(str(exc))}$"):
                make(value)
        else:
            stored = getattr(make(value), name)
            assert (type(stored), repr(stored)) == (type(expected), repr(expected))


@pytest.mark.parametrize("call, name", [
    (lambda net, config, h, z, w: run_detector(
        DetectorConfig(method="chi_square"), None), "estimate"),
    (lambda net, config, h, z, w: run_detector(
        DetectorConfig(method="lnr"), None), "estimate"),
    (lambda net, config, h, z, w: largest_normalized_residual(None),
     "estimate"),
    (lambda net, config, h, z, w: largest_normalized_residual(
        dataclasses.replace(estimate_dc(h, z, w), factor=None)),
     "estimate.factor"),
    (lambda net, config, h, z, w: check_observability(net, 5), "config"),
    (lambda net, config, h, z, w: check_observability(5, config), "network"),
    (lambda net, config, h, z, w: build_meter_model(net, 5), "config"),
    (lambda net, config, h, z, w: build_meter_model(config, config), "network"),
    # a network or a meter set where the compiled model belongs
    (lambda net, config, h, z, w: estimate_ac(config, z, w), "model"),
    (lambda net, config, h, z, w: estimate_ac(net, z, w), "model"),
    (lambda net, config, h, z, w: simulate_measurements(
        config, StateVector(angles={1: 0.0, 2: 0.0, 3: 0.0}), "dc", 0),
     "model"),
    (lambda net, config, h, z, w: simulate_measurements(
        net, StateVector(angles={1: 0.0, 2: 0.0, 3: 0.0}), "dc", 0), "model"),
    # documents, paths and records that are not what they should be
    (lambda net, config, h, z, w: parse_case(3), "text"),
    (lambda net, config, h, z, w: parse_case(THREE_BUS.read_bytes()), "text"),
    (lambda net, config, h, z, w: serialize_case(1, 2), "network"),
    (lambda net, config, h, z, w: serialize_case(net, 2), "config"),
    (lambda net, config, h, z, w: load_scenario(3), "path"),
    (lambda net, config, h, z, w: run_monte_carlo(None, trials=1), "path"),
    (lambda net, config, h, z, w: NetworkModel(buses=3, branches=()), "buses"),
    (lambda net, config, h, z, w: NetworkModel(buses=(1,), branches=()),
     "buses"),
    (lambda net, config, h, z, w: NetworkModel(buses=net.buses,
                                               branches=config.specs),
     "branches"),
    (lambda net, config, h, z, w: MeasurementConfig(specs=3), "specs"),
    (lambda net, config, h, z, w: MeasurementConfig(specs=(1, 2)), "specs"),
    (lambda net, config, h, z, w: flat_state(3), "network"),
    (lambda net, config, h, z, w: state_dimension(3, "dc"), "network"),
    (lambda net, config, h, z, w: free_vector(
        3, StateVector(angles={1: 0.0, 2: 0.0, 3: 0.0}), "dc"), "network"),
], ids=["chi_square", "lnr", "largest_normalized_residual",
        "factorless-estimate", "observability-config", "observability-network",
        "meter-model-config", "meter-model-network", "estimate-ac-config",
        "estimate-ac-network", "simulate-config", "simulate-network",
        "parse-int", "parse-bytes", "serialize-ints", "serialize-config",
        "load-scenario-int", "monte-carlo-none", "network-buses-int",
        "network-bus-int", "network-branch-specs", "config-specs-int",
        "config-spec-ints", "flat-state-int", "state-dimension-int",
        "free-vector-int"])
def test_functions_reject_objects_of_the_wrong_class(call, name):
    parsed, _, h = load_three_bus()
    with pytest.raises(InvalidArgument, match=f"^{name} must be a "):
        call(parsed.network, parsed.config, h, parsed.values, np.full(3, 1e4))

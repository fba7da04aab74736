"""Case parsing, admittance assembly, and observability checks."""

import json

import numpy as np
import pytest

from gridse import (
    Branch,
    Bus,
    DanglingReference,
    DisconnectedNetwork,
    InvalidArgument,
    MalformedDocument,
    MeasurementConfig,
    MeasurementSpec,
    MultipleReferenceBuses,
    NetworkModel,
    NoReferenceBus,
    UnobservableNetwork,
    ZeroReactance,
    build_admittance,
    check_observability,
    estimate_dc,
    parse_case,
    serialize_case,
)
from helpers import THREE_BUS, load_three_bus, random_network
from oracles import row_reduction_rank


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


def test_admittance_three_bus_values():
    # hand-summed 1/X over incident branches: 5 + 2.5, 5 + 4, 2.5 + 4
    parsed, admittance, _ = load_three_bus()
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

"""Seeded mutation fuzz of the bundled case and scenario documents.

Each example takes a bundled document and applies one to three mutations,
each at a node drawn from the whole document: its value replaced by null, a
bool, a string, a huge or tiny number, a list or an object; its key
dropped; or, in an array, the record duplicated. The library may raise only
GridError on the result, and every CLI subcommand that reads it returns 0,
2, 3 or 4 (an exception escaping ``main`` fails the test, and so does a
numpy warning, which the suite makes an error). Runs are derandomized, so
every run checks the same examples.
"""

import contextlib
import io
import json
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridse import (
    GridError,
    build_meter_model,
    emit_report,
    estimate_dc,
    load_scenario,
    parse_case,
    run_scenario,
    weights_from_config,
)
from gridse.cli import main
from helpers import CASES_DIR, SCENARIO_FILES

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

CASES = ("three_bus.json", "lossy_four_bus.json")
SCENARIOS = {path.name: json.loads(path.read_text())
             for path in SCENARIO_FILES + (CASES_DIR / "ac_gross_error.json",)}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([0, -1, 2, 0.0, -0.0, 1e308, -1e308, 1e-300, 5e-324,
                     10**400, 2**64, 1e16 + 1]),
    st.integers(),
    st.floats(),  # NaN and +-inf are written as the literals JSON refuses
    st.lists(st.integers(-3, 3) | st.floats(-2.0, 2.0), max_size=3),
    st.dictionaries(st.sampled_from(["1", "2", "x", "id", "kind", "type"]),
                    st.integers(-3, 3) | st.floats(-2.0, 2.0), max_size=2),
)


def _paths(node, path=()):
    """(path, value) of every value below node, the path a tuple of keys
    and indices."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield path + (key,), child
            yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations. Where they fall is drawn from a
    seeded generator, uniformly over the document's values, three times in
    four over its numbers, strings, bools and nulls alone, so the fuzz
    spreads over every field of every record."""
    doc = json.loads(json.dumps(doc))
    where = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(where.randint(1, 3)):
        paths = [path for path, value in _paths(doc)
                 if where.random() < 0.25 or not isinstance(value, (dict, list))]
        if not paths:
            break
        *parents, key = where.choice(paths)
        parent = doc
        for step in parents:
            parent = parent[step]
        actions = ["replace", "drop"] + ["duplicate"] * isinstance(parent, list)
        action = where.choice(actions)
        if action == "replace":
            parent[key] = draw(JUNK)
        elif action == "drop":
            del parent[key]
        else:
            parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the bundled cases, so that a scenario written
    there finds the case it names."""
    path = tmp_path_factory.mktemp("fuzz")
    for name in CASES:
        shutil.copy(CASES_DIR / name, path / name)
    return path


def _cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@EXAMPLES
@given(data=st.data())
def test_mutated_case_documents(workdir, data):
    name = data.draw(st.sampled_from(CASES))
    doc = data.draw(mutated(json.loads((CASES_DIR / name).read_text())))
    text = json.dumps(doc)
    try:
        parsed = parse_case(text)
        model = build_meter_model(parsed.network, parsed.config)
        if parsed.values is not None:
            estimate_dc(model.dc_matrix, parsed.values,
                        weights_from_config(parsed.config))
    except GridError:
        pass
    path = workdir / "case.json"
    path.write_text(text)
    _cli("estimate", "--case", path)
    _cli("estimate", "--case", path, "--mode", "ac", "--max-iter", "5")
    _cli("attack", "--case", path, "--shift", "0.01,0.02")
    _cli("detect", "--case", path, "--z", "0.62,0.06,0.37",
         "--method", "lnr")
    _cli("montecarlo", "--case", path, "--trials", "3",
         "--attack", "stealth")


@EXAMPLES
@given(data=st.data())
def test_mutated_scenario_documents(workdir, data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    doc = data.draw(mutated(SCENARIOS[name]))
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        emit_report(run_scenario(load_scenario(path)), format="machine")
    except GridError:
        pass
    _cli("scenario", "run", path, "--format", "machine")


import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nevkit.cli import bundled_scenario_paths
from nevkit.quadrature import integrate_1d
from nevkit.scenario import ScenarioError, load_scenario, scenario_from_json


BASE = {
    "name": "probe",
    "dimension": 2,
    "measure": {"dimension": 2,
                "spheres": [{"center": [0.0, 0.0], "radius": 1.0, "mass": 1.0}]},
    "radii": {"r": 1.0, "R": 2.0},
    "functions": [{"label": "f",
                   "rational": {"zeros": [[0.5, 0.0]], "poles": [[2.0, 0.0], [2.0, 0.0]],
                                "scale": [1.0, 0.0]}}],
    "checks": ["statement_I", "statement_II"],
}


def variant(**updates):
    data = copy.deepcopy(BASE)
    data.update(updates)
    return data


def test_bundled_scenarios_parse():
    paths = bundled_scenario_paths()
    assert len(paths) >= 3
    for path in paths:
        sc = load_scenario(path)
        assert sc.r < sc.R
        assert sc.checks


def test_base_scenario_parses():
    sc = scenario_from_json(BASE)
    assert sc.name == "probe"
    assert sc.dimension == 2
    assert sc.r == 1.0 and sc.R == 2.0
    assert sc.r0 == sc.r  # defaults to r
    assert [c.kind for c in sc.checks] == ["statement_I", "statement_II"]
    assert sc.functions[0].label == "f"
    assert sc.functions[0].rational is not None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_json(variant(extra=1))


def test_bad_name_rejected():
    with pytest.raises(ScenarioError, match="name"):
        scenario_from_json(variant(name="white space"))


def test_radii_must_be_ordered():
    with pytest.raises(ScenarioError):
        scenario_from_json(variant(radii={"r": 2.0, "R": 1.0}))
    with pytest.raises(ScenarioError):
        scenario_from_json(variant(radii={"r": 0.0, "R": 1.0}))


def test_duplicate_function_labels_rejected():
    data = variant()
    data["functions"] = data["functions"] * 2
    with pytest.raises(ScenarioError, match="label"):
        scenario_from_json(data)


def test_function_dimension_mismatch_rejected():
    data = variant(dimension=3)
    data["measure"] = {"dimension": 3,
                       "spheres": [{"center": [0, 0, 0], "radius": 1.0, "mass": 1.0}]}
    # rational functions are two-dimensional models
    with pytest.raises(ScenarioError):
        scenario_from_json(data)


def test_checks_requiring_functions():
    data = variant(functions=[], checks=["statement_II"])
    with pytest.raises(ScenarioError, match="function"):
        scenario_from_json(data)


def test_corollary_requires_planar_rational():
    data = variant(checks=["corollary"])
    sc = scenario_from_json(data)
    assert sc.checks[0].kind == "corollary"

    data3 = variant(dimension=3, checks=["corollary"], functions=[
        {"label": "u", "dimension": 3,
         "charges": [{"point": [0.1, 0.0, 0.0], "weight": 1.0}]}])
    data3["measure"] = {"dimension": 3,
                        "spheres": [{"center": [0, 0, 0], "radius": 1.0, "mass": 1.0}]}
    with pytest.raises(ScenarioError):
        scenario_from_json(data3)


def test_check_option_validation():
    ok = variant(checks=[{"check": "statement_II", "R_star": 1.5}])
    sc = scenario_from_json(ok)
    assert sc.checks[0].options["R_star"] == 1.5

    with pytest.raises(ScenarioError, match="R_star"):
        scenario_from_json(variant(checks=[{"check": "statement_II", "R_star": 2.5}]))
    with pytest.raises(ScenarioError, match="t_cap"):
        scenario_from_json(variant(checks=[{"check": "statement_III", "t_cap": -1.0}]))
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_json(variant(checks=[{"check": "statement_I", "bogus": 1}]))


def test_poisson_jensen_points_validated():
    ok = variant(checks=[{"check": "poisson_jensen", "points": [[0.1, -0.2]]}])
    sc = scenario_from_json(ok)
    assert sc.checks[0].options["points"]

    bad = variant(checks=[{"check": "poisson_jensen", "points": [[3.0, 0.0]]}])
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)


def test_expect_fail_names_validated():
    sc = scenario_from_json(variant(expect_fail=["statement_I"]))
    assert set(sc.expect_fail) == {"statement_I"}
    with pytest.raises(ScenarioError):
        scenario_from_json(variant(expect_fail=["statement_IX"]))


def test_grid_bounds():
    sc = scenario_from_json(variant(grid=9))
    assert sc.grid == 9
    with pytest.raises(ScenarioError):
        scenario_from_json(variant(grid=2))
    # A scan lattice has grid**d points, at most 2**20 of them.
    spatial = variant(dimension=3, functions=[], checks=["statement_I"],
                      measure={"dimension": 3, "spheres": [
                          {"center": [0.0, 0.0, 0.0], "radius": 1.0, "mass": 1.0}]})
    for data, top in ((variant(), 1024), (spatial, 101)):
        assert scenario_from_json(dict(data, grid=top)).grid == top
        with pytest.raises(ScenarioError, match=re.escape("scenario.grid: grid**")):
            scenario_from_json(dict(data, grid=top + 1))


def test_quad_overrides():
    sc = scenario_from_json(variant(quad={"max_subdivisions": 256, "abs_tol": 1e-8}))
    assert sc.quad.max_subdivisions == 256
    assert sc.quad.abs_tol == 1e-8
    with pytest.raises(ScenarioError):
        scenario_from_json(variant(quad={"nodes": 10}))


# One scenario holding every kind of JSON object the schema has.
EVERY_OBJECT = {
    "name": "every",
    "dimension": 2,
    "measure": {"dimension": 2,
                "atoms": [{"point": [0.5, 0.0], "mass": 0.5}],
                "spheres": [{"center": [0.0, 0.0], "radius": 0.5, "mass": 1.0}],
                "radial": [{"center": [0.0, 0.0], "coeffs": [0.0, 2.0], "outer": 0.5}]},
    "functions": [{"label": "f", "rational": {"zeros": [0.5], "poles": [2.0]}},
                  {"label": "u", "dimension": 2,
                   "charges": [{"point": [0.3, 0.1], "weight": 1.0}]}],
    "radii": {"r": 1.0, "R": 2.0},
    "checks": [{"check": "statement_II", "R_star": 1.5}],
    "quad": {"abs_tol": 1e-9},
}


BAD_FIELDS = [
    ((), "bogus", 1, "scenario: unknown fields ['bogus']"),
    (("radii",), "bogus", 1, "scenario.radii: unknown fields ['bogus']"),
    (("quad",), "bogus", 1, "scenario.quad: unknown fields ['bogus']"),
    (("checks", 0), "R_star_", 1, "scenario.checks[0]: unknown fields ['R_star_']"),
    (("functions", 0), "bogus", 1, "scenario.functions[0]: unknown fields ['bogus']"),
    (("functions", 0, "rational"), "bogus", 1,
     "scenario.functions[0].rational: unknown fields ['bogus']"),
    (("functions", 1), "bogus", 1, "scenario.functions[1]: unknown fields ['bogus']"),
    (("functions", 1, "charges", 0), "mass", 1,
     "scenario.functions[1].charges[0]: unknown fields ['mass']"),
    (("measure",), "bogus", 1, "scenario.measure: unknown fields ['bogus']"),
    (("measure", "atoms", 0), "weight", 1,
     "scenario.measure.atoms[0]: unknown fields ['weight']"),
    (("measure", "spheres", 0), "mas", 2.0,
     "scenario.measure.spheres[0]: unknown fields ['mas']"),
    (("measure", "radial", 0), "power", 2.5,
     "scenario.measure.radial[0]: unknown fields ['power']"),
    # Integers must be JSON integers wherever they appear.
    ((), "dimension", 2.0, "scenario.dimension: expected an integer >= 2"),
    (("measure",), "dimension", 2.0, "scenario.measure.dimension: expected an integer >= 2"),
    (("functions", 1), "dimension", 2.0,
     "scenario.functions[1].dimension: expected an integer >= 2"),
    ((), "grid", 9.0, "scenario.grid: expected an integer >= 3"),
    (("quad",), "max_subdivisions", 64.0,
     "scenario.quad.max_subdivisions: expected an integer >= 8"),
    # Settings that no longer exist: the fixed grid sizes and the
    # statement-II switch for the bound that is now always reported.
    (("quad",), "circle_nodes", 512, "scenario.quad: unknown fields ['circle_nodes']"),
    (("quad",), "polar_nodes", 64, "scenario.quad: unknown fields ['polar_nodes']"),
    (("checks", 0), "tight", True, "scenario.checks[0]: unknown fields ['tight']"),
]


def _case_ids(cases):
    """Each case's id is the path its message names, then the key when the
    path is taken already."""
    ids = []
    for _, key, _, message in cases:
        name = message.split(":")[0]
        ids.append(f"{name}.{key}" if name in ids else name)
    return ids


@pytest.mark.parametrize("where, key, value, message", BAD_FIELDS,
                         ids=_case_ids(BAD_FIELDS))
def test_every_object_names_a_bad_field(where, key, value, message):
    data = copy.deepcopy(EVERY_OBJECT)
    scenario_from_json(data)
    target = data
    for step in where:
        target = target[step]
    target[key] = value
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_json(data)


def test_null_lists_read_as_empty():
    data = copy.deepcopy(EVERY_OBJECT)
    data["expect_fail"] = None
    data["functions"][0]["rational"]["poles"] = None
    sc = scenario_from_json(data)
    assert sc.expect_fail == frozenset()
    assert sc.functions[0].rational.poles == ()


def test_load_scenario_reports_path(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(variant(name="fromfile")))
    sc = load_scenario(path)
    assert sc.name == "fromfile"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


# -- fuzzing ---------------------------------------------------------------

BUNDLED = [json.loads(p.read_text()) for p in bundled_scenario_paths()]

# Optional fields a bundled scenario may leave out; the fuzzer sets these too.
OPTIONAL_FIELDS = [
    ("measure", "atoms"), ("measure", "spheres"), ("measure", "radial"),
    ("functions", 0, "charges"), ("functions", 0, "harmonic"),
    ("quad",), ("quad", "max_subdivisions"), ("quad", "abs_tol"),
    ("grid",), ("expect_fail",), ("radii", "r0"),
]

# Edge values (integers beyond a C long and beyond the float range among
# them), other scalars, and small nested lists and objects.
JSON_EDGES = st.sampled_from([0, -1, 5, 2 ** 31, 2 ** 63, 10 ** 30, 10 ** 400, "", [], {}])
JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=6) | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.one_of(JSON_EDGES, JSON_SCALARS, st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6))


def _field_paths(value, prefix=()):
    """Every dict key and list index in a parsed JSON document, as paths."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _field_paths(child, prefix + (key,))
    return out


def _with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        if isinstance(node, dict) and not isinstance(node.get(key), (dict, list)):
            node[key] = {}
        elif isinstance(node, list) and not key < len(node):
            return doc
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_scenario_loads_or_raises_scenario_error(data):
    base = data.draw(st.sampled_from(BUNDLED))
    path = data.draw(st.sampled_from(OPTIONAL_FIELDS) | st.sampled_from(_field_paths(base)))
    doc = _with_value(base, path, data.draw(JSON_VALUES))
    try:
        sc = scenario_from_json(doc)
    except ScenarioError:
        return
    # A scenario that loads carries quadrature settings scipy accepts.
    assert integrate_1d(lambda t: t, 0.0, 1.0, sc.quad).converged

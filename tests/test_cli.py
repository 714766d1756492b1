import json

import pytest

from nevkit import measures
from nevkit.cli import (
    EXIT_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNDETERMINED,
    RunOptions,
    bundled_scenario_paths,
    classify,
    main,
)
from nevkit.criterion import CheckReport, FAILS, HOLDS, UNDETERMINED
from nevkit.scenario import scenario_from_json


ATOMIC = {
    "name": "atoms",
    "dimension": 2,
    "measure": {"dimension": 2,
                "atoms": [{"point": [0.5, 0.0], "mass": 0.6},
                          {"point": [-0.3, 0.25], "mass": 0.4}]},
    "radii": {"r": 1.0, "R": 2.0, "r0": 0.5},
    "checks": ["statement_IV", "statement_V"],
    "grid": 9,
}

SHELL_PJ = {
    "name": "shellpj",
    "dimension": 2,
    "measure": {"dimension": 2,
                "spheres": [{"center": [0.0, 0.0], "radius": 0.5, "mass": 1.0}]},
    "functions": [{"label": "u", "dimension": 2,
                   "charges": [{"point": [0.3, 0.1], "weight": 1.0}]}],
    "radii": {"r": 0.75, "R": 1.0},
    "checks": ["poisson_jensen"],
    "grid": 9,
}


def write_scenario(tmp_path, data, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_list_bundled(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for path in bundled_scenario_paths():
        assert path.stem in out


def test_run_bundled_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", "--bundled", "--out", str(out_dir)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "holds" in text

    lines = (out_dir / "reports.jsonl").read_text().splitlines()
    assert len(lines) >= 18
    for line in lines:
        rec = json.loads(line)  # strict JSON, including infinities as strings
        assert {"scenario", "name", "lhs", "rhs", "verdict"} <= set(rec)

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "name,lhs,rhs,margin,verdict"
    assert len(summary) == len(lines) + 1

    # plot data: one counting grid per planar scenario
    for path in bundled_scenario_paths():
        assert (out_dir / f"{path.stem}.counting.csv").exists()


def test_run_unexpected_failure_exit_code(tmp_path):
    sc = write_scenario(tmp_path, ATOMIC)
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o1")])
    assert code == EXIT_FAILED


def test_run_expect_fail_flag(tmp_path):
    sc = write_scenario(tmp_path, ATOMIC)
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o2"),
                 "--expect-fail", "statement_IV,statement_V"])
    assert code == EXIT_OK


def test_run_declared_expect_fail_in_file(tmp_path):
    data = dict(ATOMIC, expect_fail=["statement_IV", "statement_V"])
    sc = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o3")]) == EXIT_OK


def test_run_expected_fail_that_holds_is_unexpected(tmp_path):
    data = dict(SHELL_PJ, expect_fail=["poisson_jensen"])
    sc = write_scenario(tmp_path, data)
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o4")])
    assert code == EXIT_FAILED


def test_invalid_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o5")])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err


def test_validation_error_exit_code(tmp_path):
    data = dict(ATOMIC, radii={"r": 2.0, "R": 1.0})
    sc = write_scenario(tmp_path, data)
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o6")])
    assert code == EXIT_INVALID


# The last case is a list, but its density dips to -1e-4 at t = 0.53125,
# between any 17 equispaced samples of [0, 1]: only its exact minimum shows it.
NEGATIVE_DENSITY = [{"center": [0.0, 0.0], "coeffs": [0.2821265625, -1.0625, 1.0],
                     "outer": 1.0}]


@pytest.mark.parametrize("where, field, value, message", [
    pytest.param("measure", "atoms", 5, "atoms: expected a list", id="measure-atoms"),
    pytest.param("measure", "spheres", 5, "spheres: expected a list",
                 id="measure-spheres"),
    pytest.param("measure", "radial", 5, "radial: expected a list", id="measure-radial"),
    pytest.param("function", "charges", 5, "charges: expected a list",
                 id="function-charges"),
    pytest.param("function", "harmonic", 5, "harmonic: expected a list",
                 id="function-harmonic"),
    pytest.param("measure", "radial", NEGATIVE_DENSITY, "measure.radial[0]: ",
                 id="measure-radial-negative-density"),
    # Entries with a field outside their schema.
    pytest.param("measure", "atoms", [{"point": [0.1, 0.0], "mass": 1.0, "weight": 1.0}],
                 "measure.atoms[0]: unknown fields ['weight']", id="measure-atom-extra"),
    pytest.param("measure", "spheres", [{"center": [0.0, 0.0], "radius": 0.5, "mas": 2.0}],
                 "measure.spheres[0]: unknown fields ['mas']", id="measure-sphere-extra"),
    pytest.param("measure", "radial",
                 [{"center": [0.0, 0.0], "coeffs": [1.0], "outer": 0.5, "power": 2.5}],
                 "measure.radial[0]: unknown fields ['power']", id="measure-radial-extra"),
    pytest.param("function", "charges", [{"point": [0.3, 0.1], "weight": 1.0, "mass": 1.0}],
                 "functions[0].charges[0]: unknown fields ['mass']",
                 id="function-charge-extra"),
])
def test_non_list_component_field_exit_code(tmp_path, capsys, where, field, value,
                                            message):
    data = json.loads(json.dumps(SHELL_PJ))
    target = data["measure"] if where == "measure" else data["functions"][0]
    target[field] = value
    sc = write_scenario(tmp_path, data)
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("quad", [
    {"max_subdivisions": 10 ** 30},
    {"circle_nodes": 2 ** 40},
    {"polar_nodes": 2 ** 11, "azimuth_nodes": 2 ** 10},
])
def test_oversized_quad_override_exit_code(tmp_path, capsys, quad):
    # Rejected while the scenario loads, before any grid is allocated.
    sc = write_scenario(tmp_path, dict(SHELL_PJ, quad=quad))
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert "quad" in capsys.readouterr().err


def test_classify_precedence():
    def rep(name, verdict):
        return CheckReport(name=name, lhs=0.0, rhs=1.0, residual=-1.0,
                           tolerance=1e-7, verdict=verdict)

    sc = scenario_from_json(dict(SHELL_PJ))
    plain = RunOptions()
    ok = classify([(sc, [rep("poisson_jensen[u:0]", HOLDS)])], plain)
    assert ok == EXIT_OK
    und = classify([(sc, [rep("poisson_jensen[u:0]", UNDETERMINED)])], plain)
    assert und == EXIT_UNDETERMINED
    failed = classify([(sc, [rep("poisson_jensen[u:0]", FAILS),
                             rep("poisson_jensen[u:1]", UNDETERMINED)])], plain)
    assert failed == EXIT_FAILED
    expected = classify([(sc, [rep("poisson_jensen[u:0]", FAILS)])],
                        RunOptions(expect_fail=("poisson_jensen",)))
    assert expected == EXIT_OK
    # an unrelated expectation does not excuse the failure
    other = classify([(sc, [rep("poisson_jensen[u:0]", FAILS)])],
                     RunOptions(expect_fail=("lemma3",)))
    assert other == EXIT_FAILED


def test_default_sample_points_are_fixed(tmp_path):
    # SHELL_PJ gives no Poisson-Jensen points, so both runs draw their own.
    sc = write_scenario(tmp_path, SHELL_PJ)
    reports = []
    for out in (tmp_path / "s0", tmp_path / "s1"):
        assert main(["run", "--scenario", sc, "--out", str(out)]) == EXIT_OK
        reports.append((out / "reports.jsonl").read_bytes())
    assert reports[0] == reports[1]
    assert len(reports[0].splitlines()) == 3


def test_jobs_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bundled", "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == EXIT_INVALID
    assert "--jobs" in capsys.readouterr().err


def test_tight_flag_is_rejected(tmp_path, capsys):
    # The tight statement-II bound is always reported; there is no switch.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bundled", "--out", str(tmp_path / "o"), "--tight"])
    assert exc.value.code == EXIT_INVALID
    assert "--tight" in capsys.readouterr().err


def test_sweep_writes_long_format(tmp_path):
    sc = write_scenario(tmp_path, SHELL_PJ)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", sc, "--param", "R",
                 "--values", "1.0,1.25", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("scenario,parameter,value,name")
    assert any(",1.25," in row or ",1.25" in row.split(",")[2] for row in rows[1:])


def test_sweep_rejects_invalid_values(tmp_path):
    sc = write_scenario(tmp_path, SHELL_PJ)
    code = main(["sweep", "--scenario", sc, "--param", "R",
                 "--values", "0.1", "--out", str(tmp_path / "s")])
    # R = 0.1 < r makes the scenario invalid
    assert code == EXIT_INVALID


SHELL_I = {
    "name": "shell",
    "dimension": 2,
    "measure": {"dimension": 2,
                "spheres": [{"center": [0.0, 0.0], "radius": 0.5, "mass": 1.0}]},
    "radii": {"r": 1.0, "R": 2.0},
    "checks": ["statement_I"],
    "grid": 5,
}


def test_sweep_matches_run_on_the_edited_file(tmp_path):
    # r0 is left out, so it follows r in the swept variant as in the file.
    sc = write_scenario(tmp_path, SHELL_I)
    assert main(["sweep", "--scenario", sc, "--param", "r", "--values", "0.6",
                 "--out", str(tmp_path / "sweep")]) == EXIT_OK
    edited = write_scenario(tmp_path, dict(SHELL_I, radii={"r": 0.6, "R": 2.0}),
                            "edited.json")
    assert main(["run", "--scenario", edited, "--out", str(tmp_path / "run")]) == EXIT_OK
    swept = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
    ran = (tmp_path / "run" / "summary.csv").read_text().splitlines()[1].split(",")
    assert swept[4:] == ran[1:]  # lhs, rhs, margin, verdict
    assert float(ran[1]) == pytest.approx(0.390495, abs=1e-6)


def _no_scan(*args):
    raise AssertionError("a scan lattice was built")


@pytest.mark.parametrize("argv, message", [
    (["run", "--grid", "1025"], "--grid: grid**2 must be at most"),
    (["run", "--grid", "2"], "--grid: expected an integer >= 3"),
    (["sweep", "--param", "grid", "--values", "5,1025"], "[grid=1025].grid: grid**2"),
    (["sweep", "--param", "grid", "--values", "5", "--grid", "7"], "--grid would replace"),
    (["sweep", "--param", "R", "--values", "3", "--grid", "1025"], "--grid: grid**2"),
], ids=["run-grid", "run-grid-floor", "sweep-values", "sweep-grid-twice", "sweep-grid"])
def test_grid_bounds_exit_before_any_scan(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(measures, "_ball_lattice", _no_scan)
    sc = write_scenario(tmp_path, SHELL_I)
    code = main([*argv, "--scenario", sc, "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

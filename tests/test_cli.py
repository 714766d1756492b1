import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nevkit
from nevkit import cli, dsh, measures, quadrature
from nevkit.dsh import _contact_radii
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


def test_every_public_name_resolves():
    # A deleted function must not leave its export behind.
    assert [name for name in nevkit.__all__ if not hasattr(nevkit, name)] == []
    exec("from nevkit import *", {})


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


def test_bundled_run_integrates_only_density_rings(tmp_path, monkeypatch):
    # Circle means never call the rule over a radius; a bundled run calls it
    # once per density ring integral, for statement_II[f] and corollary[f],
    # from positive_part_integral, the one caller in dsh (radial_counting's
    # crossing rings would be measures').
    callers = []
    rule = quadrature.radius_integral

    def counted(module):
        def call(*args, **kwargs):
            callers.append(module.__name__)
            return rule(*args, **kwargs)
        return call

    for module in (quadrature, dsh, measures):
        monkeypatch.setattr(module, "radius_integral", counted(module))
    assert main(["run", "--bundled", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert callers == ["nevkit.dsh", "nevkit.dsh"]


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


@pytest.mark.parametrize("dimension, label, message", [
    pytest.param(2, "x2", "harmonic term 'x2' needs dimension > 2", id="x2-in-the-plane"),
    pytest.param(3, "re_z^2", "harmonic term 're_z^2' is two-dimensional only",
                 id="re_z-in-space"),
])
def test_harmonic_label_outside_its_dimension_exit_code(tmp_path, capsys, dimension, label,
                                                        message):
    # Rejected while the scenario loads, naming the field: no check runs.
    data = json.loads(json.dumps(SHELL_PJ))
    pad = [0.0] * (dimension - 2)
    data["dimension"] = data["measure"]["dimension"] = dimension
    data["measure"]["spheres"][0]["center"] += pad
    function = data["functions"][0]
    function["dimension"] = dimension
    function["charges"][0]["point"] += pad
    function["harmonic"] = [["const", 0.1], [label, 0.5]]
    sc = write_scenario(tmp_path, data, name="bad.json")
    out = tmp_path / "o"
    code = main(["run", "--scenario", sc, "--out", str(out)])
    assert code == EXIT_INVALID
    assert f"error: bad.functions[0].harmonic[1]: {message}" in capsys.readouterr().err
    assert not (out / "reports.jsonl").exists()


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


def test_more_break_points_than_subdivisions_still_give_a_verdict(tmp_path, capsys):
    # Ten charges on the shell are ten singular angles of its positive-part
    # mean, and its sign changes add more split points, well beyond the
    # eight subintervals the scenario allows.
    charges = [{"point": [0.5 * math.cos(0.1 + 0.2 * math.pi * k),
                          0.5 * math.sin(0.1 + 0.2 * math.pi * k)],
                "weight": 1.0 if k % 2 else -1.0} for k in range(10)]
    sc = write_scenario(tmp_path, dict(
        SHELL_PJ, functions=[{"label": "u", "dimension": 2, "charges": charges}],
        checks=["statement_II"], quad={"max_subdivisions": 8}))
    code = main(["run", "--scenario", sc, "--out", str(tmp_path / "o")])
    assert code != EXIT_INVALID, capsys.readouterr().err
    (report,) = [json.loads(line)
                 for line in (tmp_path / "o" / "reports.jsonl").read_text().splitlines()]
    assert report["name"] == "statement_II[u]"
    assert report["verdict"] in (HOLDS, FAILS, UNDETERMINED)


def test_committed_off_centre_density_scenario_holds(tmp_path):
    # CI's packaging job runs this file with the installed wheel.  The spheres
    # about its density's centre touch u = 0 inside the support, so the run
    # takes the contact split of the ring integral.
    path = Path(__file__).parent / "scenarios" / "off_centre_density_3d.json"
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    sc = scenario_from_json(json.loads(path.read_text()))
    (comp,) = sc.measure.radial
    assert _contact_radii(sc.functions[0].dsh, comp.center, comp.outer)


@pytest.mark.parametrize("scenario", ["off_centre_density_3d", "centred_shell_3d",
                                      "charge_inside_density_3d", "atom_between_witnesses"])
def test_a_spatial_run_imports_no_scipy(tmp_path, scenario):
    # scipy serves only the planar dilogarithm of a density, imported where
    # it is used, so importing the CLI and running a d = 3 scenario, or a
    # planar one whose measure is atoms only, imports no scipy.
    path = Path(__file__).parent / "scenarios" / f"{scenario}.json"
    script = (
        "import sys\n"
        "from nevkit.cli import main\n"
        f"code = main(['run', '--scenario', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nevkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []", proc.stdout


def test_committed_planar_density_scenario_holds(tmp_path):
    # CI's packaging job runs this file with the installed wheel.  The
    # density's outer cuts the crossing window |r0 - a| < s < r0 + a at
    # lattice points of both scans, so they take the end term of the planar
    # window by parts as well as its slope.
    path = Path(__file__).parent / "scenarios" / "off_centre_density_2d.json"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    verdicts = {rep["name"]: rep["verdict"]
                for rep in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
    assert verdicts == dict.fromkeys(["statement_I", "statement_IV", "statement_V"], HOLDS)
    sc = scenario_from_json(json.loads(path.read_text()))
    (comp,) = sc.measure.radial
    a = np.linalg.norm(measures._ball_lattice(sc.R, 2, sc.grid) - comp.center, axis=1)
    cut = (abs(sc.r0 - a) < comp.outer) & (comp.outer < sc.r0 + a)
    assert cut.any()


def test_committed_centred_shell_scenario_scans_its_radial_profile(tmp_path):
    # CI's packaging job runs this file with the installed wheel.  Its one
    # shell is centred, so both scans walk the distance from the centre, and
    # the support scan evaluates the shell's radius once: N(y, 1) there is
    # mass / (4 radius**2) for every y on the shell.
    path = Path(__file__).parent / "scenarios" / "centred_shell_3d.json"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    reports = {rep["name"]: rep
               for rep in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
    assert {name: rep["verdict"] for name, rep in reports.items()} == dict.fromkeys(
        ["statement_I", "statement_V", "poisson_jensen[u:0]"], HOLDS)
    (shell,) = scenario_from_json(json.loads(path.read_text())).measure.spheres
    support = reports["statement_V"]
    assert support["lhs"] == pytest.approx(shell.mass / (4.0 * shell.radius ** 2), rel=1e-14)
    assert support["diagnostics"][1] == "radial profile about (0, 0, 0), 1 evaluations"
    assert reports["statement_I"]["diagnostics"][1].startswith("radial profile about (0, 0, 0)")


def test_committed_planar_poisson_jensen_scenario_reaches_the_fallback(tmp_path,
                                                                      monkeypatch):
    # CI's packaging job runs this file with the installed wheel.  Its first
    # point lies 0.9998 R out, so the Poisson kernel's peak fails the ladder's
    # top pair and the tanh-sinh rule takes the mean, with one break at a
    # node of the top grid; no charge is near the circle to declare.
    breaks = []
    split = quadrature._break_angle_mean

    def spied(f, center, radius, angles, spec, samples=None):
        breaks.append(angles)
        return split(f, center, radius, angles, spec, samples)

    monkeypatch.setattr(quadrature, "_break_angle_mean", spied)
    path = Path(__file__).parent / "scenarios" / "poisson_jensen_near_circle_2d.json"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    verdicts = {rep["name"]: rep["verdict"]
                for rep in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
    assert verdicts == dict.fromkeys(["poisson_jensen[u:0]", "poisson_jensen[u:1]"], HOLDS)
    (angles,) = breaks
    n = 2 * quadrature._CIRCLE_NODES
    assert len(angles) == 1 and angles[0] in np.arange(n) * (2.0 * math.pi / n)


def test_committed_atom_between_witnesses_scenario_fails_statement_III(tmp_path):
    # The atom at (0.1, 0.7) lies off every one of the 2d + 1 fixed charge
    # sites the kernel witnesses once used, which missed it and printed
    # statement III `holds`; the scan over the ball of radius r finds it.
    path = Path(__file__).parent / "scenarios" / "atom_between_witnesses.json"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    verdicts = {rep["name"]: rep["verdict"]
                for rep in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
    assert verdicts == dict.fromkeys(
        ["statement_I", "statement_III", "statement_IV", "statement_V"], FAILS)


def test_committed_charge_inside_density_scenario_holds(tmp_path):
    # CI's packaging job runs this file with the installed wheel.  The
    # function's charge lies inside the density's support, and u > 0 on
    # every sphere of the measure, so each mean of u+ is the closed-form mean
    # of u: statement II's lhs is integrated_counting(mu, 0, 3) exactly, with
    # no quadrature failure.
    path = Path(__file__).parent / "scenarios" / "charge_inside_density_3d.json"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    reports = {rep["name"]: rep
               for rep in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
    assert {name: rep["verdict"] for name, rep in reports.items()} == dict.fromkeys(
        ["statement_II[u]", "statement_III"], HOLDS)
    mu = scenario_from_json(json.loads(path.read_text())).measure
    assert reports["statement_II[u]"]["lhs"] == measures.integrated_counting(mu, np.zeros(3), 3.0)
    assert not any("failure" in line for rep in reports.values()
                   for line in rep["diagnostics"])


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


@pytest.mark.parametrize("tol", ["inf", "1e400", "-1", "nan"])
def test_tol_flag_must_be_positive_and_finite(tmp_path, capsys, tol):
    code = main(["run", "--bundled", "--out", str(tmp_path / "o"), "--tol", tol])
    assert code == EXIT_INVALID
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_one_parser_serves_successive_calls(tmp_path):
    # The parser is built once per process; the repeatable --scenario list
    # of one call must not carry over into the next.
    a = write_scenario(tmp_path, dict(SHELL_PJ, name="first"), "a.json")
    b = write_scenario(tmp_path, dict(SHELL_PJ, name="second"), "b.json")
    assert main(["run", "--scenario", a, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--scenario", b, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert main(["sweep", "--scenario", b, "--param", "R", "--values", "1.25",
                 "--out", str(tmp_path / "s")]) == EXIT_OK
    assert cli.build_parser() is cli.build_parser()
    for out, name in (("a", "first"), ("b", "second")):
        lines = (tmp_path / out / "reports.jsonl").read_text().splitlines()
        assert lines and {json.loads(line)["scenario"] for line in lines} == {name}
    rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("second,R,1.25,") for row in rows)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                                   2.5e-310, 1.7976931348623157e308, 1e22,
                                   123456789012345.6, 0.1, 1.0 / 3.0, -2.5e-7])
def test_counting_grid_text_of_python_floats_matches_numpy_scalars(value):
    # The counting grid formats the .tolist() floats of numpy arrays, which
    # must give the text numpy's float64 scalars give.
    assert cli._num(np.float64(value)) == cli._num(np.array([value]).tolist()[0])


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


def _no_check(*args):
    raise AssertionError("a scenario ran")


@pytest.mark.parametrize("command, reason", [
    ("run", "File exists"), ("sweep", "Not a directory")], ids=["run", "sweep"])
def test_out_that_cannot_be_a_directory_exits_before_any_check(tmp_path, capsys, monkeypatch,
                                                               command, reason):
    # A file at --out, or on its path, is bad input: exit 2 with its reason,
    # not a traceback after every check has run.
    monkeypatch.setattr(cli, "execute_scenario", _no_check)
    sc = write_scenario(tmp_path, SHELL_I)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv, out = {"run": (["run", "--bundled"], blocker),
                 "sweep": (["sweep", "--scenario", sc, "--param", "r", "--values", "0.6"],
                           blocker / "o")}[command]
    assert main([*argv, "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"

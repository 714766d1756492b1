"""Scenario-driven command line: run check suites, sweep a parameter, list
bundled scenarios.

Reports are written as JSON lines plus a CSV summary, and planar scenarios
additionally get a counting-function grid as CSV plot data.  Runs are
deterministic: fixed grids, fixed summation order, and default Poisson-Jensen
evaluation points drawn from a generator with the fixed seed 0.

Exit codes: 0 all verdicts as expected; 1 a check failed unexpectedly (or a
declared expected failure held); 2 invalid scenario or arguments; 3 no
failures but at least one verdict was undetermined.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .criterion import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    CheckReport,
    check_corollary,
    check_statement_I,
    check_statement_II,
    check_statement_IV,
    check_statement_V,
    falsify_statement_III,
    intermediate_radius,
    verify_lemma3,
    verify_poisson_jensen,
)
from .kernels import expect_number
from .measures import integrated_counting
from .scenario import (
    CHECK_KINDS,
    Scenario,
    ScenarioError,
    expect_grid,
    load_scenario,
    read_scenario_json,
    scenario_from_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_UNDETERMINED = 3

COUNTING_GRID_RESOLUTION = 21


@dataclass(frozen=True)
class RunOptions:
    tol: float | None = None
    grid: int | None = None
    expect_fail: tuple[str, ...] = ()


def bundled_scenario_paths() -> list:
    root = resources.files("nevkit").joinpath("scenarios")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)


def _default_pj_points(sc: Scenario, u, rng: np.random.Generator,
                       count: int = 3) -> list[np.ndarray]:
    """Random interior evaluation points away from every charge."""
    pts: list[np.ndarray] = []
    attempts = 0
    while len(pts) < count and attempts < 1000:
        attempts += 1
        v = rng.uniform(-0.55 * sc.R, 0.55 * sc.R, size=sc.dimension)
        if float(np.linalg.norm(v)) >= 0.55 * sc.R:
            continue
        if any(float(np.linalg.norm(v - ch.location)) < 1e-2 * sc.R
               for ch in u.charges):
            continue
        pts.append(v)
    if len(pts) < count:
        raise ScenarioError("could not place evaluation points away from charges")
    return pts


def execute_scenario(sc: Scenario, options: RunOptions) -> list[CheckReport]:
    """Run every requested check of one scenario, in order."""
    spec = sc.quad if options.tol is None else replace(sc.quad, abs_tol=options.tol)
    grid = options.grid if options.grid is not None else sc.grid
    rng = np.random.default_rng(0)
    mu = sc.measure
    reports: list[CheckReport] = []
    for req in sc.checks:
        kind = req.kind
        if kind == "statement_I":
            reports.append(check_statement_I(mu, sc.r0, sc.R, resolution=grid,
                                             spec=spec))
        elif kind == "statement_II":
            for entry in sc.functions:
                reports.append(check_statement_II(
                    mu, entry.dsh, sc.r, sc.R, resolution=grid, spec=spec,
                    R_star=req.options.get("R_star"),
                    name=f"statement_II[{entry.label}]"))
        elif kind == "statement_III":
            t_cap = float(req.options.get("t_cap", 1.0))
            reports.append(falsify_statement_III(
                mu, [e.dsh for e in sc.functions], sc.r, sc.R, t_cap,
                resolution=grid, spec=spec))
        elif kind == "statement_IV":
            reports.append(check_statement_IV(mu, resolution=grid))
        elif kind == "statement_V":
            reports.append(check_statement_V(mu, sc.r0, resolution=grid,
                                             spec=spec))
        elif kind == "lemma3":
            r_star = req.options.get("R_star")
            if r_star is None:
                r_star = intermediate_radius(sc.r, sc.R, sc.dimension)
            reports.append(verify_lemma3(mu, float(r_star), sc.R, spec=spec))
        elif kind == "poisson_jensen":
            for entry in sc.functions:
                raw = req.options.get("points")
                if raw is None:
                    points = _default_pj_points(sc, entry.dsh, rng)
                else:
                    points = [np.asarray(p, dtype=float) for p in raw]
                for j, x in enumerate(points):
                    reports.append(verify_poisson_jensen(
                        entry.dsh, x, sc.R, spec=spec,
                        name=f"poisson_jensen[{entry.label}:{j}]"))
        elif kind == "corollary":
            for entry in sc.functions:
                if entry.rational is None:
                    continue
                reports.append(check_corollary(
                    entry.rational, mu, sc.r, sc.R, resolution=grid,
                    spec=spec, name=f"corollary[{entry.label}]"))
        else:  # pragma: no cover - scenario validation forbids this
            raise ScenarioError(f"unknown check kind {kind!r}")
    return reports


def _num(x: float) -> str:
    return f"{x:.12g}"


def write_outputs(out_dir: Path, results: list[tuple[Scenario, list[CheckReport]]]) -> None:
    """Write reports, summary and counting grids into ``out_dir``, which
    ``_run_all`` has created.  A counting grid is plot data: the integrated
    counting at r0 over a square around the disc, whose values no spec
    changes (without a budget, the tolerances only flag failures)."""
    with open(out_dir / "reports.jsonl", "w") as fh:
        for sc, reports in results:
            for rep in reports:
                record = {"scenario": sc.name, **rep.to_json()}
                fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "lhs", "rhs", "margin", "verdict"])
        for sc, reports in results:
            for rep in reports:
                writer.writerow([f"{sc.name}.{rep.name}", _num(rep.lhs),
                                 _num(rep.rhs), _num(rep.margin), rep.verdict])
    for sc, _ in results:
        if sc.dimension != 2:
            continue
        axis = np.linspace(-sc.R, sc.R, COUNTING_GRID_RESOLUTION)
        x0, x1 = (m.ravel() for m in np.meshgrid(axis, axis))
        values = integrated_counting(sc.measure, np.column_stack((x0, x1)), sc.r0)
        with open(out_dir / f"{sc.name}.counting.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x0", "x1", "counting"])
            # Python floats format faster than numpy scalars, to the same text.
            writer.writerows((_num(a), _num(b), _num(v))
                             for a, b, v in zip(x0.tolist(), x1.tolist(), values.tolist()))


def classify(results: list[tuple[Scenario, list[CheckReport]]],
             options: RunOptions) -> int:
    unexpected = False
    undetermined = False
    for sc, reports in results:
        for rep in reports:
            base = rep.name.split("[")[0]
            declared = base in sc.expect_fail
            excused = declared or "all" in options.expect_fail \
                or base in options.expect_fail
            if rep.verdict == FAILS and not excused:
                unexpected = True
            elif rep.verdict == HOLDS and declared:
                unexpected = True
            elif rep.verdict == UNDETERMINED:
                undetermined = True
    if unexpected:
        return EXIT_FAILED
    if undetermined:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _load_run_scenarios(args) -> list[Scenario]:
    scenarios: list[Scenario] = []
    if args.bundled:
        for p in bundled_scenario_paths():
            data = json.loads(p.read_text())
            scenarios.append(scenario_from_json(data, path=p.name[:-5]))
    for path in args.scenario:
        scenarios.append(load_scenario(path))
    if not scenarios:
        raise ScenarioError("no scenarios given; pass --scenario PATH or --bundled")
    return scenarios


def _run_all(scenarios: list[Scenario], options: RunOptions, out_dir: Path
             ) -> list[tuple[Scenario, list[CheckReport]]]:
    """Run every scenario into ``out_dir``, which is created first, so a
    path that cannot be a directory fails before any check runs."""
    if options.grid is not None:  # before any scan allocates its lattice
        for sc in scenarios:
            expect_grid(options.grid, sc.dimension, "--grid")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {out_dir}: {exc.strerror or exc}") from None
    return [(sc, execute_scenario(sc, options)) for sc in scenarios]


def _parse_expect_fail(text: str) -> tuple[str, ...]:
    if not text:
        return ()
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    for kind in kinds:
        if kind != "all" and kind not in CHECK_KINDS:
            raise ScenarioError(f"--expect-fail: unknown check kind {kind!r}")
    return kinds


def _options_from_args(args) -> RunOptions:
    tol = None if args.tol is None else expect_number(args.tol, "--tol", positive=True)
    return RunOptions(tol=tol, grid=args.grid,
                      expect_fail=_parse_expect_fail(args.expect_fail))


def _cmd_run(args) -> int:
    options = _options_from_args(args)
    scenarios = _load_run_scenarios(args)
    results = _run_all(scenarios, options, Path(args.out))
    write_outputs(Path(args.out), results)
    for sc, reports in results:
        for rep in reports:
            print(f"{sc.name}.{rep.name}: {rep.verdict}")
    code = classify(results, options)
    print(f"wrote {Path(args.out) / 'reports.jsonl'} (exit {code})")
    return code


def _cmd_sweep(args) -> int:
    options = _options_from_args(args)
    if args.param == "grid" and options.grid is not None:
        raise ScenarioError("sweep: --grid would replace every swept grid value")
    data = read_scenario_json(args.scenario)
    stem = Path(args.scenario).stem
    scenario_from_json(data, path=stem)
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ScenarioError("sweep: --values must list at least one value")
    variants: list[Scenario] = []
    values: list[float] = []
    for v in raw_values:
        try:
            value = int(v) if args.param == "grid" else float(v)
        except ValueError:
            raise ScenarioError(f"sweep: bad value {v!r} for {args.param}") from None
        # Each variant is the file with one value changed, validated afresh,
        # so defaults that follow the value (r0 follows r) follow it here too.
        edited = ({**data, "grid": value} if args.param == "grid"
                  else {**data, "radii": {**data["radii"], args.param: value}})
        variants.append(scenario_from_json(edited, path=f"{stem}[{args.param}={v}]"))
        values.append(float(value))
    results = _run_all(variants, options, Path(args.out))
    with open(Path(args.out) / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "parameter", "value", "name", "lhs",
                         "rhs", "margin", "verdict"])
        for value, (sc, reports) in zip(values, results):
            for rep in reports:
                writer.writerow([sc.name, args.param, _num(value), rep.name,
                                 _num(rep.lhs), _num(rep.rhs),
                                 _num(rep.margin), rep.verdict])
    for value, (sc, reports) in zip(values, results):
        for rep in reports:
            print(f"{sc.name}[{args.param}={value:g}].{rep.name}: {rep.verdict}")
    return classify(results, options)


def _cmd_list(_args) -> int:
    for p in bundled_scenario_paths():
        data = json.loads(p.read_text())
        checks = []
        for c in data.get("checks", []):
            checks.append(c if isinstance(c, str) else c.get("check", "?"))
        print(f"{p.name[:-5]}: dimension {data.get('dimension')}, "
              f"checks [{', '.join(checks)}]")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="nevkit-out", metavar="DIR",
                        help="output directory (default: nevkit-out)")
    parser.add_argument("--tol", type=float, default=None, metavar="ABS",
                        help="override the absolute quadrature tolerance")
    parser.add_argument("--grid", type=int, default=None, metavar="N",
                        help="override the supremum-scan grid resolution")
    parser.add_argument("--expect-fail", default="", metavar="KINDS",
                        dest="expect_fail",
                        help="comma-separated check kinds whose failure is "
                             "expected ('all' excuses every failing verdict)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  Parsing leaves it as it
    was: each call's namespace starts from fresh defaults."""
    parser = argparse.ArgumentParser(
        prog="nevkit",
        description="Run potential-theory check scenarios and emit reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one or more scenarios")
    run_p.add_argument("--scenario", action="append", default=[],
                       metavar="PATH", help="scenario JSON file (repeatable)")
    run_p.add_argument("--bundled", action="store_true",
                       help="include every bundled scenario")
    _add_common(run_p)
    run_p.set_defaults(func=_cmd_run)
    sweep_p = sub.add_parser("sweep", help="rerun a scenario over a parameter")
    sweep_p.add_argument("--scenario", required=True, metavar="PATH")
    sweep_p.add_argument("--param", required=True,
                         choices=["r", "R", "r0", "grid"])
    sweep_p.add_argument("--values", required=True, metavar="V1,V2,...")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)
    list_p = sub.add_parser("list", help="list bundled scenarios")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ScenarioError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

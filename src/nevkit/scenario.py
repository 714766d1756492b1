"""Scenario files: JSON descriptions of a measure, a list of functions,
radii, and the checks to run on them.

Loading is strict: every object rejects fields outside its schema, and
malformed radii or references to checks that do not exist are rejected too,
with messages naming the offending field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

from .dsh import DshFunction, RationalFunction, dsh_from_json, rational_from_json
from .criterion import DEFAULT_RESOLUTION
from .kernels import expect_int, expect_list, expect_number, expect_object, expect_point
from .measures import Measure, measure_from_json
from .quadrature import QuadSpec

_CHECK_OPTIONS = {
    "statement_I": set(),
    "statement_II": {"R_star"},
    "statement_III": {"t_cap"},
    "statement_IV": set(),
    "statement_V": set(),
    "lemma3": {"R_star"},
    "poisson_jensen": {"points"},
    "corollary": set(),
}
CHECK_KINDS = tuple(_CHECK_OPTIONS)

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Most lattice points a supremum scan may allocate at once: grid**d of them.
MAX_SCAN_POINTS = 2 ** 20


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class FunctionEntry:
    """One scenario function: always usable as a charge-model function,
    optionally carrying the rational map it came from."""

    label: str
    dsh: DshFunction
    rational: RationalFunction | None = None


@dataclass(frozen=True)
class CheckRequest:
    kind: str
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    dimension: int
    measure: Measure
    functions: tuple[FunctionEntry, ...]
    r: float
    R: float
    r0: float
    checks: tuple[CheckRequest, ...]
    quad: QuadSpec
    grid: int
    expect_fail: frozenset[str] = frozenset()


def _parse_radii(data, path: str) -> tuple[float, float, float]:
    expect_object(data, path, ("r", "R"), ("r0",))
    r = expect_number(data["r"], f"{path}.r")
    R = expect_number(data["R"], f"{path}.R")
    r0 = expect_number(data["r0"], f"{path}.r0", positive=True) if "r0" in data else r
    if not 0.0 < r < R:
        raise ScenarioError(f"{path}: need 0 < r < R, got r={r}, R={R}")
    return r, R, r0


def _parse_quad(data, path: str) -> QuadSpec:
    if data is None:
        return QuadSpec()
    defaults = {f.name: f.default for f in dataclass_fields(QuadSpec)}
    expect_object(data, path, (), defaults)
    # The integer field need only be a JSON integer here; QuadSpec checks its ceiling.
    kwargs = {key: expect_int(value, f"{path}.{key}", 8) if isinstance(defaults[key], int)
              else expect_number(value, f"{path}.{key}")
              for key, value in data.items()}
    try:
        return QuadSpec(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_functions(data, dimension: int, path: str) -> tuple[FunctionEntry, ...]:
    entries = []
    for i, raw in enumerate(expect_list(data, path)):
        p = f"{path}[{i}]"
        expect_object(raw, p, (), ("label", "dimension", "charges", "harmonic", "rational"))
        body = dict(raw)
        label = body.pop("label", f"f{i}")
        if not isinstance(label, str) or not _NAME_RE.match(label):
            raise ScenarioError(f"{p}.label: expected a short identifier")
        u = dsh_from_json(body, path=p)
        if u.dimension != dimension:
            raise ScenarioError(f"{p}: function dimension {u.dimension} "
                                f"differs from scenario dimension {dimension}")
        rat = (rational_from_json(body["rational"], path=f"{p}.rational")
               if "rational" in body else None)
        entries.append(FunctionEntry(label, u, rat))
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        raise ScenarioError(f"{path}: duplicate function labels")
    return tuple(entries)


def _parse_checks(data, functions: tuple[FunctionEntry, ...], dimension: int,
                  r: float, R: float, path: str) -> tuple[CheckRequest, ...]:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{path}: expected a nonempty list of checks")
    out = []
    for i, raw in enumerate(data):
        p = f"{path}[{i}]"
        body = {"check": raw} if isinstance(raw, str) else raw
        kind = body.get("check") if isinstance(body, dict) else body
        if kind not in CHECK_KINDS:
            raise ScenarioError(f"{p}: expected a check name from "
                                f"{', '.join(CHECK_KINDS)}, got {kind!r}")
        expect_object(body, p, ("check",), _CHECK_OPTIONS[kind])
        options = {key: value for key, value in body.items() if key != "check"}
        if kind in ("statement_II", "poisson_jensen") and not functions:
            raise ScenarioError(f"{p}: {kind} requires at least one function")
        if kind == "corollary":
            if dimension != 2:
                raise ScenarioError(f"{p}: corollary requires dimension 2")
            if not any(e.rational is not None for e in functions):
                raise ScenarioError(f"{p}: corollary requires a rational function")
        if "R_star" in options:
            r_star = expect_number(options["R_star"], f"{p}.R_star")
            if not r < r_star < R:
                raise ScenarioError(f"{p}.R_star: must lie strictly between r and R")
            options["R_star"] = r_star
        if "t_cap" in options:
            options["t_cap"] = expect_number(options["t_cap"], f"{p}.t_cap", positive=True)
        if "points" in options:
            pts = options["points"]
            if not isinstance(pts, list) or not pts:
                raise ScenarioError(f"{p}.points: expected a nonempty list of points")
            for j, pt in enumerate(pts):
                pt = expect_point(pt, dimension, f"{p}.points[{j}]")
                if math.hypot(*pt) >= R:
                    raise ScenarioError(f"{p}.points[{j}]: must lie strictly inside radius R")
        out.append(CheckRequest(kind, options))
    return tuple(out)


def expect_grid(value, dimension: int, path: str) -> int:
    """Validate a scan grid resolution: an integer >= 3 whose lattice of
    grid**d points stays within MAX_SCAN_POINTS where scans run (d in {2, 3})."""
    grid = expect_int(value, path, 3)
    if dimension in (2, 3) and grid ** dimension > MAX_SCAN_POINTS:
        raise ScenarioError(f"{path}: grid**{dimension} must be at most {MAX_SCAN_POINTS}, "
                            f"got {grid}")
    return grid


def scenario_from_json(data, *, path: str = "scenario") -> Scenario:
    """Validate a parsed scenario file; every error is a ScenarioError."""
    try:
        return _parse_scenario(data, path)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_scenario(data, path: str) -> Scenario:
    expect_object(data, path, ("name", "dimension", "measure", "radii", "checks"),
                  ("functions", "quad", "grid", "expect_fail"))
    name = data["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(f"{path}.name: expected letters, digits, '_', '-', '.'")
    dimension = expect_int(data["dimension"], f"{path}.dimension", 2)
    measure = measure_from_json(data["measure"], path=f"{path}.measure")
    if measure.dimension != dimension:
        raise ScenarioError(f"{path}.measure.dimension: differs from scenario dimension")
    functions = _parse_functions(data.get("functions"), dimension, f"{path}.functions")
    r, R, r0 = _parse_radii(data["radii"], f"{path}.radii")
    checks = _parse_checks(data["checks"], functions, dimension, r, R,
                           f"{path}.checks")
    quad = _parse_quad(data.get("quad"), f"{path}.quad")
    grid = expect_grid(data.get("grid", DEFAULT_RESOLUTION), dimension, f"{path}.grid")
    expect_raw = expect_list(data.get("expect_fail"), f"{path}.expect_fail")
    for i, entry in enumerate(expect_raw):
        if entry not in CHECK_KINDS:
            raise ScenarioError(f"{path}.expect_fail[{i}]: unknown check {entry!r}")
    return Scenario(name, dimension, measure, functions, r, R, r0, checks,
                    quad, grid, frozenset(expect_raw))


def read_scenario_json(path: str | Path):
    """The parsed JSON of a scenario file, not yet validated."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"{p}: cannot read scenario file ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: invalid JSON ({exc})") from None


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_json(read_scenario_json(path), path=Path(path).stem)

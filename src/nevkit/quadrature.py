"""Numerical integration: adaptive 1-D rules with declared singular points,
circle and sphere means, and Riemann-Stieltjes integrals against monotone
counting functions.

Circle means use the periodic trapezoid rule (spectrally accurate for smooth
integrands) with a node-doubling convergence check.  Integrands that are
kinked or singular on the circle either get declared singular angles, in
which case the adaptive rule splits there directly, or fail the doubling
check and fall back to the adaptive rule.  Planar positive-part means locate
their kinks (the sign changes of the function) and integrate between them
with Gauss-Legendre rules before any fallback.  Sphere means in dimension 3
use a Gauss-Legendre (polar) x trapezoid (azimuthal) product rule with the
same doubling check.  Non-convergence is always flagged, never silently
absorbed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import elementwise

from .kernels import as_point, validate_dimension

TWO_PI = 2.0 * math.pi

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# Gauss-Legendre nodes per positive arc in the coarse rule of a kinked planar
# positive-part mean; the fine rule uses twice as many.
_ARC_NODES = 128


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


# Caps on the integer QuadSpec fields.  scipy's quad allocates work arrays of
# max_subdivisions entries (and cannot take a number beyond a C long), and the
# node counts size the circle grids and the polar x azimuth sphere grids.
MAX_SUBDIVISIONS = 2 ** 20
MAX_GRID_NODES = 2 ** 20


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances, budgets, and node counts for all integration in the package."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2 ** 15
    circle_nodes: int = 512
    polar_nodes: int = 64
    azimuth_nodes: int = 128

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):  # NaN fails too
            raise ValueError("QuadSpec tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("QuadSpec.max_subdivisions must be at least 8")
        if min(self.circle_nodes, self.polar_nodes, self.azimuth_nodes) < 4:
            raise ValueError("QuadSpec node counts must be at least 4")
        if self.max_subdivisions > MAX_SUBDIVISIONS:
            raise ValueError(f"QuadSpec.max_subdivisions must be at most {MAX_SUBDIVISIONS}")
        if self.circle_nodes > MAX_GRID_NODES:
            raise ValueError(f"QuadSpec.circle_nodes must be at most {MAX_GRID_NODES}")
        if self.polar_nodes * self.azimuth_nodes > MAX_GRID_NODES:
            raise ValueError("QuadSpec.polar_nodes * azimuth_nodes must be at most "
                             f"{MAX_GRID_NODES}")


DEFAULT_SPEC = QuadSpec()


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with an error estimate and a convergence flag."""

    value: float
    error: float
    converged: bool


class QuadratureError(RuntimeError):
    """Raised when quadrature fails to converge and no budget collects the flag."""


class ErrorBudget:
    """Accumulates quadrature error estimates and convergence flags.

    Checks pass one budget through all their quadrature calls; the summed
    error widens the verdict tolerance and any failure forces the verdict
    to "undetermined".
    """

    def __init__(self):
        self.error = 0.0
        self.failures: list[str] = []

    def add(self, result: QuadResult, label: str = "quadrature") -> QuadResult:
        if math.isfinite(result.error):
            self.error += result.error
        if not result.converged:
            self.failures.append(label)
        return result

    @property
    def ok(self) -> bool:
        return not self.failures


def integrate_1d(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC, *,
                 points=(), budget: ErrorBudget | None = None,
                 label: str = "integrate_1d") -> QuadResult:
    """Adaptive integral of f over [a, b], splitting at declared singular points.

    The integrand is never evaluated exactly at the interior ``points`` or at
    the interval endpoints, so integrable endpoint singularities are fine.
    """
    if not a < b:
        raise ValueError(f"integrate_1d needs a < b, got [{a}, {b}]")
    interior = sorted({float(p) for p in points if a < p < b})
    kwargs = {
        "epsabs": spec.abs_tol,
        "epsrel": spec.rel_tol,
        "limit": spec.max_subdivisions,
        "full_output": 1,
    }
    if interior:
        kwargs["points"] = interior
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, **kwargs)
    value = float(out[0])
    error = float(out[1])
    converged = len(out) == 3 and math.isfinite(value) and math.isfinite(error)
    result = QuadResult(value, error, converged)
    if budget is not None:
        budget.add(result, label)
    return result


def circle_points(center: np.ndarray, radius: float, n: int, shift: float = 0.0) -> np.ndarray:
    """n equispaced points on the circle, offset by ``shift`` node fractions."""
    theta = (np.arange(n) + shift) * (TWO_PI / n)
    return center + radius * np.column_stack((np.cos(theta), np.sin(theta)))


def _adaptive_circle_mean(f, center, radius, spec, singular_angles, label):
    angles = sorted(float(a) % TWO_PI for a in (singular_angles or ()))
    if angles:
        # Start the period at a singular angle: interval endpoints are never
        # evaluated, and the remaining angles become declared split points.
        a0 = angles[0]
        interior = [t for t in (a + TWO_PI if a <= a0 else a for a in angles[1:])
                    if a0 < t < a0 + TWO_PI]
    else:
        a0 = 0.0
        interior = []

    def g(theta: float) -> float:
        p = center + radius * np.array([math.cos(theta), math.sin(theta)])
        return float(np.asarray(f(p[np.newaxis, :]), dtype=float)[0])

    res = integrate_1d(g, a0, a0 + TWO_PI, spec, points=interior, label=label)
    return QuadResult(res.value / TWO_PI, res.error / TWO_PI, res.converged)


def _doubling_check(fine: np.ndarray, spec: QuadSpec) -> QuadResult | None:
    """Trapezoid mean of values on an even grid, checked against the rule on
    every other node; None when the two miss the spec's tolerance."""
    i_fine = float(np.mean(fine))
    i_coarse = float(np.mean(fine[::2]))
    err = abs(i_fine - i_coarse)
    if err > max(spec.abs_tol, spec.rel_tol * abs(i_fine)):
        return None
    return QuadResult(i_fine, max(err, 1e-16 * abs(i_fine)), True)


def circle_mean(f, center, radius: float, spec: QuadSpec = DEFAULT_SPEC, *,
                budget: ErrorBudget | None = None, singular_angles=None,
                label: str = "circle-mean") -> QuadResult:
    """Mean of f over the circle |x - center| = radius.

    f maps (n, 2) point arrays to (n,) value arrays.  With singular angles
    supplied the adaptive rule is used directly.  Otherwise the trapezoid
    rule on 2 * ``spec.circle_nodes`` nodes is checked against the rule on
    every other node; a non-finite node triggers one half-step grid
    rotation, and a finite but non-converged doubling check falls back to
    the adaptive rule.
    """
    center = as_point(center, 2)
    if radius <= 0.0:
        raise ValueError("circle_mean: radius must be positive")
    if singular_angles:
        result = _adaptive_circle_mean(f, center, radius, spec, singular_angles, label)
        if budget is not None:
            budget.add(result, label)
        return result

    n = 2 * spec.circle_nodes
    for shift in (0.0, 0.5):
        fine = np.asarray(f(circle_points(center, radius, n, shift)), dtype=float)
        if np.all(np.isfinite(fine)):
            result = _doubling_check(fine, spec)
            if result is None:
                result = _adaptive_circle_mean(f, center, radius, spec, None, label)
            break
    else:
        # Non-finite values on both the original and the rotated grid.
        result = QuadResult(math.nan, math.inf, False)
    if budget is not None:
        budget.add(result, label)
    return result


def _sphere3_product_mean(f, center, radius, n_polar, n_azimuth, shift):
    u, w = _leggauss(n_polar)
    phi = (np.arange(n_azimuth) + shift) * (TWO_PI / n_azimuth)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    x = radius * np.outer(su, np.cos(phi))
    y = radius * np.outer(su, np.sin(phi))
    z = radius * np.repeat(u[:, np.newaxis], n_azimuth, axis=1)
    pts = np.column_stack((x.ravel(), y.ravel(), z.ravel())) + center
    vals = np.asarray(f(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        return None
    grid = vals.reshape(n_polar, n_azimuth)
    return float(np.dot(w, grid.sum(axis=1)) / (2.0 * n_azimuth))


def _sphere3_mean(f, center, radius, spec, label):
    # Retry ladder: plain grid, rotated azimuth, then a different polar rule.
    attempts = (
        (spec.polar_nodes, spec.azimuth_nodes, 0.0),
        (spec.polar_nodes, spec.azimuth_nodes, 0.5),
        (spec.polar_nodes + 1, spec.azimuth_nodes, 0.5),
    )
    for n_pol, n_azi, shift in attempts:
        coarse = _sphere3_product_mean(f, center, radius, n_pol, n_azi, shift)
        if coarse is None:
            continue
        fine = _sphere3_product_mean(f, center, radius, 2 * n_pol, 2 * n_azi, shift)
        if fine is None:
            continue
        err = abs(fine - coarse)
        converged = err <= max(spec.abs_tol, spec.rel_tol * abs(fine))
        return QuadResult(fine, max(err, 1e-16 * abs(fine)), converged)
    return QuadResult(math.nan, math.inf, False)


def _settle(result: QuadResult, budget: ErrorBudget | None, label: str) -> float:
    """Charge ``result`` to the budget, or raise on failure when there is none."""
    if budget is not None:
        budget.add(result, label)
    elif not result.converged:
        raise QuadratureError(
            f"{label} failed to converge (value {result.value}, error {result.error})")
    return result.value


def sphere_mean(f, r: float, d: int, spec: QuadSpec = DEFAULT_SPEC, *,
                center=None, budget: ErrorBudget | None = None,
                singular_angles=None, label: str = "sphere-mean") -> float:
    """Mean of f over the sphere of radius r about ``center`` (d in {2, 3}).

    f maps (n, d) point arrays to (n,) value arrays.  On non-convergence the
    failure is flagged in ``budget`` when one is supplied and raised as
    QuadratureError otherwise.  ``singular_angles`` applies to d = 2 only.
    """
    d = validate_dimension(d)
    if d not in (2, 3):
        raise ValueError("sphere means are provided for d in {2, 3} only")
    if r <= 0.0:
        raise ValueError("sphere_mean: radius must be positive")
    center = np.zeros(d) if center is None else as_point(center, d)
    if d == 2:
        result = circle_mean(f, center, r, spec, singular_angles=singular_angles,
                             label=label)
    else:
        result = _sphere3_mean(f, center, r, spec, label)
    return _settle(result, budget, label)


def positive_part_mean(g, r: float, d: int, spec: QuadSpec = DEFAULT_SPEC, *,
                       center=None, budget: ErrorBudget | None = None,
                       singular_angles=None, label: str = "positive-part") -> float:
    """Mean of max(g, 0) over the sphere of radius r about ``center``.

    g maps (n, d) point arrays to (n,) value arrays.  For d = 3 this is
    ``sphere_mean`` of max(g, 0).  In the plane the trapezoid doubling check
    of ``circle_mean`` runs first.  If it fails, the sign changes of g
    between neighbouring nodes are refined to roots (Chandrupatla's method),
    and the arcs on which g is positive are integrated with Gauss-Legendre
    rules of ``_ARC_NODES`` and of twice as many nodes, whose difference is
    the error estimate.  The adaptive rule, split at the roots, takes over
    when that estimate misses tolerance, and handles declared singular
    angles directly.  Failures are flagged or raised as in ``sphere_mean``.
    """
    def plus(pts: np.ndarray) -> np.ndarray:
        return np.maximum(g(pts), 0.0)

    if validate_dimension(d) != 2:
        return sphere_mean(plus, r, d, spec, center=center, budget=budget, label=label)
    if r <= 0.0:
        raise ValueError("positive_part_mean: radius must be positive")
    center = np.zeros(2) if center is None else as_point(center, 2)

    def g_at(theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        pts = center + r * np.column_stack((np.cos(flat), np.sin(flat)))
        return np.asarray(g(pts), dtype=float).reshape(theta.shape)

    # circle_mean's grids and doubling check, on one evaluation of g.
    n = 2 * spec.circle_nodes
    for shift in (0.0,) if singular_angles else (0.0, 0.5):
        theta = (np.arange(n) + shift) * (TWO_PI / n)
        values = g_at(theta)
        if singular_angles:
            break
        fine = np.maximum(values, 0.0)
        if np.all(np.isfinite(fine)):
            result = _doubling_check(fine, spec)
            if result is not None:
                return _settle(result, budget, label)
            break
    else:
        # Non-finite values on both the original and the rotated grid.
        return _settle(QuadResult(math.nan, math.inf, False), budget, label)
    roots = _sign_change_roots(g_at, theta, values)
    result = None
    if roots.size and not singular_angles:
        result = _positive_arc_mean(g_at, roots, spec)
    if result is None:
        angles = (*(singular_angles or ()), *roots[np.isfinite(roots)])
        result = _adaptive_circle_mean(plus, center, r, spec, angles, label)
    return _settle(result, budget, label)


def _sign_change_roots(g_at, theta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Roots of g(theta) in each grid cell (cyclically) whose ends differ in
    sign, in increasing order; cells with a non-finite end are skipped."""
    right = np.roll(values, -1)
    ends = np.append(theta[1:], theta[0] + TWO_PI)
    cells = (np.isfinite(values) & np.isfinite(right)
             & ((values > 0.0) != (right > 0.0)))
    if not cells.any():
        return np.empty(0)
    return np.asarray(elementwise.find_root(g_at, (theta[cells], ends[cells])).x,
                      dtype=float)


def _positive_arc_mean(g_at, roots: np.ndarray, spec: QuadSpec) -> QuadResult | None:
    """Gauss-Legendre mean of max(g, 0) over the arcs between consecutive
    roots whose midpoint has g > 0; None when the roots are unusable or the
    two rules disagree by more than the spec's tolerance."""
    if roots.size % 2 or not np.all(np.isfinite(roots)):
        return None
    ends = np.append(roots[1:], roots[0] + TWO_PI)
    mid = 0.5 * (roots + ends)
    positive = g_at(mid) > 0.0
    mid = mid[positive, np.newaxis]
    half = 0.5 * (ends - roots)[positive]
    means = []
    for k in (_ARC_NODES, 2 * _ARC_NODES):
        x, w = _leggauss(k)
        vals = np.maximum(g_at(mid + half[:, np.newaxis] * x), 0.0)
        means.append(float(np.dot(half, vals @ w)) / TWO_PI)
    coarse, fine = means
    err = abs(fine - coarse)
    if not (math.isfinite(fine) and err <= max(spec.abs_tol, spec.rel_tol * abs(fine))):
        return None
    return QuadResult(fine, max(err, 1e-16 * abs(fine)), True)


def stieltjes_against_jumps(g, h, a: float, b: float) -> float:
    """Riemann-Stieltjes integral of g against a nondecreasing h over (a, b].

    h exposes ``jumps``, pairs (t_i, dh_i) taken exactly, never discretized.
    g may be infinite at a jump point; the infinity then propagates through
    the extended-real sum.
    """
    if a > b:
        raise ValueError(f"stieltjes_against_jumps needs a <= b, got [{a}, {b}]")
    return float(sum(g(t) * dh for t, dh in h.jumps if a < t <= b))

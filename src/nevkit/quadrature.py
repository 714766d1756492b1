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
same doubling check.  Positive-part means in dimension 3 whose function
changes sign on that grid turn the polar axis to the centroid of the
positive part and integrate one meridian at a time: Gauss-Legendre between
the roots along each meridian, and the trapezoid rule across meridians, which
converges fast because no meridian is tangent to the zero curve.
Non-convergence is always flagged, never silently absorbed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.optimize import elementwise

from .kernels import as_point, validate_dimension

TWO_PI = 2.0 * math.pi

# Gauss-Legendre nodes per positive arc in the coarse rule of a kinked planar
# positive-part mean; the fine rule uses twice as many.
_ARC_NODES = 128

# The meridian rule of a 3-D positive-part mean.  It starts with _MERIDIANS
# meridians in the fine azimuthal trapezoid (the coarse one takes every
# other), each sampled for sign changes at _SIGN_NODES polar angles, and
# _SEGMENT_NODES Gauss-Legendre nodes per positive polar segment in the coarse
# polar rule (the fine one has twice as many).  Each further rung doubles the
# nodes when the polar error dominates and the meridians otherwise, up to
# _MAX_SEGMENT_NODES in the fine polar rule and _MAX_MERIDIANS.  Roots are refined to _ROOT_XATOL radians: a root off by delta moves a
# segment integral by about |dg/dtheta| delta**2 / 2, and the default
# tolerance of a few ulps can take three times as many iterations.  A sign
# class whose area-weighted centroid is shorter than _CENTROID_RTOL times its
# area gives no pole.
_MERIDIANS = 128
_MAX_MERIDIANS = 1024
_SIGN_NODES = 33
_SEGMENT_NODES = 16
_MAX_SEGMENT_NODES = 256
_ROOT_XATOL = 1e-12
_CENTROID_RTOL = 1e-8


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Node sets are cached, and every caller shares the same arrays, so they are
# read-only.  The package uses about a dozen Gauss-Legendre rules and six
# sphere grids (the retry ladder's three, each with its doubled check).
@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(x), _read_only(w)


# The fixed grids: circle means check the trapezoid rule on 2 * _CIRCLE_NODES
# nodes against every other node, and sphere means in R^3 check the
# _POLAR_NODES x _AZIMUTH_NODES product rule against the doubled grid.
_CIRCLE_NODES = 512
_POLAR_NODES = 64
_AZIMUTH_NODES = 128

# scipy's quad allocates work arrays of max_subdivisions entries (and cannot
# take a number beyond a C long).
MAX_SUBDIVISIONS = 2 ** 20


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and the adaptive rule's budget for all integration in the package."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2 ** 15

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):  # NaN fails too
            raise ValueError("QuadSpec tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("QuadSpec.max_subdivisions must be at least 8")
        if self.max_subdivisions > MAX_SUBDIVISIONS:
            raise ValueError(f"QuadSpec.max_subdivisions must be at most {MAX_SUBDIVISIONS}")


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
    rule on 2 * ``_CIRCLE_NODES`` nodes is checked against the rule on
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

    n = 2 * _CIRCLE_NODES
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


@lru_cache(maxsize=8)
def _sphere3_directions(n_polar: int, n_azimuth: int, shift: float) -> np.ndarray:
    """Unit vectors of the Gauss-Legendre (polar) x trapezoid (azimuthal)
    product grid, polar-major, as a read-only (n_polar * n_azimuth, 3) array."""
    u, _ = _leggauss(n_polar)
    phi = (np.arange(n_azimuth) + shift) * (TWO_PI / n_azimuth)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return _read_only(np.column_stack((np.outer(su, np.cos(phi)).ravel(),
                                       np.outer(su, np.sin(phi)).ravel(),
                                       np.repeat(u, n_azimuth))))


@lru_cache(maxsize=8)
def _sphere3_area(n_polar: int, n_azimuth: int) -> np.ndarray:
    """Polar Gauss-Legendre weights of the product grid's nodes, polar-major,
    read-only (they sum to 2 * n_azimuth)."""
    return _read_only(np.repeat(_leggauss(n_polar)[1], n_azimuth))


def _sphere3_grid_mean(vals: np.ndarray, n_polar: int, n_azimuth: int) -> float | None:
    """Product-rule mean of f's values on the polar-major product grid."""
    if not np.all(np.isfinite(vals)):
        return None
    grid = vals.reshape(n_polar, n_azimuth)
    return float(np.dot(_leggauss(n_polar)[1], grid.sum(axis=1)) / (2.0 * n_azimuth))


def _sphere3_product_mean(f, center, radius, n_polar, n_azimuth, shift):
    pts = radius * _sphere3_directions(n_polar, n_azimuth, shift) + center
    return _sphere3_grid_mean(np.asarray(f(pts), dtype=float), n_polar, n_azimuth)


def _sphere3_mean(f, center, radius, spec, first=None):
    """Product-rule mean with a doubling check; ``first`` is f's values on
    the first attempt's coarse and fine grids when the caller has them
    already (the fine ones are read only when the coarse ones are finite)."""
    # Retry ladder: plain grid, rotated azimuth, then a different polar rule.
    attempts = (
        (_POLAR_NODES, _AZIMUTH_NODES, 0.0),
        (_POLAR_NODES, _AZIMUTH_NODES, 0.5),
        (_POLAR_NODES + 1, _AZIMUTH_NODES, 0.5),
    )
    for i, (n_pol, n_azi, shift) in enumerate(attempts):
        given = i == 0 and first is not None
        if given:
            coarse = _sphere3_grid_mean(first[0], n_pol, n_azi)
        else:
            coarse = _sphere3_product_mean(f, center, radius, n_pol, n_azi, shift)
        if coarse is None:
            continue
        if given:
            fine = _sphere3_grid_mean(first[1], 2 * n_pol, 2 * n_azi)
        else:
            fine = _sphere3_product_mean(f, center, radius, 2 * n_pol, 2 * n_azi, shift)
        if fine is None:
            continue
        err = abs(fine - coarse)
        converged = err <= max(spec.abs_tol, spec.rel_tol * abs(fine))
        return QuadResult(fine, max(err, 1e-16 * abs(fine)), converged)
    return QuadResult(math.nan, math.inf, False)


def _sphere3_positive_mean(g, center, radius, spec) -> QuadResult:
    """Mean of max(g, 0) over a sphere in R^3 (see ``positive_part_mean``)."""
    coarse = _product_grid(g, center, radius, _POLAR_NODES, _AZIMUTH_NODES)
    result = _meridian_mean_on_grid(g, center, radius, spec, *coarse)
    if result is not None:
        return result
    fine = None
    if np.all(np.isfinite(coarse[2])):
        fine = _product_grid(g, center, radius, 2 * _POLAR_NODES, 2 * _AZIMUTH_NODES)
    product = _sphere3_mean(lambda pts: np.maximum(g(pts), 0.0), center, radius, spec,
                            first=(np.maximum(coarse[2], 0.0),
                                   None if fine is None else np.maximum(fine[2], 0.0)))
    if not product.converged and fine is not None:
        # The doubling check saw what the coarse grid missed, such as a
        # patch of one sign narrower than its spacing: look again on the
        # fine grid.
        result = _meridian_mean_on_grid(g, center, radius, spec, *fine)
        if result is not None:
            return result
    return product


def _product_grid(g, center, radius, n_polar, n_azimuth):
    """Unit directions, area weights and values of g on the product grid
    (shift 0), polar-major."""
    dirs = _sphere3_directions(n_polar, n_azimuth, 0.0)
    area = _sphere3_area(n_polar, n_azimuth)
    return dirs, area, np.asarray(g(radius * dirs + center), dtype=float)


def _meridian_mean_on_grid(g, center, radius, spec, dirs, area, values):
    """The meridian rule about a pole taken from g's values on a product
    grid, or None when g keeps one sign there or no pole holds."""
    positive = values > 0.0
    if np.all(np.isfinite(values)) and positive.any() and not positive.all():
        for pole in _poles(dirs, values, positive, area):
            result = _meridian_mean(g, center, radius, pole, spec, dirs, positive)
            if result is not None:
                return result
    return None


def _poles(dirs, values, positive, area):
    """Polar axes for the meridian rule, in the order to try them: the
    area-weighted centroid of the nodes where g > 0, unless it is too short
    to give a direction, then the node of the smaller sign class where |g|
    is largest.  (The centroid of the other nodes would only reverse the
    first axis: the grid's weighted directions sum to zero.)"""
    centroid = area[positive] @ dirs[positive]
    norm = float(np.linalg.norm(centroid))
    if norm > _CENTROID_RTOL * float(area[positive].sum()):
        yield centroid / norm
    smaller = positive if area[positive].sum() <= area[~positive].sum() else ~positive
    node = dirs[np.argmax(np.where(smaller, np.abs(values), -1.0))]
    yield node / np.linalg.norm(node)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    return np.stack((even, odd), axis=1).reshape(-1, *even.shape[1:])


def _meridian_mean(g, center, radius, pole, spec, dirs, positive) -> QuadResult | None:
    """Mean of max(g, 0) over the sphere, one meridian about ``pole`` at a time.

    None when the meridians do not all cross g = 0 the same number of times
    on their sign grid, when a node of the product grid (unit directions
    ``dirs``, where g > 0 at ``positive``) has a sign that its own meridian's
    segments deny, or when a value or root is not finite; a result that
    still misses tolerance at both caps is flagged as failed.
    """
    e1 = np.cross(pole, np.eye(3)[np.argmin(np.abs(pole))])
    e1 /= np.linalg.norm(e1)
    # Rows: the scaled frame (e1, e2, pole), so frame coordinates map to points.
    frame = radius * np.array([e1, np.cross(pole, e1), pole])
    theta = np.linspace(0.0, math.pi, _SIGN_NODES)

    def at(t, phi) -> np.ndarray:
        """g at polar angles t on the meridians phi (broadcast together)."""
        s = np.sin(t)
        shape = np.broadcast_shapes(np.shape(t), np.shape(phi))
        local = [np.broadcast_to(v, shape).ravel()
                 for v in (s * np.cos(phi), s * np.sin(phi), np.cos(t))]
        pts = np.empty((local[0].size, 3))
        for j in range(3):
            pts[:, j] = (local[0] * frame[0, j] + local[1] * frame[1, j]
                         + local[2] * frame[2, j] + center[j])
        return np.asarray(g(pts), dtype=float).reshape(shape)

    crossings = None

    def sign_changes(t, phi):
        """Where g > 0 changes along each row of polar angles t on the
        meridians phi, or None when a value is not finite."""
        values = at(t, phi[:, np.newaxis])
        if not np.all(np.isfinite(values)):
            return None
        signs = values > 0.0
        return signs, signs[:, 1:] != signs[:, :-1]

    def positive_segments(phi):
        """Polar bounds (lo, hi) of the segments where g > 0, one row per
        meridian, or None unless every meridian has as many roots as the
        first one had."""
        nonlocal crossings
        changes = sign_changes(theta, phi)
        if changes is None:
            return None
        signs, cells = changes
        counts = cells.sum(axis=1)
        if crossings is None:
            crossings = int(counts[0])
        if crossings == 0 or np.any(counts != crossings):
            return None
        rows, cols = np.nonzero(cells)
        roots = np.asarray(elementwise.find_root(
            at, (theta[cols], theta[cols + 1]), args=(phi[rows],),
            tolerances={"xatol": _ROOT_XATOL}).x, dtype=float)
        if not np.all(np.isfinite(roots)):
            return None
        # The segments alternate in sign from the pole's, which all share.
        edges = np.column_stack((np.zeros(len(phi)), roots.reshape(len(phi), -1),
                                 np.full(len(phi), math.pi)))
        first = 0 if signs[0, 0] else 1
        return edges[:, first:-1:2], edges[:, first + 1::2]

    def polar(n: int, phi, lo, hi) -> np.ndarray:
        """n-node Gauss-Legendre integrals of max(g, 0) sin(theta) over the
        positive segments of each meridian."""
        x, w = _leggauss(n)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[..., np.newaxis] + half[..., np.newaxis] * x
        vals = np.maximum(at(t, phi[:, np.newaxis, np.newaxis]), 0.0) * np.sin(t)
        return (half * (vals @ w)).sum(axis=1)

    def agrees_with_grid(lo, hi) -> bool:
        """Whether every product-grid node has the sign that the segments
        give it on its own meridian.  A patch of one sign can slip between
        the sign grid's polar angles; if a product node lies in it, this
        sees it.  Nodes on the same side of the roots on both neighbouring
        meridians pass; each other node must leave the crossing count of
        its own meridian's sign grid unchanged."""
        local = dirs @ (frame.T / radius)
        t = np.arccos(np.clip(local[:, 2], -1.0, 1.0))
        p = np.arctan2(local[:, 1], local[:, 0]) % TWO_PI
        left = np.minimum((p * (_MERIDIANS / TWO_PI)).astype(int), _MERIDIANS - 1)
        doubt = np.zeros(len(t), dtype=bool)
        for j in (left, (left + 1) % _MERIDIANS):
            inside = ((lo[j] <= t[:, np.newaxis]) & (t[:, np.newaxis] <= hi[j])).any(axis=1)
            doubt |= inside != positive
        if not doubt.any():
            return True
        rows = np.sort(np.column_stack((np.broadcast_to(theta, (int(doubt.sum()), theta.size)),
                                        t[doubt])), axis=1)
        changes = sign_changes(rows, p[doubt])
        return changes is not None and bool(np.all(changes[1].sum(axis=1) == crossings))

    nodes = _SEGMENT_NODES
    phi = np.arange(_MERIDIANS) * (TWO_PI / _MERIDIANS)
    segments = positive_segments(phi)
    if segments is None or not agrees_with_grid(*segments):
        return None
    coarse, fine = polar(nodes, phi, *segments), polar(2 * nodes, phi, *segments)
    while True:
        # Trapezoid in phi: fine uses every meridian, coarse every other one.
        value = float(fine.sum()) / (2 * len(phi))
        if not math.isfinite(value):
            return None
        err_phi = abs(value - float(fine[::2].sum()) / len(phi))
        err_polar = float(np.abs(fine - coarse).sum()) / (2 * len(phi))
        err = err_phi + err_polar
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return QuadResult(value, max(err, 1e-16 * abs(value)), True)
        if err_polar > err_phi and 2 * nodes < _MAX_SEGMENT_NODES:
            nodes *= 2
            coarse, fine = fine, polar(2 * nodes, phi, *segments)
        elif len(phi) < _MAX_MERIDIANS:
            # Halve the azimuthal step; the meridians so far keep their roots
            # and polar integrals.
            mid_phi = phi + math.pi / len(phi)
            mid_segments = positive_segments(mid_phi)
            if mid_segments is None:
                return None
            coarse = _interleave(coarse, polar(nodes, mid_phi, *mid_segments))
            fine = _interleave(fine, polar(2 * nodes, mid_phi, *mid_segments))
            segments = tuple(map(_interleave, segments, mid_segments))
            phi = _interleave(phi, mid_phi)
        else:
            return QuadResult(value, err, False)


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
        result = _sphere3_mean(f, center, r, spec)
    return _settle(result, budget, label)


def positive_part_mean(g, r: float, d: int, spec: QuadSpec = DEFAULT_SPEC, *,
                       center=None, budget: ErrorBudget | None = None,
                       singular_angles=None, label: str = "positive-part") -> float:
    """Mean of max(g, 0) over the sphere of radius r about ``center``.

    g maps (n, d) point arrays to (n,) value arrays.  Failures are flagged
    or raised as in ``sphere_mean``.

    In the plane g is evaluated on ``circle_mean``'s grid first.  Where it
    keeps one sign there, the trapezoid doubling check may settle the mean.
    Otherwise the sign changes of g between neighbouring nodes are
    refined to roots (Chandrupatla's method), and the arcs on which g is
    positive are integrated with Gauss-Legendre rules of ``_ARC_NODES`` and
    of twice as many nodes, whose difference is the error estimate.  The
    adaptive rule, split at the roots, takes over when that estimate misses
    tolerance, and handles declared singular angles directly.

    For d = 3, g is first evaluated on the product grid of
    ``_POLAR_NODES`` x ``_AZIMUTH_NODES`` nodes.  Where it keeps one
    sign there, the result is ``sphere_mean`` of max(g, 0), bit for bit.
    Otherwise the polar axis goes to the area-weighted centroid of the nodes
    where g > 0, or, if that axis fails, to the node of the smaller sign
    class where |g| is largest.  An axis holds when every meridian crosses
    g = 0 equally often, at least once, on ``_SIGN_NODES`` polar angles,
    and every node of the product grid has the sign that the positive
    segments of its own meridian give it (so a patch of one sign that slips
    between the polar angles but holds a grid node turns the axis down);
    then no meridian is tangent to the zero curve.  The crossings of all
    meridians are refined to roots in one batched Chandrupatla solve, and
    g sin(theta) is integrated over each positive polar segment with
    Gauss-Legendre rules of n and 2n nodes.  The trapezoid rule over the
    meridians is checked against every other meridian; the error estimate is
    that difference plus the mean Gauss-Legendre difference.  Each rung
    doubles the nodes or the meridians, whichever error dominates, from
    ``_SEGMENT_NODES`` nodes in the coarse polar rule and ``_MERIDIANS``
    meridians up to ``_MAX_SEGMENT_NODES`` nodes in the fine polar rule and
    ``_MAX_MERIDIANS`` meridians.  With no axis
    that holds, the product rule runs.  If its doubling check fails, the
    axis search repeats on the doubled grid, which can see a patch of one
    sign that the first grid missed; failing that, the product rule's
    result and its failure stand.
    """
    def plus(pts: np.ndarray) -> np.ndarray:
        return np.maximum(g(pts), 0.0)

    d = validate_dimension(d)
    if d not in (2, 3):
        raise ValueError("sphere means are provided for d in {2, 3} only")
    if r <= 0.0:
        raise ValueError("positive_part_mean: radius must be positive")
    center = np.zeros(d) if center is None else as_point(center, d)
    if d == 3:
        return _settle(_sphere3_positive_mean(g, center, r, spec), budget, label)

    def g_at(theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        flat = theta.ravel()
        pts = center + r * np.column_stack((np.cos(flat), np.sin(flat)))
        return np.asarray(g(pts), dtype=float).reshape(theta.shape)

    # circle_mean's grids and doubling check, on one evaluation of g.
    n = 2 * _CIRCLE_NODES
    for shift in (0.0,) if singular_angles else (0.0, 0.5):
        theta = (np.arange(n) + shift) * (TWO_PI / n)
        values = g_at(theta)
        if singular_angles:
            break
        fine = np.maximum(values, 0.0)
        if np.all(np.isfinite(fine)):
            # A kink between the nodes can fool the doubling check: the
            # trapezoid errors of the two grids may agree while both are
            # wrong.  So only a grid of one sign may settle it.
            positive = values > 0.0
            if positive.all() or not positive.any():
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

"""Numerical integration: a piecewise rule over a radius with declared break
points, circle and sphere means, and Riemann-Stieltjes integrals against
monotone counting functions.

Integrals over a radius split at their break points and halve the piece
whose cosine-mapped 8-node Gauss-Legendre rule and its 17-node Kronrod
extension, which reuses the 8 Gauss nodes, disagree most.
Circle means use the periodic trapezoid rule (spectrally accurate for smooth
integrands) with a node-doubling convergence check.  Integrands that are
kinked or singular on the circle either get declared singular angles or fail
the doubling check; either way a tanh-sinh (double-exponential) rule on the
arcs between break angles takes over, evaluating the integrand on whole
arrays of nodes, one call per level.  Planar positive-part means sample the
same grid, locate their kinks (the sign changes of the function) and give
them to the tanh-sinh rule as break angles.  Sphere means in dimension 3
use a Gauss-Legendre (polar) x trapezoid (azimuthal) product rule with the
same doubling check, on a ladder of grids that doubles until the check
passes.
Positive-part means in dimension 3 whose function changes sign on that grid
turn the polar axis to the centroid of the positive part and integrate one
meridian at a time: Gauss-Legendre between the roots along each meridian,
and the trapezoid rule across meridians, which converges fast because no
meridian is tangent to the zero curve.
Non-convergence is always flagged, never silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import as_point, validate_dimension

TWO_PI = 2.0 * math.pi

# The meridian rule of a 3-D positive-part mean.  It starts with _MERIDIANS
# meridians in the fine azimuthal trapezoid (the coarse one takes every
# other), each sampled for sign changes at _SIGN_NODES polar angles, and
# _SEGMENT_NODES Gauss-Legendre nodes per positive polar segment in the coarse
# polar rule (the fine one has twice as many).  Each further rung doubles the
# nodes when the polar error dominates and the meridians otherwise, up to
# _MAX_SEGMENT_NODES in the fine polar rule and _MAX_MERIDIANS.  A sign class
# whose area-weighted centroid is shorter than _CENTROID_RTOL times its area
# gives no pole.
#
# Meridian roots are refined to _ROOT_XATOL radians (plus _bracketed_roots'
# relative _ROOT_XRTOL): a root off by delta moves a segment integral by about
# |dg/dtheta| delta**2 / 2, and the default absolute tolerance of four
# times the smallest normal number can take three times as many iterations.
_MERIDIANS = 128
_MAX_MERIDIANS = 1024
_SIGN_NODES = 33
_SEGMENT_NODES = 16
_MAX_SEGMENT_NODES = 256
_ROOT_XATOL = 1e-12
_CENTROID_RTOL = 1e-8

# The tanh-sinh rule of a planar mean split at break angles: abscissae t in
# [-_DE_SPAN, _DE_SPAN], where the outermost nodes lie about 1e-23 of their
# arc from its ends, in steps of 2**-level for levels _DE_FIRST_LEVEL up to
# _DE_MAX_LEVEL (57 to 7,169 nodes per arc).
_DE_SPAN = 3.5
_DE_FIRST_LEVEL = 3
_DE_MAX_LEVEL = 10


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Node sets are cached, and every caller shares the same arrays, so they are
# read-only.  The package uses about a dozen Gauss-Legendre rules and nine
# sphere grids (the order ladder's five and the retry rungs' four).
@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(x), _read_only(w)


# The grids: circle means check the trapezoid rule on 2 * _CIRCLE_NODES
# nodes against every other node.  Sphere means in R^3 check a product rule
# against its doubled grid, climbing from _FIRST_POLAR_NODES polar nodes (and
# the same share of the azimuthal ones) to the top pair, the
# _POLAR_NODES x _AZIMUTH_NODES grid against its double; positive-part means
# start at the top pair, whose first grid is their sign grid.
_CIRCLE_NODES = 512
_FIRST_POLAR_NODES = 8
_POLAR_NODES = 64
_AZIMUTH_NODES = 128

# Each halving in radius_integral costs 34 evaluations of its integrand, so
# 2**20 pieces is already 35 million: a larger cap would only hide a runaway.
MAX_SUBDIVISIONS = 2 ** 20
# Gauss nodes per piece of radius_integral; its Kronrod extension adds one more.
_PIECE_NODES = 8


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances for all integration in the package, and radius_integral's piece cap."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2 ** 15

    def __post_init__(self):
        # NaN fails the comparisons too.
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("QuadSpec tolerances must be positive and finite")
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


@lru_cache(maxsize=8)
def _kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the (2n + 1)-point Gauss-Kronrod rule,
    exact for polynomials of degree 3n + 1: first the n nodes of
    ``_leggauss(n)``, bit for bit, then the n + 1 nodes the extension adds,
    ascending.

    The added nodes are eigenvalues of the Jacobi-Kronrod matrix, whose
    off-diagonal comes from Laurie's algorithm (Math. Comp. 66, 1997); for
    the Legendre weight its diagonal is zero, and the sorted eigenvalues
    alternate between added and Gauss nodes.  The weights solve the moment
    equations of degree 2n in the Legendre basis.
    """
    # b[i] is the i-th recurrence coefficient: Legendre's i**2 / (4 i**2 - 1)
    # up to i = ceil(3n / 2); the second loop fills in the rest.  s and t are
    # Laurie's two rows of mixed moments.
    b = np.zeros(2 * n + 1)
    i = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[1:len(i) + 1] = i * i / (4.0 * i * i - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    eigen = np.linalg.eigvalsh(np.diag(np.sqrt(b[1:]), 1), UPLO="U")
    x = np.concatenate((_leggauss(n)[0], 0.5 * (eigen - eigen[::-1])[::2]))
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    w = np.linalg.solve(np.polynomial.legendre.legvander(x, 2 * n).T, moments)
    return _read_only(x), _read_only(w)


def _cosine_map(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A rule on [-1, 1] moved to (0, 1) by the change of variable
    u = (1 - cos phi) / 2, phi = pi (x + 1) / 2, which smooths square-root
    edges."""
    phi = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(phi)), w * (0.25 * math.pi) * np.sin(phi)


@lru_cache(maxsize=8)
def _cosine_panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights of cosine-mapped n-point Gauss-Legendre."""
    return tuple(map(_read_only, _cosine_map(*_leggauss(n))))


@lru_cache(maxsize=8)
def _cosine_kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights of the cosine-mapped ``_kronrod(n)``; its
    first n nodes are ``_cosine_panel_rule(n)``'s, bit for bit."""
    u, w = _cosine_map(*_kronrod(n))
    u[:n] = _cosine_panel_rule(n)[0]
    return _read_only(u), _read_only(w)


def radius_integral(f, lo: float, hi: float, spec: QuadSpec = DEFAULT_SPEC, *,
                    breaks=(), budget: ErrorBudget | None = None,
                    label: str = "radius-integral") -> QuadResult:
    """Integral over [lo, hi] of f, a float to a float, which may be kinked or
    integrably singular at the ``breaks``, where f is never evaluated.  Each
    piece between breaks evaluates f on the 2 ``_PIECE_NODES`` + 1 nodes of
    the cosine-mapped Gauss-Kronrod rule.  Its value is the Kronrod rule's;
    its error estimate is the difference from the Gauss rule on the first
    ``_PIECE_NODES`` of those nodes, at least 50 eps times its integral of
    |f|.  The piece with the largest estimate is halved until their sum
    meets the tolerance.  A value that is not finite, a piece at that floor
    or too narrow to halve, or ``spec.max_subdivisions`` pieces (more if the
    breaks make more) leave the result not converged."""
    if not lo < hi:
        raise ValueError(f"radius_integral needs lo < hi, got [{lo}, {hi}]")
    gauss_w = _cosine_panel_rule(_PIECE_NODES)[1]
    nodes, kronrod_w = _cosine_kronrod_rule(_PIECE_NODES)

    def piece(a: float, b: float) -> tuple[float, float, float, float, float]:
        """The piece's value, error estimate, ends and rounding floor."""
        vals = np.array([f(float(a + (b - a) * x)) for x in nodes])
        coarse = (b - a) * (gauss_w @ vals[:len(gauss_w)])
        fine, size = (b - a) * np.array([kronrod_w @ vals, kronrod_w @ np.abs(vals)])
        floor = 50.0 * _EPS * float(size)
        return float(fine), max(abs(float(fine - coarse)), floor), a, b, floor

    edges = [lo, *sorted({float(p) for p in breaks if lo < p < hi}), hi]
    pieces = [piece(a, b) for a, b in zip(edges, edges[1:])]
    while True:
        value, error = sum(p[0] for p in pieces), sum(p[1] for p in pieces)
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        converged = math.isfinite(value) and error <= tol
        if converged or not math.isfinite(error) or len(pieces) >= spec.max_subdivisions:
            break
        i = max(range(len(pieces)), key=lambda k: pieces[k][1])
        _, worst, a, b, floor = pieces[i]
        mid = 0.5 * (a + b)
        if worst <= floor or not a < mid < b:
            break
        pieces[i:i + 1] = piece(a, mid), piece(mid, b)
    result = QuadResult(value, error, converged)
    if budget is not None:
        budget.add(result, label)
    return result


def circle_points(center: np.ndarray, radius: float, n: int, shift: float = 0.0) -> np.ndarray:
    """n equispaced points on the circle, offset by ``shift`` node fractions."""
    theta = (np.arange(n) + shift) * (TWO_PI / n)
    return center + radius * np.column_stack((np.cos(theta), np.sin(theta)))


def _break_angle_mean(f, center, radius: float, breaks, spec: QuadSpec,
                      samples=None) -> QuadResult:
    """Mean of f over the circle |x - center| = radius, which may be kinked
    or integrably singular at the angles ``breaks``: the tanh-sinh rule on
    every arc between consecutive breaks.

    ``samples``, angles in [0, 2 pi) and f's values there, marks the arcs
    where f vanishes: an arc that holds samples strictly inside it, all of
    them 0, gets no nodes.  That is right for a positive part whose sign
    changes are all breaks, where an arc holding a nonpositive sample is
    nonpositive throughout.

    A node is placed as an offset from the nearer end of its arc and applied
    to that break's own direction, so the two arcs that meet at a break
    measure from the same point, and the wrap-around arc ends at the first
    break's direction, not at its angle + 2 pi.  A node within rounding of
    its break whose value is not finite has landed on the singularity there
    and is dropped.  Each level halves the step in t and evaluates f once,
    on the new nodes of every arc.  The error is the difference of the last
    two levels plus a rounding floor: 50 eps times the mean of |f| (as in
    QUADPACK's rules), and the mean's change when every node moves by its
    rounding, bounded by the variation of f along the nodes.  A mean that
    misses tolerance at _DE_MAX_LEVEL is flagged as not converged.
    """
    raw = np.asarray(breaks, dtype=float).ravel()
    ends, index = np.unique(raw % TWO_PI, return_index=True)
    lengths = np.diff(np.append(ends, ends[0] + TWO_PI))
    dirs = np.column_stack((np.cos(raw[index]), np.sin(raw[index])))
    live = np.ones(len(ends), dtype=bool)
    if samples is not None:
        angles, values = samples
        inside = ~np.isin(angles, ends)
        arc = (np.searchsorted(ends, angles[inside], side="right") - 1) % len(ends)
        live[arc] = False
        live[arc[values[inside] != 0.0]] = True
        if not live.any():
            return QuadResult(0.0, 0.0, True)
    # One row per live arc and side: the nodes near an arc's start turn its
    # own break's direction forwards, those near its end the next one's back.
    turned = np.concatenate((dirs[live], np.roll(dirs, -1, axis=0)[live]))
    span = np.concatenate((lengths[live], -lengths[live]))[:, np.newaxis]
    # How far in angle a node's rounding can move it.
    blur = _EPS * (1.0 + float(np.max(np.abs(center))) / radius)
    total = magnitude = 0.0
    for level in range(_DE_FIRST_LEVEL, _DE_MAX_LEVEL + 1):
        step = 2.0 ** -level
        first = level == _DE_FIRST_LEVEL
        # The first level takes every multiple of its step in [0, _DE_SPAN],
        # each later one the odd multiples of its own.
        t = np.arange(0.0 if first else step, _DE_SPAN + step / 2, step if first else 2 * step)
        e = np.exp(-math.pi * np.sinh(t))  # exp(-2u), u = (pi / 2) sinh t
        # Per unit of arc length, the node's distance from its break and its
        # weight: (1 - tanh u) / 2 and (pi / 4) cosh t / cosh(u)**2.
        delta = span * (e / (1.0 + e))
        weight = math.pi * np.cosh(t) * e / (1.0 + e) ** 2
        if first:
            # Both sides place the arc's midpoint (t = 0); each takes half.
            weight[0] *= 0.5
        w = step * np.abs(span) * weight
        c, s = np.cos(delta), np.sin(delta)
        u0, u1 = turned[:, :1], turned[:, 1:]
        nodes = np.stack((u0 * c - u1 * s, u1 * c + u0 * s), axis=-1)
        vals = np.asarray(f(center + radius * nodes.reshape(-1, 2)),
                          dtype=float).reshape(w.shape)
        vals = np.where(~np.isfinite(vals) & (np.abs(delta) <= 8.0 * blur), 0.0, vals)
        # A level's sum is half the last one's plus its new nodes' terms.
        previous = total
        total = 0.5 * total + float(np.sum(w * vals)) / TWO_PI
        magnitude = 0.5 * magnitude + float(np.sum(w * np.abs(vals))) / TWO_PI
        if not math.isfinite(total):
            return QuadResult(total, math.inf, False)
        if first:
            continue
        variation = float(np.abs(np.diff(vals, axis=1)).sum())
        err = abs(total - previous) + _EPS * 50.0 * magnitude + blur * variation / TWO_PI
        if err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadResult(total, err, True)
    return QuadResult(total, err, False)


def _circle_samples(f, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles of the 2 * ``_CIRCLE_NODES`` grid and f's values there; when a
    value is not finite, those of the grid rotated by half a step instead."""
    n = 2 * _CIRCLE_NODES
    for shift in (0.0, 0.5):
        theta = (np.arange(n) + shift) * (TWO_PI / n)
        values = np.asarray(f(circle_points(center, radius, n, shift)), dtype=float)
        if np.all(np.isfinite(values)):
            break
    return theta, values


def _circle_grid_mean(f, center, radius: float, theta, values, spec: QuadSpec) -> QuadResult:
    """Mean of f from ``_circle_samples``: failed when a value is not finite,
    else the trapezoid rule checked against the rule on every other node,
    and when the two miss tolerance the tanh-sinh rule with one break, at
    the node where |f| is largest."""
    if not np.all(np.isfinite(values)):
        return QuadResult(math.nan, math.inf, False)
    fine, coarse = float(np.mean(values)), float(np.mean(values[::2]))
    err = abs(fine - coarse)
    if err <= max(spec.abs_tol, spec.rel_tol * abs(fine)):
        return QuadResult(fine, max(err, 1e-16 * abs(fine)), True)
    return _break_angle_mean(f, center, radius, (theta[np.argmax(np.abs(values))],), spec)


def circle_mean(f, center, radius: float, spec: QuadSpec = DEFAULT_SPEC, *,
                budget: ErrorBudget | None = None, singular_angles=None,
                label: str = "circle-mean") -> QuadResult:
    """Mean of f over the circle |x - center| = radius.

    f maps (n, 2) point arrays to (n,) value arrays.  With singular angles
    supplied, the tanh-sinh rule split at them (``_break_angle_mean``) is
    used directly.  Otherwise f is sampled on 2 * ``_CIRCLE_NODES`` nodes
    (``_circle_samples``, which rotates the grid by half a step once if a
    value is not finite) and ``_circle_grid_mean`` settles the mean: the
    trapezoid rule checked against the rule on every other node, or, when
    that check fails, the tanh-sinh rule with one break, at the node where
    |f| is largest.
    """
    center = as_point(center, 2)
    if radius <= 0.0:
        raise ValueError("circle_mean: radius must be positive")
    if singular_angles:
        result = _break_angle_mean(f, center, radius, singular_angles, spec)
    else:
        result = _circle_grid_mean(f, center, radius, *_circle_samples(f, center, radius), spec)
    if budget is not None:
        budget.add(result, label)
    return result


@lru_cache(maxsize=16)
def _sphere3_directions(n_polar: int, n_azimuth: int, shift: float) -> np.ndarray:
    """Unit vectors of the Gauss-Legendre (polar) x trapezoid (azimuthal)
    product grid, polar-major, as a read-only (n_polar * n_azimuth, 3) array
    in column-major order, so that each coordinate is one contiguous column."""
    u, _ = _leggauss(n_polar)
    phi = (np.arange(n_azimuth) + shift) * (TWO_PI / n_azimuth)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return _read_only(np.array((np.outer(su, np.cos(phi)).ravel(),
                                np.outer(su, np.sin(phi)).ravel(),
                                np.repeat(u, n_azimuth))).T)


def sphere_grid(d: int) -> np.ndarray:
    """Unit directions of the first grid a positive-part mean in R^d
    samples: the circle grid, or in R^3 the top pair's first grid."""
    return (circle_points(np.zeros(2), 1.0, 2 * _CIRCLE_NODES) if d == 2
            else _sphere3_directions(_POLAR_NODES, _AZIMUTH_NODES, 0.0))


@lru_cache(maxsize=8)
def _sphere3_area(n_polar: int, n_azimuth: int) -> np.ndarray:
    """Polar Gauss-Legendre weights of the product grid's nodes, polar-major,
    read-only (they sum to 2 * n_azimuth)."""
    return _read_only(np.repeat(_leggauss(n_polar)[1], n_azimuth))


def _sphere3_values(f, center, radius, n_polar: int, n_azimuth: int,
                    shift: float = 0.0) -> np.ndarray:
    """f's values on the product grid, polar-major."""
    pts = radius * _sphere3_directions(n_polar, n_azimuth, shift) + center
    return np.asarray(f(pts), dtype=float)


def _sphere3_checked_mean(coarse, fine, n_polar: int, n_azimuth: int,
                          spec: QuadSpec) -> QuadResult | None:
    """Product-rule mean from f's values on the n_polar x n_azimuth grid
    and on its doubled grid, whose difference is the error; None when a
    value is not finite."""
    means = []
    for vals, n_pol, n_azi in ((coarse, n_polar, n_azimuth), (fine, 2 * n_polar, 2 * n_azimuth)):
        if not np.all(np.isfinite(vals)):
            return None
        rows = vals.reshape(n_pol, n_azi).sum(axis=1)
        means.append(float(np.dot(_leggauss(n_pol)[1], rows) / (2.0 * n_azi)))
    low, high = means
    err = abs(high - low)
    converged = err <= max(spec.abs_tol, spec.rel_tol * abs(high))
    return QuadResult(high, max(err, 1e-16 * abs(high)), converged)


def _sphere3_mean(f, center, radius, spec, climb: bool = True) -> QuadResult:
    """Product-rule mean with a doubling check.  The ladder checks each
    grid against its double, from _FIRST_POLAR_NODES polar nodes (or from
    the top pair when not ``climb``) up to the top pair, and returns the
    first pair that converges; each doubled grid is the next pair's first,
    so no grid is evaluated twice.  While a grid value is not finite the
    retry ladder moves on: plain top grid, rotated azimuth, then a
    different polar rule; a doubled grid is sampled only once the values
    on its grid are finite."""
    def azimuth(n_polar: int) -> int:
        return n_polar * _AZIMUTH_NODES // _POLAR_NODES

    n_pol = _FIRST_POLAR_NODES if climb else _POLAR_NODES
    coarse = _sphere3_values(f, center, radius, n_pol, azimuth(n_pol))
    while np.all(np.isfinite(coarse)):
        fine = _sphere3_values(f, center, radius, 2 * n_pol, azimuth(2 * n_pol))
        result = _sphere3_checked_mean(coarse, fine, n_pol, azimuth(n_pol), spec)
        if result is None:
            n_pol *= 2  # the doubled grid is the one that is not finite
            break
        if result.converged or n_pol >= _POLAR_NODES:
            return result
        coarse, n_pol = fine, 2 * n_pol
    rungs = [(_POLAR_NODES, 0.5), (_POLAR_NODES + 1, 0.5)]
    if n_pol < _POLAR_NODES:
        # The ladder stopped below the top pair, whose grids may be finite.
        rungs.insert(0, (_POLAR_NODES, 0.0))
    for n_pol, shift in rungs:
        coarse = _sphere3_values(f, center, radius, n_pol, _AZIMUTH_NODES, shift)
        if np.all(np.isfinite(coarse)):
            fine = _sphere3_values(f, center, radius, 2 * n_pol, 2 * _AZIMUTH_NODES, shift)
            result = _sphere3_checked_mean(coarse, fine, n_pol, _AZIMUTH_NODES, spec)
            if result is not None:
                return result
    return QuadResult(math.nan, math.inf, False)


def _sphere3_positive_mean(g, center, radius, spec, gradient_bound=None) -> QuadResult:
    """Mean of max(g, 0) over a sphere in R^3 (see ``positive_part_mean``)."""
    values = _sphere3_values(g, center, radius, _POLAR_NODES, _AZIMUTH_NODES)
    dirs = _sphere3_directions(_POLAR_NODES, _AZIMUTH_NODES, 0.0)
    if gradient_bound is not None and _negative_certified(gradient_bound, center, radius,
                                                          dirs, values):
        # What the product rule returns on a grid of negative values.
        return QuadResult(0.0, 0.0, True)
    result = _meridian_mean_on_grid(g, center, radius, spec, _POLAR_NODES, _AZIMUTH_NODES,
                                    values)
    if result is not None:
        return result
    plus = np.maximum(values, 0.0)
    if np.all(np.isfinite(plus)):
        fine = _sphere3_values(g, center, radius, 2 * _POLAR_NODES, 2 * _AZIMUTH_NODES)
        result = _sphere3_checked_mean(plus, np.maximum(fine, 0.0), _POLAR_NODES,
                                       _AZIMUTH_NODES, spec)
        if result is not None and not result.converged:
            # The doubling check saw what the coarse grid missed, such as a
            # patch of one sign narrower than its spacing: look again on the
            # fine grid.
            result = _meridian_mean_on_grid(g, center, radius, spec, 2 * _POLAR_NODES,
                                            2 * _AZIMUTH_NODES, fine) or result
        if result is not None:
            return result
    # A grid value is not finite: the retry ladder, from the top pair, since
    # a coarser pair can agree by chance across the kink.
    return _sphere3_mean(lambda pts: np.maximum(g(pts), 0.0), center, radius, spec,
                         climb=False)


@lru_cache(maxsize=1)
def _sphere3_cover() -> float:
    """An angle such that every point of the unit sphere lies within it of a
    node of the first product grid: the largest polar gap, the caps about
    the poles included, plus half the azimuthal step."""
    theta = np.arccos(_leggauss(_POLAR_NODES)[0][::-1])
    gaps = np.diff(np.concatenate(([0.0], theta, [math.pi])))
    return float(gaps.max()) + math.pi / _AZIMUTH_NODES


def _negative_certified(gradient_bound, center, radius, dirs, values) -> bool:
    """Whether g < 0 on the whole sphere follows from g's values on the
    first product grid (unit directions ``dirs``).  Every point of the
    sphere lies within rho, the grid's covering radius, of a node p, so
    g < 0 there when g(p) + rho * gradient_bound(p, rho) < 0; the bound is
    +inf where the ball about p holds a singularity of g."""
    if not np.all(np.isfinite(values) & (values < 0.0)):
        return False
    rho = radius * _sphere3_cover()
    bound = np.asarray(gradient_bound(radius * dirs + center, rho), dtype=float)
    return bool(np.all(values + rho * bound < 0.0))


def _meridian_mean_on_grid(g, center, radius, spec, n_polar, n_azimuth, values):
    """The meridian rule about a pole taken from g's values on the product
    grid (shift 0), or None when g keeps one sign there or no pole holds."""
    positive = values > 0.0
    if np.all(np.isfinite(values)) and positive.any() and not positive.all():
        dirs = _sphere3_directions(n_polar, n_azimuth, 0.0)
        for pole in _poles(dirs, values, positive, _sphere3_area(n_polar, n_azimuth)):
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
        pts = np.empty((local[0].size, 3), order="F")
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
        roots = _bracketed_roots(at, theta[cols], theta[cols + 1], (phi[rows],),
                                 xatol=_ROOT_XATOL)
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

    For d = 3 the product rule climbs a ladder of grids: the grid of
    ``_FIRST_POLAR_NODES`` polar nodes (8 x 16) against its double, then
    that double against its own, up to the top pair, ``_POLAR_NODES`` x
    ``_AZIMUTH_NODES`` against its double.  The first
    pair whose doubling check passes gives its finer value.  A grid value
    that is not finite leaves the ladder for the retry rungs: the top pair,
    the top pair with its azimuth turned by half a step, then one more
    polar node.
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
                       singular_angles=None, gradient_bound=None,
                       label: str = "positive-part") -> float:
    """Mean of max(g, 0) over the sphere of radius r about ``center``.

    g maps (n, d) point arrays to (n,) value arrays.  Failures are flagged
    or raised as in ``sphere_mean``.  ``gradient_bound``, used for d = 3
    only, maps an (n, d) point array and a radius rho to upper bounds on
    |grad g| over the balls of radius rho about the points.

    In the plane max(g, 0) is sampled on ``circle_mean``'s grid
    (``_circle_samples``), and each declared singular angle (a charge on
    the circle) joins that grid as one more sample.  The sign changes of g
    between neighbouring samples, an infinite value at a charge included,
    are refined to roots (Chandrupatla's method, ``_bracketed_roots``, all
    cells in one batched solve).  With singular angles or a finite root,
    the tanh-sinh rule of ``_break_angle_mean`` takes the mean, split at
    the singular angles and the finite roots.  Otherwise g keeps one sign
    on the grid, and ``_circle_grid_mean`` settles the mean from the
    samples as ``circle_mean`` does.

    For d = 3, g is first evaluated on the product grid of
    ``_POLAR_NODES`` x ``_AZIMUTH_NODES`` nodes.  A grid from which
    ``_negative_certified`` proves g < 0 on the whole sphere gives 0 with
    error 0, and a grid of one sign gives the product rule's top pair of
    max(g, 0), from the values already computed (``sphere_mean`` of a
    smooth max(g, 0) stops lower on its ladder and agrees within both
    error estimates).  Otherwise ``_meridian_mean`` integrates one
    meridian at a time about an axis from ``_poles``.  With no axis that holds, the product
    rule runs; if its doubling check fails, the axis search repeats on the
    doubled grid, which can see a patch of one sign that the first grid
    missed, and failing that the product rule's result and failure stand.
    A grid value of max(g, 0) that is not finite hands the mean to the
    retry rungs of ``sphere_mean``, from the top pair: a coarser pair can
    agree by chance across the kink.
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
        return _settle(_sphere3_positive_mean(g, center, r, spec, gradient_bound),
                       budget, label)

    def g_at(theta: np.ndarray) -> np.ndarray:
        return np.asarray(g(center + r * np.column_stack((np.cos(theta), np.sin(theta)))),
                          dtype=float)

    theta, values = _circle_samples(plus, center, r)
    if singular_angles:
        # Each singular angle is a sample of the sign grid too, so a root
        # between it and its neighbouring nodes is bracketed like any other.
        extra = np.mod(np.asarray(singular_angles, dtype=float), TWO_PI)
        theta, index = np.unique(np.concatenate((theta, extra)), return_index=True)
        values = np.concatenate((values, np.maximum(g_at(extra), 0.0)))[index]
    roots = _sign_change_roots(g_at, theta, values)
    breaks = (*(singular_angles or ()), *roots[np.isfinite(roots)])
    # A kink between the nodes can fool the doubling check: the trapezoid
    # errors of the two grids may agree while both are wrong.  So only a
    # grid of one sign goes to it.
    result = (_break_angle_mean(plus, center, r, breaks, spec, (theta, values)) if breaks
              else _circle_grid_mean(plus, center, r, theta, values, spec))
    return _settle(result, budget, label)


def _sign_change_roots(g_at, theta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Roots of g(theta) in each grid cell (cyclically) whose ends differ in
    sign, in increasing order; cells with a nan end are skipped (an infinite
    end, at a charge, has a sign)."""
    right = np.append(values[1:], values[0])
    cells = (~np.isnan(values) & ~np.isnan(right)
             & ((values > 0.0) != (right > 0.0)))
    if not cells.any():
        return np.empty(0)
    ends = np.append(theta[1:], theta[0] + TWO_PI)
    return _bracketed_roots(g_at, theta[cells], ends[cells])


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Chandrupatla's method falls back to bisection, and this many halvings take
# any finite bracket below the smallest normal number.
_ROOT_MAXITER = int(math.log2(np.finfo(float).max) - math.log2(_TINY))
_ROOT_XRTOL = 4.0 * _EPS


def _bracketed_roots(f, a, b, args=(), *, xatol: float = 4.0 * _TINY) -> np.ndarray:
    """Roots of f in the brackets [a[i], b[i]], all at once, by Chandrupatla's
    method (inverse quadratic interpolation where it is safe, else bisection).

    f maps a 1-D array of abscissae, and the matching entries of the 1-D
    arrays in ``args``, to values; each round evaluates it once on the
    brackets still open.  A bracket closes when an end has |f| <= tiny, or
    when it is shorter than xatol + _ROOT_XRTOL |x|, where x is the end with
    the smaller |f|, which is the root returned.  The root is nan where the
    ends are not finite, f has one sign at both ends, f is nan at both, or
    the bracket is still open after _ROOT_MAXITER rounds.
    """
    x1 = np.array(a, dtype=float).ravel()
    x2 = np.array(b, dtype=float).ravel()
    args = tuple(np.asarray(v).ravel() for v in args)
    active = np.arange(x1.size)
    roots = np.full(x1.size, math.nan)
    both = np.asarray(f(np.concatenate((x1, x2)), *(np.concatenate((v, v)) for v in args)),
                      dtype=float)
    f1, f2 = both[:x1.size], both[x1.size:]
    x3 = f3 = None
    # Only the solver's own arithmetic is silenced (an infinite end, a
    # degenerate interpolation), not f's.
    for nit in range(_ROOT_MAXITER + 1):
        lower = np.abs(f1) < np.abs(f2)
        xmin = np.where(lower, x1, x2)
        fmin = np.where(lower, f1, f2)
        with np.errstate(invalid="ignore", over="ignore"):
            dx = np.abs(x2 - x1)
            tol = np.abs(xmin) * _ROOT_XRTOL + xatol
        hit = np.abs(fmin) <= _TINY
        bad = ~hit & ((np.sign(f1) == np.sign(f2))
                      | ~(np.isfinite(x1) & np.isfinite(x2))
                      | (np.isnan(f1) & np.isnan(f2)))
        stop = hit | bad | (dx < tol)
        roots[active[stop]] = np.where(bad, math.nan, xmin)[stop]
        if stop.all() or nit == _ROOT_MAXITER:
            break
        keep = ~stop
        active, x1, x2, f1, f2, dx, tol = (v[keep] for v in (active, x1, x2, f1, f2, dx, tol))
        args = tuple(v[keep] for v in args)
        if nit == 0:
            t = np.full(x1.size, 0.5)
        else:
            x3, f3 = x3[keep], f3[keep]
            with np.errstate(all="ignore"):
                # Chandrupatla's test: interpolate only where the three
                # points make the inverse quadratic monotone.
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quad = ((1.0 - np.sqrt(1.0 - xi)) < phi) & (phi < np.sqrt(xi))
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
                # Keep the next point off the bracket's ends.
                tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1.0 - tl)
        x = x1 + t * (x2 - x1)
        fx = np.asarray(f(x, *args), dtype=float)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    return roots


def stieltjes_against_jumps(g, h, a: float, b: float) -> float:
    """Riemann-Stieltjes integral of g against a nondecreasing h over (a, b].

    h exposes ``jumps``, pairs (t_i, dh_i) taken exactly, never discretized.
    g may be infinite at a jump point; the infinity then propagates through
    the extended-real sum.
    """
    if a > b:
        raise ValueError(f"stieltjes_against_jumps needs a <= b, got [{a}, {b}]")
    return float(sum(g(t) * dh for t, dh in h.jumps if a < t <= b))

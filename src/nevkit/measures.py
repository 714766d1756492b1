"""Finite nonnegative Borel measures built from atoms, uniform sphere shells,
and radially symmetric densities, together with the counting and potential
functionals defined on them.

Components are immutable after construction and every functional here is a
pure function of its inputs.  Closed-ball conventions hold throughout: mass
sitting exactly on the rim of a ball of radius t is counted at t.  Density
and shell components are supported for dimensions 2 and 3; atoms work in any
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as P

from .kernels import (
    BOUNDARY_RTOL,
    _as_points,
    _kappa_in_place,
    as_point,
    check_positive,
    expect_int,
    expect_list,
    expect_number,
    expect_object,
    expect_point,
    kappa,
    row_norms,
    validate_dimension,
)
from .quadrature import (DEFAULT_SPEC, ErrorBudget, QuadResult, QuadSpec, _cosine_panel_rule,
                         _settle, radius_integral)

SUPPORT = "support"


@dataclass(frozen=True, eq=False)
class Atom:
    """Point mass."""

    location: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=float))
        if self.location.ndim != 1:
            raise ValueError("Atom.location must be a flat coordinate vector")
        check_positive("Atom", mass=self.mass)


@dataclass(frozen=True, eq=False)
class SphereShell:
    """Uniform distribution of ``mass`` on the sphere |x - center| = radius."""

    center: np.ndarray
    radius: float
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1:
            raise ValueError("SphereShell.center must be a flat coordinate vector")
        check_positive("SphereShell", radius=self.radius)
        check_positive("SphereShell", mass=self.mass)


def _float_or_array(x):
    """A 0-d result as a float, anything else as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _critical_radii(coeffs: tuple[float, ...], outer: float) -> np.ndarray:
    """Points of (0, outer) that cover the critical points of the polynomial.

    The derivative's roots are found in x = t / outer, after its top terms
    below rounding level on [0, 1] are trimmed so that its companion matrix
    stays finite.  Every root's real part is kept, since a double root may
    come out as a complex pair.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.array(coeffs) * outer ** np.arange(len(coeffs))
    if not np.all(np.isfinite(c)):
        raise ValueError("RadialDensity: coeffs[k] * outer**k overflows")
    slope = P.polyder(c)
    slope = P.polytrim(slope, np.finfo(float).eps * np.max(np.abs(slope), initial=0.0))
    x = P.polyroots(slope).real
    return outer * x[(0.0 < x) & (x < 1.0)]


@dataclass(frozen=True, eq=False)
class RadialDensity:
    """Rotationally symmetric component about ``center`` with the polynomial
    density t -> sum_k coeffs[k] * t**k on [0, outer].

    The mass within distance t of the center is integral_0^t density(s) ds,
    so ``density`` is the derivative of the component's own radial counting
    function; ``mass_within`` integrates it in closed form.
    """

    center: np.ndarray
    coeffs: tuple[float, ...]
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.center.ndim != 1:
            raise ValueError("RadialDensity.center must be a flat coordinate vector")
        check_positive("RadialDensity", outer=self.outer)
        ts = [0.0, self.outer, *_critical_radii(self.coeffs, self.outer)]
        if min(self.density(t) for t in ts) < -1e-12:
            raise ValueError("RadialDensity.density must be nonnegative on [0, outer]")

    def density(self, t):
        """The density at t, a float or an array (Horner's rule)."""
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def mass_within(self, t):
        """Mass of the component within distance t of its own center; t is a
        float, which gives a float, or an array."""
        hi = np.minimum(np.maximum(t, 0.0), self.outer)
        total = 0.0
        for k in reversed(range(len(self.coeffs))):
            total = total * hi + self.coeffs[k] / (k + 1)
        return _float_or_array(total * hi)

    def kernel_integral(self, lo, hi, d: int):
        """integral_lo^hi density(s) * kappa(s) ds for 0 <= lo and d in {2, 3};
        0 where lo >= hi.  Floats give a float, arrays an array.

        Term k has the antiderivative s**(k+1) * (ln s / (k+1) - 1 / (k+1)**2)
        for d = 2 and -s**k / k (-ln s for k = 0) for d = 3.  Each vanishes at
        s = 0 except -ln s, so from lo = 0 the d = 3 integral is -inf when
        coeffs[0] > 0.  Logarithms come from numpy's loop, as in ``kappa``.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

        def primitive(s: np.ndarray) -> np.ndarray:
            ls = np.log(np.where(s > 0.0, s, 1.0))  # every term left is 0 at s = 0
            total = 0.0
            for k, c in enumerate(self.coeffs):
                if d == 2:
                    total = total + c * s ** (k + 1) * (ls / (k + 1) - 1.0 / (k + 1) ** 2)
                else:
                    total = total - c * (s ** k / k if k else ls)
            return total

        value = primitive(hi) - primitive(lo)
        if d == 3 and self.coeffs[0] > 0.0:
            value = np.where(lo == 0.0, -math.inf, value)
        return _float_or_array(np.where(lo < hi, value, 0.0))

    @property
    def total(self) -> float:
        return self.mass_within(self.outer)


@dataclass(frozen=True, eq=False)
class Measure:
    """Finite nonnegative measure: atoms + uniform shells + radial densities."""

    dimension: int
    atoms: tuple[Atom, ...] = ()
    spheres: tuple[SphereShell, ...] = ()
    radial: tuple[RadialDensity, ...] = ()

    def __post_init__(self):
        d = validate_dimension(self.dimension)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "spheres", tuple(self.spheres))
        object.__setattr__(self, "radial", tuple(self.radial))
        if (self.spheres or self.radial) and d not in (2, 3):
            raise ValueError(
                "shell and density components are supported for d in {2, 3}; "
                "use atoms for higher dimensions")
        for a in self.atoms:
            if a.location.shape != (d,):
                raise ValueError("atom location dimension mismatch")
        for s in self.spheres:
            if s.center.shape != (d,):
                raise ValueError("shell center dimension mismatch")
        for c in self.radial:
            if c.center.shape != (d,):
                raise ValueError("radial component center dimension mismatch")
        object.__setattr__(self, "_cache", {})

    @cached_property
    def total_mass(self) -> float:
        total = sum(a.mass for a in self.atoms)
        total += sum(s.mass for s in self.spheres)
        total += sum(c.total for c in self.radial)
        return float(total)

    @cached_property
    def support_radius(self) -> float:
        """Radius of the smallest closed ball about the origin containing supp."""
        radii = [0.0]
        radii += [float(np.linalg.norm(a.location)) for a in self.atoms]
        radii += [float(np.linalg.norm(s.center)) + s.radius for s in self.spheres]
        radii += [float(np.linalg.norm(c.center)) + c.outer for c in self.radial]
        return max(radii)

    @property
    def is_zero(self) -> bool:
        return not (self.atoms or self.spheres or self.radial)

    def translate(self, v) -> "Measure":
        v = as_point(v, self.dimension)
        return Measure(
            self.dimension,
            tuple(Atom(a.location + v, a.mass) for a in self.atoms),
            tuple(SphereShell(s.center + v, s.radius, s.mass) for s in self.spheres),
            tuple(replace(c, center=c.center + v) for c in self.radial),
        )

    def __add__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError("cannot add measures of different dimensions")
        return Measure(self.dimension, self.atoms + other.atoms,
                       self.spheres + other.spheres, self.radial + other.radial)


@dataclass(frozen=True, eq=False)
class CountingFunction:
    """Nondecreasing radial mass profile t -> mu(closed ball of radius t) of
    a discrete measure, given by its jumps (t_i, dh_i)."""

    jumps: tuple[tuple[float, float], ...] = ()

    def value(self, t: float) -> float:
        return float(sum(dh for s, dh in self.jumps if s <= t * (1.0 + BOUNDARY_RTOL)))


@dataclass(frozen=True)
class SupResult:
    """Grid-approximate supremum: value, maximizer, and scan bookkeeping."""

    value: float
    argmax: tuple[float, ...] | None
    resolution: int
    evaluations: int
    centre: tuple[float, ...] | None = None  # a radial-profile scan's; None on the lattice


def _cap_fraction(a: float, s: float, t: float, d: int) -> float:
    """Fraction of the sphere of radius s (center c) within distance t of a
    point at distance a = |y - c| from the center."""
    if t < 0.0:
        return 0.0
    if a == 0.0:
        return 1.0 if t >= s * (1.0 - BOUNDARY_RTOL) else 0.0
    c0 = (a * a + s * s - t * t) / (2.0 * a * s)
    if c0 <= -1.0:
        return 1.0
    if c0 >= 1.0:
        return 0.0
    if d == 2:
        return math.acos(c0) / math.pi
    return 0.5 * (1.0 - c0)


def _shell_window(a, s, r: float, kr: float, d: int):
    """The shell kernel where the shell crosses the sphere |x - y| = r.

    Floats or arrays: the d = 3 window integrates in closed form and the
    d = 2 window reduces to the imaginary part of a dilogarithm,
    Li2(z) = spence(1 - z), which costs about 2 microseconds an element.
    So a density's planar crossing rings are integrated by parts against
    ``_window_slope``, and reach this only for the end term of a window
    that the density's ``outer`` cuts.
    """
    if d == 3:
        gap = r - np.abs(a - s)
        return gap * gap / (4.0 * a * s * r)
    from scipy.special import spence  # here, so that d = 3 runs import no scipy
    c0 = (a * a + s * s - r * r) / (2.0 * a * s)
    theta = np.arccos(np.minimum(np.maximum(c0, -1.0), 1.0))
    mx = np.maximum(a, s)
    z = np.minimum(a, s) / mx * np.exp(1j * theta)
    return (theta * (kr - np.log(mx)) + spence(1.0 - z).imag) / np.pi


def _window_slope(a, s, r: float):
    """d/ds of the planar window kernel ``_shell_window(a, s, r, kr, 2)``
    for a shell that crosses the circle |x - y| = r; floats or arrays.

    The kernel is the arc mean of log r - log|x - y| over the arc of
    half-angle theta, cos theta = (a**2 + s**2 - r**2) / (2 a s), that lies
    within r of y.  The integrand vanishes at the arc's ends, so the slope
    is the arc integral of -d/ds log|x - y|:
    -(theta + 2 sgn(s - a) atan((s + a) / |s - a| tan(theta / 2))) / (2 pi s).
    At s = a the slope jumps by 1 / s, and the formula gives the mean of
    its two sides.
    """
    c0 = (a * a + s * s - r * r) / (2.0 * a * s)
    theta = np.arccos(np.minimum(np.maximum(c0, -1.0), 1.0))
    # atan2 needs no division by |s - a|: at s = a it is pi / 2, its sign 0.
    turn = np.sign(s - a) * np.arctan2((s + a) * np.tan(0.5 * theta), np.abs(s - a))
    return -(theta + 2.0 * turn) / (2.0 * math.pi * s)


def _shell_counting_kernel(a, s, r: float, d: int):
    """Mean over a unit-mass shell of radius s, center distance a, of
    (kappa(r) - kappa(|x - y|)) restricted to |x - y| <= r.

    ``a`` and ``s`` are broadcastable arrays, or floats, which give a float
    through the same array code.  Exact in every regime: the mean-value
    property covers a shell entirely inside the ball, and ``_shell_window``
    covers a shell that crosses it.
    """
    kr = kappa(r, d)
    a, s = np.asarray(a, dtype=float), np.asarray(s, dtype=float)
    inside = a + s <= r
    # kappa(max(a, s)) at every pair, kept only inside the ball.
    with np.errstate(divide="ignore"):
        far = _kappa_in_place(np.maximum(a, s, out=np.empty(inside.shape)), d)
    out = np.where(inside, kr - far, 0.0)
    window = (np.abs(a - s) < r) & ~inside
    if window.any():
        a, s = (v if v.ndim == 0 else np.broadcast_to(v, window.shape)[window] for v in (a, s))
        out[window] = _shell_window(a, s, r, kr, d)
    return _float_or_array(out)


def radial_counting(mu: Measure, y, t: float, spec: QuadSpec = DEFAULT_SPEC, *,
                    budget: ErrorBudget | None = None) -> float:
    """Mass of the closed ball of radius t about y.

    Exact for atoms (closed-ball convention), shells and centred components.
    An off-centre density's rings inside the ball, s <= t - a, are the closed
    form mass_within(t - a); only those that cross the sphere, |a - t| < s <
    min(a + t, outer), go to ``radius_integral``, whose failure is charged
    to ``budget``, or raised as QuadratureError when there is none.
    """
    check_positive("radial_counting", closed=True, t=t)
    d = mu.dimension
    y = as_point(y, d)
    thr = t * (1.0 + BOUNDARY_RTOL)
    total = 0.0
    for atom in mu.atoms:
        if float(np.linalg.norm(atom.location - y)) <= thr:
            total += atom.mass
    for shell in mu.spheres:
        a = float(np.linalg.norm(shell.center - y))
        total += shell.mass * _cap_fraction(a, shell.radius, t, d)
    for comp in mu.radial:
        a = float(np.linalg.norm(comp.center - y))
        total += comp.mass_within(thr if a == 0.0 else t - a)
        lo, hi = abs(a - t), min(a + t, comp.outer)  # empty for a centred density
        if lo < hi:
            total += _settle(radius_integral(
                lambda s: comp.density(s) * np.array([_cap_fraction(a, float(x), t, d) for x in s]),
                lo, hi, spec), budget, "radial-counting")
    return float(total)


# Batched integrated counting.  _PANEL_NODES: Gauss-Legendre nodes per panel
# of the coarse rule (the fine rule has twice as many), in both dimensions.
# At 16 against 32 the planar by-parts integrand's estimates reached 1e-9,
# and a d = 3 density with coeffs[0] > 0 missed the default tolerance at 29%
# of random points within 5% of r from its centre (by up to 31 times); at 32
# against 64 neither misses it, and a missed tolerance is a failed check.
# _BATCH_CHUNK: points per vectorised block, which bounds the temporaries at
# about _BATCH_CHUNK * 2 panels * 3 * _PANEL_NODES values (49,152 at 256).
# _FIRST_BATCH: points in a scan's first refinement batch after each move;
# each batch in which no point improves doubles the next.
_PANEL_NODES = 32
_BATCH_CHUNK = 256
_FIRST_BATCH = 64


def _inner_rings(comp: RadialDensity, a, r: float, d: int):
    """Integral of density(s) * _shell_counting_kernel(a, s, r) over the rings
    inside the ball, s <= r - a, for center distances a >= 0 (a float or an
    array): there the kernel is kappa(r) - kappa(max(a, s)) (Gauss mean
    value), which integrates to kappa(r) m(inner) - kappa(a) m(split) -
    kernel_integral(split, inner) with inner = min(r - a, outer) and split =
    min(a, inner).  +inf at the centre of a d = 3 density with coeffs[0] > 0.
    """
    inner = np.minimum(np.maximum(r - a, 0.0), comp.outer)
    split = np.minimum(a, inner)
    # m(split) is exactly 0 at a = 0, where kappa(a) would be -inf.
    near = _kappa_in_place(np.where(a > 0.0, a, 1.0), d) * comp.mass_within(split)
    return (kappa(r, d) * comp.mass_within(inner) - near
            - comp.kernel_integral(split, inner, d))


def _crossing_integrand(comp: RadialDensity, a, lo, r: float, d: int):
    """The integrand over s of a density's rings that cross the sphere,
    lo = |r - a| < s < min(r + a, outer), at center distances a (arrays that
    broadcast against the array s).

    In d = 3 it is density(s) * _shell_counting_kernel(a, s, r), which is
    the window's closed form at every s in the window.  In the plane it is
    the by-parts form -m(s) * _window_slope(a, s, r), with m(s) =
    mass_within(s) - mass_within(lo), whose integral plus
    ``_planar_window_end`` is the same integral without a dilogarithm.
    """
    if d == 3:
        return lambda s: comp.density(s) * _shell_window(a, s, r, None, d)
    below = comp.mass_within(lo)
    return lambda s: (below - comp.mass_within(s)) * _window_slope(a, s, r)


def _planar_window_end(comp: RadialDensity, a: np.ndarray, lo: np.ndarray, r: float
                       ) -> np.ndarray:
    """The end term m(hi) * K(a, hi, r) of the planar crossing rings by
    parts, at each center distance a with lo = |r - a|.  K vanishes at
    hi = r + a and m at hi = lo, so only a window that ``outer`` cuts,
    lo < outer < r + a, calls ``_shell_window``; every other term is 0.
    """
    cut = (comp.outer < r + a) & (lo < comp.outer)
    end = np.zeros(a.shape)
    end[cut] = ((comp.total - comp.mass_within(lo[cut]))
                * _shell_window(a[cut], comp.outer, r, kappa(r, 2), 2))
    return end


def _radial_block(comp: RadialDensity, a: np.ndarray, r: float, d: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of density(s) * _shell_counting_kernel(a, s, r) over the
    rings that cross the sphere, |r - a| < s < min(r + a, outer), for each
    center distance a, with their n-against-2n error estimates.

    The window is two panels split at the kernel's kink s = a, each
    cosine-mapped, with ``_crossing_integrand`` on _PANEL_NODES against
    2 * _PANEL_NODES nodes; in the plane that is the by-parts form, plus the
    exact end term of a cut window.  A panel that the window clips to
    zero width is dead: the integrand is evaluated on the live panels only,
    and the dead ones contribute exact zeros.
    """
    lo = np.abs(r - a)
    edges = np.empty((len(a), 3))
    edges[:, 0] = lo
    hi = np.maximum(np.minimum(r + a, comp.outer), lo, out=edges[:, 2])
    np.minimum(np.maximum(a, lo), hi, out=edges[:, 1])
    width = edges[:, 1:] - edges[:, :-1]
    live = width > 0.0
    rows, cols = np.nonzero(live)
    left, live_width = edges[rows, cols][:, None], width[rows, cols][:, None]
    integrand = _crossing_integrand(comp, a[rows, None], lo[rows, None], r, d)

    def panel_integrals(n: int) -> np.ndarray:
        u, w = _cosine_panel_rule(n)
        out = np.zeros(live.shape)
        out[rows, cols] = live_width[:, 0] * (integrand(left + live_width * u) @ w)
        return out

    coarse = panel_integrals(_PANEL_NODES)
    fine = panel_integrals(2 * _PANEL_NODES)
    value = fine.sum(axis=1)
    if d == 2:
        value += _planar_window_end(comp, a, lo, r)
    return value, np.maximum(np.abs(fine - coarse).sum(axis=1), 1e-16 * np.abs(value))


def _counting_block(mu: Measure, pts: np.ndarray, r: float, spec: QuadSpec
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of the integrated counting at each row of
    ``pts``: the closed forms of atoms (+inf at an atom), shells and each
    density's rings inside the ball, then each density's crossing rings.  A
    row whose estimate misses the spec's tolerance keeps its value, and its
    error is +inf: a failed quadrature.
    """
    d = mu.dimension
    kr = kappa(r, d)
    total = np.zeros(len(pts))
    for atom in mu.atoms:
        dist = row_norms(pts - atom.location)
        near = dist <= r * (1.0 + BOUNDARY_RTOL)
        total[near] += atom.mass * (kr - kappa(dist[near], d))  # dist == 0 -> +inf
    for shell in mu.spheres:
        a = row_norms(pts - shell.center)
        total += shell.mass * _shell_counting_kernel(a, shell.radius, r, d)
    center_dists = [row_norms(pts - comp.center) for comp in mu.radial]
    for comp, a in zip(mu.radial, center_dists):
        total += _inner_rings(comp, a, r, d)
    err = np.zeros(len(pts))
    for comp, a in zip(mu.radial, center_dists):
        value, error = _radial_block(comp, a, r, d)
        total += value
        err += error
    ok = err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    return total, np.where(ok, err, math.inf)


def _charge(budget: ErrorBudget | None, value: float, error: float) -> None:
    if budget is not None and error > 0.0:
        budget.add(QuadResult(value, error, math.isfinite(error)), "integrated-counting")


def integrated_counting(mu: Measure, y, r: float, spec: QuadSpec = DEFAULT_SPEC, *,
                        budget: ErrorBudget | None = None,
                        errors: np.ndarray | None = None):
    """hat_d * integral_0^r of the radial counting about y divided by t**(d-1).

    Evaluated per component through the equivalent form
    integral over the closed ball B(y, r) of (kappa(r) - kappa(|x - y|)) dmu:
    closed form for atoms (and +inf when an atom sits exactly at y), for
    shells and for each density's rings inside the ball, and a radial
    integral of the shell kernel over the density's rings that cross the
    sphere |x - y| = r.

    ``y`` is one point (d,), which gives a float, or an (n, d) array of
    points, which gives an (n,) array; one point is a batch of one.  The
    crossing rings are integrated on fixed panels, and each point's
    n-against-2n error estimate is charged.  Only the spec's two tolerances
    are read: a point whose estimate misses them keeps its value and is
    charged as a failure.
    ``errors``, an (n,) array, or (1,) for one point, receives each point's
    error estimate, with +inf where the quadrature failed.
    A point's value can differ in the last bit from the same point's inside
    a batch: the panel sums go through a matrix-vector product whose
    blocking follows the batch, so re-evaluating a scan's argmax need not
    reproduce its supremum bit for bit.
    """
    check_positive("integrated_counting", r=r)
    pts, one = _as_points(y, mu.dimension)
    values = np.empty(len(pts))
    errs = np.empty(len(pts))
    for start in range(0, len(pts), _BATCH_CHUNK):
        block = slice(start, start + _BATCH_CHUNK)
        values[block], errs[block] = _counting_block(mu, pts[block], r, spec)
    if budget is not None:
        for value, error in zip(values, errs):
            _charge(budget, value, error)
    if errors is not None:
        errors[:] = errs
    return float(values[0]) if one else values


def difference_counting(mu: Measure, r: float, R: float,
                        spec: QuadSpec = DEFAULT_SPEC, *,
                        budget: ErrorBudget | None = None) -> float:
    """hat_d * integral_r^R of the radial counting about 0 divided by t**(d-1).

    By Fubini, the integral of kappa(R) - kappa(max(r, |x|)) over |x| <= R:
    in closed form for atoms and densities centred at the origin (+inf at
    r = 0 for an atom there, or a d = 3 density with coeffs[0] > 0), and
    the integrated counting about 0 at R minus that at r for the rest.
    """
    check_positive("difference_counting", closed=True, r=r, R=R)
    d = mu.dimension
    kR = kappa(R, d)
    total = 0.0
    for atom in mu.atoms:
        na = float(np.linalg.norm(atom.location))
        if na <= R * (1.0 + BOUNDARY_RTOL):
            total += atom.mass * (kR - kappa(max(r, na), d))
    for comp in mu.radial:
        if np.any(comp.center):
            continue
        hi = min(comp.outer, R)
        mid = min(r, hi)
        total += kR * comp.mass_within(hi) - comp.kernel_integral(mid, hi, d)
        if mid > 0.0:
            total -= kappa(r, d) * comp.mass_within(mid)
    rest = Measure(d, (), mu.spheres, tuple(c for c in mu.radial if np.any(c.center)))
    if not rest.is_zero:
        origin = np.zeros((1, d))
        total += integrated_counting(rest, origin, R, spec, budget=budget)[0]
        if r > 0.0:
            total -= integrated_counting(rest, origin, r, spec, budget=budget)[0]
    return float(total)


def potential(mu: Measure, x):
    """Kernel potential integral of kappa(|y - x|) dmu(y); -inf is legitimate.

    Shells contribute the closed form mass * kappa(max(radius, |x - center|)),
    and densities, through the same mean-value fact, kappa(a) m(a) plus
    ``kernel_integral`` from a = |x - center| to the outer radius.  ``x`` is
    one point (d,), which gives a float, or an (n, d) array of points, which
    gives an (n,) array.
    """
    d = mu.dimension
    pts, one = _as_points(x, d)
    total = np.zeros(len(pts))
    for atom in mu.atoms:
        total += atom.mass * kappa(row_norms(pts - atom.location), d)
    for shell in mu.spheres:
        a = row_norms(pts - shell.center)
        total += shell.mass * kappa(np.maximum(a, shell.radius), d)
    for comp in mu.radial:
        a = row_norms(pts - comp.center)
        # m(a) is exactly 0 at a = 0, where kappa(a) would be -inf.
        total += kappa(np.where(a > 0.0, a, 1.0), d) * comp.mass_within(a)
        total += comp.kernel_integral(np.minimum(a, comp.outer), comp.outer, d)
    return float(total[0]) if one else total


def _admissible(qs: np.ndarray, region, src) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``qs`` that a scan of ``region`` may visit: their indices
    and the points to visit for them.

    A ball radius keeps the rows in the closed ball about the origin.
    SUPPORT moves every row radially onto the shell or density ``src`` (a
    density's radius clipped to [1e-9 outer, outer]); it keeps no row for an
    atom, nor a row at the component's centre.
    """
    if region != SUPPORT:
        rows = np.flatnonzero(row_norms(qs) <= region * (1.0 + BOUNDARY_RTOL))
        return rows, qs[rows]
    if not isinstance(src, (SphereShell, RadialDensity)):
        return np.arange(0), qs[:0]
    v = qs - src.center
    nv = row_norms(v)
    rows = np.flatnonzero(nv != 0.0)
    v, nv = v[rows], nv[rows, np.newaxis]
    if isinstance(src, SphereShell):
        s = src.radius
    else:
        s = np.minimum(np.maximum(nv, src.outer * 1e-9), src.outer)
    return rows, src.center + s * v / nv


def _ball_lattice(radius: float, d: int, resolution: int) -> np.ndarray:
    """The points of the uniform lattice on [-radius, radius]**d that lie in
    the closed ball of that radius about the origin."""
    axis = np.linspace(-radius, radius, resolution)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return _admissible(np.column_stack([m.ravel() for m in mesh]), radius, None)[1]


def _sphere_directions(n_pol: int, azimuths: np.ndarray) -> np.ndarray:
    """Unit vectors (sqrt(1 - u**2) cos phi, sqrt(1 - u**2) sin phi, u) for
    n_pol values of u evenly spaced in [-1, 1] and each azimuth phi, phi
    varying fastest.  The azimuths go through ``math.cos`` and ``math.sin``,
    which numpy's loops may differ from in the last bit, and the pinned
    scans follow those bits."""
    u = np.linspace(-1.0, 1.0, n_pol)[:, np.newaxis]
    su = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    cos, sin = np.array([(math.cos(phi), math.sin(phi)) for phi in azimuths]).T
    return np.stack(np.broadcast_arrays(su * cos, su * sin, u), axis=-1).reshape(-1, 3)


def _support_samples(mu: Measure, resolution: int) -> tuple[np.ndarray, list]:
    """Deterministic sample points on supp(mu), as the rows of an (n, d)
    array, and the component each row lies on."""
    d = mu.dimension
    blocks = [np.reshape([a.location for a in mu.atoms], (-1, d))]
    sources: list = list(mu.atoms)
    n_ang = max(16, 2 * resolution)
    theta = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    ring = np.column_stack((np.cos(theta), np.sin(theta)))
    shell_dirs = ring if d == 2 else _sphere_directions(
        max(8, resolution), np.arange(n_ang // 2) * (4.0 * math.pi / n_ang))
    for shell in mu.spheres:
        blocks.append(shell.center + shell.radius * shell_dirs)
        sources += [shell] * len(shell_dirs)
    density_dirs = ring if d == 2 else _sphere_directions(
        max(6, resolution // 2), np.arange(8) * (math.pi / 4.0))
    for comp in mu.radial:
        if comp.kernel_integral(0.0, comp.outer, d) == -math.inf:
            blocks.append(comp.center[np.newaxis])  # the potential is -inf there
            sources.append(comp)
        n_rad = max(4, resolution // 2)
        radii = np.linspace(comp.outer / n_rad, comp.outer, n_rad)
        blocks.append((comp.center + radii[:, None, None] * density_dirs).reshape(-1, d))
        sources += [comp] * (n_rad * len(density_dirs))
    return np.concatenate(blocks), sources


def sup_integrated_counting(mu: Measure, region, r: float, resolution: int,
                            spec: QuadSpec = DEFAULT_SPEC, *,
                            budget: ErrorBudget | None = None) -> SupResult:
    """Grid-approximate supremum over the region of y -> integrated_counting.

    Evaluates at every atom location in the region, at component witness
    points, and on a uniform lattice of the given per-axis resolution, then
    walks locally around the best point (3 levels, factor 4 each), moving
    as soon as a point improves on it by a strict ``>``.  When every
    component shares one centre, the walk runs over the distance from it
    instead (``_profile``), except over the support of a density.  The
    points are evaluated in batches, and each batch counts only the points
    that a point-by-point walk reaches, so ``evaluations`` and the charged
    errors are that walk's.  The result is the largest value the walk
    found: each value is a quadrature approximation whose error estimate is
    charged to ``budget``, and the grid maximum is not a bound on the
    supremum.  +inf is returned as soon as any evaluation is +inf.
    Regions: the radius of a closed ball about the origin, or SUPPORT.  A
    repeated scan returns the result cached on ``mu`` and charges ``budget``
    the same errors and failures again.
    """
    d = mu.dimension
    if d not in (2, 3):
        raise ValueError("sup_integrated_counting scans are provided for d in {2, 3}")
    if resolution < 3:
        raise ValueError("sup_integrated_counting: resolution must be at least 3")
    check_positive("sup_integrated_counting", r=r)
    # Integrated counting reads only the two tolerances, so the key omits
    # spec.max_subdivisions.
    if region == SUPPORT:
        key = ("sup", SUPPORT, r, resolution, spec.abs_tol, spec.rel_tol)
    elif isinstance(region, (int, float)) and 0.0 < region < math.inf:
        key = ("sup", "ball", float(region), r, resolution, spec.abs_tol, spec.rel_tol)
    else:
        raise ValueError("region must be a positive finite ball radius or the SUPPORT marker")
    cached = mu._cache.get(key)
    if cached is None:
        walk = _profile(mu, region, r, resolution) or _lattice(mu, region, resolution)
        cached = mu._cache[key] = _scan(mu, r, resolution, spec, *walk)
    result, charges = cached
    for value, error in charges:
        _charge(budget, value, error)
    return result


def _lattice(mu: Measure, region, resolution: int) -> tuple:
    """``_scan``'s walk over points: the ball's lattice and the components'
    centres in it, or the support samples, each moved along its component."""
    d = mu.dimension
    if region == SUPPORT:
        candidates, sources = _support_samples(mu, resolution)
        step = max((c.outer for c in mu.radial), default=0.0)
        step = max(step, max((s.radius for s in mu.spheres), default=0.0))
        step = max(step / max(resolution - 1, 1), 1e-6)
    else:
        centres = [a.location for a in mu.atoms]
        centres += [c.center for c in (*mu.spheres, *mu.radial)]
        candidates = np.concatenate([
            _ball_lattice(region, d, resolution),
            _admissible(np.reshape(centres, (-1, d)), region, None)[1]])
        sources = [None] * len(candidates)
        step = 2.0 * region / (resolution - 1)
    return (None, candidates, sources, step,
            lambda qs, src: _admissible(qs, region, src), lambda qs: qs)


def _profile(mu: Measure, region, r: float, resolution: int) -> tuple | None:
    """``_scan``'s walk over a = |y - c| when all components share a centre
    c, or None.  y = c + a u, u = -c / |c| (e1 at c = 0), so the ball of
    radius R about 0 is a in [max(0, |c| - R), |c| + R]: ``resolution``
    evenly spaced values there, and N's kinks among them (0 for an atom or
    a density, a shell's s and s -+ r, a density's outer, |outer - r| and
    outer + r).  The support of atoms and shells is each distinct radius
    once, with no refinement, as N is constant on each sphere about c; a
    density's support is not a sphere, so it returns None.
    """
    centres = [a.location for a in mu.atoms] + [c.center for c in (*mu.spheres, *mu.radial)]
    if region == SUPPORT and mu.radial or len({c.tobytes() for c in centres}) != 1:
        return None
    c = centres[0]
    norm = float(np.linalg.norm(c))
    u = np.eye(len(c))[0] if norm == 0.0 else -c / norm
    if region == SUPPORT:
        lo = hi = 0.0
        a = np.unique([0.0] * bool(mu.atoms) + [s.radius for s in mu.spheres])
    else:
        lo, hi = max(0.0, norm - region), norm + region
        kinks = np.array([0.0] * bool(mu.atoms + mu.radial) + [
            s.radius + t for s in mu.spheres for t in (0.0, -r, r)] + [
            t for comp in mu.radial for t in (comp.outer, abs(comp.outer - r), comp.outer + r)])
        a = np.unique(np.concatenate((np.linspace(lo, hi, resolution),
                                      kinks[(lo <= kinks) & (kinks <= hi)])))

    def admissible(qs: np.ndarray, src) -> tuple[np.ndarray, np.ndarray]:
        rows = np.flatnonzero((lo <= qs[:, 0]) & (qs[:, 0] <= hi))
        return rows, qs[rows]

    return (tuple(float(v) for v in c), a[:, np.newaxis], [None] * len(a),
            (hi - lo) / (resolution - 1), admissible, lambda qs: c + qs * u)


def _scan(mu: Measure, r: float, resolution: int, spec: QuadSpec, centre, candidates,
          sources: list, step: float, admissible, to_points
          ) -> tuple[SupResult, list[tuple[float, float]]]:
    """The walk behind ``sup_integrated_counting``, with its charges.

    It walks coordinates q from the rows of ``candidates`` (on the components
    ``sources``), evaluating N at ``to_points(q)``.  Level k refines about
    the best q by 9 offsets per coordinate, -4 to 4 steps of step / 4**k, as
    far as ``admissible(qs, source)`` keeps them (the rows, and what to
    visit for them).  Each batch is evaluated at once and settled with array
    comparisons in the order of a point-by-point walk: the candidates up to
    the first +inf count, and the first strict maximum among them is the
    best; a refinement batch counts up to its first row above the best,
    which the walk then moves to.  Only counted points are evaluations, and
    their nonzero error estimates are the charges, in order.  NaN never wins.
    """
    charges: list[tuple[float, float]] = []
    if mu.is_zero:
        return SupResult(0.0, None, resolution, 0), charges

    def evaluate(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        errors = np.empty(len(qs))
        return integrated_counting(mu, to_points(qs), r, spec, errors=errors), errors

    def count(values: np.ndarray, errors: np.ndarray, hits: np.ndarray) -> int:
        """Charge the rows up to the first hit, or all rows; return how many."""
        n = int(hits[0]) + 1 if len(hits) else len(values)
        charged = np.flatnonzero(errors[:n] > 0.0)
        charges.extend(zip(values[charged].tolist(), errors[charged].tolist()))
        return n

    values, errors = evaluate(candidates)
    evaluations = count(values, errors, np.flatnonzero(values == math.inf))
    counted = np.where(np.isnan(values[:evaluations]), -math.inf, values[:evaluations])
    k = int(np.argmax(counted))
    best_val, best_q, best_src = counted[k], candidates[k], sources[k]

    if math.isfinite(best_val):
        for _ in range(3):
            step /= 4.0
            offsets = np.linspace(-4.0 * step, 4.0 * step, 9)
            mesh = np.meshgrid(*([offsets] * candidates.shape[1]), indexing="ij")
            shifts = np.column_stack([m.ravel() for m in mesh])
            # Speculative batches: the first admissible points about the
            # current best from shift ``start`` on, dropped from the first
            # improvement on and rebuilt about it.  A batch holds
            # _FIRST_BATCH points after each move and twice the last one's
            # after a batch without one.
            start, size = 0, _FIRST_BATCH
            while start < len(shifts):
                rows, batch = admissible(best_q + shifts[start:], best_src)
                if not len(rows):
                    break
                rows, batch = start + rows[:size], batch[:size]
                start = rows[-1] + 1  # where the walk resumes after the batch
                values, errors = evaluate(batch)
                hits = np.flatnonzero(values > best_val)
                evaluations += count(values, errors, hits)
                size *= 2
                if len(hits):
                    k = hits[0]
                    best_val, best_q, start = values[k], batch[k], rows[k] + 1
                    size = _FIRST_BATCH

    argmax = None if best_val == -math.inf else tuple(map(float, to_points(best_q[None])[0]))
    return SupResult(float(best_val), argmax, resolution, evaluations, centre), charges


# ---------------------------------------------------------------------------
# JSON schema


def measure_from_json(data, *, path: str = "measure") -> Measure:
    """Parse the measure schema, reporting the offending field on error."""
    expect_object(data, path, ("dimension",), ("atoms", "spheres", "radial"))
    d = expect_int(data["dimension"], f"{path}.dimension", 2)
    atoms = []
    for i, entry in enumerate(expect_list(data.get("atoms"), f"{path}.atoms")):
        p = f"{path}.atoms[{i}]"
        expect_object(entry, p, ("point", "mass"))
        atoms.append(Atom(expect_point(entry["point"], d, f"{p}.point"),
                          expect_number(entry["mass"], f"{p}.mass", positive=True)))
    spheres = []
    for i, entry in enumerate(expect_list(data.get("spheres"), f"{path}.spheres")):
        p = f"{path}.spheres[{i}]"
        expect_object(entry, p, ("center", "radius", "mass"))
        spheres.append(SphereShell(
            expect_point(entry["center"], d, f"{p}.center"),
            expect_number(entry["radius"], f"{p}.radius", positive=True),
            expect_number(entry["mass"], f"{p}.mass", positive=True)))
    radial = []
    for i, entry in enumerate(expect_list(data.get("radial"), f"{path}.radial")):
        p = f"{path}.radial[{i}]"
        expect_object(entry, p, ("center", "coeffs", "outer"))
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise ValueError(f"{p}.coeffs: expected a nonempty list of numbers")
        coeffs = [expect_number(c, f"{p}.coeffs[{j}]") for j, c in enumerate(coeffs)]
        try:
            comp = RadialDensity(
                expect_point(entry["center"], d, f"{p}.center"),
                coeffs, expect_number(entry["outer"], f"{p}.outer", positive=True))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
        radial.append(comp)
    try:
        return Measure(d, tuple(atoms), tuple(spheres), tuple(radial))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

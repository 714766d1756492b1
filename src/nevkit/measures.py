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
from functools import cached_property, lru_cache

import numpy as np
import numpy.polynomial.polynomial as P
from scipy.special import spence

from .kernels import (
    BOUNDARY_RTOL,
    as_point,
    expect_int,
    expect_list,
    expect_number,
    expect_object,
    expect_point,
    kappa,
    row_norms,
    validate_dimension,
)
from .quadrature import DEFAULT_SPEC, ErrorBudget, QuadResult, QuadSpec, integrate_1d

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
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError("Atom.mass must be positive and finite")


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
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("SphereShell.radius must be positive and finite")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError("SphereShell.mass must be positive and finite")


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
        if not (self.outer > 0.0 and math.isfinite(self.outer)):
            raise ValueError("RadialDensity.outer must be positive and finite")
        ts = [0.0, self.outer, *_critical_radii(self.coeffs, self.outer)]
        if min(self.density(t) for t in ts) < -1e-12:
            raise ValueError("RadialDensity.density must be nonnegative on [0, outer]")

    def density(self, t):
        """The density at t, a float or an array (Horner's rule)."""
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def mass_within(self, t: float) -> float:
        """Mass of the component within distance t of its own center."""
        hi = min(max(t, 0.0), self.outer)
        total = 0.0
        for k in reversed(range(len(self.coeffs))):
            total = total * hi + self.coeffs[k] / (k + 1)
        return float(total * hi)

    def kernel_integral(self, lo: float, hi: float, d: int) -> float:
        """integral_lo^hi density(s) * kappa(s) ds for 0 <= lo <= hi, d in {2, 3}.

        Term k has the antiderivative s**(k+1) * (ln s / (k+1) - 1 / (k+1)**2)
        for d = 2 and -s**k / k (-ln s for k = 0) for d = 3.  Each vanishes at
        s = 0 except -ln s, so from lo = 0 the d = 3 integral is -inf when
        coeffs[0] > 0.
        """
        if lo >= hi:
            return 0.0
        if lo == 0.0 and d == 3 and self.coeffs[0] > 0.0:
            return -math.inf

        def primitive(s: float) -> float:
            ls = math.log(s) if s > 0.0 else 0.0  # every term left is 0 at s = 0
            if d == 2:
                return sum(c * s ** (k + 1) * (ls / (k + 1) - 1.0 / (k + 1) ** 2)
                           for k, c in enumerate(self.coeffs))
            return -sum(c * (s ** k / k if k else ls) for k, c in enumerate(self.coeffs))

        return primitive(hi) - primitive(lo)

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
    Li2(z) = spence(1 - z).
    """
    if d == 3:
        gap = r - np.abs(a - s)
        return gap * gap / (4.0 * a * s * r)
    c0 = (a * a + s * s - r * r) / (2.0 * a * s)
    theta = np.arccos(np.minimum(np.maximum(c0, -1.0), 1.0))
    mx = np.maximum(a, s)
    z = np.minimum(a, s) / mx * np.exp(1j * theta)
    return (theta * (kr - np.log(mx)) + spence(1.0 - z).imag) / np.pi


def _shell_counting_kernel(a, s, r: float, d: int):
    """Mean over a unit-mass shell of radius s, center distance a, of
    (kappa(r) - kappa(|x - y|)) restricted to |x - y| <= r.

    ``a`` and ``s`` are floats or broadcastable arrays; floats give a float.
    Exact in every regime: the mean-value property covers a shell entirely
    inside the ball, and ``_shell_window`` covers a shell that crosses it.
    """
    kr = kappa(r, d)
    if isinstance(a, (float, int)) and isinstance(s, (float, int)):
        a, s = float(a), float(s)
        if abs(a - s) >= r:
            return 0.0
        if a + s <= r:
            return kr - kappa(max(a, s), d)
        return float(_shell_window(a, s, r, kr, d))
    a, s = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(a.shape)
    inside = a + s <= r
    out[inside] = kr - kappa(np.maximum(a, s)[inside], d)
    window = (np.abs(a - s) < r) & ~inside
    out[window] = _shell_window(a[window], s[window], r, kr, d)
    return out


def radial_counting(mu: Measure, y, t: float, spec: QuadSpec = DEFAULT_SPEC, *,
                    budget: ErrorBudget | None = None) -> float:
    """Mass of the closed ball of radius t about y.

    Exact for atoms (closed-ball convention) and for centred components;
    adaptive quadrature covers off-center density components.
    """
    if t < 0.0:
        raise ValueError("radial_counting: t must be nonnegative")
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
        if a == 0.0:
            total += comp.mass_within(thr)
        elif t > 0.0:
            res = integrate_1d(
                lambda s: comp.density(s) * _cap_fraction(a, s, t, d),
                0.0, comp.outer, spec, points=(abs(a - t), a + t), budget=budget,
                label="radial-counting")
            total += res.value
    return float(total)


# Batched integrated counting.  _PANEL_NODES: Gauss-Legendre nodes per panel
# of the coarse rule (the fine rule has twice as many).  _BATCH_CHUNK: points
# per vectorised block, which bounds the temporaries at about
# _BATCH_CHUNK * panels * 3 * _PANEL_NODES values.  _GRADED_LEVELS: most
# geometric kinks per panel set, enough for center distances down to about
# 4**-16 r.  _TIE_ULPS: rounding slack, in ulps, below which two scan values
# count as tied.
_PANEL_NODES = 16
_BATCH_CHUNK = 64
_GRADED_LEVELS = 16
_TIE_ULPS = 16


@lru_cache(maxsize=None)
def _cosine_panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights of n-point Gauss-Legendre after the change
    of variable u = (1 - cos phi) / 2, which smooths square-root edges."""
    x, w = np.polynomial.legendre.leggauss(n)
    phi = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(phi)), w * (0.25 * math.pi) * np.sin(phi)


def _radial_block(comp: RadialDensity, a: np.ndarray, r: float, d: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of density(s) * _shell_counting_kernel(a, s, r) over s for
    each center distance a > 0, with their n-against-2n error estimates.

    Each integral runs over fixed panels between the kernel's kinks
    |a - r|, a and a + r, inside the window [a - r, a + r] where the kernel
    is nonzero.  Every point gets the batch's panel edges, clipped to its
    own window, so many of its panels collapse to zero width: the density
    and the kernel are evaluated on the live panels only, and the dead ones
    contribute exact zeros.
    """
    lo = np.maximum(a - r, 0.0)
    hi = np.maximum(np.minimum(a + r, comp.outer), lo)
    kinks = [lo, np.abs(a - r), a, a + r, hi]
    # Where the shell is inside the ball, kappa(s) is singular at s = 0, a
    # distance a below the panel [a, r - a]; geometric kinks a * 4**k keep
    # every panel at least a third of its width away from it.
    ratio = float(np.max((r - a) / a, initial=1.0))
    for k in range(1, min(math.ceil(math.log(ratio, 4.0)), _GRADED_LEVELS) + 1):
        kinks.append(np.minimum(a * 4.0 ** k, np.abs(a - r)))
    edges = np.sort(np.clip(np.column_stack(kinks), lo[:, None], hi[:, None]), axis=1)
    width = np.diff(edges, axis=1)
    live = width > 0.0
    left = edges[:, :-1][live][:, None]
    live_width = width[live][:, None]
    center_dist = np.broadcast_to(a[:, None], live.shape)[live][:, None]

    def panel_integrals(n: int) -> np.ndarray:
        u, w = _cosine_panel_rule(n)
        s = left + live_width * u
        # Scattered back into the full (points, panels, nodes) layout, so
        # that f @ w and the panel sums add in the same order as over all
        # panels, bit for bit.
        f = np.zeros(live.shape + (n,))
        f[live] = comp.density(s) * _shell_counting_kernel(center_dist, s, r, d)
        return np.where(live, width * (f @ w), 0.0)

    coarse = panel_integrals(_PANEL_NODES)
    fine = panel_integrals(2 * _PANEL_NODES)
    value = fine.sum(axis=1)
    return value, np.maximum(np.abs(fine - coarse).sum(axis=1), 1e-16 * np.abs(value))


def _closed_counting(mu: Measure, pts: np.ndarray, r: float) -> np.ndarray:
    """The integrated counting at each row of ``pts`` from atoms (+inf at an
    atom), shells, and densities at their own center, where it is
    kappa(r) m(h) - kernel_integral(0, h) with h = min(r, outer)."""
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
    for comp in mu.radial:
        centre = row_norms(pts - comp.center) == 0.0
        if centre.any():
            h = min(r, comp.outer)
            total[centre] += kr * comp.mass_within(h) - comp.kernel_integral(0.0, h, d)
    return total


def _counting_block(mu: Measure, pts: np.ndarray, r: float, spec: QuadSpec
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, error estimates and acceptance flags of the integrated
    counting at each row of ``pts``, without any per-point quadrature.

    Rejected points are those whose error estimate misses the spec's
    tolerance; their values are meaningless.
    """
    total = _closed_counting(mu, pts, r)
    err = np.zeros(len(pts))
    for comp in mu.radial:
        a = row_norms(pts - comp.center)
        off = a > 0.0
        if off.any():
            value, error = _radial_block(comp, a[off], r, mu.dimension)
            total[off] += value
            err[off] += error
    ok = err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    return total, np.where(ok, err, 0.0), ok


def _counting_at(mu: Measure, y: np.ndarray, r: float, spec: QuadSpec
                 ) -> tuple[float, float]:
    """The integrated counting at one point and its error estimate (+inf
    when a quadrature failed): closed forms, plus adaptive quadrature for
    each density the point is off the center of.

    Shells of such a density that lie inside the ball, s <= r - a, have the
    kernel kappa(r) - kappa(max(a, s)) (Gauss mean value), which integrates
    in closed form; quadrature covers only the shells that cross the sphere,
    |r - a| < s < r + a.
    """
    d = mu.dimension
    point = ErrorBudget()
    total = float(_closed_counting(mu, y[np.newaxis, :], r)[0])
    for comp in mu.radial:
        a = float(np.linalg.norm(comp.center - y))
        if a == 0.0:
            continue
        inner = min(r - a, comp.outer)
        if inner > 0.0:
            split = min(a, inner)
            total += (kappa(r, d) * comp.mass_within(inner)
                      - kappa(a, d) * comp.mass_within(split)
                      - comp.kernel_integral(split, inner, d))
        lo, hi = abs(r - a), min(r + a, comp.outer)
        if lo < hi:
            res = integrate_1d(
                lambda s: comp.density(s) * _shell_counting_kernel(a, s, r, d),
                lo, hi, spec, points=(a,), budget=point, label="integrated-counting")
            total += res.value
    return total, point.error if point.ok else math.inf


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
    shells and for densities at their own center, and a radial integral of
    the shell kernel for densities off their center.

    ``y`` is one point (d,), which gives a float by adaptive quadrature, or
    an (n, d) array of points, which gives an (n,) array.  The array form
    integrates off-center densities on fixed panels, charges each point's
    n-against-2n error estimate, and sends any point whose estimate misses
    the spec's tolerance to the adaptive path.
    ``errors``, an (n,) array, receives each point's error estimate, with
    +inf where the quadrature failed.
    """
    if r <= 0.0:
        raise ValueError("integrated_counting: r must be positive")
    d = mu.dimension
    pts = np.asarray(y, dtype=float)
    if pts.ndim < 2:
        value, error = _counting_at(mu, as_point(y, d), r, spec)
        _charge(budget, value, error)
        return value
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) point array, got shape {pts.shape}")
    values = np.empty(len(pts))
    errs = np.empty(len(pts))
    for start in range(0, len(pts), _BATCH_CHUNK):
        block = slice(start, start + _BATCH_CHUNK)
        values[block], errs[block], ok = _counting_block(mu, pts[block], r, spec)
        for i in np.flatnonzero(~ok) + start:
            values[i], errs[i] = _counting_at(mu, pts[i], r, spec)
    for value, error in zip(values, errs):
        _charge(budget, value, error)
    if errors is not None:
        errors[:] = errs
    return values


def difference_counting(mu: Measure, r: float, R: float,
                        spec: QuadSpec = DEFAULT_SPEC, *,
                        budget: ErrorBudget | None = None) -> float:
    """hat_d * integral_r^R of the radial counting about 0 divided by t**(d-1).

    By Fubini, the integral of kappa(R) - kappa(max(r, |x|)) over |x| <= R:
    in closed form for atoms and densities centred at the origin (+inf at
    r = 0 for an atom there, or a d = 3 density with coeffs[0] > 0), and
    the integrated counting about 0 at R minus that at r for the rest.
    """
    if not (0.0 <= r < R):
        raise ValueError("difference_counting: invalid radii, need 0 <= r < R")
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


def potential(mu: Measure, x) -> float:
    """Kernel potential integral of kappa(|y - x|) dmu(y); -inf is legitimate.

    Shells contribute the closed form mass * kappa(max(radius, |x - center|)),
    and densities, through the same mean-value fact, kappa(a) m(a) plus
    ``kernel_integral`` from a = |x - center| to the outer radius.
    """
    d = mu.dimension
    x = as_point(x, d)
    total = 0.0
    for atom in mu.atoms:
        total += atom.mass * kappa(float(np.linalg.norm(atom.location - x)), d)
    for shell in mu.spheres:
        a = float(np.linalg.norm(shell.center - x))
        total += shell.mass * kappa(max(a, shell.radius), d)
    for comp in mu.radial:
        a = float(np.linalg.norm(comp.center - x))
        if a > 0.0:
            total += kappa(a, d) * comp.mass_within(a)
        total += comp.kernel_integral(min(a, comp.outer), comp.outer, d)
    return float(total)


def _in_ball(p: np.ndarray, radius: float) -> bool:
    """Whether p lies in the closed ball of the given radius about the origin."""
    return float(np.linalg.norm(p)) <= radius * (1.0 + BOUNDARY_RTOL)


def _ball_lattice(radius: float, d: int, resolution: int) -> list[np.ndarray]:
    """The points of the uniform lattice on [-radius, radius]**d that lie in
    the closed ball of that radius about the origin."""
    axis = np.linspace(-radius, radius, resolution)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    keep = row_norms(pts) <= radius * (1.0 + BOUNDARY_RTOL)
    return list(pts[keep])


def _support_samples(mu: Measure, resolution: int) -> list[tuple[np.ndarray, object]]:
    """Deterministic sample points on supp(mu), tagged with their component."""
    d = mu.dimension
    out: list[tuple[np.ndarray, object]] = []
    for atom in mu.atoms:
        out.append((atom.location, atom))
    n_ang = max(16, 2 * resolution)
    theta = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    ring = np.column_stack((np.cos(theta), np.sin(theta)))
    for shell in mu.spheres:
        if d == 2:
            for w in ring:
                out.append((shell.center + shell.radius * w, shell))
        else:
            n_pol = max(8, resolution)
            for u in np.linspace(-1.0, 1.0, n_pol):
                su = math.sqrt(max(1.0 - u * u, 0.0))
                for phi in np.arange(n_ang // 2) * (4.0 * math.pi / n_ang):
                    w = np.array([su * math.cos(phi), su * math.sin(phi), u])
                    out.append((shell.center + shell.radius * w, shell))
    for comp in mu.radial:
        if comp.kernel_integral(0.0, comp.outer, d) == -math.inf:
            out.append((comp.center, comp))  # the potential is -inf there
        n_rad = max(4, resolution // 2)
        radii = np.linspace(comp.outer / n_rad, comp.outer, n_rad)
        if d == 2:
            dirs = ring
        else:
            dirs = []
            for u in np.linspace(-1.0, 1.0, max(6, resolution // 2)):
                su = math.sqrt(max(1.0 - u * u, 0.0))
                for phi in np.arange(8) * (math.pi / 4.0):
                    dirs.append([su * math.cos(phi), su * math.sin(phi), u])
            dirs = np.asarray(dirs)
        for s in radii:
            for w in dirs:
                out.append((comp.center + s * np.asarray(w), comp))
    return out


def _project_to_component(p: np.ndarray, comp) -> np.ndarray | None:
    if isinstance(comp, SphereShell):
        v = p - comp.center
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return None
        return comp.center + comp.radius * v / nv
    if isinstance(comp, RadialDensity):
        v = p - comp.center
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return None
        s = min(max(nv, comp.outer * 1e-9), comp.outer)
        return comp.center + s * v / nv
    return None


class _CountingWalk:
    """State of a supremum scan that evaluates points in batches and then
    visits them one by one, in the order of a point-by-point scan.

    Only visited points count as evaluations; their nonzero error estimates
    go to ``charges``, in the order a point-by-point scan charges them.
    Two values that lie within their combined error estimates (plus a few
    ulps of rounding) are compared again through the adaptive per-point
    path, the arbiter of a point-by-point scan, so the batch's rounding
    never settles a near-tie; two error-free values are closed forms, which
    that path would return bit for bit, so they are not replayed.
    """

    def __init__(self, mu: Measure, r: float, spec: QuadSpec):
        self.mu, self.r, self.spec = mu, r, spec
        self.charges: list[tuple[float, float]] = []
        self.best_val = -math.inf
        self.best_err = 0.0
        self.best_pt: np.ndarray | None = None
        self.evaluations = 0
        self._per_point_cache: dict[tuple[float, ...], tuple[float, float]] = {}

    def evaluate(self, pts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        errors = np.empty(len(pts))
        values = integrated_counting(self.mu, np.array(pts), self.r, self.spec,
                                     errors=errors)
        return values, errors

    def _record(self, value: float, error: float) -> None:
        if error > 0.0:  # what _charge would charge
            self.charges.append((value, error))

    def _per_point(self, p: np.ndarray) -> tuple[float, float]:
        key = tuple(p)
        if key not in self._per_point_cache:
            value, error = _counting_at(self.mu, p, self.r, self.spec)
            self._record(value, error)
            self._per_point_cache[key] = (value, error)
        return self._per_point_cache[key]

    def visit(self, p: np.ndarray, value: float, error: float) -> bool:
        """Count, charge and compare one point; True when it becomes the best."""
        self.evaluations += 1
        self._record(value, error)
        scale = max(abs(value), abs(self.best_val))
        slack = error + self.best_err + _TIE_ULPS * np.finfo(float).eps * scale
        if ((error > 0.0 or self.best_err > 0.0) and math.isfinite(slack)
                and abs(value - self.best_val) <= slack):
            value, error = self._per_point(p)
            self.best_val, self.best_err = self._per_point(self.best_pt)
        if value > self.best_val:
            self.best_val, self.best_err, self.best_pt = value, error, p
            return True
        return False


def sup_integrated_counting(mu: Measure, region, r: float, resolution: int,
                            spec: QuadSpec = DEFAULT_SPEC, *,
                            budget: ErrorBudget | None = None) -> SupResult:
    """Grid-approximate supremum over the region of y -> integrated_counting.

    Evaluates at every atom location in the region, at component witness
    points, and on a uniform lattice of the given per-axis resolution, then
    walks locally around the best point (3 levels, factor 4 each), moving
    as soon as a point improves on it.  The result is the largest value the
    walk found: each value is a quadrature approximation whose error
    estimate is charged to ``budget``, and the grid maximum is not a bound
    on the supremum.  +inf is returned as soon as any evaluation is +inf.
    Regions: the radius of a closed ball about the origin, or SUPPORT.  A
    repeated scan returns the result cached on ``mu`` and charges ``budget``
    the same errors and failures again.
    """
    d = mu.dimension
    if d not in (2, 3):
        raise ValueError("sup_integrated_counting scans are provided for d in {2, 3}")
    if resolution < 3:
        raise ValueError("sup_integrated_counting: resolution must be at least 3")
    if region == SUPPORT:
        key = ("sup", SUPPORT, r, resolution, spec.abs_tol, spec.rel_tol)
    elif isinstance(region, (int, float)) and 0.0 < region < math.inf:
        key = ("sup", "ball", float(region), r, resolution, spec.abs_tol, spec.rel_tol)
    else:
        raise ValueError("region must be a positive finite ball radius or the SUPPORT marker")
    cached = mu._cache.get(key)
    if cached is None:
        cached = mu._cache[key] = _scan(mu, region, r, resolution, spec)
    result, charges = cached
    for value, error in charges:
        _charge(budget, value, error)
    return result


def _scan(mu: Measure, region, r: float, resolution: int, spec: QuadSpec
          ) -> tuple[SupResult, list[tuple[float, float]]]:
    """The scan behind ``sup_integrated_counting``, with its charges."""
    d = mu.dimension
    walk = _CountingWalk(mu, r, spec)
    if mu.is_zero:
        return SupResult(0.0, None, resolution, 0), walk.charges
    candidates: list[tuple[np.ndarray, object]] = []
    if region == SUPPORT:
        candidates = _support_samples(mu, resolution)
        step = max((c.outer for c in mu.radial), default=0.0)
        step = max(step, max((s.radius for s in mu.spheres), default=0.0))
        step = max(step / max(resolution - 1, 1), 1e-6)
    else:
        candidates = [(p, None) for p in _ball_lattice(region, d, resolution)]
        for atom in mu.atoms:
            if _in_ball(atom.location, region):
                candidates.append((atom.location, atom))
        for comp in (*mu.spheres, *mu.radial):
            if _in_ball(comp.center, region):
                candidates.append((comp.center, None))
        step = 2.0 * region / (resolution - 1)

    best_src: object = None
    values, errors = walk.evaluate([p for p, _ in candidates])
    for (p, src), value, error in zip(candidates, values, errors):
        if walk.visit(p, value, error):
            best_src = src
            if math.isinf(walk.best_val):
                break

    if walk.best_pt is not None and not math.isinf(walk.best_val):
        for _ in range(3):
            step /= 4.0
            offsets = np.linspace(-4.0 * step, 4.0 * step, 9)
            mesh = np.meshgrid(*([offsets] * d), indexing="ij")
            shifts = np.column_stack([m.ravel() for m in mesh])
            # Speculative batches: the next shifts about the current best,
            # dropped from the first improvement on and rebuilt about it.
            start = 0
            while start < len(shifts):
                batch: list[tuple[int, np.ndarray]] = []
                k = start
                while k < len(shifts) and len(batch) < _BATCH_CHUNK:
                    q = walk.best_pt + shifts[k]
                    k += 1
                    if region == SUPPORT:
                        q = _project_to_component(q, best_src)
                        if q is None:
                            continue
                    elif not _in_ball(q, region):
                        continue
                    batch.append((k, q))  # k: where the walk resumes after q
                start = k
                if not batch:
                    break
                values, errors = walk.evaluate([q for _, q in batch])
                for (k, q), value, error in zip(batch, values, errors):
                    if walk.visit(q, value, error):
                        start = k
                        break

    best_pt = walk.best_pt
    return SupResult(float(walk.best_val),
                     None if best_pt is None else tuple(float(v) for v in best_pt),
                     resolution, walk.evaluations), walk.charges


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

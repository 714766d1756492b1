"""Differences of subharmonic functions with explicitly known charge data.

A function here is a finite sum of kernel terms c_i * kappa(|x - a_i|) plus
a harmonic polynomial part, so its distributional Laplacian is the signed
atomic measure sum c_i * delta_{a_i} (times the surface-area normalisation,
which every routine in this package absorbs into the kernel).  Rational maps
of one complex variable are provided as the canonical d = 2 source: zeros
carry positive charge, poles negative, and log|scale| is the harmonic part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
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
from .measures import Atom, Measure
from .quadrature import (
    DEFAULT_SPEC,
    ErrorBudget,
    QuadSpec,
    _bracketed_roots,
    _read_only,
    _settle,
    _sphere,
    _sphere3_positive_means,
    positive_part_mean,
    radius_integral,
    sphere_grid,
)

# Charges within this relative distance of a circle are declared singular
# angles of the circle means there, which then run the tanh-sinh rule split
# at them.  The trapezoid rule, and the sign grid that finds a positive
# part's roots, are only trusted for charges farther off the circle than this.
NEAR_CIRCLE_RTOL = 0.05

_TINY = float(np.finfo(float).tiny)
_CHARGE_BLOCK = 2 ** 15  # (charge, point) pairs that evaluate holds at once
_CONTACT_RADII = 32  # spheres between 0 and outer that bracket contact radii
_PATCH_STEP_MIN = 1e-10  # the patch search's last step, in the tangent plane
_PATCH_DEPTH = 3  # patches of the search evaluated in one call

HARMONIC_LABELS = ("const", "x0", "x1", "x2", "x0*x1", "x0^2-x1^2",
                   "re_z^2", "im_z^2", "re_z^3", "im_z^3")


def _charge_distances(pts: np.ndarray, locs: np.ndarray):
    """|p - c| for each row c of locs (k, d) and each row p of pts (n, d),
    as a (k, n) array, and the (charge, row) index arrays of the pairs at
    distance 0, or None when no pair underflowed.

    The distances are summed from squared column differences as
    ``row_norms`` sums them, so they agree bit for bit, without an (n, d)
    temporary; the columns of a column-major pts are read without a copy.
    A pair whose squared sum fell below the smallest normal number has lost
    its digits to underflow, so only such pairs are summed again by
    ``np.hypot``, which scales."""
    dist = np.empty((len(locs), len(pts)))
    diff = np.empty_like(dist)
    for j in range(pts.shape[1]):
        np.subtract(pts[:, j], locs[:, j, np.newaxis], out=diff)
        if j == 0:
            np.multiply(diff, diff, out=dist)
        else:
            np.add(dist, np.multiply(diff, diff, out=diff), out=dist)
    underflow = np.nonzero(dist < _TINY) if dist.min(initial=math.inf) < _TINY else None
    np.sqrt(dist, out=dist)
    if underflow is None:
        return dist, None
    charge, row = underflow
    dist[underflow] = np.hypot.reduce(pts[row] - locs[charge], axis=1)
    zero = dist[underflow] == 0.0
    return dist, (charge[zero], row[zero])


def _check_harmonic_label(label, d: int) -> None:
    """Raise ValueError unless ``label`` names a harmonic term in dimension d."""
    if label not in HARMONIC_LABELS:
        raise ValueError(f"unknown harmonic term label {label!r}")
    if label == "x2" and d <= 2:
        raise ValueError(f"harmonic term {label!r} needs dimension > 2")
    if label.startswith(("re_z^", "im_z^")) and d != 2:
        raise ValueError(f"harmonic term {label!r} is two-dimensional only")


def _harmonic_term(label: str, pts: np.ndarray, d: int) -> np.ndarray | float:
    """Evaluate one labeled harmonic basis term on an (n, d) point array;
    the constant term is the float 1.0, which broadcasts."""
    _check_harmonic_label(label, d)
    if label == "const":
        return 1.0
    if label in ("x0", "x1", "x2"):
        return pts[:, int(label[1])]
    if label == "x0*x1":
        return pts[:, 0] * pts[:, 1]
    if label == "x0^2-x1^2":
        return pts[:, 0] ** 2 - pts[:, 1] ** 2
    k = int(label.split("^")[1])  # re_z^k, im_z^k
    w = (pts[:, 0] + 1j * pts[:, 1]) ** k
    return w.real if label.startswith("re") else w.imag


def _harmonic_gradient_bound(label: str, pts: np.ndarray, rho: float):
    """An upper bound on |grad| of one labeled harmonic basis term over the
    ball of radius rho about each row of an (n, d) point array."""
    if label == "const":
        return 0.0
    if label in ("x0", "x1", "x2"):
        return 1.0
    # |(x0, x1)| over the ball: the gradients below grow with it.
    q = np.hypot(pts[:, 0], pts[:, 1]) + rho
    if label == "x0*x1":
        return q
    if label == "x0^2-x1^2":
        return 2.0 * q
    k = int(label.split("^")[1])  # re_z^k, im_z^k: |grad| = k |z|**(k - 1)
    return k * q ** (k - 1)


@dataclass(frozen=True, eq=False)
class Charge:
    """Signed point charge feeding one kernel term."""

    location: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=float))
        if self.location.ndim != 1:
            raise ValueError("Charge.location must be a flat coordinate vector")
        if not math.isfinite(self.weight):
            raise ValueError("Charge.weight must be finite")


@dataclass(frozen=True)
class HarmonicPart:
    """Linear combination of labeled harmonic basis terms."""

    terms: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        clean = []
        for label, coeff in self.terms:
            if label not in HARMONIC_LABELS:
                raise ValueError(f"unknown harmonic term label {label!r}")
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"harmonic coefficient for {label!r} must be finite")
            if c != 0.0:
                clean.append((label, c))
        object.__setattr__(self, "terms", tuple(clean))

    def evaluate(self, pts: np.ndarray, d: int) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for label, coeff in self.terms:
            out += coeff * _harmonic_term(label, pts, d)
        return out

    def gradient_bound(self, pts: np.ndarray, rho: float) -> np.ndarray:
        """An upper bound on |grad| over the ball of radius rho about each row."""
        out = np.zeros(pts.shape[0])
        for label, coeff in self.terms:
            out += abs(coeff) * _harmonic_gradient_bound(label, pts, rho)
        return out

    def scaled(self, factor: float) -> "HarmonicPart":
        return HarmonicPart(tuple((lb, factor * c) for lb, c in self.terms))


@dataclass(frozen=True, eq=False)
class DshFunction:
    """Sum of kernel terms plus a harmonic part, with its charges explicit.

    Coincident charge locations are merged at construction, so a single
    location never contributes two kernel terms of opposite sign and the
    pointwise value at a charge is an unambiguous +inf or -inf.
    """

    dimension: int
    charges: tuple[Charge, ...] = ()
    harmonic: HarmonicPart = field(default_factory=HarmonicPart)

    def __post_init__(self):
        d = validate_dimension(self.dimension)
        object.__setattr__(self, "dimension", d)
        for label, _ in self.harmonic.terms:
            _check_harmonic_label(label, d)
        merged: list[Charge] = []
        for ch in self.charges:
            if ch.location.shape != (d,):
                raise ValueError("charge location dimension mismatch")
            for i, prev in enumerate(merged):
                if np.array_equal(prev.location, ch.location):
                    merged[i] = Charge(prev.location, prev.weight + ch.weight)
                    break
            else:
                merged.append(ch)
        charges = tuple(c for c in merged if c.weight != 0.0)
        object.__setattr__(self, "charges", charges)
        # The charges as arrays, for ``evaluate``: locations (k, d), weights (k, 1).
        object.__setattr__(self, "_locations", _read_only(
            np.array([c.location for c in charges]).reshape(-1, d)))
        object.__setattr__(self, "_weights", _read_only(
            np.array([c.weight for c in charges]).reshape(-1, 1)))

    def evaluate(self, x) -> float | np.ndarray:
        """Pointwise value; accepts one point or an (n, d) array of points.

        The harmonic part, then each charge's term w kappa(|p - c|), added
        in charge order.  The terms of a block of charges are computed in
        one (k, n) buffer (``_charge_distances``), at most _CHARGE_BLOCK
        values at a time.
        """
        pts, single = _as_points(x, self.dimension)
        out = self.harmonic.evaluate(pts, self.dimension)
        # kappa is -inf at a charge, and overflows to it within about
        # 1e-308 of one in d = 3.  A row on a charge takes that charge's
        # infinity after the sum, so that a charge of opposite weight whose
        # kappa overflows there cannot cancel it to nan.
        on_charge = []
        block = max(1, _CHARGE_BLOCK // max(len(pts), 1))
        with np.errstate(divide="ignore", over="ignore"):
            for start in range(0, len(self.charges), block):
                weights = self._weights[start:start + block]
                dist, on = _charge_distances(pts, self._locations[start:start + block])
                term = np.multiply(_kappa_in_place(dist, self.dimension), weights, out=dist)
                if on is not None:
                    term[on] = 0.0
                    on_charge.append((on[1], -np.copysign(math.inf, weights[on[0], 0])))
                for row in term:
                    out += row
        for rows, values in on_charge:
            out[rows] = values
        return float(out[0]) if single else out

    def sphere_range(self, center, s):
        """Bounds of u on the sphere |x - center| = s and its mean there,
        (lo, mean, hi), in closed form; floats for a float s, arrays for an
        array of radii, in one pass over the charges.  A charge at distance
        a from the centre lies between |s - a| and s + a from the sphere's
        points, and kappa increases, so it adds w kappa(|s - a|), -inf when
        a = s, to lo and w kappa(s + a) to hi when w > 0, and the other way
        round when w < 0; by the mean-value property it adds
        w kappa(max(s, a)) to the mean.  The harmonic part adds h(center)
        to the mean and h(center) -+ s * ``HarmonicPart.gradient_bound`` to
        the bounds."""
        d = self.dimension
        c = as_point(center, d)
        radii = np.asarray(s, dtype=float).ravel()
        h = float(self.harmonic.evaluate(c[np.newaxis], d)[0])
        slope = radii * self.harmonic.gradient_bound(c[np.newaxis].repeat(radii.size, axis=0),
                                                     radii)
        # Rows lo, hi, mean, one column per radius.
        total = np.array([h - slope, h + slope, np.full(radii.size, h)])
        # Each charge's distance a as np.linalg.norm computes it, then
        # (charge, radius) rows of |s - a|, s + a and max(s, a), overwritten
        # by the terms w kappa there: the low and high ones of the first two,
        # and the third.  Each charge's terms are added in charge order.
        a = np.array([math.sqrt(v.dot(v)) for v in self._locations - c]).reshape(-1, 1)
        terms = np.empty((3, len(a), radii.size))
        near, far, inside = terms
        np.abs(np.subtract(radii, a, out=near), out=near)
        np.add(radii, a, out=far)
        np.maximum(radii, a, out=inside)
        with np.errstate(divide="ignore", over="ignore"):
            np.multiply(_kappa_in_place(terms, d), self._weights, out=terms)
        low = np.minimum(near, far)
        np.maximum(near, far, out=far)
        near[...] = low
        for term in terms.transpose(1, 0, 2):
            total += term
        lo, hi, mean = total
        if np.ndim(s):
            return lo, mean, hi
        return float(lo[0]), float(mean[0]), float(hi[0])

    def positive_mean(self, center, s, spec: QuadSpec = DEFAULT_SPEC, *,
                      budget: ErrorBudget | None = None, label: str = "positive-part"):
        """Mean of max(u, 0) over the sphere |x - center| = s: a float for a
        float s, an array for a 1-D array of radii, a stack of spheres about
        one centre, which a float is a stack of one.  Where ``sphere_range``
        shows u < 0 on a sphere, 0, which is what every rule of
        ``positive_part_mean`` returns from samples that are all negative,
        with error 0; where it shows u > 0, the mean of u; neither charges
        the budget.  The other spheres take ``positive_part_mean``'s rules:
        in the plane one sphere at a time, with the charges on the circle as
        singular angles; in R^3 as one stack.  Their results are charged to
        the budget in the order of the radii, and without one the first
        failure in that order raises.  Dimension, radii and centre are
        checked first, as ``positive_part_mean`` checks them."""
        radii = np.atleast_1d(np.asarray(s, dtype=float))
        d = self.dimension
        for r in radii:
            d, center = _sphere(float(r), d, center)
        lo, mean, hi = self.sphere_range(center, radii)
        out = np.where(hi < 0.0, 0.0, mean)
        rest = np.flatnonzero(~(hi < 0.0) & ~(lo > 0.0))
        if d == 2:
            for i in rest:
                r = float(radii[i])
                out[i] = positive_part_mean(self.evaluate, r, d, spec, center=center,
                                            budget=budget, label=label,
                                            singular_angles=self.singular_angles_on(center, r))
        else:
            for i, result in zip(rest, _sphere3_positive_means(self.evaluate, center,
                                                               radii[rest], spec)):
                out[i] = _settle(result, budget, label)
        return out if np.ndim(s) else float(out[0])

    def __call__(self, x):
        return self.evaluate(x)

    def scale(self, factor: float) -> "DshFunction":
        """The function multiplied by a positive scalar."""
        check_positive("DshFunction.scale", factor=factor)
        return DshFunction(
            self.dimension,
            tuple(Charge(c.location, factor * c.weight) for c in self.charges),
            self.harmonic.scaled(factor))

    def riesz_lower_variation(self) -> Measure:
        """Atomic measure collecting |weight| at each negative charge."""
        atoms = tuple(Atom(c.location, -c.weight)
                      for c in self.charges if c.weight < 0.0)
        return Measure(self.dimension, atoms)

    def singular_angles_on(self, center, radius: float) -> tuple[float, ...] | None:
        """Angles (d = 2) of charges lying numerically on the given circle.

        Used as quadrature hints: a kernel term whose charge sits on the
        integration circle makes the integrand singular at that angle.
        """
        if self.dimension != 2:
            return None
        center = as_point(center, 2)
        angles = []
        for ch in self.charges:
            v = ch.location - center
            dist = float(np.linalg.norm(v))
            if abs(dist - radius) <= NEAR_CIRCLE_RTOL * radius and dist > 0.0:
                angles.append(math.atan2(v[1], v[0]))
        return tuple(sorted(angles)) if angles else None


def _contact_radii(u: DshFunction, center: np.ndarray, outer: float) -> list[float]:
    """Radii in (0, outer) where the sphere about ``center`` first or last
    touches {u > 0}, the zeros of the max and the min of u on it: one batched
    Chandrupatla solve (``_bracketed_roots``) over the sign changes on
    ``_CONTACT_RADII`` scanned spheres, the first of which, of radius 0, is
    the centre.  At each radius the extremum comes from a patch search in
    the tangent plane at the grid's best node, which a scanned sphere has
    already found: u is evaluated on a 5**(d - 1) patch about the best point
    so far, which moves to the patch's best point, or, when that is the
    centre, shrinks by 4, until its step is below ``_PATCH_STEP_MIN``.
    Each call evaluates the patch and the next _PATCH_DEPTH - 1 shrunken ones
    about the same point, and the walk takes them in turn up to the first
    that moves it.  A missed zero costs the integral time, not accuracy."""
    dirs = sphere_grid(u.dimension)
    offsets = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * (u.dimension - 1),
                                   indexing="ij"), axis=-1).reshape(-1, u.dimension - 1)
    centre = len(offsets) // 2
    # About one spacing of the grid.
    first_step = 2.0 * math.pi / len(dirs) ** (1.0 / (u.dimension - 1))
    radii = outer * np.arange(_CONTACT_RADII + 1) / _CONTACT_RADII
    at_centre = u.evaluate(center)
    scans, tops = [(at_centre, at_centre)], {}
    for s in radii[1:]:  # one sphere at a time
        v = u.evaluate(center + s * dirs)
        scans.append((v.max(), v.min()))
        tops[s, 1.0], tops[s, -1.0] = int(np.argmax(v)), int(np.argmin(v))

    def extremum(s: float, sign: float) -> float:
        if s == 0.0:
            return at_centre
        i = tops.get((s, sign))
        top = dirs[int(np.argmax(sign * u.evaluate(center + s * dirs))) if i is None else i]
        tangent = np.linalg.svd(top[np.newaxis])[2][1:]
        best, step = np.zeros(len(tangent)), first_step
        while True:
            steps = [step]
            while len(steps) < _PATCH_DEPTH and steps[-1] / 4.0 >= _PATCH_STEP_MIN:
                steps.append(steps[-1] / 4.0)
            v = np.concatenate([top + (best + h * offsets) @ tangent for h in steps])
            values = sign * u.evaluate(center + s * v / row_norms(v)[:, np.newaxis])
            for h, patch in zip(steps, values.reshape(len(steps), -1)):
                i = int(np.argmax(patch))
                if patch[i] > patch[centre]:
                    best = best + h * offsets[i]
                    break
                step = h / 4.0
                if step < _PATCH_STEP_MIN:
                    return sign * float(patch[i])

    extrema = np.vectorize(extremum, otypes=[float])  # over the open brackets
    scans = np.array(scans)
    # Column 0 brackets the zeros of the max, column 1 those of the min.
    side, cells = np.nonzero((np.diff(scans > 0.0, axis=0)
                              & np.isfinite(scans[:-1] + scans[1:])).T)
    signs = 1.0 - 2.0 * side
    roots = np.full(len(cells), math.nan)
    # A zero within the grid's shortfall of a radius needs the wider bracket.
    for lo, hi in ((cells, cells + 1),
                   (np.maximum(cells - 1, 0), np.minimum(cells + 2, _CONTACT_RADII))):
        retry = np.isnan(roots)
        roots[retry] = _bracketed_roots(extrema, radii[lo[retry]], radii[hi[retry]],
                                        (signs[retry],), xatol=1e-13)
    return roots[np.isfinite(roots)].tolist()


def positive_part_integral(u: DshFunction, mu: Measure,
                           spec: QuadSpec = DEFAULT_SPEC, *,
                           budget: ErrorBudget | None = None) -> float:
    """Integral of max(u, 0) against the measure.

    Atoms are evaluated exactly (an atom on a positive charge gives +inf; on
    a negative charge it contributes 0).  Shell components use the sphere
    means of u+ (``DshFunction.positive_mean``).  A radial component
    integrates them over the ring radius with ``radius_integral``, split at
    the kinks: the charges' distances from its centre and its contact radii.
    Every failure, of a mean or of a ring integral, is charged to
    ``budget``, or raised as QuadratureError when there is none.
    """
    if u.dimension != mu.dimension:
        raise ValueError("function and measure dimensions differ")
    total = 0.0
    for atom in mu.atoms:
        total += atom.mass * max(u.evaluate(atom.location), 0.0)
    for shell in mu.spheres:
        total += shell.mass * u.positive_mean(shell.center, shell.radius, spec, budget=budget)
    for comp in mu.radial:
        breaks = [float(np.linalg.norm(ch.location - comp.center)) for ch in u.charges]
        breaks += _contact_radii(u, comp.center, comp.outer)
        total += _settle(radius_integral(
            lambda s: comp.density(s) * u.positive_mean(comp.center, s, spec, budget=budget),
            0.0, comp.outer, spec, breaks=breaks), budget, "positive-part")
    return float(total)


def kernel_witness(y, r: float, R: float, d: int) -> DshFunction:
    """The test function x -> kappa(R + r) - kappa(|x - y|).

    Nonnegative on the closed ball of radius R around the origin whenever
    |y| <= r, with a single unit negative charge at y; its two-radius
    characteristic is kappa(R + r) - kappa(r) exactly.
    """
    check_positive("kernel_witness", r=r, R=R)
    y = as_point(y, d)
    harmonic = HarmonicPart((("const", float(kappa(R + r, d))),))
    return DshFunction(d, (Charge(y, -1.0),), harmonic)


# ---------------------------------------------------------------------------
# Rational maps of one complex variable


@dataclass(frozen=True)
class RationalFunction:
    """Rational map given by zero and pole multisets and a scale factor.

    ``zeros`` and ``poles`` list each root with multiplicity.  Common entries
    are cancelled pairwise at construction, mirroring reduction of the
    fraction; the scale is the leading coefficient ratio and must be nonzero.
    """

    zeros: tuple[complex, ...] = ()
    poles: tuple[complex, ...] = ()
    scale: complex = 1.0

    def __post_init__(self):
        zeros = [complex(v) for v in self.zeros]
        poles = [complex(v) for v in self.poles]
        reduced_poles: list[complex] = []
        for p in poles:
            if p in zeros:
                zeros.remove(p)
            else:
                reduced_poles.append(p)
        s = complex(self.scale)
        if s == 0 or not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise ValueError("RationalFunction.scale must be finite and nonzero")
        object.__setattr__(self, "zeros", tuple(sorted(zeros, key=lambda z: (z.real, z.imag))))
        object.__setattr__(self, "poles", tuple(sorted(reduced_poles, key=lambda z: (z.real, z.imag))))
        object.__setattr__(self, "scale", s)

    def log_abs(self, z: complex) -> float:
        """ln|f(z)| as a sum of log distances; -inf at zeros, +inf at poles."""
        total = math.log(abs(self.scale))
        for a in self.zeros:
            total += -math.inf if z == a else math.log(abs(z - a))
        for b in self.poles:
            total -= -math.inf if z == b else math.log(abs(z - b))
        return total


def from_rational(f: RationalFunction) -> DshFunction:
    """ln|f| as a kernel sum: +1 per zero, -1 per pole, constant ln|scale|."""
    charges = []
    for a in f.zeros:
        charges.append(Charge(np.array([a.real, a.imag]), 1.0))
    for b in f.poles:
        charges.append(Charge(np.array([b.real, b.imag]), -1.0))
    harmonic = HarmonicPart((("const", math.log(abs(f.scale))),))
    return DshFunction(2, tuple(charges), harmonic)


# ---------------------------------------------------------------------------
# JSON schema


def dsh_from_json(data, *, path: str = "function") -> DshFunction:
    if isinstance(data, dict) and "rational" in data:
        expect_object(data, path, ("rational",))  # no charge fields beside it
        return from_rational(rational_from_json(data["rational"],
                                                path=f"{path}.rational"))
    expect_object(data, path, ("dimension",), ("charges", "harmonic"))
    d = expect_int(data["dimension"], f"{path}.dimension", 2)
    charges = []
    for i, entry in enumerate(expect_list(data.get("charges"), f"{path}.charges")):
        p = f"{path}.charges[{i}]"
        expect_object(entry, p, ("point", "weight"))
        charges.append(Charge(expect_point(entry["point"], d, f"{p}.point"),
                              expect_number(entry["weight"], f"{p}.weight")))
    terms = []
    for i, entry in enumerate(expect_list(data.get("harmonic"), f"{path}.harmonic")):
        p = f"{path}.harmonic[{i}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"{p}: expected a [label, coefficient] pair")
        label, coeff = entry
        try:
            _check_harmonic_label(label, d)
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
        terms.append((label, expect_number(coeff, f"{p}[1]")))
    try:
        return DshFunction(d, tuple(charges), HarmonicPart(tuple(terms)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _expect_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(expect_number(value, path))
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return complex(expect_number(value[0], f"{path}[0]"),
                       expect_number(value[1], f"{path}[1]"))
    raise ValueError(f"{path}: expected a number or [re, im] pair")


def rational_from_json(data, *, path: str = "rational") -> RationalFunction:
    expect_object(data, path, (), ("zeros", "poles", "scale"))
    zs = [_expect_complex(z, f"{path}.zeros[{i}]")
          for i, z in enumerate(expect_list(data.get("zeros"), f"{path}.zeros"))]
    ps = [_expect_complex(p, f"{path}.poles[{i}]")
          for i, p in enumerate(expect_list(data.get("poles"), f"{path}.poles"))]
    scale = _expect_complex(data.get("scale", 1.0), f"{path}.scale")
    try:
        return RationalFunction(tuple(zs), tuple(ps), scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

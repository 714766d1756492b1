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
from .measures import Atom, Measure
from .quadrature import (
    DEFAULT_SPEC,
    ErrorBudget,
    QuadSpec,
    integrate_1d,
    positive_part_mean,
)

# Charges within this relative distance of a circle are declared singular
# angles of the circle means there, which then run the adaptive rule split at
# them.  The trapezoid rule and the positive-part arc rules are only trusted
# for charges farther off the circle than this.
NEAR_CIRCLE_RTOL = 0.05

HARMONIC_LABELS = ("const", "x0", "x1", "x2", "x0*x1", "x0^2-x1^2",
                   "re_z^2", "im_z^2", "re_z^3", "im_z^3")


def _harmonic_term(label: str, pts: np.ndarray, d: int) -> np.ndarray:
    """Evaluate one labeled harmonic basis term on an (n, d) point array."""
    if label == "const":
        return np.ones(pts.shape[0])
    if label in ("x0", "x1", "x2"):
        axis = int(label[1])
        if axis >= d:
            raise ValueError(f"harmonic term {label!r} needs dimension > {axis}")
        return pts[:, axis]
    if label == "x0*x1":
        return pts[:, 0] * pts[:, 1]
    if label == "x0^2-x1^2":
        return pts[:, 0] ** 2 - pts[:, 1] ** 2
    if d != 2:
        raise ValueError(f"harmonic term {label!r} is two-dimensional only")
    if label.startswith(("re_z^", "im_z^")):
        k = int(label.split("^")[1])
        z = pts[:, 0] + 1j * pts[:, 1]
        w = z ** k
        return w.real if label.startswith("re") else w.imag
    raise ValueError(f"unknown harmonic term label {label!r}")


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
        object.__setattr__(
            self, "charges", tuple(c for c in merged if c.weight != 0.0))

    def evaluate(self, x) -> float | np.ndarray:
        """Pointwise value; accepts one point or an (n, d) array of points."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError("points must have shape (d,) or (n, d)")
        out = self.harmonic.evaluate(pts, self.dimension)
        for ch in self.charges:
            dist = row_norms(pts - ch.location)
            out = out + ch.weight * kappa(dist, self.dimension)
        return float(out[0]) if single else out

    def __call__(self, x):
        return self.evaluate(x)

    def scale(self, factor: float) -> "DshFunction":
        """The function multiplied by a positive scalar."""
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ValueError("scale factor must be positive and finite")
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


def positive_part_integral(u: DshFunction, mu: Measure,
                           spec: QuadSpec = DEFAULT_SPEC, *,
                           budget: ErrorBudget | None = None) -> float:
    """Integral of max(u, 0) against the measure.

    Atoms are evaluated exactly (an atom on a positive charge gives +inf; on
    a negative charge it contributes 0).  Shell components use positive-part
    sphere means with singular-angle hints, and radial components nest a
    radius integral over those means.
    """
    d = mu.dimension
    if u.dimension != d:
        raise ValueError("function and measure dimensions differ")
    total = 0.0
    for atom in mu.atoms:
        total += atom.mass * max(u.evaluate(atom.location), 0.0)
    for shell in mu.spheres:
        hints = u.singular_angles_on(shell.center, shell.radius)
        mean = positive_part_mean(u.evaluate, shell.radius, d, spec,
                                  center=shell.center, budget=budget,
                                  singular_angles=hints, label="positive-part")
        total += shell.mass * mean
    for comp in mu.radial:
        # A charge's distance from the center is a kink of the ring means.
        pts = [float(np.linalg.norm(ch.location - comp.center)) for ch in u.charges]

        def ring(s: float, comp=comp) -> float:
            hints = u.singular_angles_on(comp.center, s)
            return positive_part_mean(u.evaluate, s, d, spec, center=comp.center,
                                      budget=budget, singular_angles=hints,
                                      label="positive-part")

        res = integrate_1d(lambda s: comp.density(s) * ring(s), 0.0, comp.outer,
                           spec, points=pts, budget=budget, label="positive-part")
        total += res.value
    return float(total)


def kernel_witness(y, r: float, R: float, d: int) -> DshFunction:
    """The test function x -> kappa(R + r) - kappa(|x - y|).

    Nonnegative on the closed ball of radius R around the origin whenever
    |y| <= r, with a single unit negative charge at y; its two-radius
    characteristic is kappa(R + r) - kappa(r) exactly.
    """
    if not (0.0 < r < R):
        raise ValueError("kernel_witness: need 0 < r < R")
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
        if label not in HARMONIC_LABELS:
            raise ValueError(f"{p}: unknown harmonic term label {label!r}")
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

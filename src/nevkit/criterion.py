"""Checkers for the five-statement finiteness criterion and its companions.

Each checker returns a CheckReport with an explicit verdict.  Inequality
verdicts are three-valued: ``holds`` and ``fails`` are asserted only when the
computed margin clears the accumulated quadrature error estimate, otherwise
the verdict is ``undetermined``.  Suprema and infima over continua are
grid-approximate; reports record the resolution used so runs are
reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dsh import DshFunction, RationalFunction, from_rational, positive_part_integral
from .kernels import (
    BOUNDARY_RTOL,
    constant_A,
    green_ball,
    kappa,
    poisson_kernel,
    sphere_area,
)
from .measures import (
    SUPPORT,
    Measure,
    _support_samples,
    difference_counting,
    potential,
    radial_counting,
    sup_integrated_counting,
)
from .nevanlinna import classical_N, classical_T, difference_T
from .quadrature import DEFAULT_SPEC, ErrorBudget, QuadSpec, sphere_mean

BASE_TOLERANCE = 1e-7
IDENTITY_TOLERANCE = 1e-6
DEFAULT_RESOLUTION = 17
# Relative slack of "mu is supported in the closed ball of radius r" in
# statement II and the corollary.
SUPPORT_RTOL = 1e-9

HOLDS = "holds"
FAILS = "fails"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: the two sides, the verdict, and diagnostics."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    verdict: str
    diagnostics: tuple[str, ...] = ()

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        def enc(x: float):
            # Keep the records strict JSON: inf/nan become strings.
            return x if math.isfinite(x) else str(x)

        return {"name": self.name, "lhs": enc(self.lhs), "rhs": enc(self.rhs),
                "residual": enc(self.residual), "tolerance": self.tolerance,
                "verdict": self.verdict, "diagnostics": list(self.diagnostics)}


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _failure_lines(budget: ErrorBudget) -> list[str]:
    """One diagnostic per failed quadrature label, with its count when > 1."""
    return [f"quadrature failure: {label}" + (f" (x{n})" if n > 1 else "")
            for label, n in Counter(budget.failures).items()]


def _inequality_report(name: str, lhs: float, rhs: float, budget: ErrorBudget,
                       diagnostics: list[str]) -> CheckReport:
    """Verdict for lhs <= rhs with three-valued error awareness.

    An infinite rhs makes the inequality vacuous regardless of quadrature
    health, and a witnessed infinite lhs against a finite rhs is a definite
    failure; both come from exact atomic arithmetic, never from quadrature.
    Finite margins must clear the accumulated error estimate to earn a
    definite verdict.
    """
    err = budget.error
    tol = BASE_TOLERANCE + err
    diag = [*diagnostics, *_failure_lines(budget)]
    if err > BASE_TOLERANCE:
        diag.append(f"accumulated quadrature error estimate {err:.3e}")
    if math.isnan(lhs) or math.isnan(rhs):
        verdict = UNDETERMINED
        diag.append("non-numeric side")
    elif rhs == math.inf:
        verdict = HOLDS
        diag.append("rhs infinite; inequality vacuous")
    elif lhs == math.inf:
        verdict = FAILS
    elif not budget.ok:
        verdict = UNDETERMINED
    else:
        margin = rhs - lhs
        if margin >= -tol and (margin >= err or err <= BASE_TOLERANCE):
            verdict = HOLDS
        elif margin >= -tol:
            verdict = UNDETERMINED
            diag.append("margin below accumulated quadrature error")
        else:
            verdict = FAILS
    residual = lhs - rhs if not (math.isinf(lhs) and math.isinf(rhs)) else 0.0
    return CheckReport(name, lhs, rhs, residual, tol, verdict, tuple(diag))


def _finiteness_report(name: str, value: float, budget: ErrorBudget,
                       diagnostics: list[str]) -> CheckReport:
    """Verdict for 'value < +inf'; a witnessed +inf is decisive."""
    diag = [*diagnostics, *_failure_lines(budget)]
    if value == math.inf:
        verdict = FAILS
    elif math.isnan(value) or not budget.ok:
        verdict = UNDETERMINED
    else:
        verdict = HOLDS
    return CheckReport(name, value, math.inf, 0.0, BASE_TOLERANCE, verdict,
                       tuple(diag))


def check_statement_I(mu: Measure, r0: float, R: float, *,
                      resolution: int = DEFAULT_RESOLUTION,
                      spec: QuadSpec = DEFAULT_SPEC,
                      name: str = "statement_I") -> CheckReport:
    """Is the integrated counting at radius r0 bounded over the ball of
    radius R around the origin?"""
    if not (r0 > 0.0):
        raise ValueError("statement I: r0 must be positive")
    if not (R > mu.support_radius * (1.0 - BOUNDARY_RTOL)) or R <= 0.0:
        raise ValueError("statement I: R must exceed the support radius of mu")
    budget = ErrorBudget()
    sup = sup_integrated_counting(mu, R, r0, resolution, spec, budget=budget)
    diag = [f"sup {_fmt(sup.value)} over ball radius {_fmt(R)}",
            f"grid resolution {sup.resolution}, {sup.evaluations} evaluations"]
    if sup.argmax is not None:
        diag.append("argmax " + "(" + ", ".join(_fmt(v) for v in sup.argmax) + ")")
    return _finiteness_report(name, sup.value, budget, diag)


@dataclass(frozen=True)
class StatementIIBounds:
    """Both sides of the statement-II inequality, with the factors exposed.

    ``rhs`` uses the published constant.  ``rhs_tight`` is the sharper
    two-term bound at the strict intermediate radius ``R_star``, reported
    alongside the lower-variation radial count it uses.
    """

    lhs: float
    rhs: float
    characteristic: float
    mu_radial: float
    sup_counting: float
    constant: float
    rhs_tight: float
    R_star: float
    lower_radial: float


def statement_ii_bounds(mu: Measure, U: DshFunction, r: float, R: float, *,
                        resolution: int = DEFAULT_RESOLUTION,
                        spec: QuadSpec = DEFAULT_SPEC,
                        R_star: float | None = None,
                        budget: ErrorBudget | None = None) -> StatementIIBounds:
    """The statement-II bounds; R_star defaults to sqrt(r R) in the plane
    and to (r + R) / 2 in space."""
    if not (0.0 < r < R):
        raise ValueError("statement II: need 0 < r < R")
    d = mu.dimension
    if U.dimension != d:
        raise ValueError("statement II: function and measure dimensions differ")
    if mu.support_radius > r * (1.0 + SUPPORT_RTOL):
        raise ValueError("statement II: mu must be supported in the closed ball of radius r")
    if budget is None:
        budget = ErrorBudget()
    lhs = positive_part_integral(U, mu, spec, budget=budget)
    T = difference_T(U, r, R, spec, budget=budget)
    mu_rad = radial_counting(mu, np.zeros(d), r, spec, budget=budget)
    sup = sup_integrated_counting(mu, r, r, resolution, spec, budget=budget)
    const = constant_A(r, R, d)
    # A factor 0 zeroes its term even against an infinite supremum.  T = 0
    # leaves no lower-variation mass in B(R) and U <= 0 on the sphere, so
    # U <= 0 on the ball and lhs = 0; no lower-variation mass in B(R_star)
    # leaves the tight bound no tail.
    rhs = 0.0 if T == 0.0 else const * T * (mu_rad * max(1.0, r ** (2 - d)) + sup.value)
    if R_star is None:
        R_star = math.sqrt(r * R) if d == 2 else 0.5 * (R + r)
    if not (r < R_star < R):
        raise ValueError(f"statement II: R_star {R_star!r} must lie strictly between r and R")
    lower_rad = radial_counting(U.riesz_lower_variation(), np.zeros(d),
                                R_star, spec, budget=budget)
    head = (R_star ** (d - 2) * (R_star + r) / (R_star - r) ** (d - 1)
            * T * mu_rad)
    tail = 0.0 if lower_rad == 0.0 else lower_rad * (
        mu_rad * (kappa(R_star + r, d) - kappa(r, d)) + sup.value)
    rhs_tight = head + tail
    return StatementIIBounds(lhs, rhs, T, mu_rad, sup.value, const,
                             rhs_tight, R_star, lower_rad)


def check_statement_II(mu: Measure, U: DshFunction, r: float, R: float, *,
                       resolution: int = DEFAULT_RESOLUTION,
                       spec: QuadSpec = DEFAULT_SPEC,
                       R_star: float | None = None,
                       name: str = "statement_II") -> CheckReport:
    """Does the positive-part integral obey the characteristic bound?"""
    budget = ErrorBudget()
    b = statement_ii_bounds(mu, U, r, R, resolution=resolution, spec=spec,
                            R_star=R_star, budget=budget)
    diag = [f"characteristic {_fmt(b.characteristic)}",
            f"radial mass {_fmt(b.mu_radial)}, sup counting {_fmt(b.sup_counting)}",
            f"constant {_fmt(b.constant)}",
            f"tight bound {_fmt(b.rhs_tight)} at intermediate radius "
            f"{_fmt(b.R_star)} (lower-charge mass {_fmt(b.lower_radial)})"]
    return _inequality_report(name, b.lhs, b.rhs, budget, diag)


def falsify_statement_III(mu: Measure, family, r: float, R: float,
                          T_cap: float, *,
                          spec: QuadSpec = DEFAULT_SPEC,
                          name: str = "statement_III") -> CheckReport:
    """One-sided scan of sup over a family of the positive-part integral.

    Members are rescaled by positive homogeneity so each characteristic is
    at most T_cap.  A witnessed +inf (or any single member exceeding every
    finite budget) falsifies boundedness; a bounded maximum over the family
    is evidence for it, not a proof.
    """
    family = list(family)
    if not family:
        raise ValueError("statement III: family must be nonempty")
    if not (T_cap > 0.0 and math.isfinite(T_cap)):
        raise ValueError("statement III: T_cap must be positive and finite")
    budget = ErrorBudget()
    best = -math.inf
    skipped = 0
    for u in family:
        t = difference_T(u, r, R, spec, budget=budget)
        if t == math.inf:
            skipped += 1
            continue
        if t > T_cap:
            u = u.scale(T_cap / t)
        val = positive_part_integral(u, mu, spec, budget=budget)
        if val > best:
            best = val
        if best == math.inf:
            break
    diag = [f"family size {len(family)}, cap {_fmt(T_cap)}"]
    if skipped:
        diag.append(f"skipped {skipped} member(s) with infinite characteristic")
    return _finiteness_report(name, best, budget, diag)


def check_statement_IV(mu: Measure, *, resolution: int = DEFAULT_RESOLUTION,
                       name: str = "statement_IV") -> CheckReport:
    """Is the potential of mu bounded below on the support of mu?

    Every atom location is evaluated exactly (an atom forces -inf through
    its own kernel term); continuous components are scanned on deterministic
    support grids.  Every potential is a closed form, so no quadrature error
    enters the verdict.
    """
    points = [p for p, _ in _support_samples(mu, resolution)]
    if not points:
        return CheckReport(name, math.inf, math.inf, 0.0, BASE_TOLERANCE,
                           HOLDS, ("empty support",))
    inf_val = math.inf
    argmin = None
    for p in points:
        v = potential(mu, p)
        if v < inf_val:
            inf_val, argmin = v, p
            if v == -math.inf:
                break
    diag = [f"grid infimum {_fmt(inf_val)} over {len(points)} support points"]
    if argmin is not None:
        diag.append("argmin " + "(" + ", ".join(_fmt(v) for v in argmin) + ")")
    verdict = FAILS if inf_val == -math.inf else HOLDS
    return CheckReport(name, inf_val, math.inf, 0.0, BASE_TOLERANCE, verdict,
                       tuple(diag))


def check_statement_V(mu: Measure, r0: float, *,
                      resolution: int = DEFAULT_RESOLUTION,
                      spec: QuadSpec = DEFAULT_SPEC,
                      name: str = "statement_V") -> CheckReport:
    """Is the integrated counting at radius r0 bounded on the support of mu?"""
    if not (r0 > 0.0):
        raise ValueError("statement V: r0 must be positive")
    budget = ErrorBudget()
    sup = sup_integrated_counting(mu, SUPPORT, r0, resolution, spec,
                                  budget=budget)
    diag = [f"sup {_fmt(sup.value)} over support",
            f"grid resolution {sup.resolution}, {sup.evaluations} evaluations"]
    if sup.argmax is not None:
        diag.append("argmax " + "(" + ", ".join(_fmt(v) for v in sup.argmax) + ")")
    return _finiteness_report(name, sup.value, budget, diag)


def verify_lemma3(delta: Measure, R_star: float, R: float, *,
                  spec: QuadSpec = DEFAULT_SPEC,
                  name: str = "lemma3") -> CheckReport:
    """Radial mass at R_star against its integrated-counting quotient bound."""
    if not (0.0 < R_star < R):
        raise ValueError("lemma3: need 0 < R_star < R")
    budget = ErrorBudget()
    lhs = radial_counting(delta, np.zeros(delta.dimension), R_star, spec,
                          budget=budget)
    n_val = difference_counting(delta, R_star, R, spec, budget=budget)
    denom = kappa(R, delta.dimension) - kappa(R_star, delta.dimension)
    rhs = n_val / denom
    diag = [f"counting integral {_fmt(n_val)}, kernel gap {_fmt(denom)}"]
    return _inequality_report(name, lhs, rhs, budget, diag)


def verify_poisson_jensen(U: DshFunction, x, R: float, *,
                          spec: QuadSpec = DEFAULT_SPEC,
                          name: str = "poisson_jensen") -> CheckReport:
    """Reconstruct U(x) from sphere data and charges and report the residual.

    The reconstruction is the surface integral of the Poisson kernel times U
    over the sphere of radius R minus the sum over charges inside the ball
    of weight times the Green function of the ball.
    """
    d = U.dimension
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx >= R:
        raise ValueError("poisson_jensen: x must lie strictly inside the ball")
    for ch in U.charges:
        dist_x = float(np.linalg.norm(ch.location - x))
        if dist_x == 0.0:
            raise ValueError("poisson_jensen: x coincides with a charge location")
        if abs(float(np.linalg.norm(ch.location)) - R) <= BOUNDARY_RTOL * R:
            raise ValueError("poisson_jensen: a charge lies on the sphere")
    budget = ErrorBudget()

    def integrand(pts: np.ndarray) -> np.ndarray:
        return U.evaluate(pts) * poisson_kernel(x, pts, R, d)

    hints = U.singular_angles_on(np.zeros(d), R)
    mean = sphere_mean(integrand, R, d, spec, budget=budget,
                       singular_angles=hints, label="poisson-jensen")
    surface = sphere_area(d) * R ** (d - 1)
    boundary_term = mean * surface
    green_term = 0.0
    for ch in U.charges:
        if float(np.linalg.norm(ch.location)) < R:
            green_term += ch.weight * green_ball(x, ch.location, R, d)
    lhs = U.evaluate(x)
    rhs = boundary_term - green_term
    residual = lhs - rhs
    tolerance = IDENTITY_TOLERANCE + budget.error
    diag = [f"boundary integral {_fmt(boundary_term)}, charge term {_fmt(green_term)}",
            *_failure_lines(budget)]
    if not budget.ok or math.isnan(residual):
        verdict = UNDETERMINED
    elif abs(residual) <= tolerance:
        verdict = HOLDS
    else:
        verdict = FAILS
    return CheckReport(name, float(lhs), float(rhs), float(residual),
                       tolerance, verdict, tuple(diag))


def check_corollary(f: RationalFunction, mu: Measure, r: float, R: float, *,
                    resolution: int = DEFAULT_RESOLUTION,
                    spec: QuadSpec = DEFAULT_SPEC,
                    name: str = "corollary") -> CheckReport:
    """Planar rational-function form of the statement-II bound.

    lhs is the mu-integral of ln+|f|; rhs multiplies 5(R+r)/(R-r) by the
    classical characteristic gap T(R) - N(r) and by total mass plus the
    supremum of the integrated counting over the closed disc of radius R.
    The characteristic gap is cross-checked against the difference
    characteristic of ln|f| and the discrepancy is recorded.
    """
    if mu.dimension != 2:
        raise ValueError("corollary: mu must be planar (dimension 2)")
    if not (0.0 < r < R):
        raise ValueError("corollary: need 0 < r < R")
    if mu.support_radius > r * (1.0 + SUPPORT_RTOL):
        raise ValueError("corollary: mu must be supported in the closed disc of radius r")
    budget = ErrorBudget()
    u = from_rational(f)
    lhs = positive_part_integral(u, mu, spec, budget=budget)
    t_gap = classical_T(f, R, spec, budget=budget) - classical_N(f, r)
    t_diff = difference_T(u, r, R, spec, budget=budget)
    mass = radial_counting(mu, np.zeros(2), r, spec, budget=budget)
    sup = sup_integrated_counting(mu, R, r, resolution, spec, budget=budget)
    # As in statement II: a zero gap leaves |f| <= 1 on the disc.
    rhs = 0.0 if t_gap == 0.0 else 5.0 * (R + r) / (R - r) * t_gap * (mass + sup.value)
    diag = [f"characteristic gap {_fmt(t_gap)} "
            f"(difference form {_fmt(t_diff)}, discrepancy {abs(t_gap - t_diff):.3e})",
            f"mass {_fmt(mass)}, sup counting {_fmt(sup.value)}"]
    if math.isfinite(t_gap) and math.isfinite(t_diff):
        if abs(t_gap - t_diff) > IDENTITY_TOLERANCE * (1.0 + abs(t_gap)):
            budget.failures.append("characteristic cross-check discrepancy "
                                   f"{abs(t_gap - t_diff):.3e}")
            diag.append("characteristic cross-check outside tolerance")
    return _inequality_report(name, lhs, rhs, budget, diag)

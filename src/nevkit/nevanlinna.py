"""Nevanlinna characteristics.

Two forms are provided: the classical characteristic of a rational map
(sphere mean of ln+|f| plus integrated pole counting) and the two-radius
difference characteristic of a function with explicit charges (sphere mean
of the positive part plus the integrated counting of the lower-variation
charge between the radii).  Both are centred at the origin.
"""

from __future__ import annotations

import math

import numpy as np

from .dsh import DshFunction, RationalFunction, from_rational
from .kernels import BOUNDARY_RTOL, check_positive
from .measures import difference_counting
from .quadrature import DEFAULT_SPEC, ErrorBudget, QuadSpec


def proximity(u: DshFunction, R: float, spec: QuadSpec = DEFAULT_SPEC, *,
              budget: ErrorBudget | None = None, label: str = "proximity") -> float:
    """Mean of max(u, 0) over the origin-centred sphere of radius R."""
    check_positive("proximity", R=R)
    return u.positive_mean(np.zeros(u.dimension), R, spec, budget=budget, label=label)


def classical_N(f: RationalFunction, r: float) -> float:
    """Integrated pole counting of f up to radius r, in closed form.

    Equals the integral from 0 to r of (n(t) - n(0))/t plus n(0) ln r, where
    n(t) counts poles with multiplicity in the closed disc of radius t.
    """
    check_positive("classical_N", r=r)
    thr = r * (1.0 + BOUNDARY_RTOL)
    total = 0.0
    for b in f.poles:
        ab = abs(b)
        if ab == 0.0:
            total += math.log(r)
        elif ab <= thr:
            total += math.log(r / ab)
    return total


def classical_T(f: RationalFunction, R: float, spec: QuadSpec = DEFAULT_SPEC, *,
                budget: ErrorBudget | None = None) -> float:
    """Classical characteristic: circle mean of ln+|f| at radius R plus
    integrated pole counting up to R.

    A pole lying on the circle itself makes ln+|f| integrably singular; its
    angle is passed to the quadrature as a declared singular point.
    """
    return proximity(from_rational(f), R, spec, budget=budget,
                     label="classical-T") + classical_N(f, R)


def difference_T(u: DshFunction, r: float, R: float,
                 spec: QuadSpec = DEFAULT_SPEC, *,
                 budget: ErrorBudget | None = None) -> float:
    """Two-radius difference characteristic of u.

    Sum of the sphere mean of the positive part at radius R and the
    integrated counting, between r and R, of the atomic measure carrying the
    negative charge weights.  With r = 0 and a negative charge at the origin
    the counting part is +inf, and so is the characteristic.
    """
    check_positive("difference_T", closed=True, r=r, R=R)
    m = proximity(u, R, spec, budget=budget, label="difference-T")
    return m + difference_counting(u.riesz_lower_variation(), r, R, spec, budget=budget)

"""Dimension-dependent constants and kernel functions used across the package.

Legitimately infinite values (for example ``kappa(0) == -inf``) are returned
as IEEE infinities rather than raised as errors.  Downstream code is written
so that a finite result is never fabricated from an infinite operand.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for floating comparisons against geometric boundary
# conditions such as |y| = R or "atom on the rim of a closed ball".
BOUNDARY_RTOL = 1e-12


def validate_dimension(d) -> int:
    """Check that d is an integer dimension >= 2 and return it as an int."""
    try:
        integral = not isinstance(d, bool) and int(d) == d
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return d


def check_positive(where: str, *, closed: bool = False, **named) -> None:
    """Check 0 < a < b < ... < inf for the named arguments, in the order
    given, with 0 <= a when ``closed``; NaN fails every comparison.  The
    message names ``where`` and each argument."""
    previous, ok = None, True
    for value in named.values():
        if previous is None:
            ok = value >= 0.0 if closed else value > 0.0
        else:
            ok = ok and previous < value
        previous = value
    if not (ok and previous < math.inf):
        chain = " < ".join(named)
        raise ValueError(f"{where}: need 0 {'<=' if closed else '<'} {chain} < inf")


def as_point(x, d: int) -> np.ndarray:
    """Coerce x to a float vector of length d."""
    p = np.asarray(x, dtype=float)
    if p.shape != (d,):
        raise ValueError(f"expected a point in R^{d}, got shape {p.shape}")
    return p


def _as_points(y, d: int) -> tuple[np.ndarray, bool]:
    """``y`` as an (n, d) array of points, and whether it was one point (d,).
    A float array passes through without a copy, in its own memory order."""
    pts = np.asarray(y, dtype=float)
    if pts.ndim == 2 and pts.shape[1] == d:
        return pts, False
    if pts.shape != (d,):
        raise ValueError(f"expected a point in R^{d} or an (n, {d}) point array, "
                         f"got shape {pts.shape}")
    return pts[np.newaxis], True


def expect_number(value, path: str, *, positive: bool = False) -> float:
    """Validate a finite JSON number (not a bool) found at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{path}: must be finite")
    if positive and v <= 0.0:
        raise ValueError(f"{path}: must be positive")
    return v


def expect_int(value, path: str, lo: int) -> int:
    """Validate a JSON integer (not a bool, not 3.0) >= lo found at ``path``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise ValueError(f"{path}: expected an integer >= {lo}, got {value!r}")
    return value


def expect_object(value, path: str, required=(), optional=()) -> dict:
    """Validate a JSON object at ``path`` holding every ``required`` field and
    no field outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected an object")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{path}.{key}: missing")
    return value


def expect_point(value, d: int, path: str) -> list[float]:
    """Validate a JSON coordinate list of length d found at ``path``."""
    if not isinstance(value, (list, tuple)) or len(value) != d:
        raise ValueError(f"{path}: expected a coordinate list of length {d}")
    return [expect_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def expect_list(value, path: str) -> list:
    """Validate an optional JSON list found at ``path``; null reads as empty."""
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list")
    return value


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array.

    The squares are summed one column at a time, the order in which
    ``np.linalg.norm(v, axis=1)`` sums them for the two or three columns of
    the package's points, so the two agree bit for bit; this form skips
    norm's copies and runs along the long axis.
    """
    total = v[:, 0] * v[:, 0]
    for j in range(1, v.shape[1]):
        total += v[:, j] * v[:, j]
    return np.sqrt(total)


def kappa(t, d: int):
    """Fundamental-solution profile: ln t for d = 2, -1 / t**(d-2) for d > 2.

    Strictly increasing and continuous on (0, inf), with kappa(0) = -inf.
    Accepts scalars or numpy arrays; negative arguments are rejected.
    """
    d = validate_dimension(d)
    if isinstance(t, float) and t > 0.0:
        # Plain-float fast path.  It calls the same numpy loops as the array
        # path, so both return the same bits (math.log and libm pow need not).
        # In d = 3 the division is correctly rounded, as numpy 2's
        # np.power(t, -1.0) is too, and takes a third of the time.
        if d == 2:
            return float(np.log(t))
        return -(1.0 / t) if d == 3 else -float(np.power(t, float(2 - d)))
    arr = np.array(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kappa is defined for nonnegative arguments only")
    with np.errstate(divide="ignore"):
        _kappa_in_place(arr, d)
    if arr.ndim == 0:
        return float(arr)
    return arr


def _kappa_in_place(t: np.ndarray, d: int) -> np.ndarray:
    """Overwrite the nonnegative float array t with kappa(t, d) and return it.

    The caller chooses the error state: t = 0 divides by zero.
    """
    if d == 2:
        return np.log(t, out=t)
    if d == 3:
        np.divide(1.0, t, out=t)
    else:
        np.power(t, float(2 - d), out=t)
    return np.negative(t, out=t)


def hat_d(d: int) -> int:
    """The constant max{1, d - 2} attached to dimension d."""
    d = validate_dimension(d)
    return max(1, d - 2)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d: 2 * pi**(d/2) / Gamma(d/2).

    d=2 -> 2*pi, d=3 -> 4*pi, d=4 -> 2*pi**2.  The d=4 value is sometimes
    misquoted in print as pi**2; the Gamma formula is authoritative here.
    """
    d = validate_dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def poisson_kernel(x, y, R: float, d: int):
    """Poisson kernel of the ball B(0, R): (R^2 - |x|^2) / (s_{d-1} R |y - x|^d).

    Requires |x| < R and every y on |y| = R (within ``BOUNDARY_RTOL``
    relative tolerance).  ``y`` is one point (d,), which gives a float, or an
    (n, d) array of sphere points, which gives an (n,) array.  Integrating
    the kernel over the sphere |y| = R against surface measure gives 1 for
    every interior x.
    """
    d = validate_dimension(d)
    check_positive("poisson_kernel", R=R)
    x = as_point(x, d)
    pts, single = _as_points(y, d)
    nx = float(np.linalg.norm(x))
    if nx >= R:
        raise ValueError("poisson_kernel: x must lie strictly inside the ball")
    if np.any(np.abs(row_norms(pts) - R) > BOUNDARY_RTOL * R):
        raise ValueError("poisson_kernel: y must lie on the sphere |y| = R")
    dist = row_norms(pts - x)
    if np.any(dist == 0.0):
        raise ValueError("poisson_kernel: degenerate configuration y == x")
    kern = (R * R - nx * nx) / (sphere_area(d) * R * dist ** d)
    return float(kern[0]) if single else kern


def green_ball(x, y, R: float, d: int) -> float:
    """Green function of the ball B(0, R).

    Returns kappa of the reflected distance minus kappa(|y - x|), where the
    squared reflected distance is the symmetric expression
    R^2 - 2<x, y> + (|x| |y| / R)^2.  That expression also covers the y = 0
    limit (reflected distance R).  The value is nonnegative inside the ball,
    zero for |y| = R, and +inf at x == y.
    """
    d = validate_dimension(d)
    check_positive("green_ball", R=R)
    x = as_point(x, d)
    y = as_point(y, d)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx >= R:
        raise ValueError("green_ball: x must lie strictly inside the ball")
    if ny > R * (1.0 + BOUNDARY_RTOL):
        raise ValueError("green_ball: y must lie in the closed ball |y| <= R")
    refl2 = R * R - 2.0 * float(np.dot(x, y)) + (nx * ny / R) ** 2
    refl = math.sqrt(max(refl2, 0.0))
    dist = float(np.linalg.norm(y - x))
    g = kappa(refl, d) - kappa(dist, d)
    # Analytically g >= 0; tiny negatives near |y| = R are roundoff.
    return g if g > 0.0 else 0.0


def constant_A(r: float, R: float, d: int) -> float:
    """The bound constant 5 * max{1,d-2} * ((R+r)/(R-r))**(d-1) * max{1,(R-r)**(d-2)}.

    For d = 2 this reduces to 5 (R + r) / (R - r).
    """
    d = validate_dimension(d)
    check_positive("constant_A", r=r, R=R)
    return (
        5.0
        * hat_d(d)
        * ((R + r) / (R - r)) ** (d - 1)
        * max(1.0, (R - r) ** (d - 2))
    )

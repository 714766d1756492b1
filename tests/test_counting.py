"""Integrated counting: closed-form kernels against mpmath, the fixed-panel
rule against mpmath and against the same rule with four times the nodes,
and the supremum scans pinned and checked against a point-by-point walk.
Also the density-kernel integrals, potentials and difference counting, the
planar positive-part means and the bound constant A against mpmath."""

import json
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import special_ortho_group

from nevkit import measures
from nevkit.cli import bundled_scenario_paths
from nevkit.dsh import RationalFunction, from_rational, positive_part_integral
from nevkit.kernels import BOUNDARY_RTOL, constant_A
from nevkit.measures import (
    _PANEL_NODES,
    SUPPORT,
    Atom,
    Measure,
    RadialDensity,
    SphereShell,
    _ball_lattice,
    _cap_fraction,
    _cosine_panel_rule,
    _inner_rings,
    _radial_block,
    _shell_counting_kernel,
    _shell_window,
    _window_slope,
    difference_counting,
    integrated_counting,
    potential,
    sup_integrated_counting,
)
from nevkit.nevanlinna import classical_N
from nevkit.quadrature import DEFAULT_SPEC, ErrorBudget, QuadResult, QuadSpec
from nevkit.scenario import scenario_from_json

mpmath.mp.dps = 30


def _oracle_kernel(a, s, r, d):
    """Mean over the shell of radius s, center distance a, of
    kappa(r) - kappa(|x - y|) where |x - y| <= r, by mpmath quadrature over
    the polar angle of the shell point."""
    a, s, r = (mpmath.mpf(v) for v in (a, s, r))
    c0 = (a * a + s * s - r * r) / (2 * a * s)
    if c0 >= 1:
        return mpmath.mpf(0)
    phi_max = mpmath.pi if c0 <= -1 else mpmath.acos(c0)

    def dist(phi):  # cancellation-free near phi = 0
        return mpmath.sqrt((a - s) ** 2 + 4 * a * s * mpmath.sin(phi / 2) ** 2)

    if d == 2:
        f = lambda phi: (mpmath.log(r) - mpmath.log(dist(phi))) / mpmath.pi  # noqa: E731
    else:
        f = lambda phi: (1 / dist(phi) - 1 / r) * mpmath.sin(phi) / 2  # noqa: E731
    return mpmath.quad(f, [0, phi_max])


KERNEL_CASES = [
    (0.3, 0.5, 0.4), (0.5, 0.3, 0.4), (0.9, 0.2, 1.0), (1.2, 1.1, 0.5),
    (0.05, 1.0, 1.0), (1.0, 0.05, 1.0), (0.7, 0.7, 0.3), (1.5, 0.4, 1.3),
    (0.75, 0.25, 0.5),  # |a - s| = r: the shell touches the sphere from inside
    (0.25, 0.75, 0.5),  # |a - s| = r, the other way round
    (0.25, 0.25, 0.5),  # a + s = r: the shell touches it from outside
    (0.75, 0.25, 1.0),  # a + s = r with a > s
]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("a, s, r", KERNEL_CASES)
def test_shell_kernel_matches_mpmath(a, s, r, d):
    exact = float(_oracle_kernel(a, s, r, d))
    assert _shell_counting_kernel(a, s, r, d) == pytest.approx(exact, rel=1e-13, abs=1e-15)
    # The array form gives the same numbers.
    arr = _shell_counting_kernel(np.array([a, a]), np.array([s, s]), r, d)
    assert arr[0] == _shell_counting_kernel(a, s, r, d) == arr[1]


@pytest.mark.parametrize("d", [2, 3])
def test_shell_kernel_random_points_match_mpmath(d):
    rng = np.random.default_rng(20 + d)
    for a, s, r in rng.uniform(0.05, 2.0, size=(30, 3)):
        exact = float(_oracle_kernel(a, s, r, d))
        assert _shell_counting_kernel(float(a), float(s), float(r), d) == pytest.approx(
            exact, rel=1e-12, abs=1e-14)


def test_window_slope_matches_mpmath():
    # The planar by-parts integrand's slope against mpmath's derivative of
    # the window kernel, at random shells that cross the circle; at s = a,
    # where the slope jumps, mpmath's central difference is the mean of its
    # two sides, and so is the formula.
    rng = np.random.default_rng(41)
    cases = [(a, s, r) for a, s, r in rng.uniform(0.05, 2.0, size=(60, 3))
             if abs(a - s) < r < a + s][:8]
    cases.append((0.7, 0.7, 0.3))
    for a, s, r in cases:
        exact = mpmath.diff(lambda v: _oracle_kernel(a, v, r, 2), mpmath.mpf(s))
        assert _window_slope(a, s, r) == pytest.approx(float(exact), rel=1e-11, abs=1e-13)
    a, s, r = np.array(cases).T
    assert _window_slope(a, s, r).tolist() == [_window_slope(*c) for c in cases]


@pytest.mark.parametrize("d", [2, 3])
def test_cap_fraction_matches_mpmath(d):
    rng = np.random.default_rng(30 + d)
    for a, s, t in rng.uniform(0.05, 2.0, size=(50, 3)):
        ma, ms, mt = (mpmath.mpf(float(v)) for v in (a, s, t))
        c0 = (ma * ma + ms * ms - mt * mt) / (2 * ma * ms)
        if c0 >= 1:
            exact = mpmath.mpf(0)
        elif c0 <= -1:
            exact = mpmath.mpf(1)
        elif d == 2:
            exact = mpmath.acos(c0) / mpmath.pi  # arc length over half the circle
        else:
            exact = mpmath.quad(lambda phi: mpmath.sin(phi) / 2, [0, mpmath.acos(c0)])
        assert _cap_fraction(float(a), float(s), float(t), d) == pytest.approx(
            float(exact), rel=1e-13, abs=1e-15)
    assert _cap_fraction(0.0, 0.5, 0.5, d) == 1.0
    assert _cap_fraction(0.0, 0.5, 0.4, d) == 0.0


@pytest.mark.parametrize("coeffs", [(1.0,), (0.0, 2.0), (0.3, 0.9), (0.0, 0.0, 3.0),
                                    (2.5, -1.5, 0.25, 0.125), (0.1, 0.0, 0.0, 0.0, 7.0)])
def test_polynomial_cumulative_matches_mpmath(coeffs):
    comp = RadialDensity(np.zeros(2), coeffs, 2.0)
    for t in (0.0, 0.125, 0.7, 1.0, 1.9):
        exact = mpmath.quad(
            lambda s: sum(mpmath.mpf(c) * s ** k for k, c in enumerate(coeffs)),
            [0, mpmath.mpf(t)])
        assert comp.mass_within(t) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)


@given(st.sampled_from([2, 3, 4]), st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=1e-3, max_value=0.999))
def test_constant_A_matches_mpmath(d, R, ratio):
    r = R * ratio
    mr, mR = mpmath.mpf(r), mpmath.mpf(R)
    exact = (5 * max(1, d - 2) * ((mR + mr) / (mR - mr)) ** (d - 1)
             * max(1, (mR - mr) ** (d - 2)))
    assert constant_A(r, R, d) == pytest.approx(float(exact), rel=1e-14)


def _oracle_classical_N(poles, r):
    """integral_0^r (n(t) - n(0)) / t dt + n(0) ln r, with n(t) the number of
    poles in the closed disc of radius t, by mpmath quadrature between the
    pole moduli where n jumps."""
    moduli = sorted(mpmath.mpf(abs(b)) for b in poles)
    r = mpmath.mpf(r)

    def n(t):
        return sum(1 for m in moduli if m <= t)

    n0 = n(0)
    knots = [mpmath.mpf(0), *(m for m in moduli if 0 < m < r), r]
    integral = mpmath.quad(lambda t: (n(t) - n0) / t, knots)
    return integral + n0 * mpmath.log(r)


@pytest.mark.parametrize("poles, r", [
    ((2.0, 2.0), 3.0),
    ((2.0, 2.0), 1.0),
    ((0.0, 0.5j, -1.2 + 0.3j), 2.5),
    ((0.0, 0.0), 0.4),
    ((0.3 + 0.4j, 1.0, -0.9), 1.0),  # a pole on the circle |z| = r counts
])
def test_classical_N_matches_mpmath(poles, r):
    f = RationalFunction(zeros=(0.25,), poles=poles)
    exact = _oracle_classical_N(f.poles, r)
    assert classical_N(f, r) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)


# ------------------------------------------ densities against the kernel


def _mp_density(coeffs):
    return lambda s: sum(mpmath.mpf(c) * s ** k for k, c in enumerate(coeffs))


def _mp_kappa(s, d):
    return mpmath.log(s) if d == 2 else -1 / s


def _random_density(rng, d, *, c0_zero=False):
    coeffs = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 5)))
    if c0_zero:
        coeffs[0] = 0.0
    center = rng.uniform(-0.5, 0.5, size=d)
    return RadialDensity(center, tuple(coeffs), float(rng.uniform(0.2, 1.5)))


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_integral_matches_mpmath(d):
    rng = np.random.default_rng(40 + d)
    for i in range(24):
        comp = _random_density(rng, d, c0_zero=i % 2 == 0)
        lo, hi = sorted(rng.uniform(0.0, comp.outer, size=2))
        if i % 3 == 0:
            lo = 0.0
        if i % 4 == 0:
            hi = comp.outer
        value = comp.kernel_integral(lo, hi, d)
        if d == 3 and lo == 0.0 and comp.coeffs[0] > 0.0:
            assert value == -math.inf  # the volume density is c0 / (4 pi t**2)
            continue
        f = _mp_density(comp.coeffs)
        exact = mpmath.quad(lambda s: f(s) * _mp_kappa(s, d), [lo, hi])
        assert value == pytest.approx(float(exact), rel=1e-13, abs=1e-15), (comp.coeffs, lo, hi)


def test_kernel_integral_from_the_center():
    flat = RadialDensity(np.zeros(3), (0.0, 2.0, 1.5), 0.7)
    value = flat.kernel_integral(0.0, 0.7, 3)
    assert math.isfinite(value)
    assert value == pytest.approx(-(2.0 * 0.7 + 1.5 * 0.7 ** 2 / 2.0), rel=1e-15)
    singular = RadialDensity(np.zeros(3), (1e-300, 2.0), 0.7)
    assert singular.kernel_integral(0.0, 0.7, 3) == -math.inf
    assert singular.kernel_integral(0.3, 0.3, 3) == 0.0
    assert RadialDensity(np.zeros(2), (1.0,), 0.7).kernel_integral(0.0, 0.7, 2) == \
        pytest.approx(0.7 * (math.log(0.7) - 1.0), rel=1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_potential_of_off_center_density_matches_mpmath(d):
    rng = np.random.default_rng(50 + d)
    for i in range(12):
        comp = _random_density(rng, d)
        direction = rng.normal(size=d)
        a = float(rng.uniform(0.05, 2.0) * comp.outer)
        x = comp.center + a * direction / np.linalg.norm(direction)
        a = float(np.linalg.norm(x - comp.center))
        f = _mp_density(comp.coeffs)
        knots = [0, a, comp.outer] if a < comp.outer else [0, comp.outer]
        exact = mpmath.quad(lambda s: f(s) * _mp_kappa(max(mpmath.mpf(a), s), d), knots)
        value = potential(Measure(dimension=d, radial=(comp,)), x)
        assert value == pytest.approx(float(exact), rel=1e-13, abs=1e-15), (comp.coeffs, a)
    singular = Measure(dimension=3, radial=(RadialDensity([0.1, 0.0, 0.0], (0.5,), 1.0),))
    assert potential(singular, [0.1, 0.0, 0.0]) == -math.inf
    assert math.isfinite(potential(singular, [0.1, 0.0, 1e-9]))


# Center distances for r = 0.6 and outer = 0.5: the centre, r - a >= outer
# (the whole density inside the ball), 0 < a < r / 2, r / 2 < a < r and
# a > r.
INNER_RING_DISTANCES = [0.0, 0.05, 0.2, 0.45, 0.7]
INNER_RING_DENSITIES = [(2, (0.3, 0.9, 0.5)), (3, (0.0, 1.0, 2.0)), (3, (0.5, 0.0, 1.0))]


def _mp_inner_rings(coeffs, a, r, outer, d):
    """integral over 0 <= s <= min(r - a, outer) of
    density(s) * (kappa(r) - kappa(max(a, s))), by mpmath quadrature."""
    a, r, outer = mpmath.mpf(a), mpmath.mpf(r), mpmath.mpf(outer)
    inner = min(r - a, outer)
    if inner <= 0:
        return mpmath.mpf(0)
    f = _mp_density(coeffs)
    knots = [0, a, inner] if 0 < a < inner else [0, inner]
    return mpmath.quad(lambda s: f(s) * (_mp_kappa(r, d) - _mp_kappa(max(a, s), d)), knots)


def _mp_crossing_rings(coeffs, a, r, outer, d):
    """integral over |r - a| < s < min(r + a, outer) of density(s) times the
    shell kernel: the mpmath quadrature ``_oracle_kernel`` in the plane, and
    in d = 3 its integral over the polar angle, where sin(phi) / dist is
    d(dist) / (a s): (r - |a - s|) / (2 a s) - (1 - c0) / (2 r)."""
    lo, hi = abs(r - a), min(r + a, outer)
    if lo >= hi:
        return mpmath.mpf(0)
    f = _mp_density(coeffs)
    a, r = mpmath.mpf(a), mpmath.mpf(r)

    def kernel(s):
        if d == 2:
            return _oracle_kernel(a, s, r, d)
        c0 = (a * a + s * s - r * r) / (2 * a * s)
        return (r - abs(a - s)) / (2 * a * s) - (1 - c0) / (2 * r)

    knots = [lo, a, hi] if lo < a < hi else [lo, hi]
    # The planar kernel is itself a quadrature, so its outer one runs at 15
    # digits; the d = 3 kernel cancels near s = |r - a| and keeps all 30.
    with mpmath.workdps(15 if d == 2 else mpmath.mp.dps):
        return mpmath.quad(lambda s: f(s) * kernel(s), knots)


@pytest.mark.parametrize("d, coeffs", INNER_RING_DENSITIES)
def test_inner_rings_match_mpmath(d, coeffs):
    comp = RadialDensity(np.zeros(d), coeffs, 0.5)
    r = 0.6
    values = _inner_rings(comp, np.array(INNER_RING_DISTANCES), r, d)
    for a, from_array in zip(INNER_RING_DISTANCES, values):
        value = _inner_rings(comp, a, r, d)
        assert isinstance(value, float) and value == from_array
        if a == 0.0 and d == 3 and coeffs[0] > 0.0:
            assert value == math.inf  # the volume density is c0 / (4 pi t**2)
            continue
        exact = _mp_inner_rings(coeffs, a, r, comp.outer, d)
        assert value == pytest.approx(float(exact), rel=1e-13, abs=1e-15), a


# Crossing windows beyond INNER_RING_DISTANCES, for r = 0.6, as (outer,
# center distance): a window that outer does not cut, a = r (lo = 0),
# lo -> 0 from either side, a window of width 2e-9, and
# a = r / 2 + 1e-12, where the left panel [r - a, a] is so narrow that
# quadrature nodes round onto the slope's jump at s = a.
CROSSING_WINDOWS = [(1.5, 0.3), (0.5, 0.6), (0.5, 0.6 - 1e-9), (0.5, 0.6 + 1e-9),
                    (1.5, 1e-9), (0.5, 0.3 + 1e-12)]


def _mp_shell(a, s, r, d):
    """``_oracle_kernel``, with the mean-value form at the shell's center."""
    if a == 0.0:
        return _mp_kappa(mpmath.mpf(r), d) - _mp_kappa(mpmath.mpf(s), d) if s <= r else 0
    return _oracle_kernel(a, s, r, d)


def _mp_counting(mu, pts, r):
    """The integrated counting of shells and densities at each row of
    ``pts`` by mpmath: a shell's ``_mp_shell``, and a density's inner plus
    crossing rings, each computed once per distinct center distance."""
    d = mu.dimension
    parts = {}
    exact = []
    for p in pts:
        total = mpmath.mpf(0)
        for i, comp in enumerate((*mu.spheres, *mu.radial)):
            a = float(np.linalg.norm(p - comp.center))
            if (i, a) not in parts:
                if isinstance(comp, SphereShell):
                    parts[i, a] = comp.mass * _mp_shell(a, comp.radius, r, d)
                elif a == 0.0 and d == 3 and comp.coeffs[0] > 0.0:
                    parts[i, a] = mpmath.inf  # the volume density is c0 / (4 pi t**2)
                else:
                    parts[i, a] = (_mp_inner_rings(comp.coeffs, a, r, comp.outer, d)
                                   + _mp_crossing_rings(comp.coeffs, a, r, comp.outer, d))
            total += parts[i, a]
        exact.append(float(total))
    return np.array(exact)


def _counting_against_references(monkeypatch, mu, pts, r, oracle_rows=slice(None)):
    """The integrated counting at the rows of ``pts``, each value within its
    reported error and a few ulps of rounding of mpmath on ``oracle_rows``,
    and within its error plus the finer rule's of the same rule on four
    times the panel nodes on every row.  Returns the values and errors."""
    pts = np.asarray(pts, dtype=float)
    errors = np.empty(len(pts))
    values = integrated_counting(mu, pts, r, errors=errors)
    assert values.shape == (len(pts),)
    assert np.all(np.isfinite(errors)) and np.all(errors >= 0.0)
    exact = _mp_counting(mu, pts[oracle_rows], r)
    near = values[oracle_rows]
    infinite = exact == math.inf
    assert np.array_equal(near[infinite], exact[infinite])
    slack = 1e-14 * (1.0 + np.abs(exact[~infinite]))
    assert np.all(np.abs(near[~infinite] - exact[~infinite])
                  <= errors[oracle_rows][~infinite] + slack), (near, exact, errors)
    with monkeypatch.context() as patch:
        patch.setattr(measures, "_PANEL_NODES", 4 * _PANEL_NODES)
        fine_errors = np.empty(len(pts))
        fine = integrated_counting(mu, pts, r, errors=fine_errors)
    finite = np.isfinite(values)
    assert np.array_equal(fine[~finite], values[~finite])
    assert np.all(np.abs(fine[finite] - values[finite]) <= (errors + fine_errors)[finite])
    return values, errors


def _counting_against_mpmath(monkeypatch, d, coeffs, outer, distances, r=0.6):
    """The integrated counting of one density at the given center
    distances against its references."""
    comp = RadialDensity(np.zeros(d), coeffs, outer)
    mu = Measure(dimension=d, radial=(comp,))
    direction = np.array([0.6, 0.8, 0.0][:d]) if d == 2 else np.array([0.48, 0.6, 0.64])
    _counting_against_references(monkeypatch, mu, np.outer(distances, direction), r)


@pytest.mark.parametrize("d, coeffs", INNER_RING_DENSITIES)
def test_integrated_counting_of_a_density_matches_mpmath(monkeypatch, d, coeffs):
    _counting_against_mpmath(monkeypatch, d, coeffs, 0.5, INNER_RING_DISTANCES)
    on_jump = []

    def slope(a, s, r):
        on_jump.append(bool(np.any(s == a)))
        return _window_slope(a, s, r)

    monkeypatch.setattr(measures, "_window_slope", slope)
    for outer, a in CROSSING_WINDOWS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero at s = a
            _counting_against_mpmath(monkeypatch, d, coeffs, outer, [a])
    assert any(on_jump) == (d == 2)


@pytest.mark.parametrize("d", [2, 3])
def test_density_primitives_on_arrays_equal_their_float_calls(d):
    rng = np.random.default_rng(60 + d)
    for i in range(8):
        comp = _random_density(rng, d, c0_zero=i % 2 == 0)
        t = np.concatenate([[0.0, comp.outer, -0.5, 2.0 * comp.outer],
                            rng.uniform(0.0, comp.outer, size=12)])
        masses = comp.mass_within(t)
        assert [comp.mass_within(float(v)) for v in t] == masses.tolist()
        lo = np.concatenate([[0.0, 0.0, 0.3 * comp.outer], rng.uniform(0.0, comp.outer, 12)])
        hi = np.concatenate([[comp.outer, 0.0, 0.1 * comp.outer],
                             rng.uniform(0.0, comp.outer, 12)])
        integrals = comp.kernel_integral(lo, hi, d)
        floats = [comp.kernel_integral(float(u), float(v), d) for u, v in zip(lo, hi)]
        assert all(isinstance(v, float) for v in floats)
        assert floats == integrals.tolist()
        assert integrals[1] == 0.0 and integrals[2] == 0.0  # lo >= hi


@pytest.mark.parametrize("d", [2, 3])
def test_potential_on_arrays_equals_its_point_calls(d):
    rng = np.random.default_rng(70 + d)
    atom = Atom(rng.uniform(-0.5, 0.5, size=d), 0.7)
    shell = SphereShell(rng.uniform(-0.5, 0.5, size=d), 0.4, 1.3)
    off = _random_density(rng, d)
    centred = RadialDensity(np.zeros(d), (0.5, 0.0, 1.0), 0.6)  # singular in d = 3
    mu = Measure(dimension=d, atoms=(atom,), spheres=(shell,), radial=(off, centred))
    pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(20, d)),
                          [atom.location, np.zeros(d), off.center, shell.center]])
    values = potential(mu, pts)
    singles = [potential(mu, p) for p in pts]
    assert all(isinstance(v, float) for v in singles)
    assert singles == values.tolist()
    assert values[-4] == -math.inf
    assert (values[-3] == -math.inf) == (d == 3)
    assert np.all(np.isfinite(values[:20]))
    with pytest.raises(ValueError):
        potential(mu, np.zeros((2, d + 1)))


def _mp_cap(a, s, t, d):
    """Fraction of the sphere of radius s, centred at distance a from y,
    inside the closed ball of radius t about y."""
    if a == 0:
        return mpmath.mpf(1) if s <= t else mpmath.mpf(0)
    c0 = (a * a + s * s - t * t) / (2 * a * s)
    if c0 <= -1:
        return mpmath.mpf(1)
    if c0 >= 1:
        return mpmath.mpf(0)
    return mpmath.acos(c0) / mpmath.pi if d == 2 else (1 - c0) / 2


def _mp_difference_counting(shells, densities, r, R, d):
    """hat_d * integral_r^R mu(B(0, t)) t**(1-d) dt by its definition: a
    shell's mass in B(0, t) is its cap fraction, a density's the integral of
    its cap fractions over the radius, and the t integral is split where a
    component's edge, or a density's center, meets the sphere |x| = t."""
    mr, mR = mpmath.mpf(r), mpmath.mpf(R)

    def mass(t):
        total = mpmath.mpf(0)
        for c, s, m in shells:
            total += m * _mp_cap(mpmath.mpf(c), mpmath.mpf(s), t, d)
        for comp in densities:
            a, outer = mpmath.mpf(float(np.linalg.norm(comp.center))), mpmath.mpf(comp.outer)
            f = _mp_density(comp.coeffs)
            knots = sorted({0, outer, *(k for k in (abs(a - t), a + t) if k < outer)})
            total += mpmath.quad(lambda s: f(s) * _mp_cap(a, s, t, d), knots)
        return total

    edges = {abs(c - s) for c, s, _ in shells} | {c + s for c, s, _ in shells}
    for comp in densities:
        a = float(np.linalg.norm(comp.center))
        edges |= {abs(a - comp.outer), a + comp.outer, a}
    knots = sorted({mr, mR, *(mpmath.mpf(e) for e in edges if r < e < R)})
    with mpmath.workdps(15):
        return max(1, d - 2) * mpmath.quad(lambda t: mass(t) * t ** (1 - d), knots)


@pytest.mark.parametrize("d, r", [(2, 0.4), (3, 0.9)])
def test_difference_counting_matches_mpmath(d, r):
    # r = 0.4 cuts the density at the origin, r = 0.9 lies beyond it.
    center = np.zeros(d)
    center[0], center[-1] = 0.3, -0.25
    shell = SphereShell(center, 0.5, 0.8)
    off = RadialDensity(-center, (0.3, 0.0, 1.2), 0.6)
    origin = RadialDensity(np.zeros(d), (0.0, 0.5, 2.0), 0.7)
    R = 1.6
    c = float(np.linalg.norm(center))
    parts = [(Measure(dimension=d, spheres=(shell,)),
              _mp_difference_counting([(c, 0.5, 0.8)], [], r, R, d))]
    parts += [(Measure(dimension=d, radial=(comp,)),
               _mp_difference_counting([], [comp], r, R, d)) for comp in (off, origin)]
    whole = Measure(dimension=d, spheres=(shell,), radial=(off, origin))
    for mu, exact in [*parts, (whole, sum(e for _, e in parts))]:
        budget = ErrorBudget()
        value = difference_counting(mu, r, R, budget=budget)
        assert budget.ok
        assert value == pytest.approx(float(exact), rel=1e-11, abs=1e-12), mu


def test_difference_counting_from_zero_at_a_singular_center():
    R = 1.5
    flat = Measure(dimension=3, radial=(RadialDensity(np.zeros(3), (0.0, 2.0), 0.7),))
    exact = _mp_difference_counting([], flat.radial, 0, R, 3)
    assert difference_counting(flat, 0.0, R) == pytest.approx(float(exact), rel=1e-13)
    singular = Measure(dimension=3, radial=(RadialDensity(np.zeros(3), (0.5, 2.0), 0.7),))
    assert difference_counting(singular, 0.0, R) == math.inf
    assert math.isfinite(difference_counting(singular, 0.2, R))


# ------------------------------------------- the panel rule, end to end


def _disc_area():
    return Measure(dimension=2,
                   radial=(RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0),))


def test_counting_on_corollary_lattice_matches_references(monkeypatch):
    # The planar oracle costs about half a second a distance, so mpmath
    # checks one row of each regime for r = 1 = outer: the centre, a < r / 2
    # (one live panel), r / 2 < a < r (two), a > r (one) and a = r + outer
    # (none).
    lattice = _ball_lattice(2.0, 2, 13)
    distances = np.linalg.norm(lattice, axis=1)
    rows = [int(np.argmin(np.abs(distances - a))) for a in (0.0, 0.4, 0.75, 1.5, 2.0)]
    a = distances[rows]
    assert a[0] == 0.0 and 0.0 < a[1] < 0.5 < a[2] < 1.0 < a[3] < 2.0 == a[4]
    _counting_against_references(monkeypatch, _disc_area(), lattice, 1.0, rows)


def test_counting_on_off_center_density_d3_matches_references(monkeypatch):
    mu = Measure(dimension=3,
                 spheres=(SphereShell(np.zeros(3), 0.6, 1.0),),
                 radial=(RadialDensity([0.11, 0.25, 0.1], (0.0, 0.0, 40.0), 0.33),))
    lattice = _ball_lattice(2.0, 3, 5)
    _counting_against_references(monkeypatch, mu, lattice, 1.0)
    _counting_against_references(monkeypatch, mu, np.array(lattice) * 0.2, 0.3)


def test_counting_with_mass_density_at_center_matches_references(monkeypatch):
    # Density 0.3 + 0.9 t: its planar mass density is singular at the center.
    mu = Measure(dimension=2,
                 radial=(RadialDensity([0.0, 0.0], (0.3, 0.9), 0.8),))
    rng = np.random.default_rng(7)
    near = [v * 10.0 ** -k for k, v in zip(range(1, 8), rng.normal(size=(7, 2)))]
    lattice = _ball_lattice(1.8, 2, 9)
    # mpmath on the closest of these points, 1e-7 from the center.
    _counting_against_references(monkeypatch, mu, [*lattice, *near], 0.5, [-1])
    # Closer in the rule converges, to the value at the center: the shells
    # inside the ball are one closed form.
    tiny = np.array([[7e-9, 0.0], [0.0, -1.4e-9]])
    values, errors = _counting_against_references(monkeypatch, mu, tiny, 0.5)
    assert np.all(errors < 1e-13)
    assert values == pytest.approx(integrated_counting(mu, np.zeros(2), 0.5), abs=1e-7)


def test_counting_near_r_of_a_singular_density_d3_meets_the_tolerance(monkeypatch):
    # A d = 3 density with coeffs[0] > 0 at center distances within 1e-9 to
    # 5% of r, on both sides, and a point of the coherence tests' singular
    # measure at a = 0.498, r = 0.5.  The panel rule settles every row within
    # the default tolerance, with no adaptive quadrature, and mpmath agrees
    # within each row's estimate.  Where the window starts within 1e-5 r of
    # s = 0 the two rules agree more closely than the fine one is right, by
    # up to 6e-14, hence the slack.
    def no_adaptive(*args, **kwargs):
        raise AssertionError("integrated counting ran an adaptive quadrature")

    monkeypatch.setattr(measures, "radius_integral", no_adaptive)
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(8):
        comp = _random_density(rng, 3)
        comp = replace(comp, coeffs=(float(rng.uniform(0.1, 2.0)), *comp.coeffs[1:]))
        r = float(rng.uniform(0.3, 1.2))
        gaps = r * 10.0 ** rng.uniform(-9.0, math.log10(0.05), size=8)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pts = comp.center + np.outer(r + gaps * rng.choice([-1.0, 1.0], size=8), direction)
        cases.append((Measure(dimension=3, radial=(comp,)), pts, r))
    cases.append((Measure(dimension=3, radial=(
        RadialDensity([0.2, -0.1, 0.3], (0.5, 1.0), 0.4),)), np.array([[0.0, -0.4435, 0.0]]),
        0.5))
    for mu, pts, r in cases:
        budget = ErrorBudget()
        errors = np.empty(len(pts))
        values = integrated_counting(mu, pts, r, budget=budget, errors=errors)
        assert budget.ok
        assert np.all(errors <= np.maximum(DEFAULT_SPEC.abs_tol,
                                           DEFAULT_SPEC.rel_tol * np.abs(values)))
        exact = _mp_counting(mu, pts, r)
        assert np.all(np.abs(values - exact) <= errors + 1e-13 * (1.0 + np.abs(exact))), (
            values, exact, errors)


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, QuadSpec(abs_tol=1e-300, rel_tol=1e-300)],
                         ids=["default", "unreachable"])
def test_one_point_is_a_batch_of_one(spec):
    shell = SphereShell(np.array([0.1, 0.0, -0.2]), 0.5, 1.2)
    density = RadialDensity([0.11, 0.25, 0.1], (0.4, 0.0, 2.0), 0.6)
    for mu, y in [(Measure(dimension=3, spheres=(shell,), radial=(density,)),
                   np.array([0.3, 0.5, 0.2])),
                  (Measure(dimension=2, radial=(RadialDensity([0.2, -0.1], (0.3, 0.9), 0.8),)),
                   np.array([0.5, 0.4]))]:
        one, batch = ErrorBudget(), ErrorBudget()
        e_one, e_batch = np.full(1, math.nan), np.empty(1)
        value = integrated_counting(mu, y, 0.7, spec, budget=one, errors=e_one)
        values = integrated_counting(mu, y[np.newaxis], 0.7, spec, budget=batch, errors=e_batch)
        assert isinstance(value, float) and value == values[0]
        assert e_one[0] == e_batch[0] > 0.0
        assert (one.error, one.failures) == (batch.error, batch.failures)
        assert one.ok == (spec is DEFAULT_SPEC)


def test_batch_point_at_center_and_atoms():
    mu = _disc_area()
    values = integrated_counting(mu, np.zeros((2, 2)), 1.0)
    assert values[0] == values[1] == integrated_counting(mu, np.zeros(2), 1.0)
    atoms = Measure(dimension=2, atoms=(Atom(np.array([0.3, 0.4]), 2.0),))
    values = integrated_counting(atoms, np.array([[0.0, 0.0], [0.3, 0.4], [3.0, 0.0]]), 1.0)
    assert values[0] == pytest.approx(-2.0 * math.log(0.5), rel=1e-15)
    assert values[1] == math.inf and values[2] == 0.0


def test_batch_charges_the_budget_and_rejects_bad_shapes():
    budget = ErrorBudget()
    pts = np.array([[0.2, 0.1], [0.5, -0.3]])
    errors = np.empty(2)
    integrated_counting(_disc_area(), pts, 1.0, budget=budget, errors=errors)
    assert budget.ok and budget.error == pytest.approx(errors.sum(), rel=1e-12)
    with pytest.raises(ValueError):
        integrated_counting(_disc_area(), np.zeros((2, 3)), 1.0)


@pytest.mark.parametrize("d, coeffs", [(2, (0.3, 0.9)), (3, (0.0, 1.0, 2.0)),
                                       (3, (0.5, 0.0, 1.0))])
def test_radial_block_runs_the_kernel_on_live_panels_only(monkeypatch, d, coeffs):
    # The crossing window |r - a| < s < min(r + a, outer) splits at s = a.
    # Distance 0 (the centre), 0.2 (the ball holds the whole density) and
    # 1.9 (the ball misses it) leave no crossing ring; 0.3 (a < r / 2) and
    # 1.2 (a > outer) have one panel, 0.6 and 0.7 two.
    comp = RadialDensity(np.zeros(d), coeffs, 0.8)
    a = np.array([0.0, 0.2, 0.3, 0.6, 0.7, 1.2, 1.9])
    r = 1.0
    live = np.array([0, 0, 1, 2, 2, 1, 0])

    nodes = []
    if d == 3:
        def counted(center_dist, s, r, d):
            nodes.append(np.broadcast(center_dist, s).size)
            return _shell_counting_kernel(center_dist, s, r, d)

        monkeypatch.setattr(measures, "_shell_counting_kernel", counted)
        value, error = _radial_block(comp, a, r, d)
        assert sum(nodes) == 3 * _PANEL_NODES * live.sum()
    else:
        # In the plane the rings are integrated by parts: the slope runs on
        # the same 32 + 64 nodes per live panel, and the dilogarithm window
        # only at the end of a window that outer cuts, lo < outer < r + a.
        # Every live window of this density is cut.  The wide one (outer
        # 2.0) has one live panel at 0.2 and 0.3 and two beyond, and cuts
        # only the windows of 1.2 and 1.9.
        windows = []

        def slope(center_dist, s, r):
            nodes.append(np.broadcast(center_dist, s).size)
            return _window_slope(center_dist, s, r)

        def window(center_dist, s, r, kr, d):
            windows.extend(np.atleast_1d(center_dist).tolist())
            return _shell_window(center_dist, s, r, kr, d)

        monkeypatch.setattr(measures, "_window_slope", slope)
        monkeypatch.setattr(measures, "_shell_window", window)
        value, error = _radial_block(comp, a, r, d)
        assert sum(nodes) == 3 * _PANEL_NODES * live.sum()
        assert windows == a[live > 0].tolist()
        nodes.clear(), windows.clear()
        wide = RadialDensity(np.zeros(d), coeffs, 2.0)
        _radial_block(wide, a, r, d)
        assert sum(nodes) == 3 * _PANEL_NODES * np.array([0, 1, 1, 2, 2, 2, 2]).sum()
        assert windows == [1.2, 1.9]
    dead = live == 0
    assert np.all(value[dead] == 0.0) and np.all(error[dead] == 0.0)
    assert np.all(value[~dead] > 0.0)


_unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def _counting_cases(draw):
    """A shell and a density in d = 2 or 3, and up to four points in the
    cube of side 4 about the origin."""
    d = draw(st.sampled_from([2, 3]))
    point = st.lists(_unit, min_size=d, max_size=d).map(np.array)
    coeffs = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                           max_size=3).filter(any))
    density = RadialDensity(draw(point), tuple(coeffs),
                            draw(st.floats(min_value=0.1, max_value=1.0)))
    shell = SphereShell(draw(point), draw(st.floats(min_value=0.1, max_value=1.0)),
                        draw(st.floats(min_value=0.1, max_value=2.0)))
    pts = 2.0 * np.array(draw(st.lists(point, min_size=1, max_size=4)))
    return Measure(d, spheres=(shell,), radial=(density,)), pts


_radius = st.floats(min_value=0.05, max_value=2.0)


@given(_counting_cases(), _radius, _radius)
def test_batched_counting_is_nondecreasing_in_r(case, r1, r2):
    mu, pts = case
    r1, r2 = sorted((r1, r2))
    e1, e2 = np.empty(len(pts)), np.empty(len(pts))
    n1 = integrated_counting(mu, pts, r1, errors=e1)
    n2 = integrated_counting(mu, pts, r2, errors=e2)
    assert np.all(n2 >= n1 - (e1 + e2)), (n1, n2, e1, e2)


def _turn(q, v):
    """The rows of v times q transposed, elementwise, so that equal rows
    turn into equal rows whatever array they sit in."""
    return sum(v[..., j, None] * q[:, j] for j in range(q.shape[1]))


@given(_counting_cases(), _radius, st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_batched_counting_is_rotation_invariant(case, r, seed):
    mu, pts = case
    q = special_ortho_group.rvs(mu.dimension, random_state=seed)
    turned = Measure(
        mu.dimension,
        spheres=tuple(replace(s, center=_turn(q, s.center)) for s in mu.spheres),
        radial=tuple(replace(c, center=_turn(q, c.center)) for c in mu.radial))
    e, e_turned = np.empty(len(pts)), np.empty(len(pts))
    n = integrated_counting(mu, pts, r, errors=e)
    n_turned = integrated_counting(turned, _turn(q, pts), r, errors=e_turned)
    finite = np.isfinite(n)  # +inf at the center of a d = 3 density with c0 > 0
    assert np.array_equal(n_turned[~finite], n[~finite])
    # Turning moves every distance by a few ulps, and the closed forms carry
    # no error estimate to cover that.
    rounding = 1e-13 * (1.0 + np.abs(n))
    assert np.all(np.abs(n_turned[finite] - n[finite])
                  <= (e + e_turned + rounding)[finite]), (n, n_turned, e, e_turned)


# -------------------------------------------------- bundled scans, pinned

# (scenario, region radius or SUPPORT, r, resolution, value, argmax,
# evaluations) for every scan of `nevkit run --bundled`, in run order.  The
# batched scans reach these rows unchanged from the walk that evaluated one
# point at a time, so they visit the same points.  The corollary's scan
# repeats statement I's and comes from the measure's cache.  The area
# measure's and the harmonic disc's ball scans, and the disc's support scan,
# are centred and walk the radial profile along e1; the area measure's
# support scan has a density and stays on the lattice.  It settles ties
# between samples at one distance from the density's center, whose values
# agree up to rounding, so its argmax follows the last bits of the batched
# values, and of the projection onto the density, there.
BUNDLED_SCANS = [
    ("atomic_statements_expected_fail", 2.0, 0.5, 9, math.inf, (0.5, 0.0), 33),
    ("atomic_statements_expected_fail", SUPPORT, 0.5, 9, math.inf, (0.5, 0.0), 1),
    ("corollary_rational_area_measure", 2.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 28),
    ("corollary_rational_area_measure", 1.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 28),
    ("corollary_rational_area_measure", SUPPORT, 1.0, 13, 0.49999973849260404,
     (0.000507064507089287, 0.0008881237809024354), 399),
    ("corollary_rational_area_measure", 2.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 28),
    ("poisson_jensen_harmonic_disc", 1.0, 0.75, 13, 0.4954435528810475,
     (0.5, 0.0), 40),
    ("poisson_jensen_harmonic_disc", 0.75, 0.75, 13, 0.4954435528810475,
     (0.5, 0.0), 40),
    ("poisson_jensen_harmonic_disc", SUPPORT, 0.75, 13, 0.4954435528810475,
     (0.5, 0.0), 1),
]


def test_bundled_scans_are_pinned():
    scenarios = {}
    for path in bundled_scenario_paths():
        sc = scenario_from_json(json.loads(path.read_text()), path=path.name[:-5])
        scenarios[sc.name] = sc
    for name, radius, r, resolution, value, argmax, evaluations in BUNDLED_SCANS:
        sc = scenarios[name]
        res = sup_integrated_counting(sc.measure, radius, r, resolution, sc.quad,
                                      budget=ErrorBudget())
        assert (res.argmax, res.evaluations) == (argmax, evaluations), name
        if math.isinf(value):
            assert res.value == value
        else:
            assert res.value == pytest.approx(value, abs=1e-12)


def _spatial_measure():
    return Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.6, 1.0),),
                   radial=(RadialDensity([0.11, 0.25, 0.1], (0.0, 0.0, 40.0), 0.33),))


# `many_small` seed 7 scenario 31: a centred shell in d = 3, on which N(y, 1)
# is the constant mass / (4 radius**2) (the mean of 1/t - 1 over t <= 1 with
# the density t / (2 radius**2) of t = |x - y|), so its support scan
# evaluates the one support radius once, at radius * e1.
CENTRED_SHELL = SphereShell(np.zeros(3), 0.5126793219154806, 1.0217062332883202)

# (measure, region radius or SUPPORT, r, resolution, value, argmax,
# evaluations) of d = 3 walks: two at r = 0.5 and resolution 7 over a
# centred shell plus an off-centre density, where the support walk projects
# its refinements onto the density, and the centred shell's support scan,
# which runs over its radial profile.
SPATIAL_SCANS = [
    (_spatial_measure, SUPPORT, 0.5, 7, 1.345141929375398,
     (0.13434517664977294, 0.29778267664977304, 0.11962500000000002), 2443),
    (_spatial_measure, 1.0, 0.5, 7, 1.3439237350443647,
     (0.14645833333333336, 0.2968749999999999, 0.12083333333333333), 2312),
    (lambda: Measure(dimension=3, spheres=(CENTRED_SHELL,)), SUPPORT, 1.0, 5,
     CENTRED_SHELL.mass / (4.0 * CENTRED_SHELL.radius ** 2),
     (CENTRED_SHELL.radius, 0.0, 0.0), 1),
]


@pytest.mark.parametrize("measure, radius, r, resolution, value, argmax, evaluations",
                         SPATIAL_SCANS, ids=["support", "ball", "centred-shell-support"])
def test_spatial_scans_are_pinned(measure, radius, r, resolution, value, argmax,
                                  evaluations):
    mu = measure()
    res = sup_integrated_counting(mu, radius, r, resolution, budget=ErrorBudget())
    assert (res.argmax, res.evaluations) == (argmax, evaluations)
    assert res.value == pytest.approx(value, abs=1e-12)
    if not mu.radial:  # the centred shell's argmax lies on the shell
        assert np.linalg.norm(argmax) == pytest.approx(CENTRED_SHELL.radius, abs=1e-12)


def _pointwise_walk(batches):
    """Walk recorded (points, values, errors) batches one point at a time:
    count each point, charge its error if nonzero, and take it only when it
    beats the best by a strict ``>``.  The first batch holds the candidates,
    whose walk stops at +inf; every later batch is a refinement batch, whose
    walk stops at its first improvement."""
    budget = ErrorBudget()
    best, argmax, evaluations = -math.inf, None, 0
    for i, (points, values, errors) in enumerate(batches):
        for p, value, error in zip(points, values, errors):
            evaluations += 1
            if error > 0.0:
                budget.add(QuadResult(value, error, math.isfinite(error)),
                           "integrated-counting")
            if value > best:
                best, argmax = value, tuple(float(v) for v in p)
                if i or value == math.inf:
                    break
    return best, argmax, evaluations, budget


@pytest.mark.parametrize("measure, r, resolution", [
    (lambda: Measure(dimension=2, radial=(
        RadialDensity([0.3512, -0.2174], (0.4, 2.0, -1.5), 0.3),)), 0.2, 9),
    (_spatial_measure, 0.5, 5),
], ids=["planar-density", "d3"])
@pytest.mark.parametrize("region", [1.0, SUPPORT], ids=["ball", "support"])
def test_scans_settle_batches_as_the_pointwise_walk(monkeypatch, measure, r,
                                                    resolution, region):
    batches = []

    def recorded(mu, pts, r, spec, *, errors):
        values = integrated_counting(mu, pts, r, spec, errors=errors)
        batches.append((pts.copy(), values.copy(), errors.copy()))
        return values

    monkeypatch.setattr(measures, "integrated_counting", recorded)
    budget = ErrorBudget()
    res = sup_integrated_counting(measure(), region, r, resolution, budget=budget)
    best, argmax, evaluations, walked = _pointwise_walk(batches)
    assert len(batches) > 1 and walked.error > 0.0
    assert (res.value, res.argmax, res.evaluations) == (best, argmax, evaluations)
    assert budget.error == walked.error and budget.failures == walked.failures


@st.composite
def concentric_scans(draw):
    """A measure whose components share one centre c (at the origin or
    off it): atoms at c, shells and polynomial densities about c; with a
    ball region, or the support when there is no density."""
    d = draw(st.sampled_from([2, 3]))
    unit = st.floats(-0.8, 0.8)
    c = np.zeros(d) if draw(st.booleans()) else np.array(draw(st.lists(
        unit, min_size=d, max_size=d)))
    size, mass = st.floats(0.05, 1.2), st.floats(0.1, 2.0)
    atoms = tuple(Atom(c, m) for m in draw(st.lists(mass, max_size=1)))
    spheres = tuple(SphereShell(c, s, m) for s, m in draw(st.lists(st.tuples(size, mass),
                                                                   max_size=2)))
    radial = tuple(RadialDensity(c, coeffs, outer) for coeffs, outer in draw(st.lists(
        st.tuples(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3), size), max_size=2)))
    if not (atoms or spheres or radial):
        spheres = (SphereShell(c, 0.5, 1.0),)
    regions = [st.floats(0.2, 2.0)] + ([] if radial else [st.just(SUPPORT)])
    return (lambda: Measure(d, atoms, spheres, radial), draw(st.one_of(regions)),
            draw(st.floats(0.1, 1.5)), draw(st.integers(5, 9)))


@settings(max_examples=40, deadline=None)
@given(concentric_scans())
def test_profile_scans_reach_the_lattice_scans(scan):
    # Each scan gets a measure of its own, since scans are cached on it.
    measure, region, r, resolution = scan
    mu = measure()
    res = sup_integrated_counting(mu, region, r, resolution)
    assert res.centre is not None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_profile", lambda *args: None)
        grid = sup_integrated_counting(measure(), region, r, resolution)
    assert grid.centre is None
    y = np.array(res.argmax)
    c = np.array(res.centre)
    a = float(np.linalg.norm(y - c))
    if region == SUPPORT:
        radii = [0.0] * bool(mu.atoms) + [s.radius for s in mu.spheres]
        assert min(abs(a - t) for t in radii) <= 1e-12
    else:
        assert np.linalg.norm(y) <= region * (1.0 + BOUNDARY_RTOL)
    # One point, not a batch: its panel sums may round apart in the last bit.
    assert integrated_counting(mu, y, r) == pytest.approx(res.value, rel=1e-13, abs=1e-13)
    if grid.value == math.inf:
        assert res.value == math.inf
        return
    slack = 1e-13 * (1.0 + abs(grid.value))
    if mu.radial:
        # A density's N can peak between kinks, where both walks end on a
        # grid value: the profile's last step, (hi - lo) / (64 (resolution -
        # 1)), may then leave it below the lattice's value by up to its own
        # drop to a neighbour one step away.
        norm = float(np.linalg.norm(c))
        lo, hi = max(0.0, norm - region), norm + region
        step = (hi - lo) / (64 * (resolution - 1))
        u = (y - c) / a if a > 0.0 else np.eye(len(c))[0]
        slack += max([res.value - integrated_counting(mu, c + b * u, r)
                      for b in (a - step, a + step) if lo <= b <= hi] + [0.0])
    assert res.value >= grid.value - slack, (res, grid)


# ------------------------------------------------- positive-part means


POSITIVE_PART_F = RationalFunction(
    zeros=(1.2953861026876976 + 0.20541726018355613j,),
    poles=(-0.48355623546841375 + 0.8962531360806826j,
           -1.535752083078638 + 0.37133081336094537j),
    scale=0.9321923049599199)


def _oracle_positive_part_mean(f, radius, start):
    """Mean of ln+|f| over the circle |z| = radius, by mpmath quadrature
    split at the sign changes of ln|f| (located on a 256-cell grid from the
    angle ``start``, which may be singular, then refined)."""
    radius, start = mpmath.mpf(radius), mpmath.mpf(start)

    def log_abs(t):
        z = radius * mpmath.expj(t)
        value = mpmath.log(abs(mpmath.mpc(f.scale)))
        for a in f.zeros:
            value += mpmath.log(abs(z - mpmath.mpc(a)))
        for b in f.poles:
            value -= mpmath.log(abs(z - mpmath.mpc(b)))
        return value

    grid = [start + 2 * mpmath.pi * k / 256 for k in range(1, 256)]
    roots = [mpmath.findroot(log_abs, (a, b), solver="anderson")
             for a, b in zip(grid, grid[1:]) if (log_abs(a) > 0) != (log_abs(b) > 0)]
    knots = [start, *roots, start + 2 * mpmath.pi]
    return mpmath.quad(lambda t: max(log_abs(t), 0), knots) / (2 * mpmath.pi)


@pytest.mark.parametrize("on_circle", [False, True])
def test_positive_part_integral_matches_mpmath(on_circle):
    # ln|f| changes sign twice on the circle, so ln+|f| has two kinks there.
    # With on_circle the shell passes through a pole of f, a declared
    # singular angle, and the tanh-sinh rule runs split at it and the kinks.
    pole = POSITIVE_PART_F.poles[1]
    radius, start = ((abs(pole), math.atan2(pole.imag, pole.real)) if on_circle
                     else (0.5990793563813949, 0.0))
    mass = 0.7315579357058061
    u = from_rational(POSITIVE_PART_F)
    assert bool(u.singular_angles_on(np.zeros(2), radius)) == on_circle
    mu = Measure(dimension=2, spheres=(SphereShell(np.zeros(2), radius, mass),))
    budget = ErrorBudget()
    value = positive_part_integral(u, mu, budget=budget)
    exact = mass * _oracle_positive_part_mean(POSITIVE_PART_F, radius, start)
    assert budget.ok
    assert abs(value - exact) <= budget.error, (value, float(exact), budget.error)

"""Integrated counting: closed-form kernels against mpmath, the batched
fixed-panel path against the adaptive per-point path, and the bundled
supremum scans pinned to the values of the point-by-point walk.  Also the
density-kernel integrals, potentials and difference counting, the planar
positive-part means and the bound constant A against mpmath."""

import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import special_ortho_group

from nevkit import measures
from nevkit.cli import bundled_scenario_paths
from nevkit.dsh import RationalFunction, from_rational, positive_part_integral
from nevkit.kernels import constant_A
from nevkit.measures import (
    _GRADED_LEVELS,
    _PANEL_NODES,
    SUPPORT,
    Atom,
    Measure,
    RadialDensity,
    SphereShell,
    _CountingWalk,
    _ball_lattice,
    _cap_fraction,
    _cosine_panel_rule,
    _radial_block,
    _shell_counting_kernel,
    difference_counting,
    integrated_counting,
    potential,
    sup_integrated_counting,
)
from nevkit.nevanlinna import classical_N
from nevkit.quadrature import ErrorBudget
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


# ------------------------------------------------- batched against adaptive


def _disc_area():
    return Measure(dimension=2,
                   radial=(RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0),))


def _batch_against_adaptive(mu, pts, r):
    pts = np.asarray(pts, dtype=float)
    errors = np.empty(len(pts))
    batch = integrated_counting(mu, pts, r, errors=errors)
    assert batch.shape == (len(pts),)
    assert np.all(np.isfinite(errors)) and np.all(errors >= 0.0)
    for p, value, error in zip(pts, batch, errors):
        point = ErrorBudget()
        adaptive = integrated_counting(mu, p, r, budget=point)
        assert point.ok
        assert abs(value - adaptive) <= error + point.error, (p, value, adaptive)


def test_batch_matches_adaptive_on_corollary_lattice():
    lattice = _ball_lattice(2.0, 2, 13)
    _batch_against_adaptive(_disc_area(), lattice, 1.0)


def test_batch_matches_adaptive_on_off_center_density_d3():
    mu = Measure(dimension=3,
                 spheres=(SphereShell(np.zeros(3), 0.6, 1.0),),
                 radial=(RadialDensity([0.11, 0.25, 0.1], (0.0, 0.0, 40.0), 0.33),))
    lattice = _ball_lattice(2.0, 3, 5)
    _batch_against_adaptive(mu, lattice, 1.0)
    _batch_against_adaptive(mu, np.array(lattice) * 0.2, 0.3)


def test_batch_matches_adaptive_with_mass_density_at_center():
    # Density 0.3 + 0.9 t: its planar mass density is singular at the center.
    mu = Measure(dimension=2,
                 radial=(RadialDensity([0.0, 0.0], (0.3, 0.9), 0.8),))
    rng = np.random.default_rng(7)
    near = [v * 10.0 ** -k for k, v in zip(range(1, 8), rng.normal(size=(7, 2)))]
    lattice = _ball_lattice(1.8, 2, 9)
    _batch_against_adaptive(mu, [*lattice, *near], 0.5)
    # Closer in, both paths converge, to the value at the center: the
    # adaptive path integrates the shells inside the ball in closed form.
    tiny = np.array([[7e-9, 0.0], [0.0, -1.4e-9]])
    errors = np.empty(2)
    values = integrated_counting(mu, tiny, 0.5, errors=errors)
    assert np.all(errors < 1e-13)
    assert values == pytest.approx(integrated_counting(mu, np.zeros(2), 0.5), abs=1e-7)
    for y, batch in zip(tiny, values):
        point = ErrorBudget()
        assert integrated_counting(mu, y, 0.5, budget=point) == pytest.approx(batch, abs=1e-12)
        assert point.ok


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


def _radial_block_on_all_panels(comp, a, r, d):
    """_radial_block with the density and the kernel evaluated on every
    panel, the zero-width ones included, and the number of live panels."""
    lo = np.maximum(a - r, 0.0)
    hi = np.maximum(np.minimum(a + r, comp.outer), lo)
    kinks = [lo, np.abs(a - r), a, a + r, hi]
    ratio = float(np.max((r - a) / a, initial=1.0))
    for k in range(1, min(math.ceil(math.log(ratio, 4.0)), _GRADED_LEVELS) + 1):
        kinks.append(np.minimum(a * 4.0 ** k, np.abs(a - r)))
    edges = np.sort(np.clip(np.column_stack(kinks), lo[:, None], hi[:, None]), axis=1)
    left, width = edges[:, :-1, None], np.diff(edges, axis=1)

    def panel_integrals(n):
        u, w = _cosine_panel_rule(n)
        s = left + width[:, :, None] * u
        f = comp.density(s) * _shell_counting_kernel(a[:, None, None], s, r, d)
        return np.where(width > 0.0, width * (f @ w), 0.0)

    coarse = panel_integrals(_PANEL_NODES)
    fine = panel_integrals(2 * _PANEL_NODES)
    value = fine.sum(axis=1)
    error = np.maximum(np.abs(fine - coarse).sum(axis=1), 1e-16 * np.abs(value))
    return value, error, int(np.count_nonzero(width > 0.0))


@pytest.mark.parametrize("d, coeffs", [(2, (0.3, 0.9)), (3, (0.0, 1.0, 2.0)),
                                       (3, (0.5, 0.0, 1.0))])
def test_radial_block_skips_dead_panels_bit_for_bit(monkeypatch, d, coeffs):
    # A point 1e-6 from the center gives the batch 10 graded kinks, which
    # the far points clip to their windows' ends: most panels are dead.
    comp = RadialDensity(np.zeros(d), coeffs, 0.8)
    a = np.array([1e-6, 0.05, 0.3, 0.55, 0.9, 1.2, 1.6])
    r = 0.5
    value, error, live = _radial_block_on_all_panels(comp, a, r, d)
    panels = len(a) * (5 + 10 - 1)
    assert live < panels / 2
    got = _radial_block(comp, a, r, d)
    assert np.array_equal(got[0], value) and np.array_equal(got[1], error)

    nodes = []

    def counted(center_dist, s, r, d):
        nodes.append(np.broadcast(center_dist, s).size)
        return _shell_counting_kernel(center_dist, s, r, d)

    monkeypatch.setattr(measures, "_shell_counting_kernel", counted)
    _radial_block(comp, a, r, d)
    assert sum(nodes) == 3 * _PANEL_NODES * live


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
# evaluations) for every scan of `nevkit run --bundled`, in run order, as the
# point-by-point walk of adaptive evaluations found them.  The corollary's
# scan repeats statement I's and comes from the measure's cache.  The support
# scan of the area measure settles ties between samples at one distance from
# the density's center, whose values agree up to rounding, so its argmax
# follows the last bits of the adaptive values there.
BUNDLED_SCANS = [
    ("atomic_statements_expected_fail", 2.0, 0.5, 9, math.inf, (0.5, 0.0), 33),
    ("atomic_statements_expected_fail", SUPPORT, 0.5, 9, math.inf, (0.5, 0.0), 1),
    ("corollary_rational_area_measure", 2.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 357),
    ("corollary_rational_area_measure", 1.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 357),
    ("corollary_rational_area_measure", SUPPORT, 1.0, 13, 0.49999973849260404,
     (0.000507064507089287, 0.0008881237809024336), 399),
    ("corollary_rational_area_measure", 2.0, 1.0, 13, 0.49999999999999983,
     (0.0, 0.0), 357),
    ("poisson_jensen_harmonic_disc", 1.0, 0.75, 13, 0.4954435528810475,
     (-0.5, 0.0), 357),
    ("poisson_jensen_harmonic_disc", 0.75, 0.75, 13, 0.4954435528810475,
     (-0.5, 0.0), 357),
    ("poisson_jensen_harmonic_disc", SUPPORT, 0.75, 13, 0.4954435528810475,
     (0.5, 0.0), 269),
]


def test_bundled_scans_replay_the_pointwise_walk():
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


def test_scans_of_closed_forms_replay_no_tie(monkeypatch):
    # Every value of these scans is a closed form with no error estimate, so
    # the lattice's symmetric ties are settled without the per-point path.
    replays = []
    per_point = _CountingWalk._per_point

    def counted(self, p):
        replays.append(p)
        return per_point(self, p)

    monkeypatch.setattr(_CountingWalk, "_per_point", counted)
    for d in (2, 3):
        mu = Measure(dimension=d, spheres=(SphereShell(np.zeros(d), 0.6, 1.0),
                                           SphereShell(np.full(d, 0.1), 0.3, 0.5)))
        sup_integrated_counting(mu, 1.0, 1.0, 5)
        sup_integrated_counting(mu, SUPPORT, 1.0, 5)
    assert replays == []


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
    # singular angle, and the adaptive rule runs split at it and the kinks.
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

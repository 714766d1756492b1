import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nevkit.kernels import kappa
from nevkit.measures import (
    SUPPORT,
    Atom,
    Measure,
    RadialDensity,
    SphereShell,
    difference_counting,
    integrated_counting,
    measure_from_json,
    potential,
    radial_counting,
    sup_integrated_counting,
)
from nevkit.quadrature import ErrorBudget, QuadSpec


def circle(mass=1.0, radius=1.0, center=(0.0, 0.0)):
    return Measure(dimension=2, spheres=(SphereShell(np.asarray(center), radius, mass),))


def sphere3(mass=1.0, radius=1.0, center=(0.0, 0.0, 0.0)):
    return Measure(dimension=3, spheres=(SphereShell(np.asarray(center), radius, mass),))


def disc_area():
    """Normalized area measure on the unit disc: radial profile 2t."""
    return Measure(dimension=2,
                   radial=(RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0),))


def _quadpack(f, a, b):
    """An independent oracle: QUADPACK at the package's default tolerances."""
    return quad(f, a, b, epsabs=1e-10, epsrel=1e-9, limit=2 ** 15)[0]


# ---------------------------------------------------------------- components


@given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=5),
       st.floats(min_value=0.0, max_value=2.0))
def test_polynomial_density_cumulative_is_exact(coeffs, t):
    comp = RadialDensity(np.zeros(2), tuple(coeffs), 2.0)
    numeric = _quadpack(comp.density, 0.0, t) if t > 0 else 0.0
    assert comp.mass_within(t) == pytest.approx(numeric, rel=1e-10, abs=1e-12)


def test_radial_density_mass_caps_at_outer():
    comp = RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0)
    assert comp.mass_within(0.5) == pytest.approx(0.25, rel=1e-14)
    assert comp.mass_within(1.0) == pytest.approx(1.0, rel=1e-14)
    assert comp.mass_within(7.0) == pytest.approx(1.0, rel=1e-14)
    assert comp.total == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("coeffs, outer, message", [
    ((0.2821265625, -1.0625, 1.0), 1.0, "nonnegative"),  # -1e-4 at t = 0.53125
    ((1.0, -3.0), 0.5, "nonnegative"),                   # negative at the outer radius
    ((-0.01, 0.0, 1.0), 2.0, "nonnegative"),             # negative at the centre
    ((1.0, 1.0, 1.0), 1e200, "overflows"),
])
def test_radial_density_rejects_invalid_polynomials(coeffs, outer, message):
    with pytest.raises(ValueError, match=message):
        RadialDensity(np.zeros(2), coeffs, outer)


@pytest.mark.parametrize("coeffs, outer, mass", [
    ((0.25, -1.0, 1.0), 1.0, 1.0 / 12.0),  # (t - 0.5)**2 touches zero at 0.5
    ((0.0, 2.0, 1.5e-323), 1.0, 1.0),      # a subnormal top coefficient
    ((1.0,), 2.0, 2.0),
    ((0.0, 0.0), 3.0, 0.0),
])
def test_radial_density_accepts_nonnegative_polynomials(coeffs, outer, mass):
    comp = RadialDensity(np.zeros(2), coeffs, outer)
    assert comp.total == pytest.approx(mass, rel=1e-14)


def test_atom_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        Atom(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Atom(np.zeros(2), -1.0)


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(dimension=2, atoms=(Atom(np.zeros(3), 1.0),))
    with pytest.raises(ValueError):
        # continuous components need d in {2, 3}
        Measure(dimension=4, spheres=(SphereShell(np.zeros(4), 1.0, 1.0),))
    atoms4 = Measure(dimension=4, atoms=(Atom(np.zeros(4), 1.0),))
    assert atoms4.total_mass == 1.0


def test_measure_bookkeeping():
    mu = circle() + Measure(dimension=2, atoms=(Atom(np.array([2.0, 0.0]), 0.5),))
    assert mu.total_mass == pytest.approx(1.5)
    assert mu.support_radius == pytest.approx(2.0)
    assert not mu.is_zero
    assert Measure(dimension=2).is_zero

    shifted = mu.translate([1.0, -1.0])
    assert shifted.support_radius == pytest.approx(np.linalg.norm([3.0, -1.0]))


# ------------------------------------------------------------ ball counting


def test_radial_counting_atoms_closed_ball():
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.5, 0.0]), 2.0),
                                     Atom(np.array([0.0, 1.0]), 3.0)))
    y = np.zeros(2)
    assert radial_counting(mu, y, 0.25) == 0.0
    assert radial_counting(mu, y, 0.5) == 2.0  # boundary atoms count
    assert radial_counting(mu, y, 1.0) == 5.0


def test_radial_counting_shell_chord_fraction():
    # Points of the unit circle within distance 1 of (1, 0) span the arc
    # |phi| <= pi/3, i.e. one third of the circle.
    mu = circle()
    assert radial_counting(mu, [1.0, 0.0], 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_radial_counting_sphere_cap_fraction():
    # Spherical cap {dist <= 1} seen from a point on the unit sphere has
    # solid-angle fraction (1 - cos(alpha)) / 2 with cos(alpha) = 1/2.
    mu = sphere3()
    assert radial_counting(mu, [1.0, 0.0, 0.0], 1.0) == pytest.approx(0.25, rel=1e-12)


def test_radial_counting_centered_radial_component():
    mu = disc_area()
    for t in (0.3, 0.7, 1.0, 2.0):
        assert radial_counting(mu, np.zeros(2), t) == pytest.approx(min(t * t, 1.0), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_counting_of_an_off_centre_density(d):
    comp = RadialDensity(0.3 * np.eye(d)[1], (0.5, 1.0, 0.25), 0.4)
    mu = Measure(dimension=d, radial=(comp,))
    # The ball holds the whole support: its rings are one closed form.
    assert radial_counting(mu, 0.1 * np.ones(d), 1.0) == comp.total
    # The ball holds some rings whole and crosses others; QUADPACK over all
    # of them agrees.
    y, t = 0.1 * np.eye(d)[0], 0.5
    a = float(np.linalg.norm(comp.center - y))

    def cap(s):
        c0 = (a * a + s * s - t * t) / (2.0 * a * s)
        if c0 <= -1.0 or c0 >= 1.0:
            return float(c0 <= -1.0)
        return math.acos(c0) / math.pi if d == 2 else 0.5 * (1.0 - c0)

    oracle = quad(lambda s: comp.density(s) * cap(s), 0.0, comp.outer, points=(t - a,),
                  epsabs=1e-12, epsrel=1e-12)[0]
    budget = ErrorBudget()
    assert radial_counting(mu, y, t, budget=budget) == pytest.approx(oracle, rel=1e-10)
    assert budget.ok


@given(st.data())
def test_radial_counting_is_nondecreasing_in_t(data):
    mu = data.draw(measures())
    y = np.array(data.draw(st.lists(_coord, min_size=mu.dimension, max_size=mu.dimension)))
    t1, t2 = sorted(data.draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                                       min_size=2, max_size=2)))
    b1, b2 = ErrorBudget(), ErrorBudget()
    m1 = radial_counting(mu, y, t1, budget=b1)
    m2 = radial_counting(mu, y, t2, budget=b2)
    assert b1.ok and b2.ok
    assert m2 >= m1 - (b1.error + b2.error), (m1, m2, b1.error, b2.error)


# ------------------------------------------------- integrated counting N(y, r)


def test_integrated_counting_circle_at_center():
    assert integrated_counting(circle(), np.zeros(2), 2.0) == pytest.approx(
        math.log(2.0), rel=1e-13)
    assert integrated_counting(circle(), np.zeros(2), 0.5) == 0.0


def test_integrated_counting_disc_at_center():
    # N(0, r) = integral_0^r t^2 / t dt = r^2 / 2 for r <= 1.
    mu = disc_area()
    for r in (0.3, 0.8, 1.0):
        assert integrated_counting(mu, np.zeros(2), r) == pytest.approx(
            0.5 * r * r, rel=1e-10)


def test_integrated_counting_atom_exact_and_infinite():
    loc = np.array([0.3, 0.4])
    mu = Measure(dimension=2, atoms=(Atom(loc, 2.0),))
    y = np.zeros(2)
    # N(y, r) = m * (ln r - ln|loc - y|) once the atom is inside.
    assert integrated_counting(mu, y, 1.0) == pytest.approx(
        2.0 * (0.0 - math.log(0.5)), rel=1e-13)
    assert integrated_counting(mu, loc, 1.0) == math.inf


def test_integrated_counting_shell_matches_angle_quadrature():
    # Independent route: average kappa(r) - kappa(dist) over the shell angle,
    # keeping only the part of the shell inside the ball.
    mu = circle()
    r = 1.1
    for y in (np.array([0.5, 0.0]), np.array([0.9, 0.3]), np.array([1.7, 0.0])):
        a = float(np.linalg.norm(y))

        def f(phi):
            dist = math.sqrt(1.0 + a * a - 2.0 * a * math.cos(phi))
            return max(kappa(r, 2) - kappa(dist, 2), 0.0)

        oracle = _quadpack(f, 0.0, math.pi) / math.pi
        assert integrated_counting(mu, y, r) == pytest.approx(oracle, rel=1e-8, abs=1e-10)


def test_integrated_counting_shell_matches_angle_quadrature_d3():
    mu = sphere3()
    r = 1.1
    for y in (np.array([0.5, 0.0, 0.0]), np.array([1.4, 0.2, -0.1])):
        a = float(np.linalg.norm(y))

        def f(phi):
            dist = math.sqrt(1.0 + a * a - 2.0 * a * math.cos(phi))
            return max(kappa(r, 3) - kappa(dist, 3), 0.0) * math.sin(phi) / 2.0

        oracle = _quadpack(f, 0.0, math.pi)
        assert integrated_counting(mu, y, r) == pytest.approx(oracle, rel=1e-8, abs=1e-10)


def test_integrated_counting_translation_invariance():
    mu = circle(mass=1.5) + disc_area()
    v = np.array([0.7, -1.2])
    y = np.array([0.2, 0.1])
    base = integrated_counting(mu, y, 1.3)
    moved = integrated_counting(mu.translate(v), y + v, 1.3)
    assert moved == pytest.approx(base, rel=1e-10)


def test_difference_counting_single_atom():
    # For one atom at the origin, N(r, R) = kappa(R) - kappa(r).
    mu = Measure(dimension=2, atoms=(Atom(np.zeros(2), 1.0),))
    assert difference_counting(mu, 1.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-13)
    mu3 = Measure(dimension=3, atoms=(Atom(np.zeros(3), 1.0),))
    assert difference_counting(mu3, 1.0, 2.0) == pytest.approx(0.5, rel=1e-13)


def test_difference_counting_monotone_in_R():
    mu = circle() + disc_area()
    vals = [difference_counting(mu, 0.5, R) for R in (0.8, 1.2, 2.0, 3.5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------------ potential


def test_potential_circle_equilibrium():
    mu = circle()
    assert potential(mu, [0.0, 0.0]) == 0.0
    assert potential(mu, [0.3, -0.2]) == 0.0
    assert potential(mu, [3.0, 0.0]) == pytest.approx(math.log(3.0), rel=1e-13)


def test_potential_sphere3_values():
    mu = sphere3()
    assert potential(mu, [0.0, 0.0, 0.0]) == pytest.approx(-1.0, rel=1e-13)
    assert potential(mu, [3.0, 0.0, 0.0]) == pytest.approx(-1.0 / 3.0, rel=1e-13)


def test_potential_disc_at_center():
    # integral_0^1 ln(s) 2s ds = -1/2.
    assert potential(disc_area(), [0.0, 0.0]) == pytest.approx(-0.5, rel=1e-10)


def test_potential_at_atom_is_minus_infinity():
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.1, 0.2]), 1.0),))
    assert potential(mu, [0.1, 0.2]) == -math.inf
    assert math.isfinite(potential(mu, [0.5, 0.5]))


# ------------------------------------------------------------------- suprema


def test_sup_integrated_counting_disc_peaks_at_center():
    res = sup_integrated_counting(disc_area(), 1.0, 1.0, 13)
    assert res.value == pytest.approx(0.5, rel=1e-8)
    assert np.linalg.norm(res.argmax) < 1e-8


def test_sup_integrated_counting_hits_atom():
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.3, -0.2]), 1.0),))
    res = sup_integrated_counting(mu, 1.0, 0.5, 9)
    assert res.value == math.inf


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, "ball"])
def test_sup_integrated_counting_rejects_bad_region(radius):
    with pytest.raises(ValueError, match="region"):
        sup_integrated_counting(disc_area(), radius, 1.0, 9)


def test_sup_integrated_counting_support_region():
    res = sup_integrated_counting(circle(), SUPPORT, 0.5, 17)
    assert math.isfinite(res.value)
    assert res.value > 0.0
    # the maximizer stays on the support
    assert np.linalg.norm(res.argmax) == pytest.approx(1.0, abs=1e-6)


def test_sup_integrated_counting_zero_measure():
    res = sup_integrated_counting(Measure(dimension=2), SUPPORT, 1.0, 9)
    assert res.value == 0.0


def test_sup_cache_reuses_result():
    mu = disc_area()
    first = sup_integrated_counting(mu, 1.0, 1.0, 13)
    second = sup_integrated_counting(mu, 1.0, 1.0, 13)
    assert first is second


@pytest.mark.parametrize("spec", [QuadSpec(), QuadSpec(abs_tol=1e-300, rel_tol=1e-300)],
                         ids=["default", "unreachable"])
def test_sup_cache_hit_charges_the_scan_again(spec):
    # An off-centre density needs quadrature; a scan served from the cache
    # charges the second budget what the scan charged the first.
    mu = Measure(dimension=2, radial=(RadialDensity([0.3, -0.2], (0.3, 0.9), 0.6),))
    budgets = [ErrorBudget(), ErrorBudget()]
    for budget in budgets:
        sup_integrated_counting(mu, 1.0, 1.0, 5, spec, budget=budget)
    first, second = budgets
    assert first.error > 0.0 or first.failures
    assert (second.error, second.failures) == (first.error, first.failures)


# ------------------------------------------------------------------- JSON


_coord = st.floats(min_value=-5.0, max_value=5.0)
_size = st.floats(min_value=1e-6, max_value=5.0)


@st.composite
def measure_json(draw):
    d = draw(st.sampled_from([2, 3]))
    point = st.lists(_coord, min_size=d, max_size=d)
    coeffs = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4)
    return {
        "dimension": d,
        "atoms": draw(st.lists(st.fixed_dictionaries({"point": point, "mass": _size}),
                               max_size=3)),
        "spheres": draw(st.lists(st.fixed_dictionaries(
            {"center": point, "radius": _size, "mass": _size}), max_size=3)),
        "radial": draw(st.lists(st.fixed_dictionaries(
            {"center": point, "coeffs": coeffs, "outer": _size}), max_size=3)),
    }


def measures():
    return measure_json().map(measure_from_json)


@given(measure_json())
def test_measure_json_round_trip(data):
    # The parser keeps every generated field, in order, bit for bit.
    mu = measure_from_json(json.loads(json.dumps(data)))
    assert mu.dimension == data["dimension"]
    assert [{"point": a.location.tolist(), "mass": a.mass}
            for a in mu.atoms] == data["atoms"]
    assert [{"center": s.center.tolist(), "radius": s.radius, "mass": s.mass}
            for s in mu.spheres] == data["spheres"]
    assert [{"center": c.center.tolist(), "coeffs": list(c.coeffs), "outer": c.outer}
            for c in mu.radial] == data["radial"]


def test_measure_from_json_error_paths():
    with pytest.raises(ValueError, match="dimension"):
        measure_from_json({"atoms": []})
    with pytest.raises(ValueError, match="mass"):
        measure_from_json({"dimension": 2, "atoms": [{"point": [0, 0], "mass": -1}]})
    with pytest.raises(ValueError, match="unknown"):
        measure_from_json({"dimension": 2, "blobs": []})

import math
import re

import numpy as np
import pytest

from nevkit.criterion import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    _inequality_report,
    check_corollary,
    check_statement_I,
    check_statement_II,
    check_statement_IV,
    check_statement_V,
    falsify_statement_III,
    statement_ii_bounds,
    verify_lemma3,
    verify_poisson_jensen,
)
from nevkit.dsh import (
    Charge,
    DshFunction,
    HarmonicPart,
    RationalFunction,
    from_rational,
    kernel_witness,
    positive_part_integral,
)
from nevkit.kernels import constant_A, kappa
from nevkit.measures import (
    Atom,
    Measure,
    RadialDensity,
    SphereShell,
    _support_samples,
    difference_counting,
)
from nevkit.nevanlinna import classical_N, classical_T, proximity
from nevkit.quadrature import ErrorBudget, QuadSpec
from nevkit.scenario import scenario_from_json


def circle(mass=1.0, radius=1.0, center=(0.0, 0.0)):
    return Measure(dimension=2, spheres=(SphereShell(np.asarray(center), radius, mass),))


def disc_area():
    return Measure(dimension=2,
                   radial=(RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0),))


def atom_measure(*locs_masses, d=2):
    atoms = tuple(Atom(np.asarray(loc, dtype=float), m) for loc, m in locs_masses)
    return Measure(dimension=d, atoms=atoms)


# -------------------------------------------------------- verdict semantics


def _report(lhs, rhs, budget=None):
    return _inequality_report("probe", lhs, rhs, budget or ErrorBudget(), [])


def test_verdict_nan_is_undetermined():
    assert _report(math.nan, 1.0).verdict == UNDETERMINED
    assert _report(1.0, math.nan).verdict == UNDETERMINED


def test_verdict_infinite_right_side_holds_vacuously():
    assert _report(5.0, math.inf).verdict == HOLDS
    assert _report(math.inf, math.inf).verdict == HOLDS


def test_verdict_infinite_left_side_fails():
    assert _report(math.inf, 10.0).verdict == FAILS


def test_verdict_clear_margin_holds():
    assert _report(1.0, 2.0).verdict == HOLDS


def test_verdict_negative_margin_fails():
    assert _report(2.0, 1.0).verdict == FAILS


def test_verdict_margin_inside_error_band_is_undetermined():
    budget = ErrorBudget()
    budget.error = 0.5
    # margin 0.1 is positive but smaller than the accumulated error
    assert _report(1.0, 1.1, budget).verdict == UNDETERMINED


def test_verdict_budget_failure_is_undetermined():
    budget = ErrorBudget()
    budget.failures.append("quadrature diverged")
    assert _report(1.0, 2.0, budget).verdict == UNDETERMINED


# A spec no quadrature can meet: every adaptive integral reports failure.
UNREACHABLE = QuadSpec(abs_tol=1e-300, rel_tol=1e-300)


def test_lemma3_off_center_density_with_failing_quadrature_is_undetermined():
    # The density crosses the circle |x| = 1.2, so the integrated counting
    # there needs quadrature for the rings that cross it.
    mu = Measure(dimension=2,
                 radial=(RadialDensity([0.9, -0.2], (0.3, 0.9), 0.6),))
    assert verify_lemma3(mu, 1.2, 2.0).verdict == HOLDS
    rep = verify_lemma3(mu, 1.2, 2.0, spec=UNREACHABLE)
    assert rep.verdict == UNDETERMINED
    # The integrated counting about the origin inside the difference
    # counting reports its own failures to the check's budget.
    budget = ErrorBudget()
    difference_counting(mu, 1.2, 2.0, UNREACHABLE, budget=budget)
    assert "integrated-counting" in budget.failures


def test_statement_V_batched_fallback_with_failing_quadrature_is_undetermined():
    mu = Measure(dimension=3,
                 radial=(RadialDensity([0.3, -0.2, 0.1], (0.0, 0.0, 3.0), 0.5),))
    assert check_statement_V(mu, 0.4, resolution=3).verdict == HOLDS
    # The batched scan sends every point back to the adaptive path, which
    # fails there; the visited points carry the failure to the verdict.
    rep = check_statement_V(mu, 0.4, resolution=3, spec=UNREACHABLE)
    assert rep.verdict == UNDETERMINED
    # Every visited point fails; the label is listed once, with its count.
    failures = [line for line in rep.diagnostics if "quadrature failure" in line]
    assert len(failures) == 1
    assert re.fullmatch(r"quadrature failure: integrated-counting \(x\d{3,}\)", failures[0])


def test_kinked_positive_part_with_failing_quadrature_is_undetermined():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),
                        Charge(np.array([-0.2, 0.4]), -0.5)),
                    HarmonicPart((("x0", 0.5),)))
    theta = np.linspace(0.0, 2.0 * math.pi, 64)
    values = u.evaluate(2.0 * np.column_stack((np.cos(theta), np.sin(theta))))
    assert values.min() < 0.0 < values.max()  # u+ is kinked on |x| = 2
    budget = ErrorBudget()
    proximity(u, 2.0, budget=budget)
    assert budget.ok
    # The trapezoid check, the arc rules and the adaptive fallback all miss
    # this spec; the failure reaches the budget, and the verdict.
    budget = ErrorBudget()
    proximity(u, 2.0, UNREACHABLE, budget=budget)
    assert budget.failures == ["proximity"]
    mu = circle()
    assert check_statement_II(mu, u, 1.0, 2.0, resolution=5).verdict == HOLDS
    rep = check_statement_II(mu, u, 1.0, 2.0, resolution=5, spec=UNREACHABLE)
    assert rep.verdict == UNDETERMINED
    assert "quadrature failure: difference-T" in rep.diagnostics


def test_sphere_positive_part_without_a_pole_is_undetermined():
    # Positive caps about +-x2 on |x| = 2, larger than the negative band
    # between them: both sign classes have their centroid at the center, and
    # a pole in the band leaves the meridians near the band's great circle
    # without a sign change, on the spec's grid and on the doubled one.  The
    # product rule's failed doubling check then reaches the verdict.
    u = DshFunction(3, (Charge(np.array([0.0, 0.0, 1.5]), -1.0),
                        Charge(np.array([0.0, 0.0, -1.5]), -1.0)),
                    HarmonicPart((("const", -0.85),)))
    budget = ErrorBudget()
    proximity(u, 2.0, budget=budget)
    assert budget.failures == ["proximity"]
    mu = Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.5, 1.0),))
    rep = check_statement_II(mu, u, 1.0, 2.0, resolution=5)
    assert rep.verdict == UNDETERMINED
    assert "quadrature failure: difference-T" in rep.diagnostics


def test_statement_II_holds_on_the_spatial_geometry():
    # The d = 3 benchmark scenario without its rotation: a centred shell, an
    # off-centre density and three charges whose zero set crosses both, with
    # the outer rule capped at 40 subintervals.
    sc = scenario_from_json({
        "name": "spatial",
        "dimension": 3,
        "measure": {
            "dimension": 3,
            "spheres": [{"center": [0.0, 0.0, 0.0], "radius": 0.6, "mass": 1.0}],
            "radial": [{"center": [0.1072, 0.2549, 0.1025],
                        "coeffs": [0.0, 0.0, 1.5 / 0.3312 ** 3], "outer": 0.3312}],
        },
        "functions": [{"label": "u", "dimension": 3, "harmonic": [["const", 0.3]],
                       "charges": [{"point": [0.4985, -0.5996, 0.6489], "weight": 1.0},
                                   {"point": [0.3449, 0.0333, 0.6410], "weight": -0.5577},
                                   {"point": [-0.5161, 0.6410, 0.0425], "weight": 0.6610}]}],
        "radii": {"r": 1.0, "R": 2.0},
        "checks": ["statement_II"],
        "quad": {"max_subdivisions": 40},
        "grid": 5,
    })
    rep = check_statement_II(sc.measure, sc.functions[0].dsh, sc.r, sc.R,
                             resolution=sc.grid, spec=sc.quad)
    assert rep.verdict == HOLDS
    assert not [line for line in rep.diagnostics if "quadrature failure" in line]


# ---------------------------------------------------------- statement checks


def test_statement_I_circle_holds():
    rep = check_statement_I(circle(), 0.5, 2.0, resolution=9)
    assert rep.verdict == HOLDS
    assert math.isfinite(rep.lhs)


def test_statement_I_validates_radii():
    with pytest.raises(ValueError):
        check_statement_I(circle(), 0.5, 0.9)  # R must exceed the support
    with pytest.raises(ValueError):
        check_statement_I(circle(), 0.0, 2.0)


def test_statement_I_atom_fails():
    rep = check_statement_I(atom_measure(([0.3, 0.0], 1.0)), 0.5, 2.0, resolution=9)
    assert rep.verdict == FAILS
    assert rep.lhs == math.inf


def test_statement_II_bounds_structure():
    mu = circle()
    u = kernel_witness(np.array([0.3, 0.2]), 1.0, 2.0, 2)
    b = statement_ii_bounds(mu, u, 1.0, 2.0, resolution=9)
    assert b.constant == pytest.approx(constant_A(1.0, 2.0, 2), rel=1e-14)
    assert b.mu_radial == pytest.approx(1.0)
    assert b.lhs == pytest.approx(positive_part_integral(u, mu), rel=1e-12)
    assert b.rhs == pytest.approx(
        b.constant * b.characteristic * (b.mu_radial + b.sup_counting), rel=1e-12)


def test_statement_II_holds_on_witness_pair():
    rep = check_statement_II(circle(), kernel_witness(np.zeros(2), 1.0, 2.0, 2),
                             1.0, 2.0, resolution=9)
    assert rep.verdict == HOLDS
    assert rep.margin > 0


def test_statement_II_tight_mode_sharper_here():
    mu = circle()
    u = kernel_witness(np.array([0.3, 0.2]), 1.0, 2.0, 2)
    b = statement_ii_bounds(mu, u, 1.0, 2.0, resolution=9)
    assert b.lhs <= b.rhs_tight < b.rhs
    assert b.R_star == pytest.approx(math.sqrt(2.0), rel=1e-14)
    rep = check_statement_II(mu, u, 1.0, 2.0, resolution=9)
    assert sum(line.startswith("tight bound ") for line in rep.diagnostics) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_statement_II_tight_bound_without_lower_charge_is_finite(d):
    # An atom makes the supremum of the counting infinite, and with no
    # negative charge the tail of the tight bound is 0 times that: no tail.
    mu = Measure(dimension=d, atoms=(Atom(np.r_[0.5, np.zeros(d - 1)], 1.0),))
    u = DshFunction(d, (Charge(np.r_[0.2, 0.1, np.zeros(d - 2)], 1.0),),
                    HarmonicPart((("const", 4.0),)))
    b = statement_ii_bounds(mu, u, 1.0, 2.0, resolution=9)
    assert b.sup_counting == math.inf and b.lower_radial == 0.0
    assert 0.0 < b.lhs <= b.rhs_tight < math.inf
    rep = check_statement_II(mu, u, 1.0, 2.0, resolution=9)
    assert not any("nan" in line for line in rep.diagnostics)


def test_zero_characteristic_bounds_are_zero_against_an_atom():
    # u <= 0 on the disc of radius R and no lower-variation mass: both
    # bounds are 0 times an infinite supremum, which is 0, and hold.
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.5, 0.0]), 1.0),))
    u = DshFunction(2, (Charge(np.array([0.2, 0.1]), 1.0),),
                    HarmonicPart((("const", -3.0),)))
    b = statement_ii_bounds(mu, u, 1.0, 2.0, resolution=9)
    assert (b.characteristic, b.sup_counting) == (0.0, math.inf)
    assert (b.lhs, b.rhs, b.rhs_tight) == (0.0, 0.0, 0.0)
    assert check_statement_II(mu, u, 1.0, 2.0, resolution=9).verdict == HOLDS
    f = RationalFunction(zeros=(0.3,), scale=0.1)
    rep = check_corollary(f, mu, 1.0, 2.0, resolution=9)
    assert (rep.lhs, rep.rhs, rep.verdict) == (0.0, 0.0, HOLDS)


def test_statement_II_rejects_unsupported_measure():
    # support must sit inside the closed ball of radius r
    wide = circle(radius=1.5)
    u = kernel_witness(np.zeros(2), 1.0, 2.0, 2)
    with pytest.raises(ValueError):
        statement_ii_bounds(wide, u, 1.0, 2.0)


def test_statement_II_custom_R_star_validated():
    mu = circle()
    u = kernel_witness(np.zeros(2), 1.0, 2.0, 2)
    with pytest.raises(ValueError):
        statement_ii_bounds(mu, u, 1.0, 2.0, R_star=2.5)


def test_statement_III_clean_family_holds():
    mu = circle()
    family = [kernel_witness(np.array([0.2, 0.1]), 1.0, 2.0, 2),
              from_rational(RationalFunction(zeros=(3.0,)))]
    rep = falsify_statement_III(mu, family, 1.0, 2.0, 1.0)
    assert rep.verdict == HOLDS
    assert math.isfinite(rep.lhs)


def test_statement_III_witness_on_atom_fails():
    y = np.array([0.3, 0.0])
    mu = atom_measure((y, 1.0))
    family = [kernel_witness(y, 1.0, 2.0, 2)]
    rep = falsify_statement_III(mu, family, 1.0, 2.0, 1.0)
    assert rep.verdict == FAILS
    assert rep.lhs == math.inf


def test_statement_III_rescales_large_members():
    mu = circle()
    u = kernel_witness(np.zeros(2), 1.0, 2.0, 2).scale(50.0)
    rep = falsify_statement_III(mu, [u], 1.0, 2.0, 1.0)
    # T(u) = 50 ln 3 > 1, so u is rescaled to characteristic 1 before use
    assert rep.verdict == HOLDS
    expected = positive_part_integral(u.scale(1.0 / (50.0 * math.log(3.0))), mu)
    assert rep.lhs == pytest.approx(expected, rel=1e-8)


def test_statement_IV_equilibrium_circle():
    rep = check_statement_IV(circle())
    assert rep.verdict == HOLDS
    assert rep.lhs == 0.0  # potential of the unit circle vanishes on it


def test_statement_IV_atom_fails():
    rep = check_statement_IV(atom_measure(([0.1, 0.2], 1.0)))
    assert rep.verdict == FAILS
    assert rep.lhs == -math.inf


def test_statement_IV_empty_support_holds():
    rep = check_statement_IV(Measure(dimension=2))
    assert rep.verdict == HOLDS


def test_singular_density_center_fails_I_IV_V():
    # d = 3, coeffs[0] > 0: the volume density is 1 / (4 pi t**2), so the
    # energy is finite while the potential at the center is -inf.  The
    # center is a support sample and a ball candidate, and both values there
    # are closed forms.
    mu = Measure(dimension=3, radial=(RadialDensity([0.0, 0.0, 0.0], (1.0,), 0.5),))
    rep_I = check_statement_I(mu, 1.0, 2.0, resolution=5)
    rep_IV = check_statement_IV(mu, resolution=5)
    rep_V = check_statement_V(mu, 1.0, resolution=5)
    assert (rep_I.verdict, rep_IV.verdict, rep_V.verdict) == (FAILS, FAILS, FAILS)
    assert (rep_I.lhs, rep_IV.lhs, rep_V.lhs) == (math.inf, -math.inf, math.inf)


def test_support_samples_add_only_singular_centers():
    flat3 = RadialDensity([0.1, 0.0, 0.0], (0.0, 1.0), 0.5)
    flat2 = RadialDensity([0.1, 0.0], (1.0,), 0.5)
    singular = RadialDensity([0.0, 0.2, 0.0], (0.3, 1.0), 0.5)
    for comp, d in ((flat3, 3), (flat2, 2), (singular, 3)):
        samples = _support_samples(Measure(dimension=d, radial=(comp,)), 5)
        centers = [src for p, src in samples if np.array_equal(p, comp.center)]
        assert centers == ([comp] if comp is singular else [])


def test_statement_V_circle_holds():
    rep = check_statement_V(circle(), 0.5, resolution=9)
    assert rep.verdict == HOLDS
    assert math.isfinite(rep.lhs)


def test_statement_V_atom_fails():
    rep = check_statement_V(atom_measure(([0.0, 0.0], 2.0)), 0.5)
    assert rep.verdict == FAILS


# --------------------------------------------------------------- lemma 3


def test_lemma3_equality_for_unit_atom_at_origin():
    delta = atom_measure(([0.0, 0.0], 1.0))
    rep = verify_lemma3(delta, math.sqrt(2.0), 2.0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == HOLDS


def test_lemma3_random_atoms_obey_bound():
    rng = np.random.default_rng(33)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        atoms = []
        for _ in range(n):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0.05, 1.9)
            atoms.append((direction * radius, rng.uniform(0.1, 2.0)))
        delta = atom_measure(*atoms, d=d)
        rep = verify_lemma3(delta, 1.0, 2.0)
        assert rep.lhs <= rep.rhs + 1e-10


# ---------------------------------------------------------- poisson-jensen


def test_poisson_jensen_harmonic_function_is_exact():
    u = DshFunction(2, (), HarmonicPart((("x0", 0.7), ("x0^2-x1^2", 0.3),
                                         ("const", -0.2))))
    rep = verify_poisson_jensen(u, [0.3, -0.2], 1.0)
    assert rep.verdict == HOLDS
    assert abs(rep.residual) < 1e-12


def test_poisson_jensen_with_charges():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),
                        Charge(np.array([-0.2, 0.4]), -0.5)),
                    HarmonicPart((("x0", 0.5),)))
    for x in ([0.1, -0.2], [-0.35, 0.05], [0.0, 0.45]):
        rep = verify_poisson_jensen(u, x, 1.0)
        assert rep.verdict == HOLDS
        assert abs(rep.residual) < 1e-8


def test_poisson_jensen_dimension_three():
    u = DshFunction(3, (Charge(np.array([0.2, -0.1, 0.3]), 1.0),),
                    HarmonicPart((("x2", 0.4), ("const", 0.1))))
    rep = verify_poisson_jensen(u, [0.1, 0.1, -0.2], 1.0)
    assert rep.verdict == HOLDS
    assert abs(rep.residual) < 1e-7


def test_poisson_jensen_validation():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),))
    with pytest.raises(ValueError):
        verify_poisson_jensen(u, [2.0, 0.0], 1.0)  # x outside the ball
    with pytest.raises(ValueError):
        verify_poisson_jensen(u, [0.3, 0.1], 1.0)  # x on a charge
    on_sphere = DshFunction(2, (Charge(np.array([1.0, 0.0]), 1.0),))
    with pytest.raises(ValueError):
        verify_poisson_jensen(on_sphere, [0.0, 0.0], 1.0)


# ------------------------------------------------------------- corollary


def test_corollary_reference_scenario():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    rep = check_corollary(f, disc_area(), 1.0, 2.0, resolution=13)
    assert rep.verdict == HOLDS
    assert rep.lhs == 0.0  # ln|f| < 0 on the closed unit disc
    assert rep.margin > 0


def test_corollary_rhs_composition():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    mu = circle()
    rep = check_corollary(f, mu, 1.0, 2.0, resolution=9)
    t_gap = classical_T(f, 2.0) - classical_N(f, 1.0)
    # 5 (R+r)/(R-r) with r=1, R=2 is 15; mass is 1
    from nevkit.measures import sup_integrated_counting
    sup = sup_integrated_counting(mu, 2.0, 1.0, 9).value
    assert rep.rhs == pytest.approx(15.0 * t_gap * (1.0 + sup), rel=1e-9)


def test_corollary_rejects_dimension_three():
    f = RationalFunction(zeros=(0.5,))
    mu = Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 1.0, 1.0),))
    with pytest.raises(ValueError):
        check_corollary(f, mu, 1.0, 2.0)

import math
import re

import numpy as np
import pytest

import nevkit.criterion as criterion
import nevkit.dsh as dsh
import nevkit.nevanlinna as nevanlinna
import nevkit.quadrature as quadrature
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
from nevkit.kernels import constant_A, kappa, sphere_area
from nevkit.measures import (
    Atom,
    Measure,
    RadialDensity,
    SphereShell,
    _ball_lattice,
    _support_samples,
    difference_counting,
    integrated_counting,
    potential,
    radial_counting,
    sup_integrated_counting,
)
from nevkit.nevanlinna import classical_N, classical_T, proximity
from nevkit.quadrature import ErrorBudget, QuadSpec, positive_part_mean, sphere_mean
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


def test_statement_V_with_rejected_counting_rows_is_undetermined():
    mu = Measure(dimension=3,
                 radial=(RadialDensity([0.3, -0.2, 0.1], (0.0, 0.0, 3.0), 0.5),))
    assert check_statement_V(mu, 0.4, resolution=3).verdict == HOLDS
    # The spec only decides which rows the panel rule accepts.  A rejected
    # row keeps its value and its error is +inf; a row in closed form (the
    # density's center, or a ball that misses it) has no estimate and no
    # spec rejects it.
    pts = np.vstack([_ball_lattice(1.5, 3, 7), mu.radial[0].center])
    errors, strict = np.empty(len(pts)), np.empty(len(pts))
    values = integrated_counting(mu, pts, 0.4, errors=errors)
    assert 0 < np.count_nonzero(errors) < len(pts)
    assert np.array_equal(integrated_counting(mu, pts, 0.4, UNREACHABLE, errors=strict),
                          values)
    assert np.array_equal(strict == math.inf, errors > 0.0)
    assert np.all(strict[errors == 0.0] == 0.0)
    # The visited rows carry their failures to the verdict.
    rep = check_statement_V(mu, 0.4, resolution=3, spec=UNREACHABLE)
    assert rep.verdict == UNDETERMINED
    # The label is listed once, with its count.
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
    # The tanh-sinh rule split at the roots misses this spec; the failure
    # reaches the budget, and the verdict.
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


def test_meridian_rule_at_its_caps_is_undetermined(monkeypatch):
    # The d = 3 benchmark charges about a centred shell: the shell's
    # positive-part mean takes the meridian rule, which meets this spec only
    # past its first rung.  With the rule's caps at their starting values it
    # stops there, flagged, and statement II cannot decide.
    u = DshFunction(3, (Charge(np.array([0.4985, -0.5996, 0.6489]), 1.0),
                        Charge(np.array([0.3449, 0.0333, 0.6410]), -0.5577),
                        Charge(np.array([-0.5161, 0.6410, 0.0425]), 0.6610)),
                    HarmonicPart((("const", 0.3),)))
    spec = QuadSpec(abs_tol=1e-15, rel_tol=1e-13)

    def outcome():
        budget = ErrorBudget()
        quadrature.positive_part_mean(u.evaluate, 0.6, 3, spec, budget=budget)
        mu = Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.6, 1.0),))
        rep = check_statement_II(mu, u, 1.0, 2.0, resolution=5, spec=spec)
        return budget.failures, rep

    failures, rep = outcome()
    assert (failures, rep.verdict) == ([], HOLDS)
    monkeypatch.setattr(quadrature, "_MAX_MERIDIANS", quadrature._MERIDIANS)
    monkeypatch.setattr(quadrature, "_MAX_SEGMENT_NODES", 2 * quadrature._SEGMENT_NODES)
    failures, rep = outcome()
    assert failures == ["positive-part"]
    assert rep.verdict == UNDETERMINED
    assert "quadrature failure: positive-part" in rep.diagnostics


@pytest.mark.parametrize("force", ["nan", "cap"])
def test_failed_ring_integral_is_undetermined(monkeypatch, force):
    # A planar density whose rings first touch {u > 0} at s = 0.125 and lie
    # in it beyond s = 0.308.  Its ring integral fails when a ring mean is
    # nan, or when the contact radii are withheld and the rule over a radius
    # may hold only 8 pieces, too few to halve its way onto both kinks.
    u = DshFunction(2, (Charge(np.array([0.25, -0.08]), 0.4),
                        Charge(np.array([-0.5, 0.8]), -0.6)),
                    HarmonicPart((("const", 0.73),)))
    mu = Measure(dimension=2, radial=(RadialDensity([0.2, -0.1], (0.5, 1.0), 0.45),))
    spec = QuadSpec(max_subdivisions=8)
    assert check_statement_II(mu, u, 1.0, 2.0, resolution=5, spec=spec).verdict == HOLDS
    if force == "nan":
        monkeypatch.setattr(dsh, "positive_part_mean", lambda *args, **kwargs: math.nan)
    else:
        monkeypatch.setattr(dsh, "_contact_radii", lambda *args: [])
    rep = check_statement_II(mu, u, 1.0, 2.0, resolution=5, spec=spec)
    assert rep.verdict == UNDETERMINED
    assert "quadrature failure: positive-part" in rep.diagnostics


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


_PLANAR_U = DshFunction(2, (Charge([0.3, 0.1], 1.0),), HarmonicPart(()))


@pytest.mark.parametrize("call, radius", [
    pytest.param(lambda: check_statement_I(circle(), math.inf, 2.0), "r0", id="statement_I-r0"),
    pytest.param(lambda: check_statement_I(circle(), 0.5, math.inf), "R", id="statement_I-R"),
    pytest.param(lambda: check_statement_V(circle(), math.inf), "r0", id="statement_V"),
    pytest.param(lambda: integrated_counting(circle(), [0.1, 0.0], math.nan), "r",
                 id="integrated_counting"),
    pytest.param(lambda: sup_integrated_counting(circle(), 1.0, math.nan, 5), "r",
                 id="sup_integrated_counting"),
    pytest.param(lambda: radial_counting(circle(), [0.1, 0.0], math.nan), "t",
                 id="radial_counting"),
    # difference_counting once returned inf, 2.0 and 0.6 for the first
    # three, and named integrated_counting's r for the shell.
    pytest.param(lambda: difference_counting(atom_measure(([0.3, 0.0], 1.0)), 0.5, math.inf),
                 "R", id="difference_counting-atom"),
    pytest.param(lambda: difference_counting(atom_measure(([0.3, 0.0, 0.0], 1.0), d=3),
                                             0.5, math.inf),
                 "R", id="difference_counting-atom-3d"),
    pytest.param(lambda: difference_counting(
        Measure(3, radial=(RadialDensity([0.0, 0.0, 0.0], (0.0, 2.0), 1.0),)), 0.5, math.inf),
                 "R", id="difference_counting-density-3d"),
    pytest.param(lambda: difference_counting(circle(), 0.5, math.inf), "R",
                 id="difference_counting-shell"),
    pytest.param(lambda: falsify_statement_III(circle(), (), 1.0, math.inf, 1.0), "R",
                 id="statement_III"),
    pytest.param(lambda: verify_lemma3(circle(), 1.5, math.inf), "R", id="lemma3"),
    pytest.param(lambda: verify_poisson_jensen(_PLANAR_U, [0.1, 0.0], math.nan), "R",
                 id="poisson_jensen-nan"),
    pytest.param(lambda: verify_poisson_jensen(_PLANAR_U, [0.1, 0.0], math.inf), "R",
                 id="poisson_jensen-inf"),
    pytest.param(lambda: sphere_mean(lambda pts: pts[:, 0], math.inf, 2), "r",
                 id="sphere_mean"),
    pytest.param(lambda: positive_part_mean(lambda pts: pts[:, 0], math.inf, 2), "r",
                 id="positive_part_mean"),
])
def test_entry_points_reject_radii_that_are_not_finite(call, radius):
    # Each used to return a value or a verdict, or warn: a nan radius fails
    # every comparison and an infinite one passes the positivity tests.
    with pytest.raises(ValueError, match=rf"\b{radius}\b"):
        call()


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
    for r, R in ((2.0, 1.0), (0.0, 2.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match=r"statement III: need 0 < r < R"):
            falsify_statement_III(mu, family, r, R, 1.0)


@pytest.mark.parametrize("mu, verdict", [
    pytest.param(circle(), HOLDS, id="circle"),
    pytest.param(atom_measure((np.array([0.1, 0.7]), 1.0)), FAILS, id="planar-atom"),
    pytest.param(Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.6, 1.0),),
                         radial=(RadialDensity([0.0, 0.2, 0.0], (0.0, 0.0, 1.5 / 0.3 ** 3),
                                               0.3),)),
                 HOLDS, id="shell-and-density-3d"),
])
def test_statement_III_witnesses_are_the_counting_scan(monkeypatch, mu, verdict):
    # The witnesses alone run no quadrature: their supremum is statement I's
    # scan at r0 = R + r over the ball of radius r, scaled to the cap.
    calls = {"positive_part_integral": 0, "difference_T": 0}
    for fname in calls:
        def counted(*args, _f=getattr(criterion, fname), _name=fname, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(criterion, fname, counted)
    r, R, t_cap = 1.0, 2.0, 0.5
    rep = falsify_statement_III(mu, [], r, R, t_cap, resolution=9)
    assert calls == {"positive_part_integral": 0, "difference_T": 0}
    assert rep.verdict == verdict
    assert not any("quadrature failure" in line for line in rep.diagnostics)
    scan = check_statement_I(mu, R + r, r, resolution=9)
    t_w = kappa(R + r, mu.dimension) - kappa(r, mu.dimension)
    assert rep.verdict == scan.verdict
    assert rep.lhs == min(1.0, t_cap / t_w) * scan.lhs
    constant = DshFunction(mu.dimension, (), HarmonicPart((("const", 1.0),)))
    falsify_statement_III(mu, [constant], r, R, t_cap, resolution=9)
    assert calls == {"positive_part_integral": 0 if verdict == FAILS else 1,
                     "difference_T": 0 if verdict == FAILS else 1}


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


@pytest.mark.parametrize("d", [2, 3])
def test_statement_IV_reports_the_first_of_equal_minima(d):
    # On a centred shell of radius 0.5 the potential is the same float at
    # every support sample, so the argmin is the first sample, as a
    # point-by-point strict-< scan finds it.
    mu = Measure(dimension=d, spheres=(SphereShell(np.zeros(d), 0.5, 1.0),))
    points, _ = _support_samples(mu, 5)
    values = potential(mu, points)
    assert np.all(values == values[0])
    rep = check_statement_IV(mu, resolution=5)
    assert rep.lhs == values[0]
    first = "argmin (" + ", ".join(f"{v:.9g}" for v in points[0]) + ")"
    assert rep.diagnostics[1] == first


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
        points, components = _support_samples(Measure(dimension=d, radial=(comp,)), 5)
        centers = [src for p, src in zip(points, components)
                   if np.array_equal(p, comp.center)]
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


@pytest.mark.parametrize("d", [2, 3])
def test_poisson_jensen_budget_is_the_surface_times_the_mean_error(monkeypatch, d):
    # The boundary term is the sphere mean times the surface, so the share
    # of the tolerance the quadrature adds is the surface times the mean's
    # error estimate.
    errors = []

    def spied(*args, budget, **kwargs):
        value = sphere_mean(*args, budget=budget, **kwargs)
        errors.append(budget.error)
        return value

    monkeypatch.setattr(criterion, "sphere_mean", spied)
    u = DshFunction(d, (Charge(np.full(d, 0.3), 1.0),), HarmonicPart((("const", 0.2),)))
    R = 2.0
    rep = verify_poisson_jensen(u, np.full(d, -0.2), R)
    assert rep.verdict == HOLDS
    assert errors[0] > 0.0
    surface = sphere_area(d) * R ** (d - 1)
    assert rep.tolerance == criterion.IDENTITY_TOLERANCE + surface * errors[0]


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


def test_corollary_computes_the_mean_of_ln_f_once(monkeypatch):
    # classical_T and difference_T each compute the circle mean of ln+|f| at
    # R; the corollary's gap and its cross-check share one.
    radii = []
    real = nevanlinna.proximity

    def counted(u, R, *args, **kwargs):
        radii.append(R)
        return real(u, R, *args, **kwargs)

    monkeypatch.setattr(nevanlinna, "proximity", counted)
    monkeypatch.setattr(criterion, "proximity", counted, raising=False)
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    rep = check_corollary(f, circle(), 1.0, 2.0, resolution=9)
    assert radii == [2.0]
    assert rep.verdict == HOLDS


def test_corollary_rejects_dimension_three():
    f = RationalFunction(zeros=(0.5,))
    mu = Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 1.0, 1.0),))
    with pytest.raises(ValueError):
        check_corollary(f, mu, 1.0, 2.0)

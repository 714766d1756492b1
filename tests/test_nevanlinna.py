import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import special_ortho_group

from nevkit import dsh, measures, quadrature
from nevkit.dsh import (
    Charge,
    DshFunction,
    HarmonicPart,
    RationalFunction,
    from_rational,
    kernel_witness,
)
from nevkit.kernels import kappa
from nevkit.quadrature import ErrorBudget
from nevkit.nevanlinna import (
    classical_N,
    classical_T,
    difference_T,
    proximity,
)
from nevkit.measures import difference_counting


def test_classical_N_counts_poles_with_multiplicity():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    assert classical_N(f, 1.0) == 0.0
    assert classical_N(f, 3.0) == pytest.approx(2.0 * math.log(1.5), rel=1e-14)


def test_classical_N_pole_at_origin():
    f = RationalFunction(poles=(0.0,))
    assert classical_N(f, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert classical_N(f, 0.5) == pytest.approx(math.log(0.5), rel=1e-14)


def test_classical_T_of_linear_map():
    # T(R, z) = ln+ R for the identity map: no poles, proximity ln+ R.
    f = RationalFunction(zeros=(0.0,))
    assert classical_T(f, 2.0) == pytest.approx(math.log(2.0), rel=1e-11)
    assert classical_T(f, 0.5) == pytest.approx(0.0, abs=1e-11)


def test_classical_T_first_main_theorem_flavor():
    # T(R, 1/z) = T(R, z) up to the usual bounded term; for the pure
    # monomial the two characteristics agree exactly.
    f = RationalFunction(poles=(0.0,))
    g = RationalFunction(zeros=(0.0,))
    for R in (1.5, 2.0, 5.0):
        assert classical_T(f, R) == pytest.approx(classical_T(g, R), rel=1e-11)


def test_constant_function_characteristic_is_one():
    one = DshFunction(2, (), HarmonicPart((("const", 1.0),)))
    assert proximity(one, 2.0) == pytest.approx(1.0, rel=1e-13)
    assert difference_counting(one.riesz_lower_variation(), 1.0, 2.0) == 0.0
    assert difference_T(one, 1.0, 2.0) == pytest.approx(1.0, rel=1e-13)


def test_kernel_witness_characteristic_closed_form():
    # T for the witness about y splits as kappa(R+r) - kappa(R) from the
    # boundary mean plus kappa(R) - kappa(r) from the charge counting.
    r, R = 1.0, 2.0
    for d, y in ((2, np.array([0.3, 0.2])), (3, np.array([0.3, 0.2, -0.1]))):
        u = kernel_witness(y, r, R, d)
        counting = difference_counting(u.riesz_lower_variation(), r, R)
        assert proximity(u, R) == pytest.approx(kappa(R + r, d) - kappa(R, d), rel=1e-10)
        assert counting == pytest.approx(kappa(R, d) - kappa(r, d), rel=1e-13)
        assert difference_T(u, r, R) == pytest.approx(kappa(R + r, d) - kappa(r, d),
                                                      rel=1e-10)


def test_kernel_witness_characteristic_independent_of_y():
    r, R = 0.7, 1.9
    totals = [difference_T(kernel_witness(y, r, R, 2), r, R)
              for y in (np.zeros(2), np.array([0.5, -0.3]), np.array([0.0, 0.7]))]
    assert max(totals) - min(totals) < 1e-10
    assert totals[0] == pytest.approx(kappa(R + r, 2) - kappa(r, 2), rel=1e-12)


def test_difference_T_identity_for_monomial():
    # T(R, z) - N(r, z) for f = z equals the difference characteristic of
    # ln|z| on (r, R): both sides are ln R - 0 here.
    f = RationalFunction(zeros=(0.0,))
    lhs = classical_T(f, 2.0) - classical_N(f, 1.0)
    rhs = difference_T(from_rational(f), 1.0, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_difference_T_identity_for_scenario_function():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    lhs = classical_T(f, 2.0) - classical_N(f, 1.0)
    rhs = difference_T(from_rational(f), 1.0, 2.0)
    assert abs(lhs - rhs) < 1e-9


def test_proximity_drops_negative_part():
    # ln|z| on the circle of radius 1/2 is negative, so the positive-part
    # mean vanishes.
    u = from_rational(RationalFunction(zeros=(0.0,)))
    assert proximity(u, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert proximity(u, 4.0) == pytest.approx(math.log(4.0), rel=1e-12)


def test_proximity_in_four_dimensions_raises_the_dimension_error():
    # The sphere bound would settle this sphere (u = -1 everywhere); the
    # dimension is checked first.
    u = DshFunction(4, harmonic=HarmonicPart((("const", -1.0),)))
    with pytest.raises(ValueError, match=r"d in \{2, 3\}"):
        proximity(u, 1.0)


def test_proximity_handles_root_on_circle():
    # A zero sitting exactly on the integration circle produces an
    # integrable logarithmic singularity.  On |z| = 2 the function
    # ln|z - 2| equals ln(4 sin(theta/2)), so the mean of its positive
    # part has the one-dimensional form below; evaluate that with QUADPACK
    # as an independent cross-check.
    u = from_rational(RationalFunction(zeros=(2.0,)))
    oracle = (2.0 / math.pi) * quad(
        lambda t: max(math.log(4.0 * math.sin(t)), 0.0), 0.0, math.pi / 2.0,
        points=(math.asin(0.25),), epsabs=1e-10, epsrel=1e-9)[0]
    assert proximity(u, 2.0) == pytest.approx(oracle, rel=1e-7)


def test_proximity_through_a_double_pole_on_the_circle(monkeypatch):
    # The bundled corollary's f = (z - 0.5) / (z - 2)**2 at R = 2: ln+|f| is
    # log-singular at angle 0, where the wrap-around arc of the break-angle
    # rule must end at the pole's own direction, not at the float 2 pi, which
    # is 2.4e-16 short of it.  Nodes placed at float angles near 2 pi leave a
    # bias of about 3e-15, inside the error bound's rounding floor, so the
    # value must also match mpmath to a few ulps.  No circle mean falls back
    # to the rule over a radius.
    def g(t):
        z = 2 * mpmath.expj(t)
        return mpmath.log(abs(z - 0.5)) - 2 * mpmath.log(abs(z - 2))

    with mpmath.workdps(30):
        root = mpmath.findroot(g, 1.0)  # ln|f| > 0 on (-root, root)
        exact = float(mpmath.quad(g, [0, root]) / mpmath.pi)

    def refuse(*args, **kwargs):
        raise AssertionError("radius_integral called")

    for module in (quadrature, dsh, measures):
        monkeypatch.setattr(module, "radius_integral", refuse)
    u = from_rational(RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0))
    budget = ErrorBudget()
    value = proximity(u, 2.0, budget=budget)
    assert budget.ok
    assert abs(value - exact) <= budget.error, (value, exact, budget.error)
    assert abs(value - exact) <= 8 * math.ulp(exact), (value, exact)


@pytest.mark.parametrize("c", [special_ortho_group.rvs(2, random_state=0) @ np.array([0.0, 1.0]),
                               np.array([0.0, 1.0])])
def test_proximity_of_a_charge_on_the_circle(c):
    # u = 1 + 0.125 ln|x - c| is negative only on an arc of half-width about
    # 3.4e-4 about c, between the nodes of the sign grid.  The charge's angle
    # is a sample of that grid, so both roots are bracketed.
    u = DshFunction(2, (Charge(c, 0.125),), HarmonicPart((("const", 1.0),)))
    budget = ErrorBudget()
    value = proximity(u, 1.0, budget=budget)
    assert budget.ok
    assert abs(value - 1.0000133476338842) <= budget.error, (value, budget.error)
    assert budget.error < 1e-11


def test_proximity_of_a_kink_pair_the_doubling_check_misses():
    # Charges on the x-axis make u symmetric, and its two kinks on the
    # circle sit where the trapezoid errors of the 512- and 1024-node grids
    # agree to 3e-10 while both are 1.8e-7 off.
    R, c = 0.558641345991925, -1.8082537170759352
    charges = ((2.34197749, 1.6494258311650603), (1e-06, -1.248787813127947))
    u = DshFunction(2, tuple(Charge(np.array([x, 0.0]), w) for x, w in charges),
                    HarmonicPart((("const", c),)))

    def g(t):
        z = R * mpmath.expj(t)
        return c + sum(w * mpmath.log(abs(z - x)) for x, w in charges)

    root = mpmath.findroot(g, (0.5, 0.8), solver="anderson")  # u > 0 on (root, 2 pi - root)
    exact = mpmath.quad(g, [root, mpmath.pi]) / mpmath.pi
    budget = ErrorBudget()
    assert proximity(u, R, budget=budget) == pytest.approx(float(exact), abs=1e-12)
    assert budget.ok and budget.error < 1e-12


_weight = st.floats(min_value=-2.0, max_value=2.0)


# No deadline: the first call builds the node caches, about 0.5 s when the
# test runs alone.
@settings(deadline=None)
@given(st.data())
def test_proximity_is_rotation_invariant(data):
    d = data.draw(st.sampled_from([2, 3]))
    R = data.draw(st.floats(min_value=0.5, max_value=2.0))
    point = st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=d,
                     max_size=d).map(np.array)
    charges = data.draw(st.lists(st.builds(Charge, point, _weight), max_size=4))
    harmonic = HarmonicPart((("const", data.draw(_weight)),))
    q = special_ortho_group.rvs(d, random_state=data.draw(st.integers(0, 2 ** 32 - 1)))
    u = DshFunction(d, tuple(charges), harmonic)
    turned = DshFunction(d, tuple(Charge(q @ c.location, c.weight) for c in charges),
                         harmonic)
    b, b_turned = ErrorBudget(), ErrorBudget()
    m = proximity(u, R, budget=b)
    m_turned = proximity(turned, R, budget=b_turned)
    assume(b.ok and b_turned.ok)  # a flagged mean claims nothing, as on a charge
    rounding = 1e-13 * (1.0 + abs(m))  # the turned charges sit a few ulps off
    assert abs(m_turned - m) <= b.error + b_turned.error + rounding, \
        (m, m_turned, b.error, b_turned.error)


def test_difference_counting_part_monotone_in_R():
    u = from_rational(RationalFunction(zeros=(0.5,), poles=(1.2, -0.8), scale=2.0))
    lower = u.riesz_lower_variation()
    values = [difference_counting(lower, 0.5, R) for R in (0.9, 1.5, 2.5, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_difference_characteristic_validates_radii():
    u = from_rational(RationalFunction(zeros=(0.5,)))
    with pytest.raises(ValueError):
        difference_T(u, 2.0, 1.0)
    with pytest.raises(ValueError):
        difference_T(u, -1.0, 1.0)

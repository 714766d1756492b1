import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nevkit import quadrature
from nevkit.dsh import Charge, DshFunction, kernel_witness
from nevkit.kernels import (
    _as_points,
    as_point,
    check_positive,
    constant_A,
    green_ball,
    hat_d,
    kappa,
    poisson_kernel,
    row_norms,
    sphere_area,
    validate_dimension,
)
from nevkit.measures import Atom, Measure, potential


def test_kappa_planar_values():
    assert kappa(1.0, 2) == 0.0
    assert kappa(math.e, 2) == pytest.approx(1.0, rel=1e-15)
    assert kappa(0.0, 2) == -math.inf


def test_kappa_higher_dimensional_values():
    assert kappa(1.0, 3) == -1.0
    assert kappa(2.0, 3) == -0.5
    assert kappa(2.0, 4) == -0.25
    assert kappa(0.0, 4) == -math.inf


def test_kappa_vectorized_matches_scalar():
    t = np.array([0.0, 0.5, 1.0, 2.5])
    for d in (2, 3, 4):
        vals = kappa(t, d)
        for ti, vi in zip(t, vals):
            assert vi == kappa(float(ti), d)


@given(st.floats(min_value=1e-150, max_value=1e150),
       st.sampled_from([2, 3, 4]))
def test_kappa_float_fast_path_matches_array_path(t, d):
    fast = kappa(t, d)
    assert type(fast) is float
    assert fast == kappa(np.array([t]), d)[0] == kappa(np.asarray(t), d)


@given(st.lists(st.floats(min_value=5e-324, max_value=1.8e308), min_size=1, max_size=8))
def test_kappa_newtonian_divides_bit_for_bit_like_numpy_power(ts):
    # In d = 3 both paths compute -(1.0 / t), overflow to -inf included.
    # numpy 2's power loop returns the correctly rounded reciprocal too, so
    # the bits are those np.power gave; libm's pow, behind numpy 1, can miss
    # the rounding by an ulp.
    t = np.array(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kappa(t, 3)
        power = -np.power(t, -1.0)
        assert [kappa(float(v), 3) for v in ts] == list(got)
        if int(np.__version__.split(".")[0]) >= 2:
            assert np.array_equal(got, power)
        else:
            assert np.all((got == power) | (np.abs(got - power) <= np.spacing(-power)))


_COORDINATES = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(min_value=-1e-300, max_value=1e-300))


@given(st.sampled_from([2, 3]).flatmap(lambda d: st.lists(
    st.lists(_COORDINATES, min_size=d, max_size=d), min_size=1, max_size=16)))
def test_row_norms_match_numpy_norm_bit_for_bit(rows):
    v = np.array(rows)
    with np.errstate(over="ignore"):
        assert np.array_equal(row_norms(v), np.linalg.norm(v, axis=1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kappa_float_edge_cases(d):
    assert kappa(0.0, d) == -math.inf
    assert kappa(np.float64(0.0), d) == -math.inf
    with pytest.raises(ValueError):
        kappa(-1e-300, d)
    with pytest.raises(ValueError):
        kappa(np.array([1.0, -2.0]), d)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6),
       st.integers(min_value=2, max_value=6))
def test_kappa_monotone_increasing(s, t, d):
    lo, hi = min(s, t), max(s, t)
    assert kappa(lo, d) <= kappa(hi, d)


def test_hat_d_values():
    assert hat_d(2) == 1
    assert hat_d(3) == 1
    assert hat_d(4) == 2
    assert hat_d(5) == 3


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    # d=4 surface of the unit 3-sphere is 2*pi^2 (not pi^2).
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


def test_constant_A_reference_values():
    # Hand evaluation of 5 * hat_d * ((R+r)/(R-r))^(d-1) * max(1, (R-r)^(d-2)).
    assert constant_A(1.0, 3.0, 2) == pytest.approx(10.0, rel=1e-14)
    assert constant_A(1.0, 2.0, 3) == pytest.approx(45.0, rel=1e-14)
    assert constant_A(1.0, 3.0, 4) == pytest.approx(320.0, rel=1e-14)


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.011, max_value=50.0),
       st.integers(min_value=2, max_value=6))
def test_constant_A_at_least_five(r, R, d):
    if R <= r:
        r, R = R, r + R
    assert constant_A(r, R, d) >= 5.0


def test_constant_A_rejects_bad_radii():
    with pytest.raises(ValueError):
        constant_A(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        constant_A(0.0, 1.0, 2)


def test_validate_dimension():
    assert validate_dimension(2) == 2
    with pytest.raises(ValueError):
        validate_dimension(1)
    with pytest.raises(ValueError):
        validate_dimension(2.5)


def test_as_point_shape_check():
    p = as_point([1.0, 2.0], 2)
    assert p.shape == (2,)
    with pytest.raises(ValueError):
        as_point([1.0, 2.0, 3.0], 2)


def test_as_points_passes_an_array_through():
    # DshFunction._charge_distances reads the columns of a column-major
    # array without a copy.
    pts = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    same, single = _as_points(pts, 2)
    assert same is pts and not single
    one, single = _as_points([1.0, 2.0], 2)
    assert single and np.array_equal(one, [[1.0, 2.0]])


@pytest.mark.parametrize("call", [
    lambda y: poisson_kernel([0.0, 0.0], y, 1.0, 2),
    lambda y: potential(Measure(2, (Atom([0.5, 0.0], 1.0),)), y),
    lambda y: DshFunction(2, (Charge([0.5, 0.0], 1.0),)).evaluate(y),
], ids=["poisson_kernel", "potential", "evaluate"])
@pytest.mark.parametrize("y", [1.0, [1.0, 0.0, 0.0], np.zeros((3, 3)), np.zeros((2, 2, 2))],
                         ids=["scalar", "long-point", "wide-rows", "three-axes"])
def test_every_point_array_caller_rejects_a_bad_shape(call, y):
    with pytest.raises(ValueError):
        call(y)


def test_poisson_kernel_center_value():
    # At the center the kernel is constant 1 / (surface of the R-sphere).
    for d in (2, 3):
        R = 2.0
        y = np.zeros(d)
        y[0] = R
        expected = 1.0 / (sphere_area(d) * R ** (d - 1))
        assert poisson_kernel(np.zeros(d), y, R, d) == pytest.approx(expected, rel=1e-14)


def test_poisson_kernel_integrates_to_one():
    # Mean-value normalization: the boundary integral of the kernel is 1.
    R = 2.0
    x = np.array([0.7, -0.4])
    pts = R * quadrature._grid(2, 4096, 0.0)[0]
    vals = poisson_kernel(x, pts, R, 2)
    assert vals.shape == (4096,)
    assert vals[:8] == pytest.approx([poisson_kernel(x, y, R, 2) for y in pts[:8]],
                                     rel=1e-15)
    integral = vals.mean() * sphere_area(2) * R
    assert integral == pytest.approx(1.0, abs=1e-12)


def test_poisson_kernel_requires_boundary_pole():
    with pytest.raises(ValueError):
        poisson_kernel([0.0, 0.0], [1.0, 0.0], 2.0, 2)
    # Every row of a point array is checked.
    with pytest.raises(ValueError):
        poisson_kernel([0.0, 0.0], [[2.0, 0.0], [0.0, 2.0], [1.0, 0.0]], 2.0, 2)
    with pytest.raises(ValueError):
        poisson_kernel([0.0, 0.0], np.zeros((2, 3)), 2.0, 2)


def test_green_ball_center_closed_forms():
    # d=2: G(0, y) = ln(R/|y|); d=3: G(0, y) = 1/|y| - 1/R.
    assert green_ball([0.0, 0.0], [0.5, 0.0], 2.0, 2) == pytest.approx(math.log(4.0), rel=1e-13)
    assert green_ball([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], 2.0, 3) == pytest.approx(1.5, rel=1e-13)


def test_green_ball_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        R = 2.0
        for _ in range(200):
            x = rng.uniform(-0.6 * R, 0.6 * R, size=d)
            y = rng.uniform(-0.6 * R, 0.6 * R, size=d)
            if np.linalg.norm(x - y) < 1e-9:
                continue
            g = green_ball(x, y, R, d)
            assert g > 0.0
            assert g == pytest.approx(green_ball(y, x, R, d), rel=1e-11)


def test_green_ball_vanishes_on_boundary():
    R = 2.0
    for d in (2, 3):
        y = np.zeros(d)
        y[0] = 0.3
        x = np.zeros(d)
        x[1] = R * (1.0 - 1e-13)
        assert abs(green_ball(x, y, R, d)) < 1e-11


def test_green_ball_rejects_exterior_points():
    with pytest.raises(ValueError):
        green_ball([3.0, 0.0], [0.0, 0.0], 2.0, 2)


@pytest.mark.parametrize("call", [
    lambda R: poisson_kernel([0.0, 0.0], [1.0, 0.0], R, 2),
    lambda R: green_ball([0.0, 0.0], [0.5, 0.0], R, 2),
    lambda R: constant_A(1.0, R, 2),
    lambda R: kernel_witness([0.0, 0.0], 1.0, R, 2),
], ids=["poisson_kernel", "green_ball", "constant_A", "kernel_witness"])
@pytest.mark.parametrize("R", [math.nan, math.inf], ids=["nan", "inf"])
def test_kernels_reject_radii_that_are_not_finite(call, R):
    # Each used to return nan, 0.0 or inf, or raise about a harmonic
    # coefficient: a nan radius fails every comparison and an infinite one
    # passes the positivity tests.
    with pytest.raises(ValueError, match=r"\bR\b"):
        call(R)


@pytest.mark.parametrize("closed, named, ok", [
    (False, {"r": 1.0, "R": 2.0}, True),
    (False, {"r": 0.0, "R": 2.0}, False),
    (True, {"r": 0.0, "R": 2.0}, True),
    (True, {"r": -0.0}, True),
    (True, {"r": -1e-300}, False),
    (False, {"r": 2.0, "R": 2.0}, False),
    (False, {"r": 2.0, "R": 1.0}, False),
    (False, {"r": 1.0, "R": math.inf}, False),
    (True, {"r": 1.0, "R": math.nan}, False),
    (False, {"r": math.nan, "R": 2.0}, False),
    (False, {"a": 1.0, "b": 3.0, "c": 2.0}, False),
])
def test_check_positive_takes_an_increasing_chain_below_inf(closed, named, ok):
    if ok:
        check_positive("here", closed=closed, **named)
        return
    first = "0 <=" if closed else "0 <"
    message = f"here: need {first} {' < '.join(named)} < inf"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_positive("here", closed=closed, **named)

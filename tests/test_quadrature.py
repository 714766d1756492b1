import math

import numpy as np
import pytest

from nevkit import quadrature
from nevkit.quadrature import (
    ErrorBudget,
    QuadratureError,
    QuadSpec,
    circle_mean,
    circle_points,
    integrate_1d,
    positive_part_mean,
    sphere_mean,
    stieltjes_against_jumps,
)


def test_circle_points_lie_on_circle():
    center = np.array([0.3, -0.1])
    pts = circle_points(center, 2.0, 64)
    assert pts.shape == (64, 2)
    radii = np.linalg.norm(pts - center, axis=1)
    assert np.allclose(radii, 2.0, atol=1e-13)


def test_trapezoid_mean_value_of_harmonic_polynomial():
    # A harmonic function's circle mean equals its center value; the
    # trapezoid rule circle_mean starts with is exact on a trigonometric
    # polynomial, so its doubling check passes at once.
    center = np.array([0.3, -0.1])

    def f(pts):
        x = pts[:, 0] - center[0]
        y = pts[:, 1] - center[1]
        return 2.0 + x ** 3 - 3.0 * x * y ** 2

    res = circle_mean(f, center, 1.7, QuadSpec(circle_nodes=64))
    assert res.value == pytest.approx(2.0, abs=1e-13)
    assert res.converged


def test_circle_mean_smooth_nonharmonic():
    # mean of |z|^2 over the circle of radius R about 0 is R^2.
    def f(pts):
        return np.sum(pts * pts, axis=1)

    res = circle_mean(f, np.zeros(2), 1.5)
    assert res.value == pytest.approx(2.25, rel=1e-12)
    assert res.converged


def test_circle_mean_log_singularity_on_circle():
    # mean over |z| = 1 of ln|z - a| is ln max(|a|, 1); with |a| = 1 the
    # integrand has an integrable singularity and the mean is still 0.
    def make(a):
        def f(pts):
            return 0.5 * np.log((pts[:, 0] - a[0]) ** 2 + (pts[:, 1] - a[1]) ** 2)
        return f

    inside = circle_mean(make(np.array([0.4, 0.1])), np.zeros(2), 1.0)
    assert inside.value == pytest.approx(0.0, abs=1e-10)

    outside = circle_mean(make(np.array([1.3, -0.4])), np.zeros(2), 1.0)
    expected = math.log(math.hypot(1.3, -0.4))
    assert outside.value == pytest.approx(expected, rel=1e-10)

    on = circle_mean(make(np.array([1.0, 0.0])), np.zeros(2), 1.0,
                     singular_angles=[0.0])
    assert on.value == pytest.approx(0.0, abs=1e-8)


def test_integrate_1d_log_endpoint():
    res = integrate_1d(math.log, 0.0, 1.0)
    assert res.value == pytest.approx(-1.0, rel=1e-10)
    assert res.converged


def test_integrate_1d_interior_kink_with_breakpoint():
    res = integrate_1d(abs, -1.0, 1.0, points=[0.0])
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_integrate_1d_log_singularity_at_declared_point():
    res = integrate_1d(lambda t: math.log(abs(t - 0.5)), 0.0, 1.0, points=[0.5])
    assert res.value == pytest.approx(-1.0 - math.log(2.0), rel=1e-9)


def test_integrate_1d_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate_1d(math.sin, 1.0, 0.0)


def test_sphere_mean_dimension_three():
    spec = QuadSpec(polar_nodes=48, azimuth_nodes=96)

    def one(pts):
        return np.ones(len(pts))

    def x0sq(pts):
        return pts[:, 0] ** 2

    def bilinear(pts):
        return pts[:, 0] * pts[:, 1]

    assert sphere_mean(one, 1.3, 3, spec) == pytest.approx(1.0, rel=1e-12)
    # mean of x0^2 over the sphere of radius R is R^2 / 3
    assert sphere_mean(x0sq, 1.5, 3, spec) == pytest.approx(0.75, rel=1e-9)
    assert sphere_mean(bilinear, 1.5, 3, spec) == pytest.approx(0.0, abs=1e-12)


def test_sphere_mean_dimension_three_off_center():
    center = np.array([0.2, -0.3, 0.1])

    def affine(pts):
        return 4.0 + 2.0 * pts[:, 2]

    val = sphere_mean(affine, 0.7, 3, center=center)
    assert val == pytest.approx(4.0 + 2.0 * center[2], rel=1e-11)


def test_sphere_mean_dimension_two_matches_circle_mean():
    def f(pts):
        return np.exp(pts[:, 0])

    direct = circle_mean(f, np.zeros(2), 1.0).value
    via_sphere = sphere_mean(f, 1.0, 2)
    assert via_sphere == pytest.approx(direct, rel=1e-13)


class _Jumps:
    def __init__(self, jumps):
        self.jumps = tuple(jumps)


def test_positive_part_mean_splits_at_the_kinks(monkeypatch):
    # max(x0 - 0.3, 0) on the unit circle: kinks at +-acos(0.3), mean
    # (sin t - 0.3 t) / pi at t = acos(0.3).  The arc rules settle it without
    # the adaptive fallback.
    def adaptive(*args):
        raise AssertionError("adaptive fallback used")

    monkeypatch.setattr(quadrature, "_adaptive_circle_mean", adaptive)
    t = math.acos(0.3)
    budget = ErrorBudget()
    value = positive_part_mean(lambda pts: pts[:, 0] - 0.3, 1.0, 2, budget=budget)
    assert budget.ok
    assert abs(value - (math.sin(t) - 0.3 * t) / math.pi) <= budget.error
    assert budget.error < 1e-14


def test_positive_part_mean_agrees_with_sphere_mean():
    def g(pts):
        return pts[:, 0] - 0.25 * pts[:, -1]

    def plus(pts):
        return np.maximum(g(pts), 0.0)

    # d = 3 is the sphere mean of max(g, 0); in the plane a function that
    # keeps one sign passes the trapezoid check and gets the same bits.
    for center in ([0.1, -0.2, 0.3], [2.0, 0.5]):
        d = len(center)
        ours, theirs = ErrorBudget(), ErrorBudget()
        assert positive_part_mean(g, 0.7, d, center=center, budget=ours,
                                  label="probe") == sphere_mean(
            plus, 0.7, d, center=center, budget=theirs, label="probe")
        assert (ours.error, ours.failures) == (theirs.error, theirs.failures)


def test_positive_part_mean_failure_raises_without_budget():
    spec = QuadSpec(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError):
        positive_part_mean(lambda pts: pts[:, 0] - 0.3, 1.0, 2, spec)
    budget = ErrorBudget()
    positive_part_mean(lambda pts: pts[:, 0] - 0.3, 1.0, 2, spec, budget=budget,
                       label="probe")
    assert budget.failures == ["probe"]


def test_stieltjes_jumps_half_open_interval():
    h = _Jumps([(0.5, 2.0), (1.0, 3.0), (2.0, 7.0)])
    # (a, b] semantics: a jump at t = a is excluded, at t = b included.
    val = stieltjes_against_jumps(lambda t: t, h, 0.5, 2.0)
    assert val == 1.0 * 3.0 + 2.0 * 7.0


@pytest.mark.parametrize("fields", [
    {"abs_tol": math.nan}, {"rel_tol": 0.0}, {"max_subdivisions": 2 ** 20 + 1},
    {"circle_nodes": 2 ** 20 + 1}, {"polar_nodes": 2 ** 10, "azimuth_nodes": 2 ** 10 + 1},
])
def test_quad_spec_rejects_out_of_range_fields(fields):
    with pytest.raises(ValueError):
        QuadSpec(**fields)
    # The caps themselves are allowed; nothing is allocated here.
    QuadSpec(max_subdivisions=2 ** 20, circle_nodes=2 ** 20,
             polar_nodes=2 ** 10, azimuth_nodes=2 ** 10)


def test_error_budget_flags_failures():
    budget = ErrorBudget()
    assert budget.ok
    budget.failures.append("divergent piece")
    assert not budget.ok


def test_error_budget_accumulates_error():
    budget = ErrorBudget()
    integrate_1d(math.log, 0.0, 1.0, budget=budget)
    integrate_1d(math.exp, 0.0, 1.0, budget=budget)
    assert budget.error > 0.0
    assert budget.ok

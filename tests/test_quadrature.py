import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cubature

from nevkit import quadrature
from nevkit.dsh import Charge, DshFunction, HarmonicPart
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

    res = circle_mean(f, center, 1.7)
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
    def one(pts):
        return np.ones(len(pts))

    def x0sq(pts):
        return pts[:, 0] ** 2

    def bilinear(pts):
        return pts[:, 0] * pts[:, 1]

    assert sphere_mean(one, 1.3, 3) == pytest.approx(1.0, rel=1e-12)
    # mean of x0^2 over the sphere of radius R is R^2 / 3
    assert sphere_mean(x0sq, 1.5, 3) == pytest.approx(0.75, rel=1e-9)
    assert sphere_mean(bilinear, 1.5, 3) == pytest.approx(0.0, abs=1e-12)


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

    # A function that keeps one sign on the sphere passes the product rule's
    # (d = 3) or the trapezoid's (d = 2) doubling check and gets its bits.
    for center in ([2.0, -0.2, 0.3], [2.0, 0.5]):
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


# ------------------------------------------------ 3-D positive-part means

# The d = 3 benchmark geometry, unrotated: its zero set crosses the shell
# |x| = 0.6 and the density's rings about SPATIAL_CENTRE beyond 0.27.
SPATIAL_U = DshFunction(3, (Charge([0.4985, -0.5996, 0.6489], 1.0),
                            Charge([0.3449, 0.0333, 0.6410], -0.5577),
                            Charge([-0.5161, 0.6410, 0.0425], 0.6610)),
                        HarmonicPart((("const", 0.3),)))
SPATIAL_CENTRE = np.array([0.1072, 0.2549, 0.1025])
# The shell mean from an independent adaptive rule (quad over the azimuth of
# Gauss-Legendre meridian integrals split at their roots), good to 1.5e-11.
SPATIAL_SHELL_MEAN = 0.03727686327282


def _positive_mean3(g, radius, center=None):
    budget = ErrorBudget()
    value = positive_part_mean(g, radius, 3, center=center, budget=budget)
    assert budget.ok
    return value, budget.error


@pytest.mark.parametrize("offset", [-0.6, -0.1, 0.025, 0.5, 0.69])
def test_sphere_positive_part_mean_of_a_plane_cut(offset):
    # g = offset + a . (x - center) on a sphere of radius r: with rho = r |a|,
    # the mean of max(g, 0) is (rho + offset)**2 / (4 rho).
    center = np.array([0.1, -0.2, 0.3])
    a = np.array([1.0, 0.3, -0.25])
    rho = 0.7 * float(np.linalg.norm(a))
    value, error = _positive_mean3(lambda pts: offset + (pts - center) @ a, 0.7, center)
    assert value == pytest.approx((rho + offset) ** 2 / (4.0 * rho), abs=error + 1e-15)


def test_sphere_positive_part_mean_finds_a_cap_the_coarse_grid_misses():
    # The positive cap of this plane cut, of angular radius 0.015, is centred
    # on a node of the doubled product grid and holds no node of the coarse
    # grid.  The product rule's doubling check fails on it, and the meridian
    # rule about a pole from the doubled grid takes over.
    n_polar = quadrature._POLAR_NODES
    u = quadrature._leggauss(2 * n_polar)[0][n_polar]
    phi = math.pi / quadrature._AZIMUTH_NODES
    axis = np.array([math.sqrt(1.0 - u * u) * math.cos(phi),
                     math.sqrt(1.0 - u * u) * math.sin(phi), u])
    height = math.cos(0.015)
    value, error = _positive_mean3(lambda pts: pts @ axis - height, 1.0)
    assert value == pytest.approx((1.0 - height) ** 2 / 4.0, abs=error + 1e-20)


def test_sphere_positive_part_mean_sees_a_spike_between_sign_rows():
    # A large positive cap about e3 and a steep spike of angular radius
    # 0.045, centred midway between two polar rows of the sign grid in the
    # centroid frame.  The spike holds product-grid nodes but no sign-grid
    # point, so every meridian crosses g = 0 equally often there; the
    # product-grid check must turn that frame down, and the mean must be
    # flagged or right.
    height, spike, steep = 0.3, 0.045, 1000.0
    dirs = quadrature._sphere3_directions(64, 128, 0.0)
    area = np.repeat(quadrature._leggauss(64)[1], 128)
    theta_c = 22.5 * math.pi / (quadrature._SIGN_NODES - 1)
    c = np.array([math.sin(theta_c), 0.0, math.cos(theta_c)])

    def spiked(c):
        return lambda pts: np.maximum(pts[:, 2] - height, steep * (pts @ c - math.cos(spike)))

    for _ in range(4):  # the spike moves the centroid a little
        positive = spiked(c)(dirs) > 0.0
        centroid = area[positive] @ dirs[positive]
        pole = centroid / np.linalg.norm(centroid)
        e1 = np.cross(pole, np.eye(3)[np.argmin(np.abs(pole))])
        e1 /= np.linalg.norm(e1)
        c = math.sin(theta_c) * e1 + math.cos(theta_c) * pole
    g = spiked(c)
    assert np.any(dirs @ c > math.cos(spike))
    assert quadrature._meridian_mean(g, np.zeros(3), 1.0, pole, QuadSpec(), dirs,
                                     g(dirs) > 0.0) is None
    budget = ErrorBudget()
    value = positive_part_mean(g, 1.0, 3, budget=budget)
    exact = (1.0 - height) ** 2 / 4.0 + steep * (1.0 - math.cos(spike)) ** 2 / 4.0
    assert not budget.ok or abs(value - exact) <= budget.error + 1e-15


def test_sphere_positive_part_mean_of_the_spatial_shell():
    value, error = _positive_mean3(SPATIAL_U.evaluate, 0.6)
    assert error < 1e-10
    assert value == pytest.approx(SPATIAL_SHELL_MEAN, abs=1e-10)


def test_sphere_positive_part_mean_matches_gk21_cubature():
    # The zero set is the circle x2 = center[2] + 0.3 r, a polar circle of
    # the (theta, phi) box, so gk21 split there converges at once.
    center, r, q = np.array([0.1, -0.2, 0.3]), 0.8, np.array([1.2, 0.4, 0.9])

    def g(pts):
        return ((pts[:, 2] - center[2]) / r - 0.3) * (0.5 + 1.0 / np.linalg.norm(pts - q, axis=1))

    def integrand(x):
        t, p = x[:, 0], x[:, 1]
        pts = center + r * np.column_stack((np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                                            np.cos(t)))
        return np.maximum(g(pts), 0.0) * np.sin(t) / (4.0 * math.pi)

    ref = cubature(integrand, [0.0, 0.0], [math.pi, 2.0 * math.pi], rule="gk21",
                   rtol=1e-12, atol=0.0, points=[np.array([math.acos(0.3), math.pi])])
    assert ref.status == "converged"
    value, error = _positive_mean3(g, r, center)
    assert value == pytest.approx(ref.estimate, abs=error + ref.error)


def test_sphere_positive_part_centroid_frames_agree():
    # The centroids of the positive and of the negative nodes point opposite
    # ways; the two frames share their meridians' great circles but no node.
    dirs = quadrature._sphere3_directions(64, 128, 0.0)
    area = np.repeat(quadrature._leggauss(64)[1], 128)
    positive = SPATIAL_U.evaluate(0.6 * dirs) > 0.0
    results = []
    for side in (positive, ~positive):
        centroid = area[side] @ dirs[side]
        pole = centroid / np.linalg.norm(centroid)
        results.append(quadrature._meridian_mean(SPATIAL_U.evaluate, np.zeros(3), 0.6,
                                                 pole, QuadSpec(), dirs, positive))
    (a, b) = results
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error + b.error + 4e-16 * a.value
    assert a.value == pytest.approx(SPATIAL_SHELL_MEAN, abs=1e-10)


def _rotation(quat) -> np.ndarray:
    w, x, y, z = np.asarray(quat) / np.linalg.norm(quat)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: sum(v * v for v in q) > 0.01))
def test_sphere_positive_part_mean_is_rotation_invariant(quat):
    rot = _rotation(quat)
    turned = DshFunction(3, tuple(Charge(rot @ c.location, c.weight)
                                  for c in SPATIAL_U.charges), SPATIAL_U.harmonic)
    for center, radius in ((np.zeros(3), 0.6), (SPATIAL_CENTRE, 0.3)):
        value, error = _positive_mean3(SPATIAL_U.evaluate, radius, center)
        rotated, rotated_error = _positive_mean3(turned.evaluate, radius, rot @ center)
        assert abs(value - rotated) <= error + rotated_error + 1e-15


def test_stieltjes_jumps_half_open_interval():
    h = _Jumps([(0.5, 2.0), (1.0, 3.0), (2.0, 7.0)])
    # (a, b] semantics: a jump at t = a is excluded, at t = b included.
    val = stieltjes_against_jumps(lambda t: t, h, 0.5, 2.0)
    assert val == 1.0 * 3.0 + 2.0 * 7.0


@pytest.mark.parametrize("fields", [
    {"abs_tol": math.nan}, {"rel_tol": 0.0}, {"max_subdivisions": 2 ** 20 + 1},
    {"max_subdivisions": 7}, {"abs_tol": -1e-10},
])
def test_quad_spec_rejects_out_of_range_fields(fields):
    with pytest.raises(ValueError):
        QuadSpec(**fields)
    # The bounds themselves are allowed; nothing is allocated here.
    QuadSpec(max_subdivisions=2 ** 20)
    QuadSpec(max_subdivisions=8)


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

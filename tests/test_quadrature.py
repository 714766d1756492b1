import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cubature
from scipy.optimize import brentq

from nevkit import quadrature
from nevkit.dsh import HARMONIC_LABELS, Charge, DshFunction, HarmonicPart
from nevkit.kernels import kappa, poisson_kernel
from nevkit.quadrature import (
    ErrorBudget,
    QuadratureError,
    QuadResult,
    QuadSpec,
    positive_part_mean,
    radius_integral,
    sphere_mean,
    stieltjes_against_jumps,
)


def test_circle_points_lie_on_circle():
    center = np.array([0.3, -0.1])
    pts = center + 2.0 * quadrature._grid(2, 64, 0.0)[0]
    assert pts.shape == (64, 2)
    radii = np.linalg.norm(pts - center, axis=1)
    assert np.allclose(radii, 2.0, atol=1e-13)


def test_trapezoid_mean_value_of_harmonic_polynomial():
    # A harmonic function's circle mean equals its center value; the
    # trapezoid rule the planar ladder starts with is exact on a
    # trigonometric polynomial, so its doubling check passes at once.
    center = np.array([0.3, -0.1])

    def f(pts):
        x = pts[:, 0] - center[0]
        y = pts[:, 1] - center[1]
        return 2.0 + x ** 3 - 3.0 * x * y ** 2

    budget = ErrorBudget()
    assert sphere_mean(f, 1.7, 2, center=center, budget=budget) == pytest.approx(2.0, abs=1e-13)
    assert budget.ok


def test_circle_mean_smooth_nonharmonic():
    # mean of |z|^2 over the circle of radius R about 0 is R^2.
    def f(pts):
        return np.sum(pts * pts, axis=1)

    budget = ErrorBudget()
    assert sphere_mean(f, 1.5, 2, budget=budget) == pytest.approx(2.25, rel=1e-12)
    assert budget.ok


def test_circle_mean_of_a_poisson_kernel_near_its_pole():
    # At |x| = 0.999 R the kernel's peak, of width about 1e-3, fails the
    # trapezoid doubling check; the break-angle rule, split at the largest
    # node of the ladder's top grid, takes over without sampling that grid
    # again.  Its weights must not overflow: a RuntimeWarning is an error
    # under the test configuration.
    R = 1.3
    x = 0.999 * R * np.array([math.cos(0.4), math.sin(0.4)])
    f, sizes = _counted(lambda pts: 2.0 * math.pi * R * poisson_kernel(x, pts, R, 2))
    budget = ErrorBudget()
    value = sphere_mean(f, R, 2, budget=budget)
    assert sizes == [64, 64, 128, 256, 512, 58, 56, 112, 224, 448]
    assert budget.ok
    assert abs(value - 1.0) <= budget.error, (value, budget.error)


def test_circle_mean_settles_a_failed_turned_pair_from_its_finer_grid(monkeypatch):
    # The kernel near its pole as above, but +inf on a node of the ladder's
    # first grid: the turned pair takes over and misses tolerance too, and
    # the tanh-sinh rule breaks the circle at the node of the turned pair's
    # finer grid (1,024 nodes at half a step) where the kernel is largest.
    R = 1.3
    x = 0.999 * R * np.array([math.cos(0.4), math.sin(0.4)])
    node = R * quadrature._grid(2, 64, 0.0)[0][35]
    f, sizes = _counted(lambda pts: np.where(np.all(pts == node, axis=1), np.inf,
                                             2.0 * math.pi * R * poisson_kernel(x, pts, R, 2)))
    breaks = []
    split = quadrature._break_angle_mean

    def spied(f, center, radius, angles, spec, samples=None):
        breaks.append(angles)
        return split(f, center, radius, angles, spec, samples)

    monkeypatch.setattr(quadrature, "_break_angle_mean", spied)
    budget = ErrorBudget()
    value = sphere_mean(f, R, 2, budget=budget)
    assert sizes == [64, 1024, 58, 56, 112, 224, 448]
    n = 2 * quadrature._CIRCLE_NODES
    angles = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    nearest = angles[np.argmin(np.abs(angles - 0.4))]
    assert len(breaks) == 1 and len(breaks[0]) == 1
    assert breaks[0][0] == nearest
    assert budget.ok
    assert abs(value - 1.0) <= budget.error, (value, budget.error)


def test_circle_mean_log_singularity_on_circle():
    # mean over |z| = 1 of ln|z - a| is ln max(|a|, 1); with |a| = 1 the
    # integrand has an integrable singularity and the mean is still 0.
    def make(a):
        def f(pts):
            return 0.5 * np.log((pts[:, 0] - a[0]) ** 2 + (pts[:, 1] - a[1]) ** 2)
        return f

    budget = ErrorBudget()
    inside = sphere_mean(make(np.array([0.4, 0.1])), 1.0, 2, budget=budget)
    assert inside == pytest.approx(0.0, abs=1e-10)

    outside = sphere_mean(make(np.array([1.3, -0.4])), 1.0, 2, budget=budget)
    expected = math.log(math.hypot(1.3, -0.4))
    assert outside == pytest.approx(expected, rel=1e-10)

    on = sphere_mean(make(np.array([1.0, 0.0])), 1.0, 2, budget=budget,
                     singular_angles=[0.0])
    assert on == pytest.approx(0.0, abs=1e-8)
    assert budget.ok


def _kronrod_oracle(n: int) -> tuple[list, list]:
    """The (2n + 1)-point Gauss-Kronrod rule from its definition, in 80-digit
    arithmetic, which the ill-conditioned monomial basis needs: the added nodes are the roots of the Stieltjes polynomial
    E = x**(n + 1) + ..., orthogonal to x**j, j <= n, against the weight P_n
    on [-1, 1]; the weights make the rule exact on x**k, k <= 2n."""
    with mpmath.workdps(80):
        legendre = [mpmath.mpf(0)] * (n + 1)  # P_n's coefficients, ascending
        for k in range(n // 2 + 1):
            legendre[n - 2 * k] = mpmath.mpf((-1) ** k * math.comb(n, k)
                                             * math.comb(2 * n - 2 * k, n)) / 2 ** n

        def moment(m):
            return mpmath.mpf(2) / (m + 1) if m % 2 == 0 else mpmath.mpf(0)

        def against_legendre(m):  # the integral of P_n(x) x**m over [-1, 1]
            return mpmath.fsum(c * moment(i + m) for i, c in enumerate(legendre))

        lower = mpmath.lu_solve(
            mpmath.matrix([[against_legendre(i + j) for i in range(n + 1)]
                           for j in range(n + 1)]),
            mpmath.matrix([-against_legendre(n + 1 + j) for j in range(n + 1)]))
        stieltjes = [*(lower[i] for i in range(n + 1)), mpmath.mpf(1)]
        nodes = sorted(mpmath.re(r) for poly in (stieltjes, legendre)
                       for r in mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=200))
        weights = mpmath.lu_solve(
            mpmath.matrix([[x ** k for x in nodes] for k in range(2 * n + 1)]),
            mpmath.matrix([moment(k) for k in range(2 * n + 1)]))
        return [float(x) for x in nodes], [float(v) for v in weights]


@pytest.mark.parametrize("n", [8, 16])
def test_kronrod_rule_against_its_definition(n):
    x, w = quadrature._kronrod(n)
    assert np.array_equal(x[:n], quadrature._leggauss(n)[0])
    order = np.argsort(x)
    # The added nodes interlace with the Gauss nodes, and no weight is negative.
    assert np.array_equal(order[1::2], np.arange(n))
    assert np.all(w > 0.0)
    nodes, weights = _kronrod_oracle(n)
    assert np.max(np.abs(x[order] - nodes)) <= 2e-15
    assert np.max(np.abs(w[order] - weights)) <= 2e-15
    for k in range(3 * n + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(w @ x ** k) - exact) <= 1e-15, k


def test_cosine_kronrod_rule_extends_the_cosine_gauss_rule():
    u, _ = quadrature._cosine_kronrod_rule(8)
    gauss_u, _ = quadrature._cosine_panel_rule(8)
    assert np.array_equal(u[:8], gauss_u)
    assert len(u) == 17


def test_radius_integral_log_endpoint():
    res = radius_integral(math.log, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(-1.0, rel=1e-10)


def test_radius_integral_splits_at_a_declared_kink():
    res = radius_integral(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, breaks=[1.0 / 3.0])
    assert res.converged
    assert abs(res.value - 5.0 / 18.0) <= 1e-13


def test_radius_integral_reaches_an_undeclared_kink_by_halving():
    calls = []

    def f(t):
        calls.append(t)
        return abs(t - 1.0 / 3.0)

    res = radius_integral(f, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 5.0 / 18.0) <= res.error + 1e-15
    # One piece is 17 evaluations; halving adds 34 each time.
    assert len(calls) > 17 and (len(calls) - 17) % 34 == 0


def test_radius_integral_of_a_log_singularity_at_a_break():
    res = radius_integral(lambda t: math.log(abs(t - 0.5)), 0.0, 1.0, breaks=[0.5])
    assert res.converged
    assert res.value == pytest.approx(-1.0 - math.log(2.0), rel=1e-9)


def test_radius_integral_flags_a_nan_and_a_capped_kink():
    assert not radius_integral(lambda t: math.nan if t > 0.5 else t, 0.0, 1.0).converged
    assert not radius_integral(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0,
                               QuadSpec(max_subdivisions=8)).converged


def test_radius_integral_stops_at_its_rounding_floor():
    # A tolerance below rounding fails once the piece to halve is at its
    # floor, about 500 pieces here, not at the cap of 2**15 pieces.
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(t)

    res = radius_integral(f, 0.0, 1.0, QuadSpec(abs_tol=1e-300, rel_tol=1e-300))
    assert not res.converged
    assert len(calls) <= 48 * 1000
    assert abs(res.value - (math.e - 1.0)) <= res.error


def test_radius_integral_takes_more_breaks_than_the_cap():
    breaks = np.linspace(0.0, 1.0, 20)[1:-1]
    res = radius_integral(math.exp, 0.0, 1.0, QuadSpec(max_subdivisions=8), breaks=breaks)
    assert res.converged
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-14)


def test_radius_integral_rejects_reversed_interval():
    with pytest.raises(ValueError):
        radius_integral(math.sin, 1.0, 0.0)


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


def _poisson_jensen_integrand(gap: float):
    """A d = 3 Poisson-Jensen integrand on the sphere of radius 2 about 0,
    with a charge gap * 2 outside it, and a log of the sizes it is called on."""
    location = np.array([0.3, -0.5, 0.7])
    location *= 2.0 * (1.0 + gap) / np.linalg.norm(location)
    u = DshFunction(3, (Charge(location, 1.0), Charge([0.2, 0.1, -0.3], -0.5)),
                    HarmonicPart((("const", 0.3),)))
    x = np.array([0.1, -0.2, 0.25])
    return _counted(lambda pts: u.evaluate(pts) * poisson_kernel(x, pts, 2.0, 3))


@pytest.mark.parametrize("gap, grids", [
    (0.01, [128, 512, 2048, 8192, 32768]),
    (0.3, [128, 512, 2048, 8192]),
], ids=["near-charge", "far-charge"])
def test_sphere_ladder_climbs_to_the_pair_that_agrees(gap, grids):
    # Each grid of the ladder is evaluated once and doubles the last; with
    # the charge 0.01 R from the sphere it goes up to the top pair, whose
    # check fails as it did with the top pair alone.
    f, sizes = _poisson_jensen_integrand(gap)
    spec = quadrature.DEFAULT_SPEC
    ladder = quadrature._ladder_mean(f, np.zeros(3), 2.0, 3, spec)
    assert sizes == grids
    n = quadrature._AZIMUTH_NODES
    top = quadrature._checked_mean(quadrature._sample(f, np.zeros(3), 2.0, 3, n),
                                   quadrature._sample(f, np.zeros(3), 2.0, 3, 2 * n), 3, n, spec)
    assert sizes[len(grids):] == [8192, 32768]
    assert ladder.converged == top.converged == (gap > 0.1)
    assert abs(ladder.value - top.value) <= ladder.error + top.error


@pytest.mark.parametrize("d, azimuth, grids", [
    (3, 16, [128, 8192, 32768]),
    (3, 32, [128, 512, 8192, 32768]),
    (3, 128, [128, 512, 2048, 8192, 8192, 32768]),
    (3, 256, [128, 512, 2048, 8192, 32768, 8192, 32768]),
    (2, 64, [64, 1024]),
    (2, 1024, [64, 64, 128, 256, 512, 1024]),
], ids=["first-grid", "its-double", "top-grid", "top-double", "plane-first-grid",
        "plane-top-double"])
def test_sphere_ladder_leaves_a_grid_that_is_not_finite_for_the_retry_rungs(d, azimuth,
                                                                             grids):
    # The Poisson kernel about a point 0.95 R from the centre, but +inf on
    # one node of one ladder grid (and of the finer grids, which hold it
    # too), under a tolerance below rounding, so that no pair passes: the
    # top pair turned by half a step of its finer grid takes over, once.
    # The kernel's mean is 1 / |S|.
    node = 0.5 * quadrature._grid(d, azimuth, 0.0)[0][azimuth // 2 + 3]
    x = np.eye(d)[0] * 0.475
    g, sizes = _counted(lambda pts: np.where(np.all(pts == node, axis=1), np.inf,
                                             poisson_kernel(x, pts, 0.5, d)))
    spec = QuadSpec(abs_tol=1e-300, rel_tol=1e-300)
    ladder = quadrature._ladder_mean(g, np.zeros(d), 0.5, d, spec)
    top = quadrature._CIRCLE_NODES if d == 2 else quadrature._AZIMUTH_NODES
    fine = quadrature._sample(g, np.zeros(d), 0.5, d, 2 * top, 0.5)
    if d == 2:
        # In the plane the turned pair's finer grid goes on to the one
        # fallback, whose tanh-sinh rule runs every level under this
        # tolerance.
        assert sizes[:-1] == grids + [58, 56, 112, 224, 448, 896, 1792, 3584]
        turned = quadrature._circle_top_mean(g, np.zeros(d), 0.5, fine, 0.5, spec)
    else:
        assert sizes[:-1] == grids
        turned = quadrature._checked_mean(quadrature._sample(g, np.zeros(d), 0.5, d, top, 0.25),
                                          fine, d, top, spec)
    assert ladder == turned and not ladder.converged
    surface = 2.0 * math.pi * 0.5 if d == 2 else 4.0 * math.pi * 0.25
    assert ladder.value == pytest.approx(1.0 / surface, rel=0.0, abs=ladder.error + 1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_ladder_turned_pair_shares_no_azimuth_with_the_ladder(d):
    # No grid node lies at a pole, so nodes at other azimuths are other
    # nodes: a singular point on a ladder node is off both turned grids.
    top = quadrature._CIRCLE_NODES if d == 2 else quadrature._AZIMUTH_NODES

    def azimuths(n, shift):
        dirs = quadrature._grid(d, n, shift)[0]
        return np.unique(np.round(np.arctan2(dirs[:, 1], dirs[:, 0]) % (2.0 * math.pi), 9))

    ladder = np.concatenate([azimuths(2 * top >> k, 0.0)
                             for k in range(quadrature._LADDER_RUNGS + 2)])
    for n, shift in ((top, 0.25), (2 * top, 0.5)):
        gaps = np.abs(azimuths(n, shift)[:, np.newaxis] - ladder)
        assert np.min(np.minimum(gaps, 2.0 * math.pi - gaps)) > 0.49 * math.pi / top


def test_positive_part_that_is_not_finite_enters_the_retry_rungs_at_the_top_pair():
    # A negative charge on a node of the sign grid: u+ is +inf there, and the
    # turned top pair takes over at once; no pair of the ladder runs, since
    # one could agree across the kink, and the sign grid is not sampled again.
    node = 0.5 * quadrature.sphere_grid(3)[1000]
    u = DshFunction(3, (Charge(node, -0.1),), HarmonicPart((("const", -1.0),)))
    g, sizes = _counted(u.evaluate)
    positive_part_mean(g, 0.5, 3, budget=ErrorBudget())
    assert sizes == [8192, 8192, 32768]


def test_sphere_mean_dimension_three_off_center():
    center = np.array([0.2, -0.3, 0.1])

    def affine(pts):
        return 4.0 + 2.0 * pts[:, 2]

    val = sphere_mean(affine, 0.7, 3, center=center)
    assert val == pytest.approx(4.0 + 2.0 * center[2], rel=1e-11)


class _Jumps:
    def __init__(self, jumps):
        self.jumps = tuple(jumps)


def test_positive_part_mean_splits_at_the_kinks(monkeypatch):
    # max(x0 - 0.3, 0) on the unit circle: kinks at +-acos(0.3), mean
    # (sin t - 0.3 t) / pi at t = acos(0.3).  The sign changes on the grid
    # send it to the tanh-sinh rule, split once at both roots, which places
    # no node on the arc where x0 < 0.3 and the positive part is 0.
    calls, nodes = [], []
    split = quadrature._break_angle_mean

    def spied(f, center, radius, breaks, spec, samples=None):
        calls.append(np.sort(np.mod(np.asarray(breaks, dtype=float), 2.0 * math.pi)))

        def recorded(pts):
            nodes.append(pts.copy())
            return f(pts)

        return split(recorded, center, radius, breaks, spec, samples)

    monkeypatch.setattr(quadrature, "_break_angle_mean", spied)
    t = math.acos(0.3)
    budget = ErrorBudget()
    value = positive_part_mean(lambda pts: pts[:, 0] - 0.3, 1.0, 2, budget=budget)
    assert len(calls) == 1
    assert np.allclose(calls[0], [t, 2.0 * math.pi - t], rtol=0.0, atol=1e-12)
    assert np.min(np.concatenate(nodes)[:, 0]) >= 0.3 - 1e-12
    assert budget.ok
    assert abs(value - (math.sin(t) - 0.3 * t) / math.pi) <= budget.error
    assert budget.error < 1e-14


def test_positive_part_mean_agrees_with_sphere_mean():
    def g(pts):
        return pts[:, 0] - 0.25 * pts[:, -1]

    def plus(pts):
        return np.maximum(g(pts), 0.0)

    # A function that keeps one sign on the sphere gets the bits of the top
    # pair's doubling check, from its sign grid; sphere_mean stops lower on
    # its ladder and agrees within both estimates.
    for center in ([2.0, 0.5], [2.0, -0.2, 0.3]):
        d = len(center)
        ours, theirs = ErrorBudget(), ErrorBudget()
        value = positive_part_mean(g, 0.7, d, center=center, budget=ours, label="probe")
        n = quadrature._CIRCLE_NODES if d == 2 else quadrature._AZIMUTH_NODES
        top = quadrature._checked_mean(quadrature._sample(plus, np.array(center), 0.7, d, n),
                                       quadrature._sample(plus, np.array(center), 0.7, d, 2 * n),
                                       d, n, quadrature.DEFAULT_SPEC)
        assert (value, ours.error, ours.failures) == (top.value, top.error, [])
        assert abs(sphere_mean(plus, 0.7, d, center=center, budget=theirs) - value) <= (
            ours.error + theirs.error)
        assert theirs.ok


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
    dirs = quadrature.sphere_grid(3)
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


def _patched_cap(pole_angle: float, phi: float, spike: float):
    """x2 - 0.3 (a cap about e3, crossed once by every meridian about e3),
    with a positive patch of angular radius ``spike`` about the point at
    polar angle ``pole_angle`` and azimuth ``phi`` of the meridian frame
    that ``_meridian_mean`` builds about e3, and the patch's centre."""
    c = np.array([-math.sin(pole_angle) * math.sin(phi), math.sin(pole_angle) * math.cos(phi),
                  math.cos(pole_angle)])
    return (lambda pts: np.maximum(pts[:, 2] - 0.3, 1000.0 * (pts @ c - math.cos(spike)))), c


def test_meridian_rule_turns_down_a_patch_between_its_meridians(monkeypatch):
    # A patch on the equator midway between the first two of the 128
    # meridians, on a point of the sign grid of the meridian between them,
    # holds no node of the product grid: the first meridians and the grid
    # agree.  Under a tolerance below rounding, with the Gauss-Legendre
    # nodes at their cap, the rule halves its azimuthal step; at the
    # meridians' cap too, the patch goes unseen and the result is flagged.
    g, c = _patched_cap(math.pi / 2, math.pi / quadrature._MERIDIANS, 0.01)
    dirs = quadrature.sphere_grid(3)
    assert np.all(dirs @ c < math.cos(0.01))
    pole = np.array([0.0, 0.0, 1.0])
    spec = QuadSpec(abs_tol=1e-300, rel_tol=1e-300)
    monkeypatch.setattr(quadrature, "_MAX_SEGMENT_NODES", 2 * quadrature._SEGMENT_NODES)
    monkeypatch.setattr(quadrature, "_MAX_MERIDIANS", quadrature._MERIDIANS)
    capped = quadrature._meridian_mean(g, np.zeros(3), 1.0, pole, spec, dirs, g(dirs) > 0.0)
    assert not capped.converged
    # One halving: the meridian it adds crosses g = 0 two more times, and
    # the rule gives up on its frame.
    monkeypatch.setattr(quadrature, "_MAX_MERIDIANS", 2 * quadrature._MERIDIANS)
    assert quadrature._meridian_mean(g, np.zeros(3), 1.0, pole, spec, dirs,
                                     g(dirs) > 0.0) is None


def test_meridian_rule_gives_up_on_roots_that_do_not_close(monkeypatch):
    # One round of the root solver leaves every bracket open: nan roots, and
    # no frame.
    def g(pts):
        return pts[:, 2] - 0.3

    dirs = quadrature.sphere_grid(3)
    pole = np.array([0.0, 0.0, 1.0])
    assert quadrature._meridian_mean(g, np.zeros(3), 1.0, pole, QuadSpec(), dirs,
                                     g(dirs) > 0.0).converged
    monkeypatch.setattr(quadrature, "_ROOT_MAXITER", 1)
    assert quadrature._meridian_mean(g, np.zeros(3), 1.0, pole, QuadSpec(), dirs,
                                     g(dirs) > 0.0) is None


def test_sphere_positive_part_centroid_frames_agree():
    # The centroids of the positive and of the negative nodes point opposite
    # ways; the two frames share their meridians' great circles but no node.
    dirs = quadrature.sphere_grid(3)
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


# --------------------------------- spheres of one sign (the sphere range)

# The contact radius of the spheres about SPATIAL_CENTRE (tests/test_dsh.py
# pins it against a dense optimisation).
SPATIAL_CONTACT = 0.2711296618993035


def _counted(g):
    """g, and a list that records the number of points of each call."""
    sizes = []

    def wrapped(pts):
        sizes.append(len(pts))
        return g(pts)

    return wrapped, sizes


def _positive_mean_counted(u, center, radius):
    """u.positive_mean with a budget: its value, the budget's error and
    failures, and the number of points at which u was evaluated."""
    points = []
    evaluate = DshFunction.evaluate

    def counted(self, x):
        points.append(len(np.atleast_2d(x)))
        return evaluate(self, x)

    budget = ErrorBudget()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DshFunction, "evaluate", counted)
        value = u.positive_mean(center, radius, budget=budget)
    return value, budget.error, budget.failures, sum(points)


@pytest.mark.parametrize("radius", [0.001, 0.05, 0.15, 0.24])
def test_certified_zero_rings_equal_the_fine_grid_path_bit_for_bit(radius):
    # Rings inside the contact radius: u < 0 on the whole sphere.  The
    # sphere bound proves it up to about s = 0.17, and there u is evaluated
    # zero times; past that the grid runs and returns the same 0.
    budget = ErrorBudget()
    plain = positive_part_mean(SPATIAL_U.evaluate, radius, 3, center=SPATIAL_CENTRE,
                               budget=budget)
    value, error, failures, points = _positive_mean_counted(SPATIAL_U, SPATIAL_CENTRE, radius)
    assert (points == 0) == (radius < 0.2)
    assert (value, error, failures) == (plain, budget.error, budget.failures) == (0.0, 0.0, [])
    assert math.copysign(1.0, value) == math.copysign(1.0, plain)


def test_certified_zero_planar_ring_equals_the_grid_path_bit_for_bit():
    # The plane had no certificate before the sphere bound: its grid path
    # samples 1,024 negative values and settles at 0 with error 0.
    u = DshFunction(2, (Charge([0.5, 0.0], -0.3), Charge([-0.4, 0.3], 0.2)),
                    HarmonicPart((("const", -1.0), ("x1", 0.5))))
    center = np.array([0.1, -0.05])
    assert u.sphere_range(center, 0.2)[2] < 0.0
    budget = ErrorBudget()
    plain = positive_part_mean(u.evaluate, 0.2, 2, center=center, budget=budget)
    assert _positive_mean_counted(u, center, 0.2) == (
        plain, budget.error, budget.failures, 0)
    assert plain == 0.0


def _sphere_sample(d: int) -> np.ndarray:
    """Unit directions: a product grid four times as fine as the sign grid
    in R^3, 16,384 points on the circle."""
    return quadrature._grid(d, 16384 if d == 2 else 256, 0.0)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sphere_upper_bound_covers_u_on_the_sphere(data):
    d = data.draw(st.sampled_from([2, 3]))
    labels = [lb for lb in HARMONIC_LABELS
              if d == 2 and lb != "x2" or d == 3 and not lb.startswith(("re_", "im_"))]
    unit = st.floats(-1.0, 1.0)
    point = st.lists(unit, min_size=d, max_size=d).map(np.array)
    charges = data.draw(st.lists(st.builds(Charge, point, st.floats(-2.0, 2.0).filter(bool)),
                                 max_size=3))
    terms = tuple((lb, data.draw(st.floats(-2.0, 2.0))) for lb in
                  data.draw(st.lists(st.sampled_from(labels), unique=True)))
    u = DshFunction(d, tuple(charges), HarmonicPart(terms))
    center = 0.5 * data.draw(point)
    radius = data.draw(st.floats(0.01, 1.0))
    values = u.evaluate(center + radius * _sphere_sample(d))
    lo, mean, hi = u.sphere_range(center, radius)
    top, bottom = float(values.max()), float(values.min())
    assert hi >= top - 1e-9 * max(1.0, abs(top)), (hi, top)
    assert lo <= bottom + 1e-9 * max(1.0, abs(bottom)), (lo, bottom)
    # The mean is the mean-value property's closed form; the quadrature
    # mean checks it wherever its doubling check passes.
    budget = ErrorBudget()
    quad = sphere_mean(u.evaluate, radius, d, center=center, budget=budget,
                       singular_angles=u.singular_angles_on(center, radius))
    if budget.ok:
        assert abs(mean - quad) <= budget.error + 1e-9 * max(1.0, abs(mean)), (mean, quad)


def test_no_certificate_on_a_positive_cap_the_coarse_grid_misses():
    # Just past the contact radius u > 0 on a tiny cap that holds no node of
    # the coarse grid: every node is negative, yet the true mean is about
    # 2e-10, so the bound must not settle the sphere.
    radius = SPATIAL_CONTACT + 1e-5
    assert np.all(SPATIAL_U.evaluate(radius * quadrature.sphere_grid(3) + SPATIAL_CENTRE) < 0.0)
    assert SPATIAL_U.sphere_range(SPATIAL_CENTRE, radius)[2] >= 0.0
    assert _positive_mean_counted(SPATIAL_U, SPATIAL_CENTRE, radius)[3] > 0


def test_no_certificate_for_a_spike_between_the_nodes():
    # u = 0.01 / |x - c| - 0.999 with c 0.01 above the north pole: u > 0 on a
    # cap of angular radius about 4e-4, inside the polar cap the grid leaves
    # empty, and u < -0.7 at every node.  The charge's term is 1 at the
    # sphere's nearest point, so the bound is 0.001.
    u = DshFunction(3, (Charge([0.0, 0.0, 1.01], -0.01),), HarmonicPart((("const", -0.999),)))
    values = u.evaluate(quadrature.sphere_grid(3))
    assert values.max() < -0.7 and u.evaluate([0.0, 0.0, 1.0]) > 0.0
    assert u.sphere_range(np.zeros(3), 1.0)[2] == pytest.approx(0.001, rel=1e-9)
    assert _positive_mean_counted(u, np.zeros(3), 1.0)[3] > 0


def test_certificate_with_a_positive_charge_on_the_sphere():
    # u = -1 - 0.1 / |x - c| with c on a node of the coarse grid: the node's
    # value is -inf, and u < -1.1 on the whole sphere, which the bound
    # shows without evaluating u; the grid path gives the same 0.
    c = 0.5 * quadrature.sphere_grid(3)[1000]
    u = DshFunction(3, (Charge(c, 0.1),), HarmonicPart((("const", -1.0),)))
    assert np.isneginf(u.evaluate(0.5 * quadrature.sphere_grid(3))).any()
    assert u.sphere_range(np.zeros(3), 0.5)[2] == pytest.approx(-1.1, rel=1e-12)
    budget = ErrorBudget()
    plain = positive_part_mean(u.evaluate, 0.5, 3, budget=budget)
    assert _positive_mean_counted(u, np.zeros(3), 0.5) == (
        plain, budget.error, budget.failures, 0)


@pytest.mark.parametrize("offset", [0.3, 0.5], ids=["inside", "on-the-sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_certified_positive_sphere_gives_the_mean_of_u(d, offset):
    # u = kappa(3) - kappa(|x|) > 0 on the ball of radius 3, here on a sphere
    # of radius 0.5 whose centre is ``offset`` from the charge: lo > 0, and
    # hi is +inf when the charge lies on the sphere.  The mean of u+ is the
    # mean of u, kappa(3) - kappa(0.5) by the mean-value property, with no
    # evaluation of u.  The grid path agrees within its error; in R^3 it
    # fails with the charge on the sphere.
    u = DshFunction(d, (Charge(np.zeros(d), -1.0),),
                    HarmonicPart((("const", float(kappa(3.0, d))),)))
    center = offset * np.eye(d)[1]
    lo, mean, hi = u.sphere_range(center, 0.5)
    assert 0.0 < lo and (hi == math.inf) == (offset == 0.5)
    assert mean == pytest.approx(kappa(3.0, d) - kappa(0.5, d), rel=1e-15)
    assert _positive_mean_counted(u, center, 0.5) == (mean, 0.0, [], 0)
    budget = ErrorBudget()
    plain = positive_part_mean(u.evaluate, 0.5, d, center=center, budget=budget,
                               singular_angles=u.singular_angles_on(center, 0.5))
    assert budget.ok != (d == 3 and offset == 0.5)
    if budget.ok:
        assert abs(plain - mean) <= budget.error + 1e-15 * mean, (plain, mean)


def test_negative_charge_on_the_sphere_gives_an_infinite_bound():
    u = DshFunction(2, (Charge([0.3, 0.4], -0.1),), HarmonicPart((("const", -5.0),)))
    assert u.sphere_range(np.zeros(2), 0.5)[2] == math.inf


# ------------------------------------------------ the batched root solver

_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


def _wave(x, c, k):
    return np.sin(k * x) - 0.999 * np.sin(k * c) + 0.3 * (x - c)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
                          st.floats(1e-3, 0.3), st.floats(1e-3, 0.3)),
                min_size=1, max_size=16),
       st.sampled_from([4.0 * _TINY, 1e-12]))
@example([(4.63836974315619e-298, 1.0, 0.25, 0.140625)], 4.0 * _TINY)  # brentq stalls
def test_bracketed_roots_agree_with_brentq(brackets, xatol):
    c, k, left, right = map(np.array, zip(*brackets))
    a, b = c - left, c + right
    roots = quadrature._bracketed_roots(_wave, a, b, (c, k), xatol=xatol)
    for i, root in enumerate(roots):
        if np.sign(_wave(a[i], c[i], k[i])) == np.sign(_wave(b[i], c[i], k[i])):
            assert math.isnan(root)
            continue
        ref, info = brentq(_wave, a[i], b[i], args=(c[i], k[i]), xtol=4.0 * _TINY,
                           maxiter=quadrature._ROOT_MAXITER, full_output=True, disp=False)
        if not info.converged:
            # brentq can stall on a root of about 1e-298 (subnormal steps);
            # then check the root's own property: f is within tiny of 0, or
            # changes sign within the tolerance.
            tol = xatol + 4.0 * _EPS * abs(root)
            ends = _wave(np.array([root - tol, root + tol]), c[i], k[i])
            assert abs(_wave(root, c[i], k[i])) <= _TINY or ends[0] * ends[1] <= 0.0
            continue
        # Each solver stops within its own tolerance of the sign change:
        # xatol + 4 eps |x| here, 4 tiny + 4 eps |x| for brentq.
        assert abs(root - ref) <= xatol + 4.0 * _TINY + 8.0 * _EPS * abs(ref), (root, ref)


def test_bracketed_roots_return_an_exact_zero_at_a_bracket_end():
    roots = quadrature._bracketed_roots(lambda x: x * x - 0.25, np.array([0.5, -2.0, 0.0]),
                                        np.array([1.0, -0.5, 0.5]))
    assert roots.tolist() == [0.5, -0.5, 0.5]


def test_bracketed_roots_are_nan_without_a_usable_bracket(monkeypatch):
    def f(x):
        return x - 0.3

    a = np.array([0.0, -np.inf, 0.0, np.nan, 0.5])
    b = np.array([1.0, 1.0, np.inf, 1.0, 1.0])
    roots = quadrature._bracketed_roots(f, a, b)
    # Non-finite ends, and one sign at both ends, give nan; the good
    # bracket beside them still closes.
    assert np.isnan(roots[1:]).all()
    assert abs(roots[0] - 0.3) <= 4.0 * _EPS
    # So does a bracket still open when the rounds run out.
    monkeypatch.setattr(quadrature, "_ROOT_MAXITER", 3)
    assert np.isnan(quadrature._bracketed_roots(np.tan, np.array([1.0]), np.array([2.0]))).all()


def test_stieltjes_jumps_half_open_interval():
    h = _Jumps([(0.5, 2.0), (1.0, 3.0), (2.0, 7.0)])
    # (a, b] semantics: a jump at t = a is excluded, at t = b included.
    val = stieltjes_against_jumps(lambda t: t, h, 0.5, 2.0)
    assert val == 1.0 * 3.0 + 2.0 * 7.0


@pytest.mark.parametrize("fields", [
    {"abs_tol": math.nan}, {"rel_tol": 0.0}, {"max_subdivisions": 2 ** 20 + 1},
    {"max_subdivisions": 7}, {"abs_tol": -1e-10}, {"abs_tol": math.inf},
    {"rel_tol": math.inf},
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
    budget.add(QuadResult(-1.0, 2e-11, True))
    budget.add(QuadResult(math.e - 1.0, math.inf, True))
    budget.add(QuadResult(0.5, 3e-12, True))
    assert budget.error == 2e-11 + 3e-12
    assert budget.ok

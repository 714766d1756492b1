import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize

from nevkit import dsh
from nevkit.dsh import (
    HARMONIC_LABELS,
    Charge,
    DshFunction,
    HarmonicPart,
    RationalFunction,
    _CONTACT_RADII,
    _PATCH_DEPTH,
    _contact_radii,
    dsh_from_json,
    from_rational,
    kernel_witness,
    positive_part_integral,
    rational_from_json,
)
from nevkit.kernels import kappa
from nevkit.measures import (Measure, RadialDensity, SphereShell, integrated_counting,
                             radial_counting)
from nevkit.quadrature import (
    ErrorBudget,
    QuadratureError,
    QuadResult,
    QuadSpec,
    positive_part_mean,
    radius_integral,
    sphere_grid,
    sphere_mean,
)


def test_harmonic_labels_are_mean_value_functions():
    # Every named harmonic building block must satisfy the mean value
    # property; this catches typos in the term table.
    center2 = np.array([0.3, -0.2])
    for label in HARMONIC_LABELS:
        part = HarmonicPart(((label, 1.0),))
        if label == "x2":
            continue
        mean = sphere_mean(lambda pts: part.evaluate(pts, 2), 0.8, 2, center=center2)
        assert mean == pytest.approx(float(part.evaluate(center2[None, :], 2)[0]),
                                     abs=1e-11), label

    center3 = np.array([0.1, 0.25, -0.3])
    for label in ("const", "x0", "x1", "x2", "x0*x1", "x0^2-x1^2"):
        part = HarmonicPart(((label, 1.0),))
        mean = sphere_mean(lambda pts: part.evaluate(pts, 3), 0.8, 3, center=center3)
        assert mean == pytest.approx(float(part.evaluate(center3[None, :], 3)[0]),
                                     abs=1e-9), label


def test_harmonic_part_rejects_unknown_label():
    with pytest.raises(ValueError):
        HarmonicPart((("x0^5", 1.0),))


def test_charges_merge_and_cancel():
    loc = np.array([0.5, 0.5])
    u = DshFunction(2, (Charge(loc, 1.0), Charge(loc, -1.0)))
    assert u.charges == ()
    v = DshFunction(2, (Charge(loc, 1.0), Charge(loc, 0.5)))
    assert len(v.charges) == 1
    assert v.charges[0].weight == 1.5


@given(st.data())
def test_charge_merging_is_idempotent(data):
    # Charges drawn from a pool of at most three locations, so most merge.
    d = data.draw(st.sampled_from([2, 3]))
    pool = data.draw(st.lists(st.lists(_coord, min_size=d, max_size=d), min_size=1,
                              max_size=3))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), _coord),
                               max_size=8))
    u = DshFunction(d, tuple(Charge(np.array(pool[i]), w) for i, w in picks))
    summed: dict[tuple, float] = {}  # -0.0 and 0.0 are one key, as one location
    for i, w in picks:
        summed[tuple(pool[i])] = summed.get(tuple(pool[i]), 0.0) + w

    def listed(charges):
        return [(tuple(c.location.tolist()), c.weight) for c in charges]

    assert listed(u.charges) == [(loc, w) for loc, w in summed.items() if w != 0.0]
    assert listed(DshFunction(d, u.charges, u.harmonic).charges) == listed(u.charges)


def test_evaluate_single_and_batch_agree():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),
                        Charge(np.array([-0.2, 0.4]), -0.5)),
                    HarmonicPart((("x0", 0.7), ("const", -0.1))))
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-0.3, 0.2]])
    batch = u.evaluate(pts)
    for p, v in zip(pts, batch):
        assert u(p) == pytest.approx(v, rel=1e-14)


def test_evaluate_infinite_at_charges():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),
                        Charge(np.array([-0.2, 0.4]), -0.5)))
    # positive weight -> kernel -inf times +1 -> -inf; negative weight -> +inf
    assert u([0.3, 0.1]) == -math.inf
    assert u([-0.2, 0.4]) == math.inf


def test_scale_multiplies_values():
    u = DshFunction(2, (Charge(np.array([0.3, 0.1]), 1.0),),
                    HarmonicPart((("x1", 2.0),)))
    w = u.scale(3.0)
    pts = np.array([[0.5, -0.2], [1.5, 0.3]])
    assert np.allclose(w.evaluate(pts), 3.0 * u.evaluate(pts), rtol=1e-14)
    with pytest.raises(ValueError):
        u.scale(-1.0)
    with pytest.raises(ValueError):
        u.scale(0.0)


def test_riesz_variations_split_by_sign():
    u = DshFunction(2, (Charge(np.array([0.1, 0.0]), 2.0),
                        Charge(np.array([0.0, 0.5]), -1.5)))
    lower = u.riesz_lower_variation()
    assert lower.total_mass == pytest.approx(1.5)
    assert np.allclose(lower.atoms[0].location, [0.0, 0.5])


def test_singular_angles_on_detects_near_circle_charges():
    u = DshFunction(2, (Charge(np.array([2.0, 0.0]), 1.0),
                        Charge(np.array([0.0, 0.5]), -1.0)))
    angles = u.singular_angles_on(np.zeros(2), 2.0)
    assert angles == pytest.approx([0.0])
    assert u.singular_angles_on(np.zeros(2), 1.0) is None


def test_kernel_witness_values_and_bounds():
    y = np.array([0.3, 0.2])
    u = kernel_witness(y, 1.0, 2.0, 2)
    # value at x is kappa(R + r) - kappa(|x - y|)
    x = np.array([1.2, -0.5])
    expected = kappa(3.0, 2) - kappa(float(np.linalg.norm(x - y)), 2)
    assert u(x) == pytest.approx(expected, rel=1e-14)
    assert u(y) == math.inf
    with pytest.raises(ValueError):
        kernel_witness(y, 2.0, 1.0, 2)


def _gradient(u, x):
    """grad u at x for a u with no charges, by central differences (exact
    up to rounding for the quadratic harmonic terms)."""
    d = u.dimension
    grad = np.zeros(d)
    h = 1e-6
    for i in range(d):
        e = h * np.eye(d)[i]
        grad[i] += float(u.harmonic.evaluate(np.array([x + e, x - e]), d) @ [1.0, -1.0]) / (2 * h)
    return grad


def _distances(pts, c):
    """|p - c| for each row p, from the squares summed one column at a time
    as ``row_norms`` sums them, except where that sum fell below the
    smallest normal number: there np.hypot, which does not underflow."""
    v = pts - c
    squares = sum(v[:, j] * v[:, j] for j in range(v.shape[1]))
    dist = np.sqrt(squares)
    low = squares < np.finfo(float).tiny
    dist[low] = np.hypot.reduce(v[low], axis=1)
    return dist


def _per_charge_evaluate(u, pts):
    """u as the plain per-charge sum: h + sum w kappa(|p - c|)."""
    out = u.harmonic.evaluate(pts, u.dimension)
    with np.errstate(over="ignore"):
        for ch in u.charges:
            out = out + ch.weight * kappa(_distances(pts, ch.location), u.dimension)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_charge_sum_matches_the_per_charge_sum_bit_for_bit(data):
    # d = 4 takes kappa's power branch.  A point exactly on a charge gives
    # +-inf, and no RuntimeWarning (which the suite turns into an error).
    d = data.draw(st.sampled_from([2, 3, 4]))
    labels = [lb for lb in HARMONIC_LABELS
              if not (d == 2 and lb == "x2" or d > 2 and lb.startswith(("re_", "im_")))]
    unit = st.floats(-1.0, 1.0)
    point = st.lists(unit, min_size=d, max_size=d).map(np.array)
    charges = data.draw(st.lists(st.builds(Charge, point, st.floats(-2.0, 2.0).filter(bool)),
                                 min_size=1, max_size=8))
    terms = tuple((lb, data.draw(st.floats(-2.0, 2.0))) for lb in
                  data.draw(st.lists(st.sampled_from(labels), unique=True)))
    u = DshFunction(d, tuple(charges), HarmonicPart(terms))
    # Not all merged away.  In d > 2, kappa overflows to -inf within
    # max ** (-1 / (d - 2)) of a charge (5.6e-309 in d = 3), so a point that
    # close to two charges of opposite weight has no float value.
    reach = np.finfo(float).max ** (-1.0 / (d - 2)) if d > 2 else 0.0
    assume(u.charges and all(math.dist(a.location, b.location) > 2.0 * reach
                             for a, b in itertools.combinations(u.charges, 2)))
    rows = data.draw(st.lists(point, min_size=1, max_size=12))
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), u.charges[0].location.copy())
    if data.draw(st.booleans()):
        # Within 1e-160 of a charge the squared distance underflows, and the
        # fused sum hands the pair back to np.hypot.
        near = st.floats(-1e-160, 1e-160)
        offset = np.array(data.draw(st.lists(near, min_size=d, max_size=d)))
        rows.insert(data.draw(st.integers(0, len(rows))), u.charges[-1].location + offset)
    pts = np.array(rows)
    layout = data.draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        pts = np.asfortranarray(pts)
    elif layout == "strided":
        wide = np.zeros((2 * len(rows), d + 1))
        wide[::2, 1:] = pts
        pts = wide[::2, 1:]
    expected = _per_charge_evaluate(u, pts)
    assert np.array_equal(u.evaluate(pts), expected)
    value = u.evaluate(pts[0])
    assert isinstance(value, float)
    assert value == expected[0]
    on_charge = u.evaluate(u.charges[0].location)
    assert on_charge == -math.copysign(math.inf, u.charges[0].weight)


@pytest.mark.parametrize("point, value", [
    ([0.0, 0.0], -math.inf),
    ([0.0, 1e-170], math.log(1e-170) - math.log(1.457e-163 - 1e-170)),
], ids=["on-one", "between"])
def test_evaluate_near_two_opposite_charges(point, value):
    # The two charges are 1.457e-163 apart, so every squared difference
    # underflows: summed plainly, both distances read 0 and the sum is nan.
    u = DshFunction(2, (Charge([0.0, 0.0], 1.0), Charge([0.0, 1.457e-163], -1.0)))
    assert u.evaluate(point) == pytest.approx(value, rel=1e-15)
    assert u.evaluate(np.array([point, [1.0, 1.0]]))[0] == pytest.approx(value, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_on_a_charge_next_to_an_overflowing_one():
    # In d = 3, kappa of 1e-309 overflows to -inf, so the charge of weight
    # -1 adds +inf at the origin, where the charge of weight +1 sits: the
    # value there is that charge's -inf, not inf - inf.
    u = DshFunction(3, (Charge([0.0, 0.0, 0.0], 1.0), Charge([0.0, 0.0, 1e-309], -1.0)))
    assert u.evaluate([0.0, 0.0, 0.0]) == -math.inf
    values = u.evaluate(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-309], [1.0, 0.0, 0.0]]))
    assert values[0] == -math.inf and values[1] == math.inf
    assert values[2] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("label", HARMONIC_LABELS)
def test_gradient_bound_of_each_harmonic_label_is_attained_or_exceeded(label):
    # Every label, every point of a ball about a fixed centre.
    d = 2 if label.startswith(("re_", "im_")) else 3
    u = DshFunction(d, harmonic=HarmonicPart(((label, -1.5),)))
    p, rho = np.array([0.4, -0.7, 0.2][:d]), 0.3
    rng = np.random.default_rng(0)
    steps = rng.normal(size=(200, d))
    steps *= rho * rng.uniform(0.0, 1.0, (200, 1)) / np.linalg.norm(steps, axis=1)[:, np.newaxis]
    bound = float(u.harmonic.gradient_bound(p[np.newaxis], rho)[0])
    worst = max(np.linalg.norm(_gradient(u, p + v)) for v in steps)
    assert worst <= bound * (1.0 + 1e-9) + 1e-6


def test_rational_function_algebra():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    g = RationalFunction(zeros=f.poles, poles=f.zeros, scale=1.0 / f.scale)
    assert g.zeros == (2.0 + 0j, 2.0 + 0j)
    assert g.poles == (0.5 + 0j,)
    z = 1.0 + 1.0j
    assert g.log_abs(z) == pytest.approx(-f.log_abs(z), rel=1e-14)
    prod = RationalFunction(zeros=f.zeros + g.zeros, poles=f.poles + g.poles,
                            scale=f.scale * g.scale)
    assert prod.zeros == () and prod.poles == ()
    assert prod.log_abs(z) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        RationalFunction(scale=0.0)


def test_rational_function_reduction_and_values():
    f = RationalFunction(zeros=(1.0, 2.0), poles=(2.0, 3.0), scale=2.0)
    assert f.zeros == (1.0 + 0.0j,)
    assert f.poles == (3.0 + 0.0j,)
    z = 0.5 + 0.25j
    assert f.log_abs(z) == pytest.approx(
        math.log(abs(2.0 * (z - 1.0) / (z - 3.0))), rel=1e-13)
    assert f.log_abs(1.0) == -math.inf
    assert f.log_abs(3.0) == math.inf
    with pytest.raises(ValueError):
        RationalFunction(scale=0.0)


def test_from_rational_matches_log_abs():
    f = RationalFunction(zeros=(0.5, -0.25 + 0.1j), poles=(2.0, 2.0), scale=1.5)
    u = from_rational(f)
    assert u.dimension == 2
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = complex(*rng.uniform(-3, 3, size=2))
        assert u([z.real, z.imag]) == pytest.approx(f.log_abs(z), rel=1e-12, abs=1e-12)


def test_positive_part_integral_constants():
    circ = Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 1.0, 2.0),))
    up = DshFunction(2, (), HarmonicPart((("const", 3.0),)))
    down = DshFunction(2, (), HarmonicPart((("const", -1.0),)))
    assert positive_part_integral(up, circ) == pytest.approx(6.0, rel=1e-12)
    assert positive_part_integral(down, circ) == 0.0


def test_positive_part_integral_log_distance():
    # U = ln|z - 3| is positive on the unit circle, so the positive part
    # integral equals the plain mean, which is ln 3 by the mean value
    # property outside the singularity.
    circ = Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 1.0, 1.0),))
    u = from_rational(RationalFunction(zeros=(3.0,)))
    assert positive_part_integral(u, circ) == pytest.approx(math.log(3.0), rel=1e-10)


# Under a cap of 8 pieces these ring integrals over an off-centre density
# miss their tolerance: positive_part_integral's rings about the witness's
# charge, and radial_counting's rings that cross its sphere.
_RING_MU = Measure(2, radial=(RadialDensity((0.3, 0.0), (1.0, 2.0), 0.5),))


@pytest.mark.parametrize("label, call", [
    ("positive-part", lambda budget: positive_part_integral(
        kernel_witness((0.1, 0.0), 0.5, 1.0, 2), _RING_MU, QuadSpec(1e-12, 1e-12, 8),
        budget=budget)),
    ("radial-counting", lambda budget: radial_counting(
        _RING_MU, (0.2, 0.1), 0.4, QuadSpec(1e-300, 1e-300, 8), budget=budget)),
], ids=["positive-part", "radial-counting"])
def test_a_ring_integral_that_fails_raises_or_is_charged(label, call):
    with pytest.raises(QuadratureError, match=label):
        call(None)
    budget = ErrorBudget()
    call(budget)
    assert budget.failures == [label]


def test_positive_part_integral_atoms_measure():
    from nevkit.measures import Atom
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.5, 0.0]), 2.0),
                                     Atom(np.array([0.0, -0.5]), 1.0)))
    u = DshFunction(2, (), HarmonicPart((("x0", 1.0),)))
    # max(x0, 0) weighted by the atom masses: 0.5*2 + 0*1
    assert positive_part_integral(u, mu) == pytest.approx(1.0, rel=1e-14)


# A centred shell plus a density off the origin, and witness sites inside
# the ball of radius 1 but off the density's support.
WITNESS_ORACLE_CASES = [
    pytest.param(Measure(dimension=2,
                         spheres=(SphereShell(np.zeros(2), 0.6, 1.0),),
                         radial=(RadialDensity([0.0, 0.2], (0.0, 2.0), 0.3),)),
                 [[0.5, 0.0], [0.0, -0.5], [-0.4, 0.3]], id="d2"),
    pytest.param(Measure(dimension=3,
                         spheres=(SphereShell(np.zeros(3), 0.6, 1.0),),
                         radial=(RadialDensity([0.0, 0.2, 0.0],
                                               (0.0, 0.0, 1.5 / 0.3 ** 3), 0.3),)),
                 [[0.5, 0.0, 0.0], [0.0, -0.5, 0.0]], id="d3"),
]


@pytest.mark.parametrize("mu, sites", WITNESS_ORACLE_CASES)
def test_positive_part_integral_of_a_kernel_witness_is_the_integrated_counting(mu, sites):
    # kappa(R + r) - kappa(|x - y|) is positive exactly on B(y, R + r), so its
    # positive part integrates to integrated_counting(mu, y, R + r), a closed
    # form for the shell and a panel rule for the density.
    r, R = 1.0, 2.0
    for y in sites:
        b = ErrorBudget()
        value = positive_part_integral(kernel_witness(y, r, R, mu.dimension), mu, budget=b)
        assert b.ok, y
        assert abs(value - integrated_counting(mu, y, R + r)) <= b.error + 1e-12, y


_coord = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def dsh_json(draw):
    d = draw(st.sampled_from([2, 3]))
    point = st.lists(_coord, min_size=d, max_size=d)
    charges = st.fixed_dictionaries({"point": point, "weight": _coord})
    terms = st.tuples(st.sampled_from(HARMONIC_LABELS), _coord).map(list)
    return {"dimension": d, "charges": draw(st.lists(charges, max_size=4)),
            "harmonic": draw(st.lists(terms, max_size=4))}


@given(dsh_json())
def test_dsh_json_round_trip(data):
    # The parser builds the function the constructor builds from the same
    # values, coincident charges merged.  It rejects a harmonic label outside
    # the dimension (x2 in the plane, re_z^k or im_z^k in space), naming the
    # first such entry, whatever its coefficient.
    d = data["dimension"]
    outside = [i for i, (label, _) in enumerate(data["harmonic"])
               if label == "x2" and d == 2 or label.startswith(("re_", "im_")) and d > 2]
    if outside:
        with pytest.raises(ValueError, match=rf"^function\.harmonic\[{outside[0]}\]: "):
            dsh_from_json(json.loads(json.dumps(data)))
        return
    u = dsh_from_json(json.loads(json.dumps(data)))
    built = DshFunction(d, tuple(Charge(np.array(c["point"]), c["weight"])
                                 for c in data["charges"]),
                        HarmonicPart(tuple(map(tuple, data["harmonic"]))))
    assert u.dimension == built.dimension
    assert [(c.location.tolist(), c.weight) for c in u.charges] == \
        [(c.location.tolist(), c.weight) for c in built.charges]
    assert u.harmonic == built.harmonic


def test_dsh_from_json_accepts_rational_shorthand():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0))
    u = dsh_from_json({"rational": {"zeros": [0.5], "poles": [2.0, 2.0]}})
    z = 1.0 + 0.5j
    assert u([z.real, z.imag]) == pytest.approx(f.log_abs(z), rel=1e-12)


# A complex number in the schema: a real number or an [re, im] pair.
_complex_json = _coord | st.tuples(_coord, _coord).map(list)


def _as_complex(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


@given(st.lists(_complex_json, max_size=4), st.lists(_complex_json, max_size=4),
       _complex_json.filter(lambda v: _as_complex(v) != 0))
def test_rational_json_round_trip(zeros, poles, scale):
    data = {"zeros": zeros, "poles": poles, "scale": scale}
    f = rational_from_json(json.loads(json.dumps(data)))
    assert f == RationalFunction(tuple(map(_as_complex, zeros)),
                                 tuple(map(_as_complex, poles)), _as_complex(scale))


# ------------------------------------------- ring integrals of densities

# The d = 3 benchmark geometry, unrotated: the spheres about the density's
# centre first touch {u > 0} at radius 0.2711297 and never leave it.
SPATIAL_U = DshFunction(3, (Charge([0.4985, -0.5996, 0.6489], 1.0),
                            Charge([0.3449, 0.0333, 0.6410], -0.5577),
                            Charge([-0.5161, 0.6410, 0.0425], 0.6610)),
                        HarmonicPart((("const", 0.3),)))
SPATIAL_DENSITY = RadialDensity([0.1072, 0.2549, 0.1025], (0.0, 0.0, 1.5 / 0.3312 ** 3),
                                0.3312)
# A planar density whose circles first touch {u > 0} and later lie in it:
# u is negative on a region about the positive charge inside the disc.
PLANAR_U = DshFunction(2, (Charge([0.25, -0.08], 0.4), Charge([-0.5, 0.8], -0.6)),
                       HarmonicPart((("const", 0.73),)))
PLANAR_DENSITY = RadialDensity([0.2, -0.1], (0.5, 1.0), 0.45)


def _contact_along_rays(u, comp, last=False):
    """The distance from the density's centre of the nearest or, with
    ``last``, the farthest point of {u = 0} within its support: the first or
    last zero of u along a ray (brentq between 200 sampled radii), minimised
    or maximised over the ray's direction by Nelder-Mead from the best of
    20,000 random directions.  An independent route to a first or last
    contact radius: ``_contact_radii`` finds the zeros of the extremes of u
    over spheres instead."""
    radii = np.linspace(0.0, comp.outer, 201)
    sign = -1.0 if last else 1.0

    def zero_on(v):
        values = u.evaluate(comp.center + radii[:, np.newaxis] * v)
        crossed = np.flatnonzero((values[:-1] > 0.0) != (values[1:] > 0.0))
        if not crossed.size:
            return math.inf
        i = crossed[-1] if last else crossed[0]
        return sign * brentq(lambda t: u.evaluate(comp.center + t * v), radii[i], radii[i + 1],
                             xtol=1e-15)

    dirs = np.random.default_rng(0).normal(size=(20_000, u.dimension))
    dirs /= np.linalg.norm(dirs, axis=1)[:, np.newaxis]
    before = np.full(len(dirs), float(u.evaluate(comp.center)))
    best = None
    for s in radii[1:]:
        values = u.evaluate(comp.center + s * dirs)
        crossed = np.flatnonzero((before > 0.0) != (values > 0.0))
        if crossed.size:
            best = dirs[crossed[0]]
            if not last:
                break
        before = values
    assert best is not None
    if last and values.max() > 0.0 >= values.min():
        return comp.outer  # {u = 0} meets the support's boundary
    tangent = np.linalg.svd(best[np.newaxis])[2][1:]

    def objective(t):
        v = best + t @ tangent
        return zero_on(v / np.linalg.norm(v))

    res = minimize(objective, np.zeros(len(tangent)), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-15})
    assert res.success
    return float(sign * res.fun)


def _panel_rule(u, comp, breaks, cosine=False, tol=1e-12):
    """The ring integral of ``comp`` against max(u, 0) by bisecting
    Gauss-Legendre panels, 16 against 32 nodes, between the given breaks.
    Returns the value and an error bound that includes the ring means' own
    error estimates.

    Past a contact radius s0 the ring means grow like (s - s0)**2 in space,
    which plain panels integrate well, and like (s - s0)**1.5 in the plane,
    which needs ``cosine``: panels mapped by s = a + (b - a)(1 - cos)/2.  The
    map puts nodes within 1e-7 of s0, where the spatial means drop caps
    narrower than their grid, so it is not used there."""
    def panel(a, b, n):
        x, w = np.polynomial.legendre.leggauss(n)
        if cosine:
            theta = 0.5 * math.pi * (1.0 + x)
            nodes = a + 0.5 * (b - a) * (1.0 - np.cos(theta))
            w = w * 0.5 * math.pi * np.sin(theta)
        else:
            nodes = a + 0.5 * (b - a) * (1.0 + x)
        weights = 0.5 * (b - a) * w * comp.density(nodes)
        value = error = 0.0
        for s, weight in zip(nodes, weights):
            budget = ErrorBudget()
            mean = positive_part_mean(u.evaluate, s, u.dimension, center=comp.center,
                                      budget=budget)
            assert budget.ok
            value += weight * mean
            error += weight * budget.error
        return value, error

    total = bound = 0.0
    stack = [(a, b, 0) for a, b in zip(breaks, breaks[1:])]
    while stack:
        a, b, depth = stack.pop()
        (coarse, _), (fine, inner) = panel(a, b, 16), panel(a, b, 32)
        if abs(fine - coarse) <= tol * (b - a):
            total += fine
            bound += abs(fine - coarse) + inner
        else:
            assert depth < 12
            stack += [(a, 0.5 * (a + b), depth + 1), (0.5 * (a + b), b, depth + 1)]
    return total, bound


def test_contact_radius_of_the_spatial_density_matches_dense_optimisation():
    (radius,) = _contact_radii(SPATIAL_U, SPATIAL_DENSITY.center, SPATIAL_DENSITY.outer)
    assert radius == pytest.approx(0.2711297, abs=1e-7)
    exact = _contact_along_rays(SPATIAL_U, SPATIAL_DENSITY)
    assert abs(radius - exact) <= 1e-9


def test_contact_extrema_take_few_vectorised_calls(monkeypatch):
    # The scan's first sphere, of radius 0, is its centre, one point; the
    # other 32 are grid calls.  Each extremum is a patch search of calls of
    # up to _PATCH_DEPTH patches of 25 points, after one grid call at a
    # radius the scan missed; at the bracket's two ends, both scanned, it
    # starts from the scan's best node.
    sizes = []
    evaluate = DshFunction.evaluate

    def counted(self, x):
        sizes.append(len(np.atleast_2d(x)))
        return evaluate(self, x)

    monkeypatch.setattr(DshFunction, "evaluate", counted)
    (radius,) = _contact_radii(SPATIAL_U, SPATIAL_DENSITY.center, SPATIAL_DENSITY.outer)
    grid = len(sphere_grid(3))
    assert sizes[0] == 1
    searches = sizes.count(grid) - _CONTACT_RADII + 2
    patches = [n for n in sizes[1:] if n != grid]
    assert set(patches) <= {25 * k for k in range(1, _PATCH_DEPTH + 1)}
    assert searches > 2 and len(patches) <= 16 * searches
    assert radius == pytest.approx(0.2711297, abs=1e-7)


def test_contact_search_takes_the_centre_as_one_point(monkeypatch):
    # u = 0.5 - 0.1 / |x - q| is negative exactly within 0.2 of q, which
    # lies 0.195 from the centre c, so the spheres about c first touch
    # {u > 0} at 0.005, inside the scan's first cell (0, 0.4 / 32), and last
    # at 0.395.  The sphere of radius 0 is c itself: u is evaluated there
    # once, for the scan and for the bracket's end, not on copies of c.
    q = np.array([0.195, 0.0, 0.0])
    u = DshFunction(3, (Charge(q, 0.1),), HarmonicPart((("const", 0.5),)))
    calls = []
    evaluate = DshFunction.evaluate

    def counted(self, x):
        calls.append(np.atleast_2d(x))
        return evaluate(self, x)

    monkeypatch.setattr(DshFunction, "evaluate", counted)
    radii = sorted(_contact_radii(u, np.zeros(3), 0.4))
    assert radii == pytest.approx([0.005, 0.395], abs=1e-12)
    at_centre = [x for x in calls if np.all(x == 0.0)]
    assert len(at_centre) == 1 and len(at_centre[0]) == 1


def test_spatial_density_integral_matches_a_panel_rule():
    budget = ErrorBudget()
    mu = Measure(3, radial=(SPATIAL_DENSITY,))
    value = positive_part_integral(SPATIAL_U, mu, budget=budget)
    assert budget.ok
    contact = _contact_along_rays(SPATIAL_U, SPATIAL_DENSITY)
    reference, bound = _panel_rule(SPATIAL_U, SPATIAL_DENSITY,
                                   [0.0, contact, SPATIAL_DENSITY.outer])
    assert abs(value - reference) <= budget.error + bound, (value, reference)


def test_last_contact_is_found_and_integrated():
    # u = 0.5 - 0.1 / |x - q| with q = (0.05, 0, 0) is negative exactly in the
    # ball of radius 0.2 about q.  So the spheres about the origin first touch
    # {u > 0} at radius 0.15 (where max u = 0) and lie in it beyond 0.25
    # (where min u = 0).  0.15 is one of the scanned radii, 12 * 0.4 / 32, so
    # its bracket needs widening.  The positive-part means are closed forms:
    # M(s) = [0.25 t^2 - 0.1 t] from max(0.2, |s - a|) to s + a, over 2 a s.
    u = DshFunction(3, (Charge([0.05, 0.0, 0.0], 0.1),), HarmonicPart((("const", 0.5),)))
    comp = RadialDensity([0.0, 0.0, 0.0], (1.0, 2.0), 0.4)
    radii = sorted(_contact_radii(u, comp.center, comp.outer))
    assert radii == pytest.approx([0.15, 0.25], abs=1e-12)

    def ring_mean(s, a=0.05):
        lo = max(0.2, abs(s - a))
        if lo >= s + a:
            return 0.0
        return ((0.25 * (s + a) ** 2 - 0.1 * (s + a)) - (0.25 * lo ** 2 - 0.1 * lo)) / (2 * a * s)

    with mpmath.workdps(30):
        exact = float(mpmath.quad(lambda s: comp.density(s) * ring_mean(s),
                                  [0, 0.15, 0.25, comp.outer]))
    budget = ErrorBudget()
    value = positive_part_integral(u, Measure(3, radial=(comp,)), budget=budget)
    assert budget.ok
    assert abs(value - exact) <= budget.error + 1e-15, (value, exact)


def test_planar_density_contacts_and_integral(monkeypatch):
    radii = sorted(_contact_radii(PLANAR_U, PLANAR_DENSITY.center, PLANAR_DENSITY.outer))
    first = _contact_along_rays(PLANAR_U, PLANAR_DENSITY)
    last = _contact_along_rays(PLANAR_U, PLANAR_DENSITY, last=True)
    assert radii == pytest.approx([first, last], abs=1e-9)
    rings = []

    def counted(g, s, *args, **kwargs):
        rings.append(s)
        return positive_part_mean(g, s, *args, **kwargs)

    monkeypatch.setattr("nevkit.dsh.positive_part_mean", counted)
    budget = ErrorBudget()
    value = positive_part_integral(PLANAR_U, Measure(2, radial=(PLANAR_DENSITY,)),
                                   budget=budget)
    assert budget.ok
    assert len(rings) <= 102
    reference, bound = _panel_rule(PLANAR_U, PLANAR_DENSITY,
                                   [0.0, *radii, PLANAR_DENSITY.outer], cosine=True)
    assert abs(value - reference) <= budget.error + bound, (value, reference)


@st.composite
def _densities_and_functions(draw):
    """A density and a function whose harmonic constant puts a zero of u
    inside the density's support.  The charges stay outside the support, so
    no ring passes through one; a planar ring within 5% of a charge's
    distance still takes the tanh-sinh rule split at the charge's angle."""
    d = draw(st.sampled_from([2, 3]))
    unit = st.floats(-1.0, 1.0)
    center = 0.3 * np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    outer = draw(st.floats(0.15, 0.45))
    coeffs = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))
    assume(max(coeffs) > 0.1)
    charges = []
    for _ in range(draw(st.integers(1, 3))):
        v = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
        assume(np.linalg.norm(v) > 0.1)
        where = center + v / np.linalg.norm(v) * draw(st.floats(outer + 0.05, 1.5))
        charges.append(Charge(where, draw(st.sampled_from([-1.0, 1.0]))
                              * draw(st.floats(0.2, 1.0))))
    zero = center + outer * draw(st.floats(0.1, 0.9)) * np.eye(d)[0]
    level = DshFunction(d, tuple(charges)).evaluate(zero)
    u = DshFunction(d, tuple(charges), HarmonicPart((("const", -level),)))
    return u, RadialDensity(center, tuple(coeffs), outer)


@settings(max_examples=5, deadline=None)
@given(_densities_and_functions())
# Split only at the charges' distances, the reference route gave
# 0.0332396451050517 with an error estimate of 7.5e-12 here, 2.0e-11 from
# the exact value 0.0332396450848314 (mpmath, the ring mean in closed form).
@example((DshFunction(3, (Charge(np.array([-0.47971625, 0.0, 0.78722667]), -1.0),),
                      HarmonicPart((("const", -0.9548836285766121),))),
          RadialDensity(np.zeros(3), (1.0,), 0.25)))
# {u = 0} leaves the support: there is no last contact radius inside it.
@example((DshFunction(3, (Charge(np.array([0.0, 0.0, 0.5]), -1.0),),
                      HarmonicPart((("const", -1.9402850002906638),))),
          RadialDensity(np.zeros(3), (1.0,), 0.25)))
# A planar first contact at 0.19140625.
@example((DshFunction(2, (Charge(np.array([-0.375, 0.0]), -1.0),),
                      HarmonicPart((("const", -0.5684437020589881),))),
          RadialDensity(np.zeros(2), (1.0,), 0.21875)))
# A planar first contact at 0.0390625, next to the centre.
@example((DshFunction(2, (Charge(np.array([0.359375, 0.0]), -0.203125),),
                      HarmonicPart((("const", -0.2312493213093597),))),
          RadialDensity(np.zeros(2), (1.0,), 0.2)))
# Two charges and a first contact 0.018 from the centre.
@example((DshFunction(3, (Charge(np.array([0.14885651, -0.1662729, 0.57294203]), -0.8648356009315412),
                          Charge(np.array([0.46412982, -0.20849847, 0.075]), -0.5316172335939386)),
                      HarmonicPart((("const", -3.6310349435397895),))),
          RadialDensity(np.array([0.16531069, -0.20849847, 0.075]), (1.9867307028344858,),
                        0.1974759182535999)))
def test_contact_split_moves_no_value_beyond_the_budgets(case):
    # The reference: the adaptive rule over the same ring means, split at the
    # charges' distances from the centre and at the first and last contact
    # radii found along rays, not by _contact_radii.  Not split at a contact
    # radius, the adaptive rule can under-estimate its error at the kink.
    u, comp = case
    old_budget, new_budget = ErrorBudget(), ErrorBudget()

    def ring(s):
        return positive_part_mean(u.evaluate, s, u.dimension, center=comp.center,
                                  budget=old_budget,
                                  singular_angles=u.singular_angles_on(comp.center, s))

    charges = [float(np.linalg.norm(ch.location - comp.center)) for ch in u.charges]
    contacts = [r for r in (_contact_along_rays(u, comp), _contact_along_rays(u, comp, last=True))
                if 0.0 < r < comp.outer]
    # QUADPACK, as the package's rule over a radius used to be; it reports a
    # missed tolerance as a fourth entry.
    points = sorted({p for p in charges + contacts if 0.0 < p < comp.outer}) or None
    old, error, *rest = quad(lambda s: comp.density(s) * ring(s), 0.0, comp.outer,
                             points=points, epsabs=1e-10, epsrel=1e-9, limit=2 ** 15,
                             full_output=1)
    old_budget.add(QuadResult(old, error, len(rest) == 1 and math.isfinite(old)))
    new = positive_part_integral(u, Measure(u.dimension, radial=(comp,)), budget=new_budget)
    assume(old_budget.ok and new_budget.ok)
    assert abs(new - old) <= old_budget.error + new_budget.error, (new, old)


def test_contact_split_matches_the_exact_ring_integral():
    # A case the property above fails on (seed 3): its pre-split route gives
    # 0.0013090867135003654 with an error estimate of 1.0e-15, 9.7e-12 from
    # the exact value.  With u = 1/|x - e3| - c, the mean of u+ over the
    # sphere S(0, s) is M(s) = ((sqrt(s^2 + 1 - 2 s t0) - (1 - s)) / s
    # - c (1 - t0)) / 2, where u > 0 exactly for cos(angle to e3) > t0.
    c = 0.9995120760870788
    u = DshFunction(3, (Charge(np.array([0.0, 0.0, 1.0]), -1.0),),
                    HarmonicPart((("const", -c),)))
    comp = RadialDensity(np.zeros(3), (0.0, 1.0), 0.25)
    budget = ErrorBudget()
    value = positive_part_integral(u, Measure(3, radial=(comp,)), budget=budget)
    assert budget.ok

    with mpmath.workdps(30):
        cm = mpmath.mpf(c)

        def ring(s):
            t0 = min(max((s * s + 1 - 1 / cm ** 2) / (2 * s), -1), 1)
            return ((mpmath.sqrt(s * s + 1 - 2 * s * t0) - (1 - s)) / s - cm * (1 - t0)) / 2

        # Split where the sphere first touches u = 0.
        exact = float(mpmath.quad(lambda s: s * ring(s), [0, 1 / cm - 1, mpmath.mpf(1) / 4]))
    assert abs(value - exact) <= budget.error, (value, exact, budget.error)


def test_contact_split_leaves_one_panel_each_side(monkeypatch):
    # Split at the contact radius, the rule over a radius settles each side
    # of it with one cosine-mapped Gauss-Kronrod piece of 17 nodes: 34 ring
    # means, where QUADPACK, not told of the contact, chased the kink
    # through 315.  Each piece's means not certified by the sphere range
    # are one stack.
    radii, stacks = [], []
    stacked = dsh._sphere3_positive_means

    def counted(g, center, s, spec):
        radii.extend(s)
        stacks.append(len(s))
        return stacked(g, center, s, spec)

    monkeypatch.setattr(dsh, "_sphere3_positive_means", counted)
    budget = ErrorBudget()
    positive_part_integral(SPATIAL_U, Measure(3, radial=(SPATIAL_DENSITY,)),
                           QuadSpec(max_subdivisions=40), budget=budget)
    assert budget.ok
    assert 0 < len(radii) <= 34 and len(stacks) == 2


def _kronrod_radii(lo, hi):
    """The 17 radii at which ``radius_integral`` evaluates its first piece."""
    radii = []

    def record(s):
        radii.append(s.copy())
        return np.zeros_like(s)

    radius_integral(record, lo, hi)
    return radii[0]


def _stack_cases():
    # d = 3: the spatial density's first piece, whose rings are certified,
    # all negative or mixed.
    yield SPATIAL_U, SPATIAL_DENSITY.center, _kronrod_radii(0.0, SPATIAL_DENSITY.outer), QuadSpec()
    # d = 3: a tight tolerance sends mixed spheres past the first rung, and
    # a charge on a node of the 0.3-sphere's sign grid makes a value there
    # infinite.
    node = SPATIAL_DENSITY.center + 0.3 * sphere_grid(3)[1000]
    u = DshFunction(3, (*SPATIAL_U.charges, Charge(node, -0.01)), SPATIAL_U.harmonic)
    yield u, SPATIAL_DENSITY.center, np.array([0.25, 0.3, 0.32]), QuadSpec(abs_tol=1e-13,
                                                                            rel_tol=1e-13)
    # d = 2: planar means, one sphere at a time.
    yield PLANAR_U, PLANAR_DENSITY.center, _kronrod_radii(0.0, PLANAR_DENSITY.outer), QuadSpec()


@pytest.mark.parametrize("u, center, radii, spec", list(_stack_cases()),
                         ids=["spatial-piece", "tight-and-infinite", "planar-piece"])
def test_a_stack_of_means_is_one_call_per_radius_bit_for_bit(u, center, radii, spec):
    stacked, single = ErrorBudget(), ErrorBudget()
    values = u.positive_mean(center, radii, spec, budget=stacked)
    expected = [u.positive_mean(center, float(r), spec, budget=single) for r in radii]
    assert values.tolist() == expected
    assert stacked.error == single.error
    assert stacked.failures == single.failures

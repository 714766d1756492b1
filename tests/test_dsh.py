import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nevkit.dsh import (
    HARMONIC_LABELS,
    Charge,
    DshFunction,
    HarmonicPart,
    RationalFunction,
    dsh_from_json,
    dsh_to_json,
    from_rational,
    kernel_witness,
    positive_part_integral,
    rational_from_json,
    rational_to_json,
)
from nevkit.kernels import kappa
from nevkit.measures import Measure, SphereShell
from nevkit.quadrature import sphere_mean


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


def test_rational_function_algebra():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    g = RationalFunction(zeros=f.poles, poles=f.zeros, scale=1.0 / f.scale)
    assert g.zeros == (2.0 + 0j, 2.0 + 0j)
    assert g.poles == (0.5 + 0j,)
    assert g.n_poles == 1 and f.n_poles == 2
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
    assert f.degree == 1
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


def test_positive_part_integral_atoms_measure():
    from nevkit.measures import Atom
    mu = Measure(dimension=2, atoms=(Atom(np.array([0.5, 0.0]), 2.0),
                                     Atom(np.array([0.0, -0.5]), 1.0)))
    u = DshFunction(2, (), HarmonicPart((("x0", 1.0),)))
    # max(x0, 0) weighted by the atom masses: 0.5*2 + 0*1
    assert positive_part_integral(u, mu) == pytest.approx(1.0, rel=1e-14)


_coord = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def dsh_functions(draw):
    d = draw(st.sampled_from([2, 3]))
    point = st.lists(_coord, min_size=d, max_size=d).map(np.array)
    charges = draw(st.lists(st.builds(Charge, point, _coord), max_size=4))
    terms = draw(st.lists(st.tuples(st.sampled_from(HARMONIC_LABELS), _coord),
                          max_size=4))
    return DshFunction(d, tuple(charges), HarmonicPart(tuple(terms)))


@given(dsh_functions())
def test_dsh_json_round_trip(u):
    back = dsh_from_json(json.loads(json.dumps(dsh_to_json(u))))
    assert back.dimension == u.dimension
    assert [(c.location.tolist(), c.weight) for c in back.charges] == \
        [(c.location.tolist(), c.weight) for c in u.charges]
    assert back.harmonic == u.harmonic


def test_dsh_from_json_accepts_rational_shorthand():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0))
    u = dsh_from_json({"rational": rational_to_json(f)})
    z = 1.0 + 0.5j
    assert u([z.real, z.imag]) == pytest.approx(f.log_abs(z), rel=1e-12)


_complex = st.complex_numbers(max_magnitude=5.0)


@given(st.lists(_complex, max_size=4), st.lists(_complex, max_size=4),
       _complex.filter(lambda z: z != 0))
def test_rational_json_round_trip(zeros, poles, scale):
    f = RationalFunction(tuple(zeros), tuple(poles), scale)
    back = rational_from_json(json.loads(json.dumps(rational_to_json(f))))
    assert back.zeros == f.zeros
    assert back.poles == f.poles
    assert back.scale == f.scale

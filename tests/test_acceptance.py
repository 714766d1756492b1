"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single summary line; the pytest verdict for the test
is the pass/fail line for that guarantee.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from nevkit import measures, quadrature
from nevkit.cli import RunOptions, bundled_scenario_paths, execute_scenario
from nevkit.cli import main as cli_main
from nevkit.criterion import (
    BASE_TOLERANCE,
    FAILS,
    HOLDS,
    IDENTITY_TOLERANCE,
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
)
from nevkit.kernels import green_ball, kappa, poisson_kernel
from nevkit.measures import (
    Atom,
    CountingFunction,
    Measure,
    RadialDensity,
    SphereShell,
    integrated_counting,
)
from nevkit.nevanlinna import classical_N, classical_T, difference_T
from nevkit.quadrature import stieltjes_against_jumps
from nevkit.scenario import scenario_from_json


def _uniform_in_ball(rng, d, radius):
    while True:
        p = rng.uniform(-radius, radius, size=d)
        if np.linalg.norm(p) < radius:
            return p


def _random_rational(rng):
    def draw_roots():
        roots = []
        while len(roots) < 5:
            if roots and rng.uniform() < 0.45:
                break
            mult = min(int(rng.integers(1, 4)), 5 - len(roots))
            z = complex(*_uniform_in_ball(rng, 2, 3.0))
            roots.extend([z] * mult)
        return tuple(roots)

    scale = float(rng.uniform(0.3, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return RationalFunction(zeros=draw_roots(), poles=draw_roots(), scale=scale)


def test_acceptance_01_characteristic_identity():
    # T(R, f) - N(r, f) agrees with the difference characteristic of ln|f|
    # on (r, R) for randomized rational functions.
    rng = np.random.default_rng(1)
    r, R = 1.0, 2.0
    worst = 0.0
    for _ in range(20):
        f = _random_rational(rng)
        T = classical_T(f, R)
        N = classical_N(f, r)
        diff = difference_T(from_rational(f), r, R)
        rel = abs(T - N - diff) / (1.0 + abs(T))
        worst = max(worst, rel)
        assert rel < 1e-7, f"identity violated for {f}: rel residual {rel:.3e}"
    print(f"acceptance 01 characteristic identity: PASS (worst rel {worst:.2e})")


def test_acceptance_02_counting_identity_and_inequality():
    # The integral of the radial profile against t^(1-d) equals the jump sum
    # against kappa(r) - kappa(t), and truncating the integral at r0 while
    # paying h(r)(kappa(r) - kappa(r0)) only increases the value.
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        r = float(rng.uniform(0.5, 2.0))
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.uniform(0.05 * r, 0.9 * r, size=k))
        masses = rng.uniform(0.1, 2.0, size=k)
        h = CountingFunction(jumps=tuple(zip(radii.tolist(), masses.tolist())))

        def riemann(a, b):
            return quad(lambda t: h.value(t) / t ** (d - 1), a, b, points=radii.tolist(),
                        epsabs=1e-10, epsrel=1e-9, limit=2 ** 15)[0]

        lhs = riemann(0.0, r)
        rhs = stieltjes_against_jumps(lambda t: kappa(r, d) - kappa(t, d), h, 0.0, r)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        assert rel < 1e-9, f"identity off by rel {rel:.3e} (d={d}, r={r})"

        # same numbers through the measure layer, atoms placed on the radii
        atoms = []
        for radius, mass in zip(radii, masses):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            atoms.append(Atom(direction * radius, float(mass)))
        mu = Measure(dimension=d, atoms=tuple(atoms))
        via_measure = integrated_counting(mu, np.zeros(d), r)
        assert abs(via_measure - rhs) / max(1.0, abs(rhs)) < 1e-9

        r0 = float(rng.uniform(0.1 * r, r))
        bound = h.value(r) * (kappa(r, d) - kappa(r0, d)) + riemann(0.0, r0)
        assert lhs <= bound + 1e-9 * (1.0 + abs(bound)), (
            f"truncation bound violated: {lhs} > {bound}")
    print(f"acceptance 02 counting identity: PASS (worst rel {worst:.2e})")


def _random_charge_model(rng, d):
    n = int(rng.integers(1, 5))
    charges = []
    for _ in range(n):
        w = float(rng.uniform(0.2, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        charges.append(Charge(_uniform_in_ball(rng, d, 0.7), w))
    labels = ["const", "x0", "x1", "x0*x1", "x0^2-x1^2"]
    if d == 2:
        labels += ["re_z^3", "im_z^2"]
    else:
        labels += ["x2"]
    picked = rng.choice(len(labels), size=int(rng.integers(0, 4)), replace=False)
    terms = tuple((labels[i], float(rng.uniform(-1.0, 1.0))) for i in picked)
    return DshFunction(d, tuple(charges), HarmonicPart(terms))


def test_acceptance_03_poisson_jensen_residuals():
    # Interior values match the boundary integral minus the charge sum.
    rng = np.random.default_rng(3)
    R = 1.0
    worst = 0.0
    for d, count in ((2, 20), (3, 10)):
        for _ in range(count):
            u = _random_charge_model(rng, d)
            sites = [c.location for c in u.charges]
            for _ in range(20):
                x = _uniform_in_ball(rng, d, 0.55)
                while min(np.linalg.norm(x - s) for s in sites) < 0.02:
                    x = _uniform_in_ball(rng, d, 0.55)
                rep = verify_poisson_jensen(u, x, R)
                worst = max(worst, abs(rep.residual))
                assert abs(rep.residual) < 1e-6, (
                    f"residual {rep.residual:.3e} at x={x} (d={d})")
    print(f"acceptance 03 poisson-jensen: PASS (worst residual {worst:.2e})")


def test_acceptance_04_kernel_positivity_bounds():
    rng = np.random.default_rng(4)
    r, R = 1.0, 2.0
    samples = 10_000
    violations = 0
    for d in (2, 3):
        # positivity of the boundary kernel
        for _ in range(samples):
            x = _uniform_in_ball(rng, d, 0.995 * R)
            y = rng.normal(size=d)
            y *= R / np.linalg.norm(y)
            if not poisson_kernel(x, y, R, d) > 0.0:
                violations += 1
        # positivity of the interior kernel
        for _ in range(samples):
            x = _uniform_in_ball(rng, d, 0.995 * R)
            y = _uniform_in_ball(rng, d, 0.995 * R)
            if np.linalg.norm(x - y) < 1e-9:
                continue
            if not green_ball(x, y, R, d) > 0.0:
                violations += 1
        # nonnegativity of the shifted-kernel witness on the big ball
        xs = np.array([_uniform_in_ball(rng, d, R) for _ in range(100)])
        for _ in range(100):
            y = _uniform_in_ball(rng, d, r)
            vals = kernel_witness(y, r, R, d).evaluate(xs)
            violations += int(np.sum(vals < 0.0))
    assert violations == 0, f"{violations} positivity violations"
    print("acceptance 04 kernel positivity: PASS (0 violations)")


def test_acceptance_05_main_corollary_reference_scenario():
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    mu = Measure(dimension=2,
                 radial=(RadialDensity([0.0, 0.0], (0.0, 2.0), 1.0),))
    rep = check_corollary(f, mu, 1.0, 2.0, resolution=13)
    assert rep.verdict == HOLDS
    assert rep.margin > 0.0

    # independent dense midpoint quadrature of the positive part over the disc
    m = 801
    axis = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    X, Y = np.meshgrid(axis, axis)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    vals = from_rational(f).evaluate(pts)
    oracle = float(np.maximum(vals, 0.0).sum()) / math.pi * (2.0 / m) ** 2
    assert abs(rep.lhs - oracle) < 1e-5, f"lhs {rep.lhs} vs oracle {oracle}"
    print(f"acceptance 05 main corollary: PASS (margin {rep.margin:.6g}, "
          f"lhs-oracle gap {abs(rep.lhs - oracle):.2e})")


def test_acceptance_06_statement_ii_grid_and_concentration():
    r, R = 1.0, 2.0
    f = RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0)
    functions = [
        DshFunction(2, (), HarmonicPart((("const", 1.0),))),
        kernel_witness(np.array([0.3, 0.2]), r, R, 2),
        from_rational(f),
    ]
    measures = [
        Measure(dimension=2,
                radial=(RadialDensity([0, 0], (0.0, 2.0), 1.0),)),
        Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 1.0, 1.0),)),
        Measure(dimension=2,
                radial=(RadialDensity([0, 0], (0.0, 1.0), 1.0),)),
    ]
    for U in functions:
        for mu in measures:
            rep = check_statement_II(mu, U, r, R, resolution=9)
            assert rep.verdict == HOLDS, f"grid pair failed: {rep.diagnostics}"

    # sharpened bound tracks the left side as mass concentrates at the
    # witness singularity
    y = np.array([0.3, 0.2])
    witness = kernel_witness(y, r, R, 2)
    ratios = []
    for rho in (0.4, 0.1, 0.025):
        mu = Measure(dimension=2, spheres=(SphereShell(y, rho, 1.0),))
        b = statement_ii_bounds(mu, witness, r, R, resolution=9)
        assert b.lhs == pytest.approx(math.log(3.0 / rho), rel=1e-9)
        assert b.lhs <= b.rhs_tight
        ratios.append(b.rhs_tight / b.lhs)
    assert ratios[0] > ratios[1] > ratios[2], f"ratios not shrinking: {ratios}"
    print(f"acceptance 06 statement II grid: PASS (tight/lhs ratios "
          f"{', '.join(f'{q:.3f}' for q in ratios)})")


def test_acceptance_07_equivalence_coherence():
    rng = np.random.default_rng(7)
    admissible = [
        Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 1.0, 1.0),)),
        Measure(dimension=2, spheres=(SphereShell(np.array([0.2, -0.1]), 0.6, 0.7),)),
        Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 0.4, 0.5),
                                      SphereShell(np.array([0.1, 0.3]), 0.8, 1.2),)),
        Measure(dimension=2,
                radial=(RadialDensity([0, 0], (0.0, 2.0), 1.0),)),
        Measure(dimension=2,
                radial=(RadialDensity([0, 0], (0.3, 0.9), 0.8),)),
        Measure(dimension=2,
                spheres=(SphereShell(np.array([-0.2, 0.2]), 0.5, 0.6),),
                radial=(RadialDensity([0, 0], (0.0, 1.0), 1.0),)),
        Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 1.0, 1.0),)),
        Measure(dimension=3,
                spheres=(SphereShell(np.array([0.1, 0.2, -0.05]), 0.5, 2.0),)),
        Measure(dimension=3,
                radial=(RadialDensity([0, 0, 0], (0.0, 0.0, 3.0), 1.0),)),
        Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.3, 0.4),
                                      SphereShell(np.zeros(3), 0.9, 0.6),)),
    ]
    atomic = []
    for _ in range(10):
        d = 2 if len(atomic) % 2 == 0 else 3
        n = int(rng.integers(1, 5))
        atoms = tuple(Atom(_uniform_in_ball(rng, d, 1.5), float(rng.uniform(0.2, 2.0)))
                      for _ in range(n))
        atomic.append(Measure(dimension=d, atoms=atoms))

    disagreements = 0
    for mu in admissible:
        verdicts = _coherence_verdicts(mu)
        disagreements += len(set(verdicts)) != 1
        assert verdicts == (HOLDS,) * 4, f"admissible measure: {verdicts}"
    for mu in atomic:
        verdicts = _coherence_verdicts(mu)
        disagreements += len(set(verdicts)) != 1
        assert verdicts == (FAILS,) * 4, f"atomic measure: {verdicts}"
    assert disagreements == 0
    print("acceptance 07 equivalence coherence: PASS (0 disagreements over 20 measures)")


def _coherence_verdicts(mu):
    r = mu.support_radius
    R = r + 1.0
    rep_I = check_statement_I(mu, 0.5, R, resolution=9)
    rep_III = falsify_statement_III(mu, [], r, R, 1.0, resolution=9)
    rep_IV = check_statement_IV(mu, resolution=9)
    rep_V = check_statement_V(mu, 0.5, resolution=9)
    return (rep_I.verdict, rep_III.verdict, rep_IV.verdict, rep_V.verdict)


def test_coherence_splits_bounded_singular_and_atomic_measures():
    # A d = 3 density with coeffs[0] > 0 has volume density c0 / (4 pi t**2)
    # near its center: finite energy, but the potential is -inf and the
    # integrated counting +inf there, as at an atom.  In the plane, and in
    # d = 3 with coeffs[0] = 0, every polynomial density stays bounded.
    bounded = [
        Measure(dimension=2, radial=(RadialDensity([0.2, -0.3], (1.5, 0.0, 0.4), 0.6),)),
        Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 0.9, 0.5),),
                radial=(RadialDensity([0, 0], (0.8,), 0.5),)),
        Measure(dimension=3, radial=(RadialDensity([0.1, 0.0, -0.2], (0.0, 2.0), 0.5),)),
        Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.8, 0.7),),
                radial=(RadialDensity([0, 0, 0], (0.0, 0.5, 1.5), 0.6),)),
    ]
    singular = [
        Measure(dimension=3, radial=(RadialDensity([0, 0, 0], (1.0,), 0.5),)),
        Measure(dimension=3, radial=(RadialDensity([0.2, -0.1, 0.3], (0.5, 1.0), 0.4),)),
        Measure(dimension=3, spheres=(SphereShell(np.zeros(3), 0.8, 0.7),),
                radial=(RadialDensity([0, 0, 0], (0.0, 2.0), 0.5),
                        RadialDensity([-0.3, 0.0, 0.0], (0.05, 0.0, 1.0), 0.3))),
    ]
    atomic = [
        Measure(dimension=2, atoms=(Atom(np.array([0.3, -0.4]), 0.7),),
                radial=(RadialDensity([0, 0], (0.0, 2.0), 1.0),)),
        Measure(dimension=3, atoms=(Atom(np.array([0.0, 0.5, 0.1]), 1.2),
                                    Atom(np.array([-0.6, 0.0, 0.2]), 0.4))),
    ]
    disagreements = 0
    for measures, expected in ((bounded, HOLDS), (singular, FAILS), (atomic, FAILS)):
        for mu in measures:
            verdicts = _coherence_verdicts(mu)
            disagreements += len(set(verdicts)) != 1
            assert verdicts == (expected,) * 4, (mu, verdicts)
    assert disagreements == 0


def test_acceptance_08_lemma3_equality_and_bound():
    delta0 = Measure(dimension=2, atoms=(Atom(np.zeros(2), 1.0),))
    rep = verify_lemma3(delta0, math.sqrt(2.0), 2.0)
    assert abs(rep.lhs - 1.0) < 1e-12 and abs(rep.rhs - 1.0) < 1e-12

    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        atoms = []
        for _ in range(n):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            atoms.append(Atom(direction * rng.uniform(0.05, 1.9),
                              float(rng.uniform(0.1, 2.0))))
        delta = Measure(dimension=d, atoms=tuple(atoms))
        rep = verify_lemma3(delta, 1.0, 2.0)
        assert rep.lhs <= rep.rhs + 1e-12, f"{rep.lhs} > {rep.rhs}"
    print("acceptance 08 lemma 3: PASS (equality at the unit atom, bound on 100 draws)")


def test_acceptance_09_homogeneity_invariance():
    r, R = 1.0, 2.0
    circle = Measure(dimension=2, spheres=(SphereShell(np.zeros(2), 1.0, 1.0),))
    disc = Measure(dimension=2,
                   radial=(RadialDensity([0, 0], (0.0, 2.0), 1.0),))
    witness = kernel_witness(np.array([0.3, 0.2]), r, R, 2)
    logf = from_rational(RationalFunction(zeros=(0.5,), poles=(2.0, 2.0), scale=1.0))

    pairs = [(circle, witness), (circle, logf), (disc, logf)]
    base = [check_statement_II(mu, U, r, R, resolution=9).verdict for mu, U in pairs]
    base_T = {id(U): difference_T(U, r, R) for U in (witness, logf)}

    for lam in (0.1, 7.0, 1000.0):
        scaled_T = difference_T(witness.scale(lam), r, R)
        assert abs(scaled_T - lam * base_T[id(witness)]) <= 1e-10 * (
            1.0 + lam * abs(base_T[id(witness)]))
        assert scaled_T == pytest.approx(lam * math.log(3.0), rel=1e-10)
        scaled_T = difference_T(logf.scale(lam), r, R)
        assert abs(scaled_T - lam * base_T[id(logf)]) <= 1e-10 * (
            1.0 + lam * abs(base_T[id(logf)]))
        for (mu, U), expected in zip(pairs, base):
            rep = check_statement_II(mu, U.scale(lam), r, R, resolution=9)
            assert rep.verdict == expected, (
                f"verdict changed under scaling by {lam}")
    print("acceptance 09 homogeneity: PASS (verdicts stable, T scales linearly)")


def test_acceptance_10_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "--bundled", "--out", str(out1)]) == 0
    assert cli_main(["run", "--bundled", "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (
            f"{name} differs between identical runs")
    print(f"acceptance 10 determinism: PASS ({len(names1)} files byte-identical)")


# Every rule constant whose refinement should move no decided verdict: node
# counts doubled (the meridian sign grid to 2n - 1 nodes, so its old nodes
# stay), the tanh-sinh levels one further.
REFINEMENTS = [
    (quadrature, "_PIECE_NODES", lambda n: 2 * n),
    (quadrature, "_CIRCLE_NODES", lambda n: 2 * n),
    (quadrature, "_SEGMENT_NODES", lambda n: 2 * n),
    (quadrature, "_MERIDIANS", lambda n: 2 * n),
    (quadrature, "_SIGN_NODES", lambda n: 2 * n - 1),
    (quadrature, "_FIRST_POLAR_NODES", lambda n: 2 * n),
    (quadrature, "_POLAR_NODES", lambda n: 2 * n),
    (quadrature, "_AZIMUTH_NODES", lambda n: 2 * n),
    (measures, "_PANEL_NODES", lambda n: 2 * n),
    (quadrature, "_DE_FIRST_LEVEL", lambda n: n + 1),
    (quadrature, "_DE_MAX_LEVEL", lambda n: n + 1),
]


def _scenario_reports() -> dict:
    """Reports of every bundled and committed test scenario, by file and name."""
    paths = [*bundled_scenario_paths(),
             *sorted((Path(__file__).parent / "scenarios").glob("*.json"))]
    reports = {}
    for p in paths:
        sc = scenario_from_json(json.loads(p.read_text()), path=p.name[:-5])
        for rep in execute_scenario(sc, RunOptions()):
            reports[p.name, rep.name] = rep
    return reports


def _budget_error(rep) -> float:
    """The quadrature error estimate a report's tolerance adds to its base."""
    base = IDENTITY_TOLERANCE if rep.name.startswith("poisson_jensen") else BASE_TOLERANCE
    return rep.tolerance - base


@pytest.fixture(scope="module")
def default_reports():
    return _scenario_reports()


@pytest.mark.parametrize("module, constant, refine", REFINEMENTS,
                         ids=[name for _, name, _ in REFINEMENTS])
def test_verdicts_survive_a_refined_rule(monkeypatch, default_reports, module, constant,
                                         refine):
    # A decided verdict rests on error estimates (n against 2n nodes, or one
    # level against the next), not bounds; a finer rule must keep it, and
    # move each side by no more than both runs' estimates.
    monkeypatch.setattr(module, constant, refine(getattr(module, constant)))
    quadrature._sphere3_cover.cache_clear()
    try:
        refined = _scenario_reports()
    finally:
        quadrature._sphere3_cover.cache_clear()
    assert refined.keys() == default_reports.keys()
    for key, before in default_reports.items():
        after = refined[key]
        assert after.verdict == before.verdict, key
        for side in ("lhs", "rhs"):
            old, new = getattr(before, side), getattr(after, side)
            if math.isfinite(old):
                slack = _budget_error(before) + _budget_error(after) + 1e-13 * abs(old)
                assert abs(new - old) <= slack, (key, side, old, new, slack)
            else:
                assert new == old or (math.isnan(old) and math.isnan(new)), (key, side)

"""Seeded scenario generators and expected verdicts for the benchmark.

Only the scenario JSON written here reaches the program.  Every generated
check has a verdict the theory predicts: the theorems and the Poisson-Jensen
identity hold, and the coherence statements (I, IV, V) fail on purely atomic
measures, which those scenarios declare in ``expect_fail``.
"""

from __future__ import annotations

import math

import numpy as np

R_INNER = 1.0
R_OUTER = 2.0

# The spatial scenarios cap the outer adaptive rule at 40 subintervals.  The
# positive part of u has a kink on the density's rings, so each 3-D sphere
# mean fails its doubling check and the outer rule chases the noise.  For the
# geometry below the chase runs into the cap: 1,660 sphere means under every
# rotation, where the default cap gave 2,290 to 4,222 over five rotations.
# Other geometries tried stopped by themselves, anywhere from 358 to 1,408
# sphere means, so the seed only rotates this one geometry.
SPATIAL_QUAD = {"max_subdivisions": 40}
CHECKS = ["statement_I", "statement_II", "statement_IV", "statement_V", "lemma3"]
ATOMIC_EXPECT_FAIL = ["statement_I", "statement_IV", "statement_V"]
GRID = 5


def _point(v) -> list[float]:
    return [float(x) for x in v]


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniformly random rotation of R^d (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _kappa(t: float, d: int) -> float:
    # The generator does not import nevkit, so no program change can change
    # the inputs it writes.
    return math.log(t) if d == 2 else -t ** (2 - d)


def _in_ball(rng: np.random.Generator, d: int, lo: float, hi: float, ok) -> np.ndarray:
    """A point with lo <= |p| <= hi that satisfies ``ok``."""
    while True:
        v = rng.normal(size=d)
        p = v / np.linalg.norm(v) * rng.uniform(lo, hi)
        if ok(p):
            return p


def _charge_function(rng, d: int, weights, ok, place) -> tuple[dict, list]:
    """Charge model whose harmonic constant puts u(0) = 0.

    u is harmonic away from its charges, so when no charge lies near the
    origin its zero set crosses every small sphere about it, and the positive
    part of u has a kink on each of them.  ``place`` maps each point to where
    it goes in the emitted scenario.
    """
    charges = [(_in_ball(rng, d, 0.2, 0.8 * R_OUTER, ok), w) for w in weights]
    gradient = np.zeros(d)
    gradient[0] = rng.uniform(-0.3, 0.3)
    value = sum(w * _kappa(float(np.linalg.norm(p)), d) for p, w in charges)
    linear = [[f"x{i}", g] for i, g in enumerate(place(gradient))]
    body = {"dimension": d,
            "charges": [{"point": place(p), "weight": w} for p, w in charges],
            "harmonic": [["const", -value], *linear]}
    return body, [p for p, _ in charges]


def _probe_points(rng, d: int, avoid: list, place=_point,
                  count: int = 2) -> list[list[float]]:
    """Poisson-Jensen evaluation points inside the ball, away from charges."""
    def ok(p):
        return all(np.linalg.norm(p - a) >= 0.1 for a in avoid)
    return [place(_in_ball(rng, d, 0.0, 0.55 * R_OUTER, ok)) for _ in range(count)]


# One d = 3 geometry: a centred shell, an off-centre polynomial density
# inside r, and three charges outside both.  u changes sign across the
# density, so the positive part has a kink on the density's rings.
SPATIAL_CENTRE = (0.1072, 0.2549, 0.1025)
SPATIAL_OUTER = 0.3312
SPATIAL_SHELL = 0.6
SPATIAL_CHARGES = (((0.4985, -0.5996, 0.6489), 1.0),
                   ((0.3449, 0.0333, 0.6410), -0.5577),
                   ((-0.5161, 0.6410, 0.0425), 0.6610))


def spatial_scenario(seed: int) -> dict:
    """The d = 3 geometry under a seeded rotation about the origin.

    Every seed poses the same problem at another orientation to the
    quadrature and scan grids, so every seed asks for the same work.
    """
    rng = np.random.default_rng([seed, 3])
    rot = _rotation(rng, 3)
    charges = [(rot @ np.array(p), w) for p, w in SPATIAL_CHARGES]
    probes = _probe_points(rng, 3, [p for p, _ in charges])
    return {
        "name": f"spatial_{seed}",
        "dimension": 3,
        "measure": {
            "dimension": 3,
            "spheres": [{"center": [0.0, 0.0, 0.0], "radius": SPATIAL_SHELL,
                         "mass": 1.0}],
            "radial": [{"center": _point(rot @ np.array(SPATIAL_CENTRE)),
                        "coeffs": [0.0, 0.0, 1.5 / SPATIAL_OUTER ** 3],
                        "outer": SPATIAL_OUTER}],
        },
        "functions": [{"label": "u", "dimension": 3,
                       "charges": [{"point": _point(p), "weight": w}
                                   for p, w in charges],
                       "harmonic": [["const", 0.3]]}],
        "radii": {"r": R_INNER, "R": R_OUTER},
        "checks": [{"check": "poisson_jensen", "points": probes}] + CHECKS,
        "quad": SPATIAL_QUAD,
        "grid": GRID,
    }


def small_scenario(seed: int, index: int) -> dict:
    """One small scenario; the index cycles d = 2, 3 and atomic, shell.

    Every integrated counting here is a closed form: atoms exactly, and a
    centred shell through the shell kernel.  The geometry of each index is
    fixed and the seed rotates it, as for the spatial workload.
    """
    d = 2 if index % 2 == 0 else 3
    atomic = index % 4 < 2
    rng = np.random.default_rng([index, d])
    rot = _rotation(np.random.default_rng([seed, index, d]), d)

    def place(p):
        return _point(rot @ p)

    if atomic:
        atoms = [_in_ball(rng, d, 0.1, 0.9 * R_INNER, lambda p: True)
                 for _ in range(int(rng.integers(2, 4)))]
        measure = {"dimension": d,
                   "atoms": [{"point": place(p), "mass": float(rng.uniform(0.3, 1.0))}
                             for p in atoms]}
        sites = atoms
        shell_radius = None
    else:
        shell_radius = float(rng.uniform(0.4, 0.8))
        measure = {"dimension": d,
                   "spheres": [{"center": [0.0] * d, "radius": shell_radius,
                                "mass": float(rng.uniform(0.5, 1.5))}]}
        sites = []

    def ok(p):
        if any(np.linalg.norm(p - s) < 0.1 for s in sites):
            return False
        # Charges outside the shell keep u harmonic inside it, so u(0) = 0
        # forces a sign change, and a kink, on the shell itself.
        return shell_radius is None or np.linalg.norm(p) > shell_radius + 0.15

    function, charges = _charge_function(rng, d, [1.0, -0.7], ok, place)
    functions = [{"label": "u", **function}]
    checks = list(CHECKS)
    if d == 2:
        zeros = [_in_ball(rng, 2, 0.2, 1.8, ok)]
        poles = [_in_ball(rng, 2, 0.2, 1.8, ok) for _ in range(2)]
        functions.append({"label": "f", "rational": {
            "zeros": [place(z) for z in zeros], "poles": [place(p) for p in poles],
            "scale": float(rng.uniform(0.5, 2.0))}})
        charges += zeros + poles
        checks.append("corollary")
    checks.append({"check": "poisson_jensen",
                   "points": _probe_points(rng, d, charges + sites, place)})
    scenario = {
        "name": f"small_{seed}_{index}",
        "dimension": d,
        "measure": measure,
        "functions": functions,
        "radii": {"r": R_INNER, "R": R_OUTER},
        "checks": checks,
        "grid": GRID,
    }
    if atomic:
        scenario["expect_fail"] = ATOMIC_EXPECT_FAIL
    return scenario


def expected_verdicts(scenario: dict) -> dict[str, str]:
    """Report name -> verdict the theory predicts, for a generated scenario."""
    labels = [f["label"] for f in scenario["functions"]]
    rational = [f["label"] for f in scenario["functions"] if "rational" in f]
    failing = set(scenario.get("expect_fail", ()))
    out: dict[str, str] = {}
    for check in scenario["checks"]:
        kind = check if isinstance(check, str) else check["check"]
        verdict = "fails" if kind in failing else "holds"
        if kind == "statement_II":
            names = [f"statement_II[{lb}]" for lb in labels]
        elif kind == "poisson_jensen":
            names = [f"poisson_jensen[{lb}:{j}]" for lb in labels
                     for j in range(len(check["points"]))]
        elif kind == "corollary":
            names = [f"corollary[{lb}]" for lb in rational]
        else:
            names = [kind]
        for name in names:
            out[name] = verdict
    return out

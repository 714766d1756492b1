"""Numerical potential-theory toolkit.

Builds finite measures from atoms, sphere shells, and radial densities,
evaluates kernel potentials and integrated counting functions on them,
computes classical and two-radius Nevanlinna characteristics, and checks the
five-statement boundedness criterion (plus its rational-function corollary)
with honest three-valued verdicts.
"""

from .criterion import (
    BASE_TOLERANCE,
    FAILS,
    HOLDS,
    UNDETERMINED,
    CheckReport,
    StatementIIBounds,
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
from .dsh import (
    Charge,
    DshFunction,
    HarmonicPart,
    RationalFunction,
    dsh_from_json,
    from_rational,
    kernel_witness,
    positive_part_integral,
    rational_from_json,
)
from .kernels import (
    constant_A,
    green_ball,
    hat_d,
    kappa,
    poisson_kernel,
    sphere_area,
)
from .measures import (
    SUPPORT,
    Atom,
    CountingFunction,
    Measure,
    RadialDensity,
    SphereShell,
    SupResult,
    difference_counting,
    integrated_counting,
    measure_from_json,
    potential,
    radial_counting,
    sup_integrated_counting,
)
from .nevanlinna import (
    classical_N,
    classical_T,
    difference_T,
    proximity,
)
from .quadrature import (
    DEFAULT_SPEC,
    ErrorBudget,
    QuadratureError,
    QuadResult,
    QuadSpec,
    circle_mean,
    integrate_1d,
    positive_part_mean,
    sphere_mean,
    stieltjes_against_jumps,
)
from .scenario import (
    CheckRequest,
    FunctionEntry,
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BASE_TOLERANCE", "Charge",
    "CheckReport", "CheckRequest", "CountingFunction", "DEFAULT_SPEC",
    "DshFunction", "ErrorBudget", "FAILS", "FunctionEntry", "HOLDS",
    "HarmonicPart", "Measure", "QuadResult", "QuadSpec",
    "QuadratureError", "RadialDensity", "RationalFunction", "SUPPORT",
    "Scenario", "ScenarioError", "SphereShell", "StatementIIBounds",
    "SupResult", "UNDETERMINED", "check_corollary", "check_statement_I",
    "check_statement_II", "check_statement_IV", "check_statement_V",
    "circle_mean", "classical_N", "classical_T", "constant_A",
    "difference_T", "difference_counting", "dsh_from_json",
    "falsify_statement_III", "from_rational", "green_ball", "hat_d",
    "integrate_1d", "integrated_counting", "kappa", "kernel_witness",
    "load_scenario", "measure_from_json",
    "poisson_kernel", "positive_part_integral", "positive_part_mean",
    "potential", "proximity",
    "radial_counting", "rational_from_json",
    "scenario_from_json", "sphere_area", "sphere_mean",
    "statement_ii_bounds", "stieltjes_against_jumps",
    "sup_integrated_counting", "verify_lemma3", "verify_poisson_jensen",
]

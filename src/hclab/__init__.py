"""hclab: equidistribution statistics on compact groups and necessary-condition
tests for hypercyclicity of weighted translation operators.

Supported group contexts: finite groups from an explicit Cayley-table catalog,
the circle, and truncated p-adic integer rings / windowed p-adic fields.  The
library computes exact set algebra on null-boundary sets, orbit density
statistics with event-point-exact suprema, character averaging bounds,
regular-representation fixed-vector certificates, zero-log-integral tests,
step-function approximation machinery, and p-adic ball (U/L) obstructions.
A structured verdict report records which necessary condition failed; a
passing report never asserts hypercyclicity.
"""

from .borel import (
    BallSet,
    FiniteSubset,
    IntervalSet,
    SetForm,
    ball,
    classify_form,
    complement,
    contains,
    interval,
    measure,
    union,
)
from .equidist import (
    DensityStat,
    TestFunction,
    density,
    ergodic_average,
    sup_deviation,
    translated_density,
    uniform_convergence_sweep,
    weyl_bound,
)
from .errors import (
    ContextMismatch,
    FixedCharacterError,
    GridMismatch,
    HclabError,
    InternalInconsistency,
    NonPositiveWeight,
    PlateauResolutionFailure,
    SpecValidationError,
    WindowExceeded,
)
from .exprs import Expr
from .groups import (
    CIRCLE,
    PRECISION_CAP,
    CircleElement,
    CircleGroup,
    FiniteGroup,
    OrbitSequence,
    PAdicContext,
    PAdicNumber,
    catalog,
    cyclic,
    direct_product,
)
from .hctest import (
    LogIntegralResult,
    MonotoneHit,
    SandwichResult,
    VerdictConfig,
    log_integral,
    log_integral_report,
    monotone_power_scan,
    monotone_rows,
    operator_power_identity_check,
    sandwich_check,
    step_approx,
    verdict,
)
from .padic import (
    ConjugationTriple,
    CosetIntegral,
    CosetProblem,
    ULWitness,
    conjugate_scale,
    conjugate_translate,
    coset_log_integrals,
    is_locally_constant,
    locally_constant_obstruction,
    qp_reduction,
    ul_sets,
    valuation,
)
from .repcheck import (
    CircleCharacter,
    FixedIrrepCertificate,
    circle_has_fixed_character,
    fixed_irrep_multiplicity,
    noncyclic_equivalence_check,
    regular_rep_cycles,
)
from .report import RuleFiring, VerdictReport
from .weights import (
    CircleGrid,
    DiscretizedFunction,
    ExprWeight,
    FiniteWeight,
    PAdicTableWeight,
    StepFunction,
    StepWeight,
    Weight,
    apply_operator,
    weight_product,
)

__version__ = "0.1.0"

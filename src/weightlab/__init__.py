"""weightlab: a numerical laboratory for non-quasianalytic weight functions.

Zero sequences define canonical products with purely imaginary zeros;
this package evaluates their log-moduli with certified truncation error,
classifies sequences against convergence criteria via honest three-valued
series diagnostics, builds explicit concave majorants, and runs the
dyadic-zero minimum-modulus experiments.
"""

from .sequences import (
    DivergenceCertificate,
    ExplicitFamily,
    GeometricFamily,
    PowerFamily,
    PowLogFamily,
    SequenceSpecError,
    ZeroSequence,
    parse_sequence_spec,
)
from .weights import (
    WeightEvaluator,
    big_N,
    modulus_bound_check,
    scaling_inequality_check,
    strong_nqa_tail_check,
)
from .coeffs import (
    CoeffTable,
    IdentityInapplicableError,
    coeff_table,
    inf_sup_identity,
    log_convexity_check,
    sandwich_check,
    sup_poly,
)
from .criteria import (
    SeriesDiagnostic,
    criteria2_report,
    integral_cross_check,
    msnq_omega_conditions,
    msnq_series,
    nqa_series,
    profile_big_n,
    profile_log_omega,
    profile_n,
)
from .majorants import (
    BetaMajorant,
    ConcaveSeriesMajorant,
    KEvalError,
    LambdaDomainError,
    RationalSeq,
    c_k_value,
    lambda_search,
    s_k_nonneg_sweep,
    s_k_value,
    step_counterexample,
    step_dyadic_tail,
)
from .counterexample import (
    BetaSpec,
    ContradictionReport,
    CounterexampleModel,
    MultiplicityProfile,
    minmod_radius_scan,
    classic_beta_family,
    contradiction_experiment,
    domination_check,
    dyadic_multiplicities,
    minmod_sup,
    minmod_sups,
    named_beta,
    schwarz_bound_check,
    shipped_beta_family,
)
from .sampling import SampledFunction, log_grid

__version__ = "0.1.0"

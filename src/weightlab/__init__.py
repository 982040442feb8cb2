"""weightlab: a numerical laboratory for non-quasianalytic weight functions.

Zero sequences define canonical products with purely imaginary zeros;
this package evaluates their log-moduli with certified truncation error,
classifies sequences against convergence criteria via honest three-valued
series diagnostics, builds explicit concave majorants, and runs the
dyadic-zero minimum-modulus experiments.
"""

from .sequences import (
    CutoffInsufficientError,
    DivergenceCertificate,
    ExplicitFamily,
    GeometricFamily,
    PowerFamily,
    PowLogFamily,
    SequenceSpecError,
    ZeroSequence,
    parse_sequence_spec,
    render_spec,
)
from .weights import (
    WeightEvaluator,
    big_N,
    distribution_n,
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
    DyadicProfile,
    SeriesDiagnostic,
    ThresholdPolicy,
    criteria2_report,
    integral_cross_check,
    loglog_series,
    msnq_omega_conditions,
    msnq_series,
    nqa_series,
    permanence_checks,
    positive_part_diff,
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
    eval_alpha_majorant,
    lambda_search,
    necessary_limits_probe,
    s_k_nonneg_sweep,
    s_k_value,
    step_counterexample,
    step_dyadic_tail,
)
from .counterexample import (
    BetaSpec,
    ContradictionReport,
    CounterexampleModel,
    MinModConfig,
    MultiplicityProfile,
    minmod_radius_scan,
    classic_beta_family,
    contradiction_experiment,
    domination_check,
    dyadic_multiplicities,
    minmod_sup,
    named_beta,
    schwarz_bound_check,
    shipped_beta_family,
)
from .sampling import SampledFunction, log_grid

__version__ = "0.1.0"

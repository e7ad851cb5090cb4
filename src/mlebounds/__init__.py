"""Explicit normal-approximation error bounds for maximum likelihood
estimators that are functions of i.i.d. sums, plus a seeded Monte Carlo
harness that estimates the true distance and checks it against the bounds.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    MLEBoundsError,
    QuadratureError,
    RootFindError,
)
from .special import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    exact_sum,
    gamma_ratio,
    gamma_ratio_expansion,
    integrate_interval,
    integrate_real_line,
    log_gamma,
    log_gamma_diff,
    std_normal_cdf,
    std_normal_pdf,
)
from .models import (
    ExpFamilyModel,
    FunctionalModel,
    GeneralizedGammaParams,
    MODEL_FAMILIES,
    as_functional,
    d_is_identity,
    d_prime,
    d_value,
    density,
    exp_canonical_model,
    exp_noncanonical_model,
    fisher_info,
    generalized_gamma_model,
    invert_d,
    laplace_scale_model,
    make_model,
    mle,
    normal_mean_model,
    normal_variance_model,
    stein_ratio,
    sup_abs_d_second,
    weibull_scale_model,
)
from .moments import (
    EXP_THIRD_ABS_MOMENT,
    NORMAL_THIRD_ABS_MOMENT,
    MonteCarloEstimate,
    expected_h_of_z,
    gg_mse_factor,
    mse_closed_form,
    mse_exp_canonical,
    mse_gg,
    mse_monte_carlo,
    third_abs_moment,
    third_abs_moment_holder_gg,
)
from .bounds import (
    BoundBreakdown,
    BoundInputs,
    EXP_STEIN_CONST,
    TestFunction,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    get_test_function,
    gg_bound,
    lemma_clt_bound,
    reference_test_function,
    theorem_bound,
)
from .montecarlo import (
    MAX_CHUNK_SIZE,
    SimulationConfig,
    SimulationResult,
    TABLE_SAMPLE_SIZES,
    TABLE_SEED,
    result_rows_to_csv,
    result_rows_to_json,
    run_simulation,
    sample_gamma,
    sample_model,
    table1,
)

__version__ = "0.1.0"

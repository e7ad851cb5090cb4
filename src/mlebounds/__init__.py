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
    exact_sum,
    integrate_interval,
    log_gamma_shift,
    std_normal_cdf,
    std_normal_pdf,
)
from .models import (
    EXP_THIRD_ABS_MOMENT,
    NORMAL_THIRD_ABS_MOMENT,
    ExpFamilyModel,
    GeneralizedGammaParams,
    MODEL_FAMILIES,
    d_is_identity,
    d_prime,
    d_value,
    density,
    exp_canonical_model,
    exp_noncanonical_model,
    fisher_info,
    generalized_gamma_model,
    gg_mse_factor,
    invert_d,
    laplace_scale_model,
    make_model,
    mle,
    mse_exp_canonical,
    mse_gg,
    normal_mean_model,
    normal_variance_model,
    sup_abs_d_second,
    third_abs_moment_holder_gg,
    weibull_scale_model,
)
from .moments import (
    expected_h_of_z,
    mse_closed_form,
    third_abs_moment,
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
    MonteCarloEstimate,
    SimulationConfig,
    SimulationResult,
    TABLE_SAMPLE_SIZES,
    TABLE_SEED,
    iter_mle_chunks,
    mse_monte_carlo,
    result_rows_to_csv,
    result_rows_to_json,
    run_simulation,
    sample_model,
    table1,
)

__version__ = "0.1.0"

"""Moment quantities consumed by the error bounds.

Three kinds of inputs feed the bound formulas: the third absolute central
moment E|T(X) - D(theta0)|^3 of the natural statistic, the mean squared
error E[(theta_hat - theta0)^2] of the MLE, and the reference expectation
E[h(Z)] against the standard normal law.

Closed forms live on the model itself (:class:`~mlebounds.models.ExpFamilyModel`
fields set by each built-in constructor, with the generalized-gamma and
exponential formulas defined in :mod:`.models`) and take precedence; the
adaptive quadrature of :mod:`.special` provides the independent oracle that
every closed form is shadow-tested against, plus the fallback for models
without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _require_int

# The exponential, normal and generalized-gamma closed forms live in
# .models beside the constructors that set them on each model; they are
# re-exported here because callers import them as moment formulas.
from .models import (
    EXP_THIRD_ABS_MOMENT,
    NORMAL_THIRD_ABS_MOMENT,
    ExpFamilyModel,
    _require_theta,
    d_value,
    density,
    gg_mse_factor,
    mse_exp_canonical,
    mse_gg,
    third_abs_moment_holder_gg,
)
from .special import (
    QuadratureSpec,
    exact_sum,
    integrate_interval,
    integrate_real_line,
    std_normal_pdf,
)

__all__ = [
    "EXP_THIRD_ABS_MOMENT",
    "MonteCarloEstimate",
    "NORMAL_THIRD_ABS_MOMENT",
    "expected_h_of_z",
    "gg_mse_factor",
    "mse_closed_form",
    "mse_exp_canonical",
    "mse_gg",
    "mse_monte_carlo",
    "third_abs_moment",
    "third_abs_moment_holder_gg",
]

# Quadrature settings for moment integrals: slightly looser than the package
# default because third-moment integrands have mild curvature kinks where
# T(x) crosses D(theta0).
_MOMENT_QUAD = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_refinements=60)


def third_abs_moment(m: ExpFamilyModel, theta0: float) -> float:
    """E|T(X) - D(theta0)|^3 for one observation drawn at theta0.

    Uses the model's closed form ``third_moment`` when it has one, else
    integrates |T(x) - D|^3 f(x | theta0) over the model's integration
    window by adaptive quadrature, with tolerances of 1e-11.
    """
    t0 = _require_theta(m, theta0, "theta0")
    if m.third_moment is not None:
        return m.third_moment(t0)
    if m.integration_window is None:
        raise DomainError(
            f"model {m.name!r} has no closed-form third moment and no integration window"
        )
    d0 = d_value(m, t0)
    lo, hi = m.integration_window(t0)

    def integrand(x: float) -> float:
        return abs(float(m.T(x)) - d0) ** 3 * density(m, x, t0)

    return integrate_interval(integrand, lo, hi, _MOMENT_QUAD)


def mse_closed_form(m: ExpFamilyModel, n: int, theta0: float) -> float:
    """Closed-form MSE of the MLE, from the model's ``mse`` field.

    Every built-in has one: the identity-D families are unbiased sample
    means with known variances, the canonical exponential and generalized
    gamma have the gamma-ratio forms.
    """
    n = _require_int(n, "n")
    t0 = _require_theta(m, theta0, "theta0")
    if m.mse is None:
        raise DomainError(f"model {m.name!r} has no closed-form MSE; use mse_monte_carlo")
    return m.mse(n, t0)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A seeded Monte Carlo estimate with its standard error."""

    value: float
    standard_error: float
    trials: int
    seed: int


def mse_monte_carlo(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    trials: int,
    seed: int,
    chunk_size: int = 4096,
) -> MonteCarloEstimate:
    """Empirical MSE of the MLE: the mean of (theta_hat - theta0)^2 over
    seeded trials, with its standard error.

    Sampling uses the same deterministic chunk layout as the simulation
    harness (independent per-chunk streams, at most ``MAX_CHUNK_SIZE``
    trials each), and every sum is exactly rounded: per chunk by
    :func:`~mlebounds.special.exact_sum`, across chunks by ``math.fsum``.
    So the result is bit-reproducible for a fixed seed.
    """
    # Imported lazily: the sampling machinery lives above this module.
    from .montecarlo import _SEED_MAX, iter_mle_chunks

    # iter_mle_chunks checks the rest; these two are used here as well.
    trials = _require_int(trials, "trials", 1000)
    seed = _require_int(seed, "seed", 0, maximum=_SEED_MAX)

    sq_sums: list[float] = []
    sq_sq_sums: list[float] = []
    for theta_hats in iter_mle_chunks(m, theta0, n, trials, seed, chunk_size):
        sq = (theta_hats - theta0) ** 2
        sq_sums.append(exact_sum(sq))
        sq_sq_sums.append(exact_sum(sq * sq))
    total = math.fsum(sq_sums)
    total_sq = math.fsum(sq_sq_sums)
    mean = total / trials
    var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
    return MonteCarloEstimate(
        value=mean,
        standard_error=math.sqrt(var / trials),
        trials=trials,
        seed=seed,
    )


def expected_h_of_z(h) -> float:
    """E[h(Z)] for Z standard normal, by adaptive quadrature.

    ``h`` may be a plain callable or a TestFunction-like object exposing
    ``.h``.  With the package's default quadrature settings the estimated
    error is below 1e-8.
    """
    fn = getattr(h, "h", h)
    return integrate_real_line(lambda z: float(fn(z)) * std_normal_pdf(z))

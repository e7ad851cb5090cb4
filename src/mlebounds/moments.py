"""Moment quantities consumed by the error bounds.

Three kinds of inputs feed the bound formulas: the third absolute central
moment E|T(X) - D(theta0)|^3 of the natural statistic, the mean squared
error E[(theta_hat - theta0)^2] of the MLE, and the reference expectation
E[h(Z)] against the standard normal law.

Closed forms are registered per model family and take precedence; the
adaptive quadrature of :mod:`.special` provides the independent oracle that
every closed form is shadow-tested against, plus the fallback for families
without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _require_int
from .models import ExpFamilyModel, GeneralizedGammaParams, d_value, density
from .special import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    exact_sum,
    integrate_interval,
    integrate_real_line,
    log_gamma_shift,
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

# E|X - mu|^3 for an exponential variable with mean mu equals (12/e - 2) mu^3.
# Stored as the exact expression; the usual 5-decimal rendering is 2.41456.
EXP_THIRD_ABS_MOMENT = 12.0 / math.e - 2.0

# E|Z|^3 for Z standard normal: 2 sqrt(2/pi).
NORMAL_THIRD_ABS_MOMENT = 2.0 * math.sqrt(2.0 / math.pi)

# Quadrature settings for moment integrals: slightly looser than the package
# default because third-moment integrands have mild curvature kinks where
# T(x) crosses D(theta0).
_MOMENT_QUAD = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_refinements=60)


def _third_moment_closed(m: ExpFamilyModel, theta0: float) -> float | None:
    fam = m.family
    if fam == "exp-canonical":
        return EXP_THIRD_ABS_MOMENT / theta0**3
    if fam in ("exp-noncanonical", "laplace"):
        return EXP_THIRD_ABS_MOMENT * theta0**3
    if fam == "normal-mean":
        return NORMAL_THIRD_ABS_MOMENT * m.shape["sigma"] ** 3
    if fam in ("weibull", "gg"):
        # T(X) = X^p is Gamma(d/p, rate theta^-p); with d = p that is an
        # exponential variable with mean theta^p, so the exponential
        # constant applies exactly.
        d = m.shape.get("d", m.shape.get("alpha"))
        p = m.shape.get("p", m.shape.get("alpha"))
        if d == p:
            return EXP_THIRD_ABS_MOMENT * theta0 ** (3.0 * p)
    return None


def third_abs_moment(
    m: ExpFamilyModel,
    theta0: float,
    spec: QuadratureSpec = _MOMENT_QUAD,
) -> float:
    """E|T(X) - D(theta0)|^3 for one observation drawn at theta0.

    Uses the registered closed form for the family when one exists, else
    integrates |T(x) - D|^3 f(x | theta0) over the model's integration
    window by adaptive quadrature.
    """
    closed = _third_moment_closed(m, theta0)
    if closed is not None:
        return closed
    if m.integration_window is None:
        raise DomainError(
            f"model {m.name!r} has no closed-form third moment and no integration window"
        )
    d0 = d_value(m, theta0)
    lo, hi = m.integration_window(theta0)

    def integrand(x: float) -> float:
        return abs(float(m.T(x)) - d0) ** 3 * density(m, x, theta0)

    return integrate_interval(integrand, lo, hi, spec)


def third_abs_moment_holder_gg(params: GeneralizedGammaParams) -> float:
    """Upper bound on E|X^p - (d/p) theta^p|^3 for the generalized gamma.

    The exact moment is intractable, so it is bounded through the fourth
    central moment of the Gamma(d/p) law of X^p:

        E|T - D|^3  <=  (E[(T - D)^4])^(3/4)  =  theta^{3p} (d/p)^{3/4} (6 + 3 d/p)^{3/4}.

    This is an upper bound, not the moment itself.
    """
    a = params.d / params.p
    return params.theta ** (3.0 * params.p) * a**0.75 * (6.0 + 3.0 * a) ** 0.75


def mse_exp_canonical(n: int, theta0: float) -> float:
    """E[(theta_hat - theta0)^2] for the canonical exponential model.

    The MLE 1/mean(X) has closed-form mean squared error
    (n+2) theta0^2 / ((n-1)(n-2)); the second moment only exists for n >= 3.
    """
    n = _require_int(n, "n", 3, " for the canonical exponential MSE")
    if not (math.isfinite(theta0) and theta0 > 0.0):
        raise DomainError(f"theta0 must be positive, got {theta0!r}")
    return (n + 2) * theta0**2 / ((n - 1) * (n - 2))


def gg_mse_factor(n: int, d: float, p: float) -> float:
    """The theta-free factor of the generalized-gamma MSE.

    Returns 1 - 2 (p/(nd))^{1/p} G((nd+1)/p)/G(nd/p)
              + (p/(nd))^{2/p} G((nd+2)/p)/G(nd/p),

    evaluated entirely in log space so that nd/p up to 1e9 and beyond stays
    exact to roundoff: the gamma ratios go through
    :func:`~mlebounds.special.log_gamma_shift`, which takes the shifts 1/p
    and 2/p as given instead of rounding z + 1/p to a float first.
    Multiplied by theta^2 this is the MSE of the GG scale MLE; it is O(1/n).
    """
    n = _require_int(n, "n")
    if not (d > 0.0 and p > 0.0):
        raise DomainError(f"shapes must be positive, got d={d!r}, p={p!r}")
    z = n * d / p
    log_scale = math.log(p) - math.log(n * d)
    t1 = math.exp(log_scale / p + log_gamma_shift(z, 1.0 / p))
    t2 = math.exp(2.0 * log_scale / p + log_gamma_shift(z, 2.0 / p))
    return 1.0 - 2.0 * t1 + t2


def mse_gg(n: int, params: GeneralizedGammaParams) -> float:
    """E[(theta_hat - theta0)^2] for the generalized gamma scale MLE."""
    return params.theta**2 * gg_mse_factor(n, params.d, params.p)


def mse_closed_form(m: ExpFamilyModel, n: int, theta0: float) -> float:
    """Closed-form MSE of the MLE for a built-in model family.

    Every built-in has one: the identity-D families are unbiased sample
    means with known variances, the canonical exponential and generalized
    gamma have the gamma-ratio forms.
    """
    n = _require_int(n, "n")
    fam = m.family
    if fam == "exp-canonical":
        return mse_exp_canonical(n, theta0)
    if fam in ("exp-noncanonical", "laplace"):
        return theta0**2 / n
    if fam == "normal-mean":
        return m.shape["sigma"] ** 2 / n
    if fam == "normal-variance":
        return 2.0 * theta0**2 / n
    if fam == "weibull":
        a = m.shape["alpha"]
        return mse_gg(n, GeneralizedGammaParams(theta=theta0, d=a, p=a))
    if fam == "gg":
        return mse_gg(n, GeneralizedGammaParams(theta=theta0, d=m.shape["d"], p=m.shape["p"]))
    raise DomainError(
        f"no closed-form MSE registered for family {fam!r}; use mse_monte_carlo"
    )


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
    from .montecarlo import _SEED_MAX, MAX_CHUNK_SIZE, iter_mle_chunks

    n = _require_int(n, "n")
    trials = _require_int(trials, "trials", 1000)
    seed = _require_int(seed, "seed", 0, maximum=_SEED_MAX)
    chunk_size = _require_int(chunk_size, "chunk_size", maximum=MAX_CHUNK_SIZE)

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


def expected_h_of_z(h, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """E[h(Z)] for Z standard normal, by adaptive quadrature.

    ``h`` may be a plain callable or a TestFunction-like object exposing
    ``.h``.  With the default spec the estimated error is below 1e-8.
    """
    fn = getattr(h, "h", h)
    return integrate_real_line(lambda z: float(fn(z)) * std_normal_pdf(z), spec)

"""Moment quantities consumed by the error bounds.

Three kinds of inputs feed the bound formulas: the third absolute central
moment E|T(X) - D(theta0)|^3 of the natural statistic, the mean squared
error E[(theta_hat - theta0)^2] of the MLE, and the reference expectation
E[h(Z)] against the standard normal law.

Closed forms live on the model itself (:class:`~mlebounds.models.ExpFamilyModel`
fields set by each built-in constructor, with the generalized-gamma and
exponential formulas defined in :mod:`.models`); a model without a third
moment is refused, not integrated.  The adaptive quadrature of
:mod:`.special` gives E[h(Z)].  The seeded Monte Carlo MSE lives beside its
sampler in :mod:`.montecarlo`.
"""

from __future__ import annotations

from .errors import DomainError, _require_int

# The two gg closed forms live in .models; benchmarks/workloads.py reads
# them as moments.*, so they stay exported here.
from .models import (
    ExpFamilyModel,
    _evaluated,
    _normal,
    _require_theta,
    gg_mse_factor,
    third_abs_moment_holder_gg,
)
from .special import integrate_interval, std_normal_pdf

__all__ = [
    "expected_h_of_z",
    "gg_mse_factor",
    "mse_closed_form",
    "third_abs_moment",
    "third_abs_moment_holder_gg",
]


def third_abs_moment(m: ExpFamilyModel, theta0: float) -> float:
    """E|T(X) - D(theta0)|^3 for one observation drawn at theta0, from the
    model's ``third_moment``.

    A model without one raises DomainError: a quadrature of the moment is
    not an upper bound, and it would feed the Stein term of every bound.
    So does a theta0 at which the moment fails in floating point, or is
    below 2^-1022 (0.0 included), where it has underflowed.
    """
    t0 = _require_theta(m, theta0, "theta0")
    if m.third_moment is None:
        raise DomainError(
            f"model {m.name!r} has no third_moment, so E|T - D|^3 has no certified value; "
            "state third_moment (special.gamma_third_abs_moment gives it for a Gamma-law T) "
            "or a certified upper bound as bound_moment"
        )
    return _normal(m, t0, "E|T - D|^3", _evaluated(m, t0, m.third_moment, t0))


def mse_closed_form(m: ExpFamilyModel, n: int, theta0: float) -> float:
    """Closed-form MSE of the MLE, from the model's ``mse`` field.

    Every built-in has one: the identity-D families are unbiased sample
    means with known variances, the canonical exponential and generalized
    gamma have the gamma-ratio forms.  A theta0 at which the form fails in
    floating point raises DomainError.
    """
    n = _require_int(n, "n")
    t0 = _require_theta(m, theta0, "theta0")
    if m.mse is None:
        raise DomainError(f"model {m.name!r} has no closed-form MSE; use mse_monte_carlo")
    return _evaluated(m, t0, m.mse, n, t0)


def expected_h_of_z(h) -> float:
    """E[h(Z)] for Z standard normal, by adaptive quadrature.

    ``h`` may be a plain callable or a TestFunction-like object exposing
    ``.h``.  The integral runs over [-12, 12] with tol 1e-10 (the normal
    mass outside that window is 3.6e-33); the estimated error is below 1e-8.
    """
    fn = getattr(h, "h", h)
    return integrate_interval(lambda z: float(fn(z)) * std_normal_pdf(z), -12.0, 12.0)

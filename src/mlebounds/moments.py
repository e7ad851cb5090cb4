"""Moment quantities consumed by the error bounds.

Three kinds of inputs feed the bound formulas: the third absolute central
moment E|T(X) - D(theta0)|^3 of the natural statistic, the mean squared
error E[(theta_hat - theta0)^2] of the MLE, and the reference expectation
E[h(Z)] against the standard normal law.

Closed forms live on the model itself (:class:`~mlebounds.models.ExpFamilyModel`
fields set by each built-in constructor, with the generalized-gamma and
exponential formulas defined in :mod:`.models`) and take precedence; the
adaptive quadrature of :mod:`.special` provides the independent oracle that
every closed form is shadow-tested against.  As a third moment it now
serves only the normal-variance model, which has no ``third_moment`` yet,
and custom models.  The seeded Monte Carlo MSE lives beside its sampler in
:mod:`.montecarlo`.
"""

from __future__ import annotations

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
from .special import integrate_interval, std_normal_pdf

__all__ = [
    "EXP_THIRD_ABS_MOMENT",
    "NORMAL_THIRD_ABS_MOMENT",
    "expected_h_of_z",
    "gg_mse_factor",
    "mse_closed_form",
    "mse_exp_canonical",
    "mse_gg",
    "third_abs_moment",
    "third_abs_moment_holder_gg",
]

# Quadrature tolerance for the third moment: ten times tighter than the
# integrator's default of 1e-10, for integrands with a curvature kink where
# T(x) crosses D(theta0).
_MOMENT_TOL = 1e-11


def third_abs_moment(m: ExpFamilyModel, theta0: float) -> float:
    """E|T(X) - D(theta0)|^3 for one observation drawn at theta0.

    Uses the model's closed form ``third_moment`` when it has one, else
    integrates |T(x) - D|^3 f(x | theta0) over the model's integration
    window by adaptive quadrature with tol 1e-11.  That quadrature is not
    an error bound: mass outside the window is lost without a warning, as
    for a generalized gamma copy with d < 1 and no ``third_moment`` (8.9e-9
    relative off at (d, p) = (0.5, 3), theta0 = 1.3).
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

    return integrate_interval(integrand, lo, hi, _MOMENT_TOL)


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


def expected_h_of_z(h) -> float:
    """E[h(Z)] for Z standard normal, by adaptive quadrature.

    ``h`` may be a plain callable or a TestFunction-like object exposing
    ``.h``.  The integral runs over [-12, 12] with tol 1e-10 (the normal
    mass outside that window is 3.6e-33); the estimated error is below 1e-8.
    """
    fn = getattr(h, "h", h)
    return integrate_interval(lambda z: float(fn(z)) * std_normal_pdf(z), -12.0, 12.0)

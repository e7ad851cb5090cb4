"""Reference values computed without the program under test.

Everything here is derived from the closed-form law of the sufficient
statistic and from the paper's formulas, with scipy quadrature and mpmath
arithmetic; nothing calls into ``mlebounds``.  The benchmark runs these
outside its timed region and compares the program's outputs against them.
scipy and mpmath are imported on first use, so that a run's peak memory,
taken before the checks, does not include them.

Families are identified the same way the workloads name them: a model id
plus its shape parameters.  For every built-in family the MLE is a function
of a sum S = sum T(X_i) whose law is Gamma or Normal:

* exp-noncanonical, laplace: S ~ Gamma(n, scale theta), theta_hat = S / n;
* exp-canonical: sum X_i ~ Gamma(n, scale 1/theta), theta_hat = n / sum X_i;
* normal-variance: S ~ Gamma(n/2, scale 2 theta) (chi-square), theta_hat = S / n;
* weibull(alpha), gg(d, p): S ~ Gamma(n d / p, scale theta^p),
  theta_hat = (p S / (n d))^(1/p);
* normal-mean: theta_hat ~ Normal(theta, sigma^2 / n) exactly.

Writing S = a c (1 + v) with a the shape and c the scale, the standardized
MLE W = sqrt(n i(theta0)) (theta_hat - theta0) depends on v alone, so
E h(W) is a one-dimensional integral that does not depend on theta0.
"""

from __future__ import annotations

import functools
import math

# h(x) = 1 / (x^2 + 2) and its sup norms, as the paper states them.
NORM_H = 0.5
NORM_H_PRIME = 3.0 * math.sqrt(6.0) / 32.0

_QUAD = dict(epsabs=1e-14, epsrel=1e-12, limit=400)
_EPS = 2.0**-52


def h_ref(x: float) -> float:
    return 1.0 / (x * x + 2.0)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _quad(f, a, b, points=None) -> float:
    from scipy import integrate

    value, _ = integrate.quad(f, a, b, points=points, **_QUAD)
    return value


@functools.cache
def expected_h_of_z() -> float:
    """E h(Z) for Z standard normal."""
    return 2.0 * _quad(lambda z: h_ref(z) * _phi(z), 0.0, 40.0)


# ---------------------------------------------------------------------------
# Per-family closed forms, written out from the model definitions
# ---------------------------------------------------------------------------


def gg_shapes(model_id: str, params: dict) -> tuple[float, float]:
    if model_id == "weibull":
        return params["alpha"], params["alpha"]
    return params["d"], params["p"]


def identity(model_id: str) -> bool:
    """True when D(theta) = theta, so the MLE is a plain sample mean."""
    return model_id in ("exp-noncanonical", "laplace", "normal-mean", "normal-variance")


def canonical(model_id: str, params: dict) -> bool:
    """True when k(theta) = theta."""
    return model_id == "exp-canonical" or (
        model_id == "normal-mean" and params.get("sigma", 1.0) == 1.0
    )


def fisher(model_id: str, params: dict, theta: float) -> float:
    if model_id in ("exp-canonical", "exp-noncanonical", "laplace"):
        return 1.0 / theta**2
    if model_id == "normal-mean":
        return 1.0 / params.get("sigma", 1.0) ** 2
    if model_id == "normal-variance":
        return 1.0 / (2.0 * theta**2)
    d, p = gg_shapes(model_id, params)
    return d * p / theta**2


def d_prime(model_id: str, params: dict, theta: float) -> float:
    if model_id == "exp-canonical":  # D = -1/theta
        return 1.0 / theta**2
    if identity(model_id):
        return 1.0
    d, p = gg_shapes(model_id, params)  # D = (d/p) theta^p
    return d * theta ** (p - 1.0)


def sup_d_second(model_id: str, params: dict, theta0: float, eps: float) -> float:
    """sup |D''| over [theta0 - eps, theta0 + eps]; |D''| is monotone there."""
    if identity(model_id):
        return 0.0
    if model_id == "exp-canonical":

        def d2(t):
            return 2.0 / t**3

    else:
        d, p = gg_shapes(model_id, params)

        def d2(t):
            return abs(d * (p - 1.0) * t ** (p - 2.0))

    return max(d2(theta0 - eps), d2(theta0 + eps))


@functools.cache
def _exp_third() -> float:
    """E|X - 1|^3 for X ~ Exp(1)."""
    return _quad(lambda x: abs(x - 1.0) ** 3 * math.exp(-x), 0.0, 80.0, points=[1.0])


@functools.cache
def _normal_third() -> float:
    """E|Z|^3 for Z standard normal."""
    return 2.0 * _quad(lambda z: z**3 * _phi(z), 0.0, 40.0)


@functools.cache
def _chi2_third() -> float:
    """E|Z^2 - 1|^3 for Z standard normal, i.e. E|chi2_1 - 1|^3."""
    return 2.0 * _quad(lambda z: abs(z * z - 1.0) ** 3 * _phi(z), 0.0, 40.0, points=[1.0])


@functools.cache
def _gamma_third(a: float) -> float:
    """E|G - a|^3 for G ~ Gamma(a, 1)."""
    from scipy.special import gammaln

    log_norm = gammaln(a)

    def f(g):
        return abs(g - a) ** 3 * math.exp((a - 1.0) * math.log(g) - g - log_norm)

    hi = a + 60.0 * math.sqrt(a) + 60.0
    return _quad(f, 0.0, hi, points=[a])


def third_abs_moment(model_id: str, params: dict, theta: float) -> float:
    """E|T(X) - D(theta)|^3 for one observation, by quadrature of its law."""
    if model_id in ("exp-noncanonical", "laplace"):
        return _exp_third() * theta**3
    if model_id == "exp-canonical":
        return _exp_third() / theta**3
    if model_id == "normal-mean":
        return _normal_third() * params.get("sigma", 1.0) ** 3
    if model_id == "normal-variance":
        return _chi2_third() * theta**3
    d, p = gg_shapes(model_id, params)
    return _gamma_third(d / p) * theta ** (3.0 * p)


def holder_third(d: float, p: float, theta: float) -> float:
    """The paper's fourth-moment bound on the generalized-gamma third moment."""
    a = d / p
    return theta ** (3.0 * p) * (a * (6.0 + 3.0 * a)) ** 0.75


def bound_third_moment(model_id: str, params: dict, theta: float) -> float:
    """The third-moment input the paper's bounds use for the family."""
    if model_id in ("weibull", "gg"):
        d, p = gg_shapes(model_id, params)
        return holder_third(d, p, theta)
    return third_abs_moment(model_id, params, theta)


@functools.cache
def gg_mse_factor(n: int, d: float, p: float) -> float:
    """1 - 2 r^{1/p} G(z + 1/p)/G(z) + r^{2/p} G(z + 2/p)/G(z), r = p/(n d), z = n d/p,
    in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        nd, pp = mpmath.mpf(n) * mpmath.mpf(d), mpmath.mpf(p)
        z = nd / pp
        lr = mpmath.log(pp / nd)
        lg = mpmath.loggamma(z)
        t1 = mpmath.exp(lr / pp + mpmath.loggamma(z + 1 / pp) - lg)
        t2 = mpmath.exp(2 * lr / pp + mpmath.loggamma(z + 2 / pp) - lg)
        return float(1 - 2 * t1 + t2)


def gg_factor_tolerance(n: int, d: float, p: float) -> float:
    """Absolute roundoff allowed on the double-precision MSE factor.

    The factor is 1 - 2 t1 + t2 with t1, t2 near 1, each an exponential of
    a sum of logarithms of size about ln z, so double precision cannot do
    better than a few eps (1 + ln z) in absolute terms.
    """
    return 64.0 * _EPS * (1.0 + math.log(n * d / p))


def mse(model_id: str, params: dict, theta: float, n: int) -> tuple[float, float]:
    """(MSE of the MLE, absolute tolerance for a double-precision value)."""
    if model_id == "exp-canonical":
        value = (n + 2) * theta**2 / ((n - 1) * (n - 2))
        return value, 0.0
    if model_id in ("exp-noncanonical", "laplace"):
        return theta**2 / n, 0.0
    if model_id == "normal-mean":
        return params.get("sigma", 1.0) ** 2 / n, 0.0
    if model_id == "normal-variance":
        return 2.0 * theta**2 / n, 0.0
    d, p = gg_shapes(model_id, params)
    return theta**2 * gg_mse_factor(n, d, p), theta**2 * gg_factor_tolerance(n, d, p)


# ---------------------------------------------------------------------------
# Exact E h(W) from the law of the sufficient statistic
# ---------------------------------------------------------------------------


def _standardized(model_id: str, params: dict, n: int):
    """(gamma shape a, v -> W) for the gamma-law families."""
    if model_id in ("exp-noncanonical", "laplace"):
        root = math.sqrt(n)
        return float(n), lambda v: root * v
    if model_id == "exp-canonical":
        root = math.sqrt(n)
        return float(n), lambda v: -root * v / (1.0 + v)
    if model_id == "normal-variance":
        root = math.sqrt(n / 2.0)
        return n / 2.0, lambda v: root * v
    d, p = gg_shapes(model_id, params)
    root = math.sqrt(n * d * p)
    return n * d / p, lambda v: root * math.expm1(math.log1p(v) / p)


@functools.cache
def _expected_h_of_w(model_id: str, shape_key: tuple, n: int) -> float:
    params = dict(shape_key)
    if model_id == "normal-mean":
        return expected_h_of_z()  # W is exactly standard normal
    a, to_w = _standardized(model_id, params, n)
    root_a = math.sqrt(a)

    # S = a c (1 + v) with v = u / sqrt(a); the gamma density in u, up to a
    # constant, is exp((a - 1) log1p(v) - a v).  The constant cancels
    # between numerator and denominator.
    def density(u):
        v = u / root_a
        if v <= -1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log1p(v) - a * v)

    lo = max(-root_a, -60.0)
    num = _quad(lambda u: h_ref(to_w(u / root_a)) * density(u), lo, 60.0, points=[0.0])
    den = _quad(density, lo, 60.0, points=[0.0])
    return num / den


def expected_h_of_w(model_id: str, params: dict, n: int) -> float:
    """Exact E h(sqrt(n i(theta0)) (theta_hat - theta0)); free of theta0."""
    return _expected_h_of_w(model_id, tuple(sorted(params.items())), n)


def exact_distance(model_id: str, params: dict, n: int) -> float:
    """|E h(W) - E h(Z)|, the quantity every bound must dominate."""
    return abs(expected_h_of_w(model_id, params, n) - expected_h_of_z())


# ---------------------------------------------------------------------------
# The paper's bound formulas, recomputed from the inputs above
# ---------------------------------------------------------------------------

EXP_STEIN_CONST = 2.0 + (12.0 / math.e - 2.0)


def theorem_terms(model_id: str, params: dict, theta0: float, n: int, eps: float):
    """(stein, tail, taylor, abs tolerance of tail and taylor) of the general bound."""
    i = fisher(model_id, params, theta0)
    qp = abs(d_prime(model_id, params, theta0))
    third = bound_third_moment(model_id, params, theta0)
    stein = NORM_H_PRIME / math.sqrt(n) * (2.0 + i**1.5 / qp**3 * third)
    if identity(model_id):
        return stein, 0.0, 0.0, 0.0, 0.0
    m, m_tol = mse(model_id, params, theta0, n)
    tail_coef = 2.0 * NORM_H / eps**2
    taylor_coef = (
        NORM_H_PRIME * math.sqrt(n * i) / (2.0 * qp) * sup_d_second(model_id, params, theta0, eps)
    )
    return stein, m * tail_coef, m * taylor_coef, m_tol * tail_coef, m_tol * taylor_coef


def exp_canonical_terms(n: int):
    ratio = (n + 2) / ((n - 1) * (n - 2))
    return (
        EXP_STEIN_CONST * NORM_H_PRIME / math.sqrt(n),
        8.0 * NORM_H * ratio,
        8.0 * NORM_H_PRIME * math.sqrt(n) * ratio,
    )


def exp_noncanonical_terms(n: int):
    return EXP_STEIN_CONST * NORM_H_PRIME / math.sqrt(n), 0.0, 0.0


def ar_exp_noncanonical(n: int) -> float:
    root = math.sqrt(n)
    return (
        EXP_STEIN_CONST * NORM_H_PRIME / root
        + 8.0 * NORM_H / n
        + 2.0 * NORM_H_PRIME / root
        + 80.0 * NORM_H_PRIME / root * math.sqrt(6.0 / n + 3.0)
    )


def gg_terms(n: int, d: float, p: float):
    """(stein, tail, taylor, tail tolerance, taylor tolerance) of the simplified gg bound."""
    stein = NORM_H_PRIME / math.sqrt(n) * (2.0 + (3.0 + 6.0 * p / d) ** 0.75)
    if d == 1.0 and p == 1.0:
        return stein, 0.0, 0.0, 0.0, 0.0
    factor = gg_mse_factor(n, d, p)
    tol = gg_factor_tolerance(n, d, p)
    edge = 2.0 ** (2.0 - p) if p < 2.0 else 1.5 ** (p - 2.0)
    taylor_coef = NORM_H_PRIME * math.sqrt(n * d * p) * abs(p - 1.0) / 2.0 * edge
    return stein, 8.0 * NORM_H * factor, factor * taylor_coef, 8.0 * NORM_H * tol, tol * taylor_coef


# The published 3-d.p. columns of the verification table (exponential data,
# mean-parametrized MLE): n -> (new bound, AR bound).
PUBLISHED_TABLE = {
    10: (0.321, 11.888),
    100: (0.101, 3.401),
    1000: (0.032, 1.058),
    10_000: (0.010, 0.333),
    100_000: (0.003, 0.105),
}


def matches_3dp(value: float, printed: float) -> bool:
    """True when ``printed`` is a 3-decimal rounding or truncation of ``value``."""
    return printed in (round(value, 3), math.floor(value * 1000.0) / 1000.0)

"""One-parameter statistical models whose MLE is a function of an i.i.d. sum.

The central abstraction is :class:`ExpFamilyModel`, a one-parameter
exponential family written as

    f(x | theta) = exp{ k(theta) T(x) - A(theta) + S(x) }   on the support B.

For such a family the likelihood equation collapses to D(theta) = mean T(x_i)
with D = A'/k', so the MLE is D^{-1} applied to a sample average.  Everything
the error bounds need lives here: D, the Fisher information, the ratio
sqrt(i)/|D'|, the supremum of |D''| over a parameter ball, and the MLE
itself.  Each built-in constructor also sets its family's closed forms on
the model (Fisher information, third moment, MSE of the MLE, the law of
mean T), so the generic code in :mod:`.moments` and :mod:`.bounds` never
asks which family it holds; :mod:`.montecarlo` asks only to attach the
published bounds of the two exponential models, which it picks by registry
id.  Laplace and Weibull are copies of the exponential and generalized
gamma models with only the differing fields replaced.

Models are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConsistencyError, DomainError, _require_int, _require_real
from .special import _log_gamma_excess, gamma_third_abs_moment, integrate_interval

__all__ = [
    "EXP_THIRD_ABS_MOMENT",
    "ExpFamilyModel",
    "GeneralizedGammaParams",
    "MODEL_FAMILIES",
    "NORMAL_THIRD_ABS_MOMENT",
    "d_is_identity",
    "d_prime",
    "d_value",
    "density",
    "exp_canonical_model",
    "exp_noncanonical_model",
    "fisher_info",
    "generalized_gamma_model",
    "gg_mse_factor",
    "invert_d",
    "laplace_scale_model",
    "make_model",
    "mle",
    "mse_exp_canonical",
    "normal_mean_model",
    "normal_variance_model",
    "sup_abs_d_second",
    "third_abs_moment_holder_gg",
    "weibull_scale_model",
]

Interval = tuple[float, float]

# E|X - mu|^3 for an exponential variable with mean mu equals (12/e - 2) mu^3.
# Stored as the exact expression; the usual 5-decimal rendering is 2.41456.
EXP_THIRD_ABS_MOMENT = 12.0 / math.e - 2.0

# E|Z|^3 for Z standard normal: 2 sqrt(2/pi).
NORMAL_THIRD_ABS_MOMENT = 2.0 * math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class GeneralizedGammaParams:
    """Parameters of the generalized gamma family GG(theta, d, p).

    ``theta`` is the unknown scale; the shapes ``d`` and ``p`` are known.
    Special cases: Weibull (d = p), gamma (p = 1), exponential (d = p = 1).
    """

    theta: float
    d: float
    p: float

    def __post_init__(self) -> None:
        for name in ("theta", "d", "p"):
            v = _require_real(getattr(self, name), f"GeneralizedGammaParams.{name}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True, eq=False)
class ExpFamilyModel:
    """A one-parameter exponential family with its Fisher information.

    ``k, k1`` and ``A, A1`` are the parameter functions and their first
    derivatives, and ``fisher(theta)`` is the family's Fisher information
    i(theta) = A'' - k'' D = k' D' in closed form; only this module reads
    these three.  A custom model must state ``fisher``, written so that no
    intermediate underflows to a subnormal while the result is finite
    (``c / theta / theta``, not ``c / theta**2``).  ``T`` is the natural
    statistic and ``S`` the data-only carrier term.  Each takes a float or
    a float array; a field that is constant may return its constant as a
    scalar for either, since every caller broadcasts it.

    The optional fields hold the family's closed forms, which take theta0
    unchecked (the public functions that call them check it first); each
    built-in sets those its family has:

    * ``d_inverse(t)`` solves D(theta) = t, and ``sup_d_second(theta0,
      eps)`` is the supremum of |D''| over the eps-ball;
    * ``third_moment(theta0)`` is E|T - D(theta0)|^3 exactly, and
      ``bound_moment(theta0)`` a certified upper bound on it that the
      bounds use instead: the paper bounds the generalized-gamma (and so
      Weibull) moment by Holder's inequality, and its bounds keep that
      step although the exact moment is known;
    * ``mse(n, theta0)`` is the mean squared error of the MLE;
    * ``sample_tbar(theta0, n, rng, size)`` draws ``size`` values of mean
      T over n observations from the closed-form law of the sum of T: the
      model's one sampler, which the simulation harness draws through by
      :func:`mlebounds.montecarlo.sample_model`.

    A model without them takes the one generic path, bisection on D for
    the MLE.  Every bound refuses it without ``third_moment`` or
    ``bound_moment``, and without ``sup_d_second`` unless D is the
    identity; it has no closed-form MSE, sampler or simulation.  Asking
    for any of these raises DomainError.

    ``is_identity`` (D(theta) = theta) and ``is_canonical`` (k(theta) =
    theta) are checked on a 401-point parameter grid on first use and kept
    on the instance.
    """

    name: str
    k: Callable
    k1: Callable
    A: Callable
    A1: Callable
    fisher: Callable
    T: Callable
    S: Callable
    support: Interval
    param_space: Interval
    d_inverse: Callable | None = None
    sup_d_second: Callable | None = None
    third_moment: Callable | None = None
    bound_moment: Callable | None = None
    mse: Callable | None = None
    sample_tbar: Callable | None = None

    def contains_theta(self, theta: float) -> bool:
        lo, hi = self.param_space
        return lo < theta < hi

    @functools.cached_property
    def is_identity(self) -> bool:
        """True iff D(theta) = theta (to 1e-12) on the parameter grid."""
        grid = _param_grid(self.param_space)
        return bool(np.all(np.abs(_d(self, grid) - grid) <= 1e-12))

    @functools.cached_property
    def is_canonical(self) -> bool:
        """True iff k(theta) = theta (to 1e-12 relative) on the parameter grid."""
        grid = _param_grid(self.param_space)
        kvals = np.asarray(self.k(grid), dtype=float)
        return bool(np.all(np.abs(kvals - grid) <= 1e-12 * np.maximum(1.0, np.abs(grid))))


def _param_grid(space: Interval) -> np.ndarray:
    """401 points across the parameter space, 0.5 % of the width in from
    each finite end; an infinite end is cut at -20 or 20."""
    lo, hi = space
    glo = lo if math.isfinite(lo) else -20.0
    ghi = hi if math.isfinite(hi) else 20.0
    width = ghi - glo
    if math.isfinite(lo):
        glo += 0.005 * width
    if math.isfinite(hi):
        ghi -= 0.005 * width
    return np.linspace(glo, ghi, 401)


def _require_theta(m: ExpFamilyModel, theta: float, name: str = "theta") -> float:
    v = _require_real(theta, name, "finite")
    if not m.contains_theta(v):
        raise DomainError(
            f"{name}={v!r} is outside the parameter space {m.param_space} of model {m.name!r}"
        )
    return v


def _not_evaluable(m: ExpFamilyModel, t0: float, exc: ArithmeticError) -> DomainError:
    """The refusal of a theta0 inside the parameter space at which the
    model's closed forms fail in floating point: an overflow, an underflow
    that leaves a zero divisor, or (a FloatingPointError) a value that
    overflowed or underflowed without raising."""
    return DomainError(
        f"theta0={t0!r} is inside the parameter space of model {m.name!r}, but its closed "
        f"forms fail there in floating point ({type(exc).__name__}: {exc})"
    )


def _evaluated(m: ExpFamilyModel, t0: float, f: Callable, *args):
    """``f(*args)``, a closed form of ``m`` at theta0 = t0, with an
    ArithmeticError or a float that is not finite (a float division by a
    subnormal overflows to inf without raising) refused through
    :func:`_not_evaluable`: the one guard of every value at theta0.  A
    value that is not a float (a numpy number other than float64) is
    returned for the caller's own check."""
    try:
        value = f(*args)
        if isinstance(value, float) and not math.isfinite(value):
            raise FloatingPointError(f"a closed form evaluates to {value!r}")
    except ArithmeticError as exc:
        raise _not_evaluable(m, t0, exc) from exc
    return value


def _d(m: ExpFamilyModel, t):
    """D(t) = A'(t) / k'(t) at an unchecked float or array t: D's one formula."""
    return m.A1(t) / m.k1(t)


def d_value(m: ExpFamilyModel, theta: float) -> float:
    """D(theta) = A'(theta) / k'(theta), the reparametrization under which
    the MLE is a sample average of T.  A theta at which A' or k' overflows,
    or underflows to a zero divisor, raises DomainError."""
    t = _require_theta(m, theta)
    return float(_evaluated(m, t, _d, m, t))


def d_prime(m: ExpFamilyModel, theta: float) -> float:
    """D'(theta) = i(theta) / k'(theta), the D' of the bounds, refused
    where :func:`fisher_info` refuses i or where D' raises or is not finite."""
    return _fisher_and_d_prime(m, _require_theta(m, theta))[1]


def fisher_info(m: ExpFamilyModel, theta: float) -> float:
    """Expected Fisher information i(theta) for a single observation: the
    model's stated ``fisher``, evaluated through :func:`_evaluated`.

    A theta at which i cannot be evaluated raises DomainError naming it:
    an evaluation that raises an ArithmeticError, an i that is NaN or
    infinite, or a non-negative i below 2^-1022 (0.0 included), which has
    underflowed.  A negative i breaks the model's contract and raises
    ConsistencyError.
    """
    return _fisher(m, _require_theta(m, theta))


def _fisher(m: ExpFamilyModel, t: float) -> float:
    """:func:`fisher_info` at a checked t."""
    i = float(_evaluated(m, t, m.fisher, t))
    if i < 0.0:
        raise ConsistencyError(
            f"Fisher information must be positive, got {i!r} for model {m.name!r} at theta={t}"
        )
    return _normal(m, t, "i(theta0)", i)


def _normal(m: ExpFamilyModel, t0: float, what: str, value):
    """``value`` of ``m`` at theta0 = t0, refused through :func:`_not_evaluable`
    where it is a float that is NaN, infinite, or in [0, 2^-1022), where it
    has underflowed.  Any other value is returned for the caller's check."""
    if isinstance(value, float) and not (value < 0.0 or 2.0**-1022 <= value < math.inf):
        exc = FloatingPointError(f"{what} = {value!r} is not a normal float")
        raise _not_evaluable(m, t0, exc) from exc
    return value


def _fisher_and_d_prime(m: ExpFamilyModel, t: float) -> tuple[float, float]:
    """i(t) with :func:`fisher_info`'s checks, and D'(t) = i / k'(t), D''s
    one formula, at a checked t."""
    i = _fisher(m, t)
    return i, _evaluated(m, t, lambda: i / float(m.k1(t)))


def invert_d(m: ExpFamilyModel, target: float) -> float:
    """Solve D(theta) = target on the parameter space.

    Generic path: bracket the root by geometric expansion, then bisect
    until the bracket's ends are adjacent floats, whatever the size of the
    target.  D' = i/k' keeps one sign on the parameter space, so the
    direction in which D moves is read off the sign of D' at the starting
    point.  The bracket grows by doubling steps toward an infinite end, and
    halves the gap to a finite one, until it holds the root.  Built-in
    models normally bypass this via their closed-form ``d_inverse``.

    Raises DomainError when the target is not attained by D on the space,
    or when D' at the starting point is zero or refused.  The search
    ends unattained where its candidate reaches the end of the space or of
    the float range, or where k' or D there is not finite or raises an
    ArithmeticError: past that point D = A'/k' is no longer D (once k'
    overflows, A'/k' evaluates to 0 and would bracket a false root).
    """
    y = _require_real(target, "invert_d target", "finite")
    lo_b, hi_b = m.param_space

    # Starting point strictly inside the space.
    if math.isfinite(lo_b) and math.isfinite(hi_b):
        x0 = 0.5 * (lo_b + hi_b)
    elif math.isfinite(lo_b):
        x0 = lo_b + 1.0
    elif math.isfinite(hi_b):
        x0 = hi_b - 1.0
    else:
        x0 = 0.0

    dp0 = d_prime(m, x0)
    if dp0 == 0.0:
        raise DomainError(f"D'({x0!r}) = 0.0 for model {m.name!r}; D is not monotone")
    sign = math.copysign(1.0, dp0)

    def g(th: float) -> float:
        return sign * (float(_d(m, th)) - y)

    g0 = g(x0)
    if g0 == 0.0:
        return x0
    # g increases with theta: step toward the lower end when g0 > 0, else
    # the upper, until g takes the sign of the direction (or is zero).
    direction, end = (-1.0, lo_b) if g0 > 0.0 else (1.0, hi_b)
    finite_end = math.isfinite(end)
    gap = end - x0 if finite_end else direction
    while True:
        if finite_end:
            gap *= 0.5
            cand = end - gap
        else:
            gap *= 2.0
            cand = x0 + gap
        try:
            inside = m.contains_theta(cand) and math.isfinite(m.k1(cand))
            dc = float(_d(m, cand)) if inside else math.nan
        except ArithmeticError:
            dc = math.nan
        if not math.isfinite(dc):
            raise DomainError(
                f"target {y!r} is not attained by D on the parameter space of {m.name!r}"
            )
        if direction * sign * (dc - y) >= 0.0:
            break
    lo, hi = (cand, x0) if g0 > 0.0 else (x0, cand)

    # g(lo) <= 0 <= g(hi), and each step halves the bracket.
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def mle(m: ExpFamilyModel, sample) -> float:
    """Maximum likelihood estimate from an i.i.d. sample.

    Computes the sample mean of T and inverts D at it: by the model's
    closed-form ``d_inverse`` when it has one, else by :func:`invert_d`.
    A copy of a model with ``d_inverse=None`` takes the generic path.

    Both paths refuse, with DomainError, an MLE they cannot return: a mean
    T that is not finite (T overflowed), or one whose inverse raises an
    ArithmeticError or lies outside the open parameter space (a mean T
    that underflowed to 0 on an edge of the space, say).
    """
    xs = np.asarray(sample, dtype=float)
    if xs.size == 0:
        raise DomainError("sample must be non-empty")
    lo, hi = m.support
    if not np.all(np.isfinite(xs)) or not np.all((xs > lo) & (xs < hi)):
        raise DomainError(
            f"sample contains points outside the open support {m.support} of {m.name!r}"
        )
    with np.errstate(over="ignore"):  # an overflow gives inf, which is refused
        tbar = float(np.mean(m.T(xs)))
    if m.d_inverse is None:
        return invert_d(m, tbar)
    try:
        theta = float(m.d_inverse(tbar)) if math.isfinite(tbar) else math.nan
    except ArithmeticError:
        theta = math.nan
    if not m.contains_theta(theta):
        raise DomainError(
            f"mean T = {tbar!r} has no MLE inside the parameter space {m.param_space} of "
            f"model {m.name!r}"
        )
    return theta


def sup_abs_d_second(m: ExpFamilyModel, theta0: float, epsilon: float) -> float:
    """sup of |D''(theta)| over the ball |theta - theta0| <= epsilon: 0 when
    D is the identity, else the model's ``sup_d_second``.

    Any other model raises DomainError: |D''| sampled on the ball would
    only be a lower estimate, and a bound built on it would not be certified.
    So does a ball on which ``sup_d_second`` fails in floating point.
    """
    t0 = _require_theta(m, theta0, "theta0")
    eps = _require_real(epsilon, "epsilon")
    lo, hi = m.param_space
    if not (lo < t0 - eps and t0 + eps < hi):
        raise DomainError(
            f"the ball [{t0 - eps}, {t0 + eps}] leaves the parameter space {m.param_space}"
        )
    if m.is_identity:
        return 0.0
    if m.sup_d_second is None:
        raise DomainError(
            f"model {m.name!r} has no sup_d_second, so sup|D''| on the ball has no certified "
            "value; where |D''| is monotone on the ball, the larger of its two end values is one"
        )
    return float(_evaluated(m, t0, m.sup_d_second, t0, eps))


def d_is_identity(m: ExpFamilyModel) -> bool:
    """True iff D(theta) = theta (to 1e-12) on a dense parameter grid;
    computed once per model (:attr:`ExpFamilyModel.is_identity`)."""
    return m.is_identity


def density(m: ExpFamilyModel, x, theta: float):
    """Model density exp{k(theta) T(x) - A(theta) + S(x)} (zero off support)."""
    t = _require_theta(m, theta)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = m.support
    inside = (arr > lo) & (arr < hi)
    out = np.zeros_like(arr)
    if np.any(inside):
        xs = arr[inside]
        out[inside] = np.exp(m.k(t) * m.T(xs) - m.A(t) + m.S(xs))
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Closed forms of the built-in families
# ---------------------------------------------------------------------------


def _quadrature_third_moment(m: ExpFamilyModel, t0: float, lo: float, hi: float) -> float:
    """E|T(X) - D(t0)|^3 by adaptive quadrature of the density over [lo, hi],
    with tol 1e-11 for the kink where T(x) crosses D.  Not an error bound:
    mass outside [lo, hi] is lost without a warning.
    """
    d0 = d_value(m, t0)

    def integrand(x: float) -> float:
        return abs(float(m.T(x)) - d0) ** 3 * density(m, x, t0)

    return integrate_interval(integrand, lo, hi, 1e-11)


def third_abs_moment_holder_gg(params: GeneralizedGammaParams) -> float:
    """Upper bound on E|X^p - (d/p) theta^p|^3 for the generalized gamma.

    The paper bounds the moment through the fourth central moment of the
    Gamma(d/p) law of X^p:

        E|T - D|^3  <=  (E[(T - D)^4])^(3/4)  =  theta^{3p} (d/p)^{3/4} (6 + 3 d/p)^{3/4}.

    This is an upper bound, not the moment itself.
    """
    return _holder_gg(params.theta, params.d, params.p)


def _holder_gg(theta: float, d: float, p: float) -> float:
    """:func:`third_abs_moment_holder_gg` at unchecked floats."""
    a = d / p
    return theta ** (3.0 * p) * a**0.75 * (6.0 + 3.0 * a) ** 0.75


def mse_exp_canonical(n: int, theta0: float) -> float:
    """E[(theta_hat - theta0)^2] for the canonical exponential model.

    The MLE 1/mean(X) has closed-form mean squared error
    (n+2) theta0^2 / ((n-1)(n-2)); the second moment only exists for n >= 3.
    """
    n = _require_int(n, "n", 3, " for the canonical exponential MSE")
    theta0 = _require_real(theta0, "theta0")
    return (n + 2) * theta0**2 / ((n - 1) * (n - 2))


def gg_mse_factor(n: int, d: float, p: float) -> float:
    """The theta-free factor of the generalized-gamma MSE.

    With z = nd/p, the factor

        1 - 2 z^{-1/p} Gamma(z + 1/p)/Gamma(z) + z^{-2/p} Gamma(z + 2/p)/Gamma(z)

    is expm1(G(z, 2/p)) - 2 expm1(G(z, 1/p)), with G(z, a) = ln Gamma(z + a)
    - ln Gamma(z) - a ln z from
    :func:`~mlebounds.special.log_gamma_shift_excess`.  Both G are O(1/z)
    and computed as small quantities, so the O(1/n) result keeps its
    relative accuracy for nd/p up to 1e9 and beyond, where 1 - 2 t1 + t2
    with t1, t2 near 1 would lose it to cancellation.  Multiplied by
    theta^2 this is the MSE of the GG scale MLE.  DomainError where the
    factor is not finite: 1/z overflows for nd/p below about 5.6e-309.
    """
    n = _require_int(n, "n")
    d = _require_real(d, "generalized gamma shape d")
    p = _require_real(p, "generalized gamma shape p")
    z = n * d / p
    # z and both shifts are positive, so the unchecked core serves.
    g1 = _log_gamma_excess(z, 1.0 / p)
    g2 = _log_gamma_excess(z, 2.0 / p)
    factor = math.expm1(g2) - 2.0 * math.expm1(g1)
    if not math.isfinite(factor):
        raise DomainError(f"the generalized gamma MSE factor is not finite at n*d/p = {z!r}")
    return factor


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

_POS = (0.0, math.inf)
_REAL = (-math.inf, math.inf)


def exp_canonical_model() -> ExpFamilyModel:
    """Exponential distribution with density theta * exp(-theta x), x > 0.

    Canonical parametrization: k(theta) = theta, T(x) = -x, A = -log theta.
    D(theta) = -1/theta and the MLE is 1 / sample mean.
    """
    return ExpFamilyModel(
        name="exp-canonical",
        k=lambda th: th,
        k1=lambda th: 1.0,
        A=lambda th: -np.log(th),
        A1=lambda th: -1.0 / th,
        fisher=lambda th: 1.0 / th / th,
        T=lambda x: -x,
        S=lambda x: 0.0,
        support=_POS,
        param_space=_POS,
        d_inverse=lambda t: -1.0 / t,
        sup_d_second=lambda t0, eps: 2.0 / (t0 - eps) ** 3,
        third_moment=lambda t0: EXP_THIRD_ABS_MOMENT / t0**3,
        mse=mse_exp_canonical,
        # The sum of n exponential draws with rate theta is Gamma(n, scale 1/theta).
        sample_tbar=lambda t0, n, rng, size: -rng.gamma(n, 1.0 / t0, size) / n,
    )


def exp_noncanonical_model() -> ExpFamilyModel:
    """Exponential distribution with mean theta: density exp(-x/theta)/theta.

    Here D(theta) = theta, so the MLE is the sample mean itself and the
    tail/Taylor terms of the bounds vanish identically.
    """
    return ExpFamilyModel(
        name="exp-noncanonical",
        k=lambda th: -1.0 / th,
        k1=lambda th: 1.0 / th**2,
        A=lambda th: np.log(th),
        A1=lambda th: 1.0 / th,
        fisher=lambda th: 1.0 / th / th,
        T=lambda x: x,
        S=lambda x: 0.0,
        support=_POS,
        param_space=_POS,
        d_inverse=lambda t: t,
        third_moment=lambda t0: EXP_THIRD_ABS_MOMENT * t0**3,
        mse=lambda n, t0: t0**2 / n,
        # The sum of n exponential draws with mean theta is Gamma(n, scale theta).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(n, t0, size) / n,
    )


def laplace_scale_model() -> ExpFamilyModel:
    """Laplace scale family: density exp(-|x|/theta) / (2 theta) on the line.

    |X| is exponential with mean theta, so this is the exponential model
    seen through T(x) = |x|: only A, T and the support differ.  The MLE is
    the mean of |x_i|.
    """
    return dataclasses.replace(
        exp_noncanonical_model(),
        name="laplace",
        A=lambda th: np.log(2.0 * th),
        T=lambda x: np.abs(x),
        support=_REAL,
    )


def normal_mean_model(sigma: float = 1.0) -> ExpFamilyModel:
    """Normal location family with known standard deviation sigma.

    D is the identity and the MLE is the sample mean.
    """
    sigma = _require_real(sigma, "sigma")
    s2 = sigma**2
    log_norm = math.log(sigma * math.sqrt(2.0 * math.pi))
    third = NORMAL_THIRD_ABS_MOMENT * sigma**3
    inv_s2 = 1.0 / s2  # k' and i
    return ExpFamilyModel(
        name=f"normal-mean(sigma={sigma})",
        k=lambda th: th / s2,
        k1=lambda th: inv_s2,
        A=lambda th: th**2 / (2.0 * s2),
        A1=lambda th: th / s2,
        fisher=lambda th: inv_s2,
        T=lambda x: np.asarray(x, dtype=float) + 0.0,
        S=lambda x: -np.asarray(x, dtype=float) ** 2 / (2.0 * s2) - log_norm,
        support=_REAL,
        param_space=_REAL,
        d_inverse=lambda t: t,
        third_moment=lambda t0: third,
        mse=lambda n, t0: s2 / n,
        sample_tbar=lambda t0, n, rng, size: rng.normal(t0, sigma / math.sqrt(n), size),
    )


def normal_variance_model(mu: float = 0.0) -> ExpFamilyModel:
    """Normal scale family: theta is the variance, the mean mu is known.

    T(x) = (x - mu)^2, D is the identity, and the MLE is mean (x_i - mu)^2.
    The third moment is theta^3 times :func:`_quadrature_third_moment` at
    theta = 1 over mu -/+ 14 (normal mass 1.6e-44 outside), which equals
    8 m3(1/2) theta^3 (T is Gamma(1/2, scale 2 theta)).  It integrates in
    the standardized variable because the quadrature's error target is
    absolute for an integral below 1, as the moment is for small theta.
    """
    mu = _require_real(mu, "mu", "finite")
    log_norm = 0.5 * math.log(2.0 * math.pi)
    model = ExpFamilyModel(
        name=f"normal-variance(mu={mu})",
        k=lambda th: -1.0 / (2.0 * th),
        k1=lambda th: 1.0 / (2.0 * th**2),
        A=lambda th: 0.5 * np.log(th),
        A1=lambda th: 1.0 / (2.0 * th),
        fisher=lambda th: 0.5 / th / th,
        T=lambda x: (np.asarray(x, dtype=float) - mu) ** 2,
        S=lambda x: -log_norm,
        support=_REAL,
        param_space=_POS,
        d_inverse=lambda t: t,
        # The quadrature does not depend on t0, yet reruns its 5 985
        # evaluations on each call; ROADMAP item 2 replaces it with the
        # closed form 8 m3(1/2) t0^3.
        third_moment=lambda t0: t0**3 * _quadrature_third_moment(model, 1.0, mu - 14.0, mu + 14.0),
        mse=lambda n, t0: 2.0 * t0**2 / n,
        # The sum of n draws of (x - mu)^2 is theta times a chi-square with
        # n degrees of freedom: Gamma(n/2, scale 2 theta).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(0.5 * n, 2.0 * t0, size) / n,
    )
    return model


def generalized_gamma_model(d: float, p: float) -> ExpFamilyModel:
    """Generalized gamma GG(theta, d, p) with known shapes d, p > 0.

    T(x) = x^p follows a Gamma(d/p, rate theta^-p) law, D(theta) =
    (d/p) theta^p, and the MLE is ((p/(n d)) sum x_i^p)^(1/p).  So
    E|T - D|^3 = theta^{3p} m3(d/p), with m3 the Gamma third absolute
    moment of :func:`~mlebounds.special.gamma_third_abs_moment`.
    """
    dv = _require_real(d, "generalized gamma shape d")
    pv = _require_real(p, "generalized gamma shape p")
    a = dv / pv
    dp = dv * pv  # i(theta) = d p / theta^2
    log_gamma_a = math.lgamma(a)

    def sup_d2(t0: float, eps: float) -> float:
        edge = t0 - eps if pv < 2.0 else t0 + eps
        return dv * abs(pv - 1.0) * edge ** (pv - 2.0)

    return ExpFamilyModel(
        name=f"gg(d={dv}, p={pv})",
        k=lambda th: -th ** (-pv),
        k1=lambda th: pv * th ** (-pv - 1.0),
        A=lambda th: dv * np.log(th),
        A1=lambda th: dv / th,
        fisher=lambda th: dp / th / th,
        T=lambda x: np.asarray(x, dtype=float) ** pv,
        S=lambda x: math.log(pv) + (dv - 1.0) * np.log(x) - log_gamma_a,
        support=_POS,
        param_space=_POS,
        d_inverse=lambda t: (pv * t / dv) ** (1.0 / pv),
        sup_d_second=sup_d2,
        third_moment=lambda t0: gamma_third_abs_moment(a) * t0 ** (3.0 * pv),
        bound_moment=lambda t0: _holder_gg(float(t0), dv, pv),
        mse=lambda n, t0: float(t0) ** 2 * gg_mse_factor(n, dv, pv),
        # The sum of n draws of T = X^p is Gamma(n d/p, scale theta^p).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(n * dv / pv, t0**pv, size) / n,
    )


def weibull_scale_model(alpha: float) -> ExpFamilyModel:
    """Weibull scale family with known shape alpha: the GG(d=p=alpha) case."""
    alpha = _require_real(alpha, "weibull shape alpha")
    base = generalized_gamma_model(alpha, alpha)
    return dataclasses.replace(base, name=f"weibull(alpha={alpha})")


MODEL_FAMILIES: dict[str, Callable[..., ExpFamilyModel]] = {
    "exp-canonical": exp_canonical_model,
    "exp-noncanonical": exp_noncanonical_model,
    "laplace": laplace_scale_model,
    "normal-mean": normal_mean_model,
    "normal-variance": normal_variance_model,
    "weibull": weibull_scale_model,
    "gg": generalized_gamma_model,
}


def make_model(model_id: str, **params) -> ExpFamilyModel:
    """Build a built-in model from its string identifier and shape parameters.

    Examples: ``make_model("gg", d=2, p=1.5)``, ``make_model("weibull",
    alpha=2.0)``, ``make_model("exp-noncanonical")``.
    """
    builder = MODEL_FAMILIES.get(model_id)
    if builder is None:
        raise DomainError(
            f"unknown model id {model_id!r}; available: {sorted(MODEL_FAMILIES)}"
        )
    try:
        return builder(**params)
    except TypeError as exc:
        accepted = list(inspect.signature(builder).parameters)
        raise DomainError(
            f"model {model_id!r} takes the parameters {accepted}, got {sorted(params)}"
        ) from exc

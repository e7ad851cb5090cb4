"""One-parameter statistical models whose MLE is a function of an i.i.d. sum.

The central abstraction is :class:`ExpFamilyModel`, a one-parameter
exponential family written as

    f(x | theta) = exp{ k(theta) T(x) - A(theta) + S(x) }   on the support B.

For such a family the likelihood equation collapses to D(theta) = mean T(x_i)
with D = A'/k', so the MLE is D^{-1} applied to a sample average.  Everything
the error bounds need lives here: D, the Fisher information, the ratio
sqrt(i)/|D'|, the supremum of |D''| over a parameter ball, and the MLE
itself.  Each built-in sets its family's closed forms on the model, so
:mod:`.moments` and :mod:`.bounds` never ask which family they hold, and
:mod:`.montecarlo` asks only to attach the published exponential bounds.

Six built-ins are declared by the law of T, sign * Gamma(a, scale c theta^r):
exp-canonical, exp-noncanonical, normal-variance and gg state k, A, T, S,
support and (a, c, r, sign), Laplace and Weibull are their copies, and
:func:`_gamma_law_model` fills k', A', i, D^{-1}, sup|D''|, the third moment,
the MSE and the sampler.  Two forms stay stated: exp-canonical's MSE, which
exists only for n >= 3, and normal-variance's third moment, a quadrature
of about 80 ms a call.  Its closed form waits on ROADMAP item 1, the mend
of `Rounds` in benchmarks/run.py and its 10 % peak_rss_mb bound: on seed 3
the closed form took the certify workload from 65 to 2 998 rounds and its
peak RSS from 47.1 to 332.6 MiB.

Models are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import dataclasses
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
    "identity",
    "laplace_scale_model",
    "make_model",
    "mle",
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

    A model without ``d_inverse`` has no MLE: :func:`mle` and the
    simulation harness refuse it.  Every bound refuses a model without
    ``third_moment`` or ``bound_moment``, and without ``sup_d_second``
    unless D is the identity; without ``mse`` or ``sample_tbar`` it has no
    closed-form MSE, sampler or simulation.  Asking for any of these raises
    DomainError.

    A model declares that D is the identity by ``d_inverse=identity`` (D^{-1}
    is the identity exactly when D is), and that it is canonical by
    ``k=identity``, with :func:`identity` the function itself: ``is_identity``
    and ``is_canonical`` read these declarations and evaluate nothing.  A
    model that declares neither takes the non-identity, non-canonical path.
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

    @property
    def is_identity(self) -> bool:
        """True iff the model declares D(theta) = theta: ``d_inverse=identity``."""
        return self.d_inverse is identity

    @property
    def is_canonical(self) -> bool:
        """True iff the model declares k(theta) = theta: ``k=identity``."""
        return self.k is identity


def identity(t):
    """The identity map, t itself.  A model states D^{-1} or k as this very
    function to declare that D, or k, is the identity."""
    return t


def _require_theta(m: ExpFamilyModel, theta: float, name: str = "theta") -> float:
    v = _require_real(theta, name, "finite")
    if not m.contains_theta(v):
        raise DomainError(
            f"{name}={v!r} is outside the parameter space {m.param_space} of model {m.name!r}"
        )
    return v


def _bad_shape(shapes: str, exc: ArithmeticError) -> DomainError:
    """The refusal, by a built-in's constructor, of checked ``shapes`` from
    which it cannot compute its constants in floating point."""
    return DomainError(
        f"{shapes}: the model's constants fail in floating point ({type(exc).__name__}: {exc})"
    )


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
    the MLE is a sample average of T.  A theta at which A' or D fails in
    floating point, or |k'| is not a normal float, raises DomainError."""
    t = _require_theta(m, theta)
    _k1(m, t)
    return float(_evaluated(m, t, _d, m, t))


def _k1(m: ExpFamilyModel, t: float) -> float:
    """k'(t) at a checked t, refused where |k'| is not a normal float."""
    k1 = float(_evaluated(m, t, m.k1, t))
    _normal(m, t, "|k'(theta0)|", abs(k1))
    return k1


def d_prime(m: ExpFamilyModel, theta: float) -> float:
    """D'(theta) = i(theta) / k'(theta), the D' of the bounds, refused where
    :func:`fisher_info` refuses i, |k'| is not normal, or D' is not finite."""
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
    i, k1 = _fisher(m, t), _k1(m, t)
    return i, _evaluated(m, t, lambda: i / k1)


def mle(m: ExpFamilyModel, sample) -> float:
    """Maximum likelihood estimate from an i.i.d. sample: the model's
    closed-form ``d_inverse`` at the sample mean of T.

    A model without ``d_inverse`` is refused with DomainError, and so is an
    MLE that cannot be returned: a mean T that is not finite (T overflowed),
    or one whose inverse raises an ArithmeticError or lies outside the open
    parameter space (a mean T that underflowed to 0 on an edge of the
    space, say).
    """
    if m.d_inverse is None:
        raise DomainError(f"model {m.name!r} has no MLE: it states no closed-form d_inverse")
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
    try:
        theta = float(m.d_inverse(tbar)) if math.isfinite(tbar) else math.nan
    except ArithmeticError:
        theta = math.nan
    if not m.contains_theta(theta):
        raise _no_mle(m, tbar)
    return theta


def _no_mle(m: ExpFamilyModel, tbar: float, where: str = "") -> DomainError:
    """The refusal of a mean T whose MLE is outside the open parameter
    space, by :func:`mle` and, naming the trial in ``where``, by the
    simulation harness."""
    return DomainError(
        f"{where}mean T = {tbar!r} has no MLE inside the parameter space {m.param_space} of "
        f"model {m.name!r}"
    )


def sup_abs_d_second(m: ExpFamilyModel, theta0: float, epsilon: float) -> float:
    """sup of |D''(theta)| over the ball |theta - theta0| <= epsilon: 0 when
    the model declares D the identity, else the model's ``sup_d_second``.

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
            "value; where |D''| is monotone on the ball, the larger of its two end values is "
            "one, and a model whose D is the identity declares it by d_inverse=models.identity"
        )
    return float(_evaluated(m, t0, m.sup_d_second, t0, eps))


def d_is_identity(m: ExpFamilyModel) -> bool:
    """True iff the model declares D(theta) = theta by ``d_inverse=identity``
    (:attr:`ExpFamilyModel.is_identity`)."""
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
    factor is not finite or its arithmetic fails: 1/z overflows for nd/p
    below about 5.6e-309 and divides by zero where z underflows to 0, and
    an expm1 overflows where 1/p is large against z.
    """
    n = _require_int(n, "n")
    d = _require_real(d, "generalized gamma shape d")
    p = _require_real(p, "generalized gamma shape p")
    z = n * d / p  # inf, without raising, where n * d overflows
    try:
        # z and both shifts are positive, so the unchecked core serves.
        g1 = _log_gamma_excess(z, 1.0 / p)
        g2 = _log_gamma_excess(z, 2.0 / p)
        factor = math.expm1(g2) - 2.0 * math.expm1(g1)
    except ArithmeticError:
        factor = math.inf
    if not math.isfinite(factor):
        raise DomainError(f"the generalized gamma MSE factor is not finite at n={n}, n*d/p = {z!r}")
    return factor


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

_POS = (0.0, math.inf)
_REAL = (-math.inf, math.inf)


def _gamma_law_model(name: str, a_num: float, a_den: float, c: float, r: float, sign: float,
                     **fields) -> ExpFamilyModel:
    """A built-in on theta > 0 whose T is sign * Gamma(a = a_num/a_den, scale
    c theta^r), with ``fields`` its k, A, T, S, support and any form it states.
    The law gives k' = sign r/(c theta^{r+1}), A' = a r/theta, i = a r^2/theta^2,
    D = sign a c theta^r, |D''| = a c |r (r - 1)| theta^{r-2} (so its sup on a
    ball is at t0 - eps where r < 2), E|T - D|^3 = m3(a) c^3 theta^{3r}, n mean T
    ~ sign * Gamma(n a, c theta^r), and the MSE: c theta^2/n where D is the
    identity (r = 1, sign a c = 1, declared by d_inverse=identity), else, for
    r > 0, the GG(theta, a r, r) MLE's.
    Each form repeats the float operations of the family's former own: a r is
    a_num (r / a_den), d for gg; m3(1) is EXP_THIRD_ABS_MOMENT; a power of
    theta is a division where r < 0; at r = -1, k' is a constant and D^{-1}
    one division; and the sampler divides its draws by sign n, exact in IEEE.
    """
    a, ar = a_num / a_den, a_num * (r / a_den)
    k1c, d2c = sign * r / c, abs(ar * c * (r - 1.0))  # = k' theta^(r+1), |D''| theta^(2-r)
    is_id = r == 1.0 and sign * a_num * c == a_den

    def third_moment(t0):
        m3 = (EXP_THIRD_ABS_MOMENT if a == 1.0 else gamma_third_abs_moment(a)) * c**3
        return m3 / t0 ** (-3.0 * r) if r < 0.0 else m3 * t0 ** (3.0 * r)

    def sample_tbar(t0, n, rng, size):
        draws = rng.gamma(n * a_num / a_den, c * t0**r if r > 0.0 else c / t0 ** (-r), size)
        return draws / (sign * n)

    return ExpFamilyModel(**(dict(
        name=name, param_space=_POS, third_moment=third_moment, sample_tbar=sample_tbar,
        k1=(lambda th: k1c) if r == -1.0 else (lambda th: k1c / th ** (r + 1.0)),
        A1=lambda th: ar / th, fisher=lambda th: ar * r / th / th,
        d_inverse=identity if is_id else (lambda t: sign * a * c / t) if r == -1.0
        else (lambda t: (a_den * t / (sign * c * a_num)) ** (1.0 / r)),
        sup_d_second=lambda t0, eps: d2c / (t0 - eps) ** (2.0 - r) if r < 0.0
        else d2c * (t0 - eps if r < 2.0 else t0 + eps) ** (r - 2.0),
        mse=(lambda n, t0: c * t0**2 / n) if is_id
        else (lambda n, t0: float(t0) ** 2 * gg_mse_factor(n, ar, r)),
    ) | fields))


def exp_canonical_model() -> ExpFamilyModel:
    """Exponential distribution with density theta * exp(-theta x), x > 0.

    Canonical: k(theta) = theta, A = -log theta, and T(x) = -x is
    -Gamma(1, scale 1/theta), so D(theta) = -1/theta and the MLE is
    1 / sample mean, whose MSE, stated here, exists only for n >= 3.
    """
    return _gamma_law_model(
        "exp-canonical", a_num=1.0, a_den=1.0, c=1.0, r=-1.0, sign=-1.0, support=_POS,
        k=identity, A=lambda th: -np.log(th), T=lambda x: -x, S=lambda x: 0.0,
        mse=lambda n, t0: (_require_int(n, "n", 3, " for the canonical exponential MSE") + 2)
        * t0**2 / ((n - 1) * (n - 2)),
    )


def exp_noncanonical_model() -> ExpFamilyModel:
    """Exponential distribution with mean theta: density exp(-x/theta)/theta.

    T = Gamma(1, scale theta), so D(theta) = theta: the MLE is the sample
    mean itself and the tail/Taylor terms of the bounds vanish identically.
    """
    return _gamma_law_model(
        "exp-noncanonical", a_num=1.0, a_den=1.0, c=1.0, r=1.0, sign=1.0, support=_POS,
        k=lambda th: -1.0 / th, A=lambda th: np.log(th), T=lambda x: x, S=lambda x: 0.0,
    )


def laplace_scale_model() -> ExpFamilyModel:
    """Laplace scale family: density exp(-|x|/theta) / (2 theta) on the line.

    |X| is exponential with mean theta, so this is the exponential model
    seen through T(x) = |x|: only A, T and the support differ.  The MLE is
    the mean of |x_i|.
    """
    return dataclasses.replace(
        exp_noncanonical_model(), name="laplace",
        A=lambda th: np.log(2.0 * th), T=lambda x: np.abs(x), support=_REAL,
    )


def normal_mean_model(sigma: float = 1.0) -> ExpFamilyModel:
    """Normal location family with known standard deviation sigma.

    D is the identity and the MLE is the sample mean.  A sigma whose
    sigma^2 or sigma^3 overflows, or whose sigma^2 or third moment
    E|T - D|^3 = 2 sqrt(2/pi) sigma^3 is not a normal float (so 1/sigma^2
    is not finite, or every bound would refuse the moment), raises
    DomainError.
    """
    sigma = _require_real(sigma, "sigma")
    try:
        s2, third = sigma**2, NORMAL_THIRD_ABS_MOMENT * sigma**3
        for what, value in (("sigma**2", s2), ("E|T - D|^3", third)):
            if value < 2.0**-1022:
                raise FloatingPointError(f"{what} = {value!r} is not a normal float")
    except ArithmeticError as exc:
        raise _bad_shape(f"normal-mean shape sigma={sigma!r}", exc) from exc
    log_norm = math.log(sigma * math.sqrt(2.0 * math.pi))
    inv_s2 = 1.0 / s2  # k' and i
    return ExpFamilyModel(
        name=f"normal-mean(sigma={sigma})",
        k=identity if s2 == 1.0 else (lambda th: th / s2),
        k1=lambda th: inv_s2,
        A=lambda th: th**2 / (2.0 * s2),
        A1=lambda th: th / s2,
        fisher=lambda th: inv_s2,
        T=lambda x: np.asarray(x, dtype=float) + 0.0,
        S=lambda x: -np.asarray(x, dtype=float) ** 2 / (2.0 * s2) - log_norm,
        support=_REAL,
        param_space=_REAL,
        d_inverse=identity,
        third_moment=lambda t0: third,
        mse=lambda n, t0: s2 / n,
        sample_tbar=lambda t0, n, rng, size: rng.normal(t0, sigma / math.sqrt(n), size),
    )


def normal_variance_model(mu: float = 0.0) -> ExpFamilyModel:
    """Normal scale family: theta is the variance, the mean mu is known.

    T(x) = (x - mu)^2 is Gamma(1/2, scale 2 theta), D is the identity, and
    the MLE is mean (x_i - mu)^2.  The third moment is stated: theta^3 times
    :func:`_quadrature_third_moment` at theta = 1 over mu -/+ 14 (normal
    mass 1.6e-44 outside), since the quadrature's error target is absolute
    for an integral below 1, as the moment is at a small theta.
    """
    mu = _require_real(mu, "mu", "finite")
    log_norm = 0.5 * math.log(2.0 * math.pi)
    model = _gamma_law_model(
        f"normal-variance(mu={mu})", a_num=1.0, a_den=2.0, c=2.0, r=1.0, sign=1.0,
        k=lambda th: -1.0 / (2.0 * th), A=lambda th: 0.5 * np.log(th),
        T=lambda x: (np.asarray(x, dtype=float) - mu) ** 2, S=lambda x: -log_norm, support=_REAL,
        # The quadrature does not depend on t0, yet reruns its 5 985 evaluations
        # (about 80 ms unscaled) each call.  The closed form 8 m3(1/2) t0^3
        # waits on ROADMAP item 1's mend of `Rounds` in benchmarks/run.py:
        # on seed 3 it took certify from 65 to 2 998 rounds and its peak RSS
        # from 47.1 to 332.6 MiB, past the 10 % peak_rss_mb bound.
        third_moment=lambda t0: t0**3 * _quadrature_third_moment(model, 1.0, mu - 14.0, mu + 14.0),
    )
    return model


def generalized_gamma_model(d: float, p: float) -> ExpFamilyModel:
    """Generalized gamma GG(theta, d, p) with known shapes d, p > 0.

    T(x) = x^p is Gamma(d/p, scale theta^p), D(theta) = (d/p) theta^p, and
    the MLE is ((p/(n d)) sum x_i^p)^(1/p).  The bounds use the paper's
    Holder bound on E|T - D|^3, ``bound_moment``.  Shapes whose d/p is 0
    or inf in floating point, or whose ln Gamma(d/p) overflows, raise
    DomainError.
    """
    dv = _require_real(d, "generalized gamma shape d")
    pv = _require_real(p, "generalized gamma shape p")
    try:
        a = dv / pv  # lgamma raises ValueError at 0 and returns inf at inf
        if not 0.0 < a < math.inf:
            raise FloatingPointError(f"d/p = {a!r}")
        log_gamma_a = math.lgamma(a)
    except ArithmeticError as exc:
        raise _bad_shape(f"generalized gamma shapes d={dv!r}, p={pv!r}", exc) from exc
    return _gamma_law_model(
        f"gg(d={dv}, p={pv})", a_num=dv, a_den=pv, c=1.0, r=pv, sign=1.0,
        k=lambda th: -th ** (-pv), A=lambda th: dv * np.log(th),
        T=lambda x: np.asarray(x, dtype=float) ** pv,
        S=lambda x: math.log(pv) + (dv - 1.0) * np.log(x) - log_gamma_a,
        support=_POS, bound_moment=lambda t0: _holder_gg(float(t0), dv, pv),
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

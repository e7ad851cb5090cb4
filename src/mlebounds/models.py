"""One-parameter statistical models whose MLE is a function of an i.i.d. sum.

The central abstraction is :class:`ExpFamilyModel`, a one-parameter
exponential family written as

    f(x | theta) = exp{ k(theta) T(x) - A(theta) + S(x) }   on the support B.

For such a family the likelihood equation collapses to D(theta) = mean T(x_i)
with D = A'/k', so the MLE is D^{-1} applied to a sample average.  Everything
the error bounds need lives here: D, the Fisher information, the ratio
sqrt(i)/|D'|, the supremum of |D''| over a parameter ball, the MLE itself,
and the generic functional view (q, g) of the same structure.

Models are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConsistencyError, DomainError, RootFindError

__all__ = [
    "ExpFamilyModel",
    "FunctionalModel",
    "GeneralizedGammaParams",
    "MODEL_FAMILIES",
    "as_functional",
    "d_is_identity",
    "d_prime",
    "d_value",
    "density",
    "exp_canonical_model",
    "exp_noncanonical_model",
    "fisher_info",
    "generalized_gamma_model",
    "invert_d",
    "laplace_scale_model",
    "make_model",
    "mle",
    "normal_mean_model",
    "normal_variance_model",
    "stein_ratio",
    "sup_abs_d_second",
    "weibull_scale_model",
]

Interval = tuple[float, float]

# Grid resolution mandated for the sup|D''| fallback.  The grid includes both
# endpoints, so for models with monotone |D''| the result is exact; otherwise
# it is a lower estimate of the true supremum.
_SUP_GRID_POINTS = 10_001

# Relative disagreement between the two algebraic forms of the Fisher
# information that is treated as a model bug.
_FISHER_CONSISTENCY_RTOL = 1e-9


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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"GeneralizedGammaParams.{name} must be positive, got {v!r}")


@dataclass(frozen=True, eq=False)
class ExpFamilyModel:
    """A one-parameter exponential family with analytic derivatives.

    ``k, k1, k2`` and ``A, A1, A2`` are the parameter functions and their
    first two derivatives; ``T`` is the natural statistic and ``S`` the
    data-only carrier term.  ``d_second`` is the analytic second derivative
    of D = A'/k' (it involves third derivatives of k and A, so each model
    supplies it directly rather than having it reconstructed numerically).

    Optional closed forms (``d_inverse``, ``sup_d_second``) are used when
    present; generic fallbacks cover the rest.  ``sample_tbar(theta0, n,
    rng, size)`` draws ``size`` values of mean T over n observations
    directly from the closed-form law of the sum of T; the simulation
    harness samples through it, so models without it cannot be simulated.
    ``integration_window`` maps theta0 to an interval of the data axis that
    carries essentially all of the mass of moment integrands, for the
    quadrature oracles.
    """

    name: str
    family: str
    k: Callable
    k1: Callable
    k2: Callable
    A: Callable
    A1: Callable
    A2: Callable
    T: Callable
    S: Callable
    support: Interval
    param_space: Interval
    d_second: Callable
    d_increasing: bool
    d_inverse: Callable | None = None
    sup_d_second: Callable | None = None
    sample_tbar: Callable | None = None
    integration_window: Callable | None = None
    shape: Mapping[str, float] = field(default_factory=dict)

    def contains_theta(self, theta: float) -> bool:
        lo, hi = self.param_space
        return lo < theta < hi


def _require_theta(m: ExpFamilyModel, theta: float, name: str = "theta") -> float:
    try:
        v = float(theta)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {theta!r}") from exc
    if not math.isfinite(v) or not m.contains_theta(v):
        raise DomainError(
            f"{name}={v!r} is outside the parameter space {m.param_space} of model {m.name!r}"
        )
    return v


def d_value(m: ExpFamilyModel, theta: float) -> float:
    """D(theta) = A'(theta) / k'(theta), the reparametrization under which
    the MLE is a sample average of T."""
    t = _require_theta(m, theta)
    return float(m.A1(t) / m.k1(t))


def d_prime(m: ExpFamilyModel, theta: float) -> float:
    """D'(theta) = (A'' k' - k'' A') / k'^2."""
    t = _require_theta(m, theta)
    k1 = float(m.k1(t))
    return (float(m.A2(t)) * k1 - float(m.k2(t)) * float(m.A1(t))) / (k1 * k1)


def fisher_info(m: ExpFamilyModel, theta: float) -> float:
    """Expected Fisher information i(theta) for a single observation.

    Evaluates both algebraic forms, (A'' k' - k'' A') / k' and
    A'' - k'' D, and raises ConsistencyError if they disagree by more than
    1e-9 relative (that can only happen if a model's derivatives are wrong).
    """
    t = _require_theta(m, theta)
    k1 = float(m.k1(t))
    k2 = float(m.k2(t))
    a1 = float(m.A1(t))
    a2 = float(m.A2(t))
    form_ratio = (a2 * k1 - k2 * a1) / k1
    form_d = a2 - k2 * (a1 / k1)
    scale = max(abs(form_ratio), abs(form_d), 1e-300)
    if abs(form_ratio - form_d) > _FISHER_CONSISTENCY_RTOL * scale:
        raise ConsistencyError(
            f"Fisher information forms disagree for model {m.name!r} at theta={t}: "
            f"{form_ratio!r} vs {form_d!r}"
        )
    if form_ratio <= 0.0:
        raise ConsistencyError(
            f"Fisher information must be positive, got {form_ratio!r} for model "
            f"{m.name!r} at theta={t}"
        )
    return form_ratio


def stein_ratio(m: ExpFamilyModel, theta0: float) -> float:
    """sqrt(i(theta0)) / |D'(theta0)| = |k'(theta0)| / sqrt(|A'' - k'' D|).

    This is the scaling constant that standardizes the summands T(X_i) in
    the first (CLT) term of the bounds.
    """
    t = _require_theta(m, theta0)
    info = fisher_info(m, t)
    return abs(float(m.k1(t))) / math.sqrt(info)


def invert_d(m: ExpFamilyModel, target: float) -> float:
    """Solve D(theta) = target on the parameter space.

    Generic path: bracket the root by geometric expansion (using the
    monotonicity direction the model declares), then close in with
    bisection accelerated by safeguarded Newton steps on D.  Built-in
    models normally bypass this via their closed-form ``d_inverse``.

    Raises DomainError when the target is not attained by D on the space
    and RootFindError when the iteration fails to converge.
    """
    y = float(target)
    if not math.isfinite(y):
        raise DomainError(f"invert_d target must be finite, got {target!r}")
    lo_b, hi_b = m.param_space
    sign = 1.0 if m.d_increasing else -1.0

    def g(th: float) -> float:
        return sign * (float(m.A1(th)) / float(m.k1(th)) - y)

    # Starting point strictly inside the space.
    if math.isfinite(lo_b) and math.isfinite(hi_b):
        x0 = 0.5 * (lo_b + hi_b)
    elif math.isfinite(lo_b):
        x0 = lo_b + 1.0
    elif math.isfinite(hi_b):
        x0 = hi_b - 1.0
    else:
        x0 = 0.0

    def toward_lower(step: int) -> float:
        if math.isfinite(lo_b):
            return lo_b + (x0 - lo_b) / 2.0**step
        return x0 - 2.0**step

    def toward_upper(step: int) -> float:
        if math.isfinite(hi_b):
            return hi_b - (hi_b - x0) / 2.0**step
        return x0 + 2.0**step

    g0 = g(x0)
    if g0 == 0.0:
        return x0
    lo, hi = x0, x0
    if g0 > 0.0:
        # Need a point with g <= 0: move toward smaller D values.
        for step in range(1, 200):
            cand = toward_lower(step)
            gc = g(cand)
            if math.isfinite(gc) and gc <= 0.0:
                lo = cand
                break
        else:
            raise DomainError(
                f"target {y!r} is not attained by D on the parameter space of {m.name!r}"
            )
    else:
        for step in range(1, 200):
            cand = toward_upper(step)
            gc = g(cand)
            if math.isfinite(gc) and gc >= 0.0:
                hi = cand
                break
        else:
            raise DomainError(
                f"target {y!r} is not attained by D on the parameter space of {m.name!r}"
            )

    # Safeguarded Newton/bisection.  g is monotone increasing on [lo, hi].
    abs_tol = 1e-12 * max(1.0, abs(y))
    x = 0.5 * (lo + hi)
    for _ in range(200):
        gx = g(x)
        if abs(gx) <= abs_tol:
            return x
        if gx > 0.0:
            hi = x
        else:
            lo = x
        dp = d_prime(m, x) * sign
        step_ok = False
        if math.isfinite(dp) and dp > 0.0:
            cand = x - gx / dp
            if lo < cand < hi:
                x = cand
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            return 0.5 * (lo + hi)
    raise RootFindError(
        f"invert_d failed to converge for model {m.name!r} and target {y!r}"
    )


def mle(m: ExpFamilyModel, sample, *, use_closed_form: bool = True) -> float:
    """Maximum likelihood estimate from an i.i.d. sample.

    Computes the sample mean of T and inverts D at it, via the model's
    closed form when available (``use_closed_form=False`` forces the
    generic root-finder, which the tests use to cross-check closed forms).
    """
    xs = np.asarray(sample, dtype=float)
    if xs.size == 0:
        raise DomainError("sample must be non-empty")
    lo, hi = m.support
    if not np.all(np.isfinite(xs)) or not np.all((xs > lo) & (xs < hi)):
        raise DomainError(
            f"sample contains points outside the open support {m.support} of {m.name!r}"
        )
    tbar = float(np.mean(m.T(xs)))
    if use_closed_form and m.d_inverse is not None:
        return float(m.d_inverse(tbar))
    return invert_d(m, tbar)


def sup_abs_d_second(m: ExpFamilyModel, theta0: float, epsilon: float) -> float:
    """sup of |D''(theta)| over the ball |theta - theta0| <= epsilon.

    Uses the model's closed form when registered.  The fallback evaluates
    |D''| on a 10001-point grid spanning the ball (endpoints included);
    this is exact whenever |D''| is monotone on the ball and otherwise a
    lower estimate.
    """
    t0 = _require_theta(m, theta0, "theta0")
    eps = float(epsilon)
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    lo, hi = m.param_space
    if not (lo < t0 - eps and t0 + eps < hi):
        raise DomainError(
            f"the ball [{t0 - eps}, {t0 + eps}] leaves the parameter space {m.param_space}"
        )
    if m.sup_d_second is not None:
        return float(m.sup_d_second(t0, eps))
    grid = np.linspace(t0 - eps, t0 + eps, _SUP_GRID_POINTS)
    return float(np.max(np.abs(m.d_second(grid))))


def _identity_grid(space: Interval) -> np.ndarray:
    lo, hi = space
    glo = lo if math.isfinite(lo) else -20.0
    ghi = hi if math.isfinite(hi) else 20.0
    width = ghi - glo
    if math.isfinite(lo):
        glo += 0.005 * width
    if math.isfinite(hi):
        ghi -= 0.005 * width
    return np.linspace(glo, ghi, 401)


def d_is_identity(m: ExpFamilyModel) -> bool:
    """True iff D(theta) = theta (to 1e-12) on a dense parameter grid."""
    grid = _identity_grid(m.param_space)
    dvals = np.asarray(m.A1(grid)) / np.asarray(m.k1(grid))
    return bool(np.all(np.abs(dvals - grid) <= 1e-12))


@dataclass(frozen=True, eq=False)
class FunctionalModel:
    """The (q, g) view of a model: q(MLE) = mean g(X_i).

    ``sup_abs_q_second`` maps (theta0, epsilon) to the supremum of |q''|
    over the ball, matching what the Taylor term of the bounds consumes.
    """

    name: str
    q: Callable
    q_prime: Callable
    q_second: Callable
    g: Callable
    q_is_identity: bool
    sup_abs_q_second: Callable


def as_functional(m: ExpFamilyModel) -> FunctionalModel:
    """View an exponential family through its (q, g) pair: q = D, g = T."""

    def q(th):
        return m.A1(th) / m.k1(th)

    def q_prime(th):
        k1 = m.k1(th)
        return (m.A2(th) * k1 - m.k2(th) * m.A1(th)) / (k1 * k1)

    def sup_q2(theta0: float, epsilon: float) -> float:
        return sup_abs_d_second(m, theta0, epsilon)

    return FunctionalModel(
        name=m.name,
        q=q,
        q_prime=q_prime,
        q_second=m.d_second,
        g=m.T,
        q_is_identity=d_is_identity(m),
        sup_abs_q_second=sup_q2,
    )


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
    if np.ndim(x) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

_POS = (0.0, math.inf)
_REAL = (-math.inf, math.inf)


def _const(value: float) -> Callable:
    def fn(th):
        arr = np.asarray(th, dtype=float)
        if arr.ndim == 0:
            return float(value)
        return np.full(arr.shape, float(value))

    return fn


def exp_canonical_model() -> ExpFamilyModel:
    """Exponential distribution with density theta * exp(-theta x), x > 0.

    Canonical parametrization: k(theta) = theta, T(x) = -x, A = -log theta.
    D(theta) = -1/theta and the MLE is 1 / sample mean.
    """
    return ExpFamilyModel(
        name="exp-canonical",
        family="exp-canonical",
        k=lambda th: th,
        k1=_const(1.0),
        k2=_const(0.0),
        A=lambda th: -np.log(th),
        A1=lambda th: -1.0 / th,
        A2=lambda th: 1.0 / th**2,
        T=lambda x: -x,
        S=_const(0.0),
        support=_POS,
        param_space=_POS,
        d_second=lambda th: -2.0 / th**3,
        d_increasing=True,
        d_inverse=lambda t: -1.0 / t,
        sup_d_second=lambda t0, eps: 2.0 / (t0 - eps) ** 3,
        # The sum of n exponential draws with rate theta is Gamma(n, scale 1/theta).
        sample_tbar=lambda t0, n, rng, size: -rng.gamma(n, 1.0 / t0, size) / n,
        # The window starts just inside the open support: the density has a
        # positive limit at 0, so including the endpoint (where it is
        # defined as 0) would put a jump inside the quadrature panel.
        integration_window=lambda t0: (6e-12 / t0, 60.0 / t0),
    )


def exp_noncanonical_model() -> ExpFamilyModel:
    """Exponential distribution with mean theta: density exp(-x/theta)/theta.

    Here D(theta) = theta, so the MLE is the sample mean itself and the
    tail/Taylor terms of the bounds vanish identically.
    """
    return ExpFamilyModel(
        name="exp-noncanonical",
        family="exp-noncanonical",
        k=lambda th: -1.0 / th,
        k1=lambda th: 1.0 / th**2,
        k2=lambda th: -2.0 / th**3,
        A=lambda th: np.log(th),
        A1=lambda th: 1.0 / th,
        A2=lambda th: -1.0 / th**2,
        T=lambda x: x,
        S=_const(0.0),
        support=_POS,
        param_space=_POS,
        d_second=_const(0.0),
        d_increasing=True,
        d_inverse=lambda t: t,
        sup_d_second=lambda t0, eps: 0.0,
        # The sum of n exponential draws with mean theta is Gamma(n, scale theta).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(n, t0, size) / n,
        integration_window=lambda t0: (6e-12 * t0, 60.0 * t0),
    )


def laplace_scale_model() -> ExpFamilyModel:
    """Laplace scale family: density exp(-|x|/theta) / (2 theta) on the line.

    |X| is exponential with mean theta, so the MLE is the mean of |x_i|.
    """
    return ExpFamilyModel(
        name="laplace",
        family="laplace",
        k=lambda th: -1.0 / th,
        k1=lambda th: 1.0 / th**2,
        k2=lambda th: -2.0 / th**3,
        A=lambda th: np.log(2.0 * th),
        A1=lambda th: 1.0 / th,
        A2=lambda th: -1.0 / th**2,
        T=lambda x: np.abs(x),
        S=_const(0.0),
        support=_REAL,
        param_space=_POS,
        d_second=_const(0.0),
        d_increasing=True,
        d_inverse=lambda t: t,
        sup_d_second=lambda t0, eps: 0.0,
        sample_tbar=lambda t0, n, rng, size: rng.gamma(n, t0, size) / n,
        integration_window=lambda t0: (-60.0 * t0, 60.0 * t0),
    )


def normal_mean_model(sigma: float = 1.0) -> ExpFamilyModel:
    """Normal location family with known standard deviation sigma.

    D is the identity and the MLE is the sample mean.
    """
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    s2 = float(sigma) ** 2
    log_norm = math.log(float(sigma) * math.sqrt(2.0 * math.pi))
    return ExpFamilyModel(
        name=f"normal-mean(sigma={sigma})",
        family="normal-mean",
        k=lambda th: th / s2,
        k1=_const(1.0 / s2),
        k2=_const(0.0),
        A=lambda th: th**2 / (2.0 * s2),
        A1=lambda th: th / s2,
        A2=_const(1.0 / s2),
        T=lambda x: np.asarray(x, dtype=float) + 0.0,
        S=lambda x: -np.asarray(x, dtype=float) ** 2 / (2.0 * s2) - log_norm,
        support=_REAL,
        param_space=_REAL,
        d_second=_const(0.0),
        d_increasing=True,
        d_inverse=lambda t: t,
        sup_d_second=lambda t0, eps: 0.0,
        sample_tbar=lambda t0, n, rng, size: rng.normal(t0, sigma / math.sqrt(n), size),
        integration_window=lambda t0: (t0 - 14.0 * sigma, t0 + 14.0 * sigma),
        shape={"sigma": float(sigma)},
    )


def normal_variance_model(mu: float = 0.0) -> ExpFamilyModel:
    """Normal scale family: theta is the variance, the mean mu is known.

    T(x) = (x - mu)^2, D is the identity, and the MLE is mean (x_i - mu)^2.
    """
    if not (isinstance(mu, (int, float)) and math.isfinite(mu)):
        raise DomainError(f"mu must be finite, got {mu!r}")
    muf = float(mu)
    log_norm = 0.5 * math.log(2.0 * math.pi)
    return ExpFamilyModel(
        name=f"normal-variance(mu={mu})",
        family="normal-variance",
        k=lambda th: -1.0 / (2.0 * th),
        k1=lambda th: 1.0 / (2.0 * th**2),
        k2=lambda th: -1.0 / th**3,
        A=lambda th: 0.5 * np.log(th),
        A1=lambda th: 1.0 / (2.0 * th),
        A2=lambda th: -1.0 / (2.0 * th**2),
        T=lambda x: (np.asarray(x, dtype=float) - muf) ** 2,
        S=_const(-log_norm),
        support=_REAL,
        param_space=_POS,
        d_second=_const(0.0),
        d_increasing=True,
        d_inverse=lambda t: t,
        sup_d_second=lambda t0, eps: 0.0,
        # The sum of n draws of (x - mu)^2 is theta times a chi-square with
        # n degrees of freedom: Gamma(n/2, scale 2 theta).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(0.5 * n, 2.0 * t0, size) / n,
        integration_window=lambda t0: (muf - 14.0 * math.sqrt(t0), muf + 14.0 * math.sqrt(t0)),
        shape={"mu": muf},
    )


def generalized_gamma_model(d: float, p: float) -> ExpFamilyModel:
    """Generalized gamma GG(theta, d, p) with known shapes d, p > 0.

    T(x) = x^p follows a Gamma(d/p, rate theta^-p) law, D(theta) =
    (d/p) theta^p, and the MLE is ((p/(n d)) sum x_i^p)^(1/p).

    Moment integrals by quadrature require d >= 1: for d < 1 the density
    blows up at the origin and the adaptive integrator cannot resolve it
    (the closed-form fourth-moment route stays available there).
    """
    for name, v in (("d", d), ("p", p)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise DomainError(f"generalized gamma shape {name} must be positive, got {v!r}")
    dv, pv = float(d), float(p)
    a = dv / pv
    log_gamma_a = math.lgamma(a)

    def sup_d2(t0: float, eps: float) -> float:
        edge = t0 - eps if pv < 2.0 else t0 + eps
        return dv * abs(pv - 1.0) * edge ** (pv - 2.0)

    def window(t0: float) -> Interval:
        hi = t0 * (a + 40.0 * math.sqrt(a) + 45.0) ** (1.0 / pv)
        return (1e-13 * hi, hi)

    return ExpFamilyModel(
        name=f"gg(d={d}, p={p})",
        family="gg",
        k=lambda th: -th ** (-pv),
        k1=lambda th: pv * th ** (-pv - 1.0),
        k2=lambda th: -pv * (pv + 1.0) * th ** (-pv - 2.0),
        A=lambda th: dv * np.log(th),
        A1=lambda th: dv / th,
        A2=lambda th: -dv / th**2,
        T=lambda x: np.asarray(x, dtype=float) ** pv,
        S=lambda x: math.log(pv) + (dv - 1.0) * np.log(x) - log_gamma_a,
        support=_POS,
        param_space=_POS,
        d_second=lambda th: dv * (pv - 1.0) * th ** (pv - 2.0),
        d_increasing=True,
        d_inverse=lambda t: (pv * t / dv) ** (1.0 / pv),
        sup_d_second=sup_d2,
        # T = X^p is Gamma(d/p, scale theta^p), so the sum is Gamma(n d/p, scale theta^p).
        sample_tbar=lambda t0, n, rng, size: rng.gamma(n * dv / pv, t0**pv, size) / n,
        integration_window=window,
        shape={"d": dv, "p": pv},
    )


def weibull_scale_model(alpha: float) -> ExpFamilyModel:
    """Weibull scale family with known shape alpha: the GG(d=p=alpha) case."""
    base = generalized_gamma_model(alpha, alpha)
    return dataclasses.replace(
        base,
        name=f"weibull(alpha={alpha})",
        family="weibull",
        shape={"alpha": float(alpha)},
    )


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
        raise DomainError(f"invalid parameters for model {model_id!r}: {exc}") from exc

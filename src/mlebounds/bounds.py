"""Explicit upper bounds on the normal-approximation error of the MLE.

Setting: X_1, ..., X_n i.i.d. with scalar parameter theta0, and an MLE
theta_hat linked to a sample average through a smooth one-to-one map q,
q(theta_hat) = mean g(X_i).  The quantity being bounded is

    sup |E h(sqrt(n i(theta0)) (theta_hat - theta0)) - E h(Z)|,

over bounded absolutely continuous test functions h, with Z standard
normal.  Every bound here decomposes into three non-negative pieces:

  * a Stein/CLT term of order 1/sqrt(n), driven by the standardized third
    absolute moment of g(X_1);
  * a tail term, 2 ||h|| / eps^2 times the MSE of the MLE, present only
    when q is not the identity;
  * a Taylor term, ||h'|| sqrt(n i) / (2 |q'|) sup|q''| times the MSE,
    which also vanishes when q is the identity (then q'' = 0).

With MSE = O(1/n) all three are O(1/sqrt(n)).  The general formula is
:func:`theorem_bound`; :func:`expfam_bound` instantiates it for a
one-parameter exponential family, and the ``exp_*``/``gg_*`` functions are
fully simplified closed forms for the bundled models.  The ``ar_*``
functions give the earlier general-purpose bound ("AR bound") that these
improve on, in the two cases where it has a usable closed form.  Every
bound refuses with DomainError, naming n (and theta0 where it has one), a
value it cannot finish in floating point.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConsistencyError, DomainError, _require_int, _require_real
from .models import (
    EXP_THIRD_ABS_MOMENT,
    ExpFamilyModel,
    GeneralizedGammaParams,
    _evaluated,
    _fisher_and_d_prime,
    _require_theta,
    d_is_identity,
    gg_mse_factor,
    sup_abs_d_second,
)
from .moments import expected_h_of_z, third_abs_moment

__all__ = [
    "BoundBreakdown",
    "BoundInputs",
    "EXP_STEIN_CONST",
    "TestFunction",
    "ar_bound_canonical_expfam",
    "ar_bound_exp_noncanonical",
    "exp_canonical_bound",
    "exp_noncanonical_bound",
    "expfam_bound",
    "gg_bound",
    "reference_test_function",
    "theorem_bound",
]

# 2 + (12/e - 2): the constant multiplying ||h'||/sqrt(n) in both
# exponential closed forms.  Printed as 4.41456 in 5-decimal renderings.
EXP_STEIN_CONST = 2.0 + EXP_THIRD_ABS_MOMENT

_CERT_GRID = np.linspace(-50.0, 50.0, 4001)


@dataclass(frozen=True)
class TestFunction:
    """A bounded absolutely continuous test function with stated sup norms.

    ``h`` maps an array of points to an array of values of the same shape
    (wrap a scalar function in ``np.vectorize``).  ``norm_h`` and
    ``norm_h_prime`` are the sup norms claimed by whoever constructs the
    function; they are never inferred.  Construction runs a consistency
    check, not a proof: on a grid of [-50, 50] with step 0.025, |h| must not
    exceed norm_h and no secant slope may exceed norm_h_prime (up to 1e-6
    relative slack).  A secant slope is a lower estimate of sup|h'| and
    nothing off the grid is seen, so the check catches typos but certifies
    nothing; the reference h's norms are proven in
    :func:`reference_test_function`.  ``expected_h`` is E[h(Z)], computed
    on first use and kept on the instance.
    """

    name: str
    h: Callable
    norm_h: float
    norm_h_prime: float

    def __post_init__(self) -> None:
        for name in ("norm_h", "norm_h_prime"):
            object.__setattr__(self, name, _require_real(getattr(self, name), name))
        try:
            values = np.asarray(self.h(_CERT_GRID), dtype=float)
            if values.shape != _CERT_GRID.shape:
                raise ValueError(f"returned shape {values.shape}")
        except (TypeError, ValueError) as exc:
            raise DomainError(
                f"test function {self.name!r} must map an array of points to an array "
                f"of values of the same shape ({exc}); wrap a scalar h in np.vectorize"
            ) from exc
        if not np.all(np.isfinite(values)):
            raise DomainError(f"test function {self.name!r} is not finite on [-50, 50]")
        if np.max(np.abs(values)) > self.norm_h * (1.0 + 1e-9):
            raise DomainError(
                f"stated norm_h={self.norm_h} is violated by {self.name!r} "
                f"(observed {np.max(np.abs(values))})"
            )
        slopes = np.abs(np.diff(values)) / np.diff(_CERT_GRID)
        if np.max(slopes) > self.norm_h_prime * (1.0 + 1e-6):
            raise DomainError(
                f"stated norm_h_prime={self.norm_h_prime} is violated by {self.name!r} "
                f"(observed secant slope {np.max(slopes)})"
            )

    @functools.cached_property
    def expected_h(self) -> float:
        """E[h(Z)] for Z standard normal, by :func:`expected_h_of_z`."""
        return expected_h_of_z(self)


def _require_test_function(h) -> None:
    """DomainError unless ``h`` is a :class:`TestFunction`: a bound needs
    its stated norms, which a plain callable lacks."""
    if not isinstance(h, TestFunction):
        raise DomainError(f"h must be a TestFunction with stated norms, got {h!r}")


def _reference_h(x):
    """h(x) = 1/(x^2 + 2), at module level so that it pickles by name."""
    return 1.0 / (x * x + 2.0)


@functools.cache
def reference_test_function() -> TestFunction:
    """The built-in test function h(x) = 1/(x^2 + 2).

    Its exact sup norms are ||h|| = 1/2 (attained at 0) and
    ||h'|| = 3 sqrt(6) / 32 (attained at x^2 = 2/3).  Built on first use;
    every call returns that one instance and its ``expected_h``.
    """
    return TestFunction(
        name="paper",
        h=_reference_h,
        norm_h=0.5,
        norm_h_prime=3.0 * math.sqrt(6.0) / 32.0,
    )


@dataclass(frozen=True, init=False)
class BoundInputs:
    """Everything the general bound consumes, already reduced to numbers.

    ``fisher`` is i(theta0); ``q_prime_abs`` is |q'(theta0)|;
    ``third_moment`` is E|g(X_1) - q(theta0)|^3; ``mse`` is
    E[(theta_hat - theta0)^2]; ``sup_q_second`` is the supremum of |q''|
    over the epsilon-ball around theta0.  The caller is responsible for
    the ball lying inside the parameter space.  The fields are checked in
    order, so a refusal names the first bad one; numbers are stored as
    Python ints and floats, and ``q_is_identity`` must be a bool.
    """

    n: int
    theta0: float
    epsilon: float
    fisher: float
    q_prime_abs: float
    third_moment: float
    mse: float
    sup_q_second: float
    q_is_identity: bool
    h: TestFunction

    def __init__(self, n: int, theta0: float, epsilon: float, fisher: float,
                 q_prime_abs: float, third_moment: float, mse: float, sup_q_second: float,
                 q_is_identity: bool, h: TestFunction) -> None:
        # Every model bound builds one.  As in BoundBreakdown, one update of
        # the instance dict replaces the generated per-field setattr calls.
        n = _require_int(n, "n")
        theta0 = _require_real(theta0, "theta0", "finite")
        epsilon = _require_real(epsilon, "epsilon")
        fisher = _require_real(fisher, "fisher")
        q_prime_abs = _require_real(q_prime_abs, "q_prime_abs")
        third_moment = _require_real(third_moment, "third_moment", "non-negative")
        mse = _require_real(mse, "mse")
        sup_q_second = _require_real(sup_q_second, "sup_q_second", "non-negative")
        # A truthy non-bool would silently drop the tail and Taylor terms.
        if not isinstance(q_is_identity, (bool, np.bool_)):
            raise DomainError(f"q_is_identity must be a bool, got {q_is_identity!r}")
        _require_test_function(h)
        vars(self).update(
            n=n, theta0=theta0, epsilon=epsilon, fisher=fisher, q_prime_abs=q_prime_abs,
            third_moment=third_moment, mse=mse, sup_q_second=sup_q_second,
            q_is_identity=bool(q_is_identity), h=h,
        )


@dataclass(frozen=True, init=False)
class BoundBreakdown:
    """A computed bound, split into its three non-negative terms.

    ``total`` is always the exact floating-point sum of the terms, and the
    tail and Taylor terms are identically zero whenever q is the identity.
    """

    stein_term: float
    tail_term: float
    taylor_term: float
    total: float = dataclasses.field(init=False)
    formula_id: str

    def __init__(self, stein_term: float, tail_term: float, taylor_term: float,
                 formula_id: str) -> None:
        # Every bound builds one.  A frozen dataclass's generated __init__
        # calls object.__setattr__ once per field, about twice the cost of
        # this single update of the instance dict.
        vars(self).update(
            stein_term=stein_term, tail_term=tail_term, taylor_term=taylor_term,
            total=stein_term + tail_term + taylor_term, formula_id=formula_id,
        )


def theorem_bound(inputs: BoundInputs, *, _formula_id: str = "theorem") -> BoundBreakdown:
    """The general three-term bound, assembled from checked inputs.

    stein  = ||h'||/sqrt(n) (2 + i^{3/2}/|q'|^3 E|g - q(theta0)|^3)
    tail   = MSE * 2||h||/eps^2                       [0 if q is identity]
    taylor = MSE * ||h'|| sqrt(n i)/(2|q'|) sup|q''|  [0 if q is identity]

    When q is the identity both correction terms are dropped outright: the
    indicator in the tail term is zero and sup|q''| vanishes, so this is
    exact rather than a convention.

    ``inputs`` must be a :class:`BoundInputs`, whose construction checked
    every value; anything else raises DomainError.  So does a bound whose
    arithmetic overflows, or underflows to a zero divisor, in floating
    point (the terms are non-negative, so a finite total has finite terms),
    or whose i^{3/2}, |q'|^3, eps^2 or MSE has underflowed below 2^-1022.
    ``_formula_id`` is private: the model bounds pass theirs, so each
    breakdown is built once.
    """
    if not isinstance(inputs, BoundInputs):
        raise DomainError(f"inputs must be a BoundInputs, got {inputs!r}")
    i = inputs
    n, fisher, q_prime_abs, h = i.n, i.fisher, i.q_prime_abs, i.h
    hp = h.norm_h_prime
    try:
        i32, q3 = fisher**1.5, q_prime_abs**3
        stein = hp / math.sqrt(n) * (2.0 + i32 / q3 * i.third_moment)
        if i.q_is_identity:
            tail = taylor = 0.0
            factors = (i32, q3)
        else:
            mse, eps2 = i.mse, i.epsilon**2
            tail = mse * 2.0 * h.norm_h / eps2
            taylor = mse * hp * math.sqrt(n * fisher) / (2.0 * q_prime_abs) * i.sup_q_second
            factors = (i32, q3, eps2, mse)
    except ArithmeticError as exc:
        detail = f"{type(exc).__name__}: {exc}"
        raise _refusal(_formula_id, "is not finite", detail, n, i.theta0) from exc
    # Finite (a float power that overflows raises) and non-negative here.
    if min(factors) < 2.0**-1022:
        k = factors.index(min(factors))
        what = ("i^{3/2}", "|q'|^3", "eps^2", "MSE")[k]
        detail = f"{what} = {factors[k]!r} is not a normal float"
        exc = FloatingPointError(detail)
        raise _refusal(_formula_id, "has lost digits", detail, n, i.theta0) from exc
    return _finite(BoundBreakdown(stein, tail, taylor, _formula_id), n, i.theta0)


def _refusal(formula_id: str, verdict: str, detail: str, n: int,
             theta0: float | None = None) -> DomainError:
    """The refusal of checked inputs on which a bound has no value in
    floating point: its arithmetic overflowed or divided by zero ("is not
    finite"), or a factor of :func:`theorem_bound` underflowed below
    2^-1022 ("has lost digits").  It names theta0 where the bound has one."""
    where = f"n={n}" if theta0 is None else f"theta0={theta0!r}, n={n}"
    return DomainError(f"{where}: the {formula_id} bound {verdict} in floating point ({detail})")


def _finite(bd: BoundBreakdown, n: int, theta0: float | None = None) -> BoundBreakdown:
    """``bd``, refused through :func:`_refusal` where its total is not
    finite (the terms are non-negative, so a finite total has finite terms)."""
    if not math.isfinite(bd.total):
        terms = f"its terms are {bd.stein_term!r}, {bd.tail_term!r} and {bd.taylor_term!r}"
        raise _refusal(bd.formula_id, "is not finite", terms, n, theta0)
    return bd


def _closed_form(formula_id: str, n: int, f: Callable, *args) -> float:
    """``f(*args)``, a step of a closed-form bound at n, refused through
    :func:`_refusal` where it raises an ArithmeticError: sqrt(n) of an int
    n beyond the float range (after which every use of n as a float
    succeeds), or a power that overflows."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        raise _refusal(formula_id, "is not finite", f"{type(exc).__name__}: {exc}", n) from exc


def _model_bound(formula_id: str, m: ExpFamilyModel, theta0: float, n: int,
                 epsilon: float, h: TestFunction, mse: float) -> BoundBreakdown:
    """:func:`theorem_bound` on the :class:`BoundInputs` of a model,
    labelled ``formula_id``; the one path of :func:`expfam_bound`,
    :func:`ar_bound_canonical_expfam` and the CLI's ``theorem`` formula.

    epsilon and theta0 are checked first, since the model's values are
    computed from them; the record then checks each value, so a refusal
    reads as it would for a hand-built :class:`BoundInputs`.  A theta0 at
    which the model's closed forms fail in floating point raises
    DomainError; a model that declares ``d_inverse=models.identity`` while
    its D' = i/k' at theta0 is more than 1e-10 from 1 raises
    ConsistencyError, since the bound would drop its tail and Taylor terms.
    """
    epsilon = _require_real(epsilon, "epsilon")
    t0 = _require_theta(m, theta0, "theta0")
    identity = d_is_identity(m)
    # epsilon enters the bound only through the tail/Taylor terms, so the
    # ball-inside-the-space constraint is enforced exactly when they exist.
    sup_q2 = 0.0 if identity else sup_abs_d_second(m, t0, epsilon)
    fisher, q_prime = _fisher_and_d_prime(m, t0)
    if identity and abs(q_prime - 1.0) > 1e-10:
        raise ConsistencyError(
            f"model {m.name!r} declares d_inverse=models.identity, but D'(theta0) = "
            f"i/k' = {q_prime!r} at theta0={t0!r}, not 1"
        )
    if m.bound_moment is None:
        third_moment = third_abs_moment(m, t0)
    else:
        third_moment = _evaluated(m, t0, m.bound_moment, t0)
    inputs = BoundInputs(n, t0, epsilon, fisher, abs(q_prime), third_moment, mse, sup_q2,
                         identity, h)
    return theorem_bound(inputs, _formula_id=formula_id)


def expfam_bound(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    epsilon: float,
    h: TestFunction,
    mse: float,
) -> BoundBreakdown:
    """The general bound instantiated for a one-parameter exponential family.

    Assembles i(theta0), |D'(theta0)|, the third moment of T, and
    sup|D''| over the epsilon-ball from the model into a
    :class:`BoundInputs` and evaluates :func:`theorem_bound` on it.  The
    caller supplies the MSE (closed forms for all built-ins live in
    :func:`mlebounds.moments.mse_closed_form`).
    The model's certified ``bound_moment`` stands in for the third moment
    where it has one (the generalized gamma and Weibull families, whose
    bounds keep the paper's Holder step); every other model uses
    :func:`mlebounds.moments.third_abs_moment`, which refuses a model
    without ``third_moment``.

    The equivalent family-native form of the Stein factor,
    |k'|^3 E|T - D|^3 / |A'' - k'' D|^{3/2}, is exactly i^{3/2}/|D'|^3
    times the moment, so no separate code path is needed for it.
    """
    return _model_bound("expfam", m, theta0, n, epsilon, h, mse)


def gg_bound(n: int, params: GeneralizedGammaParams, h: TestFunction) -> BoundBreakdown:
    """Fully simplified bound for the generalized gamma scale MLE.

    Uses the fourth-moment bound for the third moment, epsilon = theta0/2
    (baked into the sup|D''| case split below, which is why epsilon is not
    a parameter here), and the gamma-ratio MSE.  The scale theta cancels
    throughout, so the result depends only on (n, d, p, h):

        ||h'||/sqrt(n) (2 + (3 + 6p/d)^{3/4})
        + M(n,d,p) 1{d != 1 or p != 1}
          [ 8||h|| + ||h'|| sqrt(ndp) |p-1|/2 (2^{2-p} if p<2 else (3/2)^{p-2}) ]

    where M is the theta-free MSE factor.
    """
    n = _require_int(n, "n")
    _require_test_function(h)
    d, p = params.d, params.p
    rootn = _closed_form("gg", n, math.sqrt, n)
    stein = h.norm_h_prime / rootn * (2.0 + (3.0 + 6.0 * p / d) ** 0.75)
    if d == 1.0 and p == 1.0:
        return BoundBreakdown(stein, 0.0, 0.0, "gg")
    factor = gg_mse_factor(n, d, p)
    tail = 8.0 * h.norm_h * factor
    edge = 2.0 ** (2.0 - p) if p < 2.0 else _closed_form("gg", n, pow, 1.5, p - 2.0)
    taylor = factor * h.norm_h_prime * math.sqrt(n * d * p) * abs(p - 1.0) / 2.0 * edge
    return _finite(BoundBreakdown(stein, tail, taylor, "gg"), n)


def exp_canonical_bound(n: int, h: TestFunction) -> BoundBreakdown:
    """Closed-form bound for the canonical exponential model (MLE 1/mean).

    With epsilon = theta0/2 the scale cancels:

        (2 + (12/e - 2)) ||h'||/sqrt(n)
        + 8 ||h|| (n+2)/((n-1)(n-2))
        + 8 ||h'|| sqrt(n) (n+2)/((n-1)(n-2)).

    Requires n >= 3 (the MSE of 1/mean does not exist below that).
    """
    n = _require_int(n, "n", 3, " for the exp-canonical bound")
    _require_test_function(h)
    ratio = (n + 2) / ((n - 1) * (n - 2))
    rootn = _closed_form("exp-canonical", n, math.sqrt, n)
    stein = EXP_STEIN_CONST * h.norm_h_prime / rootn
    tail = 8.0 * h.norm_h * ratio
    taylor = 8.0 * h.norm_h_prime * rootn * ratio
    return BoundBreakdown(stein, tail, taylor, "exp-canonical")


def exp_noncanonical_bound(n: int, h: TestFunction) -> BoundBreakdown:
    """Closed-form bound for the mean-parametrized exponential model.

    The MLE is the sample mean itself (D is the identity), so only the
    Stein term survives: (2 + (12/e - 2)) ||h'|| / sqrt(n).
    """
    n = _require_int(n, "n")
    _require_test_function(h)
    stein = EXP_STEIN_CONST * h.norm_h_prime / _closed_form("exp-noncanonical", n, math.sqrt, n)
    return BoundBreakdown(stein, 0.0, 0.0, "exp-noncanonical")


def ar_bound_exp_noncanonical(n: int, h: TestFunction) -> float:
    """The AR reference bound for the mean-parametrized exponential model.

    (2 + (12/e - 2)) ||h'||/sqrt(n) + 8 ||h||/n + 2 ||h'||/sqrt(n)
        + 80 ||h'||/sqrt(n) (6/n + 3)^{1/2}.

    Always at least as large as :func:`exp_noncanonical_bound`; it is the
    comparison column of the bundled simulation table.
    """
    n = _require_int(n, "n")
    _require_test_function(h)
    rootn = _closed_form("ar-exp-noncanonical", n, math.sqrt, n)
    return (
        EXP_STEIN_CONST * h.norm_h_prime / rootn
        + 8.0 * h.norm_h / n
        + 2.0 * h.norm_h_prime / rootn
        + 80.0 * h.norm_h_prime / rootn * math.sqrt(6.0 / n + 3.0)
    )


def ar_bound_canonical_expfam(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    epsilon: float,
    h: TestFunction,
    mse: float,
) -> BoundBreakdown:
    """The AR reference bound for a canonical exponential family.

    In the canonical case k(theta) = theta the AR bound coincides term for
    term with :func:`expfam_bound`: for a model that declares
    ``k=models.identity`` it is the same evaluation, labelled
    ``ar-canonical``; any other model raises DomainError.
    """
    if not m.is_canonical:
        raise DomainError(
            f"model {m.name!r} is not canonical (it does not declare k=models.identity); "
            "the AR bound has no closed form here"
        )
    return _model_bound("ar-canonical", m, theta0, n, epsilon, h, mse)

"""Scalar special functions and deterministic adaptive quadrature.

These are the numerical primitives every other module leans on: the log
of a gamma-function ratio less its limit, kept as a small quantity, the
third absolute central moment of a Gamma law, the standard normal pdf/cdf,
the exactly rounded sum of each row of a block, and an adaptive Simpson
integrator with explicit, testable error control.

All functions here are pure and stateless, so they are safe to call from
concurrent code without any locking.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, _require_real

__all__ = [
    "gamma_third_abs_moment",
    "integrate_interval",
    "log_gamma_shift_excess",
    "std_normal_cdf",
    "std_normal_pdf",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Number of equal panels the integration window is cut into before the
# adaptive bisection starts.  A fixed initial grid keeps narrow features from
# being skipped by the first coarse Simpson estimate.
_INITIAL_PANELS = 16

# Bisection levels a panel may use before integrate_interval gives up.
_MAX_DEPTH = 60


# Stirling correction S(w) with ln Gamma(w) = (w - 1/2) ln w - w
# + ln sqrt(2 pi) + S(w), summed to the w^-13 term: the truncation error is
# below 3617/122400 w^-15, under 3e-17 at the switchover.
_STIRLING_SWITCH = 10.0


def _stirling_tail(w: float) -> float:
    r = 1.0 / (w * w)
    return (
        1.0 / 12.0
        - r * (1.0 / 360.0
               - r * (1.0 / 1260.0
                      - r * (1.0 / 1680.0
                             - r * (1.0 / 1188.0 - r * (691.0 / 360360.0 - r / 156.0)))))
    ) / w


# Below this |u|, log1p(u) - u is summed from its series in s = u/(2 + u),
# where s^2 <= 0.0035 and seven terms reach 1e-17 relative; above it the
# difference log1p(u) - u loses at most 4 bits.
_LOG1P_SERIES_LIMIT = 0.125


def _log_gamma_excess(z: float, a: float) -> float:
    # Unchecked core of log_gamma_shift_excess, for z > 0 and z + a > 0.
    # The recurrence G(z, a) = G(z + 1, a) + a log1p(1/z) - log1p(a/z) lifts
    # both arguments to the Stirling range; each step is a small term of one
    # sign, so the sum keeps its relative accuracy.
    lifted = 0.0
    while z < _STIRLING_SWITCH or z + a < _STIRLING_SWITCH:
        lifted += a * math.log1p(1.0 / z) - math.log1p(a / z)
        z += 1.0
    u = a / z
    if -_LOG1P_SERIES_LIMIT < u < _LOG1P_SERIES_LIMIT:
        # log1p(u) = 2 atanh(s) = 2 (s + s^3/3 + s^5/5 + ...), and 2 s - u
        # = -u s, so log1p(u) - u = s (2 s^2 (1/3 + s^2/5 + ...) - u).
        s = u / (2.0 + u)
        s2 = s * s
        series = 1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0 + s2 * (
            1.0 / 9.0 + s2 * (1.0 / 11.0 + s2 * (1.0 / 13.0 + s2 / 15.0)))))
        log1p_minus_u = s * (2.0 * s2 * series - u)
    else:
        log1p_minus_u = math.log1p(u) - u
    return (
        (z + a - 0.5) * log1p_minus_u
        + (a - 0.5) * u
        + _stirling_tail(z + a)
        - _stirling_tail(z)
        + lifted
    )


def log_gamma_shift_excess(z: float, a: float) -> float:
    """G(z, a) = ln Gamma(z + a) - ln Gamma(z) - a ln z, as a small quantity.

    G tends to 0 like a (a - 1) / (2 z), so forming it as a difference of
    log gammas of size z ln z loses every digit at large z.  Instead, with
    u = a/z and the Stirling correction S,

        G(z, a) = z (log1p(u) - u) + (a - 1/2) log1p(u) + S(z + a) - S(z),

    where log1p(u) - u comes from its series when u is small.  Only S sees
    the rounded z + a, so the shift a is taken exactly.  Below z = 10 the
    arguments are first lifted by unit steps.  The absolute error is a few
    eps times (1 + a^2)/z, so the result keeps its relative accuracy except
    where a (a - 1) nearly vanishes.
    """
    zv = _require_real(z, "z")
    av = _require_real(a, "a", "finite")
    if zv + av <= 0.0:
        raise DomainError(f"log_gamma_shift_excess requires z + a > 0, got z={zv}, a={av}")
    return _log_gamma_excess(zv, av)


# Temme's uniform expansion of Q(a, x) at eta = 0, that is at x = a
# (DiDonato and Morris, ACM TOMS 12, 1986, the coefficients d_k0):
# Q(a, a) - 1/2 = sum_k C_k a^-k / sqrt(2 pi a), with C_0 = -1/3,
# C_1 = -1/540, C_2 = 25/6048, C_3 = 101/155520, ...  They follow exactly
# from reverting u - ln(1 + u) = w^2/2.  At a >= 10 the first neglected
# term is below 1e-18.
_TEMME_AT_ZERO = (
    -0.3333333333333333,
    -0.001851851851851852,
    0.004133597883597883,
    0.0006494341563786008,
    -0.0008618882909167117,
    -0.00033679855336635813,
    0.0005313079364639922,
    0.00034436760689237765,
    -0.0006526239185953094,
    -0.0005967612901927463,
    0.0013324454494800656,
    0.001579727660730835,
    -0.004072512119514016,
    -0.0059475779383993,
    0.01740202778752271,
    0.03024912416090589,
    -0.09905102088015905,
    -0.19994542198219728,
)


def gamma_third_abs_moment(a: float) -> float:
    """m3(a) = E|G - a|^3 for G ~ Gamma(a, 1), to about 1e-15 relative.

    The identity (x g(x))' = (a - x) g(x) for the Gamma(a) density g gives

        m3(a) = 4 (a + 1) phi(a) + 2 a (1 - 2 P(a, a)),   phi(a) = a^a e^-a / Gamma(a),

    with P the regularized lower incomplete gamma function.  Below a = 10,
    P(a, a) = (phi(a)/a) sum_k prod_{j<=k} a/(a + j), a power series that
    converges at x = a for every a, and ln phi(a) = a ln a - a - ln Gamma(a).
    From a = 10 on, 1 - 2 P(a, a) comes from Temme's uniform expansion at
    eta = 0 and ln phi(a) = ln sqrt(a/(2 pi)) - S(a), so the cost does not
    grow with a and large a loses no digits to ln Gamma(a).  The
    exponential case is m3(1) = 12/e - 2.
    """
    av = _require_real(a, "a")
    if av < _STIRLING_SWITCH:
        total = term = 1.0
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= av / (av + k)
            total += term
        phi = math.exp(av * math.log(av) - av - math.lgamma(av))
        # m3 = 2a + 4 phi (a + 1 - sum), two terms of one sign.
        return 2.0 * av + 4.0 * phi * (av + 1.0 - total)
    series = 0.0
    for c in reversed(_TEMME_AT_ZERO):
        series = series / av + c
    # 2 a (1 - 2 P) = 4 a (Q - 1/2) = 4 sqrt(a/(2 pi)) series.
    return 4.0 * math.sqrt(av / (2.0 * math.pi)) * (
        (av + 1.0) * math.exp(-_stirling_tail(av)) + series
    )


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    v = _require_real(x, "x", "finite")
    return math.exp(-0.5 * v * v) / _SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x), via erfc.

    Absolute error is at the 1e-16 level; the symmetry Phi(-x) = 1 - Phi(x)
    holds to machine precision.
    """
    v = _require_real(x, "x", "finite")
    return 0.5 * math.erfc(-v / _SQRT_2)


# Rows at or above this magnitude go to math.fsum, so that sigma below
# stays far from overflow.
_EXACT_SUM_LIMIT = 2.0**900


def _exact_row_sums(block) -> list[float]:
    """``math.fsum`` of each row of a 2-d float64 array, bit for bit.

    Vectorized error-free extraction (Rump, Ogita and Oishi 2008,
    "ExtractVector") over the whole block at once: with 2^m >= width + 2
    and sigma = 2^m 2^e above 2^m max|x| of the block, q = (sigma + r) -
    sigma and r - q are both exact, and every q is a multiple of 2^-53 sigma
    at most sigma / 2^m in magnitude, so each row sum of q is exact in any
    order.  A pass leaves |r| <= 2^-53 sigma, so the second pass's sigma is
    2^(m - 53) sigma; the two take 2 (53 - m) bits off (80 for 4096 columns,
    clearing every element within 2^27 of the largest).  A row's two pass
    sums and its non-zero remainders hold its exact sum, which ``math.fsum``
    rounds once.  A block with a row all zero, non-finite or huge (max|x| >=
    2^900) goes to ``math.fsum`` row by row, which keeps each value, its
    sign of zero and its exceptions.  Both passes work in place on q and r.
    """
    x = np.asarray(block, dtype=float)
    if not x.size:
        return [0.0] * len(x)
    q = np.abs(x)
    # max propagates NaN, so NaN rows reach math.fsum too.
    tops = q.max(axis=1).tolist()
    if not all(0.0 < top < _EXACT_SUM_LIMIT for top in tops):
        return [math.fsum(row.tolist()) for row in x]
    m = (x.shape[1] + 1).bit_length()
    sigma = math.ldexp(1.0, m + math.frexp(max(tops))[1])
    np.add(x, sigma, out=q)
    q -= sigma
    first = q.sum(axis=1).tolist()
    r = x - q
    sigma = math.ldexp(sigma, m - 53)
    np.add(r, sigma, out=q)
    q -= sigma
    second = q.sum(axis=1).tolist()
    r -= q
    return [math.fsum([a, b, *rest[rest != 0.0].tolist()]) for a, b, rest in zip(first, second, r)]


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(
    f: Callable[[float], float],
    a: float,
    fa: float,
    m: float,
    fm: float,
    b: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        # Richardson extrapolation: one order better than plain Simpson.
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"(remaining discrepancy {abs(delta):.3e} > {15.0 * tol:.3e})"
        )
    half = 0.5 * tol
    return _adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _adapt(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Integrate f over the finite interval [a, b].

    The window is cut into a fixed initial grid of Simpson panels, each of
    which is refined by adaptive bisection until its share of the error
    budget tol * max(1, |estimate|) is met: an absolute error of tol for
    integrals below 1 in magnitude, a relative error of tol above.  The
    evaluation order is fixed, so the result is bit-for-bit deterministic
    for a given tol.

    Raises QuadratureError if any panel needs more than 60 levels of
    bisection, or if the integrand returns non-finite values on the
    initial grid.
    """
    tv = _require_real(tol, "tol")
    av = _require_real(a, "a", "finite")
    bv = _require_real(b, "b", "finite")
    if not bv > av:
        raise DomainError(f"integration interval must satisfy a < b, got [{av}, {bv}]")

    npan = _INITIAL_PANELS
    step = (bv - av) / (2 * npan)
    xs = [av + i * step for i in range(2 * npan + 1)]
    xs[-1] = bv
    fs = [float(f(x)) for x in xs]
    for x, fx in zip(xs, fs):
        if not math.isfinite(fx):
            raise QuadratureError(f"integrand returned non-finite value {fx!r} at x={x!r}")

    panels = [
        _simpson(fs[2 * i], fs[2 * i + 1], fs[2 * i + 2], xs[2 * i + 2] - xs[2 * i])
        for i in range(npan)
    ]
    coarse = math.fsum(panels)
    budget = tv * max(1.0, abs(coarse)) / npan

    pieces = [
        _adapt(
            f,
            xs[2 * i],
            fs[2 * i],
            xs[2 * i + 1],
            fs[2 * i + 1],
            xs[2 * i + 2],
            fs[2 * i + 2],
            panels[i],
            budget,
            _MAX_DEPTH,
        )
        for i in range(npan)
    ]
    return math.fsum(pieces)

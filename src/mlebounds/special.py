"""Scalar special functions and deterministic adaptive quadrature.

These are the numerical primitives every other module leans on: the log
of a gamma-function ratio with its shift kept exact, the standard normal
pdf/cdf, the exactly rounded sum of an array, and an adaptive Simpson
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
    "exact_sum",
    "integrate_interval",
    "log_gamma_shift",
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
# + ln sqrt(2 pi) + S(w); the truncation error of the three-term tail is
# O(w^-7), already below 3e-14 at the switchover.
_STIRLING_SWITCH = 30.0


def _stirling_tail(w: float) -> float:
    w2 = w * w
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * w2)) / w2) / w


def log_gamma_shift(z: float, a: float) -> float:
    """ln Gamma(z + a) - ln Gamma(z), with the shift a taken exactly.

    Forming z + a as a float first rounds it by up to ulp(z)/2, which moves
    the result by about ulp(z) ln z: most of the answer when it feeds a
    difference of order 1/z, as in the generalized-gamma MSE factor.  For
    z and z + a at least 30 and |a| <= z/2 the Stirling form is rearranged
    around log1p(a/z),

        (z - 1/2) log1p(a/z) + a (ln z + log1p(a/z)) - a + S(z + a) - S(z),

    so only the tiny correction S sees the rounded z + a, and nearby large
    arguments keep full relative accuracy up to 1e9 and beyond.
    """
    zv = _require_real(z, "z")
    av = _require_real(a, "a", "finite")
    if zv + av <= 0.0:
        raise DomainError(f"log_gamma_shift requires z + a > 0, got z={zv}, a={av}")
    if min(zv, zv + av) >= _STIRLING_SWITCH and abs(av) <= 0.5 * zv:
        r = math.log1p(av / zv)
        return (
            (zv - 0.5) * r
            + av * (math.log(zv) + r)
            - av
            + _stirling_tail(zv + av)
            - _stirling_tail(zv)
        )
    return math.lgamma(zv + av) - math.lgamma(zv)


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


# exact_sum hands inputs at or above this magnitude to math.fsum, so that
# sigma below stays far from overflow.
_EXACT_SUM_LIMIT = 2.0**900

# Extraction passes before the remainders go to math.fsum; each pass takes
# 53 - ceil(log2(len + 2)) bits off the remainders (40 for 4096 elements),
# so two passes clear every element within 2^27 of the largest.
_EXACT_SUM_PASSES = 3


def exact_sum(values) -> float:
    """The correctly rounded sum of a float64 array, equal to ``math.fsum``.

    Vectorized error-free extraction (Rump, Ogita and Oishi 2008,
    "ExtractVector"): with 2^m >= len + 2 and sigma = 2^m 2^e above
    2^m max|r|, q = (sigma + r) - sigma and r - q are both exact, and every
    q is a multiple of 2^-53 sigma at most sigma / 2^m in magnitude, so
    ``np.sum(q)`` is exact in any order.  Each pass leaves |r| <= 2^-53
    sigma, so the next sigma is 2^(m - 53) sigma.  The pass sums and the
    remainders still non-zero after the last pass then hold the exact sum,
    which ``math.fsum`` rounds once.  So the result is bit-identical to
    ``math.fsum(values)``: all-zero, non-finite or huge input (max|x| >= 2^900)
    goes to ``math.fsum`` itself, which keeps its value, its sign of zero
    and its exceptions.

    Every pass works in place on the same two arrays, q and r, so a call
    allocates two arrays whatever the number of passes.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    # Both ends are NaN when any element is, so NaN reaches math.fsum too.
    top = max(-x.min(), x.max()) if x.size else 0.0
    if not 0.0 < top < _EXACT_SUM_LIMIT:
        return math.fsum(x.tolist())
    m = (x.size + 1).bit_length()
    sigma = math.ldexp(1.0, m + math.frexp(top)[1])
    q = x + sigma
    q -= sigma
    parts = [float(q.sum())]
    r = x - q
    for _ in range(_EXACT_SUM_PASSES - 1):
        if not r.any():
            break
        sigma = math.ldexp(sigma, m - 53)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        r -= q
    else:
        parts.extend(r[r != 0.0].tolist())
    return math.fsum(parts)


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

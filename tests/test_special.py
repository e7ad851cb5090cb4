"""Tests for the special functions and the adaptive quadrature."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from mlebounds import (
    DomainError,
    QuadratureError,
    exact_sum,
    integrate_interval,
    std_normal_cdf,
    std_normal_pdf,
)
from mlebounds.special import log_gamma_shift


class TestLogGammaShift:
    @pytest.mark.parametrize("z", [0.7, 5.0, 29.5, 30.0, 1234.5, 1e6, 4e9 / 3.0, 1.5e12])
    @pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 4.0 / 3.0, 2.0, 3.0])
    def test_forty_digit_oracle(self, z, a):
        # The shift is the float a itself, so the oracle adds it exactly.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            zm, am = mpmath.mpf(z), mpmath.mpf(a)
            want = float(mpmath.loggamma(zm + am) - mpmath.loggamma(zm))
        assert log_gamma_shift(z, a) == pytest.approx(want, rel=1e-14, abs=1e-15)

    @given(st.floats(min_value=0.5, max_value=1e12))
    def test_unit_shift_is_log(self, z):
        # ln Gamma(z + 1) - ln Gamma(z) = ln z exactly.
        assert log_gamma_shift(z, 1.0) == pytest.approx(math.log(z), rel=1e-13, abs=1e-14)

    def test_exact_where_rounding_z_plus_a_is_not(self):
        # At z = 4e9/3 the float z + 2/3 is off by about ulp(z), which moves
        # the result by ulp(z) ln z; log_gamma_shift never forms z + a.
        z, a = 4e9 / 3.0, 2.0 / 3.0
        exact = a * math.log(z) + (a * (a - 1.0) / 2.0) / z
        assert log_gamma_shift(z, a) == pytest.approx(exact, rel=1e-15)
        assert abs(log_gamma_shift(z, (z + a) - z) - exact) > 1e-9

    def test_matches_lgamma_below_the_switch(self):
        for z in (0.5, 3.0, 29.9):
            assert log_gamma_shift(z, 0.75) == math.lgamma(z + 0.75) - math.lgamma(z)

    @pytest.mark.parametrize("z,a", [(0.0, 1.0), (-1.0, 3.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_domain_errors(self, z, a):
        with pytest.raises(DomainError):
            log_gamma_shift(z, a)


def _fsum_outcome(fn, values):
    """The bits of fn(values), or the type of the exception it raises."""
    try:
        return struct.pack("<d", fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_same_as_fsum(values):
    values = np.asarray(values, dtype=float)
    want = _fsum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert _fsum_outcome(exact_sum, values) == want


@st.composite
def summands(draw):
    """Finite float64 arrays of 0 to 5000 elements whose exponents span a
    drawn part of the whole range, subnormals included, with optional
    repeated terms, cancelling copies, half-ulp ties and hand-picked
    hypothesis floats."""
    size = draw(st.integers(0, 5000))
    low = draw(st.integers(-1075, 1023))
    high = draw(st.integers(low, 1023))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.ldexp(gen.uniform(0.5, 1.0, size), gen.integers(low, high + 1, size))
    values *= gen.choice([-1.0, 1.0], size)
    mode = draw(st.sampled_from(["plain", "cancel", "ties", "repeat"]))
    if mode == "repeat":
        # Equal terms round alike, so their remainders add up coherently.
        values = np.resize(values[:3], size)
    elif mode == "cancel":
        # Most of the array cancels exactly, leaving a sum far below its terms.
        values = np.concatenate([values, -values[: size - size // 50]])
    elif mode == "ties":
        # x and half an ulp of x: the exact sum sits midway between floats.
        base = values[: size // 2]
        values = np.concatenate([base, np.spacing(np.abs(base)) / 2.0])
    picked = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    values = np.concatenate([values, picked])
    gen.shuffle(values)
    return values


class TestExactSum:
    @given(summands())
    @example(np.array([1e16, 1.0, -1e16]))
    @example(np.array([2.0**53, 1.0, 2.0**-60]))
    @example(np.array([1.0, 2.0**-53]))
    @example(np.array([1.0 + 2.0**-52, 2.0**-53]))
    @example(np.array([1.0, 2.0**-53, 2.0**-1074]))
    @example(np.array([0.0, -0.0, 5e-324, -5e-324]))
    @example(np.array([-0.0, -0.0]))
    @example(np.array([]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_fsum(self, values):
        assert_same_as_fsum(values)

    @pytest.mark.parametrize(
        "values",
        [
            [math.nan],
            [1.0, math.nan, 2.0],
            [math.inf, 1.0],
            [-math.inf, -1.0],
            [math.inf, math.nan],
            [math.inf, -math.inf],
            [1e308, 1e308, -1e308],
            [2.0**900, 1.0, -(2.0**900)],
            [1.7e308, 5e-324],
        ],
    )
    def test_non_finite_and_huge_like_fsum(self, values):
        assert_same_as_fsum(values)

    def test_non_contiguous_views(self):
        block = np.random.default_rng(3).normal(size=(97, 64)) * 1e6
        block[::2] *= 1e-12
        original = block.copy()
        for view in (block[:, 5], block[::-1, 3], block.T[7], block[::3, ::2].ravel()[::5]):
            assert not view.flags.c_contiguous
            assert exact_sum(view) == math.fsum(view.tolist())
        assert np.array_equal(block, original)


def _cdf_series(x: float) -> float:
    """Independent series oracle: Phi(x) = 1/2 + phi(x) sum x^(2k+1)/(2k+1)!!."""
    s, term, k = 0.0, x, 0
    while abs(term) > 1e-18:
        s += term
        k += 1
        term *= x * x / (2 * k + 1)
    return 0.5 + std_normal_pdf(x) * s


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_far_tail(self):
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_via_series_oracle(self):
        x = 1.959963985
        assert std_normal_cdf(x) == pytest.approx(_cdf_series(x), abs=1e-13)
        assert std_normal_cdf(x) == pytest.approx(0.975, abs=1e-9)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_symmetry(self, x):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.nan)


class TestIntegration:
    def test_normal_density_normalizes(self):
        assert integrate_interval(std_normal_pdf, -12.0, 12.0) == pytest.approx(1.0, abs=1e-10)

    def test_reference_expectation(self):
        # E[h(Z)] for h = 1/(x^2+2); cross-checked against an independent
        # adaptive integrator.
        f = lambda z: std_normal_pdf(z) / (z * z + 2.0)
        mine = integrate_interval(f, -12.0, 12.0)
        other, err = scipy_integrate.quad(f, -12.0, 12.0, epsabs=1e-13)
        assert mine == pytest.approx(other, abs=1e-10)
        assert mine == pytest.approx(0.379, abs=5e-4)

    def test_unit_variance(self):
        val = integrate_interval(lambda z: std_normal_pdf(z) * z * z, -12.0, 12.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand_vanishes(self):
        val = integrate_interval(lambda z: z * std_normal_pdf(z), -12.0, 12.0)
        assert abs(val) <= 1e-10

    def test_deterministic(self):
        f = lambda z: std_normal_pdf(z) / (z * z + 2.0)
        assert integrate_interval(f, -12.0, 12.0) == integrate_interval(f, -12.0, 12.0)

    # Results of the earlier four-field error control, max(abs_tol,
    # rel_tol * |coarse|) with abs_tol = rel_tol = tol, as float.hex.  The
    # one-tol target tol * max(1, |coarse|) must reproduce them bit for bit:
    # "reference-h" and "cos" lie below 1 (an absolute target), "normal-pdf"
    # sits at 1, and the rest lie above it (a relative target).
    PINNED = {
        "normal-pdf": (std_normal_pdf, -12.0, 12.0, (
            "0x1.000001a802d17p+0", "0x1.000000000032bp+0", "0x1.0000000000172p+0")),
        "reference-h": (lambda z: std_normal_pdf(z) / (z * z + 2.0), -12.0, 12.0, (
            "0x1.8407d22c14754p-2", "0x1.8407d1ba691d3p-2", "0x1.8407d1ba5acb5p-2")),
        "cos": (math.cos, 0.0, 1.0, (
            "0x1.aed548f090c04p-1", "0x1.aed548f090ceap-1", "0x1.aed548f090cedp-1")),
        "large-exp": (math.exp, 0.0, 10.0, (
            "0x1.5825dcfedf5a7p+14", "0x1.5825dcf95058bp+14", "0x1.5825dcf950562p+14")),
        "sqrt": (math.sqrt, 0.0, 4.0, (
            "0x1.55555530599e5p+2", "0x1.55555555554bep+2", "0x1.5555555555551p+2")),
        "abs-cube-exp": (lambda x: abs(x - 1.0) ** 3 * math.exp(-x), 0.0, 40.0, (
            "0x1.3510152890d4bp+1", "0x1.351015143719cp+1", "0x1.35101514365d9p+1")),
        "negative-gamma": (lambda x: -x * x * math.exp(-x / 3.0), 0.0, 30.0, (
            "-0x1.aecdba1a70f63p+5", "-0x1.aecdba1bf3f84p+5", "-0x1.aecdba1bf3f8ep+5")),
    }

    PINNED_TOLS = (1e-6, 1e-10, 1e-11)

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_results(self, case, tol):
        f, a, b, want = self.PINNED[case]
        assert integrate_interval(f, a, b, tol).hex() == want[self.PINNED_TOLS.index(tol)]

    def test_finite_interval_polynomial(self):
        # Simpson is exact on cubics; the interface should be too.
        val = integrate_interval(lambda x: x**3 - 2.0 * x + 1.0, -1.0, 3.0)
        assert val == pytest.approx(16.0, rel=1e-13)

    def test_scipy_cross_checks(self):
        cases = [
            (lambda x: math.exp(-x * x) * math.cos(3.0 * x), -6.0, 6.0),
            (lambda x: 1.0 / (1.0 + x * x), -10.0, 10.0),
            (lambda x: x * x * math.exp(-x), 0.0, 50.0),
        ]
        for f, a, b in cases:
            mine = integrate_interval(f, a, b)
            other, _ = scipy_integrate.quad(f, a, b, epsabs=1e-12, limit=200)
            assert mine == pytest.approx(other, rel=1e-9, abs=1e-10)

    def test_exhausted_refinements_raise(self):
        # The jump at the grid point 0 halves its Simpson discrepancy with
        # each bisection, exactly as fast as the panel's error budget, so the
        # panel holding it never converges.
        with pytest.raises(QuadratureError):
            integrate_interval(lambda x: 0.0 if x <= 0.0 else 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            integrate_interval(math.cos, 0.0, 1.0, tol)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_interval(lambda x: math.inf if x == 0.0 else 1.0 / x, 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_interval(math.sin, 1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.2, max_value=2.0))
def test_gaussian_mass_shift_invariance(mu, sigma):
    # Integrating a shifted/scaled normal density over a wide window gives 1.
    f = lambda x: std_normal_pdf((x - mu) / sigma) / sigma
    val = integrate_interval(f, mu - 12.0 * sigma, mu + 12.0 * sigma)
    assert val == pytest.approx(1.0, abs=1e-9)

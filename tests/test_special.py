"""Tests for the special functions and the adaptive quadrature."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from mlebounds import (
    EXP_THIRD_ABS_MOMENT,
    DomainError,
    QuadratureError,
    gamma_third_abs_moment,
    integrate_interval,
    log_gamma_shift_excess,
    std_normal_cdf,
    std_normal_pdf,
)
from mlebounds.special import _exact_row_sums


def _excess_oracle(z, a):
    """ln Gamma(z + a) - ln Gamma(z) - a ln z in 40 digits; the float a is
    the shift, so the oracle adds it exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        zm, am = mpmath.mpf(z), mpmath.mpf(a)
        return float(mpmath.loggamma(zm + am) - mpmath.loggamma(zm) - am * mpmath.log(zm))


class TestLogGammaShiftExcess:
    @pytest.mark.parametrize("z", [0.7, 5.0, 9.5, 10.0, 29.5, 1234.5, 1e6, 4e9 / 3.0, 1.5e12])
    @pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 4.0 / 3.0, 2.0, 3.0, 7.5])
    def test_forty_digit_oracle(self, z, a):
        # G is about a (a - 1)/(2 z), far from 0 for these shifts, so the
        # lifted (z < 10) and Stirling branches both hold it relatively.
        assert log_gamma_shift_excess(z, a) == pytest.approx(_excess_oracle(z, a), rel=1e-13)

    @given(st.floats(min_value=0.5, max_value=1e12))
    def test_unit_shift_vanishes(self, z):
        # ln Gamma(z + 1) - ln Gamma(z) = ln z exactly, so G(z, 1) = 0; what
        # is left is roundoff on terms of size 1/z.
        assert abs(log_gamma_shift_excess(z, 1.0)) <= 1e-15 / z

    def test_small_where_the_log_gamma_difference_is_not(self):
        # At z = 4e9/3 each ln Gamma is 2.7e10, so their difference keeps no
        # digit of G = 1.7e-10; two terms of the asymptotic series in 1/z
        # give G to 1e-18 relative.
        z, a = 4e9 / 3.0, 2.0 / 3.0
        exact = (a * a - a) / (2.0 * z) - (a**3 - 1.5 * a * a + 0.5 * a) / (6.0 * z * z)
        assert log_gamma_shift_excess(z, a) == pytest.approx(exact, rel=1e-14)
        naive = math.lgamma(z + a) - math.lgamma(z) - a * math.log(z)
        assert abs(naive - exact) > 1e3 * abs(exact)

    @pytest.mark.parametrize("z,a", [(0.0, 1.0), (-1.0, 3.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_domain_errors(self, z, a):
        with pytest.raises(DomainError):
            log_gamma_shift_excess(z, a)


def _gamma_third_oracle(a):
    """4 (a + 1) phi(a) + 2 a (1 - 2 P(a, a)) in 40 digits, P from
    mpmath.gammainc rather than a quadrature, whose integrand is singular at
    0 for a < 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        phi = mpmath.exp(am * mpmath.log(am) - am - mpmath.loggamma(am))
        p = mpmath.gammainc(am, 0, am, regularized=True)
        return float(4 * (am + 1) * phi + 2 * am * (1 - 2 * p))


class TestGammaThirdAbsMoment:
    # Log-spaced from 0.05 to 1e6, eight per decade, and both sides of the
    # switch from the power series to Temme's expansion at a = 10.
    SHAPES = [0.05 * 10 ** (k / 8) for k in range(59)] + [1e6, 9.999999, 10.0]

    @pytest.mark.parametrize("a", SHAPES)
    def test_forty_digit_gammainc_reference(self, a):
        assert gamma_third_abs_moment(a) == pytest.approx(_gamma_third_oracle(a), rel=1e-12)

    def test_exponential_case(self):
        assert gamma_third_abs_moment(1.0) == pytest.approx(EXP_THIRD_ABS_MOMENT, rel=1e-15)

    def test_half_shape_from_erf(self):
        # P(1/2, 1/2) = erf(1/sqrt 2) and phi(1/2) = e^-1/2 / sqrt(2 pi);
        # 8 m3(1/2) is E|chi^2_1 - 1|^3, the normal-variance constant.
        want = 6.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi) + 1.0 - 2.0 * math.erf(math.sqrt(0.5))
        assert gamma_third_abs_moment(0.5) == pytest.approx(want, rel=1e-14)
        assert 8.0 * gamma_third_abs_moment(0.5) == pytest.approx(8.691562902725508, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e9))
    def test_lyapunov_and_the_normal_limit(self, a):
        # Lyapunov: m3 >= (E|G - a|^2)^(3/2) = a^(3/2); and m3 / a^(3/2)
        # tends to E|Z|^3 = 2 sqrt(2/pi), with a gap of 2/(3a) relative.
        m3 = gamma_third_abs_moment(a)
        assert a**1.5 <= m3
        if a >= 100.0:
            assert m3 / a**1.5 == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=2.0 / math.sqrt(a))


def _fsum_outcome(fn, values):
    """The bits of fn(values), or the type of the exception it raises."""
    try:
        return struct.pack("<d", fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_same_as_fsum(values):
    values = np.asarray(values, dtype=float)
    want = _fsum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert _fsum_outcome(lambda v: _exact_row_sums(np.reshape(v, (1, -1)))[0], values) == want


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
            assert _exact_row_sums(np.reshape(view, (1, -1)))[0] == math.fsum(view.tolist())
        assert _exact_row_sums(block[::2, ::3]) == [math.fsum(row.tolist()) for row in block[::2, ::3]]
        assert np.array_equal(block, original)


def assert_rows_same_as_fsum(block):
    """Each row of the block reduction equals math.fsum of that row; where
    a row's fsum raises, the whole call raises the first such exception."""
    block = np.asarray(block, dtype=float)
    want = [_fsum_outcome(lambda v: math.fsum(v.tolist()), row) for row in block]
    raised = [w for w in want if isinstance(w, type)]
    try:
        got = [struct.pack("<d", s) for s in _exact_row_sums(block)]
    except (OverflowError, ValueError) as exc:
        got = type(exc)
    assert got == (raised[0] if raised else want)


def _padded_block(rows):
    width = max(len(r) for r in rows)
    return np.stack([np.concatenate([r, np.zeros(width - len(r))]) for r in rows])


class TestExactRowSums:
    @given(st.lists(summands(), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_each_row_bit_identical_to_fsum(self, rows):
        # Rows of unrelated magnitudes share one sigma; short rows are
        # zero-padded, which leaves their fsum unchanged.
        assert_rows_same_as_fsum(_padded_block(rows))

    def test_rows_far_apart_and_signed_zeros(self):
        # The small row is 2^-1000 below the sigma set by the large one, so
        # the passes leave all of it to the per-row fsum.
        x = np.random.default_rng(11).normal(size=4096)
        block = np.stack([np.ldexp(x, 500), np.ldexp(x, -500), np.zeros(4096), -np.zeros(4096), x])
        # Bits are compared, so the zero rows keep fsum's sign of zero.
        assert_rows_same_as_fsum(block)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**900, -(2.0**901)])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_or_huge_row_beside_finite_rows(self, bad, where):
        x = np.random.default_rng(12).normal(size=(3, 1808))
        x[where, 77] = bad
        assert_rows_same_as_fsum(x)

    def test_raising_rows_raise_like_fsum(self):
        x = np.ones((3, 64))
        x[1, :2] = (math.inf, -math.inf)
        x[2, :2] = (1.7e308, 1.7e308)
        assert_rows_same_as_fsum(x)
        assert_rows_same_as_fsum(x[::-1])

    @pytest.mark.parametrize("width", [0, 1, 1808, 4096])
    def test_widths(self, width):
        gen = np.random.default_rng(width)
        block = gen.normal(size=(4, width)) * np.array([[1e-8], [1.0], [1e8], [1e300]])
        assert_rows_same_as_fsum(block)

    def test_a_block_the_first_pass_clears(self):
        # Small integers are multiples of the first pass's 2^-53 sigma, so
        # every remainder after it is zero.
        block = np.random.default_rng(13).integers(-1000, 1001, size=(4, 4096)).astype(float)
        sigma = 2.0 ** (13 + math.frexp(np.abs(block).max())[1])
        assert np.array_equal((block + sigma) - sigma, block)
        assert_rows_same_as_fsum(block)

    def test_many_elements_far_below_the_largest(self):
        # A quarter of each row lies 2^30 to 2^60 below the block's largest
        # element, out of reach of two passes' 80 bits, so over 1/64 of the
        # remainders are still non-zero after them.
        gen = np.random.default_rng(14)
        block = gen.normal(size=(4, 4096))
        block[:, ::4] = np.ldexp(block[:, ::4], -gen.integers(30, 61, size=(4, 1024)))
        assert np.count_nonzero(np.abs(block) < 2.0**-27 * np.abs(block).max()) > block.size / 64
        assert_rows_same_as_fsum(block)


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

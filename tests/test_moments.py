"""Tests for the moment inputs: third absolute moments, MSE, E[h(Z)]."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import stats

from mlebounds import (
    DomainError,
    EXP_THIRD_ABS_MOMENT,
    GeneralizedGammaParams,
    NORMAL_THIRD_ABS_MOMENT,
    d_value,
    exp_canonical_model,
    exp_noncanonical_model,
    expected_h_of_z,
    expfam_bound,
    fisher_info,
    gamma_third_abs_moment,
    generalized_gamma_model,
    gg_bound,
    gg_mse_factor,
    identity,
    laplace_scale_model,
    make_model,
    mse_closed_form,
    mse_monte_carlo,
    normal_mean_model,
    normal_variance_model,
    reference_test_function,
    sample_model,
    third_abs_moment,
    third_abs_moment_holder_gg,
    weibull_scale_model,
)
from mlebounds.models import _quadrature_third_moment
from mlebounds.montecarlo import iter_mle_chunks


def quad_third_moment(m, theta0, law):
    """Independent oracle: E|T(X) - D(theta0)|^3 for X drawn from ``law``,
    the model's distribution at theta0 as a frozen scipy.stats law, by
    scipy quadrature over its support."""
    d0 = d_value(m, theta0)
    return law.expect(lambda x: abs(float(m.T(x)) - d0) ** 3, limit=400, epsabs=1e-12)


H = reference_test_function()


class TestThirdAbsMoment:
    def test_exponential_constant_is_exact(self):
        # E|X - mu|^3 = (12/e - 2) mu^3 for an exponential with mean mu.
        assert EXP_THIRD_ABS_MOMENT == pytest.approx(2.414553294057308, abs=1e-15)

    def test_exp_both_parametrizations(self):
        for theta0 in (0.5, 1.0, 2.0):
            noncan = third_abs_moment(exp_noncanonical_model(), theta0)
            assert noncan == pytest.approx(EXP_THIRD_ABS_MOMENT * theta0**3, rel=1e-14)
            can = third_abs_moment(exp_canonical_model(), theta0)
            assert can == pytest.approx(EXP_THIRD_ABS_MOMENT / theta0**3, rel=1e-14)

    def test_exp_closed_form_matches_quadrature_oracle(self):
        m = exp_noncanonical_model()
        for theta0 in (1.0, 2.0):
            assert third_abs_moment(m, theta0) == pytest.approx(
                quad_third_moment(m, theta0, stats.expon(scale=theta0)), rel=1e-8
            )

    def test_laplace(self):
        # |X| is exponential with mean sigma.
        m = laplace_scale_model()
        sigma = 1.3
        assert third_abs_moment(m, sigma) == pytest.approx(
            EXP_THIRD_ABS_MOMENT * sigma**3, rel=1e-14
        )
        assert third_abs_moment(m, sigma) == pytest.approx(
            quad_third_moment(m, sigma, stats.laplace(scale=sigma)), rel=1e-8
        )

    def test_normal_mean(self):
        sigma = 2.0
        m = normal_mean_model(sigma=sigma)
        expected = NORMAL_THIRD_ABS_MOMENT * sigma**3
        assert NORMAL_THIRD_ABS_MOMENT == pytest.approx(1.5957691216057308, abs=1e-14)
        assert third_abs_moment(m, 0.7) == pytest.approx(expected, rel=1e-14)
        law = stats.norm(0.7, sigma)
        assert third_abs_moment(m, 0.7) == pytest.approx(quad_third_moment(m, 0.7, law), rel=1e-8)

    @pytest.mark.parametrize("theta0", [1e-6, 1e-3, 0.5, 1.3, 2.7])
    def test_normal_variance_quadrature_path(self, theta0):
        # normal-variance states its moment by quadrature.  T = theta
        # chi^2_1 = 2 theta Gamma(1/2), so it must give E|T - theta|^3 =
        # 8 m3(1/2) theta^3, relative to the moment however small (abs=0).
        # Integrated at theta0 itself, the quadrature's absolute error
        # target left it 3.59e-3 relative low at 1e-6 and 2.06e-4 at 1e-3.
        assert third_abs_moment(normal_variance_model(), theta0) == pytest.approx(
            8.0 * gamma_third_abs_moment(0.5) * theta0**3, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        "mu, theta0, pinned",
        [
            (0.0, 1.3, "0x1.31869c1591537p+4"),
            (0.5, 1e-3, "0x1.2aa3cbb999174p-27"),
            (0.5, 2.0, "0x1.162148864abb9p+6"),
            (-3.0, 0.7, "0x1.7d982922be98dp+1"),
            (-3.0, 100.0, "0x1.093ed5ce321d4p+23"),
        ],
    )
    def test_normal_variance_quadrature_is_pinned_bit_for_bit(self, mu, theta0, pinned):
        # The quadrature's own window, integrand and tolerance: any change
        # to them moves these bits, and every normal-variance bound with them.
        assert third_abs_moment(normal_variance_model(mu), theta0).hex() == pinned

    def test_weibull_exact_exponential_form(self):
        # T(X) = X^alpha is exponential with mean theta^alpha when d = p.
        alpha, theta0 = 2.0, 1.4
        m = weibull_scale_model(alpha=alpha)
        assert third_abs_moment(m, theta0) == pytest.approx(
            EXP_THIRD_ABS_MOMENT * theta0 ** (3 * alpha), rel=1e-14
        )
        law = stats.weibull_min(alpha, scale=theta0)
        assert third_abs_moment(m, theta0) == pytest.approx(
            quad_third_moment(m, theta0, law), rel=1e-7
        )

    def test_gg_quadrature_path(self):
        # GG(theta0, d, p) is scipy's gengamma(a=d/p, c=p, scale=theta0).
        m = generalized_gamma_model(d=3.0, p=2.0)
        theta0 = 1.0
        law = stats.gengamma(a=1.5, c=2.0, scale=theta0)
        assert third_abs_moment(m, theta0) == pytest.approx(
            quad_third_moment(m, theta0, law), rel=1e-7
        )

    @pytest.mark.parametrize("d,p", [(0.5, 3.0), (0.8, 1.0), (2.0, 1.5), (5.0, 0.5)])
    def test_gg_forty_digit_reference(self, d, p):
        # E|T - D|^3 = theta^{3p} E|G - a|^3 with G ~ Gamma(a = d/p), built
        # here from mpmath.gammainc.  For d < 1 the density is singular at 0
        # and quadrature misses its own tolerance.
        mpmath = pytest.importorskip("mpmath")
        theta0 = 1.3
        with mpmath.workdps(40):
            a = mpmath.mpf(d) / mpmath.mpf(p)
            phi = mpmath.exp(a * mpmath.log(a) - a - mpmath.loggamma(a))
            prob = mpmath.gammainc(a, 0, a, regularized=True)
            m3 = 4 * (a + 1) * phi + 2 * a * (1 - 2 * prob)
            want = float(m3 * mpmath.mpf(theta0) ** (3 * mpmath.mpf(p)))
        got = third_abs_moment(generalized_gamma_model(d=d, p=p), theta0)
        assert got == pytest.approx(want, rel=1e-12)


class TestHolderBound:
    def test_unit_shapes(self):
        params = GeneralizedGammaParams(theta=1.0, d=1.0, p=1.0)
        assert third_abs_moment_holder_gg(params) == pytest.approx(9.0**0.75, rel=1e-14)

    def test_theta_scaling(self):
        base = third_abs_moment_holder_gg(GeneralizedGammaParams(theta=1.0, d=1.0, p=1.0))
        scaled = third_abs_moment_holder_gg(GeneralizedGammaParams(theta=2.0, d=1.0, p=1.0))
        assert scaled == pytest.approx(8.0 * base, rel=1e-14)

    @pytest.mark.parametrize("d,p", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 2.0)])
    def test_dominates_exact_moment(self, d, p):
        m = generalized_gamma_model(d=d, p=p)
        exact = third_abs_moment(m, 1.0)
        holder = third_abs_moment_holder_gg(GeneralizedGammaParams(theta=1.0, d=d, p=p))
        assert exact <= holder


class TestMseExpCanonical:
    """The stated MSE (n+2) theta^2/((n-1)(n-2)) of exp-canonical's MLE."""

    def mse(self, n, theta0):
        return mse_closed_form(exp_canonical_model(), n, theta0)

    def test_small_n_values(self):
        assert self.mse(10, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert self.mse(3, 2.0) == pytest.approx(10.0, rel=1e-14)

    def test_requires_n_at_least_three(self):
        with pytest.raises(DomainError, match="^n must be an integer >= 1, got 0$"):
            self.mse(0, 1.0)
        for n in (1, 2):
            with pytest.raises(DomainError, match=(
                f"^n must be an integer >= 3 for the canonical exponential MSE, got {n}$"
            )):
                self.mse(n, 1.0)

    def test_matches_monte_carlo(self):
        est = mse_monte_carlo(exp_canonical_model(), 1.0, 50, trials=100_000, seed=17)
        analytic = self.mse(50, 1.0)
        assert abs(est.value - analytic) <= 3.0 * est.standard_error

    def test_asymptotic_efficiency(self):
        # n * MSE * i(theta0) -> 1 at rate O(1/n).
        theta0 = 1.7
        info = fisher_info(exp_canonical_model(), theta0)
        for n in (100, 1000, 10000, 100000):
            assert abs(n * self.mse(n, theta0) * info - 1.0) <= 10.0 / n

    def test_the_stated_float_operations(self):
        # The form is (n + 2) theta0^2 / ((n - 1)(n - 2)) in these float
        # operations, from n = 3 to 1e9, so its values do not move.
        for n in (3, 4, 10, 977, 10**6, 94_906_267, 10**9):
            for theta0 in (1e-3, 0.37, 1.0, 2.5, 1e3):
                assert self.mse(n, theta0) == (n + 2) * theta0**2 / ((n - 1) * (n - 2))


class TestMseGG:
    def test_exponential_case_collapses(self):
        # d = p = 1 makes the gamma ratios telescopic: MSE = theta^2 / n.
        m = generalized_gamma_model(d=1.0, p=1.0)
        assert mse_closed_form(m, 10, 1.0) == pytest.approx(0.1, abs=1e-14)
        for n in (1, 2, 7, 33, 100, 999, 10_000):
            got = mse_closed_form(m, n, 1.0)
            assert abs(got - 1.0 / n) <= 1e-12

    def test_single_draw_weibull2(self):
        # n=1, d=p=2: MSE = theta^2 (2 - sqrt(pi)).
        got = mse_closed_form(generalized_gamma_model(d=2.0, p=2.0), 1, 1.0)
        assert got == pytest.approx(2.0 - math.sqrt(math.pi), rel=1e-13)

    def test_order_one_over_n(self):
        vals = [n * gg_mse_factor(n, 2.0, 1.5) for n in (10, 100, 1000, 10_000, 100_000)]
        assert max(vals) < 2.0 * min(vals)
        # The limit of n * M is 1/(d p); check approach.
        assert vals[-1] == pytest.approx(1.0 / 3.0, rel=1e-3)

    @pytest.mark.parametrize(
        "d,p", [(2.0, 1.5), (3.0, 2.0), (2.0, 2.0), (0.5, 3.0), (1.5, 1.5), (2.0, 0.5), (1.5, 1.0)]
    )
    def test_fifty_digit_oracle(self, d, p):
        # expm1 of the small log ratios keeps the O(1/n) factor relative:
        # 1 - 2 t1 + t2 was 1.1e-5 off at n = 1e9 for (2, 1.5).
        mpmath = pytest.importorskip("mpmath")
        for n in [1, 3, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9]:
            with mpmath.workdps(50):
                nd, pm = mpmath.mpf(n) * mpmath.mpf(d), mpmath.mpf(p)
                z = nd / pm
                log_g = mpmath.loggamma(z)
                t1 = mpmath.exp(mpmath.loggamma(z + 1 / pm) - log_g - mpmath.log(z) / pm)
                t2 = mpmath.exp(mpmath.loggamma(z + 2 / pm) - log_g - 2 * mpmath.log(z) / pm)
                want = float(1 - 2 * t1 + t2)
            assert gg_mse_factor(n, d, p) == pytest.approx(want, rel=1e-12), (n, d, p)

    @pytest.mark.parametrize("via, n, d, p, z", [
        # Below n d/p of about 5.6e-309, 1/z overflows and the factor is NaN.
        ("factor", 10, 1e-320, 1.0, "1e-319"),
        ("model", 10, 1e-310, 1.0, "9.99999999999997e-310"),
        # Each of these raised a bare ArithmeticError: an expm1 overflows,
        ("factor", 10, 1.0, 1e-300, "9.999999999999999e+300"),
        # 1/z divides by zero where z underflows to 0,
        ("factor", 1, 5e-324, 10.0, "0.0"),
        # and an int n beyond the float range has no z.
        ("factor", 2**1024, 2.0, 1.5, "inf"),
        ("model", 2**1024, 2.0, 1.5, "inf"),
    ], ids=["1/z-overflows", "1/z-overflows-model", "expm1-overflows", "z-underflows",
            "n-beyond-floats", "n-beyond-floats-model"])
    def test_non_finite_factor_is_refused(self, via, n, d, p, z):
        message = f"the generalized gamma MSE factor is not finite at n={n}, n*d/p = {z}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            if via == "factor":
                gg_mse_factor(n, d, p)
            else:
                mse_closed_form(generalized_gamma_model(d, p), n, 1.0)

    def test_bounds_stay_valid_at_n_1e9(self):
        # A rounded z + 1/p once made the factor negative here.
        n = 10**9
        bd = gg_bound(n, GeneralizedGammaParams(1.5, 2.0, 1.5), H)
        assert min(bd.stein_term, bd.tail_term, bd.taylor_term) >= 0.0
        for m in (generalized_gamma_model(d=2.0, p=1.5), weibull_scale_model(alpha=1.5)):
            mse = mse_closed_form(m, n, 1.5)
            assert mse > 0.0
            assert expfam_bound(m, 1.5, n, 0.75, H, mse).total > 0.0

    def test_matches_monte_carlo(self):
        m = generalized_gamma_model(d=2.0, p=2.0)
        est = mse_monte_carlo(m, 1.0, 20, trials=100_000, seed=23)
        analytic = mse_closed_form(m, 20, 1.0)
        assert abs(est.value - analytic) <= 3.0 * est.standard_error


class TestMseClosedFormRegistry:
    @pytest.mark.parametrize(
        "model,theta0,expected",
        [
            (exp_noncanonical_model(), 2.0, 4.0 / 10),
            (laplace_scale_model(), 1.5, 1.5**2 / 10),
            (normal_mean_model(sigma=2.0), 0.0, 4.0 / 10),
            (normal_variance_model(), 1.2, 2.0 * 1.44 / 10),
        ],
    )
    def test_identity_families(self, model, theta0, expected):
        assert mse_closed_form(model, 10, theta0) == pytest.approx(expected, rel=1e-13)

    def test_weibull_routes_through_gg(self):
        w = weibull_scale_model(alpha=2.0)
        assert mse_closed_form(w, 20, 1.3) == pytest.approx(
            mse_closed_form(generalized_gamma_model(d=2.0, p=2.0), 20, 1.3), rel=1e-14
        )

    def test_monte_carlo_against_registry(self):
        # Seeded Monte Carlo MSE within 3 standard errors, one case per
        # built-in family not already covered by its own test class.
        cases = [
            (exp_noncanonical_model(), 2.0, 10),
            (laplace_scale_model(), 1.0, 25),
            (normal_variance_model(), 1.5, 15),
            (normal_mean_model(sigma=1.5), 0.5, 20),
            (weibull_scale_model(alpha=2.0), 1.2, 15),
        ]
        for i, (m, theta0, n) in enumerate(cases):
            est = mse_monte_carlo(m, theta0, n, trials=100_000, seed=100 + i)
            analytic = mse_closed_form(m, n, theta0)
            assert abs(est.value - analytic) <= 3.0 * est.standard_error, m.name


class TestMseMonteCarlo:
    def test_deterministic(self):
        m = exp_noncanonical_model()
        a = mse_monte_carlo(m, 2.0, 10, trials=5000, seed=9)
        b = mse_monte_carlo(m, 2.0, 10, trials=5000, seed=9)
        assert a == b

    def test_trials_floor(self):
        with pytest.raises(DomainError):
            mse_monte_carlo(exp_noncanonical_model(), 2.0, 10, trials=10, seed=1)

    def test_numpy_integer_arguments(self):
        m = exp_canonical_model()
        a = mse_monte_carlo(m, 2.0, 10, trials=5000, seed=9)
        b = mse_monte_carlo(m, 2.0, np.int64(10), trials=np.int64(5000), seed=np.uint64(9))
        assert a == b
        assert type(b.trials) is int and type(b.seed) is int

    @pytest.mark.parametrize("field", ["n", "trials", "seed"])
    def test_bool_rejected(self, field):
        kwargs = dict(n=10, trials=5000, seed=9)
        kwargs[field] = True
        with pytest.raises(DomainError):
            mse_monte_carlo(exp_noncanonical_model(), 2.0, **kwargs)


class TestExpectedHOfZ:
    def test_reference_function(self):
        val = expected_h_of_z(reference_test_function())
        assert round(val, 3) == 0.379
        assert val == pytest.approx(0.37894, abs=1e-5)

    def test_scipy_oracle(self):
        val = expected_h_of_z(reference_test_function())
        oracle, _ = scipy_integrate.quad(
            lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi) / (z * z + 2.0),
            -12.0,
            12.0,
            epsabs=1e-13,
        )
        assert val == pytest.approx(oracle, abs=1e-8)

    # E[1/(Z^2 + a^2)] = sqrt(pi/2)/a e^{a^2/2} erfc(a/sqrt 2), which at
    # a = sqrt 2 is (sqrt(pi)/2) e erfc(1).
    EXACT = 0.5 * math.sqrt(math.pi) * math.e * math.erfc(1.0)

    def test_closed_form_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            closed = mpmath.sqrt(mpmath.pi) / 2 * mpmath.e * mpmath.erfc(1)
            quad = mpmath.quad(lambda z: mpmath.npdf(z) / (z * z + 2),
                               [-mpmath.inf, 0, mpmath.inf])
            assert abs(closed - quad) < mpmath.mpf("1e-38")
        assert self.EXACT == pytest.approx(float(closed), rel=1e-15)

    def test_reference_function_meets_the_closed_form(self):
        # The integrator's tol is 1e-10; the quadrature lands 3.4e-12 away.
        assert reference_test_function().expected_h == pytest.approx(self.EXACT, abs=1e-10)

    def test_constant(self):
        assert expected_h_of_z(lambda z: 3.25) == pytest.approx(3.25, abs=1e-10)

    def test_odd_function(self):
        assert expected_h_of_z(lambda z: z / (z * z + 2.0)) == pytest.approx(0.0, abs=1e-10)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda n: gg_mse_factor(n, 2.0, 1.5),
            lambda n: mse_closed_form(exp_canonical_model(), n, 1.7),
            lambda n: mse_closed_form(generalized_gamma_model(d=2.0, p=1.5), n, 1.7),
            lambda n: mse_closed_form(normal_variance_model(), n, 1.7),
        ],
    )
    def test_numpy_int_gives_the_int_result(self, fn):
        for n in (100, 161_376_420):
            assert fn(np.int64(n)) == fn(n)
        with pytest.raises(DomainError):
            fn(True)


# One (model id, params, theta0 outside the parameter space) per family.
OUTSIDE = [
    ("exp-canonical", {}, -1.0),
    ("exp-noncanonical", {}, -2.0),
    ("laplace", {}, 0.0),
    ("normal-mean", {"sigma": 1.5}, math.inf),
    ("normal-variance", {"mu": 0.5}, -2.0),
    ("weibull", {"alpha": 2.0}, -1.0),
    ("gg", {"d": 2.0, "p": 1.5}, math.nan),
]


@pytest.mark.parametrize("model_id, params, theta0", OUTSIDE)
def test_theta_outside_the_parameter_space_is_rejected(model_id, params, theta0):
    m = make_model(model_id, **params)
    with pytest.raises(DomainError, match="theta0"):
        third_abs_moment(m, theta0)
    with pytest.raises(DomainError, match="theta0"):
        mse_closed_form(m, 10, theta0)


# Every optional closed-form field of ExpFamilyModel.
CLOSED_FORM_FIELDS = (
    "d_inverse", "sup_d_second", "third_moment", "bound_moment", "mse", "sample_tbar"
)


def bare(m):
    """The built-in with every closed form removed: a custom model."""
    return dataclasses.replace(m, name="custom", **dict.fromkeys(CLOSED_FORM_FIELDS))


# A gg copy that keeps sup_d_second, so only the missing moment can refuse it.
GG_NO_MOMENT = dataclasses.replace(
    generalized_gamma_model(d=0.3, p=1.0), name="gg-no-moment", third_moment=None,
    bound_moment=None,
)
WITH_CLOSED_FORM = [
    (exp_noncanonical_model(), 1.7), (laplace_scale_model(), 0.8), (normal_mean_model(1.5), -0.4)
]
# The interval of the data axis that each WITH_CLOSED_FORM model's third
# moment is integrated over at theta0: it holds all but a negligible part of
# the law's mass.  The exponential's starts just inside the open support,
# where the density has a positive limit but is defined as 0 at the end.
QUADRATURE_WINDOWS = {
    "exp-noncanonical": lambda t0: (6e-12 * t0, 60.0 * t0),
    "laplace": lambda t0: (-60.0 * t0, 60.0 * t0),
    "normal-mean(sigma=1.5)": lambda t0: (t0 - 14.0 * 1.5, t0 + 14.0 * 1.5),
}


class TestCustomModel:
    # The bare copies of the identity families declare their identity D, so
    # only the missing moment can refuse them.
    @pytest.mark.parametrize(
        "m, theta0",
        [(dataclasses.replace(bare(m), d_inverse=identity), t0) for m, t0 in WITH_CLOSED_FORM]
        + [(GG_NO_MOMENT, 1.3)]
    )
    def test_model_without_a_third_moment_is_refused(self, m, theta0):
        mse = 1e-3
        calls = (lambda: third_abs_moment(m, theta0),
                 lambda: expfam_bound(m, theta0, 100, 0.5 * abs(theta0), H, mse))
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            for word in (m.name, "third_moment", "bound_moment"):
                assert word in str(info.value)

    def test_a_stated_bound_moment_is_enough(self):
        gg = generalized_gamma_model(d=0.3, p=1.0)
        m = dataclasses.replace(GG_NO_MOMENT, bound_moment=gg.bound_moment)
        mse = mse_closed_form(m, 100, 1.3)
        assert expfam_bound(m, 1.3, 100, 0.65, H, mse) == expfam_bound(gg, 1.3, 100, 0.65, H, mse)

    @pytest.mark.parametrize("m, theta0", WITH_CLOSED_FORM)
    def test_quadrature_third_moment_matches_the_closed_form(self, m, theta0):
        # The quadrature that normal-variance states as its third moment.
        got = _quadrature_third_moment(m, theta0, *QUADRATURE_WINDOWS[m.name](theta0))
        assert got == pytest.approx(third_abs_moment(m, theta0), rel=1e-9)

    def test_closed_form_only_paths_raise_naming_the_model(self):
        m = bare(exp_noncanonical_model())
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="custom"):
            mse_closed_form(m, 10, 2.0)
        with pytest.raises(DomainError, match="custom"):
            sample_model(m, 2.0, rng, 5, 10)
        with pytest.raises(DomainError, match="custom"):
            next(iter_mle_chunks(m, 2.0, 10, 100, 1))

    @pytest.mark.parametrize("model_id, params", [case[:2] for case in OUTSIDE])
    def test_a_bare_copy_keeps_only_what_it_declares(self, model_id, params):
        # A bare copy states no d_inverse, so it is not identity whatever its
        # D; it keeps k, and with it the built-in's canonicity.
        m = make_model(model_id, **params)
        custom = bare(m)
        assert (custom.is_identity, custom.is_canonical) == (False, m.is_canonical)
        recoded = dataclasses.replace(custom, k=lambda th: m.k(th))
        assert recoded.is_canonical is False

    def test_bound_uses_the_exact_moment_without_a_bound_moment(self):
        # Without bound_moment the gg bound falls back to the exact
        # third moment, which the Holder bound dominates.
        m = generalized_gamma_model(d=2.0, p=2.0)
        mse = mse_closed_form(m, 50, 1.2)
        holder = expfam_bound(m, 1.2, 50, 0.6, H, mse)
        exact = expfam_bound(dataclasses.replace(m, bound_moment=None), 1.2, 50, 0.6, H, mse)
        assert exact.stein_term < holder.stein_term
        assert (exact.tail_term, exact.taylor_term) == (holder.tail_term, holder.taylor_term)

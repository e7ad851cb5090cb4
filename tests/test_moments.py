"""Tests for the moment inputs: third absolute moments, MSE, E[h(Z)]."""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from mlebounds import (
    DomainError,
    EXP_THIRD_ABS_MOMENT,
    GeneralizedGammaParams,
    NORMAL_THIRD_ABS_MOMENT,
    density,
    exp_canonical_model,
    exp_noncanonical_model,
    expected_h_of_z,
    expfam_bound,
    fisher_info,
    generalized_gamma_model,
    gg_bound,
    gg_mse_factor,
    laplace_scale_model,
    mse_closed_form,
    mse_exp_canonical,
    mse_gg,
    mse_monte_carlo,
    normal_mean_model,
    normal_variance_model,
    reference_test_function,
    third_abs_moment,
    third_abs_moment_holder_gg,
    weibull_scale_model,
)


def quad_third_moment(m, theta0):
    """Independent oracle: E|T(X) - D(theta0)|^3 via scipy quadrature."""
    from mlebounds import d_value

    d0 = d_value(m, theta0)
    lo, hi = m.integration_window(theta0)
    val, _ = scipy_integrate.quad(
        lambda x: abs(float(m.T(x)) - d0) ** 3 * density(m, x, theta0),
        lo,
        hi,
        limit=400,
        epsabs=1e-12,
    )
    return val


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
                quad_third_moment(m, theta0), rel=1e-8
            )

    def test_laplace(self):
        # |X| is exponential with mean sigma.
        m = laplace_scale_model()
        sigma = 1.3
        assert third_abs_moment(m, sigma) == pytest.approx(
            EXP_THIRD_ABS_MOMENT * sigma**3, rel=1e-14
        )
        assert third_abs_moment(m, sigma) == pytest.approx(
            quad_third_moment(m, sigma), rel=1e-8
        )

    def test_normal_mean(self):
        sigma = 2.0
        m = normal_mean_model(sigma=sigma)
        expected = NORMAL_THIRD_ABS_MOMENT * sigma**3
        assert NORMAL_THIRD_ABS_MOMENT == pytest.approx(1.5957691216057308, abs=1e-14)
        assert third_abs_moment(m, 0.7) == pytest.approx(expected, rel=1e-14)
        assert third_abs_moment(m, 0.7) == pytest.approx(quad_third_moment(m, 0.7), rel=1e-8)

    def test_normal_variance_quadrature_path(self):
        # No closed form is registered here; the quadrature fallback must
        # agree with the independent integrator.
        m = normal_variance_model(mu=0.0)
        theta0 = 1.3
        assert third_abs_moment(m, theta0) == pytest.approx(
            quad_third_moment(m, theta0), rel=1e-8
        )

    def test_weibull_exact_exponential_form(self):
        # T(X) = X^alpha is exponential with mean theta^alpha when d = p.
        alpha, theta0 = 2.0, 1.4
        m = weibull_scale_model(alpha=alpha)
        assert third_abs_moment(m, theta0) == pytest.approx(
            EXP_THIRD_ABS_MOMENT * theta0 ** (3 * alpha), rel=1e-14
        )
        assert third_abs_moment(m, theta0) == pytest.approx(
            quad_third_moment(m, theta0), rel=1e-7
        )

    def test_gg_quadrature_path(self):
        m = generalized_gamma_model(d=3.0, p=2.0)
        theta0 = 1.0
        assert third_abs_moment(m, theta0) == pytest.approx(
            quad_third_moment(m, theta0), rel=1e-7
        )


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
        exact = third_abs_moment(m, 1.0) if d != p else quad_third_moment(m, 1.0)
        holder = third_abs_moment_holder_gg(GeneralizedGammaParams(theta=1.0, d=d, p=p))
        assert exact <= holder


class TestMseExpCanonical:
    def test_small_n_values(self):
        assert mse_exp_canonical(10, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert mse_exp_canonical(3, 2.0) == pytest.approx(10.0, rel=1e-14)

    def test_requires_n_at_least_three(self):
        for n in (0, 1, 2):
            with pytest.raises(DomainError):
                mse_exp_canonical(n, 1.0)

    def test_matches_monte_carlo(self):
        est = mse_monte_carlo(exp_canonical_model(), 1.0, 50, trials=100_000, seed=17)
        analytic = mse_exp_canonical(50, 1.0)
        assert abs(est.value - analytic) <= 3.0 * est.standard_error

    def test_asymptotic_efficiency(self):
        # n * MSE * i(theta0) -> 1 at rate O(1/n).
        theta0 = 1.7
        info = fisher_info(exp_canonical_model(), theta0)
        for n in (100, 1000, 10000, 100000):
            assert abs(n * mse_exp_canonical(n, theta0) * info - 1.0) <= 10.0 / n


class TestMseGG:
    def test_exponential_case_collapses(self):
        # d = p = 1 makes the gamma ratios telescopic: MSE = theta^2 / n.
        assert mse_gg(10, GeneralizedGammaParams(1.0, 1.0, 1.0)) == pytest.approx(
            0.1, abs=1e-14
        )
        for n in (1, 2, 7, 33, 100, 999, 10_000):
            got = mse_gg(n, GeneralizedGammaParams(1.0, 1.0, 1.0))
            assert abs(got - 1.0 / n) <= 1e-12

    def test_single_draw_weibull2(self):
        # n=1, d=p=2: MSE = theta^2 (2 - sqrt(pi)).
        got = mse_gg(1, GeneralizedGammaParams(1.0, 2.0, 2.0))
        assert got == pytest.approx(2.0 - math.sqrt(math.pi), rel=1e-13)

    def test_order_one_over_n(self):
        vals = [n * gg_mse_factor(n, 2.0, 1.5) for n in (10, 100, 1000, 10_000, 100_000)]
        assert max(vals) < 2.0 * min(vals)
        # The limit of n * M is 1/(d p); check approach.
        assert vals[-1] == pytest.approx(1.0 / 3.0, rel=1e-3)

    @pytest.mark.parametrize(
        "d,p", [(2.0, 1.5), (1.5, 1.5), (3.0, 2.0), (2.0, 0.5), (1.5, 1.0)]
    )
    def test_forty_digit_oracle(self, d, p):
        # The factor is 1 - 2 t1 + t2 with t1, t2 exponentials of sums of
        # size ln z, so double precision allows a few eps (1 + ln z).
        mpmath = pytest.importorskip("mpmath")
        for k in range(2, 10):
            n = 10**k
            with mpmath.workdps(40):
                nd, pm = mpmath.mpf(n) * mpmath.mpf(d), mpmath.mpf(p)
                z = nd / pm
                log_r, log_g = mpmath.log(pm / nd), mpmath.loggamma(z)
                t1 = mpmath.exp(log_r / pm + mpmath.loggamma(z + 1 / pm) - log_g)
                t2 = mpmath.exp(2 * log_r / pm + mpmath.loggamma(z + 2 / pm) - log_g)
                want = float(1 - 2 * t1 + t2)
            tol = 64.0 * np.finfo(float).eps * (1.0 + math.log(n * d / p))
            assert abs(gg_mse_factor(n, d, p) - want) <= tol, (n, d, p)

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
        analytic = mse_gg(20, GeneralizedGammaParams(1.0, 2.0, 2.0))
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
            mse_gg(20, GeneralizedGammaParams(1.3, 2.0, 2.0)), rel=1e-14
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
        a = mse_monte_carlo(m, 2.0, 10, trials=5000, seed=9, chunk_size=1024)
        b = mse_monte_carlo(
            m, 2.0, np.int64(10), trials=np.int64(5000), seed=np.uint64(9),
            chunk_size=np.int32(1024),
        )
        assert a == b
        assert type(b.trials) is int and type(b.seed) is int

    @pytest.mark.parametrize("field", ["n", "trials", "seed", "chunk_size"])
    def test_bool_rejected(self, field):
        kwargs = dict(n=10, trials=5000, seed=9, chunk_size=1024)
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

    def test_constant(self):
        assert expected_h_of_z(lambda z: 3.25) == pytest.approx(3.25, abs=1e-10)

    def test_odd_function(self):
        assert expected_h_of_z(lambda z: z / (z * z + 2.0)) == pytest.approx(0.0, abs=1e-10)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda n: mse_exp_canonical(n, 1.7),
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

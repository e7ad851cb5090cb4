"""Tests for the model abstraction, built-ins, and MLE computation."""

import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mlebounds import (
    BoundInputs,
    ConsistencyError,
    DomainError,
    ExpFamilyModel,
    GeneralizedGammaParams,
    d_is_identity,
    d_prime,
    d_value,
    density,
    exp_canonical_model,
    exp_noncanonical_model,
    expfam_bound,
    fisher_info,
    generalized_gamma_model,
    gg_mse_factor,
    identity,
    integrate_interval,
    invert_d,
    laplace_scale_model,
    make_model,
    mle,
    normal_mean_model,
    normal_variance_model,
    reference_test_function,
    sup_abs_d_second,
    theorem_bound,
    third_abs_moment_holder_gg,
    weibull_scale_model,
)

QUAD_TOL = 1e-10


def all_builtin_cases():
    """(model, list of theta values) covering every built-in family."""
    return [
        (exp_canonical_model(), [0.5, 1.0, 2.5]),
        (exp_noncanonical_model(), [0.5, 2.0, 3.0]),
        (laplace_scale_model(), [0.7, 1.0, 2.0]),
        (normal_mean_model(sigma=1.5), [-1.0, 0.0, 2.0]),
        (normal_variance_model(mu=0.5), [0.5, 1.0, 2.0]),
        (weibull_scale_model(alpha=2.0), [0.8, 1.0, 1.5]),
        (generalized_gamma_model(d=2.0, p=1.5), [0.8, 1.0, 2.0]),
        (generalized_gamma_model(d=3.0, p=2.0), [0.9, 1.2, 2.0]),
    ]


def gg_window(theta, d, p):
    a = d / p
    hi = theta * (a + 40.0 * math.sqrt(a) + 45.0) ** (1.0 / p)
    return (1e-13 * hi, hi)


# For each case of all_builtin_cases(), in order: the interval of the data
# axis that the quadrature checks of density integrate over at theta.  Each
# carries all of the model's mass at theta but for far less than their
# tolerances.  The exponential windows start just inside the open support:
# the density has a positive limit at 0, so including the endpoint (where
# density is defined as 0) would put a jump inside the quadrature panel.
DATA_WINDOWS = [
    lambda t: (6e-12 / t, 60.0 / t),
    lambda t: (6e-12 * t, 60.0 * t),
    lambda t: (-60.0 * t, 60.0 * t),
    lambda t: (t - 14.0 * 1.5, t + 14.0 * 1.5),
    lambda t: (0.5 - 14.0 * math.sqrt(t), 0.5 + 14.0 * math.sqrt(t)),
    lambda t: gg_window(t, 2.0, 2.0),
    lambda t: gg_window(t, 2.0, 1.5),
    lambda t: gg_window(t, 3.0, 2.0),
]


# For each case of all_builtin_cases(), in order: scipy's law of T at theta
# (of -T for exp-canonical, which has the same variance).
T_LAWS = [
    lambda t: stats.expon(scale=1.0 / t),
    lambda t: stats.expon(scale=t),
    lambda t: stats.expon(scale=t),
    lambda t: stats.norm(t, 1.5),
    lambda t: stats.chi2(1, scale=t),
    lambda t: stats.gamma(1.0, scale=t**2.0),
    lambda t: stats.gamma(2.0 / 1.5, scale=t**1.5),
    lambda t: stats.gamma(1.5, scale=t**2.0),
]


class TestDValue:
    def test_gg(self):
        m = generalized_gamma_model(d=2.0, p=1.0)
        assert d_value(m, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_exp_canonical(self):
        assert d_value(exp_canonical_model(), 2.0) == pytest.approx(-0.5, rel=1e-14)

    def test_exp_noncanonical(self):
        assert d_value(exp_noncanonical_model(), 3.0) == pytest.approx(3.0, rel=1e-14)

    def test_outside_space(self):
        with pytest.raises(DomainError):
            d_value(exp_canonical_model(), -1.0)
        with pytest.raises(DomainError):
            d_value(exp_canonical_model(), 0.0)


class TestFisherInfo:
    def test_exp_canonical(self):
        assert fisher_info(exp_canonical_model(), 2.0) == pytest.approx(0.25, rel=1e-13)

    def test_exp_noncanonical_matches_canonical(self):
        # The information at theta and its reciprocal parametrization agree
        # for this reparametrization.
        assert fisher_info(exp_noncanonical_model(), 2.0) == pytest.approx(0.25, rel=1e-13)

    def test_exp_noncanonical_score_oracle(self):
        # i(theta0) = E[(d/dtheta log f)^2] by quadrature against the
        # exponential law with mean theta0.
        m = exp_noncanonical_model()
        theta0 = 2.0

        def squared_score(x):
            score = -1.0 / theta0 + x / theta0**2
            return score * score

        val = stats.expon(scale=theta0).expect(squared_score)
        assert fisher_info(m, theta0) == pytest.approx(val, rel=1e-8)

    def test_gg_quadrature_oracle(self):
        # i = k'^2 Var(T) with E[T] and E[T^2] computed by quadrature
        # against the GG(theta0, d, p) law, scipy's gengamma(a=d/p, c=p,
        # scale=theta0).
        m = generalized_gamma_model(d=4.0, p=2.0)
        theta0 = 1.0
        law = stats.gengamma(a=2.0, c=2.0, scale=theta0)
        et = law.expect(lambda x: float(m.T(x)))
        et2 = law.expect(lambda x: float(m.T(x)) ** 2)
        expected = float(m.k1(theta0)) ** 2 * (et2 - et * et)
        assert fisher_info(m, theta0) == pytest.approx(8.0, rel=1e-12)
        assert fisher_info(m, theta0) == pytest.approx(expected, rel=1e-8)

    def test_information_is_k_prime_squared_times_the_variance_of_t(self):
        # i = k'^2 Var(T), with Var(T) from scipy's law of T at each theta.
        for (m, thetas), law in zip(all_builtin_cases(), T_LAWS, strict=True):
            for theta in thetas:
                expected = float(m.k1(theta)) ** 2 * law(theta).var()
                assert fisher_info(m, theta) == pytest.approx(expected, rel=1e-12), (m.name, theta)

    def test_positive_on_grid(self):
        for m, thetas in all_builtin_cases():
            for theta in thetas:
                assert fisher_info(m, theta) > 0.0

    def test_d_prime_is_the_fisher_paths_d_prime(self):
        # D' is written once: d_prime is the Fisher path's D', so wherever
        # that path returns the two agree bit for bit, and where it refuses
        # d_prime refuses too.  theta0 = 10^(k/4) across the float range.
        from mlebounds.models import _fisher_and_d_prime

        grid = [10.0 ** (k / 4) for k in range(-1240, 1232)]
        for m, _ in all_builtin_cases():
            thetas = grid + [-t for t in grid] if m.contains_theta(-1.0) else grid
            compared = 0
            for theta in thetas:
                try:
                    want = _fisher_and_d_prime(m, theta)[1]
                except (DomainError, ConsistencyError) as exc:
                    with pytest.raises(type(exc)):
                        d_prime(m, theta)
                    continue
                assert d_prime(m, theta).hex() == want.hex(), (m.name, theta)
                compared += 1
            assert compared > 400, m.name


# Each built-in family at three theta, plus a second shape of normal-mean and gg.
DERIVATIVE_CASES = [
    *[(model_id, {}, [0.5, 1.3, 2.5])
      for model_id in ("exp-canonical", "exp-noncanonical", "laplace", "normal-variance")],
    ("normal-mean", {}, [-1.0, 0.3, 2.0]),
    ("normal-mean", {"sigma": 1.5}, [-1.0, 0.3, 2.0]),
    ("weibull", {"alpha": 2.0}, [0.5, 1.3, 2.5]),
    ("gg", {"d": 2.0, "p": 1.5}, [0.5, 1.3, 2.5]),
    ("gg", {"d": 0.5, "p": 3.0}, [0.5, 1.3, 2.5]),
]


@pytest.mark.parametrize("model_id,params,thetas", DERIVATIVE_CASES,
                         ids=[f"{c[0]}{c[1] or ''}" for c in DERIVATIVE_CASES])
def test_derivative_fields_are_the_derivatives_of_k_and_a(model_id, params, thetas):
    # k1 and A1 are compared with central differences of k and A, and the
    # stated fisher with k' times the central difference of D = A'/k'.  k
    # and A (with S) stay on the model as the family's definition: density,
    # and so normal-variance's quadrature third moment, reads them.
    m = make_model(model_id, **params)

    def d(th):
        return float(m.A1(th)) / float(m.k1(th))

    for theta in thetas:
        step = 1e-5 * max(1.0, abs(theta))
        for f, derivative in ((m.k, m.k1), (m.A, m.A1)):
            central = (float(f(theta + step)) - float(f(theta - step))) / (2.0 * step)
            assert central == pytest.approx(float(derivative(theta)), rel=1e-7), (theta, f)
        central = (d(theta + step) - d(theta - step)) / (2.0 * step)
        assert float(m.k1(theta)) * central == pytest.approx(float(m.fisher(theta)), rel=1e-7)


# Each Gamma-law built-in and its declared law: T = sign * Gamma(a, scale c theta^r).
GAMMA_LAWS = [
    ("exp-canonical", {}, 1.0, 1.0, -1.0, -1.0),
    ("exp-noncanonical", {}, 1.0, 1.0, 1.0, 1.0),
    ("laplace", {}, 1.0, 1.0, 1.0, 1.0),
    ("normal-variance", {"mu": 0.5}, 0.5, 2.0, 1.0, 1.0),
    ("weibull", {"alpha": 2.0}, 1.0, 1.0, 2.0, 1.0),
    ("gg", {"d": 2.0, "p": 1.5}, 4.0 / 3.0, 1.0, 1.5, 1.0),
    ("gg", {"d": 0.5, "p": 3.0}, 1.0 / 6.0, 1.0, 3.0, 1.0),
]


@pytest.mark.parametrize("model_id,params,a,c,r,sign", GAMMA_LAWS,
                         ids=[f"{law[0]}{law[1] or ''}" for law in GAMMA_LAWS])
def test_gamma_law_builtins_match_their_law(model_id, params, a, c, r, sign):
    # D = A'/k' is the law's mean sign a c theta^r on a grid, and sample_tbar's
    # mean T over n draws has the law's mean and variance a c^2 theta^{2r}/n,
    # each within 5 standard errors on a fixed seed.
    m = make_model(model_id, **params)
    for theta in np.geomspace(1e-3, 1e3, 25):
        th = float(theta)
        want = sign * a * c * th**r
        assert float(m.A1(th)) / float(m.k1(th)) == pytest.approx(want, rel=1e-14), th
    rng = np.random.default_rng(11)
    size = 200_000
    for theta0, n in ((0.7, 1), (1.3, 3), (2.5, 40)):
        mean, var = sign * a * c * theta0**r, a * c**2 * theta0 ** (2.0 * r) / n
        draws = m.sample_tbar(theta0, n, rng, size)
        assert abs(draws.mean() - mean) <= 5.0 * math.sqrt(var / size), (theta0, n)
        # The sum of n draws is Gamma(n a), whose excess kurtosis is 6/(n a).
        se_var = var * math.sqrt((2.0 + 6.0 / (n * a)) / size)
        assert abs(draws.var() - var) <= 5.0 * se_var, (theta0, n)


class _FixedGamma:
    """A generator whose ``gamma`` records its law and returns fixed draws:
    zero, the smallest subnormal and normal, ordinary values and the largest
    float."""

    DRAWS = np.array([0.0, 5e-324, 2.2250738585072014e-308, 0.3, 1.0, 7.5, 1e300,
                      1.7976931348623157e308])

    def gamma(self, shape, scale, size):
        self.law = (shape, scale, size)
        return self.DRAWS.copy()


@pytest.mark.parametrize("model_id,params,a,c,r,sign", GAMMA_LAWS,
                         ids=[f"{law[0]}{law[1] or ''}" for law in GAMMA_LAWS])
def test_gamma_law_sampler_divides_the_sum_by_sign_n(model_id, params, a, c, r, sign):
    # mean T is the Gamma(n a, c theta^r) sum over sign * n: bit for bit the
    # negated sum over n where sign = -1, signed zeros included, since IEEE
    # division is sign-symmetric.
    m = make_model(model_id, **params)
    draws = _FixedGamma.DRAWS
    for theta0, n in ((0.7, 1), (1.3, 3), (2.5, 1000), (0.01, 10**9), (40.0, 2**60 + 1)):
        rng = _FixedGamma()
        got = m.sample_tbar(theta0, n, rng, draws.size)
        want = (draws if sign > 0.0 else -draws) / n
        assert got.tobytes() == want.tobytes(), (theta0, n)
        assert np.all(np.signbit(got) == (sign < 0.0)), (theta0, n)
        shape, scale, size = rng.law
        assert (shape, scale, size) == (pytest.approx(n * a, rel=1e-15),
                                        pytest.approx(c * theta0**r, rel=1e-15), draws.size)


class TestMLE:
    def test_exp_canonical_reciprocal_mean(self):
        assert mle(exp_canonical_model(), [0.5, 1.5]) == pytest.approx(1.0, rel=1e-14)

    def test_gg_constant_sample(self):
        # Weibull-type case d = p: a constant sample of ones gives
        # theta_hat = (mean x^alpha)^(1/alpha) = 1 exactly.
        m = generalized_gamma_model(d=2.0, p=2.0)
        assert mle(m, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)
        # With d != p the same formula ((p/(nd)) sum x^p)^(1/p) applies:
        # for d=1, p=2 and the all-ones sample that is sqrt(2).
        m2 = generalized_gamma_model(d=1.0, p=2.0)
        assert mle(m2, [1.0, 1.0]) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_intro_catalog(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(1.2, 2.0, size=50)
        assert mle(normal_mean_model(sigma=2.0), xs) == pytest.approx(xs.mean(), rel=1e-14)

        mu = 0.5
        assert mle(normal_variance_model(mu=mu), xs) == pytest.approx(
            np.mean((xs - mu) ** 2), rel=1e-14
        )

        pos = rng.weibull(2.0, size=40) * 1.7
        alpha = 2.0
        assert mle(weibull_scale_model(alpha=alpha), pos) == pytest.approx(
            np.mean(pos**alpha) ** (1.0 / alpha), rel=1e-14
        )

        assert mle(laplace_scale_model(), xs) == pytest.approx(
            np.mean(np.abs(xs)), rel=1e-14
        )

    def test_generic_root_finder_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for m in (exp_canonical_model(), exp_noncanonical_model()):
            for _ in range(100):
                xs = rng.exponential(1.7, size=rng.integers(3, 40))
                closed = mle(m, xs)
                generic = mle(dataclasses.replace(m, d_inverse=None), xs)
                assert generic == pytest.approx(closed, rel=1e-10)

    def test_generic_root_finder_gg(self):
        rng = np.random.default_rng(3)
        m = generalized_gamma_model(d=2.0, p=1.5)
        for _ in range(20):
            xs = rng.gamma(2.0, 1.0, size=25) ** (1.0 / 1.5)
            assert mle(dataclasses.replace(m, d_inverse=None), xs) == pytest.approx(
                mle(m, xs), rel=1e-10
            )

    def test_decreasing_d_needs_no_declaration(self):
        # The exponential with rate theta written with T(x) = x: k = -theta
        # and the canonical model's A = -log theta, so D = 1/theta falls.
        # The generic root finder reads that direction off D'.
        rate = dataclasses.replace(
            exp_canonical_model(),
            name="exp-rate",
            k=lambda th: -th,
            k1=lambda th: -1.0 + 0.0 * th,
            T=lambda x: x,
            d_inverse=None,
            sample_tbar=None,
        )
        assert d_value(rate, 2.0) == 0.5
        assert d_prime(rate, 2.0) < 0.0
        rng = np.random.default_rng(17)
        for scale in (0.05, 0.7, 1.0, 3.0, 40.0):
            xs = rng.exponential(scale, size=30)
            assert mle(rate, xs) == pytest.approx(1.0 / np.mean(xs), rel=1e-10)

    @pytest.mark.parametrize("fields, match", [
        ({"fisher": lambda th: 0.0}, "flat"),
        ({"fisher": lambda th: math.nan}, "flat"),
        # i = 2^-1022 and k' = 2^60 are normal floats, but D' = i/k' at the
        # starting point 1.0 underflows to 0.0.
        ({"fisher": lambda th: 2.0**-1022, "k1": lambda th: 2.0**60},
         r"^D'\(1\.0\) = 0\.0 for model 'flat'; D is not monotone$"),
    ], ids=["fisher0", "fisher1", "d-prime-underflows"])
    def test_invert_d_needs_a_monotone_d(self, fields, match):
        # With i = 0, D' = i/k' is 0; with a NaN it is not finite; and D'
        # may underflow to 0 from normal i and k'.  Each way the root finder
        # has no direction and must say so.
        flat = dataclasses.replace(exp_noncanonical_model(), name="flat", **fields)
        with pytest.raises(DomainError, match=match):
            invert_d(flat, 1.0)

    def test_defining_identity_across_builtins(self):
        # |D(theta_hat) - mean T| <= 1e-10 on seeded samples, for every
        # built-in model and many draws.  The identity holds for any sample
        # inside the support, so the data need not follow the model's law:
        # lognormal on (0, inf), normal on the line, at theta0's scale.
        rng = np.random.default_rng(2026)
        count = 0
        for m, thetas in all_builtin_cases():
            for theta0 in thetas:
                for _ in range(42):
                    size = rng.integers(5, 60)
                    if m.support[0] == 0.0:
                        xs = theta0 * rng.lognormal(0.0, 1.0, size)
                    else:
                        xs = rng.normal(theta0, 2.0, size)
                    theta_hat = mle(m, xs)
                    gap = abs(d_value(m, theta_hat) - float(np.mean(m.T(xs))))
                    assert gap <= 1e-10
                    count += 1
        assert count >= 1000

    def test_rejects_bad_samples(self):
        m = exp_canonical_model()
        with pytest.raises(DomainError):
            mle(m, [])
        with pytest.raises(DomainError):
            mle(m, [1.0, -2.0])

    @pytest.mark.parametrize(
        "m,sample",
        [
            # 1/mean is inf: mean T is subnormal.
            (exp_canonical_model(), [5e-324]),
            (exp_canonical_model(), [1e-310, 1e-310]),
            # x^2 underflows, so mean T is 0 and its inverse is the edge 0.
            (weibull_scale_model(2.0), [1e-170]),
            # x^p or the sum overflows, so mean T is inf.
            (generalized_gamma_model(2.0, 3.0), [1e200]),
            (exp_noncanonical_model(), [1e308, 1e308]),
            # mean T is finite, but d_inverse's power raises OverflowError:
            # theta_hat would be (500 * 1e154)^2.
            (generalized_gamma_model(1e-3, 0.5), [1e308]),
        ],
        ids=["exp-canonical-5e-324", "exp-canonical-1e-310", "weibull-1e-170", "gg-1e200",
             "exp-noncanonical-1e308", "gg-d_inverse-overflows"],
    )
    @pytest.mark.parametrize("path", ["closed", "generic"])
    def test_an_mle_outside_the_parameter_space_is_refused(self, m, sample, path):
        # Both paths refuse rather than return inf or 0 for a sample inside
        # the support, and an overflow in mean T warns nowhere.
        match = f"mean T = .* has no MLE inside the parameter space .* {re.escape(repr(m.name))}"
        if path == "generic":
            m, match = dataclasses.replace(m, d_inverse=None), None
        with pytest.raises(DomainError, match=match):
            mle(m, sample)

    def test_invert_d_matches_closed_form_both_sides(self):
        # The generic inverse starts at 1 on (0, inf) and at 0 on the real
        # line, then searches toward one end; every family's thetas lie on
        # both sides of that start, so both directions are exercised.
        for m, thetas in all_builtin_cases():
            generic = dataclasses.replace(m, d_inverse=None)
            for theta in thetas:
                target = float(d_value(m, theta))
                assert invert_d(generic, target) == pytest.approx(
                    m.d_inverse(target), rel=1e-12
                ), (m.name, theta)

    @pytest.mark.parametrize(
        "m",
        [m for m, _ in all_builtin_cases()] + [generalized_gamma_model(d=0.5, p=3.0)],
        ids=lambda m: m.name,
    )
    def test_invert_d_is_accurate_at_every_scale(self, m):
        # Bisection runs to adjacent floats, so the generic inverse meets the
        # closed form to 1e-15 relative from theta = 1e-6 to 1e6; a stop on
        # |D(x) - y| <= 1e-12 max(1, |y|) returned 1.5e-4 for gg(0.5, 3) at
        # theta = 1e-5.
        generic = dataclasses.replace(m, d_inverse=None)
        for theta in np.geomspace(1e-6, 1e6, 61):
            target = d_value(m, float(theta))
            want = m.d_inverse(target)
            assert abs(invert_d(generic, target) - want) <= 1e-15 * abs(want), (m.name, theta)

    def test_invert_d_out_of_range(self):
        # D of the canonical exponential maps onto (-inf, 0); positive
        # targets are unreachable.
        with pytest.raises(DomainError):
            invert_d(exp_canonical_model(), 1.0)

    # D(theta) = (1/theta) / (1/theta^2) on (0, inf), searched from 1.
    GENERIC_EXP = dataclasses.replace(exp_noncanonical_model(), d_inverse=None)

    @pytest.mark.parametrize("target", [1e-70, 1e61])
    def test_invert_d_finds_roots_far_from_the_start(self, target):
        # More than 199 halvings (1e-70) or doublings (1e61) from the start.
        root = invert_d(self.GENERIC_EXP, target)
        assert abs(root - target) <= math.ulp(target)
        below = math.nextafter(root, 0.0)
        above = math.nextafter(root, math.inf)
        assert d_value(self.GENERIC_EXP, below) <= target <= d_value(self.GENERIC_EXP, above)

    @pytest.mark.parametrize("target", [1e-200, 1e-300, 1e300])
    def test_invert_d_refuses_where_d_cannot_be_evaluated(self, target):
        # Below theta = 7.46e-155, 1/theta^2 overflows and A'/k' reads 0,
        # which would bracket a false root near there for 1e-200; above
        # about 1.3e154, theta**2 raises OverflowError.
        with pytest.raises(DomainError, match="not attained"):
            invert_d(self.GENERIC_EXP, target)

    def test_a_zero_of_d_on_the_way_is_passed(self):
        # D(theta) = theta - 2 is 0 at the walk's first candidate, 2; the
        # walk goes on past it, and a target of 0 is met there exactly.
        shifted = dataclasses.replace(
            normal_mean_model(), name="shifted", A1=lambda th: th - 2.0, d_inverse=None
        )
        assert invert_d(shifted, 0.0) == 2.0
        assert invert_d(shifted, 5.0) == pytest.approx(7.0, rel=1e-15)


class TestBoundedParameterSpace:
    """The generic inverse starts at the midpoint of a bounded space and at
    hi - 1 on one bounded above; each model declares what it is."""

    # Bernoulli with its mean p on (0, 1): D(p) = p.
    BERNOULLI = dataclasses.replace(
        exp_noncanonical_model(),
        name="bernoulli-mean",
        k=lambda p: np.log(p / (1.0 - p)),
        k1=lambda p: 1.0 / (p * (1.0 - p)),
        A=lambda p: -np.log(1.0 - p),
        A1=lambda p: 1.0 / (1.0 - p),
        fisher=lambda p: 1.0 / (p * (1.0 - p)),
        param_space=(0.0, 1.0),
        d_inverse=identity,
    )
    # The exponential with natural parameter eta = -rate on (-inf, 0):
    # D(eta) = -1/eta.
    EXP_NATURAL = dataclasses.replace(
        exp_noncanonical_model(),
        name="exp-natural",
        k=identity,
        k1=lambda eta: 1.0 + 0.0 * eta,
        A=lambda eta: -np.log(-eta),
        A1=lambda eta: -1.0 / eta,
        fisher=lambda eta: 1.0 / eta / eta,
        param_space=(-math.inf, 0.0),
        d_inverse=None,
    )

    @pytest.mark.parametrize(
        "m, identity, canonical, targets",
        [
            # 1e-300, and for exp-natural 1e-200 and 1e300, lie more than
            # 199 halvings or doublings from the start.
            (BERNOULLI, True, False, [1e-300, 1e-9, 0.05, 0.3, 0.5, 0.77, 1.0 - 1e-9]),
            (EXP_NATURAL, False, True, [1e-200, 1e-6, 0.4, 1.0, 2.0, 1e3, 1e300]),
        ],
        ids=["bernoulli-mean", "exp-natural"],
    )
    def test_invert_d_and_flags(self, m, identity, canonical, targets):
        assert (m.is_identity, m.is_canonical) == (identity, canonical)
        for y in targets:
            root = invert_d(m, y)
            assert m.contains_theta(root)
            assert d_value(m, root) == pytest.approx(y, rel=1e-15, abs=0.0), (m.name, y)

    def test_targets_outside_the_range_of_d_are_refused(self):
        for m, y in ((self.BERNOULLI, 1.5), (self.BERNOULLI, -0.1), (self.EXP_NATURAL, -1.0)):
            with pytest.raises(DomainError, match="not attained"):
                invert_d(m, y)

    def test_the_declared_identity_gets_its_bound(self):
        # D' = i/k' = 1, so the declaration holds and the bound is its Stein
        # term alone, with Bernoulli's E|X - p|^3 = p q (p^2 + q^2).
        p, n, h = 0.3, 100, reference_test_function()
        m3 = p * (1.0 - p) * (p * p + (1.0 - p) ** 2)
        m = dataclasses.replace(self.BERNOULLI, third_moment=lambda t0: m3)
        mse = p * (1.0 - p) / n
        got = expfam_bound(m, p, n, 0.1, h, mse)
        want = theorem_bound(BoundInputs(n, p, 0.1, fisher_info(m, p), 1.0, m3, mse, 0.0, True, h))
        assert (got.stein_term, got.tail_term, got.taylor_term) == (want.stein_term, 0.0, 0.0)


class TestSupAbsDSecond:
    def test_exp_canonical_half_theta(self):
        for theta0 in (0.5, 1.0, 2.0):
            assert sup_abs_d_second(exp_canonical_model(), theta0, theta0 / 2) == pytest.approx(
                16.0 / theta0**3, rel=1e-13
            )

    def test_gg_linear_case(self):
        m = generalized_gamma_model(d=3.0, p=1.0)
        assert sup_abs_d_second(m, 1.0, 0.5) == 0.0

    def test_gg_cubic_case(self):
        m = generalized_gamma_model(d=1.0, p=3.0)
        assert sup_abs_d_second(m, 1.0, 0.5) == pytest.approx(2.0 * 1.5, rel=1e-13)

    # Two (theta0, epsilon) balls per built-in family; gg(2, 1.5) has its
    # sup|D''| at the lower end of the ball, Weibull(3) at the upper end.
    BALLS = [
        (exp_canonical_model(), [(1.0, 0.5), (2.5, 0.4)]),
        (exp_noncanonical_model(), [(1.7, 0.85), (0.6, 0.2)]),
        (laplace_scale_model(), [(0.8, 0.4), (2.0, 1.5)]),
        (normal_mean_model(sigma=1.5), [(-0.4, 1.0), (2.0, 0.5)]),
        (normal_variance_model(mu=0.5), [(1.3, 0.65), (0.5, 0.1)]),
        (weibull_scale_model(alpha=3.0), [(1.2, 0.6), (0.8, 0.3)]),
        (generalized_gamma_model(d=2.0, p=1.5), [(1.5, 0.75), (0.9, 0.2)]),
    ]

    @pytest.mark.parametrize("m, balls", BALLS, ids=lambda v: getattr(v, "name", ""))
    def test_closed_form_matches_finite_differences(self, m, balls):
        # |D''| by the central second difference of d_value, step
        # 1e-4 max(1, |theta|), on 2001 points of the ball: the closed form
        # must dominate it and be attained, to 1e-6 relative.  For the
        # identity families both are 0 to 1e-6.
        for theta0, eps in balls:
            closed = sup_abs_d_second(m, theta0, eps)
            seen = 0.0
            for th in np.linspace(theta0 - eps, theta0 + eps, 2001):
                step = 1e-4 * max(1.0, abs(th))
                second = d_value(m, th + step) - 2.0 * d_value(m, th) + d_value(m, th - step)
                seen = max(seen, abs(second) / step**2)
            if d_is_identity(m):
                assert (closed, seen) == pytest.approx((0.0, 0.0), abs=1e-6), (theta0, eps)
            else:
                assert seen == pytest.approx(closed, rel=1e-6), (theta0, eps)

    def test_ball_must_stay_inside_space(self):
        with pytest.raises(DomainError):
            sup_abs_d_second(exp_canonical_model(), 1.0, 1.0)


class TestGridFlags:
    def test_identity_flags(self):
        assert d_is_identity(exp_noncanonical_model()) is True
        assert d_is_identity(exp_canonical_model()) is False
        assert d_is_identity(generalized_gamma_model(d=1.0, p=1.0)) is True
        assert d_is_identity(generalized_gamma_model(d=2.0, p=1.0)) is False
        assert d_is_identity(laplace_scale_model()) is True
        assert d_is_identity(normal_mean_model()) is True
        assert d_is_identity(normal_variance_model()) is True

    @pytest.mark.parametrize(
        "model_id, params, identity, canonical",
        [
            ("exp-canonical", {}, False, True),
            ("exp-noncanonical", {}, True, False),
            ("laplace", {}, True, False),
            ("normal-mean", {}, True, True),
            ("normal-mean", {"sigma": 2.0}, True, False),
            ("normal-variance", {"mu": 0.5}, True, False),
            ("weibull", {"alpha": 2.0}, False, False),
            ("gg", {"d": 2.0, "p": 1.5}, False, False),
        ],
    )
    def test_flag_table(self, model_id, params, identity, canonical):
        m = make_model(model_id, **params)
        assert m.is_identity is identity
        assert d_is_identity(m) is identity
        assert m.is_canonical is canonical

    def test_flags_read_the_declarations(self):
        # Reading either flag evaluates no callable of the model.
        calls = []

        def traced(name, f):
            return lambda *args: calls.append(name) or f(*args)

        base = exp_noncanonical_model()
        m = dataclasses.replace(base, **{
            name: traced(name, getattr(base, name))
            for name in ("k", "k1", "A", "A1", "fisher", "T", "S")
        })
        assert (m.is_identity, d_is_identity(m), m.is_canonical) == (True, True, False)
        undeclared = dataclasses.replace(m, d_inverse=None)
        assert (undeclared.is_identity, d_is_identity(undeclared)) == (False, False)
        assert dataclasses.replace(m, k=identity).is_canonical is True
        assert calls == []
        # An equal lambda declares nothing: a copy whose k or D^{-1} is one
        # takes the non-canonical, non-identity path.
        canonical = exp_canonical_model()
        assert canonical.is_canonical is True
        assert dataclasses.replace(canonical, k=lambda th: th).is_canonical is False
        assert dataclasses.replace(m, d_inverse=lambda t: t).is_identity is False


def _param_grid(space):
    """401 points across a parameter space, 0.5 % of the width in from each
    finite end; an infinite end is cut at -20 or 20."""
    lo, hi = space
    glo = lo if math.isfinite(lo) else -20.0
    ghi = hi if math.isfinite(hi) else 20.0
    width = ghi - glo
    if math.isfinite(lo):
        glo += 0.005 * width
    if math.isfinite(hi):
        ghi -= 0.005 * width
    return np.linspace(glo, ghi, 401)


@pytest.mark.parametrize("model_id, params", [
    ("exp-canonical", {}),
    ("exp-noncanonical", {}),
    ("laplace", {}),
    ("normal-mean", {"sigma": 1.0}),
    ("normal-mean", {"sigma": 1.5}),
    ("normal-mean", {"sigma": 0.5}),
    ("normal-variance", {"mu": 0.5}),
    ("weibull", {"alpha": 1.0}),
    ("weibull", {"alpha": 2.0}),
    ("gg", {"d": 1.0, "p": 1.0}),
    ("gg", {"d": 3.0, "p": 1.0}),
    ("gg", {"d": 2.0, "p": 1.5}),
])
def test_declared_flags_match_a_grid_oracle(model_id, params):
    # Each built-in declares what D and k are; the declaration must agree
    # with D and k sampled on 401 points of its parameter space.
    m = make_model(model_id, **params)
    grid = _param_grid(m.param_space)
    tol = 1e-12 * np.maximum(1.0, np.abs(grid))
    d = np.array([d_value(m, th) for th in grid])
    k = np.asarray(m.k(grid), dtype=float)
    assert m.is_identity is bool(np.all(np.abs(d - grid) <= tol))
    assert m.is_canonical is bool(np.all(np.abs(k - grid) <= tol))


def test_the_model_states_no_integration_window():
    # The data axis is the business of the code that integrates over it:
    # normal-variance's third moment states its own window.
    names = {f.name for f in dataclasses.fields(ExpFamilyModel)}
    assert "integration_window" not in names
    assert not hasattr(normal_variance_model(), "integration_window")


class TestDensity:
    def test_normalizes_to_one(self):
        for (m, thetas), window in zip(all_builtin_cases(), DATA_WINDOWS, strict=True):
            for theta in thetas:
                lo, hi = window(theta)
                total = integrate_interval(lambda x: density(m, x, theta), lo, hi, tol=QUAD_TOL)
                assert total == pytest.approx(1.0, abs=1e-6), (m.name, theta)

    def test_zero_off_support(self):
        m = exp_canonical_model()
        assert density(m, -1.0, 1.0) == 0.0

    def test_mean_and_variance_of_g(self):
        # E[g(X)] = q(theta0) and Var[g(X)] = q'(theta0)^2 / i(theta0),
        # verified by quadrature for each built-in at three parameter points.
        for (m, thetas), window in zip(all_builtin_cases(), DATA_WINDOWS, strict=True):
            for theta0 in thetas:
                lo, hi = window(theta0)
                eg = integrate_interval(
                    lambda x: float(m.T(x)) * density(m, x, theta0), lo, hi, tol=QUAD_TOL
                )
                eg2 = integrate_interval(
                    lambda x: float(m.T(x)) ** 2 * density(m, x, theta0), lo, hi, tol=QUAD_TOL
                )
                q0 = d_value(m, theta0)
                var_expected = d_prime(m, theta0) ** 2 / fisher_info(m, theta0)
                assert eg == pytest.approx(q0, rel=1e-6, abs=1e-9), (m.name, theta0)
                assert eg2 - eg * eg == pytest.approx(var_expected, rel=1e-6), (m.name, theta0)


class TestSpecialCaseCrossValidation:
    def test_weibull_is_gg_with_equal_shapes(self):
        alpha = 2.0
        w = weibull_scale_model(alpha=alpha)
        g = generalized_gamma_model(d=alpha, p=alpha)
        rng = np.random.default_rng(5)
        xs = rng.weibull(alpha, size=30) * 1.3
        for theta in (0.8, 1.0, 1.9):
            assert d_value(w, theta) == d_value(g, theta)
            assert fisher_info(w, theta) == fisher_info(g, theta)
            assert d_prime(w, theta) == d_prime(g, theta)
        assert mle(w, xs) == mle(g, xs)

    def test_exp_noncanonical_is_gg_unit_shapes(self):
        e = exp_noncanonical_model()
        g = generalized_gamma_model(d=1.0, p=1.0)
        rng = np.random.default_rng(6)
        xs = rng.exponential(2.0, size=25)
        for theta in (0.5, 1.0, 2.0):
            assert d_value(e, theta) == pytest.approx(d_value(g, theta), rel=1e-14)
            assert fisher_info(e, theta) == pytest.approx(fisher_info(g, theta), rel=1e-12)
        assert mle(e, xs) == pytest.approx(mle(g, xs), rel=1e-14)

    def test_exp_canonical_is_reciprocal_of_gg(self):
        # Exp(theta) in the rate parametrization is GG(1/theta, 1, 1).
        rng = np.random.default_rng(8)
        xs = rng.exponential(0.5, size=25)
        can = mle(exp_canonical_model(), xs)
        gg = mle(generalized_gamma_model(d=1.0, p=1.0), xs)
        assert can == pytest.approx(1.0 / gg, rel=1e-13)

    def test_half_normal_is_gg(self):
        # |X| for X ~ N(0, sigma^2) is GG(sigma*sqrt(2), 1, 2): the density
        # of the GG model must match the folded normal.
        sigma = 1.3
        m = generalized_gamma_model(d=1.0, p=2.0)
        theta = sigma * math.sqrt(2.0)
        for x in (0.1, 0.7, 1.5, 3.0):
            folded = 2.0 / (sigma * math.sqrt(2 * math.pi)) * math.exp(-x * x / (2 * sigma**2))
            assert density(m, x, theta) == pytest.approx(folded, rel=1e-12)


class TestMakeModel:
    def test_registry_round_trip(self):
        m = make_model("gg", d=2.0, p=1.5)
        assert m.name == "gg(d=2.0, p=1.5)"

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            make_model("no-such-model")

    def test_bad_params(self):
        with pytest.raises(DomainError):
            make_model("gg", d=2.0)  # missing p
        with pytest.raises(DomainError):
            make_model("weibull", alpha=-1.0)
        with pytest.raises(DomainError):
            make_model("normal-mean", sigma=0.0)

    def test_bad_params_name_the_accepted_ones(self):
        with pytest.raises(DomainError, match=r"'normal-variance' takes the parameters \['mu'\], got \['sigma'\]"):
            make_model("normal-variance", sigma=1.0)
        with pytest.raises(DomainError, match=r"takes the parameters \['d', 'p'\], got \['d'\]"):
            make_model("gg", d=2.0)

    def test_gg_params_validation(self):
        with pytest.raises(DomainError):
            GeneralizedGammaParams(theta=-1.0, d=1.0, p=1.0)
        with pytest.raises(DomainError):
            GeneralizedGammaParams(theta=1.0, d=0.0, p=1.0)


class TestShapeValidation:
    def test_numpy_floats_are_accepted_as_python_floats(self):
        m = generalized_gamma_model(d=np.float32(2.0), p=np.float64(1.5))
        assert m.name == "gg(d=2.0, p=1.5)"
        assert m.name == generalized_gamma_model(d=2, p=1.5).name
        assert weibull_scale_model(np.float32(2.0)).name == "weibull(alpha=2.0)"
        assert normal_mean_model(np.float64(1.5)).name == "normal-mean(sigma=1.5)"
        assert normal_variance_model(np.int64(-1)).name == "normal-variance(mu=-1.0)"
        params = GeneralizedGammaParams(theta=np.float32(1.5), d=np.int64(2), p=1)
        assert (params.theta, params.d, params.p) == (1.5, 2.0, 1.0)
        assert all(type(v) is float for v in (params.theta, params.d, params.p))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generalized_gamma_model(d=True, p=True),
            lambda: generalized_gamma_model(d=2.0, p=np.bool_(True)),
            lambda: weibull_scale_model(True),
            lambda: normal_mean_model(True),
            lambda: normal_variance_model(False),
            lambda: GeneralizedGammaParams(theta=True, d=1, p=1),
            lambda: GeneralizedGammaParams(theta=1.0, d=1.0, p=False),
        ],
    )
    def test_bool_is_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, np.float64(math.nan), 10**400, "2.0", None]
    )
    def test_non_finite_or_non_real_is_rejected(self, bad):
        for build in (
            lambda: generalized_gamma_model(d=bad, p=1.0),
            lambda: generalized_gamma_model(d=1.0, p=bad),
            lambda: weibull_scale_model(bad),
            lambda: normal_mean_model(bad),
            lambda: normal_variance_model(bad),
            lambda: GeneralizedGammaParams(theta=bad, d=1.0, p=1.0),
        ):
            with pytest.raises(DomainError):
                build()

    def test_positivity(self):
        for bad in (0.0, -1.0, np.float32(-2.0)):
            with pytest.raises(DomainError):
                generalized_gamma_model(d=bad, p=1.0)
            with pytest.raises(DomainError):
                normal_mean_model(bad)
        assert normal_variance_model(-2.5).name == "normal-variance(mu=-2.5)"

    # Shapes on which the constructor cannot compute the model's constants.
    # Each raised a bare ValueError or ArithmeticError, and the CLI exited 3.
    @pytest.mark.parametrize("build, family, shapes, message", [
        # d/p underflows to 0, where ln Gamma has a pole.
        (generalized_gamma_model, "gg", {"d": 5e-324, "p": 10.0},
         "generalized gamma shapes d=5e-324, p=10.0: the model's constants fail in "
         "floating point (FloatingPointError: d/p = 0.0)"),
        # ln Gamma(d/p) overflows.
        (generalized_gamma_model, "gg", {"d": 1e308, "p": 1.0},
         "generalized gamma shapes d=1e+308, p=1.0: the model's constants fail in "
         "floating point (OverflowError: math range error)"),
        # sigma^2 overflows.
        (normal_mean_model, "normal-mean", {"sigma": 1e200},
         "normal-mean shape sigma=1e+200: the model's constants fail in floating point "
         "(OverflowError: "),
        # sigma^2 underflows to 0, and 1/sigma^2 divided by zero.
        (normal_mean_model, "normal-mean", {"sigma": 1e-200},
         "normal-mean shape sigma=1e-200: the model's constants fail in floating point "
         "(FloatingPointError: sigma**2 = 0.0 is not a normal float)"),
    ], ids=["gg-d-over-p-underflows", "gg-lgamma-overflows", "sigma-squared-overflows",
            "sigma-squared-underflows"])
    def test_shapes_whose_constants_fail_are_refused(self, build, family, shapes, message):
        for call in (lambda: build(**shapes), lambda: make_model(family, **shapes)):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}") as info:
                call()
            assert isinstance(info.value.__cause__, ArithmeticError)


class TestGGClosures:
    """The gg and Weibull fields are the public closed forms, the Holder
    bound on a GeneralizedGammaParams and theta^2 times gg_mse_factor, bit
    for bit and as Python floats, whatever kind of real theta0 is."""

    @pytest.mark.parametrize(
        "m,d,p",
        [
            (weibull_scale_model(2.5), 2.5, 2.5),
            (generalized_gamma_model(d=3.0, p=2.0), 3.0, 2.0),
            (generalized_gamma_model(d=0.7, p=1.3), 0.7, 1.3),
            (generalized_gamma_model(d=2.0, p=0.5), 2.0, 0.5),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    @pytest.mark.parametrize(
        "t0", [1.3, 0.45, np.float64(1.3), np.float64(2.7), np.float32(0.9)], ids=repr
    )
    def test_fields_equal_the_public_closed_forms(self, m, d, p, t0):
        params = GeneralizedGammaParams(t0, d, p)
        moment = m.bound_moment(t0)
        assert type(moment) is float and moment == third_abs_moment_holder_gg(params)
        for n in (10, 1000, 10**9):
            mse = m.mse(n, t0)
            assert type(mse) is float and mse == params.theta**2 * gg_mse_factor(n, d, p)


class TestFisherConsistencyGuard:
    def test_nonpositive_information_detected(self):
        # A model whose stated i(theta) is negative violates its own
        # contract and must be reported rather than silently propagated.
        broken = dataclasses.replace(exp_canonical_model(), fisher=lambda th: -1.0 / th / th)
        with pytest.raises(ConsistencyError, match="must be positive"):
            fisher_info(broken, 2.0)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_small_p_information_is_exact(self, theta):
        # At p = 1e-8, the i derived from k'', A'' and D cancelled to about
        # 1e-8 relative.  The stated i = d p / theta^2 is exact to 4 ulps.
        m = generalized_gamma_model(1.0, 1e-8)
        exact = Fraction(1e-8) / Fraction(theta) ** 2
        assert abs(Fraction(fisher_info(m, theta)) - exact) <= 4 * math.ulp(float(exact))
        assert math.isfinite(d_prime(m, theta))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_information_detected(self, value):
        # A NaN or infinite i is refused by the guard of the closed forms,
        # naming theta0, so every caller sees the same DomainError.
        from mlebounds import expfam_bound, reference_test_function

        broken = dataclasses.replace(make_model("exp-noncanonical"), fisher=lambda th: value)
        message = "^theta0=1.0 is inside the parameter space of model 'exp-noncanonical'"
        with pytest.raises(DomainError, match=message):
            fisher_info(broken, 1.0)
        with pytest.raises(DomainError, match=message):
            expfam_bound(broken, 1.0, 10, 0.5, reference_test_function(), 0.1)


# The exact i(theta) of each built-in, and of gg(1, p) down to p = 1e-8, as
# a Fraction of the float theta.
EXACT_FISHER = [
    (exp_canonical_model(), lambda t: 1 / t**2),
    (exp_noncanonical_model(), lambda t: 1 / t**2),
    (laplace_scale_model(), lambda t: 1 / t**2),
    (normal_mean_model(), lambda t: Fraction(1)),
    (normal_mean_model(sigma=1.5), lambda t: 1 / Fraction(1.5) ** 2),
    (normal_variance_model(mu=0.5), lambda t: 1 / (2 * t**2)),
    (weibull_scale_model(alpha=2.0), lambda t: 4 / t**2),
    (generalized_gamma_model(d=2.0, p=1.5), lambda t: 3 / t**2),
    (generalized_gamma_model(d=0.5, p=3.0), lambda t: Fraction(3, 2) / t**2),
    *[(generalized_gamma_model(d=1.0, p=p), lambda t, p=p: Fraction(p) / t**2)
      for p in (1e-5, 1e-6, 1e-7, 1e-8)],
]


@pytest.mark.parametrize("m,exact", EXACT_FISHER, ids=[m.name for m, _ in EXACT_FISHER])
def test_stated_fisher_is_exact_across_the_float_range(m, exact):
    # On theta = 10^(k/16) across the float range (both signs where the
    # space allows), fisher_info returns i within 4 ulps of the exact value
    # wherever that value is a normal float, and refuses with DomainError
    # only where it is not.
    grid = [10.0 ** (k / 16) for k in range(-16 * 323, 16 * 308 + 5)]
    thetas = grid + [-t for t in grid] if m.contains_theta(-1.0) else grid
    smallest, largest = Fraction(2.0**-1022), Fraction(sys.float_info.max)
    returned = 0
    for theta in thetas:
        want = exact(Fraction(theta))
        try:
            got = fisher_info(m, theta)
        except DomainError:
            # At the two ends of the normal range one rounding may cross it.
            margin = 1 + Fraction(1, 2**50)
            assert not smallest * margin <= want <= largest / margin, (m.name, theta)
            continue
        assert abs(Fraction(got) - want) <= 4 * math.ulp(float(want)), (m.name, theta)
        returned += 1
    assert returned > 2000, m.name

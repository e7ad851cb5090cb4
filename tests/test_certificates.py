"""Every bound is a certificate: it is at least the exact distance it bounds.

The exact distance |E h(W) - E h(Z)|, with W = sqrt(n i(theta0)) (theta_hat -
theta0) and h the reference test function, is computed here with scipy from
the law of the sufficient statistic, independently of the library.  For
every built-in, S = sum T(X_i) is Gamma(a, scale c) with a known shape a, and
the MLE is a function of S; writing S = a c (1 + v), W depends on v alone,
so E h(W) is a one-dimensional integral free of theta0.  The integral runs
over u = sqrt(a) v, which stays of order one for every n, so n = 1e9 is not
a needle.  For the normal mean, W is exactly standard normal.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mlebounds import (
    BoundBreakdown,
    BoundInputs,
    GeneralizedGammaParams,
    MODEL_FAMILIES,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    d_is_identity,
    d_prime,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    fisher_info,
    gg_bound,
    make_model,
    mse_closed_form,
    reference_test_function,
    sup_abs_d_second,
    theorem_bound,
    third_abs_moment,
)

H = reference_test_function()
SAMPLE_SIZES = [3, 10, 100, 10**4, 10**6, 10**9]
FAMILIES = [
    ("exp-canonical", {}),
    ("exp-noncanonical", {}),
    ("laplace", {}),
    ("normal-mean", {}),
    ("normal-mean", {"sigma": 2.0}),
    ("normal-variance", {}),
    ("weibull", {"alpha": 2.0}),
    ("gg", {"d": 2.0, "p": 1.5}),
    ("gg", {"d": 0.5, "p": 3.0}),
]


def _h(x):
    return 1.0 / (x * x + 2.0)


def _quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, points=[0.0], epsabs=1e-14, epsrel=1e-12, limit=400)
    return value


@functools.cache
def _expected_h_of_z():
    return _quad(lambda z: _h(z) * math.exp(-0.5 * z * z), -40.0, 40.0) / math.sqrt(2.0 * math.pi)


def _shapes(model_id, params):
    if model_id == "weibull":
        return params["alpha"], params["alpha"]
    return params["d"], params["p"]


def _standardized(model_id, params, n):
    """(Gamma shape a of S, the map v -> W) for S = a c (1 + v)."""
    if model_id in ("exp-noncanonical", "laplace"):  # theta_hat = S/n, i = 1/theta^2
        return float(n), lambda v: math.sqrt(n) * v
    if model_id == "exp-canonical":  # theta_hat = n / sum X, i = 1/theta^2
        return float(n), lambda v: -math.sqrt(n) * v / (1.0 + v)
    if model_id == "normal-variance":  # theta_hat = S/n, i = 1/(2 theta^2)
        return n / 2.0, lambda v: math.sqrt(n / 2.0) * v
    d, p = _shapes(model_id, params)  # theta_hat = theta (1 + v)^(1/p), i = d p/theta^2
    return n * d / p, lambda v: math.sqrt(n * d * p) * math.expm1(math.log1p(v) / p)


@functools.cache
def exact_distance(model_id, shape_key, n):
    if model_id == "normal-mean":
        return 0.0
    a, to_w = _standardized(model_id, dict(shape_key), n)
    root_a = math.sqrt(a)

    # The Gamma(a) density of S in u = sqrt(a) v, up to a constant that
    # cancels in the ratio below.
    def density(u):
        v = u / root_a
        return 0.0 if v <= -1.0 else math.exp((a - 1.0) * math.log1p(v) - a * v)

    lo = max(-root_a, -60.0)
    num = _quad(lambda u: _h(to_w(u / root_a)) * density(u), lo, 60.0)
    return abs(num / _quad(density, lo, 60.0) - _expected_h_of_z())


def _bounds(model_id, params, m, theta0, n, third):
    """Every bound that applies to the family at (theta0, n), by name: a
    BoundBreakdown, or the AR bound's bare total."""
    eps = 0.5 * abs(theta0)
    mse = mse_closed_form(m, n, theta0)
    identity = d_is_identity(m)
    # The theorem on inputs assembled from the public per-model functions.
    inputs = BoundInputs(n, theta0, eps, fisher_info(m, theta0), abs(d_prime(m, theta0)), third,
                         mse, 0.0 if identity else sup_abs_d_second(m, theta0, eps), identity, H)
    found = {
        "expfam": expfam_bound(m, theta0, n, eps, H, mse),
        "theorem": theorem_bound(inputs),
    }
    if m.is_canonical:
        found["ar-canonical"] = ar_bound_canonical_expfam(m, theta0, n, eps, H, mse)
    if model_id == "exp-canonical":
        found["exp-canonical"] = exp_canonical_bound(n, H)
    if model_id == "exp-noncanonical":
        found["exp-noncanonical"] = exp_noncanonical_bound(n, H)
        found["ar-exp-noncanonical"] = ar_bound_exp_noncanonical(n, H)
    if model_id in ("weibull", "gg"):
        d, p = _shapes(model_id, params)
        found["gg"] = gg_bound(n, GeneralizedGammaParams(theta0, d, p), H)
    return found


@pytest.mark.parametrize("model_id, params", FAMILIES,
                         ids=[f"{i}{sorted(p.values())}" for i, p in FAMILIES])
def test_every_bound_is_at_least_the_exact_distance(model_id, params):
    # A failure is a broken certificate, to be reported, not relaxed.
    m = make_model(model_id, **params)
    thetas = [0.8, 2.5, -0.8, -2.5] if model_id == "normal-mean" else [0.8, 2.5]
    broken = []
    for theta0 in thetas:
        third = m.bound_moment(theta0) if m.bound_moment else third_abs_moment(m, theta0)
        for n in SAMPLE_SIZES:
            distance = exact_distance(model_id, tuple(sorted(params.items())), n)
            for name, bound in _bounds(model_id, params, m, theta0, n, third).items():
                total = getattr(bound, "total", bound)
                if not total >= distance:
                    broken.append((name, theta0, n, total, distance))
    assert broken == []


@st.composite
def random_cases(draw):
    """(model id, shape parameters, theta0, n): gg and Weibull shapes and
    the normal-mean sigma drawn, theta0 = 10^u of either sign for the
    normal mean, n from 3 to 1e9."""
    model_id = draw(st.sampled_from(sorted(MODEL_FAMILIES)))
    shape = st.floats(0.5, 4.0)
    params = {}
    if model_id == "gg":
        params = {"d": draw(shape), "p": draw(shape)}
    elif model_id == "weibull":
        params = {"alpha": draw(shape)}
    elif model_id == "normal-mean":
        params = {"sigma": draw(st.floats(0.25, 4.0))}
    theta0 = 10.0 ** draw(st.floats(-2.0, 2.0))
    if model_id == "normal-mean" and draw(st.booleans()):
        theta0 = -theta0
    return model_id, params, theta0, draw(st.integers(3, 10**9))


@given(random_cases())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_random_bounds_are_certificates(case):
    # A failure is a broken certificate, to be reported, not relaxed.
    model_id, params, theta0, n = case
    m = make_model(model_id, **params)
    third = m.bound_moment(theta0) if m.bound_moment else third_abs_moment(m, theta0)
    distance = exact_distance(model_id, tuple(sorted(params.items())), n)
    for name, bound in _bounds(model_id, params, m, theta0, n, third).items():
        if isinstance(bound, BoundBreakdown):
            terms = (bound.stein_term, bound.tail_term, bound.taylor_term)
            assert min(terms) >= 0.0, name
            assert bound.total == terms[0] + terms[1] + terms[2], name
            bound = bound.total
        assert bound >= distance, (name, bound, distance)

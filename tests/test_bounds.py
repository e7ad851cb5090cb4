"""Tests for the bound formulas and their closed-form specializations."""

import dataclasses
import functools
import inspect
import json
import math
import pickle
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlebounds import (
    BoundBreakdown,
    BoundInputs,
    ConsistencyError,
    DomainError,
    EXP_STEIN_CONST,
    EXP_THIRD_ABS_MOMENT,
    GeneralizedGammaParams,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    d_prime,
    d_value,
    exp_canonical_bound,
    exp_canonical_model,
    exp_noncanonical_bound,
    exp_noncanonical_model,
    expfam_bound,
    fisher_info,
    generalized_gamma_model,
    gg_bound,
    identity,
    laplace_scale_model,
    make_model,
    mse_closed_form,
    normal_mean_model,
    normal_variance_model,
    reference_test_function,
    sup_abs_d_second,
    theorem_bound,
    third_abs_moment,
    third_abs_moment_holder_gg,
)
from mlebounds.bounds import TestFunction as HFunc
from mlebounds.bounds import _model_bound
from mlebounds.models import _quadrature_third_moment
from mlebounds.cli import main as cli_main

H = reference_test_function()
HP = H.norm_h_prime  # 3 sqrt(6) / 32
HN = H.norm_h  # 1/2


def matches_printed_3dp(value: float, printed: float) -> bool:
    """True when `printed` is a 3-decimal rendering of `value`.

    Published tables are not consistent about rounding versus truncation in
    the last digit, so both renderings are accepted; either way the printed
    entry pins the value to within one unit in the third decimal.
    """
    rounded = round(value, 3)
    truncated = math.floor(value * 1000.0) / 1000.0
    return printed in (rounded, truncated)


class TestReferenceTestFunction:
    def test_norms(self):
        assert H.norm_h == 0.5
        assert H.norm_h_prime == pytest.approx(3.0 * math.sqrt(6.0) / 32.0, abs=0)
        # Equivalent forms of the derivative norm.
        assert H.norm_h_prime == pytest.approx(3.0 * math.sqrt(1.5) / 16.0, rel=1e-15)

    def test_it_pickles_with_its_expected_h(self):
        # h is a module-level function, so the instance pickles by value
        # and carries E[h(Z)] once it has been computed.
        expected = H.expected_h
        loaded = pickle.loads(pickle.dumps(H))
        assert loaded == H and loaded.h is H.h
        assert vars(loaded)["expected_h"] == expected

    def test_h_values(self):
        assert H.h(0.0) == 0.5
        assert H.h(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_norm_certificates_enforced(self):
        with pytest.raises(DomainError):
            HFunc(name="bad", h=lambda x: 1.0 / (x * x + 2.0), norm_h=0.3,
                  norm_h_prime=HP)
        with pytest.raises(DomainError):
            HFunc(name="bad", h=lambda x: 1.0 / (x * x + 2.0), norm_h=0.5,
                  norm_h_prime=0.05)
        with pytest.raises(DomainError):
            HFunc(name="bad", h=lambda x: x * 0 + math.nan, norm_h=1.0,
                  norm_h_prime=1.0)

    @pytest.mark.parametrize("h", [lambda x: 0.5, lambda x: math.exp(-x * x)])
    def test_h_must_be_vectorized(self, h):
        # A constant would broadcast to one value and a scalar-only h
        # cannot take an array; the simulator needs one value per point.
        with pytest.raises(DomainError, match="np.vectorize"):
            HFunc(name="scalar", h=h, norm_h=1.0, norm_h_prime=1.0)
        vectorized = HFunc(name="scalar", h=np.vectorize(h), norm_h=1.0, norm_h_prime=1.0)
        assert vectorized.h(np.zeros(3)).shape == (3,)


class TestBoundBreakdown:
    def test_total_is_the_sum_of_the_terms(self):
        bd = BoundBreakdown(1.0, 2.0, 3.0, "x")
        assert bd.total == 6.0
        assert dataclasses.replace(bd, tail_term=5.0).total == 9.0
        assert dataclasses.replace(bd, formula_id="y").total == 6.0
        assert list(dataclasses.asdict(bd)) == [
            "stein_term", "tail_term", "taylor_term", "total", "formula_id"
        ]

    def test_it_is_a_frozen_value(self):
        bd = BoundBreakdown(1.0, 2.0, 3.0, "x")
        for name in ("stein_term", "total", "formula_id"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bd, name, 0.0)
        same = BoundBreakdown(stein_term=1.0, tail_term=2.0, taylor_term=3.0, formula_id="x")
        assert same == bd and hash(same) == hash(bd)
        assert pickle.loads(pickle.dumps(bd)) == bd
        assert repr(bd) == ("BoundBreakdown(stein_term=1.0, tail_term=2.0, taylor_term=3.0, "
                            "total=6.0, formula_id='x')")


class TestBoundInputs:
    FIELDS = ["n", "theta0", "epsilon", "fisher", "q_prime_abs", "third_moment", "mse",
              "sup_q_second", "q_is_identity", "h"]
    TANH = HFunc("tanh", np.tanh, 1.0, 1.0)
    VALUES = (10, 1.5, 0.5, 2.0, 0.5, 1.0, 0.1, 2.0, False, TANH)

    def test_the_signature_lists_the_fields_in_order(self):
        assert list(inspect.signature(BoundInputs).parameters) == self.FIELDS
        assert [f.name for f in dataclasses.fields(BoundInputs)] == self.FIELDS

    def test_it_is_a_frozen_value(self):
        inputs = BoundInputs(*self.VALUES)
        for name in ("n", "mse", "q_is_identity", "h"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inputs, name, 0.0)
        same = BoundInputs(**dict(zip(self.FIELDS, self.VALUES)))
        assert same == inputs and hash(same) == hash(inputs)
        assert same != BoundInputs(*self.VALUES[:6], 0.2, *self.VALUES[7:])
        assert pickle.loads(pickle.dumps(inputs)) == inputs
        assert repr(inputs) == (
            "BoundInputs(n=10, theta0=1.5, epsilon=0.5, fisher=2.0, q_prime_abs=0.5, "
            f"third_moment=1.0, mse=0.1, sup_q_second=2.0, q_is_identity=False, h={self.TANH!r})"
        )

    def test_it_pickles_on_the_default_h(self):
        inputs = BoundInputs(*self.VALUES[:-1], H)
        assert pickle.loads(pickle.dumps(inputs)) == inputs

    def test_replace_checks_as_the_constructor_does(self):
        inputs = BoundInputs(*self.VALUES)
        with pytest.raises(DomainError) as built:
            BoundInputs(**dict(zip(self.FIELDS, self.VALUES), mse=-1.0))
        with pytest.raises(DomainError) as replaced:
            dataclasses.replace(inputs, mse=-1.0)
        assert str(replaced.value) == str(built.value) == (
            "mse must be a positive real number, got -1.0"
        )


def canonical_exp_inputs(n: int, theta0: float) -> BoundInputs:
    """Hand-assembled inputs for the canonical exponential model."""
    return BoundInputs(
        n=n,
        theta0=theta0,
        epsilon=theta0 / 2.0,
        fisher=1.0 / theta0**2,
        q_prime_abs=1.0 / theta0**2,
        third_moment=EXP_THIRD_ABS_MOMENT / theta0**3,
        mse=mse_closed_form(exp_canonical_model(), n, theta0),
        sup_q_second=16.0 / theta0**3,
        q_is_identity=False,
        h=H,
    )


class TestTheoremBound:
    def test_identity_collapse(self):
        inputs = BoundInputs(
            n=50,
            theta0=2.0,
            epsilon=1.0,
            fisher=0.25,
            q_prime_abs=1.0,
            third_moment=EXP_THIRD_ABS_MOMENT * 8.0,
            mse=0.4,
            sup_q_second=0.0,
            q_is_identity=True,
            h=H,
        )
        bd = theorem_bound(inputs)
        assert bd.tail_term == 0.0
        assert bd.taylor_term == 0.0
        assert bd.total == bd.stein_term

    @pytest.mark.parametrize("n", [3, 10, 100, 10_000])
    def test_matches_canonical_closed_form(self, n):
        # Independent code paths: raw-assembled theorem inputs versus the
        # fully simplified closed form.
        for theta0 in (0.5, 1.0, 3.0):
            general = theorem_bound(canonical_exp_inputs(n, theta0))
            closed = exp_canonical_bound(n, H)
            assert general.total == pytest.approx(closed.total, rel=1e-12)
            assert general.stein_term == pytest.approx(closed.stein_term, rel=1e-12)
            assert general.tail_term == pytest.approx(closed.tail_term, rel=1e-12)
            assert general.taylor_term == pytest.approx(closed.taylor_term, rel=1e-12)

    def test_value_at_n_100(self):
        # Term-by-term hand evaluation: 0.101376 + 0.042053 + 0.193142.
        bd = theorem_bound(canonical_exp_inputs(100, 1.0))
        assert bd.total == pytest.approx(0.3365, abs=5e-4)
        assert bd.stein_term == pytest.approx(0.10137565, abs=1e-7)
        assert bd.tail_term == pytest.approx(0.04205318, abs=1e-7)
        assert bd.taylor_term == pytest.approx(0.19314159, abs=1e-7)

    def test_breakdown_invariants(self):
        bd = theorem_bound(canonical_exp_inputs(25, 1.3))
        assert bd.total == bd.stein_term + bd.tail_term + bd.taylor_term
        assert bd.stein_term >= 0 and bd.tail_term >= 0 and bd.taylor_term >= 0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            canonical_exp_inputs(0, 1.0)
        with pytest.raises(DomainError):
            BoundInputs(
                n=10, theta0=1.0, epsilon=-0.5, fisher=1.0, q_prime_abs=1.0,
                third_moment=1.0, mse=0.1, sup_q_second=0.0, q_is_identity=False, h=H,
            )

    def test_refuses_anything_but_bound_inputs(self):
        # Neither record was checked: the namespace's negative moment and
        # MSE gave a negative total, and the dict a bare AttributeError.
        good = canonical_exp_inputs(10, 1.3)
        fields = {name: getattr(good, name) for name in TestBoundInputs.FIELDS}
        unchecked = types.SimpleNamespace(**dict(fields, third_moment=-50.0, mse=-1.0))
        for bad in (unchecked, fields):
            with pytest.raises(DomainError, match="^inputs must be a BoundInputs, got "):
                theorem_bound(bad)

    @pytest.mark.parametrize(
        "fields, cause",
        [
            ({"epsilon": 1e-200}, ZeroDivisionError),  # eps^2 underflows to 0
            ({"q_prime_abs": 1e-120}, ZeroDivisionError),  # |q'|^3 underflows to 0
            ({"fisher": 1e300}, OverflowError),  # i^{3/2} overflows
            ({"mse": 1e300, "sup_q_second": 1e300}, None),  # the Taylor term is inf
        ],
        ids=["epsilon", "q_prime_abs", "fisher", "mse-and-sup_q_second"],
    )
    def test_refuses_arithmetic_it_cannot_finish(self, fields, cause):
        # Each record is checked and finite, but the theorem's arithmetic
        # is not: it raised a bare ArithmeticError or returned total=inf.
        inputs = dataclasses.replace(canonical_exp_inputs(10, 1.3), **fields)
        with pytest.raises(DomainError) as info:
            theorem_bound(inputs)
        assert str(info.value).startswith(
            "theta0=1.3, n=10: the theorem bound is not finite in floating point ("
        )
        if cause is None:
            assert info.value.__cause__ is None and "inf" in str(info.value)
        else:
            assert isinstance(info.value.__cause__, cause)

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=10**6),
        fisher=st.floats(min_value=1e-3, max_value=1e3),
        qp=st.floats(min_value=1e-3, max_value=1e3),
        third=st.floats(min_value=0.0, max_value=1e3),
        mse=st.floats(min_value=1e-9, max_value=10.0),
        sup2=st.floats(min_value=0.0, max_value=1e3),
        identity=st.booleans(),
    )
    def test_terms_nonnegative_and_additive(self, n, fisher, qp, third, mse, sup2, identity):
        bd = theorem_bound(
            BoundInputs(
                n=n, theta0=1.0, epsilon=0.5, fisher=fisher, q_prime_abs=qp,
                third_moment=third, mse=mse, sup_q_second=sup2,
                q_is_identity=identity, h=H,
            )
        )
        assert bd.stein_term >= 0 and bd.tail_term >= 0 and bd.taylor_term >= 0
        assert bd.total == bd.stein_term + bd.tail_term + bd.taylor_term
        assert bd.total > 0
        if identity:
            assert bd.tail_term == 0.0 and bd.taylor_term == 0.0


class TestExpFamBound:
    def test_noncanonical_single_term(self):
        m = exp_noncanonical_model()
        for n in (1, 10, 500):
            for theta0 in (0.5, 2.0):
                bd = expfam_bound(m, theta0, n, theta0 / 2, H, mse=theta0**2 / n)
                assert bd.tail_term == 0.0 and bd.taylor_term == 0.0
                assert bd.total == pytest.approx(EXP_STEIN_CONST * HP / math.sqrt(n), rel=1e-13)

    def test_canonical_matches_closed_form(self):
        m = exp_canonical_model()
        for n in (3, 10, 100):
            for theta0 in (0.5, 1.0, 2.0):
                bd = expfam_bound(m, theta0, n, theta0 / 2, H, mse=mse_closed_form(m, n, theta0))
                closed = exp_canonical_bound(n, H)
                assert bd.total == pytest.approx(closed.total, rel=1e-12)

    def test_gg_unit_shapes_with_holder_moment(self):
        # The family default moment is the fourth-moment bound, so the
        # d=p=1 case lands above the sharp exponential-moment bound.
        m = generalized_gamma_model(d=1.0, p=1.0)
        n = 100
        bd = expfam_bound(m, 1.0, n, 0.5, H, mse=1.0 / n)
        expected = HP / math.sqrt(n) * (2.0 + 9.0**0.75)
        assert bd.total == pytest.approx(expected, rel=1e-13)
        assert bd.total > exp_noncanonical_bound(n, H).total

    @pytest.mark.parametrize("d,p", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (1.0, 0.5)])
    @pytest.mark.parametrize("n", [10, 100])
    def test_consistency_with_gg_closed_form(self, d, p, n):
        # Family-level assembly equals the fully simplified closed form for
        # epsilon = theta0/2, across theta0 (the bound is theta-free).
        params = GeneralizedGammaParams(theta=1.0, d=d, p=p)
        closed = gg_bound(n, params, H)
        for theta0 in (0.6, 1.0, 1.7):
            m = generalized_gamma_model(d=d, p=p)
            mse = mse_closed_form(m, n, theta0)
            bd = expfam_bound(m, theta0, n, theta0 / 2, H, mse=mse)
            assert bd.total == pytest.approx(closed.total, rel=1e-10)
            assert bd.stein_term == pytest.approx(closed.stein_term, rel=1e-10)
            assert bd.tail_term == pytest.approx(closed.tail_term, rel=1e-10, abs=1e-15)
            assert bd.taylor_term == pytest.approx(closed.taylor_term, rel=1e-10, abs=1e-15)


class TestGGBound:
    def test_unit_shapes_stein_only(self):
        bd = gg_bound(25, GeneralizedGammaParams(1.0, 1.0, 1.0), H)
        assert bd.tail_term == 0.0 and bd.taylor_term == 0.0
        assert bd.total == pytest.approx(HP / 5.0 * (2.0 + 9.0**0.75), rel=1e-14)

    def test_gamma_case_drops_taylor(self):
        # p = 1 makes D linear, so only the tail correction survives.
        bd = gg_bound(50, GeneralizedGammaParams(1.0, 2.0, 1.0), H)
        assert bd.taylor_term == 0.0
        assert bd.tail_term > 0.0

    def test_theta_free(self):
        a = gg_bound(40, GeneralizedGammaParams(0.5, 2.0, 1.5), H)
        b = gg_bound(40, GeneralizedGammaParams(3.0, 2.0, 1.5), H)
        assert a == b

    def test_sqrt_n_scaling_bounded(self):
        vals = [
            math.sqrt(n) * gg_bound(n, GeneralizedGammaParams(1.0, 2.0, 1.5), H).total
            for n in (10, 100, 1000, 10_000, 100_000)
        ]
        assert max(vals) < 2.0 * min(vals)


def _gg(n, d, p):
    return gg_bound(n, GeneralizedGammaParams(1.0, d, p), H)


def count_refusal(n, minimum=1, context=""):
    """The count check's refusal of an int n that no float can hold."""
    return (f"n must be an integer >= {minimum} that a float can hold "
            f"(at most 1.7976931348623157e+308){context}, got {n}")


# Closed-form bounds with no value in floating point.  Each returned an
# infinite total or raised a bare ArithmeticError; each is refused as
# theorem_bound refuses, naming the formula and n.  An n beyond the float
# range is refused before any arithmetic, by the one check of every count.
@pytest.mark.parametrize("call, pattern, cause", [
    # 6p/d overflows the Stein term.
    (lambda: _gg(10, 1e-308, 1.0), r"n=10: the gg bound is not finite in floating point \(.*inf",
     None),
    # (3/2)^(p - 2) overflows.
    (lambda: _gg(10, 2.0, 1e300), r"n=10: the gg bound is not finite in floating point \(",
     OverflowError),
    *[(lambda f=f: f(2**1024), re.escape(count_refusal(2**1024, *rest)) + "$", None)
      for f, *rest in (
          (lambda n: _gg(n, 2.0, 1.5),),
          (lambda n: exp_canonical_bound(n, H), 3, " for the exp-canonical bound"),
          (lambda n: exp_noncanonical_bound(n, H),),
          (lambda n: ar_bound_exp_noncanonical(n, H),),
    )],
], ids=["gg-stein", "gg-taylor", "gg-n", "exp-canonical-n", "exp-noncanonical-n",
        "ar-exp-noncanonical-n"])
def test_closed_forms_refuse_arithmetic_they_cannot_finish(call, pattern, cause):
    with pytest.raises(DomainError) as info:
        call()
    assert re.match(pattern, str(info.value), re.DOTALL)
    if cause is None:
        assert info.value.__cause__ is None
    else:
        assert isinstance(info.value.__cause__, cause)


class TestExpCanonicalBound:
    def test_value_at_n_100(self):
        bd = exp_canonical_bound(100, H)
        assert bd.total == pytest.approx(0.33654, abs=1e-4)

    def test_rejects_small_n(self):
        for n in (0, 1, 2):
            with pytest.raises(DomainError):
                exp_canonical_bound(n, H)

    def test_asymptotic_coefficient(self):
        # Both the Stein and Taylor terms are Theta(1/sqrt(n)) here, so
        # sqrt(n) * total converges to (2 + (12/e - 2) + 8) ||h'||; the tail
        # term alone is o(1/sqrt(n)).
        n = 10**6
        bd = exp_canonical_bound(n, H)
        assert bd.total / (HP / math.sqrt(n)) == pytest.approx(EXP_STEIN_CONST + 8.0, rel=1e-2)
        assert bd.tail_term / bd.total < 1e-2
        assert bd.stein_term / (HP / math.sqrt(n)) == pytest.approx(EXP_STEIN_CONST, rel=1e-12)

    def test_strictly_decreasing_in_n(self):
        ns = list(range(3, 200)) + [500, 1000, 5000, 10_000, 100_000]
        vals = [exp_canonical_bound(n, H).total for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestExpNoncanonicalBound:
    def test_table_column(self):
        expected = {10: 0.321, 100: 0.101, 1000: 0.032, 10_000: 0.010, 100_000: 0.003}
        for n, printed in expected.items():
            assert matches_printed_3dp(exp_noncanonical_bound(n, H).total, printed)

    def test_exact_form(self):
        for n in (1, 7, 10**6):
            assert exp_noncanonical_bound(n, H).total == EXP_STEIN_CONST * HP / math.sqrt(n)

    def test_strictly_decreasing_in_n(self):
        ns = list(range(1, 200)) + [10**3, 10**4, 10**5]
        vals = [exp_noncanonical_bound(n, H).total for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestARBoundExpNoncanonical:
    def test_table_column(self):
        expected = {10: 11.888, 100: 3.401, 1000: 1.058, 10_000: 0.333, 100_000: 0.105}
        for n, printed in expected.items():
            assert matches_printed_3dp(ar_bound_exp_noncanonical(n, H), printed)

    def test_dominates_new_bound(self):
        for n in (1, 2, 5, 10, 50, 100, 10**3, 10**4, 10**5, 10**6):
            assert ar_bound_exp_noncanonical(n, H) >= exp_noncanonical_bound(n, H).total


class TestARBoundCanonical:
    def test_equals_expfam_for_canonical_exp(self):
        m = exp_canonical_model()
        n, theta0 = 50, 1.5
        mse = mse_closed_form(m, n, theta0)
        ar = ar_bound_canonical_expfam(m, theta0, n, theta0 / 2, H, mse)
        new = expfam_bound(m, theta0, n, theta0 / 2, H, mse)
        assert ar.total == new.total
        assert ar.formula_id == "ar-canonical"

    def test_normal_mean_unit_sigma_is_canonical(self):
        # k(theta) = theta when sigma = 1: the AR bound also applies there.
        m = normal_mean_model(sigma=1.0)
        n, theta0 = 30, 0.7
        mse = mse_closed_form(m, n, theta0)
        ar = ar_bound_canonical_expfam(m, theta0, n, 0.5, H, mse)
        new = expfam_bound(m, theta0, n, 0.5, H, mse)
        assert ar.total == new.total

    def test_rejects_noncanonical(self):
        m = exp_noncanonical_model()
        with pytest.raises(DomainError):
            ar_bound_canonical_expfam(m, 2.0, 10, 1.0, H, 0.4)
        with pytest.raises(DomainError):
            ar_bound_canonical_expfam(normal_mean_model(sigma=2.0), 0.0, 10, 0.5, H, 0.4)


class TestModelWithoutSupDSecond:
    # A copy of a built-in without the sup|D''| closed form, as a custom
    # model would be.  theta0 = 1.2, n = 50, epsilon = theta0 / 2.

    @pytest.mark.parametrize(
        "m", [exp_canonical_model(), generalized_gamma_model(d=2.0, p=1.5)], ids=lambda m: m.name
    )
    def test_non_identity_model_is_refused(self, m):
        custom = dataclasses.replace(m, sup_d_second=None)
        mse = mse_closed_form(custom, 50, 1.2)
        with pytest.raises(DomainError, match=f"{re.escape(m.name)}.*sup_d_second"):
            sup_abs_d_second(custom, 1.2, 0.6)
        with pytest.raises(DomainError, match="sup_d_second"):
            expfam_bound(custom, 1.2, 50, 0.6, H, mse)
        # The AR bound reaches sup|D''| only for a canonical model; gg is
        # refused before that, as not canonical.
        reason = "sup_d_second" if m.is_canonical else "not canonical"
        with pytest.raises(DomainError, match=reason):
            ar_bound_canonical_expfam(custom, 1.2, 50, 0.6, H, mse)

    @pytest.mark.parametrize(
        "m",
        [exp_noncanonical_model(), laplace_scale_model(), normal_mean_model(sigma=1.0),
         normal_variance_model(mu=0.5)],
        ids=lambda m: m.name,
    )
    def test_identity_model_keeps_its_bound(self, m):
        # D = theta needs no sup|D''|: the bound is bit-equal to the built-in's.
        custom = dataclasses.replace(m, sup_d_second=None)
        assert sup_abs_d_second(custom, 1.2, 0.6) == 0.0
        mse = mse_closed_form(m, 50, 1.2)
        assert expfam_bound(custom, 1.2, 50, 0.6, H, mse) == expfam_bound(m, 1.2, 50, 0.6, H, mse)
        if m.is_canonical:
            assert ar_bound_canonical_expfam(custom, 1.2, 50, 0.6, H, mse) == (
                ar_bound_canonical_expfam(m, 1.2, 50, 0.6, H, mse)
            )


class TestDeclaredIdentity:
    """A model that declares d_inverse=models.identity while its D' = i/k'
    is not 1 at theta0 is refused, not given the tail- and Taylor-free bound."""

    MISDECLARED = dataclasses.replace(exp_canonical_model(), d_inverse=identity)

    def test_a_misdeclared_identity_is_refused(self):
        # exp-canonical's |D'| is 1/theta^2, 0.5917 at 1.3, and its true
        # bound there is 0.3366 where the identity's would be 0.1014.
        mse = mse_closed_form(exp_canonical_model(), 100, 1.3)
        assert expfam_bound(exp_canonical_model(), 1.3, 100, 0.65, H, mse).total == (
            pytest.approx(0.3366, abs=1e-4)
        )
        message = ("model 'exp-canonical' declares d_inverse=models.identity, but "
                   "D'(theta0) = i/k' = 0.5917159763313609 at theta0=1.3, not 1")
        for fn in (expfam_bound, ar_bound_canonical_expfam):
            with pytest.raises(ConsistencyError) as info:
                fn(self.MISDECLARED, 1.3, 100, 0.65, H, mse)
            assert str(info.value) == message, fn.__name__

    def test_earlier_refusals_keep_their_order(self):
        # A bad epsilon or theta0 is refused before the model is evaluated.
        with pytest.raises(DomainError, match="epsilon"):
            expfam_bound(self.MISDECLARED, 1.3, 100, math.nan, H, 0.01)
        with pytest.raises(DomainError, match="theta0"):
            expfam_bound(self.MISDECLARED, -1.0, 100, 0.65, H, 0.01)

    @pytest.mark.parametrize("model_id, params", [
        ("exp-noncanonical", {}), ("laplace", {}), ("normal-mean", {"sigma": 1.0}),
        ("normal-variance", {"mu": 0.5}), ("gg", {"d": 1.0, "p": 1.0}),
        ("weibull", {"alpha": 1.0}),
    ])
    def test_builtin_identities_hold_across_the_float_range(self, model_id, params):
        m = make_model(model_id, **params)
        assert m.is_identity
        for theta0 in (1e-100, 0.37, 1.0, 2.5, 1e100):
            assert abs(d_prime(m, theta0) - 1.0) <= 2.3e-16


class TestOrderProperty:
    def test_sqrt_n_total_bounded_for_closed_forms(self):
        ns = [10, 100, 1000, 10_000, 100_000, 1_000_000]
        families = {
            "exp-canonical": lambda n: exp_canonical_bound(max(n, 3), H).total,
            "exp-noncanonical": lambda n: exp_noncanonical_bound(n, H).total,
            "gg(2,1.5)": lambda n: gg_bound(n, GeneralizedGammaParams(1.0, 2.0, 1.5), H).total,
            "gg(1,2)": lambda n: gg_bound(n, GeneralizedGammaParams(1.0, 1.0, 2.0), H).total,
            "ar-exp-noncanonical": lambda n: ar_bound_exp_noncanonical(n, H),
        }
        for name, f in families.items():
            vals = [math.sqrt(n) * f(n) for n in ns]
            assert max(vals) < 2.5 * min(vals), name


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda n: exp_canonical_bound(n, H),
            lambda n: exp_noncanonical_bound(n, H),
            lambda n: ar_bound_exp_noncanonical(n, H),
            lambda n: gg_bound(n, GeneralizedGammaParams(1.3, 2.0, 1.5), H),
            lambda n: theorem_bound(canonical_exp_inputs(n, 1.3)),
            lambda n: expfam_bound(
                exp_canonical_model(), 1.3, n, 0.65, H,
                mse_closed_form(exp_canonical_model(), n, 1.3),
            ),
        ],
    )
    def test_numpy_int_gives_the_int_result(self, fn):
        for n in (100, 161_376_420):
            assert fn(np.int64(n)) == fn(n)
        with pytest.raises(DomainError):
            fn(True)

    def test_numpy_arithmetic_would_differ(self):
        # Why the checks return a Python int: at this n the int64 form of
        # (n+2)/((n-1)(n-2)) rounds to another double than the exact one.
        n = 161_376_420
        v = np.int64(n)
        assert (v + 2) / ((v - 1) * (v - 2)) != (n + 2) / ((n - 1) * (n - 2))
        assert exp_canonical_bound(v, H) == exp_canonical_bound(n, H)

    def test_bound_inputs_store_an_int(self):
        inputs = canonical_exp_inputs(np.int64(50), 1.0)
        assert type(inputs.n) is int
        assert inputs == canonical_exp_inputs(50, 1.0)

    def test_bound_inputs_store_python_numbers(self):
        # Only a value the check changed is written back; every numpy
        # scalar is one of them.
        plain = canonical_exp_inputs(50, 1.3)
        numpy_fields = {
            name: (np.float32(value) if name == "mse" else np.float64(value))
            for name, value in dataclasses.asdict(plain).items()
            if type(value) is float
        }
        inputs = dataclasses.replace(plain, n=np.int64(50), **numpy_fields)
        assert type(inputs.n) is int
        for name, value in numpy_fields.items():
            stored = getattr(inputs, name)
            assert type(stored) is float and stored == float(value), name
        assert dataclasses.replace(inputs, mse=plain.mse) == plain


# One built-in per family (model id, parameters, theta0), with the epsilon
# the CLI and the simulations use: half of |theta0|.
PIN_CASES = [
    ("exp-canonical", {}, 1.3),
    ("exp-noncanonical", {}, 0.8),
    ("laplace", {}, 2.1),
    ("normal-mean", {"sigma": 1.0}, -0.7),
    ("normal-variance", {"mu": 0.0}, 1.6),
    ("weibull", {"alpha": 2.5}, 0.9),
    ("gg", {"d": 3.0, "p": 2.0}, 1.7),
]
PIN_IDS = [model_id for model_id, _, _ in PIN_CASES]


def _pin_ns(model_id):
    # The normal-variance third moment is a quadrature: one n suffices.
    return (10,) if model_id == "normal-variance" else (10, 1000, 10**9)


def _by_hand(m, theta0, n, epsilon, mse, formula_id):
    """The breakdown assembled from the public pieces by theorem_bound."""
    identity = m.is_identity
    third = third_abs_moment(m, theta0) if m.bound_moment is None else m.bound_moment(theta0)
    inputs = BoundInputs(
        n=n,
        theta0=theta0,
        epsilon=epsilon,
        fisher=fisher_info(m, theta0),
        q_prime_abs=abs(d_prime(m, theta0)),
        third_moment=third,
        mse=mse,
        sup_q_second=0.0 if identity else sup_abs_d_second(m, theta0, epsilon),
        q_is_identity=identity,
        h=H,
    )
    bd = theorem_bound(inputs)
    return BoundBreakdown(bd.stein_term, bd.tail_term, bd.taylor_term, formula_id)


class TestModelBoundPins:
    """expfam, ar-canonical and the CLI's theorem are the theorem on the
    model's own inputs, bit for bit, each under its own formula id."""

    @pytest.mark.parametrize("model_id,params,theta", PIN_CASES, ids=PIN_IDS)
    @pytest.mark.parametrize("as_numpy", (False, True), ids=("float", "np.float64"))
    def test_expfam_and_ar_canonical_equal_the_theorem(self, model_id, params, theta, as_numpy):
        m = make_model(model_id, **params)
        theta0 = np.float64(theta) if as_numpy else theta
        epsilon = 0.5 * abs(theta)
        for n in _pin_ns(model_id):
            mse = mse_closed_form(m, n, theta0)
            want = _by_hand(m, theta0, n, epsilon, mse, "expfam")
            assert expfam_bound(m, theta0, n, epsilon, H, mse) == want
            if m.is_canonical:
                got = ar_bound_canonical_expfam(m, theta0, n, epsilon, H, mse)
                assert got == dataclasses.replace(want, formula_id="ar-canonical")

    @pytest.mark.parametrize("model_id,params,theta", PIN_CASES, ids=PIN_IDS)
    def test_cli_theorem_prints_the_expfam_terms(self, model_id, params, theta, capsys):
        m = make_model(model_id, **params)
        n = _pin_ns(model_id)[-1]
        argv = ["bound", "--formula", "theorem", "--format", "json", "--model", model_id,
                "--theta0", repr(theta), "--n", str(n)]
        for name, value in params.items():
            argv += [f"--{name}", repr(value)]
        assert cli_main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        bd = expfam_bound(m, theta, n, 0.5 * abs(theta), H, mse_closed_form(m, n, theta))
        assert printed == {"formula": "theorem", "n": n, "stein_term": bd.stein_term,
                           "tail_term": bd.tail_term, "taylor_term": bd.taylor_term,
                           "total": bd.total}


class TestClosedFormsFailInFloatingPoint:
    """A theta0 inside the parameter space at which a model's closed forms
    overflow, or underflow to a zero divisor, raises DomainError naming
    theta0 and the model, with the arithmetic error as its cause."""

    @staticmethod
    def _refused(call, m, theta0, cause=""):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value).startswith(
            f"theta0={theta0!r} is inside the parameter space of model {m.name!r}"
        )
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert cause in str(info.value.__cause__)

    def test_sup_d_second_underflows(self):
        m, theta0 = exp_canonical_model(), 1e-110
        mse = mse_closed_form(m, 10, theta0)
        for fn in (expfam_bound, ar_bound_canonical_expfam):
            self._refused(lambda: fn(m, theta0, 10, 0.5 * theta0, H, mse), m, theta0)

    # The bound evaluates i and D' before the moment, so its theta0 keeps
    # i a normal float: 1e120, not the MSE's 1e200, where i underflows.
    def test_mse_and_moment_overflow(self):
        m = exp_noncanonical_model()
        self._refused(lambda: mse_closed_form(m, 10, 1e200), m, 1e200)
        self._refused(lambda: expfam_bound(m, 1e120, 10, 5e119, H, 1.0), m, 1e120,
                      "Numerical result out of range")

    # theta0^3 underflows at 1e-110, where i = 1/(2 theta0^2) is finite.
    def test_quadrature_moment_underflows(self):
        m, theta0 = normal_variance_model(), 1e-110
        self._refused(lambda: expfam_bound(m, theta0, 10, 0.5 * theta0, H, 1e-3), m, theta0,
                      "E|T - D|^3 = 0.0")

    # theta0^4.5 overflows at 1e100; at 1e150 k' underflows to a zero
    # divisor of D' first.
    def test_holder_moment_overflows(self):
        m, theta0 = generalized_gamma_model(d=2.0, p=1.5), 1e100
        mse = mse_closed_form(m, 10, theta0)
        self._refused(lambda: expfam_bound(m, theta0, 10, 0.5 * theta0, H, mse), m, theta0,
                      "Numerical result out of range")

    # i = 1/theta0^2 overflows (1e-200, 1e-160) or underflows below 2^-1022
    # (1e155, 1e200).
    @pytest.mark.parametrize("theta0", [1e-200, 1e-160, 1e155, 1e200])
    def test_fisher_information_fails(self, theta0):
        for m in (exp_canonical_model(), exp_noncanonical_model()):
            self._refused(lambda: fisher_info(m, theta0), m, theta0)

    # One theta0 in each band where a product in the Fisher information
    # derived from k', k'', A' and A'' overflowed or underflowed without
    # raising: each was refused.  The stated i = c/theta0^2 is exact there.
    # The identity-D families' bound is scale-free, so it equals their
    # bound at theta0 = 1; gg's and Weibull's |D'|^3 overflows in the
    # theorem.
    @pytest.mark.parametrize("model_id, params, theta0, c", [
        ("exp-noncanonical", {}, 1e-80, 1),
        ("exp-noncanonical", {}, 1e80, 1),
        ("laplace", {}, 1e-90, 1),
        ("laplace", {}, 1e80, 1),
        ("normal-variance", {}, 1e-90, Fraction(1, 2)),
        ("normal-variance", {}, 1e79, Fraction(1, 2)),
        ("weibull", {"alpha": 2.0}, 1e-70, 4),
        ("gg", {"d": 2.0, "p": 1.5}, 1e-75, 3),
        ("gg", {"d": 0.5, "p": 3.0}, 1e-55, Fraction(3, 2)),
    ])
    def test_fisher_is_exact_where_its_derived_form_failed(self, model_id, params, theta0, c):
        m = make_model(model_id, **params)
        exact = c / Fraction(theta0) ** 2
        assert abs(Fraction(fisher_info(m, theta0)) - exact) <= 4 * math.ulp(float(exact))
        if m.is_identity:
            got = expfam_bound(m, theta0, 10, 0.5 * theta0, H, 1e-3)
            assert got.total == expfam_bound(m, 1.0, 10, 0.5, H, 1e-3).total
        else:
            message = f"^theta0={theta0!r}, n=10: the expfam bound is not finite"
            with pytest.raises(DomainError, match=message):
                expfam_bound(m, theta0, 10, 0.5 * theta0, H, 1e-3)

    def test_public_evaluators_refuse(self):
        # Each raised a bare ZeroDivisionError.  The third moment's theta0^3
        # now underflows to 0.0 at 1e-300 and overflows at 1e103.
        can, var = exp_canonical_model(), normal_variance_model()
        self._refused(lambda: sup_abs_d_second(can, 1e-110, 5e-111), can, 1e-110)
        self._refused(lambda: third_abs_moment(var, 1e-300), var, 1e-300)
        self._refused(lambda: third_abs_moment(var, 1e103), var, 1e103)
        # A subnormal moment has lost digits: the bound read one ulp low.
        noncan = exp_noncanonical_model()
        self._refused(lambda: third_abs_moment(noncan, 1.8e-103), noncan, 1.8e-103)
        self._refused(lambda: expfam_bound(noncan, 1.8e-103, 10, 9e-104, H, 1e-3),
                      noncan, 1.8e-103)
        self._refused(lambda: d_value(var, 1e-300), var, 1e-300)
        self._refused(lambda: d_prime(can, 1e-200), can, 1e-200)

    def test_public_evaluators_refuse_a_value_that_is_not_finite(self):
        # A float division by a subnormal overflows to inf without raising:
        # each returned inf (d_value -inf) as if it were a value.
        m = exp_canonical_model()
        self._refused(lambda: sup_abs_d_second(m, 1e-103, 5e-104), m, 1e-103)
        self._refused(lambda: third_abs_moment(m, 1e-103), m, 1e-103)
        self._refused(lambda: d_prime(m, 1e-155), m, 1e-155)
        self._refused(lambda: d_value(m, 5e-324), m, 5e-324)
        mse = mse_closed_form(m, 10, 1e-103)
        self._refused(lambda: expfam_bound(m, 1e-103, 10, 5e-104, H, mse), m, 1e-103)

    # k' = p / theta0^{p+1} is subnormal where i = d p / theta0^2 is not:
    # D and D' carried its lost digits (gg(0.5, 3) at 1e78 read D' =
    # 5.000000000007673e155 against 5e155).  At 1e78, theta0^4 overflows.
    @pytest.mark.parametrize("params, theta0, cause", [
        ({"d": 2.0, "p": 1.5}, 1.6e123, "|k'(theta0)| = 1.46484375e-308 is not a normal float"),
        ({"d": 0.5, "p": 3.0}, 1.1e77, "|k'(theta0)| = 2.049040366095212e-308"),
        ({"d": 0.5, "p": 3.0}, 1e78, "Numerical result out of range"),
    ])
    def test_d_value_and_d_prime_refuse_a_subnormal_k_prime(self, params, theta0, cause):
        m = generalized_gamma_model(**params)
        assert fisher_info(m, theta0) > 2.0**-1022
        for fn in (d_value, d_prime):
            self._refused(lambda: fn(m, theta0), m, theta0, cause)

    def test_stein_term_overflows(self):
        # |D'| = 1/theta0^2 = 1e104, so |D'|^3 overflows in the Stein term.
        m, theta0 = exp_canonical_model(), 1e-52
        mse = mse_closed_form(m, 10, theta0)
        for fn, formula in ((expfam_bound, "expfam"), (ar_bound_canonical_expfam, "ar-canonical")):
            with pytest.raises(DomainError, match=f"^theta0=1e-52, n=10: the {formula} bound "):
                fn(m, theta0, 10, 0.5 * theta0, H, mse)


# Every built-in: with epsilon = theta0/2, each model bound is the same number
# at every theta0 (the scale families' bounds are scale-free, normal-mean's
# do not involve theta0).
FULL_RANGE_CASES = [
    ("exp-canonical", {}), ("exp-noncanonical", {}), ("laplace", {}), ("normal-mean", {}),
    ("normal-mean", {"sigma": 1.5}), ("normal-variance", {}), ("weibull", {"alpha": 2.0}),
    ("gg", {"d": 2.0, "p": 1.5}), ("gg", {"d": 0.5, "p": 3.0}), ("gg", {"d": 1.0, "p": 0.5}),
]


class TestBoundsAcrossTheFloatRange:
    """Each model bound either raises DomainError or is its theta0 = 1 value
    to 4e-15 relative, at theta0 = 10^(k/16) across the float range: where
    the theorem's arithmetic underflows, it is refused, not printed low."""

    @pytest.mark.parametrize("model_id,params", FULL_RANGE_CASES,
                             ids=[f"{c[0]}{c[1] or ''}" for c in FULL_RANGE_CASES])
    def test_refused_or_the_theta0_1_value(self, model_id, params, monkeypatch):
        m = make_model(model_id, **params)
        if model_id == "normal-variance":
            # Its third moment is theta0^3 times a quadrature at theta = 1,
            # which does not depend on theta0: integrate it once.
            monkeypatch.setattr("mlebounds.models._quadrature_third_moment",
                                functools.cache(_quadrature_third_moment))
        formulas = {"expfam": expfam_bound,
                    "theorem": functools.partial(_model_bound, "theorem")}
        if m.is_canonical:
            formulas["ar-canonical"] = ar_bound_canonical_expfam
        returned = 0
        for n in (10, 10**6):
            want = {fid: fn(m, 1.0, n, 0.5, H, mse_closed_form(m, n, 1.0)).total
                    for fid, fn in formulas.items()}
            for k in range(-16 * 323, 16 * 308 + 1):
                theta0 = 10.0 ** (k / 16)
                try:
                    mse = mse_closed_form(m, n, theta0)
                except DomainError:
                    continue
                for fid, fn in formulas.items():
                    try:
                        got = fn(m, theta0, n, 0.5 * theta0, H, mse).total
                    except DomainError:
                        continue
                    assert got == pytest.approx(want[fid], rel=4e-15, abs=0.0), (fid, n, theta0)
                    returned += 1
        assert returned > 1000

    @pytest.mark.parametrize("argv, theta0", [
        (["--formula", "expfam", "--model", "exp-canonical", "--theta0", "6.494e53",
          "--n", "10"], "6.494e+53"),
        (["--formula", "theorem", "--model", "gg", "--d", "1", "--p", "0.5",
          "--theta0", "2.371e108", "--n", "1000000"], "2.371e+108"),
    ], ids=["exp-canonical-q3", "gg-i32"])
    def test_an_underflowed_factor_is_refused_by_the_cli(self, argv, theta0, capsys):
        # Each printed a total below its theta0 = 1 value with exit 0:
        # 1.93788 against 1.95549, and 6.97e-4 against 1.577e-3.
        assert cli_main(["bound", *argv]) == 2
        err = capsys.readouterr().err
        assert f"theta0={theta0}" in err and "is not a normal float" in err
        assert "bound has lost digits in floating point" in err

    @pytest.mark.parametrize("fields, what", [
        ({"epsilon": 1e-160}, "eps^2 = 1e-320"),
        ({"q_prime_abs": 1e-104}, "|q'|^3 = 1e-312"),
        ({"fisher": 1e-210}, "i^{3/2} = 1e-315"),
        ({"mse": 1e-310}, "MSE = 1e-310"),
    ], ids=["epsilon", "q_prime_abs", "fisher", "mse"])
    def test_theorem_refuses_a_factor_that_is_not_normal(self, fields, what):
        inputs = dataclasses.replace(canonical_exp_inputs(10, 1.3), **fields)
        with pytest.raises(DomainError) as info:
            theorem_bound(inputs)
        assert str(info.value).startswith(
            "theta0=1.3, n=10: the theorem bound has lost digits in floating point ("
        )
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert what in str(info.value)


class TestModelPathRefusals:
    """expfam, ar-canonical and the CLI's theorem refuse a bad model value or
    MSE with the DomainError that BoundInputs raises for the field; a model
    field that evaluates to NaN or inf is refused before, by the guard of
    the model's closed forms, naming theta0."""

    BASE = exp_canonical_model()
    BAD = [math.nan, math.inf, -1.0]
    BAD_IDS = ["nan", "inf", "-1"]

    @staticmethod
    def _not_finite(value):
        """The guard's message for a closed form that evaluates to ``value``
        at theta0 = 1.3, or None for a finite value."""
        if math.isfinite(value):
            return None
        return ("theta0=1.3 is inside the parameter space of model 'exp-canonical', but its "
                f"closed forms fail there in floating point (FloatingPointError: a closed "
                f"form evaluates to {value!r})")

    def _refused(self, m, mse, message, monkeypatch, capsys, cli_message=None):
        # Each test also checks that ``message`` is BoundInputs' own for the
        # field: both paths apply one check per field, so they word it alike.
        for fn in (expfam_bound, ar_bound_canonical_expfam):
            with pytest.raises(DomainError) as info:
                fn(m, 1.3, 10, 0.65, H, mse)
            assert str(info.value) == message, fn.__name__
        # The CLI builds the model, and takes its MSE from the closed form.
        cli_model = dataclasses.replace(m, mse=lambda n, t0: mse)
        monkeypatch.setattr("mlebounds.cli.make_model", lambda model_id, **params: cli_model)
        code = cli_main(["bound", "--formula", "theorem", "--model", "exp-canonical",
                         "--theta0", "1.3", "--n", "10", "--format", "json"])
        assert (code, capsys.readouterr().err) == (2, f"error: {cli_message or message}\n")

    @staticmethod
    def _hand_built(field, value):
        """The message of BoundInputs refusing ``value`` as ``field``."""
        with pytest.raises(DomainError) as info:
            dataclasses.replace(canonical_exp_inputs(10, 1.3), **{field: value})
        return str(info.value)

    @pytest.mark.parametrize("field", ["third_moment", "bound_moment"])
    @pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
    def test_a_bad_third_moment(self, field, value, monkeypatch, capsys):
        m = dataclasses.replace(self.BASE, **{field: lambda t0: value})
        message = f"third_moment must be a non-negative real number, got {value!r}"
        assert self._hand_built("third_moment", value) == message
        self._refused(m, 0.01, self._not_finite(value) or message, monkeypatch, capsys)

    @pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
    def test_a_bad_sup_d_second(self, value, monkeypatch, capsys):
        m = dataclasses.replace(self.BASE, sup_d_second=lambda t0, eps: value)
        message = f"sup_q_second must be a non-negative real number, got {value!r}"
        assert self._hand_built("sup_q_second", value) == message
        self._refused(m, 0.01, self._not_finite(value) or message, monkeypatch, capsys)

    @pytest.mark.parametrize("mse", [0, -1, math.nan, np.float64("nan")],
                             ids=["0", "-1", "nan", "np.float64-nan"])
    def test_a_bad_mse(self, mse, monkeypatch, capsys):
        message = f"mse must be a positive real number, got {mse!r}"
        assert self._hand_built("mse", mse) == message
        # The CLI takes its MSE from the model, through the guard.
        self._refused(self.BASE, mse, message, monkeypatch, capsys, self._not_finite(mse))

    def test_a_value_that_is_not_a_number(self, monkeypatch, capsys):
        # The guard of the closed forms tests floats alone, so the record
        # still names the field.
        m = dataclasses.replace(self.BASE, third_moment=lambda t0: "x")
        message = "third_moment must be a non-negative real number, got 'x'"
        self._refused(m, 0.01, message, monkeypatch, capsys)

    def test_the_first_bad_field_is_named(self, monkeypatch, capsys):
        # The fields are checked in BoundInputs' order: n, then the third
        # moment, then the MSE.
        m = dataclasses.replace(self.BASE, third_moment=lambda t0: -1.0)
        message = "third_moment must be a non-negative real number, got -1.0"
        self._refused(m, -1.0, message, monkeypatch, capsys)
        with pytest.raises(DomainError, match=r"^n must be an integer >= 1, got 0$"):
            expfam_bound(m, 1.3, 0, 0.65, H, math.nan)

    @pytest.mark.parametrize("model_id,params,theta", PIN_CASES[:1] + PIN_CASES[-1:],
                             ids=PIN_IDS[:1] + PIN_IDS[-1:])
    def test_numpy_closed_forms_give_the_python_bound(self, model_id, params, theta):
        # A closed form that returns numpy scalars, with a numpy n, gives
        # the bound of its Python floats bit for bit.
        m = make_model(model_id, **params)
        field = "third_moment" if m.bound_moment is None else "bound_moment"
        moment = getattr(m, field)
        as_numpy = dataclasses.replace(m, **{
            field: lambda t0: np.float64(moment(t0)),
            "sup_d_second": lambda t0, eps: np.float64(m.sup_d_second(t0, eps)),
        })
        for n in (10, 1000, 10**9):
            mse = mse_closed_form(m, n, theta)
            want = expfam_bound(m, theta, n, 0.5 * theta, H, mse)
            got = expfam_bound(as_numpy, theta, np.int64(n), 0.5 * theta, H, np.float64(mse))
            terms = ("stein_term", "tail_term", "taylor_term", "total")
            assert [getattr(got, k).hex() for k in terms] == [getattr(want, k).hex() for k in terms]

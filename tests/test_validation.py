"""The argument-validation contract, one table for the whole package.

Every scalar argument of a public function or dataclass goes through
``errors._require_int`` or ``errors._require_real``.  So for each one:

* ``bool``, a string, ``None``, NaN and +-inf raise DomainError, never a
  bare ValueError or TypeError;
* a numpy scalar gives the same result as the equal Python scalar.

The model constructors' shapes and ``GeneralizedGammaParams`` are held to
the same contract in ``test_models.py::TestShapeValidation``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlebounds import (
    BoundInputs,
    DomainError,
    GeneralizedGammaParams,
    SimulationConfig,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    d_prime,
    d_value,
    density,
    exp_canonical_bound,
    exp_canonical_model,
    exp_noncanonical_bound,
    expfam_bound,
    fisher_info,
    gg_bound,
    gg_mse_factor,
    invert_d,
    mse_closed_form,
    mse_monte_carlo,
    reference_test_function,
    result_rows_to_json,
    sample_model,
    sup_abs_d_second,
    table1,
    third_abs_moment,
)
from mlebounds.bounds import TestFunction as HFunc
from mlebounds.errors import _require_int, _require_real
from mlebounds.montecarlo import iter_mle_chunks
from mlebounds.special import (
    gamma_third_abs_moment,
    integrate_interval,
    log_gamma_shift_excess,
    std_normal_cdf,
    std_normal_pdf,
)

# D(theta) = -1/theta is not the identity, so every epsilon path runs.
M = exp_canonical_model()
H = reference_test_function()


def _inputs(**override):
    kwargs = dict(
        n=10, theta0=1.5, epsilon=0.5, fisher=1.0, q_prime_abs=1.0,
        third_moment=1.0, mse=0.1, sup_q_second=2.0, q_is_identity=False, h=H,
    )
    kwargs.update(override)
    return BoundInputs(**kwargs)


def _chunks(**override):
    kwargs = dict(theta0=1.5, n=10, trials=100, seed=1)
    kwargs.update(override)
    return np.concatenate(list(iter_mle_chunks(M, **kwargs)))


def _mse_mc(**override):
    kwargs = dict(theta0=1.5, n=10, trials=1000, seed=1)
    kwargs.update(override)
    return mse_monte_carlo(M, **kwargs)


def _config(**override):
    kwargs = dict(model_id="exp-canonical", theta0=1.5, n=10, trials=100, seed=1, h=H)
    kwargs.update(override)
    return SimulationConfig(**kwargs)


def _table1(**override):
    # A result holds its wall time and a fresh h closure, so two equal runs
    # differ in repr; the serialized table is what is compared.
    kwargs = dict(trials=1000, seed=1)
    kwargs.update(override)
    return result_rows_to_json(table1(**kwargs))


# (argument, call with the value in that argument, a valid Python float)
REAL_ARGS = [
    ("log_gamma_shift_excess.z", lambda v: log_gamma_shift_excess(v, 0.5), 3.5),
    ("log_gamma_shift_excess.a", lambda v: log_gamma_shift_excess(3.5, v), 0.5),
    ("gamma_third_abs_moment.a", gamma_third_abs_moment, 0.5),
    ("std_normal_cdf.x", std_normal_cdf, 0.5),
    ("std_normal_pdf.x", std_normal_pdf, 0.5),
    ("integrate_interval.a", lambda v: integrate_interval(math.cos, v, 1.0), -0.5),
    ("integrate_interval.b", lambda v: integrate_interval(math.cos, 0.0, v), 1.5),
    ("integrate_interval.tol", lambda v: integrate_interval(math.cos, 0.0, 1.0, v), 0.5),
    ("d_value.theta", lambda v: d_value(M, v), 1.5),
    ("d_prime.theta", lambda v: d_prime(M, v), 1.5),
    ("fisher_info.theta", lambda v: fisher_info(M, v), 1.5),
    ("density.theta", lambda v: density(M, 0.75, v), 1.5),
    ("invert_d.target", lambda v: invert_d(M, v), -0.5),
    ("sup_abs_d_second.theta0", lambda v: sup_abs_d_second(M, v, 0.5), 1.5),
    ("sup_abs_d_second.epsilon", lambda v: sup_abs_d_second(M, 1.5, v), 0.5),
    ("gg_mse_factor.d", lambda v: gg_mse_factor(10, v, 1.5), 2.0),
    ("gg_mse_factor.p", lambda v: gg_mse_factor(10, 2.0, v), 1.5),
    ("TestFunction.norm_h", lambda v: HFunc("paper", H.h, v, H.norm_h_prime), 0.75),
    ("TestFunction.norm_h_prime", lambda v: HFunc("paper", H.h, H.norm_h, v), 0.5),
    *[
        (f"BoundInputs.{name}", lambda v, name=name: _inputs(**{name: v}), good)
        for name, good in (
            ("theta0", -0.5), ("epsilon", 0.5), ("fisher", 2.0), ("q_prime_abs", 0.5),
            ("third_moment", 0.0), ("mse", 0.25), ("sup_q_second", 0.0),
        )
    ],
    ("expfam_bound.theta0", lambda v: expfam_bound(M, v, 10, 0.5, H, 0.1), 1.5),
    ("expfam_bound.epsilon", lambda v: expfam_bound(M, 1.5, 10, v, H, 0.1), 0.5),
    ("expfam_bound.mse", lambda v: expfam_bound(M, 1.5, 10, 0.5, H, v), 0.25),
    ("ar_bound_canonical_expfam.theta0",
     lambda v: ar_bound_canonical_expfam(M, v, 10, 0.5, H, 0.1), 1.5),
    ("ar_bound_canonical_expfam.epsilon",
     lambda v: ar_bound_canonical_expfam(M, 1.5, 10, v, H, 0.1), 0.5),
    ("ar_bound_canonical_expfam.mse",
     lambda v: ar_bound_canonical_expfam(M, 1.5, 10, 0.5, H, v), 0.25),
    ("third_abs_moment.theta0", lambda v: third_abs_moment(M, v), 1.5),
    ("mse_closed_form.theta0", lambda v: mse_closed_form(M, 10, v), 1.5),
    ("sample_model.theta0", lambda v: sample_model(M, v, np.random.default_rng(0), 3, 10), 1.5),
    ("iter_mle_chunks.theta0", lambda v: _chunks(theta0=v), 1.5),
    ("mse_monte_carlo.theta0", lambda v: _mse_mc(theta0=v), 1.5),
    ("SimulationConfig.theta0", lambda v: _config(theta0=v), 1.5),
]

# (argument, call with the value in that argument, a valid Python int)
INT_ARGS = [
    ("gg_mse_factor.n", lambda v: gg_mse_factor(v, 2.0, 1.5), 10),
    ("BoundInputs.n", lambda v: _inputs(n=v), 10),
    ("expfam_bound.n", lambda v: expfam_bound(M, 1.5, v, 0.5, H, 0.1), 10),
    ("gg_bound.n", lambda v: gg_bound(v, GeneralizedGammaParams(1.0, 2.0, 1.5), H), 10),
    ("exp_canonical_bound.n", lambda v: exp_canonical_bound(v, H), 10),
    ("exp_noncanonical_bound.n", lambda v: exp_noncanonical_bound(v, H), 10),
    ("ar_bound_exp_noncanonical.n", lambda v: ar_bound_exp_noncanonical(v, H), 10),
    ("ar_bound_canonical_expfam.n", lambda v: ar_bound_canonical_expfam(M, 1.5, v, 0.5, H, 0.1), 10),
    ("mse_closed_form.n", lambda v: mse_closed_form(M, v, 1.5), 10),
    ("sample_model.n", lambda v: sample_model(M, 1.5, np.random.default_rng(0), 3, v), 10),
    ("iter_mle_chunks.n", lambda v: _chunks(n=v), 10),
    ("iter_mle_chunks.trials", lambda v: _chunks(trials=v), 100),
    ("iter_mle_chunks.seed", lambda v: _chunks(seed=v), 1),
    ("mse_monte_carlo.n", lambda v: _mse_mc(n=v), 10),
    ("mse_monte_carlo.trials", lambda v: _mse_mc(trials=v), 1000),
    ("mse_monte_carlo.seed", lambda v: _mse_mc(seed=v), 1),
    ("SimulationConfig.n", lambda v: _config(n=v), 10),
    ("SimulationConfig.trials", lambda v: _config(trials=v), 100),
    ("SimulationConfig.seed", lambda v: _config(seed=v), 1),
    ("table1.trials", lambda v: _table1(trials=v), 1000),
    ("table1.seed", lambda v: _table1(seed=v), 1),
]

# (argument, call with the value in that argument) for each test-function
# argument.
H_ARGS = [
    ("BoundInputs.h", lambda h: _inputs(h=h)),
    ("SimulationConfig.h", lambda h: _config(h=h)),
    ("expfam_bound.h", lambda h: expfam_bound(M, 1.5, 10, 0.5, h, 0.1)),
    ("ar_bound_canonical_expfam.h", lambda h: ar_bound_canonical_expfam(M, 1.5, 10, 0.5, h, 0.1)),
    ("gg_bound.h", lambda h: gg_bound(10, GeneralizedGammaParams(1.0, 2.0, 1.5), h)),
    ("exp_canonical_bound.h", lambda h: exp_canonical_bound(10, h)),
    ("exp_noncanonical_bound.h", lambda h: exp_noncanonical_bound(10, h)),
    ("ar_bound_exp_noncanonical.h", lambda h: ar_bound_exp_noncanonical(10, h)),
]

NON_NUMERIC = [True, False, np.bool_(True), "1.5", "2", None, [1.0]]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf), 10**400]


def _ids(table):
    return [row[0] for row in table]


def _value_id(v):
    prefix = "np." if isinstance(v, np.generic) else ""
    return f"{prefix}{type(v).__name__}({str(v)[:12]})"


def _same(a, b):
    """Equal values of equal types: repr tells a numpy scalar from a float,
    in a dataclass field or an array as well."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("bad", NON_NUMERIC + NON_FINITE, ids=_value_id)
@pytest.mark.parametrize("arg, call, good", REAL_ARGS, ids=_ids(REAL_ARGS))
def test_real_argument_rejects_non_numbers_and_non_finite(arg, call, good, bad):
    with pytest.raises(DomainError, match=arg.split(".")[-1]):
        call(bad)


# 10**400 is an integer, but no float holds it: a count is refused by the
# count check, a seed by its own cap.
@pytest.mark.parametrize("bad", NON_NUMERIC + NON_FINITE + [2.5, 10.0], ids=_value_id)
@pytest.mark.parametrize("arg, call, good", INT_ARGS, ids=_ids(INT_ARGS))
def test_integer_argument_rejects_non_integers(arg, call, good, bad):
    with pytest.raises(DomainError, match=arg.split(".")[-1]):
        call(bad)


@pytest.mark.parametrize("arg, call, good", REAL_ARGS, ids=_ids(REAL_ARGS))
def test_numpy_reals_give_the_python_result(arg, call, good):
    want = call(good)
    for numpy_value in (np.float64(good), np.float32(good)):
        assert numpy_value == good  # every table value is exact in float32
        assert _same(call(numpy_value), want)


@pytest.mark.parametrize("arg, call, good", INT_ARGS, ids=_ids(INT_ARGS))
def test_numpy_integers_give_the_python_result(arg, call, good):
    want = call(good)
    for numpy_value in (np.int64(good), np.int32(good), np.uint64(good)):
        assert _same(call(numpy_value), want)


# A plain callable raised a bare AttributeError from the bound formulas and
# from run_simulation before h was checked.
@pytest.mark.parametrize(
    "bad", [H.h, lambda x: 0.0 * x, None, 0.5], ids=["plain-h", "lambda", "None", "float"]
)
@pytest.mark.parametrize("arg, call", H_ARGS, ids=_ids(H_ARGS))
def test_test_function_argument_rejects_anything_else(arg, call, bad):
    call(H)
    with pytest.raises(DomainError, match="h must be a TestFunction"):
        call(bad)


# Each was accepted, or raised a bare ValueError or TypeError, before every
# scalar check went through the errors helpers.
FORMER_FAULTS = [
    ("TestFunction(norm_h=True)", lambda: HFunc("paper", H.h, True, H.norm_h_prime)),
    ("mse_closed_form(m, 10, True)", lambda: mse_closed_form(M, 10, True)),
    ("gg_mse_factor(10, True, 1.0)", lambda: gg_mse_factor(10, True, 1.0)),
    ("d_value(m, '2')", lambda: d_value(M, "2")),
    ("sup_abs_d_second(m, 1.0, 'x')", lambda: sup_abs_d_second(M, 1.0, "x")),
    ("expfam_bound(epsilon='x')", lambda: expfam_bound(M, 1.0, 10, "x", H, 0.1)),
    ("BoundInputs(mse='x')", lambda: _inputs(mse="x")),
    ("iter_mle_chunks(n=0)", lambda: _chunks(n=0)),
    ("iter_mle_chunks(n=2.5)", lambda: _chunks(n=2.5)),
    ("iter_mle_chunks(seed=-1)", lambda: _chunks(seed=-1)),
    ("iter_mle_chunks(seed=2**64)", lambda: _chunks(seed=2**64)),
    ("iter_mle_chunks(trials=0)", lambda: _chunks(trials=0)),
]


@pytest.mark.parametrize("case, call", FORMER_FAULTS, ids=[c[0] for c in FORMER_FAULTS])
def test_former_faults_raise_domain_error(case, call):
    with pytest.raises(DomainError):
        call()


# A truthy non-bool dropped the tail and Taylor terms: at _inputs' values
# q_is_identity="no" gave a total of 0.218 where False gives 0.690.
@pytest.mark.parametrize("bad", ["no", None, 1, 0.0], ids=_value_id)
def test_q_is_identity_must_be_a_bool(bad):
    with pytest.raises(DomainError, match="^q_is_identity must be a bool, got "):
        _inputs(q_is_identity=bad)
    for flag in (True, False):
        assert _same(_inputs(q_is_identity=np.bool_(flag)), _inputs(q_is_identity=flag))


def test_sample_model_size_is_none_or_a_count():
    # None (one draw) is valid here, so size cannot be an INT_ARGS row.
    def draw(size):
        return sample_model(M, 1.5, np.random.default_rng(0), size, 10)

    assert np.ndim(draw(None)) == 0
    assert draw(0).shape == (0,)
    assert _same(draw(np.int64(5)), draw(5))
    for bad in (True, 2.5, "3", -1, [3]):
        with pytest.raises(DomainError, match="size"):
            draw(bad)


class TestFastPathMatchesAbcPath:
    """``type(v) is float`` / ``type(v) is int`` skip the ABC check; a numpy
    scalar or a subclass takes the ABC path and must end the same way."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_float_and_numpy_float64(self, x):
        class Sub(float):
            pass

        for kind in ("positive", "non-negative", "finite"):
            outcomes = []
            for v in (x, np.float64(x), Sub(x)):
                try:
                    got = _require_real(v, "x", kind)
                except DomainError:
                    outcomes.append("DomainError")
                else:
                    assert type(got) is float
                    outcomes.append(repr(got))
            assert outcomes[1:] == outcomes[:1] * 2, (kind, outcomes)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int_and_numpy_int64(self, k):
        class Sub(int):
            pass

        for minimum, maximum in ((1, None), (0, 2**64 - 1), (-5, 5)):
            outcomes = []
            for v in (k, np.int64(k), Sub(k)):
                try:
                    got = _require_int(v, "k", minimum, maximum=maximum)
                except DomainError:
                    outcomes.append("DomainError")
                else:
                    assert type(got) is int
                    outcomes.append(got)
            assert outcomes[1:] == outcomes[:1] * 2, (minimum, maximum, outcomes)

    def test_real_accepts_integers_as_floats(self):
        for v in (3, np.int64(3), np.uint8(3)):
            got = _require_real(v, "x")
            assert type(got) is float and got == 3.0

    @pytest.mark.parametrize("kind, bad", [("positive", 0.0), ("non-negative", -1e-300)])
    def test_kind_bounds(self, kind, bad):
        with pytest.raises(DomainError, match=f"must be a {kind} real number"):
            _require_real(bad, "x", kind)
        assert _require_real(-0.0, "x", "non-negative") == 0.0
        assert _require_real(-1e300, "x", "finite") == -1e300

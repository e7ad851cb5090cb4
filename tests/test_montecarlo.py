"""Tests for sampling, the simulation harness, and its determinism."""

import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from mlebounds import (
    ConsistencyError,
    DomainError,
    SimulationConfig,
    SimulationResult,
    d_prime,
    d_value,
    exp_noncanonical_model,
    expected_h_of_z,
    make_model,
    mle,
    mse_closed_form,
    mse_monte_carlo,
    reference_test_function,
    result_rows_to_csv,
    result_rows_to_json,
    run_simulation,
    sample_model,
    table1,
)
from mlebounds import bounds, montecarlo
from mlebounds.bounds import TestFunction as HFunc
from mlebounds.montecarlo import _chunk_rng, iter_mle_chunks

H = reference_test_function()


def rng(seed=0):
    return np.random.default_rng(seed)


# One (model id, params, theta0) per built-in family.
FAMILIES = [
    ("exp-canonical", {}, 1.3),
    ("exp-noncanonical", {}, 2.0),
    ("laplace", {}, 0.8),
    ("normal-mean", {"sigma": 1.5}, -0.4),
    ("normal-variance", {"mu": 0.5}, 1.7),
    ("weibull", {"alpha": 2.0}, 1.2),
    ("gg", {"d": 2.0, "p": 1.5}, 0.9),
]


class TestSampleModel:
    """``sample_model`` is the harness's one sampler: mean T over n
    observations, from the model's ``sample_tbar``."""

    @pytest.mark.parametrize("model_id, params, theta0", FAMILIES)
    @pytest.mark.parametrize("size", [None, 0, 5, 4096])
    def test_equals_sample_tbar_bit_for_bit(self, model_id, params, theta0, size):
        m = make_model(model_id, **params)
        for n in (1, 7, 10**9):
            got = sample_model(m, theta0, _chunk_rng(5, n), size, n)
            want = m.sample_tbar(theta0, n, _chunk_rng(5, n), size)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (model_id, n)

    def test_the_old_four_argument_call_raises_type_error(self):
        # Without n it would return means of T where observations were meant.
        with pytest.raises(TypeError, match="n"):
            sample_model(exp_noncanonical_model(), 2.0, rng(), 5)

    def test_theta_outside_space(self):
        with pytest.raises(DomainError, match="theta0"):
            sample_model(exp_noncanonical_model(), -1.0, rng(), None, 5)

    @pytest.mark.parametrize("n, size, name", [(10**400, 5, "n"), (5, 10**400, "size")],
                             ids=["n", "size"])
    def test_a_count_beyond_the_float_range_is_refused(self, n, size, name):
        # These raised a bare OverflowError (n) and a bare ValueError from
        # numpy (size); the count check refuses each, naming it, before any
        # draw.
        message = (f"^{name} must be an integer >= {0 if name == 'size' else 1} that a float "
                   r"can hold \(at most 1\.7976931348623157e\+308\), got 10{400}$")
        with pytest.raises(DomainError, match=message):
            sample_model(exp_noncanonical_model(), 2.0, rng(), size, n)

    def test_the_harness_draws_each_chunk_through_it(self, monkeypatch):
        # The benchmark's sampling layer wraps montecarlo.sample_model, so
        # every chunk must be drawn by a call to that module-level name.
        calls = []
        original = montecarlo.sample_model

        def recording(m, theta0, rng, size, n):
            calls.append((m.name, theta0, size, n))
            return original(m, theta0, rng, size, n)

        monkeypatch.setattr(montecarlo, "sample_model", recording)
        m = make_model("gg", d=2.0, p=1.5)
        theta_hats = np.concatenate(list(iter_mle_chunks(m, 0.9, 10, 10_000, 3)))
        assert calls == [(m.name, 0.9, size, 10) for size in (4096, 4096, 1808)]
        monkeypatch.undo()
        unwrapped = np.concatenate(list(iter_mle_chunks(m, 0.9, 10, 10_000, 3)))
        assert theta_hats.tobytes() == unwrapped.tobytes()


class TestSufficientStatisticSampler:
    @pytest.mark.parametrize("n", [5, 1000, 10**6])
    def test_mse_matches_closed_form(self, n):
        # The Monte Carlo MSE of the MLE against its exact value: a check of
        # each family's sample_tbar law that any seed passes, since 4 SE
        # leaves a one-in-16 000 chance per case.
        for i, (model_id, params, theta0) in enumerate(FAMILIES):
            m = make_model(model_id, **params)
            est = mse_monte_carlo(m, theta0, n, trials=100_000, seed=4200 + i)
            exact = mse_closed_form(m, n, theta0)
            assert abs(est.value - exact) <= 4.0 * est.standard_error, (model_id, n)

    @pytest.mark.parametrize("n", [1, 7])
    def test_the_sampler_states_the_model_law(self, n):
        # Mean T over n observations, drawn by sample_model, must have mean
        # D(theta0) and variance D'(theta0) / (n k'(theta0)), the
        # exponential-family Var T = D'/k' read off the model's own k and
        # A.  5 SE each, the variance's SE from the empirical fourth moment.
        size = 200_000
        for i, (model_id, params, theta0) in enumerate(FAMILIES):
            m = make_model(model_id, **params)
            tbar = sample_model(m, theta0, rng(700 + 10 * n + i), size, n)
            mean = d_value(m, theta0)
            var = d_prime(m, theta0) / (n * float(m.k1(theta0)))
            dev = tbar - tbar.mean()
            s2 = float(np.mean(dev**2))
            m4 = float(np.mean(dev**4))
            assert abs(tbar.mean() - mean) <= 5.0 * math.sqrt(s2 / size), (model_id, n)
            assert abs(s2 - var) <= 5.0 * math.sqrt((m4 - s2**2) / size), (model_id, n)

    def test_reductions_equal_fsum(self, monkeypatch):
        # The block reduction must equal math.fsum of each row bit for bit,
        # so every output of both harnesses equals the one reduced row by
        # row by math.fsum itself.  Three chunks per run, the last one
        # partial.
        def outputs():
            rows, estimates = [], []
            for i, (model_id, params, theta0) in enumerate(FAMILIES):
                config = SimulationConfig(model_id, theta0, 7, 10_000, 31 + i, H, params)
                r = run_simulation(config)
                rows.append([repr(getattr(r, f.name)) for f in dataclasses.fields(r) if f.compare])
                m = make_model(model_id, **params)
                estimates.append(repr(mse_monte_carlo(m, theta0, 7, 10_000, 31 + i)))
            return rows, estimates

        got = outputs()
        monkeypatch.setattr(
            montecarlo, "_exact_row_sums", lambda block: [math.fsum(row.tolist()) for row in block]
        )
        assert outputs() == got

    def test_model_without_sampler_rejected(self):
        m = dataclasses.replace(exp_noncanonical_model(), sample_tbar=None)
        with pytest.raises(DomainError):
            next(iter_mle_chunks(m, 2.0, 10, 100, 1))

    def test_identity_check_reports_the_global_trial(self):
        # A wrong closed-form inverse breaks D(theta_hat) = mean T.  Here it
        # is wrong from the sixth trial of the second chunk on, which is
        # global trial 4096 + 5.
        calls = []

        def inverse(t):
            calls.append(1)
            wrong = (np.arange(np.size(t)) >= 5) & (len(calls) > 1)
            return np.where(wrong, 2.0 * t, t)

        m = dataclasses.replace(exp_noncanonical_model(), d_inverse=inverse)
        chunks = iter_mle_chunks(m, 2.0, 10, 8192, 1)
        next(chunks)
        with pytest.raises(ConsistencyError, match="at trial 4101:"):
            next(chunks)

    @pytest.mark.parametrize("bad_value", [math.nan, math.inf])
    @pytest.mark.parametrize("harness", ["run_simulation", "mse_monte_carlo"])
    def test_non_finite_mle_fails_the_identity_check(self, bad_value, harness, monkeypatch):
        # A NaN or infinite theta_hat compares False against any tolerance,
        # so it must be reported, not summed into the estimate.  Here the
        # inverse goes bad from global trial 4096 + 5 on.
        calls = []

        def inverse(t):
            calls.append(1)
            bad = (np.arange(np.size(t)) >= 5) & (len(calls) > 1)
            return np.where(bad, bad_value, t)

        m = dataclasses.replace(exp_noncanonical_model(), d_inverse=inverse)
        # run_simulation builds its model from the config's id.
        monkeypatch.setattr(montecarlo, "make_model", lambda model_id: m)
        config = SimulationConfig("exp-noncanonical", 2.0, 10, 8192, 1, H)
        with pytest.raises(ConsistencyError, match="at trial 4101:"):
            if harness == "mse_monte_carlo":
                mse_monte_carlo(m, 2.0, 10, 8192, 1)
            else:
                run_simulation(config)

    @pytest.mark.parametrize("harness", ["run_simulation", "mse_monte_carlo"])
    def test_an_mle_on_the_edge_of_the_space_is_refused(self, harness):
        # gg(0.001, 1) at n = 3: a Gamma(0.003) sum underflows to 0 first at
        # trial 18, and its MLE 0 lies outside (0, inf).  The harness refuses
        # it in mle's words; it raised ConsistencyError, D(0) being NaN.
        params = {"d": 0.001, "p": 1.0}
        message = (
            "trial 18: mean T = 0.0 has no MLE inside the parameter space (0.0, inf) "
            "of model 'gg(d=0.001, p=1.0)'"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            if harness == "mse_monte_carlo":
                mse_monte_carlo(make_model("gg", **params), 1.0, 3, 1000, 0)
            else:
                run_simulation(SimulationConfig("gg", 1.0, 3, 1000, 0, H, params))

    def test_overflowing_inverse_fails_the_identity_check(self):
        # Weibull(1e-3) at n = 10: d_inverse = t^1000 overflows at trial 25,
        # which the identity check reports, not a bare RuntimeWarning.
        with pytest.raises(ConsistencyError, match="at trial 25:"):
            mse_monte_carlo(make_model("weibull", alpha=1e-3), 1.0, 10, 1000, 1)

    def test_identity_tolerance_is_per_trial(self):
        # The tolerance is 1e-10 * max(1, |mean T|) for each trial on its
        # own, so an inverse off by 5e-10 wherever |mean T| < 1 is caught
        # even though other trials of the chunk have |mean T| above 5.
        seen = []

        def inverse(t):
            seen.append(t)
            return np.where(np.abs(t) < 1.0, t + 5e-10, t)

        m = dataclasses.replace(exp_noncanonical_model(), d_inverse=inverse)
        with pytest.raises(ConsistencyError) as exc:
            next(iter_mle_chunks(m, 2.0, 1, 4096, 1))
        (tbar,) = seen
        assert np.max(np.abs(tbar)) > 10.0
        assert f"at trial {int(np.argmax(np.abs(tbar) < 1.0))}:" in str(exc.value)

    @pytest.mark.parametrize("model_id, params, theta0", [
        ("gg", {"d": 2.0, "p": 1.5}, 0.9),
        ("normal-mean", {"sigma": 1.5}, -0.4),
    ])
    def test_leading_chunks_do_not_depend_on_trials(self, model_id, params, theta0):
        # Every chunk but the last holds 4096 trials whatever ``trials`` is,
        # so the MLEs of the first k * 4096 trials are the same in every run
        # of the seed that reaches them.
        m = make_model(model_id, **params)
        runs = {t: list(iter_mle_chunks(m, theta0, 8, t, 5)) for t in (4096, 4097, 8192, 9000)}
        assert [len(c) for c in runs[4097]] == [4096, 1]
        assert [len(c) for c in runs[9000]] == [4096, 4096, 808]
        for t in (4097, 8192, 9000):
            assert np.array_equal(runs[t][0], runs[4096][0])
        assert np.array_equal(runs[9000][1], runs[8192][1])

    def test_table_model_at_n_1e9(self):
        # A trial costs the same at every n, so n = 1e9 is a plain run.
        # The true distance there is about 2e-12, far below the Monte Carlo
        # noise, so the check is that mean h agrees with E h(Z) within it.
        config = SimulationConfig("exp-noncanonical", 2.0, 10**9, 10_000, 99991, H)
        r = run_simulation(config)
        assert abs(r.mean_h - r.expected_h) <= 5.0 * r.standard_error
        assert abs(r.std_mean) <= 5.0 / math.sqrt(config.trials)
        assert abs(r.std_second_moment - 1.0) <= 5.0 * math.sqrt(2.0 / config.trials)

    def test_memory_does_not_grow_with_trials(self):
        # Each chunk is reduced as soon as it is drawn, so the traced peak
        # of a run of 100 chunks is that of one chunk, and under 1 MiB.
        def config(trials):
            return SimulationConfig("gg", 0.9, 8, trials, 1, H, {"d": 2.0, "p": 1.5})

        def peak(trials):
            tracemalloc.start()
            try:
                run_simulation(config(trials))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_simulation(config(4096))
        small, large = peak(4096), peak(409_600)
        assert abs(large - small) <= 0.1 * small
        assert large < 2**20


class TestSimulationConfig:
    def test_a_config_and_its_result_pickle(self):
        # On the default h, so either can be sent to a worker process.
        config = SimulationConfig("gg", 0.9, 10, 5000, 7, H, {"d": 2.0, "p": 1.5})
        assert pickle.loads(pickle.dumps(config)) == config
        result = run_simulation(config)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_a_later_change_to_the_callers_params_leaves_the_run_unchanged(self):
        # The config kept a reference to the caller's dict, so setting sigma
        # after construction changed the run of the same config.
        params = {"sigma": 1.0}
        config = SimulationConfig("normal-mean", 0.5, 10, 2000, 3, H, params)
        before = run_simulation(config)
        params["sigma"] = 3.0
        assert run_simulation(config) == before
        assert type(config.model_params) is dict and config.model_params == {"sigma": 1.0}

    def test_numpy_integers_stored_as_int(self):
        a = SimulationConfig("exp-noncanonical", 2.0, 100, 5000, 7, H)
        b = SimulationConfig("exp-noncanonical", 2.0, np.int64(100), np.int64(5000), np.uint64(7), H)
        assert a == b
        assert all(type(getattr(b, f)) is int for f in ("n", "trials", "seed"))
        assert result_rows_to_json([run_simulation(a)]) == result_rows_to_json([run_simulation(b)])

    @pytest.mark.parametrize("field", ["n", "trials", "seed"])
    def test_bool_rejected(self, field):
        kwargs = dict(n=10, trials=100, seed=1)
        kwargs[field] = True
        with pytest.raises(DomainError):
            SimulationConfig("exp-noncanonical", 2.0, h=H, **kwargs)

    def test_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig("exp-noncanonical", 2.0, 0, 100, 1, H)
        with pytest.raises(DomainError):
            SimulationConfig("exp-noncanonical", 2.0, 10, 0, 1, H)
        with pytest.raises(DomainError):
            SimulationConfig("exp-noncanonical", 2.0, 10, 100, -1, H)
        with pytest.raises(DomainError):
            SimulationConfig("exp-noncanonical", 2.0, 10, 100, 2**64, H)


class TestRunSimulation:
    def test_table_row_n10(self):
        config = SimulationConfig("exp-noncanonical", 2.0, 10, 10_000, 99991, H)
        r = run_simulation(config)
        assert round(r.bound_new, 3) == 0.321
        assert r.bound_ar is not None
        assert abs(r.bound_ar - 11.8885) < 1e-3
        # The empirical distance is a random realization of order 1e-3.
        assert 0.0 < r.empirical_distance < 0.02
        assert r.empirical_distance < r.bound_new

    def test_determinism_same_seed(self):
        config = SimulationConfig("exp-noncanonical", 2.0, 100, 5000, 7, H)
        a = run_simulation(config)
        b = run_simulation(config)
        assert a == b  # elapsed_seconds excluded from comparison
        assert result_rows_to_csv([a]) == result_rows_to_csv([b])
        assert result_rows_to_json([a]) == result_rows_to_json([b])

    def test_different_seeds_differ(self):
        base = dict(model_id="exp-noncanonical", theta0=2.0, n=100, trials=5000, h=H)
        a = run_simulation(SimulationConfig(seed=1, **base))
        b = run_simulation(SimulationConfig(seed=2, **base))
        assert a.mean_h != b.mean_h

    def test_refused_bounds_stop_the_run_before_sampling(self, monkeypatch):
        # The canonical exponential MSE needs n >= 3; the bounds are
        # attached first, so no trial is drawn for a config they refuse.
        def sample(*args):
            raise AssertionError("sampled before the bounds were checked")

        monkeypatch.setattr(montecarlo, "iter_mle_chunks", sample)
        config = SimulationConfig("exp-canonical", 1.0, 2, 2_000_000, 0, H)
        with pytest.raises(DomainError, match="n must be an integer >= 3"):
            run_simulation(config)

    def test_empirical_distance_recomputable_from_sums(self):
        config = SimulationConfig("exp-noncanonical", 2.0, 50, 4000, 11, H)
        r = run_simulation(config)
        assert r.empirical_distance == abs(r.sum_h / config.trials - r.expected_h)
        assert r.mean_h == r.sum_h / config.trials
        assert r.expected_h == pytest.approx(expected_h_of_z(H), abs=0)

    def test_expected_h_computed_once_per_test_function(self, monkeypatch):
        calls = []

        def counted(h, *args):
            calls.append(h)
            return expected_h_of_z(h, *args)

        monkeypatch.setattr(bounds, "expected_h_of_z", counted)
        h = dataclasses.replace(reference_test_function())  # a fresh, uncomputed instance
        rows = [
            run_simulation(SimulationConfig("exp-noncanonical", 2.0, n, 1000, 5, h))
            for n in (10, 20)
        ]
        assert calls == [h]
        assert rows[0].expected_h == rows[1].expected_h == expected_h_of_z(h)

    def test_reference_h_is_shared_and_integrated_once(self, monkeypatch):
        calls = []

        def counted(h, *args):
            calls.append(h)
            return expected_h_of_z(h, *args)

        monkeypatch.setattr(bounds, "expected_h_of_z", counted)
        reference_test_function.cache_clear()
        first = table1(trials=1000)
        second = table1(trials=1000)
        shared = reference_test_function()
        assert shared is reference_test_function()
        assert len(calls) == 1 and calls[0] is shared
        assert all(r.config.h is shared for r in first + second)

    def test_vectorized_scalar_h_simulates(self):
        h = HFunc("gauss", np.vectorize(lambda x: math.exp(-x * x)), 1.0, 1.0)
        r = run_simulation(SimulationConfig("exp-noncanonical", 2.0, 100, 2000, 3, h))
        assert 0.0 < r.mean_h < 1.0
        assert r.expected_h == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)

    def test_standardization_sanity(self):
        # Mean and second moment of sqrt(n i(theta0)) (theta_hat - theta0)
        # approach (0, 1) for large n.
        config = SimulationConfig("exp-noncanonical", 2.0, 10_000, 4000, 13, H)
        r = run_simulation(config)
        se_mean = 1.0 / math.sqrt(config.trials)
        assert abs(r.std_mean) <= 5.0 * se_mean
        # Var of u^2-average for near-normal u is about 2/trials.
        assert abs(r.std_second_moment - 1.0) <= 5.0 * math.sqrt(2.0 / config.trials)

    def test_bound_attachment_families(self):
        # Canonical: AR coincides with the new bound.  Identity families
        # other than exp-noncanonical: no AR closed form.
        r_can = run_simulation(SimulationConfig("exp-canonical", 1.0, 20, 2000, 5, H))
        assert r_can.bound_ar == r_can.bound_new
        r_lap = run_simulation(SimulationConfig("laplace", 1.0, 20, 2000, 5, H))
        assert r_lap.bound_ar is None
        r_gg = run_simulation(
            SimulationConfig("gg", 1.0, 20, 2000, 5, H, model_params={"d": 2.0, "p": 1.5})
        )
        assert r_gg.bound_ar is None
        assert r_gg.bound_new > 0.0

    def test_empirical_below_bound_randomized_configs(self):
        # The estimated distance is a lower bound on the true distance, so
        # it must sit far below the certificate on any healthy run.
        gen = np.random.default_rng(12345)
        cases = []
        for _ in range(20):
            pick = gen.integers(0, 6)
            theta0 = float(gen.uniform(0.5, 3.0))
            n = int(gen.integers(20, 200))
            if pick == 0:
                cases.append(("exp-canonical", theta0, {}, n))
            elif pick == 1:
                cases.append(("exp-noncanonical", theta0, {}, n))
            elif pick == 2:
                cases.append(("laplace", theta0, {}, n))
            elif pick == 3:
                cases.append(("normal-mean", theta0, {"sigma": 1.5}, n))
            elif pick == 4:
                cases.append(("normal-variance", theta0, {"mu": 0.0}, n))
            else:
                cases.append(("gg", theta0, {"d": 2.0, "p": 1.5}, n))
        for i, (model_id, theta0, params, n) in enumerate(cases):
            config = SimulationConfig(
                model_id, theta0, n, 2000, 1000 + i, H, model_params=params
            )
            r = run_simulation(config)
            assert r.empirical_distance <= r.bound_new, (model_id, theta0, n)

    def test_mle_identity_holds_per_trial(self):
        # Spot-check the identity the harness enforces internally, on raw
        # data: it holds for any sample inside the support.
        m = exp_noncanonical_model()
        g = _chunk_rng(77, 0)
        for _ in range(50):
            xs = g.exponential(2.0, size=25)
            theta_hat = mle(m, xs)
            assert abs(d_value(m, theta_hat) - float(np.mean(m.T(xs)))) <= 1e-10


class TestFloatGrid:
    """A Monte Carlo output is refused where the standardized MLE's float
    grid step at theta0 exceeds 0.1/sqrt(trials): there the estimate
    measures rounding (at theta0 = 1e16 the run printed an empirical
    distance of 0.121 with a standard error of 0.0, and the MSE 0.0 +- 0.0
    against the closed form 0.01)."""

    NORMAL = ("normal-mean", {"sigma": 1.0})

    @staticmethod
    def _harnesses(model_id, params, theta0, n, trials):
        return {
            "run_simulation": lambda: run_simulation(
                SimulationConfig(model_id, theta0, n, trials, 1, H, params)),
            "mse_monte_carlo": lambda: mse_monte_carlo(
                make_model(model_id, **params), theta0, n, trials, 1),
        }

    @pytest.mark.parametrize("harness", ["run_simulation", "mse_monte_carlo"])
    @pytest.mark.parametrize("model_id, params, theta0, n, step", [
        (*NORMAL, 1e16, 100, 20.0),
        (*NORMAL, 1e15, 100, 1.25),
        ("exp-noncanonical", {}, 1.0, 10**32, 2.220446049250313),
        # D^{-1}(t) = t^100 spreads mean T's grid 100-fold: theta_hat's own
        # spacing alone would give a step of 7.0e-5.
        ("gg", {"d": 0.01, "p": 0.01}, 1.0, 10**27, 0.007021666937153403),
    ], ids=["normal-mean-1e16", "normal-mean-1e15", "exp-noncanonical-n-1e32", "gg-d-inverse"])
    def test_a_grid_coarser_than_the_noise_is_refused_before_sampling(
        self, monkeypatch, harness, model_id, params, theta0, n, step
    ):
        def sample(*args):
            raise AssertionError("sampled before the float grid was checked")

        monkeypatch.setattr(montecarlo, "iter_mle_chunks", sample)
        run = self._harnesses(model_id, params, theta0, n, 10_000)[harness]
        message = (f"theta0={theta0!r}, n={n}: the standardized MLE's float grid step {step!r} "
                   "exceeds 0.1/sqrt(trials) = 0.001, ")
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run()

    @pytest.mark.parametrize("harness", ["run_simulation", "mse_monte_carlo"])
    def test_the_limit_is_a_tenth_of_the_standard_error(self, harness):
        # At n = 100 and sigma = 1 the step is 10 ulp(theta0): 2.4e-3 at
        # 2^40 and 4.9e-3 at 2^41, against 0.1/sqrt(1000) = 3.2e-3.
        self._harnesses(*self.NORMAL, 2.0**40, 100, 1000)[harness]()
        with pytest.raises(DomainError, match="float grid step 0.0048828125 exceeds"):
            self._harnesses(*self.NORMAL, 2.0**41, 100, 1000)[harness]()


class TestTable:
    def test_structure_and_determinism(self):
        rows = table1(trials=1000, seed=31)
        assert [r.config.n for r in rows] == [10, 100, 1000, 10_000, 100_000]
        rows2 = table1(trials=1000, seed=31)
        assert result_rows_to_csv(rows) == result_rows_to_csv(rows2)

    def test_bound_columns(self):
        rows = table1(trials=1000, seed=31)
        new = [round(r.bound_new, 3) for r in rows]
        assert new == [0.321, 0.101, 0.032, 0.010, 0.003]
        ar = [r.bound_ar for r in rows]
        assert all(a is not None for a in ar)
        # At 1000 trials the estimator's own noise (a few standard errors)
        # can reach the size of the smallest bounds, so the validity check
        # is only meaningful where the bound clears the noise floor; the
        # acceptance suite asserts every row at the full trial count.
        for r in rows:
            if r.bound_new > 6.0 * r.standard_error:
                assert r.empirical_distance < r.bound_new

    def test_trials_floor(self):
        with pytest.raises(DomainError):
            table1(trials=10)

    def test_csv_shape(self):
        rows = table1(trials=1000, seed=31)
        text = result_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,empirical_distance,standard_error,new_bound,ar_bound,seed,trials"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "10"
        assert float(first[3]) == rows[0].bound_new  # round-trip precision

"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The expensive five-row simulation (10000 trials per
row, default seed) runs once and is shared by the criteria that need it.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from mlebounds import (
    EXP_THIRD_ABS_MOMENT,
    GeneralizedGammaParams,
    SimulationConfig,
    ar_bound_exp_noncanonical,
    density,
    d_value,
    exp_canonical_bound,
    exp_canonical_model,
    exp_noncanonical_bound,
    exp_noncanonical_model,
    expected_h_of_z,
    expfam_bound,
    generalized_gamma_model,
    gg_bound,
    integrate_interval,
    laplace_scale_model,
    mse_closed_form,
    mse_monte_carlo,
    normal_mean_model,
    normal_variance_model,
    reference_test_function,
    result_rows_to_csv,
    result_rows_to_json,
    run_simulation,
    table1,
    theorem_bound,
    third_abs_moment,
    third_abs_moment_holder_gg,
)
from test_bounds import canonical_exp_inputs, matches_printed_3dp

H = reference_test_function()

TABLE_NEW_BOUNDS = {10: 0.321, 100: 0.101, 1000: 0.032, 10_000: 0.010, 100_000: 0.003}
TABLE_AR_BOUNDS = {10: 11.888, 100: 3.401, 1000: 1.058, 10_000: 0.333, 100_000: 0.105}


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


@pytest.fixture(scope="module")
def full_table():
    """The five-row table at the full trial count and default seed."""
    start = time.perf_counter()
    rows = table1(trials=10_000)
    return rows, time.perf_counter() - start


def test_criterion_1_table_bound_parity(full_table):
    with criterion(1, "table bound columns match the published values at 3 d.p."):
        rows, _ = full_table
        start = time.perf_counter()
        new_col = {n: exp_noncanonical_bound(n, H).total for n in TABLE_NEW_BOUNDS}
        ar_col = {n: ar_bound_exp_noncanonical(n, H) for n in TABLE_AR_BOUNDS}
        bound_time = time.perf_counter() - start
        for n, printed in TABLE_NEW_BOUNDS.items():
            assert matches_printed_3dp(new_col[n], printed), (n, new_col[n])
        for n, printed in TABLE_AR_BOUNDS.items():
            assert matches_printed_3dp(ar_col[n], printed), (n, ar_col[n])
        # The simulation rows carry the same bounds.
        for r in rows:
            assert r.bound_new == new_col[r.config.n]
            assert r.bound_ar == ar_col[r.config.n]
        assert bound_time < 1.0


def test_criterion_2_table_empirical_behavior(full_table):
    with criterion(2, "empirical distances sit below the bounds in the expected band"):
        rows, elapsed = full_table
        emp = [r.empirical_distance for r in rows]
        for r in rows:
            assert r.empirical_distance < r.bound_new, r.config.n
            assert 1e-4 <= r.empirical_distance <= 2e-2, (r.config.n, r.empirical_distance)
        inversions = sum(1 for a, b in zip(emp, emp[1:]) if b > a)
        assert inversions <= 1, emp
        assert elapsed < 120.0


def test_criterion_3_expected_h_oracle():
    with criterion(3, "E[h(Z)] quadrature returns 0.379 at 3 d.p."):
        val = expected_h_of_z(H)
        assert round(val, 3) == 0.379
        assert abs(val - 0.37894) <= 1e-5


def test_criterion_4_exponential_third_moment():
    with criterion(4, "quadrature third moment of the exponential equals (12/e - 2) mu^3"):
        m = exp_noncanonical_model()
        for mu in (1.0, 2.0):
            # Just inside the open support, to 60 means: the mass beyond is e^-60.
            val = integrate_interval(
                lambda x: abs(x - mu) ** 3 * density(m, x, mu), 6e-12 * mu, 60.0 * mu, tol=1e-11
            )
            assert val == pytest.approx(EXP_THIRD_ABS_MOMENT * mu**3, rel=1e-7)
        assert EXP_THIRD_ABS_MOMENT == pytest.approx(2.414558, abs=1e-5)
        assert round(EXP_THIRD_ABS_MOMENT, 5) == pytest.approx(2.41455, abs=1e-9)


def test_criterion_5_closed_form_equivalence():
    with criterion(5, "general path equals the closed forms (1e-12 / 1e-10 relative)"):
        for n in (3, 10, 100, 10_000):
            general = theorem_bound(canonical_exp_inputs(n, 1.0)).total
            closed = exp_canonical_bound(n, H).total
            assert general == pytest.approx(closed, rel=1e-12)
        for d, p in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (1.0, 0.5)):
            for n in (10, 100):
                m = generalized_gamma_model(d=d, p=p)
                theta0 = 1.3
                mse = mse_closed_form(m, n, theta0)
                via_family = expfam_bound(m, theta0, n, theta0 / 2, H, mse).total
                closed = gg_bound(n, GeneralizedGammaParams(1.0, d, p), H).total
                assert via_family == pytest.approx(closed, rel=1e-10)


def test_criterion_6_mse_oracles():
    with criterion(6, "closed-form MSEs match seeded Monte Carlo within 3 SE"):
        for i, theta0 in enumerate((0.5, 1.0, 2.0)):
            for n in (10, 50):
                m = exp_canonical_model()
                est = mse_monte_carlo(m, theta0, n, trials=100_000, seed=900 + i)
                analytic = mse_closed_form(m, n, theta0)
                assert abs(est.value - analytic) <= 3 * est.standard_error
        for i, (d, p) in enumerate(((1.0, 1.0), (2.0, 2.0), (2.0, 1.5))):
            for n in (10, 50):
                m = generalized_gamma_model(d=d, p=p)
                est = mse_monte_carlo(m, 1.0, n, trials=100_000, seed=950 + i)
                analytic = mse_closed_form(m, n, 1.0)
                assert abs(est.value - analytic) <= 3 * est.standard_error
        exponential = generalized_gamma_model(d=1.0, p=1.0)
        for n in (1, 7, 100, 9999):
            for theta in (1.0, 3.0):
                got = mse_closed_form(exponential, n, theta)
                assert abs(got - theta**2 / n) <= 1e-12 * theta**2


def test_criterion_7_order_property():
    with criterion(7, "sqrt(n) * bound varies by < 10% over n in 1e2..1e6"):
        # "Variation" is the coefficient of variation (std/mean) of the
        # scaled values across the grid; second-order terms still move the
        # n=100 point, so a plain range ratio would overstate the spread.
        grids = {
            "exp-canonical": lambda n: exp_canonical_bound(n, H).total,
            "exp-noncanonical": lambda n: exp_noncanonical_bound(n, H).total,
            "gg(2,1.5)": lambda n: gg_bound(n, GeneralizedGammaParams(1.0, 2.0, 1.5), H).total,
        }
        for name, f in grids.items():
            vals = np.array([math.sqrt(n) * f(n) for n in (10**2, 10**3, 10**4, 10**5, 10**6)])
            assert np.all(np.isfinite(vals)) and np.all(vals > 0)
            cv = float(np.std(vals) / np.mean(vals))
            assert cv < 0.10, (name, cv, vals.tolist())


def test_criterion_8_dominance_and_collapse():
    with criterion(8, "AR dominance, identity collapse, and the fourth-moment direction"):
        for n in (1, 3, 10, 100, 10**3, 10**4, 10**5, 10**6):
            assert ar_bound_exp_noncanonical(n, H) >= exp_noncanonical_bound(n, H).total
        identity_models = [
            (exp_noncanonical_model(), 2.0),
            (laplace_scale_model(), 1.5),
            (normal_mean_model(sigma=1.5), 0.3),
            (normal_variance_model(mu=0.0), 1.2),
            (generalized_gamma_model(d=1.0, p=1.0), 0.8),
        ]
        for m, theta0 in identity_models:
            bd = expfam_bound(m, theta0, 25, 0.3, H, mse=mse_closed_form(m, 25, theta0))
            assert bd.tail_term == 0.0 and bd.taylor_term == 0.0, m.name
        for d, p in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (1.0, 0.5)):
            m = generalized_gamma_model(d=d, p=p)
            exact = third_abs_moment(m, 1.0)
            holder = third_abs_moment_holder_gg(GeneralizedGammaParams(1.0, d, p))
            assert exact <= holder, (d, p)


def test_criterion_9_determinism():
    with criterion(9, "equal seeds give byte-identical reports"):
        config = SimulationConfig("exp-noncanonical", 2.0, 1000, 10_000, 5150, H)
        a, b = run_simulation(config), run_simulation(config)
        assert a == b
        assert result_rows_to_csv([a]) == result_rows_to_csv([b])
        assert result_rows_to_json([a]) == result_rows_to_json([b])
        rows_a = table1(trials=1000, seed=66)
        rows_b = table1(trials=1000, seed=66)
        assert result_rows_to_csv(rows_a).encode() == result_rows_to_csv(rows_b).encode()
        assert result_rows_to_json(rows_a).encode() == result_rows_to_json(rows_b).encode()


def test_mle_identity_on_simulated_trials():
    # Companion check: the defining identity |D(theta_hat) - mean T| holds
    # on fresh draws for a spread of models (the harness also enforces it
    # internally on every trial).  It holds for any sample inside the
    # support, so the draws are lognormal on (0, inf) and normal on the line.
    import numpy as np

    from mlebounds import mle

    rng = np.random.default_rng(31337)
    for m, theta0 in [
        (exp_canonical_model(), 1.0),
        (generalized_gamma_model(d=2.0, p=1.5), 1.2),
        (laplace_scale_model(), 0.9),
    ]:
        for _ in range(200):
            if m.support[0] == 0.0:
                xs = theta0 * rng.lognormal(0.0, 1.0, 30)
            else:
                xs = rng.normal(0.0, theta0, 30)
            theta_hat = mle(m, xs)
            assert abs(d_value(m, theta_hat) - float(np.mean(m.T(xs)))) <= 1e-10

"""Seeded Monte Carlo estimation of the true normal-approximation distance.

Protocol per configuration: for each of ``trials`` independent trials,
draw the mean of T over n observations at theta0 by :func:`sample_model`,
from the closed-form law of the sum of T (Gamma, Normal or chi-square for
every built-in family) rather than the n observations themselves, which the
MLE depends on only through that mean; so a trial costs the same at every n.
Invert D to get the MLE, standardize it by sqrt(n i(theta0)), average the
test function over the trials, and report the absolute gap to E[h(Z)].
Each result row also carries the matching closed-form bound (and the AR
reference bound where one exists), so the estimated distance can be
checked against its certificate.  :func:`mse_monte_carlo` estimates the
MLE's mean squared error from the same sampler.

Reproducibility contract: trials are processed in fixed chunks of 4096,
each chunk drawing from its own counter-based Philox stream derived by
hashing (seed, chunk_index) through numpy's SeedSequence spawn keys, so the
random stream depends on the seed alone and the first k * 4096 trials of a
run do not depend on ``trials``.  A chunk's accumulators are stacked into
one block and summed by one exact extraction, which equals ``math.fsum`` of
each accumulator bit for bit, and the chunk sums are combined by
``math.fsum`` in chunk order, so the result is bit-identical for a fixed
config regardless of how chunks might be scheduled, and a call holds one
chunk's arrays at a time, whatever ``trials`` is.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import ConsistencyError, DomainError, _require_int, _require_real
from .bounds import (
    TestFunction,
    _require_test_function,
    ar_bound_exp_noncanonical,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    reference_test_function,
)
from .models import ExpFamilyModel, _d, _no_mle, _require_theta, fisher_info, make_model
from .moments import mse_closed_form
from .special import _exact_row_sums

__all__ = [
    "MonteCarloEstimate",
    "SimulationConfig",
    "SimulationResult",
    "TABLE_SAMPLE_SIZES",
    "TABLE_SEED",
    "iter_mle_chunks",
    "mse_monte_carlo",
    "result_rows_to_csv",
    "result_rows_to_json",
    "run_simulation",
    "sample_model",
    "table1",
]

# Sample sizes of the bundled five-row verification table.
TABLE_SAMPLE_SIZES = (10, 100, 1000, 10000, 100000)

# Default seed for the bundled table.
TABLE_SEED = 99991

# Seeds are unsigned 64-bit integers.
_SEED_MAX = 2**64 - 1

# Trials per chunk.  The chunk layout fixes the random stream, so it is a
# constant: the stream depends on the seed alone.
_CHUNK = 4096


def sample_model(m: ExpFamilyModel, theta0: float, rng: np.random.Generator, size, n: int):
    """Draw mean T over n observations at theta0 (the sufficient statistic's
    mean) from the model's ``sample_tbar``: one draw when ``size`` is None,
    else ``size`` >= 0 draws.  The harness's one sampler; the benchmark's
    tracer and per-layer metrics address the sampling layer by this name,
    which it keeps from when it drew observations.  n has no default, so a
    call in that old form (m, theta0, rng, size) raises TypeError instead
    of returning means of T where observations were meant.
    """
    t0 = _require_theta(m, theta0, "theta0")
    n = _require_int(n, "n")
    if size is not None:
        size = _require_int(size, "size", 0)
    if m.sample_tbar is None:
        raise DomainError(f"model {m.name!r} has no sufficient-statistic sampler (sample_tbar)")
    return m.sample_tbar(t0, n, rng, size)


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation specification: model, truth, sizes, seed, test function.

    The chunk layout is fixed, so these fields determine the random stream.
    ``theta0`` is stored as a Python float, and ``model_params`` as a dict
    copy of the caller's mapping, which it may then change without changing
    the run; whether theta0 lies in the model's parameter space is checked
    when the simulation runs.
    """

    model_id: str
    theta0: float
    n: int
    trials: int
    seed: int
    h: TestFunction
    model_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Stored back as Python numbers, so numpy scalars behave like them.
        object.__setattr__(self, "theta0", _require_real(self.theta0, "theta0", "finite"))
        for name in ("n", "trials"):
            object.__setattr__(self, name, _require_int(getattr(self, name), name))
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0, maximum=_SEED_MAX))
        object.__setattr__(self, "model_params", dict(self.model_params))
        _require_test_function(self.h)


@dataclass(frozen=True)
class SimulationResult:
    """One simulation outcome.

    ``empirical_distance`` is |mean h(standardized MLE) - E h(Z)|, and the
    raw accumulator sums are kept so that identity can be re-verified.
    ``std_mean`` and ``std_second_moment`` are the first two empirical
    moments of the standardized MLE (they should approach 0 and 1).
    ``elapsed_seconds`` is excluded from equality comparisons: two runs of
    the same seeded config compare equal even though wall time differs.
    """

    config: SimulationConfig
    empirical_distance: float
    standard_error: float
    bound_new: float
    bound_ar: float | None
    expected_h: float
    mean_h: float
    sum_h: float
    sum_h_sq: float
    std_mean: float
    std_second_moment: float
    elapsed_seconds: float = field(compare=False)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def iter_mle_chunks(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    trials: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """Yield per-chunk arrays of MLEs under the fixed chunk layout: chunk k
    holds trials k * 4096 to min((k + 1) * 4096, trials) - 1.

    Each chunk draws one value of mean T per trial from its own derived
    stream by :func:`sample_model`, solves D(theta_hat) = mean T by the
    model's closed-form ``d_inverse``, and verifies the defining identity
    |D(theta_hat) - mean T| <= 1e-10 * max(1, |mean T|) per trial; a NaN
    or infinite theta_hat fails it, naming the first failing trial.  Where
    that trial's theta_hat is finite but outside the open parameter space
    (a mean T that underflowed to 0 on an edge of the space, say), it is
    refused with DomainError as :func:`mlebounds.models.mle` refuses it.
    Memory and time per chunk do not depend on n.

    The arguments are checked when the first chunk is asked for: theta0
    must lie in the parameter space, n and trials be integers >= 1 and seed
    in [0, 2^64 - 1].
    """
    if m.sample_tbar is None or m.d_inverse is None:
        raise DomainError(
            f"model {m.name!r} has no sufficient-statistic sampler "
            "(sample_tbar with a closed-form d_inverse)"
        )
    theta0 = _require_theta(m, theta0, "theta0")
    n = _require_int(n, "n")
    trials = _require_int(trials, "trials")
    seed = _require_int(seed, "seed", 0, maximum=_SEED_MAX)
    for chunk_index, start in enumerate(range(0, trials, _CHUNK)):
        count = min(_CHUNK, trials - start)
        # The module-level name, so a wrapper installed on it sees each draw.
        tbar = np.asarray(sample_model(m, theta0, _chunk_rng(seed, chunk_index), count, n=n))
        with np.errstate(all="ignore"):  # a non-finite theta_hat fails the check
            theta_hat = np.asarray(m.d_inverse(tbar), dtype=float)
            gap = _d(m, theta_hat)
            gap -= tbar
        limit = np.abs(tbar)
        np.maximum(limit, 1.0, out=limit)
        held = np.abs(gap, out=gap) <= np.multiply(limit, 1e-10, out=limit)
        if not held.all():
            bad = int(np.argmin(held))
            theta = float(theta_hat[bad])
            if math.isfinite(theta) and not m.contains_theta(theta):
                raise _no_mle(m, float(tbar[bad]), f"trial {start + bad}: ")
            raise ConsistencyError(
                f"MLE identity violated at trial {start + bad}: "
                f"|D(theta_hat) - mean T| = {float(gap[bad])!r}"
            )
        yield theta_hat


def _chunk_sums(chunks: Iterator[np.ndarray], terms) -> list[float]:
    """The sum over every trial of each array that ``terms(theta_hats)``
    returns for a chunk.  A chunk's arrays are stacked into one block and
    summed by one extraction, ``_exact_row_sums``, which equals
    ``math.fsum`` of each array bit for bit; the chunk sums are then merged
    by ``math.fsum`` in chunk order.  So each chunk's sum is rounded once
    and their merge once more: the total need not be the exactly rounded
    sum over every trial, though it is bit-reproducible."""
    per_chunk = [_exact_row_sums(np.array(terms(theta_hats))) for theta_hats in chunks]
    return [math.fsum(sums) for sums in zip(*per_chunk)]


def _mean_and_se(total: float, total_sq: float, trials: int) -> tuple[float, float]:
    """Sample mean and its standard error from the sums of x and x^2."""
    var = max(0.0, (total_sq - total * total / trials) / (trials - 1)) if trials > 1 else 0.0
    return total / trials, math.sqrt(var / trials)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A seeded Monte Carlo estimate with its standard error."""

    value: float
    standard_error: float
    trials: int
    seed: int


def mse_monte_carlo(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    trials: int,
    seed: int,
) -> MonteCarloEstimate:
    """Empirical MSE of the MLE: the mean of (theta_hat - theta0)^2 over
    seeded trials, with its standard error.

    Sampling and the sums (each chunk's exactly rounded, merged by
    ``math.fsum`` in chunk order) are those of :func:`run_simulation`, so
    the result is bit-reproducible for a fixed seed.
    """
    # iter_mle_chunks checks the rest; these two are used here as well.
    trials = _require_int(trials, "trials", 1000)
    seed = _require_int(seed, "seed", 0, maximum=_SEED_MAX)

    def terms(theta_hats):
        sq = theta_hats - theta0
        sq *= sq
        return sq, sq * sq

    total, total_sq = _chunk_sums(iter_mle_chunks(m, theta0, n, trials, seed), terms)
    mean, standard_error = _mean_and_se(total, total_sq, trials)
    return MonteCarloEstimate(value=mean, standard_error=standard_error, trials=trials, seed=seed)


def _default_epsilon(theta0: float, fraction: float) -> float:
    """epsilon = fraction * |theta0|, or 1 where that is 0 for a nonzero
    fraction: at theta0 = 0, which only identity-D models admit and where
    epsilon is inert, or at a theta0 so small that the product underflows."""
    epsilon = fraction * abs(theta0)
    return 1.0 if epsilon == 0.0 and fraction != 0.0 else epsilon


def _attach_bounds(config: SimulationConfig, m: ExpFamilyModel) -> tuple[float, float | None]:
    """Closed-form bound for the config's model ``m``, plus the AR bound
    when it exists.

    The AR reference has a usable closed form in exactly two situations:
    the mean-parametrized exponential model, and canonical families (where
    it coincides with the new bound).  The registry id ``config.model_id``
    picks the published closed forms of the two exponential models.
    """
    theta0, n, h = config.theta0, config.n, config.h
    if config.model_id == "exp-noncanonical":
        return exp_noncanonical_bound(n, h).total, ar_bound_exp_noncanonical(n, h)
    if config.model_id == "exp-canonical":
        new = exp_canonical_bound(n, h).total
        return new, new
    mse = mse_closed_form(m, n, theta0)
    new = expfam_bound(m, theta0, n, _default_epsilon(theta0, 0.5), h, mse).total
    return new, (new if m.is_canonical else None)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one seeded simulation and return its result row.

    Deterministic: the same config always produces the same result (up to
    the wall-time field), independent of chunk scheduling.
    """
    start_time = time.perf_counter()
    m = make_model(config.model_id, **config.model_params)
    theta0, n, trials = config.theta0, config.n, config.trials
    h_fn = config.h.h
    expected = config.h.expected_h
    scale = math.sqrt(n * fisher_info(m, theta0))

    def terms(theta_hats):
        u = theta_hats - theta0
        u *= scale
        hv = np.asarray(h_fn(u), dtype=float)
        return hv, hv * hv, u, u * u

    # Bounds first: a config they refuse fails before any sampling.
    bound_new, bound_ar = _attach_bounds(config, m)
    sum_h, sum_h2, sum_u, sum_u2 = _chunk_sums(
        iter_mle_chunks(m, theta0, n, trials, config.seed), terms
    )
    mean_h, standard_error = _mean_and_se(sum_h, sum_h2, trials)
    return SimulationResult(
        config=config,
        empirical_distance=abs(mean_h - expected),
        standard_error=standard_error,
        bound_new=bound_new,
        bound_ar=bound_ar,
        expected_h=expected,
        mean_h=mean_h,
        sum_h=sum_h,
        sum_h_sq=sum_h2,
        std_mean=sum_u / trials,
        std_second_moment=sum_u2 / trials,
        elapsed_seconds=time.perf_counter() - start_time,
    )


def table1(trials: int = 10000, seed: int = TABLE_SEED) -> list[SimulationResult]:
    """The bundled five-row verification table.

    Mean-parametrized exponential model at theta0 = 2 with the built-in
    test function, for n in (10, 100, 1000, 10000, 100000).  The bound
    columns are deterministic formula evaluations; the empirical column is
    a seeded random realization.
    """
    trials = _require_int(trials, "trials", 1000)
    h = reference_test_function()
    return [
        run_simulation(SimulationConfig("exp-noncanonical", 2.0, n, trials, seed, h))
        for n in TABLE_SAMPLE_SIZES
    ]


# ---------------------------------------------------------------------------
# Row serialization (shared by the CLI and the determinism tests)
# ---------------------------------------------------------------------------

CSV_HEADER = "n,empirical_distance,standard_error,new_bound,ar_bound,seed,trials"


def _row_fields(r: SimulationResult) -> dict:
    return {
        "n": r.config.n,
        "empirical_distance": r.empirical_distance,
        "standard_error": r.standard_error,
        "new_bound": r.bound_new,
        "ar_bound": r.bound_ar,
        "seed": r.config.seed,
        "trials": r.config.trials,
    }


def _csv_line(values) -> str:
    """One CSV line: floats by ``repr``, None as empty, the rest by ``str``."""
    return ",".join(
        repr(v) if isinstance(v, float) else "" if v is None else str(v) for v in values
    )


def result_rows_to_csv(rows: list[SimulationResult]) -> str:
    """Serialize result rows as CSV with round-trip float precision."""
    lines = [CSV_HEADER] + [_csv_line(_row_fields(r).values()) for r in rows]
    return "\n".join(lines) + "\n"


def result_rows_to_json(rows: list[SimulationResult]) -> str:
    """Serialize result rows as a JSON array with stable field order."""
    return json.dumps([_row_fields(r) for r in rows], indent=2) + "\n"

"""Seeded Monte Carlo estimation of the true normal-approximation distance.

Protocol per configuration: for each of ``trials`` independent trials,
draw the mean of T over n observations at theta0 directly from the
closed-form law of the sum of T (Gamma, Normal or chi-square for every
built-in family) rather than the n observations themselves, which the MLE
depends on only through that mean; so a trial costs the same at every n.
Invert D to get the MLE, standardize it by sqrt(n i(theta0)), average the
test function over the trials, and report the absolute gap to E[h(Z)].
Each result row also carries the matching closed-form bound (and the AR
reference bound where one exists), so the estimated distance can be
checked against its certificate.

Reproducibility contract: trials are processed in fixed chunks (default
4096, at most ``MAX_CHUNK_SIZE``), each chunk drawing from its own
counter-based Philox stream derived by hashing (seed, chunk_index) through
numpy's SeedSequence spawn keys.  Each per-chunk sum is exactly rounded by
:func:`~mlebounds.special.exact_sum`, which equals ``math.fsum`` bit for
bit, and the chunk sums are combined by ``math.fsum`` in chunk order, so
the result is bit-identical for a fixed config regardless of how chunks
might be scheduled.
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
    ar_bound_exp_noncanonical,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    reference_test_function,
)
from .models import ExpFamilyModel, _require_theta, fisher_info, make_model
from .moments import mse_closed_form
from .special import exact_sum

__all__ = [
    "MAX_CHUNK_SIZE",
    "SimulationConfig",
    "SimulationResult",
    "TABLE_SAMPLE_SIZES",
    "TABLE_SEED",
    "iter_mle_chunks",
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

# Largest trials-per-chunk: a chunk holds a few float64 arrays of this
# length at once, 8 MiB each.
MAX_CHUNK_SIZE = 2**20


def sample_model(m: ExpFamilyModel, theta0: float, rng: np.random.Generator, size=None):
    """Draw from f(. | theta0) through the model's ``sample`` field."""
    t0 = _require_theta(m, theta0, "theta0")
    if m.sample is None:
        raise DomainError(f"model {m.name!r} has no per-observation sampler")
    return m.sample(t0, rng, size)


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation specification: model, truth, sizes, seed, test function.

    ``chunk_size`` is the number of trials per chunk, from 1 to
    ``MAX_CHUNK_SIZE``; it fixes the random stream, so it is part of the
    config.  ``theta0`` is stored as a Python float; whether it lies in the
    model's parameter space is checked when the simulation runs.
    """

    model_id: str
    theta0: float
    n: int
    trials: int
    seed: int
    h: TestFunction
    model_params: Mapping[str, float] = field(default_factory=dict)
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        # Stored back as Python numbers, so numpy scalars behave like them.
        object.__setattr__(self, "theta0", _require_real(self.theta0, "theta0", "finite"))
        for name, maximum in (("n", None), ("trials", None), ("chunk_size", MAX_CHUNK_SIZE)):
            value = _require_int(getattr(self, name), name, maximum=maximum)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0, maximum=_SEED_MAX))


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


def _chunks(trials: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    for index, start in enumerate(range(0, trials, chunk_size)):
        yield index, min(chunk_size, trials - start)


def iter_mle_chunks(
    m: ExpFamilyModel,
    theta0: float,
    n: int,
    trials: int,
    seed: int,
    chunk_size: int = 4096,
) -> Iterator[np.ndarray]:
    """Yield per-chunk arrays of MLEs under the deterministic chunk layout.

    Each chunk draws ``count`` values of mean T, one per trial, from its own
    derived stream through the model's ``sample_tbar`` (the closed-form law
    of the sum of T over n observations), solves D(theta_hat) = mean T by
    the model's closed-form ``d_inverse``, and verifies the defining
    identity |D(theta_hat) - mean T| <= 1e-10 * max(1, |mean T|) per trial.
    Memory and time per chunk do not depend on n.

    The arguments are checked when the first chunk is asked for: theta0
    must lie in the parameter space, n and trials be integers >= 1, seed
    in [0, 2^64 - 1] and chunk_size in [1, ``MAX_CHUNK_SIZE``].
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
    chunk_size = _require_int(chunk_size, "chunk_size", maximum=MAX_CHUNK_SIZE)
    for chunk_index, count in _chunks(trials, chunk_size):
        tbar = np.asarray(m.sample_tbar(theta0, n, _chunk_rng(seed, chunk_index), count))
        theta_hat = np.asarray(m.d_inverse(tbar), dtype=float)
        dval = np.asarray(m.A1(theta_hat)) / np.asarray(m.k1(theta_hat))
        gap = np.abs(dval - tbar)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(tbar))))
        if np.any(gap > tol):
            bad = int(np.argmax(gap > tol))
            raise ConsistencyError(
                f"MLE identity violated at trial {chunk_index * chunk_size + bad}: "
                f"|D(theta_hat) - mean T| = {float(gap[bad])!r}"
            )
        yield theta_hat


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
    epsilon = abs(theta0) / 2.0
    if epsilon == 0.0:
        # Only identity-q models admit theta0 = 0, and there epsilon is
        # inert (the tail/Taylor terms vanish); any positive value works.
        epsilon = 1.0
    new = expfam_bound(m, theta0, n, epsilon, h, mse).total
    return new, (new if m.is_canonical else None)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one seeded simulation and return its result row.

    Deterministic: the same config always produces the same result (up to
    the wall-time field), independent of chunk scheduling.
    """
    start_time = time.perf_counter()
    m = make_model(config.model_id, **dict(config.model_params))
    theta0 = config.theta0
    n = config.n
    h_fn = config.h.h
    expected = config.h.expected_h
    scale = math.sqrt(n * fisher_info(m, theta0))

    sums_h: list[float] = []
    sums_h2: list[float] = []
    sums_u: list[float] = []
    sums_u2: list[float] = []
    for theta_hats in iter_mle_chunks(
        m, theta0, n, config.trials, config.seed, config.chunk_size
    ):
        u = scale * (theta_hats - theta0)
        hv = np.asarray(h_fn(u), dtype=float)
        sums_h.append(exact_sum(hv))
        sums_h2.append(exact_sum(hv * hv))
        sums_u.append(exact_sum(u))
        sums_u2.append(exact_sum(u * u))

    trials = config.trials
    sum_h = math.fsum(sums_h)
    sum_h2 = math.fsum(sums_h2)
    mean_h = sum_h / trials
    if trials > 1:
        var_h = max(0.0, (sum_h2 - sum_h * sum_h / trials) / (trials - 1))
    else:
        var_h = 0.0
    bound_new, bound_ar = _attach_bounds(config, m)
    return SimulationResult(
        config=config,
        empirical_distance=abs(mean_h - expected),
        standard_error=math.sqrt(var_h / trials),
        bound_new=bound_new,
        bound_ar=bound_ar,
        expected_h=expected,
        mean_h=mean_h,
        sum_h=sum_h,
        sum_h_sq=sum_h2,
        std_mean=math.fsum(sums_u) / trials,
        std_second_moment=math.fsum(sums_u2) / trials,
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
    rows = []
    for n in TABLE_SAMPLE_SIZES:
        config = SimulationConfig(
            model_id="exp-noncanonical",
            theta0=2.0,
            n=n,
            trials=trials,
            seed=seed,
            h=h,
        )
        rows.append(run_simulation(config))
    return rows


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


def result_rows_to_csv(rows: list[SimulationResult]) -> str:
    """Serialize result rows as CSV with round-trip float precision."""
    lines = [CSV_HEADER]
    for r in rows:
        f = _row_fields(r)
        ar = "" if f["ar_bound"] is None else repr(f["ar_bound"])
        lines.append(
            f"{f['n']},{f['empirical_distance']!r},{f['standard_error']!r},"
            f"{f['new_bound']!r},{ar},{f['seed']},{f['trials']}"
        )
    return "\n".join(lines) + "\n"


def result_rows_to_json(rows: list[SimulationResult]) -> str:
    """Serialize result rows as a JSON array with stable field order."""
    return json.dumps([_row_fields(r) for r in rows], indent=2) + "\n"

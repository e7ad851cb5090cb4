#!/usr/bin/env python3
"""Where does one simulation chunk spend its time?

Prints one JSON object: for each built-in family at n = 8, the median time
of each stage of one 4096-trial chunk as ``run_simulation`` runs it, in
microseconds:

- "stream": the chunk's counter-based stream, derived from (seed, chunk);
- "sample_model": the draw of mean T for every trial;
- "d_inverse": the closed-form MLE with its per-trial identity check
  |D(theta_hat) - mean T| <= 1e-10 max(1, |mean T|);
- "h_terms": the standardized MLE u and the block (h, h^2, u, u^2);
- "reduction": the exact row sums of that block.

The stages repeat the steps of ``iter_mle_chunks`` and ``run_simulation``
on the chunk's own data.  Each figure is a median over repeated calls on
this machine, so it moves with the machine and its load; compare figures
from one run.
"""

import json
import math
import statistics
import time

import numpy as np

from mlebounds import fisher_info, make_model, reference_test_function, sample_model
from mlebounds.models import _d
from mlebounds.montecarlo import _CHUNK, _chunk_rng
from mlebounds.special import _exact_row_sums

N = 8
SEED = 3
FAMILIES = [
    ("exp-canonical", {}, 1.3),
    ("exp-noncanonical", {}, 2.0),
    ("laplace", {}, 0.8),
    ("normal-mean", {"sigma": 1.5}, -0.4),
    ("normal-variance", {"mu": 0.5}, 1.7),
    ("weibull", {"alpha": 2.0}, 1.2),
    ("gg", {"d": 2.0, "p": 1.5}, 0.9),
]

h = reference_test_function().h


def median_us(fn, repeats=41):
    """Median time of one call of fn over ``repeats`` calls, in µs."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e6, 1)


def stage_times(model_id, params, theta0):
    m = make_model(model_id, **params)
    scale = math.sqrt(N * fisher_info(m, theta0))
    rng = _chunk_rng(SEED, 0)
    tbar = np.asarray(sample_model(m, theta0, _chunk_rng(SEED, 0), _CHUNK, n=N))

    def invert():
        with np.errstate(all="ignore"):
            theta_hat = np.asarray(m.d_inverse(tbar), dtype=float)
            gap = _d(m, theta_hat)
            gap -= tbar
        limit = np.abs(tbar)
        np.maximum(limit, 1.0, out=limit)
        if not (np.abs(gap, out=gap) <= np.multiply(limit, 1e-10, out=limit)).all():
            raise AssertionError(f"{model_id}: the MLE identity fails")
        return theta_hat

    theta_hat = invert()

    def terms():
        u = theta_hat - theta0
        u *= scale
        hv = np.asarray(h(u), dtype=float)
        return np.array((hv, hv * hv, u, u * u))

    block = terms()
    return {
        "stream": median_us(lambda: _chunk_rng(SEED, 0)),
        "sample_model": median_us(lambda: sample_model(m, theta0, rng, _CHUNK, n=N)),
        "d_inverse": median_us(invert),
        "h_terms": median_us(terms),
        "reduction": median_us(lambda: _exact_row_sums(block)),
    }


def main():
    times = {model_id: stage_times(model_id, params, t0) for model_id, params, t0 in FAMILIES}
    print(json.dumps({"n": N, "trials_per_chunk": _CHUNK, "unit": "us", "median": times}, indent=2))


if __name__ == "__main__":
    main()

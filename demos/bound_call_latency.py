#!/usr/bin/env python3
"""How long does one bound take to compute?

Prints one JSON object: the median time of one call, in microseconds, for
each bound formula on each built-in family, at n = 1000 and with the MSE
computed beforehand.  "theorem" is the general theorem assembled from the
public pieces into a BoundInputs, as a library user would build it; "cli"
is one whole `mlebounds bound` call.  The normal-variance model has no
closed-form third moment, so its bound integrates one by quadrature; it is
timed once, apart from the rest.

Each figure is the median over batches of calls on this machine, so it
moves with the machine and its load; compare figures from one run.
"""

import contextlib
import io
import json
import statistics
import time

from mlebounds import (
    BoundInputs,
    GeneralizedGammaParams,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
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
from mlebounds.cli import main

N = 1000
FAMILIES = [
    ("exp-canonical", {}, 1.3),
    ("exp-noncanonical", {}, 0.8),
    ("laplace", {}, 2.1),
    ("normal-mean", {"sigma": 1.0}, -0.7),
    ("weibull", {"alpha": 2.5}, 0.9),
    ("gg", {"d": 3.0, "p": 2.0}, 1.7),
]

h = reference_test_function()


def median_us(fn, batches=15, calls=20):
    """Median over ``batches`` of the mean time of ``calls`` calls, in µs."""
    fn()  # the first call builds the shared reference h and the CLI's parser
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - start) / calls)
    return round(statistics.median(means) * 1e6, 2)


def theorem(m, theta0, epsilon, mse):
    identity = m.is_identity
    third = third_abs_moment(m, theta0) if m.bound_moment is None else m.bound_moment(theta0)
    return theorem_bound(BoundInputs(
        n=N,
        theta0=theta0,
        epsilon=epsilon,
        fisher=fisher_info(m, theta0),
        q_prime_abs=abs(d_prime(m, theta0)),
        third_moment=third,
        mse=mse,
        sup_q_second=0.0 if identity else sup_abs_d_second(m, theta0, epsilon),
        q_is_identity=identity,
        h=h,
    ))


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


gg_params = GeneralizedGammaParams(theta=1.7, d=3.0, p=2.0)
report = {
    "unit": "us per call (median)",
    "n": N,
    "closed_form": {
        "exp-canonical": median_us(lambda: exp_canonical_bound(N, h)),
        "exp-noncanonical": median_us(lambda: exp_noncanonical_bound(N, h)),
        "ar-exp-noncanonical": median_us(lambda: ar_bound_exp_noncanonical(N, h)),
        "gg": median_us(lambda: gg_bound(N, gg_params, h)),
    },
    "expfam": {},
    "theorem": {},
    "ar-canonical": {},
}
for model_id, params, theta0 in FAMILIES:
    m = make_model(model_id, **params)
    epsilon = 0.5 * abs(theta0)
    mse = mse_closed_form(m, N, theta0)
    report["expfam"][m.name] = median_us(lambda: expfam_bound(m, theta0, N, epsilon, h, mse))
    report["theorem"][m.name] = median_us(lambda: theorem(m, theta0, epsilon, mse))
    if m.is_canonical:
        report["ar-canonical"][m.name] = median_us(
            lambda: ar_bound_canonical_expfam(m, theta0, N, epsilon, h, mse)
        )
argv = ["bound", "--formula", "expfam", "--model", "exp-canonical", "--theta0", "1.3",
        "--n", str(N), "--format", "json"]
report["cli"] = {"bound --formula expfam --model exp-canonical": median_us(
    lambda: quiet_main(argv), batches=5, calls=5
)}

m = make_model("normal-variance")
mse = mse_closed_form(m, N, 1.6)
start = time.perf_counter()
expfam_bound(m, 1.6, N, 0.8, h, mse)
report["quadrature"] = {
    f"expfam {m.name}, third moment by quadrature, one call": round(
        (time.perf_counter() - start) * 1e6, 1
    ),
}
print(json.dumps(report, indent=2))

#!/usr/bin/env python3
"""Estimated distance versus certified bound, across sample sizes.

Reproduces the bundled verification table: exponential data with mean 2,
MLE = sample mean, standardized by sqrt(n i(theta0)).  The empirical
column estimates |E h(standardized MLE) - E h(Z)| from seeded trials; the
bound columns are deterministic formula evaluations.  The estimated
distance is a lower bound on the true distance (one fixed h instead of the
supremum), so it should sit well below the certificates.

Each trial draws the mean of the n observations directly from its Gamma
law, so the full-strength run (10000 trials per row) takes well under a
second at every n; pass another trial count as the first argument.
"""

import sys

from mlebounds import result_rows_to_csv, table1

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
rows = table1(trials=trials)

print(f"{'n':>8} {'empirical':>12} {'std_err':>10} {'new bound':>12} {'AR bound':>12}")
for r in rows:
    print(
        f"{r.config.n:>8} {r.empirical_distance:>12.5f} {r.standard_error:>10.5f} "
        f"{r.bound_new:>12.3f} {r.bound_ar:>12.3f}"
    )

print()
print("machine-readable form (what `mlebounds table1 --format csv` emits):")
print(result_rows_to_csv(rows), end="")

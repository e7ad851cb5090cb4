#!/usr/bin/env python3
"""Closed-form MSE formulas against their Monte Carlo shadows.

The tail and Taylor terms of the bounds consume E[(theta_hat - theta0)^2].
Every built-in model has a closed form for it; this script re-estimates a
few of them by seeded simulation and prints the agreement in units of the
Monte Carlo standard error.
"""

from mlebounds import (
    exp_canonical_model,
    generalized_gamma_model,
    laplace_scale_model,
    mse_closed_form,
    mse_monte_carlo,
)

cases = [
    ("exp-canonical, theta0=1, n=10", exp_canonical_model(), 1.0, 10),
    ("exp-canonical, theta0=2, n=50", exp_canonical_model(), 2.0, 50),
    ("laplace, sigma=1.5, n=25", laplace_scale_model(), 1.5, 25),
    ("gg(d=2, p=2), theta0=1, n=20", generalized_gamma_model(d=2.0, p=2.0), 1.0, 20),
]

print(f"{'case':<32} {'analytic':>12} {'monte carlo':>12} {'gap / SE':>10}")
for label, model, theta0, n in cases:
    analytic = mse_closed_form(model, n, theta0)
    est = mse_monte_carlo(model, theta0, n, trials=100_000, seed=2718)
    pull = (est.value - analytic) / est.standard_error
    print(f"{label:<32} {analytic:>12.6f} {est.value:>12.6f} {pull:>10.2f}")

print()
print("the canonical-exponential MSE (n+2) theta^2 / ((n-1)(n-2)) needs n >= 3:")
for n in (3, 10, 100):
    print(f"  n={n:<5} -> {mse_closed_form(exp_canonical_model(), n, 1.0):.6f}")

print()
print("for d = p = 1 the gamma-ratio MSE collapses to theta^2 / n exactly:")
exponential = generalized_gamma_model(d=1.0, p=1.0)
for n in (1, 10, 1000):
    got = mse_closed_form(exponential, n, 1.0)
    print(f"  n={n:<5} -> {got:.12f}  (1/n = {1.0 / n:.12f})")

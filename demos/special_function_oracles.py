#!/usr/bin/env python3
"""The numerical primitives behind the bounds, checked against themselves.

Shows the deterministic quadrature at work on the reference expectation
E[h(Z)], the exponential third-moment constant 12/e - 2, and the
generalized-gamma MSE factor, a difference of gamma-function ratios that
behaves like 1/(n d p), which is what makes the tail and Taylor terms small.
"""

import math

from mlebounds import (
    EXP_THIRD_ABS_MOMENT,
    density,
    exp_noncanonical_model,
    expected_h_of_z,
    gg_mse_factor,
    integrate_interval,
    reference_test_function,
)

h = reference_test_function()
print(f"reference test function: h(x) = 1/(x^2+2)")
print(f"  ||h||  = {h.norm_h}")
print(f"  ||h'|| = {h.norm_h_prime!r}  (= 3 sqrt(6)/32)")
print(f"  E[h(Z)] by quadrature = {expected_h_of_z(h):.6f}  (0.379 at 3 d.p.)")

print()
mu = 2.0
m = exp_noncanonical_model()
lo, hi = m.integration_window(mu)
third = integrate_interval(lambda x: abs(x - mu) ** 3 * density(m, x, mu), lo, hi)
print("third absolute moment of an exponential with mean 2:")
print(f"  quadrature:          {third:.10f}")
print(f"  (12/e - 2) * mu^3:   {EXP_THIRD_ABS_MOMENT * mu**3:.10f}")

print()
print("the theta-free generalized-gamma MSE factor")
print("  M = 1 - 2 (p/(nd))^(1/p) G(z + 1/p)/G(z) + (p/(nd))^(2/p) G(z + 2/p)/G(z),  z = nd/p,")
print("has its gamma ratios taken in log space with the shifts 1/p and 2/p kept exact;")
print("Stirling's expansion of each ratio gives n*M -> 1/(d p), with a gap of order 1/n:")
d, p = 2.0, 1.5
limit = 1.0 / (d * p)
for n in (10, 1000, 100_000):
    nm = n * gg_mse_factor(n, d, p)
    print(f"  n={n:>7}: n*M = {nm:.10f}   gap to the limit {limit:.6f} = {nm - limit:.2e}")

#!/usr/bin/env python3
"""The numerical primitives behind the bounds, checked against themselves.

Shows the deterministic quadrature at work on the reference expectation
E[h(Z)] and the exponential third-moment constant 12/e - 2; the Gamma third
moment m3(a) = E|G - a|^3 against quadrature for a generalized-gamma shape,
and the normal-variance constant 8 m3(1/2); and the generalized-gamma MSE
factor, a difference of gamma-function ratios that behaves like 1/(n d p),
which is what makes the tail and Taylor terms small.
"""

import math

from mlebounds import (
    EXP_THIRD_ABS_MOMENT,
    d_value,
    density,
    exp_noncanonical_model,
    expected_h_of_z,
    gamma_third_abs_moment,
    generalized_gamma_model,
    gg_mse_factor,
    integrate_interval,
    normal_variance_model,
    reference_test_function,
    third_abs_moment,
)

h = reference_test_function()
print(f"reference test function: h(x) = 1/(x^2+2)")
print(f"  ||h||  = {h.norm_h}")
print(f"  ||h'|| = {h.norm_h_prime!r}  (= 3 sqrt(6)/32)")
print(f"  E[h(Z)] by quadrature = {expected_h_of_z(h):.6f}  (0.379 at 3 d.p.)")

print()
mu = 2.0
m = exp_noncanonical_model()
# From just inside the open support (the density is 0 at the end itself) to
# 60 means, past which the exponential's mass is e^-60.
lo, hi = 6e-12 * mu, 60.0 * mu
third = integrate_interval(lambda x: abs(x - mu) ** 3 * density(m, x, mu), lo, hi)
print("third absolute moment of an exponential with mean 2:")
print(f"  quadrature:          {third:.10f}")
print(f"  (12/e - 2) * mu^3:   {EXP_THIRD_ABS_MOMENT * mu**3:.10f}")

print()
d, p, theta = 2.0, 1.5, 1.0
m = generalized_gamma_model(d=d, p=p)
# T = X^p is Gamma(d/p) at theta = 1: the window ends where T is 45 plus 40
# standard deviations past its mean d/p, and starts at 1e-13 of that end,
# below which the mass is of order (1e-13)^d.
a = d / p
hi = theta * (a + 40.0 * math.sqrt(a) + 45.0) ** (1.0 / p)
lo = 1e-13 * hi
d0 = d_value(m, theta)
third = integrate_interval(lambda x: abs(x**p - d0) ** 3 * density(m, x, theta), lo, hi, 1e-11)
print(f"gg(d={d}, p={p}) at theta = 1: T = X^p is Gamma(d/p), so E|T - D|^3 = m3(d/p) with")
print("m3(a) = 4 (a + 1) a^a e^-a / Gamma(a) + 2 a (1 - 2 P(a, a)):")
print(f"  quadrature:          {third:.14f}")
print(f"  m3({d / p:.6f}):        {gamma_third_abs_moment(d / p):.14f}")
print()
print("normal variance: T = theta chi^2_1 = 2 theta Gamma(1/2), so E|T - theta|^3 = 8 m3(1/2) theta^3:")
print(f"  quadrature / theta^3 at theta = 1.3: {third_abs_moment(normal_variance_model(), 1.3) / 1.3**3:.14f}")
print(f"  8 m3(1/2):                           {8.0 * gamma_third_abs_moment(0.5):.14f}")

print()
print("the theta-free generalized-gamma MSE factor")
print("  M = 1 - 2 z^(-1/p) Gamma(z + 1/p)/Gamma(z) + z^(-2/p) Gamma(z + 2/p)/Gamma(z),  z = nd/p,")
print("is expm1(G(z, 2/p)) - 2 expm1(G(z, 1/p)), where G(z, a) = ln Gamma(z + a) - ln Gamma(z)")
print("- a ln z is computed as the O(1/z) quantity it is; so n*M -> 1/(d p) shows its gap")
print("of order 1/n at every n:")
d, p = 2.0, 1.5
limit = 1.0 / (d * p)
for n in (10, 1000, 100_000, 10**7, 10**9):
    nm = n * gg_mse_factor(n, d, p)
    print(f"  n={n:>10}: n*M = {nm:.10f}   gap to the limit {limit:.6f} = {nm - limit:.2e}")

"""Walk through the exact-arithmetic layer of the package.

Builds a few members of the polynomial family, shows the sign pattern and
the end-coefficient ratio, the scaled-coefficient chain behind the |z| < n+1
containment disk, the rational Gamma ratio, and the Jacobi correspondence.
Everything printed here is exact: no floats appear in this demo.
"""

from fractions import Fraction

from lemnizeros import (
    build_polynomial,
    ek_scaled_coefficients,
    gamma_ratio_exact,
    jacobi_correspondence,
    pochhammer,
)

print("Pochhammer warm-up: (3/2)_2 =", pochhammer(Fraction(3, 2), 2))

for n in (1, 2, 5):
    p = build_polynomial(n)
    print(f"\nn = {n}: coefficients c_0..c_{n}")
    for m, c in enumerate(p.coefficients):
        print(f"  c_{m} = {c}")
    print(f"  end ratio |c_0/c_{n}| = {p.end_ratio()}  (should be (3n+1)/(n+1) = {Fraction(3*n+1, n+1)})")

print("\nScaled chain a_m = |c_m| (n+1)^m  (strictly increasing <=> zeros in |z| < n+1):")
for n in (1, 2, 3):
    a, increasing = ek_scaled_coefficients(build_polynomial(n))
    print(f"  n = {n}: {a}  strictly increasing: {increasing}")
print("  (n = 1 is the honest boundary case: a_0 = a_1, and its zero sits at |z| = n+1.)")

print("\nExact Gamma ratio Gamma((n+1)/2) Gamma(n+1) / Gamma((3n+3)/2):")
for n in range(1, 7):
    print(f"  n = {n}: {gamma_ratio_exact(n)}")

print("\nJacobi correspondence (verified by exact coefficient comparison):")
for n in (1, 2, 8):
    c = jacobi_correspondence(n)
    print(
        f"  n = {n}: alpha = {c.alpha}, beta = {c.beta}, "
        f"leading factor = {c.leading_factor}, w = {c.argument_map[0]} + ({c.argument_map[1]}) z"
    )
print("  alpha_n/n -> 1/2 and beta_n/n -> -1 as n grows.")

"""Walk through the exact-arithmetic layer of the package.

Builds a few members of the polynomial family, shows the sign pattern and
the end-coefficient ratio, the scaled-coefficient chain behind the |z| < n+1
containment disk, the rational Gamma ratio, and the Jacobi correspondence.
Everything printed here is exact: no floats appear in this demo.
"""

from fractions import Fraction
from math import factorial

from lemnizeros import build_polynomial, gamma_ratio_exact, pochhammer

print("Pochhammer warm-up: (3/2)_2 =", pochhammer(Fraction(3, 2), 2))

for n in (1, 2, 5):
    p = build_polynomial(n)
    print(f"\nn = {n}: coefficients c_0..c_{n}")
    for m, c in enumerate(p.coefficients):
        print(f"  c_{m} = {c}")
    end_ratio = abs(p.coefficients[0] / p.coefficients[n])
    print(f"  end ratio |c_0/c_{n}| = {end_ratio}  (should be (3n+1)/(n+1) = {Fraction(3*n+1, n+1)})")
    assert end_ratio == Fraction(3 * n + 1, n + 1)

print("\nScaled chain a_m = |c_m| (n+1)^m  (strictly increasing <=> zeros in |z| < n+1):")
for n in (1, 2, 3):
    a = [abs(c) * (n + 1) ** m for m, c in enumerate(build_polynomial(n).coefficients)]
    increasing = all(x < y for x, y in zip(a, a[1:]))
    print(f"  n = {n}: {a}  strictly increasing: {increasing}")
    assert increasing == (n >= 2)
print("  (n = 1 is the honest boundary case: a_0 = a_1, and its zero sits at |z| = n+1.)")

print("\nExact Gamma ratio Gamma((n+1)/2) Gamma(n+1) / Gamma((3n+3)/2):")
for n in range(1, 7):
    print(f"  n = {n}: {gamma_ratio_exact(n)}")

print("\nJacobi correspondence P_n^(alpha,beta)(1 - 2z) = leading factor * F_n(z)")
print("(checked by exact coefficient comparison in tests/test_exact.py):")
for n in (1, 2, 8):
    alpha, beta = Fraction(n + 1, 2), Fraction(-(n + 1))
    leading = pochhammer(1 + alpha, n) / factorial(n)
    print(f"  n = {n}: alpha = {alpha}, beta = {beta}, leading factor = {leading}")
print("  alpha_n/n -> 1/2 and beta_n/n -> -1 as n grows.")

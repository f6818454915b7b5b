"""Compute and certify all zeros of a degree-60 member.

The solver refines all roots simultaneously and certifies each one with an
inclusion radius: a disk guaranteed to contain a true zero (p and p' are
evaluated exactly at each root, and only the radius is rounded, upwards).
The script prints the certificates, then checks the classical consequences:
containment in |z| < n+1, at least one root outside the unit circle, the
exact product of moduli, and conjugation closure.
"""

import time
from collections import Counter

from mpmath import mp, mpf, nstr

from lemnizeros import build_polynomial, find_roots

n = 60
p = build_polynomial(n)
t0 = time.time()
rs = find_roots(p)
print(f"solved and certified n = {n} in {time.time()-t0:.1f}s "
      f"at {rs.precision_used} bits\n")

print("five roots nearest the real axis:")
for z, r, res in sorted(
    zip(rs.roots, rs.inclusion_radii, rs.residuals), key=lambda q: abs(q[0].imag)
)[:5]:
    print(f"  z = {nstr(z, 20):<46} radius {nstr(r, 3)}  |p(z)| <= {nstr(res, 3)}")

with mp.workprec(rs.precision_used):
    print("\ncertified containment: max(|z| + radius) =",
          nstr(max(abs(z) + r for z, r in zip(rs.roots, rs.inclusion_radii)), 8),
          f"< n+1 = {n+1}")
    print("unit-circle escape: max(|z| - radius) =",
          nstr(max(abs(z) - r for z, r in zip(rs.roots, rs.inclusion_radii)), 8), "> 1")
    prod = mpf(1)
    for z in rs.roots:
        prod *= abs(z)
    print("product of moduli:", nstr(prod, 25))
    print("exact target (3n+1)/(n+1): ", nstr(mpf(3 * n + 1) / (n + 1), 25))
    print("smallest real part:", nstr(min(z.real for z in rs.roots), 10), "(stays right of 1/3)")
    # at the working precision the conjugate of a root is exact
    closed = Counter(rs.roots) == Counter(z.conjugate() for z in rs.roots)
print("root set exactly closed under conjugation:", closed)
print("all inclusion disks disjoint:", rs.disks_disjoint())

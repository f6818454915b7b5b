"""Exact rational construction of the polynomial family and its identities.

Everything in this module is computed with `fractions.Fraction`; no value is
ever rounded.  The family under study is the degree-n polynomial

    F_n(z) = sum_m c_m z^m,   c_m = (-n)_m ((n+1)/2)_m / ( ((n+3)/2)_m m! )

whose coefficients alternate in sign and satisfy |c_0/c_n| = (3n+1)/(n+1).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable


def pochhammer(a: Fraction | int, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1); empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("pochhammer: k must be nonnegative")
    a = Fraction(a)
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


@dataclass(frozen=True)
class ExactPolynomial:
    """Degree-n member of the family, coefficients c_0..c_n in lowest terms.

    Invariants checked on construction: c_0 = 1, strictly alternating signs,
    and the end-coefficient ratio |c_0/c_n| = (3n+1)/(n+1).
    """

    degree: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = self.degree
        if n < 1:
            raise ValueError("ExactPolynomial: degree must be >= 1")
        if len(self.coefficients) != n + 1:
            raise ValueError("ExactPolynomial: need n+1 coefficients")
        if self.coefficients[0] != 1:
            raise ValueError("ExactPolynomial: c_0 must equal 1")
        for m, c in enumerate(self.coefficients):
            if c == 0 or (c > 0) != (m % 2 == 0):
                raise ValueError(f"ExactPolynomial: sign of c_{m} must be (-1)^{m}")
        if abs(self.coefficients[0] / self.coefficients[n]) != Fraction(3 * n + 1, n + 1):
            raise ValueError("ExactPolynomial: |c_0/c_n| != (3n+1)/(n+1)")


@lru_cache(maxsize=None)
def build_polynomial(n: int) -> ExactPolynomial:
    """Exact coefficients of the degree-n family member, cached per degree
    (the result is frozen).

    The multiplicative recurrence

        c_m = c_{m-1} * (m-1-n) * ((n+1)/2 + m-1) / ( ((n+3)/2 + m-1) * m )
            = c_{m-1} * (m-1-n) (n+2m-1) / ( (n+2m+1) m )

    telescopes: the factors (n+2m-1)/(n+2m+1) multiply to (n+1)/(n+2m+1)
    and the factors (m-1-n)/m to (-1)^m C(n, m), so

        c_m = (-1)^m C(n, m) (n+1) / (n+2m+1).

    The signed binomial is carried as an integer, each step one exact
    integer division, and each coefficient is one Fraction, reduced once;
    nothing cancels.  Rejects n = 0: a constant polynomial has no zero set
    to study.
    """
    if n < 1:
        raise ValueError("build_polynomial: n must be >= 1")
    coeffs = [Fraction(1)]
    binom = 1  # (-1)^m C(n, m)
    for m in range(1, n + 1):
        binom = binom * (m - 1 - n) // m
        coeffs.append(Fraction(binom * (n + 1), n + 2 * m + 1))
    return ExactPolynomial(n, tuple(coeffs))


@lru_cache(maxsize=None)
def _integer_coefficients(degree: int) -> tuple[tuple[int, ...], int]:
    """((C_0, ..., C_n), L) with p(z) L = sum_k C_k w^k, w = 1 - z.

    L is the lcm of the denominators of the paper's monomial coefficients
    c_m, and the C_k come from c_m L by an exact integer Taylor shift, so
    they rest on those coefficients alone.  Every C_k is positive, and
    C_k / C_0 = (b)_k / k! with b = (n+1)/2.
    """
    pc = build_polynomial(degree).coefficients
    scale = lcm(*(c.denominator for c in pc))
    a = [c.numerator * (scale // c.denominator) for c in pc]
    # p(1 + u) by repeated synthetic division, then u = -w
    for i in range(degree):
        for j in range(degree - 1, i - 1, -1):
            a[j] += a[j + 1]
    return tuple(-c if k % 2 else c for k, c in enumerate(a)), scale


def gamma_ratio_exact(n: int) -> Fraction:
    """Gamma((n+1)/2) * Gamma(n+1) / Gamma((3n+3)/2) as an exact rational.

    The two half-argument Gammas differ by the integer offset n+1, so the
    ratio telescopes to

        n! / prod_{k=0}^{n} ((n+1)/2 + k)

    which is rational for every parity of n (for even n this is where the
    two sqrt(pi) factors cancel; for odd n all arguments are integers).
    """
    if n < 1:
        raise ValueError("gamma_ratio_exact: n must be >= 1")
    return Fraction(factorial(n)) / pochhammer(Fraction(n + 1, 2), n + 1)


def coefficients_csv(ns: Iterable[int]) -> str:
    """CSV of exact coefficients, columns (n, m, numerator, denominator)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "m", "numerator", "denominator"])
    for n in ns:
        p = build_polynomial(n)
        for m, c in enumerate(p.coefficients):
            writer.writerow([n, m, c.numerator, c.denominator])
    return buf.getvalue()

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
from math import comb, factorial, lcm
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

    def end_ratio(self) -> Fraction:
        """|c_0/c_n|, exactly (3n+1)/(n+1) for every member of the family."""
        return abs(self.coefficients[0] / self.coefficients[self.degree])


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


def ek_scaled_coefficients(p: ExactPolynomial) -> tuple[list[Fraction], bool]:
    """Scaled magnitudes a_m = |c_m| (n+1)^m and their monotonicity verdict.

    A strictly increasing chain 0 < a_0 < ... < a_n certifies (via the
    classical increasing-coefficient zero bound) that every zero of the
    original polynomial lies in |z| < n+1.  The verdict is False exactly in
    the n = 1 boundary case, where a_0 = a_1 = 1.
    """
    n = p.degree
    scale = n + 1
    a = []
    power = Fraction(1)
    for m, c in enumerate(p.coefficients):
        a.append(abs(c) * power)
        power *= scale
    increasing = a[0] > 0 and all(a[m] > a[m - 1] for m in range(1, n + 1))
    return a, increasing


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


@dataclass(frozen=True)
class JacobiCorrespondence:
    """Parameters mapping the family to a classical Jacobi polynomial.

    P_n^(alpha,beta)(w) with w = 1 - 2z equals leading_factor times the
    degree-n family member, with alpha = (n+1)/2 and beta = -(n+1).
    argument_map stores the affine map w = a0 + a1*z as (a0, a1).
    """

    n: int
    alpha: Fraction
    beta: Fraction
    argument_map: tuple[Fraction, Fraction]
    leading_factor: Fraction


def jacobi_correspondence(n: int) -> JacobiCorrespondence:
    """Jacobi parameters (alpha, beta) = ((n+1)/2, -(n+1)) for degree n.

    The identity is established on every call by exact coefficient
    comparison: the Jacobi polynomial is expanded through its generalized
    binomial sum (an independent formula), composed with w = 1 - 2z, and
    matched term by term against build_polynomial(n) times leading_factor.
    """
    if n < 1:
        raise ValueError("jacobi_correspondence: n must be >= 1")
    alpha = Fraction(n + 1, 2)
    beta = Fraction(-(n + 1))
    leading = pochhammer(1 + alpha, n) / factorial(n)
    lhs = _jacobi_in_z(n, alpha, beta)
    rhs = [leading * c for c in build_polynomial(n).coefficients]
    if lhs != rhs:
        raise AssertionError(f"jacobi correspondence failed coefficient check at n={n}")
    return JacobiCorrespondence(n, alpha, beta, (Fraction(1), Fraction(-2)), leading)


def _binom_frac(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!."""
    out = Fraction(1)
    for j in range(k):
        out *= x - j
    return out / factorial(k)


def _jacobi_in_z(n: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficients in z of P_n^(alpha,beta)(1 - 2z), by the binomial sum

        P_n^(a,b)(w) = 2^-n sum_s C(n+a, n-s) C(n+b, s) (w-1)^s (w+1)^(n-s)

    expanded with exact polynomial arithmetic.  Independent of the series
    route used elsewhere, which is the point of the cross-check.
    """
    # In terms of z: w - 1 = -2z and w + 1 = 2 - 2z, so
    # P = sum_s C(n+a, n-s) C(n+b, s) (-z)^s (1-z)^(n-s).
    acc = [Fraction(0)] * (n + 1)
    for s in range(n + 1):
        coef = _binom_frac(n + alpha, n - s) * _binom_frac(n + beta, s)
        if coef == 0:
            continue
        # (-z)^s (1-z)^(n-s) expanded into monomials
        for j in range(n - s + 1):
            acc[s + j] += coef * (-1) ** (s + j) * comb(n - s, j)
    return acc


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

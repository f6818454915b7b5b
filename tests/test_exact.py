"""Exact-arithmetic layer: coefficients, their end ratio and scaled chain,
the Gamma ratio, and the Jacobi correspondence against the binomial-sum
oracle in conftest."""

import random
from fractions import Fraction
from math import factorial

import pytest

from lemnizeros.exact import (
    ExactPolynomial,
    build_polynomial,
    coefficients_csv,
    gamma_ratio_exact,
    pochhammer,
)

from conftest import _jacobi_in_z, coefficient_by_pochhammer, fraction_recurrence, scaled_chain


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(5, 0) == 1
        assert pochhammer(Fraction(-7, 3), 0) == 1

    def test_negative_integer_base(self):
        assert pochhammer(-2, 2) == 2  # (-2)(-1)

    def test_half_integer(self):
        assert pochhammer(Fraction(3, 2), 2) == Fraction(15, 4)  # (3/2)(5/2)

    def test_terminates_at_zero(self):
        assert pochhammer(-3, 4) == 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    def test_matches_direct_product(self):
        rng = random.Random(1234)
        for _ in range(50):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            k = rng.randint(0, 12)
            direct = Fraction(1)
            for j in range(k):
                direct *= a + j
            assert pochhammer(a, k) == direct


class TestBuildPolynomial:
    def test_degree_one(self):
        assert build_polynomial(1).coefficients == (Fraction(1), Fraction(-1, 2))

    def test_degree_two(self):
        assert build_polynomial(2).coefficients == (
            Fraction(1),
            Fraction(-6, 5),
            Fraction(3, 7),
        )

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            build_polynomial(0)

    def test_cached_per_degree(self):
        assert build_polynomial(9) is build_polynomial(9)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 40])
    def test_recurrence_matches_pochhammer_form(self, n):
        p = build_polynomial(n)
        for m, c in enumerate(p.coefficients):
            assert c == coefficient_by_pochhammer(n, m)

    def test_matches_the_fraction_recurrence(self):
        # the telescoped recurrence on integers, one Fraction per coefficient,
        # against the recurrence taken one normalised Fraction step at a time
        for n in range(1, 201):
            assert build_polynomial(n).coefficients == fraction_recurrence(n)

    def test_end_ratio_exact(self):
        for n in range(2, 201):
            c = build_polynomial(n).coefficients
            assert abs(c[0] / c[n]) == Fraction(3 * n + 1, n + 1)

    def test_signs_alternate(self):
        p = build_polynomial(25)
        for m, c in enumerate(p.coefficients):
            assert (c > 0) == (m % 2 == 0)

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
    def test_scaled_ratio_exceeds_one(self, n):
        # -(n+1) c_m / c_{m-1} > 1 is what makes the scaled chain increase
        p = build_polynomial(n)
        for m in range(1, n + 1):
            assert -(n + 1) * p.coefficients[m] / p.coefficients[m - 1] > 1

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            ExactPolynomial(2, (Fraction(1), Fraction(1, 2), Fraction(3, 7)))
        with pytest.raises(ValueError):
            ExactPolynomial(2, (Fraction(2), Fraction(-1, 2), Fraction(3, 7)))


def _strictly_increasing(a: list[Fraction]) -> bool:
    return all(x < y for x, y in zip(a, a[1:]))


class TestScaledChain:
    def test_degree_two_values(self):
        a = scaled_chain(build_polynomial(2))
        assert a == [Fraction(1), Fraction(18, 5), Fraction(27, 7)]
        assert _strictly_increasing(a)

    def test_degree_one_boundary(self):
        a = scaled_chain(build_polynomial(1))
        assert a == [Fraction(1), Fraction(1)]
        assert not _strictly_increasing(a)

    @pytest.mark.parametrize("n", [3, 4, 20, 111, 200])
    def test_strictly_increasing_beyond_one(self, n):
        assert _strictly_increasing(scaled_chain(build_polynomial(n)))


def _gamma_ratio_oracle(n: int) -> Fraction:
    """Parity-split evaluation: integer factorials for odd n; for even n the
    half-integer values via Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!), whose
    sqrt(pi) factors cancel in the ratio.  Independent of the telescoping
    route used by the implementation."""
    if n % 2 == 1:
        return Fraction(
            factorial((n + 1) // 2 - 1) * factorial(n), factorial((3 * n + 3) // 2 - 1)
        )
    k1 = n // 2  # (n+1)/2 = k1 + 1/2
    k2 = (3 * n + 2) // 2  # (3n+3)/2 = k2 + 1/2
    g1 = Fraction(factorial(2 * k1), 4**k1 * factorial(k1))
    g2 = Fraction(factorial(2 * k2), 4**k2 * factorial(k2))
    return g1 * factorial(n) / g2


class TestGammaRatio:
    @pytest.mark.parametrize(
        "n,value",
        [(1, Fraction(1, 2)), (2, Fraction(16, 105)), (3, Fraction(1, 20))],
    )
    def test_small_values(self, n, value):
        assert gamma_ratio_exact(n) == value

    def test_against_parity_oracle(self):
        for n in range(1, 21):
            assert gamma_ratio_exact(n) == _gamma_ratio_oracle(n)

    def test_consecutive_ratio_is_consistent(self):
        # the step ratio implied by Gamma(x+1) = x Gamma(x), checked via the oracle
        for n in range(2, 21):
            lhs = gamma_ratio_exact(n) / gamma_ratio_exact(n - 1)
            assert lhs == _gamma_ratio_oracle(n) / _gamma_ratio_oracle(n - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gamma_ratio_exact(0)


def _jacobi_times_family(n: int) -> list[Fraction]:
    """(1 + alpha)_n / n! times the coefficients of F_n, alpha = (n+1)/2:
    the coefficients of P_n^(alpha, -(n+1))(1 - 2z) by the correspondence."""
    leading = pochhammer(1 + Fraction(n + 1, 2), n) / factorial(n)
    return [leading * c for c in build_polynomial(n).coefficients]


class TestJacobiCorrespondence:
    @pytest.mark.parametrize("n", [*range(1, 25), 200])
    def test_exact_round_trip(self, n):
        # P_n^(alpha, beta)(1 - 2z) with (alpha, beta) = ((n+1)/2, -(n+1)),
        # expanded by the binomial sum, matches the family term by term
        assert _jacobi_in_z(n, Fraction(n + 1, 2), Fraction(-(n + 1))) == _jacobi_times_family(n)

    def test_detects_wrong_parameters(self):
        assert _jacobi_in_z(3, Fraction(1, 2), Fraction(-4)) != _jacobi_times_family(3)


class TestCsv:
    def test_rows_and_exactness(self):
        text = coefficients_csv([2])
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,numerator,denominator"
        assert lines[1:] == ["2,0,1,1", "2,1,-6,5", "2,2,3,7"]

    def test_deterministic(self):
        assert coefficients_csv([5, 9]) == coefficients_csv([5, 9])

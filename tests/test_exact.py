"""Exact-arithmetic layer: coefficients, scaled chains, Gamma ratio, Jacobi map."""

import random
from fractions import Fraction
from math import factorial

import pytest

from lemnizeros.exact import (
    ExactPolynomial,
    build_polynomial,
    coefficients_csv,
    ek_scaled_coefficients,
    gamma_ratio_exact,
    jacobi_correspondence,
    pochhammer,
)

from conftest import coefficient_by_pochhammer, fraction_recurrence


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
            p = build_polynomial(n)
            assert p.end_ratio() == Fraction(3 * n + 1, n + 1)

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


class TestScaledChain:
    def test_degree_two_values(self):
        a, increasing = ek_scaled_coefficients(build_polynomial(2))
        assert a == [Fraction(1), Fraction(18, 5), Fraction(27, 7)]
        assert increasing

    def test_degree_one_boundary(self):
        a, increasing = ek_scaled_coefficients(build_polynomial(1))
        assert a == [Fraction(1), Fraction(1)]
        assert not increasing

    @pytest.mark.parametrize("n", [3, 4, 20, 111, 200])
    def test_strictly_increasing_beyond_one(self, n):
        _, increasing = ek_scaled_coefficients(build_polynomial(n))
        assert increasing


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


class TestJacobiCorrespondence:
    def test_parameters(self):
        c1 = jacobi_correspondence(1)
        assert (c1.alpha, c1.beta) == (Fraction(1), Fraction(-2))
        c2 = jacobi_correspondence(2)
        assert (c2.alpha, c2.beta) == (Fraction(3, 2), Fraction(-3))

    def test_argument_map_is_w_equals_one_minus_two_z(self):
        a0, a1 = jacobi_correspondence(3).argument_map
        # (1 - w)/2 = z  <=>  w = 1 - 2z
        assert (a0, a1) == (Fraction(1), Fraction(-2))

    def test_parameter_to_degree_ratio_limits(self):
        # alpha_n / n -> 1/2 and beta_n / n -> -1
        c = jacobi_correspondence(200)
        assert abs(c.alpha / 200 - Fraction(1, 2)) < Fraction(1, 100)
        assert c.beta == Fraction(-201)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_exact_round_trip(self, n):
        jacobi_correspondence(n)  # raises on any coefficient mismatch

    def test_detects_wrong_parameters(self):
        import lemnizeros.exact as exact

        wrong = exact._jacobi_in_z(3, Fraction(1, 2), Fraction(-4))
        good = [
            jacobi_correspondence(3).leading_factor * c
            for c in build_polynomial(3).coefficients
        ]
        assert wrong != good


class TestCsv:
    def test_rows_and_exactness(self):
        text = coefficients_csv([2])
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,numerator,denominator"
        assert lines[1:] == ["2,0,1,1", "2,1,-6,5", "2,2,3,7"]

    def test_deterministic(self):
        assert coefficients_csv([5, 9]) == coefficients_csv([5, 9])

"""Gauss-Legendre rules: exactness, symmetry."""

import pytest
from mpmath import mp, mpf

from lemnizeros.quadrature import legendre_rule

BITS = 128


@pytest.mark.parametrize("count", [1, 2, 7, 8, 64])
def test_monomial_exactness(count):
    # exact on [0, 1] for all degrees <= 2*count - 1, up to rounding
    rule = legendre_rule(count, BITS)
    with mp.workprec(BITS):
        tol = mpf(2) ** (16 - BITS)
        for k in (0, 1, count, 2 * count - 1):
            got = sum(w * ((x + 1) / 2) ** k for x, w in rule) / 2
            assert abs(got - mpf(1) / (k + 1)) < tol


def test_nodes_symmetric_and_weights_positive():
    for count in (7, 8):
        rule = legendre_rule(count, BITS)
        assert len(rule) == count
        xs = [x for x, _ in rule]
        assert xs == sorted(xs)
        with mp.workprec(BITS):
            assert all(w > 0 for _, w in rule)
            assert abs(sum(w for _, w in rule) - 2) < mpf(2) ** (8 - BITS)
            for x, _ in rule:
                assert any(abs(x + y) < mpf(2) ** (8 - BITS) for y, _ in rule)


def test_odd_rule_contains_exact_zero_once():
    rule = legendre_rule(7, BITS)
    assert sum(1 for x, _ in rule if x == 0) == 1


def test_rejects_empty_rule():
    with pytest.raises(ValueError):
        legendre_rule(0, BITS)


@pytest.mark.parametrize("count", [2, 9, 64, 65, 80])
def test_rounded_from_a_wider_rule(count):
    # every node and weight is the 256-bit rule's value rounded to 128 bits
    wide = legendre_rule(count, 256)
    with mp.workprec(BITS):
        want = [(+x, +w) for x, w in wide]
    assert legendre_rule(count, BITS) == tuple(want)


def test_independent_of_caller_precision():
    legendre_rule.cache_clear()
    with mp.workprec(200):
        wide_caller = [(x._mpf_, w._mpf_) for x, w in legendre_rule(65, BITS)]
    legendre_rule.cache_clear()
    with mp.workprec(20):
        narrow_caller = [(x._mpf_, w._mpf_) for x, w in legendre_rule(65, BITS)]
    assert wide_caller == narrow_caller

"""Gauss-Legendre nodes and weights at arbitrary precision.

Nodes are the Legendre roots, found by Newton iteration on the three-term
recurrence from Chebyshev initial guesses; computed once per (count, bits)
and cached.  With k nodes the rule integrates polynomials of degree 2k-1
exactly, which downstream code relies on: the integrands here are powers of
a cubic, hence polynomials of known degree.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

_GUARD = 16  # extra working bits while locating nodes


@lru_cache(maxsize=None)
def legendre_rule(count: int, bits: int) -> tuple[tuple[mpf, mpf], ...]:
    """((node, weight), ...) on [-1, 1] for a `count`-point rule, ascending."""
    if count < 1:
        raise ValueError("legendre_rule: count must be >= 1")
    work = bits + _GUARD
    positive = []
    with mp.workprec(work):
        tol = mpf(2) ** (8 - work)
        for i in range(count // 2):
            x = mp.cos(mp.pi * (4 * i + 3) / (4 * count + 2))
            for _ in range(100):
                dx = _newton_step(count, x)
                x -= dx
                if abs(dx) < tol:
                    break
            positive.append((x, _weight(count, x)))
        middle = [(mpf(0), _weight(count, mpf(0)))] if count % 2 else []
    with mp.workprec(bits):
        positive = [(+x, +w) for x, w in positive]  # descending from the largest node
        middle = [(+x, +w) for x, w in middle]
        negative = [(-x, w) for x, w in positive]  # ascending from the smallest node
        return tuple(negative + middle + positive[::-1])


def _legendre_pair(k: int, x: mpf) -> tuple[mpf, mpf]:
    """(P_k(x), P_{k-1}(x)) by the three-term recurrence."""
    p0, p1 = mpf(1), x
    for j in range(2, k + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, p0


def _newton_step(k: int, x: mpf) -> mpf:
    pk, pk1 = _legendre_pair(k, x)
    dpk = k * (x * pk - pk1) / (x * x - 1)
    return pk / dpk


def _weight(k: int, x: mpf) -> mpf:
    pk, pk1 = _legendre_pair(k, x)
    dpk = k * (x * pk - pk1) / (x * x - 1)
    return 2 / ((1 - x * x) * dpk * dpk)

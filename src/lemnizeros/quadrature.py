"""Gauss-Legendre nodes and weights at arbitrary precision.

Nodes are the Legendre roots, found by Newton iteration on the three-term
recurrence from Tricomi's asymptotic initial guesses; computed once per
(count, bits) and cached.  The recurrence and the Newton steps run on
integers at one fixed scale 2^-(bits+_GUARD), like the fixed-point kernels
of rootfinder and paths, and each node and weight is rounded to `bits`
once.  With k nodes the rule integrates polynomials of degree 2k-1
exactly, which downstream code relies on: the integrands here are powers of
a cubic, hence polynomials of known degree.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import from_float, from_man_exp, from_rational

from .numerics import _mpf_to_fixed

_GUARD = 32  # fixed-point bits kept below 2^-bits while locating nodes


@lru_cache(maxsize=None)
def legendre_rule(count: int, bits: int) -> tuple[tuple[mpf, mpf], ...]:
    """((node, weight), ...) on [-1, 1] for a `count`-point rule, ascending."""
    if count < 1:
        raise ValueError("legendre_rule: count must be >= 1")
    P = bits + _GUARD
    tol = 1 << (_GUARD - 8)  # |dx| < 2^(-8-bits)
    # Tricomi: the i-th largest node is (1 - 1/(8k^2) + 1/(8k^3)) cos(pi (4i+3)/(4k+2)).
    shrink = 1 - 1 / (8 * count**2) + 1 / (8 * count**3)
    positive = []
    for i in range(count // 2):
        x = _mpf_to_fixed(from_float(shrink * math.cos(math.pi * (4 * i + 3) / (4 * count + 2))), P)
        for _ in range(100):
            dx = _newton_step(count, x, P)
            x -= dx
            if abs(dx) < tol:
                break
        positive.append((x, _weight(count, x, P, bits)))
    middle = [(mpf(0), _weight(count, 0, P, bits))] if count % 2 else []
    negative = [(_node(-x, P, bits), w) for x, w in positive]  # ascending from the smallest node
    positive = [(_node(x, P, bits), w) for x, w in positive[::-1]]
    return tuple(negative + middle + positive)


def _node(x: int, P: int, bits: int) -> mpf:
    return mp.make_mpf(from_man_exp(x, -P, bits, "n"))


def _legendre_pair(k: int, x: int, P: int) -> tuple[int, int]:
    """(P_k(x), P_{k-1}(x)) at scale 2^-P by the three-term recurrence."""
    p0, p1 = 1 << P, x
    for j in range(2, k + 1):
        p0, p1 = p1, (((2 * j - 1) * x * p1 >> P) - (j - 1) * p0) // j
    return p1, p0


def _newton_step(k: int, x: int, P: int) -> int:
    """P_k(x) / P_k'(x) at scale 2^-P, with P_k' = k (x P_k - P_{k-1}) / (x^2 - 1)."""
    pk, pk1 = _legendre_pair(k, x, P)
    return pk * ((x * x >> P) - (1 << P)) // (k * ((x * pk >> P) - pk1))


def _weight(k: int, x: int, P: int, bits: int) -> mpf:
    """2 / ((1 - x^2) P_k'(x)^2) = 2 (1 - x^2) / (k (x P_k - P_{k-1}))^2,
    rounded to `bits` from the fixed-point values."""
    pk, pk1 = _legendre_pair(k, x, P)
    v = k * ((x * pk >> P) - pk1)
    return mp.make_mpf(from_rational(((1 << P) - (x * x >> P)) << (P + 1), v * v, bits, "n"))

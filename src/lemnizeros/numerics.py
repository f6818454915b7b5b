"""Configurable-precision complex arithmetic and the structure of f_z(t).

The working scalar everywhere is mpmath's binary floating point (`mpf`/`mpc`)
at an explicit precision in bits; no function here reads or leaves behind
global precision state.  PrecisionConfig carries the starting precision and
the ceiling the rootfinder doubles towards when a certificate comes out too
weak.

f_z(t) = t(1 - z t^2) is the cubic whose powers are integrated downstream;
its zeros are {0, +1/sqrt(z), -1/sqrt(z)} and its critical points sit at
+-1/sqrt(3z), the zeros of fprime_factor.  Callers build these points from
principal_sqrt, whose branch convention fixes which zero is +1/sqrt(z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

DEFAULT_BITS = 160
DEFAULT_MAX_BITS = 4096


class PrecisionExhaustedError(RuntimeError):
    """Raised when a computation still cannot be decided at max_bits."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision in bits plus its ceiling.

    bits: starting precision (>= 64); max_bits: hard ceiling, reached by
    doubling when a solve or decision needs more bits.  At the 160-bit
    default the family's zeros certify on the first rung, 2 to 7 bits below
    the working precision for n <= 80.
    """

    bits: int = DEFAULT_BITS
    max_bits: int = DEFAULT_MAX_BITS

    def __post_init__(self) -> None:
        if self.bits < 64:
            raise ValueError("PrecisionConfig: bits must be >= 64")
        if self.max_bits < self.bits:
            raise ValueError("PrecisionConfig: max_bits must be >= bits")

    def escalate(self, bits: int) -> int:
        """Twice `bits`, clipped to the ceiling."""
        if bits >= self.max_bits:
            raise PrecisionExhaustedError(f"precision exhausted at {self.max_bits} bits")
        return min(2 * bits, self.max_bits)


def to_mpf(x, bits: int) -> mpf:
    """Round a Fraction/int/float/str to an mpf at the given precision."""
    with mp.workprec(bits):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / mpf(x.denominator)
        return mpf(x)


def to_mpc(x, bits: int, imag=0) -> mpc:
    """Build an mpc at the given precision from real/imag parts.

    Accepts Fractions, mpf/mpc, python numbers and strings for either part.
    """
    with mp.workprec(bits):
        if isinstance(x, (complex, mpc)):
            return mpc(to_mpf(x.real, bits), to_mpf(x.imag, bits))
        return mpc(to_mpf(x, bits), to_mpf(imag, bits))


def principal_sqrt(z: mpc, bits: int) -> mpc:
    """Square root on the branch with sqrt(1) = 1, cut along (-inf, 0).

    On the cut itself the value is the limit from the upper half-plane,
    sqrt(-1) = +i, so Re(result) >= 0 always and > 0 off the cut.
    """
    with mp.workprec(bits):
        z = mpc(z)
        if z == 0:
            return mpc(0)
        if z.imag == 0 and z.real < 0:
            return mpc(0, mpmath.sqrt(-z.real))
        return mpmath.sqrt(z)


def f_eval(z: mpc, t: mpc) -> mpc:
    """t(1 - z t^2), at the caller's working precision."""
    return t * (1 - z * t * t)


def fprime_factor(z: mpc, t: mpc) -> mpc:
    """1 - 3 z t^2, the derivative factor vanishing at the saddles."""
    return 1 - 3 * z * t * t

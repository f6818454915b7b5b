"""Configurable-precision complex arithmetic and the structure of f_z(t).

The working scalar everywhere is mpmath's binary floating point (`mpf`/`mpc`)
at an explicit precision in bits; no function here reads or leaves behind
global precision state.  PrecisionConfig carries the starting precision and
the ceiling the rootfinder doubles towards when a certificate comes out too
weak.

f_z(t) = t(1 - z t^2) is the cubic whose powers are integrated downstream;
its zeros are {0, +1/sqrt(z), -1/sqrt(z)} and its critical points sit at
+-1/sqrt(3z), the zeros of 1 - 3 z t^2.  Callers build these points from
principal_sqrt, whose branch convention fixes which zero is +1/sqrt(z).

The fixed-point kernels (the Aberth sweeps in rootfinder, the path
continuation in paths, the Legendre nodes in quadrature) work on
Gaussian integers (x, y) standing for (x + iy) 2^-scale, or on plain
integers for real values; _to_fixed, _mpf_to_fixed, _from_fixed and
_fixed_div move values into and out of that scale and divide within it.
_power raises a Gaussian integer to the n-th power keeping a fixed number
of leading bits, with _cut, for the rootfinder's w^n and the full-interval
quadrature's f_z(t)^n.  libmp's infinities and nan have mantissa 0, so
they would enter that scale as 0: callers reject them first with _finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import finf, fnan, fninf, from_float, from_int, from_man_exp, from_rational, fzero, mpf_pos

DEFAULT_BITS = 160
DEFAULT_MAX_BITS = 4096
_NOT_FINITE = (finf, fninf, fnan)


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
    """Round a Fraction/int/float/mpf/str to an mpf at the given precision,
    to nearest and once: a Fraction is divided exactly before its one
    rounding."""
    return mp.make_mpf(_mpf_part(x, bits))


def to_mpc(x, bits: int, imag=None) -> mpc:
    """Build an mpc at the given precision from real/imag parts.

    Accepts Fractions, mpf/mpc, python numbers and strings for either part;
    imag defaults to zero.  Each part is rounded to nearest at `bits`
    exactly once, by _mpc_parts, as to_mpf rounds it.  A complex or mpc x
    carries its own imaginary part, so giving `imag` as well raises
    ValueError.
    """
    if imag is None:
        return mp.make_mpc(_mpc_parts(x, bits))
    if isinstance(x, (complex, mpc)):
        raise ValueError("to_mpc: x is complex, so imag must not be given")
    return mp.make_mpc((_mpf_part(x, bits), _mpf_part(imag, bits)))


def _mpf_part(x, bits: int) -> tuple:
    """The libmp tuple of a real x rounded to nearest at `bits` once, with
    mp.prec untouched: libmp for an mpf, float, int or Fraction (divided
    exactly first), mpf() under mp.workprec(bits) for anything else."""
    if isinstance(x, mpf):
        return mpf_pos(x._mpf_, bits, "n")
    if isinstance(x, Fraction):
        return from_rational(x.numerator, x.denominator, bits, "n")
    if isinstance(x, float):
        return from_float(x, bits, "n")
    if isinstance(x, int):
        return from_int(x, bits, "n")
    with mp.workprec(bits):
        return mpf(x)._mpf_


def _mpc_parts(x, bits: int) -> tuple[tuple, tuple]:
    """The libmp parts of to_mpc(x, bits), each rounded to nearest at `bits`
    once by _mpf_part; a real x has the exact zero imaginary part.  The
    fixed-point kernels read these tuples directly, with no mpc made."""
    if isinstance(x, mpc):
        re, im = x._mpc_
        return mpf_pos(re, bits, "n"), mpf_pos(im, bits, "n")
    if isinstance(x, complex):
        return from_float(x.real, bits, "n"), from_float(x.imag, bits, "n")
    return _mpf_part(x, bits), fzero


def _finite(parts: tuple[tuple, tuple]) -> bool:
    """Neither libmp part of a complex number is an infinity or a nan."""
    return parts[0] not in _NOT_FINITE and parts[1] not in _NOT_FINITE


def principal_sqrt(z: mpc, bits: int) -> mpc:
    """Square root on the branch with sqrt(1) = 1, cut along (-inf, 0).

    On the cut itself the value is the limit from the upper half-plane,
    sqrt(-1) = +i, so Re(result) >= 0 always and > 0 off the cut.
    """
    with mp.workprec(bits):
        return mpmath.sqrt(mpc(z))


def f_eval(z: mpc, t: mpc) -> mpc:
    """t(1 - z t^2), at the caller's working precision."""
    return t * (1 - z * t * t)


def _to_fixed(z: mpc, scale: int) -> tuple[int, int]:
    """z as a Gaussian integer at scale 2^-scale, rounded down (exact when
    no bit of z lies below 2^-scale)."""
    return _mpf_to_fixed(z.real._mpf_, scale), _mpf_to_fixed(z.imag._mpf_, scale)


def _mpf_to_fixed(x, scale: int) -> int:
    """The libmp tuple x as an integer at scale 2^-scale, rounded down."""
    sign, man, exp, _ = x
    if sign:
        man = -man
    shift = exp + scale
    return man << shift if shift >= 0 else man >> -shift


def _from_fixed(z: tuple[int, int], scale: int, bits: int) -> mpc:
    """The Gaussian integer z at scale 2^-scale as an mpc rounded to `bits`."""
    x, y = z
    return mp.make_mpc((from_man_exp(x, -scale, bits, "n"), from_man_exp(y, -scale, bits, "n")))


def _fixed_div(ar: int, ai: int, br: int, bi: int, scale: int) -> tuple[int, int]:
    """(ar + i ai) / (br + i bi) for Gaussian integers at scale 2^-scale,
    by floor division of a conj(b) by |b|^2."""
    bb = br * br + bi * bi
    return ((ar * br + ai * bi) << scale) // bb, ((ai * br - ar * bi) << scale) // bb


def _power(xr: int, xi: int, n: int, k: int, P: int) -> tuple[int, int, int]:
    """(x 2^-k)^n for the Gaussian integer x, as (mr, mi, e) standing for
    (mr + i mi) 2^e, by binary powering that cuts every product back to P
    bits: a small power keeps its relative precision, where at the fixed
    scale 2^-P it would lose it, down to zero.

    The rootfinder passes a point of its scale 2^-P as its own Gaussian
    integer x = w 2^k, k <= P its fractional bits, so the first products
    are short.  A cut keeps the top P bits of a product whatever its
    trailing zeros, and a product with no more than P bits is kept whole,
    so every intermediate, and the result, has the same value as the power
    of x 2^(P-k) at the scale 2^-P: only the first products are cheaper.
    paths.integral_full passes the exact f_z(t) at a quadrature node, whose
    k may exceed P; its first product is then cut like any other.

    The cut error, which _bounded_horner's proof and integral_full's bound
    rely on, holds for any x and k: a cut floors a product v whose larger
    part has P + c bits, c > 0, by less than 2^c in each part, so it moves
    v by less than 2^(1.5-P) |v|.  A cut squaring to x^(2^j) enters the
    result floor(n / 2^j) times, and a cut in the accumulator once, one per
    set bit of n: n times in all.  So the result
    is x^n (1 + d) with |d| <= (1 + 2^(1.5-P))^n - 1 < n 2^(2-P) for
    n <= 2^(P-4).  Every intermediate is a power x^j, j <= n, so the
    result is exact when |x 2^-k| < 2^t and P >= n (k + t): each x^j then
    fits in P bits above 2^(-jk)."""
    mr, mi, e, be = 1, 0, 0, -k
    while True:
        if n & 1:
            mr, mi, e = _cut(mr * xr - mi * xi, mr * xi + mi * xr, e + be, P)
        n >>= 1
        if not n:
            return mr, mi, e
        xr, xi, be = _cut(xr * xr - xi * xi, 2 * xr * xi, 2 * be, P)


def _cut(re: int, im: int, e: int, width: int) -> tuple[int, int, int]:
    """(re + i im) 2^e with re and im cut to `width` bits, rounding down."""
    cut = (abs(re) | abs(im)).bit_length() - width
    return (re >> cut, im >> cut, e + cut) if cut > 0 else (re, im, e)

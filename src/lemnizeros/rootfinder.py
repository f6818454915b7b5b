"""Certified computation of all n zeros of the family polynomial.

The solve and its certificate work in w = 1 - z.  There the family is a
positive multiple of S_n(w) = sum_k (b)_k / k! w^k with b = (n+1)/2, the
degree-n section of (1-w)^(-b): every coefficient is at least 1, and
evaluation near the zeros loses a fraction of a bit per degree, where the
monomial basis in z loses about 2.6.  The w coefficients are integers from
an exact Taylor shift of the paper's monomial coefficients, so nothing but
those coefficients enters the certificate, and every solve starts at the
configured working precision whatever the degree.  At the 160-bit default
the certificate sits 2 to 7 bits below that precision for n <= 80 and
loses about 0.2 bits per degree beyond (149 bits at n = 100, 128 at 200).

All zeros are refined together by Ehrlich-Aberth sweeps (Newton corrections
with pairwise repulsion, applied in place).  Deflation is deliberately not
used: the zeros cluster along a curve and deflation compounds error there,
while the simultaneous iteration is self-correcting.  A cold solve starts
from the seeds of initial_points, next to the zeros; the seeds module
computes and polishes them in IEEE doubles and tells how.  p is real and
the seeds are closed under conjugation, so the sweeps move one root of
each conjugate pair and the root set is exactly closed under conjugation
by construction (see _aberth_family).  Each Newton quotient takes one
Horner loop on the real coefficients: S' follows from the identity
(1 - w) S' = b S - (n+b) a_n w^n of the section.  The sweeps run in fixed
point on plain Python integers at one shared scale 2^-(prec+8) (see
_aberth_core), where w = 1 - z maps (x, y) to (2^(prec+8) - x, -y)
exactly, and the Horner products take w as its own Gaussian integer
w 2^k, k its fractional bits (see _family_quotient).  Values enter the
scale once and leave it, rounded to the working precision, once.  Only
the repulsion sums, which merely steer each correction, run in IEEE
doubles, one correctly rounded operation at a time, so the roots are the
same bits on every platform.  The same loop, with the same arithmetic
and stop rule, refines the cubics of geometry.branch_polyline from starts
next to their roots, only without conjugate mirrors; their coefficients
and starts enter the scale once too, rounded to the working precision by
libmp and floored (solve_complex_poly).

Certification is a posteriori: around each computed root the disk of radius
n |p(z)| / |p'(z)| contains at least one true zero, so n pairwise disjoint
disks pin down all n zeros.  p comes from one fixed-point Horner loop on
the same w coefficients, at about twice the working precision, that carries
a running integer bound on its rounding errors (_bounded_horner), and p'
from the same identity as in the sweeps, with w^n from one binary power
whose cut error is bounded too: the root is exact at that scale, so the
bounds cover every rounding and the radius is a proof, a little above the
exact ratio rounded up.  Where the bounds are too coarse for a root the
scale doubles, at most up to the width at which everything is exact.  p is
real, so one evaluation serves both members of a conjugate pair.  Every
other reading of a certified set, the order, the overlap test, the
acceptance of a rung and the lemma verdicts of analysis, takes its disks
from _disks, as integers at one exponent, so each is decided exactly.  The
solve is restarted at doubled precision whenever the certificate comes out
too weak.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, log2

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_neg,
    mpf_sub,
)

from .exact import ExactPolynomial, _integer_coefficients, build_polynomial
from .numerics import (
    PrecisionConfig,
    PrecisionExhaustedError,
    _cut,  # noqa: F401 (kept importable as rootfinder._cut)
    _fixed_div,
    _from_fixed,
    _mpc_parts,
    _mpf_to_fixed,
    _power,
    _to_fixed,
    to_mpc,
)
from .seeds import _double_repulsion, _to_double, polished_half

# Certified-radius acceptance target, relative to 1 + |root|.  At low working
# precision the rounding floor itself is coarser than this, so the effective
# target is t = max(RADIUS_REL_TOL, 2^(32-bits)).  Both are dyadic (this one
# is 1e-20 rounded to 53 bits), so find_roots decides r <= t (1 + |z|)
# exactly, in integers.
RADIUS_REL_TOL = mpf("1e-20")

_GUARD = 8  # bits kept below 2^-prec by the fixed-point Aberth kernel
_NOT_FINITE = (finf, fninf, fnan)


class CertificationError(RuntimeError):
    """Raised when the a-posteriori root certificate cannot be established."""


@dataclass(frozen=True)
class RootSet:
    """The n computed zeros with residuals and certified inclusion radii.

    residuals[j] is an upper bound on |p(root_j)|, less than 2^(2-bits)
    relative above it; inclusion_radii[j] is the radius of a disk
    guaranteed to contain a true zero.  overlaps flags disks that meet or
    touch another disk, decided exactly on the integers of _disks, in which
    case the set does not isolate all zeros.
    """

    degree: int
    roots: tuple[mpc, ...]
    residuals: tuple[mpf, ...]
    inclusion_radii: tuple[mpf, ...]
    precision_used: int
    overlaps: tuple[bool, ...]

    def disks_disjoint(self) -> bool:
        return not any(self.overlaps)


def initial_points(n: int) -> list[mpc]:
    """The n seeds of find_roots, next to the zeros (see the seeds module):
    seeds n//2 .. n-1 are z = 1 - w of seeds.polished_half, exactly, and
    seed n-1-k is the exact conjugate of seed k."""
    if n < 1:
        raise ValueError("initial_points: n must be >= 1")
    points = [None] * n
    for k, (wr, wi) in enumerate(polished_half(n), n // 2):
        x, y = mpf_sub(fone, from_float(wr)), from_float(wi)  # exact
        points[k], points[n - 1 - k] = mp.make_mpc((x, mpf_neg(y))), mp.make_mpc((x, y))
    return points


def find_roots(p: ExactPolynomial, cfg: PrecisionConfig = PrecisionConfig()) -> RootSet:
    """All n zeros of p, certified; starts at cfg.bits and doubles the
    precision until the certificate is strong or the precision ceiling is
    hit.  A rung is strong when its disks are disjoint and every radius has
    r <= t (1 + |z|), t = max(RADIUS_REL_TOL, 2^(32-bits)), both decided
    exactly on the integers of _disks (see _accepted).

    The iteration starts from the seeds of initial_points, so the result is
    a function of p and cfg alone, and the root set is exactly closed under
    conjugation (see _aberth_family).  In the w basis one rung suffices at
    the default precision at every degree tried up to 400; the doubling is
    the safety net, and a retry starts from the previous rung's estimates.
    Each inclusion radius is an upper bound rounded in integers (see
    certify).  Raises ValueError when p is not the family member of its
    degree.
    """
    _require_family(p)
    n = p.degree
    bits = cfg.bits
    start = initial_points(n)
    trace: list[str] = []
    while True:
        raw, status, sweeps = _aberth_family(p, start, bits)
        trace.append(f"{bits} bits: {status} after {sweeps} sweeps")
        rs = None
        try:
            rs = certify(p, raw, bits)
        except CertificationError:
            pass
        if rs is not None and _accepted(rs):
            return rs
        if bits >= cfg.max_bits:
            raise PrecisionExhaustedError(
                "find_roots: precision exhausted at "
                f"{cfg.max_bits} bits for n={n}; trace: {'; '.join(trace)}"
            )
        bits = cfg.escalate(bits)
        start = raw  # the previous rung's estimates seed the retry


def certify(p: ExactPolynomial, roots, bits: int) -> RootSet:
    """Fill residuals and inclusion radii for the computed roots, rounded to
    `bits`, and sort them by (real, imaginary) part.

    radius_j = n |p(z_j)| / |p'(z_j)|: a disk at z_j of this radius contains
    at least one true zero (the classical inclusion theorem, see Rump 2003).
    _bounded_horner gives an upper bound on |p(z_j)| and a lower bound on
    |p'(z_j)|, each within about 2^-(bits+1) relative of the exact value,
    and _div_up rounds the residual and the radius up at `bits`, so each is
    an upper bound less than 2^(2-bits) relative above its exact value: one
    upward rounding and a little more.

    A root that is an mpc of at most `bits` bits is taken as it is; any
    other is rounded to `bits` once.  p is real, so |p(conj z)| = |p(z)|:
    roots are keyed by the libmp tuples of (Re, |Im|), every key is
    evaluated once, at its member with Im z >= 0, and a conjugate-closed set
    costs one evaluation per pair.  The order is that of the disks of
    _disks, whose centres are the roots exactly, and two disks overlap when
    they meet, touching included, decided on those integers.  Raises
    CertificationError when some p'(z_j) is exactly zero or some root
    estimate is not finite, and ValueError when p is not the family member
    of its degree.
    """
    _require_family(p)
    n = p.degree
    ints, scale = _integer_coefficients(n)
    with mp.workprec(bits):
        zs = [
            z if isinstance(z, mpc) and max(z._mpc_[0][3], z._mpc_[1][3]) <= bits else +mpc(z)
            for z in roots
        ]
    if len(zs) != n:
        raise CertificationError(f"certification failed: expected {n} roots, got {len(zs)}")
    for z in zs:
        if z._mpc_[0] in _NOT_FINITE or z._mpc_[1] in _NOT_FINITE:
            raise CertificationError(f"certification failed: root {z} is not finite")
    done: dict[tuple, tuple[mpf, mpf]] = {}  # (residual, radius) by (Re, |Im|)
    values = []
    for z in zs:
        xs, ys = z._mpc_
        key = xs, mpf_abs(ys)
        if key not in done:
            hi, lo, e = _bounded_horner(n, *map(mp.make_mpf, key), bits)
            if lo <= 0:
                raise CertificationError(
                    f"certification failed: p' vanishes at root {mpmath.nstr(z, 17)}"
                )
            done[key] = _div_up(hi * ints[0], scale << e, bits), _div_up(n * hi, lo, bits)
        values.append(done[key])
    disks, _ = _disks(zs, [radius for _, radius in values])
    order = sorted(range(n), key=disks.__getitem__)
    disks = [disks[i] for i in order]
    overlaps = [False] * n
    rmax = max((r for _, _, r in disks), default=0)
    for i, (xi, yi, ri) in enumerate(disks):
        reach = ri + rmax
        for j in range(i + 1, n):
            xj, yj, rj = disks[j]
            # Real parts ascend, so once xj - xi exceeds ri + rmax no later
            # disk can meet disk i.
            if xj - xi > reach:
                break
            if (xj - xi) ** 2 + (yj - yi) ** 2 <= (ri + rj) ** 2:
                overlaps[i] = overlaps[j] = True
    residuals, radii = zip(*(values[i] for i in order))
    return RootSet(n, tuple(zs[i] for i in order), residuals, radii, bits, tuple(overlaps))


def _disks(roots, radii) -> tuple[list[tuple[int, int, int]], int]:
    """The disks of a certified set as integers at one exponent, read
    exactly: ([(x_j, y_j, r_j), ...], e) with root_j = (x_j + i y_j) 2^e and
    radius_j = r_j 2^e, e <= 0 the finest exponent among all the parts and
    radii.  The one place a certified set is decoded: certify's order and
    overlaps, find_roots' acceptance and analysis's verdicts all read it, so
    1 = 2^-e 2^e and every sum, square and comparison of them is exact."""
    parts = [(*z._mpc_, r._mpf_) for z, r in zip(roots, radii)]
    e = min([0, *(v[2] for disk in parts for v in disk if v[1])])
    return [tuple(_mpf_to_fixed(v, -e) for v in disk) for disk in parts], e


def _accepted(rs: RootSet) -> bool:
    """find_roots' test of a certified rung: disjoint disks, each with
    r <= t (1 + |z|), t = max(RADIUS_REL_TOL, 2^(32-bits)) at the set's
    precision.  t is dyadic, so on one grid 2^e with the disks, t = T 2^e,
    the test is R - T <= 0 or (R - T)^2 4^-e <= T^2 (X^2 + Y^2), decided in
    integers."""
    if not rs.disks_disjoint():
        return False
    disks, e = _disks(rs.roots, rs.inclusion_radii)
    _, tm, te, _ = max(RADIUS_REL_TOL, mpf(2) ** (32 - rs.precision_used))._mpf_
    if te < e:  # t is finer than every disk: move the disks to its grid
        disks, e = [(x << (e - te), y << (e - te), r << (e - te)) for x, y, r in disks], te
    t = tm << (te - e)
    t2 = t * t
    return all(r <= t or (r - t) ** 2 << -2 * e <= t2 * (x * x + y * y) for x, y, r in disks)


def _require_family(p: ExactPolynomial) -> None:
    """The solve and its certificate evaluate the family member of degree
    p.degree from its cached integers, so any other p is refused."""
    if p != build_polynomial(p.degree):
        raise ValueError(f"p is not the degree-{p.degree} member of the family")


def _bounded_horner(n: int, x: mpf, y: mpf, bits: int) -> tuple[int, int, int]:
    """Bounds on the family's section S(w) = sum a_k w^k and on S'(w) at
    w = 1 - (x + iy), for finite x and y: (hi, lo, e) with |S(w)| <= hi 2^-e
    and |S'(w)| >= lo 2^-e, each within 2^-(bits+1) relative of the exact
    modulus, up to a term of order 4^-bits.  S(w) = p(z) L / C_0 and
    |S'(w)| = |p'(z)| L / C_0, in the notation of _integer_coefficients.

    With k the number of fractional bits of x and y, w = W 2^-k for a
    Gaussian integer W, so w and z = 1 - w are exact at scale 2^-P for
    P >= k.  One Horner loop on the fixed-point a_k of _fixed_coefficients
    gives S~ at that scale, each product floored, with a running integer
    bound E on its error in units of 2^-P (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 5): a step changes it to at most |w| times
    the old one plus sqrt 2 for the two floors and 1 for the floored
    coefficient, and the integer update adds 1 more for the floor of the
    bound product.  Each product is taken as s W shifted by k, not as
    s (W 2^(P-k)) shifted by P: the same integer floored at the same place,
    so the loop is bit for bit the one at the full scale, while its
    multiplier has about as many bits as the root's own k (157 to 165 for
    the roots of a 160-bit solve) instead of P, 360 and more.

    S' comes from the section's identity (1 - w) S' = b S - (n+b) a_n w^n,
    as in _family_quotient: 2 z S' = N = (n+1) S - T, T = (3n+1) a_n w^n.
    w^n comes from _power, within n 2^(2-P) relative, and a_n is floored
    by less than 2^-P <= 2^-P a_n, so the floored T~ is within
    (n+1) 2^(3-P) (|Re T~| + |Im T~| + 2) + 3 units of T, and
    N~ = (n+1) S~ - T~ within F = (n+1) E plus that.  |Z|^2 = |z|^2 4^P is
    an exact integer, so with e = P + g,
    lo = floor(sqrt(|N~|^2 4^e / (4 |Z|^2))) - ceil(sqrt(F^2 4^e / (4 |Z|^2)))
    rounds nothing but the two integer roots, and |z| adds no error.  At
    z = 0 the identity gives no S'; there
    S'(1) = -c_1 L / C_0 = n (n+1) L / ((n+3) C_0) exactly.  No other error
    enters, so the bounds are a proof.

    P starts at 2 bits + 40 and doubles until E and F are below
    2^-(bits+2) of |S~| and |N~|.  At n (k+t) + 2 bits, with t >= 2 and
    |w| < 2^t, where the doubling stops, every coefficient (its denominator
    divides 4^n), every shift and every cut of _power is exact, so
    E = F = 0 there, hi and lo are the exact moduli rounded up and down,
    and an exact zero gets hi = 0.  The moduli are taken with g = bits + 4
    more bits, so at any scale their rounding is below 2^-(bits+4)
    relative.  lo <= 0 only when N~ = 0 at the exact scale, that is when
    S'(w) = 0.
    """
    xs, ys = x._mpf_, y._mpf_
    k = max(0, -xs[2], -ys[2])
    wr, wi = (1 << k) - _mpf_to_fixed(xs, k), -_mpf_to_fixed(ys, k)  # W = w 2^k
    w2 = wr * wr + wi * wi
    t = max(2, (abs(wr) | abs(wi)).bit_length() - k + 1)  # |w| < 2^t
    exact_scale = n * (k + t) + 2
    P = max(2 * bits + 40, k)
    while True:
        exact = P >= exact_scale
        zr, zi = _mpf_to_fixed(xs, P), _mpf_to_fixed(ys, P)
        wabs = isqrt(w2 << 2 * (P - k)) + 1  # |w| 2^P rounded up
        ec = 0 if exact else 4
        coeffs = _fixed_coefficients(n, P)
        sr, si, E = coeffs[n], 0, (0 if exact else 1)
        for c in coeffs[n - 1 :: -1]:
            sr, si = ((sr * wr - si * wi) >> k) + c, (sr * wi + si * wr) >> k
            E = ((E * wabs) >> P) + ec
        v2, z2 = sr * sr + si * si, zr * zr + zi * zi
        if z2:
            mr, mi, f = _power(wr, wi, n, k, P)
            top = (3 * n + 1) * coeffs[n]
            tr, ti = (top * mr << f, top * mi << f) if f >= 0 else (top * mr >> -f, top * mi >> -f)
            nr, ni = (n + 1) * sr - tr, (n + 1) * si - ti
            q = nr * nr + ni * ni
            F = 0 if exact else (n + 1) * E + ((n + 1) * (abs(tr) + abs(ti) + 2) >> (P - 3)) + 3
        if exact or ((E << (bits + 2)) ** 2 <= v2 and (not z2 or (F << (bits + 2)) ** 2 <= q)):
            break
        P = min(2 * P, exact_scale)
    g = bits + 4
    e = P + g
    hi = (isqrt((v2 << 2 * g) - 1) + 1 if v2 else 0) + (E << g)  # |S~| 2^g rounded up, + E
    if not z2:
        ints, scale = _integer_coefficients(n)
        return hi, (n * (n + 1) * scale << e) // ((n + 3) * ints[0]), e
    c = -(-(F * F << 2 * e) // (4 * z2))  # F^2 4^e / (4 |Z|^2), rounded up
    r = isqrt(c)
    return hi, isqrt((q << 2 * e) // (4 * z2)) - r - (r * r < c), e


def _div_up(num: int, den: int, bits: int) -> mpf:
    """num / den rounded up to `bits`, for integers num >= 0, den > 0.

    q = ceil(num 2^s / den) is at least 2^bits, where the integers are a
    finer grid than the numbers of `bits` bits, so rounding q up to `bits`
    rounds num / den up.
    """
    s = max(0, bits + 1 + den.bit_length() - num.bit_length())
    return mp.make_mpf(from_man_exp(-((-num << s) // den), -s, bits, "u"))


ROOT_COLUMNS = "n,j,re,im,residual,inclusion_radius"


def root_row(rs: RootSet, j: int) -> str:
    """The ROOT_COLUMNS of root j; re/im at 40 significant digits, enough to
    round-trip the first 128 bits of each value, residual and radius at 10."""
    z = rs.roots[j]
    return (
        f"{rs.degree},{j},{mpmath.nstr(z.real, 40)},{mpmath.nstr(z.imag, 40)},"
        f"{mpmath.nstr(rs.residuals[j], 10)},{mpmath.nstr(rs.inclusion_radii[j], 10)}"
    )


def rootset_csv(*root_sets: RootSet) -> str:
    """CSV with ROOT_COLUMNS: one row per root of each set, in the order given."""
    rows = [root_row(rs, j) for rs in root_sets for j in range(len(rs.roots))]
    return "\n".join([ROOT_COLUMNS, *rows]) + "\n"


@lru_cache(maxsize=16)
def _fixed_coefficients(n: int, P: int) -> tuple[int, ...]:
    """The section's coefficients a_k = C_k / C_0 = (b)_k / k! at scale
    2^-P, each rounded down by less than 2^-P: exact for P >= 2n, their
    denominators being powers of two dividing 4^k.  A rung reads two
    scales, the sweeps' and certify's; the bound keeps the rare exact
    scales of certify, n (k+2) + 2 bits wide, from piling up."""
    ints, _ = _integer_coefficients(n)
    return tuple((c << P) // ints[0] for c in ints)


def _aberth_family(p: ExactPolynomial, start, bits: int):
    """Ehrlich-Aberth solve for the family polynomial at fixed precision, in
    w = 1 - z, sweeping one root of each conjugate pair.

    The seeds of initial_points pair k with n-1-k as exact conjugates, and
    p is real, so its zeros pair up the same way.  Only seeds n//2 .. n-1
    are swept, with the Newton quotient of _family_quotient; for odd n the
    first of them is the middle root, the real zero near 4/3, which stays
    on the axis.  _aberth_core counts each other swept root also as its
    conjugate in every repulsion sum.  Then, still in fixed point, root
    n-1-k is set to the exact conjugate of root k, and the final rounding
    is symmetric in sign, so the returned set is exactly closed under
    conjugation.  A root that had wandered to its partner's zero would
    leave two coinciding disks, which certify flags as an overlap.  Seeds
    and results pass between z and w exactly in fixed point.
    """
    n = p.degree
    scale = bits + _GUARD
    one = 1 << scale
    axis = n % 2
    half = []
    for z in start[n // 2 :]:
        x, y = _to_fixed(to_mpc(z, bits), scale)
        half.append((one - x, -y))
    if axis:
        half[0] = (half[0][0], 0)
    half, status, sweeps = _aberth_core(_family_quotient(n, scale), half, bits, axis)
    roots = [(x, -y) for x, y in reversed(half[axis:])] + half
    return [_from_fixed((one - x, -y), scale, bits) for x, y in roots], status, sweeps


def _family_quotient(n: int, P: int):
    """The Newton quotient S/S' of the family's section S(w) = sum a_k w^k,
    a_k = (b)_k / k!, b = (n+1)/2, at scale 2^-P, as _aberth_core takes it.

    S comes from one Horner loop on the real fixed-point a_k, 4 multiplies a
    step.  They are exact at this scale for n <= P/2, their denominators
    being powers of two dividing 4^n, and rounded down, each by less than
    2^-P, beyond.  S' comes from the identity
    (1 - w) S' = b S - (n+b) a_n w^n, so
    S/S' = 2 S (1 - w) / ((n+1) S - (3n+1) a_n w^n); 1 - w = z is not 0
    near any zero, since all of them have Re z > 1/3.  w^n comes from
    _power, because at the fixed scale it would underflow: |w| is about
    0.385 near z = 1, so w^120 is about 2^-165.

    As in _bounded_horner, w enters the products as its own Gaussian
    integer w 2^k, k <= P its fractional bits, with shifts by k: the same
    integers as at the full scale.  A seed from initial_points has 50 to
    60 fractional bits, so the first sweep multiplies by integers of that
    width; later sweeps see all P bits.
    """
    coeffs = _fixed_coefficients(n, P)
    lead, rest = coeffs[-1], coeffs[-2::-1]
    top = (3 * n + 1) * lead
    one = 1 << P

    def quotient(wr, wi):
        low = wr | wi
        s = min(P, (low & -low).bit_length() - 1) if low else P
        xr, xi, k = wr >> s, wi >> s, P - s  # w = (xr + i xi) 2^-k
        sr, si = lead, 0
        for c in rest:
            sr, si = ((sr * xr - si * xi) >> k) + c, (sr * xi + si * xr) >> k
        mr, mi, e = _power(xr, xi, n, k, P)
        tr, ti = (top * mr << e, top * mi << e) if e >= 0 else (top * mr >> -e, top * mi >> -e)
        zr, zi = one - wr, -wi
        return (
            (sr * zr - si * zi) >> (P - 1),
            (sr * zi + si * zr) >> (P - 1),
            (n + 1) * sr - tr,
            (n + 1) * si - ti,
        )

    return quotient


def solve_complex_poly(coeffs, bits: int, start) -> list[mpc]:
    """Zeros of a small polynomial with complex coefficients (ascending
    order), one from each point of `start`, in its order: the cubics of
    geometry.branch_polyline, started next to their roots.  Coefficients
    and starts may be mpc, mpf, complex, float, int or Fraction; each part
    enters the scale once, rounded to nearest at `bits` by _mpc_parts,
    to_mpc's own libmp rounding, and then floored to the fixed scale, with
    no mpc made and mp.prec untouched.  The sweeps are the family's (_aberth_core without
    conjugate mirrors); a stall raises PrecisionExhaustedError."""
    cs = [_mpc_parts(c, bits) for c in coeffs]
    if len(cs) < 2 or cs[-1] == (fzero, fzero):
        raise ValueError("solve_complex_poly: need degree >= 1 and nonzero leading coefficient")
    scale = bits + _GUARD

    def fixed(parts):
        return _mpf_to_fixed(parts[0], scale), _mpf_to_fixed(parts[1], scale)

    quotient = _horner_quotient([fixed(c) for c in cs], scale)
    roots, status, sweeps = _aberth_core(quotient, [fixed(_mpc_parts(z, bits)) for z in start], bits)
    if status != "converged":
        raise PrecisionExhaustedError(f"solve_complex_poly: stalled at {bits} bits, {sweeps} sweeps")
    return [_from_fixed(z, scale, bits) for z in roots]


def _horner_quotient(coeffs, P: int):
    """The Newton quotient p/p' of a polynomial with Gaussian-integer
    coefficients (ascending) at scale 2^-P, as _aberth_core takes it: p and
    p' from one complex Horner loop with derivative."""
    lead, rest = coeffs[-1], coeffs[-2::-1]

    def quotient(zr, zi):
        sr, si = lead
        dr = di = 0
        for cr, ci in rest:
            dr, di = ((dr * zr - di * zi) >> P) + sr, ((dr * zi + di * zr) >> P) + si
            sr, si = ((sr * zr - si * zi) >> P) + cr, ((sr * zi + si * zr) >> P) + ci
        return sr, si, dr, di

    return quotient


def _aberth_core(quotient, roots, prec, axis=None):
    """Ehrlich-Aberth sweeps, in place, on fixed-point Gaussian integers:
    the one sweep loop of the library.

    Roots are (re, im) integer pairs at one shared scale 2^-P,
    P = prec + _GUARD, so x stands for x / 2^P, and quotient(zr, zi) returns
    the Newton quotient N = p/p' at a root as (nr, ni, dr, di), standing for
    (nr + i ni) / (dr + i di) at the same scale.  A product is one integer
    multiply and a right shift by P, and a complex quotient is one floor
    division by the squared modulus of the divisor; every shift and
    division rounds towards minus infinity.  The guard bits absorb the
    error that accumulates over a Horner loop.  This avoids libmp's
    per-operation normalisation of (sign, mantissa, exponent) tuples, which
    in pure Python dominated the solve.  The correction is
    N / (1 - N sigma), with sigma the repulsion sum of 1/(z_i - z_j) over
    the other roots.

    sigma is summed in IEEE doubles (_double_repulsion) on a double copy of
    each root, refreshed whenever the root moves.  sigma only steers the
    correction: its error moves the correction by about N^2 times as much,
    so once |N| nears 2^-prec a 2^-53 relative error in sigma stays far
    below the fixed scale, and the Newton quotient alone needs full
    precision (the mixed precision of MPSolve, Bini and Fiorentino, Numer.
    Algorithms 23, 2000).  With axis set, the roots are one of each
    conjugate pair of a real polynomial's zeros: the first `axis` of them
    lie on the real axis and stay there (the imaginary part of their
    corrections is dropped), and every later one stands also for its
    conjugate, whose double copy enters each repulsion sum, that root's own
    included.  Without axis (the cubic of branch_polyline) there are no
    mirrors.

    A root freezes once its relative correction c has 2 log2|c| < -prec - 16:
    Aberth converges at least quadratically at simple zeros, so its next
    correction would fall below 2^-(prec+8), the fixed scale, where it
    would only dither.  Stops 'converged' after a sweep that leaves no root
    moving, and 'stall' after max_sweeps otherwise, which find_roots
    certifies anyway and solve_complex_poly raises.  Relative corrections
    are compared as log2 values: math.log2 reads the top bits of an integer
    of any size, where a float conversion would overflow beyond 2^1024.
    """
    P = prec + _GUARD
    one = 1 << P
    roots = list(roots)
    n = len(roots)
    mirrored = axis is not None
    axis = axis or 0
    doubles = [_to_double(x, y, P) for x, y in roots]
    if mirrored:
        doubles += [_to_double(x, -y, P) for x, y in roots[axis:]]
    frozen = [False] * n
    max_sweeps = 120 + 6 * len(doubles)
    for sweep in range(1, max_sweeps + 1):
        for i in range(n):
            if frozen[i]:
                continue
            zr, zi = roots[i]
            nr, ni, dr, di = quotient(zr, zi)
            if not (nr or ni):
                frozen[i] = True
                continue
            if not (dr or di):
                roots[i] = (zr + (1 << (P + (-prec // 2))), zi)
            else:
                wr, wi = _fixed_div(nr, ni, dr, di, P)
                ar, ai = _double_repulsion(doubles, i, P)
                qr = one - ((wr * ar - wi * ai) >> P)
                qi = -((wr * ai + wi * ar) >> P)
                cr, ci = (wr, wi) if not (qr or qi) else _fixed_div(wr, wi, qr, qi, P)
                if i < axis:
                    ci = 0
                roots[i] = (zr - cr, zi - ci)
                cc = cr * cr + ci * ci
                if not cc or log2(cc) - 2 * log2(isqrt(zr * zr + zi * zi) + one) < -prec - 16:
                    frozen[i] = True  # the next correction is below the fixed scale
            x, y = roots[i]
            doubles[i] = fx, fy = _to_double(x, y, P)
            if mirrored and i >= axis:
                doubles[n + i - axis] = (fx, -fy)
        if all(frozen):
            return roots, "converged", sweep
    return roots, "stall", max_sweeps

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
next to the zeros: each seed is a point of the right branch of the
lemniscate |z (1-z)^2| = 4/27, which the zeros approach as n grows, equally
spaced in the phase of sqrt(z) (1-z), moved one step toward the
leading-order zero condition of the saddle-point analysis, which puts it
within about 1/n^2 of a zero away from the pinch.  The seeds, their
constants included, are computed in IEEE doubles with + - * / and
math.sqrt alone.  Aberth sweeps in IEEE doubles then polish each seed for
as long as a running bound on the rounding of the section's Horner value
says that doubles resolve it there, and stop it once its next correction
is predicted below that resolution; the fixed-point sweeps finish the last
digits, as MPSolve moves from floating point to multiprecision (Bini and
Robol, J. Comput. Appl. Math. 272, 2014).  Every seed is polished up to
n = 73 and fewer beyond, so the fixed-point sweeps take 2 at n = 2..48,
3 at n = 49..73 and 4 from n = 74 up to 300 and at 400, the last of them
freezing the last roots.  p is real and the seeds are closed under
conjugation, so the sweeps move one root of each conjugate pair, plus for
odd n the real zero near 4/3, which stays on the axis; the conjugates of
the others enter every repulsion sum, and afterwards each root is copied
onto its partner, so the root set is exactly closed under conjugation by
construction.  Each
Newton quotient takes one Horner loop on the real coefficients: S' follows
from the identity (1 - w) S' = b S - (n+b) a_n w^n of the section.  The
sweeps run in fixed point on plain Python integers: every root is a
Gaussian integer and every coefficient an integer at one shared scale
2^-(prec+8), the 8 guard bits absorbing the floor rounding of each shift
and division, and w = 1 - z maps (x, y) to (2^(prec+8) - x, -y) exactly.
The Horner products take w as its own Gaussian integer w 2^k, k its
fractional bits, and shift by k: the same integers as at the full scale,
from a shorter multiplier wherever w has fewer bits than the scale, as a
seed in the first sweep and every root in certify have.  A sweep skips
the per-operation normalisation that libmp's floating-point tuples cost
in pure Python.  Values enter the scale once and leave it, rounded to the
working precision, once.  Only the repulsion sums, which merely steer
each correction, run in IEEE doubles, one correctly rounded operation at
a time, so the roots are the same bits on every platform.
The same loop, with the same arithmetic and the same stop rule (a root
freezes once its next correction is predicted below the fixed scale, and
the solve is converged when none is left moving), solves the cubic of
geometry.branch_polyline, only without conjugate mirrors.

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
real, so one evaluation serves both members of a conjugate pair, and the
bookkeeping around the evaluations (pairing, order, overlaps) runs on the
roots' dyadic integers.  The solve is restarted at doubled precision
whenever the certificate comes out too weak.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isqrt, lcm, ldexp, log2, pi, sqrt

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_float,
    from_man_exp,
    mpf_neg,
    mpf_sub,
    round_nearest,
    to_float,
)

from .exact import ExactPolynomial, build_polynomial
from .numerics import (
    PrecisionConfig,
    PrecisionExhaustedError,
    _fixed_div,
    _from_fixed,
    _mpf_to_fixed,
    _to_fixed,
    to_mpc,
)

# Certified-radius acceptance target, relative to 1 + |root|.  At low working
# precision the rounding floor itself is coarser than this, so the effective
# target is max(RADIUS_REL_TOL, 2^(32-bits)).
RADIUS_REL_TOL = mpf("1e-20")

_GUARD = 8  # bits kept below 2^-prec by the fixed-point Aberth kernel
_UNIT_ROUNDOFF = ldexp(1.0, -53)  # of an IEEE double
_DOUBLE_FREEZE = ldexp(1.0, -53 - 16)  # _aberth_core's freeze at prec = 53
_NOT_FINITE = (finf, fninf, fnan)


class CertificationError(RuntimeError):
    """Raised when the a-posteriori root certificate cannot be established."""


@dataclass(frozen=True)
class RootSet:
    """The n computed zeros with residuals and certified inclusion radii.

    residuals[j] is an upper bound on |p(root_j)|, less than 2^(2-bits)
    relative above it; inclusion_radii[j] is the radius of a disk
    guaranteed to contain a true zero.  overlaps flags disks that meet or
    touch another disk, decided exactly, in which case the set does not
    isolate all zeros.
    """

    degree: int
    roots: tuple[mpc, ...]
    residuals: tuple[mpf, ...]
    inclusion_radii: tuple[mpf, ...]
    precision_used: int
    overlaps: tuple[bool, ...]

    def disks_disjoint(self) -> bool:
        return not any(self.overlaps)

    def max_relative_radius(self) -> float:
        """max_j r_j / (1 + |z_j|), find_roots' acceptance statistic, in IEEE
        doubles: r_j and the parts of z_j are rounded to the nearest double
        once, and every later step is one correctly rounded + - * / or
        math.sqrt, so the value is the same on every IEEE-754 platform
        (hypot and cmath are avoided, as in _double_repulsion).  |z| is taken
        as a sqrt(1 + (b/a)^2), a >= b the moduli of the parts, so nothing
        overflows short of the double range.  The value is within a few
        units of 2^-53 relative of the exact statistic."""
        worst = 0.0
        for r, z in zip(self.inclusion_radii, self.roots):
            xs, ys = z._mpc_
            a, b = abs(to_float(xs, rnd=round_nearest)), abs(to_float(ys, rnd=round_nearest))
            if a < b:
                a, b = b, a
            m = a * sqrt(1 + (b / a) * (b / a)) if a else 0.0
            worst = max(worst, to_float(r._mpf_, rnd=round_nearest) / (1 + m))
        return worst


def initial_points(n: int, bits: int = PrecisionConfig().bits) -> list[mpc]:
    """Starting configuration: n points next to the zeros, each a point of
    the right branch of the lemniscate |z (1-z)^2| = 4/27 (Re z > 1/3)
    moved one step toward the leading-order zero condition, then polished
    by Aberth sweeps in IEEE doubles while doubles resolve the section.

    With r = 2/sqrt 27, c = sqrt(2 pi n)/3 and u = sqrt(z) (1-z)/r, the
    saddle-point balance behind the zeros' asymptotics is
    r u^(n+1) = c (3z - 1); the branch is |u| = 1, which the zeros
    approach as n grows but miss by about (log n)/n.  Seed k starts at the
    branch point z0 = s0^2 with u0 = e^(i phi_k), phi_k = 2 pi (k + 1/2)/n,
    where s0 - s0^3 = r u0.  There u0^n = -1, so u = u0 v meets the balance
    with 3z - 1 taken at z0 when v^(n+1) = B = -(c/r) (3 z0 - 1) conj(u0).
    v is one Newton step v <- (n v + B / v^n) / (n + 1) from the previous
    seed's v, the first seed's from (3c/r)^(1/(n+1)), the value at
    phi = pi, and the seed solves s - s^3 = r u0 v by Newton steps from s0.
    Away from the pinch such a point lies within about 1/n^2 of a zero,
    and for n <= 120 within 0.56/n relative of one everywhere, where z0
    misses by up to 12/n.  _polish_in_doubles then takes each seed on
    toward its zero for as long as doubles resolve the section there, so
    that the fixed-point sweeps of find_roots take 2 at n = 2..48, 3 at
    n = 49..73 and 4 from n = 74 up to 300 and at 400 (4 at every n >= 4
    from the unpolished points).

    No phi_k is 0, so no z0 sits on the pinch z = 1/3;
    phi_(n-1-k) = 2 pi - phi_k, so the set is closed under conjugation.
    For odd n the middle seed has phi = pi, z0 = 4/3 and a real B, so every
    imaginary part in its arithmetic is 0 and it is exactly real.  The
    seeds with phi_k in [pi, 2 pi) are found by continuation in k from
    s0 = 2/sqrt 3, each s0 by Newton steps from the previous one, and
    polished; the rest are their exact conjugates.  The arithmetic, the
    constants of _seed_constants included, is in IEEE doubles, one
    correctly rounded + - * / or math.sqrt at a time, with no mpmath and no
    libm function, so the seeds are the same bits on every IEEE-754
    platform.  They leave as z = 1 - w, exact at `bits` unless |Re w| is
    below about 2^(53-bits), and so depend on `bits` only through that
    rounding.
    """
    if n < 1:
        raise ValueError("initial_points: n must be >= 1")
    points = [None] * n
    for k, (wr, wi) in enumerate(_polish_in_doubles(n, _saddle_seeds(n)), n // 2):
        x = mpf_sub(fone, from_float(wr), bits, round_nearest)
        y = from_float(wi, bits, round_nearest)
        points[k], points[n - 1 - k] = mp.make_mpc((x, mpf_neg(y))), mp.make_mpc((x, y))
    return points


def _saddle_seeds(n: int) -> list[tuple[float, float]]:
    """w = 1 - z of the unpolished seeds n//2 .. n-1 of initial_points, as
    pairs of doubles, from the constants of _seed_constants."""
    rr, ri, wr, wi, kr, vr = _seed_constants(n)
    sr, si, vi = _S0, 0.0, 0.0
    seeds = []
    for k in range(n // 2, n):
        if k > n // 2:
            wr, wi = wr * rr - wi * ri, wr * ri + wi * rr
        sr, si = _cubic_newton(sr, si, wr, wi)
        tr, ti = 3.0 * (sr * sr - si * si) - 1.0, 6.0 * (sr * si)  # 3 z0 - 1
        # B = -kr (3 z0 - 1) conj(r u0)
        br, bi = -kr * (tr * wr + ti * wi), -kr * (ti * wr - tr * wi)
        mr, mi = _double_power(vr, vi, n)
        qr, qi = _double_div(br, bi, mr, mi)
        vr, vi = (n * vr + qr) / (n + 1), (n * vi + qi) / (n + 1)
        xr, xi = _cubic_newton(sr, si, wr * vr - wi * vi, wr * vi + wi * vr)
        seeds.append((1.0 - (xr * xr - xi * xi), -(2.0 * (xr * xi))))
    return seeds


_R = 2.0 / sqrt(27.0)  # r, |s - s^3| on the branch
_S0 = 2.0 / sqrt(3.0)  # s0 of the branch point at phi = pi: s0 - s0^3 = -r


def _seed_constants(n: int) -> tuple[float, float, float, float, float, float]:
    """(rot, r u0, kr, v) of _saddle_seeds as doubles, complex values as
    their two parts: rot = e^(2 pi i / n), u0 of one seed over u0 of the
    one before; r u0 of seed n//2, -r for odd n and -r e^(i pi / n) for
    even n; kr = c / r^2; and v = (3c/r)^(1/(n+1)), the v of phi = pi.
    With c = sqrt(2 pi n)/3 and r = 2/sqrt 27, kr = 9/4 sqrt(2 pi n) and
    3c/r = sqrt(54 pi n)/2, each from pi in two roundings and a square root.

    e^(i pi / n) comes from the Taylor polynomials of cos t and sin t / t of
    degree 30 at t = pi / n, in Horner form, whose first omitted term is
    below 2^-64 at t <= pi; rot is its square.  r = 2/sqrt 27 and
    s0 = 2/sqrt 3 are module constants.  v comes from (3c/r)^(2^-j),
    2^j > n + 1, by j square roots, taken to the power 2^j / (n + 1) in
    (1, 2] to first order, which by Bernoulli's inequality lies below v,
    and then by Newton steps on v^(n+1) = 3c/r, which rise above v once
    and then fall, until a step no longer falls.
    """
    t = pi / n
    tt = t * t
    cr = sr = 1.0
    for j in range(15, 0, -1):
        cr = 1.0 - tt * cr / ((2 * j) * (2 * j - 1))
        sr = 1.0 - tt * sr / ((2 * j + 1) * (2 * j))
    sr *= t  # e^(i pi / n) = cr + i sr
    wr, wi = (-_R, 0.0) if n % 2 else (-_R * cr, -_R * sr)
    a = 0.5 * sqrt(54.0 * pi * n)  # 3c/r
    j = (n + 1).bit_length()
    x = a
    for _ in range(j):
        x = sqrt(x)
    v, last = 1.0 + (x - 1.0) * (2**j / (n + 1)), inf
    while True:
        v = (n * v + a / _double_power(v, 0.0, n)[0]) / (n + 1)
        if v >= last:
            break
        last = v
    return cr * cr - sr * sr, 2.0 * (cr * sr), wr, wi, 2.25 * sqrt(2.0 * pi * n), v


def _cubic_newton(sr: float, si: float, wr: float, wi: float) -> tuple[float, float]:
    """The solution of s - s^3 = w next to s, in doubles: Newton steps from
    s until the next correction is predicted below the doubles' resolution
    (|c|^2 < 2^-69 at |s| < 2, _aberth_core's freeze at 53 bits) or the
    correction stops shrinking."""
    last = inf
    while True:
        ar, ai = sr * sr - si * si, 2.0 * (sr * si)
        fr, fi = sr - (ar * sr - ai * si) - wr, si - (ar * si + ai * sr) - wi
        cr, ci = _double_div(fr, fi, 1.0 - 3.0 * ar, -3.0 * ai)
        sr, si = sr - cr, si - ci
        cc = cr * cr + ci * ci
        if cc < _DOUBLE_FREEZE or cc >= last:
            return sr, si
        last = cc


def _double_div(ar: float, ai: float, br: float, bi: float) -> tuple[float, float]:
    """(ar + i ai) / (br + i bi) in doubles, as a conj(b) / |b|^2."""
    bb = br * br + bi * bi
    return (ar * br + ai * bi) / bb, (ai * br - ar * bi) / bb


def _double_power(xr: float, xi: float, n: int) -> tuple[float, float]:
    """(xr + i xi)^n in doubles, by binary powering."""
    mr, mi = 1.0, 0.0
    while True:
        if n & 1:
            mr, mi = mr * xr - mi * xi, mr * xi + mi * xr
        n >>= 1
        if not n:
            return mr, mi
        xr, xi = xr * xr - xi * xi, 2.0 * (xr * xi)


def _polish_in_doubles(n: int, half: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Ehrlich-Aberth sweeps in IEEE doubles on the section S(w) of the
    family, from the seeds' w = 1 - z for roots n//2 .. n-1 (for odd n the
    first of them lies on the real axis and stays there); returns the
    polished w.  They sweep as _aberth_family and _aberth_core do in fixed
    point: the quotient S/S' from the identity
    (1 - w) S' = b S - (n+b) a_n w^n, the conjugates of the other roots as
    mirrors in every repulsion sum, and the repulsion sums from
    _double_repulsion itself, at its 2^-60 scale.

    A root takes a correction only while doubles resolve S there: the
    Horner value S~ must exceed gamma mu, mu = sum a_k |w|^k, which bounds
    its rounding error.  Each step rounds the product s w by at most
    2^(1/2) gamma_2 relative (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.5), the sum by u = 2^-53 and each a_k once more, so
    gamma = (4n + 4) u covers the first-order bound with room for the rest.
    A root also stops once its next correction is predicted below its
    resolution gamma mu / |S'|, the distance from the root within which S~
    is rounding noise: Aberth converges cubically at simple zeros, so after
    the corrections c' and c the next is about |c| (|c| / |c'|)^3.  A
    root's first correction has no predecessor, so it is always evaluated
    once more.  The stop saves the Horner pass that would only find S~
    below gamma mu: at every n up to 300 and at 400 no root it stops would
    take a further correction, and at n = 16..48 each root takes two
    passes.  A correction that is not at most half its root's last one is
    left unapplied and stops the root, so the corrections of a moving root
    halve every sweep and the loop ends.  A stopped root is not evaluated
    again.

    Doubles resolve S least on the far side of the branch, near z = 4/3:
    every seed takes corrections up to n = 73, 20 of 50 at n = 100, and
    from n = 200 on only about a dozen next to the pinch, which start
    farthest from their zeros.  From n = 740 on a_n overflows a double and
    nothing is polished.  S~ and the a_n w^n term are divided by mu before
    any square is taken, so nothing overflows below that.  Near the zeros
    2 z S' is about -(3n+1) a_n w^n, so where w^n would underflow, S' is
    far too small against mu for the guard to pass.  Only + - * / and
    math.sqrt on doubles are used, one correctly rounded operation at a
    time, so the result is the same on every IEEE-754 platform.
    """
    ints, _ = _integer_coefficients(n)
    try:
        coeffs = [c / ints[0] for c in ints]  # a_k, each correctly rounded
        top = (3 * n + 1) * ints[n] / ints[0]
    except OverflowError:
        return half
    lead, rest = coeffs[-1], coeffs[-2::-1]
    gamma = (4 * n + 4) * _UNIT_ROUNDOFF
    axis = n % 2
    m = len(half)
    doubles = half + [(x, -y) for x, y in half[axis:]]
    last = [inf] * m
    moving = list(range(m))
    while moving:
        still = []
        for i in moving:
            wr, wi = doubles[i]
            aw = sqrt(wr * wr + wi * wi)
            sr, si, mu = lead, 0.0, lead
            for c in rest:
                sr, si = sr * wr - si * wi + c, sr * wi + si * wr
                mu = mu * aw + c
            sr, si, t = sr / mu, si / mu, top / mu  # so that no square below overflows
            if not sr * sr + si * si > gamma * gamma:
                continue  # S~ is rounding noise here
            mr, mi = _double_power(wr, wi, n)
            dr, di = (n + 1) * sr - t * mr, (n + 1) * si - t * mi  # 2 z S' / mu
            dd = dr * dr + di * di
            if not dd:
                continue  # S' vanishes here: left to the fixed-point sweeps
            zr, zi = 1.0 - wr, -wi
            nr, ni = _double_div(2.0 * (sr * zr - si * zi), 2.0 * (sr * zi + si * zr), dr, di)
            ar, ai = _double_repulsion(doubles, i, _DOUBLE_SCALE)
            ar, ai = ar * _DOUBLE_UNIT, ai * _DOUBLE_UNIT
            qr, qi = 1.0 - (nr * ar - ni * ai), -(nr * ai + ni * ar)
            cr, ci = (nr, ni) if not (qr or qi) else _double_div(nr, ni, qr, qi)
            if i < axis:
                ci = 0.0
            cc = cr * cr + ci * ci
            prev = last[i]
            if 4.0 * cc > prev:
                continue
            last[i] = cc
            doubles[i] = wr, wi = wr - cr, wi - ci
            if i >= axis:
                doubles[m + i - axis] = wr, -wi
            # the predicted next correction |c| (|c| / |c_prev|)^3 against
            # the resolution gamma mu / |S'| = 2 gamma |z| / |d|, squared
            c2, zz = cc * cc, zr * zr + zi * zi
            if prev == inf or c2 * c2 * dd > 4.0 * gamma * gamma * zz * (prev * prev * prev):
                still.append(i)
        moving = still
    return doubles[:m]


def find_roots(p: ExactPolynomial, cfg: PrecisionConfig = PrecisionConfig()) -> RootSet:
    """All n zeros of p, certified; starts at cfg.bits and doubles the
    precision until the certificate is strong (disjoint disks, radii below
    RADIUS_REL_TOL relative) or the precision ceiling is hit.

    The iteration starts from the seeds of initial_points, polished in
    doubles, so the result is a function of p and cfg alone, and the root
    set is exactly closed under conjugation (see _aberth_family).  In the w basis one rung
    suffices at the default precision at every degree tried up to 400;
    the doubling is the safety net, and a retry starts from the previous
    rung's estimates.  Each inclusion radius is an upper bound
    rounded in integers (see certify).  Raises ValueError when p is not the
    family member of its degree.
    """
    _require_family(p)
    n = p.degree
    bits = cfg.bits
    start = initial_points(n, bits)
    trace: list[str] = []
    while True:
        raw, status, sweeps = _aberth_family(p, start, bits)
        trace.append(f"{bits} bits: {status} after {sweeps} sweeps")
        rs = None
        try:
            rs = certify(p, raw, bits)
        except CertificationError:
            pass
        target = max(RADIUS_REL_TOL, mpf(2) ** (32 - bits))
        if rs is not None and rs.disks_disjoint() and rs.max_relative_radius() <= target:
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
    other is rounded to `bits` once.  The bookkeeping then runs on the
    dyadic integers of the roots: every centre is a Gaussian integer at the
    finest exponent among them, exactly.  p is real, so |p(conj z)| = |p(z)|:
    roots are keyed by (Re, |Im|) there, every key is evaluated once, at
    its member with Im z >= 0, and a conjugate-closed set costs one
    evaluation per pair.  The order is that of the integer pairs, and two
    disks overlap when they meet, touching included, decided exactly on the
    centres and the radii as integers at one common exponent.  Raises
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
    parts = [z._mpc_ for z in zs]
    for z, (xs, ys) in zip(zs, parts):
        if xs in _NOT_FINITE or ys in _NOT_FINITE:
            raise CertificationError(f"certification failed: root {z} is not finite")
    e0 = min((v[2] for xy in parts for v in xy if v[1]), default=0)
    centres = [(_mpf_to_fixed(xs, -e0), _mpf_to_fixed(ys, -e0)) for xs, ys in parts]
    done: dict[tuple[int, int], tuple[mpf, mpf]] = {}  # (residual, radius) by (Re, |Im|)
    values = []
    for z, (x, y), (_, ys) in zip(zs, centres, parts):
        key = (x, abs(y))
        if key not in done:
            im = z.imag if y >= 0 else mp.make_mpf(mpf_neg(ys))  # the member with Im z >= 0
            hi, lo, e = _bounded_horner(n, z.real, im, bits)
            if lo <= 0:
                raise CertificationError(
                    f"certification failed: p' vanishes at root {mpmath.nstr(z, 17)}"
                )
            done[key] = _div_up(hi * ints[0], scale << e, bits), _div_up(n * hi, lo, bits)
        values.append(done[key])
    order = sorted(range(n), key=centres.__getitem__)
    residuals = tuple(values[i][0] for i in order)
    radii = tuple(values[i][1] for i in order)
    rads = [r._mpf_ for r in radii]
    e1 = min([e0, *(r[2] for r in rads if r[1])])  # a grid for the radii too
    s = e0 - e1
    centres = [centres[i] for i in order]
    disks = [(x << s, y << s, _mpf_to_fixed(r, -e1)) for (x, y), r in zip(centres, rads)]
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
    return RootSet(n, tuple(zs[i] for i in order), residuals, radii, bits, tuple(overlaps))


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


def _power(xr: int, xi: int, n: int, k: int, P: int) -> tuple[int, int, int]:
    """(x 2^-k)^n for the Gaussian integer x, as (mr, mi, e) standing for
    (mr + i mi) 2^e, by binary powering that cuts every product back to P
    bits: a small power keeps its relative precision, where at the fixed
    scale 2^-P it would lose it, down to zero.

    The callers pass a point of the scale 2^-P as its own Gaussian integer
    x = w 2^k, k <= P its fractional bits, so the first products are short.
    A cut keeps the top P bits of a product whatever its trailing zeros,
    and a product with no more than P bits is kept whole, so every
    intermediate, and the result, has the same value as the power of
    x 2^(P-k) at the scale 2^-P: only the first products are cheaper.

    The cut error, which _bounded_horner's proof relies on: a cut floors a
    product v whose larger part has P + c bits, c > 0, by less than 2^c in
    each part, so it moves v by less than 2^(1.5-P) |v|.  A cut squaring
    to x^(2^j) enters the result floor(n / 2^j) times, and a cut in the
    accumulator once, one per set bit of n: n times in all.  So the result
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


def solve_complex_poly(coeffs, bits: int, start=None) -> list[mpc]:
    """Zeros of a general small polynomial with complex coefficients
    (ascending order).  Exists for the cubic of geometry.branch_polyline;
    this is not a general-purpose solver surface.  The sweeps are the
    family's (_aberth_core without conjugate mirrors: repulsion sums in
    doubles, the predicted-convergence freeze), on the quotient of
    _horner_quotient; a solve that stalls is run once more at twice the
    precision."""
    with mp.workprec(bits):
        cs = [to_mpc(c, bits) for c in coeffs]
        if len(cs) < 2 or cs[-1] == 0:
            raise ValueError("solve_complex_poly: need degree >= 1 and nonzero leading coefficient")
        d = len(cs) - 1
        if start is None:
            centroid = -cs[-2] / (d * cs[-1])
            bound = 1 + max(abs(c / cs[-1]) for c in cs[:-1])
            offset = mp.pi * (mp.sqrt(5) - 1)
            start = [
                centroid + bound * mp.exp(mpc(0, 2 * mp.pi * k / d + offset)) for k in range(d)
            ]
        scale = bits + _GUARD
        fixed = [_to_fixed(c, scale) for c in cs]
        roots = [_to_fixed(mpc(z), scale) for z in start]
        roots, status, _ = _aberth_core(_horner_quotient(fixed, scale), roots, bits)
        if status != "converged":
            # fall back to one escalation; the cubic is benign except at the pinch
            fixed = [(x << bits, y << bits) for x, y in fixed]
            roots = [(x << bits, y << bits) for x, y in roots]
            scale += bits
            roots, status, _ = _aberth_core(_horner_quotient(fixed, scale), roots, 2 * bits)
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
    moving, and 'stall' after max_sweeps otherwise; the caller certifies
    the returned configuration either way.  Relative corrections are
    compared as log2 values: math.log2 reads the top bits of an integer of
    any size, where a float conversion would overflow beyond 2^1024.
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


_DOUBLE_SCALE = 60  # fixed-point bits of the double copies of the swept roots
_DOUBLE_UNIT = 2.0**-_DOUBLE_SCALE


def _to_double(x: int, y: int, P: int) -> tuple[float, float]:
    """The Gaussian integer (x, y) at scale 2^-P as two doubles, cut to the
    scale 2^-60 first: each is an integer multiple of 2^-60, so a nonzero
    difference of two of them is at least 2^-60 in modulus."""
    s = P - _DOUBLE_SCALE
    return (x >> s) * _DOUBLE_UNIT, (y >> s) * _DOUBLE_UNIT


def _double_repulsion(doubles: list[tuple[float, float]], i: int, P: int) -> tuple[int, int]:
    """The repulsion sum of 1/(z_i - z_j) over the points doubles[j], j != i,
    in IEEE doubles, returned as a Gaussian integer at scale 2^-P.

    Only float + - * / are used, one operation a step, so every step rounds
    once, correctly, on any IEEE-754 platform and the sum is the same
    everywhere; complex division and cmath are avoided because C compilers
    may fuse their multiplies and adds.  A zero difference stands for
    2^-61, below any nonzero one, and adds its reciprocal 2^61 to the real
    part.  The sum enters the scale through 2^-60, never through 2^-P,
    which overflows a double beyond P = 1023.
    """
    zr, zi = doubles[i]
    ar = ai = 0.0
    for xr, xi in doubles[:i] + doubles[i + 1 :]:
        er = zr - xr
        ei = zi - xi
        ee = er * er + ei * ei
        if ee:
            ar += er / ee
            ai -= ei / ee
        else:
            ar += 2.0**61
    s = P - _DOUBLE_SCALE
    return int(ar * 2.0**_DOUBLE_SCALE) << s, int(ai * 2.0**_DOUBLE_SCALE) << s

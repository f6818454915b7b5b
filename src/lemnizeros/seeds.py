"""The seeds of the family's solve, and every IEEE-double step of it.

A seed carries out the saddle-point analysis behind the zeros'
asymptotics.  With r = 2/sqrt 27, c = sqrt(2 pi n)/3 and u = sqrt(z) (1-z)/r,
the leading-order zero condition is r u^(n+1) = c (3z - 1).  Its limit is
|u| = 1, the right branch of the lemniscate |z (1-z)^2| = 4/27, Re z > 1/3,
which the zeros approach as n grows but miss by about (log n)/n.  Seed k
starts at the branch point z0 = s0^2 with u0 = e^(i phi_k),
phi_k = 2 pi (k + 1/2)/n, and s0 - s0^3 = r u0 (branch_point).  There
u0^n = -1, so u = u0 v meets the condition with 3z - 1 taken at z0 when
v^(n+1) = B = -(c/r) (3 z0 - 1) conj(u0), and saddle_step moves the point
by one Newton step on v.  Away from the pinch z = 1/3 the moved point lies
within about 1/n^2 of a zero, and for n <= 120 within 0.56/n relative of
one everywhere, where z0 misses by up to 12/n.  No phi_k is 0, so no z0
sits on the pinch; phi_(n-1-k) = 2 pi - phi_k, so the set is closed under
conjugation, and for odd n the middle seed (phi = pi, z0 = 4/3, B real) is
exactly real.  Only seeds n//2 .. n-1, phi_k in [pi, 2 pi), are computed,
by continuation in k from s0 = 2/sqrt 3 and the v of phi = pi.  The same
continuation of branch_point, without v, seeds geometry.branch_polyline
(branch_half).

_polish_in_doubles then runs Aberth sweeps in doubles on them while doubles
resolve the section, as MPSolve moves from floating point to
multiprecision (Bini and Robol, J. Comput. Appl. Math. 272, 2014).  Doubles
resolve it least on the far side of the branch, near z = 4/3: every seed is
polished up to n = 73, 20 of 50 at n = 100, about a dozen next to the pinch
from n = 200 on, and none from n = 740, where a_n overflows a double.  So
the fixed-point sweeps of rootfinder take 2 at n = 2..48, 3 at n = 49..73
and 4 from n = 74 up to 300 and at 400 (4 at every n >= 4 unpolished).

The polish is a second sweep loop, not rootfinder._aberth_core at a low
precision: a Horner step here is four float multiplies, where the
fixed-point loop shifts integers and adds _power and floor divisions to
every quotient.  Seeding plus the fixed-point sweeps at 160 bits from the
same unpolished seeds, best of 11 in ms (CPython 3.11, 2 cores), with this
polish and with _aberth_core at 64 to 96 bits in its place, favour the
polish up to about n = 100, where 96 bits already win:

    n        10          25          40        60        100
    polish   0.39        1.20        2.3       5.0       14.5
    core     0.54-0.55   1.67-1.87   3.1-3.6   5.8-6.9   14.0-16.5

Every operation here, the constants of _seed_constants included, is one
correctly rounded + - * / or math.sqrt on doubles, with no mpmath and no
libm function, so the seeds are the same bits on every IEEE-754 platform;
a test checks the module's imports (math and exact alone) and namespace.
rootfinder.initial_points makes the n seeds of polished_half(n), and
rootfinder._aberth_core sums its repulsion terms with _double_repulsion.
"""

from __future__ import annotations

from math import inf, pi, sqrt

from .exact import _integer_coefficients

_DOUBLE_FREEZE = 2.0 ** (-53 - 16)  # _aberth_core's freeze at prec = 53
_R = 2.0 / sqrt(27.0)  # r, |s - s^3| on the branch
_S0 = 2.0 / sqrt(3.0)  # s0 of the branch point at phi = pi: s0 - s0^3 = -r
_DOUBLE_SCALE = 60  # fixed-point bits of the double copies of the swept roots
_DOUBLE_UNIT = 2.0**-_DOUBLE_SCALE


def polished_half(n: int) -> list[tuple[float, float]]:
    """w = 1 - z of the seeds n//2 .. n-1, polished, as pairs of doubles."""
    return _polish_in_doubles(n, _saddle_seeds(n))


def _saddle_seeds(n: int) -> list[tuple[float, float]]:
    """w = 1 - z of the unpolished seeds n//2 .. n-1, as pairs of doubles,
    from the constants of _seed_constants."""
    rr, ri, wr, wi, kr, vr = _seed_constants(n)
    sr, si, vi = _S0, 0.0, 0.0
    seeds = []
    for k in range(n // 2, n):
        if k > n // 2:
            wr, wi = wr * rr - wi * ri, wr * ri + wi * rr
        sr, si = branch_point(sr, si, wr, wi)
        vr, vi, xr, xi = saddle_step(n, kr, sr, si, wr, wi, vr, vi)
        seeds.append((1.0 - (xr * xr - xi * xi), -(2.0 * (xr * xi))))
    return seeds


def saddle_step(
    n: int, kr: float, sr: float, si: float, wr: float, wi: float, vr: float, vi: float
) -> tuple[float, float, float, float]:
    """The step of the branch point s0 = sr + i si, s0 - s0^3 = r u0 =
    wr + i wi, toward the zero condition: the previous seed's v = vr + i vi
    takes one Newton step v <- (n v + B / v^n) / (n + 1) on v^(n+1) = B =
    -kr (3 z0 - 1) conj(r u0), kr = c / r^2, and the point moves to the
    solution s of s - s^3 = r u0 v next to s0.  Returns v and s, as parts."""
    tr, ti = 3.0 * (sr * sr - si * si) - 1.0, 6.0 * (sr * si)  # 3 z0 - 1
    br, bi = -kr * (tr * wr + ti * wi), -kr * (ti * wr - tr * wi)
    mr, mi = _double_power(vr, vi, n)
    qr, qi = _double_div(br, bi, mr, mi)
    vr, vi = (n * vr + qr) / (n + 1), (n * vi + qi) / (n + 1)
    return (vr, vi, *branch_point(sr, si, wr * vr - wi * vi, wr * vi + wi * vr))


def _seed_constants(n: int) -> tuple[float, float, float, float, float, float]:
    """(rot, r u0, kr, v) of _saddle_seeds as doubles, complex values as
    their two parts: rot = e^(2 pi i / n), u0 of one seed over u0 of the
    one before; r u0 of seed n//2, -r for odd n and -r e^(i pi / n) for
    even n; kr = c / r^2; and v = (3c/r)^(1/(n+1)), the v of phi = pi.
    With c = sqrt(2 pi n)/3 and r = 2/sqrt 27, kr = 9/4 sqrt(2 pi n) and
    3c/r = sqrt(54 pi n)/2, each from pi in two roundings and a square root.

    e^(i pi / n) comes from _half_turn, and rot is its square.  v comes from
    (3c/r)^(2^-j), 2^j > n + 1, by j square roots, taken to the power
    2^j / (n + 1) in (1, 2] to first order, which by Bernoulli's inequality
    lies below v, and then by Newton steps on v^(n+1) = 3c/r, which rise
    above v once and then fall, until a step no longer falls.
    """
    cr, sr = _half_turn(n)
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


def _half_turn(n: int) -> tuple[float, float]:
    """e^(i pi / n) as two doubles, from the Taylor polynomials of cos t and
    sin t / t of degree 30 at t = pi / n in Horner form, whose first omitted
    term is below 2^-64 at t <= pi."""
    t = pi / n
    tt = t * t
    cr = sr = 1.0
    for j in range(15, 0, -1):
        cr = 1.0 - tt * cr / ((2 * j) * (2 * j - 1))
        sr = 1.0 - tt * sr / ((2 * j + 1) * (2 * j))
    return cr, sr * t


def branch_half(samples: int) -> list[tuple[float, float]]:
    """z = s^2, s - s^3 = r e^(i phi_j), at phi_j = pi j / samples for
    j = samples .. 2 samples - 1, as pairs of doubles: branch_point from
    s0 = 2/sqrt 3 (z = 4/3), each target turned by _half_turn(samples)."""
    cr, ci = _half_turn(samples)
    sr, si, wr, wi = _S0, 0.0, -_R, 0.0
    points = []
    for _ in range(samples):
        sr, si = branch_point(sr, si, wr, wi)
        points.append((sr * sr - si * si, 2.0 * (sr * si)))
        wr, wi = wr * cr - wi * ci, wr * ci + wi * cr
    return points


def branch_point(sr: float, si: float, wr: float, wi: float) -> tuple[float, float]:
    """The solution of s - s^3 = w next to s, in doubles: Newton steps from
    s until the next correction is predicted below the doubles' resolution
    (|c|^2 < 2^-69 at |s| < 2, _aberth_core's freeze at 53 bits) or the
    correction stops shrinking.  With w = r u, |u| = 1, s^2 is the point
    of the lemniscate's right branch at the phase of u."""
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
    family from the w of seeds n//2 .. n-1, as rootfinder._aberth_family
    sweeps in fixed point: the quotient S/S' from the identity
    (1 - w) S' = b S - (n+b) a_n w^n, the other roots' conjugates as mirrors
    in the repulsion sums of _double_repulsion, at its 2^-60 scale, and for
    odd n the first root kept on the real axis; returns the polished w.

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
    again.  From n = 740 on a_n overflows a double and nothing is polished;
    below, S~ and the a_n w^n term are divided by mu before any square is
    taken, so nothing overflows.  Near the zeros 2 z S' is about
    -(3n+1) a_n w^n, so where w^n would underflow, S' is far too small
    against mu for the guard to pass.
    """
    ints, _ = _integer_coefficients(n)
    try:
        coeffs = [c / ints[0] for c in ints]  # a_k, each correctly rounded
        top = (3 * n + 1) * ints[n] / ints[0]
    except OverflowError:
        return half
    lead, rest = coeffs[-1], coeffs[-2::-1]
    gamma = (4 * n + 4) * 2.0**-53  # 2^-53, the unit roundoff of a double
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

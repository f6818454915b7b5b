import pathlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from lemnizeros.exact import _integer_coefficients, pochhammer  # noqa: E402
from lemnizeros.numerics import _mpf_to_fixed, f_eval, principal_sqrt, to_mpc, to_mpf  # noqa: E402
from lemnizeros.quadrature import legendre_rule  # noqa: E402
from lemnizeros.rootfinder import _cut, _fixed_coefficients  # noqa: E402


@pytest.fixture(scope="session")
def root_cache():
    """Session-wide certified RootSets keyed by degree (default precision).

    Solves are expensive at large n; every test that needs certified roots
    goes through here so the n=2..80 campaign happens at most once.
    """
    from lemnizeros.exact import build_polynomial
    from lemnizeros.rootfinder import find_roots

    cache: dict[int, object] = {}

    def get(ns):
        for n in sorted(set(ns) - cache.keys()):
            cache[n] = find_roots(build_polynomial(n))
        return {n: cache[n] for n in ns}

    return get


# Independent routes kept as oracles for the library's closed forms.


def exact_horner(p, z):
    """p(z) and p'(z) exactly, at a finite binary floating-point point z:
    the oracle for the bounded evaluation behind rootfinder.certify.

    With z = (X + iY) 2^-k, so that w = 1 - z = W 2^-k for the Gaussian
    integer W = (2^k - X) - iY, one homogenised Horner loop over the w
    coefficients C_k of _integer_coefficients gives P = p(z) L 2^(kn) and
    D = p'(z) L 2^(kn), the derivative in w negated.  Returns (P, D, L 2^(kn))
    with P and D as (real, imag) integer pairs.  Raises ValueError when z is
    not finite.
    """
    n = p.degree
    coeffs, scale = _integer_coefficients(n)
    z = mpmath.mpmathify(z)
    if not mpmath.isfinite(z):
        raise ValueError(f"exact_horner: {z} is not finite")
    (xs, xm, xe, _), (ys, ym, ye, _) = z.real._mpf_, z.imag._mpf_
    k = max(0, -xe, -ye)
    x = (1 << k) - ((-xm if xs else xm) << (xe + k))
    y = (ym if ys else -ym) << (ye + k)
    vr, vi, dr, di = coeffs[n], 0, 0, 0
    for m in range(n - 1, -1, -1):
        dr, di = dr * x - di * y + vr, dr * y + di * x + vi
        vr, vi = vr * x - vi * y + (coeffs[m] << (k * (n - m))), vr * y + vi * x
    return (vr, vi), (-dr << k, -di << k), scale << (k * n)


def _binom_frac(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!."""
    out = Fraction(1)
    for j in range(k):
        out *= x - j
    return out / factorial(k)


def _jacobi_in_z(n: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficients in z of P_n^(alpha,beta)(1 - 2z), by the binomial sum

        P_n^(a,b)(w) = 2^-n sum_s C(n+a, n-s) C(n+b, s) (w-1)^s (w+1)^(n-s)

    expanded with exact polynomial arithmetic.  Independent of the series
    route used elsewhere, which is the point of the cross-check.
    """
    # In terms of z: w - 1 = -2z and w + 1 = 2 - 2z, so
    # P = sum_s C(n+a, n-s) C(n+b, s) (-z)^s (1-z)^(n-s).
    acc = [Fraction(0)] * (n + 1)
    for s in range(n + 1):
        coef = _binom_frac(n + alpha, n - s) * _binom_frac(n + beta, s)
        if coef == 0:
            continue
        # (-z)^s (1-z)^(n-s) expanded into monomials
        for j in range(n - s + 1):
            acc[s + j] += coef * (-1) ** (s + j) * comb(n - s, j)
    return acc


def scaled_chain(p) -> list[Fraction]:
    """a_m = |c_m| (n+1)^m: strictly increasing, it puts every zero in |z| < n+1."""
    return [abs(c) * (p.degree + 1) ** m for m, c in enumerate(p.coefficients)]


def stirling_term(n, z, bits):
    """(2/sqrt(27))^n sqrt(2 pi) / (3 sqrt(n) (sqrt z)^(n+1)), the leading
    Stirling term of the segment integral, with relative error O(1/n)."""
    with mp.workprec(bits):
        sz = principal_sqrt(to_mpc(z, bits), bits)
        return (2 / mp.sqrt(27)) ** n * mp.sqrt(2 * mp.pi) / (3 * mp.sqrt(n) * sz ** (n + 1))


def power_p_wide(xr: int, xi: int, n: int, P: int) -> tuple[int, int, int]:
    """(x 2^-P)^n for the Gaussian integer x at scale 2^-P as (mr, mi, e),
    (mr + i mi) 2^e, every product cut back to P bits: rootfinder._power
    with x at the full scale, the reference whose values the power of the
    root's own Gaussian integer must match."""
    mr, mi, e, be = 1, 0, 0, -P
    while True:
        if n & 1:
            mr, mi, e = _cut(mr * xr - mi * xi, mr * xi + mi * xr, e + be, P)
        n >>= 1
        if not n:
            return mr, mi, e
        xr, xi, be = _cut(xr * xr - xi * xi, 2 * xr * xi, 2 * be, P)


def family_quotient_p_wide(n: int, P: int):
    """rootfinder._family_quotient with every product taken against w at
    the full scale 2^-P and shifted by P: the reference whose integers the
    kernel, which multiplies by w's own Gaussian integer, must return."""
    coeffs = _fixed_coefficients(n, P)
    lead, rest = coeffs[-1], coeffs[-2::-1]
    top = (3 * n + 1) * lead
    one = 1 << P

    def quotient(wr, wi):
        sr, si = lead, 0
        for c in rest:
            sr, si = ((sr * wr - si * wi) >> P) + c, (sr * wi + si * wr) >> P
        mr, mi, e = power_p_wide(wr, wi, n, P)
        tr, ti = (top * mr << e, top * mi << e) if e >= 0 else (top * mr >> -e, top * mi >> -e)
        zr, zi = one - wr, -wi
        return (
            (sr * zr - si * zi) >> (P - 1),
            (sr * zi + si * zr) >> (P - 1),
            (n + 1) * sr - tr,
            (n + 1) * si - ti,
        )

    return quotient


def bounded_horner_p_wide(n: int, x: mpf, y: mpf, bits: int) -> tuple[int, int, int]:
    """rootfinder._bounded_horner with w taken at the full scale 2^-P in
    every Horner product and in the power: the reference for the kernel's
    (hi, lo, e), which multiplies by w's own Gaussian integer instead."""
    xs, ys = x._mpf_, y._mpf_
    k = max(0, -xs[2], -ys[2])
    wk = abs((1 << k) - _mpf_to_fixed(xs, k)) | abs(_mpf_to_fixed(ys, k))
    t = max(2, wk.bit_length() - k + 1)
    exact_scale = n * (k + t) + 2
    P = max(2 * bits + 40, k)
    while True:
        exact = P >= exact_scale
        zr, zi = _mpf_to_fixed(xs, P), _mpf_to_fixed(ys, P)
        wr, wi = (1 << P) - zr, -zi
        wabs = isqrt(wr * wr + wi * wi) + 1
        ec = 0 if exact else 4
        coeffs = _fixed_coefficients(n, P)
        sr, si, E = coeffs[n], 0, (0 if exact else 1)
        for c in coeffs[n - 1 :: -1]:
            sr, si = ((sr * wr - si * wi) >> P) + c, (sr * wi + si * wr) >> P
            E = ((E * wabs) >> P) + ec
        v2, z2 = sr * sr + si * si, zr * zr + zi * zi
        if z2:
            mr, mi, f = power_p_wide(wr, wi, n, P)
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
    hi = (isqrt((v2 << 2 * g) - 1) + 1 if v2 else 0) + (E << g)
    if not z2:
        ints, scale = _integer_coefficients(n)
        return hi, (n * (n + 1) * scale << e) // ((n + 3) * ints[0]), e
    c = -(-(F * F << 2 * e) // (4 * z2))
    r = isqrt(c)
    return hi, isqrt((q << 2 * e) // (4 * z2)) - r - (r * r < c), e


def max_relative_radius(rs) -> mpf:
    """max_j r_j / (1 + |z_j|) of a RootSet at its precision, in mpmath:
    the oracle for the bound that find_roots' acceptance decides exactly on
    the integers of rootfinder._disks."""
    with mp.workprec(rs.precision_used):
        return max(r / (1 + abs(z)) for z, r in zip(rs.roots, rs.inclusion_radii))


def fraction_recurrence(n: int) -> tuple[Fraction, ...]:
    """c_0..c_n by the multiplicative recurrence
    c_m = c_(m-1) (m-1-n) ((n+1)/2 + m-1) / (((n+3)/2 + m-1) m) in
    normalised Fractions, one operation at a time: the reference for
    exact.build_polynomial's integer recurrence."""
    coeffs = [Fraction(1)]
    half_a, half_c = Fraction(n + 1, 2), Fraction(n + 3, 2)
    c = Fraction(1)
    for m in range(1, n + 1):
        c *= Fraction(m - 1 - n) * (half_a + (m - 1))
        c /= (half_c + (m - 1)) * m
        coeffs.append(c)
    return tuple(coeffs)


def sqrt_up(num: int, den: int, bits: int) -> mpf:
    """sqrt(num / den) rounded up to `bits`, for integers num >= 0, den > 0:
    the exact residual and radius of a root, from exact_horner's integers,
    rounded once, as the oracle gate compares certify's bounds with.

    In integers only: with q = ceil(num 4^s / den) carrying about 2 bits + 4
    bits and r = ceil(sqrt(q)), sqrt(num / den) <= r 2^-s, and r has about
    bits + 2 bits, so libmp only rounds a number of that width upwards.
    """
    s = (2 * bits + 4 - num.bit_length() + den.bit_length()) // 2
    q = -((-num << 2 * s) // den) if s >= 0 else -(-num // (den << -2 * s))
    r = isqrt(q)
    if r * r < q:
        r += 1
    return mp.make_mpf(from_man_exp(r, -s, bits, "u"))


def basin_boundary(y_grid, bits):
    """Points x + iy with x = (2 - sqrt(1 + 3y^2))/3, the locus |z| + 2 Re(z) = 1.

    This is the divide 3 Re(u)^2 - Im(u)^2 = 1 of u = sqrt(z) (vertex 1/3,
    intercepts +-i); it separates the two basin classifications, and every
    returned point lands in the "boundary" band.
    """
    out = []
    with mp.workprec(bits):
        for y in y_grid:
            yy = to_mpf(Fraction(y) if isinstance(y, (int, Fraction)) else y, bits)
            out.append(mpc((2 - mp.sqrt(1 + 3 * yy * yy)) / 3, yy))
    return out


@dataclass(frozen=True)
class SaddleComparison:
    """The two sides of the basin-selection equivalence at a point z:
    sign(|f_z(1)| - |f_z(saddle)|) must agree with sign(|z(1-z)^2| - 4/27)
    whenever both magnitudes clear the rounding floor."""

    field_difference: mpf  # |f_z(1)| - |f_z(1/sqrt(3z))|
    level_difference: mpf  # |z(1-z)^2| - 4/27

    def signs(self) -> tuple[int, int]:
        def sgn(x):
            return (x > 0) - (x < 0)

        return sgn(self.field_difference), sgn(self.level_difference)


def saddle_comparison(z, bits):
    """Evaluate both differences independently (no algebraic shortcut)."""
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        saddle = 1 / principal_sqrt(3 * z, bits)
        field = abs(f_eval(z, mpc(1))) - abs(f_eval(z, saddle))
        level = abs(z * (1 - z) ** 2) - mpf(4) / 27
        return SaddleComparison(field, level)


def coefficient_by_pochhammer(n, m):
    """Direct Pochhammer-product form of c_m, against the recurrence in
    build_polynomial."""
    return (
        pochhammer(-n, m)
        * pochhammer(Fraction(n + 1, 2), m)
        / (pochhammer(Fraction(n + 3, 2), m) * factorial(m))
    )


def segment_by_quadrature(n, z, bits):
    """Integral of f_z^n along the straight segment from 0 to 1/sqrt(z), by
    Gauss-Legendre in the segment parameter: the closed form's oracle."""
    rule = legendre_rule(max(64, 2 * n), bits)
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        t_end = 1 / principal_sqrt(z, bits)
        half = mpf(1) / 2
        total = mpc(0)
        for x, w in rule:
            total += w * f_eval(z, half * (x + 1) * t_end) ** n
        return half * total * t_end


def fprime_factor(z, t):
    """1 - 3 z t^2, the derivative factor vanishing at the saddles."""
    return 1 - 3 * z * t * t


def trace_by_mpc(z, rs, path_tol, bits):
    """The steepest path t(1 - zt^2) = r(1 - z) by Newton continuation in
    mpc arithmetic at `bits`, with the stopping rule, saddle test and step
    cap of paths.trace_path: the oracle for its fixed-point steps.

    rs are the r-nodes in descending order, starting from t = 1.  Returns the
    samples t(r) in that order, the landing t(0), and the zero of f_z that
    t(0) lies nearest to ("zero" or "inv-sqrt-z").
    """
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        path_tol = mpf(path_tol)
        one_minus_z = 1 - z
        saddle_floor = 10 * path_tol
        noise_floor = mpf(2) ** (16 - bits) * (1 + abs(z))

        def correct(r, t):
            target = r * one_minus_z
            tol = max(path_tol * abs(one_minus_z) * r, noise_floor)
            for _ in range(80):
                d = fprime_factor(z, t)
                if abs(d) < saddle_floor:
                    raise RuntimeError(f"saddle proximity at r = {mpmath.nstr(r, 8)}")
                res = f_eval(z, t) - target
                if abs(res) <= tol:
                    return t
                t = t - res / d
            raise RuntimeError(f"no convergence at r = {mpmath.nstr(r, 8)}")

        ts = []
        t = mpc(1)
        for r in rs:
            t = correct(r, t)
            ts.append(t)
        t_end = correct(mpf(0), t)
        inv = 1 / principal_sqrt(z, bits)
        label = "zero" if abs(t_end) < abs(t_end - inv) else "inv-sqrt-z"
        return ts, t_end, label

"""z-plane and t-plane geometry: lemniscate section, basins, divides.

The central curve is the level set |z(1-z)^2| = 4/27.  It is a figure-eight
pinched at z = 1/3: the loop with Re(z) > 1/3 (the "right branch", crossing
the real axis again at z = 4/3) is the attractor of the polynomial zeros,
and branch_polyline samples it for drawing.
The t-plane side of the story is the basin geometry of |f_z(t)|: the plane
splits along "continental divides" through the saddles +-1/sqrt(3z), and
whether the point t = 1 drains to 1/sqrt(z) or to 0 is decided by the side
of the divide it starts on.  In u = sqrt(z) t the steepest path is the
Newton flow of u - u^3, whose divide is the stable manifold of the saddle
1/sqrt(3): the hyperbola 3 Re(u)^2 - Im(u)^2 = 1.  At t = 1 that reads
|z| + 2 Re(z) = 1 in the z-plane, a curve with vertex 1/3 and
imaginary-axis intercepts +-i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_float, from_int, mpf_cos_sin, mpf_div, mpf_mul, mpf_neg

from .numerics import _finite, f_eval, principal_sqrt, to_mpc, to_mpf
from .rootfinder import solve_complex_poly
from .seeds import branch_half

DEFAULT_BITS = 128

ZERO_BASIN = "zero-basin"
INV_SQRT_BASIN = "inv-sqrt-z-basin"
BOUNDARY = "boundary"

_FOUR_27 = mpf_div(from_int(4), from_int(27), DEFAULT_BITS, "n")  # mpf(4) / 27 at DEFAULT_BITS


def branch_polyline(samples: int = 2048) -> list[mpc]:
    """The closed right branch at DEFAULT_BITS, ordered around its loop.

    With s = sqrt(z) the branch is s - s^3 = (2/sqrt 27) e^(i phi): point j
    is z(phi_j), phi_j = pi j / samples, for j = 1 .. 2 samples - 1, then
    the pinch 1/3 (j = 0), their order by angle around z = 1.  z(phi_k) and
    z(phi_k + pi) are roots of z^3 - 2z^2 + z = (4/27) e^(i theta_k),
    theta_k = 2 pi k / samples in doubles.  For k = 1 .. samples // 2
    solve_complex_poly refines them from seeds.branch_half (phi in
    [pi, 2 pi), the rest by conjugation), and the third root from
    2 - z(phi_k) - z(phi_k + pi) (Vieta).  Their exact conjugates are the
    points of theta_(samples - k), whose cubic is the conjugate one.  At
    theta = pi the cubic is taken real, at -4/27, and its points are set as
    conjugates; at theta = 0 it is (z - 4/3)(z - 1/3)^2, not solved.  So
    the polyline is exactly closed under conjugation.

    The phases w_k = (4/27) e^(i theta_k) are built on libmp tuples by
    _branch_phase, with the operations that mpmath's exp and its product
    of an mpf by an mpc take at DEFAULT_BITS, so they have the same bits
    and no mpc arithmetic runs for them; the coefficients 1, -2 and 1 of
    z, z^2 and z^3 are built once for all the cubics.
    """
    if samples < 1:
        raise ValueError("branch_polyline: empty theta grid")
    half = [complex(x, y) for x, y in branch_half(samples)]  # j = samples .. 2 samples - 1
    pts = [None] * (2 * samples)
    with mp.workprec(DEFAULT_BITS):
        pts[0], pts[samples] = mpc(mpf(1) / 3), mpc(mpf(4) / 3)
        others = [mpf(1), mpf(-2), mpf(1)]  # of z, z^2 and z^3
        for k in range(1, samples // 2 + 1):
            a, b = half[samples - k].conjugate(), half[k]
            if 2 * k == samples:  # theta = pi: the cubic is taken real, w = -4/27
                constant = mp.make_mpf(_FOUR_27)
            else:
                constant = mp.make_mpc(tuple(mpf_neg(part) for part in _branch_phase(k, samples)))
            za, zb, _ = solve_complex_poly([constant, *others], DEFAULT_BITS, [a, b, 2 - a - b])
            pts[samples + k], pts[samples - k] = zb, zb.conjugate()
            pts[k], pts[2 * samples - k] = za, za.conjugate()  # at theta = pi, in zb's places
    return pts[1:] + pts[:1]


def _branch_phase(k: int, samples: int) -> tuple[tuple, tuple]:
    """The libmp parts of w_k = (4/27) e^(i theta_k), theta_k = 2 pi k /
    samples in doubles, at DEFAULT_BITS: cos and sin of theta_k rounded to
    nearest, each times 4/27 rounded to nearest once.  These are the bits
    of mpf(4) / 27 * mp.exp(mpc(0, theta_k)) at DEFAULT_BITS, whose
    exponential of a purely imaginary argument is mpf_cos_sin."""
    cos, sin = mpf_cos_sin(from_float(2 * math.pi * k / samples), DEFAULT_BITS, "n")
    return mpf_mul(cos, _FOUR_27, DEFAULT_BITS, "n"), mpf_mul(sin, _FOUR_27, DEFAULT_BITS, "n")


def basin_classify(z, bits: int = DEFAULT_BITS) -> str:
    """Which zero of f_z the point t = 1 drains to, by the side of the divide.

    With gap = |z| + 2 Re(z) - 1, which vanishes on the divide
    x = (2 - sqrt(1 + 3y^2))/3 (vertex 1/3, intercepts +-i), returns
    "inv-sqrt-z-basin" when gap > tau, "zero-basin" when gap < -tau, and
    "boundary" within the band, where tau = 2^(4-bits).  The cut (z <= 0
    real) and a non-finite z are outside the domain.
    """
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        if not _finite(z._mpc_):
            raise ValueError("basin_classify: z must be finite")
        if z == 0 or (z.imag == 0 and z.real < 0):
            raise ValueError("basin_classify: z on the branch cut or zero")
        tau = mpf(2) ** (4 - bits)
        gap = abs(z) + 2 * z.real - 1
        if gap > tau:
            return INV_SQRT_BASIN
        if gap < -tau:
            return ZERO_BASIN
        return BOUNDARY


@dataclass(frozen=True)
class DivideLine:
    """A continental divide's tangent at its saddle: the line through the
    saddle perpendicular to the segment joining -1/sqrt(z) and 1/sqrt(z)."""

    point: mpc
    direction: mpc  # unit vector along the line


@dataclass(frozen=True)
class LevelField:
    """|f_z(t)| sampled on a rectangular t-grid, with divide metadata.
    values[j][k] is |f_z| at t = re_axis[k] + i im_axis[j], the axes being
    the grid coordinates at the precision |f_z| was sampled at."""

    z: mpc
    re_axis: tuple[mpf, ...]
    im_axis: tuple[mpf, ...]
    values: tuple[tuple[mpf, ...], ...]  # rows indexed by im, columns by re
    divides: tuple[DivideLine, DivideLine]


def divides_and_level_field(z, window, res: int, bits: int = DEFAULT_BITS) -> LevelField:
    """Sample |f_z| over the window and report the two divide lines.

    window is (re_min, re_max, im_min, im_max); res >= 16 points per side.
    """
    if res < 16:
        raise ValueError("divides_and_level_field: res must be >= 16")
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        if z == 0:
            raise ValueError("divides_and_level_field: z must be nonzero")
        re_min, re_max, im_min, im_max = (to_mpf(w, bits) for w in window)
        re_axis = tuple(re_min + (re_max - re_min) * k / (res - 1) for k in range(res))
        im_axis = tuple(im_min + (im_max - im_min) * j / (res - 1) for j in range(res))
        rows = tuple(tuple(abs(f_eval(z, mpc(re, im))) for re in re_axis) for im in im_axis)
        saddle = 1 / principal_sqrt(3 * z, bits)
        segment_dir = principal_sqrt(z, bits) ** -1
        perp = mpc(0, 1) * segment_dir / abs(segment_dir)
        divides = (DivideLine(saddle, perp), DivideLine(-saddle, perp))
        return LevelField(z, re_axis, im_axis, rows, divides)


def level_field_csv(field: LevelField) -> str:
    """CSV (re_t, im_t, abs_f) of the sampled field, divide lines as leading
    comment rows; row-major, deterministic."""
    lines = []
    for d in field.divides:
        lines.append(
            f"# divide point=({_dec(d.point.real)},{_dec(d.point.imag)}) "
            f"direction=({_dec(d.direction.real)},{_dec(d.direction.imag)})"
        )
    lines.append("re_t,im_t,abs_f")
    for im, row in zip(field.im_axis, field.values):
        for re, value in zip(field.re_axis, row):
            lines.append(f"{_dec(re)},{_dec(im)},{_dec(value)}")
    return "\n".join(lines) + "\n"


def _dec(x: mpf, digits: int = 24) -> str:
    return mpmath.nstr(x, digits)

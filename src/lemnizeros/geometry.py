"""z-plane and t-plane geometry: lemniscate section, basins, divides.

The central curve is the level set |z(1-z)^2| = 4/27.  It is a figure-eight
pinched at z = 1/3: the loop with Re(z) > 1/3 (the "right branch", crossing
the real axis again at z = 4/3) is the attractor of the polynomial zeros,
and branch_polyline samples it for drawing and for distances.
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

from .numerics import f_eval, principal_sqrt, to_mpc, to_mpf
from .rootfinder import solve_complex_poly

DEFAULT_BITS = 128

ZERO_BASIN = "zero-basin"
INV_SQRT_BASIN = "inv-sqrt-z-basin"
BOUNDARY = "boundary"

_PINCH_TOL = 1e-8  # a cubic root this close to 1/3 is the pinch, added once


def branch_polyline(samples: int = 2048, bits: int = DEFAULT_BITS) -> list[mpc]:
    """The closed right branch as a polyline ordered around its loop.

    At each phase theta_k = 2 pi k / samples (a double grid, whatever the
    caller's working precision) solves the cubic z^3 - 2z^2 + z =
    (4/27) e^(i theta_k), warm-started from the previous phase's roots, and
    keeps the roots with Re(z) > 1/3.  At theta = 0 two roots collide at the
    pinch z = 1/3; roots within _PINCH_TOL of it are dropped and the pinch is
    added once as the closure point.  Everything is ordered by the angle
    around z = 1 (the loop is star-shaped about 1, so that ordering
    traverses it once).

    The roots stay at `bits`, but both decisions are made on each root
    rounded to a double, where they cannot differ from the same tests at
    `bits`: rounding moves a value by about 1e-16, and the margins are far
    wider.  For samples <= 4096 every root off theta = 0 lies 0.0149 or
    more from 1/3, with its real part 0.0106 or more from 1/3; the pair
    colliding at theta = 0 lies within 5.1e-11 of 1/3 at 64 bits (1.6e-20
    at 128); adjacent angles differ by 6.8e-4 rad or more.
    """
    if samples < 1:
        raise ValueError("branch_polyline: empty theta grid")
    third = 1 / 3
    keyed = []  # (angle around 1 as a double, root)
    with mp.workprec(bits):
        roots = None
        for k in range(samples):
            w = mpf(4) / 27 * mp.exp(mpc(0, 2 * math.pi * k / samples))
            roots = solve_complex_poly([-w, mpf(1), mpf(-2), mpf(1)], bits, start=roots)
            for z in roots:
                c = complex(z)
                if c.real > third and abs(c - third) > _PINCH_TOL:
                    keyed.append((math.atan2(c.imag, c.real - 1), z))
        keyed.append((math.pi, mpc(mpf(1) / 3)))
    keyed.sort(key=lambda p: p[0])
    return [z for _, z in keyed]


def basin_classify(z, bits: int = DEFAULT_BITS) -> str:
    """Which zero of f_z the point t = 1 drains to, by the side of the divide.

    With gap = |z| + 2 Re(z) - 1, which vanishes on the divide
    x = (2 - sqrt(1 + 3y^2))/3 (vertex 1/3, intercepts +-i), returns
    "inv-sqrt-z-basin" when gap > tau, "zero-basin" when gap < -tau, and
    "boundary" within the band, where tau = 2^(4-bits).  The cut (z <= 0
    real) is outside the domain.
    """
    with mp.workprec(bits):
        z = to_mpc(z, bits)
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

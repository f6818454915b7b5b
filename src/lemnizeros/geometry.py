"""z-plane and t-plane geometry: lemniscate section, basins, divides.

The central curve is the level set |z(1-z)^2| = 4/27.  It is a figure-eight
pinched at z = 1/3: the loop with Re(z) > 1/3 (the "right branch", crossing
the real axis again at z = 4/3) is the attractor of the polynomial zeros.
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

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from .numerics import f_eval, principal_sqrt, to_mpc, to_mpf
from .rootfinder import solve_complex_poly

DEFAULT_BITS = 128

ZERO_BASIN = "zero-basin"
INV_SQRT_BASIN = "inv-sqrt-z-basin"
BOUNDARY = "boundary"

_PINCH_TOL = 1e-8  # |z - 1/3| at or below this is labelled the pinch


def lemniscate_residual(z, bits: int = DEFAULT_BITS) -> mpf:
    """| |z(1-z)^2| - 4/27 |, the value-space distance to the lemniscate."""
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        return abs(abs(z * (1 - z) ** 2) - mpf(4) / 27)


@dataclass(frozen=True)
class LemniscatePoint:
    """A solution of z(1-z)^2 = (4/27) e^(i theta) with its branch label."""

    z: mpc
    theta: mpf
    branch: str  # "right" (Re > 1/3), "left", or "pinch" (z ~ 1/3)
    residual: mpf


def lemniscate_branch(theta_grid, bits: int = DEFAULT_BITS) -> list[LemniscatePoint]:
    """Right-branch lemniscate points for each phase in theta_grid.

    Solves the cubic z^3 - 2z^2 + z = (4/27) e^(i theta) (three roots via
    the simultaneous iteration) and keeps the roots with Re(z) > 1/3.  At
    theta = 0 two roots collide at the pinch z = 1/3; they are returned with
    branch="pinch" (the closure point of the open right branch) rather than
    silently dropped or misclassified.  Points come back ordered by theta,
    and for equal theta by increasing imaginary part.
    """
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("lemniscate_branch: empty theta grid")
    out: list[LemniscatePoint] = []
    with mp.workprec(bits):
        prev_roots = None
        for theta in sorted(to_mpf(t, bits) for t in thetas):
            w = mpf(4) / 27 * mp.exp(mpc(0, theta))
            roots = solve_complex_poly([-w, mpf(1), mpf(-2), mpf(1)], bits, start=prev_roots)
            prev_roots = roots
            third = mpf(1) / 3
            keep = []
            for z in roots:
                if abs(z - third) <= _PINCH_TOL:
                    keep.append(LemniscatePoint(z, theta, "pinch", lemniscate_residual(z, bits)))
                elif z.real > third:
                    keep.append(LemniscatePoint(z, theta, "right", lemniscate_residual(z, bits)))
            keep.sort(key=lambda pt: pt.z.imag)
            out.extend(keep)
    return out


def branch_polyline(samples: int = 2048, bits: int = DEFAULT_BITS) -> list[mpc]:
    """The closed right branch as a polyline ordered around its loop.

    Samples the branch at `samples` phases, adds the pinch closure point,
    and orders everything by the angle around z = 1 (the loop is
    star-shaped about 1, so that ordering traverses it once).
    """
    thetas = [2 * mp.pi * k / samples for k in range(samples)]
    pts = [pt.z for pt in lemniscate_branch(thetas, bits) if pt.branch == "right"]
    pts.append(to_mpc(Fraction(1, 3), bits))
    with mp.workprec(bits):
        pts.sort(key=lambda z: mp.atan2(z.imag, z.real - 1))
    return pts


def basin_classify(z, bits: int = DEFAULT_BITS) -> str:
    """Which zero of f_z the point t = 1 drains to, by the side of the divide.

    With gap = |z| + 2 Re(z) - 1 (zero on the divide, see basin_boundary),
    returns "inv-sqrt-z-basin" when gap > tau, "zero-basin" when
    gap < -tau, and "boundary" within the band, where tau = 2^(4-bits).
    The cut (z <= 0 real) is outside the domain.
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


def basin_boundary(y_grid, bits: int = DEFAULT_BITS) -> list[mpc]:
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
class DivideLine:
    """A continental divide's tangent at its saddle: the line through the
    saddle perpendicular to the segment joining -1/sqrt(z) and 1/sqrt(z)."""

    point: mpc
    direction: mpc  # unit vector along the line


@dataclass(frozen=True)
class LevelField:
    """|f_z(t)| sampled on a rectangular t-grid, with divide metadata."""

    z: mpc
    window: tuple[mpf, mpf, mpf, mpf]  # re_min, re_max, im_min, im_max
    resolution: int
    values: tuple[tuple[mpf, ...], ...]  # rows indexed by im, columns by re
    divides: tuple[DivideLine, DivideLine]

    def grid_point(self, row: int, col: int) -> mpc:
        re_min, re_max, im_min, im_max = self.window
        r = self.resolution
        return mpc(
            re_min + (re_max - re_min) * col / (r - 1),
            im_min + (im_max - im_min) * row / (r - 1),
        )


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
        rows = []
        for j in range(res):
            im = im_min + (im_max - im_min) * j / (res - 1)
            row = []
            for k in range(res):
                re = re_min + (re_max - re_min) * k / (res - 1)
                row.append(abs(f_eval(z, mpc(re, im))))
            rows.append(tuple(row))
        saddle = 1 / principal_sqrt(3 * z, bits)
        segment_dir = principal_sqrt(z, bits) ** -1
        perp = mpc(0, 1) * segment_dir / abs(segment_dir)
        divides = (DivideLine(saddle, perp), DivideLine(-saddle, perp))
        return LevelField(z, (re_min, re_max, im_min, im_max), res, tuple(rows), divides)


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
    for j in range(field.resolution):
        for k in range(field.resolution):
            t = field.grid_point(j, k)
            lines.append(f"{_dec(t.real)},{_dec(t.imag)},{_dec(field.values[j][k])}")
    return "\n".join(lines) + "\n"


def lemniscate_csv(points: list[LemniscatePoint]) -> str:
    """CSV (theta, re_z, im_z, residual) for lemniscate points."""
    lines = ["theta,re_z,im_z,residual"]
    for pt in points:
        lines.append(
            f"{_dec(pt.theta)},{_dec(pt.z.real)},{_dec(pt.z.imag)},{_dec(pt.residual, 10)}"
        )
    return "\n".join(lines) + "\n"


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


def saddle_comparison(z, bits: int = DEFAULT_BITS) -> SaddleComparison:
    """Evaluate both differences independently (no algebraic shortcut)."""
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        if z == 0:
            raise ValueError("saddle_comparison: z must be nonzero")
        saddle = 1 / principal_sqrt(3 * z, bits)
        field = abs(f_eval(z, mpc(1))) - abs(f_eval(z, saddle))
        level = abs(z * (1 - z) ** 2) - mpf(4) / 27
        return SaddleComparison(field, level)


def _dec(x: mpf, digits: int = 24) -> str:
    return mpmath.nstr(x, digits)

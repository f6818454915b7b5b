"""Verdicts, convergence statistics and figure data from certified root sets.

No function here solves: each takes the certified RootSets keyed by degree,
as the CLI's one solve task per degree returns them.  lemma_reports turns
them into per-degree verdicts (containment disk, unit-circle escape,
half-plane location, Vieta product) and records a degree whose solve failed
on its own report.  convergence_report measures how fast the zeros approach
the lemniscate in the curve's own coordinate u = sqrt(z)(1-z) sqrt(27)/2,
where the right branch is |u| = 1: per-root value residuals
| |z(1-z)^2| - 4/27 |, log|u|, and the offset of arg u from the middle of
the root's own sector of the circle.  The figure emitters write
deterministic CSV/SVG artifacts; contouring and styling are left to the
consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from statistics import median

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_pos, mpf_sqrt

from .geometry import branch_polyline
from .rootfinder import ROOT_COLUMNS, RootSet, _disks, root_row


@dataclass(frozen=True)
class LemmaReport:
    """Certified per-degree verdicts, each decided exactly on the disks of
    the certificate, so every True verdict is a proof.  min_real_part is
    the smallest Re z - r, a certified lower bound; max_modulus is the
    largest |z| of the root estimates, correctly rounded."""

    n: int
    root_count: int
    ek_disk: str  # "inside" | "boundary" | "violated"  (|z| vs n+1)
    outside_unit_circle: bool
    min_real_part: mpf
    max_modulus: mpf
    vieta_enclosed: bool  # (3n+1)/(n+1) in the certified enclosure of prod |zeros|
    precision_used: int
    error: str | None = None


def _below(x: int, ex: int, y: int, ey: int) -> bool:
    """x 2^ex < y 2^ey, exactly."""
    return (x << (ex - ey)) < y if ex >= ey else x < (y << (ey - ex))


def _max_modulus(rs: RootSet) -> mpf:
    """The largest |z| of the root estimates, correctly rounded: the largest
    exact x^2 + y^2 of the integers of _disks, rounded once by a square root
    to nearest at the set's precision."""
    disks, e = _disks(rs.roots, rs.inclusion_radii)
    top = max(x * x + y * y for x, y, _ in disks)
    return mp.make_mpf(mpf_sqrt(from_man_exp(top, 2 * e), rs.precision_used, "n"))


def _lemma_report(rs: RootSet) -> LemmaReport:
    """The verdicts of one certified RootSet, in one pass over the integers
    of _disks: each centre (x, y) and radius r at one exponent e, so |z| +- r
    is compared with n+1 and 1 exactly, |z|^2 against (n+1 -+ r)^2 and
    (1+r)^2, and the smallest Re z - r is min(x - r), sign included, rounded
    down once.  With m = isqrt(|z|^2), the zero in the disk has modulus in
    [max(m - r, 0), m + 1 + r] 2^e.  The products of these bounds, cut to
    precision_used + 32 bits down and up after each factor, enclose
    prod |zeros| = |c_0/c_n| = (3n+1)/(n+1) when the n disks are disjoint:
    each holds at least one zero, so each holds exactly one."""
    n, bits = rs.degree, rs.precision_used
    disks, e = _disks(rs.roots, rs.inclusion_radii)
    one = 1 << -e
    inside = boundary = True
    outside = False
    lower, upper, exp = 1, 1, 0  # the enclosure [lower, upper] 2^exp of prod |zeros|
    for x, y, r in disks:
        modulus2 = x * x + y * y
        inside = inside and (n + 1) * one > r and modulus2 < ((n + 1) * one - r) ** 2
        boundary = boundary and modulus2 <= ((n + 1) * one + r) ** 2
        outside = outside or modulus2 > (one + r) ** 2
        m = isqrt(modulus2)
        lower, upper, exp = lower * max(m - r, 0), upper * (m + 1 + r), exp + e
        cut = upper.bit_length() - bits - 32
        if cut > 0:
            lower, upper, exp = lower >> cut, -(-upper >> cut), exp + cut
    ek = "inside" if inside else "boundary" if boundary else "violated"
    vieta = (len(rs.roots) == n and rs.disks_disjoint()
             and not _below(3 * n + 1, 0, lower * (n + 1), exp)
             and not _below(upper * (n + 1), exp, 3 * n + 1, 0))
    min_re = mp.make_mpf(from_man_exp(min(x - r for x, _, r in disks), e, bits, "d"))
    return LemmaReport(n, len(rs.roots), ek, outside, min_re, _max_modulus(rs), vieta, bits)


def lemma_reports(solved: dict[int, RootSet | Exception]) -> list[LemmaReport]:
    """LemmaReport per degree of solved, in ascending order.  solved maps
    each degree to its certified RootSet, or to the error its solve raised,
    which is recorded in the report's error field."""
    nan = mpf("nan")
    return [
        _lemma_report(rs) if isinstance(rs, RootSet)
        else LemmaReport(n, 0, "violated", False, nan, nan, False, 0, str(rs))
        for n, rs in sorted(solved.items())
    ]


@dataclass(frozen=True)
class ZeroDatum:
    """Lemniscate diagnostics for one root, read in u = sqrt(z)(1-z) sqrt(27)/2,
    in which the right branch is the unit circle |u| = 1."""

    root: mpc
    value_residual: mpf  # | |z(1-z)^2| - 4/27 | = (4/27) | |u|^2 - 1 |
    log_u: mpf  # log|u|, signed: positive outside the loop
    # n (theta_k - (2k+1) pi/n), theta = arg u in (0, 2 pi] and k the root's
    # rank by theta: inside (-pi, pi) when the zero lies in its own sector
    phase_offset: mpf


@dataclass(frozen=True)
class LemniscateReport:
    """Per-degree zero-vs-lemniscate statistics of the root estimates:
    min_real_part and max_modulus ignore the radii, unlike LemmaReport's
    certified min_real_part."""

    n: int
    per_zero: tuple[ZeroDatum, ...]
    max_value_residual: mpf
    median_value_residual: mpf
    min_real_part: mpf
    max_modulus: mpf
    min_n_log_u: mpf
    max_n_log_u_over_log_n: mpf | None  # None at n = 1, where log n = 0
    max_abs_phase_offset: mpf
    precision_used: int


def convergence_report(roots: dict[int, RootSet]) -> list[LemniscateReport]:
    """LemniscateReport for each certified RootSet in roots, in ascending
    degree order, computed at that set's working precision.  Each root is
    read in u = sqrt(z)(1-z) sqrt(27)/2 alone: log|u| is half the log of
    (27/4)|z(1-z)^2|, and theta = arg u, the phase of the principal
    sqrt(z)(1-z), is taken in (0, 2 pi] (the real zero has theta = pi
    exactly).  theta runs once around the loop and no zero sits on the
    pinch, so every zero has a phase and a rank k by it."""
    reports = []
    for n in sorted(roots):
        rs = roots[n]
        with mp.workprec(rs.precision_used):
            residuals, log_us, thetas = [], [], []
            for z in rs.roots:
                g = abs(z * (1 - z) ** 2)
                residuals.append(abs(g - mpf(4) / 27))
                log_us.append(mp.log(27 * g / 4) / 2)
                theta = mp.arg(mp.sqrt(z) * (1 - z))
                thetas.append(theta if theta > 0 else theta + 2 * mp.pi)
            offsets = [None] * len(thetas)
            for k, j in enumerate(sorted(range(len(thetas)), key=thetas.__getitem__)):
                offsets[j] = n * thetas[j] - (2 * k + 1) * mp.pi
            reports.append(
                LemniscateReport(
                    n,
                    tuple(map(ZeroDatum, rs.roots, residuals, log_us, offsets)),
                    max(residuals),
                    median(residuals),
                    min(z.real for z in rs.roots),
                    _max_modulus(rs),
                    n * min(log_us),
                    n * max(log_us) / mp.log(n) if n > 1 else None,
                    max(abs(o) for o in offsets),
                    rs.precision_used,
                )
            )
    return reports


def residual_slope(reports: list[LemniscateReport]) -> mpf | None:
    """Least-squares slope of ln(median residual) against ln(n): the one
    summary exponent reported for the convergence trend."""
    if len(reports) < 2:
        return None
    with mp.workprec(64):
        xs = [mp.log(r.n) for r in reports]
        ys = [mp.log(r.median_value_residual) for r in reports]
        k = len(xs)
        mx = sum(xs) / k
        my = sum(ys) / k
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = sum((x - mx) ** 2 for x in xs)
        return num / den


# ---------------------------------------------------------------------------
# CSV / SVG emission


def roots_report_csv(reports: list[LemniscateReport], roots: dict[int, RootSet]) -> str:
    """Per-root CSV (n, j, re, im, residual, inclusion_radius,
    value_residual, log_u, phase_offset)."""
    lines = [ROOT_COLUMNS + ",value_residual,log_u,phase_offset"]
    for rep in reports:
        for j, datum in enumerate(rep.per_zero):
            lines.append(
                f"{root_row(roots[rep.n], j)},{mpmath.nstr(datum.value_residual, 20)},"
                f"{mpmath.nstr(datum.log_u, 20)},{mpmath.nstr(datum.phase_offset, 20)}"
            )
    return "\n".join(lines) + "\n"


def summary_csv(reports: list[LemniscateReport]) -> str:
    """Per-degree CSV (n, max_value_residual, median_value_residual, min_re,
    max_modulus, min_n_log_u, max_n_log_u_over_log_n, max_abs_phase_offset),
    the ratio empty at n = 1.  min_re and max_modulus describe the root
    estimates; lemmas.csv's min_real_part is the certified bound."""
    lines = ["n,max_value_residual,median_value_residual,min_re,max_modulus,"
             "min_n_log_u,max_n_log_u_over_log_n,max_abs_phase_offset"]
    for rep in reports:
        ratio = rep.max_n_log_u_over_log_n
        lines.append(
            f"{rep.n},{mpmath.nstr(rep.max_value_residual, 20)},"
            f"{mpmath.nstr(rep.median_value_residual, 20)},{mpmath.nstr(rep.min_real_part, 20)},"
            f"{mpmath.nstr(rep.max_modulus, 20)},{mpmath.nstr(rep.min_n_log_u, 20)},"
            f"{'' if ratio is None else mpmath.nstr(ratio, 20)},{mpmath.nstr(rep.max_abs_phase_offset, 20)}"
        )
    return "\n".join(lines) + "\n"


def lemma_csv(reports: list[LemmaReport]) -> str:
    """Per-degree CSV of the lemma verdicts, certified by each root set."""
    lines = [
        "n,root_count,ek_disk,outside_unit_circle,min_real_part,max_modulus,"
        "vieta_enclosed,precision_used,error"
    ]
    for r in reports:
        lines.append(
            f"{r.n},{r.root_count},{r.ek_disk},{str(r.outside_unit_circle).lower()},"
            f"{mpmath.nstr(r.min_real_part, 20)},{mpmath.nstr(r.max_modulus, 20)},"
            f"{str(r.vieta_enclosed).lower()},{r.precision_used},"
            f"{'' if r.error is None else r.error}"
        )
    return "\n".join(lines) + "\n"


_PANEL_PX = 320
_WORLD = (0.24, 1.44, -0.68, 0.68)  # re_min, re_max, im_min, im_max of each panel


def figure_zero_plot(roots: dict[int, RootSet], branch_samples: int = 1024) -> tuple[str, str]:
    """(svg_text, csv_text): the right lemniscate branch with root markers,
    one panel per degree of roots in ascending order, three panels per row.
    The CSV carries every plotted coordinate as (n, kind, re, im) with kind
    in {branch, root}.  The branch is a plotting aid, drawn at geometry's
    default precision whatever precision the roots carry."""
    ns = sorted(roots)
    branch = branch_polyline(branch_samples)

    csv_lines = ["n,kind,re,im"]
    for n in ns:
        for v in branch:
            csv_lines.append(f"{n},branch,{_f(v.real)},{_f(v.imag)}")
        for z in roots[n].roots:
            csv_lines.append(f"{n},root,{_f(z.real)},{_f(z.imag)}")
    csv_text = "\n".join(csv_lines) + "\n"

    cols = 3
    rows = (len(ns) + cols - 1) // cols
    width = cols * _PANEL_PX
    height = rows * _PANEL_PX
    re0, re1, im0, im1 = _WORLD
    scale = (_PANEL_PX - 20) / (re1 - re0)

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, n in enumerate(ns):
        ox = (idx % cols) * _PANEL_PX + 10
        oy = (idx // cols) * _PANEL_PX + 10

        def px(z):
            x = ox + (float(z.real) - re0) * scale
            y = oy + (im1 - float(z.imag)) * scale
            return f"{x:.2f},{y:.2f}"

        pts = " ".join(px(v) for v in branch + branch[:1])
        svg.append(f'<g id="panel-n{n}">')
        svg.append(
            f'<rect x="{ox - 10}" y="{oy - 10}" width="{_PANEL_PX}" height="{_PANEL_PX}" '
            'fill="none" stroke="#999" stroke-width="1"/>'
        )
        svg.append(f'<text x="{ox + 4}" y="{oy + 14}" font-size="14">n = {n}</text>')
        svg.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>'
        )
        for z in roots[n].roots:
            x, y = px(z).split(",")
            svg.append(f'<circle cx="{x}" cy="{y}" r="2.4" fill="#c22"/>')
        svg.append("</g>")
    svg.append("</svg>")
    return "\n".join(svg) + "\n", csv_text


def _f(x: mpf) -> str:
    """x rounded to nearest at 53 bits, whatever the caller's mp.prec, in
    17 significant digits."""
    return mpmath.nstr(mp.make_mpf(mpf_pos(x._mpf_, 53, "n")), 17)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpc, mpf

from lemnizeros.analysis import convergence_report, figure_zero_plot
from lemnizeros.exact import build_polynomial
from lemnizeros.geometry import ZERO_BASIN, basin_classify
from lemnizeros.numerics import to_mpc
from lemnizeros.paths import (
    halfplane_bound_check,
    integral_full,
    segment_integral,
    tail_integral,
    trace_path,
)

from conftest import (
    exact_horner,
    saddle_comparison,
    scaled_chain,
    segment_by_quadrature,
    stirling_term,
)

BITS = 128
PKG_ROOT = Path(__file__).resolve().parent.parent


def _conclude(name: str, t0: float, budget_s: float, passed: bool, detail: str):
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {name}: {status} [{elapsed:.1f}s / budget {budget_s:.0f}s] {detail}")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.1f}s exceeds {budget_s}s"


def test_criterion_01_end_coefficient_ratio_exact():
    t0 = time.perf_counter()
    bad = [
        n
        for n in range(2, 201)
        for c in [build_polynomial(n).coefficients]
        if abs(c[0] / c[n]) != Fraction(3 * n + 1, n + 1)
    ]
    _conclude(
        "01 exact end-coefficient ratio",
        t0,
        5,
        not bad,
        "|c_0/c_n| = (3n+1)/(n+1) exactly for n = 2..200" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_02_scaled_chain_monotone():
    t0 = time.perf_counter()
    chains = {n: scaled_chain(build_polynomial(n)) for n in range(1, 201)}
    strict = {n: all(x < y for x, y in zip(a, a[1:])) for n, a in chains.items()}
    bad = [n for n in range(2, 201) if not strict[n]]
    boundary_case = strict[1]
    _conclude(
        "02 scaled-coefficient chain",
        t0,
        10,
        not bad and not boundary_case,
        "a_0 < ... < a_n strict for n = 2..200; n = 1 reported non-strict",
    )


def test_criterion_03_certified_root_properties(root_cache):
    t0 = time.perf_counter()
    ns = list(range(2, 81))
    roots = root_cache(ns)
    failures = []
    for n in ns:
        rs = roots[n]
        with mp.workprec(rs.precision_used):
            if len(rs.roots) != n:
                failures.append((n, "count"))
            if not all(abs(z) + r < n + 1 for z, r in zip(rs.roots, rs.inclusion_radii)):
                failures.append((n, "containment disk"))
            if not max(abs(z) - r for z, r in zip(rs.roots, rs.inclusion_radii)) > 1:
                failures.append((n, "unit circle"))
            prod = mpf(1)
            for z in rs.roots:
                prod *= abs(z)
            if abs(prod * (n + 1) / (3 * n + 1) - 1) > mpf("1e-10"):
                failures.append((n, "product of moduli"))
            if not min(z.real - r for z, r in zip(rs.roots, rs.inclusion_radii)) > mpf(1) / 3:
                failures.append((n, "Re > 1/3"))
    _conclude(
        "03 certified root properties",
        t0,
        180,
        not failures,
        "n = 2..80: count, |z|+r < n+1, max|z|-r > 1, Vieta product 1e-10, min Re > 1/3"
        + (f"; failures {failures}" if failures else ""),
    )


def _match_worst(found, expected):
    found = list(found)
    worst = 0.0
    for e in expected:
        j = min(range(len(found)), key=lambda i: abs(complex(found[i]) - complex(e)))
        worst = max(worst, abs(complex(found.pop(j)) - complex(e)))
    return worst


def test_criterion_04_small_degree_oracles(root_cache):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        rs = root_cache([n])[n]
        p = build_polynomial(n)
        with mp.workprec(192):
            monic = [to_mpc(c / p.coefficients[n], 192) for c in p.coefficients]
            A = mp.zeros(n)
            for i in range(1, n):
                A[i, i - 1] = 1
            for i in range(n):
                A[i, n - 1] = -monic[i]
            res = mp.eig(A, left=False, right=False)
            oracle = res[0] if isinstance(res, tuple) else res  # 1x1 returns the triple
        worst = max(worst, _match_worst(rs.roots, oracle))
    rs2 = root_cache([2])[2]
    with mp.workprec(192):
        y = mp.sqrt(mpf(28) / 75)
        quad_gap = _match_worst(rs2.roots, [mpc(mpf(7) / 5, y), mpc(mpf(7) / 5, -y)])
        mod_gap = max(abs(abs(z) ** 2 - mpf(7) / 3) for z in rs2.roots)
    ok = worst < 1e-8 and quad_gap < 1e-12 and mod_gap < 1e-12
    _conclude(
        "04 companion-matrix oracle",
        t0,
        30,
        ok,
        f"n = 1..12 worst eigenvalue gap {worst:.2e} < 1e-8; "
        f"n = 2 quadratic-formula gap {quad_gap:.2e}, | |z|^2 - 7/3 | {float(mod_gap):.2e} < 1e-12",
    )


def test_criterion_05_integral_representation_identity():
    t0 = time.perf_counter()
    rng = random.Random(8128)
    zs = []
    while len(zs) < 100:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) <= 3:
            zs.append(z)
    worst = mpf(0)
    with mp.workprec(BITS):
        for n in range(1, 21):
            p = build_polynomial(n)
            for z in zs:
                zz = mpc(z)
                quad = integral_full(n, zz, BITS)
                (vr, vi), _, scale = exact_horner(p, zz)
                horner = mpc(mpf(vr) / scale, mpf(vi) / scale)
                worst = max(worst, abs(quad - horner) / abs(horner))
    _conclude(
        "05 integral representation",
        t0,
        30,
        worst < mpf("1e-10"),
        f"(n+1) quadrature == exact Horner for n = 1..20 x 100 z; worst rel {mpmath.nstr(worst, 3)}",
    )


def test_criterion_06_beta_segment_closed_form():
    t0 = time.perf_counter()
    worst = mpf(0)
    with mp.workprec(BITS):
        for z in (1, Fraction(4, 3), 2, mpc(1, 1)):
            for n in range(1, 21):
                closed = segment_integral(n, z, BITS)
                quad = segment_by_quadrature(n, z, BITS)
                worst = max(worst, abs(closed - quad) / abs(closed))
    _conclude(
        "06 Beta segment closed form",
        t0,
        30,
        worst < mpf("1e-10"),
        f"Gamma-ratio form == straight-segment quadrature; worst rel {mpmath.nstr(worst, 3)}",
    )


def test_criterion_07_stirling_error_decreases():
    t0 = time.perf_counter()
    with mp.workprec(BITS):
        err = {
            n: abs(segment_integral(n, 1, BITS) / stirling_term(n, 1, BITS) - 1)
            for n in (20, 50, 200)
        }
    ok = err[200] < err[50] < err[20] and err[200] < mpf("0.02")
    _conclude(
        "07 Stirling leading term",
        t0,
        30,
        ok,
        f"relative errors n=20: {mpmath.nstr(err[20], 3)}, n=50: {mpmath.nstr(err[50], 3)}, "
        f"n=200: {mpmath.nstr(err[200], 3)} (< 2e-2, decreasing)",
    )


def test_criterion_08_path_deformation_identity():
    t0 = time.perf_counter()
    worst = mpf(0)
    for z in (Fraction(4, 3), 2):
        path = trace_path(z, bits=BITS)
        with mp.workprec(BITS):
            for n in range(1, 31):
                seg = segment_integral(n, z, BITS)
                tail = tail_integral(n, path)
                full = integral_full(n, z, BITS) / (n + 1)
                scale = max(abs(full), abs(seg), abs(tail))
                worst = max(worst, abs(seg + tail - full) / scale)
    _conclude(
        "08 path deformation",
        t0,
        60,
        worst < mpf("1e-8"),
        f"segment + tail == full/(n+1) for n <= 30 at z = 4/3, 2; worst rel {mpmath.nstr(worst, 3)}",
    )


def test_criterion_09_basin_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1729)
    floor = mpf("1e-30")
    checked = 0
    disagreements = 0
    with mp.workprec(BITS):
        while checked < 10_000:
            z = mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
            r = abs(z)
            if r < mpf("0.05") or r > 5 or (z.imag == 0 and z.real <= 0):
                continue
            cmp = saddle_comparison(z, BITS)
            if abs(cmp.field_difference) < floor or abs(cmp.level_difference) < floor:
                continue
            s1, s2 = cmp.signs()
            if s1 != s2:
                disagreements += 1
            checked += 1
    _conclude(
        "09 saddle/lemniscate sign equivalence",
        t0,
        30,
        disagreements == 0,
        f"10^4 samples in 0.05 < |z| < 5: signs of |f(1)|-|f(saddle)| and "
        f"|z(1-z)^2|-4/27 agree ({disagreements} disagreements)",
    )


def test_criterion_10_lemniscate_convergence(root_cache, tmp_path):
    t0 = time.perf_counter()
    ns = [10, 20, 40, 60]
    roots = root_cache(ns)
    reports = convergence_report(roots)
    medians = [r.median_value_residual for r in reports]
    with mp.workprec(64):
        decreasing = all(b < a for a, b in zip(medians, medians[1:]))
        halved = medians[-1] <= medians[0] / 2

    fig_ns = [5, 10, 16, 23, 40, 60]
    fig_roots = root_cache(fig_ns)
    svg, csv_text = figure_zero_plot(fig_roots)
    (tmp_path / "figure_zeros.svg").write_text(svg, encoding="utf-8")
    (tmp_path / "figure_zeros.csv").write_text(csv_text, encoding="utf-8")
    panels_ok = all(
        svg.split(f'<g id="panel-n{n}">')[1].split("</g>")[0].count("<circle") == n
        for n in fig_ns
    )
    med_strs = ", ".join(f"n={n}: {mpmath.nstr(m, 3)}" for n, m in zip(ns, medians))
    _conclude(
        "10 lemniscate convergence",
        t0,
        180,
        decreasing and halved and panels_ok and svg.count("<g id=") == 6,
        f"median | |z(1-z)^2| - 4/27 | strictly decreasing ({med_strs}); "
        f"n=60 median <= half of n=10; six-panel figure emitted",
    )


def test_criterion_11_halfplane_lower_bound():
    t0 = time.perf_counter()
    zs = []
    for im_tenths in (1, 3, 5, 7):
        y = Fraction(im_tenths, 10)
        border = Fraction(1, 3) - Fraction(3, 4) * y * y
        for k in range(5):
            zs.append((border - Fraction(3, 10) - Fraction(k, 2), y))
    assert len(zs) == 20
    failures = []
    min_seen = None
    for re_q, im_q in zs:
        z = to_mpc(re_q, BITS, im_q)
        assert z.real < mpf(1) / 3
        if basin_classify(z, BITS) != ZERO_BASIN:
            failures.append((re_q, im_q, "not zero basin"))
            continue
        verdict = halfplane_bound_check(z, trace_path(z, bits=BITS))
        with mp.workprec(BITS):
            if min_seen is None or verdict.min_real < min_seen:
                min_seen = verdict.min_real
        if not verdict.ok:
            failures.append((re_q, im_q, float(verdict.min_real)))
    _conclude(
        "11 half-plane lower bound",
        t0,
        30,
        not failures,
        f"Re[(1-zt^2)t/(1-3zt^2)] > 1/6 on r in [0.9, 1] for 20 zero-basin z with "
        f"Re(z) < 1/3; min observed {mpmath.nstr(min_seen, 4)}"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    artifacts = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "lemnizeros", "verify", "--n-range", "2..60",
             "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=PKG_ROOT,
            env={"PYTHONPATH": str(PKG_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert res.returncode == 0, res.stderr
        subdir = next(out.glob("verify-*"))
        artifacts.append(
            ((subdir / "lemmas.csv").read_bytes(), (subdir / "verify.txt").read_bytes())
        )
    identical = artifacts[0] == artifacts[1]
    _conclude(
        "12 determinism",
        t0,
        600,
        identical,
        "two `verify --n-range 2..60` runs produced byte-identical lemmas.csv and verify.txt",
    )

"""Seeded inputs, workload bodies and correctness gates of the benchmark.

Each workload has two halves.  `make_inputs(workload, seed)` turns the seed
into plain inputs (degrees, exact rational points) without touching the
library, so the same seed always yields the same inputs.  `run_body(...)`
feeds those inputs to the library and checks every result; it returns one
`Op` per operation, each either passed or failed with its reason.  A failed
operation is counted, never skipped or retried.

The bodies call the library through module attributes (`rootfinder.find_roots`,
not a name bound at import) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpc, mpf

from lemnizeros import cli, geometry, numerics, paths, rootfinder
from lemnizeros import exact

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_CSV = BENCH_DIR / "reference_roots.csv"

WORKLOADS = ("solve_cold", "verify_campaign", "paths")

# solve_cold: one pair of degrees per run, one odd and one even, summing to 99
# or 101.  The solve time of a degree grows with n, so a pair balanced about
# 50 costs nearly the same for every seed while still covering all of 40..60.
SOLVE_PAIRS = tuple((d, 99 - d) for d in range(40, 50)) + tuple((d, 101 - d) for d in range(41, 51))

# verify_campaign: the campaigns 2..H and 2..(56-H), H in 24..32.  One
# campaign's cost roughly doubles across that range of H; the complementary
# pair keeps the total within a few percent whatever the seed draws.  The
# pair is small enough (about 8 s) for several repetitions per run, which
# the host's speed drift makes necessary.
VERIFY_H = range(24, 33)
VERIFY_H_SUM = 56

# paths: points per run in each basin, their degrees, the branch sampling.
PATH_POINTS_PER_BASIN = 4
PATH_DEGREES = range(10, 41)
BRANCH_SAMPLES = 1024
PATH_BITS = 128

# Gates.  RADIUS_TARGET restates find_roots' documented acceptance target.
RADIUS_TARGET = mpf("1e-20")
ORACLE_SLACK = mpf("1e-25")
PRODUCT_TOL = mpf("1e-10")
IDENTITY_TOL = mpf("1e-8")  # the bar of acceptance criterion 08
BRANCH_RESIDUAL_TOL = mpf(2) ** -100
VERIFY_PASS_LINES = 5


@dataclass
class Op:
    """One checked operation: what it was and, if it failed, why."""

    name: str
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass
class BodyResult:
    """What one run of a workload body produced, beyond its timing."""

    ops: list[Op]
    roots: int  # checked roots (certified roots; for paths, checked zeros)
    cert_bits_min: float
    identity_bits_min: float
    counters: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"lemnizeros-bench:{workload}:{seed}")


def make_inputs(workload: str, seed: int) -> dict:
    """Plain, JSON-friendly inputs for one workload; pure function of seed."""
    rng = _rng(workload, seed)
    if workload == "solve_cold":
        return {"degrees": list(rng.choice(SOLVE_PAIRS))}
    if workload == "verify_campaign":
        h = rng.choice(VERIFY_H)
        return {"campaigns": [h, VERIFY_H_SUM - h]}
    if workload == "paths":
        points = []
        for basin, draw in (("inv-sqrt-z", _draw_near_branch), ("zero", _draw_zero_basin)):
            for _ in range(PATH_POINTS_PER_BASIN):
                re_q, im_q = draw(rng)
                points.append({"re": str(re_q), "im": str(im_q), "basin": basin,
                               "n": rng.choice(PATH_DEGREES)})
        return {"points": points, "branch_samples": BRANCH_SAMPLES}
    raise ValueError(f"unknown workload {workload!r}")


def predicted_basin(x: float, y: float) -> str:
    """The benchmark's own basin test: right of the parabola x = 1/3 - 3y^2/4
    means t = 1 drains to 1/sqrt(z)."""
    return "inv-sqrt-z" if x > 1 / 3 - 0.75 * y * y else "zero"


def _parabola_gap(x: float, y: float) -> float:
    return x - (1 / 3 - 0.75 * y * y)


def _draw_near_branch(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point within 10% (radially about z = 1) of the right
    lemniscate branch, away from the pinch z = 1/3, from z = 1 and from the
    basin parabola."""
    while True:
        phi = rng.uniform(-0.75 * math.pi, 0.75 * math.pi)
        u = complex(math.cos(phi), math.sin(phi))
        lo, hi = 0.0, 2.0  # |1 + rho u| rho^2 = 4/27 is increasing in rho here
        for _ in range(60):
            mid = (lo + hi) / 2
            if abs(1 + mid * u) * mid * mid < 4 / 27:
                lo = mid
            else:
                hi = mid
        z = 1 + lo * rng.uniform(0.9, 1.1) * u
        re_q = Fraction(round(z.real * 1000), 1000)
        im_q = Fraction(round(z.imag * 1000), 1000)
        x, y = float(re_q), float(im_q)
        if x > 1 / 3 + 0.05 and _parabola_gap(x, y) > 0.1 and abs(complex(x, y) - 1) > 0.1:
            return re_q, im_q


def _draw_zero_basin(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point at least 0.3 left of the basin parabola, off the
    branch cut, in the region where the half-plane bound is claimed."""
    y = Fraction(rng.randint(10, 80), 100) * rng.choice((-1, 1))
    border = Fraction(1, 3) - Fraction(3, 4) * y * y
    x = border - Fraction(rng.randint(30, 230), 100)
    return x, y


def load_reference() -> dict[int, list[tuple[mpf, mpf]]]:
    """Reference roots by degree, as written by make_reference.py."""
    out: dict[int, list[tuple[mpf, mpf]]] = {}
    with mp.workprec(128):
        with REFERENCE_CSV.open(encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                out.setdefault(int(row["n"]), []).append((mpf(row["re"]), mpf(row["im"])))
    return out


# ---------------------------------------------------------------- bodies


def run_body(workload: str, inputs: dict, reference=None, workdir: Path | None = None) -> BodyResult:
    if workload == "solve_cold":
        return _solve_cold(inputs, reference)
    if workload == "verify_campaign":
        return _verify_campaign(inputs, workdir)
    if workload == "paths":
        return _paths(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _bits_of(rel, bits: int) -> float:
    """-log2 of a nonnegative relative error, capped at the working precision."""
    with mp.workprec(53):
        return float(bits) if rel == 0 else min(float(bits), float(-mpmath.log(mpf(rel), 2)))


def _solve_cold(inputs: dict, reference) -> BodyResult:
    ops, roots, cert, ident = [], 0, math.inf, math.inf
    bits_max = 0
    for n in inputs["degrees"]:
        op = Op(f"find_roots n={n}")
        ops.append(op)
        try:
            rs = rootfinder.find_roots(exact.build_polynomial(n))
        except Exception as exc:  # counted as a failed operation, with its reason
            op.reasons.append(f"{type(exc).__name__}: {exc}")
            continue
        op.reasons.extend(check_rootset(rs, n, reference.get(n) if reference else None))
        roots += len(rs.roots)
        bits_max = max(bits_max, rs.precision_used)
        cert = min(cert, cert_bits(rs))
        ident = min(ident, _bits_of(_product_deviation(rs), rs.precision_used))
    return BodyResult(ops, roots, cert, ident, {"rootfinder.bits_max": bits_max})


def vieta_sum(n: int) -> Fraction:
    """-c_{n-1}/c_n = n(3n+1)/(3n-1), from the coefficient recurrence."""
    return Fraction(n * (3 * n + 1), 3 * n - 1)


def cert_bits(rs) -> float:
    """min over roots of -log2(radius / (1 + |z|))."""
    with mp.workprec(rs.precision_used):
        worst = max(r / (1 + abs(z)) for z, r in zip(rs.roots, rs.inclusion_radii))
    return _bits_of(worst, rs.precision_used)


def _product_deviation(rs):
    n = rs.degree
    with mp.workprec(rs.precision_used):
        expected = mpf(3 * n + 1) / (n + 1)
        prod = mpf(1)
        for z in rs.roots:
            prod *= abs(z)
        return abs(prod - expected) / expected


def check_rootset(rs, n: int, reference=None) -> list[str]:
    """Reasons a certified RootSet for degree n is wrong; empty when it passes.

    Independent of the library's own checks: disjointness, conjugation
    closure and the Vieta identities are recomputed here, and `reference`
    (roots committed at 30 digits) must be matched one-to-one within each
    inclusion radius plus 1e-25.
    """
    reasons = []
    zs, rad = list(rs.roots), list(rs.inclusion_radii)
    if len(zs) != n or len(rad) != n:
        return [f"n={n}: {len(zs)} roots and {len(rad)} radii"]
    with mp.workprec(rs.precision_used):
        for i in range(n):
            for j in range(i + 1, n):
                if abs(zs[i] - zs[j]) <= rad[i] + rad[j]:
                    reasons.append(f"n={n}: disks {i} and {j} overlap")
        used = [False] * n
        for i in range(n):
            if used[i] or abs(zs[i].imag) <= rad[i]:
                used[i] = True
                continue
            conj = mpmath.conj(zs[i])
            match = next((j for j in range(n) if j != i and not used[j]
                          and abs(zs[j] - conj) <= rad[i] + rad[j]), None)
            if match is None:
                reasons.append(f"n={n}: root {i} has no conjugate partner")
                break
            used[i] = used[match] = True
        target = max(RADIUS_TARGET, mpf(2) ** (32 - rs.precision_used))
        worst = max(r / (1 + abs(z)) for z, r in zip(zs, rad))
        if worst > target:
            reasons.append(f"n={n}: relative radius {mpmath.nstr(worst, 5)} above {mpmath.nstr(target, 5)}")
        s = vieta_sum(n)
        slack = sum(rad) + n * mpf(2) ** (8 - rs.precision_used)
        if abs(sum(zs) - mpf(s.numerator) / s.denominator) > slack:
            reasons.append(f"n={n}: root sum differs from -c_(n-1)/c_n")
        dev = _product_deviation(rs)
        if not dev < PRODUCT_TOL:
            reasons.append(f"n={n}: product of moduli off by {mpmath.nstr(dev, 5)} relative")
        min_re = min(z.real - r for z, r in zip(zs, rad))
        if not min_re > mpf(1) / 3:
            reasons.append(f"n={n}: min certified Re = {mpmath.nstr(min_re, 10)} not > 1/3")
        if reference is not None:
            reasons.extend(_oracle_mismatches(n, zs, rad, reference))
    return reasons


def _oracle_mismatches(n, zs, rad, reference) -> list[str]:
    if len(reference) != n:
        return [f"n={n}: reference holds {len(reference)} roots"]
    taken = [False] * n
    for i, (z, r) in enumerate(zip(zs, rad)):
        tol = r + ORACLE_SLACK
        match = next((k for k, (a, b) in enumerate(reference)
                      if not taken[k] and abs(z - mpc(a, b)) <= tol), None)
        if match is None:
            return [f"n={n}: root {i} = {mpmath.nstr(z, 12)} is not within its radius of a reference root"]
        taken[match] = True
    return []


def _verify_campaign(inputs: dict, workdir: Path | None) -> BodyResult:
    ops, roots, cert, ident = [], 0, math.inf, math.inf
    bits_max = 0
    written = 0
    for h in inputs["campaigns"]:
        degrees = list(range(2, h + 1))
        campaign_ops = {n: Op(f"verify 2..{h} n={n}") for n in degrees}
        ops.extend(campaign_ops.values())
        out = Path(tempfile.mkdtemp(prefix="verify-", dir=workdir))
        try:
            stdout = io.StringIO()
            with ResultCapture(rootfinder, "find_roots") as solved, contextlib.redirect_stdout(stdout):
                try:
                    code = cli.main(["verify", "--n-range", f"2..{h}", "--workers", "1", "--out", str(out)])
                except Exception as exc:  # the whole campaign failed
                    code = f"{type(exc).__name__}: {exc}"
            written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            lines = stdout.getvalue().splitlines()
            campaign_reasons = []
            if code != 0:
                campaign_reasons.append(f"exit {code}")
            passes = sum(1 for line in lines if line.startswith("PASS "))
            if passes != VERIFY_PASS_LINES:
                campaign_reasons.append(f"{passes} PASS lines, expected {VERIFY_PASS_LINES}")
            if any(line.startswith("cached:") for line in lines):
                campaign_reasons.append("result came from the cache")
            rows = _lemma_rows(out)
            by_degree = {rs.degree: rs for rs in solved}
            for n, op in campaign_ops.items():
                op.reasons.extend(campaign_reasons)
                row = rows.get(n)
                if row is None:
                    op.reasons.append(f"n={n}: no lemmas.csv row")
                elif row["error"]:
                    op.reasons.append(f"n={n}: {row['error']}")
                rs = by_degree.get(n)
                if rs is None:
                    op.reasons.append(f"n={n}: no certified RootSet was returned")
                    continue
                if len(rs.roots) != n:
                    op.reasons.append(f"n={n}: {len(rs.roots)} roots")
                roots += len(rs.roots)
                bits_max = max(bits_max, rs.precision_used)
                cert = min(cert, cert_bits(rs))
                ident = min(ident, _bits_of(_product_deviation(rs), rs.precision_used))
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return BodyResult(ops, roots, cert, ident,
                      {"rootfinder.bits_max": bits_max, "cli.bytes_written": written})


def _lemma_rows(out: Path) -> dict[int, dict]:
    rows: dict[int, dict] = {}
    for f in out.glob("*/lemmas.csv"):
        with f.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for values in reader:
                # the error column is last and may itself contain commas
                row = dict(zip(header[:-1], values[: len(header) - 1]))
                row["error"] = ",".join(values[len(header) - 1:])
                rows[int(row["n"])] = row
    return rows


class ResultCapture:
    """Record every return value of `module.name` for the duration of a
    `with` block, by rebinding it in each lemnizeros module that binds it."""

    def __init__(self, module, name: str):
        self.original = getattr(module, name)
        self.results: list = []

    def __enter__(self):
        results, original = self.results, self.original

        def recorder(*args, **kwargs):
            out = original(*args, **kwargs)
            results.append(out)
            return out

        self.patched = rebind(self.original, recorder)
        return self.results

    def __exit__(self, *exc):
        for mod, attr in self.patched:
            setattr(mod, attr, self.original)
        return False


def lemnizeros_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lemnizeros" or name.startswith("lemnizeros."))]


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Replace `original` by `replacement` in every lemnizeros module
    namespace that binds it; returns the (module, attribute) pairs changed."""
    changed = []
    for mod in lemnizeros_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def _paths(inputs: dict) -> BodyResult:
    ops, roots, ident = [], 0, math.inf
    bits = PATH_BITS
    for pt in inputs["points"]:
        re_q, im_q, n = Fraction(pt["re"]), Fraction(pt["im"]), pt["n"]
        op = Op(f"paths z={re_q}+{im_q}i n={n}")
        ops.append(op)
        z = numerics.to_mpc(re_q, bits, im_q)
        expected = predicted_basin(float(re_q), float(im_q))
        if expected != pt["basin"]:
            op.reasons.append(f"input placed in {pt['basin']} but predicted {expected}")
        try:
            path = paths.trace_path(z)
            if path.start_label != expected:
                op.reasons.append(f"path starts at {path.start_label}, predicted {expected}")
                continue
            roots += 1  # t(0), a zero of f_z, reached and checked by trace_path
            if expected == "zero":
                verdict = paths.halfplane_bound_check(z, path)
                if not verdict.ok:
                    op.reasons.append(f"half-plane bound fails: min Re = {mpmath.nstr(verdict.min_real, 8)}")
                continue
            seg = paths.segment_integral(n, z)
            tail = paths.tail_integral(n, path)
            full = paths.integral_full(n, z)
            lhs, rhs = paths.zero_equation_residual(n, z, path=path)
            with mp.workprec(bits):
                full = full / (n + 1)
                scale = max(abs(full), abs(seg), abs(tail))
                rel = abs(seg + tail - full) / scale
                ident = min(ident, _bits_of(rel, bits))
                if not rel < IDENTITY_TOL:
                    op.reasons.append(f"segment + tail - full/(n+1) = {mpmath.nstr(rel, 5)} relative")
                # lhs = (sqrt z)^(n+1) * tail and rhs = -(2/sqrt 27)^n sqrt(2 pi) / (3 sqrt n)
                sz = mpmath.sqrt(z)
                want_lhs = sz ** (n + 1) * tail
                want_rhs = -((2 / mp.sqrt(27)) ** n) * mp.sqrt(2 * mp.pi) / (3 * mp.sqrt(n))
                if abs(lhs - want_lhs) > mpf(2) ** (24 - bits) * abs(want_lhs):
                    op.reasons.append("zero_equation_residual lhs disagrees with (sqrt z)^(n+1) * tail")
                if abs(rhs - want_rhs) > mpf(2) ** (24 - bits) * abs(want_rhs):
                    op.reasons.append("zero_equation_residual rhs disagrees with its closed form")
        except Exception as exc:  # counted as a failed operation, with its reason
            op.reasons.append(f"{type(exc).__name__}: {exc}")

    op = Op(f"branch_polyline({inputs['branch_samples']})")
    ops.append(op)
    cert = math.inf
    try:
        pts = geometry.branch_polyline(inputs["branch_samples"])
        with mp.workprec(bits):
            level = mpf(4) / 27
            worst = max(abs(abs(z * (1 - z) ** 2) - level) / level for z in pts)
            low = min(z.real for z in pts)
        cert = _bits_of(worst, bits)
        roots += len(pts)
        if len(pts) < inputs["branch_samples"]:
            op.reasons.append(f"only {len(pts)} branch points")
        if not worst < BRANCH_RESIDUAL_TOL:
            op.reasons.append(f"branch point off the lemniscate by {mpmath.nstr(worst, 5)} relative")
        if low < mpf(1) / 3 - mpf(2) ** (16 - bits):
            op.reasons.append(f"branch point with Re = {mpmath.nstr(low, 10)} left of the pinch")
    except Exception as exc:  # counted as a failed operation, with its reason
        op.reasons.append(f"{type(exc).__name__}: {exc}")
    return BodyResult(ops, roots, cert, ident)

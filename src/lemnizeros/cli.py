"""Command-line surface: reproducible runs over the library modules.

Every invocation is described by a RunConfig; a run is a pure function of
it, and outputs land in a subdirectory named by a content hash of the
mathematical fields (neither the output directory nor the worker count
influences the hash: each degree is solved on its own, so the artifacts are
the same bytes for any --workers).  --n, --n-range and --n-list are three
spellings of one sorted set of distinct degrees, so a run's directory depends
only on the set.  The CLI does all the solving, one task per degree; the
analysis layer reads the certified RootSets.  The run directory, with its
runconfig.txt, is made when the first artifact is written, so a failed run
leaves none.  Re-running an already-completed configuration into the same
--out reuses the cached artifacts.

Exit codes: 0 success, 1 failed verification check, 2 usage, 3 root
certification failure, 4 precision exhausted, 5 path tracing failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from . import analysis, geometry, paths
from .exact import build_polynomial, coefficients_csv
from .numerics import PrecisionConfig, PrecisionExhaustedError, to_mpc
from .paths import PathError, path_csv, trace_path
from .rootfinder import CertificationError, RootSet, find_roots, rootset_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3
EXIT_PRECISION = 4
EXIT_PATH = 5

VIETA_TOL = mpf("1e-10")
_FIGURE_N_LIST = (5, 10, 16, 23, 40, 60)  # figure --kind zeros with no degree set


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  `out` (where artifacts land) and
    `workers` (how many processes solve) change no artifact, so both are
    left out of the content hash."""

    command: str
    n_list: tuple[int, ...] | None = None  # the degrees, sorted and distinct
    precision_bits: int | None = None  # None: the command's default, see bits()
    max_bits: int = PrecisionConfig().max_bits
    theta_grid: int = 2048
    steps: int = 512
    path_tol: str | None = None
    workers: int = 0  # 0 resolves to the available core count
    kind: str | None = None
    z: str | None = None  # config_from_args stores one spelling per point
    window: str | None = None
    res: int = 64
    out: str | None = None

    def to_text(self, hashed_only: bool = False) -> str:
        lines = []
        for f in fields(self):
            if hashed_only and f.name in ("out", "workers"):
                continue
            v = self.bits() if f.name == "precision_bits" else getattr(self, f.name)
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text(hashed_only=True).encode()).hexdigest()[:12]

    def bits(self) -> int:
        """The working precision: --precision-bits, else the command's
        default.  trace and figure --kind level keep the 128 bits of the
        path and level-field modules; the solver commands start at
        PrecisionConfig().bits."""
        if self.precision_bits is not None:
            return self.precision_bits
        if self.command == "trace":
            return paths.DEFAULT_BITS
        if self.command == "figure" and self.kind == "level":
            return geometry.DEFAULT_BITS
        return PrecisionConfig().bits

    def precision(self) -> PrecisionConfig:
        return PrecisionConfig(bits=self.bits(), max_bits=max(self.max_bits, self.bits()))


def _degrees(key: str, text: str) -> tuple[int, ...]:
    """The degrees of one spelling, unsorted: n = 5, n_range = 2..9 (2,9 in
    the runconfig.txt files of older versions), n_list = 4,8."""
    if key == "n":
        return (int(text),)
    if key == "n_range":
        lo, _, hi = text.replace("..", ",").partition(",")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(","))


def parse_run_config_text(text: str, command: str | None = None) -> RunConfig:
    """Parse the plain `key = value` config format back into a RunConfig."""
    values: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key in ("n", "n_range", "n_list"):
            if "n_list" in values:
                raise ValueError("config gives more than one degree set")
            values["n_list"] = _degrees(key, val)
        elif key in ("precision_bits", "max_bits", "theta_grid", "steps", "workers", "res"):
            values[key] = int(val)
        elif key in ("command", "kind", "z", "window", "path_tol", "out"):
            values[key] = val
        else:
            raise ValueError(f"unknown config key: {key}")
    if command is not None:
        values["command"] = command
    if "command" not in values:
        raise ValueError("config must carry a command")
    return RunConfig(**values)  # type: ignore[arg-type]


def parse_rational_complex(text: str) -> tuple[Fraction, Fraction]:
    """Exact rational a+bi syntax: '4/3', '1/3+2/3i', '-1+0.5i', '2i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s[-1] in "ij":
        body = s[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/.":
                split = k
                break
        if split is None:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return Fraction(re_part), Fraction(im_part)
    return Fraction(s), Fraction(0)


def _canonical_z(text: str) -> str:
    """One spelling per rational point, so that equal points share a run
    directory: '8/6' and '4/3' are '4/3', '-1+0.5i' is '-1+1/2i'."""
    re_q, im_q = parse_rational_complex(text)
    return f"{re_q}{'+' if im_q > 0 else ''}{im_q}i" if im_q else str(re_q)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnizeros",
        description="Hypergeometric-family zeros, their certification, and the lemniscate limit.",
    )
    parser.add_argument("--config", help="plain key = value config file; flags override")
    sub = parser.add_subparsers(dest="command")

    def common(p, *, degrees=False):
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--max-bits", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (hash-named subdir per run)")
        p.add_argument("--workers", type=int, default=None, help="solve processes (0 = all cores)")
        if degrees:
            one_set = p.add_mutually_exclusive_group()
            for flag, metavar in (("n", "N"), ("n_range", "LO..HI"), ("n_list", "A,B,...")):
                one_set.add_argument(f"--{flag.replace('_', '-')}", dest="n_list", metavar=metavar,
                                     type=lambda s, key=flag: _degrees(key, s))

    p = sub.add_parser("coeffs", help="exact rational coefficients as CSV")
    common(p, degrees=True)

    p = sub.add_parser("roots", help="certified roots as CSV")
    common(p, degrees=True)

    p = sub.add_parser("verify", help="certified root-property campaign with PASS/FAIL lines")
    common(p, degrees=True)

    p = sub.add_parser("report", help="lemniscate convergence report")
    common(p, degrees=True)
    p.add_argument("--theta-grid", type=int, default=None, help="branch polyline sample count")

    p = sub.add_parser("figure", help="figure data emission (SVG/CSV)")
    common(p, degrees=True)
    p.add_argument("--kind", choices=("zeros", "level"), required=True)
    p.add_argument("--theta-grid", type=int, default=None)
    p.add_argument("--z", default=None, help="rational complex, e.g. 4/3 or 1/3+2/3i")
    p.add_argument("--window", default=None, help="re_min,re_max,im_min,im_max")
    p.add_argument("--res", type=int, default=None)

    p = sub.add_parser("trace", help="steepest-path trace as CSV")
    common(p)
    p.add_argument("--z", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--path-tol", default=None)

    return parser


def config_from_args(args) -> RunConfig:
    base = RunConfig(command="unset")
    if args.config:
        base = parse_run_config_text(Path(args.config).read_text(encoding="utf-8"))
    overrides = {}
    if args.command:
        overrides["command"] = args.command
    for name in (
        "n_list", "precision_bits", "max_bits", "theta_grid",
        "steps", "path_tol", "workers", "kind", "z", "window", "res", "out",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    cfg = replace(base, **overrides)
    if cfg.command == "unset":
        raise ValueError("no command given")
    # checked here, before any directory is made or any degree is solved
    if cfg.n_list is not None:
        ns = tuple(sorted(set(cfg.n_list)))
        if not ns:
            raise ValueError(f"{cfg.command}: empty degree set")
        if ns[0] < 1:
            raise ValueError(f"{cfg.command}: degrees must be >= 1, got {ns[0]}")
        cfg = replace(cfg, n_list=ns)
    elif cfg.command in ("coeffs", "roots", "verify", "report"):
        raise ValueError("no degrees given: use --n, --n-range or --n-list")
    cfg.precision()  # bits below 64 are a usage error for every command
    if cfg.z is not None:
        cfg = replace(cfg, z=_canonical_z(cfg.z))
    # the branch needs a phase
    draws_branch = cfg.command == "report" or (cfg.command == "figure" and cfg.kind == "zeros")
    if draws_branch and cfg.theta_grid < 1:
        raise ValueError(f"{cfg.command}: empty theta grid (--theta-grid {cfg.theta_grid})")
    if cfg.workers == 0:
        cfg = replace(cfg, workers=os.cpu_count() or 1)
    return cfg


def _emit(cfg: RunConfig, directory: Path | None, name: str, text: str, quiet: bool = False) -> None:
    """Write one artifact into the run directory, making the directory and
    its runconfig.txt first, or to stdout when there is no directory."""
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "runconfig.txt").write_text(cfg.to_text(), encoding="utf-8")
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
    elif not quiet:
        sys.stdout.write(text)


def _solve(n: int, precision: PrecisionConfig) -> RootSet | Exception:
    """The one solve task: the certified RootSet of degree n.  A certification
    or precision failure is returned, not raised, so the other degrees still
    run; any other exception propagates."""
    try:
        return find_roots(build_polynomial(n), precision)
    except (CertificationError, PrecisionExhaustedError) as exc:
        return exc


def _solve_degrees(cfg: RunConfig, ns) -> dict[int, RootSet | Exception]:
    """_solve(n) for each degree of the sorted ns, keyed by degree, in this
    process or, with workers > 1, one pool task per degree; the worker count
    only sets how many processes run the tasks, so the results are the same
    for any value."""
    pcfg = cfg.precision()
    if cfg.workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                return dict(zip(ns, pool.map(_solve, ns, repeat(pcfg))))
        except OSError:  # restricted environments: the same tasks, serial
            pass
    return {n: _solve(n, pcfg) for n in ns}


def _certified(cfg: RunConfig, ns) -> dict[int, RootSet]:
    """The certified RootSets of ns; the first failure in degree order is raised."""
    solved = _solve_degrees(cfg, ns)
    for result in solved.values():
        if isinstance(result, Exception):
            raise result
    return solved


def run(cfg: RunConfig) -> int:
    outdir = None if cfg.out is None else Path(cfg.out) / f"{cfg.command}-{cfg.content_hash()}"
    if outdir is not None and (outdir / "DONE").exists():
        print(f"cached: {outdir}")
        return EXIT_OK

    code = _dispatch(cfg, outdir)
    if code == EXIT_OK and outdir is not None:
        (outdir / "DONE").write_text("ok\n", encoding="utf-8")
    return code


def _dispatch(cfg: RunConfig, outdir: Path | None) -> int:
    z = None
    if cfg.z is not None:
        re_q, im_q = parse_rational_complex(cfg.z)
        z = to_mpc(re_q, cfg.bits(), im_q)

    if cfg.command == "coeffs":
        _emit(cfg, outdir, "coeffs.csv", coefficients_csv(cfg.n_list))
        if outdir is not None:
            print(f"wrote {outdir / 'coeffs.csv'}")
        return EXIT_OK

    if cfg.command == "roots":
        solved = _certified(cfg, cfg.n_list)
        _emit(cfg, outdir, "roots.csv", rootset_csv(*solved.values()))
        if outdir is not None:
            print(f"wrote {outdir / 'roots.csv'}")
        return EXIT_OK

    if cfg.command == "verify":
        return _run_verify(cfg, outdir)

    if cfg.command == "report":
        solved = _certified(cfg, cfg.n_list)
        reports = analysis.convergence_report(solved, cfg.theta_grid)
        _emit(cfg, outdir, "roots_report.csv", analysis.roots_report_csv(reports, solved), quiet=True)
        _emit(cfg, outdir, "summary.csv", analysis.summary_csv(reports))
        slope = analysis.residual_slope(reports)
        if slope is not None:
            print(f"log-median-residual slope vs log n: {mpmath.nstr(slope, 6)}")
        return EXIT_OK

    if cfg.command == "figure":
        if cfg.kind == "zeros":
            solved = _certified(cfg, cfg.n_list or _FIGURE_N_LIST)
            svg, csv_text = analysis.figure_zero_plot(solved, cfg.theta_grid)
            _emit(cfg, outdir, "figure_zeros.svg", svg, quiet=True)
            _emit(cfg, outdir, "figure_zeros.csv", csv_text)
            if outdir is not None:
                print(f"wrote {outdir / 'figure_zeros.svg'}")
            return EXIT_OK
        if cfg.kind == "level":
            if z is None:
                raise ValueError("figure --kind level requires --z")
            window = (
                tuple(Fraction(x) for x in cfg.window.split(","))
                if cfg.window
                else (Fraction(-3, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(3, 2))
            )
            text = analysis.figure_level_curves(z, window, cfg.res, cfg.bits())
            _emit(cfg, outdir, "level_field.csv", text)
            if outdir is not None:
                print(f"wrote {outdir / 'level_field.csv'}")
            return EXIT_OK
        raise ValueError(f"unknown figure kind {cfg.kind!r}")

    if cfg.command == "trace":
        path = trace_path(
            z,
            steps=cfg.steps,
            path_tol=None if cfg.path_tol is None else mpf(cfg.path_tol),
            bits=cfg.bits(),
        )
        _emit(cfg, outdir, "path.csv", path_csv(path))
        print(
            f"t(0) = {mpmath.nstr(path.start_point, 20)} ({path.start_label}); "
            f"{len(path.samples)} samples"
        )
        return EXIT_OK

    raise ValueError(f"unknown command {cfg.command!r}")


def _run_verify(cfg: RunConfig, outdir: Path | None) -> int:
    # a degree whose solve fails is reported on its own line, while the
    # other degrees still run
    reports = analysis.lemma_reports(_solve_degrees(cfg, cfg.n_list))
    _emit(cfg, outdir, "lemmas.csv", analysis.lemma_csv(reports), quiet=True)

    errors = [r for r in reports if r.error is not None]
    checked = [r for r in reports if r.error is None]
    strict = [r for r in checked if r.n >= 2]  # n = 1 is the flagged boundary case
    lines = []
    ok = True

    def check(name: str, passed: bool, detail: str):
        nonlocal ok
        passed = passed and bool(checked)  # no certified degree backs a PASS
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    span = f"n={checked[0].n}..{checked[-1].n}" if checked else "no certified degree"
    check("root-count", all(r.root_count == r.n for r in checked), f"{span}, each degree yields n certified roots")
    check("ek-disk", all(r.ek_disk == "inside" for r in strict),
          f"{span}, all certified roots inside |z| < n+1"
          + ("; n=1 reported as boundary" if any(r.n == 1 for r in checked) else ""))
    check("unit-circle", all(r.outside_unit_circle for r in checked),
          f"{span}, largest root modulus certified > 1")
    with mp.workprec(64):
        min_re = min((r.min_real_part for r in checked), default=mpf("nan"))
        max_dev = max((r.product_deviation for r in checked), default=mpf("nan"))
    check("re-gt-third", all(r.min_real_part > mpf(1) / 3 for r in checked),
          f"{span}, min certified Re(root) = {mpmath.nstr(min_re, 8)} > 1/3")
    check("vieta-product", all(r.product_deviation < VIETA_TOL for r in checked),
          f"{span}, max |prod moduli - (3n+1)/(n+1)| rel = {mpmath.nstr(max_dev, 4)} < 1e-10")
    if errors:
        ok = False
        for r in errors:
            lines.append(f"FAIL n={r.n}: {r.error}")

    text = "\n".join(lines) + "\n"
    print(text, end="")
    _emit(cfg, outdir, "verify.txt", text, quiet=True)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.config:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except PrecisionExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except PathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PATH
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: reproducible runs over the library modules.

Every invocation is described by a RunConfig; a run is a pure function of
it.  READS, one table, says what each command (and figure kind) reads: its
flags and config keys, the fields it needs and its default precision.  Any
other flag or key is a usage error, and the outputs land in a subdirectory
named by a content hash of the fields read, so two runs share a directory
when they compute the same thing.  --out and --workers are taken by every
command and hashed by none: each degree is one solve task, so the artifacts
are the same bytes for any --workers.  --workers 0 means the cores this
process may run on, and the count is capped at the number of degrees: a
process pool starts only for two or more degrees and two or more workers.
A degree set, --z, --window and --path-tol are each stored in one spelling,
and --max-bits as the ceiling in effect.  All checks run before the run
directory, with its runconfig.txt, is made at the first artifact, so a
failed run leaves none; re-running a completed configuration into the same
--out reuses it.

Exit codes: 0 success, 1 failed verification check, 2 usage, 3 root
certification failure, 4 precision exhausted, 5 path tracing failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from . import analysis, geometry, paths
from .exact import build_polynomial, coefficients_csv
from .numerics import PrecisionConfig, PrecisionExhaustedError, to_mpc, to_mpf
from .paths import PathError, path_csv, trace_path
from .rootfinder import CertificationError, RootSet, find_roots, rootset_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3
EXIT_PRECISION = 4
EXIT_PATH = 5

_EXIT_CODES = {CertificationError: EXIT_CERTIFICATION, PrecisionExhaustedError: EXIT_PRECISION,
               PathError: EXIT_PATH, ValueError: EXIT_USAGE, ZeroDivisionError: EXIT_USAGE}


class Reads(NamedTuple):
    """What one command reads besides out and workers: its fields, those it
    needs, its default precision (None: exact) and its default values."""

    fields: tuple[str, ...]
    needs: tuple[str, ...] = ()
    bits: int | None = None
    defaults: tuple[tuple[str, object], ...] = ()


_SOLVE = ("n_list", "precision_bits", "max_bits")
READS = {
    ("coeffs", None): Reads(("n_list",), ("n_list",)),
    ("roots", None): Reads(_SOLVE, ("n_list",), PrecisionConfig().bits),
    ("verify", None): Reads(_SOLVE, ("n_list",), PrecisionConfig().bits),
    ("report", None): Reads(_SOLVE + ("theta_grid",), ("n_list",), PrecisionConfig().bits),
    ("figure", "zeros"): Reads(("kind",) + _SOLVE + ("theta_grid",), (), PrecisionConfig().bits,
                               (("n_list", (5, 10, 16, 23, 40, 60)),)),
    ("figure", "level"): Reads(("kind", "precision_bits", "z", "window", "res"), ("z",), geometry.DEFAULT_BITS,
                               (("window", "-3/2,3/2,-3/2,3/2"),)),
    ("trace", None): Reads(("precision_bits", "steps", "path_tol", "z"), ("z",), paths.DEFAULT_BITS),
}
_HELP = {
    "coeffs": "exact rational coefficients as CSV",
    "roots": "certified roots as CSV",
    "verify": "certified root-property campaign with PASS/FAIL lines",
    "report": "lemniscate convergence report",
    "figure": "figure data emission (SVG/CSV)",
    "trace": "steepest-path trace as CSV",
    "out": "output directory (hash-named subdir per run)",
    "workers": "solve processes (0 = the cores this process may run on)",
    "theta_grid": "branch polyline sample count",
    "z": "rational complex, e.g. 4/3 or 1/3+2/3i",
    "window": "re_min,re_max,im_min,im_max",
}
_INT_FIELDS = ("precision_bits", "max_bits", "theta_grid", "steps", "workers", "res")
_UNHASHED = ("out", "workers")  # taken by every command; they change no artifact


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  Only the fields that READS lists for
    the command are recorded in runconfig.txt, with `out` (where artifacts
    land) and `workers` (how many processes solve); those two change no
    artifact, so the content hash leaves them out."""

    command: str
    n_list: tuple[int, ...] | None = None  # the degrees, sorted and distinct
    precision_bits: int | None = None  # None: the command's default, see bits()
    max_bits: int = PrecisionConfig().max_bits  # raised to bits() at parse time
    theta_grid: int = 2048
    steps: int = 512
    path_tol: Fraction | None = None  # exact, stored in one spelling
    workers: int = 0  # 0 resolves to the available core count
    kind: str | None = None
    z: str | None = None  # parse_run_config_text stores one spelling per point
    window: tuple[Fraction, ...] | None = None  # re_min, re_max, im_min, im_max
    res: int = 64
    out: str | None = None

    def reads(self) -> Reads:
        return READS.get((self.command, self.kind)) or READS[(self.command, None)]

    def to_text(self, hashed_only: bool = False) -> str:
        names = {"command", *self.reads().fields, *(() if hashed_only else _UNHASHED)}
        lines = []
        for f in fields(self):
            v = self.bits() if f.name == "precision_bits" else getattr(self, f.name)
            if f.name not in names or v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text(hashed_only=True).encode()).hexdigest()[:12]

    def bits(self) -> int | None:
        """The working precision: --precision-bits, else the command's
        default from READS."""
        return self.reads().bits if self.precision_bits is None else self.precision_bits

    def precision(self) -> PrecisionConfig:
        return PrecisionConfig(bits=self.bits(), max_bits=self.max_bits)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _degrees(key: str, text: str) -> tuple[int, ...]:
    """The degrees of one spelling, unsorted: n = 5, n_range = 2..9 (2,9 in
    the runconfig.txt files of older versions), n_list = 4,8."""
    if key == "n":
        return (int(text),)
    if key == "n_range":
        lo, _, hi = text.replace("..", ",").partition(",")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(","))


def parse_run_config_text(text: str, flags: dict | None = None) -> RunConfig:
    """The checked RunConfig of the plain `key = value` config format, with
    the given flag values over it.  A field the command does not read, or a
    missing one it needs, is a usage error; so is a bad degree set, window,
    precision or worker count.  All of it is checked here, before any
    directory is made or any degree is solved."""
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
        elif key in _INT_FIELDS:
            values[key] = int(val)
        elif key in (f.name for f in fields(RunConfig)):
            values[key] = val
        else:
            raise ValueError(f"unknown config key: {key}")
    values.update(flags or {})
    command, kind = values.get("command"), values.get("kind")
    if command is None:
        raise ValueError("no command given")
    reads = READS.get((command, kind)) or READS.get((command, None))
    if reads is None:
        raise ValueError(f"unknown command {command!r} or figure kind {kind!r}")
    label = f"{command} --kind {kind}" if "kind" in reads.fields else command
    foreign = sorted(set(values) - {"command", *reads.fields, *_UNHASHED})
    if foreign:
        raise ValueError(f"{label} does not read {', '.join(map(_flag, foreign))}")
    for name in reads.needs:
        if values.get(name) is None:
            raise ValueError("no degrees given: use --n, --n-range or --n-list"
                             if name == "n_list" else f"{label} requires {_flag(name)}")
    values = {**dict(reads.defaults), **values}
    if "n_list" in values:
        ns = tuple(sorted(set(values["n_list"])))
        if not ns or ns[0] < 1:
            raise ValueError(f"{command}: the degree set must be nonempty, with every degree >= 1")
        values["n_list"] = ns
    if "z" in values:
        values["z"] = _canonical_z(values["z"])
    if "window" in values:
        values["window"] = _window(values["window"])
    if "path_tol" in values:
        values["path_tol"] = _path_tol(values["path_tol"])
    cfg = RunConfig(**values)  # type: ignore[arg-type]
    if reads.bits is not None:  # the ceiling in effect, so that equal ceilings share a hash
        cfg = replace(cfg, max_bits=max(cfg.max_bits, cfg.bits()))
        cfg.precision()  # bits below 64 are a usage error
    if "theta_grid" in reads.fields and cfg.theta_grid < 1:  # the branch needs a phase
        raise ValueError(f"{command}: empty theta grid (--theta-grid {cfg.theta_grid})")
    if cfg.workers < 0:
        raise ValueError(f"{command}: --workers must be >= 0 (0 = the cores this process may run on), "
                         f"not {cfg.workers}")
    return cfg


def parse_rational_complex(text: str) -> tuple[Fraction, Fraction]:
    """Exact rational a+bi syntax: '4/3', '1/3+2/3i', '-1+0.5i', '2i',
    '2+1e-3i' (a sign after e or E belongs to an exponent)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s[-1] in "ij":
        body = s[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/.eE":
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


def _window(text: str) -> tuple[Fraction, ...]:
    """The four rationals of re_min,re_max,im_min,im_max, checked to bound a
    box; '-1.5,1.5,-1.5,1.5' and '-3/2,3/2,-3/2,3/2' are one window."""
    try:
        q = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        q = ()
    if len(q) != 4 or q[0] >= q[1] or q[2] >= q[3]:
        raise ValueError(f"--window {text}: want re_min,re_max,im_min,im_max, "
                         "with re_min < re_max and im_min < im_max")
    return q


def _path_tol(text) -> Fraction:
    """The exact tolerance of one spelling: '1e-6', '0.000001' and
    '1/1000000' are one value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--path-tol {text}: want a rational or decimal number") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnizeros",
        description="Hypergeometric-family zeros, their certification, and the lemniscate limit.",
    )
    parser.add_argument("--config", help="plain key = value config file; flags override")
    sub = parser.add_subparsers(dest="command")
    for command in dict.fromkeys(c for c, _ in READS):
        p = sub.add_parser(command, help=_HELP[command])
        kinds = [k for c, k in READS if c == command and k is not None]
        names = {name for (c, _), reads in READS.items() if c == command for name in reads.fields}
        for name in (f.name for f in fields(RunConfig)):
            if name == "n_list" and name in names:
                one_set = p.add_mutually_exclusive_group()
                for key, metavar in (("n", "N"), ("n_range", "LO..HI"), ("n_list", "A,B,...")):
                    one_set.add_argument(_flag(key), dest="n_list", metavar=metavar,
                                         type=lambda s, key=key: _degrees(key, s))
            elif name == "kind" and kinds:
                p.add_argument("--kind", choices=kinds, required=True)
            elif name in names or name in _UNHASHED:
                p.add_argument(_flag(name), type=int if name in _INT_FIELDS else None, help=_HELP.get(name))
    return parser


def config_from_args(args) -> RunConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except OSError as exc:
        raise ValueError(f"--config {args.config}: {exc.strerror or exc}") from None
    flags = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    cfg = parse_run_config_text(text, flags)
    return replace(cfg, workers=_available_cores()) if cfg.workers == 0 else cfg


def _available_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform has one (taskset, a cgroup cpuset), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit(cfg: RunConfig, directory: Path | None, name: str, text: str, quiet: bool = False) -> None:
    """Write one artifact into the run directory, making the directory and
    its runconfig.txt first, or to stdout when there is no directory; quiet
    artifacts are neither printed nor announced."""
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "runconfig.txt").write_text(cfg.to_text(), encoding="utf-8")
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
        if not quiet:
            print(f"wrote {directory / name}")
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
    """_solve(n) for each degree of the sorted ns, keyed by degree.  The
    worker count is capped at the number of degrees, so a process pool, one
    task per degree, starts only for two or more degrees and two or more
    workers; otherwise, or where no pool can start, the tasks run in this
    process.  The worker count only sets how many processes run the tasks,
    so the results are the same for any value."""
    pcfg = cfg.precision()
    workers = min(cfg.workers, len(ns))
    if workers > 1:
        # imported here, so that a run without a pool does not pay for it:
        # concurrent.futures and its process module, which pulls in
        # multiprocessing, socket, pickle, logging and queue, take 16 of the
        # 23 ms that `python -X importtime` gives lemnizeros.cli after the
        # package (best of 20, CPython 3.11.7 on a two-core Xeon host)
        from concurrent.futures import ProcessPoolExecutor

        # where no process can start (OSError) or the platform lacks working
        # semaphores (NotImplementedError), the same tasks run serially
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return dict(zip(ns, pool.map(_solve, ns, repeat(pcfg))))
        except (OSError, NotImplementedError):
            pass
    return {n: _solve(n, pcfg) for n in ns}


def _certified(cfg: RunConfig) -> dict[int, RootSet]:
    """The certified RootSets of cfg.n_list; the first failure in degree order is raised."""
    solved = _solve_degrees(cfg, cfg.n_list)
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
    if cfg.z is not None:  # trace and figure --kind level
        re_q, im_q = parse_rational_complex(cfg.z)
        z = to_mpc(re_q, cfg.bits(), im_q)

    if cfg.command == "coeffs":
        _emit(cfg, outdir, "coeffs.csv", coefficients_csv(cfg.n_list))
        return EXIT_OK

    if cfg.command == "roots":
        solved = _certified(cfg)
        _emit(cfg, outdir, "roots.csv", rootset_csv(*solved.values()))
        return EXIT_OK

    if cfg.command == "verify":
        return _run_verify(cfg, outdir)

    if cfg.command == "report":
        solved = _certified(cfg)
        reports = analysis.convergence_report(solved, cfg.theta_grid)
        _emit(cfg, outdir, "roots_report.csv", analysis.roots_report_csv(reports, solved), quiet=True)
        _emit(cfg, outdir, "summary.csv", analysis.summary_csv(reports))
        slope = analysis.residual_slope(reports)
        if slope is not None:
            print(f"log-median-residual slope vs log n: {mpmath.nstr(slope, 6)}")
        return EXIT_OK

    if cfg.kind == "zeros":
        solved = _certified(cfg)
        svg, csv_text = analysis.figure_zero_plot(solved, cfg.theta_grid)
        _emit(cfg, outdir, "figure_zeros.svg", svg, quiet=True)
        _emit(cfg, outdir, "figure_zeros.csv", csv_text)
        return EXIT_OK

    if cfg.kind == "level":
        field = geometry.divides_and_level_field(z, cfg.window, cfg.res, cfg.bits())
        _emit(cfg, outdir, "level_field.csv", geometry.level_field_csv(field))
        return EXIT_OK

    path = trace_path(  # trace
        z,
        steps=cfg.steps,
        path_tol=None if cfg.path_tol is None else to_mpf(cfg.path_tol, cfg.bits()),
        bits=cfg.bits(),
    )
    _emit(cfg, outdir, "path.csv", path_csv(path))
    print(
        f"t(0) = {mpmath.nstr(path.start_point, 20)} ({path.start_label}); "
        f"{len(path.samples)} samples"
    )
    return EXIT_OK


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
    check("re-gt-third", all(mp.fmul(3, r.min_real_part, exact=True) > 1 for r in checked),
          f"{span}, min certified Re(root) = {mpmath.nstr(min_re, 8)} > 1/3")
    check("vieta-product", all(r.vieta_enclosed for r in checked),
          f"{span}, (3n+1)/(n+1) lies in the certified enclosure of prod |z_j|")
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
        return run(config_from_args(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))

if __name__ == "__main__":
    sys.exit(main())

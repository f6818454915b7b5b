"""The lemnizeros benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {solve_cold,verify_campaign,paths} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run is a closed loop with one caller:
it starts one fresh interpreter at a time (bench/rep.py), so the library's
lru_caches are cold in every repetition, and keeps starting repetitions on
the same seeded inputs until about S seconds have passed.  A few set-up-only
interpreters add samples of the set-up time.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json as
medians over its repetitions; with --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics.  The last line of
standard output is the JSON result; the full record, with provenance, every
repetition and every failure reason, is written under .bench_out/records/.
The exit code is 0 when a result was printed, also when some operation
failed its check (the result then says "correct": false).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve_cold", "verify_campaign", "paths")
SETUP_ONLY_SAMPLES = 6
OVERRUN = 1.2
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def provenance(argv, seed: int) -> dict:
    """Facts a result depends on besides the code: compare only records
    whose interpreter and mpmath backend agree."""
    import mpmath

    git_sha, dirty = _git(["rev-parse", "HEAD"]), _git(["status", "--porcelain"])
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "git_sha": git_sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": digest.hexdigest(),
        "command": [Path(sys.executable).name, "bench/run.py", *argv],
        "seed": seed,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _git(args) -> str | None:
    """git output for this checkout alone, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                             env=env, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def spawn(workload: str, seed: int, mode: str, deadline: float, spans_out: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its measurements."""
    cmd = [sys.executable, str(BENCH / "rep.py"), workload, str(seed), mode]
    t = time.perf_counter()
    cmd.append(repr(t))
    if spans_out is not None:
        cmd.append(str(spans_out))
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=max(1.0, deadline - t))
    if res.returncode != 0:
        raise RuntimeError(f"{mode} repetition exited {res.returncode}: {res.stderr.strip()[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0


def measure(args, t_start: float) -> tuple[list[dict], list[float]]:
    """Repetitions until --seconds have passed (both modes at least once
    when tracing); returns them with all set-up samples."""
    deadline = t_start + HARD_LIMIT_S
    setups = [spawn(args.workload, args.seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_ONLY_SAMPLES)]
    reps: list[dict] = []
    spans_dir = OUT / "traces"
    t0 = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        spans_out = None
        if traced:
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_out = spans_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}-{len(reps)}.json"
        t = time.perf_counter()
        rep = spawn(args.workload, args.seed, "traced" if traced else "plain", deadline, spans_out)
        rep["mode"] = "traced" if traced else "plain"
        reps.append(rep)
        setups.append(rep["setup_s"])
        now = time.perf_counter()
        elapsed, last = now - t0, now - t
        if args.trace == 1 and len(reps) < 2:
            continue
        # Stop at --seconds, or earlier when one more repetition as long as
        # the last would overrun it by more than a fifth.
        if elapsed >= args.seconds or elapsed + last > OVERRUN * args.seconds or now + last > deadline:
            break
    return reps, setups


def summarize(args, reps: list[dict], setups: list[float]) -> dict:
    plain = [r for r in reps if r["mode"] == "plain"]
    if args.trace == 0:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median([r["wall_s"] for r in plain]), "s"),
            "roots_per_s": (median([r["roots"] / r["wall_s"] for r in plain]), "1/s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
            "cert_bits_min": (finite(min(r["cert_bits_min"] for r in plain)), "bits"),
            "identity_bits_min": (finite(min(r["identity_bits_min"] for r in plain)), "bits"),
        }
    else:
        from tracing import LAYER_MAP

        traced = [r for r in reps if r["mode"] == "traced"]
        units = layer_units()
        metrics = {}
        for name in LAYER_MAP:
            if name == "trace.overhead_ratio":
                value = (median([r["wall_s"] for r in traced])
                         / median([r["wall_s"] for r in plain]) - 1)
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = (value, units[name])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "lemnizeros" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'lemnizeros'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile once so that no repetition's set-up time includes it.
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(BENCH), quiet=2, maxlevels=0)
    record = {"provenance": provenance(argv, args.seed), "workload": args.workload,
              "trace": args.trace, "seconds": args.seconds}
    try:
        reps, setups = measure(args, t_start)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": summarize(args, reps, setups),
    }
    record.update(result, error_rate=len(failures) / attempted, failures=failures,
                  setup_samples=setups, repetitions=reps)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} "
          f"({len(failures)} of {attempted} operations failed); record {path}", file=sys.stderr)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

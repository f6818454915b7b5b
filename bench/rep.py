"""One repetition of a workload in a fresh interpreter.

    python3 bench/rep.py WORKLOAD SEED MODE SPAWN_T [SPANS_OUT]

MODE is `setup` (import and build the inputs, then stop), `plain` (run the
body untraced) or `traced` (run it under the Tracer and write its spans to
SPANS_OUT).  SPAWN_T is the parent's time.perf_counter() just before it
started this process; on Linux that clock is system-wide, so setup time runs
from interpreter start to the moment the seeded inputs exist.  The last line
of standard output is one JSON object with the measurements.

Every lru_cache in the library starts cold here, as it does for a CLI call.

Times are reported at a reference host speed.  The host this benchmark was
tuned on changes speed by up to 2x between regimes lasting minutes, which
would swamp any code change.  So a short fixed loop of mpmath arithmetic is
timed ten times after set-up and then every 0.1 s during the body, from a
SIGALRM handler; each time is scaled by CALIBRATION_REF_S over the mean
loop time, and the handler's own time is taken out of the body's.  The mean,
not the median: the host is slowed in bursts, and the body pays for their
average.  The raw
times and the loop times stay in the output.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from mpmath.libmp import from_man_exp, fzero, mpc_add, mpc_mul

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# The mean loop time on the reference host in its fast regime (Intel
# Xeon, CPython 3.11.7, mpmath 1.3.0 with the pure-Python backend).
CALIBRATION_REF_S = 0.003
CALIBRATION_STEPS = 500
CALIBRATION_INTERVAL_S = 0.1
SETUP_SAMPLES = 10


def calibration_s() -> float:
    """Time a fixed chain of 256-bit complex multiply-adds on libmp tuples,
    the operation mix of the Aberth sweeps; it touches no library code."""
    z = (from_man_exp(3**100 + 1, -160), from_man_exp(5**70 + 3, -163))
    acc = (fzero, fzero)
    t = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        acc = mpc_add(mpc_mul(acc, z, 256), z, 256)
    return time.perf_counter() - t


class HostSpeed:
    """Times the calibration loop every CALIBRATION_INTERVAL_S while the
    `with` block runs; `samples` collects the loop times."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(calibration_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(body):
    """(body(), its seconds without the sampler's, the loop samples)."""
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        res = body()
        wall = time.perf_counter() - t0
    return res, wall - sum(speed.samples), speed.samples


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn_t = argv[0], int(argv[1]), argv[2], float(argv[3])
    import lemnizeros

    if not Path(lemnizeros.__file__).resolve().is_relative_to(SRC):
        print(f"lemnizeros was imported from {lemnizeros.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    reference = workloads.load_reference() if workload == "solve_cold" else None
    workdir = ROOT / ".bench_out" / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_raw = time.perf_counter() - spawn_t
    before = [calibration_s() for _ in range(SETUP_SAMPLES)]
    out = {"setup_raw_s": setup_raw,
           "setup_s": setup_raw * CALIBRATION_REF_S / statistics.fmean(before),
           "calibration_s": before}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    def body():
        return workloads.run_body(workload, inputs, reference, workdir)

    if mode == "traced":
        import tracing
        from lemnizeros import quadrature

        misses0 = quadrature.legendre_rule.cache_info().misses
        with tracing.Tracer() as tracer:
            res, wall, during = timed(body)
        misses = quadrature.legendre_rule.cache_info().misses - misses0
    else:
        res, wall, during = timed(body)
    scale = CALIBRATION_REF_S / statistics.fmean(during or before)
    if mode == "traced":
        # Spans include the sampler's ticks, so coverage is taken against the
        # body's time with them.
        out["layers"] = tracing.per_layer(tracer.spans, wall + sum(during), res.counters, misses, scale)
        Path(argv[4]).write_text(json.dumps(tracer.spans), encoding="utf-8")

    out.update(
        calibration_s=before + during,
        wall_raw_s=wall,
        wall_s=wall * scale,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(res.ops),
        failures=[f"{op.name}: {'; '.join(op.reasons)}" for op in res.ops if op.failed],
        roots=res.roots,
        cert_bits_min=res.cert_bits_min,
        identity_bits_min=res.identity_bits_min,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q bench

They take about half a minute: each workload gets a smoke run at reduced
size, and run.py is started once per trace mode on the paths workload.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lemnizeros import numerics, paths, rootfinder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    distinct = {json.dumps(workloads.make_inputs(workload, s), sort_keys=True) for s in range(10)}
    assert len(distinct) >= 3


def test_inputs_stay_in_their_declared_ranges():
    for seed in range(50):
        lo, hi = workloads.make_inputs("solve_cold", seed)["degrees"]
        assert 40 <= lo < hi <= 60 and (lo + hi) % 2 == 1
        a, b = workloads.make_inputs("verify_campaign", seed)["campaigns"]
        assert 24 <= a <= 32 and a + b == 56
        for pt in workloads.make_inputs("paths", seed)["points"]:
            x, y = float(Fraction(pt["re"])), float(Fraction(pt["im"]))
            assert workloads.predicted_basin(x, y) == pt["basin"]
            assert abs(x - (1 / 3 - 0.75 * y * y)) > 0.1  # clear of the parabola
            assert abs(complex(x, y) - 1) > 0.1 and y != 0
            assert 10 <= pt["n"] <= 40


def test_names_and_units_follow_the_format():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = E2E + LAYERS + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


def test_every_layer_metric_names_its_end_to_end_metric_and_workload():
    assert list(tracing.LAYER_MAP) == LAYERS
    for layer, effects in tracing.LAYER_MAP.items():
        assert effects, layer
        for effect in effects:
            assert effect.metric in E2E, (layer, effect)
            assert effect.workload in WORKLOAD_NAMES, (layer, effect)
    computed = set(tracing.per_layer([], 1.0, {}, 0)) | {"trace.overhead_ratio"}
    assert computed == set(LAYERS)


def test_smoke_solve_cold():
    res = workloads.run_body("solve_cold", {"degrees": [40]}, workloads.load_reference())
    assert [op.reasons for op in res.ops] == [[]]
    assert res.roots == 40 and res.cert_bits_min > 66 and res.identity_bits_min > 33


def test_root_perturbed_beyond_its_radius_is_counted_as_failed(monkeypatch):
    real = rootfinder.find_roots

    def perturbed(p, *args, **kwargs):
        rs = real(p, *args, **kwargs)
        roots = list(rs.roots)
        roots[0] += 10 * rs.inclusion_radii[0] + numerics.to_mpf("1e-20", rs.precision_used)
        return replace(rs, roots=tuple(roots))

    monkeypatch.setattr(rootfinder, "find_roots", perturbed)
    res = workloads.run_body("solve_cold", {"degrees": [40]}, workloads.load_reference())
    assert len(res.ops) == 1 and res.ops[0].failed
    assert any("reference root" in r for r in res.ops[0].reasons)


def test_a_raising_operation_is_counted_not_raised(monkeypatch):
    def boom(*args, **kwargs):
        raise numerics.PrecisionExhaustedError("exhausted")

    monkeypatch.setattr(rootfinder, "find_roots", boom)
    res = workloads.run_body("solve_cold", {"degrees": [41, 42]}, workloads.load_reference())
    assert [op.reasons for op in res.ops] == [["PrecisionExhaustedError: exhausted"]] * 2


def test_smoke_verify_campaign(tmp_path):
    res = workloads.run_body("verify_campaign", {"campaigns": [8, 5]}, workdir=tmp_path)
    assert len(res.ops) == 7 + 4
    assert [op for op in res.ops if op.failed] == []
    assert res.roots == sum(range(2, 9)) + sum(range(2, 6))
    assert res.counters["cli.bytes_written"] > 0
    assert list(tmp_path.iterdir()) == []  # each campaign's output is removed


def _small_paths_inputs():
    inputs = workloads.make_inputs("paths", 1)
    points = inputs["points"]
    return {"points": [points[0], points[-1]], "branch_samples": 64}


def test_smoke_paths():
    res = workloads.run_body("paths", _small_paths_inputs())
    assert len(res.ops) == 3
    assert [op for op in res.ops if op.failed] == []
    assert res.identity_bits_min > 27 and res.cert_bits_min > 100


def _bindings():
    out = {}
    for mod in workloads.lemnizeros_modules():
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (rootfinder.RootSet, numerics.PrecisionConfig):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    original = paths.legendre_rule
    with tracing.Tracer() as tracer:
        assert paths.legendre_rule is not original
        res = workloads.run_body("paths", _small_paths_inputs())
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    assert not any(op.failed for op in res.ops)
    names = {span[0] for span in tracer.spans}
    assert {"paths.trace_path", "quadrature.legendre_rule", "rootfinder.solve_complex_poly",
            "geometry.branch_polyline", "paths.halfplane_bound_check"} <= names
    totals = tracing.span_totals(tracer.spans)
    assert totals["geometry.branch_polyline"]["self_s"] < totals["geometry.branch_polyline"]["s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_result(trace):
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_setup_time_is_scaled_by_the_calibration_loop():
    import rep

    res = subprocess.run(
        [sys.executable, "bench/rep.py", "paths", "1", "setup", repr(time.perf_counter())],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    out = json.loads(res.stdout.strip().splitlines()[-1])
    cal = statistics.fmean(out["calibration_s"])
    assert len(out["calibration_s"]) == rep.SETUP_SAMPLES
    assert out["setup_s"] == pytest.approx(out["setup_raw_s"] * rep.CALIBRATION_REF_S / cal)


def test_host_speed_sampler_samples_and_restores_the_alarm():
    import rep

    before = signal.getsignal(signal.SIGALRM)
    res, wall, samples = rep.timed(lambda: sum(i * i for i in range(3_000_000)))
    assert res > 0 and wall > 0 and len(samples) >= 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_compare_refuses_records_from_another_backend(tmp_path, capsys):
    def record(name, backend):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "paths",
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
            "provenance": {"python": "3.11.7", "python_implementation": "CPython",
                           "mpmath": "1.3.0", "mpmath_backend": backend},
        }))
        return str(path)

    a, b = record("a.json", "python"), record("b.json", "gmpy")
    assert compare.main(["--base", a, "--head", b]) == 2
    assert "mpmath_backend" in capsys.readouterr().err
    assert compare.main(["--base", a, "--head", a]) == 0

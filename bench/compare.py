"""Compare two sets of benchmark records metric by metric.

    python3 bench/compare.py --base .bench_out/records/A*.json \
        --head .bench_out/records/B*.json

For each workload and metric it prints the two medians, the change as a
share of the base median (positive = worse) and, for end-to-end metrics,
the bound from BENCHMARK.json.  It refuses (exit 2) to compare records made
with different interpreters or mpmath backends: a gmpy2 backend, say, would
look like a code change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("python", "python_implementation", "mpmath", "mpmath_backend")


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def mismatch(records: list[dict]) -> str | None:
    """The first provenance field on which the records disagree, if any."""
    for key in SAME:
        seen = {r["provenance"].get(key) for r in records}
        if len(seen) > 1:
            return f"{key} differs: {sorted(map(str, seen))}"
    return None


def medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for r in records:
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    args = p.parse_args(argv)
    base, head = load(args.base), load(args.head)
    problem = mismatch(base + head)
    if problem:
        print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    b, h = medians(base), medians(head)
    for key in sorted(b.keys() & h.keys()):
        workload, name = key
        change = (h[key] - b[key]) / b[key] if b[key] else 0.0
        if better.get(name) == "higher":
            change = -change
        verdict = ""
        if name in bound:
            verdict = "WORSE than bound" if change > bound[name] else "within bound"
            verdict += f" {bound[name]:.2f}"
        print(f"{workload:16} {name:40} {b[key]:12.6g} {h[key]:12.6g} {change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

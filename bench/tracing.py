"""Per-layer tracing from outside the library, and the layer map.

`Tracer` wraps the public functions at each layer boundary in every
lemnizeros module namespace that binds them (so `analysis.find_roots`,
`cli.find_roots` and `rootfinder.find_roots` all record), and wraps the
`RootSet` methods and `PrecisionConfig.escalate` on their classes.  Spans
stay in memory; `restore()` puts every original back.  Nothing under `src/`
is changed.

`LAYER_MAP` records, before any measurement, which end-to-end metric each
per-layer metric should move and on which workload.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import NamedTuple

from workloads import rebind

# (module, function) pairs; the span name is "<module>.<function>".
FUNCTIONS = (
    ("exact", "build_polynomial"),
    ("rootfinder", "find_roots"),
    ("rootfinder", "initial_points"),
    ("rootfinder", "certify"),
    ("rootfinder", "solve_complex_poly"),
    ("quadrature", "legendre_rule"),
    ("geometry", "branch_polyline"),
    ("geometry", "basin_classify"),
    ("paths", "trace_path"),
    ("paths", "integral_full"),
    ("paths", "tail_integral"),
    ("paths", "segment_integral"),
    ("paths", "zero_equation_residual"),
    ("paths", "halfplane_bound_check"),
    ("analysis", "certified_roots_range"),
    ("analysis", "verify_lemmas"),
    ("cli", "run"),
)
# (module, class, method); the span name is "<module>.<method>".
METHODS = (
    ("rootfinder", "RootSet", "conjugation_closed"),
    ("rootfinder", "RootSet", "disks_disjoint"),
    ("rootfinder", "RootSet", "max_relative_radius"),
    ("numerics", "PrecisionConfig", "escalate"),
)


class Tracer:
    """Records a span (name, parent, root, start, end) per boundary call.

    The root is the index of the outermost span of the call tree, so the
    spans of one operation share it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self) -> None:
        for module, name in FUNCTIONS:
            mod = importlib.import_module(f"lemnizeros.{module}")
            original = getattr(mod, name, None)
            if original is None:  # not in this version of the library
                continue
            wrapper = self._wrap(f"{module}.{name}", original)
            self._patched += [(owner, attr, original) for owner, attr in rebind(original, wrapper)]
        for module, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(f"lemnizeros.{module}"), cls_name, None)
            if cls is None or name not in vars(cls):
                continue
            original = vars(cls)[name]
            setattr(cls, name, self._wrap(f"{module}.{name}", original))
            self._patched.append((cls, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            root = spans[parent][2] if parent >= 0 else index
            span = [name, parent, root, time.perf_counter(), None]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper


def span_totals(spans) -> dict[str, dict[str, float]]:
    """{name: {"calls", "s", "self_s"}}; self time is the span's duration
    minus the durations of its direct child spans."""
    out: dict[str, dict[str, float]] = {}
    child = [0.0] * len(spans)
    for name, parent, _root, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, _parent, _root, start, end) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
    return out


def per_layer(spans, wall_s: float, counters: dict, legendre_misses: int,
              scale: float = 1.0) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one traced run body,
    except trace.overhead_ratio, which needs an untraced run to compare.
    A name "<span>.<calls|s|self_s>" is read off the span totals; times are
    multiplied by `scale`, the reference-speed factor of the run body."""
    tot = span_totals(spans)
    out = {}
    for name in LAYER_MAP:
        span, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            out[name] = tot.get(span, {}).get(key, 0) * (1 if key == "calls" else scale)
    solves = out["rootfinder.find_roots.calls"]
    top = sum(end - start for _n, parent, _r, start, end in spans if parent < 0)
    out.update({
        "rootfinder.rungs_per_solve": out["rootfinder.certify.calls"] / solves if solves else 0.0,
        "rootfinder.bits_max": counters.get("rootfinder.bits_max", 0),
        "quadrature.legendre_rule.misses": legendre_misses,
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
        "trace.coverage": top / wall_s if wall_s > 0 else 0.0,
    })
    return out


class Effect(NamedTuple):
    """A per-layer metric's predicted effect: `moves` names the end-to-end
    metric it should move on `workload`; False marks a control that should
    leave that metric flat."""

    metric: str
    workload: str
    moves: bool = True


def _each(metric: str, workloads=("solve_cold", "verify_campaign", "paths"), moves=True):
    return tuple(Effect(metric, w, moves) for w in workloads)


LAYER_MAP: dict[str, tuple[Effect, ...]] = {
    # Aberth sweeps: most of solve_cold, then the verify chain; paths only
    # through the cubics, which solve_complex_poly accounts for.
    "rootfinder.find_roots.calls": (Effect("roots_per_s", "solve_cold"),),
    "rootfinder.find_roots.s": (Effect("wall_s", "solve_cold"), Effect("wall_s", "verify_campaign")),
    "rootfinder.find_roots.self_s": (
        Effect("wall_s", "solve_cold"), Effect("roots_per_s", "solve_cold"),
        Effect("wall_s", "verify_campaign"), Effect("wall_s", "paths", moves=False),
    ),
    # Seeding: a better start costs more here and must be repaid in self_s.
    "rootfinder.initial_points.s": (Effect("wall_s", "solve_cold"),),
    # Certification weighs more in the many small solves of the campaign.
    "rootfinder.certify.calls": (Effect("wall_s", "verify_campaign"), Effect("cert_bits_min", "verify_campaign")),
    "rootfinder.certify.s": (Effect("wall_s", "verify_campaign"), Effect("wall_s", "solve_cold")),
    "rootfinder.rungs_per_solve": (Effect("wall_s", "verify_campaign"), Effect("cert_bits_min", "solve_cold")),
    "rootfinder.bits_max": (Effect("wall_s", "solve_cold"), Effect("cert_bits_min", "solve_cold")),
    "numerics.escalate.calls": (Effect("wall_s", "solve_cold"), Effect("cert_bits_min", "solve_cold")),
    # Control: about 1 ms per solve.
    "rootfinder.conjugation_closed.s": (Effect("wall_s", "solve_cold", moves=False),),
    "rootfinder.solve_complex_poly.calls": (Effect("roots_per_s", "paths"),),
    "rootfinder.solve_complex_poly.s": (Effect("wall_s", "paths"), Effect("wall_s", "solve_cold", moves=False)),
    # Control: below 0.2% of every workload.
    "exact.build_polynomial.s": _each("wall_s", moves=False),
    "quadrature.legendre_rule.calls": (Effect("wall_s", "paths"),),
    "quadrature.legendre_rule.misses": (Effect("wall_s", "paths"),),
    "quadrature.legendre_rule.s": (Effect("wall_s", "paths"), Effect("wall_s", "solve_cold", moves=False)),
    "geometry.branch_polyline.s": (Effect("wall_s", "paths"),),
    "geometry.branch_polyline.self_s": (Effect("wall_s", "paths"),),
    "geometry.basin_classify.calls": (Effect("wall_s", "paths"),),
    "paths.trace_path.calls": (Effect("wall_s", "paths"),),
    "paths.trace_path.self_s": (Effect("wall_s", "paths"), Effect("identity_bits_min", "paths")),
    "paths.integral_full.s": (Effect("wall_s", "paths"), Effect("identity_bits_min", "paths")),
    "paths.tail_integral.s": (Effect("wall_s", "paths"), Effect("identity_bits_min", "paths")),
    "paths.segment_integral.s": (Effect("wall_s", "paths"), Effect("identity_bits_min", "paths")),
    "paths.zero_equation_residual.s": (Effect("wall_s", "paths"),),
    "paths.halfplane_bound_check.s": (Effect("wall_s", "paths"),),
    # The campaign's own bookkeeping around the solves.
    "analysis.certified_roots_range.self_s": (Effect("wall_s", "verify_campaign"),),
    "analysis.verify_lemmas.self_s": (Effect("wall_s", "verify_campaign"),),
    "cli.run.s": (Effect("wall_s", "verify_campaign"),),
    "cli.run.self_s": (Effect("wall_s", "verify_campaign"),),
    "cli.bytes_written": (Effect("wall_s", "verify_campaign"),),
    # The tracer itself: end-to-end metrics come from untraced runs, so the
    # overhead must stay small and the spans must cover most of wall_s.
    "trace.overhead_ratio": _each("wall_s", moves=False),
    "trace.coverage": _each("wall_s", moves=False),
}

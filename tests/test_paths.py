"""Path tracing and the integral toolkit: identities, asymptotics, bounds."""

import dataclasses
import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from lemnizeros import paths
from lemnizeros.exact import build_polynomial
from lemnizeros.numerics import f_eval, principal_sqrt, to_mpc, to_mpf
from lemnizeros.quadrature import legendre_rule
from lemnizeros.paths import (
    PathResolutionError,
    SaddleProximityError,
    halfplane_bound_check,
    integral_full,
    path_csv,
    segment_integral,
    tail_integral,
    trace_path,
    zero_equation_residual,
)

from conftest import (
    basin_boundary,
    exact_horner,
    fprime_factor,
    segment_by_quadrature,
    stirling_term,
    trace_by_mpc,
)

BITS = 128


class TestTracePath:
    def test_four_thirds_lands_on_inv_sqrt(self):
        path = trace_path(Fraction(4, 3), bits=BITS)
        assert path.start_label == "inv-sqrt-z"
        with mp.workprec(BITS):
            assert abs(path.start_point - mp.sqrt(3) / 2) < mpf("1e-25")
        rs = [r for r, _ in path.samples]
        assert rs[0] == 0 and rs[-1] == 1
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert path.samples[-1][1] == 1

    def test_implicit_residual_along_path(self):
        path = trace_path(Fraction(4, 3), bits=BITS)
        with mp.workprec(BITS):
            bound = path.path_tol * abs(1 - path.z) + mpf(2) ** (24 - BITS)
            for r, t in path.samples:
                assert path.implicit_residual(r, t) < bound

    def test_constant_argument(self):
        path = trace_path(mpc(1, 1), bits=BITS)
        with mp.workprec(BITS):
            z = path.z
            ref = mp.arg(1 - z)  # arg f_z(1)
            for r, t in path.samples[1:]:
                a = mp.arg(t * (1 - z * t * t))
                assert abs(a - ref) < path.path_tol + mpf(2) ** (16 - BITS)

    def test_ray_values_are_real_fractions_of_f1(self):
        path = trace_path(Fraction(4, 3), bits=BITS)
        with mp.workprec(BITS):
            z = path.z
            f1 = 1 - z
            for r, t in path.samples[1:]:
                ratio = t * (1 - z * t * t) / f1
                assert abs(ratio.imag) < mpf("1e-25")
                assert abs(ratio.real - r) < mpf("1e-25")

    def test_zero_basin_path_is_real_monotone(self):
        path = trace_path(Fraction(1, 9), bits=BITS)
        assert path.start_label == "zero"
        assert abs(path.start_point) < mpf("1e-25")
        ts = [t.real for _, t in path.samples]
        assert all(t.imag == 0 for _, t in path.samples)
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_z_zero_is_identity_path(self):
        path = trace_path(0, bits=BITS)
        with mp.workprec(BITS):
            for r, t in path.samples:
                assert abs(t - r) < mpf(2) ** (24 - BITS)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            trace_path(1, bits=BITS)
        with pytest.raises(ValueError):
            trace_path(to_mpc(0, BITS, 1), bits=BITS)  # on the basin divide

    @pytest.mark.parametrize("z", [Fraction(-1, 2), -3])
    def test_branch_cut_rejected_by_trace_path(self, z):
        with pytest.raises(ValueError, match="^trace_path: z on the branch cut"):
            trace_path(z, bits=BITS)

    @pytest.mark.parametrize(
        "re_q,im_q",
        [(Fraction(9, 50), Fraction(3, 5)), (Fraction(47, 150), Fraction(1, 5))],
    )
    def test_left_of_divide_lands_on_zero(self, re_q, im_q):
        # right of the parabola Re(sqrt z) = 1/sqrt(3), left of the divide
        # |z| + 2 Re(z) = 1: t = 1 drains to 0
        path = trace_path(to_mpc(re_q, BITS, im_q), bits=BITS)
        assert path.start_label == "zero"
        assert abs(path.start_point) < mpf("1e-25")

    def test_right_of_divide_lands_on_inv_sqrt(self):
        for y in (Fraction(3, 5), Fraction(1, 5), -Fraction(3, 5)):
            with mp.workprec(BITS):
                (edge,) = basin_boundary([y], BITS)
                z = edge + mpf(1) / 100
            path = trace_path(z, bits=BITS)
            assert path.start_label == "inv-sqrt-z"

    def test_saddle_proximity_near_pinch(self):
        with pytest.raises(SaddleProximityError):
            trace_path(Fraction(1, 3) + Fraction(1, 10**12), path_tol=mpf("1e-6"), bits=BITS)

    def test_nonpositive_path_tol_rejected_before_tracing(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("the path was traced before path_tol was checked")

        monkeypatch.setattr(paths, "legendre_rule", no_trace)
        for tol in (0, mpf("-1e-30")):
            with pytest.raises(ValueError, match="path_tol must be positive"):
                trace_path(Fraction(4, 3), path_tol=tol, bits=BITS)

    def test_steps_below_one_rejected_before_tracing(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("the path was traced before steps was checked")

        monkeypatch.setattr(paths, "legendre_rule", no_trace)
        for steps in (0, -7):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                trace_path(Fraction(4, 3), steps=steps, bits=BITS)

    def test_independent_of_caller_precision(self):
        def key(path):
            return [
                (r._mpf_, t.real._mpf_, t.imag._mpf_, w._mpf_, g.real._mpf_, g.imag._mpf_)
                for r, t, w, g in path.quad
            ] + [(path.start_point.real._mpf_, path.start_point.imag._mpf_)]

        for z in (Fraction(4, 3), to_mpc(Fraction(-1), BITS, Fraction(1, 2))):
            base = trace_path(z, bits=BITS)
            with mp.workprec(200):
                high = trace_path(z, bits=BITS)
            assert key(high) == key(base)

    def test_csv_shape(self):
        path = trace_path(2, steps=64, bits=BITS)
        lines = path_csv(path).strip().split("\n")
        assert lines[0] == "r,re_t,im_t,implicit_residual"
        assert len(lines) == 1 + len(path.samples)

    @pytest.mark.parametrize(
        "re_q,im_q", [(Fraction(4, 3), 0), (-1, Fraction(1, 2)), (1, 1)], ids=["4/3", "-1+i/2", "1+i"]
    )
    def test_predictor_leaves_about_one_newton_step(self, re_q, im_q, monkeypatch):
        # from the quadratic predictor a sample takes the forced Newton step
        # and rarely another; from the previous sample it took 3.7 to 3.9
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_div(*args)

        fixed_div = paths._fixed_div
        monkeypatch.setattr(paths, "_fixed_div", counted)
        path = trace_path(to_mpc(re_q, BITS, im_q), bits=BITS)
        newton = len(calls) - len(path.quad)  # one more division a sample gives g
        assert newton / (len(path.quad) + 1) <= 2.5  # the samples and t(0)

    def test_from_fixed_calls_do_not_grow_with_steps(self, monkeypatch):
        # a trace rounds t(0) alone; the tail sum rounds its total once, the
        # zero equation reuses it and the half-plane check rounds its minimum
        # by itself, so no rounding out of the scale is made per sample
        calls = []

        def counted(*args):
            calls.append(args)
            return from_fixed(*args)

        from_fixed = paths._from_fixed
        monkeypatch.setattr(paths, "_from_fixed", counted)
        outer_z, inner_z = to_mpc(Fraction(4, 3), BITS), to_mpc(-1, BITS, Fraction(1, 2))
        counts, traced = {}, {}
        for steps in (64, 512):
            calls.clear()
            outer = trace_path(outer_z, steps=steps, bits=BITS)
            tail_integral(10, outer)
            zero_equation_residual(10, outer_z, BITS, path=outer)
            inner = trace_path(inner_z, steps=steps, bits=BITS)
            halfplane_bound_check(inner_z, inner)
            counts[steps] = len(calls)
            traced[steps] = outer, inner
        assert counts[64] == counts[512] == 3
        monkeypatch.undo()

        def key(view):
            return [[(type(x), x._mpf_ if isinstance(x, mpf) else x._mpc_) for x in row] for row in view]

        for steps, pair in traced.items():
            for path in pair:
                fresh = trace_path(path.z, steps=steps, bits=BITS)
                assert key(path.samples) == key(fresh.samples)
                assert key(path.quad) == key(fresh.quad)
                assert path.quad is path.quad and path.samples is path.samples


class TestPathNodes:
    """trace_path's (r, weight) nodes are built once per (steps, bits)."""

    def test_two_paths_read_one_node_tuple(self):
        a = trace_path(Fraction(4, 3), steps=64, bits=BITS)
        b = trace_path(to_mpc(-1, BITS, Fraction(1, 2)), steps=64, bits=BITS)
        nodes = paths._path_nodes(64, BITS)
        assert len(a.quad) == len(b.quad) == len(nodes)
        for (ra, _, wa, _), (rb, _, wb, _), (r, w, _) in zip(a.quad, b.quad, nodes):
            assert ra is rb is r and wa is wb is w

    @pytest.mark.parametrize("steps", [8, 64, 512])
    @pytest.mark.parametrize("bits", [64, 128])
    def test_nodes_equal_inline_construction(self, steps, bits):
        rule = legendre_rule(paths._PANEL_NODES, bits)
        bps = paths._panel_breakpoints(steps)
        want = []
        with mp.workprec(bits):
            for a, b in zip(bps[:-1], bps[1:]):
                mid = to_mpf((a + b) / 2, bits)
                rad = to_mpf((b - a) / 2, bits)
                for x, w in rule:
                    want.append((mid + rad * x, rad * w))
        got = paths._path_nodes(steps, bits)
        assert [(r._mpf_, w._mpf_) for r, w, _ in got] == [(r._mpf_, w._mpf_) for r, w in want]
        scale = bits + paths._GUARD
        with mp.workprec(4 * bits):  # r 2^scale is exact here
            assert [rf for _, _, rf in got] == [int(mp.floor(r * mpf(2) ** scale)) for r, _ in want]

    @pytest.mark.parametrize("steps", [8, 64, 512])
    def test_predictor_weights_extrapolate_quadratics(self, steps):
        # solve k extrapolates the last min(k, 3) r-values of the trace,
        # newest first, to its own r: exact for polynomials of one degree
        # less, up to the floor of each weight
        P = BITS + paths._GUARD
        xs = [Fraction(1)] + [Fraction(rf, 1 << P) for _, _, rf in reversed(paths._path_nodes(steps, BITS))]
        xs.append(Fraction(0))
        weights = paths._path_predictor(steps, BITS)
        assert len(weights) == len(xs) - 1
        poly = (Fraction(3, 7), Fraction(-5, 3), Fraction(11, 5))
        for k, triple in enumerate(weights, 1):
            used = min(k, 3)
            assert triple[used:] == (0,) * (3 - used)

            def q(x):
                return sum(c * x**j for j, c in enumerate(poly[:used]))

            prev = xs[k - used:k][::-1]
            got = sum(Fraction(w, 1 << P) * q(x) for w, x in zip(triple, prev))
            assert abs(got - q(xs[k])) <= sum(abs(q(x)) for x in prev) / (1 << P)

    def test_cold_nodes_under_a_wider_caller_precision(self):
        for z in (Fraction(4, 3), to_mpc(Fraction(-1), BITS, Fraction(1, 2))):
            paths._path_nodes.cache_clear()
            with mp.workprec(200):
                high = trace_path(z, bits=BITS)
            paths._path_nodes.cache_clear()
            assert high == trace_path(z, bits=BITS)


# Both basins, with points beside the pinch z = 1/3 and beside z = 1.
ORACLE_POINTS = [
    (Fraction(4, 3), 0),
    (2, 0),
    (1, 1),
    (1, -1),
    (Fraction(1, 3) + Fraction(1, 100), 0),
    (Fraction(1001, 1000), 0),
    (1, Fraction(1, 1000)),
    (Fraction(999, 1000), -Fraction(1, 1000)),
    (Fraction(1, 9), 0),
    (-1, Fraction(1, 2)),
    (Fraction(9, 50), Fraction(3, 5)),
    (Fraction(1, 3) - Fraction(1, 100), 0),
    (Fraction(1, 5), -Fraction(1, 2)),
    (0, Fraction(3, 10)),
]


class TestTraceAgainstMpcOracle:
    """The fixed-point continuation against the same Newton loop in mpc."""

    @pytest.mark.parametrize("re_q,im_q", ORACLE_POINTS, ids=[f"{a}+{b}i" for a, b in ORACLE_POINTS])
    def test_samples_label_and_endpoint(self, re_q, im_q):
        z = to_mpc(re_q, BITS, im_q)
        path = trace_path(z, bits=BITS)
        desc = path.quad[::-1]
        ts, t_end, label = trace_by_mpc(z, [r for r, _, _, _ in desc], path.path_tol, BITS)
        assert label == path.start_label
        with mp.workprec(BITS):
            noise = mpf(2) ** (16 - BITS) * (1 + abs(z))
            for (r, t, _, g), want in zip(desc, ts):
                d = abs(fprime_factor(z, want))
                tol = max(path.path_tol * abs(1 - z) * r, noise)
                assert abs(t - want) <= 4 * tol / d
                # the stored tail integrand is (1-zt^2) t / (1-3zt^2) at t
                assert abs(g - f_eval(z, t) / fprime_factor(z, t)) <= mpf(2) ** (8 - BITS) * (1 + abs(g)) / d
            assert abs(path.start_point - t_end) <= path.path_tol


class TestIntegralFull:
    def test_z_zero_is_one(self):
        for n in (1, 2, 9):
            with mp.workprec(BITS):
                assert abs(integral_full(n, 0, BITS) - 1) < mpf(2) ** (16 - BITS)

    def test_degree_two_at_one(self):
        with mp.workprec(BITS):
            got = integral_full(2, 1, BITS)
            assert abs(got - mpf(8) / 35) < mpf(2) ** (16 - BITS)

    def test_vanishes_at_linear_root(self):
        assert abs(integral_full(1, 2, BITS)) < mpf("1e-30")

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_matches_horner(self, n):
        import random

        rng = random.Random(n)
        p = build_polynomial(n)
        for _ in range(10):
            with mp.workprec(BITS):
                z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                quad = integral_full(n, z, BITS)
                (vr, vi), _, scale = exact_horner(p, z)
                horner = mpc(mpf(vr) / scale, mpf(vi) / scale)
                assert abs(quad - horner) <= mpf("1e-10") * abs(horner)

    def test_non_finite_z_rejected(self):
        for z in (mpc(mp.inf, 0), mpc(0, mp.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                integral_full(3, z, BITS)

    FULL_POINTS = {
        "0": (0, 0),
        "1": (1, 0),
        "2": (2, 0),
        "4/3": (Fraction(4, 3), 0),
        "-1+i/2": (-1, Fraction(1, 2)),
        "2^-40+i": (Fraction(1, 2**40), 1),  # parts 40 binary orders apart
        "seed-1": (Fraction(903, 1000), Fraction(101, 250)),  # a paths workload point at seed 1
    }

    @pytest.mark.parametrize("name", sorted(FULL_POINTS))
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 100, 200])
    def test_within_stated_bound_of_exact_quadrature_sum(self, n, name):
        # S = sum_j w_j f(t_j)^n over the rule's mpf nodes and weights at z
        # rounded to BITS, exactly: f = t (1 - z t^2) makes it
        # sum_k C(n, k) (-z)^k mu_(n+2k), mu_m = sum_j w_j t_j^m the exact
        # moments of _rule_moments, and z enters as a Fraction
        re_q, im_q = self.FULL_POINTS[name]
        z = to_mpc(re_q, BITS, im_q)
        zr, zi = (_exact(part) for part in z._mpc_)
        d = max(zr.denominator, zi.denominator)  # -z = (nr + i ni) 2^-kz
        nr, ni = -zr.numerator * (d // zr.denominator), -zi.numerator * (d // zi.denominator)
        kz = d.bit_length() - 1
        moments, q, v = _rule_moments(n)
        e0 = -(n * kz + v + 3 * n * q)  # S = (sr + i si) 2^e0
        sr = si = 0
        cr, ci = 1, 0  # (nr + i ni)^k
        for k, mu in enumerate(moments):
            c, shift = comb(n, k) * mu, (n - k) * (kz + 2 * q)
            sr, si = sr + (c * cr << shift), si + (c * ci << shift)
            cr, ci = cr * nr - ci * ni, cr * ni + ci * nr
        # (n+1)/2 S = (n+1) (sr + i si) 2^(e0-1); the error is taken exactly
        # on integers and rounded once
        got = [_dyadic(part) for part in integral_full(n, z, BITS)._mpc_]
        e1 = min(e0 - 1, *(e for _, e in got))
        (gr, er), (gi, ei) = got
        with mp.workprec(4 * BITS):
            def at(m, e):
                return mp.make_mpf(from_man_exp(m, e, 4 * BITS, "n"))

            err = mp.hypot(
                at((gr << (er - e1)) - ((n + 1) * sr << (e0 - 1 - e1)), e1),
                at((gi << (ei - e1)) - ((n + 1) * si << (e0 - 1 - e1)), e1),
            )
            exact = mp.hypot(at((n + 1) * sr, e0 - 1), at((n + 1) * si, e0 - 1))
            moduli = mpf(0)  # sum w |f|^n, at 4 BITS
            for x, w in legendre_rule(max(64, 2 * n), BITS):
                t = (x + 1) / 2
                moduli += w * abs(t * (1 - z * t * t)) ** n
            assert err <= mpf(2) ** -BITS * exact + mpf(2) ** -(BITS + 13) * (n + 1) * moduli / 2

    @pytest.mark.parametrize("n", [7, 33])
    def test_independent_of_caller_precision(self, n):
        for re_q, im_q in (self.FULL_POINTS[name] for name in ("4/3", "-1+i/2", "2^-40+i", "seed-1")):
            z = to_mpc(re_q, BITS, im_q)
            with mp.workprec(53):
                low = integral_full(n, z, BITS)
            with mp.workprec(400):
                high = integral_full(n, z, BITS)
            assert low._mpc_ == high._mpc_


@lru_cache(maxsize=None)
def _rule_moments(n: int) -> tuple[tuple[int, ...], int, int]:
    """The moments mu_m = sum_j w_j t_j^m, m = n, n + 2, ..., 3n, of
    integral_full's rule at BITS, t = (x + 1)/2, exactly: (M, q, v) with
    mu_(n+2k) = M[k] 2^-(v + (n+2k) q), from the nodes and weights as
    Fractions over their largest denominators, 2^q and 2^v.  One n's
    moments serve every z."""
    rule = legendre_rule(max(64, 2 * n), BITS)
    ts = [(_exact(x._mpf_) + 1) / 2 for x, _ in rule]
    ws = [_exact(w._mpf_) for _, w in rule]
    q = max(t.denominator for t in ts).bit_length() - 1
    v = max(w.denominator for w in ws).bit_length() - 1
    T = [t.numerator * (2**q // t.denominator) for t in ts]
    P = [w.numerator * (2**v // w.denominator) * t**n for w, t in zip(ws, T)]
    T2 = [t * t for t in T]
    M = [sum(P)]
    for _ in range(n):
        P = [p * s for p, s in zip(P, T2)]
        M.append(sum(P))
    return tuple(M), q, v


def _dyadic(x) -> tuple[int, int]:
    """The libmp tuple x as (m, e) with x = m 2^e."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


class TestSegmentIntegral:
    @pytest.mark.parametrize(
        "n,z,expected",
        [(1, 1, Fraction(1, 4)), (2, 1, Fraction(8, 105)), (1, 4, Fraction(1, 16))],
    )
    def test_closed_forms(self, n, z, expected):
        with mp.workprec(BITS):
            got = segment_integral(n, z, BITS)
            assert abs(got - to_mpc(expected, BITS)) < mpf(2) ** (16 - BITS)

    @pytest.mark.parametrize("z", [1, Fraction(4, 3), 2, mpc(1, 1)])
    def test_quadrature_cross_check(self, z):
        for n in (1, 5, 12, 20):
            with mp.workprec(BITS):
                a = segment_integral(n, z, BITS)
                b = segment_by_quadrature(n, z, BITS)
                assert abs(a - b) <= mpf("1e-30") * abs(a)


class TestSaddleAsymptotic:
    def test_ratio_tightens_like_one_over_n(self):
        errs = {}
        with mp.workprec(BITS):
            for n in (10, 40, 160):
                seg = segment_integral(n, 1, BITS)
                errs[n] = abs(seg / stirling_term(n, 1, BITS) - 1)
            assert errs[40] < errs[10] / 2
            assert errs[160] < errs[40] / 2

    def test_spec_scale_examples(self):
        with mp.workprec(BITS):
            e20 = abs(segment_integral(20, 1, BITS) / stirling_term(20, 1, BITS) - 1)
            e200 = abs(segment_integral(200, 1, BITS) / stirling_term(200, 1, BITS) - 1)
            assert e20 < mpf("0.05")
            assert e200 < mpf("0.005")


class TestDeformation:
    @pytest.mark.parametrize("z", [Fraction(4, 3), 2])
    @pytest.mark.parametrize("n", [1, 8, 30])
    def test_segment_plus_tail_rebuilds_full(self, n, z):
        path = trace_path(z, bits=BITS)
        with mp.workprec(BITS):
            seg = segment_integral(n, z, BITS)
            tail = tail_integral(n, path)
            full = integral_full(n, z, BITS) / (n + 1)
            scale = max(abs(full), abs(seg), abs(tail))
            assert abs(seg + tail - full) <= mpf("1e-20") * scale

    def test_tail_requires_inv_sqrt_start(self):
        path = trace_path(Fraction(1, 9), bits=BITS)
        with pytest.raises(ValueError):
            tail_integral(3, path)

    def test_tail_magnitudes_for_large_n_outside(self):
        # |tail| ~ |1-z|^n dwarfs the segment's (2/sqrt27)^n |z|^-(n+1)/2 for real z > 4/3
        path = trace_path(2, bits=BITS)
        with mp.workprec(BITS):
            tail = tail_integral(40, path)
            seg = segment_integral(40, 2, BITS)
            assert abs(tail) > mpf(10) ** 6 * abs(seg)

    def test_path_too_coarse(self):
        path = trace_path(2, steps=8, bits=BITS)
        with pytest.raises(PathResolutionError):
            tail_integral(60, path)


def _exact(x) -> Fraction:
    """The libmp tuple x as a Fraction."""
    sign, man, exp, _ = x
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


class TestBareTailSum:
    """The tail sum on integers, rounded once, against the exact rational sum
    of the stored (r, w, g): within 2^(1-bits) of the sum of the moduli."""

    @pytest.mark.parametrize("n", [1, 10, 40, 60])
    @pytest.mark.parametrize("re_q,im_q", [(Fraction(4, 3), 0), (2, 0), (1, 1)], ids=["4/3", "2", "1+i"])
    def test_tail_sum_within_one_rounding_of_the_exact_sum(self, re_q, im_q, n):
        path = trace_path(to_mpc(re_q, BITS, im_q), bits=BITS)
        exact_r = exact_i = Fraction(0)
        with mp.workprec(4 * BITS):
            moduli = mpf(0)
            for r, _, w, g in path.quad:
                rw = _exact(w._mpf_) * _exact(r._mpf_) ** (n - 1)
                gr, gi = (_exact(v) for v in g._mpc_)
                exact_r, exact_i = exact_r + rw * gr, exact_i + rw * gi
                moduli += abs(mpf(rw.numerator) / rw.denominator) * abs(g)
            got = paths._bare_tail_sum(n, path)
            dr, di = (_exact(v) - e for v, e in zip(got._mpc_, (exact_r, exact_i)))
            err = mp.hypot(mpf(dr.numerator) / dr.denominator, mpf(di.numerator) / di.denominator)
            assert err <= mpf(2) ** (1 - BITS) * moduli


def _libmp_digest(rows) -> str:
    """SHA-256 of the libmp tuples of rows of mpf and mpc values, as plain
    ints, so that it does not depend on mpmath's integer backend."""
    def parts(x):
        return [x._mpf_] if isinstance(x, mpf) else list(x._mpc_)

    flat = [[tuple(int(v) for v in p) for x in row for p in parts(x)] for row in rows]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


PIN_POINTS = {"4/3": (Fraction(4, 3), 0), "2": (2, 0), "1+i": (1, 1), "-1+i/2": (-1, Fraction(1, 2))}


class TestPathPins:
    """The mpc views of two default paths and twelve tail sums, pinned by
    the SHA-256 of their libmp tuples.  Each value is rounded once, with
    libmp, from integers of the fixed-point trace and tail sum."""

    VIEWS = {
        ("4/3", "quad"): "26ce770b292f38c8a6d75e6b008dc78fe59ed6cbd16fd8919a8e2711601cc859",
        ("4/3", "samples"): "1bdc7e116ced4ff9b37fd5d37e4a7b2f33a25700f6242bf6d80f9554be87428e",
        ("-1+i/2", "quad"): "f2b4f77f8a1c400655402ba347258f8d977a6de2a5181a1964f1cbeb85d77416",
        ("-1+i/2", "samples"): "46956c9fa3bfd7c2743e46b064594a7c4fbf1a6729b104be8bcd5ae6cd63ec74",
    }
    TAIL_SUMS = {  # _bare_tail_sum at n = 1, 10, 40, 60
        "4/3": "0a52d001bc89599baf8073c7689f80c8fb0ba0924a27b7df1ad26e9cd12786a8",
        "2": "28a8fb993e15ba12b59825ac2aa998c45efddf677f68bfff5ff6cb930246f5c6",
        "1+i": "edc9f489c1195cd9b658f2c98dcd86a2ce6fff8aa346d8f6c4a7496109a7edb4",
    }

    @pytest.mark.parametrize("name,view", sorted(VIEWS))
    def test_path_views_pinned(self, name, view):
        re_q, im_q = PIN_POINTS[name]
        path = trace_path(to_mpc(re_q, BITS, im_q), bits=BITS)
        assert _libmp_digest(getattr(path, view)) == self.VIEWS[name, view]

    @pytest.mark.parametrize("name", sorted(TAIL_SUMS))
    def test_tail_sums_pinned(self, name):
        re_q, im_q = PIN_POINTS[name]
        path = trace_path(to_mpc(re_q, BITS, im_q), bits=BITS)
        sums = [[paths._bare_tail_sum(n, path)] for n in (1, 10, 40, 60)]
        assert _libmp_digest(sums) == self.TAIL_SUMS[name]


class TestZeroEquation:
    def test_away_from_roots_ratio_is_off(self):
        lhs, rhs = zero_equation_residual(10, 2, BITS)
        with mp.workprec(BITS):
            ratio = (abs(lhs) / abs(rhs)) ** (mpf(1) / 10)
            assert ratio > mpf("1.5")

    def test_rhs_nth_root_approaches_lemniscate_constant(self):
        with mp.workprec(BITS):
            n = 4000
            rhs = -((2 / mp.sqrt(27)) ** n) * mp.sqrt(2 * mp.pi) / (3 * mp.sqrt(n))
            _, got = zero_equation_residual(4000, 2, BITS)
            assert abs(got - rhs) < abs(rhs) * mpf("1e-30")
            assert abs(abs(got) ** (mpf(1) / n) - 2 / mp.sqrt(27)) < mpf("1e-3")

    def test_at_certified_roots(self, root_cache):
        rs = root_cache([40])[40]
        with mp.workprec(BITS):
            candidates = [z for z in rs.roots if z.real > mpf("0.8")]
            assert candidates
            for z in candidates[:3]:
                lhs, rhs = zero_equation_residual(40, z, BITS)
                ratio = (abs(lhs) / abs(rhs)) ** (mpf(1) / 40)
                assert abs(ratio - 1) < mpf("1e-2")

    def test_tail_and_zero_equation_share_one_sum(self):
        # tail_integral and zero_equation_residual on one path and degree
        # sum the stored integer samples once, with the value of the bare
        # sum on the unwrapped path (its accuracy: TestBareTailSum)
        class CountedFixed(tuple):
            sums = 0

            def __iter__(self):
                CountedFixed.sums += 1
                return super().__iter__()

        n, traced = 40, trace_path(Fraction(4, 3), bits=BITS)
        path = dataclasses.replace(traced, fixed=CountedFixed(traced.fixed))
        bare = paths._bare_tail_sum(n, traced)
        with mp.workprec(BITS):
            tail = tail_integral(n, path)
            lhs, _ = zero_equation_residual(n, path.z, BITS, path=path)
            assert CountedFixed.sums == 1
            assert tail == (1 - path.z) ** n * bare
            assert lhs == principal_sqrt(path.z, BITS) ** (n + 1) * (1 - path.z) ** n * bare
            assert tail_integral(n, path) == tail and CountedFixed.sums == 1
            tail_integral(n + 1, path)
            assert CountedFixed.sums == 2
        assert path == traced  # the memo takes no part in equality

    def test_path_of_another_precision(self):
        # z is compared with the path's z at the path's precision, and the
        # tail sum carries that precision, so a 128-bit path serves a
        # 160-bit call; a path traced for another z is still refused
        z, path = Fraction(4, 3), trace_path(Fraction(4, 3))
        assert path.bits == 128
        got = zero_equation_residual(12, z, bits=160, path=path)
        want = zero_equation_residual(12, z, bits=128, path=path)
        with mp.workprec(300):
            for x, y in zip(got, want):
                assert abs(x - y) <= abs(y) * mpf(2) ** -100
        with pytest.raises(ValueError, match="different z"):
            zero_equation_residual(12, z, bits=160, path=trace_path(Fraction(5, 4)))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            zero_equation_residual(5, Fraction(1, 4), BITS)  # Re <= 1/3
        with pytest.raises(ValueError):
            zero_equation_residual(5, 1, BITS)


# The four zero-basin points of the benchmark's paths workload at seed 1,
# and -1+i/2.
HALFPLANE_POINTS = [
    (Fraction(-53501, 30000), Fraction(-33, 50)),
    (Fraction(-24449, 30000), Fraction(31, 50)),
    (Fraction(-314, 1875), Fraction(-3, 25)),
    (Fraction(-75089, 120000), Fraction(-61, 100)),
    (-1, Fraction(1, 2)),
]


class TestHalfplaneBound:
    def test_trivial_at_z_zero(self):
        path = trace_path(0, bits=BITS)
        verdict = halfplane_bound_check(0, path)
        assert verdict.ok
        with mp.workprec(BITS):
            assert verdict.min_real > mpf("0.89")  # integrand is t = r on [0.9, 1]

    def test_real_zero_basin_point(self):
        path = trace_path(Fraction(1, 9), bits=BITS)
        verdict = halfplane_bound_check(Fraction(1, 9), path)
        assert verdict.ok and verdict.samples_checked > 10

    def test_complex_zero_basin_point(self):
        z = mpc(-1, 0.5)
        verdict = halfplane_bound_check(z, trace_path(z, bits=BITS))
        assert verdict.ok
        with mp.workprec(BITS):
            assert verdict.min_real > mpf(1) / 6

    def test_requires_zero_start(self):
        path = trace_path(2, bits=BITS)
        with pytest.raises(ValueError):
            halfplane_bound_check(2, path)

    @pytest.mark.parametrize("steps", [8, 64, 512])
    @pytest.mark.parametrize("re_q,im_q", HALFPLANE_POINTS, ids=[f"{a}+{b}i" for a, b in HALFPLANE_POINTS])
    def test_integer_verdict_matches_mpf_loop(self, re_q, im_q, steps):
        # the verdict on the path's integers against the minimum over the
        # rounded quad view, selected by mpf comparisons with the window
        z = to_mpc(re_q, BITS, im_q)
        path = trace_path(z, steps=steps, bits=BITS)
        got = halfplane_bound_check(z, path)
        lo, hi = paths._HALFPLANE_WINDOW
        with mp.workprec(BITS):
            min_real, checked = None, 0
            for r, _, _, g in path.quad:
                if r < lo or r > hi:
                    continue
                checked += 1
                if min_real is None or g.real < min_real:
                    min_real = g.real
            ok = min_real > mpf(1) / 6
        assert (got.ok, got.min_real._mpf_, got.samples_checked) == (ok, min_real._mpf_, checked)

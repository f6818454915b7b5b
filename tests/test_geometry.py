"""Lemniscate, basins, the basin divide, divides, saddle-value equivalence."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, mpf_neg

from lemnizeros.geometry import (
    BOUNDARY,
    INV_SQRT_BASIN,
    ZERO_BASIN,
    basin_classify,
    branch_polyline,
    divides_and_level_field,
    level_field_csv,
)
from lemnizeros import geometry
from lemnizeros.numerics import principal_sqrt, to_mpc
from lemnizeros.rootfinder import solve_complex_poly

from conftest import basin_boundary, saddle_comparison

BITS = 128


class TestLemniscateBranch:
    """The right branch as branch_polyline samples it: S phases, two points
    per phase off theta = 0, 4/3 and the pinch at theta = 0."""

    def test_theta_zero_factorization(self):
        # z(1-z)^2 - 4/27 = (z - 4/3)(z - 1/3)^2: 4/3 and the pinch, once,
        # set rather than solved, so the 4/3 vertex is exactly real
        pts = branch_polyline(64)
        with mp.workprec(BITS):
            third = to_mpc(Fraction(1, 3), BITS)
            assert sum(1 for z in pts if z == third) == 1
            (vertex,) = [z for z in pts if abs(z - mpf(4) / 3) < 1e-30]
            assert vertex.imag == 0

    def test_residuals_below_solver_tolerance(self):
        pts = branch_polyline(64)
        with mp.workprec(BITS):
            level = mpf(4) / 27
            assert all(abs(abs(z * (1 - z) ** 2) - level) / level < mpf("1e-20") for z in pts)
            # every point but the pinch clears the half-plane line
            third = mpf(1) / 3
            assert all(z.real > third for z in pts if z != third)

    def test_two_right_points_per_interior_theta(self):
        # 2 points at each of the S - 1 phases off 0, plus 4/3 and the pinch
        for samples in (1, 2, 7, 64):
            assert len(branch_polyline(samples)) == 2 * samples

    def test_conjugation_symmetry(self):
        # point j is the exact conjugate of point 2S - j, and the pinch is real
        for samples in (1, 2, 7, 8, 64):
            parts = [z._mpc_ for z in branch_polyline(samples)]
            assert [(x, mpf_neg(y)) for x, y in parts[:-1]] == parts[-2::-1]
            assert parts[-1][1] == fzero

    def test_theta_pi_against_numpy(self):
        import numpy as np  # here, so that the module collects without numpy

        # phase pi is sample 1 of 2; with the sample at phase 0 (4/3, 1/3) excluded
        pts = [complex(z) for z in branch_polyline(2)]
        right = [z for z in pts if abs(z - 4 / 3) > 1e-6 and abs(z - 1 / 3) > 1e-6]
        oracle = np.roots([1, -2, 1, 4 / 27])  # z^3 - 2z^2 + z + 4/27 at theta = pi
        expected = [z for z in oracle if z.real > 1 / 3]
        assert len(right) == len(expected) == 2
        worst = max(min(abs(r - e) for e in expected) for r in right)
        assert worst < 1e-10

    @pytest.mark.parametrize("bits", [geometry.DEFAULT_BITS])
    @pytest.mark.parametrize("samples", [1, 7, 64, 256])
    def test_closed_form(self, samples, bits):
        # with s = sqrt(z) the branch is s - s^3 = (2/sqrt(27)) e^(i phi), so
        # z(phi) = (4/3) cos^2(arccos(e^(i phi)) / 3); the cubic at phase
        # theta has the points phi = theta/2 and theta/2 - pi.  The phases
        # are the doubles theta_k = 2 pi k / S for k < S/2, pi itself at
        # k = S/2 and -theta_(S-k) beyond, whose cubics are the conjugates
        # of those of theta_(S-k)
        pts = branch_polyline(samples)
        with mp.workprec(bits + 64):
            oracle = [mpc(1) / 3]  # phi = -pi, where arccos is ill-conditioned
            for k in range(samples):
                if 2 * k == samples:
                    theta = mp.pi
                elif 2 * k < samples:
                    theta = 2 * math.pi * k / samples
                else:
                    theta = -2 * math.pi * (samples - k) / samples
                half = mpf(theta) / 2
                phis = (half, half - mp.pi) if k else (half,)
                oracle += [mpf(4) / 3 * mp.cos(mp.acos(mp.expj(phi)) / 3) ** 2 for phi in phis]
            oracle.sort(key=lambda z: mp.atan2(z.imag, z.real - 1))
            assert len(pts) == len(oracle)
            assert max(abs(z - c) for z, c in zip(pts, oracle)) <= mpf(2) ** (4 - bits)

    def test_empty_grid_rejected(self):
        for samples in (0, -3):
            with pytest.raises(ValueError, match="empty theta grid"):
                branch_polyline(samples)


class TestBranchPolyline:
    def test_closed_loop_geometry(self):
        pts = branch_polyline(128)
        xs = [float(z.real) for z in pts]
        assert min(xs) >= 1 / 3 - 1e-6
        assert max(xs) == pytest.approx(4 / 3, abs=1e-6)
        # ordered by angle around 1: consecutive gaps stay small for a loop
        gaps = [abs(complex(a - b)) for a, b in zip(pts, pts[1:])]
        assert max(gaps) < 0.2

    def test_independent_of_caller_precision(self):
        pts = branch_polyline(64)
        with mp.workprec(200):
            assert branch_polyline(64) == pts

    @pytest.mark.parametrize("samples", [64, 1024, 2048])
    def test_phases_are_the_bits_of_mpmath_exp(self, samples):
        # the cubics' constants come from libmp, as mpmath's exp of a purely
        # imaginary argument and its product by an mpf compute them
        with mp.workprec(geometry.DEFAULT_BITS):
            for k in range(1, samples // 2 + 1):
                w = mpf(4) / 27 * mp.exp(mpc(0, 2 * math.pi * k / samples))
                assert geometry._branch_phase(k, samples) == w._mpc_

    def test_one_warm_started_solve_per_phase(self, monkeypatch):
        # one solve per conjugate pair of phases theta_k, k = 1 .. S//2, each
        # started at the continuation's z(phi_k), z(phi_k + pi) and the third
        # root by Vieta, converging on its one run
        calls = []

        def spy(coeffs, bits, start):
            calls.append(list(start))
            return solve_complex_poly(coeffs, bits, start)

        monkeypatch.setattr(geometry, "solve_complex_poly", spy)
        for samples in (7, 8):
            calls.clear()
            branch_polyline(samples)
            assert len(calls) == samples // 2
            for start in calls:
                assert len(start) == 3 and all(type(z) is complex for z in start)
                assert start[2] == 2 - start[0] - start[1]


class TestBasins:
    def test_examples(self):
        assert basin_classify(1, BITS) == INV_SQRT_BASIN
        assert basin_classify(Fraction(1, 9), BITS) == ZERO_BASIN
        assert basin_classify(to_mpc(0, BITS, 1), BITS) == BOUNDARY

    def test_divide_is_the_hyperbola_not_its_tangent_parabola(self):
        # between the parabola Re(sqrt z) = 1/sqrt(3) and the divide
        for re_q, im_q in ((Fraction(9, 50), Fraction(3, 5)), (Fraction(47, 150), Fraction(1, 5)),
                           (Fraction(49, 300), Fraction(-3, 5)), (Fraction(-1, 100), Fraction(-1))):
            assert basin_classify(to_mpc(re_q, BITS, im_q), BITS) == ZERO_BASIN

    def test_cut_and_zero_rejected(self):
        for z in (0, -1):
            with pytest.raises(ValueError):
                basin_classify(z, BITS)

    def test_principal_branch_never_reaches_minus_basin(self):
        # t = 1 can drain to 0 or 1/sqrt(z), never to -1/sqrt(z): that would
        # need Re(sqrt(z)) < -1/sqrt(3), impossible on the principal branch
        rng = random.Random(5)
        with mp.workprec(BITS):
            for _ in range(500):
                z = mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
                if z == 0 or (z.imag == 0 and z.real < 0):
                    continue
                assert principal_sqrt(z, BITS).real >= 0


class TestBasinBoundary:
    def test_vertex_and_intercepts(self):
        pts = basin_boundary([0, 1, -1], BITS)
        with mp.workprec(BITS):
            assert pts[0] == mpc(mpf(1) / 3, 0)
            assert pts[1] == mpc(0, 1)  # x = 0 at y = +-1
            assert pts[2] == mpc(0, -1)

    def test_sqrt_lies_on_the_saddle_hyperbola(self):
        # u = sqrt(z) on 3 Re(u)^2 - Im(u)^2 = 1, the divide through 1/sqrt(3)
        with mp.workprec(BITS):
            ys = [mpf(k) / 7 - 1 for k in range(15)]
            for pt in basin_boundary(ys, BITS):
                u = principal_sqrt(pt, BITS)
                assert abs(3 * u.real**2 - u.imag**2 - 1) < mpf(2) ** (8 - BITS)

    def test_wide_point(self):
        with mp.workprec(BITS):
            (pt,) = basin_boundary([mp.sqrt(5)], BITS)
            assert abs(pt.real + mpf(2) / 3) < mpf(2) ** (16 - BITS)

    def test_all_classify_boundary(self):
        ys = [Fraction(k, 5) for k in range(-5, 6)]
        for pt in basin_boundary(ys, BITS):
            assert basin_classify(pt, BITS) == BOUNDARY


class TestSaddleComparison:
    def test_on_lemniscate_both_vanish(self):
        cmp = saddle_comparison(Fraction(4, 3), BITS)
        assert abs(cmp.field_difference) < mpf("1e-35")
        assert abs(cmp.level_difference) < mpf("1e-35")

    def test_outside(self):
        assert saddle_comparison(2, BITS).signs() == (1, 1)

    def test_inside(self):
        assert saddle_comparison(1, BITS).signs() == (-1, -1)

    def test_equivalence_on_random_annulus(self):
        rng = random.Random(271828)
        floor = mpf("1e-30")
        checked = 0
        with mp.workprec(BITS):
            while checked < 2000:
                z = mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
                r = abs(z)
                if r < 0.05 or r > 5 or (z.imag == 0 and z.real <= 0):
                    continue
                cmp = saddle_comparison(z, BITS)
                if abs(cmp.field_difference) < floor or abs(cmp.level_difference) < floor:
                    continue
                assert cmp.signs()[0] == cmp.signs()[1]
                checked += 1


class TestLevelField:
    def test_minima_at_zeros_of_f(self):
        field = divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 31, BITS)
        mid = 15  # row/col of 0 on the 31-point grid
        assert field.values[mid][mid] == 0  # t = 0
        assert field.values[mid][mid + 10] < mpf(2) ** (8 - BITS)  # t = 1
        assert field.values[mid][mid - 10] < mpf(2) ** (8 - BITS)  # t = -1
        assert all(v >= 0 for row in field.values for v in row)

    def test_divides_vertical_for_real_z(self):
        field = divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 16, BITS)
        with mp.workprec(BITS):
            for d in field.divides:
                assert abs(d.direction.real) < mpf(2) ** (8 - BITS)
                assert abs(abs(d.point) - 1 / mp.sqrt(3)) < mpf(2) ** (8 - BITS)

    def test_saddle_height(self):
        # |f_z(1/sqrt(3z))| = (2/sqrt 27)/|sqrt z|
        from lemnizeros.numerics import f_eval

        with mp.workprec(BITS):
            for zq in (1, Fraction(4, 3), Fraction(5, 2)):
                z = to_mpc(zq, BITS)
                saddle = 1 / principal_sqrt(3 * z, BITS)
                want = 2 / mp.sqrt(27) / abs(principal_sqrt(z, BITS))
                assert abs(abs(f_eval(z, saddle)) - want) < mpf(2) ** (16 - BITS)

    def test_res_floor(self):
        with pytest.raises(ValueError):
            divides_and_level_field(1, (-1, 1, -1, 1), 8, BITS)

    def test_csv_shape_and_determinism(self):
        field = divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 16, BITS)
        text = level_field_csv(field)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# divide point=")
        assert lines[2] == "re_t,im_t,abs_f"
        assert len(lines) == 3 + 16 * 16
        assert text == level_field_csv(field)

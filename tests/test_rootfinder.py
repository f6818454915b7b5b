"""Root solver: closed-form small cases, eigenvalue oracles, certification."""

import ast
import inspect
import math
import random
from collections import Counter
from fractions import Fraction
from hashlib import sha256
from math import factorial, isqrt

import mpmath
import pytest
from mpmath import mp, mpc, mpf, polyval
from mpmath.libmp import from_man_exp, from_rational, mpf_neg, mpf_pos, mpf_sqrt

from lemnizeros import exact, numerics, rootfinder, seeds
from lemnizeros.exact import ExactPolynomial, build_polynomial, pochhammer
from lemnizeros.geometry import branch_polyline
from lemnizeros.numerics import PrecisionConfig, PrecisionExhaustedError, to_mpc, to_mpf
from lemnizeros.rootfinder import (
    RADIUS_REL_TOL,
    CertificationError,
    certify,
    find_roots,
    initial_points,
    rootset_csv,
    solve_complex_poly,
)

from conftest import (
    bounded_horner_p_wide,
    exact_horner,
    family_quotient_p_wide,
    max_relative_radius,
    sqrt_up,
)

BITS = 128
BRANCH_64_SHA256 = "0bf3065f06f32a7d6341ee89cd1924a1c4053a75e51a2ff3ee6c8ecf0d1b3bb0"
BRANCH_1024_SHA256 = "2dd00a39fc412159116c571dc6ca3ffee92c846f8585b89dfb33b652598b042e"


def _match_greedily(found, expected):
    """Pair each expected root with its nearest unused computed root and
    return the largest pairing distance."""
    found = list(found)
    worst = 0.0
    for e in expected:
        j = min(range(len(found)), key=lambda i: abs(complex(found[i]) - complex(e)))
        worst = max(worst, abs(complex(found.pop(j)) - complex(e)))
    return worst


def _exactly_closed(roots):
    """True when the multiset of roots equals its exact conjugate (mpf_neg
    negates without rounding)."""
    keys = [(z.real._mpf_, z.imag._mpf_) for z in roots]
    return Counter(keys) == Counter((x, mpf_neg(y)) for x, y in keys)


def _companion_eigenvalues_mp(n: int, bits: int = 192):
    """Independent oracle: eigenvalues of the companion matrix via mpmath's
    QR code, nothing shared with the Aberth path."""
    p = build_polynomial(n)
    with mp.workprec(bits):
        monic = [to_mpc(c / p.coefficients[n], bits) for c in p.coefficients]
        A = mp.zeros(n)
        for i in range(1, n):
            A[i, i - 1] = 1
        for i in range(n):
            A[i, n - 1] = -monic[i]
        return mp.eig(A, left=False, right=False)


class TestInitialPoints:
    def test_count_and_distinct(self):
        pts = initial_points(4)
        assert len(pts) == 4
        assert len({(str(p.real), str(p.imag)) for p in pts}) == 4

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_inside_containment_disk(self, n):
        for p in initial_points(n):
            assert abs(p) < n + 1

    @pytest.mark.parametrize("n", [*range(1, 13), 45, 60, 120])
    def test_seeds_near_the_zeros(self, n, root_cache):
        # each seed lies within 1/n relative of a certified zero; the
        # lemniscate points they start from miss this from n = 3 on
        pts = initial_points(n)
        assert len({(p.real, p.imag) for p in pts}) == n
        roots = root_cache([n])[n].roots
        with mp.workprec(BITS):
            worst = max(min(abs(z - x) for x in roots) / abs(z) for z in pts)
        assert n * worst <= 1

    @pytest.mark.parametrize("n", [*range(1, 13), 45, 60])
    def test_seeds_closed_under_conjugation(self, n, root_cache):
        pts = initial_points(n)
        for k in range(n):
            z, w = pts[k], pts[n - 1 - k]
            assert w.real == z.real and w.imag + z.imag == 0  # exact: no rounding to 0
        if n % 2:
            middle = pts[n // 2]
            assert middle.imag == 0
            (real_root,) = [x for x in root_cache([n])[n].roots if x.imag == 0]
            with mp.workprec(BITS):
                assert abs(middle - real_root) < mpf(1) / n

    def test_past_the_double_range(self):
        # From n = 740 on a_n = C_n / C_0 overflows a double, so the seeds are
        # left as the saddle-point step puts them; at n = 739 some are still
        # polished.
        n = 760
        pts = initial_points(n)
        assert len({(z.real, z.imag) for z in pts}) == n
        assert _exactly_closed(pts)
        with mp.workprec(160):
            unpolished = [mpc(1 - mpf(x), -y) for x, y in seeds._saddle_seeds(n)]
        assert pts[n // 2 :] == unpolished
        half = seeds._saddle_seeds(739)
        assert seeds._polish_in_doubles(739, half) != half

    def test_seeds_repeat_exactly(self):
        first, again = initial_points(60), initial_points(60)
        assert [(z.real._mpf_, z.imag._mpf_) for z in first] == [
            (z.real._mpf_, z.imag._mpf_) for z in again
        ]


class TestFindRoots:
    def test_degree_one(self):
        rs = find_roots(build_polynomial(1))
        assert len(rs.roots) == 1
        assert abs(rs.roots[0] - 2) < 1e-30
        assert rs.inclusion_radii[0] < 1e-30

    def test_degree_two_quadratic_formula(self):
        rs = find_roots(build_polynomial(2))
        with mp.workprec(192):
            y = mp.sqrt(mpf(7) / 3 - mpf(49) / 25)
            expected = [mpc(mpf(7) / 5, -y), mpc(mpf(7) / 5, y)]
            assert _match_greedily(rs.roots, expected) < 1e-30
            for z in rs.roots:
                assert abs(abs(z) ** 2 - mpf(7) / 3) < 1e-12
        assert all(r < mpf("1e-20") for r in rs.inclusion_radii)

    def test_degree_three_companion_oracle(self):
        rs = find_roots(build_polynomial(3))
        oracle = _companion_eigenvalues_mp(3)
        assert _match_greedily(rs.roots, oracle) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_numpy_companion_oracle(self, n):
        # double-precision eigenvalues are trustworthy only at small degree
        import numpy as np  # here, so that the module collects without numpy

        p = build_polynomial(n)
        coeffs = [float(c) for c in p.coefficients[::-1]]
        oracle = np.roots(coeffs)
        rs = find_roots(p)
        assert _match_greedily(rs.roots, oracle) < 1e-8

    @pytest.mark.parametrize("n", [5, 9, 16])
    def test_vieta_sum_and_product(self, n):
        p = build_polynomial(n)
        rs = find_roots(p)
        with mp.workprec(rs.precision_used):
            total = sum(rs.roots)
            prod = mpc(1)
            for z in rs.roots:
                prod *= z
            want_sum = to_mpc(-p.coefficients[n - 1] / p.coefficients[n], rs.precision_used)
            want_prod = to_mpc(
                (-1) ** n * p.coefficients[0] / p.coefficients[n], rs.precision_used
            )
            assert abs(total - want_sum) < 1e-10 * abs(want_sum)
            assert abs(prod - want_prod) < 1e-10 * abs(want_prod)

    @pytest.mark.parametrize("n", [3, 12, 25])
    def test_certified_structure(self, n):
        rs = find_roots(build_polynomial(n))
        assert len(rs.roots) == n
        assert rs.disks_disjoint()
        assert _exactly_closed(rs.roots)
        with mp.workprec(rs.precision_used):
            assert all(abs(z) + r < n + 1 for z, r in zip(rs.roots, rs.inclusion_radii))
            assert max(abs(z) - r for z, r in zip(rs.roots, rs.inclusion_radii)) > 1

    def test_wide_precision(self):
        # 2048 bits: squared moduli exceed the float range, so the kernel's
        # control flow must never convert a whole integer to float
        rs = find_roots(build_polynomial(12), PrecisionConfig(bits=2048, max_bits=2048))
        assert rs.precision_used == 2048
        assert rs.disks_disjoint() and _exactly_closed(rs.roots)
        assert max_relative_radius(rs) <= RADIUS_REL_TOL

    def test_precision_exhausted(self):
        # At 64 bits the target is 2^-32 relative.  In the w basis the
        # certificate reaches it up to n = 203 and reads about 24.5 bits at
        # n = 240, far enough past the boundary that a change of rounding or
        # seeds cannot make this degree certify.
        cfg = PrecisionConfig(bits=64, max_bits=64)
        with pytest.raises(PrecisionExhaustedError) as err:
            find_roots(build_polynomial(240), cfg)
        assert "64" in str(err.value)

    def test_failed_rung_escalates_and_certifies(self, monkeypatch):
        # the degree of test_precision_exhausted, with room to double: the
        # 128-bit rung starts from the 64-bit rung's estimates
        rungs = []

        def spy(p, start, bits):
            raw, status, sweeps = aberth_family(p, start, bits)
            rungs.append((start, bits, raw))
            return raw, status, sweeps

        aberth_family = rootfinder._aberth_family
        monkeypatch.setattr(rootfinder, "_aberth_family", spy)
        rs = find_roots(build_polynomial(240), PrecisionConfig(bits=64, max_bits=128))
        assert [bits for _, bits, _ in rungs] == [64, 128]
        assert rungs[1][0] is rungs[0][2]
        assert rs.precision_used == 128
        assert rs.disks_disjoint() and _exactly_closed(rs.roots)
        assert max_relative_radius(rs) <= RADIUS_REL_TOL

    @pytest.mark.parametrize("bits", [64, 160])
    def test_acceptance_at_its_exact_boundary(self, bits, monkeypatch):
        # one disk at 3/4 + i, where |z| = 5/4 exactly, with radius
        # t (1 + |z|) = 9t/4, t = max(RADIUS_REL_TOL, 2^(32-bits)), is
        # accepted, and the next radius up at `bits` is not: the rung's
        # test is decided exactly (in doubles, at 64 bits, that radius
        # rounds back onto the boundary)
        t = max(RADIUS_REL_TOL, mpf(2) ** (32 - bits))
        with mp.workprec(bits):
            edge = t * 9 / 4
        _, man, exp, bc = edge._mpf_
        up = mp.make_mpf(from_man_exp((man << (bits - bc)) + 1, exp - (bits - bc)))

        def accepted(radius):
            rs = rootfinder.RootSet(1, (mpc("0.75", 1),), (mpf(0),), (radius,), bits, (False,))
            monkeypatch.setattr(rootfinder, "certify", lambda p, roots, b: rs)
            try:
                return find_roots(build_polynomial(1), PrecisionConfig(bits, bits)) is rs
            except PrecisionExhaustedError:
                return False

        assert accepted(edge) and not accepted(up)

    @pytest.mark.parametrize("n", [206, 260])
    def test_retry_from_64_bits_certifies_at_128(self, n):
        # past n = 203 the 64-bit certificate misses its 2^-32 target, and
        # one doubling reaches it
        rs = find_roots(build_polynomial(n), PrecisionConfig(bits=64))
        assert rs.precision_used == 128

    def test_rejects_a_polynomial_outside_the_family(self):
        # 1 - z + 3/7 z^2 passes ExactPolynomial's checks (c_0 = 1, alternating
        # signs, |c_0/c_2| = 7/3) but is not the family member 1 - 6/5 z + 3/7 z^2,
        # whose integers the solve and the certificate would evaluate instead
        p = ExactPolynomial(2, (Fraction(1), Fraction(-1), Fraction(3, 7)))
        with pytest.raises(ValueError, match="family"):
            find_roots(p)
        with pytest.raises(ValueError, match="family"):
            certify(p, [mpc("1.4", "0.6"), mpc("1.4", "-0.6")], BITS)
        equal = ExactPolynomial(2, build_polynomial(2).coefficients)
        assert find_roots(equal) == find_roots(build_polynomial(2))


class TestWBasis:
    """The solve and its certificate run in w = 1 - z, where the family is a
    section of (1 - w)^(-b) with positive coefficients."""

    def test_coefficients_are_the_binomial_section(self):
        for n in range(1, 61):
            cs, _ = exact._integer_coefficients(n)
            b = Fraction(n + 1, 2)
            assert len(cs) == n + 1 and all(c > 0 for c in cs)
            for k, c in enumerate(cs):
                assert Fraction(c, cs[0]) == pochhammer(b, k) / factorial(k)

    def test_coefficients_represent_p(self):
        # sum_k C_k (1 - z)^k = p(z) L, checked at a rational point
        z = Fraction(3, 7)
        for n in (1, 2, 7, 30):
            cs, scale = exact._integer_coefficients(n)
            want = sum(c * z**m for m, c in enumerate(build_polynomial(n).coefficients))
            assert sum(c * (1 - z) ** k for k, c in enumerate(cs)) == want * scale

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 85, 120])
    def test_derivative_identity(self, n):
        # (1 - w) S' = b S - (n + b) a_n w^n, coefficient by coefficient:
        # the sweeps take S' from it instead of a second Horner loop
        cs, _ = exact._integer_coefficients(n)
        a = [Fraction(c, cs[0]) for c in cs] + [Fraction(0)]
        b = Fraction(n + 1, 2)
        for k in range(n + 1):
            assert (k + 1) * a[k + 1] - k * a[k] == b * a[k] - (n + b) * a[n] * (k == n)

    @pytest.mark.parametrize("n", range(1, 81))
    def test_one_rung_at_the_default_precision(self, n, root_cache):
        bits = PrecisionConfig().bits
        p = build_polynomial(n)
        _, status, _ = rootfinder._aberth_family(p, initial_points(n), bits)
        assert status == "converged"
        rs = root_cache([n])[n]
        assert rs.precision_used == bits
        assert max_relative_radius(rs) <= mpf(2) ** -150

    @pytest.mark.parametrize("n", [*range(1, 13), 45, 60, 100, 120])
    def test_at_most_five_sweeps_from_the_seeds(self, n):
        # the seeds sit within about 1/n^2 of the zeros away from the pinch,
        # so three or four sweeps reach the working precision, a root
        # freezing once its next correction is predicted below the fixed
        # scale; from the lemniscate points the sweeps took 6 to 9
        bits = PrecisionConfig().bits
        _, status, sweeps = rootfinder._aberth_family(
            build_polynomial(n), initial_points(n), bits
        )
        assert status == "converged" and sweeps <= 5

    @pytest.mark.parametrize("n", [*range(2, 121), 150, 200, 300])
    def test_at_most_four_sweeps_from_the_seeds(self, n):
        # A root freezes once 2 log2 of its relative correction falls below
        # -prec - 16: at least quadratic convergence puts its next correction
        # below the fixed scale.  Without that rule the corrections dithered
        # at the scale's rounding floor, 5 sweeps at n = 4..25 and up to 8 at
        # n = 300.  Up to n = 73 doubles resolve the section at every seed,
        # so the seeds come polished to about double precision: two sweeps
        # finish them up to n = 48 and three up to n = 73; from the
        # unpolished seeds it took four.
        bits = PrecisionConfig().bits
        _, status, sweeps = rootfinder._aberth_family(
            build_polynomial(n), initial_points(n), bits
        )
        assert status == "converged"
        if n <= 73:
            assert sweeps == (2 if n <= 48 else 3)
        else:
            assert sweeps <= 4

    def test_converges_at_degree_200(self):
        # Well past the degrees the other tests solve, the kernel still stops
        # on small corrections, long before its max_sweeps of 1320.
        n, bits = 200, PrecisionConfig().bits
        _, status, sweeps = rootfinder._aberth_family(
            build_polynomial(n), initial_points(n), bits
        )
        assert status == "converged" and sweeps <= 40

    def test_converges_at_degree_120(self):
        # At n = 120 a fixed-point w^n at the sweep scale underflows (|w| is
        # about 0.385 near z = 1), which stalls a Newton quotient built on it.
        n, bits = 120, PrecisionConfig().bits
        _, status, sweeps = rootfinder._aberth_family(
            build_polynomial(n), initial_points(n), bits
        )
        assert status == "converged" and sweeps <= 20

    @pytest.mark.parametrize("n", range(1, 42, 2))
    def test_middle_root_stays_real(self, n, root_cache):
        bits = PrecisionConfig().bits
        raw, _, _ = rootfinder._aberth_family(build_polynomial(n), initial_points(n), bits)
        assert raw[n // 2].imag == 0 and raw[n // 2].real > 1
        assert raw[n // 2] in root_cache([n])[n].roots


class TestConjugateClosure:
    """p is real, so the family's root set is closed under conjugation; the
    solve makes it so exactly, and certify evaluates one root per pair."""

    @pytest.mark.parametrize("n", range(1, 81))
    def test_closed_by_construction(self, n, root_cache):
        roots = root_cache([n])[n].roots
        assert _exactly_closed(roots)
        assert sum(1 for z in roots if z.imag == 0) == n % 2

    @pytest.mark.parametrize("n", [7, 12])
    def test_one_exact_evaluation_per_pair(self, n, root_cache, monkeypatch):
        # one bounded evaluation per pair, at its member with Im z >= 0
        rs = root_cache([n])[n]
        calls = []
        bounded = rootfinder._bounded_horner

        def counted(n, x, y, bits):
            calls.append(y)
            return bounded(n, x, y, bits)

        monkeypatch.setattr(rootfinder, "_bounded_horner", counted)
        again = certify(build_polynomial(n), rs.roots, rs.precision_used)
        assert len(calls) == (n + 1) // 2 and all(y >= 0 for y in calls)
        assert again == rs

    @pytest.mark.parametrize("n", [7, 12])
    def test_mirroring_gives_equal_values(self, n, root_cache):
        rs = root_cache([n])[n]
        bits = rs.precision_used
        p = build_polynomial(n)
        with mp.workprec(bits):
            mirrored = certify(p, [z.conjugate() for z in rs.roots], bits)
            assert mirrored == rs
            # a lone point and its conjugate, no partner in the input
            z = mpc("1.25", "0.375")
            one, other = (certify(build_polynomial(1), [v], bits) for v in (z, z.conjugate()))
        assert (one.residuals, one.inclusion_radii) == (other.residuals, other.inclusion_radii)


class TestCertify:
    def test_perturbed_root_radius_reflects_error(self):
        rs = find_roots(build_polynomial(2))
        with mp.workprec(rs.precision_used):
            bumped = [rs.roots[0] + mpf("1e-3"), rs.roots[1]]
        redone = certify(build_polynomial(2), bumped, rs.precision_used)
        moved = max(redone.inclusion_radii)
        assert mpf("1e-5") < moved < mpf("0.1")  # honest, not spuriously small
        assert min(redone.inclusion_radii) < mpf("1e-20")

    def test_duplicate_roots_overlap_flagged(self):
        rs = find_roots(build_polynomial(2))
        dup = [rs.roots[0], rs.roots[0]]
        redone = certify(build_polynomial(2), dup, rs.precision_used)
        assert not redone.disks_disjoint()

    def test_overlap_flags_match_all_pairs(self):
        # one wide disk reaches past several small ones in real-part order,
        # so the flags show whether the pair scan stops too early
        n = 10
        rs = find_roots(build_polynomial(n))
        bits = rs.precision_used
        with mp.workprec(bits):
            zs = list(rs.roots)
            for k, d in [(1, mpf("0.02")), (4, mpf("1e-3")), (7, mpf("0.3"))]:
                zs[k] += d
            out = certify(build_polynomial(n), zs, bits)
            flags = [False] * n
            for i in range(n):
                for j in range(i + 1, n):
                    zi, zj = out.roots[i], out.roots[j]
                    if abs(zi - zj) < out.inclusion_radii[i] + out.inclusion_radii[j]:
                        flags[i] = flags[j] = True
        assert out.overlaps == tuple(flags)
        assert 2 < sum(flags) < n

    def test_near_critical_point_overlaps(self):
        # p' vanishes at 7/5 for the degree-2 member; at a dyadic approximation
        # of that point it is tiny, so two copies get huge, overlapping disks
        rs = certify(build_polynomial(2), [to_mpc(Fraction(7, 5), BITS)] * 2, BITS)
        assert not rs.disks_disjoint()
        assert max_relative_radius(rs) > 1e10 * RADIUS_REL_TOL

    def test_vanishing_derivative_fails(self, monkeypatch):
        monkeypatch.setattr(rootfinder, "_bounded_horner", lambda n, x, y, bits: (1, 0, 0))
        with pytest.raises(CertificationError):
            certify(build_polynomial(2), [to_mpc(1, BITS)] * 2, BITS)

    def test_exact_root_has_zero_residual(self):
        rs = certify(build_polynomial(1), [to_mpc(2, BITS)], BITS)
        assert rs.residuals == (0,)
        assert rs.inclusion_radii == (0,)

    @pytest.mark.parametrize("n", [3, 17, 45])
    def test_bounds_against_high_precision(self, n, root_cache):
        # residual >= |p(z)| and radius >= n|p(z)|/|p'(z)|, each within one
        # upward rounding, against an evaluation at 8x the working precision
        rs = root_cache([n])[n]
        bits = rs.precision_used
        p = build_polynomial(n)
        with mp.workprec(8 * bits):
            cs = [to_mpf(c, 8 * bits) for c in reversed(p.coefficients)]
            dcs = [m * c for m, c in zip(range(n, 0, -1), cs)]
            tol = mpf(2) ** (2 - bits)
            for z, res, rad in zip(rs.roots, rs.residuals, rs.inclusion_radii):
                v = abs(polyval(cs, z))
                r = n * v / abs(polyval(dcs, z))
                assert v <= res <= v * (1 + tol)
                assert r <= rad <= r * (1 + tol)

    def test_wrong_cardinality_fails(self):
        with pytest.raises(CertificationError):
            certify(build_polynomial(3), [to_mpc(1, BITS)], BITS)

    def test_rootset_passthrough(self):
        rs = find_roots(build_polynomial(4))
        again = certify(build_polynomial(4), rs.roots, rs.precision_used)
        assert again.precision_used == rs.precision_used
        assert _match_greedily(again.roots, rs.roots) == 0

    @pytest.mark.parametrize("root", [mpc("nan"), mpc("inf"), mpc(1, "-inf"), mpc("nan", 1)])
    def test_non_finite_root_fails(self, root):
        with pytest.raises(CertificationError, match="not finite"):
            certify(build_polynomial(1), [root], BITS)
        with pytest.raises(CertificationError, match="not finite"):
            certify(build_polynomial(2), [to_mpc(1, BITS), root], BITS)

    @pytest.mark.parametrize(
        "im, flagged",
        [(Fraction(1, 4), True), (Fraction(1, 4) + Fraction(1, 2**100), False)],
        ids=["touching", "apart"],
    )
    def test_touching_disks_overlap(self, im, flagged, monkeypatch):
        # radius n hi / lo = 2 * 1 / 8 = 1/4 at both roots of a conjugate
        # pair 2 im apart: at im = 1/4 the dyadic disks touch, a hair wider
        # apart they do not, and both are decided exactly
        monkeypatch.setattr(rootfinder, "_bounded_horner", lambda n, x, y, bits: (1, 8, 0))
        roots = [to_mpc(1, BITS, im), to_mpc(1, BITS, -im)]
        rs = certify(build_polynomial(2), roots, BITS)
        assert rs.inclusion_radii == (mpf(1) / 4, mpf(1) / 4)
        assert rs.overlaps == (flagged, flagged)

    def test_exact_scale_after_doubling(self, monkeypatch):
        # z = 2 + i 2^-400 has 400 fractional bits, more than the start scale
        # 2 * 64 + 40: at 2^-400 the bounds swamp |S| = 2^-400, so the scale
        # doubles, capped at the exact scale 1 * (400 + 2) + 2, where the
        # residual |1 - z/2| and the radius |2 - z| come out exact
        scales = []
        fixed = rootfinder._fixed_coefficients

        def spied(n, P):
            scales.append(P)
            return fixed(n, P)

        monkeypatch.setattr(rootfinder, "_fixed_coefficients", spied)
        z = mpc(2, mpf(2) ** -400)
        rs = certify(build_polynomial(1), [z], 64)
        assert scales == [400, 404]
        assert rs.residuals == (mpf(2) ** -401,)
        assert rs.inclusion_radii == (mpf(2) ** -400,)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_at_zero(self, n):
        # the identity 2 z S' = N gives no S' at z = 0, where S'(1) comes
        # from c_1 = -n (n+1)/(n+3): |p(0)| = 1 and the radius is
        # n / |c_1| = (n+3)/(n+1), rounded up
        rs = certify(build_polynomial(n), [to_mpc(0, BITS)] * n, BITS)
        assert rs.residuals == (1,) * n
        assert rs.inclusion_radii == (mp.make_mpf(from_rational(n + 3, n + 1, BITS, "u")),) * n

    @pytest.mark.parametrize("z", [mpc("1.25", "0.375"), mpc("-0.5", "2.75"), mpc(3)])
    def test_exact_scale_at_degree_three(self, z):
        # No zero of the family but n = 1's z = 2 is dyadic, so at degree 3
        # the exact scale is checked at short dyadic points, where it holds
        # from the start: hi and lo are |S| and |S'| at 2^-e, rounded up and
        # down, with no error bound added
        hi, lo, e = rootfinder._bounded_horner(3, z.real, abs(z.imag), BITS)
        v, d, den = _exact_squares(build_polynomial(3), z, e)
        up = -(-v // den)
        assert hi == isqrt(up) + (isqrt(up) ** 2 < up)
        assert lo == isqrt(d // den)


def _exact_squares(p, z, e: int) -> tuple[int, int, int]:
    """(v, d, den) with |S(w)|^2 4^e = v / den and |S'(w)|^2 4^e = d / den,
    w = 1 - z, from the oracle, whose values are C_0 2^(kn) times S and -S'."""
    (vr, vi), (dr, di), scale = exact_horner(p, z)
    ints, lcm_den = exact._integer_coefficients(p.degree)
    kn = (scale // lcm_den).bit_length() - 1
    return (vr * vr + vi * vi) << 2 * e, (dr * dr + di * di) << 2 * e, ints[0] ** 2 << 2 * kn


def _within_one_rounding(value, num: int, den: int, bits: int) -> bool:
    """value >= sqrt(num / den), and at most one `bits`-bit step above that
    exact value rounded up."""
    up = sqrt_up(num, den, bits)
    if not up:
        return value == 0
    exact_up, got = (Fraction(m) * Fraction(2) ** e for m, e in (up.man_exp, value.man_exp))
    return exact_up <= got <= exact_up * (1 + Fraction(2, 2**bits))


class TestOracleGate:
    """certify's bounded evaluation against exact_horner: every residual and
    radius is at least its exact value and within one upward rounding of it."""

    @pytest.mark.parametrize("n", [*range(1, 61), 100, 200])
    def test_bounds_against_exact_values(self, n, root_cache):
        rs = root_cache([n])[n]
        bits = rs.precision_used
        p = build_polynomial(n)
        exact = {}  # |p| and |p'| agree at conjugates: one evaluation per pair
        for z, res, rad in zip(rs.roots, rs.residuals, rs.inclusion_radii):
            key = (z.real, abs(z.imag))
            if key not in exact:
                (vr, vi), (dr, di), scale = exact_horner(p, z)
                exact[key] = vr * vr + vi * vi, dr * dr + di * di, scale
            v2, d2, scale = exact[key]
            assert _within_one_rounding(res, v2, scale * scale, bits)
            assert _within_one_rounding(rad, n * n * v2, d2, bits)

    @pytest.mark.parametrize("n", [5, 40, 100, 300])
    def test_bounds_hold_to_the_unit(self, n, root_cache):
        # |S| <= hi 2^-e and |S'| >= lo 2^-e, compared exactly, at the roots
        # and at points a little off them: the floors of the Horner loop move
        # S~ by a few units of 2^-P, which the ceiling of the modulus alone
        # would not cover, so this fails unless the running bounds do.  At
        # 1e-2 off a root (n+1) S and the w^n term of N are of one size.
        # At n = 300 every fifth root of the upper half keeps the exact
        # evaluations to a few seconds.
        rs = root_cache([n])[n]
        bits = rs.precision_used
        offsets = (0, mpc("1e-6", "-3e-7"), mpc("1e-2", "-3e-3"))
        with mp.workprec(bits):
            points = [z + d for z in rs.roots[: n // 2 + 1 : max(1, n // 60)] for d in offsets]
            keys = [(z.real, abs(z.imag)) for z in points]
        for z, key in zip(points, keys):
            hi, lo, e = rootfinder._bounded_horner(n, *key, bits)
            v, d, den = _exact_squares(build_polynomial(n), z, e)
            assert hi * hi * den >= v
            assert 0 < lo and lo * lo * den <= d

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize(
        "z",
        [mpc(mpf(2) ** -300), mpc(mpf(2) ** -300, mpf(2) ** -290)],
        ids=["real", "complex"],
    )
    def test_next_to_zero(self, n, z):
        # the identity divides N by 2 z: at |z| = 2^-300 N cancels to
        # 2^-300 of its terms, so only a wider scale bounds S' well
        rs = certify(build_polynomial(n), [z] * n, BITS)
        (vr, vi), (dr, di), scale = exact_horner(build_polynomial(n), z)
        v2, d2 = vr * vr + vi * vi, dr * dr + di * di
        assert _within_one_rounding(rs.residuals[0], v2, scale * scale, BITS)
        assert _within_one_rounding(rs.inclusion_radii[0], n * n * v2, d2, BITS)


class TestKernelBits:
    """_bounded_horner and _family_quotient multiply by the root's own
    Gaussian integer and shift by its fractional bits; their integers must
    be exactly those of the loops at the full scale in conftest."""

    @pytest.mark.parametrize("n", range(1, 121))
    def test_bit_identical_to_the_full_scale_loops(self, n, root_cache):
        # certified roots with Im z >= 0, as certify evaluates them, at 160
        # bits and rounded to 64, and the unpolished seeds, whose parts are
        # doubles
        roots = [z for z in root_cache([n])[n].roots if z.imag >= 0]
        points = [(160, z) for z in roots]
        with mp.workprec(64):
            points += [(64, +z) for z in roots]
        with mp.workprec(160):
            points += [(160, mpc(1 - mpf(x), -y)) for x, y in seeds._saddle_seeds(n)]
        for bits, z in points:
            x, y = z.real, z.imag
            assert rootfinder._bounded_horner(n, x, y, bits) == bounded_horner_p_wide(n, x, y, bits)
            P = bits + rootfinder._GUARD
            zr, zi = numerics._to_fixed(z, P)
            w = ((1 << P) - zr, -zi)
            assert rootfinder._family_quotient(n, P)(*w) == family_quotient_p_wide(n, P)(*w)


class TestPower:
    """_power's stated cut error, which enters the bound on S' in
    _bounded_horner: within n 2^(2-P) |x|^n relative of the exact power."""

    P = 360

    @staticmethod
    def _exact(xr: int, xi: int, n: int) -> tuple[int, int]:
        mr, mi = 1, 0
        for _ in range(n):
            mr, mi = mr * xr - mi * xi, mr * xi + mi * xr
        return mr, mi

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 64, 127, 128, 255, 300, 399, 400])
    def test_cut_error_bound(self, n):
        rng = random.Random(n)
        for _ in range(3):
            xr, xi = (rng.randrange(-(2 << self.P), 2 << self.P) for _ in range(2))
            mr, mi, e = rootfinder._power(xr, xi, n, self.P, self.P)
            er, ei = self._exact(xr, xi, n)  # x^n 2^(-P n)
            shift = e + self.P * n
            dr, di = (mr << shift) - er, (mi << shift) - ei
            assert (dr * dr + di * di) << 2 * self.P <= 16 * n * n * (er * er + ei * ei)

    @pytest.mark.parametrize("n", [1, 17, 59])
    def test_exact_for_short_points(self, n):
        # x with k = 4 fractional bits and |x| < 2^t, t = 2: every cut is
        # exact for P >= n (k + t), so the power is exact
        rng = random.Random(n)
        k = 4
        for _ in range(3):
            wr, wi = (rng.randrange(-(1 << (k + 1)) + 1, 1 << (k + 1)) for _ in range(2))
            mr, mi, e = rootfinder._power(wr, wi, n, k, self.P)
            er, ei = self._exact(wr, wi, n)  # x^n 2^(-k n)
            shift = e + k * n
            if shift >= 0:
                assert (mr << shift, mi << shift) == (er, ei)
            else:
                assert (mr, mi) == (er << -shift, ei << -shift)


class TestSqrtUp:
    """The oracle's sqrt_up, which TestOracleGate takes as the exact residual
    and radius rounded up once."""

    BIG = 3**13000 + 7  # over 20 000 bits

    @pytest.mark.parametrize(
        "num, den",
        [
            (0, 1),
            (0, 3**40),
            (1, 1),
            (2, 1),
            (1, 3),
            (4 * 10**40 + 1, 10**40),  # just above 4: rounding q down gives exactly 2
            (4 * 10**200 + 1, 10**200),
            (10**6 + 1, 7),
            (BIG, 1),
            (1, BIG),
            (BIG, 5**8000 + 1),
            (BIG * BIG + 1, BIG),
        ],
        ids=lambda v: f"{v.bit_length()}b",
    )
    @pytest.mark.parametrize("bits", [53, 128, 300])
    def test_upper_bound_within_one_ulp(self, num, den, bits):
        v = sqrt_up(num, den, bits)
        sign, man, exp, bc = v._mpf_
        assert not sign
        value = Fraction(man) * Fraction(2) ** exp
        assert value * value >= Fraction(num, den)
        # reference: libmp rounds num/den up, then its square root up
        old = mp.make_mpf(mpf_sqrt(from_rational(num, den, bits, "u"), bits, "u"))
        if not num:
            assert v == old == 0
            return
        _, oman, oexp, obc = old._mpf_
        ulp = Fraction(2) ** (max(exp + bc, oexp + obc) - bits)
        assert abs(value - Fraction(oman) * Fraction(2) ** oexp) <= ulp


class TestCsvAndCubic:
    def test_csv_round_trips_at_128_bits(self):
        rs = find_roots(build_polynomial(2), PrecisionConfig(bits=128))
        text = rootset_csv(rs)
        lines = text.strip().split("\n")
        assert lines[0] == "n,j,re,im,residual,inclusion_radius"
        assert len(lines) == 3
        with mp.workprec(128):
            for line, z in zip(lines[1:], rs.roots):
                _, _, re_s, im_s, _, _ = line.split(",")
                assert mpf(re_s) == z.real
                assert mpf(im_s) == z.imag

    def test_cubic_stall_raises(self):
        # z^3 - 2z^2 + z - 4/27 = (z - 4/3)(z - 1/3)^2: from a real start the
        # double root's two estimates stay on the axis, closer together than
        # the grid of the repulsion sums' doubles, and the sweeps stall
        coeffs = [to_mpc(Fraction(-4, 27), BITS), to_mpc(1, BITS), to_mpc(-2, BITS), to_mpc(1, BITS)]
        with pytest.raises(PrecisionExhaustedError, match="stalled at 128 bits"):
            solve_complex_poly(coeffs, BITS, start=[mpc(1), mpc(0), mpc(2)])

    def test_cubic_rejects_degenerate(self):
        with pytest.raises(ValueError):
            solve_complex_poly([to_mpc(1, BITS), to_mpc(0, BITS)], BITS, start=[mpc(0)])

    def test_complex_cubic(self):
        # (z - 1)(z - i)(z + 2 - i/2): non-real coefficients and roots
        coeffs = [mpc(0.5, 2), mpc(-2.5, -0.5), mpc(1, -1.5), mpc(1)]
        roots = solve_complex_poly(coeffs, BITS, start=[mpc(1.1, 0.1), mpc(0.1, 0.9), mpc(-1.9, 0.4)])
        assert _match_greedily(roots, [1, 1j, -2 + 0.5j]) < 2.0 ** (8 - BITS)

    def test_cubic_started_at_its_critical_point(self, monkeypatch):
        # p' = (3z - 1)(z - 1) vanishes at the start z = 1, so the sweep loop
        # bumps that root before its first Newton step
        import numpy as np  # here, so that the module collects without numpy

        statuses = []

        def spy(quotient, roots, prec, axis=None):
            out = aberth_core(quotient, roots, prec, axis)
            statuses.append(out[1])
            return out

        aberth_core = rootfinder._aberth_core
        monkeypatch.setattr(rootfinder, "_aberth_core", spy)
        with mp.workprec(BITS):
            w = mpf(4) / 27 * mp.expj(1)
            coeffs = [-w, mpf(1), mpf(-2), mpf(1)]
            roots = solve_complex_poly(coeffs, BITS, start=[mpc(1), mpc(0), mpc(2)])
        assert statuses == ["converged"]
        with mp.workprec(2 * BITS):
            assert max(abs(polyval(coeffs[::-1], z)) for z in roots) <= mpf("1e-39")
        assert _match_greedily(roots, np.roots([1, -2, 1, -complex(w)])) < 1e-15

    def test_branch_polyline_cubics_bit_identical(self):
        # the cubics start from the continuation of seeds.branch_half, + - *
        # / and math.sqrt on doubles alone, and run the family's sweep
        # arithmetic (double repulsion sums, predicted-convergence freeze),
        # so the branch samples are pinned to the bit; test_geometry holds
        # them to the closed form
        assert _branch_digest(64) == BRANCH_64_SHA256

    def test_branch_polyline_1024_bit_identical(self):
        # the polyline of the paths benchmark workload
        assert _branch_digest(1024) == BRANCH_1024_SHA256

    def test_cubic_input_forms_enter_the_scale_once(self, monkeypatch):
        # every coefficient and start is rounded to nearest at BITS once, as
        # to_mpc rounds it, and then floored to the scale: the fixed-point
        # inputs and the roots are those of the to_mpc forms
        wide = to_mpc(Fraction(25, 18), 300, Fraction(-1, 9))  # 300-bit parts
        for part in wide._mpc_:  # nearest is not truncation here
            assert mpf_pos(part, BITS, "n") != mpf_pos(part, BITS, "d")
        cases = [
            # z^3 - 5/2 z^2 + (25/18 - i/9) z - 1/3 from a Fraction, the
            # wide mpc, an mpf and an int, started from a complex, an mpc
            # and a Fraction
            ([Fraction(-1, 3), wide, mpf(-2.5), 1], [complex(0.3, 0.2), mpc(0.4, -0.3), Fraction(9, 5)]),
            # (z - 1)(z - i)(z + 2 - i/2) from complex, mpc and mpf
            ([complex(0.5, 2), mpc(-2.5, -0.5), complex(1, -1.5), mpf(1)], [1.1 + 0.1j, mpc(0.1, 0.9), -1.9 + 0.4j]),
        ]
        fixed = []

        def horner_spy(coeffs, P):
            fixed.append(coeffs)
            return horner(coeffs, P)

        def aberth_spy(quotient, roots, prec, axis=None):
            fixed.append(list(roots))
            return aberth_core(quotient, roots, prec, axis)

        horner, aberth_core = rootfinder._horner_quotient, rootfinder._aberth_core
        monkeypatch.setattr(rootfinder, "_horner_quotient", horner_spy)
        monkeypatch.setattr(rootfinder, "_aberth_core", aberth_spy)
        scale = BITS + rootfinder._GUARD
        for coeffs, start in cases:
            fixed.clear()
            got = solve_complex_poly(coeffs, BITS, start)
            want = solve_complex_poly([to_mpc(c, BITS) for c in coeffs], BITS, [to_mpc(z, BITS) for z in start])
            assert [z._mpc_ for z in got] == [z._mpc_ for z in want]
            assert fixed[:2] == fixed[2:]
            assert fixed[0] == [numerics._to_fixed(to_mpc(c, BITS), scale) for c in coeffs]
            assert fixed[1] == [numerics._to_fixed(to_mpc(z, BITS), scale) for z in start]
        for lead in (0, Fraction(0), mpf(0), mpc(0), 0j):
            with pytest.raises(ValueError, match="nonzero leading coefficient"):
                solve_complex_poly([1, lead], BITS, start=[mpc(0)])


def _branch_digest(samples: int) -> str:
    """SHA-256 of the libmp tuples of branch_polyline(samples)."""
    text = "\n".join(
        f"{v._mpf_[0]},{int(v._mpf_[1])},{v._mpf_[2]}" for z in branch_polyline(samples) for v in (z.real, z.imag)
    )
    return sha256(text.encode()).hexdigest()


class TestFixedPoint:
    SCALE = BITS + rootfinder._GUARD

    @pytest.mark.parametrize(
        "man, exp",
        [
            (0, 0),
            (-(2**BITS - 1), -SCALE),  # lowest bit at the scale
            (5, 3 - SCALE),
            (2**BITS - 1, -BITS),
            (-(2**BITS - 1), 7),  # above the scale and above 1
        ],
    )
    def test_round_trip_is_exact(self, man, exp):
        x = mp.make_mpf(from_man_exp(man, exp))
        with mp.workprec(BITS):
            z = mpc(x, -x)
        fixed = numerics._to_fixed(z, self.SCALE)
        assert fixed == (man << (exp + self.SCALE), -man << (exp + self.SCALE))
        back = numerics._from_fixed(fixed, self.SCALE, BITS)
        assert back.real._mpf_ == z.real._mpf_ and back.imag._mpf_ == z.imag._mpf_

    @pytest.mark.parametrize("man, want", [(3, 1), (-3, -2), (1, 0), (-1, -1)])
    def test_below_the_scale_rounds_down(self, man, want):
        # man/2 units of the scale: the last bit lies below it
        x = mp.make_mpf(from_man_exp(man, -self.SCALE - 1))
        assert numerics._to_fixed(mpc(x), self.SCALE) == (want, 0)


def _certificate_digest(rs) -> str:
    """SHA-256 of the (sign, mantissa, exponent, bitcount) tuples of the
    residuals, then of the inclusion radii, in the order certify sorts them."""
    parts = [tuple(int(v) for v in x._mpf_) for x in rs.residuals + rs.inclusion_radii]
    return sha256(repr(parts).encode()).hexdigest()


def _root_digest(rs) -> str:
    """SHA-256 of the (sign, mantissa, exponent, bitcount) tuples of the
    roots, real part then imaginary part, in the order certify sorts them."""
    parts = [tuple(int(v) for v in x._mpf_) for z in rs.roots for x in (z.real, z.imag)]
    return sha256(repr(parts).encode()).hexdigest()


class TestPurity:
    """The seeds are computed and polished in IEEE doubles and the sweeps sum
    their repulsion terms in them, one correctly rounded operation at a time,
    so the seeds and the roots are the same bits on every platform and under
    every caller precision."""

    SEEDS_SHA256 = {
        7: "3a32a8b6696763d6022d5f2d579e86e9fbb4f9f18384a7c92aa27ef1507d052d",
        40: "6b70f851e979182a77d4ea8b6e17bef1caa55e3e0d4df9ea03d1878348344f66",
        101: "5b66deb943f2b235fc7d231d18d9267cda13d718c87637c4bb2b5730e6fba124",
    }

    @pytest.mark.parametrize("n", [7, 40, 101])
    def test_seed_bits_pinned(self, n):
        # the polished w = 1 - z of the swept half, as float.hex pairs, and
        # initial_points gives exactly 1 - w and its conjugate
        half = seeds._polish_in_doubles(n, seeds._saddle_seeds(n))
        text = ";".join(f"{x.hex()},{y.hex()}" for x, y in half)
        assert sha256(text.encode()).hexdigest() == self.SEEDS_SHA256[n]
        with mp.workprec(160):
            assert initial_points(n)[n // 2 :] == [mpc(1 - mpf(x), -y) for x, y in half]

    SEED_CONSTANTS_HEX = {
        1: (
            "0x1.0000000000000p+0", "-0x0.0p+0", "-0x1.8a2345cc04426p-2",
            "0x0.0p+0", "0x1.68f4583f4ebe6p+2", "0x1.46a60e8868424p+1",
        ),
        2: (
            "-0x1.ffffffffffffep-1", "0x0.0p+0", "-0x0.0p+0",
            "-0x1.8a2345cc04425p-2", "0x1.fe777a3eb8d57p+2", "0x1.0c4e1a45dd1c7p+1",
        ),
        7: (
            "0x1.3f3a0e28bedd2p-1", "0x1.904c37505de4bp-1", "-0x1.8a2345cc04426p-2",
            "0x0.0p+0", "0x1.dd7f754566599p+3", "0x1.6d68133ed817cp+0",
        ),
        40: (
            "0x1.f9b24942fe45cp-1", "0x1.4060b67a85375p-3", "-0x1.88ec3bde427dbp-2",
            "-0x1.eec77378b0195p-6", "0x1.1d5c0c7ad8748p+5", "0x1.184d0e314951ap+0",
        ),
        101: (
            "0x1.ff027435e72aep-1", "0x1.fd4b2df250fd1p-5", "-0x1.8a2345cc04426p-2",
            "0x0.0p+0", "0x1.c571857adae2ep+5", "0x1.0ab654b9ac20bp+0",
        ),
    }

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 101])
    def test_seed_constant_bits_pinned(self, n):
        # rot, r u0, kr and v of _saddle_seeds, from + - * / and math.sqrt
        # on doubles alone: a platform whose doubles round otherwise, or a
        # libm call slipped in, shows here first
        got = tuple(x.hex() for x in seeds._seed_constants(n))
        assert got == self.SEED_CONSTANTS_HEX[n]

    def test_seeds_use_neither_mpmath_nor_libm(self):
        # one check over the module's source and namespace, not over a list
        # of its functions
        def imports(module):
            found = {}
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Import):
                    found.update((a.name, None) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    names = found.setdefault("." * node.level + (node.module or ""), set())
                    names.update(a.name for a in node.names)
            return found

        # seeds.py imports math and exact alone, so nothing from mpmath,
        # rootfinder or numerics, and of math by name only sqrt and constants
        found = imports(seeds)
        assert set(found) == {"__future__", "math", ".exact"}, found
        assert isinstance(found["math"], set), "math enters by name only"
        assert all(x == "sqrt" or type(getattr(math, x)) is float for x in found["math"]), found
        # exact, which it imports, has no mpmath either
        assert not any(m.startswith("mpmath") for m in imports(exact))
        for module in (seeds, exact):
            for name, obj in vars(module).items():
                owner = getattr(obj, "__module__", None) or ""
                assert obj is not mpmath and not owner.startswith("mpmath"), (module, name)
                assert module is exact or owner != "math" or obj is math.sqrt, name

    @pytest.mark.parametrize("n", [*range(1, 121), 200, 400, 760])
    def test_seeds_enter_mpmath_exactly(self, n):
        # initial_points(n)[n//2:] is 1 - w of the polished half to the last
        # bit, compared as Fractions, and the set is closed under conjugation
        def fraction(x):
            man, exp = x.man_exp
            return Fraction(man) * Fraction(2) ** exp

        pts = initial_points(n)
        got = [(fraction(z.real), fraction(z.imag)) for z in pts[n // 2 :]]
        assert got == [(1 - Fraction(x), -Fraction(y)) for x, y in seeds.polished_half(n)]
        assert _exactly_closed(pts)

    ROOTS_160_SHA256 = {
        7: "40b9071f2286c80688af725ad53bbcb3c5e0343d78d6a3087144c4d93cce8be7",
        40: "fb41885989fe9af1da81c72c66b4ce144671cffa82855843de8aaab11af1c4a5",
        101: "8d42d6ae73d8a021a992119c9ddd735ac3f3c2da88dafe92f7480d0958b58792",
    }

    @pytest.mark.parametrize("n", [7, 40, 101])
    def test_root_bits_pinned(self, n, root_cache):
        rs = root_cache([n])[n]
        assert rs.precision_used == 160
        assert _root_digest(rs) == self.ROOTS_160_SHA256[n]
        with mp.workprec(300):
            assert find_roots(build_polynomial(n)) == rs

    CERTIFICATE_160_SHA256 = {
        7: "774cfe51274b46de381ff86f4901e8fe7fa0e6cc5a2efde53b88516c4b718881",
        40: "f02b69c97283b383c42edb8bc78689e553d43383f8a559c77d6fb3c73040a2bb",
        101: "c602dca53f8d3473a2a01a8d3cefc7179648726f376fb0c44527be7759777dc6",
    }

    @pytest.mark.parametrize("n", [7, 40, 101])
    def test_certificate_bits_pinned(self, n, root_cache):
        # the residuals and radii are pinned to the bit, as the roots are
        rs = root_cache([n])[n]
        assert _certificate_digest(rs) == self.CERTIFICATE_160_SHA256[n]

    @pytest.mark.parametrize("n", [40, 101])
    def test_double_repulsion_against_exact_sum(self, n):
        # Each term 1/(z_i - z_j) takes a few correctly rounded operations
        # and the sum n - 2 more, so the double sum is within
        # (n + 8) 2^-52 sum |1/(z_i - z_j)| of the exact sum over the same
        # doubles, plus 2^-60 for the cut to the scale.
        bits = 160
        P = bits + rootfinder._GUARD
        doubles = []
        for z in initial_points(n):
            doubles.append(seeds._to_double(*numerics._to_fixed(to_mpc(z, bits), P), P))
        for i in (0, n // 3, n - 1):
            ar, ai = seeds._double_repulsion(doubles, i, P)
            zr, zi = (Fraction(v) for v in doubles[i])
            exact_r = exact_i = Fraction(0)
            mass = 0.0
            for j, (xr, xi) in enumerate(doubles):
                if j != i:
                    er, ei = zr - Fraction(xr), zi - Fraction(xi)
                    ee = er * er + ei * ei
                    exact_r, exact_i = exact_r + er / ee, exact_i - ei / ee
                    mass += float(ee) ** -0.5
            slack = Fraction((n + 8) * 2.0**-52 * mass + 2.0**-59)
            assert abs(Fraction(ar, 2**P) - exact_r) <= slack
            assert abs(Fraction(ai, 2**P) - exact_i) <= slack

    def test_coinciding_doubles_do_not_raise(self):
        # A swept root whose imaginary part is below 2^-60 has the same
        # double as its mirror, and two swept roots share one Gaussian
        # integer: every zero difference takes the finite stand-in.
        n, bits = 6, 160
        P = bits + rootfinder._GUARD
        half = []
        for z in initial_points(n)[n // 2 :]:
            x, y = numerics._to_fixed(z, P)
            half.append(((1 << P) - x, -y))  # w = 1 - z, as _aberth_family seeds them
        half[0] = (half[0][0], 1)
        half[1] = half[0]
        roots, status, _ = rootfinder._aberth_core(rootfinder._family_quotient(n, P), half, bits, 0)
        assert status in ("converged", "stall") and len(roots) == len(half)
        assert all(mpmath.isfinite(numerics._from_fixed(z, P, bits)) for z in roots)

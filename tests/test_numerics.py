"""Arbitrary-precision scalar layer: square-root branch, exact Horner."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, polyval

from lemnizeros.exact import build_polynomial
from lemnizeros.numerics import (
    PrecisionConfig,
    PrecisionExhaustedError,
    f_eval,
    principal_sqrt,
    to_mpc,
    to_mpf,
)

from conftest import exact_horner, fprime_factor

BITS = 128


def _newton_sqrt(z, bits):
    """Independent square-root oracle: Heron iteration from 1, which stays in
    the right half-plane and so converges to the principal branch."""
    with mp.workprec(bits + 16):
        z = mpc(z)
        x = mpc(1)
        for _ in range(200):
            nxt = (x + z / x) / 2
            done = abs(nxt - x) < mpf(2) ** (8 - bits) * abs(nxt)
            x = nxt
            if done:
                break
        return +x


class TestPrecisionConfig:
    def test_defaults(self):
        cfg = PrecisionConfig()
        assert (cfg.bits, cfg.max_bits) == (160, 4096)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(bits=32), dict(bits=63), dict(bits=256, max_bits=128)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionConfig(**kwargs)

    def test_escalation_clips_and_exhausts(self):
        cfg = PrecisionConfig(bits=128, max_bits=300)
        assert cfg.escalate(128) == 256
        assert cfg.escalate(256) == 300
        with pytest.raises(PrecisionExhaustedError):
            cfg.escalate(300)


class TestPrincipalSqrt:
    def test_one_maps_to_one(self):
        assert principal_sqrt(to_mpc(1, BITS), BITS) == 1

    def test_four_thirds(self):
        got = principal_sqrt(to_mpc(Fraction(4, 3), BITS), BITS)
        want = _newton_sqrt(to_mpc(Fraction(4, 3), BITS), BITS)
        assert abs(got - want) < mpf(2) ** (4 - BITS) * abs(want)

    def test_two_thirds_i(self):
        # sqrt((2/3) i) = (1 + i)/sqrt(3): Re(sqrt z) = 1/sqrt(3) exactly
        z = to_mpc(0, BITS, Fraction(2, 3))
        got = principal_sqrt(z, BITS)
        with mp.workprec(BITS):
            want = mpc(1, 1) / mp.sqrt(3)
        assert abs(got - want) < mpf(2) ** (4 - BITS)

    def test_cut_takes_upper_limit(self):
        for z in (mpc(-1, 0), mpc(-1, mpf("-0.0")), mpc(-4, 0)):
            got = principal_sqrt(z, BITS)
            assert got.real == 0 and got.imag > 0

    def test_square_recovers(self):
        rng = random.Random(77)
        with mp.workprec(BITS):
            for _ in range(100):
                z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if z.imag == 0:
                    continue
                s = principal_sqrt(z, BITS)
                assert abs(s * s - z) <= abs(z) * mpf(2) ** (1 - BITS) * 4
                assert s.real >= 0

    def test_conjugation_symmetry(self):
        rng = random.Random(78)
        with mp.workprec(BITS):
            for _ in range(50):
                z = mpc(rng.uniform(-3, 3), rng.uniform(0.01, 3))
                a = principal_sqrt(z, BITS)
                b = principal_sqrt(mpc(z.real, -z.imag), BITS)
                assert abs(mpc(a.real, -a.imag) - b) < mpf(2) ** (2 - BITS) * abs(a) * 4

    def test_zero(self):
        assert principal_sqrt(to_mpc(0, BITS), BITS) == 0


class TestEvalHorner:
    """Exact Gaussian-integer Horner evaluation of the family polynomial."""

    def test_value_at_origin_is_one(self):
        for n in (1, 5, 40):
            v, _, scale = exact_horner(build_polynomial(n), to_mpc(0, BITS))
            assert v == (scale, 0)

    def test_linear_root(self):
        # z = 2 is an exact root of 1 - z/2, where p' = -1/2
        v, d, scale = exact_horner(build_polynomial(1), to_mpc(2, BITS))
        assert v == (0, 0)
        assert (Fraction(d[0], scale), d[1]) == (Fraction(-1, 2), 0)

    def test_quadratic_root(self):
        with mp.workprec(BITS):
            y = mp.sqrt(mpf(7) / 3 - mpf(49) / 25)
            z = mpc(mpf(7) / 5, y)  # 128-bit approximation of the true root
        (vr, vi), _, scale = exact_horner(build_polynomial(2), z)
        assert 0 < abs(Fraction(vr, scale)) + abs(Fraction(vi, scale)) < Fraction(1, 2 ** (BITS - 4))

    @pytest.mark.parametrize("n", [3, 17, 50])
    def test_double_precision_agreement(self, n):
        # the exact value and a polyval at 2P agree within polyval's rounding
        rng = random.Random(n)
        p = build_polynomial(n)
        with mp.workprec(2 * BITS):
            cs = [to_mpf(c, 2 * BITS) for c in reversed(p.coefficients)]
            for _ in range(20):
                z = mpc(rng.uniform(-(n + 1), n + 1), rng.uniform(-(n + 1), n + 1))
                (vr, vi), _, scale = exact_horner(p, z)
                size = polyval([abs(c) for c in cs], abs(z))
                err = abs(polyval(cs, z) - mpc(mpf(vr) / scale, mpf(vi) / scale))
                assert err <= 8 * n * size * mpf(2) ** (-2 * BITS)


class TestStructure:
    def test_f_zeros(self):
        with mp.workprec(BITS):
            z = mpc(mpf(4) / 3)
            assert f_eval(z, mpc(0)) == 0
            inv = 1 / principal_sqrt(z, BITS)
            assert abs(f_eval(z, inv)) < mpf(2) ** (8 - BITS)
            saddle = 1 / principal_sqrt(3 * z, BITS)
            assert abs(fprime_factor(z, saddle)) < mpf(2) ** (8 - BITS)

    def test_f_real_for_real_arguments(self):
        v = f_eval(to_mpc(Fraction(5, 7), BITS), to_mpc(Fraction(2, 3), BITS))
        assert v.imag == 0

    @staticmethod
    def _structural_points(z):
        """Zeros {0, +-1/sqrt(z)} and saddles {+-1/sqrt(3z)} of f_z, checked
        to be zeros of f_eval and fprime_factor."""
        with mp.workprec(BITS):
            inv = 1 / principal_sqrt(z, BITS)
            inv3 = 1 / principal_sqrt(3 * z, BITS)
            zeros, saddles = (mpc(0), inv, -inv), (inv3, -inv3)
            assert all(abs(f_eval(z, t)) < mpf(2) ** (8 - BITS) for t in zeros)
            assert all(abs(fprime_factor(z, s)) < mpf(2) ** (8 - BITS) for s in saddles)
            return zeros, saddles

    def test_structural_points_unit(self):
        zeros, saddles = self._structural_points(to_mpc(1, BITS))
        zs = sorted(complex(z).real for z in zeros)
        assert zs == [-1.0, 0.0, 1.0]
        with mp.workprec(BITS):
            assert abs(abs(saddles[0]) - 1 / mp.sqrt(3)) < mpf(2) ** (8 - BITS)

    def test_structural_points_four_thirds(self):
        zeros, saddles = self._structural_points(to_mpc(Fraction(4, 3), BITS))
        mods = sorted(abs(complex(z)) for z in zeros)
        assert mods[0] == 0
        assert abs(mods[1] - 0.8660254037844386) < 1e-15
        assert sorted(abs(complex(s)) for s in saddles) == [0.5, 0.5]

    def test_cut_convention_at_minus_one(self):
        zeros, _ = self._structural_points(to_mpc(-1, BITS))
        # 1/sqrt(-1) = 1/i = -i under the upper-limit cut rule
        assert complex(zeros[1]) == -1j
        imags = sorted(complex(z).imag for z in zeros)
        assert imags == [-1.0, 0.0, 1.0]

"""Arbitrary-precision scalar layer: square-root branch, exact Horner."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, polyval
from mpmath.libmp import from_man_exp, from_rational

from lemnizeros.exact import build_polynomial, gamma_ratio_exact
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


class TestToMpc:
    """to_mpc rounds an mpc or mpf once; the oracle is the two-step rounding
    of each part through to_mpf."""

    @staticmethod
    def _two_step(x, bits):
        with mp.workprec(bits):
            if isinstance(x, mpc):
                return mpc(to_mpf(x.real, bits), to_mpf(x.imag, bits))
            return mpc(to_mpf(x, bits), to_mpf(0, bits))

    @staticmethod
    def _wide(width, rng):
        """A random mpf whose mantissa has exactly `width` bits."""
        man = rng.getrandbits(width - 1) | (1 << (width - 1)) | 1
        return mp.make_mpf((rng.getrandbits(1), man, rng.randint(-width - 20, 20 - width), width))

    @staticmethod
    def _mpc(re, im):
        """re + i im with both parts kept as they are (mpc() would round
        them to the global precision)."""
        return mp.make_mpc((re._mpf_, im._mpf_))

    @pytest.mark.parametrize("width", [53, 128, 400])
    @pytest.mark.parametrize("bits", [64, 128, 160])
    def test_one_rounding_equals_two_step(self, width, bits):
        rng = random.Random(width * 1000 + bits)
        for _ in range(50):
            re, im = self._wide(width, rng), self._wide(width, rng)
            for x in (self._mpc(re, im), re, self._mpc(re, mpf(0))):
                got = to_mpc(x, bits)
                assert isinstance(got, mpc)
                assert got._mpc_ == self._two_step(x, bits)._mpc_
                with mp.workprec(30):  # the caller's precision plays no part
                    assert to_mpc(x, bits)._mpc_ == got._mpc_

    @pytest.mark.parametrize("low", [(1 << 63) + 1, (1 << 63) + 2])
    def test_ties_round_half_to_even(self, low):
        # (2 low + 1) 2^-64 lies halfway between low 2^-63 and (low + 1) 2^-63
        tie = mp.make_mpf((0, 2 * low + 1, -64, 65))
        neg = mp.make_mpf((1, 2 * low + 1, -64, 65))
        even = low + (low & 1)
        with mp.workprec(64):
            want, want_neg = mpf(even) / 2**63, -mpf(even) / 2**63
        for x in (tie, self._mpc(tie, neg)):
            got = to_mpc(x, 64)
            assert got.real == want
            assert got.imag == (0 if x is tie else want_neg)
            assert got._mpc_ == self._two_step(x, 64)._mpc_

    def test_zero_imaginary_part_is_exact_zero(self):
        x = self._wide(400, random.Random(7))
        for arg in (x, self._mpc(x, mpf(0))):
            got = to_mpc(arg, 64)
            assert got.imag._mpf_ == mpf(0)._mpf_
            assert got.real._mpf_ == to_mpf(x, 64)._mpf_

    def test_python_numbers_and_fractions_unchanged(self):
        with mp.workprec(BITS):
            assert to_mpc(1.5 - 2j, BITS) == mpc(1.5, -2)
            assert to_mpc(Fraction(1, 3), BITS, Fraction(-2, 3)) == mpc(1, -2) / 3
            assert to_mpc(2, BITS) == 2

    @pytest.mark.parametrize("bits", [64, 128, 160])
    def test_libmp_rounding_equals_mpmath_constructors(self, bits):
        # to_mpf and to_mpc round with libmp; the oracle is mpmath's own
        # constructors under mp.workprec(bits), which round the same inputs
        # to nearest once
        rng = random.Random(bits)
        wides = [self._wide(400, rng) for _ in range(4)]
        reals = [0, -7, 3**300, -(5**200), 0.1, -2.5e-300, 1e300, "0.1", "-1.25e-40", *wides]
        with mp.workprec(30):  # the caller's precision plays no part
            for x in reals:
                with mp.workprec(bits):
                    want = mpf(x)._mpf_
                assert to_mpf(x, bits)._mpf_ == want
                assert to_mpc(x, bits)._mpc_ == (want, mpf(0)._mpf_)
                for im in (reals[3], reals[4], reals[7], wides[0]):
                    with mp.workprec(bits):
                        want_c = mpc(mpf(x), mpf(im))._mpc_
                    assert to_mpc(x, bits, im)._mpc_ == want_c
            for z in (0.1 - 3e-5j, complex(1e300, -0.0), self._mpc(wides[1], self._wide(300, rng))):
                with mp.workprec(bits):
                    want = mpc(z)._mpc_
                assert to_mpc(z, bits)._mpc_ == want

    @pytest.mark.parametrize("x", [mpc(1, 2), 1 + 2j])
    @pytest.mark.parametrize("imag", [3, 0])
    def test_complex_x_with_imag_rejected(self, x, imag):
        with pytest.raises(ValueError, match="imag must not be given"):
            to_mpc(x, BITS, imag)


def _nearest(p: int, q: int, bits: int):
    """p/q (q > 0) rounded to nearest at `bits`, ties to even, as a libmp
    tuple: the oracle of to_mpf on a Fraction, on integers alone."""
    if p == 0:
        return from_man_exp(0, 0)
    e = abs(p).bit_length() - q.bit_length() - bits
    while True:  # the quotient p / (q 2^e) in [2^(bits-1), 2^bits)
        num, den = (abs(p) << -e, q) if e < 0 else (abs(p), q << e)
        m, rem = divmod(num, den)
        if m < 1 << bits:
            break
        e += 1
    if 2 * rem > den or (2 * rem == den and m & 1):
        m += 1
    return from_man_exp(-m if p < 0 else m, e)


class TestToMpf:
    """to_mpf rounds a Fraction to nearest once, as libmp's from_rational,
    though numerator and denominator are wider than `bits`."""

    @pytest.mark.parametrize("bits", [64, 128, 160])
    def test_to_mpf_rounds_gamma_ratios_once(self, bits):
        for n in range(1, 200):  # parts up to 278 bits wide
            q = gamma_ratio_exact(n)
            want = from_rational(q.numerator, q.denominator, bits, "n")
            assert want == _nearest(q.numerator, q.denominator, bits)
            assert to_mpf(q, bits)._mpf_ == want

    @pytest.mark.parametrize("bits", [64, 128, 160])
    def test_to_mpf_rounds_wide_fractions_once(self, bits):
        rng = random.Random(bits)
        for _ in range(100):
            p = rng.getrandbits(rng.randint(200, 400)) * rng.choice((1, -1))
            x = Fraction(p, rng.getrandbits(rng.randint(200, 400)) | 1)
            want = from_rational(x.numerator, x.denominator, bits, "n")
            assert want == _nearest(x.numerator, x.denominator, bits)
            assert to_mpf(x, bits)._mpf_ == want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_to_mpf_tie_rounds_half_to_even(self, sign):
        # (2 m + 1) / 2^65 lies halfway between m / 2^64 and (m + 1) / 2^64
        for m in ((1 << 63) + 1, (1 << 63) + 2):
            x = Fraction(sign * (2 * m + 1), 1 << 65)
            even = m + (m & 1)
            want = from_man_exp(sign * even, -64)
            assert to_mpf(x, 64)._mpf_ == want == _nearest(x.numerator, x.denominator, 64)


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

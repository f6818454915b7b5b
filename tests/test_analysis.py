"""Campaign reports, convergence statistics, figure emission."""

import ast
import inspect
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from lemnizeros import analysis, cli, rootfinder
from lemnizeros.analysis import (
    convergence_report,
    figure_zero_plot,
    lemma_csv,
    lemma_reports,
    residual_slope,
    roots_report_csv,
    summary_csv,
)
from lemnizeros.exact import build_polynomial
from lemnizeros.geometry import branch_polyline, divides_and_level_field, level_field_csv
from lemnizeros.numerics import PrecisionConfig, to_mpc

# lemma_csv(lemma_reports(...)) for n = 2..60 at 160 bits: the lemmas.csv
# that `verify --n-range 2..60` writes
LEMMAS_SHA256 = "c3f9f79c1324cf6486658fd40cee4e6ccaa3aa3d07b060e9ffd27f68aced305c"


class TestVerifyLemmas:
    def test_small_degrees(self, root_cache):
        reports = lemma_reports(root_cache([3, 1, 2]))
        assert [r.n for r in reports] == [1, 2, 3]
        by_n = {r.n: r for r in reports}
        assert by_n[1].ek_disk == "boundary"  # |root| = 2 = n + 1 exactly
        assert by_n[2].ek_disk == "inside"
        assert by_n[3].ek_disk == "inside"
        assert all(r.root_count == r.n for r in reports)
        assert all(r.outside_unit_circle for r in reports)
        with mp.workprec(64):
            assert abs(by_n[2].min_real_part - mpf(7) / 5) < 1e-10
        assert all(r.vieta_enclosed for r in reports)

    def test_error_isolation(self):
        # the CLI's solve task returns the failure of degree 240, and the
        # report of degree 2 is made as if it ran alone
        cfg = PrecisionConfig(bits=64, max_bits=64)
        reports = lemma_reports({n: cli._solve(n, cfg) for n in (240, 2)})
        assert [r.n for r in reports] == [2, 240]
        assert reports[0].error is None and reports[0].root_count == 2
        assert reports[1].error is not None  # 64 bits cannot certify degree 240
        assert "64" in reports[1].error
        assert reports[1].root_count == 0 and reports[1].ek_disk == "violated"

    def test_verdicts_are_exact_at_the_dyadic_boundary(self):
        # Re z - r = 1 - 2^-130 is 1 when rounded to nearest at 64 bits, so
        # min_real_part must be rounded down; |z| + r = 2 = n + 1 exactly is
        # on the boundary of the disk, not inside it
        r = mpf(2) ** -130
        with mp.workprec(256):
            edge = mpc(2 - r, 0)
        low = rootfinder.RootSet(1, (mpc(1, 0),), (mpf(0),), (r,), 64, (False,))
        high = rootfinder.RootSet(1, (edge,), (mpf(0),), (r,), 256, (False,))
        (lo,), (hi,) = lemma_reports({1: low}), lemma_reports({1: high})
        assert lo.ek_disk == "inside" and hi.ek_disk == "boundary"
        assert not lo.outside_unit_circle  # |z| - r < 1
        assert lo.min_real_part < 1


    def test_min_real_part_is_the_smallest_rounded_difference(self, root_cache):
        # the exact minimum of Re z - r rounded down once equals the minimum
        # of the differences each rounded down, rounding being monotone
        solved = root_cache(range(1, 61))
        for rep in lemma_reports(solved):
            rs = solved[rep.n]
            with mp.workprec(rs.precision_used):
                want = min(
                    mp.fsub(z.real, r, rounding="d") for z, r in zip(rs.roots, rs.inclusion_radii)
                )
            assert rep.min_real_part._mpf_ == want._mpf_

    def test_min_real_part_keeps_its_sign(self, root_cache, monkeypatch, capsys):
        # the certified roots of n = 2 moved to -1.4 +- 0.611i: the bound is
        # Re z - r, sign included, so verify's re-gt-third check fails
        rs = root_cache([2])[2]
        moved = replace(rs, roots=tuple(mpc(-z.real, z.imag) for z in rs.roots))
        (rep,) = lemma_reports({2: moved})
        assert rep.min_real_part < mpf("-1.39")
        monkeypatch.setattr(cli, "find_roots", lambda p, cfg: moved)
        assert cli.main(["verify", "--n", "2", "--workers", "1"]) == 1
        assert any(line.startswith("FAIL re-gt-third: ") for line in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("bits", [64, 160])
    def test_vieta_enclosed_at_every_degree(self, bits, root_cache):
        cfg = PrecisionConfig(bits=bits)
        solved = root_cache(range(1, 121)) if bits == 160 else {
            n: rootfinder.find_roots(build_polynomial(n), cfg) for n in range(1, 121)
        }
        assert all(r.vieta_enclosed for r in lemma_reports(solved))

    def test_vieta_needs_disjoint_disks(self, root_cache):
        # one root of a conjugate pair doubled keeps every modulus, so the
        # product still encloses (3n+1)/(n+1), but two disks overlap and one
        # zero is in none: the verdict is False
        rs = root_cache([4])[4]
        twin = next(z for z in rs.roots if z.imag < 0)
        with mp.workprec(rs.precision_used):
            roots = [mpc(twin.real, -twin.imag) if z == twin else z for z in rs.roots]
        doubled = rootfinder.certify(build_polynomial(4), roots, rs.precision_used)
        assert sum(doubled.overlaps) == 2
        (rep,) = lemma_reports({4: doubled})
        assert not rep.vieta_enclosed
        (cleared,) = lemma_reports({4: replace(doubled, overlaps=(False,) * 4)})
        assert cleared.vieta_enclosed

    @pytest.mark.parametrize("n", [2, 12, 29])
    def test_vieta_fails_on_a_moved_root(self, n, root_cache):
        # 1e-30 relative is far outside a 160-bit radius, which is kept
        rs = root_cache([n])[n]
        with mp.workprec(rs.precision_used):
            moved = (rs.roots[0] * (1 + mpf("1e-30")),) + rs.roots[1:]
        (rep,) = lemma_reports({n: replace(rs, roots=moved)})
        assert rep.error is None and rep.ek_disk == "inside" and not rep.vieta_enclosed

    @pytest.mark.parametrize("n", [12, 29, 48])
    def test_lemma_row_survives_a_one_ulp_move(self, n, root_cache):
        # each conjugate pair in turn moved by 1 ulp in its real part and
        # certified again: every column is a verdict or a value printed to
        # 20 digits, so the row keeps its bytes
        rs = root_cache([n])[n]
        bits, row = rs.precision_used, lemma_csv(lemma_reports({n: rs}))
        with mp.workprec(bits):
            pairs = [(z.real, z.imag) for z in rs.roots if z.imag > 0]
        for x, y in pairs:
            with mp.workprec(bits):
                man, exp = x.man_exp
                x2 = x + mpf(2) ** (exp + man.bit_length() - bits)
                roots = [mpc(x2, z.imag) if z.real == x and abs(z.imag) == y else z for z in rs.roots]
            again = rootfinder.certify(build_polynomial(n), roots, bits)
            assert again.roots != rs.roots and again.disks_disjoint()
            assert lemma_csv(lemma_reports({n: again})) == row

    def test_lemmas_csv_bytes_pinned(self, root_cache):
        text = lemma_csv(lemma_reports(root_cache(range(2, 61))))
        assert sha256(text.encode()).hexdigest() == LEMMAS_SHA256

    def test_lemma_report_has_one_arithmetic(self):
        # the verdicts run on the roots' integers; mpmath only rounds the
        # two reported values at the end
        tree = ast.parse(inspect.getsource(analysis._lemma_report))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "mp"}
        from_mpmath = {name for name in names
                       if getattr(getattr(analysis, name, None), "__module__", "").startswith("mpmath")}
        assert from_mpmath <= {"from_man_exp", "mpf_sqrt", "mp"}
        assert attrs == {"make_mpf"}


class TestConvergence:
    def test_reports_shrink_with_n(self, root_cache):
        reports = convergence_report(root_cache([6, 12]), branch_samples=256)
        assert [r.n for r in reports] == [6, 12]
        assert reports[1].median_value_residual < reports[0].median_value_residual
        for rep in reports:
            assert len(rep.per_zero) == rep.n
            assert all(d.branch_distance < mpf("0.5") for d in rep.per_zero)
            assert rep.max_value_residual >= rep.median_value_residual
            with mp.workprec(64):
                assert rep.min_real_part > mpf(1) / 3

    def test_max_modulus_is_correctly_rounded(self, root_cache):
        # the square root of the largest exact |z|^2, rounded to nearest once,
        # in summary.csv as in lemmas.csv; mpmath's abs rounds |z|^2 first
        # and is one ulp off here
        want = mp.make_mpf(from_man_exp(500080953234530077675562037808928913266794148933, -158))
        (rep,) = convergence_report(root_cache([30]), branch_samples=64)
        (lemma,) = lemma_reports(root_cache([30]))
        assert rep.precision_used == 160
        assert rep.max_modulus.man_exp == lemma.max_modulus.man_exp == want.man_exp

    def test_theta_statistics(self, root_cache):
        (rep,) = convergence_report(root_cache([12]), branch_samples=256)
        thetas = [d.theta for d in rep.per_zero if d.theta is not None]
        assert len(thetas) + rep.excluded_near_pinch == 12
        assert rep.theta_gap_ratio is not None and 1 <= rep.theta_gap_ratio < 2

    def test_branch_distance_falls_back_to_the_vertex_near_the_pinch(self):
        # |(1 - z)(1 - 3z)| < 1/10 at z = 1/3 + 0.02: the Newton projection
        # degenerates there, so the nearest vertex, the pinch, stands
        polyline = [complex(v) for v in branch_polyline(64)]
        z = to_mpc(Fraction(1, 3) + Fraction(1, 50), 128)
        d = analysis._branch_distance(z, polyline, 128)
        assert d == mpf(min(abs(complex(z) - v) for v in polyline)) == mpf(abs(complex(z) - 1 / 3))

    def test_slope_is_negative(self, root_cache):
        reports = convergence_report(root_cache([6, 12, 24]), branch_samples=256)
        slope = residual_slope(reports)
        assert slope is not None and slope < 0

    def test_csv_emission_deterministic(self, root_cache):
        roots = root_cache([6, 12])
        reports = convergence_report(roots, branch_samples=256)
        a = roots_report_csv(reports, roots)
        b = roots_report_csv(reports, roots)
        assert a == b
        lines = a.strip().split("\n")
        assert len(lines) == 1 + 6 + 12
        s = summary_csv(reports)
        assert s.startswith("n,max_value_residual,median_value_residual,")
        assert len(s.strip().split("\n")) == 3


class TestReportsNeverSolve:
    """The reports take certified root sets and never call the solver."""

    def test_reports_use_the_given_roots(self, root_cache, monkeypatch):
        roots = root_cache([12, 6])

        def no_solve(*args, **kwargs):
            raise AssertionError("a report solved again")

        assert not hasattr(analysis, "find_roots")
        monkeypatch.setattr(rootfinder, "find_roots", no_solve)
        reports = convergence_report(roots, branch_samples=64)
        assert [r.n for r in reports] == [6, 12]
        for rep in reports:
            assert [d.root for d in rep.per_zero] == list(roots[rep.n].roots)
        svg, _ = figure_zero_plot(roots, branch_samples=64)
        assert svg.count("<g id=") == 2
        assert svg.index('<g id="panel-n6">') < svg.index('<g id="panel-n12">')


class TestFigures:
    def test_zero_plot_panels_and_markers(self, root_cache):
        ns = [5, 10]
        svg, csv_text = figure_zero_plot(root_cache(ns), branch_samples=128)
        assert svg.count("<g id=") == 2
        panel5 = svg.split('<g id="panel-n5">')[1].split("</g>")[0]
        panel10 = svg.split('<g id="panel-n10">')[1].split("</g>")[0]
        assert panel5.count("<circle") == 5
        assert panel10.count("<circle") == 10
        rows = csv_text.strip().split("\n")
        assert rows[0] == "n,kind,re,im"
        # per degree: the polyline (samples + pinch closure) and n root rows
        assert sum(1 for r in rows if r.startswith("5,root,")) == 5
        assert sum(1 for r in rows if r.startswith("10,root,")) == 10

    def test_zero_plot_deterministic(self, root_cache):
        # the same bytes whatever the caller's working precision: the CSV
        # rounds each coordinate to 53 bits itself
        ns = [5, 10]
        a = figure_zero_plot(root_cache(ns), branch_samples=64)
        with mp.workprec(200):
            b = figure_zero_plot(root_cache(ns), branch_samples=64)
        assert a == b

    def test_zero_plot_branch_at_geometry_precision(self, root_cache):
        # the branch is a plotting aid: it is drawn at geometry's 128 bits,
        # not at the root solver's working precision
        ns = [5]
        _, csv_text = figure_zero_plot(root_cache(ns), 1024)
        got = [r.split(",")[2:] for r in csv_text.strip().split("\n") if r.startswith("5,branch,")]
        want = [[analysis._f(v.real), analysis._f(v.imag)] for v in branch_polyline(1024)]
        assert got == want

    def test_level_curail_csv(self):
        # the coordinates are the points where |f| was sampled, at the
        # field's precision, whatever the caller's working precision
        text = level_field_csv(divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 16))
        lines = text.strip().split("\n")
        assert len(lines) == 3 + 256
        assert lines[4].startswith("-1.3,-1.5,")  # t = -3/2 + 3/15
        with mp.workprec(200):
            assert level_field_csv(divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 16)) == text

    def test_lemma_csv_shape(self, root_cache):
        reports = lemma_reports(root_cache([2, 3]))
        text = lemma_csv(reports)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("2,2,inside,true,")

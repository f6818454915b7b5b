"""The integral machinery: steepest paths, deformation, Stirling term.

The degree-n member equals (n+1) times the integral of f_z(t)^n over [0,1]
with f_z(t) = t(1 - z t^2).  Off the basin boundary that contour deforms
into a straight segment to 1/sqrt(z) (evaluated in closed form by a rational
Gamma ratio) plus a steepest-ascent tail traced from the implicit equation
t(1 - zt^2) = r(1 - z).  The script shows the pieces reassembling the whole,
the Stirling approximation tightening like 1/n, and the 1/6 lower bound that
keeps zeros away from the half-plane Re(z) < 1/3.
"""

from fractions import Fraction

from mpmath import mp, nstr

from lemnizeros import (
    halfplane_bound_check,
    integral_full,
    segment_integral,
    tail_integral,
    trace_path,
)

bits = 128
z = Fraction(4, 3)
path = trace_path(z, bits=bits)
print(f"steepest path at z = {z}: t(0) = {nstr(path.start_point, 16)} "
      f"({path.start_label}), {len(path.quad)} quadrature samples")

print("\ndeformation identity  segment + tail = full/(n+1):")
print(f"{'n':>4} {'segment':>14} {'tail':>14} {'recombined':>14} {'full/(n+1)':>14}")
with mp.workprec(bits):
    for n in (1, 5, 15, 30):
        seg = segment_integral(n, z, bits)
        tail = tail_integral(n, path)
        full = integral_full(n, z, bits) / (n + 1)
        print(f"{n:>4} {nstr(seg.real, 6):>14} {nstr(tail.real, 6):>14} "
              f"{nstr((seg + tail).real, 6):>14} {nstr(full.real, 6):>14}")

print("\nStirling leading term (2/sqrt(27))^n sqrt(2 pi) / (3 sqrt(n)) vs the exact")
print("segment integral at z = 1:")
with mp.workprec(bits):
    previous = None
    for n in (10, 40, 160, 640):
        stirling = (2 / mp.sqrt(27)) ** n * mp.sqrt(2 * mp.pi) / (3 * mp.sqrt(n))
        ratio = segment_integral(n, 1, bits) / stirling
        print(f"  n = {n:>4}: ratio = {nstr(ratio.real, 10)}   |ratio - 1| ~ {nstr(abs(ratio - 1), 3)}")
        # the first omitted term is O(1/n): a fourfold n cuts the error by more than half
        assert previous is None or abs(ratio - 1) < previous / 2
        previous = abs(ratio - 1)

print("\nhalf-plane bound at a zero-basin point (Re(z) < 1/3):")
w = complex(-1, 0.5)
verdict = halfplane_bound_check(w, trace_path(w, bits=bits))
print(f"  z = {w}: min Re[(1-zt^2)t/(1-3zt^2)] on r in [0.9, 1] = "
      f"{nstr(verdict.min_real, 6)} > 1/6  ({verdict.samples_checked} samples)")

"""Steepest-ascent path continuation and the integral representations.

The polynomial admits the representation (n+1) * integral over [0,1] of
f_z(t)^n dt with f_z(t) = t(1 - z t^2).  Everything in this module feeds on
that: full-interval quadrature, the exact Beta/Gamma closed form of the
piece from 0 to 1/sqrt(z), the Stirling leading term, and the remaining
piece along the curve of constant arg f_z, parametrized implicitly by

    t (1 - z t^2) = r (1 - z),    0 <= r <= 1,  t(1) = 1.

The path is traced by predictor-corrector continuation in r from 1
downward (Allgower and Georg, Numerical Continuation Methods, 1990): each
sample is the Newton solution of the implicit equation at its r, started
at the quadratic through the last three samples extrapolated to that r,
and takes at least one Newton step before its convergence test.  The
extrapolation weights depend only on the r-nodes, so they are built once
per (steps, bits), beside the nodes (_path_predictor).  The Newton steps
run in fixed point on Gaussian integers at one shared scale 2^-(bits+16),
like the Aberth sweeps of rootfinder: z, r(1 - z) and the tolerances
enter the scale once, a step is integer multiplies, shifts and one floor
division, and the 16 guard bits keep the floor rounding far below the
noise floor 2^(16-bits) of the convergence test.  The samples stay on
that scale: a path keeps t and the tail integrand g at each r-node as
Gaussian integers, and rounds them to `bits` only where a caller reads its
mpc views (SteepestPath.quad and .samples).  Sample placement doubles as
quadrature: the r-nodes are composite Gauss-Legendre panels refined
geometrically toward r = 1, where the factor r^(n-1) concentrates; the tail
integral is then a weighted sum over the stored samples at spectral
accuracy, taken on their integers and rounded once (_bare_tail_sum), and
the half-plane check takes its minimum on them too (halfplane_bound_check).
The full-interval quadrature, the independent side of the deformation
identity, runs on integers as well: z and f_z(t) at each Legendre node
enter exactly as Gaussian integers, f_z(t)^n comes from the cut power
numerics._power with guard bits, and the weighted sum is rounded to the
working precision once (integral_full).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    fzero,
    mpc_abs,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub,
)

from .exact import gamma_ratio_exact
from .geometry import BOUNDARY, ZERO_BASIN, basin_classify
from .numerics import (
    _finite,
    _fixed_div,
    _from_fixed,
    _mpc_parts,
    _mpf_to_fixed,
    _power,
    _to_fixed,
    principal_sqrt,
    to_mpc,
    to_mpf,
)
from .quadrature import legendre_rule

DEFAULT_BITS = 128
DEFAULT_STEPS = 512
_PANEL_NODES = 8
_GEOMETRIC_DEPTH_CAP = 16
_HALFPLANE_WINDOW = (0.9, 1.0)  # r-range of halfplane_bound_check
_GUARD = 16  # fixed-point bits kept below 2^-bits by the path continuation
_ONE = (fone, fzero)  # 1 as a libmp complex


class PathError(RuntimeError):
    """Base for path-tracing and path-quadrature failures."""


class SaddleProximityError(PathError):
    """The path ran into a continental divide (1 - 3zt^2 ~ 0)."""


class EndpointMismatchError(PathError):
    """The traced path did not land on the basin-predicted endpoint."""


class PathResolutionError(PathError):
    """The stored samples cannot resolve the r^(n-1) boundary layer."""


@dataclass(frozen=True)
class SteepestPath:
    """Sampled solution t(r) of the implicit path equation.

    nodes is the shared _path_nodes(steps, bits) tuple of interior r-nodes
    (r, w, r at the scale), ascending in r, with w the Gauss-Legendre weight
    for integration in r.  fixed holds one pair (t, g) per node: the sample
    t and the tail integrand g = (1 - zt^2) t / (1 - 3zt^2) there, both
    Gaussian integers at the path's scale 2^-(bits+_GUARD), unrounded.
    start_point is t(0) rounded to `bits`, and start_label records which
    zero of f_z the path emanates from ("inv-sqrt-z" or "zero").

    quad and samples are mpc views, rounded to `bits` when first read and
    then kept: quad is (r, t, w, g) node by node, samples runs from
    (0, t(0)) through the nodes to (1, 1) with r strictly increasing.
    Equality compares the fields, so the unrounded integers, not the views;
    _tail_sums memoises _bare_tail_sum per degree and takes no part in it.
    """

    z: mpc
    nodes: tuple[tuple[mpf, mpf, int], ...]
    fixed: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    start_point: mpc
    start_label: str
    path_tol: mpf
    bits: int
    _tail_sums: dict[int, mpc] = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def quad(self) -> tuple[tuple[mpf, mpc, mpf, mpc], ...]:
        S = self.bits + _GUARD
        return tuple(
            (r, _from_fixed(t, S, self.bits), w, _from_fixed(g, S, self.bits))
            for (r, w, _), (t, g) in zip(self.nodes, self.fixed)
        )

    @cached_property
    def samples(self) -> tuple[tuple[mpf, mpc], ...]:
        interior = tuple((r, t) for r, t, _, _ in self.quad)
        return ((mpf(0), self.start_point),) + interior + ((mpf(1), mpc(1)),)

    @cached_property
    def _one_minus_z(self) -> tuple:
        return mpc_sub(_ONE, self.z._mpc_, self.bits, "n")

    def implicit_residual(self, r: mpf, t: mpc) -> mpf:
        """|t(1 - zt^2) - r(1 - z)| at `bits`: the operations of
        abs(f_eval(z, t) - r * (1 - z)) under mp.workprec(bits), in their
        order and each rounded to nearest, on the libmp tuples, with 1 - z
        computed once per path."""
        p, z, t = self.bits, self.z._mpc_, t._mpc_
        u = mpc_sub(_ONE, mpc_mul(mpc_mul(z, t, p, "n"), t, p, "n"), p, "n")
        f = mpc_mul(t, u, p, "n")
        return mp.make_mpf(mpc_abs(mpc_sub(f, mpc_mul_mpf(self._one_minus_z, r._mpf_, p, "n"), p, "n"), p, "n"))


def _panel_breakpoints(steps: int):
    """Panel edges on [0,1]: uniform on [0, 1/2], halving toward 1.

    `steps` is the target number of interior quadrature nodes; panels hold
    _PANEL_NODES nodes each.  The geometric tail ends at 1 - 2^-depth.  Wide
    panels at the head of the geometric cascade are subdivided to width at
    most 1/64: with 8-point panels the truncation error scales like the 16th
    power of panel width over analyticity distance, and the implicit branch
    t(r) can have complex-r branch points within O(1) of the interval.
    """
    panels = max(2, steps // _PANEL_NODES)
    depth = min(_GEOMETRIC_DEPTH_CAP, panels - 1)
    uniform = panels - (depth - 1)
    coarse = [Fraction(j, 2 * uniform) for j in range(uniform + 1)]  # 0 .. 1/2
    for j in range(2, depth + 1):
        coarse.append(1 - Fraction(1, 2**j))
    coarse.append(Fraction(1))
    cap = max(Fraction(1, 64), Fraction(1, 2 * uniform))
    bps = [coarse[0]]
    for a, b in zip(coarse[:-1], coarse[1:]):
        pieces = max(1, -((a - b) // cap))  # ceil((b-a)/cap)
        for i in range(1, pieces + 1):
            bps.append(a + (b - a) * Fraction(i, pieces))
    return bps


@lru_cache(maxsize=None)
def _path_nodes(steps: int, bits: int) -> tuple[tuple[mpf, mpf, int], ...]:
    """trace_path's quadrature nodes (r, weight, r at scale
    2^-(bits+_GUARD)), ascending in r: the _PANEL_NODES-point Legendre rule
    mapped onto each panel of _panel_breakpoints(steps) at `bits`."""
    rule = legendre_rule(_PANEL_NODES, bits)
    bps = _panel_breakpoints(steps)
    P = bits + _GUARD
    nodes = []
    with mp.workprec(bits):
        for a, b in zip(bps[:-1], bps[1:]):
            mid = to_mpf((a + b) / 2, bits)
            rad = to_mpf((b - a) / 2, bits)
            for x, w in rule:
                r = mid + rad * x
                nodes.append((r, rad * w, _mpf_to_fixed(r._mpf_, P)))
    return tuple(nodes)


@lru_cache(maxsize=None)
def _path_predictor(steps: int, bits: int) -> tuple[tuple[int, int, int], ...]:
    """trace_path's predictor weights at scale 2^-(bits+_GUARD), one triple
    per Newton solve in the order of the trace: the r-nodes of
    _path_nodes(steps, bits) descending, then r = 0.  Triple k holds the
    Lagrange weights that extrapolate the last three converged samples (the
    newest first) to the k-th r; the trace starts from t(1) = 1, so the
    first solve takes that value and the second the line through it and the
    first sample.  The weights are exact ratios of the fixed-point r-nodes,
    floored to the scale."""
    P = bits + _GUARD
    xs = [1 << P] + [rf for _, _, rf in reversed(_path_nodes(steps, bits))]
    weights = []
    for k, x in enumerate(xs[1:] + [0], 1):
        prev = xs[max(0, k - 3):k][::-1]
        triple = []
        for i, xi in enumerate(prev):
            num = den = 1
            for j, xj in enumerate(prev):
                if j != i:
                    num, den = num * (x - xj), den * (xi - xj)
            triple.append((num << P) // den)
        weights.append(tuple(triple + [0] * (3 - len(triple))))
    return tuple(weights)


def _extrapolate(weights, last, P: int) -> tuple[int, int]:
    """The predictor of trace_path: sum of weight times sample over the
    last three samples, Gaussian integers at scale 2^-P."""
    (a, b, c), ((xr, xi), (yr, yi), (ur, ui)) = weights, last
    return (a * xr + b * yr + c * ur) >> P, (a * xi + b * yi + c * ui) >> P


def trace_path(
    z,
    steps: int = DEFAULT_STEPS,
    path_tol=None,
    bits: int = DEFAULT_BITS,
) -> SteepestPath:
    """Trace t(r) for r from 1 down to 0 and return the sampled path.

    Preconditions: z is finite and not 1 (the parametrization degenerates:
    f_z(1) = 0), z is not a negative real (the branch cut of sqrt(z) and of
    the basin test), z is not on the basin boundary (the path would run
    along a divide), steps is at least 1, and path_tol, when given, is
    positive.  The endpoint t(0) must land on the basin prediction:
    1/sqrt(z) in the inv-sqrt-z basin, 0 in the zero basin; z = 0 is allowed
    and gives the trivial path t = r.

    Newton at each r starts at the quadratic through the last three
    samples (the first two solves, which follow t(1) = 1, take the constant
    and the line), always takes one step, and then stops once
    |t(1-zt^2) - r(1-z)| is at most max(path_tol |1-z| r, 2^(16-bits) (1+|z|)).
    It raises SaddleProximityError when |1-3zt^2| falls below 10 path_tol
    or 80 steps do not converge; both tests compare squared moduli.  The
    forced step keeps a start that already passes the test from being
    returned unrefined: the next extrapolation would carry its error on,
    and at z = 0 the samples would drift 3.8e-31 off t = r.  The steps run
    on Gaussian integers at the scale 2^-(bits+_GUARD), each sample t and
    its tail integrand g stay there, and only t(0) is rounded to `bits`, for
    the endpoint test; so the samples do not depend on the caller's mp.prec.
    The r-nodes, their quadrature weights and the extrapolation weights
    depend only on (steps, bits): _path_nodes and _path_predictor build them
    once, and every path with those arguments reads the same tuples.
    """
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        if not _finite(z._mpc_):
            raise ValueError("trace_path: z must be finite")
        if z == 1:
            raise ValueError("trace_path: z = 1 degenerates (f_z(1) = 0)")
        if z.imag == 0 and z.real < 0:
            raise ValueError("trace_path: z on the branch cut (a negative real)")
        if steps < 1:
            raise ValueError(f"trace_path: steps must be >= 1, got {steps}")
        if path_tol is None:
            path_tol = mpf(2) ** (32 - bits)
        else:
            path_tol = mpf(path_tol)
            if not path_tol > 0:
                raise ValueError(f"trace_path: path_tol must be positive, got {mpmath.nstr(path_tol, 8)}")
        if z == 0:
            label, predicted = "zero", mpc(0)
        else:
            basin = basin_classify(z, bits)
            if basin == BOUNDARY:
                raise ValueError("trace_path: z lies on the basin divide")
            if basin == ZERO_BASIN:
                label, predicted = "zero", mpc(0)
            else:
                label, predicted = "inv-sqrt-z", 1 / principal_sqrt(z, bits)

        P = bits + _GUARD
        one = 1 << P
        zr, zi = _to_fixed(z, P)
        cr, ci = one - zr, -zi  # 1 - z, exact
        slope = _mpf_to_fixed((path_tol * abs(1 - z))._mpf_, P)
        noise = _mpf_to_fixed((mpf(2) ** (16 - bits) * (1 + abs(z)))._mpf_, P)
        saddle2 = _mpf_to_fixed((10 * path_tol)._mpf_, P) ** 2

        def correct(r, rf, t):
            # Newton from the predicted start t onto t(1-zt^2) = r(1-z),
            # with rf = r at scale 2^-P; one step is always taken before
            # the convergence test (see trace_path).  The tolerance scales
            # with r so the constant-argument property holds uniformly along
            # the path, floored at the evaluation noise of the residual
            # itself.  Returns t with f_z(t) and 1-3zt^2 there.
            gr, gi = (rf * cr) >> P, (rf * ci) >> P
            tol = max((slope * rf) >> P, noise)
            tol2 = tol * tol
            tr, ti = t
            for step in range(80):
                ar, ai = (tr * tr - ti * ti) >> P, (2 * tr * ti) >> P
                br, bi = (zr * ar - zi * ai) >> P, (zr * ai + zi * ar) >> P  # z t^2
                dr, di = one - 3 * br, -3 * bi
                if dr * dr + di * di < saddle2:
                    d = _from_fixed((dr, di), P, bits)
                    raise SaddleProximityError(
                        f"saddle proximity: |1-3zt^2| = {mpmath.nstr(abs(d), 8)} at r = {mpmath.nstr(r, 8)}"
                    )
                fr, fi = (tr * (one - br) + ti * bi) >> P, (ti * (one - br) - tr * bi) >> P
                er, ei = fr - gr, fi - gi
                if step and er * er + ei * ei <= tol2:
                    return (tr, ti), (fr, fi), (dr, di)
                qr, qi = _fixed_div(er, ei, dr, di, P)
                tr, ti = tr - qr, ti - qi
            raise SaddleProximityError(
                f"saddle proximity: correction failed to converge at r = {mpmath.nstr(r, 8)}"
            )

        fixed = []
        last = ((one, 0),) * 3  # the last three samples, the newest first
        nodes = _path_nodes(steps, bits)
        predictor = _path_predictor(steps, bits)
        for (r, _, rf), weights in zip(reversed(nodes), predictor):
            t, f, d = correct(r, rf, _extrapolate(weights, last, P))
            last = (t, last[0], last[1])
            fixed.append((t, _fixed_div(*f, *d, P)))
        fixed.reverse()

        # land on r = 0: Newton on f_z(t) = 0 itself
        t_end = _from_fixed(correct(mpf(0), 0, _extrapolate(predictor[-1], last, P))[0], P, bits)
        if abs(t_end - predicted) > 100 * path_tol:
            raise EndpointMismatchError(
                f"endpoint mismatch: t(0) = {mpmath.nstr(t_end, 12)}, "
                f"basin predicts {mpmath.nstr(predicted, 12)}"
            )
        return SteepestPath(z, nodes, tuple(fixed), t_end, label, path_tol, bits)


def path_csv(path: SteepestPath) -> str:
    """CSV (r, re_t, im_t, implicit_residual) over all stored samples."""
    lines = ["r,re_t,im_t,implicit_residual"]
    for r, t in path.samples:
        lines.append(
            f"{mpmath.nstr(r, 24)},{mpmath.nstr(t.real, 24)},"
            f"{mpmath.nstr(t.imag, 24)},{mpmath.nstr(path.implicit_residual(r, t), 8)}"
        )
    return "\n".join(lines) + "\n"


def integral_full(n: int, z, bits: int = DEFAULT_BITS) -> mpc:
    """(n+1) * Gauss-Legendre integral of f_z(t)^n over the real segment [0,1].

    Node count max(64, 2n) exceeds the exactness threshold for the degree-3n
    integrand, so the value differs from the exact value of the polynomial
    only by rounding; that identity is a primary cross-check.

    The sum runs on integers, like _bare_tail_sum.  z, rounded to `bits`
    once, enters as its own Gaussian integer Z 2^-k, k its fractional bits,
    as in rootfinder._bounded_horner.  A node x = X 2^(1-m) gives
    t = (x + 1)/2 = T 2^-m, T = X + 2^(m-1), and f = t (1 - z t^2) exactly:
    the Gaussian integer T 2^(k+2m) - Z T^3 with k + 3m fractional bits.
    f^n comes from numerics._power cut to W = bits + 16 + bit_length(n)
    bits, within n 2^(2-W) < 2^-(bits+14) relative.  Each w f^n is an exact
    product, and the N terms are floored at one exponent,
    bits + 17 + bit_length(N) bits below the leading bit of the largest,
    so together by less than 2^-(bits+15.5) of it.  The total times
    (n+1)/2 is rounded to `bits` once.  So with S the exact sum of w f^n
    over the rule's nodes and weights at the rounded z, and A the sum of
    w |f|^n, the result is within

        2^-bits (n+1)/2 |S| + 2^-(bits+13) (n+1)/2 A

    of (n+1)/2 S, and it does not depend on the caller's mp.prec.
    """
    if n < 1:
        raise ValueError("integral_full: n must be >= 1")
    zr, zi = _mpc_parts(z, bits)
    if not _finite((zr, zi)):
        raise ValueError("integral_full: z must be finite")
    rule = legendre_rule(max(64, 2 * n), bits)
    k = max(0, -zr[2], -zi[2])
    Zr, Zi = _mpf_to_fixed(zr, k), _mpf_to_fixed(zi, k)
    W = bits + 16 + n.bit_length()
    terms = []
    for x, w in rule:
        sign, man, exp, _ = x._mpf_  # x = +-man 2^exp in (-1, 1), not 0: the count is even
        m = 1 - exp
        T = (1 << -exp) + (-man if sign else man)
        T3 = T * T * T
        fr, fi, e = _power((T << (k + 2 * m)) - Zr * T3, -Zi * T3, n, k + 3 * m, W)
        _, wm, we, _ = w._mpf_
        terms.append((wm * fr, wm * fi, we + e))
    E = max((abs(a) | abs(b)).bit_length() + e for a, b, e in terms) - (bits + 17 + len(terms).bit_length())
    total_r = total_i = 0
    for a, b, e in terms:
        if e >= E:
            total_r, total_i = total_r + (a << (e - E)), total_i + (b << (e - E))
        else:
            total_r, total_i = total_r + (a >> (E - e)), total_i + (b >> (E - e))
    return mp.make_mpc(tuple(from_man_exp((n + 1) * v, E - 1, bits, "n") for v in (total_r, total_i)))


def segment_integral(n: int, z, bits: int = DEFAULT_BITS) -> mpc:
    """Integral of f_z^n from 0 to 1/sqrt(z), in closed form:
    (1 / (2 (sqrt z)^(n+1))) times the Gamma ratio, which is rational for
    every n (see exact.gamma_ratio_exact)."""
    if n < 1:
        raise ValueError("segment_integral: n must be >= 1")
    with mp.workprec(bits):
        z = to_mpc(z, bits)
        if not _finite(z._mpc_):
            raise ValueError("segment_integral: z must be finite")
        if z == 0:
            raise ValueError("segment_integral: z must be nonzero")
        if z.imag == 0 and z.real < 0:
            raise ValueError("segment_integral: z on the branch cut")
        ratio = to_mpf(gamma_ratio_exact(n), bits)
        return ratio / (2 * principal_sqrt(z, bits) ** (n + 1))


def _bare_tail_sum(n: int, path: SteepestPath) -> mpc:
    """Sum of w g r^(n-1), g = (1-zt^2) t / (1-3zt^2), over the stored
    quadrature samples; the caller applies any outer factors.  The sum is
    a function of n and the path alone, at path.bits, so it is computed
    once per degree and kept on the path: tail_integral and
    zero_equation_residual on one path share it.

    The sum runs on the path's integers and builds no view.  r^(n-1) is a
    binary power of the node's r at the path's scale 2^-S, S = path.bits +
    _GUARD, each product floored there (see _fixed_power); each term
    multiplies it by the mantissa of w and by g, read unrounded at 2^-S,
    exactly and floors the product at 2^-2S; the total is rounded to
    path.bits once.  So a term loses less than 2n 2^-S |w| |g| to the power
    and 2^(1-2S) to its floor, and against the exact sum of the stored
    (r, w, g), g at 2^-S, the result is off by at most 2^-bits |exact| plus
    (1 + 2^-bits) (2n 2^-S sum |w| |g| + 2^(1-2S) len(nodes)).  Against the
    g of the quad view, each rounded to path.bits, add
    2^-(bits+1) sum w r^(n-1) |g|.
    """
    if n in path._tail_sums:
        return path._tail_sums[n]
    if not path.nodes:
        raise PathResolutionError("path too coarse: no quadrature samples stored")
    with mp.workprec(path.bits):
        gap = 1 - path.nodes[-1][0]
        if gap > mpf(1) / (4 * n):
            raise PathResolutionError(
                f"path too coarse: resolution {mpmath.nstr(gap, 6)} near r = 1 "
                f"exceeds 1/(4n) = {mpmath.nstr(mpf(1) / (4 * n), 6)}"
            )
    S = path.bits + _GUARD
    total_r = total_i = 0
    for (_, w, rf), (_, (gr, gi)) in zip(path.nodes, path.fixed):
        p = _fixed_power(rf, n - 1, S)
        if not p:
            continue
        # w g r^(n-1) = w_man p g 2^(w_exp - 2S), floored at 2^-2S; the
        # weight w is positive and below 1, so w_exp < 0
        _, wm, we, _ = w._mpf_
        wp = wm * p
        total_r += (wp * gr) >> -we
        total_i += (wp * gi) >> -we
    total = _from_fixed((total_r, total_i), 2 * S, path.bits)
    path._tail_sums[n] = total
    return total


def _fixed_power(x: int, k: int, S: int) -> int:
    """x^k for 0 <= x <= 2^S at scale 2^-S, by binary powering with each
    product floored at the scale.  Over an addition chain the errors add,
    plus one floor per product, so the result is at most (k - 1) 2^-S below
    the exact power of x, and less than (2k - 1) 2^-S below that of a value
    whose floor x is."""
    p = 1 << S
    while k:
        if k & 1:
            p = (p * x) >> S
        k >>= 1
        if k:
            x = (x * x) >> S
    return p


def tail_integral(n: int, path: SteepestPath) -> mpc:
    """(1-z)^n times the r-integral along the traced path: the integral of
    f_z^n from the path start to 1.  Requires a path traced from 1/sqrt(z);
    together with segment_integral it must rebuild integral_full/(n+1)."""
    if n < 1:
        raise ValueError("tail_integral: n must be >= 1")
    if path.start_label != "inv-sqrt-z":
        raise ValueError("tail_integral: path must start at 1/sqrt(z)")
    with mp.workprec(path.bits):
        return (1 - path.z) ** n * _bare_tail_sum(n, path)


def zero_equation_residual(
    n: int,
    z,
    bits: int = DEFAULT_BITS,
    path: SteepestPath | None = None,
) -> tuple[mpc, mpc]:
    """Both sides of the asymptotic zero condition at z.

    lhs = (sqrt z)^(n+1) (1-z)^n * (bare r-integral along the path);
    rhs = -(2/sqrt 27)^n sqrt(2 pi) / (3 sqrt n).  At a true zero of the
    degree-n polynomial, lhs = rhs * (1 + O(1/n)).  A given path must be
    traced for z rounded to path.bits, and its r-integral carries path.bits.
    """
    if n < 1:
        raise ValueError("zero_equation_residual: n must be >= 1")
    with mp.workprec(bits):
        given, z = z, to_mpc(z, bits)
        if not z.real > mpf(1) / 3:
            raise ValueError("zero_equation_residual: requires Re(z) > 1/3")
        if z == 1:
            raise ValueError("zero_equation_residual: z = 1 is excluded")
        if path is None:
            path = trace_path(z, bits=bits)
        elif to_mpc(given, path.bits) != path.z:
            raise ValueError("zero_equation_residual: path was traced for a different z")
        bare = _bare_tail_sum(n, path)
        sz = principal_sqrt(z, bits)
        lhs = sz ** (n + 1) * (1 - z) ** n * bare
        rhs = -((2 / mp.sqrt(27)) ** n) * mp.sqrt(2 * mp.pi) / (3 * mp.sqrt(n))
        return lhs, rhs


@dataclass(frozen=True)
class HalfplaneVerdict:
    """Outcome of the lower-bound check Re{(1-zt^2) t / (1-3zt^2)} > 1/6.

    ok is sampled evidence: min_real is the least real part over the
    samples_checked Gauss nodes of the path with r in [0.9, 1], and ok says
    that it exceeds 1/6.  It is not a bound on the integrand between the
    nodes.
    """

    ok: bool
    min_real: mpf
    samples_checked: int


def halfplane_bound_check(z, path: SteepestPath) -> HalfplaneVerdict:
    """Check the 1/6 lower bound along the path at its Gauss nodes with r in
    [0.9, 1].

    Applies to z in the zero basin (Re(z) < 1/3 side): near r = 1 the
    integrand of the bare tail sum has real part exceeding 1/6, which is
    what keeps the polynomial from vanishing there.  The verdict's ok is
    evidence sampled at those nodes only, where the path's quadrature
    already evaluated the integrand; it does not bound the integrand
    between them.

    The check reads the path's integers and builds no view.  The window's
    ends enter the scale 2^-(bits+_GUARD) exactly, every r-node in [1/2, 1]
    is exact there and a node below the window stays below it when floored,
    so the nodes it selects are those with r in the window.  The least Re g
    is taken on the integers and rounded to path.bits alone; rounding is
    monotone, so min_real is the least real part of the quad view's g over
    the window.
    """
    if path.start_label != "zero":
        raise ValueError("halfplane_bound_check: path must start at t = 0")
    S = path.bits + _GUARD
    lo, hi = (_mpf_to_fixed(from_float(x), S) for x in _HALFPLANE_WINDOW)
    with mp.workprec(path.bits):
        z = to_mpc(z, path.bits)
        if z != path.z:
            raise ValueError("halfplane_bound_check: path was traced for a different z")
        window = [gr for (_, _, rf), (_, (gr, _)) in zip(path.nodes, path.fixed) if lo <= rf <= hi]
        if not window:
            raise ValueError("halfplane_bound_check: no samples in window")
        min_real = mp.make_mpf(from_man_exp(min(window), -S, path.bits, "n"))
        return HalfplaneVerdict(min_real > mpf(1) / 6, min_real, len(window))

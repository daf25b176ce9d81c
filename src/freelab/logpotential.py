"""Logarithmic energy, free entropy, and Euler-Lagrange diagnostics.

The log energy has three routes, chosen by the measure itself.

Carried series.  On the support [m - r, m + r], log|x - y| = log(r/2) -
sum_k (2/k) T_k(x') T_k(y') in the rescaled variables x' = (x - m)/r, so
E(mu) = log(r/2) - sum_k 2 c_k^2 / k with the Chebyshev moments c_k of mu:
a finite sum where mu carries its exact ``series`` (on a solve, the
solver's energy bit for bit).

Table series.  Otherwise integration by parts in the angle x' = cos(theta)
gives c_k = k int_0^pi sin(k theta) (G(theta) - theta/pi) dtheta, where G
is the angle distribution function; G is read off the quantile table at
2^14 uniform angles and all moments come from one DST-I.  The series is
accepted when its upper-half tail, sum over k >= 2^13 of 2 c_k^2 / k, is
below 1e-10; its error estimate is the Richardson difference against the
same series of the table decimated by two, divided by three, plus that tail.

Quadrature.  Where the series does not converge (interior cusps of the
density, atoms) or the support has zero width, the double integral runs in
quantile coordinates on cosine-graded cells, two Gauss-Legendre nodes per
cell.  Cells touching the diagonal use closed forms for the locally
linearized quantile function, which integrates the log singularity exactly.
The rest, the tensor sum of w_i w_j log|q_i - q_j| over node pairs more
than one cell apart, runs on a binary tree of index blocks: the nodes are
padded with zero-weight copies of the last one to a leaf of 32 nodes times
a power of two, and block pairs are halved from the whole square down.  A
pair whose x-gap exceeds the larger block's width is far; on it the kernel
is smooth, and the pair is summed as M_a^T K M_b, where M holds each
block's weighted Lagrange moments at 20 first-kind Chebyshev nodes of its
x-range and K is the log kernel between the two blocks' nodes.  Near pairs
split into their children; near leaf pairs are summed directly with the
band zeroed.  Only the upper triangle of block pairs is visited, the
off-diagonal ones counted twice.  The gap rule puts the nearest kernel
singularity outside the Bernstein ellipse of parameter 3 + sqrt(8) about
each block, so the interpolation error is of order (3 + sqrt(8))^-20, or
5e-16; against the same rule summed over the whole node square the tree
agrees to 3e-16 on the equilibria of the v1 potentials, their
u'-pushforwards and the closed-form laws, at 1 to 2048 cells.  The energy
is evaluated at full and half resolution and the difference feeds the
error estimate.  Measures with atoms have energy -inf, which this route
reports as nan: two adjacent cells of zero width give an atom away before
the kernel sum, and the half-resolution pass is then skipped.

Either way the error estimate lets downstream tolerances be chosen
honestly.

Log-Jacobian.  For a polynomial u', u'(x) - u'(y) = a (x - y) prod_j (x -
zeta_j(y)) gives log|a| + sum_j int U(zeta_j(y)) dmu(y), with the log
potential U(z) = log(r|phi|/2) - sum_k (2/k) c_k Re phi^-k at z' = (z - m)/r,
phi = z' + sqrt(z' - 1) sqrt(z' + 1) (Mason & Handscomb 2003; Saff & Totik
1997).  The y-integral runs in the angle against (1/pi)(1 + 2 sum c_k cos k
theta), by Gauss-Legendre on pieces split where u'' = 0 on the support, the
only places a root meets it; the moments stop once sum_{j > k} 2|c_j|/j is
below 1e-10, from the carried series where there is one.  Tables that need
more moments than the rule resolves, and other potentials, take the
log-energy gain of pushing mu forward through u'.

The Hilbert transform H mu(t) = (1/pi) PV int dmu(y) / (t - y) also has two
routes, and here the caller chooses.  Public `hilbert_transform` runs a
singularity subtraction in quantile coordinates on a cubic spline of the
quantile table, about a million spline evaluations for the 65 probes of
`euler_lagrange_residual`; it is accurate to about 1e-7 on any table.
Differentiating the log potential's Chebyshev series instead gives
H mu(t) = -(2/(pi r)) sum_k c_k sin(k phi) / sin(phi) at t = m + r cos(phi),
with the same moments c_k as the energy series, summed by a blocked sine
sum.  That series is exact only on tables whose rows lie on the uniform
angle grid, as the equilibrium solver's do: on the cosine-graded 8193-row
closed-form tables it errs by up to 8e-5.  So the public functions keep the
spline, and only the solver's own residual (`EquilibriumResult.el_residual`,
through `_series_euler_lagrange_residual`) takes the series, with the same
probes and subgradient band, 40 to 60 times faster.

Tolerance policy used throughout the test-suite:

* ``TOL_CLOSED_FORM``  : quantities with exact finite expressions
* ``TOL_SINGLE_QUAD``  : one quadrature (moments, potential integrals)
* ``TOL_DOUBLE_QUAD``  : one double log-kernel quadrature
* ``TOL_COMPOSED``     : several chained quadratures or a solve + quadrature
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._angle_series import ANGLES, chebyshev_moments, series_energy, series_of, sine_sum
from ._grids import (
    ENERGY_CELLS, GL2_T, GL2_W, GL4_T, GL4_W, chebyshev_angles, cosine_graded, gauss_legendre_01)
from .errors import InvalidInputError, SingularEvaluationError
from .measures import GridMeasure, moment, pushforward_monotone
from .potentials import Potential

__all__ = [
    "EnergyValue",
    "log_energy",
    "chi",
    "chi_rel",
    "chi_plus",
    "relative_entropy_semicircular",
    "integrate_potential",
    "hilbert_transform",
    "log_jacobian",
    "euler_lagrange_residual",
    "schwinger_dyson_residual",
    "TOL_CLOSED_FORM",
    "TOL_SINGLE_QUAD",
    "TOL_DOUBLE_QUAD",
    "TOL_COMPOSED",
]

TOL_CLOSED_FORM = 1e-8
TOL_SINGLE_QUAD = 1e-6
TOL_DOUBLE_QUAD = 2e-5
TOL_COMPOSED = 5e-4

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_TINY = 1e-300
# nodes per leaf block of the log-kernel sum, and the order of the Chebyshev
# interpolants that carry its far-apart block pairs
_LEAF = 32
_CHEB = 20
_CHEB_ANGLES = (2 * np.arange(_CHEB) + 1) * np.pi / (2 * _CHEB)
# first-kind Chebyshev nodes t_k on [-1, 1]; row m of _CHEB_LAGRANGE is
# (2 / p) T_m(t_k), halved at m = 0, since L_k(t) = sum_m (2 / p)' T_m(t_k) T_m(t):
# it takes a block's sums of w_i T_m(t_i) to its sums of w_i L_k(t_i)
_CHEB_T = np.cos(_CHEB_ANGLES)
_CHEB_LAGRANGE = np.cos(np.outer(np.arange(_CHEB), _CHEB_ANGLES)) * (2.0 / _CHEB)
_CHEB_LAGRANGE[0] *= 0.5
# 0 on the band |cell i - cell j| <= 1 of a leaf pair (a, a + d), d = 0, 1
_LEAF_KEEP = np.array([np.abs(np.arange(_LEAF)[:, None] // 2
                              - (np.arange(_LEAF) + d * _LEAF) // 2) > 1
                       for d in range(2)], dtype=float)
# interior points per batch of the Hilbert transform; bounds its temporaries
_HILBERT_BATCH = 8
# scipy.interpolate.CubicSpline, bound by hilbert_transform at its first
# interior point: nothing else needs scipy.interpolate
CubicSpline = None
# largest upper-half tail of sum 2 c_k^2 / k at which the series is accepted
_SERIES_TAIL = 1e-10
# Gauss-Legendre nodes per angle piece of log_jacobian's root route, and the
# most Chebyshev moments that route sums
_ROOT_NODES = 32


@dataclass(frozen=True)
class EnergyValue:
    """Scalar integral value with a resolution-doubling error estimate."""

    value: float
    error_est: float

    def __float__(self) -> float:
        return float(self.value)


def _kernel_sum(q: np.ndarray, w: np.ndarray) -> float:
    """Sum of w_i w_j log|q_i - q_j| over the node pairs more than one cell
    apart, node i lying in cell i // 2, by the block tree of the module
    docstring."""
    size = _LEAF
    while size < q.size:
        size *= 2
    pad = size - q.size
    q = np.concatenate([q, np.full(pad, q[-1])])
    w = np.concatenate([w, np.zeros(pad)])
    # block pairs (a, b) with a <= b; a pair a < b stands for its mirror too
    a = b = np.zeros(1, dtype=np.intp)
    total = 0.0
    while True:
        qb = q.reshape(-1, size)
        lo, hi = qb.min(axis=1), qb.max(axis=1)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        gap = np.maximum(lo[b] - hi[a], lo[a] - hi[b])
        far = gap > 2.0 * np.maximum(half[a], half[b])
        if np.any(far):
            # weighted Lagrange moments of each block at its Chebyshev nodes,
            # from its weighted Chebyshev sums; a block of padding has width 0
            t = ((qb - mid[:, None]) / np.where(half > 0.0, half, 1.0)[:, None]).ravel()
            cheb = np.empty((_CHEB, q.size))
            cheb[0], cheb[1] = 1.0, t
            t *= 2.0
            for m in range(2, _CHEB):
                np.multiply(t, cheb[m - 1], out=cheb[m])
                cheb[m] -= cheb[m - 2]
            cheb *= w
            moments = cheb.reshape(_CHEB, -1, size).sum(axis=2).T @ _CHEB_LAGRANGE
            xi = mid[:, None] + half[:, None] * _CHEB_T
            af, bf = a[far], b[far]
            kern = np.subtract(xi[af, :, None], xi[bf, None, :])
            np.abs(kern, out=kern)
            np.maximum(kern, _TINY, out=kern)
            np.log(kern, out=kern)
            total += 2.0 * float(np.sum((moments[af, None, :] @ kern)[:, 0, :] * moments[bf]))
        a, b = a[~far], b[~far]
        if size == _LEAF:
            break
        # the four children of each near pair, less the mirror (2a + 1, 2a)
        a = (2 * a[:, None] + np.array([0, 0, 1, 1])).ravel()
        b = (2 * b[:, None] + np.array([0, 1, 0, 1])).ravel()
        keep = a <= b
        a, b = a[keep], b[keep]
        size //= 2

    # near leaf pairs, directly, ordered by b - a: the band of a node reaches
    # only into its own leaf and the next
    order = np.argsort(b - a, kind="stable")
    a, b = a[order], b[order]
    kern = np.subtract(qb[a, :, None], qb[b, None, :])
    np.abs(kern, out=kern)
    np.maximum(kern, _TINY, out=kern)
    np.log(kern, out=kern)
    edges = np.searchsorted(b - a, [0, 1, 2])
    for d in range(2):
        kern[edges[d]:edges[d + 1]] *= _LEAF_KEEP[d]
    wb = w.reshape(-1, size)
    pair = ((wb[a, None, :] @ kern)[:, 0, :] * wb[b]).sum(axis=1)
    return total + float(np.sum(np.where(a == b, 1.0, 2.0) * pair))


def _energy_at(mu: GridMeasure, cells: int) -> float:
    ps = cosine_graded(cells)
    h = np.diff(ps)
    qb = mu.quantile(ps)
    a = np.maximum(np.diff(qb), _TINY)  # x-width of each cell
    # two adjacent clamped widths (an atom) make the adjacent-pair term
    # below 0/0, so the energy is nan whatever the rest sums to
    if np.any((a[:-1] == _TINY) & (a[1:] == _TINY)):
        return float("nan")

    # subnodes, two per cell
    t = (ps[:-1, None] + h[:, None] * GL2_T[None, :]).ravel()
    w = (h[:, None] * GL2_W[None, :]).ravel()
    q = mu.quantile(t)
    total = _kernel_sum(q, w)

    # diagonal cells, locally linear quantile
    total += float(np.sum(h * h * (np.log(a) - 1.5)))

    # adjacent pairs, counted twice by symmetry; a lone clamped width next
    # to a tiny one can still underflow aa * bb to 0
    aa, bb = a[:-1], a[1:]
    ab = aa + bb
    j = 0.5 * (ab * ab * np.log(ab) - aa * aa * np.log(aa) - bb * bb * np.log(bb)) \
        - 1.5 * aa * bb
    with np.errstate(invalid="ignore", divide="ignore"):
        total += float(np.sum(2.0 * j * (h[:-1] * h[1:]) / (aa * bb)))
    return total


def _series_energy(ps: np.ndarray, xs: np.ndarray) -> tuple[float, float]:
    """Log energy of the quantile table (ps, xs) from its Chebyshev moments,
    and the upper-half tail of the series."""
    _, r, c = chebyshev_moments(ps, xs)
    terms = 2.0 * c * c / np.arange(1, ANGLES)
    return float(np.log(r / 2.0) - np.sum(terms)), float(np.sum(terms[ANGLES // 2 - 1:]))


def log_energy(mu: GridMeasure, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Double integral of log|x - y| against mu x mu.

    Takes the carried series where there is one (error estimate: rounding),
    else the table's Chebyshev series when its upper-half tail is below
    1e-10, with error estimate |E - E_2| / 3 + tail, E_2 being the series
    of the table with every other row dropped (the end rows kept).
    Otherwise, and for a support of zero width, runs the quadrature at
    ``cells`` and ``cells // 2`` cells, with error estimate |full - half| /
    3; ``cells`` sets only that fallback's resolution.  A nan full pass
    (atoms) returns nan for both without the half pass.
    """
    if mu.series is not None:
        value = series_energy(mu.series[1], mu.series[2])
        return EnergyValue(value, 1e-15 * (1.0 + abs(value)))
    ps, xs = mu.quantile_ps, mu.quantile_xs
    if xs[-1] > xs[0]:
        value, tail = _series_energy(ps, xs)
        if tail < _SERIES_TAIL:
            rows = np.r_[0:ps.size - 1:2, ps.size - 1]
            coarse, _ = _series_energy(ps[rows], xs[rows])
            return EnergyValue(value, abs(value - coarse) / 3.0 + tail + 1e-15)
    full = _energy_at(mu, cells)
    if np.isnan(full):
        return EnergyValue(np.nan, np.nan)
    half = _energy_at(mu, cells // 2)
    return EnergyValue(full, abs(full - half) / 3.0 + 1e-15)


def chi(mu: GridMeasure, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Free entropy: log energy plus 3/4 plus half log(2 pi)."""
    e = log_energy(mu, cells)
    return EnergyValue(e.value + 0.75 + HALF_LOG_2PI, e.error_est)


def integrate_potential(mu: GridMeasure, u: Potential) -> float:
    """Integral of the potential against the measure; +inf when the measure
    charges the complement of the domain."""
    t, w = gauss_legendre_01()
    x = mu.quantile(t)
    tol = 1e-9 * (1.0 + np.max(np.abs(x)))
    clipped = np.clip(x, u.domain_lo, u.domain_hi)
    x = np.where(np.abs(clipped - x) <= tol, clipped, x)
    vals = u.value(x)
    if not np.all(np.isfinite(vals)):
        return np.inf
    return float(w @ vals)


def chi_rel(mu: GridMeasure, u: Potential, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Free entropy relative to an external field: chi(mu) - int u dmu."""
    pot = integrate_potential(mu, u)
    if not np.isfinite(pot):
        return EnergyValue(-np.inf, 0.0)
    c = chi(mu, cells)
    return EnergyValue(c.value - pot, c.error_est)


def chi_plus(mu: GridMeasure, cells: int = ENERGY_CELLS) -> EnergyValue:
    """One-sided free entropy for measures on the nonnegative half-line."""
    if mu.support_lo < -1e-9 * (1.0 + abs(mu.support_hi)):
        raise InvalidInputError("chi_plus needs support in [0, inf)")
    e = log_energy(mu, cells)
    return EnergyValue(e.value + 1.5 + np.log(np.pi), e.error_est)


def relative_entropy_semicircular(mu: GridMeasure, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Relative free entropy against the standard semicircle.

    Vanishes exactly at the standard semicircle and is nonnegative.
    """
    c = chi(mu, cells)
    return EnergyValue(0.5 * moment(mu, 2) - c.value + HALF_LOG_2PI, c.error_est)


def _hilbert_side(spline, ts, sstar, qs, lo, hi, cells):
    """Regularized integral of 1/(t - Q(s)) + 1/(qs (s - sstar)) on [lo, hi],
    one row per probe t.

    Q comes from a smooth spline of the quantile table: the two terms cancel
    near sstar and a merely piecewise-linear Q would leak interpolation
    error through the 1/(t - Q)^2 amplification.  The grading clusters
    nodes at sstar and at the outer support edge.  The spline is called
    once for all rows, and each row is reduced by its own dot product.
    """
    bounds = lo[:, None] + (hi - lo)[:, None] * cosine_graded(cells)
    h = np.diff(bounds, axis=1)
    sub = (bounds[:, :-1, None] + h[:, :, None] * GL4_T).reshape(ts.size, -1)
    wts = (h[:, :, None] * GL4_W).reshape(ts.size, -1)
    ds = sub - sstar[:, None]
    qv = spline(sub.ravel()).reshape(sub.shape)
    dq = ts[:, None] - qv
    safe_dq = np.where(np.abs(dq) > _TINY, dq, _TINY)
    safe_ds = np.where(np.abs(ds) > _TINY, ds, _TINY)
    g = 1.0 / safe_dq + 1.0 / (qs[:, None] * safe_ds)
    g = np.where(np.abs(ds) < 1e-11, 0.0, g)  # vanishing-measure core
    return np.array([0.0 if hi[i] - lo[i] < 1e-14 else float(wts[i] @ g[i])
                     for i in range(ts.size)])


def _hilbert_inside(mu: GridMeasure, ts: np.ndarray, cells: int, spline, dspline) -> np.ndarray:
    sstar = np.interp(ts, mu.quantile_xs, mu.quantile_ps)
    for _ in range(3):
        sstar = sstar - (spline(sstar) - ts) / np.maximum(dspline(sstar), _TINY)
        sstar = np.minimum(np.maximum(sstar, 0.0), 1.0)
    qs = dspline(sstar)
    half = max(cells // 2, 64)
    left = _hilbert_side(spline, ts, sstar, qs, np.zeros_like(sstar), sstar, half)
    right = _hilbert_side(spline, ts, sstar, qs, sstar, np.ones_like(sstar), half)
    pv_tail = -np.log((1.0 - sstar) / sstar) / qs
    return (left + right + pv_tail) / np.pi


def hilbert_transform(mu: GridMeasure, t, cells: int = 4096):
    """Hilbert transform (1/pi) PV int dmu(y) / (t - y).

    Accepts scalars or arrays.  Points inside the support are handled by a
    singularity subtraction in quantile coordinates, _HILBERT_BATCH points
    at a time; evaluation too close to a support endpoint raises
    :class:`SingularEvaluationError` before anything is computed.
    """
    global CubicSpline
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    flat = ts.ravel()
    scale = 1.0 + mu.radius
    edge_tol = 1e-8 * scale
    at_edge = (np.abs(flat - mu.support_lo) < edge_tol) | (np.abs(flat - mu.support_hi) < edge_tol)
    if np.any(at_edge):
        raise SingularEvaluationError(
            f"hilbert transform at a support endpoint: t={flat[np.argmax(at_edge)]:g}")
    out = np.empty(flat.shape)
    inside = (mu.support_lo < flat) & (flat < mu.support_hi)
    rows = np.flatnonzero(inside)
    if rows.size:
        if CubicSpline is None:
            import scipy.interpolate
            CubicSpline = scipy.interpolate.CubicSpline
        spline = CubicSpline(mu.quantile_ps, mu.quantile_xs)
        dspline = spline.derivative()
        for s in range(0, rows.size, _HILBERT_BATCH):
            block = rows[s:s + _HILBERT_BATCH]
            out[block] = _hilbert_inside(mu, flat[block], cells, spline, dspline)
    rows = np.flatnonzero(~inside)
    if rows.size:
        glt, glw = gauss_legendre_01()
        q_outside = mu.quantile(glt)
        for i in rows:
            out[i] = float(glw @ (1.0 / (flat[i] - q_outside))) / np.pi
    return out.reshape(ts.shape) if np.ndim(t) else float(out[0])


def _root_jacobian(series, coeffs) -> EnergyValue | None:
    """`log_jacobian` for a polynomial u' with ascending coefficients
    ``coeffs`` on the measure with moments (m, r, c), by the roots of its
    divided difference (module docstring); None where it does not apply."""
    a = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    n = a.size - 2  # degree in x of the divided difference
    m, r, c = series
    if n < 0 or (n > 0 and not r > 0):
        return None
    lead = float(np.log(abs(a[-1])))
    if n == 0:
        return EnergyValue(lead, 0.0)
    # tail[k] is sum_{j > k} 2 |c_j| / j; keep the fewest moments below it
    tail = np.cumsum(np.r_[0.0, (2.0 * np.abs(c) / np.arange(1, c.size + 1))[::-1]])[::-1]
    kk = int(np.argmax(tail < _SERIES_TAIL))
    if kk > _ROOT_NODES:
        return None
    ks = np.arange(1, kk + 1)
    c, wc = c[:kk], 2.0 * c[:kk] / ks
    # a root meets the support where u'' vanishes on it: split the angles there
    flat = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(a))
    flat = flat.real[(np.abs(flat.imag) <= 1e-6 * (1.0 + np.abs(flat))) & (np.abs(flat.real - m) < r)]
    edges = np.unique(np.r_[0.0, np.arccos((flat - m) / r), np.pi])
    t, w = gauss_legendre_01(_ROOT_NODES)

    def integral(bounds):
        h = np.diff(bounds)[:, None]
        theta, wt = (bounds[:-1, None] + h * t).ravel(), (h * w).ravel()
        y = m + r * np.cos(theta)
        # (u'(x) - u'(y)) / (x - y) = sum_i b_i x^i by synthetic division,
        # b listed from x^n down; its roots are the companion eigenvalues
        b = [np.full(y.size, a[-1])]
        for aj in a[-2:0:-1]:
            b.append(aj + y * b[-1])
        comp = np.zeros((y.size, n, n))
        comp[:, 0, :] = -np.stack(b[1:], axis=1) / a[-1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        z = (np.linalg.eigvals(comp).astype(complex) - m) / r
        phi = z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
        pot = np.log(r * np.abs(phi) / 2.0) - (phi[..., None] ** -ks).real @ wc
        dens = (1.0 + 2.0 * (np.cos(np.outer(theta, ks)) @ c)) / np.pi
        return lead + float(wt @ (dens * pot.sum(axis=1)))

    coarse = integral(edges)
    fine = integral(np.unique(np.r_[edges, 0.5 * (edges[1:] + edges[:-1])]))
    return EnergyValue(fine, abs(fine - coarse) + n * float(tail[kk]) + 1e-15)


def log_jacobian(mu, u: Potential, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Mean log of the divided difference of u' along mu x mu; u' must
    increase on the support.  By the root route of the module docstring
    where it applies (error estimate: the change under halving its angle
    pieces plus the moment tail), else as the log-energy gain of pushing mu
    forward through u', the only route ``cells`` applies to.

    ``mu`` is a measure, or a solve (`EquilibriumResult`), whose table is
    then built only for the pushforward route.  u' is checked at the table
    rows, or at the solver's Chebyshev nodes where mu carries a series.
    """
    s = mu.series
    slopes = u.d(mu.quantile_xs if s is None else s[0] - s[1] * np.cos(chebyshev_angles()))
    if np.any(np.diff(slopes) < -1e-10 * (1.0 + np.max(np.abs(slopes)))):
        raise InvalidInputError("log_jacobian needs u' increasing on the support")
    if u.deriv_coeffs is not None:
        exact = _root_jacobian(series_of(mu), u.deriv_coeffs)
        if exact is not None:
            return exact
    mu = getattr(mu, "measure", mu)
    nu = pushforward_monotone(mu, lambda x: u.d(x), label=f"grad({u.label})*{mu.label}")
    ea = log_energy(nu, cells)
    eb = log_energy(mu, cells)
    return EnergyValue(ea.value - eb.value, ea.error_est + eb.error_est)


def _series_hilbert(mu: GridMeasure, ts: np.ndarray) -> np.ndarray:
    """H mu at interior points t = m + r cos(phi) of the support, from the
    quantile table's Chebyshev moments: -(2/(pi r)) sum_k c_k sin(k phi) /
    sin(phi).  Exact only on tables whose rows lie on the uniform angle
    grid, as the solver's do; see the module docstring."""
    m, r, c = chebyshev_moments(mu.quantile_ps, mu.quantile_xs)
    phi = np.arccos((ts - m) / r)
    return (-2.0 / (np.pi * r)) * sine_sum(c, phi) / np.sin(phi)


def _el_residual(mu: GridMeasure, u: Potential, hilbert,
                 n_probes: int = 65, coverage: float = 0.96) -> float:
    """The probe-and-band rule of `euler_lagrange_residual`, with H mu at
    the probes taken from ``hilbert(mu, ts)``."""
    lo = 0.5 * (1.0 - coverage)
    ps = np.linspace(lo, 1.0 - lo, n_probes)
    ts = mu.quantile(ps)
    h = 1e-9 * (1.0 + np.abs(ts))
    side = np.stack([u.d(ts - h), u.d(ts), u.d(ts + h)])
    band_lo, band_hi = side.min(axis=0), side.max(axis=0)
    target = 2.0 * np.pi * hilbert(mu, ts)
    res = np.maximum(target - band_hi, band_lo - target)
    return float(np.max(np.maximum(res, 0.0)))


def euler_lagrange_residual(mu: GridMeasure, u: Potential,
                            n_probes: int = 65, coverage: float = 0.96) -> float:
    """Sup over interior probes of the distance from 2 pi H mu(t) to the
    subgradient of u at t.

    Zero along the support characterizes the equilibrium measure of u.
    Probes sit at quantiles covering the central part of the support; the
    subgradient is bracketed by one-sided derivative samples so a probe
    landing exactly on a kink of u is judged by the inclusion, not by the
    arbitrary derivative value there.  H mu is `hilbert_transform`'s.
    """
    return _el_residual(mu, u, hilbert_transform, n_probes, coverage)


def _series_euler_lagrange_residual(mu: GridMeasure, u: Potential) -> float:
    """`euler_lagrange_residual` with H mu from the quantile table's
    Chebyshev moments: the solver's residual, for tables on the uniform
    angle grid only (see the module docstring)."""
    return _el_residual(mu, u, _series_hilbert)


def schwinger_dyson_residual(mu: GridMeasure, u: Potential, max_degree: int = 6) -> float:
    """Largest defect of the moment identities int u' x^k dmu =
    sum_{i+j=k-1} m_i m_j for k = 0..max_degree."""
    t, w = gauss_legendre_01()
    x = mu.quantile(t)
    up = u.d(x)
    ms = [float(w @ x ** k) for k in range(max_degree)]
    worst = 0.0
    for k in range(max_degree + 1):
        lhs = float(w @ (up * x ** k))
        rhs = sum(ms[i] * ms[k - 1 - i] for i in range(k))
        worst = max(worst, abs(lhs - rhs))
    return worst

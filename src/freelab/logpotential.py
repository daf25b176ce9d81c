"""Logarithmic energy, free entropy, and Euler-Lagrange diagnostics.

The log energy has two routes, chosen by the measure itself.

Series.  On the support [m - r, m + r], log|x - y| = log(r/2) -
sum_k (2/k) T_k(x') T_k(y') in the rescaled variables x' = (x - m)/r, so
E(mu) = log(r/2) - sum_k 2 c_k^2 / k with the Chebyshev moments c_k of mu.
Integration by parts in the angle x' = cos(theta) gives
c_k = k int_0^pi sin(k theta) (G(theta) - theta/pi) dtheta, where G is
the angle distribution function; G is read off the quantile table at
2^14 uniform angles and all moments come from one DST-I.  The series is
accepted when its upper-half tail, sum over k >= 2^13 of 2 c_k^2 / k, is
below 1e-10; its error estimate is the Richardson difference against the
same series of the table decimated by two, divided by three, plus that tail.

Quadrature.  Where the series does not converge (interior cusps of the
density, atoms) or the support has zero width, the double integral runs in
quantile coordinates on cosine-graded cells.  Cells touching the diagonal
use closed forms for the locally linearized quantile function, which
integrates the log singularity exactly; everything else uses a tensor
Gauss-Legendre rule.  The kernel is symmetric, so the tensor sum runs over
blocks of rows against the columns from the block's first row on, counts
the off-diagonal part twice, and reduces each block by matrix-vector
products; only about half of the log evaluations of the full square are
made.  The energy is evaluated at full and half resolution and the
difference feeds the error estimate.  Measures with atoms have energy
-inf, which this route reports as nan.

Either way the error estimate lets downstream tolerances be chosen
honestly.

Tolerance policy used throughout the test-suite:

* ``TOL_CLOSED_FORM``  : quantities with exact finite expressions
* ``TOL_SINGLE_QUAD``  : one quadrature (moments, potential integrals)
* ``TOL_DOUBLE_QUAD``  : one double log-kernel quadrature
* ``TOL_COMPOSED``     : several chained quadratures or a solve + quadrature
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.interpolate import CubicSpline

from ._grids import ENERGY_CELLS, GL2_T, GL2_W, GL4_T, GL4_W, cosine_graded, gauss_legendre_01
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
# rows per block of the log-kernel sum
_BLOCK = 128
# interior points per batch of the Hilbert transform; bounds its temporaries
_HILBERT_BATCH = 8
# uniform angles of the series route; the DST-I runs on the interior ones
_SERIES_ANGLES = 2 ** 14
# largest upper-half tail of sum 2 c_k^2 / k at which the series is accepted
_SERIES_TAIL = 1e-10


@dataclass(frozen=True)
class EnergyValue:
    """Scalar integral value with a resolution-doubling error estimate."""

    value: float
    error_est: float

    def __float__(self) -> float:
        return float(self.value)


def _energy_at(mu: GridMeasure, cells: int) -> float:
    ps = cosine_graded(cells)
    h = np.diff(ps)
    qb = mu.quantile(ps)
    a = np.maximum(np.diff(qb), _TINY)  # x-width of each cell

    # subnodes, two per cell
    t = (ps[:-1, None] + h[:, None] * GL2_T[None, :]).ravel()
    w = (h[:, None] * GL2_W[None, :]).ravel()
    q = mu.quantile(t)
    n = q.size

    total = 0.0
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        d = np.subtract(q[s:e, None], q[None, s:])
        np.abs(d, out=d)
        np.maximum(d, _TINY, out=d)
        np.log(d, out=d)
        # the band of node i, cells c - 1 .. c + 1 around its cell c = i // 2, is
        # columns 2c - 2 .. 2c + 3; clipping to the block's columns only
        # repeats columns inside that band
        band = (np.arange(s, e) // 2 * 2 - 2)[:, None] + np.arange(6)
        np.put_along_axis(d, np.clip(band, s, n - 1) - s, 0.0, axis=1)
        # rows s:e against columns s:n; the off-diagonal part stands for its mirror too
        total += float(w[s:e] @ (2.0 * (d @ w[s:]) - d[:, :e - s] @ w[s:e]))

    # diagonal cells, locally linear quantile
    total += float(np.sum(h * h * (np.log(a) - 1.5)))

    # adjacent pairs, counted twice by symmetry; two clamped widths (an atom)
    # give 0/0 here, and the energy is nan
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
    m, r = 0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])
    n = _SERIES_ANGLES
    theta = np.pi * np.arange(1, n) / n
    # angle distribution function G(theta) = mu(x' >= cos theta), less theta/pi
    g = 1.0 - np.interp(m + r * np.cos(theta), xs, ps) - theta / np.pi
    k = np.arange(1, n)
    c = k * (np.pi / (2 * n)) * dst(g, type=1)
    terms = 2.0 * c * c / k
    return float(np.log(r / 2.0) - np.sum(terms)), float(np.sum(terms[n // 2 - 1:]))


def log_energy(mu: GridMeasure, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Double integral of log|x - y| against mu x mu.

    Takes the Chebyshev series of the module docstring when its upper-half
    tail is below 1e-10, with error estimate |E - E_2| / 3 + tail, E_2 being
    the series of the quantile table with every other row dropped (the end
    rows kept).  Otherwise, and for a support of zero width, runs the
    quadrature at ``cells`` and ``cells // 2`` cells, with error estimate
    |full - half| / 3; ``cells`` sets only that fallback's resolution.
    """
    ps, xs = mu.quantile_ps, mu.quantile_xs
    if xs[-1] > xs[0]:
        value, tail = _series_energy(ps, xs)
        if tail < _SERIES_TAIL:
            rows = np.r_[0:ps.size - 1:2, ps.size - 1]
            coarse, _ = _series_energy(ps[rows], xs[rows])
            return EnergyValue(value, abs(value - coarse) / 3.0 + tail + 1e-15)
    full = _energy_at(mu, cells)
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


def log_jacobian(mu: GridMeasure, u: Potential, cells: int = ENERGY_CELLS) -> EnergyValue:
    """Mean log of the divided difference of u' along mu x mu.

    Equals the log-energy gain of pushing mu forward through u', so it is
    computed as exactly that difference.  Requires u' increasing on the
    support (u strictly convex there).
    """
    slopes = u.d(mu.quantile_xs)
    if np.any(np.diff(slopes) < -1e-10 * (1.0 + np.max(np.abs(slopes)))):
        raise InvalidInputError("log_jacobian needs u' increasing on the support")
    nu = pushforward_monotone(mu, lambda x: u.d(x), label=f"grad({u.label})*{mu.label}")
    ea = log_energy(nu, cells)
    eb = log_energy(mu, cells)
    return EnergyValue(ea.value - eb.value, ea.error_est + eb.error_est)


def euler_lagrange_residual(mu: GridMeasure, u: Potential,
                            n_probes: int = 65, coverage: float = 0.96) -> float:
    """Sup over interior probes of the distance from 2 pi H mu(t) to the
    subgradient of u at t.

    Zero along the support characterizes the equilibrium measure of u.
    Probes sit at quantiles covering the central part of the support; the
    subgradient is bracketed by one-sided derivative samples so a probe
    landing exactly on a kink of u is judged by the inclusion, not by the
    arbitrary derivative value there.
    """
    lo = 0.5 * (1.0 - coverage)
    ps = np.linspace(lo, 1.0 - lo, n_probes)
    ts = mu.quantile(ps)
    h = 1e-9 * (1.0 + np.abs(ts))
    side = np.stack([u.d(ts - h), u.d(ts), u.d(ts + h)])
    band_lo, band_hi = side.min(axis=0), side.max(axis=0)
    target = 2.0 * np.pi * hilbert_transform(mu, ts)
    res = np.maximum(target - band_hi, band_lo - target)
    return float(np.max(np.maximum(res, 0.0)))


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

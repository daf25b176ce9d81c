"""Chebyshev series of a measure in the angle variable of its support.

On [m - r, m + r], write x = m + r cos(theta).  A measure's Chebyshev
moments c_k = int T_k((x - m)/r) dmu come from its angle distribution
function G(theta) = mu(x >= m + r cos theta) by parts:
c_k = k int_0^pi sin(k theta) (G(theta) - theta/pi) dtheta.  The log
energy and the Hilbert transform are both series in these moments, and the
equilibrium solver's CDF and density are series in its own; this leaf
module holds the pieces they share, so that the modules reach them without
importing each other.  A measure whose moments are known exactly carries
them as its ``series`` (m, r, tau), tau_k = c_k; its log energy is then
log(r/2) - 2 sum tau_k^2 / k, its moments are finite sums, its density in
theta is G'(theta) = (1 + 2 sum tau_k cos k theta)/pi (`theta_density`),
and its quantile solves
G(theta) = theta/pi + (2/pi) sum (tau_k / k) sin k theta = 1 - p.
The angle tables are built once and shared read-only.

A table without a series is read in the angle: G at the read points is the
4-point Lagrange interpolant of the rows' (theta, G), clipped into the two
bracketing rows, so G stays between them and atoms and flat stretches exact.
Rows and read points take their angle from one edge-accurate formula
(`angle`), so reads on the solver's uniform-angle tables hit its rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dct, dst

from ._grids import gauss_legendre_01, read_only

# uniform angles at which G is read; the DST-I runs on the interior ones
ANGLES = 2 ** 14


@lru_cache(maxsize=1)
def _angle_table():
    """theta/pi, cos(theta) and the weights k pi/(2 ANGLES) at theta = pi k/ANGLES."""
    n = ANGLES
    theta = np.pi * np.arange(1, n) / n
    return read_only(theta / np.pi, np.cos(theta), np.arange(1, n) * (np.pi / (2 * n)))


def angle(x, lo: float, hi: float) -> np.ndarray:
    """theta of x = m + r cos(theta) on [lo, hi] = [m - r, m + r], from the
    nearer edge: 2 arcsin sqrt((hi - x) / 2r), or pi minus its mirror, keeps
    relative precision at both edges, where arccos((x - m) / r) does not."""
    right = x >= 0.5 * (lo + hi)
    half = np.asarray(np.where(right, hi - x, x - lo) / (hi - lo))
    np.arcsin(np.sqrt(np.clip(half, 0.0, 1.0, out=half), out=half), out=half)
    return np.where(right, 2.0 * half, np.pi - 2.0 * half)


@lru_cache(maxsize=8)
def _read_angles(lo: float, hi: float) -> np.ndarray:
    """`angle` of the read points m + r cos(pi k / ANGLES) of [lo, hi]."""
    return read_only(angle(0.5 * (lo + hi) + 0.5 * (hi - lo) * _angle_table()[1], lo, hi))[0]


def _read_g(ps: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """G = 1 - p of the table (ps, xs) at its read points by the rule of the
    module docstring: about a point's bracket i, the cubic through rows i - 1
    .. i + 2 is the chord less l (1 - l) (A + B l), l the fraction through
    the bracket, A = h^2 (a + h_i-1 b) and B = h^3 b from its width h and the
    divided differences a, b; rows go on as G(-t) = -G(t), G(2pi - t) = 2 - G(t)."""
    inner = (xs[1:-1] == xs[:-2]) & (xs[1:-1] == xs[2:])
    if inner.any():  # only the first and last row of an atom bound G
        keep = np.r_[True, ~inner, True]
        ps, xs = ps[keep], xs[keep]
    t = angle(xs[::-1], xs[0], xs[-1])  # ascending in theta, as G is
    g = 1.0 - ps[::-1]
    lam = np.interp(_read_angles(float(xs[0]), float(xs[-1])), t, np.arange(t.size, dtype=float))
    i = np.minimum(lam.astype(np.intp), t.size - 2)
    lam -= i
    tp = np.concatenate(([-t[1]], t, [2.0 * np.pi - t[-2]]))
    h = np.diff(tp)
    dg = np.diff(np.concatenate(([-g[1]], g, [2.0 - g[-2]])))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.diff(dg / h) / (tp[2:] - tp[:-2])
        b = np.diff(a) / (tp[3:] - tp[:-3])
        big_b = h[1:-1] * h[1:-1]  # h^2, then B
        big_a = big_b * (a[:-1] + h[:-2] * b)
        big_b *= h[1:-1] * b
        big_a, big_b = np.where(np.isfinite(big_a + big_b), [big_a, big_b], 0.0)  # atom: chord
    g_i = np.take(g, i)  # G = g_i + l (dg - A + l (A - B + l B))
    out = ((np.take(big_b, i) * lam + np.take(big_a - big_b, i)) * lam
           + np.take(dg[1:-1] - big_a, i)) * lam + g_i
    return np.minimum(np.maximum(out, g_i, out=out), np.take(g[1:], i), out=out)


def chebyshev_moments(ps: np.ndarray, xs: np.ndarray):
    """Center m, half-width r and moments c_1 .. c_{ANGLES - 1} of the
    quantile table (ps, xs), from one DST-I of G - theta/pi read off the
    table at ANGLES uniform angles (module docstring)."""
    frac, _, weight = _angle_table()
    m, r = 0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])
    return m, r, weight * dst(_read_g(ps, xs) - frac, type=1)


def series_of(mu):
    """(m, r, c): the series mu carries, else its table's `chebyshev_moments`."""
    return mu.series or chebyshev_moments(mu.quantile_ps, mu.quantile_xs)


def series_energy(r: float, tau: np.ndarray) -> float:
    """Log energy log(r/2) - 2 sum tau_k^2 / k of an angle series."""
    return float(np.log(r / 2.0) - 2.0 * np.sum(tau ** 2 / np.arange(1, tau.size + 1)))


def series_moment(series, k: int) -> float:
    """k-th raw moment of an angle series: (m + r x)^k in Chebyshev
    polynomials T_j, each integrating to tau_j, by k products with m + r x,
    x T_0 = T_1 and x T_j = (T_{j-1} + T_{j+1}) / 2."""
    m, r, tau = series
    m, r = float(m), float(r)
    a = [1.0]
    for _ in range(k):
        b = [m * v for v in a] + [0.0]
        b[1] += r * a[0]
        for j in range(1, len(a)):
            h = 0.5 * r * a[j]
            b[j - 1] += h
            b[j + 1] += h
        a = b
    n = min(k, tau.size)
    return float(a[0] + np.dot(a[1:1 + n], tau[:n]))


def solve_angle(tau: np.ndarray, target: np.ndarray, steps: int) -> np.ndarray:
    """theta in [0, pi] with pi G(theta) = target for the angle series tau: pi G
    inverted on 4097 uniform angles, then Newton (slow at a soft edge, where G' = 0)."""
    ks = np.arange(1, tau.size + 1)
    sin_w = tau / ks
    grid = np.linspace(0.0, np.pi, 4097)
    pi_g = grid + 2.0 * np.sin(np.outer(grid, ks)) @ sin_w
    theta = np.interp(target, np.maximum.accumulate(pi_g), grid)
    for _ in range(steps):
        kt = np.outer(theta, ks)
        slope = np.maximum(1.0 + 2.0 * np.cos(kt) @ tau, 1e-300)
        theta = np.clip(theta - (theta + 2.0 * np.sin(kt) @ sin_w - target) / slope, 0.0, np.pi)
    return theta


@lru_cache(maxsize=8)
def quantile_cos(tau: tuple, n: int) -> np.ndarray:
    """cos(theta(p)), G(theta(p)) = 1 - p, at the n-point `gauss_legendre_01`
    nodes p for the angle series ``tau`` (a tuple), by two Newton steps."""
    target = np.pi * (1.0 - gauss_legendre_01(n)[0])
    return read_only(np.cos(solve_angle(np.array(tau), target, 2)))[0]


def sine_sum(coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{k >= 1} coeff[k - 1] sin(k t) at each angle t, each reduced on its own.

    With k = q B + s and B = ceil(sqrt(K + 1)), sin(k t) = sin(q B t)
    cos(s t) + cos(q B t) sin(s t), so the sum takes about 4 B sines and
    cosines per angle and two products against the B-wide rows of
    coefficients, instead of a table of K sines per angle.
    """
    kk = coeff.size
    b = int(np.ceil(np.sqrt(kk + 1)))
    st = np.outer(t, np.arange(b, dtype=float))
    qt = np.outer(t, b * np.arange(-(-(kk + 1) // b), dtype=float))
    blocks = np.zeros((qt.shape[1], b))
    blocks.flat[1:kk + 1] = coeff  # row q holds modes q B .. q B + B - 1
    return np.array([sq @ (blocks @ cs) + cq @ (blocks @ ss) for sq, cq, cs, ss
                     in zip(np.sin(qt), np.cos(qt), np.cos(st), np.sin(st))])


def theta_density(tau: np.ndarray, n: int) -> np.ndarray:
    """G'(theta) = (1 + 2 sum tau_k cos k theta)/pi at the n `chebyshev_angles`,
    one DCT-III.  A series of n or more terms is summed on an odd multiple of
    the n angles, which holds them, so no mode aliases."""
    odd = -(-(tau.size + 1) // n) | 1
    x = np.zeros(odd * n)
    x[0] = 1.0
    x[1:tau.size + 1] = tau
    return dct(x, type=3)[odd // 2::odd] / np.pi

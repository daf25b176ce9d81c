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
log-energy gain of pushing mu forward through u'.  Before either route,
u' is read where its monotonicity is checked (the solver's Chebyshev nodes
or the table rows); two equal adjacent reads with mass between them mean
u' is flat on a set of positive mass, so u'#mu has an atom and the
log-Jacobian is -inf, reported as nan like the quadrature's atoms.

The Hilbert transform H mu(t) = (1/pi) PV int dmu(y) / (t - y) is the series
(m, r, c) of `series_of` differentiated: -(2/(pi r)) sum_k c_k sin(k phi) /
sin(phi) at t = m + r cos(phi) in the support, and outside (1 + 2 sum_k c_k
phi^-k) / (pi s), s = sign(d) sqrt(d^2 - r^2), d = t - m, 1/phi = r / (d + s).
`euler_lagrange_residual` uses it; on a solve it reads the solver's tau.

Tolerance policy used throughout the test-suite:

* ``TOL_CLOSED_FORM``  : quantities with exact finite expressions
* ``TOL_SINGLE_QUAD``  : one quadrature (moments, potential integrals)
* ``TOL_DOUBLE_QUAD``  : one double log-kernel quadrature
* ``TOL_COMPOSED``     : several chained quadratures or a solve + quadrature
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._angle_series import ANGLES, angle, chebyshev_moments, series_energy, series_of, sine_sum
from ._grids import ENERGY_CELLS, GL2_T, GL2_W, chebyshev_angles, cosine_graded, gauss_legendre_01
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
    Otherwise, and for a support of zero width or a repeated x (an atom),
    runs the quadrature at ``cells`` and ``cells // 2`` cells, with error
    estimate |full - half| / 3; ``cells`` sets only that fallback's
    resolution.  A nan full pass returns nan for both without the half pass.
    """
    if mu.series is not None:
        value = series_energy(mu.series[1], mu.series[2])
        return EnergyValue(value, 1e-15 * (1.0 + abs(value)))
    ps, xs = mu.quantile_ps, mu.quantile_xs
    if xs[-1] > xs[0] and not np.any(xs[1:] == xs[:-1]):
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


def hilbert_transform(mu: GridMeasure, t):
    """Hilbert transform (1/pi) PV int dmu(y) / (t - y), by the module's series.

    Accepts scalars or arrays.  Evaluation too close to a support endpoint
    raises :class:`SingularEvaluationError` before anything is computed.
    """
    flat = np.asarray(t, dtype=float).ravel()
    edge_tol = 1e-8 * (1.0 + mu.radius)
    at_edge = (np.abs(flat - mu.support_lo) < edge_tol) | (np.abs(flat - mu.support_hi) < edge_tol)
    if np.any(at_edge):
        raise SingularEvaluationError(
            f"hilbert transform at a support endpoint: t={flat[np.argmax(at_edge)]:g}")
    m, r, c = series_of(mu)
    ks = np.arange(1, c.size + 1)
    out = np.empty(flat.shape)
    inside = (mu.support_lo < flat) & (flat < mu.support_hi)
    phi = angle(flat[inside], m - r, m + r)
    out[inside] = (-2.0 / (np.pi * r)) * sine_sum(c, phi) / np.sin(phi)
    d = flat[~inside] - m
    root = np.sign(d) * np.sqrt((np.abs(d) - r) * (np.abs(d) + r))
    out[~inside] = (1.0 + 2.0 * np.array([z ** ks @ c for z in r / (d + root)])) / (np.pi * root)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


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
    Where two adjacent checks read the same u' with mass between them, u'
    is flat on a set of positive mass and the value is nan at once, as the
    quadrature would report it: no table, pushforward or energy is built.
    """
    s = mu.series
    xs = mu.quantile_xs if s is None else s[0] - s[1] * np.cos(chebyshev_angles())
    slopes = u.d(xs)
    if np.any(np.diff(slopes) < -1e-10 * (1.0 + np.max(np.abs(slopes)))):
        raise InvalidInputError("log_jacobian needs u' increasing on the support")
    # u' equal at two distinct points with mass between them is flat there:
    # u'#mu has an atom, and the divided difference vanishes on a set of
    # positive mass.  Every pair of solver nodes lies inside the support.
    flat = (slopes[1:] == slopes[:-1]) & (xs[1:] > xs[:-1])
    if s is None:
        flat &= mu.quantile_ps[1:] > mu.quantile_ps[:-1]
    if np.any(flat):
        return EnergyValue(np.nan, np.nan)
    if u.deriv_coeffs is not None:
        exact = _root_jacobian(series_of(mu), u.deriv_coeffs)
        if exact is not None:
            return exact
    mu = getattr(mu, "measure", mu)
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
    arbitrary derivative value there.  H mu is `hilbert_transform`'s.
    """
    lo = 0.5 * (1.0 - coverage)
    ts = mu.quantile(np.linspace(lo, 1.0 - lo, n_probes))
    h = 1e-9 * (1.0 + np.abs(ts))
    side = np.stack([u.d(ts - h), u.d(ts), u.d(ts + h)])
    target = 2.0 * np.pi * hilbert_transform(mu, ts)
    return float(max(0.0, np.max(target - side.max(axis=0)), np.max(side.min(axis=0) - target)))


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

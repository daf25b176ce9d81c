"""Equilibrium measures, free pressure, and the free moment map.

The one-cut solver works in the angle variable of the support interval
[m - r, m + r]: writing x = m + r cos(theta), every equilibrium quantity
reduces to the Chebyshev moments tau_k of the solved measure.  The CDF is

    G(theta) = theta/pi + (2/pi) sum_k (tau_k / k) sin(k theta)

measured from the right edge, the density in theta is
(1 + 2 sum tau_k cos(k theta))/pi, and the logarithmic energy is
log(r/2) - 2 sum tau_k^2 / k.  Soft edges determine (m, r) through the two
endpoint conditions of u'; hard edges pin an endpoint at the domain wall and
the one remaining soft-edge condition (if any) is solved by bracketing.  When
the soft support would cross a wall, the walled configurations are tried in
the order wall-left (left edge pinned, right edge soft), wall-right, then
wall-both, and the first whose density brackets at both edges are above
-_NEGATIVITY_SLACK is taken.  The moment map iterates on tau through the
same soft-edge step (`_soft_moments`).

An :class:`EquilibriumResult` keeps (m, r, tau) as its ``series``, which
the scalar reads take; its quantile table (``measure``) and the
Euler-Lagrange and Schwinger-Dyson residuals, diagnostics of that table,
are computed on first read and cached.  The EL residual is
`logpotential.euler_lagrange_residual` of that table: 2 pi H mu = u' at the
table's probes, with H mu summed from the series the table carries.

The quantile table is 1 - G on the 32769 uniform angles pi j / 32768, its
interior rows one DST-I of tau_k / k; its edge rows are the support's
endpoints.  The fixed angle tables of a solve (cos and sin of the Chebyshev
angles, cos of the table's uniform angles) are built once and shared
read-only.

Convex polynomial potentials (``deriv_coeffs``, u' of degree d) solve on
K Chebyshev angles, K the least power of two >= max(8, d + 3), where the
DCT-II is exact: tau_1 .. tau_{d+1} are exact, the rest vanish and are
dropped, int u d(nu) is Gauss-Chebyshev on the same angles, and Newton
starts from the coefficients (`_poly_seed`).  Other potentials keep the
``nodes``-angle solve and the scanned seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import dct, dst

from ._angle_series import series_energy, series_moment, solve_angle, theta_density
from ._grids import DEFAULT_NODES, chebyshev_angles, read_only
from .errors import InvalidInputError, MultiCutError, SolverError
from .logpotential import (
    HALF_LOG_2PI,
    chi,
    euler_lagrange_residual,
    integrate_potential,
    schwinger_dyson_residual,
)
from .measures import GridMeasure, from_quantile_table
from .potentials import Potential, tilt_linear

__all__ = [
    "SolverSettings",
    "EquilibriumResult",
    "CenteringShift",
    "solve_equilibrium",
    "free_pressure",
    "entropy_duality_check",
    "moment_map",
    "find_centering_shift",
]

_CDF_GRID = 32768
_NEGATIVITY_SLACK = 5e-3
_MAP_MODES = 64  # tau_1 .. tau_64 of the moment map's nu


@dataclass(frozen=True)
class SolverSettings:
    nodes: int = DEFAULT_NODES      # angles per solve; polynomial u' solves exactly at any count
    tol: float = 1e-11              # endpoint-condition residual and moment-map tau step target
    max_iter: int = 60              # endpoint Newton and moment-map round budget
    allow_nonconvex: bool = False   # accept possible non-uniqueness

    def __post_init__(self):
        if not self.nodes >= 256:
            raise InvalidInputError("nodes must be at least 256")
        if not (0.0 < self.tol < math.inf and self.max_iter >= 1):
            raise InvalidInputError("tol must be positive and finite, max_iter at least 1")


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved equilibrium measure and its scalar summaries.

    ``series`` is (m, r, tau) as `GridMeasure.series` holds it.  The
    ``measure`` (its quantile table), ``el_residual`` and ``sd_residual``
    are computed on first read, then cached on the instance.
    """

    series: tuple = field(repr=False, compare=False)
    support_lo: float
    support_hi: float
    el_constant: float
    pressure: float
    iterations: int
    method: str
    converged: bool
    energy: float            # log-energy of the measure, from the tau series
    potential_moment: float  # int u d(nu)
    potential: Potential = field(repr=False, compare=False)

    @cached_property
    def measure(self) -> GridMeasure:
        m, r, tau = self.series
        ps, xs = _cdf_table(m, r, np.r_[0.0, tau])
        table = from_quantile_table(ps, xs, label=f"equilibrium({self.potential.label})")
        return replace(table, series=self.series)

    @cached_property
    def el_residual(self) -> float:
        return float(euler_lagrange_residual(self.measure, self.potential))

    @cached_property
    def sd_residual(self) -> float:
        return float(schwinger_dyson_residual(self.measure, self.potential))


@dataclass(frozen=True)
class CenteringShift:
    found: bool
    lam: float | None
    curve: tuple  # sampled (lambda, barycenter) pairs


@lru_cache(maxsize=4)
def _chebyshev_trig(k: int):
    """cos and sin of ``chebyshev_angles(k)``."""
    theta = chebyshev_angles(k)
    return read_only(np.cos(theta), np.sin(theta))


def _soft_moments(f: np.ndarray, r: float | None = None):
    """Soft-edge tau from u' = f at the Chebyshev angles of a support of half-width
    r (None: 4 / c_1), and f's Chebyshev c (c_0 = 0)."""
    k = f.size
    c = dct(f, type=2) / k
    c[0] = 0.0  # the constant mode never enters the density
    r = 4.0 / c[1] if r is None else r
    tau = np.zeros(k)
    tau[1:k - 1] = (r / 8.0) * (c[2:] - c[:k - 2])
    return tau, c


def _soft_residuals(f: np.ndarray, cos: np.ndarray, r: float) -> np.ndarray:
    """Both soft-edge endpoint residuals of u' = f at the Chebyshev angles
    with cosines ``cos``: the mean of f, and c_1 - 4 / r, c_1 = (2 / k) f . cos
    being the one Chebyshev coefficient of f they need."""
    return np.array([np.mean(f), (2.0 / f.size) * (f @ cos) - 4.0 / r])


def _tau_wall(u: Potential, m: float, r: float, cos: np.ndarray, sin: np.ndarray):
    """Chebyshev moments when the edges are pinned at walls."""
    k = cos.size
    f = u.d(m + r * cos)
    e = dst(f * sin, type=2) / k
    tau = np.zeros(k)
    tau[1:] = -(r / 4.0) * e[:k - 1]
    return tau


def _edge_values(tau: np.ndarray):
    """Density bracket 1 + 2 sum tau_k cos(k theta) at theta = 0 and pi."""
    signs = np.ones(tau.size)
    signs[1::2] = -1.0
    right = 1.0 + 2.0 * float(np.sum(tau[1:]))
    left = 1.0 + 2.0 * float(np.sum(tau[1:] * signs[1:]))
    return left, right


@lru_cache(maxsize=1)
def _cdf_cos():
    """cos of the CDF table's uniform angles pi j / _CDF_GRID, j = 0 .. _CDF_GRID."""
    return read_only(np.cos(np.linspace(0.0, np.pi, _CDF_GRID + 1)))[0]


def _cdf_table(m: float, r: float, tau: np.ndarray):
    """Quantile table (ps ascending, xs ascending) from the tau series."""
    mm = _CDF_GRID
    coeff = np.zeros(mm - 1)
    kk = min(tau.size - 1, mm - 1)
    coeff[:kk] = tau[1:kk + 1] / np.arange(1, kk + 1, dtype=float)
    g = np.arange(1, mm) / mm + (2.0 / np.pi) * (dst(coeff, type=1) / 2.0)
    g = np.maximum.accumulate(np.clip(np.concatenate([[0.0], g, [1.0]]), 0.0, 1.0))
    ps, xs = (1.0 - g)[::-1], (m + r * _cdf_cos())[::-1]  # ps runs from 0 to 1
    # series wiggles near a kink can clip whole runs to 0 or 1; keep one
    # row per quantile so calls downstream see a strictly increasing table
    i0 = int(np.searchsorted(ps, 0.0, side="right")) - 1
    i1 = int(np.searchsorted(ps, 1.0, side="left"))
    ps, xs = ps[i0:i1 + 1], xs[i0:i1 + 1]
    keep = np.concatenate([[True], np.diff(ps) > 0.0])
    return ps[keep], xs[keep]


def _laplace_seed(u: Potential):
    lo = max(u.domain_lo, -32.0)
    hi = min(u.domain_hi, 32.0)
    xs = np.linspace(lo, hi, 8193)
    vs = u.value(xs)
    i = int(np.argmin(vs))
    x0 = xs[i]
    h = xs[1] - xs[0]
    if 0 < i < xs.size - 1:
        curv = (vs[i - 1] - 2.0 * vs[i] + vs[i + 1]) / (h * h)
    else:
        curv = 1.0
    curv = max(curv, 1e-6)
    r0 = float(np.clip(2.0 / np.sqrt(curv), 1e-3, 30.0))
    return float(x0), r0


def _poly_seed(a: np.ndarray):
    """(m0, r0) for u' with ascending coefficients a: the real root of u', and
    the positive root of r c_1 = 4, a polynomial in r^2: u'(m0 + r cos t) =
    sum b_i r^i cos^i t, and cos^i t has cos t coefficient 2^(1-i) C(i, i//2)."""
    roots = np.roots(a[::-1])
    m = float(roots[np.argmin(np.abs(roots.imag))].real)
    b = [sum(a[j] * math.comb(j, i) * m ** (j - i) for j in range(i, a.size))
         for i in range(a.size)]
    q = [-4.0] + [b[i] * 2.0 ** (1 - i) * math.comb(i, i // 2) for i in range(1, a.size, 2)]
    s = np.roots(q[::-1])
    s = s[s.real > 0.0]
    return m, float(np.sqrt(s[np.argmin(np.abs(s.imag))].real))


def _fits_inside(u: Potential, m: float, r: float) -> bool:
    margin = 1e-7 * (1.0 + r)
    return (m - r) > u.domain_lo + margin and (m + r) < u.domain_hi - margin


def _newton_soft(u: Potential, cos: np.ndarray, cfg: SolverSettings, seed):
    m, r = seed

    def residual(mv, rv):
        if rv <= 0 or mv - rv <= u.domain_lo or mv + rv >= u.domain_hi:
            return None
        return _soft_residuals(u.d(mv + rv * cos), cos, rv)

    res = residual(m, r)
    if res is None:
        raise SolverError("soft-edge seed escapes the potential domain")
    for it in range(1, cfg.max_iter + 1):
        nrm = np.max(np.abs(res))
        if nrm < cfg.tol:
            return m, r, it
        hm = 1e-7 * (1.0 + abs(m))
        hr = 1e-7 * (1.0 + r)
        jm = residual(m + hm, r)
        jr = residual(m, r + hr)
        if jm is None or jr is None:
            raise SolverError("soft-edge iteration escaped the potential domain")
        jac = np.column_stack([(jm - res) / hm, (jr - res) / hr])
        # lstsq instead of solve: piecewise-constant u' (kinks) zeroes the
        # m-column of the finite-difference Jacobian
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        moved = np.all(np.isfinite(step)) and np.max(np.abs(step)) >= 1e-16
        if moved:
            scale = 1.0
            for _ in range(30):
                cand = residual(m + scale * step[0], r + scale * step[1])
                if cand is not None and np.max(np.abs(cand)) < nrm:
                    m, r = m + scale * step[0], r + scale * step[1]
                    res = cand
                    break
                scale *= 0.5
            else:
                moved = False
        if not moved:
            raise SolverError("endpoint Newton stalled")
    raise SolverError("endpoint Newton did not converge")


def _bracket_root(fn, lo: float, hi: float, samples: int = 48):
    from scipy.optimize import brentq  # only walled solves load scipy.optimize

    ts = np.linspace(lo, hi, samples)
    vals = [fn(t) for t in ts]
    for a, b, va, vb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if np.isfinite(va) and np.isfinite(vb) and va * vb <= 0.0:
            return float(brentq(fn, a, b, xtol=1e-13, rtol=8.9e-16))
    return None


def _assemble(u, m, r, tau, method, iterations, cfg) -> EquilibriumResult:
    # tau lives on ``nodes`` angles, or on a polynomial solve's fewer, exact ones
    dens = theta_density(tau[1:], max(cfg.nodes, tau.size))
    if dens.min() < -_NEGATIVITY_SLACK * dens.max():
        raise MultiCutError(
            "equilibrium density is negative on the one-cut ansatz; "
            "the support is likely disconnected")
    if tau.size < cfg.nodes:
        dens = theta_density(tau[1:], tau.size)
        tau = np.trim_zeros(tau, "b")
    series = (float(m), float(r), read_only(tau[1:])[0])
    energy = series_energy(r, series[2])
    pot_vals = u.value(m + r * _chebyshev_trig(dens.size)[0])
    pot_moment = float((np.pi / dens.size) * np.sum(pot_vals * dens))
    pressure = energy + 0.75 + HALF_LOG_2PI - pot_moment
    el_constant = pot_moment - 2.0 * energy
    return EquilibriumResult(
        series=series, support_lo=float(m - r), support_hi=float(m + r),
        el_constant=el_constant, pressure=float(pressure),
        iterations=iterations, method=method, converged=True,
        energy=energy, potential_moment=pot_moment, potential=u)


def solve_equilibrium(u: Potential, cfg: SolverSettings | None = None) -> EquilibriumResult:
    """Equilibrium measure of the potential u on its domain.

    Soft edges are tried first; when the domain is an interval and the soft
    support would cross a wall, the walled configurations are solved
    instead.  A one-cut density that still comes out negative raises
    :class:`MultiCutError`.
    """
    cfg = cfg or SolverSettings()
    if not u.growth_ok:
        raise InvalidInputError(
            f"potential {u.label} lacks the confinement growth certificate")
    if not u.is_convex and not cfg.allow_nonconvex:
        raise InvalidInputError(
            "non-convex potential: set allow_nonconvex to accept "
            "possible non-uniqueness of the one-cut solution")
    trig = _chebyshev_trig(cfg.nodes)
    cos, a = trig[0], None
    if u.deriv_coeffs is not None and u.is_convex:
        a = np.trim_zeros(np.asarray(u.deriv_coeffs, dtype=float), "b")
        cos = _chebyshev_trig(max(8, 1 << (a.size + 1).bit_length()))[0]

    soft_error = None
    try:
        m, r, iters = _newton_soft(u, cos, cfg, _laplace_seed(u) if a is None else _poly_seed(a))
        if _fits_inside(u, m, r):
            tau = _soft_moments(u.d(m + r * cos), r)[0]
            if a is not None:
                tau[a.size + 1:] = 0.0  # zero in exact arithmetic
            return _assemble(u, m, r, tau, "soft", iters, cfg)
    except SolverError as exc:
        soft_error = exc

    if not (np.isfinite(u.domain_lo) or np.isfinite(u.domain_hi)):
        raise soft_error or SolverError("one-cut ansatz failed")

    lo, hi = u.domain_lo, u.domain_hi
    eps = 1e-9 * (1.0 + abs(lo if np.isfinite(lo) else 0.0) + abs(hi if np.isfinite(hi) else 0.0))

    def walled(a, b):
        """tau on the support [a, b] with hard edges, and both edge brackets."""
        tau = _tau_wall(u, 0.5 * (a + b), 0.5 * (b - a), *trig)
        return (tau, *_edge_values(tau))

    # one wall pinned, the other edge soft: the free endpoint zeroes its
    # bracket, found by a scan that runs only once the configurations before
    # it are refused
    def wall_left():
        far = hi if np.isfinite(hi) else lo + 8.0 * (_laplace_seed(u)[1] + 1.0) + 64.0
        b = _bracket_root(lambda b: walled(lo, b)[2], lo + eps + 1e-4, far)
        return None if b is None or b >= hi - eps else (lo, b)

    def wall_right():
        far = lo if np.isfinite(lo) else hi - 8.0 * (_laplace_seed(u)[1] + 1.0) - 64.0
        a = _bracket_root(lambda a: walled(a, hi)[1], far, hi - eps - 1e-4)
        return None if a is None or a <= lo + eps else (a, hi)

    for method, applies, edges in (
            ("wall-left", np.isfinite(lo), wall_left),
            ("wall-right", np.isfinite(hi), wall_right),
            ("wall-both", np.isfinite(lo) and np.isfinite(hi), lambda: (lo, hi))):
        ab = edges() if applies else None
        if ab is not None:
            tau, left, right = walled(*ab)
            if left > -_NEGATIVITY_SLACK and right > -_NEGATIVITY_SLACK:
                return _assemble(u, 0.5 * (ab[0] + ab[1]), 0.5 * (ab[1] - ab[0]), tau,
                                 method, 1, cfg)

    raise soft_error or SolverError(
        "no edge configuration yields a nonnegative one-cut density")


def free_pressure(u: Potential, cfg: SolverSettings | None = None) -> float:
    """chi_u at the equilibrium of u; invariant under shifting the potential."""
    return solve_equilibrium(u, cfg).pressure


def entropy_duality_check(mu: GridMeasure, potential_family, cfg: SolverSettings | None = None) -> float:
    """min over the family of mu(h) + pressure(h), minus chi(mu).

    Nonnegative up to tolerance, and near zero when the family contains the
    potential whose equilibrium is mu.
    """
    best = np.inf
    for h in potential_family:
        val = integrate_potential(mu, h) + free_pressure(h, cfg)
        best = min(best, val)
    return float(best - chi(mu).value)


def moment_map(mu: GridMeasure, cfg: SolverSettings | None = None):
    """Convex potential u with mu = (u')# nu_u, and the solved nu_u, centered.

    u' = Q_mu o F_nu is a fixed point in nu's tau_1 .. tau_64 (`_soft_moments`
    of Q_mu(1 - G_tau) at the ``nodes`` angles), iterated from the semicircle's
    tau until no tau_k moves by ``tol``.  Q_mu is exact for series of at most 64
    terms (8 Newton steps reach soft edges), else a table's (about 1e-7).  u
    integrates that series, linear outside, with u(0) = u(bar nu) = 0.
    """
    cfg = cfg or SolverSettings()
    if abs(mu.barycenter()) > 1e-8:
        raise InvalidInputError("moment map needs a centered measure")
    if mu.support_hi - mu.support_lo < 1e-10:
        raise InvalidInputError("moment map is undefined at a point mass")

    series = mu.series if mu.series is not None and mu.series[2].size <= _MAP_MODES else None
    theta = chebyshev_angles(cfg.nodes)
    ks = np.arange(1, _MAP_MODES + 1)
    tau = np.r_[0.0, 0.0, -0.5, np.zeros(_MAP_MODES - 2)]  # the semicircle's
    for it in range(1, cfg.max_iter + 1):
        pi_g = theta + dst(tau[1:] / ks, type=3, n=cfg.nodes)  # pi G_tau = pi (1 - F_nu)
        new, c = _soft_moments(mu.quantile(1.0 - pi_g / np.pi) if series is None else
                               series[0] + series[1] * np.cos(solve_angle(series[2], pi_g, 8)))
        step, tau = np.max(np.abs(new[:_MAP_MODES + 1] - tau)), new[:_MAP_MODES + 1]
        if step < cfg.tol:
            break
    else:
        raise SolverError(f"moment-map iteration stalled at a tau step of {step:.3g}")

    r = 4.0 / c[1]
    m = -r * tau[1]
    du = np.polynomial.Chebyshev(c[:_MAP_MODES + 2], domain=[m - r, m + r])
    iu = du.integ(lbnd=0.0)

    def fn(x):
        s = np.clip(x, m - r, m + r)
        return iu(s) + (x - s) * du(s)

    # u' = Q_mu o F_nu is nondecreasing; twice the support holds the CLI's 25% pad
    u = Potential(fn, lambda x: du(np.clip(x, m - r, m + r)), m - 2.0 * r, m + 2.0 * r,
                  True, True, f"moment-map({mu.label})")
    return u, _assemble(u, m, r, tau, "soft", it, cfg)


def find_centering_shift(f: Potential, search_box=(-8.0, 8.0),
                         cfg: SolverSettings | None = None) -> CenteringShift:
    """lambda making the equilibrium of f + lambda id centered, if the
    barycenter changes sign inside the box."""
    if not f.growth_ok:
        raise InvalidInputError("centering shift needs the growth certificate")
    cfg = cfg or SolverSettings()
    curve = []

    def bar(lam: float) -> float:
        val = series_moment(solve_equilibrium(tilt_linear(f, lam), cfg).series, 1)
        curve.append((float(lam), float(val)))
        return val

    lam = _bracket_root(bar, float(search_box[0]), float(search_box[1]), samples=9)
    return CenteringShift(found=lam is not None, lam=lam, curve=tuple(curve))

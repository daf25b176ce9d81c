"""Compactly supported probability measures on the real line.

A :class:`GridMeasure` is its support and a monotone quantile table, and
its exact Chebyshev ``series`` where one is known.  Moments, W2 and log
energies read the series where there is one and the table otherwise, and
the density, where one is wanted, is the table's derivative
(:meth:`GridMeasure.density_at`).

Working in quantile coordinates keeps the numerics uniformly accurate at
square-root and logarithmic edges, where the density itself blows up or
vanishes and naive grid quadrature loses digits.  The semicircle, arcsine
and Marchenko-Pastur tables scale cosine tables built once and shared
read-only; `cdf` takes the support angles of a measure's table rows once,
on first use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._angle_series import angle, series_moment
from ._grids import QUANTILE_CELLS, cosine_graded, gauss_legendre_01, read_only
from .errors import InvalidInputError

__all__ = [
    "GridMeasure",
    "AtomicMeasure",
    "make_semicircular",
    "make_arcsine",
    "make_marchenko_pastur_family",
    "from_quantile_table",
    "from_density_table",
    "moment",
    "translate",
    "pushforward_monotone",
    "ks_distance",
]


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Probability measure given by its monotone quantile table.

    Attributes
    ----------
    support_lo, support_hi : float
        Endpoints of the (closed) support interval.
    quantile_ps, quantile_xs : ndarray
        Monotone quantile table with ``quantile_ps[0] == 0`` and
        ``quantile_ps[-1] == 1``; ``quantile_xs`` spans the support.
    series : tuple or None
        ``(m, r, tau)``, the exact angle series (`_angle_series`) that the
        table renders: set by the closed forms and the solver, shifted by
        `translate`, None for measures built from tables or pushed forward.
    """

    support_lo: float
    support_hi: float
    quantile_ps: np.ndarray
    quantile_xs: np.ndarray
    label: str = "measure"
    series: tuple | None = None

    def quantile(self, p):
        """Evaluate the quantile function by monotone interpolation."""
        return np.interp(p, self.quantile_ps, self.quantile_xs)

    def cdf(self, x):
        """Evaluate the distribution function; clamps outside the support.

        Linear between table rows in the support angle (`_angle_series.angle`),
        in which a hard edge's square root is linear.
        """
        xs = self.quantile_xs
        return np.interp(-angle(np.asarray(x, dtype=float), xs[0], xs[-1]), self._row_angles,
                         self.quantile_ps)

    @cached_property
    def _row_angles(self) -> np.ndarray:
        """Minus the support angle of each table row, ascending; computed on
        first `cdf` and cached on the instance."""
        xs = self.quantile_xs
        return read_only(-angle(xs, xs[0], xs[-1]))[0]

    def density_at(self, x):
        """Density from the quantile table, zero outside the support.

        Each cell of positive width contributes its slope dp/dx at its
        midpoint, and the density is the linear interpolant of those
        slopes.  Cells of zero width (atoms) are skipped.
        """
        xs = self.quantile_xs
        ps = self.quantile_ps
        dx = np.diff(xs)
        keep = dx > 0
        mid = 0.5 * (xs[1:] + xs[:-1])[keep]
        slope = (np.diff(ps) / np.where(dx > 0, dx, 1.0))[keep]
        val = np.interp(x, mid, slope)
        inside = (np.asarray(x) >= self.support_lo) & (np.asarray(x) <= self.support_hi)
        return np.where(inside, val, 0.0)

    def barycenter(self) -> float:
        return moment(self, 1)

    def variance(self) -> float:
        m1 = moment(self, 1)
        return moment(self, 2) - m1 * m1

    @property
    def radius(self) -> float:
        """Radius of the smallest symmetric interval containing the support."""
        return max(abs(self.support_lo), abs(self.support_hi))


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely supported measure, used by oracles and empirical spectra."""

    points: np.ndarray
    weights: np.ndarray
    label: str = "atomic"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.shape != wts.shape or pts.ndim != 1 or pts.size == 0:
            raise InvalidInputError("atomic measure needs matching 1-d arrays")
        if np.any(wts < 0) or abs(wts.sum() - 1.0) > 1e-9:
            raise InvalidInputError("atomic weights must be nonnegative and sum to 1")
        order = np.argsort(pts)
        object.__setattr__(self, "points", pts[order])
        object.__setattr__(self, "weights", wts[order])

    def barycenter(self) -> float:
        return float(self.points @ self.weights)


def _semicircle_theta_of_p(p: np.ndarray) -> np.ndarray:
    # solve (theta - sin(theta)cos(theta))/pi = p by interpolation + Newton
    grid = np.linspace(0.0, np.pi, 32769)
    g = grid - 0.5 * np.sin(2.0 * grid)
    theta = np.interp(np.pi * p, g, grid)
    for _ in range(4):
        f = theta - 0.5 * np.sin(2.0 * theta) - np.pi * p
        df = 2.0 * np.sin(theta) ** 2
        step = f / np.maximum(df, 1e-14)
        theta = np.clip(theta - np.clip(step, -0.5, 0.5), 0.0, np.pi)
    return theta


# angle series of the semicircle, (2/pi) sin^2, Marchenko-Pastur, (1 - cos)/pi, and arcsine
_SEMICIRCLE_TAU, _MP_TAU, _NO_TAU = read_only(np.array([0.0, -0.5]), np.array([-0.5]), np.zeros(0))


@lru_cache(maxsize=2)
def _semicircle_cos(shifted: bool) -> np.ndarray:
    """cos(theta(p)) at the grid's ps, or at (1 + ps)/2 (Marchenko-Pastur)."""
    ps = cosine_graded(QUANTILE_CELLS)
    return read_only(np.cos(_semicircle_theta_of_p(0.5 * (1.0 + ps) if shifted else ps)))[0]


@lru_cache(maxsize=1)
def _arcsine_cos() -> np.ndarray:
    """cos(pi p) at the grid's ps: the arcsine law's quantile angle is pi p."""
    return read_only(np.cos(np.pi * cosine_graded(QUANTILE_CELLS)))[0]


def make_semicircular(mean: float = 0.0, variance: float = 1.0) -> GridMeasure:
    """Semicircular law with the given mean and variance.

    The support is ``[mean - 2 sqrt(variance), mean + 2 sqrt(variance)]``.
    """
    if variance <= 0:
        raise InvalidInputError("variance must be positive")
    r = 2.0 * np.sqrt(variance)
    ps = cosine_graded(QUANTILE_CELLS)
    xs = mean - r * _semicircle_cos(False)
    return GridMeasure(float(xs[0]), float(xs[-1]), ps, xs,
                       f"semicircle(mean={mean:g},var={variance:g})",
                       (float(mean), float(r), _SEMICIRCLE_TAU))


def make_arcsine(radius: float = 1.0, center: float = 0.0) -> GridMeasure:
    """Arcsine law on ``[center - radius, center + radius]``."""
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    ps = cosine_graded(QUANTILE_CELLS)
    xs = center - radius * _arcsine_cos()  # exact quantile function
    return GridMeasure(float(xs[0]), float(xs[-1]), ps, xs,
                       f"arcsine(radius={radius:g},center={center:g})",
                       (float(center), float(radius), _NO_TAU))


def make_marchenko_pastur_family(scale: float = 1.0) -> GridMeasure:
    """Square-ratio member of the Marchenko-Pastur family on ``[0, 4*scale]``.

    This is the image of the centered semicircular law of variance ``scale``
    under squaring; it has mean ``scale`` and density
    ``sqrt(4*scale - x) / (2 pi scale sqrt(x))``.
    """
    if scale <= 0:
        raise InvalidInputError("scale must be positive")
    ps = cosine_graded(QUANTILE_CELLS)
    xs = (2.0 * np.sqrt(scale) * _semicircle_cos(True)) ** 2
    xs = np.maximum.accumulate(xs)  # guard monotonicity at roundoff
    return GridMeasure(float(xs[0]), float(xs[-1]), ps, xs, f"mp(scale={scale:g})",
                       (2.0 * scale, 2.0 * scale, _MP_TAU))


def from_quantile_table(ps, xs, label: str = "table") -> GridMeasure:
    """Build a measure from a monotone quantile table.

    ``ps`` must run from 0 to 1 and both arrays must be nondecreasing.  The
    arrays are stored as given, and ``xs[0]``, ``xs[-1]`` become the support.
    """
    ps = np.asarray(ps, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if ps.ndim != 1 or ps.shape != xs.shape or ps.size < 3:
        raise InvalidInputError("quantile table needs matching 1-d arrays")
    if abs(ps[0]) > 1e-12 or abs(ps[-1] - 1.0) > 1e-12:
        raise InvalidInputError("quantile table must span [0, 1]")
    if np.any(np.diff(ps) < 0) or np.any(np.diff(xs) < -1e-12):
        raise InvalidInputError("quantile table must be monotone")
    lo, hi = float(xs[0]), float(xs[-1])
    if hi - lo <= 0:
        raise InvalidInputError("degenerate support")
    return GridMeasure(lo, hi, ps, xs, label)


def from_density_table(xs, density, label: str = "table") -> GridMeasure:
    """Build a measure from density samples on an ascending grid."""
    xs = np.asarray(xs, dtype=float)
    density = np.asarray(density, dtype=float)
    if xs.ndim != 1 or xs.shape != density.shape or xs.size < 3:
        raise InvalidInputError("density table needs matching 1-d arrays")
    if np.any(np.diff(xs) <= 0):
        raise InvalidInputError("density grid must be strictly ascending")
    if np.any(density < -1e-12):
        raise InvalidInputError("density must be nonnegative")
    density = np.maximum(density, 0.0)
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))])
    if mass[-1] <= 0:
        raise InvalidInputError("density integrates to zero")
    ps_raw = mass / mass[-1]
    ps = cosine_graded(QUANTILE_CELLS)
    # invert the piecewise-linear distribution function
    xq = np.interp(ps, ps_raw, xs)
    return from_quantile_table(ps, xq, label)


def moment(mu, k: int) -> float:
    """k-th raw moment: a finite sum where mu carries a series."""
    if isinstance(mu, AtomicMeasure):
        return float(np.sum(mu.weights * mu.points ** k))
    if mu.series is not None:
        return series_moment(mu.series, k)
    t, w = gauss_legendre_01()
    q = mu.quantile(t)
    return float(np.sum(w * q ** k))


def translate(mu: GridMeasure, a: float) -> GridMeasure:
    """Pushforward under x -> x + a; a series moves its center m."""
    return dataclasses.replace(
        mu,
        support_lo=mu.support_lo + a,
        support_hi=mu.support_hi + a,
        quantile_xs=mu.quantile_xs + a,
        label=f"translate({mu.label},{a:g})",
        series=None if mu.series is None else (mu.series[0] + a, *mu.series[1:]),
    )


def pushforward_monotone(mu: GridMeasure, transport, label: str | None = None) -> GridMeasure:
    """Pushforward under a strictly increasing map.

    Parameters
    ----------
    transport : callable
        Vectorized strictly increasing function; evaluated on the quantile
        table.  The image density is recovered by differentiating the mapped
        table.
    """
    xs = np.asarray(transport(mu.quantile_xs), dtype=float)
    if np.any(np.diff(xs) < -1e-10 * (1.0 + np.max(np.abs(xs)))):
        raise InvalidInputError("transport map is not increasing on the support")
    xs = np.maximum.accumulate(xs)
    return from_quantile_table(
        mu.quantile_ps, xs, label or f"pushforward({mu.label})"
    )


def ks_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    """sup-norm distance between the two CDFs."""
    xs = np.union1d(mu.quantile_xs[::8], nu.quantile_xs[::8])
    return float(np.max(np.abs(mu.cdf(xs) - nu.cdf(xs))))

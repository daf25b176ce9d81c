"""Quadratic optimal transport on the line.

In one dimension the monotone (comonotone) coupling is optimal for convex
costs, so W2 and the maximal-correlation functional reduce to quantile
integrals.  All pairwise quantities are evaluated on one shared
Gauss-Legendre grid on (0, 1): polarization and translation identities then
hold to machine precision rather than to quadrature tolerance.  Where both
measures carry angle series of at most 64 terms, the quantiles at those
nodes are solved from them (`_angle_series.quantile_cos`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._angle_series import quantile_cos
from ._grids import TRANSPORT_POINTS, gauss_legendre_01
from .errors import InvalidInputError
from .logpotential import chi
from .measures import AtomicMeasure, GridMeasure

__all__ = [
    "TransportValue",
    "w2",
    "w2_atomic_oracle",
    "max_correlation",
    "translation_identity_check",
    "ssfti_functional",
]


@dataclass(frozen=True)
class TransportValue:
    """Transport cost together with how it was obtained."""

    cost: float
    coupling_descriptor: str  # "comonotone" | "lp-oracle"
    resolution: int

    @property
    def cost_squared(self) -> float:
        return self.cost * self.cost

    def __float__(self) -> float:
        return float(self.cost)


def _shared_quantiles(mu: GridMeasure, nu: GridMeasure, n: int):
    t, w = gauss_legendre_01(n)
    series = mu.series, nu.series
    if any(s is None or s[2].size > 64 for s in series):
        return mu.quantile(t), nu.quantile(t), w
    return (*(m + r * quantile_cos(tuple(tau.tolist()), n) for m, r, tau in series), w)


def w2(mu: GridMeasure, nu: GridMeasure, n: int = TRANSPORT_POINTS) -> TransportValue:
    """W2(mu, nu) through the monotone coupling.

    cost^2 = int_0^1 (Q_mu - Q_nu)^2 dt on the shared quantile grid.
    """
    qm, qn, wts = _shared_quantiles(mu, nu, n)
    cost2 = float(wts @ (qm - qn) ** 2)
    return TransportValue(cost=float(np.sqrt(max(cost2, 0.0))),
                          coupling_descriptor="comonotone", resolution=n)


def max_correlation(mu: GridMeasure, nu: GridMeasure, n: int = TRANSPORT_POINTS) -> float:
    """sup over couplings of int x y dgamma = int_0^1 Q_mu Q_nu dt."""
    qm, qn, wts = _shared_quantiles(mu, nu, n)
    return float(wts @ (qm * qn))


def w2_atomic_oracle(mu: AtomicMeasure, nu: AtomicMeasure) -> TransportValue:
    """Exact discrete transport cost by north-west-corner refinement.

    The comonotone vertex coupling it builds is optimal for quadratic cost
    on the line; the walk is independent of the quantile-grid code path, so
    tests can use it as an oracle.  Small inputs only.
    """
    if mu.points.size > 8 or nu.points.size > 8:
        raise InvalidInputError("atomic oracle accepts at most 8 atoms per side")
    i = j = 0
    rem_a = mu.weights.copy()
    rem_b = nu.weights.copy()
    cost2 = 0.0
    vertices = 0
    while i < rem_a.size and j < rem_b.size:
        m = min(rem_a[i], rem_b[j])
        if m > 0.0:
            cost2 += m * (mu.points[i] - nu.points[j]) ** 2
            vertices += 1
        rem_a[i] -= m
        rem_b[j] -= m
        # advance the exhausted side; ties advance both
        if rem_a[i] <= 1e-15:
            i += 1
        if j < rem_b.size and rem_b[j] <= 1e-15:
            j += 1
    return TransportValue(cost=float(np.sqrt(max(cost2, 0.0))),
                          coupling_descriptor="lp-oracle", resolution=vertices)


def translation_identity_check(mu: GridMeasure, nu: GridMeasure, a: float) -> float:
    """Defect of (1/2) W2(mu_a, nu)^2 = (1/2) W2(mu, nu)^2 + a bar(mu) - a bar(nu) + a^2/2."""
    qm, qn, wts = _shared_quantiles(mu, nu, TRANSPORT_POINTS)
    lhs = 0.5 * float(wts @ (qm + a - qn) ** 2)
    bar_m = float(wts @ qm)
    bar_n = float(wts @ qn)
    rhs = 0.5 * float(wts @ (qm - qn) ** 2) + a * bar_m - a * bar_n + 0.5 * a * a
    return abs(lhs - rhs)


def ssfti_functional(mu: GridMeasure, nu: GridMeasure) -> float:
    """(1/2) m2(nu) - chi(nu) - (1/2) W2(mu, nu)^2.

    Over nu this is minimized at the moment-map image of mu.  The minimum
    never sits below -H(mu, sigma) - (1/2) log(2 pi) and touches that bound
    exactly when mu is semicircular.  Used as the optimality probe for
    moment_map.
    """
    qm, qn, wts = _shared_quantiles(mu, nu, TRANSPORT_POINTS)
    m2 = float(wts @ qn ** 2)
    cost2 = float(wts @ (qm - qn) ** 2)
    return 0.5 * m2 - float(chi(nu)) - 0.5 * cost2

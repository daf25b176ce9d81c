"""Shared deterministic quadrature grids.

Every module that integrates in quantile coordinates pulls its nodes from
here, so algebraic identities between transport and entropy quantities
(polarization, translation covariance) hold to machine precision instead of
merely to quadrature tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

# Gauss-Legendre points for quantile-domain integrals (moments, transport).
TRANSPORT_POINTS = 8192
# cells for the double integrals with a log singularity on the diagonal
ENERGY_CELLS = 2048
# default density grid size
DEFAULT_NODES = 4096
# default quantile table resolution (cells; table has one more point)
QUANTILE_CELLS = 8192

# two-point Gauss-Legendre rule on [0, 1]
GL2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GL2_W = np.array([0.5, 0.5])

# four-point rule on [0, 1], used where the integrand has more structure
_g4 = roots_legendre(4)
GL4_T = 0.5 * (_g4[0] + 1.0)
GL4_W = 0.5 * _g4[1]


@lru_cache(maxsize=8)
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = roots_legendre(n)
    return 0.5 * (t + 1.0), 0.5 * w


def gauss_legendre_01(n: int = TRANSPORT_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1).

    Cached by node count alone, so ``gauss_legendre_01()`` and
    ``gauss_legendre_01(TRANSPORT_POINTS)`` share one build.
    """
    return _gauss_legendre_01(n)


gauss_legendre_01.cache_info = _gauss_legendre_01.cache_info


@lru_cache(maxsize=16)
def cosine_graded(cells: int = ENERGY_CELLS) -> np.ndarray:
    """cells+1 boundaries on [0, 1] clustering toward both endpoints.

    Grading compensates the square-root and logarithmic behaviour of
    quantile functions at the edge of the support.
    """
    k = np.arange(cells + 1)
    return 0.5 * (1.0 - np.cos(np.pi * k / cells))


def chebyshev_angles(k: int = DEFAULT_NODES) -> np.ndarray:
    """Interior angles (2i+1)pi/(2k), ascending in (0, pi)."""
    i = np.arange(k)
    return (2 * i + 1) * np.pi / (2 * k)

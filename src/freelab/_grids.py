"""Shared deterministic quadrature grids.

Every module that integrates in quantile coordinates pulls its nodes from
here, so algebraic identities between transport and entropy quantities
(polarization, translation covariance) hold to machine precision instead of
merely to quadrature tolerance.

The n-point Gauss-Legendre rule is built in O(n) by Newton's method on
asymptotic expansions, in the angle variable theta with x = cos(theta), as in
Hale & Townsend, "Fast and accurate computation of Gauss-Legendre and
Gauss-Jacobi quadrature nodes and weights" (SIAM J. Sci. Comput. 35, 2013);
Bogaert, "Iteration-free computation of Gauss-Legendre quadrature nodes and
weights" (SIAM J. Sci. Comput. 36, 2014) reaches the same accuracy without
the iteration.  Only the nodes with x >= 0 are computed; the rest are their
mirror images.  Tricomi's formula gives the starting angles, and three Newton
steps refine them:

- where n sin(theta) >= 40, P_n and dP_n/dtheta come from the 20-term
  interior (Stieltjes) expansion;
- at the few nodes nearer the ends, they come from scipy's
  ``eval_legendre``, corrected to first order for the rounding of cos(theta)
  so that the angle stays accurate to relative precision.

The weights are 2 / (dP_n/dtheta)^2, normalised to sum to 2; the form
2 / ((1 - x^2) P_n'(x)^2) would lose digits to the cancellation in 1 - x^2
near +-1.  Against 40-digit references (n = 5, 101, 1000 in full, 8191 and
8192 sampled) the nodes are within 1.5e-16, the interior weights within
1e-15 relative, and the weights of the 13 nodes nearest each end within
4e-14, where the rounding of ``eval_legendre``'s recurrence sets the limit;
the rule integrates P_j exactly to 1e-15 for every j <= 2n - 1
(``tests/test_grids.py``).  The build takes about 23 ms at n = 8192.
scipy's ``roots_legendre``, used here before, is an O(n^2) Golub-Welsch
solve that took about 2 s there, and its weights are off by 1.2e-6 relative
at the second node, by 6e-8 at the fourth and by 6e-14 mid-grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre, roots_legendre

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


# interior expansion: number of terms, and the least n sin(theta) it is used at
_STIELTJES_TERMS = 20
_STIELTJES_MIN = 40.0
_NEWTON_STEPS = 3


def _stieltjes_scale(n: int) -> float:
    """sqrt(4/pi) Gamma(n+1) / Gamma(n+3/2), from Stirling's series.

    The Stirling terms of the two log-gammas are subtracted analytically,
    which keeps full relative precision; five terms are exact to rounding
    for n >= 40, the only n with interior nodes.
    """
    a, b = n + 1.0, n + 1.5

    def tail(z):
        # 1/(12z) - 1/(360z^3) + 1/(1260z^5) - 1/(1680z^7) + 1/(1188z^9)
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * z2)) / z2) / z2) / z2) / z

    small = 0.5 - a * np.log1p(0.5 / a) + tail(a) - tail(b)
    return float(np.sqrt(4.0 / np.pi / a) * np.exp(small))


def _legendre_interior(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and its theta-derivative from the Stieltjes expansion

    P_n(cos theta) = C_n sum_m h_m cos(alpha_m) / (2 sin theta)^(m + 1/2),
    alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2.

    alpha_0 reaches n pi, where rounding it to a double would shift the
    nodes by an ulp of theta; so theta is split into a high part with 26
    bits, whose product with n + 1/2 is exact, and a low part, and
    alpha_m = alpha_0 + m (theta - pi/2) is applied as a rotation.
    """
    sin, cos = np.sin(theta), np.cos(theta)
    t = theta * (2.0**27 + 1.0)
    hi = t - (t - theta)
    big, small = (n + 0.5) * hi, (n + 0.5) * (theta - hi) - 0.25 * np.pi
    cb, sb, cs, ss = np.cos(big), np.sin(big), np.cos(small), np.sin(small)
    c0, s0 = cb * cs - sb * ss, sb * cs + cb * ss
    q = 0.5 / sin
    scale = np.sqrt(q)
    h = 1.0
    p = np.zeros_like(theta)
    dp = np.zeros_like(theta)
    for m in range(_STIELTJES_TERMS):
        beta = m * (theta - 0.5 * np.pi)
        cr, sr = np.cos(beta), np.sin(beta)
        ca, sa = c0 * cr - s0 * sr, s0 * cr + c0 * sr
        p += h * scale * ca
        dp -= h * scale * ((n + m + 0.5) * sa + (m + 0.5) * cos / sin * ca)
        scale = scale * q
        h *= (m + 0.5) ** 2 / ((m + 1) * (n + m + 1.5))
    c = _stieltjes_scale(n)
    return c * p, c * dp


def _legendre_edge(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and its theta-derivative from ``eval_legendre``.

    x = fl(cos theta) misses cos theta by r; near x = 1 that shift is a
    relative error of 1e-9 in theta, so r is put back to first order in P_n
    and to second order in dP_n/dtheta.  Below x = 1/2, where 1 - x is no
    longer exact and the shift costs no precision in theta, r is left out.
    """
    x = np.cos(theta)
    r = np.where(x > 0.5, (1.0 - x) - 2.0 * np.sin(0.5 * theta) ** 2, 0.0)
    pn, pm = eval_legendre(n, x), eval_legendre(n - 1, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    d1 = n * (pm - x * pn) / one_minus_x2
    d2 = (2.0 * x * d1 - n * (n + 1) * pn) / one_minus_x2
    return pn + d1 * r, -np.sin(theta) * (d1 + d2 * r)


def _legendre(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, dp = np.empty_like(theta), np.empty_like(theta)
    inner = n * np.sin(theta) >= _STIELTJES_MIN
    p[inner], dp[inner] = _legendre_interior(n, theta[inner])
    p[~inner], dp[~inner] = _legendre_edge(n, theta[~inner])
    return p, dp


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    # Tricomi's starting guesses, x_k descending from near 1
    phi = (4 * k - 1) * np.pi / (4 * n + 2)
    x0 = (1.0 - (n - 1) / (8.0 * n**3)
          - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi)
    theta = np.arccos(x0)
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, theta)
        theta -= p / dp
    xh = np.cos(theta)
    if n % 2:
        theta[-1], xh[-1] = 0.5 * np.pi, 0.0
    wh = 2.0 / _legendre(n, theta)[1] ** 2
    x = np.concatenate((-xh[: n // 2], xh[::-1]))
    w = np.concatenate((wh[: n // 2], wh[::-1]))
    return x, w * (2.0 / w.sum())


@lru_cache(maxsize=8)
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_legendre(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


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
    ps = 0.5 * (1.0 - np.cos(np.pi * k / cells))
    ps.flags.writeable = False
    return ps


def chebyshev_angles(k: int = DEFAULT_NODES) -> np.ndarray:
    """Interior angles (2i+1)pi/(2k), ascending in (0, pi)."""
    i = np.arange(k)
    return (2 * i + 1) * np.pi / (2 * k)

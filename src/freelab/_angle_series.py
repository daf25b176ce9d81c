"""Chebyshev series of a measure in the angle variable of its support.

On [m - r, m + r], write x = m + r cos(theta).  A measure's Chebyshev
moments c_k = int T_k((x - m)/r) dmu come from its angle distribution
function G(theta) = mu(x >= m + r cos theta) by parts:
c_k = k int_0^pi sin(k theta) (G(theta) - theta/pi) dtheta.  The log
energy and the Hilbert transform are both series in these moments, and the
equilibrium solver's CDF is a sine series in its own; this leaf module
holds the two pieces they share, so that `logpotential` and `equilibrium`
reach them without importing each other.  Their angle table is built once
and shared read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dst

from ._grids import read_only

# uniform angles at which G is read; the DST-I runs on the interior ones
ANGLES = 2 ** 14


@lru_cache(maxsize=1)
def _angle_table():
    """theta/pi, cos(theta) and the weights k pi/(2 ANGLES) at theta = pi k/ANGLES."""
    n = ANGLES
    theta = np.pi * np.arange(1, n) / n
    return read_only(theta / np.pi, np.cos(theta), np.arange(1, n) * (np.pi / (2 * n)))


def chebyshev_moments(ps: np.ndarray, xs: np.ndarray):
    """Center m, half-width r and moments c_1 .. c_{ANGLES - 1} of the
    quantile table (ps, xs), from one DST-I of G - theta/pi read off the
    table at ANGLES uniform angles."""
    m, r = 0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])
    frac, cos, weight = _angle_table()
    g = 1.0 - np.interp(m + r * cos, xs, ps) - frac
    return m, r, weight * dst(g, type=1)


def sine_tables(t: np.ndarray, kk: int) -> tuple[np.ndarray, ...]:
    """sin(q B t), cos(q B t), cos(s t) and sin(s t) at the angles t, for
    the blocks of `sine_sum` over kk modes: B = ceil(sqrt(kk + 1)), s < B."""
    b = int(np.ceil(np.sqrt(kk + 1)))
    st = np.outer(t, np.arange(b, dtype=float))
    qt = np.outer(t, b * np.arange(-(-(kk + 1) // b), dtype=float))
    return np.sin(qt), np.cos(qt), np.cos(st), np.sin(st)


def sine_sum(coeff: np.ndarray, t: np.ndarray, tables=None) -> np.ndarray:
    """sum_{k >= 1} coeff[k - 1] sin(k t) at each angle t.

    With k = q B + s and B = ceil(sqrt(K + 1)), sin(k t) = sin(q B t)
    cos(s t) + cos(q B t) sin(s t), so the sum takes about 4 B sines and
    cosines per angle and two matrix products against the B-wide rows of
    coefficients, instead of a table of K sines per angle.  ``tables`` are
    `sine_tables(t, coeff.size)`, passed in where t is a fixed grid.
    """
    kk = coeff.size
    sin_q, cos_q, cos_s, sin_s = sine_tables(t, kk) if tables is None else tables
    blocks = np.zeros((sin_q.shape[1], cos_s.shape[1]))
    blocks.flat[1:kk + 1] = coeff  # row q holds modes q B .. q B + B - 1
    return np.sum(sin_q * (cos_s @ blocks.T) + cos_q * (sin_s @ blocks.T), axis=1)

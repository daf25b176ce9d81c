"""External-field potentials and convex-duality operations.

A :class:`Potential` is a vectorized scalar field on an interval domain,
extended by +infinity outside.  Factories certify convexity and confinement
growth; combinators (shift, tilt, Moreau-Yosida, Legendre transform) carry
the certificates along analytically where possible and re-probe otherwise.

The numerical Legendre transform and the Moreau-Yosida envelope both
maximize a score over a fixed evaluation grid.  On a convex grid the
maximizer of x y - u(x) is the first index whose discrete slope reaches y
(the discrete Legendre-Fenchel fact behind Lucet 1997, Numer. Algorithms
16), so the grid index is one ``searchsorted`` into the running maximum of
those break points; non-convex grids fall back to a brute-force argmax.
The maximizer is then polished to rounding in the two cells around that
index by bisection on its stationarity condition, y - u'(x) = 0 for the
conjugate and (t - y)/lam - u'(y) = 0 for the envelope, and is the envelope
derivative.  A potential without ``deriv`` is bisected on its
central-difference slope (``_FD_STEP``), accurate to about 1e-12 only.

Pointwise hypotheses between potentials, such as the Fenchel-Young bound
f(x) + g(y) >= x y, are certified by :func:`lattice_floor` on a finite
lattice, with the offending lattice point as witness when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HypothesisError, InvalidInputError

__all__ = [
    "Potential",
    "quadratic",
    "quartic",
    "polynomial_even",
    "abs_potential",
    "arcsine_indicator",
    "linear_halfline",
    "table_potential",
    "shift_potential",
    "tilt_linear",
    "moreau_yosida",
    "legendre_transform",
    "fenchel_young_gap",
    "lattice_floor",
]

SCAN_BOX = 64.0
SCAN_POINTS = 16385
LATTICE_POINTS = 256
_FD_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class Potential:
    """Scalar potential with convexity and growth certificates.

    Attributes
    ----------
    fn : callable
        Vectorized evaluation on the domain; +inf outside.
    deriv : callable or None
        Vectorized derivative where available; finite differences otherwise.
    is_convex : bool
        Certificate that the potential is convex on its domain.
    growth_ok : bool
        Certificate that ``u(x) - 2 log|x|`` diverges, so the associated
        variational problems are well posed.
    deriv_coeffs : tuple of float or None
        Ascending coefficients of u' where it is a polynomial (``quadratic``,
        ``quartic``, ``polynomial_even``, their shifts and tilts), else None.
    """

    fn: Callable
    deriv: Callable | None
    domain_lo: float
    domain_hi: float
    is_convex: bool
    growth_ok: bool
    label: str
    deriv_coeffs: tuple[float, ...] | None = None

    def value(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        inside = (arr >= self.domain_lo) & (arr <= self.domain_hi)
        out = np.full(arr.shape, np.inf)
        if np.any(inside):
            out[inside] = np.asarray(self.fn(arr[inside]), dtype=float)
        return out if np.ndim(x) else float(out[0])

    def d(self, x):
        """Derivative, by finite differences when no closed form exists."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.deriv is not None:
            out = np.asarray(self.deriv(arr), dtype=float)
        else:
            h = _FD_STEP * (1.0 + np.abs(arr))
            lo = np.maximum(arr - h, self.domain_lo)
            hi = np.minimum(arr + h, self.domain_hi)
            width = np.maximum(hi - lo, 1e-300)
            out = (self.value(hi) - self.value(lo)) / width
        return out if np.ndim(x) else float(out[0])

    @property
    def bounded_domain(self) -> bool:
        return np.isfinite(self.domain_lo) and np.isfinite(self.domain_hi)


def _certify(fn, dlo, dhi):
    """Probe convexity and confinement growth on a deterministic grid."""
    lo = max(dlo, -32.0)
    hi = min(dhi, 32.0)
    if not hi > lo:
        raise InvalidInputError("potential domain too small to certify")
    xs = np.linspace(lo, hi, 4097)
    vs = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(vs)):
        raise InvalidInputError("potential must be finite on its domain")
    d2 = vs[:-2] - 2.0 * vs[1:-1] + vs[2:]
    scale = 1.0 + np.max(np.abs(vs))
    convex = bool(d2.min() >= -1e-8 * scale)
    if np.isfinite(dlo) and np.isfinite(dhi):
        growth = True  # compact domain confines by itself
    else:
        ts = np.array([50.0, 500.0, 5000.0])
        vals = []
        for t in ts:
            cand = [fn(np.array([s]))[0] for s in (t, -t)
                    if dlo <= s <= dhi]
            vals.append(min(cand) - 2.0 * np.log(t))
        growth = bool(vals[0] < vals[1] < vals[2] and vals[2] > vs.min() + 20.0)
    return convex, growth


def _finite(**params) -> None:
    """Reject non-finite factory parameters, naming the first one."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise InvalidInputError(f"potential parameter {name}={value} must be finite")


def quadratic(c: float = 1.0) -> Potential:
    """u(x) = c x^2 / 2."""
    _finite(c=c)
    return Potential(
        fn=lambda x: 0.5 * c * x * x,
        deriv=lambda x: c * x,
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=c >= 0, growth_ok=c > 0,
        label=f"quadratic(c={c:g})",
        deriv_coeffs=(0.0, float(c)),
    )


def quartic(g: float = 0.25) -> Potential:
    """u(x) = g x^4."""
    _finite(g=g)
    return Potential(
        fn=lambda x: g * x ** 4,
        deriv=lambda x: 4.0 * g * x * x * x,
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=g >= 0, growth_ok=g > 0,
        label=f"quartic(g={g:g})",
        deriv_coeffs=(0.0, 0.0, 0.0, 4.0 * g),
    )


def polynomial_even(c2: float, c4: float) -> Potential:
    """u(x) = c2 x^2 + c4 x^4."""
    _finite(c2=c2, c4=c4)
    return Potential(
        fn=lambda x: c2 * x * x + c4 * x ** 4,
        deriv=lambda x: 2.0 * c2 * x + 4.0 * c4 * x * x * x,
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=c2 >= 0 and c4 >= 0,
        growth_ok=c4 > 0 or (c4 == 0 and c2 > 0),
        label=f"poly(c2={c2:g},c4={c4:g})",
        deriv_coeffs=(0.0, 2.0 * c2, 0.0, 4.0 * c4),
    )


def abs_potential() -> Potential:
    """u(x) = |x|."""
    return Potential(
        fn=np.abs,
        deriv=np.sign,
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=True, growth_ok=True,
        label="abs",
    )


def arcsine_indicator(radius: float = 1.0) -> Potential:
    """Flat well: log(2/radius) on [-radius, radius], +inf outside.

    The constant makes the well its own variational ground level, matching
    the convention used for the hard-wall equilibrium examples.
    """
    if not 0 < radius < np.inf:
        raise InvalidInputError("radius must be positive and finite")
    level = float(np.log(2.0 / radius))
    return Potential(
        fn=lambda x: np.full(np.shape(x), level),
        deriv=lambda x: np.zeros(np.shape(x)),
        domain_lo=-radius, domain_hi=radius,
        is_convex=True, growth_ok=True,
        label=f"arcsine(radius={radius:g})",
    )


def linear_halfline(slope: float = 1.0) -> Potential:
    """u(x) = slope * x confined to [0, inf)."""
    if not 0 < slope < np.inf:
        raise InvalidInputError("halfline slope must be positive and finite")
    return Potential(
        fn=lambda x: slope * np.asarray(x, dtype=float),
        deriv=lambda x: np.full(np.shape(x), float(slope)),
        domain_lo=0.0, domain_hi=np.inf,
        is_convex=True, growth_ok=True,
        label=f"halfline(slope={slope:g})",
    )


def table_potential(xs, us, label: str = "table") -> Potential:
    """Piecewise-linear potential from samples; +inf outside the table range."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 1 or xs.shape != us.shape or xs.size < 3:
        raise InvalidInputError("potential table needs matching 1-d arrays")
    if np.any(np.diff(xs) <= 0):
        raise InvalidInputError("potential table grid must be ascending")
    slopes = np.diff(us) / np.diff(xs)
    mids = 0.5 * (xs[1:] + xs[:-1])
    fn = lambda x: np.interp(x, xs, us)
    deriv = lambda x: np.interp(x, mids, slopes)
    convex, growth = _certify(fn, xs[0], xs[-1])
    return Potential(fn, deriv, float(xs[0]), float(xs[-1]), convex, growth, label)


def shift_potential(u: Potential, z: float) -> Potential:
    """x -> u(x - z): the graph moves right by z."""
    _finite(z=z)
    poly = np.polynomial.Polynomial
    coeffs = u.deriv_coeffs and tuple(poly(u.deriv_coeffs)(poly([-z, 1.0])).coef.tolist())
    return Potential(
        fn=lambda x: u.fn(np.asarray(x) - z),
        deriv=None if u.deriv is None else (lambda x: u.deriv(np.asarray(x) - z)),
        domain_lo=u.domain_lo + z, domain_hi=u.domain_hi + z,
        is_convex=u.is_convex, growth_ok=u.growth_ok,
        label=f"shifted({u.label},z={z:g})",
        deriv_coeffs=coeffs,
    )


def tilt_linear(u: Potential, lam: float) -> Potential:
    """x -> u(x) + lam x.  Convexity survives; growth is re-probed."""
    _finite(lam=lam)
    fn = lambda x: u.fn(x) + lam * np.asarray(x)
    if u.bounded_domain:
        growth = True
    else:
        # the tilt can destroy confinement (e.g. |x| - x); re-check
        try:
            _, growth = _certify(lambda x: u.value(x) + lam * np.asarray(x),
                                 u.domain_lo, u.domain_hi)
        except InvalidInputError:
            growth = False
    return Potential(
        fn=fn,
        deriv=None if u.deriv is None else (lambda x: u.deriv(x) + lam),
        domain_lo=u.domain_lo, domain_hi=u.domain_hi,
        is_convex=u.is_convex, growth_ok=growth,
        label=f"tilted({u.label},lam={lam:g})",
        deriv_coeffs=u.deriv_coeffs and (u.deriv_coeffs[0] + lam, *u.deriv_coeffs[1:]),
    )


def _eval_grid(u: Potential, box: float = SCAN_BOX, n: int = SCAN_POINTS):
    lo = max(u.domain_lo, -box)
    hi = min(u.domain_hi, box)
    if not hi > lo:
        raise InvalidInputError("potential domain does not meet the scan box")
    xs = np.linspace(lo, hi, n)
    us = np.asarray(u.value(xs), dtype=float)
    keep = np.isfinite(us)
    if keep.sum() < 8:
        raise InvalidInputError("potential is almost nowhere finite in the scan box")
    return xs[keep], us[keep]


def _grid_index(ts, xs, us, breaks, score, convex: bool) -> np.ndarray:
    """Grid index maximizing score(xs, t, us) for each t of the 1-d array ts.

    On a convex grid a pointer walk with ascending t would advance from j
    to j + 1 while t exceeds ``breaks[j]``, so it stops at the first index
    whose break is >= t.  Against the running maximum of the breaks that is
    one ``searchsorted``, exact for any break sequence and any query order.
    Otherwise every grid point is scored, in row blocks.
    """
    if convex:
        return np.searchsorted(np.maximum.accumulate(breaks), ts)
    idx = np.empty(ts.size, dtype=np.intp)
    chunk = 512
    for s in range(0, ts.size, chunk):
        idx[s:s + chunk] = np.argmax(score(xs, ts[s:s + chunk, None], us), axis=1)
    return idx


def _grid_max(u: Potential, ts, xs, us, breaks, score, slope):
    """Maximizer and maximum over x of score(x, t, u(x)), for ts of any shape.

    The grid index from :func:`_grid_index` brackets the maximizer between
    its neighbours.  Where slope(x, t), the score's x-derivative, falls from
    >= 0 to <= 0 across that bracket, bisection on its sign polishes the
    maximizer; elsewhere (walls, plateaus) the grid point stays.
    """
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    idx = _grid_index(flat, xs, us, breaks, score, u.is_convex)
    lo = xs[np.maximum(idx - 1, 0)]
    hi = xs[np.minimum(idx + 1, xs.size - 1)]
    polish = (slope(lo, flat) >= 0.0) & (slope(hi, flat) <= 0.0)
    for _ in range(60):  # takes a two-cell bracket (<= 1.6e-2 wide) below 1.4e-20
        mid = 0.5 * (lo + hi)
        up = slope(mid, flat) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    arg = np.where(polish, 0.5 * (lo + hi), xs[idx])
    val = score(arg, flat, u.value(arg))
    # the grid point wins a tie, as on a wall plateau
    grid_val = score(xs[idx], flat, us[idx])
    arg = np.where(grid_val >= val, xs[idx], arg)
    val = np.maximum(val, grid_val)
    return arg.reshape(ts.shape), val.reshape(ts.shape)


def _conjugate_eval(u: Potential, ys, xs, us):
    """Value and maximizer of the conjugate at ys (any shape)."""
    slopes = np.diff(us) / np.diff(xs)
    arg, val = _grid_max(u, ys, xs, us, slopes, lambda x, y, ux: x * y - ux,
                         lambda x, y: y - u.d(x))
    return val, arg


def legendre_transform(u: Potential) -> Potential:
    """Convex conjugate u*(y) = sup_x [x y - u(x)].

    The supremum is scanned over a fixed grid on the domain intersected with
    ``[-SCAN_BOX, SCAN_BOX]`` and polished inside the bracketing cell.  When
    the domain of u is unbounded the conjugate is only finite for slopes u
    actually attains; outside the attained-slope window the supremum escapes
    the scan box and the conjugate reports +inf.
    """
    xs, us = _eval_grid(u)
    if u.bounded_domain:
        conj_lo, conj_hi = -np.inf, np.inf
    else:
        s_lo = (us[1] - us[0]) / (xs[1] - xs[0])
        s_hi = (us[-1] - us[-2]) / (xs[-1] - xs[-2])
        pad = 1e-9 * (1.0 + abs(s_lo) + abs(s_hi))
        conj_lo, conj_hi = s_lo - pad, s_hi + pad

    def fn(y):
        return _conjugate_eval(u, y, xs, us)[0]

    def deriv(y):
        return _conjugate_eval(u, y, xs, us)[1]

    growth = min(conj_hi, 32.0) > max(conj_lo, -32.0) and _certify(fn, conj_lo, conj_hi)[1]
    return Potential(fn, deriv, conj_lo, conj_hi, True, growth,
                     label=f"legendre({u.label})")


def moreau_yosida(u: Potential, lam: float) -> Potential:
    """Moreau-Yosida regularization with parameter lam > 0.

    value(x) = min_y [ u(y) + (y - x)^2 / (2 lam) ]; the derivative is the
    proximal displacement (x - prox(x)) / lam.
    """
    if not 0 < lam < np.inf:
        raise InvalidInputError("moreau_yosida parameter must be positive and finite")
    xs, us = _eval_grid(u)
    # minimizing u(y) + (y - t)^2 / (2 lam) maximizes its negation, whose
    # walk passes index j while t exceeds the cell midpoint + lam * slope
    breaks = 0.5 * (xs[1:] + xs[:-1]) + lam * (np.diff(us) / np.diff(xs))
    score = lambda y, t, uy: -(uy + (y - t) ** 2 / (2.0 * lam))
    slope = lambda y, t: (t - y) / lam - u.d(y)

    def _prox(ts):
        arg, val = _grid_max(u, ts, xs, us, breaks, score, slope)
        return arg, -val

    fn = lambda x: _prox(x)[1]
    deriv = lambda x: (np.asarray(x, dtype=float) - _prox(x)[0]) / lam
    convex = u.is_convex
    _, growth = _certify(fn, -np.inf, np.inf)
    return Potential(fn, deriv, -np.inf, np.inf, convex, growth,
                     label=f"my({u.label},lam={lam:g})")


def lattice_floor(gap, x_domain, y_domain, box: float, what: str,
                  n: int = LATTICE_POINTS) -> float:
    """Certify gap(x, y) >= 0 on an n-by-n lattice; return its minimum.

    The lattice axes cover each domain (lo, hi) cut to [-box, box].
    ``gap(xs, ys)`` returns the table over the two 1-d axes.  NaN entries
    (inf - inf) count as +inf, so they never certify and never hide a
    violation.  A minimum below -1e-9 (1 + box^2) raises
    ``HypothesisError`` with the witness (x, y, gap) there.
    """
    xs = np.linspace(max(x_domain[0], -box), min(x_domain[1], box), n)
    ys = np.linspace(max(y_domain[0], -box), min(y_domain[1], box), n)
    if xs[-1] <= xs[0] or ys[-1] <= ys[0]:
        raise InvalidInputError("lattice does not meet the potential domains")
    table = gap(xs, ys)
    table = np.where(np.isnan(table), np.inf, table)
    i, j = np.unravel_index(int(np.argmin(table)), table.shape)
    floor = float(table[i, j])
    if floor < -1e-9 * (1.0 + box * box):
        raise HypothesisError(
            f"{what} fails at (x, y) = ({xs[i]:.6g}, {ys[j]:.6g}): gap = {floor:.3e}",
            witness=(float(xs[i]), float(ys[j]), floor))
    return floor


def fenchel_young_gap(f: Potential, g: Potential, box: float,
                      n: int = LATTICE_POINTS) -> float:
    """Minimum of f(x) + g(y) - x y over an n-by-n lattice on [-box, box]^2.

    Lattice points outside either domain contribute +inf and never win the
    minimum.  The result is the certified floor of the duality hypothesis
    at lattice resolution; a violation raises ``HypothesisError`` (see
    :func:`lattice_floor`).
    """
    return lattice_floor(
        lambda xs, ys: f.value(xs)[:, None] + g.value(ys)[None, :] - xs[:, None] * ys[None, :],
        (f.domain_lo, f.domain_hi), (g.domain_lo, g.domain_hi), box, "duality", n)

"""Transport-entropy and Santaló-type inequalities, one dispatcher.

Every statement is reduced to two real numbers.  ``verify`` computes both
sides through the measure, transport, entropy, and equilibrium modules and
reports the signed deficit, oriented so that a nonnegative deficit always
means the inequality holds.  Hypotheses are checked up front and raise
``HypothesisError``; a report with ``passed == False`` therefore always
refers to the statement itself, never to an input that fails its
preconditions.

Pointwise hypotheses between potentials (duality gaps, interpolation
bounds) are certified on a finite lattice spanning 1.5 times the largest
equilibrium support involved; the functionals only read the potentials
there, so the restriction is harmless at the reported resolution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._angle_series import series_moment
from ._grids import TRANSPORT_POINTS
from .equilibrium import SolverSettings, solve_equilibrium
from .errors import HypothesisError, InvalidInputError
from .logpotential import (
    HALF_LOG_2PI,
    relative_entropy_semicircular,
    log_jacobian,
)
from .measures import GridMeasure, make_semicircular
from .potentials import (
    Potential,
    fenchel_young_gap,
    lattice_floor,
    legendre_transform,
    shift_potential,
    tilt_linear,
)
from .transport import w2

__all__ = ["KINDS", "InequalityReport", "verify"]

# ">="-shaped statements store deficit = lhs - rhs; the rest are "<="-shaped
# and store rhs - lhs, so deficit >= -tol <=> pass for every kind.
_GEQ_SHAPED = frozenset({
    "INVERSE_FREE_LSI",
    "INVERSE_SANTALO",
    "FREE_BRUNN_MINKOWSKI",
})

KINDS = (
    "FREE_TALAGRAND",
    "SSFTI",
    "SSFTI_GENERAL",
    "INVERSE_FREE_LSI",
    "FREE_SANTALO",
    "FREE_SANTALO_SHIFTED",
    "INVERSE_SANTALO",
    "FREE_BRUNN_MINKOWSKI",
    "FREE_LOG_PREKOPA",
    "INVERSE_SSFTI",
)

_CENTERING_TOL = 1e-8
_EVENNESS_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one inequality, with the oriented deficit."""

    kind: str
    lhs: float
    rhs: float
    deficit: float
    tolerance: float
    passed: bool
    inputs: Mapping[str, str]
    resolution: int
    runtime_ms: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown inequality kind {self.kind!r}")
        oriented = (self.lhs - self.rhs if self.kind in _GEQ_SHAPED
                    else self.rhs - self.lhs)
        same = (self.deficit == oriented) or (np.isnan(self.deficit) and np.isnan(oriented))
        if not same and abs(self.deficit - oriented) > 1e-12 * (1.0 + abs(oriented)):
            raise InvalidInputError("deficit does not match lhs/rhs orientation")
        if self.passed != bool(self.deficit >= -self.tolerance):
            raise InvalidInputError("pass flag does not match deficit and tolerance")


def _measure(inputs, key) -> GridMeasure:
    val = inputs.get(key)
    if not isinstance(val, GridMeasure):
        raise InvalidInputError(f"this kind needs a measure under {key!r}")
    return val


def _potential(inputs, key) -> Potential:
    val = inputs.get(key)
    if not isinstance(val, Potential):
        raise InvalidInputError(f"this kind needs a potential under {key!r}")
    return val


def _require_centered(name: str, bar: float):
    if abs(bar) > _CENTERING_TOL:
        raise HypothesisError(f"{name} must be centered; barycenter = {bar:.3e}",
                              witness=(bar,))


def _require_convex(f: Potential):
    if not f.is_convex:
        raise HypothesisError(f"{f.label} carries no convexity certificate")


def _require_even(f: Potential):
    if not np.isfinite(f.domain_hi) and not np.isfinite(f.domain_lo):
        box = 8.0
    elif abs(f.domain_hi + f.domain_lo) < 1e-12 * (1.0 + abs(f.domain_hi)):
        box = f.domain_hi
    else:
        raise HypothesisError(f"{f.label} has an asymmetric domain")
    xs = np.linspace(0.0, box, 2049)[1:]
    gap = f.value(xs) - f.value(-xs)
    scale = 1.0 + float(np.max(np.abs(f.value(xs))))
    k = int(np.argmax(np.abs(gap)))
    if abs(gap[k]) > _EVENNESS_TOL * scale:
        raise HypothesisError(
            f"{f.label} is not even: f({xs[k]:.6g}) - f({-xs[k]:.6g}) = {gap[k]:.3e}",
            witness=(float(xs[k]), float(gap[k])))


def _entropy(res) -> float:
    # exact from the solver's coefficient representation
    return res.energy + 0.75 + HALF_LOG_2PI


_SIGMA = make_semicircular()


def _free_talagrand(inputs, cfg):
    # the nu-against-sigma specialization of SSFTI, routed through the same
    # code so the two reports agree to roundoff
    mu = _measure(inputs, "mu")
    return _ssfti({"mu": _SIGMA, "nu": mu}, cfg)


def _ssfti(inputs, cfg):
    mu = _measure(inputs, "mu")
    nu = _measure(inputs, "nu")
    _require_centered("mu", mu.barycenter())
    lhs = w2(mu, nu).cost_squared
    rhs = 2.0 * float(relative_entropy_semicircular(mu)) \
        + 2.0 * float(relative_entropy_semicircular(nu))
    return lhs, rhs, {}, TRANSPORT_POINTS


def _ssfti_general(inputs, cfg):
    mu = _measure(inputs, "mu")
    nu = _measure(inputs, "nu")
    lhs = w2(mu, nu).cost_squared
    rhs = 2.0 * float(relative_entropy_semicircular(mu)) \
        + 2.0 * float(relative_entropy_semicircular(nu)) \
        - 2.0 * mu.barycenter() * nu.barycenter()
    return lhs, rhs, {}, TRANSPORT_POINTS


def _inverse_free_lsi(inputs, cfg):
    u = _potential(inputs, "f")
    _require_convex(u)
    res = solve_equilibrium(u, cfg)
    lhs = (HALF_LOG_2PI + 0.5) - _entropy(res)
    jac = float(log_jacobian(res, u))
    # flat stretches of u' push mass onto atoms: the log-Jacobian diverges
    # to -inf and log_jacobian reports nan; the bound then holds trivially
    rhs = 0.5 * jac if np.isfinite(jac) else -np.inf
    return lhs, rhs, {}, cfg.nodes


def _lattice_box(*results) -> float:
    """Half-width of the hypothesis lattice: 1.5 times the largest support."""
    return 1.5 * max(abs(x) for r in results for x in (r.support_lo, r.support_hi))


def _free_santalo(inputs, cfg):
    f = _potential(inputs, "f")
    g = _potential(inputs, "g")
    rf = solve_equilibrium(f, cfg)
    rg = solve_equilibrium(g, cfg)
    _require_centered("the equilibrium of f", series_moment(rf.series, 1))
    box = _lattice_box(rf, rg)
    floor = fenchel_young_gap(f, g, box)
    lhs = rf.pressure + rg.pressure
    rhs = 2.0 * HALF_LOG_2PI
    extra = {"lattice_floor": f"{floor:.6g}", "lattice_box": f"{box:.6g}"}
    return lhs, rhs, extra, cfg.nodes


def _free_santalo_shifted(inputs, cfg):
    f = _potential(inputs, "f")
    g = _potential(inputs, "g")
    z = series_moment(solve_equilibrium(f, cfg).series, 1)
    # f(z + .) has a centered equilibrium; g - z id keeps the duality gap
    shifted = {"f": shift_potential(f, -z), "g": tilt_linear(g, -z)}
    lhs, rhs, extra, res = _free_santalo(shifted, cfg)
    extra["santalo_point"] = f"{z:.12g}"
    return lhs, rhs, extra, res


def _inverse_santalo(inputs, cfg):
    """eta(f) + eta(f*) >= log(pi^2/2) for even convex confining f.

    Write eta(V) = sup_mu [E(mu) - int V dmu] + 3/4 + log(2 pi)/2.  Flat
    wells are the equality case: f_r = log(2/r) on [-r, r] has eta(f_r) =
    2 log(r/2) + 3/4 + log(2 pi)/2, and f_r*(y) = r|y| - log(2/r) has the
    |x| equilibrium scaled by 1/r (log energy log(pi/2) - 1/2, E|x| = 1),
    so the sum is log(pi^2/2) at every radius.

    The classical constant log 4 is never reached.  With f(0) = 0, test
    eta(f) and eta(f*) against the arcsine laws on [-s, s] and [-t, t];
    convexity gives int f <= (2/pi) f(s) and int f* <= (2/pi) f*(t), and
    t in the subdifferential of f at s with st = pi/2 gives f(s) + f*(t) =
    st, so the sum is at least 2 log(pi/2) + 1/2 > log 4.

    That log(pi^2/2) is the infimum is supported by numerics (|x|^p/p
    pairs, walled quadratics against their Huber conjugates, the manifest
    rows), not proven.
    """
    f = _potential(inputs, "f")
    _require_convex(f)
    _require_even(f)
    fstar = legendre_transform(f)
    lhs = solve_equilibrium(f, cfg).pressure + solve_equilibrium(fstar, cfg).pressure
    rhs = float(np.log(0.5 * np.pi * np.pi))
    return lhs, rhs, {"g": fstar.label}, cfg.nodes


def _free_brunn_minkowski(inputs, cfg):
    u1 = _potential(inputs, "f")
    u2 = _potential(inputs, "g")
    u3 = _potential(inputs, "u3")
    theta = float(inputs.get("theta", 0.5))
    if not 0.0 < theta < 1.0:
        raise InvalidInputError("theta must lie strictly between 0 and 1")
    r1 = solve_equilibrium(u1, cfg)
    r2 = solve_equilibrium(u2, cfg)
    r3 = solve_equilibrium(u3, cfg)
    box = _lattice_box(r1, r2, r3)
    floor = lattice_floor(
        lambda xs, ys: theta * u1.value(xs)[:, None] + (1.0 - theta) * u2.value(ys)[None, :]
        - u3.value(theta * xs[:, None] + (1.0 - theta) * ys[None, :]),
        (u1.domain_lo, u1.domain_hi), (u2.domain_lo, u2.domain_hi), box,
        "interpolation bound")
    lhs = r3.pressure
    rhs = theta * r1.pressure + (1.0 - theta) * r2.pressure
    extra = {"theta": f"{theta:g}", "lattice_floor": f"{floor:.6g}"}
    return lhs, rhs, extra, cfg.nodes


def _even_lift(u: Potential) -> Potential:
    """x -> u(x^2) / 2, the even potential whose equilibrium symmetrizes
    the half-line equilibrium of u."""
    if u.domain_lo > 1e-12:
        raise InvalidInputError("half-line potential must be defined from 0")
    hi = np.sqrt(u.domain_hi) if np.isfinite(u.domain_hi) else np.inf
    # convexity of the lift needs u nondecreasing on top of convex; a
    # decreasing stretch near 0 opens a double well
    ts = np.linspace(0.0, min(u.domain_hi, 64.0), 2049)
    nondecreasing = bool(np.all(u.d(ts) >= -1e-10))
    return Potential(
        fn=lambda x: 0.5 * u.value(np.square(np.asarray(x, dtype=float))),
        deriv=lambda x: np.asarray(x, dtype=float) * u.d(np.square(np.asarray(x, dtype=float))),
        domain_lo=-hi, domain_hi=hi,
        is_convex=u.is_convex and nondecreasing,
        growth_ok=u.growth_ok or np.isfinite(hi),
        label=f"lift({u.label})",
    )


def _free_log_prekopa(inputs, cfg):
    u1 = _potential(inputs, "f")
    u2 = _potential(inputs, "g")
    r1 = solve_equilibrium(_even_lift(u1), cfg)
    r2 = solve_equilibrium(_even_lift(u2), cfg)
    box = _lattice_box(r1, r2)
    # the polar pairing of the two half-line potentials, on [0, box]^2
    floor = lattice_floor(
        lambda xs, ys: 0.5 * u1.value(np.square(xs))[:, None]
        + 0.5 * u2.value(np.square(ys))[None, :] - xs[:, None] * ys[None, :],
        (0.0, np.inf), (0.0, np.inf), box, "polar pairing")
    # one-sided relative entropy of each half-line equilibrium, written
    # through the symmetrized pressure: chi+ = 2 (eta(lift) - log(2)/2)
    half_log2 = 0.5 * np.log(2.0)
    lhs = (r1.pressure - half_log2) + (r2.pressure - half_log2)
    rhs = float(np.log(np.pi))
    extra = {"lattice_floor": f"{floor:.6g}", "lattice_box": f"{box:.6g}"}
    return lhs, rhs, extra, cfg.nodes


def _inverse_ssfti(inputs, cfg):
    f = _potential(inputs, "f")
    _require_convex(f)
    _require_even(f)
    fstar = legendre_transform(f)
    mu = solve_equilibrium(f, cfg).measure
    mustar = solve_equilibrium(fstar, cfg).measure
    lhs = float(relative_entropy_semicircular(mu)) \
        + float(relative_entropy_semicircular(mustar))
    rhs = 0.5 * w2(mu, mustar).cost_squared + 0.5 * float(np.log(np.pi / 2.0))
    return lhs, rhs, {"g": fstar.label}, cfg.nodes


_KIND_IMPL = {
    "FREE_TALAGRAND": _free_talagrand,
    "SSFTI": _ssfti,
    "SSFTI_GENERAL": _ssfti_general,
    "INVERSE_FREE_LSI": _inverse_free_lsi,
    "FREE_SANTALO": _free_santalo,
    "FREE_SANTALO_SHIFTED": _free_santalo_shifted,
    "INVERSE_SANTALO": _inverse_santalo,
    "FREE_BRUNN_MINKOWSKI": _free_brunn_minkowski,
    "FREE_LOG_PREKOPA": _free_log_prekopa,
    "INVERSE_SSFTI": _inverse_ssfti,
}


def _describe(val) -> str:
    if isinstance(val, GridMeasure):
        return val.label
    if isinstance(val, Potential):
        return val.label
    return f"{val:g}" if isinstance(val, float) else str(val)


def verify(kind: str, inputs: Mapping[str, object], tol: float = 1e-3,
           cfg: SolverSettings | None = None) -> InequalityReport:
    """Evaluate both sides of the named inequality.

    Measures go in under ``mu`` / ``nu`` and potentials under ``f`` / ``g``
    (plus ``u3`` and ``theta`` for the three-potential interpolation kind).
    The deficit is ``rhs - lhs`` for upper bounds and ``lhs - rhs`` for
    lower bounds, so ``passed`` uniformly means the statement holds within
    ``tol``.  A non-finite side (collapsed pushforward, escaping entropy)
    is flagged in the input map instead of raising, so sweeps complete.
    """
    if kind not in _KIND_IMPL:
        raise InvalidInputError(f"unknown inequality kind {kind!r}")
    if not 0.0 <= tol < np.inf:
        raise InvalidInputError("tolerance must be nonnegative and finite")
    cfg = cfg or SolverSettings()
    start = time.perf_counter()
    lhs, rhs, extra, resolution = _KIND_IMPL[kind](inputs, cfg)
    described = {k: _describe(v) for k, v in inputs.items()}
    described.update(extra)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        described["sentinel"] = "non-finite side"
    with np.errstate(invalid="ignore"):
        deficit = float(lhs - rhs if kind in _GEQ_SHAPED else rhs - lhs)
    return InequalityReport(
        kind=kind,
        lhs=float(lhs),
        rhs=float(rhs),
        deficit=deficit,
        tolerance=float(tol),
        passed=bool(deficit >= -tol),
        inputs=MappingProxyType(described),
        resolution=int(resolution),
        runtime_ms=int(1000.0 * (time.perf_counter() - start)),
    )

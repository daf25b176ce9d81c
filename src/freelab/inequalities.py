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

import numbers
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

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
        oriented = _kind(self.kind).oriented(self.lhs, self.rhs)
        same = (self.deficit == oriented) or (np.isnan(self.deficit) and np.isnan(oriented))
        if not same and abs(self.deficit - oriented) > 1e-12 * (1.0 + abs(oriented)):
            raise InvalidInputError("deficit does not match lhs/rhs orientation")
        if self.passed != bool(self.deficit >= -self.tolerance):
            raise InvalidInputError("pass flag does not match deficit and tolerance")


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


def _free_talagrand(mu, cfg):
    # the nu-against-sigma specialization of SSFTI, routed through the same
    # code so the two reports agree to roundoff
    return _ssfti(_SIGMA, mu, cfg)


def _ssfti(mu, nu, cfg):
    _require_centered("mu", mu.barycenter())
    lhs = w2(mu, nu).cost_squared
    rhs = 2.0 * float(relative_entropy_semicircular(mu)) \
        + 2.0 * float(relative_entropy_semicircular(nu))
    return lhs, rhs, {}


def _ssfti_general(mu, nu, cfg):
    lhs = w2(mu, nu).cost_squared
    rhs = 2.0 * float(relative_entropy_semicircular(mu)) \
        + 2.0 * float(relative_entropy_semicircular(nu)) \
        - 2.0 * mu.barycenter() * nu.barycenter()
    return lhs, rhs, {}


def _inverse_free_lsi(u, cfg):
    _require_convex(u)
    res = solve_equilibrium(u, cfg)
    lhs = (HALF_LOG_2PI + 0.5) - _entropy(res)
    jac = float(log_jacobian(res, u))
    # flat stretches of u' push mass onto atoms: the log-Jacobian diverges
    # to -inf and log_jacobian reports nan; the bound then holds trivially
    rhs = 0.5 * jac if np.isfinite(jac) else -np.inf
    return lhs, rhs, {}


def _lattice_box(*results) -> float:
    """Half-width of the hypothesis lattice: 1.5 times the largest support."""
    return 1.5 * max(abs(x) for r in results for x in (r.support_lo, r.support_hi))


def _free_santalo(f, g, cfg):
    rf = solve_equilibrium(f, cfg)
    rg = solve_equilibrium(g, cfg)
    _require_centered("the equilibrium of f", series_moment(rf.series, 1))
    box = _lattice_box(rf, rg)
    floor = fenchel_young_gap(f, g, box)
    lhs = rf.pressure + rg.pressure
    rhs = 2.0 * HALF_LOG_2PI
    extra = {"lattice_floor": f"{floor:.6g}", "lattice_box": f"{box:.6g}"}
    return lhs, rhs, extra


def _free_santalo_shifted(f, g, cfg):
    z = series_moment(solve_equilibrium(f, cfg).series, 1)
    # f(z + .) has a centered equilibrium; g - z id keeps the duality gap
    lhs, rhs, extra = _free_santalo(shift_potential(f, -z), tilt_linear(g, -z), cfg)
    extra["santalo_point"] = f"{z:.12g}"
    return lhs, rhs, extra


def _inverse_santalo(f, cfg):
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
    _require_convex(f)
    _require_even(f)
    fstar = legendre_transform(f)
    lhs = solve_equilibrium(f, cfg).pressure + solve_equilibrium(fstar, cfg).pressure
    rhs = float(np.log(0.5 * np.pi * np.pi))
    return lhs, rhs, {"g": fstar.label}


def _free_brunn_minkowski(u1, u2, u3, theta, cfg):
    theta = float(theta)
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
    return lhs, rhs, extra


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


def _free_log_prekopa(u1, u2, cfg):
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
    return lhs, rhs, extra


def _inverse_ssfti(f, cfg):
    _require_convex(f)
    _require_even(f)
    fstar = legendre_transform(f)
    mu = solve_equilibrium(f, cfg).measure
    mustar = solve_equilibrium(fstar, cfg).measure
    lhs = float(relative_entropy_semicircular(mu)) \
        + float(relative_entropy_semicircular(mustar))
    rhs = 0.5 * w2(mu, mustar).cost_squared + 0.5 * float(np.log(np.pi / 2.0))
    return lhs, rhs, {"g": fstar.label}


# the type each role takes, named for error messages
_ROLE_TYPES = {"mu": (GridMeasure, "a measure"), "nu": (GridMeasure, "a measure"),
               "f": (Potential, "a potential"), "g": (Potential, "a potential"),
               "u3": (Potential, "a potential"), "theta": (numbers.Real, "a number")}


class _Kind:
    """One statement: the roles ``sides(*values, cfg) -> (lhs, rhs, extra)``
    takes, in order, with the default of each optional one, and whether it
    is ">="-shaped.  The deficit is lhs - rhs if so and rhs - lhs if not,
    so deficit >= -tol <=> pass for every kind."""

    def __init__(self, roles: tuple, geq: bool, sides: Callable, **defaults):
        self.roles, self.geq, self.sides, self.defaults = roles, geq, sides, defaults
        self.reads = frozenset(roles)
        # (role, type, its name, default), precomputed for the per-call check
        self.slots = tuple((r, *_ROLE_TYPES[r], defaults.get(r)) for r in roles)

    def oriented(self, lhs, rhs):
        return lhs - rhs if self.geq else rhs - lhs

    def check(self, kind: str, roles) -> None:
        """A stray role, or a missing one without a default, raises
        ``InvalidInputError``."""
        if not roles <= self.reads:
            stray = ", ".join(repr(r) for r in roles if r not in self.reads)
            raise InvalidInputError(
                f"{kind} does not read {stray}; it reads {', '.join(self.roles)}")
        for role, _, what, default in self.slots:
            if default is None and role not in roles:
                raise InvalidInputError(f"{kind} needs {what} under {role!r}, got nothing")

    def values(self, kind: str, inputs: Mapping[str, object]) -> list:
        """The inputs in ``sides`` order, defaults filled in; a stray,
        missing or mistyped role raises ``InvalidInputError``."""
        self.check(kind, inputs.keys())
        values = []
        for role, cls, what, default in self.slots:
            val = inputs.get(role, default)
            if not isinstance(val, cls):
                got = type(val).__name__ if role in inputs else "nothing"
                raise InvalidInputError(f"{kind} needs {what} under {role!r}, got {got}")
            values.append(val)
        return values


_KINDS = {
    "FREE_TALAGRAND": _Kind(("mu",), False, _free_talagrand),
    "SSFTI": _Kind(("mu", "nu"), False, _ssfti),
    "SSFTI_GENERAL": _Kind(("mu", "nu"), False, _ssfti_general),
    "INVERSE_FREE_LSI": _Kind(("f",), True, _inverse_free_lsi),
    "FREE_SANTALO": _Kind(("f", "g"), False, _free_santalo),
    "FREE_SANTALO_SHIFTED": _Kind(("f", "g"), False, _free_santalo_shifted),
    "INVERSE_SANTALO": _Kind(("f",), True, _inverse_santalo),
    "FREE_BRUNN_MINKOWSKI": _Kind(("f", "g", "u3", "theta"), True,
                                  _free_brunn_minkowski, theta=0.5),
    "FREE_LOG_PREKOPA": _Kind(("f", "g"), False, _free_log_prekopa),
    "INVERSE_SSFTI": _Kind(("f",), False, _inverse_ssfti),
}

KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    row = _KINDS.get(kind)
    if row is None:
        raise InvalidInputError(f"unknown inequality kind {kind!r}")
    return row


def check_roles(kind: str, roles) -> None:
    """Raise ``InvalidInputError``, with the message `verify` gives, if
    ``kind`` is unknown or the role names ``roles`` (a set-like view) hold a
    role it never reads or lack one it needs."""
    _kind(kind).check(kind, roles)


def _describe(val) -> str:
    if isinstance(val, GridMeasure):
        return val.label
    if isinstance(val, Potential):
        return val.label
    return f"{val:g}" if isinstance(val, float) else str(val)


def verify(kind: str, inputs: Mapping[str, object], tol: float = 1e-3,
           cfg: SolverSettings | None = None) -> InequalityReport:
    """Evaluate both sides of the named inequality.

    ``inputs`` maps each role the kind reads to its value: measures under
    ``mu`` / ``nu``, potentials under ``f`` / ``g`` / ``u3``, and the number
    ``theta``.  README's ``verify-kinds`` block lists the roles of every
    kind; a missing, mistyped or unread role raises ``InvalidInputError``.
    The deficit is ``rhs - lhs`` for upper bounds and ``lhs - rhs`` for
    lower bounds, so ``passed`` uniformly means the statement holds within
    ``tol``.  A non-finite side (collapsed pushforward, escaping entropy)
    is flagged in the input map instead of raising, so sweeps complete.
    """
    row = _kind(kind)
    if not 0.0 <= tol < np.inf:
        raise InvalidInputError("tolerance must be nonnegative and finite")
    values = row.values(kind, inputs)
    cfg = cfg or SolverSettings()
    start = time.perf_counter()
    lhs, rhs, extra = row.sides(*values, cfg)
    described = {k: _describe(v) for k, v in inputs.items()}
    described.update(extra)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        described["sentinel"] = "non-finite side"
    with np.errstate(invalid="ignore"):
        deficit = float(row.oriented(lhs, rhs))
    return InequalityReport(
        kind=kind,
        lhs=float(lhs),
        rhs=float(rhs),
        deficit=deficit,
        tolerance=float(tol),
        passed=bool(deficit >= -tol),
        inputs=MappingProxyType(described),
        # the measure kinds transport on a fixed grid; the rest solve on cfg's
        resolution=TRANSPORT_POINTS if "mu" in row.reads else int(cfg.nodes),
        runtime_ms=int(1000.0 * (time.perf_counter() - start)),
    )

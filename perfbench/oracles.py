"""Closed forms the benchmark checks freelab's outputs against.

Conventions follow freelab: the log energy is the double integral of
log|x - y|, chi = energy + 3/4 + log(2 pi)/2, the relative entropy against
the standard semicircle is m2/2 - chi + log(2 pi)/2, and the pressure of a
potential u is chi - int u at its equilibrium measure.
"""

from __future__ import annotations

import math

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_2PI = math.log(2.0 * math.pi)

# Digits are capped here: below 1e-15 the relative error is roundoff.
MAX_DIGITS = 15.0


def rel_error(got: float, exact: float) -> float:
    """|got - exact| / (1 + |exact|); nan when got is not finite."""
    if not math.isfinite(got):
        return math.nan
    return abs(got - exact) / (1.0 + abs(exact))


def digits(err: float) -> float:
    """-log10 of a relative error, capped at MAX_DIGITS; 0 for nan."""
    if math.isnan(err):
        return 0.0
    if err <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(err))


# --- measures -------------------------------------------------------------

def semicircle_rel_entropy(mean: float, var: float) -> float:
    return 0.5 * (mean * mean + var - 1.0 - math.log(var))


def arcsine_log_energy(radius: float) -> float:
    return math.log(radius / 2.0)


def arcsine_rel_entropy(radius: float, center: float) -> float:
    m2 = center * center + 0.5 * radius * radius
    return 0.5 * m2 - arcsine_log_energy(radius) - 0.75


def mp_rel_entropy(scale: float) -> float:
    # image of the semicircle of variance `scale` under squaring: mean
    # `scale`, second moment 2 scale^2, log energy log(scale) - 1/2
    return scale * scale - math.log(scale) - 0.25


def w2sq_semicircles(m1: float, v1: float, m2: float, v2: float) -> float:
    return (m1 - m2) ** 2 + (math.sqrt(v1) - math.sqrt(v2)) ** 2


def w2sq_arcsines(c1: float, r1: float, c2: float, r2: float) -> float:
    return (c1 - c2) ** 2 + 0.5 * (r1 - r2) ** 2


# --- potentials and equilibria --------------------------------------------

def quadratic_pressure(c: float) -> float:
    """Pressure of c x^2 / 2; legendre(quadratic c) is quadratic(1/c)."""
    return 0.5 * math.log(2.0 * math.pi / c)


def power_support_edge(a: float, p: float) -> float:
    """Right edge b of the equilibrium support of a |x|^p.

    From (1/2 pi) int_{-b}^{b} u'(x) x / sqrt(b^2 - x^2) dx = 1; p = 4,
    a = g gives the quartic edge (4 / (3 g))^(1/4), p = 1 gives pi.
    """
    k = a * p * math.sqrt(math.pi) * math.gamma(0.5 * (p + 1.0)) \
        / (2.0 * math.pi * math.gamma(0.5 * p + 1.0))
    return k ** (-1.0 / p)


def quartic_support_edge(g: float) -> float:
    return (4.0 / (3.0 * g)) ** 0.25


def legendre_quartic_coefficient(g: float) -> float:
    """u*(y) = a |y|^(4/3) for u = g x^4, with a = (3/4) (4 g)^(-1/3)."""
    return 0.75 * (4.0 * g) ** (-1.0 / 3.0)


def poly_support_edge(c2: float, c4: float) -> float:
    """Edge for c2 x^2 + c4 x^4: c2 b^2 / 2 + 3 c4 b^4 / 4 = 1."""
    b2 = (-0.5 * c2 + math.sqrt(0.25 * c2 * c2 + 3.0 * c4)) / (1.5 * c4)
    return math.sqrt(b2)


ABS_SUPPORT_EDGE = math.pi
ABS_ENERGY = math.log(math.pi / 2.0) - 0.5
ABS_PRESSURE = ABS_ENERGY + 0.75 + HALF_LOG_2PI - 1.0  # E|x| = 1
ABS_SECOND_MOMENT = math.pi ** 2 / 6.0


def halfline_support_edge(slope: float) -> float:
    """slope * x on [0, inf): Marchenko-Pastur law on [0, 4 / slope]."""
    return 4.0 / slope


def flat_well_pressure(radius: float) -> float:
    """arcsine_indicator(radius): level log(2 / radius), arcsine equilibrium."""
    return 2.0 * math.log(radius / 2.0) + 0.75 + HALF_LOG_2PI


# p(flat well) + p(its conjugate r|y| - log(2/r)) for every radius, and
# likewise p(abs) + p(legendre(abs))
FLAT_WELL_CONJUGATE_SUM = math.log(math.pi ** 2 / 2.0)


def abs_pair_rel_entropy() -> float:
    """H(equilibrium of |x|) + H(arcsine law of radius 1)."""
    h_abs = 0.5 * ABS_SECOND_MOMENT - (ABS_ENERGY + 0.75 + HALF_LOG_2PI) + HALF_LOG_2PI
    return h_abs + arcsine_rel_entropy(1.0, 0.0)


def prekopa_lhs(s1: float, s2: float) -> float:
    """FREE_LOG_PREKOPA lhs for halfline slopes: the even lift of s x is
    quadratic(s), so each term is p(quadratic s) - log(2) / 2."""
    return quadratic_pressure(s1) + quadratic_pressure(s2) - math.log(2.0)

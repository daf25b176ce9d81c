import os
import re

import numpy as np
import pytest

from freelab.equilibrium import free_pressure, solve_equilibrium
from freelab.errors import HypothesisError, InvalidInputError
from freelab.inequalities import _KINDS, KINDS, InequalityReport, verify
from freelab.logpotential import chi_plus, relative_entropy_semicircular
from freelab.measures import (
    make_arcsine, make_marchenko_pastur_family, make_semicircular, moment, translate)
from freelab.potentials import (
    Potential,
    abs_potential,
    arcsine_indicator,
    legendre_transform,
    linear_halfline,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
    tilt_linear,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
SIGMA = make_semicircular()
ARCSINE = make_arcsine(1.0)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_kind_registry_is_complete():
    assert len(KINDS) == 10
    assert len(set(KINDS)) == 10
    for kind in KINDS:
        assert kind == kind.upper()


def test_unknown_kind_and_bad_tolerance_rejected():
    with pytest.raises(InvalidInputError):
        verify("FREE_TALAGRAND_2D", {"mu": SIGMA})
    for tol in (-1e-3, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            verify("SSFTI", {"mu": SIGMA, "nu": SIGMA}, tol=tol)


# a value of the right type for every role, and one of the wrong type
ROLE_VALUES = {"mu": (SIGMA, quadratic(1.0)), "nu": (ARCSINE, quadratic(1.0)),
               "f": (quadratic(1.0), SIGMA), "g": (quadratic(2.0), SIGMA),
               "u3": (quadratic(1.0), SIGMA), "theta": (0.5, quadratic(1.0))}


def _inputs(kind):
    return {role: ROLE_VALUES[role][0] for role in _KINDS[kind].roles}


@pytest.mark.parametrize("kind", KINDS)
def test_verify_rejects_a_role_the_kind_never_reads(kind):
    reads = _KINDS[kind].roles
    for role in sorted(set(ROLE_VALUES) - set(reads)):
        inputs = {**_inputs(kind), role: ROLE_VALUES[role][0]}
        with pytest.raises(InvalidInputError) as err:
            verify(kind, inputs)
        assert str(err.value) == f"{kind} does not read {role!r}; it reads {', '.join(reads)}"


@pytest.mark.parametrize("kind", KINDS)
def test_verify_rejects_a_missing_role(kind):
    for role in _KINDS[kind].roles:
        if role in _KINDS[kind].defaults:
            continue
        inputs = _inputs(kind)
        del inputs[role]
        with pytest.raises(InvalidInputError, match=f"^{kind} needs a .* under '{role}', got nothing$"):
            verify(kind, inputs)


@pytest.mark.parametrize("kind", KINDS)
def test_verify_rejects_a_mistyped_role(kind):
    for role in _KINDS[kind].roles:
        inputs = {**_inputs(kind), role: ROLE_VALUES[role][1]}
        got = type(ROLE_VALUES[role][1]).__name__
        with pytest.raises(InvalidInputError, match=f"^{kind} needs a .* under '{role}', got {got}$"):
            verify(kind, inputs)


def test_brunn_minkowski_theta_defaults_to_one_half():
    r = verify("FREE_BRUNN_MINKOWSKI",
               {"f": quadratic(1.0), "g": quadratic(2.0), "u3": quadratic(4.0 / 3.0)})
    assert r.inputs["theta"] == "0.5"
    assert abs(r.deficit - (0.5 * np.log(3.0) - 0.75 * np.log(2.0))) < 1e-9


def test_readme_verify_kinds_is_the_kind_table():
    # one line per kind, in KINDS order: its roles in order, defaults as role=value
    with open(README) as fh:
        block = re.search(r"```verify-kinds\n(.*?)```", fh.read(), re.S).group(1)
    want = [" ".join([kind] + [f"{r}={row.defaults[r]:g}" if r in row.defaults else r
                               for r in row.roles]) for kind, row in _KINDS.items()]
    assert block.splitlines() == want


def test_report_consistency_is_enforced():
    with pytest.raises(InvalidInputError):
        InequalityReport(kind="SSFTI", lhs=1.0, rhs=2.0, deficit=-1.0,
                        tolerance=1e-3, passed=False, inputs={},
                        resolution=64, runtime_ms=0)
    with pytest.raises(InvalidInputError):
        InequalityReport(kind="SSFTI", lhs=1.0, rhs=2.0, deficit=1.0,
                        tolerance=1e-3, passed=False, inputs={},
                        resolution=64, runtime_ms=0)


# ---------------------------------------------------------------- talagrand

def test_talagrand_equality_on_translates():
    for a in (0.0, 1.0, -0.7):
        r = verify("FREE_TALAGRAND", {"mu": translate(SIGMA, a)})
        assert r.passed
        assert abs(r.lhs - a * a) < 1e-10
        assert abs(r.deficit) < 1e-5


def test_talagrand_strict_for_arcsine():
    r = verify("FREE_TALAGRAND", {"mu": ARCSINE})
    assert r.passed
    assert abs(r.deficit - 0.27869565) < 1e-4


def test_talagrand_is_the_sigma_slice_of_ssfti():
    mu = translate(SIGMA, 1.0)
    rt = verify("FREE_TALAGRAND", {"mu": mu})
    rs = verify("SSFTI", {"mu": SIGMA, "nu": mu})
    assert abs(rt.lhs - rs.lhs) < 1e-10
    assert abs(rt.rhs - rs.rhs) < 1e-10
    assert abs(rt.deficit - rs.deficit) < 1e-10


# -------------------------------------------------------------------- ssfti

def test_ssfti_scaling_family():
    # both sides close on (s - 1/s)^2 along the dilated semicircular pairs
    for s in (0.5, 1.0, 1.5, 2.0, 3.0):
        r = verify("SSFTI", {"mu": make_semicircular(variance=s * s),
                             "nu": make_semicircular(variance=s ** -2)})
        target = (s - 1.0 / s) ** 2
        assert abs(r.lhs - target) < 1e-4
        assert abs(r.rhs - target) < 1e-4
        assert abs(r.deficit) < 1e-4
        assert r.passed


def test_ssfti_requires_centered_first_argument():
    with pytest.raises(HypothesisError):
        verify("SSFTI", {"mu": translate(SIGMA, 0.5), "nu": SIGMA})


def test_ssfti_rhs_below_triangle_route():
    pairs = [(SIGMA, ARCSINE),
             (make_semicircular(variance=4.0), make_semicircular(variance=0.25)),
             (SIGMA, translate(SIGMA, 2.0))]
    for mu, nu in pairs:
        r = verify("SSFTI", {"mu": mu, "nu": nu})
        cap = 4.0 * float(relative_entropy_semicircular(mu)) \
            + 4.0 * float(relative_entropy_semicircular(nu))
        assert r.rhs <= cap + 1e-6


def test_ssfti_missing_input_raises():
    with pytest.raises(InvalidInputError):
        verify("SSFTI", {"mu": SIGMA})
    with pytest.raises(InvalidInputError):
        verify("SSFTI", {"mu": SIGMA, "nu": quadratic(1.0)})


# ------------------------------------------------------------ ssfti general

def test_ssfti_general_on_opposite_translates():
    r = verify("SSFTI_GENERAL", {"mu": translate(SIGMA, 1.0),
                                 "nu": translate(SIGMA, -1.0)})
    assert abs(r.lhs - 4.0) < 5e-4
    assert abs(r.rhs - 4.0) < 5e-4
    assert r.passed


def test_ssfti_general_reduces_to_ssfti_when_centered():
    for nu in (ARCSINE, make_semicircular(variance=2.0)):
        rg = verify("SSFTI_GENERAL", {"mu": SIGMA, "nu": nu})
        rs = verify("SSFTI", {"mu": SIGMA, "nu": nu})
        assert abs(rg.lhs - rs.lhs) < 1e-10
        assert abs(rg.rhs - rs.rhs) < 1e-10
        assert abs(rg.deficit - rs.deficit) < 1e-10


def test_ssfti_general_deficit_is_translation_invariant():
    r0 = verify("SSFTI_GENERAL", {"mu": SIGMA, "nu": ARCSINE})
    r1 = verify("SSFTI_GENERAL", {"mu": translate(SIGMA, 1.0),
                                  "nu": translate(ARCSINE, -0.5)})
    assert abs(r1.deficit - r0.deficit) < 1e-9


# -------------------------------------------------------------- inverse lsi

def test_inverse_lsi_equality_on_quadratics():
    # both sides are (1/2) log c, including the sign flip across c = 1
    for c in (0.25, 1.0, 4.0):
        r = verify("INVERSE_FREE_LSI", {"f": quadratic(c)})
        assert abs(r.lhs - 0.5 * np.log(c)) < 1e-9
        assert abs(r.deficit) < 1e-9
        assert r.passed


def test_inverse_lsi_strict_for_quartic():
    r = verify("INVERSE_FREE_LSI", {"f": quartic(1.0)})
    assert r.passed
    assert abs(r.deficit - 0.11456144) < 1e-5


def test_inverse_lsi_rejects_nonconvex_potential():
    with pytest.raises(HypothesisError):
        verify("INVERSE_FREE_LSI", {"f": polynomial_even(-1.5, 0.25)})


def test_inverse_lsi_flat_derivative_gives_sentinel_report():
    # sign(x) pushes the equilibrium onto two atoms; the report completes
    # with rhs = -inf instead of raising, so batch sweeps keep going
    r = verify("INVERSE_FREE_LSI", {"f": abs_potential()})
    assert r.rhs == -np.inf
    assert r.deficit == np.inf
    assert r.passed
    assert r.inputs["sentinel"] == "non-finite side"


def test_inverse_lsi_on_a_flat_well_gives_sentinel_report():
    # u' = 0 inside the well sends the whole arcsine law to one atom; the
    # pushforward of that used to raise on its zero-width support
    r = verify("INVERSE_FREE_LSI", {"f": arcsine_indicator(2.5)})
    assert r.rhs == -np.inf
    assert r.passed
    assert r.inputs["sentinel"] == "non-finite side"


# ------------------------------------------------------------------ santalo

def test_santalo_equality_for_quadratic_pair():
    r = verify("FREE_SANTALO", {"f": quadratic(1.0), "g": quadratic(1.0)})
    assert abs(r.lhs - 2.0 * HALF_LOG_2PI) < 1e-12
    assert abs(r.deficit) < 1e-12
    assert float(r.inputs["lattice_floor"]) >= 0.0


def test_santalo_strict_for_quartic_conjugate_pair():
    f = quartic(1.0)
    r = verify("FREE_SANTALO", {"f": f, "g": legendre_transform(f)})
    assert r.passed
    assert abs(r.deficit - 0.03913277) < 1e-5


def test_santalo_rejects_failing_duality():
    # x^2/4 + y^2/4 dips below xy along the diagonal
    with pytest.raises(HypothesisError) as err:
        verify("FREE_SANTALO", {"f": quadratic(0.5), "g": quadratic(0.5)})
    x, y, floor = err.value.witness
    assert floor < 0.0
    assert abs(x - y) < 1e-9


def test_santalo_rejects_noncentered_equilibrium():
    with pytest.raises(HypothesisError):
        verify("FREE_SANTALO", {"f": shift_potential(quadratic(1.0), 1.0),
                                "g": quadratic(1.0)})


# ---------------------------------------------------------- santalo shifted

def test_shifted_santalo_recenters_the_offset_pair():
    # f = (x-1)^2/2 pairs with g = f* = y^2/2 + y; shifting by the
    # barycenter z = 1 lands back on the quadratic equality case
    f = shift_potential(quadratic(1.0), 1.0)
    g = tilt_linear(quadratic(1.0), 1.0)
    r = verify("FREE_SANTALO_SHIFTED", {"f": f, "g": g})
    assert abs(r.deficit) < 1e-10
    assert abs(float(r.inputs["santalo_point"]) - 1.0) < 1e-9


def test_shifted_santalo_keeps_constant_slack():
    # replacing g by f* + 1/2 costs exactly the constant
    f = shift_potential(quadratic(1.0), 1.0)
    g = shift_potential(quadratic(1.0), -1.0)
    r = verify("FREE_SANTALO_SHIFTED", {"f": f, "g": g})
    assert r.passed
    assert abs(r.deficit - 0.5) < 1e-9


# ---------------------------------------------------------- inverse santalo

def test_inverse_santalo_quadratic_value():
    r = verify("INVERSE_SANTALO", {"f": quadratic(1.0)})
    assert abs(r.lhs - 2.0 * HALF_LOG_2PI) < 1e-9
    assert abs(r.deficit - np.log(4.0 / np.pi)) < 1e-9
    assert r.inputs["g"].startswith("legendre(")


def test_inverse_santalo_arcsine_sits_above_the_bound():
    # eta(f_R) + eta(f_R*) = log(pi^2/2) for every radius: log(pi^2/8) above
    # the classical constant log 4, and exactly on the free floor
    r = verify("INVERSE_SANTALO", {"f": arcsine_indicator(1.0)})
    assert r.passed
    assert abs(r.lhs - np.log(np.pi * np.pi / 2.0)) < 1e-5
    assert abs(r.deficit) < 1e-5


def test_inverse_santalo_gap_is_scale_invariant():
    r1 = verify("INVERSE_SANTALO", {"f": arcsine_indicator(1.0)})
    r2 = verify("INVERSE_SANTALO", {"f": arcsine_indicator(2.0)})
    assert abs(r1.deficit - r2.deficit) < 1e-9


def _power(p):
    return Potential(fn=lambda x: np.abs(x) ** p / p,
                     deriv=lambda x: np.sign(x) * np.abs(x) ** (p - 1.0),
                     domain_lo=-np.inf, domain_hi=np.inf,
                     is_convex=True, growth_ok=True, label=f"power(p={p:g})")


def _walled_quadratic(a):
    return Potential(fn=lambda x: 0.5 * np.square(x),
                     deriv=lambda x: np.asarray(x, dtype=float),
                     domain_lo=-a, domain_hi=a,
                     is_convex=True, growth_ok=True, label=f"walled(a={a:g})")


def _huber(a):
    # sup over |x| <= a of xy - x^2/2, the conjugate of the walled quadratic
    return Potential(fn=lambda y: np.where(np.abs(y) <= a, 0.5 * np.square(y),
                                           a * np.abs(y) - 0.5 * a * a),
                     deriv=lambda y: np.clip(y, -a, a),
                     domain_lo=-np.inf, domain_hi=np.inf,
                     is_convex=True, growth_ok=True, label=f"huber(a={a:g})")


@pytest.mark.parametrize("f, fstar", [
    (_power(1.25), _power(5.0)),
    (_power(1.5), _power(3.0)),
    (_power(4.0), _power(4.0 / 3.0)),
    (_walled_quadratic(0.25), _huber(0.25)),
    (_walled_quadratic(1.0), _huber(1.0)),
], ids=lambda u: u.label)
def test_inverse_santalo_floor_holds_on_closed_form_pairs(f, fstar):
    # conjugates in closed form, so no numerical Legendre transform enters
    total = free_pressure(f) + free_pressure(fstar)
    assert total >= np.log(np.pi * np.pi / 2.0) - 1e-6


def test_inverse_santalo_requires_even_convex():
    with pytest.raises(HypothesisError):
        verify("INVERSE_SANTALO", {"f": shift_potential(quadratic(1.0), 0.5)})
    with pytest.raises(HypothesisError):
        verify("INVERSE_SANTALO", {"f": polynomial_even(-1.5, 0.25)})


# --------------------------------------------------------- brunn minkowski

def test_brunn_minkowski_equal_triple():
    q = quadratic(1.0)
    r = verify("FREE_BRUNN_MINKOWSKI",
               {"f": q, "g": q, "u3": q, "theta": 0.3})
    assert abs(r.deficit) < 1e-12
    assert r.passed


def test_brunn_minkowski_harmonic_interpolant():
    # c3 = 2 c1 c2 / (c1 + c2) makes the lattice hypothesis tight along
    # x = 2y; the pressure deficit is (1/2) log 3 - (3/4) log 2 exactly
    r = verify("FREE_BRUNN_MINKOWSKI",
               {"f": quadratic(1.0), "g": quadratic(2.0),
                "u3": quadratic(4.0 / 3.0), "theta": 0.5})
    assert r.passed
    assert abs(r.deficit - (0.5 * np.log(3.0) - 0.75 * np.log(2.0))) < 1e-9


def test_brunn_minkowski_rejects_oversized_middle_potential():
    with pytest.raises(HypothesisError) as err:
        verify("FREE_BRUNN_MINKOWSKI",
               {"f": quadratic(1.0), "g": quadratic(1.0),
                "u3": quadratic(2.0), "theta": 0.5})
    assert err.value.witness[2] < 0.0


def test_brunn_minkowski_theta_must_be_interior():
    for theta in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidInputError):
            verify("FREE_BRUNN_MINKOWSKI",
                   {"f": quadratic(1.0), "g": quadratic(1.0),
                    "u3": quadratic(1.0), "theta": theta})


# ------------------------------------------------------------ log prekopa

def test_prekopa_identity_pair_is_tight():
    r = verify("FREE_LOG_PREKOPA",
               {"f": linear_halfline(1.0), "g": linear_halfline(1.0)})
    assert abs(r.lhs - np.log(np.pi)) < 1e-12
    assert abs(r.deficit) < 1e-12


def test_prekopa_heavier_slope_opens_a_gap():
    r = verify("FREE_LOG_PREKOPA",
               {"f": linear_halfline(1.0), "g": linear_halfline(1.5)})
    assert r.passed
    assert abs(r.deficit - 0.5 * np.log(1.5)) < 1e-8


def test_prekopa_dual_route_matches_direct_half_line_entropy():
    # one side from the symmetrized pressure, the other from chi_plus on
    # the wall-constrained half-line equilibrium itself
    res = solve_equilibrium(linear_halfline(1.0))
    direct = float(chi_plus(res.measure)) - moment(res.measure, 1)
    r = verify("FREE_LOG_PREKOPA",
               {"f": linear_halfline(1.0), "g": linear_halfline(1.0)})
    assert abs(r.lhs - direct) < 5e-4


def test_prekopa_rejects_undersized_slope():
    with pytest.raises(HypothesisError) as err:
        verify("FREE_LOG_PREKOPA",
               {"f": linear_halfline(1.0), "g": linear_halfline(0.8)})
    assert err.value.witness[2] < 0.0


# ------------------------------------------------------------ inverse ssfti

def test_inverse_ssfti_quadratic_slack_is_the_constant():
    r = verify("INVERSE_SSFTI", {"f": quadratic(1.0)})
    assert abs(r.lhs) < 1e-5
    assert abs(r.deficit - 0.5 * np.log(np.pi / 2.0)) < 1e-5
    assert r.passed


def test_inverse_ssfti_frozen_probe_values():
    r = verify("INVERSE_SSFTI", {"f": arcsine_indicator(1.0)})
    assert r.passed
    assert abs(r.deficit - 0.12490671) < 1e-4
    r = verify("INVERSE_SSFTI", {"f": quartic(1.0)})
    assert r.passed
    assert abs(r.deficit - 0.20825108) < 1e-4


def test_inverse_ssfti_requires_even_potential():
    with pytest.raises(HypothesisError):
        verify("INVERSE_SSFTI", {"f": shift_potential(quadratic(1.0), 0.5)})


# ------------------------------------------------------------------- probes

def test_every_kind_has_a_strictly_positive_probe():
    # one fixed off-equality input per kind; all pass with real slack
    q = quadratic(1.0)
    probes = [
        ("FREE_TALAGRAND", {"mu": ARCSINE}),
        ("SSFTI", {"mu": SIGMA, "nu": ARCSINE}),
        ("SSFTI_GENERAL", {"mu": translate(SIGMA, 1.0),
                           "nu": translate(ARCSINE, -0.5)}),
        ("INVERSE_FREE_LSI", {"f": quartic(1.0)}),
        ("FREE_SANTALO", {"f": quartic(1.0),
                          "g": legendre_transform(quartic(1.0))}),
        ("FREE_SANTALO_SHIFTED", {"f": shift_potential(q, 1.0),
                                  "g": shift_potential(q, -1.0)}),
        ("INVERSE_SANTALO", {"f": q}),
        ("FREE_BRUNN_MINKOWSKI", {"f": q, "g": quadratic(2.0),
                                  "u3": quadratic(4.0 / 3.0), "theta": 0.5}),
        ("FREE_LOG_PREKOPA", {"f": linear_halfline(1.0),
                              "g": linear_halfline(1.5)}),
        ("INVERSE_SSFTI", {"f": quartic(1.0)}),
    ]
    assert [k for k, _ in probes] == list(KINDS)
    for kind, inputs in probes:
        r = verify(kind, inputs)
        assert r.passed, kind
        assert r.deficit > 0.01, kind


def test_reports_carry_labels_and_timing():
    r = verify("SSFTI", {"mu": SIGMA, "nu": ARCSINE})
    assert r.inputs["mu"] == "semicircle(mean=0,var=1)"
    assert r.inputs["nu"] == "arcsine(radius=1,center=0)"
    assert r.resolution > 0
    assert r.runtime_ms >= 0
    with pytest.raises(TypeError):
        r.inputs["mu"] = "other"


def test_free_talagrand_reports_repeat_and_vanish_at_sigma():
    import dataclasses

    # sigma's relative entropy is its carried series' closed form: two calls
    # give equal reports, and at sigma itself both sides vanish
    mu = make_semicircular(variance=1.5)
    first = verify("FREE_TALAGRAND", {"mu": mu})
    second = verify("FREE_TALAGRAND", {"mu": mu})
    assert dataclasses.replace(first, runtime_ms=0) == dataclasses.replace(second, runtime_ms=0)
    at_sigma = verify("FREE_TALAGRAND", {"mu": make_semicircular()})
    assert at_sigma.lhs == 0.0
    assert abs(at_sigma.rhs) <= 1e-15

def test_closed_form_rows_are_exact_from_the_series():
    # FREE_TALAGRAND at mp(1): W2^2 to sigma against 2 H(mp(1)) = 3/2
    rep = verify("FREE_TALAGRAND", {"mu": make_marchenko_pastur_family(1.0)})
    assert abs(rep.rhs - 1.5) <= 1e-12
    # the sharp equality cases, sigma_a against sigma_(1/a)
    for a in (0.25, 1.0, 2.25, 4.0, 9.0):
        rep = verify("SSFTI", {"mu": make_semicircular(variance=a),
                               "nu": make_semicircular(variance=1.0 / a)})
        assert abs(rep.deficit) <= 1e-11, a
    # the Legendre conjugate of x^2/2 is itself, and both entropies vanish
    rep = verify("INVERSE_SSFTI", {"f": quadratic(1.0)})
    assert abs(rep.lhs) <= 1e-13

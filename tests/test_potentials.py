import numpy as np
import pytest

from freelab.errors import HypothesisError, InvalidInputError
from freelab.potentials import (
    Potential,
    _eval_grid,
    _grid_index,
    abs_potential,
    arcsine_indicator,
    fenchel_young_gap,
    lattice_floor,
    legendre_transform,
    linear_halfline,
    moreau_yosida,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
    table_potential,
    tilt_linear,
)


def test_quadratic_values_and_derivative():
    u = quadratic(3.0)
    assert abs(u.value(2.0) - 6.0) < 1e-15
    assert abs(u.d(2.0) - 6.0) < 1e-15
    assert u.is_convex and u.growth_ok
    xs = np.array([-1.0, 0.0, 4.0])
    assert np.allclose(u.value(xs), 1.5 * xs ** 2)


def test_value_is_inf_outside_domain():
    w = arcsine_indicator(1.0)
    assert w.value(2.0) == np.inf
    assert w.value(-1.5) == np.inf
    assert abs(w.value(0.3) - np.log(2.0)) < 1e-15
    got = w.value(np.array([-2.0, 0.0, 0.5]))
    assert got[0] == np.inf and np.isfinite(got[1:]).all()


def test_finite_difference_derivative_fallback():
    u = Potential(fn=lambda x: np.cos(x), deriv=None,
                  domain_lo=-np.inf, domain_hi=np.inf,
                  is_convex=False, growth_ok=False, label="cos")
    assert abs(u.d(0.7) - (-np.sin(0.7))) < 1e-6


def test_table_potential_certifies_convexity():
    xs = np.linspace(-3.0, 3.0, 801)
    conv = table_potential(xs, xs ** 2, label="sq")
    assert conv.is_convex
    wavy = table_potential(xs, np.cos(3 * xs), label="wavy")
    assert not wavy.is_convex


def test_tilt_can_destroy_confinement():
    u = tilt_linear(abs_potential(), -1.0)  # |x| - x is flat on x > 0
    assert not u.growth_ok
    v = tilt_linear(quadratic(1.0), -1.0)
    assert v.growth_ok
    assert abs(v.d(2.0) - 1.0) < 1e-15


def test_shift_moves_the_graph():
    u = shift_potential(quadratic(1.0), 2.0)
    assert abs(u.value(3.0) - 0.5) < 1e-15
    assert abs(u.d(2.0)) < 1e-15
    w = shift_potential(arcsine_indicator(1.0), 0.5)
    assert w.value(1.4) < np.inf and w.value(1.6) == np.inf


def test_legendre_of_quadratic_is_dual_quadratic():
    f = legendre_transform(quadratic(2.0))
    ys = np.array([-3.0, -0.4, 0.0, 1.5, 8.0])
    assert np.max(np.abs(f.value(ys) - ys ** 2 / 4.0)) < 1e-9
    assert np.max(np.abs(f.d(ys) - ys / 2.0)) < 1e-6
    assert f.is_convex


def test_legendre_of_quartic_closed_form():
    f = legendre_transform(quartic(0.25))  # x^4/4
    ys = np.array([-3.0, -1.0, 0.5, 2.0])
    want = 0.75 * np.abs(ys) ** (4.0 / 3.0)
    assert np.max(np.abs(f.value(ys) - want)) < 1e-8
    # envelope derivative is the maximizer: sign(y) |y|^{1/3}
    assert np.max(np.abs(f.d(ys) - np.sign(ys) * np.abs(ys) ** (1.0 / 3.0))) < 1e-6


def test_legendre_of_abs_is_unit_well():
    f = legendre_transform(abs_potential())
    assert abs(f.value(0.0)) < 1e-12
    assert abs(f.value(0.97)) < 1e-12
    assert f.value(1.5) == np.inf
    assert f.value(-1.0001) == np.inf


def test_legendre_of_flat_well_is_support_function():
    f = legendre_transform(arcsine_indicator(0.5))
    ys = np.array([-4.0, -1.0, 0.0, 2.5])
    want = 0.5 * np.abs(ys) - np.log(4.0)
    assert np.max(np.abs(f.value(ys) - want)) < 1e-10
    assert not f.bounded_domain  # conjugate of a compactly supported well


def test_legendre_is_an_involution_on_convex_inputs():
    for u in (quadratic(0.5), quartic(0.25)):
        uss = legendre_transform(legendre_transform(u))
        xs = np.array([-2.0, -0.3, 0.0, 1.0, 2.4])
        assert np.max(np.abs(uss.value(xs) - u.value(xs))) < 1e-7


def test_moreau_yosida_of_quadratic():
    m = moreau_yosida(quadratic(1.0), 0.5)
    xs = np.array([-2.0, 0.3, 1.7])
    assert np.max(np.abs(m.value(xs) - xs ** 2 / 3.0)) < 1e-9
    assert np.max(np.abs(m.d(xs) - 2.0 * xs / 3.0)) < 1e-7


def test_moreau_yosida_of_abs_is_huber():
    lam = 0.3
    m = moreau_yosida(abs_potential(), lam)
    assert abs(m.value(0.1) - 0.1 ** 2 / (2 * lam)) < 1e-9
    assert abs(m.value(2.0) - (2.0 - lam / 2.0)) < 1e-9
    assert abs(m.d(2.0) - 1.0) < 1e-6


def _huber(lam):
    return (lambda x: np.where(np.abs(x) <= lam, x * x / (2.0 * lam), np.abs(x) - lam / 2.0),
            lambda x: np.clip(x / lam, -1.0, 1.0))


def _closed_forms():
    for g in (0.25, 1.0):  # (g x^4)* = a |y|^(4/3)
        a = 0.75 * (4.0 * g) ** (-1.0 / 3.0)
        yield pytest.param(lambda g=g: legendre_transform(quartic(g)),
                           lambda y, a=a: a * np.abs(y) ** (4.0 / 3.0),
                           lambda y, g=g: np.sign(y) * np.abs(y / (4.0 * g)) ** (1.0 / 3.0),
                           id=f"legendre-quartic-{g:g}")
    for c in (0.25, 1.0, 4.0):
        yield pytest.param(lambda c=c: legendre_transform(quadratic(c)),
                           lambda y, c=c: y * y / (2.0 * c), lambda y, c=c: y / c,
                           id=f"legendre-quadratic-{c:g}")
    for c, lam in ((0.25, 2.0), (1.0, 0.5), (4.0, 0.3)):
        k = c / (1.0 + c * lam)
        yield pytest.param(lambda c=c, lam=lam: moreau_yosida(quadratic(c), lam),
                           lambda x, k=k: 0.5 * k * x * x, lambda x, k=k: k * x,
                           id=f"my-quadratic-{c:g}-{lam:g}")
    yield pytest.param(lambda: moreau_yosida(abs_potential(), 0.5), *_huber(0.5), id="my-abs-0.5")


@pytest.mark.parametrize("make, value, deriv", _closed_forms())
def test_conjugate_and_envelope_match_their_closed_forms(make, value, deriv):
    # the polish solves the stationarity condition to rounding, so the
    # envelope derivative is as exact as the value
    f = make()
    ts = np.concatenate([np.linspace(-3.0, 3.0, 61), [1e-3, -1e-7]])
    assert np.max(np.abs(f.value(ts) - value(ts))) <= 1e-13
    assert np.max(np.abs(f.d(ts) - deriv(ts))) <= 1e-13


def test_moreau_yosida_rejects_bad_parameter():
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            moreau_yosida(quadratic(1.0), lam)


@pytest.mark.parametrize("factory, args", [
    (quadratic, (np.inf,)),
    (quadratic, (np.nan,)),
    (quartic, (np.inf,)),
    (polynomial_even, (np.nan, 0.25)),
    (polynomial_even, (0.5, np.inf)),
    (arcsine_indicator, (np.nan,)),
    (arcsine_indicator, (np.inf,)),
    (linear_halfline, (np.nan,)),
    (linear_halfline, (np.inf,)),
    (shift_potential, (quadratic(1.0), np.nan)),
    (shift_potential, (quadratic(1.0), -np.inf)),
    (tilt_linear, (quadratic(1.0), np.nan)),
    (tilt_linear, (abs_potential(), np.inf)),
])
def test_factories_reject_non_finite_parameters(factory, args):
    # solves of these raised bare LinAlgErrors or SolverErrors, or reported
    # an infinite pressure
    with pytest.raises(InvalidInputError):
        factory(*args)


def test_fenchel_young_gap_of_dual_pair_is_nonnegative():
    f = quadratic(1.0)
    g = legendre_transform(f)
    gap = fenchel_young_gap(f, g, box=8.0)
    assert gap >= -1e-10
    assert gap < 1e-2  # near-equality is achieved along y = x


def test_fenchel_young_holds_for_nonconvex_input_conjugate():
    u = Potential(fn=lambda x: 0.25 * x ** 4 - x ** 2, deriv=None,
                  domain_lo=-np.inf, domain_hi=np.inf,
                  is_convex=False, growth_ok=True, label="double-well")
    f = legendre_transform(u)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=64)
    ys = rng.uniform(-3, 3, size=64)
    gap = u.value(xs) + f.value(ys) - xs * ys
    assert gap.min() > -1e-8


def test_conjugate_derivative_is_monotone():
    f = legendre_transform(polynomial_even(0.5, 0.25))
    ys = np.linspace(-5.0, 5.0, 41)
    assert np.all(np.diff(f.d(ys)) > -1e-9)


def _double_well():
    return Potential(fn=lambda x: 0.25 * x ** 4 - x ** 2, deriv=None,
                     domain_lo=-np.inf, domain_hi=np.inf,
                     is_convex=False, growth_ok=True, label="double-well")


def test_moreau_yosida_of_double_well_is_the_global_minimum():
    # u + (y - t)^2 / 2 has two wells; a pointer walk from the left stops
    # in the left one (0.0999 too high at t = 0.05)
    m = moreau_yosida(_double_well(), 1.0)
    ys = np.linspace(-4.0, 4.0, 1_200_001)
    for t in (-2.0, -0.5, 0.0, 0.05, 0.5, 2.0):
        brute = np.min(0.25 * ys ** 4 - ys ** 2 + 0.5 * (ys - t) ** 2)
        assert abs(m.value(t) - brute) < 1e-9


def _selection_cases():
    for u in (quadratic(1.0), quartic(0.25), abs_potential(),
              arcsine_indicator(1.0), linear_halfline(1.0)):
        xs, us = _eval_grid(u)
        slopes = np.diff(us) / np.diff(xs)
        yield u.label, xs, us, slopes, lambda x, y, ux: x * y - ux
        for lam in (0.3, 1.0):
            breaks = 0.5 * (xs[1:] + xs[:-1]) + lam * slopes
            yield (f"my({u.label},{lam})", xs, us, breaks,
                   lambda y, t, uy, lam=lam: -(uy + (y - t) ** 2 / (2.0 * lam)))


def test_break_point_selection_matches_full_argmax():
    # unsorted queries with repeats, kink and plateau values among them
    rng = np.random.default_rng(5)
    ts = rng.uniform(-3.0, 3.0, size=160)
    ts = np.concatenate([ts, ts[:40], [0.0, 0.0, 1.0, -1.0, 1.0]])
    rng.shuffle(ts)
    for label, xs, us, breaks, score in _selection_cases():
        idx = _grid_index(ts, xs, us, breaks, score, convex=True)
        table = score(xs[None, :], ts[:, None], us[None, :])
        best = table.max(axis=1)
        chosen = table[np.arange(ts.size), idx]
        # near-ties may pick the neighbouring index: compare scores
        assert np.all(np.abs(chosen - best) <= 1e-12 * np.maximum(1.0, np.abs(best))), label


def test_lattice_floor_nan_never_certifies():
    def gap(xs, ys):
        table = np.ones((xs.size, ys.size))
        table[0, 0] = np.nan
        table[3, 5] = -0.5
        return table

    with pytest.raises(HypothesisError) as err:
        lattice_floor(gap, (-1.0, 1.0), (-2.0, np.inf), 1.5, "test bound")
    xs = np.linspace(-1.0, 1.0, 256)
    ys = np.linspace(-1.5, 1.5, 256)
    assert err.value.witness == (xs[3], ys[5], -0.5)


def test_fenchel_young_gap_raises_past_a_nan_row():
    # f is NaN on the first lattice row; x^2/4 + y^2/4 - xy still dips
    # below zero along the diagonal
    f = Potential(fn=lambda x: np.where(x < -3.9, np.nan, 0.25 * x * x),
                  deriv=None, domain_lo=-np.inf, domain_hi=np.inf,
                  is_convex=False, growth_ok=True, label="nan-row")
    with pytest.raises(HypothesisError) as err:
        fenchel_young_gap(f, quadratic(0.5), box=4.0)
    x, y, floor = err.value.witness
    assert floor < 0.0
    assert x == y


def test_polynomial_derivatives_are_odd_products_of_x():
    x = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 601)])
    x = np.concatenate([x, -x])
    for u, ref in [(quartic(g), 4.0 * g * x ** 3) for g in (0.25, 0.6, 1.0)] + [
            (polynomial_even(c2, c4), 2.0 * c2 * x + 4.0 * c4 * x ** 3)
            for c2, c4 in ((0.5, 0.125), (1.0, 0.3), (0.0, 2.0))]:
        d = u.d(x)
        assert np.all(np.abs(d - ref) <= 1e-15 * np.abs(ref)), u.label
        assert d[0] == 0.0, u.label
        assert np.array_equal(u.d(-x), -d), u.label


def test_polynomial_slope_coefficients_follow_shift_and_tilt():
    x = np.linspace(-3.0, 3.0, 61)
    for u in (quadratic(2.5), quartic(0.6), polynomial_even(0.5, 0.125)):
        for v in (u, tilt_linear(u, -0.7), shift_potential(u, 0.4),
                  tilt_linear(shift_potential(u, -1.3), 0.2)):
            poly = np.polynomial.polynomial.polyval(x, v.deriv_coeffs)
            assert np.max(np.abs(poly - v.d(x))) <= 1e-13 * (1.0 + np.max(np.abs(poly))), v.label
    for u in (abs_potential(), arcsine_indicator(1.0), linear_halfline(1.0),
              table_potential([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]),
              legendre_transform(quadratic(1.0)), moreau_yosida(quadratic(1.0), 0.5),
              tilt_linear(abs_potential(), 0.3), shift_potential(abs_potential(), 1.0)):
        assert u.deriv_coeffs is None, u.label

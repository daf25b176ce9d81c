import numpy as np
import pytest

from scipy.interpolate import CubicSpline

from freelab._grids import ENERGY_CELLS, GL2_T, GL2_W, GL4_T, GL4_W, cosine_graded, gauss_legendre_01
from freelab.errors import InvalidInputError, SingularEvaluationError
from freelab.logpotential import (
    TOL_DOUBLE_QUAD,
    chi,
    chi_plus,
    chi_rel,
    euler_lagrange_residual,
    hilbert_transform,
    _energy_at,
    integrate_potential,
    log_energy,
    log_jacobian,
    relative_entropy_semicircular,
    schwinger_dyson_residual,
)
from freelab.measures import (
    make_arcsine,
    make_marchenko_pastur_family,
    make_semicircular,
    pushforward_monotone,
    translate,
)
from freelab.potentials import (
    abs_potential,
    arcsine_indicator,
    linear_halfline,
    polynomial_even,
    quadratic,
    quartic,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def test_log_energy_semicircle():
    e = log_energy(make_semicircular())
    assert abs(e.value - (-0.25)) < 2e-6
    assert e.error_est < 1e-5


def test_log_energy_scales_with_radius():
    # E(arcsine(R)) = log(R/2); E under dilation by s gains log s
    assert abs(log_energy(make_arcsine(2.0)).value) < 2e-6
    assert abs(log_energy(make_arcsine(1.0)).value + np.log(2.0)) < 2e-6
    assert abs(log_energy(make_semicircular(variance=4.0)).value
               - (np.log(2.0) - 0.25)) < 4e-6


def test_log_energy_error_estimate_is_honest():
    for mu, exact in ((make_semicircular(), -0.25),
                      (make_arcsine(2.0), 0.0),
                      (make_marchenko_pastur_family(1.0), -0.5)):
        e = log_energy(mu)
        assert abs(e.value - exact) < 20.0 * e.error_est + 1e-9


def test_chi_of_semicircle():
    got = chi(make_semicircular())
    want = 0.5 * np.log(2.0 * np.pi * np.e)
    assert abs(got.value - want) < 2e-6


def test_chi_of_scaled_semicircle():
    v = 2.0
    got = chi(make_semicircular(variance=v))
    want = 0.5 * np.log(2.0 * np.pi * np.e) + 0.5 * np.log(v)
    assert abs(got.value - want) < 2e-6


def test_chi_is_translation_invariant():
    sig = make_semicircular()
    a = chi(sig).value
    b = chi(translate(sig, 3.0)).value
    assert abs(a - b) < 1e-8


def test_chi_plus_of_squared_pushforward():
    # chi+(mp(c)) = log(pi e c)
    mp = make_marchenko_pastur_family(1.0)
    assert abs(chi_plus(mp).value - np.log(np.pi * np.e)) < 2e-6
    with pytest.raises(InvalidInputError):
        chi_plus(make_semicircular())  # support crosses zero


def test_relative_entropy_semicircular_family():
    for v in (0.5, 2.0):
        got = relative_entropy_semicircular(make_semicircular(variance=v))
        want = 0.5 * v - 0.5 - 0.5 * np.log(v)
        assert abs(got.value - want) < 2e-6
    shifted = relative_entropy_semicircular(make_semicircular(mean=1.5))
    assert abs(shifted.value - 1.5 ** 2 / 2.0) < 2e-6
    assert abs(relative_entropy_semicircular(make_semicircular()).value) < 2e-6


def test_chi_rel_semicircle_under_its_own_potential():
    got = chi_rel(make_semicircular(), quadratic(1.0))
    assert abs(got.value - HALF_LOG_2PI) < 2e-6


def test_chi_rel_is_minus_inf_when_potential_escapes():
    got = chi_rel(make_semicircular(), arcsine_indicator(1.0))
    assert got.value == -np.inf


def test_integrate_potential_moments():
    sig = make_semicircular()
    assert abs(integrate_potential(sig, quadratic(1.0)) - 0.5) < 1e-6
    assert abs(integrate_potential(sig, quartic(0.25)) - 0.5) < 1e-6


def test_hilbert_transform_semicircle_inside():
    sig = make_semicircular()
    ts = np.array([-1.9, -0.7, 0.0, 0.3, 1.5])
    got = hilbert_transform(sig, ts)
    assert np.max(np.abs(got - ts / (2.0 * np.pi))) < 1e-6


def test_hilbert_transform_semicircle_outside():
    sig = make_semicircular()
    got = hilbert_transform(sig, 3.0)
    want = (3.0 - np.sqrt(5.0)) / (2.0 * np.pi)
    assert abs(got - want) < 1e-8


def test_hilbert_transform_arcsine_vanishes_inside():
    arc = make_arcsine(1.0)
    ts = np.array([-0.6, 0.2, 0.9])
    assert np.max(np.abs(hilbert_transform(arc, ts))) < 1e-7


def test_hilbert_transform_rejects_endpoints():
    sig = make_semicircular()
    with pytest.raises(SingularEvaluationError):
        hilbert_transform(sig, 2.0)


def _hilbert_one_point(mu, t, cells=4096):
    """The Hilbert transform rule, one point at a time."""
    if not mu.support_lo < t < mu.support_hi:
        glt, glw = gauss_legendre_01()
        return float(glw @ (1.0 / (t - mu.quantile(glt)))) / np.pi
    spline = CubicSpline(mu.quantile_ps, mu.quantile_xs)
    dspline = spline.derivative()
    sstar = float(np.interp(t, mu.quantile_xs, mu.quantile_ps))
    for _ in range(3):
        sstar -= float(spline(sstar) - t) / max(float(dspline(sstar)), 1e-300)
        sstar = min(max(sstar, 0.0), 1.0)
    qs = float(dspline(sstar))

    def side(lo, hi):
        if hi - lo < 1e-14:
            return 0.0
        bounds = lo + (hi - lo) * cosine_graded(max(cells // 2, 64))
        h = np.diff(bounds)
        sub = (bounds[:-1, None] + h[:, None] * GL4_T[None, :]).ravel()
        wts = (h[:, None] * GL4_W[None, :]).ravel()
        ds = sub - sstar
        dq = t - spline(sub)
        safe_dq = np.where(np.abs(dq) > 1e-300, dq, 1e-300)
        safe_ds = np.where(np.abs(ds) > 1e-300, ds, 1e-300)
        g = 1.0 / safe_dq + 1.0 / (qs * safe_ds)
        g = np.where(np.abs(ds) < 1e-11, 0.0, g)
        return float(wts @ g)

    pv_tail = -np.log((1.0 - sstar) / sstar) / qs
    return (side(0.0, sstar) + side(sstar, 1.0) + pv_tail) / np.pi


def test_batched_hilbert_transform_matches_one_point_rule_bitwise():
    from freelab.equilibrium import solve_equilibrium
    from freelab.potentials import abs_potential, linear_halfline

    measures = [make_semicircular(), make_marchenko_pastur_family(1.0)] + [
        solve_equilibrium(u).measure
        for u in (quartic(0.25), abs_potential(), linear_halfline(1.5))]
    for mu in measures:
        # 19 interior points, so two full batches and a partial one,
        # with points outside the support interleaved
        inner = mu.quantile(np.linspace(0.03, 0.97, 19))
        ts = np.insert(inner, [0, 7, 19], [mu.support_lo - 0.5, mu.support_hi + 1.0,
                                           mu.support_hi + 3.0])
        got = hilbert_transform(mu, ts)
        want = np.array([_hilbert_one_point(mu, t) for t in ts])
        assert np.array_equal(got, want), mu.label
        grid = hilbert_transform(mu, ts[:20].reshape(4, 5))
        assert grid.shape == (4, 5) and np.array_equal(grid.ravel(), want[:20])
        scalar = hilbert_transform(mu, float(inner[4]))
        assert isinstance(scalar, float) and scalar == _hilbert_one_point(mu, inner[4])


def test_hilbert_transform_checks_endpoints_before_any_work(monkeypatch):
    import freelab.logpotential as lp

    def no_spline(*args, **kwargs):
        raise AssertionError("interior work started before the endpoint check")

    monkeypatch.setattr(lp, "CubicSpline", no_spline)
    sig = make_semicircular()
    with pytest.raises(SingularEvaluationError, match="t=-2"):
        hilbert_transform(sig, np.array([0.1, 0.5, -2.0, 2.0]))


def test_euler_lagrange_residual_on_equilibria():
    assert euler_lagrange_residual(make_semicircular(), quadratic(1.0)) < 1e-6
    assert euler_lagrange_residual(make_semicircular(variance=0.25), quadratic(4.0)) < 1e-6
    assert euler_lagrange_residual(make_arcsine(1.0), arcsine_indicator(1.0)) < 5e-5


def test_euler_lagrange_residual_detects_mismatch():
    # semicircle is not the equilibrium of 2 x^2 / 2
    assert euler_lagrange_residual(make_semicircular(), quadratic(2.0)) > 0.5


def test_schwinger_dyson_residual():
    assert schwinger_dyson_residual(make_semicircular(), quadratic(1.0)) < 1e-6
    assert schwinger_dyson_residual(make_semicircular(), quadratic(3.0)) > 0.5


def test_log_jacobian_of_linear_expansion():
    sig = make_semicircular()
    got = log_jacobian(sig, quadratic(3.0))  # u' = 3x, jacobian factor 3
    assert abs(got.value - np.log(3.0)) < 1e-7
    ident = log_jacobian(sig, quadratic(1.0))
    assert abs(ident.value) < 1e-9


def test_log_jacobian_needs_increasing_gradient():
    with pytest.raises(InvalidInputError):
        log_jacobian(make_semicircular(), quadratic(-1.0))


def test_log_jacobian_nonlinear_consistency():
    # u' = x + x^3/5 pushes the semicircle to a heavier-tailed law; compare
    # against the defining double integral done directly on a coarse grid.
    from freelab.potentials import polynomial_even
    sig = make_semicircular()
    u = polynomial_even(0.5, 0.05)  # u' = x + 0.2 x^3
    got = log_jacobian(sig, u).value
    ps = np.linspace(0.5 / 512, 1.0 - 0.5 / 512, 512)
    xs = sig.quantile(ps)
    dx = xs[:, None] - xs[None, :]
    du = u.d(xs)[:, None] - u.d(xs)[None, :]
    off = ~np.eye(512, dtype=bool)
    direct = np.log(du[off] / dx[off]).mean()
    assert abs(got - direct) < 5e-4


def test_double_quad_tolerance_is_respected():
    # the advertised tolerance for double-integral quantities
    e = log_energy(make_semicircular())
    assert abs(e.value - (-0.25)) < TOL_DOUBLE_QUAD


def _dense_energy(mu, cells):
    """The quadrature rule of _energy_at on the whole node square at once."""
    ps = cosine_graded(cells)
    h = np.diff(ps)
    a = np.maximum(np.diff(mu.quantile(ps)), 1e-300)
    t = (ps[:-1, None] + h[:, None] * GL2_T[None, :]).ravel()
    w = (h[:, None] * GL2_W[None, :]).ravel()
    q = mu.quantile(t)
    cell = np.arange(q.size) // 2
    logs = np.log(np.maximum(np.abs(q[:, None] - q[None, :]), 1e-300))
    logs[np.abs(cell[:, None] - cell[None, :]) <= 1] = 0.0
    total = float(np.sum(w[:, None] * w[None, :] * logs))
    total += float(np.sum(h * h * (np.log(a) - 1.5)))
    aa, bb = a[:-1], a[1:]
    j = 0.5 * ((aa + bb) ** 2 * np.log(aa + bb) - aa * aa * np.log(aa) - bb * bb * np.log(bb)) \
        - 1.5 * aa * bb
    return total + float(np.sum(2.0 * j * h[:-1] * h[1:] / (aa * bb)))


def test_blocked_energy_matches_dense_rule():
    # node counts 200 and 602 leave a partial last block, and bands cross
    # block edges
    for mu in (make_semicircular(), make_marchenko_pastur_family(1.0),
               translate(make_arcsine(2.0), 0.5)):
        for cells in (100, 301):
            assert abs(_energy_at(mu, cells) - _dense_energy(mu, cells)) < 1e-13


def test_series_energy_matches_closed_forms_with_honest_estimates():
    # E(semicircle of variance v) = log(v)/2 - 1/4, E(arcsine(R)) = log(R/2),
    # E(mp(c)) = log(c) - 1/2; all are smooth enough for the series route
    for mu, exact in ((make_semicircular(), -0.25),
                      (make_semicircular(variance=0.5), 0.5 * np.log(0.5) - 0.25),
                      (make_semicircular(variance=2.0), 0.5 * np.log(2.0) - 0.25),
                      (make_semicircular(mean=-1.5, variance=2.0), 0.5 * np.log(2.0) - 0.25),
                      (make_arcsine(1.0), -np.log(2.0)),
                      (translate(make_arcsine(2.0), 0.5), 0.0),
                      (make_marchenko_pastur_family(1.0), -0.5),
                      (make_marchenko_pastur_family(2.0), np.log(2.0) - 0.5)):
        e = log_energy(mu)
        assert abs(e.value - exact) <= 5e-8, mu.label
        assert abs(e.value - exact) <= 3.0 * e.error_est + 1e-13, mu.label


def test_series_energy_matches_solver_energy():
    # the solver's energy is the same Chebyshev series, summed from its tau
    # coefficients without a quantile table
    from freelab.equilibrium import solve_equilibrium

    for u in (quadratic(1.0), quartic(0.25), polynomial_even(0.5, 0.125),
              linear_halfline(1.5), arcsine_indicator(2.5)):
        res = solve_equilibrium(u)
        assert abs(log_energy(res.measure).value - res.energy) <= 1e-12, u.label


def test_log_energy_keeps_quadrature_where_series_does_not_converge():
    from freelab.equilibrium import solve_equilibrium

    # the quartic u' pushes the equilibrium onto a density with a |y|^(-2/3)
    # cusp at 0: the series tail is far above its threshold
    u = quartic(0.25)
    nu = pushforward_monotone(solve_equilibrium(u).measure, u.d)
    full, half = _energy_at(nu, ENERGY_CELLS), _energy_at(nu, ENERGY_CELLS // 2)
    e = log_energy(nu)
    assert e.value == full
    assert e.error_est == abs(full - half) / 3.0 + 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_energy_of_measure_with_atoms_is_quiet_nan():
    # sign(x) = u'(x) of |x| sends the equilibrium onto atoms at -1 and +1;
    # the series sees a jump and hands over to the quadrature, which has no
    # finite value to give
    from freelab.equilibrium import solve_equilibrium

    u = abs_potential()
    mu = solve_equilibrium(u).measure
    assert np.isnan(log_energy(pushforward_monotone(mu, u.d)).value)
    assert np.isnan(log_jacobian(mu, u).value)
    clipped = pushforward_monotone(make_semicircular(), lambda x: np.clip(x, -1.0, 1.0))
    assert np.isnan(log_energy(clipped).value)

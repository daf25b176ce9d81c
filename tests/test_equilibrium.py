from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from freelab.equilibrium import (
    CenteringShift,
    SolverSettings,
    entropy_duality_check,
    find_centering_shift,
    free_pressure,
    moment_map,
    solve_equilibrium,
)
from freelab.errors import InvalidInputError, MultiCutError, SolverError
from freelab.logpotential import chi_rel
from freelab.measures import (
    from_density_table,
    ks_distance,
    make_arcsine,
    make_marchenko_pastur_family,
    make_semicircular,
    moment,
    translate,
)
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
from freelab.transport import ssfti_functional

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def test_quadratic_gives_semicircle():
    res = solve_equilibrium(quadratic(1.0))
    assert res.method == "soft"
    assert res.converged
    assert abs(res.support_lo + 2.0) < 1e-9
    assert abs(res.support_hi - 2.0) < 1e-9
    assert abs(res.pressure - HALF_LOG_2PI) < 1e-12
    assert abs(res.energy + 0.25) < 1e-12
    assert abs(res.el_constant - 1.0) < 1e-10
    assert res.el_residual < 1e-6
    assert res.sd_residual < 1e-6
    assert ks_distance(res.measure, make_semicircular()) < 1e-7


def test_scaled_quadratic_matches_semicircular_family():
    for v in (0.5, 2.0):
        res = solve_equilibrium(quadratic(1.0 / v))
        assert ks_distance(res.measure, make_semicircular(variance=v)) < 1e-7
        assert abs(res.support_hi - 2.0 * np.sqrt(v)) < 1e-9
        assert abs(res.pressure - 0.5 * np.log(2.0 * np.pi * v)) < 1e-12
        assert abs(res.el_constant - (1.0 - np.log(v))) < 1e-10


def test_quartic_endpoints_and_moments():
    res = solve_equilibrium(quartic(0.25))
    b = (16.0 / 3.0) ** 0.25
    assert abs(res.support_hi - b) < 1e-8
    assert abs(res.support_lo + b) < 1e-8
    eta = HALF_LOG_2PI + 3.0 / 8.0 - np.log(3.0) / 4.0
    assert abs(res.pressure - eta) < 1e-12
    assert abs(moment(res.measure, 2) - 4.0 * np.sqrt(3.0) / 9.0) < 1e-7
    assert abs(moment(res.measure, 4) - 1.0) < 1e-7
    assert res.el_residual < 1e-6


def test_quartic_density_closed_form():
    # hand inversion of u' = x^3: density (r^2 + 2x^2) sqrt(r^2 - x^2) / (4 pi)
    res = solve_equilibrium(quartic(0.25))
    r = res.support_hi
    xs = np.linspace(-0.95 * r, 0.95 * r, 41)
    expected = (r * r + 2.0 * xs * xs) * np.sqrt(r * r - xs * xs) / (4.0 * np.pi)
    got = np.array([res.measure.density_at(x) for x in xs])
    assert np.max(np.abs(got - expected)) < 1e-6


def test_linear_halfline_gives_marchenko_pastur():
    res = solve_equilibrium(linear_halfline())
    assert res.method == "wall-left"
    assert abs(res.support_lo) < 1e-12
    assert abs(res.support_hi - 4.0) < 1e-7
    assert abs(res.pressure - (HALF_LOG_2PI - 0.75)) < 1e-10
    assert abs(res.measure.barycenter() - 1.0) < 1e-8
    assert ks_distance(res.measure, make_marchenko_pastur_family(1.0)) < 5e-5
    assert res.el_residual < 1e-5


def test_flat_well_gives_arcsine():
    res = solve_equilibrium(arcsine_indicator(1.0))
    assert res.method == "wall-both"
    eta = -2.0 * np.log(2.0) + 0.75 + HALF_LOG_2PI
    assert abs(res.pressure - eta) < 1e-12
    assert ks_distance(res.measure, make_arcsine(1.0)) < 1e-6
    assert res.el_residual < 5e-5
    # hard walls add boundary terms the interior moment identities miss
    assert res.sd_residual > 0.5


@pytest.mark.parametrize("lam", [2.5, 3.0, -2.5, -3.0])
def test_tilted_flat_well_pins_the_wall_the_tilt_leans_on(lam):
    # lam x on [-2, 2] with |lam| > 1: the half-line law of slope |lam| against
    # the wall lam leans on, support of length 4/|lam|, log energy
    # -log|lam| - 1/2, and int u = |lam| (mean - wall) - 2|lam| = 1 - 2|lam|
    res = solve_equilibrium(tilt_linear(arcsine_indicator(2.0), lam))
    s = abs(lam)
    lo, hi = (-2.0, -2.0 + 4.0 / s) if lam > 0 else (2.0 - 4.0 / s, 2.0)
    assert res.method == ("wall-left" if lam > 0 else "wall-right")
    assert abs(res.support_lo - lo) < 1e-12 and abs(res.support_hi - hi) < 1e-12
    assert abs(res.energy - (-np.log(s) - 0.5)) < 1e-12
    assert abs(res.pressure - (-np.log(s) - 0.5 + 0.75 + HALF_LOG_2PI + 2.0 * s - 1.0)) < 1e-10


def test_walled_solve_on_an_unbounded_side_scans_its_seed_once(monkeypatch):
    # the soft seed and the wall-left bracket's far end share one scan
    import freelab.equilibrium as equilibrium

    scans = []
    seed = equilibrium._laplace_seed
    monkeypatch.setattr(equilibrium, "_laplace_seed", lambda u: scans.append(u) or seed(u))
    res = solve_equilibrium(tilt_linear(linear_halfline(1.0), 0.5))
    assert res.method == "wall-left"
    assert len(scans) == 1


def test_abs_potential_anchors():
    res = solve_equilibrium(abs_potential())
    assert abs(res.support_hi - np.pi) < 1e-6
    eta = np.log(np.pi / 2.0) + HALF_LOG_2PI - 0.75
    assert abs(res.pressure - eta) < 2e-6
    # doubled resolution tightens the kinked-derivative aliasing
    res2 = solve_equilibrium(abs_potential(), SolverSettings(nodes=16384))
    assert abs(res2.support_hi - np.pi) < 1e-8
    assert abs(res2.pressure - eta) < 1e-7


def test_pressure_shift_invariance():
    p0 = free_pressure(quadratic(1.0))
    p1 = free_pressure(shift_potential(quadratic(1.0), 1.3))
    assert abs(p1 - p0) < 1e-10


def test_pressure_tilt_identity():
    # tilting x^2/2 by lam*x translates sigma and adds lam^2/2
    for lam in (0.7, -1.2):
        p = free_pressure(tilt_linear(quadratic(1.0), lam))
        assert abs(p - (HALF_LOG_2PI + 0.5 * lam * lam)) < 1e-10


def test_pressure_one_lipschitz():
    h1 = quadratic(1.0)
    bump = 0.05
    h2 = Potential(fn=lambda x: 0.5 * x * x + bump * np.sqrt(1.0 + x * x),
                   deriv=lambda x: x + bump * x / np.sqrt(1.0 + x * x),
                   domain_lo=-np.inf, domain_hi=np.inf,
                   is_convex=True, growth_ok=True, label="quadratic+cosh-bump")
    r1, r2 = solve_equilibrium(h1), solve_equilibrium(h2)
    lo = min(r1.support_lo, r2.support_lo)
    hi = max(r1.support_hi, r2.support_hi)
    xs = np.linspace(lo, hi, 2001)
    gap = float(np.max(np.abs(h1.value(xs) - h2.value(xs))))
    assert abs(r1.pressure - r2.pressure) <= gap + 1e-9


def test_pressure_convex_in_potential():
    p1 = free_pressure(quadratic(1.0))
    p2 = free_pressure(quartic(0.25))
    for th in (0.25, 0.5, 0.75):
        mix = polynomial_even(th * 0.5, (1.0 - th) * 0.25)
        pm = free_pressure(mix)
        assert pm <= th * p1 + (1.0 - th) * p2 + 1e-9


def test_variational_optimality_against_probe_family():
    u = quartic(0.25)
    res = solve_equilibrium(u)
    best = chi_rel(res.measure, u).value
    probes = [
        make_semicircular(variance=0.5),
        make_semicircular(variance=0.7698),
        make_semicircular(),
        make_arcsine(1.5),
        translate(make_semicircular(variance=0.5), 0.3),
    ]
    for probe in probes:
        assert best >= chi_rel(probe, u).value - 5e-5


def test_even_potential_symmetric_density():
    res = solve_equilibrium(quartic(0.25))
    xs = np.linspace(0.05, 0.9 * res.support_hi, 17)
    for x in xs:
        assert abs(res.measure.density_at(x) - res.measure.density_at(-x)) < 1e-9


def test_double_well_raises_multicut():
    u = polynomial_even(-1.5, 0.25)
    with pytest.raises(MultiCutError):
        solve_equilibrium(u, SolverSettings(allow_nonconvex=True))


def test_nonconvex_needs_opt_in():
    u = polynomial_even(-1.5, 0.25)
    with pytest.raises(InvalidInputError):
        solve_equilibrium(u)


def test_growth_certificate_required():
    stray = tilt_linear(abs_potential(), -2.0)  # |x| - 2x escapes to +infinity
    assert not stray.growth_ok
    with pytest.raises(InvalidInputError):
        solve_equilibrium(stray)


def test_result_parts_are_consistent():
    for u in (quadratic(1.0), quartic(0.25), linear_halfline()):
        res = solve_equilibrium(u)
        rebuilt = res.energy + 0.75 + HALF_LOG_2PI - res.potential_moment
        assert abs(res.pressure - rebuilt) < 1e-12
        assert abs(res.el_constant - (res.potential_moment - 2.0 * res.energy)) < 1e-12
        # independent quadrature route: chi - int u
        assert abs(res.pressure - chi_rel(res.measure, u).value) < 5e-5
        ps = res.measure.quantile_ps
        assert ps[0] == 0.0 and ps[-1] == 1.0


def test_entropy_duality_gap():
    sig = make_semicircular()
    assert abs(entropy_duality_check(sig, [quadratic(1.0)])) < 5e-4
    assert entropy_duality_check(sig, [quartic(0.25)]) > 0.01
    assert entropy_duality_check(sig, [quartic(0.25), quadratic(1.0)]) < 5e-4
    arc = make_arcsine(1.0)
    assert abs(entropy_duality_check(arc, [arcsine_indicator(1.0)])) < 5e-4


def test_moment_map_sigma_is_fixed_point():
    u, res = moment_map(make_semicircular())
    xs = np.linspace(-1.5, 1.5, 11)
    assert np.max(np.abs(u.value(xs) - 0.5 * xs * xs)) < 2e-5
    assert abs(res.support_hi - 2.0) < 1e-4
    assert abs(res.pressure - HALF_LOG_2PI) < 1e-5


def test_moment_map_scaled_semicircular_pair():
    for c in (4.0, 0.25):
        mu = make_semicircular(variance=c)
        u, res = moment_map(mu)
        assert ks_distance(res.measure, make_semicircular(variance=1.0 / c)) < 5e-5
        xs = np.linspace(-0.8 / np.sqrt(c), 0.8 / np.sqrt(c), 9)
        assert np.max(np.abs(u.d(xs) - c * xs)) < 5e-4


def test_moment_map_arcsine_regression():
    mu = make_arcsine(1.0)
    u, res = moment_map(mu)
    push_xs = u.d(res.measure.quantile_xs)
    from freelab.measures import from_quantile_table
    push = from_quantile_table(res.measure.quantile_ps,
                               np.maximum.accumulate(push_xs))
    assert ks_distance(push, mu) < 1e-3
    assert abs(res.support_hi - 3.30617) < 5e-3  # frozen from this solver
    assert abs(u.value(res.measure.barycenter())) < 1e-9


def test_moment_map_transport_functional_minimum():
    # the solved nu minimizes 0.5 m2(nu) - chi(nu) - 0.5 W2(mu,nu)^2, and for
    # a semicircular input the minimum value is -rel_entropy - half log 2 pi
    c = 0.7
    mu = make_semicircular(variance=c)
    _, res = moment_map(mu)
    val = ssfti_functional(mu, res.measure)
    for v in (0.4, 1.0 / c, 1.4, 2.5):
        assert val <= ssfti_functional(mu, make_semicircular(variance=v)) + 1e-6
    analytic = 0.5 + 0.5 * np.log(c) - 0.5 * c - HALF_LOG_2PI
    assert abs(val - analytic) < 3e-4


def test_moment_map_functional_gap_for_arcsine():
    # away from the semicircular family the minimum sits strictly above the
    # entropy bound; freeze the measured arcsine gap as a regression value
    mu = make_arcsine(1.0)
    _, res = moment_map(mu)
    val = ssfti_functional(mu, res.measure)
    for v in (0.4, 0.7, 1.0, 1.4):
        assert val <= ssfti_functional(mu, make_semicircular(variance=v)) + 1e-6
    h_arc = 0.5 * 0.5 - (-np.log(2.0) + 0.75 + HALF_LOG_2PI) + HALF_LOG_2PI
    gap = val - (-h_arc - HALF_LOG_2PI)
    assert 0.07 < gap < 0.08


def test_moment_map_requires_centered_input():
    with pytest.raises(InvalidInputError):
        moment_map(make_semicircular(mean=0.5))


@pytest.mark.parametrize("c", [0.25, 0.7, 2.0, 4.0])
def test_moment_map_of_a_semicircle_is_exact(c):
    # u = c x^2 / 2 and nu = sigma_{1/c}, so the functional meets its bound
    mu = make_semicircular(variance=c)
    _, res = moment_map(mu)
    assert abs(res.support_hi - 2.0 / np.sqrt(c)) < 1e-10
    assert abs(res.support_lo + 2.0 / np.sqrt(c)) < 1e-10
    assert abs(res.pressure - 0.5 * np.log(2.0 * np.pi / c)) < 1e-10
    analytic = 0.5 + 0.5 * np.log(c) - 0.5 * c - HALF_LOG_2PI
    assert abs(ssfti_functional(mu, res.measure) - analytic) < 1e-10


@pytest.mark.parametrize("mu", [make_arcsine(1.0), translate(make_marchenko_pastur_family(1.0), -1.0)],
                         ids=["arcsine", "shifted-mp"])
def test_moment_map_pushes_nu_onto_mu(mu):
    from freelab._angle_series import quantile_cos

    u, res = moment_map(mu)
    assert res.series[2].size <= 64
    qs = [m + r * quantile_cos(tuple(tau.tolist()), 8192) for m, r, tau in (res.series, mu.series)]
    assert np.max(np.abs(u.d(qs[0]) - qs[1])) <= 1e-10
    assert abs(res.measure.barycenter()) <= 1e-12


def test_moment_map_stall_raises_solver_error():
    with pytest.raises(SolverError, match="stalled"):
        moment_map(make_arcsine(1.0), SolverSettings(max_iter=2))


def test_find_centering_shift_quadratics():
    cs0 = find_centering_shift(quadratic(1.0), search_box=(-2.0, 2.0))
    assert cs0.found and abs(cs0.lam) < 1e-8
    cs1 = find_centering_shift(shift_potential(quadratic(1.0), 1.0),
                               search_box=(-4.0, 4.0))
    assert cs1.found and abs(cs1.lam - 1.0) < 1e-8


def test_find_centering_shift_nonconvex_fixture():
    f = Potential(fn=lambda x: x ** 4 / 4 + x ** 3 / 10,
                  deriv=lambda x: x ** 3 + 0.3 * x * x,
                  domain_lo=-np.inf, domain_hi=np.inf,
                  is_convex=False, growth_ok=True, label="quartic-cubic")
    cfg = SolverSettings(allow_nonconvex=True)
    cs = find_centering_shift(f, search_box=(-2.0, 2.0), cfg=cfg)
    assert cs.found
    assert abs(cs.lam + 0.17383375) < 1e-6
    res = solve_equilibrium(tilt_linear(f, cs.lam), cfg)
    assert abs(res.measure.barycenter()) < 1e-8
    assert len(cs.curve) >= 9


def test_find_centering_shift_not_found_reports_curve():
    cs = find_centering_shift(shift_potential(quadratic(1.0), 1.0),
                              search_box=(-4.0, -2.0))
    assert isinstance(cs, CenteringShift)
    assert not cs.found and cs.lam is None
    assert len(cs.curve) == 9
    assert all(bar > 2.9 for _, bar in cs.curve)


def _fekete_endpoint(u, n, lo, hi):
    """Largest point of the discrete energy minimizer with n particles."""
    x0 = lo + (hi - lo) * (np.arange(n) + 0.5) / n

    def objective(x):
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        pot = np.sum(u.value(x)) / n
        inter = np.log(np.maximum(np.abs(d), 1e-300))
        np.fill_diagonal(inter, 0.0)
        f = pot - np.sum(inter) / (n * n)
        # the unit diagonal adds a spurious 1 to each row sum of 1/d
        grad = u.d(x) / n - 2.0 * (np.sum(1.0 / d, axis=1) - 1.0) / (n * n)
        return f, grad

    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options=dict(maxiter=30000, maxfun=60000, ftol=0.0,
                                gtol=1e-11, maxcor=25))
    assert res.status == 0
    return float(np.max(res.x))


def _extrapolated_edge(u, lo, hi):
    """Three-point fit b(n) = b - g n^(-2/3) - d/n of the Fekete edge."""
    ns = np.array([100, 200, 400])
    tops = np.array([_fekete_endpoint(u, n, lo, hi) for n in ns])
    design = np.column_stack([np.ones(3), -ns ** (-2.0 / 3.0), -1.0 / ns])
    coef = np.linalg.solve(design, tops)
    return float(coef[0])


def test_particle_oracle_validates_then_checks_quartic():
    # oracle calibration on the quadratic, where the edge is known exactly
    b_quad = _extrapolated_edge(quadratic(1.0), -1.8, 1.8)
    assert abs(b_quad - 2.0) < 5e-4
    b_quartic = _extrapolated_edge(quartic(0.25), -1.4, 1.4)
    res = solve_equilibrium(quartic(0.25))
    assert abs(b_quartic - res.support_hi) < 1e-3


def _count_residual_calls(monkeypatch):
    import freelab.equilibrium as eq_mod

    calls = {"el": 0, "sd": 0}
    el, sd = eq_mod.euler_lagrange_residual, eq_mod.schwinger_dyson_residual

    def counted_el(*args, **kwargs):
        calls["el"] += 1
        return el(*args, **kwargs)

    def counted_sd(*args, **kwargs):
        calls["sd"] += 1
        return sd(*args, **kwargs)

    monkeypatch.setattr(eq_mod, "euler_lagrange_residual", counted_el)
    monkeypatch.setattr(eq_mod, "schwinger_dyson_residual", counted_sd)
    return calls


def test_solves_that_never_read_residuals_never_compute_them(monkeypatch):
    from freelab.inequalities import verify

    calls = _count_residual_calls(monkeypatch)
    solve_equilibrium(quartic(0.25))
    free_pressure(quadratic(2.0))
    moment_map(make_semicircular(variance=1.5))
    verify("INVERSE_FREE_LSI", {"f": quartic(0.25)})
    assert calls == {"el": 0, "sd": 0}


def test_residuals_are_computed_on_first_read_and_cached(monkeypatch):
    from freelab.logpotential import euler_lagrange_residual, schwinger_dyson_residual

    u = quartic(0.25)
    calls = _count_residual_calls(monkeypatch)
    res = solve_equilibrium(u)
    assert res.el_residual == euler_lagrange_residual(res.measure, u)
    assert res.sd_residual == schwinger_dyson_residual(res.measure, u)
    assert calls == {"el": 1, "sd": 1}
    assert res.el_residual == euler_lagrange_residual(res.measure, u)
    assert res.sd_residual == schwinger_dyson_residual(res.measure, u)
    assert calls == {"el": 1, "sd": 1}


def test_el_residual_is_the_public_residual_on_the_carried_series():
    # one residual path: the cached property is the public function, which
    # reads the solve's tau, and a generic solve's residual is tiny
    from freelab.logpotential import euler_lagrange_residual

    for u in (quadratic(1.0), abs_potential(), linear_halfline(1.0)):
        res = solve_equilibrium(u)
        assert res.measure.series is res.series
        assert res.el_residual == euler_lagrange_residual(res.measure, u), u.label
    assert solve_equilibrium(linear_halfline(1.0)).el_residual <= 1e-12


@pytest.mark.xfail(raises=SolverError, strict=True)
def test_tilted_abs_solves():
    # |x| + x/2 is convex and confining, but u' is piecewise constant: the
    # finite-difference m-column of the endpoint Jacobian is exactly zero,
    # so m never leaves the kink and Newton stalls
    res = solve_equilibrium(tilt_linear(abs_potential(), 0.5))
    assert res.method == "soft"


def _tau_series(monkeypatch):
    """(name, m, r, tau) of five solves, one per edge configuration, read
    at the call of _cdf_table that the first read of ``measure`` makes.
    The soft case is the quartic without its coefficients, so it keeps the
    generic solve's 4095 modes."""
    import freelab.equilibrium as eq_mod

    seen = []
    table = eq_mod._cdf_table

    def recorded(m, r, tau):
        seen.append((m, r, tau.copy()))
        return table(m, r, tau)

    monkeypatch.setattr(eq_mod, "_cdf_table", recorded)
    out = []
    for name, u, method in (("soft", replace(quartic(0.25), deriv_coeffs=None), "soft"),
                            ("kink", abs_potential(), "soft"),
                            ("wall-left", linear_halfline(1.5), "wall-left"),
                            ("wall-both", arcsine_indicator(2.5), "wall-both"),
                            ("legendre", legendre_transform(quadratic(2.0)), "soft")):
        res = solve_equilibrium(u)
        assert res.method == method and not seen, name
        res.measure
        out.append((name, *seen.pop()))
    monkeypatch.setattr(eq_mod, "_cdf_table", table)
    return out


def _edge_angles():
    """Angles clustered within 8 pi / 32768 of both ends of [0, pi]."""
    edge = 8.0 * np.pi / 32768 * (0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 257))))
    return np.concatenate([edge[1:-1], np.pi - edge[1:-1]])


def _direct_sine_sum(coeff, t):
    return np.sin(np.outer(t, np.arange(1, coeff.size + 1, dtype=float))) @ coeff


def test_blocked_sine_sum_matches_the_sine_table(monkeypatch):
    from freelab._angle_series import sine_sum

    t = _edge_angles()
    for name, _, _, tau in _tau_series(monkeypatch):
        coeff = tau[1:] / np.arange(1, tau.size)
        err = np.max(np.abs(sine_sum(coeff, t) - _direct_sine_sum(coeff, t)))
        assert err <= 1e-16 * (1.0 + np.sum(np.abs(coeff))), name
    # partial last block, and fewer modes than one block
    rng = np.random.default_rng(3)
    for size in (1, 5, 63, 64, 65, 1000):
        coeff = rng.standard_normal(size) / np.arange(1, size + 1) ** 2
        err = np.max(np.abs(sine_sum(coeff, t) - _direct_sine_sum(coeff, t)))
        assert err <= 1e-15 * (1.0 + np.sum(np.abs(coeff))), size


def test_cdf_table_matches_direct_sine_sums(monkeypatch):
    # 1 - G from the sine table at every angle pi j / 32768 within 256 rows
    # of either end and at every 61st between; the kink's series dips near
    # its edges, so G is the running maximum over those angles, as in the table
    import freelab.equilibrium as eq_mod

    mm = eq_mod._CDF_GRID
    j = np.r_[np.arange(1, 257), np.arange(257, mm - 256, 61), np.arange(mm - 256, mm)]
    t = np.linspace(0.0, np.pi, mm + 1)[j]
    for name, m, r, tau in _tau_series(monkeypatch):
        coeff = tau[1:] / np.arange(1, tau.size)
        g = t / np.pi + (2.0 / np.pi) * _direct_sine_sum(coeff, t)
        ref = 1.0 - np.maximum.accumulate(np.clip(g, 0.0, 1.0))
        ps, xs = eq_mod._cdf_table(m, r, tau)
        x = m + r * np.cos(t)
        i = np.minimum(np.searchsorted(xs, x), xs.size - 1)
        kept = xs[i] == x  # a kink's table drops the rows where G does not rise
        assert kept.sum() > j.size // 2 and ps[0] == 0.0 and ps[-1] == 1.0, name
        assert np.max(np.abs(ps[i[kept]] - ref[kept])) <= 1e-15, name


def _uniform_angle_table(m, r, tau):
    """_cdf_table with its angles and cosines built inline."""
    from scipy.fft import dst

    mm = 32768
    coeff = np.zeros(mm - 1)
    kk = min(tau.size - 1, mm - 1)
    coeff[:kk] = tau[1:kk + 1] / np.arange(1, kk + 1, dtype=float)
    g = np.arange(1, mm) / mm + (2.0 / np.pi) * (dst(coeff, type=1) / 2.0)
    g = np.maximum.accumulate(np.clip(np.concatenate([[0.0], g, [1.0]]), 0.0, 1.0))
    ps = 1.0 - g[::-1]
    xs = m + r * np.cos(np.linspace(0.0, np.pi, mm + 1))[::-1]
    i0 = int(np.searchsorted(ps, 0.0, side="right")) - 1
    i1 = int(np.searchsorted(ps, 1.0, side="left"))
    ps, xs = ps[i0:i1 + 1], xs[i0:i1 + 1]
    keep = np.concatenate([[True], np.diff(ps) > 0.0])
    return ps[keep], xs[keep]


def test_cdf_table_on_the_shared_angle_cosines_is_the_inline_table(monkeypatch):
    import freelab.equilibrium as eq_mod

    for name, m, r, tau in _tau_series(monkeypatch):
        ps, xs = eq_mod._cdf_table(m, r, tau)
        ref_ps, ref_xs = _uniform_angle_table(m, r, tau)
        assert np.array_equal(ps, ref_ps), name
        assert np.array_equal(xs, ref_xs), name


def test_fixed_angle_tables_are_shared_and_read_only():
    from freelab._grids import chebyshev_angles
    from freelab.equilibrium import _CDF_GRID, _cdf_cos, _chebyshev_trig

    for k in (64, 4096):
        cos, sin = _chebyshev_trig(k)
        assert np.array_equal(cos, np.cos(chebyshev_angles(k)))
        assert np.array_equal(sin, np.sin(chebyshev_angles(k)))
        assert _chebyshev_trig(k)[0] is cos
    cos = _cdf_cos()
    assert np.array_equal(cos, np.cos(np.linspace(0.0, np.pi, _CDF_GRID + 1)))
    assert _cdf_cos() is cos
    for table in (*_chebyshev_trig(4096), cos):
        with pytest.raises(ValueError):
            table[0] = 0


def test_theta_density_sums_series_of_any_length():
    # a series as long as the angle count or longer (a report of a solve
    # at more nodes) is summed whole, not aliased
    from freelab._angle_series import theta_density
    from freelab._grids import chebyshev_angles

    rng = np.random.default_rng(5)
    for size, n in ((10, 64), (63, 64), (64, 64), (200, 64), (700, 128)):
        tau = rng.standard_normal(size) / np.arange(1, size + 1) ** 2
        theta = chebyshev_angles(n)
        direct = (1.0 + 2.0 * np.cos(np.outer(theta, np.arange(1, size + 1))) @ tau) / np.pi
        assert np.max(np.abs(theta_density(tau, n) - direct)) <= 1e-14, (size, n)


@pytest.mark.parametrize("u", [replace(quartic(0.25), deriv_coeffs=None), quadratic(1.0),
                               linear_halfline(1.0), arcsine_indicator(2.5),
                               legendre_transform(quadratic(2.0))], ids=lambda u: u.label)
def test_edge_solves_keep_every_table_row_on_the_series_support(u):
    # without a kink or cusp, no row of the uniform-angle table rounds to
    # p = 0 or 1 early, so the table spans exactly the solved support
    res = solve_equilibrium(u)
    mu = res.measure
    assert mu.quantile_ps.size == 32769
    assert mu.support_lo == res.support_lo and mu.support_hi == res.support_hi


def test_flat_well_cdf_is_the_arcsine_law_at_its_edges():
    # a hard edge's square root is linear in the angle that cdf reads in
    mu = solve_equilibrium(arcsine_indicator(1.0)).measure
    near = np.array([0.0, 1e-16, 1e-15, 3e-15, 1e-14])
    x = np.r_[-1.0 + near, np.linspace(-1.0, 1.0, 2001), 1.0 - near]
    assert np.max(np.abs(mu.cdf(x) - np.arccos(-x) / np.pi)) <= 1e-12


def _count_cdf_tables(monkeypatch):
    import freelab.equilibrium as eq_mod

    calls = []
    table = eq_mod._cdf_table

    def counted(m, r, tau):
        calls.append((m, r, tau))
        return table(m, r, tau)

    monkeypatch.setattr(eq_mod, "_cdf_table", counted)
    return calls


def test_scalar_reads_of_a_solve_build_no_table(monkeypatch, tmp_path):
    from freelab.cli import main
    from freelab.inequalities import verify

    calls = _count_cdf_tables(monkeypatch)
    for u in (quadratic(1.0), quartic(0.25), polynomial_even(0.5, 0.125)):
        verify("INVERSE_FREE_LSI", {"f": u})
    verify("INVERSE_SANTALO", {"f": quadratic(2.0)})
    verify("FREE_BRUNN_MINKOWSKI", {"f": quadratic(1.0), "g": quadratic(2.0),
                                    "u3": quadratic(4.0 / 3.0), "theta": 0.5})
    assert main(["pressure", "--potential", "quartic:g=0.25",
                 "--out", str(tmp_path / "p.json")]) == 0
    assert calls == []


def test_a_solve_builds_its_table_once_on_first_read(monkeypatch):
    calls = _count_cdf_tables(monkeypatch)
    res = solve_equilibrium(quartic(0.25))
    assert calls == []
    mu = res.measure
    assert res.measure is mu and len(calls) == 1
    m, r, tau = calls[0]
    assert (m, r) == res.series[:2] and np.array_equal(tau[1:], res.series[2])
    assert mu.series is res.series and mu.label == "equilibrium(quartic(g=0.25))"
    # the table the solver built before it kept its series
    ps, xs = _uniform_angle_table(m, r, tau)
    assert np.array_equal(mu.quantile_ps, ps) and np.array_equal(mu.quantile_xs, xs)


# Case ids are fixed so that a case keeps its name when others are dropped.
_INVALID_SETTINGS = {
    0: {"nodes": 0}, 1: {"nodes": 1}, 2: {"nodes": 2}, 3: {"nodes": 255},
    4: {"tol": 0.0}, 5: {"tol": -1e-11}, 6: {"tol": np.inf}, 7: {"tol": np.nan},
    8: {"tol": -np.inf}, 9: {"nodes": -256},
    12: {"max_iter": 0}, 13: {"max_iter": -3},
}


@pytest.mark.parametrize("setting", [
    pytest.param(s, id=f"setting{i}") for i, s in _INVALID_SETTINGS.items()
])
def test_solver_settings_reject_invalid_values(setting):
    with pytest.raises(InvalidInputError):
        SolverSettings(**setting)


def test_solver_settings_accept_the_smallest_valid_values():
    cfg = SolverSettings(nodes=256, tol=1e-300, max_iter=1)
    assert cfg.nodes == 256


def _exact_series(u):
    res = solve_equilibrium(u)
    assert res.method == "soft"
    return res, *res.series


@pytest.mark.parametrize("c", [1e-4, 0.25, 1.0, 4.0])
def test_quadratic_solve_carries_the_semicircle_series(c):
    res, m, r, tau = _exact_series(quadratic(c))
    assert abs(m) <= 1e-14 and abs(r - 2.0 / np.sqrt(c)) <= 1e-14 * r
    assert tau.size <= 2 and np.max(np.abs(tau - [0.0, -0.5])) <= 1e-14
    assert res.iterations == 1


@pytest.mark.parametrize("g", [0.1, 0.25, 1.0, 4.0])
def test_quartic_solve_carries_its_closed_form_series(g):
    # tau = (0, -1/3, 0, -1/6) at r = (4 / (3 g))^(1/4) for every g (BIPZ 1978)
    res, m, r, tau = _exact_series(quartic(g))
    assert abs(m) <= 1e-14 and abs(r - (4.0 / (3.0 * g)) ** 0.25) <= 1e-14
    assert tau.size <= 4
    assert np.max(np.abs(tau - [0.0, -1.0 / 3.0, 0.0, -1.0 / 6.0])) <= 1e-14
    assert abs(res.energy - (np.log(r / 2.0) - 0.125)) <= 1e-14
    assert res.iterations == 1


@pytest.mark.parametrize("c2, c4", [(0.5, 0.125), (0.6, 0.15), (2.0, 0.01)])
def test_poly_solve_carries_its_closed_form_series(c2, c4):
    res, m, r, tau = _exact_series(polynomial_even(c2, c4))
    r2 = (-c2 + np.sqrt(c2 * c2 + 12.0 * c4)) / (3.0 * c4)
    assert abs(m) <= 1e-14 and abs(r * r - r2) <= 1e-14 * r2
    expected = [0.0, -(c2 * r2 + c4 * r2 * r2) / 4.0, 0.0, -c4 * r2 * r2 / 8.0]
    assert tau.size <= 4 and np.max(np.abs(tau - expected)) <= 1e-14
    assert res.iterations == 1


def test_tilted_quadratic_far_from_the_origin_is_exact():
    # u' = x/100 - 1: the semicircle of radius 20 around 100, beyond the
    # [-32, 32] scan of the generic seed
    res = solve_equilibrium(tilt_linear(quadratic(0.01), -1.0))
    assert abs(res.support_lo - 80.0) <= 1e-12 and abs(res.support_hi - 120.0) <= 1e-12


def _polynomial_variants():
    for base in (quadratic(1.0), quartic(0.25), polynomial_even(0.5, 0.125)):
        yield base
        for lam in (-0.7, 0.3, 1.5):
            yield tilt_linear(base, lam)
        yield shift_potential(base, 0.5)


@pytest.mark.parametrize("u", list(_polynomial_variants()), ids=lambda u: u.label)
def test_polynomial_route_matches_the_generic_route(u):
    from dataclasses import replace

    exact = solve_equilibrium(u)
    generic = solve_equilibrium(replace(u, deriv_coeffs=None))
    assert exact.series[2].size <= len(u.deriv_coeffs) < generic.series[2].size
    for name in ("support_lo", "support_hi", "energy", "pressure", "potential_moment"):
        assert abs(getattr(exact, name) - getattr(generic, name)) <= 1e-11, name


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_conjugate_of_quadratic_solves_on_the_exact_support(c):
    # (c x^2 / 2)* = y^2 / (2c): the semicircle of variance c
    res = solve_equilibrium(legendre_transform(quadratic(c)))
    edge = 2.0 * np.sqrt(c)
    assert abs(res.support_lo + edge) <= 1e-13 and abs(res.support_hi - edge) <= 1e-13


def _power_pressure(a, p):
    """pressure(a |x|^p) of the Freud equilibrium (Saff & Totik 1997,
    section IV.5): 1/2 log 2 pi + 3/4 - log 2 - 3/(2p) + (1/p) log(2 gamma_p / a),
    gamma_p = Gamma(p/2) Gamma(1/2) / (2 Gamma((p + 1)/2))."""
    from math import lgamma

    gamma_p = 0.5 * np.exp(lgamma(p / 2.0) + lgamma(0.5) - lgamma((p + 1.0) / 2.0))
    return HALF_LOG_2PI + 0.75 - np.log(2.0) - 1.5 / p + np.log(2.0 * gamma_p / a) / p


def test_conjugate_of_quartic_is_symmetric_and_hits_the_power_pressure():
    # (x^4)* = a |y|^(4/3), a = 3/4 4^(-1/3); the cusp at 0 keeps the
    # 4096-node solve 8.5e-9 low in pressure
    assert abs(_power_pressure(0.5, 2.0) - HALF_LOG_2PI) <= 1e-15
    res = solve_equilibrium(legendre_transform(quartic(1.0)))
    assert abs(res.support_lo + res.support_hi) <= 1e-13
    assert abs(res.pressure - _power_pressure(0.75 * 4.0 ** (-1.0 / 3.0), 4.0 / 3.0)) <= 1e-8


@pytest.mark.parametrize("u", [quadratic(0.25), quadratic(4.0), quartic(0.25), quartic(1.0),
                               polynomial_even(0.5, 0.125), abs_potential(),
                               shift_potential(quartic(1.0), 0.5),
                               legendre_transform(quartic(1.0)),
                               legendre_transform(polynomial_even(0.5, 0.125))],
                         ids=lambda u: u.label)
def test_newton_residuals_are_the_dct_residuals(u):
    # the endpoint Newton reads only y_0 and y_1 of the DCT-II of u' at the
    # Chebyshev angles: the mean of u' and c_1 - 4 / r
    from scipy.fft import dct

    import freelab.equilibrium as eq_mod

    res = solve_equilibrium(u)
    m, r = res.series[:2]
    a = u.deriv_coeffs
    k = SolverSettings().nodes if a is None else max(8, 1 << (len(a) + 1).bit_length())
    cos = eq_mod._chebyshev_trig(k)[0]
    for mv, rv in ((m, r), (m + 0.1, 1.1 * r), (m - 0.05, 0.9 * r)):
        f = u.d(mv + rv * cos)
        y = dct(f, type=2)
        want = np.array([y[0] / (2.0 * k), y[1] / k - 4.0 / rv])
        assert np.max(np.abs(eq_mod._soft_residuals(f, cos, rv) - want)) <= 1e-14, (mv, rv)


@pytest.mark.parametrize("u, most", [
    (abs_potential(), 6),
    (shift_potential(abs_potential(), 0.5), 6),
    (legendre_transform(quartic(1.0)), 6),
    (legendre_transform(arcsine_indicator(1.0)), 6),
    (legendre_transform(quadratic(1.0)), 1),
    (legendre_transform(polynomial_even(0.5, 0.125)), 6),
], ids=lambda v: getattr(v, "label", str(v)))
def test_radius_seed_keeps_endpoint_newton_short(u, most):
    # seeded at r0 = 2 / sqrt(u''(x0)), these took 11, 11, 9, 11, 1 and 6
    # iterations: a kink or a cusp at x0 puts r0 far from r
    res = solve_equilibrium(u)
    assert res.method == "soft"
    assert res.iterations <= most


def test_radius_seed_is_the_root_of_the_coarse_endpoint_condition():
    # on the 64 Chebyshev angles c_1 is exact for a linear u', and for |x| at
    # x0 = 0 it is (2/64) sum |cos theta_j| at every r; the seed hits both
    # roots to rounding from an r0 far off on either side
    import freelab.equilibrium as eq_mod

    cos = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
    for u, want in ((replace(quadratic(4.0), deriv_coeffs=None), 1.0),
                    (abs_potential(), 4.0 / ((2.0 / 64) * np.sum(np.abs(cos))))):
        for r0 in (1e-3, 30.0):
            assert abs(eq_mod._radius_seed(u, 0.0, r0) - want) <= 4e-16 * want, (u.label, r0)
    # no root inside the walls: the flat well keeps its r0
    assert eq_mod._radius_seed(arcsine_indicator(1.0), 0.0, 0.25) == 0.25


@pytest.mark.parametrize("u", list(_polynomial_variants()), ids=lambda u: u.label)
def test_polynomial_seed_matches_the_companion_roots(u):
    # the reference takes both roots from companion-matrix eigenvalues; the
    # shifted quartic's u' = g (x - 1/2)^3 has a triple root, which they
    # miss by 5e-6, so its m is the shift
    import math

    import freelab.equilibrium as eq_mod

    a = np.trim_zeros(np.asarray(u.deriv_coeffs, dtype=float), "b")
    roots = np.roots(a[::-1])
    m = float(roots[np.argmin(np.abs(roots.imag))].real)
    if u.label.startswith("shifted"):
        m = 0.5
    b = [sum(a[j] * math.comb(j, i) * m ** (j - i) for j in range(i, a.size)) for i in range(a.size)]
    q = [-4.0] + [b[i] * 2.0 ** (1 - i) * math.comb(i, i // 2) for i in range(1, a.size, 2)]
    s = np.roots(q[::-1])
    s = s[s.real > 0.0]
    r = float(np.sqrt(s[np.argmin(np.abs(s.imag))].real))
    got = eq_mod._poly_seed(a)
    assert abs(got[0] - m) <= 1e-14 * (1.0 + abs(m)) and abs(got[1] - r) <= 1e-14 * r

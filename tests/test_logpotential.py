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
    _kernel_sum,
    integrate_potential,
    log_energy,
    log_jacobian,
    relative_entropy_semicircular,
    schwinger_dyson_residual,
)
from freelab.measures import (
    from_quantile_table,
    make_arcsine,
    make_marchenko_pastur_family,
    make_semicircular,
    pushforward_monotone,
    translate,
)
from freelab.potentials import (
    Potential,
    abs_potential,
    arcsine_indicator,
    linear_halfline,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
    tilt_linear,
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


def _hilbert_one_point(mu, t, cells=4096, spline=None):
    """H mu(t) by a singularity subtraction in quantile coordinates on a
    cubic spline of the quantile table, and by Gauss-Legendre outside the
    support: accurate to about 1e-7 on any table."""
    if not mu.support_lo < t < mu.support_hi:
        glt, glw = gauss_legendre_01()
        return float(glw @ (1.0 / (t - mu.quantile(glt)))) / np.pi
    spline = spline or CubicSpline(mu.quantile_ps, mu.quantile_xs)
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
        # 19 interior points with points outside the support interleaved
        inner = mu.quantile(np.linspace(0.03, 0.97, 19))
        ts = np.insert(inner, [0, 7, 19], [mu.support_lo - 0.5, mu.support_hi + 1.0,
                                           mu.support_hi + 3.0])
        got = hilbert_transform(mu, ts)
        want = np.array([hilbert_transform(mu, t) for t in ts])
        assert np.array_equal(got, want), mu.label
        grid = hilbert_transform(mu, ts[:20].reshape(4, 5))
        assert grid.shape == (4, 5) and np.array_equal(grid.ravel(), want[:20])
        scalar = hilbert_transform(mu, float(inner[4]))
        assert isinstance(scalar, float) and scalar == want[5]
        # the spline rule, an independent quadrature, agrees to its accuracy
        spline = CubicSpline(mu.quantile_ps, mu.quantile_xs)
        ref = np.array([_hilbert_one_point(mu, t, spline=spline) for t in ts])
        assert np.max(np.abs(got - ref)) <= 1e-7, mu.label


def test_hilbert_transform_checks_endpoints_before_any_work(monkeypatch):
    import freelab.logpotential as lp

    def no_series(*args, **kwargs):
        raise AssertionError("work started before the endpoint check")

    monkeypatch.setattr(lp, "series_of", no_series)
    sig = make_semicircular()
    with pytest.raises(SingularEvaluationError, match="t=-2"):
        hilbert_transform(sig, np.array([0.1, 0.5, -2.0, 2.0]))


def test_hilbert_transform_near_the_edges_matches_closed_forms():
    # H sigma(t) = 2 / (pi (t + sign(t) sqrt(t^2 - 4))) outside [-2, 2] and
    # t / (2 pi) inside; H arcsine(1)(t) = sign(t) / (pi sqrt(t^2 - 1))
    # outside [-1, 1] and 0 inside; both written without cancellation
    def outside(t, edge):
        a = np.abs(t)
        return np.sign(t) * np.sqrt((a - edge) * (a + edge))

    for eps in (1e-7, 1e-5, 1e-3, 0.1, 1.0):
        for sign in (1.0, -1.0):
            t_out, t_in = sign * (2.0 + eps), sign * (2.0 - eps)
            got = hilbert_transform(make_semicircular(), np.array([t_out, t_in]))
            want = np.array([2.0 / (np.pi * (t_out + outside(t_out, 2.0))), t_in / (2.0 * np.pi)])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (eps, sign)
            t_out, t_in = sign * (1.0 + eps), sign * (1.0 - eps)
            got = hilbert_transform(make_arcsine(1.0), np.array([t_out, t_in]))
            want = 1.0 / (np.pi * outside(t_out, 1.0))
            assert abs(got[0] - want) <= 1e-12 * abs(want) and abs(got[1]) <= 1e-12, (eps, sign)


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


# Independent log-Jacobians: the defining double integral by nested mpmath
# quadrature (20 digits) on the exact densities, e.g. (4 g x^2 + 2 g a^2)
# sqrt(a^2 - x^2) / (2 pi) with a^4 = 4 / (3 g) for quartic(g), whose
# jac - log(g) / 2 is the same at every g by scaling
QUARTIC_JACOBIAN = 0.763327763645382002
POLY_JACOBIAN = 0.44592892400961890775  # poly(c2=0.5, c4=0.125)
SEMICIRCLE_POLY_JACOBIAN = 0.310193975409071431  # poly(c2=0.5, c4=0.05) on sigma


def test_log_jacobian_of_polynomial_slopes_matches_the_oracles():
    from freelab.equilibrium import solve_equilibrium

    cases = [(quartic(g), QUARTIC_JACOBIAN + 0.5 * np.log(g)) for g in (0.1, 0.25, 1.0, 4.0)]
    for u, exact in cases + [(polynomial_even(0.5, 0.125), POLY_JACOBIAN)]:
        jac = log_jacobian(solve_equilibrium(u).measure, u)
        err = abs(jac.value - exact)
        assert err <= 1e-12, u.label
        assert jac.error_est >= err, u.label


def test_log_jacobian_of_quadratic_is_exactly_log_c():
    from freelab.equilibrium import solve_equilibrium

    for c in (0.25, 3.0):
        u = quadratic(c)
        for mu in (make_semicircular(), solve_equilibrium(u).measure):
            assert log_jacobian(mu, u).value == np.log(c), (c, mu.label)


def _two_pass_root_jacobian(series, coeffs):
    """The root route with its coarse and fine angle pieces summed in two
    separate passes: (value, error_est)."""
    import freelab.logpotential as lp_mod

    a = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    n = a.size - 2
    m, r, c = series
    lead = float(np.log(abs(a[-1])))
    tail = np.cumsum(np.r_[0.0, (2.0 * np.abs(c) / np.arange(1, c.size + 1))[::-1]])[::-1]
    kk = int(np.argmax(tail < lp_mod._SERIES_TAIL))
    ks = np.arange(1, kk + 1)
    c, wc = c[:kk], 2.0 * c[:kk] / ks
    flat = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(a))
    flat = flat.real[(np.abs(flat.imag) <= 1e-6 * (1.0 + np.abs(flat))) & (np.abs(flat.real - m) < r)]
    edges = np.unique(np.r_[0.0, np.arccos((flat - m) / r), np.pi])
    t, w = gauss_legendre_01(lp_mod._ROOT_NODES)

    def integral(bounds):
        h = np.diff(bounds)[:, None]
        theta, wt = (bounds[:-1, None] + h * t).ravel(), (h * w).ravel()
        y = m + r * np.cos(theta)
        b = [np.full(y.size, a[-1])]
        for aj in a[-2:0:-1]:
            b.append(aj + y * b[-1])
        comp = np.zeros((y.size, n, n))
        comp[:, 0, :] = -np.stack(b[1:], axis=1) / a[-1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        z = (np.linalg.eigvals(comp).astype(complex) - m) / r
        phi = z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
        pot = np.log(r * np.abs(phi) / 2.0) - (phi[..., None] ** -ks).real @ wc
        dens = (1.0 + 2.0 * (np.cos(np.outer(theta, ks)) @ c)) / np.pi
        return lead + float(wt @ (dens * pot.sum(axis=1)))

    coarse = integral(edges)
    fine = integral(np.unique(np.r_[edges, 0.5 * (edges[1:] + edges[:-1])]))
    return fine, abs(fine - coarse) + n * float(tail[kk]) + 1e-15


@pytest.mark.parametrize("u", [quartic(0.5), polynomial_even(0.5, 0.125),
                               shift_potential(quartic(1.0), 0.5), tilt_linear(quartic(1.0), 0.3),
                               tilt_linear(polynomial_even(0.6, 0.15), -0.7)],
                         ids=lambda u: u.label)
def test_root_jacobian_in_one_batch_matches_two_passes(u, monkeypatch):
    import freelab.logpotential as lp_mod
    from freelab._angle_series import series_of
    from freelab.equilibrium import solve_equilibrium

    series = series_of(solve_equilibrium(u))
    want = _two_pass_root_jacobian(series, u.deriv_coeffs)
    batches = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda mat: batches.append(np.ndim(mat)) or eigvals(mat))
    got = lp_mod._root_jacobian(series, u.deriv_coeffs)
    assert (got.value, got.error_est) == want
    # one companion-matrix batch; the 2-D call is the roots of u''
    assert batches.count(3) == 1 and batches.count(2) <= 1


def test_log_jacobian_declines_the_root_route_on_noisy_moments():
    # half the mass uniform on [-1, 0] and half on [0, 2]: the density jumps
    # at 0, so the moments fall off only like 1/k, the root route would sum
    # thousands of them, and the pushforward route answers.  The oracle is
    # the defining double integral of log(1 + (x^2 + x y + y^2) / 5) for
    # u' = x + x^3 / 5, by Gauss-Legendre on the four smooth pieces
    import freelab.logpotential as lp_mod
    from freelab._angle_series import series_of
    from freelab.measures import from_quantile_table

    ps = np.linspace(0.0, 1.0, 8193)
    table = from_quantile_table(ps, np.where(ps <= 0.5, 2.0 * ps - 1.0, 4.0 * ps - 2.0))
    u = polynomial_even(0.5, 0.05)
    z, w = np.polynomial.legendre.leggauss(60)
    x, wx = np.r_[0.5 * (z - 1.0), z + 1.0], np.r_[0.25 * w, 0.25 * w]
    exact = float(wx @ np.log(1.0 + 0.2 * (x[:, None] ** 2 + np.outer(x, x) + x[None, :] ** 2)) @ wx)
    assert lp_mod._root_jacobian(series_of(table), u.deriv_coeffs) is None
    assert abs(log_jacobian(table, u).value - exact) <= 1e-7
    # sigma's own series is two terms long, and the root route takes it
    sig = make_semicircular()
    assert abs(log_jacobian(sig, u).value - SEMICIRCLE_POLY_JACOBIAN) <= 1e-12


def test_log_jacobian_takes_the_root_route_on_a_closed_form_table():
    # the angle reader recovers sigma's two-term series from its table
    from freelab.measures import from_quantile_table

    sig = make_semicircular()
    table = from_quantile_table(sig.quantile_ps, sig.quantile_xs)
    assert abs(log_jacobian(table, polynomial_even(0.5, 0.05)).value
               - SEMICIRCLE_POLY_JACOBIAN) <= 1e-12


def _series_less_closed_forms():
    """(table, H inside, H outside, log energy) of sigma, MP(0.7), MP(1) and
    arcsine(1.3, 0.2), their tables without the series they carry.  H is
    t / (2 pi), 1 / (2 pi s) and 0 inside; G(z) = 2 / (z + sqrt(z^2 - 4)),
    (1 - sqrt((z - 4s) / z)) / (2s) and 1 / sqrt((z - c)^2 - R^2) outside."""
    from freelab.measures import from_quantile_table

    def root(d, edge):
        return np.sign(d) * np.sqrt((np.abs(d) - edge) * (np.abs(d) + edge))

    cases = [(make_semicircular(), lambda t: t / (2.0 * np.pi),
              lambda t: 2.0 / (np.pi * (t + root(t, 2.0))), -0.25)]
    for s in (0.7, 1.0):
        cases.append((make_marchenko_pastur_family(s), lambda t, s=s: np.full_like(t, 1.0 / (2.0 * np.pi * s)),
                      lambda t, s=s: (1.0 - np.sqrt((t - 4.0 * s) / t)) / (2.0 * np.pi * s),
                      np.log(s) - 0.5))
    cases.append((make_arcsine(1.3, 0.2), np.zeros_like,
                  lambda t: 1.0 / (np.pi * root(t - 0.2, 1.3)), np.log(1.3 / 2.0)))
    return [(from_quantile_table(mu.quantile_ps, mu.quantile_xs), inside, outside, energy)
            for mu, inside, outside, energy in cases]


def test_hilbert_transform_of_series_less_tables_meets_closed_forms():
    for table, inside, outside, _ in _series_less_closed_forms():
        ts = _probes(table)
        assert np.max(np.abs(hilbert_transform(table, ts) - inside(ts))) <= 1e-9, table.label
        out = np.array([table.support_hi + 0.1, table.support_hi + 2.0, table.support_lo - 0.5])
        assert np.max(np.abs(hilbert_transform(table, out) - outside(out))) <= 1e-9, table.label


def test_log_energy_of_series_less_tables_meets_closed_forms():
    for table, _, _, exact in _series_less_closed_forms():
        e = log_energy(table)
        assert abs(e.value - exact) <= 1e-13, table.label
        assert e.error_est >= abs(e.value - exact), table.label


def test_log_energy_of_a_table_with_an_atom_skips_the_series(monkeypatch):
    import freelab.logpotential as lp_mod
    from freelab.equilibrium import solve_equilibrium

    def refuse(ps, xs):
        raise AssertionError("series read on a table with an atom")

    u = abs_potential()
    atoms = pushforward_monotone(solve_equilibrium(u).measure, u.d)  # about 1/2 at -1 and at 1
    monkeypatch.setattr(lp_mod, "chebyshev_moments", refuse)
    e = log_energy(atoms)
    assert np.isnan(e.value) and np.isnan(e.error_est)


def test_inverse_free_lsi_reaches_the_quadrature_only_without_slope_coefficients(monkeypatch):
    import freelab.logpotential as lp_mod
    from freelab.inequalities import verify

    calls = []
    energy_at = lp_mod._energy_at

    def counted(mu, cells):
        calls.append(cells)
        return energy_at(mu, cells)

    monkeypatch.setattr(lp_mod, "_energy_at", counted)
    for u in (quadratic(2.0), quartic(0.25), polynomial_even(0.5, 0.125)):
        assert np.isfinite(verify("INVERSE_FREE_LSI", {"f": u}).rhs), u.label
    assert calls == []
    # abs has no slope coefficients, but u' = sign(x) is flat on the support:
    # jac is nan before any quadrature, and the bound holds trivially
    report = verify("INVERSE_FREE_LSI", {"f": abs_potential()})
    assert calls == []
    assert report.rhs == -np.inf


def test_log_jacobian_of_a_flat_slope_builds_no_table_or_pushforward(monkeypatch):
    import freelab.logpotential as lp_mod
    from freelab.equilibrium import solve_equilibrium

    def refuse(*args, **kwargs):
        raise AssertionError("pushforward built for a flat u'")

    monkeypatch.setattr(lp_mod, "pushforward_monotone", refuse)
    u = abs_potential()
    res = solve_equilibrium(u)
    jac = log_jacobian(res, u)
    assert np.isnan(jac.value) and np.isnan(jac.error_est)
    assert "measure" not in res.__dict__
    # a series-less table reads u' at its rows, and finds the same flat run
    table = from_quantile_table(res.measure.quantile_ps, res.measure.quantile_xs)
    assert table.series is None
    jac = log_jacobian(table, u)
    assert np.isnan(jac.value) and np.isnan(jac.error_est)


def test_log_jacobian_of_a_slope_flat_only_across_a_gap_stays_finite():
    # uniform halves on [-2, -1] and [1, 2]: the rows at p = 1/2 jump the gap
    # with no mass between them, and u' is flat only there, so u'#mu is the
    # uniform law on [-1, 1] and the log-Jacobian is finite
    half = np.linspace(0.0, 1.0, 2049)
    ps = np.r_[0.5 * half, 0.5 + 0.5 * half]
    xs = np.r_[-2.0 + half, 1.0 + half]
    mu = from_quantile_table(ps, xs, label="gap")
    u = Potential(lambda x: 0.5 * np.maximum(np.abs(x) - 1.0, 0.0) ** 2,
                  lambda x: np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0),
                  -np.inf, np.inf, True, True, "gap-flat")
    assert u.d(xs[2048]) == u.d(xs[2049]) == 0.0
    jac = log_jacobian(mu, u)
    # E(uniform[-1, 1]) = log 2 - 3/2; the gap law's E is the quadrature's
    assert np.isfinite(jac.value) and np.isfinite(jac.error_est)
    assert abs(jac.value - (np.log(2.0) - 1.5 - log_energy(mu).value)) <= 1e-6


def test_log_jacobian_is_carried_through_tilt_and_shift():
    from freelab.equilibrium import solve_equilibrium

    for u in (quartic(0.6), polynomial_even(0.5, 0.125)):
        mu = solve_equilibrium(u).measure
        jac = log_jacobian(mu, u).value
        assert log_jacobian(mu, tilt_linear(u, 0.3)).value == jac, u.label
        moved = log_jacobian(translate(mu, 0.7), shift_potential(u, 0.7)).value
        assert abs(moved - jac) <= 1e-13, u.label


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


def test_tree_energy_matches_dense_rule_on_the_cusped_pushforward():
    # the quartic u' pushes its equilibrium onto a density with a |y|^(-2/3)
    # cusp at 0: the one v1 measure that takes the quadrature, and the most
    # uneven node spacing for the far-field test; 2000 and 2046 nodes are
    # padded to 2048
    from freelab.equilibrium import solve_equilibrium

    u = quartic(0.25)
    nu = pushforward_monotone(solve_equilibrium(u).measure, u.d)
    for cells in (1000, 1023):
        assert abs(_energy_at(nu, cells) - _dense_energy(nu, cells)) < 1e-13


def test_kernel_sum_of_padded_nodes_is_the_off_band_rule():
    # node counts that are not a leaf times a power of two get zero-weight
    # copies of the last node; the sum is still the dense off-band one
    mu = make_marchenko_pastur_family(1.0)
    for cells in (1, 15, 37, 301):
        ps = cosine_graded(cells)
        h = np.diff(ps)
        q = mu.quantile((ps[:-1, None] + h[:, None] * GL2_T[None, :]).ravel())
        w = (h[:, None] * GL2_W[None, :]).ravel()
        cell = np.arange(q.size) // 2
        logs = np.log(np.maximum(np.abs(q[:, None] - q[None, :]), 1e-300))
        logs[np.abs(cell[:, None] - cell[None, :]) <= 1] = 0.0
        assert abs(_kernel_sum(q, w) - w @ logs @ w) < 1e-13


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


def test_quadrature_stops_after_one_pass_at_atoms(monkeypatch):
    # an atom makes the full pass nan, so the half pass is skipped; a cusp
    # without atoms keeps both, with the value and estimate checked in
    # test_log_energy_keeps_quadrature_where_series_does_not_converge
    import freelab.logpotential as lp_mod
    from freelab.equilibrium import solve_equilibrium

    calls = []
    energy_at = lp_mod._energy_at

    def counted(mu, cells):
        calls.append(cells)
        return energy_at(mu, cells)

    monkeypatch.setattr(lp_mod, "_energy_at", counted)
    u = abs_potential()
    e = log_energy(pushforward_monotone(solve_equilibrium(u).measure, u.d))
    assert calls == [ENERGY_CELLS]
    assert np.isnan(e.value) and np.isnan(e.error_est)

    calls.clear()
    u = quartic(0.25)
    log_energy(pushforward_monotone(solve_equilibrium(u).measure, u.d))
    assert calls == [ENERGY_CELLS, ENERGY_CELLS // 2]


def _probes(mu):
    # the 65 probes of euler_lagrange_residual's defaults
    return mu.quantile(np.linspace(0.02, 0.98, 65))


def test_series_hilbert_transform_meets_closed_forms_on_solver_tables():
    # 2 pi H mu = u' on the support: c t for quadratic(c), 0 for a flat well;
    # without the carried series the transform reads the solver's table
    from dataclasses import replace

    from freelab.equilibrium import solve_equilibrium

    for c in (0.5, 1.0, 3.7):
        mu = replace(solve_equilibrium(quadratic(c)).measure, series=None)
        ts = _probes(mu)
        assert np.max(np.abs(2.0 * np.pi * hilbert_transform(mu, ts) - c * ts)) <= 1e-10, c
    for radius in (0.7, 1.0, 1.2):
        mu = replace(solve_equilibrium(arcsine_indicator(radius)).measure, series=None)
        assert np.max(np.abs(2.0 * np.pi * hilbert_transform(mu, _probes(mu)))) <= 1e-10, radius


def _spline_residual(mu, u):
    """euler_lagrange_residual's probe-and-band rule on the spline reference."""
    ts = _probes(mu)
    h = 1e-9 * (1.0 + np.abs(ts))
    side = np.stack([u.d(ts - h), u.d(ts), u.d(ts + h)])
    spline = CubicSpline(mu.quantile_ps, mu.quantile_xs)
    target = 2.0 * np.pi * np.array([_hilbert_one_point(mu, t, spline=spline) for t in ts])
    return float(np.max(np.maximum(np.maximum(target - side.max(axis=0),
                                              side.min(axis=0) - target), 0.0)))


@pytest.mark.parametrize("u", [quadratic(1.0), quartic(0.25), polynomial_even(0.5, 0.125),
                               linear_halfline(1.0), arcsine_indicator(1.2)],
                         ids=lambda u: u.label)
def test_series_residual_of_a_solve_is_below_the_spline_residual(u):
    from dataclasses import replace

    from freelab.equilibrium import solve_equilibrium

    mu = replace(solve_equilibrium(u).measure, series=None)
    series = euler_lagrange_residual(mu, u)
    assert series <= 1e-9
    assert series <= _spline_residual(mu, u)


def test_series_and_spline_residuals_agree_where_the_measure_is_off():
    # both transforms see the same large defect, so both still fail the
    # CLI's default --tol of 1e-3; the conjugate's cusp residual is 5.9e-4
    # at the default 4096 nodes, 1.9e-3 at 1024
    from dataclasses import replace

    from freelab.equilibrium import SolverSettings, solve_equilibrium
    from freelab.potentials import legendre_transform

    for u, cfg in ((abs_potential(), None),
                   (legendre_transform(quartic(1.0)), SolverSettings(nodes=1024))):
        mu = replace(solve_equilibrium(u, cfg).measure, series=None)
        series = euler_lagrange_residual(mu, u)
        spline = _spline_residual(mu, u)
        assert series > 1e-3 and spline > 1e-3, u.label
        assert abs(series - spline) <= 0.02 * spline, u.label


def _edge_angle(x, lo, hi):
    """theta of x = m + r cos(theta), by the half-angle formula from the
    nearer edge."""
    if x >= 0.5 * (lo + hi):
        return 2.0 * np.arcsin(np.sqrt(min(max((hi - x) / (hi - lo), 0.0), 1.0)))
    return np.pi - 2.0 * np.arcsin(np.sqrt(min(max((x - lo) / (hi - lo), 0.0), 1.0)))


def _lagrange_read(ps, xs, ks):
    """G = 1 - p at the read angles pi k / 2^14, k in ks, one at a time: the
    Lagrange cubic in the angle through the rows i - 1 .. i + 2 about the
    point's bracket [t_i, t_i+1], the rows continued by G(-t) = -G(t) and
    G(2 pi - t) = 2 - G(t), clipped into the bracket; linear in the bracket
    where two of the four rows share an angle."""
    lo, hi = xs[0], xs[-1]
    t = np.array([_edge_angle(x, lo, hi) for x in xs[::-1]])
    g = 1.0 - ps[::-1]
    t = np.r_[-t[1], t, 2.0 * np.pi - t[-2]]
    g = np.r_[-g[1], g, 2.0 - g[-2]]
    m, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = []
    for theta in np.pi * ks / 2 ** 14:
        tx = _edge_angle(m + r * np.cos(theta), lo, hi)
        i = min(int(np.searchsorted(t, tx, side="right")) - 1, t.size - 3)
        nodes, vals = t[i - 1:i + 3], g[i - 1:i + 3]
        if np.unique(nodes).size < 4:
            w = (tx - t[i]) / (t[i + 1] - t[i]) if t[i + 1] > t[i] else 0.0
            value = g[i] + w * (g[i + 1] - g[i])
        else:
            value = sum(vals[a] * np.prod([(tx - nodes[b]) / (nodes[a] - nodes[b])
                                           for b in range(4) if b != a]) for a in range(4))
        out.append(min(max(value, g[i]), g[i + 1]))
    return np.array(out)


def test_chebyshev_moments_read_the_shared_angle_table_bitwise():
    from scipy.fft import dst

    from freelab._angle_series import ANGLES, _angle_table, _read_angles, _read_g, chebyshev_moments
    from freelab.equilibrium import solve_equilibrium
    from freelab.measures import from_quantile_table

    n = ANGLES
    ks = np.r_[1:64, 64:n - 64:7, n - 64:n]  # both edges, and every 7th angle between
    u = abs_potential()
    atoms = pushforward_monotone(solve_equilibrium(u).measure, u.d)  # about 1/2 at -1 and at 1
    half = np.linspace(0.0, 0.5, 513)  # 1/2 on [-2, -1] and on [1, 2]: a flat stretch
    gap = from_quantile_table(np.r_[half, 0.5 + half], np.r_[-2.0 + 2.0 * half, 1.0 + 2.0 * half])
    for mu in (make_semicircular(), make_arcsine(1.3, 0.2), make_marchenko_pastur_family(0.7),
               pushforward_monotone(make_semicircular(), lambda x: x + 0.25 * x ** 3), atoms, gap):
        ps, xs = mu.quantile_ps, mu.quantile_xs
        g = _read_g(ps, xs)
        assert np.max(np.abs(g[ks - 1] - _lagrange_read(ps, xs, ks))) <= 1e-13, mu.label
        assert np.all(np.diff(g) >= 0.0), mu.label
        frac, _, weight = _angle_table()
        got_m, got_r, got = chebyshev_moments(ps, xs)
        assert (got_m, got_r) == (0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])), mu.label
        assert np.array_equal(got, weight * dst(g - frac, type=1)), mu.label
    # the gap's G is 1/2 across it, exactly
    mid = np.abs(np.cos(np.pi * np.arange(1, n) / n)) < 0.45
    assert np.all(_read_g(gap.quantile_ps, gap.quantile_xs)[mid] == 0.5)
    for table in _angle_table() + (_read_angles(-2.0, 2.0),):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_log_energy_of_carried_series_is_the_closed_form():
    # E(sigma_v) = log(v)/2 - 1/4, E(mp(s)) = log(s) - 1/2, E(arcsine(r)) = log(r/2)
    for v in (0.25, 0.5, 1.0, 2.0, 9.0):
        e = log_energy(make_semicircular(mean=0.3, variance=v))
        assert abs(e.value - (0.5 * np.log(v) - 0.25)) <= 1e-15
        assert e.error_est <= 1e-14
    for s in (0.5, 1.0, 2.0):
        assert abs(log_energy(make_marchenko_pastur_family(s)).value - (np.log(s) - 0.5)) <= 1e-15
    for r in (0.5, 1.0, 2.0):
        assert abs(log_energy(make_arcsine(r, center=-0.4)).value - np.log(r / 2.0)) <= 1e-15


def test_log_energy_of_a_solve_is_its_energy_bit_for_bit():
    from freelab.equilibrium import solve_equilibrium

    for u in (quadratic(1.0), quartic(0.25), polynomial_even(0.5, 0.125),
              abs_potential(), linear_halfline(1.5), arcsine_indicator(2.5)):
        res = solve_equilibrium(u)
        assert log_energy(res.measure).value == res.energy, u.label

import numpy as np
import pytest

from freelab.errors import InvalidInputError
from freelab.measures import (
    AtomicMeasure,
    GridMeasure,
    from_density_table,
    from_quantile_table,
    make_arcsine,
    make_marchenko_pastur_family,
    make_semicircular,
    moment,
    pushforward_monotone,
    translate,
)


def test_semicircle_moments_are_catalan():
    sig = make_semicircular()
    # m_{2k} = Catalan(k): 1, 1, 2, 5
    assert abs(moment(sig, 0) - 1.0) < 1e-12
    assert abs(moment(sig, 2) - 1.0) < 1e-7
    assert abs(moment(sig, 4) - 2.0) < 1e-6
    assert abs(moment(sig, 6) - 5.0) < 1e-5
    assert abs(moment(sig, 1)) < 1e-9
    assert abs(moment(sig, 3)) < 1e-9


def test_semicircle_support_and_density():
    sig = make_semicircular(mean=0.5, variance=4.0)
    assert abs(sig.support_lo - (0.5 - 4.0)) < 1e-9
    assert abs(sig.support_hi - (0.5 + 4.0)) < 1e-9
    # density (1/(2 pi v)) sqrt(4v - (x-m)^2) at the center
    want = np.sqrt(16.0) / (2.0 * np.pi * 4.0)
    assert abs(sig.density_at(0.5) - want) < 1e-4
    assert abs(sig.barycenter() - 0.5) < 1e-8
    assert abs(sig.variance() - 4.0) < 1e-6


def test_semicircle_quantile_cdf_roundtrip():
    sig = make_semicircular()
    for p in (0.03, 0.2, 0.5, 0.77, 0.98):
        assert abs(sig.cdf(sig.quantile(p)) - p) < 1e-6


def test_cdf_reads_row_angles_taken_once_per_measure():
    # the same bytes as taking the angle of every row at every call
    from freelab._angle_series import angle

    rng = np.random.default_rng(3)
    for mu in (make_semicircular(0.3, 2.0), make_arcsine(2.0, center=1.0),
               make_marchenko_pastur_family(1.5),
               from_quantile_table(np.linspace(0.0, 1.0, 5), [-1.0, -0.5, 0.5, 0.5, 2.0])):
        xs, ps = mu.quantile_xs, mu.quantile_ps
        lo, hi = xs[0], xs[-1]
        x = np.r_[rng.uniform(lo - 0.5, hi + 0.5, 999), lo, hi, xs[1:-1:97]]
        want = np.interp(-angle(x, lo, hi), -angle(xs, lo, hi), ps)
        assert "_row_angles" not in mu.__dict__
        assert np.array_equal(mu.cdf(x), want), mu.label
        rows = mu.__dict__["_row_angles"]
        assert np.array_equal(mu.cdf(x), want) and mu._row_angles is rows
        assert mu.cdf(0.5 * (lo + hi)) == np.interp(-angle(0.5 * (lo + hi), lo, hi),
                                                    -angle(xs, lo, hi), ps)
        with pytest.raises(ValueError):
            rows[0] = 0.0
    # a translated copy takes its own angles
    sig = make_semicircular()
    sig.cdf(0.0)
    assert "_row_angles" not in translate(sig, 1.0).__dict__


def test_arcsine_cdf_closed_form_at_its_edges():
    # the table's rows are linear in the support angle, which cdf reads in
    arc = make_arcsine(1.0)
    near = np.array([0.0, 1e-16, 1e-15, 3e-15, 1e-14])
    x = np.r_[-1.0 + near, np.linspace(-1.0, 1.0, 2001), 1.0 - near]
    assert np.max(np.abs(arc.cdf(x) - np.arccos(-x) / np.pi)) <= 1e-10


def test_arcsine_quantiles_closed_form():
    arc = make_arcsine(2.0, center=1.0)
    # exact at the table knots, interpolation error off them
    knots = arc.quantile_ps[::512]
    assert np.max(np.abs(arc.quantile(knots) - (1.0 - 2.0 * np.cos(np.pi * knots)))) < 1e-14
    ps = np.array([0.1, 0.25, 0.5, 0.9])
    want = 1.0 - 2.0 * np.cos(np.pi * ps)
    assert np.max(np.abs(arc.quantile(ps) - want)) < 1e-7
    assert abs(moment(arc, 1) - 1.0) < 1e-9
    # centered arcsine(R): m2 = R^2/2
    arc0 = make_arcsine(2.0)
    assert abs(moment(arc0, 2) - 2.0) < 1e-7


def test_marchenko_pastur_family_moments():
    # squared pushforward of the semicircle with scale c: mean c, m2 = 2c^2
    mp = make_marchenko_pastur_family(1.0)
    assert mp.support_lo >= -1e-12
    assert abs(mp.support_hi - 4.0) < 1e-9
    assert abs(moment(mp, 1) - 1.0) < 1e-7
    assert abs(moment(mp, 2) - 2.0) < 1e-6
    mp3 = make_marchenko_pastur_family(3.0)
    assert abs(moment(mp3, 1) - 3.0) < 1e-6
    assert abs(moment(mp3, 2) - 18.0) < 1e-4


def test_translate_shifts_everything():
    sig = make_semicircular()
    nu = translate(sig, -2.5)
    assert abs(nu.barycenter() + 2.5) < 1e-8
    assert abs(nu.support_lo - (sig.support_lo - 2.5)) < 1e-12
    assert abs(nu.variance() - sig.variance()) < 1e-10


def test_pushforward_monotone_linear_map():
    sig = make_semicircular()
    nu = pushforward_monotone(sig, lambda x: 3.0 * x + 1.0)
    assert abs(nu.barycenter() - 1.0) < 1e-7
    assert abs(nu.variance() - 9.0) < 1e-5
    assert abs(nu.support_hi - 7.0) < 1e-8


def test_pushforward_rejects_decreasing_map():
    sig = make_semicircular()
    with pytest.raises(InvalidInputError):
        pushforward_monotone(sig, lambda x: -x)


def test_from_quantile_table_matches_source():
    sig = make_semicircular()
    ps = np.linspace(0.0, 1.0, 4097)
    rebuilt = from_quantile_table(ps, sig.quantile(ps), label="rebuilt")
    for p in (0.1, 0.5, 0.9):
        assert abs(rebuilt.quantile(p) - sig.quantile(p)) < 1e-6
    assert abs(moment(rebuilt, 2) - 1.0) < 1e-5


def test_from_density_table_normalizes():
    xs = np.linspace(-1.0, 1.0, 2001)
    dens = 5.0 * (1.0 - xs ** 2)  # un-normalized
    mu = from_density_table(xs, dens, label="parabola")
    assert abs(moment(mu, 0) - 1.0) < 1e-9
    # normalized density is (3/4)(1 - x^2): m2 = 1/5
    assert abs(moment(mu, 2) - 0.2) < 1e-5


def test_atomic_measure_validation():
    a = AtomicMeasure(points=np.array([1.0, -1.0]), weights=np.array([0.5, 0.5]))
    assert a.points[0] < a.points[1]  # sorted on construction
    with pytest.raises(InvalidInputError):
        AtomicMeasure(points=np.array([0.0, 1.0]), weights=np.array([0.7, 0.7]))
    with pytest.raises(InvalidInputError):
        AtomicMeasure(points=np.array([0.0]), weights=np.array([-1.0]))


def test_density_at_outside_support_is_zero():
    sig = make_semicircular()
    assert sig.density_at(5.0) == 0.0
    assert sig.density_at(-5.0) == 0.0


def test_grid_measure_radius():
    sig = make_semicircular(mean=1.0, variance=1.0)
    assert abs(sig.radius - 3.0) < 1e-9


def test_moment_of_atoms_is_exact():
    a = AtomicMeasure(points=np.array([-1.0, 2.0]), weights=np.array([0.25, 0.75]))
    assert abs(moment(a, 1) - (0.25 * -1.0 + 0.75 * 2.0)) < 1e-15
    assert abs(moment(a, 2) - (0.25 + 0.75 * 4.0)) < 1e-15


def test_random_translations_compose():
    rng = np.random.default_rng(7)
    sig = make_semicircular()
    for _ in range(10):
        a, b = rng.normal(size=2)
        two = translate(translate(sig, a), b)
        one = translate(sig, a + b)
        assert abs(two.barycenter() - one.barycenter()) < 1e-9
        assert abs(two.support_lo - one.support_lo) < 1e-12


def test_closed_form_tables_are_the_direct_angle_formula():
    # the shared angle tables give the same bytes as solving for the angle
    # at every build, and cannot be written through
    from freelab._grids import QUANTILE_CELLS, cosine_graded
    from freelab.measures import _arcsine_cos, _semicircle_cos, _semicircle_theta_of_p

    ps = cosine_graded(QUANTILE_CELLS)
    theta = _semicircle_theta_of_p(ps)
    shifted = _semicircle_theta_of_p(0.5 * (1.0 + ps))
    for mean, var in ((0.0, 1.0), (0.3, 2.5), (-1e-3, 0.01)):
        want = mean - 2.0 * np.sqrt(var) * np.cos(theta)
        assert np.array_equal(make_semicircular(mean, var).quantile_xs, want)
    for scale in (1.0, 0.37, 4.0):
        want = np.maximum.accumulate((2.0 * np.sqrt(scale) * np.cos(shifted)) ** 2)
        assert np.array_equal(make_marchenko_pastur_family(scale).quantile_xs, want)
    for radius, center in ((1.0, 0.0), (2.0, 0.5), (0.37, -1e-3), (1e3, 7.0)):
        want = center - radius * np.cos(np.pi * ps)
        assert np.array_equal(make_arcsine(radius, center).quantile_xs, want)
    assert _arcsine_cos() is _arcsine_cos()
    for table in (_semicircle_cos(False), _semicircle_cos(True), _arcsine_cos()):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_semicircle_moments_from_the_series_are_exact():
    # m2(sigma_v) = v and m4(sigma_v) = 2 v^2, summed from the carried series
    for v in (0.25, 0.5, 1.0, 2.0, 9.0):
        sig = make_semicircular(variance=v)
        assert abs(moment(sig, 2) - v) <= 1e-14 * v
        assert abs(moment(sig, 4) - 2.0 * v * v) <= 1e-14 * 2.0 * v * v
    assert moment(make_semicircular(mean=0.7, variance=2.0), 1) == 0.7


def test_translate_keeps_the_series_and_pushforward_drops_it():
    sig = make_semicircular(mean=0.5, variance=2.0)
    m, r, tau = sig.series
    assert (m, r, tau.tolist()) == (0.5, 2.0 * np.sqrt(2.0), [0.0, -0.5])
    assert not tau.flags.writeable
    moved = translate(sig, 1.25)
    assert moved.series[0] == 1.75 and moved.series[1:] == sig.series[1:]
    assert make_arcsine(2.0, 0.5).series[:2] == (0.5, 2.0)
    assert make_marchenko_pastur_family(1.5).series[:2] == (3.0, 3.0)
    assert pushforward_monotone(sig, lambda x: 2.0 * x).series is None
    assert from_quantile_table(sig.quantile_ps, sig.quantile_xs).series is None


def test_series_moment_matches_the_chebpow_expansion():
    # the reference expands (m + r x)^k by numpy's Chebyshev power
    from freelab._angle_series import series_moment
    from freelab.equilibrium import solve_equilibrium
    from freelab.potentials import quartic, tilt_linear

    def reference(series, k):
        m, r, tau = series
        a = np.polynomial.chebyshev.chebpow([m, r], k)
        return float(a[0] + a[1:1 + tau.size] @ tau[:k])

    laws = [make_semicircular(mean=0.7, variance=2.0), make_arcsine(1.5, -0.25),
            make_marchenko_pastur_family(1.5), translate(make_semicircular(), -1.25),
            solve_equilibrium(tilt_linear(quartic(1.0), 0.3)).measure]
    for mu in laws:
        m, r = mu.series[:2]
        for k in range(9):
            want = reference(mu.series, k)
            assert abs(series_moment(mu.series, k) - want) <= 1e-14 * (abs(m) + r) ** k, (mu.label, k)

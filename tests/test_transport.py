import numpy as np
import pytest

from freelab._grids import TRANSPORT_POINTS, gauss_legendre_01
from freelab.errors import InvalidInputError
from freelab.measures import (
    AtomicMeasure,
    from_quantile_table,
    make_arcsine,
    make_semicircular,
    moment,
    pushforward_monotone,
    translate,
)
from freelab.transport import (
    max_correlation,
    ssfti_functional,
    translation_identity_check,
    w2,
    w2_atomic_oracle,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _atomic_quantile_cost(a: AtomicMeasure, b: AtomicMeasure) -> float:
    """Exact W2^2 for atoms: integrate the step quantiles over merged breakpoints."""
    cum = np.unique(np.concatenate([
        np.cumsum(a.weights), np.cumsum(b.weights), [0.0, 1.0]]))
    cum = np.clip(cum, 0.0, 1.0)
    cost2 = 0.0
    for lo, hi in zip(cum[:-1], cum[1:]):
        if hi - lo < 1e-15:
            continue
        mid = 0.5 * (lo + hi)
        xa = a.points[np.searchsorted(np.cumsum(a.weights), mid)]
        xb = b.points[np.searchsorted(np.cumsum(b.weights), mid)]
        cost2 += (hi - lo) * (xa - xb) ** 2
    return cost2


def test_w2_self_distance_is_zero():
    sig = make_semicircular()
    assert w2(sig, sig).cost == 0.0


def test_w2_between_scaled_semicircles():
    # quantiles scale linearly: cost^2 = (2 - 1/2)^2 Var(sigma) = 2.25
    big = make_semicircular(variance=4.0)
    small = make_semicircular(variance=0.25)
    got = w2(big, small)
    assert abs(got.cost_squared - 2.25) < 1e-7
    assert got.coupling_descriptor == "comonotone"


def test_w2_translation_is_exact():
    sig = make_semicircular()
    for a in (0.5, -3.0):
        assert abs(w2(sig, translate(sig, a)).cost - abs(a)) < 1e-10


def test_w2_symmetry_and_triangle():
    mus = [make_semicircular(), make_arcsine(1.0), make_semicircular(mean=1.0)]
    d01 = w2(mus[0], mus[1]).cost
    d10 = w2(mus[1], mus[0]).cost
    assert d01 == pytest.approx(d10, abs=1e-14)
    d02 = w2(mus[0], mus[2]).cost
    d12 = w2(mus[1], mus[2]).cost
    assert d02 <= d01 + d12 + 1e-8


def test_w2_scaling_homogeneity():
    sig = make_semicircular()
    arc = make_arcsine(1.0, center=0.3)
    base = w2(sig, arc).cost
    for a in (0.5, 2.0):
        sa = pushforward_monotone(sig, lambda x: a * x)
        aa = pushforward_monotone(arc, lambda x: a * x)
        assert abs(w2(sa, aa).cost - a * base) < 1e-7


def test_max_correlation_semicircles():
    sig = make_semicircular()
    assert abs(max_correlation(sig, sig) - 1.0) < 1e-7
    big = make_semicircular(variance=4.0)
    small = make_semicircular(variance=0.25)
    assert abs(max_correlation(big, small) - 1.0) < 1e-7


def test_max_correlation_against_near_point_mass():
    # a nearly constant quantile decouples: T(mu, delta_c) = c * bar(mu)
    mu = make_semicircular(mean=0.7)
    c = 2.0
    ps = np.linspace(0.0, 1.0, 33)
    spike = from_quantile_table(ps, c + 1e-9 * (ps - 0.5), label="spike")
    assert abs(max_correlation(mu, spike) - c * 0.7) < 1e-7


def test_polarization_identity():
    mu = make_semicircular(mean=0.3, variance=2.0)
    nu = make_arcsine(1.5, center=-0.4)
    lhs = moment(mu, 2) + moment(nu, 2) - 2.0 * max_correlation(mu, nu)
    assert abs(lhs - w2(mu, nu).cost_squared) < 1e-8


def test_translation_identity_defect_is_tiny():
    sig = make_semicircular()
    arc = make_arcsine(1.0)
    assert translation_identity_check(sig, sig, 1.0) < 1e-12
    assert translation_identity_check(arc, sig, -0.7) < 1e-12
    assert translation_identity_check(sig, arc, 0.0) == 0.0


def test_atomic_oracle_single_atoms():
    a = AtomicMeasure(np.array([0.0]), np.array([1.0]))
    b = AtomicMeasure(np.array([1.0]), np.array([1.0]))
    assert abs(w2_atomic_oracle(a, b).cost - 1.0) < 1e-15
    assert w2_atomic_oracle(a, a).cost == 0.0


def test_atomic_oracle_equal_mixtures():
    m = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert w2_atomic_oracle(m, m).cost == 0.0


def test_atomic_oracle_matches_quantile_formula():
    rng = np.random.default_rng(23)
    for _ in range(50):
        na, nb = rng.integers(1, 6, size=2)
        a = AtomicMeasure(np.sort(rng.normal(size=na)),
                          np.diff(np.concatenate([[0.0], np.sort(rng.uniform(size=na - 1)), [1.0]])))
        b = AtomicMeasure(np.sort(rng.normal(size=nb)),
                          np.diff(np.concatenate([[0.0], np.sort(rng.uniform(size=nb - 1)), [1.0]])))
        got = w2_atomic_oracle(a, b).cost_squared
        want = _atomic_quantile_cost(a, b)
        assert abs(got - want) < 1e-12


def test_atomic_oracle_matches_linear_program():
    from scipy.optimize import linprog
    rng = np.random.default_rng(5)
    for _ in range(8):
        na, nb = rng.integers(2, 5, size=2)
        wa = rng.uniform(0.2, 1.0, size=na)
        wb = rng.uniform(0.2, 1.0, size=nb)
        a = AtomicMeasure(np.sort(rng.normal(size=na)), wa / wa.sum())
        b = AtomicMeasure(np.sort(rng.normal(size=nb)), wb / wb.sum())
        cost = (a.points[:, None] - b.points[None, :]) ** 2
        A_eq = []
        for i in range(na):
            row = np.zeros((na, nb))
            row[i, :] = 1.0
            A_eq.append(row.ravel())
        for j in range(nb):
            row = np.zeros((na, nb))
            row[:, j] = 1.0
            A_eq.append(row.ravel())
        res = linprog(cost.ravel(), A_eq=np.array(A_eq),
                      b_eq=np.concatenate([a.weights, b.weights]),
                      bounds=(0, None), method="highs")
        assert res.success
        assert abs(w2_atomic_oracle(a, b).cost_squared - res.fun) < 1e-9


def test_atomic_oracle_rejects_large_inputs():
    pts = np.arange(9, dtype=float)
    wts = np.full(9, 1.0 / 9.0)
    big = AtomicMeasure(pts, wts)
    with pytest.raises(InvalidInputError):
        w2_atomic_oracle(big, big)


def test_ssfti_functional_at_the_semicircle():
    sig = make_semicircular()
    assert abs(ssfti_functional(sig, sig) - (-HALF_LOG_2PI)) < 2e-5


def test_ssfti_functional_minimized_at_dual_variance():
    # for mu with variance c the minimizer over nu is the semicircle of
    # variance 1/c, with minimum -H(mu, sigma) - (1/2) log(2 pi)
    c = 4.0
    mu = make_semicircular(variance=c)
    best = ssfti_functional(mu, make_semicircular(variance=1.0 / c))
    h = 0.5 * c - 0.5 - 0.5 * np.log(c)
    assert abs(best - (-h - HALF_LOG_2PI)) < 2e-5
    for w in (0.1, 0.2, 0.5, 1.0, 2.0):
        probe = ssfti_functional(mu, make_semicircular(variance=w))
        assert best <= probe + 2e-5
    shifted = ssfti_functional(mu, make_semicircular(variance=1.0 / c, mean=0.8))
    assert best <= shifted + 2e-5


def test_default_and_explicit_grid_share_one_build():
    # moments and potential integrals ask for the default grid, transport
    # for an explicit node count: both must hit the same cache entry
    before = gauss_legendre_01.cache_info().misses
    grid = gauss_legendre_01()
    assert gauss_legendre_01(TRANSPORT_POINTS) is grid
    assert gauss_legendre_01(n=TRANSPORT_POINTS) is grid
    assert gauss_legendre_01.cache_info().misses - before <= 1


def test_w2_between_semicircles_from_their_series():
    # W2^2(sigma_a, sigma_b) = (sqrt(a) - sqrt(b))^2: the quantiles come from
    # the carried series, where the tables were good to about 1e-7
    for a, b in ((0.25, 4.0), (9.0 / 4.0, 4.0 / 9.0), (9.0, 1.0 / 9.0)):
        got = w2(make_semicircular(variance=a), make_semicircular(variance=b)).cost_squared
        assert abs(got - (np.sqrt(a) - np.sqrt(b)) ** 2) <= 1e-11, (a, b)


def test_w2_between_polynomial_solves_from_their_series():
    # quadratic(1/4) and quadratic(4) solve to the semicircles of variance 4
    # and 1/4; their exact series of two terms take the polished quantiles
    from freelab.equilibrium import solve_equilibrium
    from freelab.potentials import quadratic

    wide = solve_equilibrium(quadratic(0.25)).measure
    narrow = solve_equilibrium(quadratic(4.0)).measure
    assert abs(w2(wide, narrow).cost_squared - 2.25) <= 1e-12

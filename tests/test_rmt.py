import numpy as np
import pytest

from freelab import rmt
from freelab.equilibrium import solve_equilibrium
from freelab.errors import HypothesisError, InvalidInputError
from freelab.potentials import (
    arcsine_indicator,
    legendre_transform,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
)
from freelab.rmt import (
    ConvergenceSeries,
    EnsembleSample,
    empirical_vs_equilibrium,
    gue_entropy_identity,
    log_joint_density,
    matrix_fenchel_young_check,
    micro_pressure_estimate,
    rate_gap_per_sweep,
    sample_eigenvalues,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def test_gue_entropy_identity_is_exact():
    # the half log N counterterm cancels the coordinate variance exactly,
    # independently of N
    for n in (1, 2, 7, 128):
        assert abs(gue_entropy_identity(n)) < 1e-12
    with pytest.raises(InvalidInputError):
        gue_entropy_identity(0)


def test_micro_pressure_quadratic_direct_all_sizes():
    # finite-N value equals the limit exactly; only the box truncation of
    # the widest moment integrals is visible, and it fades with N
    for n, tol in ((1, 2e-4), (2, 1e-6), (3, 1e-8), (6, 1e-12)):
        v = micro_pressure_estimate(quadratic(1.0), R=4.0, N=n)
        assert abs(v - HALF_LOG_2PI) < tol


def test_micro_pressure_hankel_matches_tensor_quadrature():
    # independent oracle: brute-force 3D quadrature of the Vandermonde-
    # squared integral, bypassing the orthogonal-polynomial identity
    # entirely; 1.01272961 is the former Hankel route's value
    t, w = np.polynomial.legendre.leggauss(80)
    xs, ws = 4.0 * t, 4.0 * w
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    W = ws[:, None, None] * ws[None, :, None] * ws[None, None, :]
    vdm = ((X - Y) * (X - Z) * (Y - Z)) ** 2
    weight = np.exp(-3.0 * (X ** 4 + Y ** 4 + Z ** 4) / 4.0)
    integral = float(np.sum(vdm * weight * W))
    oracle = (np.log(integral) + 3.0 * np.log(2.0 * np.pi)
              - np.log(12.0)) / 9.0 + 0.5 * np.log(3.0)
    v = micro_pressure_estimate(quartic(0.25), R=4.0, N=3)
    assert abs(v - oracle) < 1e-6
    assert abs(v - 1.01272961) < 1e-7


def test_micro_pressure_matches_frozen_hankel_values():
    # values of the former moment-Hankel determinant route at N = 6
    for u, frozen in ((polynomial_even(0.5, 0.125), 0.776829880211836),
                      (quartic(0.25), 1.0176785926644143)):
        assert abs(micro_pressure_estimate(u, R=4.0, N=6) - frozen) < 1e-12


def test_micro_pressure_quadratic_hits_reference():
    # the GUE pressure is (1/2) log 2 pi at every N once the box holds the gas
    for n in (8, 16, 32, 64, 128, 256):
        v = micro_pressure_estimate(quadratic(1.0), R=4.0, N=n)
        assert abs(v - HALF_LOG_2PI) < 1e-12


def test_micro_pressure_is_converged_in_the_node_count(monkeypatch):
    u = quartic(0.25)
    v = micro_pressure_estimate(u, R=6.0, N=64)
    monkeypatch.setattr(rmt, "PRESSURE_NODES", 2 * rmt.PRESSURE_NODES)
    assert abs(micro_pressure_estimate(u, R=6.0, N=64) - v) < 1e-12


def test_micro_pressure_genus_one_limit():
    # N^2 (p_N - p_inf) tends to the closed-form genus-one constant of
    # these one-cut gases; Richardson in 1/N^2 removes the next order
    s = (np.sqrt(7.0 / 16.0) - 0.25) * 16.0 / 3.0
    for u, limit in ((quartic(0.25), -np.log(4.0) / 24.0),
                     (polynomial_even(0.5, 0.125), -np.log(7.0 * s * s / 16.0) / 24.0)):
        p_inf = solve_equilibrium(u).pressure
        g = {n: n * n * (micro_pressure_estimate(u, R=6.0, N=n) - p_inf)
             for n in (64, 128)}
        assert abs((4.0 * g[128] - g[64]) / 3.0 - limit) < 1e-9


def test_micro_pressure_input_validation():
    bad = (
        dict(R=-1.0, N=2),
        dict(R=float("nan"), N=2),
        dict(R=float("nan"), N=8),
        dict(R=float("inf"), N=2),
        dict(R=float("inf"), N=8),
        dict(R=4.0, N=2.5),
        dict(R=4.0, N=0),
        dict(R=4.0, N=257),
        # cutoff cuts into the equilibrium support, at every N
        dict(R=1.0, N=2),
        dict(R=1.0, N=8),
    )
    for kwargs in bad:
        with pytest.raises(InvalidInputError):
            micro_pressure_estimate(quadratic(1.0), **kwargs)
    with pytest.raises(InvalidInputError):
        # the box misses the domain of the hard wall
        micro_pressure_estimate(shift_potential(arcsine_indicator(1.0), 10.0), R=4.0, N=2)


def test_micro_santalo_product_at_n1():
    # scalar specialization: (int e^-f)(int e^-f*) never exceeds 2 pi,
    # with equality at the Gaussian
    q = micro_pressure_estimate(quadratic(1.0), R=4.0, N=1)
    assert np.exp(2.0 * q) <= 2.0 * np.pi + 1e-9
    assert np.exp(2.0 * q) > 2.0 * np.pi - 1e-2
    f = quartic(1.0)
    p = micro_pressure_estimate(f, R=4.0, N=1) \
        + micro_pressure_estimate(legendre_transform(f), R=4.0, N=1)
    assert np.exp(p) <= 2.0 * np.pi - 0.1


def test_log_joint_density_symmetry_and_edge_cases():
    f = quartic(1.0)
    a = log_joint_density(f, [0.3, -1.2, 0.7])
    b = log_joint_density(f, [0.7, 0.3, -1.2])
    assert abs(a - b) < 1e-12
    assert log_joint_density(f, [0.5, 0.5]) == -np.inf
    assert log_joint_density(arcsine_indicator(1.0), [0.2, 1.4]) == -np.inf


def test_sampler_reproducible_and_sorted():
    a = sample_eigenvalues(quadratic(1.0), N=8, sweeps=60, seed=42, chains=2)
    b = sample_eigenvalues(quadratic(1.0), N=8, sweeps=60, seed=42, chains=2)
    assert a.acceptance_rate == b.acceptance_rate
    assert all(np.array_equal(x, y)
               for x, y in zip(a.eigenvalue_sets, b.eigenvalue_sets))
    assert len(a.eigenvalue_sets) == 2 * 60
    for xs in a.eigenvalue_sets:
        assert np.all(np.diff(xs) >= 0)
    c = sample_eigenvalues(quadratic(1.0), N=8, sweeps=60, seed=43, chains=2)
    assert not np.array_equal(a.eigenvalue_sets[0], c.eigenvalue_sets[0])


def test_sampler_mean_top_eigenvalue_matches_quadrature_oracle():
    # the N=2 joint density is integrable directly; the chain must land
    # within Monte-Carlo error of the exact mean of the larger eigenvalue
    s = sample_eigenvalues(quadratic(1.0), N=2, sweeps=4000, seed=11, chains=2)
    lmax = np.array([xs[-1] for xs in s.eigenvalue_sets])
    batches = lmax[: lmax.size - lmax.size % 200].reshape(-1, 200).mean(axis=1)
    se = float(batches.std(ddof=1) / np.sqrt(batches.size))
    t, w = np.polynomial.legendre.leggauss(200)
    xs, ws = 4.0 * t, 4.0 * w
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    dens = (X - Y) ** 2 * np.exp(-(X * X + Y * Y)) * np.outer(ws, ws)
    oracle = float((np.maximum(X, Y) * dens).sum() / dens.sum())
    assert abs(float(lmax.mean()) - oracle) < 3.0 * se


def test_sampler_stays_inside_hard_walls():
    s = sample_eigenvalues(arcsine_indicator(1.0), N=8, sweeps=200, seed=3)
    assert 0.0 < s.acceptance_rate < 1.0
    for xs in s.eigenvalue_sets:
        assert xs[0] >= -1.0 and xs[-1] <= 1.0


def test_sampler_refuses_unconfined_potential():
    with pytest.raises(InvalidInputError):
        sample_eigenvalues(polynomial_even(-1.0, 0.0), N=4, sweeps=10, seed=0)
    with pytest.raises(InvalidInputError):
        sample_eigenvalues(quadratic(1.0), N=600, sweeps=10, seed=0)


def test_matrix_fenchel_young_quadratic_pair():
    # tr f(X) + tr f(Y) - tr(XY) is half the squared HS distance here, so
    # every trial is nonnegative outright
    slack = matrix_fenchel_young_check(quadratic(1.0), quadratic(1.0),
                                       N=8, trials=300, seed=3)
    assert slack >= 0.0


def test_matrix_fenchel_young_conjugate_pair_and_scalar_case():
    f = quartic(1.0)
    slack = matrix_fenchel_young_check(f, legendre_transform(f),
                                       N=4, trials=300, seed=5)
    assert slack >= -1e-10
    scalar = matrix_fenchel_young_check(quadratic(1.0), quadratic(1.0),
                                        N=1, trials=300, seed=7)
    assert scalar >= -1e-10


def test_matrix_fenchel_young_rejects_bad_pair():
    with pytest.raises(HypothesisError):
        matrix_fenchel_young_check(quadratic(0.5), quadratic(0.5),
                                   N=4, trials=10, seed=0)


def test_empirical_ks_decreases_along_n():
    eq = solve_equilibrium(quadratic(1.0))
    samples = [sample_eigenvalues(quadratic(1.0), N=n, sweeps=300, seed=7, chains=2)
               for n in (8, 16, 32, 64)]
    series = empirical_vs_equilibrium(samples, eq)
    assert series.n_values == (8, 16, 32, 64)
    ks = np.array(series.statistic)
    assert np.all(np.diff(ks) < 0.0)
    assert ks[0] < 0.04 and ks[-1] < 0.01


def test_quartic_sample_tracks_equilibrium_support():
    eq = solve_equilibrium(quartic(1.0))
    s = sample_eigenvalues(quartic(1.0), N=64, sweeps=300, seed=9, chains=2)
    lo = float(np.mean([xs[0] for xs in s.eigenvalue_sets]))
    hi = float(np.mean([xs[-1] for xs in s.eigenvalue_sets]))
    assert abs(lo - eq.support_lo) < 0.1
    assert abs(hi - eq.support_hi) < 0.1
    gaps = rate_gap_per_sweep(s, eq)
    # the diagonal-excluded pair sum underestimates the continuum energy by
    # an O(log n / n) margin, so the gap floor sits slightly below zero
    assert gaps.min() > -0.12
    assert -0.10 < gaps.mean() < -0.04


def test_mismatched_equilibrium_is_refused_then_detected():
    eq4 = solve_equilibrium(quartic(1.0))
    s = sample_eigenvalues(quadratic(1.0), N=8, sweeps=300, seed=7, chains=2)
    with pytest.raises(InvalidInputError):
        empirical_vs_equilibrium(s, eq4)
    forced = empirical_vs_equilibrium(s, eq4, enforce_match=False)
    matched = empirical_vs_equilibrium(s, solve_equilibrium(quadratic(1.0)))
    assert forced.statistic[0] > 0.15
    assert forced.statistic[0] > 5.0 * matched.statistic[0]


def test_sample_and_series_validation():
    for n, sweeps, chains in ((2.5, 10, 1), (4, 2.5, 1), (4, 10, 1.5)):
        with pytest.raises(InvalidInputError):
            sample_eigenvalues(quadratic(1.0), N=n, sweeps=sweeps, chains=chains)
    with pytest.raises(InvalidInputError):
        EnsembleSample(N=2, potential=quadratic(1.0), chains=1,
                       eigenvalue_sets=(np.array([1.0, 0.0]),),
                       acceptance_rate=0.5, seed=0)
    with pytest.raises(InvalidInputError):
        EnsembleSample(N=2, potential=quadratic(1.0), chains=1,
                       eigenvalue_sets=(np.array([0.0, 1.0]),),
                       acceptance_rate=1.5, seed=0)
    with pytest.raises(InvalidInputError):
        ConvergenceSeries(n_values=(8, 8), statistic=(0.1, 0.2),
                          target=None, label="x")
    with pytest.raises(InvalidInputError):
        ConvergenceSeries(n_values=(8, 16), statistic=(0.1,),
                          target=None, label="x")

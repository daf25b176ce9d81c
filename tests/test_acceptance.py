"""End-to-end acceptance gate, one test per criterion at pinned tolerances.

Each test prints a single ``criterion N (...): PASS/FAIL`` line before its
assertions, so a bare ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances and runtimes are frozen here on purpose; loosening
them is a behavior change, not a test fix.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from freelab.cli import main
from freelab.equilibrium import SolverSettings, free_pressure, solve_equilibrium
from freelab.inequalities import KINDS, verify
from freelab.logpotential import chi, log_energy
from freelab.measures import (
    AtomicMeasure,
    make_arcsine,
    make_semicircular,
    moment,
    translate,
)
from freelab.potentials import (
    Potential,
    arcsine_indicator,
    legendre_transform,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
)
from freelab.rmt import (
    empirical_vs_equilibrium,
    gue_entropy_identity,
    matrix_fenchel_young_check,
    micro_pressure_estimate,
    sample_eigenvalues,
)
from freelab.transport import max_correlation, translation_identity_check, w2, w2_atomic_oracle

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
MANIFEST_V1 = "manifests/verify_suite_v1.csv"


def _line(number, name, failures):
    verdict = "PASS" if not failures else "FAIL"
    detail = "all checks held" if not failures else "; ".join(failures)
    print(f"criterion {number} ({name}): {verdict} - {detail}")


def test_criterion_1_entropy_constants():
    failures = []
    start = time.perf_counter()
    value = float(chi(make_semicircular()))
    elapsed_chi = time.perf_counter() - start
    target = 0.5 * np.log(2.0 * np.pi * np.e)
    if abs(value - target) >= 1e-5:
        failures.append(f"chi(sigma)={value:.8f}, want {target:.8f}")
    if elapsed_chi >= 5.0:
        failures.append(f"chi took {elapsed_chi:.2f}s")

    start = time.perf_counter()
    energy = float(log_energy(make_arcsine(1.0)))
    elapsed_arc = time.perf_counter() - start
    if abs(energy - (-np.log(2.0))) >= 1e-5:
        failures.append(f"log_energy(arcsine)={energy:.8f}, want {-np.log(2.0):.8f}")
    if elapsed_arc >= 5.0:
        failures.append(f"log_energy took {elapsed_arc:.2f}s")

    _line(1, "entropy constants", failures)
    assert not failures, failures


def test_criterion_2_ssfti_equality_family():
    failures = []
    start = time.perf_counter()
    for s in (0.5, 1.0, 1.5, 2.0, 3.0):
        report = verify("SSFTI", {"mu": make_semicircular(0.0, s * s),
                                  "nu": make_semicircular(0.0, 1.0 / (s * s))})
        target = (s - 1.0 / s) ** 2
        if abs(report.lhs - target) >= 1e-3:
            failures.append(f"s={s}: lhs={report.lhs:.6f}, want {target:.6f}")
        if abs(report.deficit) >= 1e-3:
            failures.append(f"s={s}: deficit={report.deficit:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"family took {elapsed:.2f}s")
    _line(2, "SSFTI equality family", failures)
    assert not failures, failures


def test_criterion_3_barycenter_corrected_ssfti():
    failures = []
    sigma = make_semicircular()
    report = verify("SSFTI_GENERAL", {"mu": translate(sigma, 1.0),
                                      "nu": translate(sigma, -1.0)})
    if abs(report.lhs - 4.0) >= 1e-3:
        failures.append(f"lhs={report.lhs:.6f}, want 4")
    if abs(report.rhs - 4.0) >= 1e-3:
        failures.append(f"rhs={report.rhs:.6f}, want 4")

    rng = np.random.default_rng(402)
    for k in range(10):
        if k % 2 == 0:
            mu = make_semicircular(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        else:
            mu = make_arcsine(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        nu = make_semicircular(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        a = rng.uniform(-2.0, 2.0)
        defect = translation_identity_check(mu, nu, a)
        if defect >= 1e-6:
            failures.append(f"probe {k}: translation defect {defect:.2e}")
    _line(3, "barycenter-corrected SSFTI", failures)
    assert not failures, failures


def test_criterion_4_inverse_free_lsi():
    failures = []
    start = time.perf_counter()
    for c in (0.25, 1.0, 4.0):
        report = verify("INVERSE_FREE_LSI", {"f": quadratic(c)})
        if abs(report.deficit) >= 1e-3:
            failures.append(f"c={c}: deficit={report.deficit:.2e}")
    report = verify("INVERSE_FREE_LSI", {"f": quartic(0.25)})
    if not report.deficit > 1e-3:
        failures.append(f"quartic deficit={report.deficit:.6f}, not strictly positive")
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"took {elapsed:.2f}s")
    _line(4, "inverse free LSI", failures)
    assert not failures, failures


_MIXTURE_COEFFS = (
    (0.10, 0.50), (0.25, 0.25), (0.50, 0.125), (0.75, 0.40), (1.00, 0.05),
    (1.25, 0.20), (1.50, 0.10), (0.30, 0.35), (0.60, 0.15), (2.00, 0.30),
)


def test_criterion_5_santalo_duality():
    failures = []
    cfg = SolverSettings(nodes=2048)
    doubled = 2.0 * free_pressure(quadratic(1.0), cfg)
    if abs(doubled - np.log(2.0 * np.pi)) >= 1e-3:
        failures.append(f"2 eta(x^2/2)={doubled:.6f}, want log(2 pi)")

    for c2, c4 in _MIXTURE_COEFFS:
        f = polynomial_even(c2, c4)
        report = verify("FREE_SANTALO", {"f": f, "g": legendre_transform(f)},
                        cfg=cfg)
        if not report.passed:
            failures.append(f"(c2={c2},c4={c4}): deficit={report.deficit:.2e}")

    report = verify("INVERSE_SANTALO", {"f": quadratic(1.0)}, cfg=cfg)
    target = np.log(2.0 * np.pi) - np.log(np.pi ** 2 / 2.0)
    if abs(report.deficit - target) >= 1e-3:
        failures.append(f"quadratic inverse deficit={report.deficit:.6f}, "
                        f"want {target:.6f}")
    _line("5a", "Santalo duality", failures)
    assert not failures, failures


def test_criterion_5_arcsine_inverse_santalo_equality():
    # flat arcsine wells are the equality case of the inverse-Santalo floor:
    # both conjugate pressures together come to log(pi^2/2) at every radius,
    # log(pi^2/8) above the classical constant log(4).
    report = verify("INVERSE_SANTALO", {"f": arcsine_indicator(1.0)},
                    cfg=SolverSettings(nodes=2048))
    failures = []
    if not report.deficit < 1e-3:
        failures.append(f"arcsine deficit={report.deficit:.7f} "
                        f"(log(pi^2/8)={np.log(np.pi ** 2 / 8.0):.7f})")
    _line("5b", "inverse Santalo arcsine equality", failures)
    assert not failures, failures


def _fekete_endpoint(u, n, lo, hi):
    x0 = lo + (hi - lo) * (np.arange(n) + 0.5) / n

    def objective(x):
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        pot = np.sum(u.value(x)) / n
        inter = np.log(np.maximum(np.abs(d), 1e-300))
        np.fill_diagonal(inter, 0.0)
        f = pot - np.sum(inter) / (n * n)
        grad = u.d(x) / n - 2.0 * (np.sum(1.0 / d, axis=1) - 1.0) / (n * n)
        return f, grad

    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options=dict(maxiter=30000, maxfun=60000, ftol=0.0,
                                gtol=1e-11, maxcor=25))
    assert res.status == 0
    return float(np.max(res.x))


def _particle_edge(u, lo, hi):
    """b(n) = b - g n^(-2/3) - d/n fitted at n = 100, 200, 400."""
    ns = np.array([100, 200, 400])
    tops = np.array([_fekete_endpoint(u, n, lo, hi) for n in ns])
    design = np.column_stack([np.ones(3), -ns ** (-2.0 / 3.0), -1.0 / ns])
    return float(np.linalg.solve(design, tops)[0])


def _mix(u, v, t):
    return Potential(
        fn=lambda x: (1.0 - t) * u.fn(x) + t * v.fn(x),
        deriv=lambda x: (1.0 - t) * u.d(x) + t * v.d(x),
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=True, growth_ok=True,
        label=f"mix({u.label},{v.label},{t:g})",
    )


def test_criterion_6_equilibrium_solver():
    failures = []
    start = time.perf_counter()

    res = solve_equilibrium(quadratic(1.0))
    if res.el_residual >= 1e-5:
        failures.append(f"quadratic EL residual {res.el_residual:.2e}")
    if abs(res.support_hi - 2.0) >= 1e-6 or abs(res.support_lo + 2.0) >= 1e-6:
        failures.append(f"quadratic support [{res.support_lo}, {res.support_hi}]")

    quart = quartic(0.25)
    edge = _particle_edge(quart, -1.4, 1.4)
    solved = solve_equilibrium(quart)
    if abs(edge - solved.support_hi) >= 1e-3:
        failures.append(f"particle edge {edge:.6f} vs solver {solved.support_hi:.6f}")

    cfg = SolverSettings(nodes=2048)
    base = free_pressure(quart, cfg)
    shifted = free_pressure(shift_potential(quart, 0.8), cfg)
    if abs(shifted - base) >= 1e-6:
        failures.append(f"shift gap {abs(shifted - base):.2e}")

    u0 = quadratic(1.0)
    u1 = polynomial_even(0.5, 0.125)
    p0 = free_pressure(u0, cfg)
    p1 = free_pressure(u1, cfg)
    for t in (0.3, 0.6):
        pt = free_pressure(_mix(u0, u1, t), cfg)
        if pt > (1.0 - t) * p0 + t * p1 + 1e-6:
            failures.append(f"convexity fails at t={t}: {pt:.8f}")
    wobble = Potential(
        fn=lambda x: 0.5 * x * x + 0.2 * np.cos(x),
        deriv=lambda x: x - 0.2 * np.sin(x),
        domain_lo=-np.inf, domain_hi=np.inf,
        is_convex=True, growth_ok=True, label="quadratic+0.2cos")
    if abs(free_pressure(wobble, cfg) - p0) > 0.2 + 1e-6:
        failures.append("pressure moved by more than the sup-norm distance")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s")
    _line(6, "equilibrium solver", failures)
    assert not failures, failures


def _atomic_quantile_cost(a: AtomicMeasure, b: AtomicMeasure) -> float:
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


def test_criterion_7_transport_oracles():
    failures = []
    rng = np.random.default_rng(913)
    for k in range(50):
        na, nb = rng.integers(1, 9, size=2)
        wa = rng.random(na) + 0.05
        wb = rng.random(nb) + 0.05
        a = AtomicMeasure(np.sort(rng.normal(size=na)), wa / wa.sum())
        b = AtomicMeasure(np.sort(rng.normal(size=nb)), wb / wb.sum())
        gap = abs(w2_atomic_oracle(a, b).cost_squared - _atomic_quantile_cost(a, b))
        if gap >= 1e-12:
            failures.append(f"atomic pair {k}: gap {gap:.2e}")

    for k in range(20):
        mu = make_semicircular(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        nu = make_arcsine(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        polarized = moment(mu, 2) + moment(nu, 2) - 2.0 * max_correlation(mu, nu)
        gap = abs(polarized - w2(mu, nu).cost_squared)
        if gap >= 1e-8:
            failures.append(f"grid pair {k}: polarization gap {gap:.2e}")
    _line(7, "transport oracles", failures)
    assert not failures, failures


def test_criterion_8_rmt_suite():
    failures = []
    start = time.perf_counter()

    for n in (1, 7, 128):
        defect = gue_entropy_identity(n)
        if abs(defect) >= 1e-12:
            failures.append(f"gue defect at N={n}: {defect:.2e}")

    thresholds = {8: 0.15, 16: 0.08, 32: 0.05, 64: 0.03}
    for n, bound in thresholds.items():
        value = micro_pressure_estimate(quadratic(1.0), R=2.5, N=n)
        if abs(value - HALF_LOG_2PI) >= bound:
            failures.append(f"micro pressure N={n}: {value:.6f}")

    slack = matrix_fenchel_young_check(quadratic(1.0), quadratic(1.0),
                                       N=8, trials=1000, seed=2)
    if not slack >= -1e-10:
        failures.append(f"fenchel-young min slack {slack:.2e}")

    eq = solve_equilibrium(quadratic(1.0), SolverSettings(nodes=2048))
    sample = sample_eigenvalues(quadratic(1.0), 64, sweeps=300, seed=21, chains=8)
    ks = empirical_vs_equilibrium(sample, eq).statistic[0]
    if ks >= 0.08:
        failures.append(f"pooled KS at N=64: {ks:.4f}")

    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s")
    _line(8, "rmt suite", failures)
    assert not failures, failures


def test_criterion_9_full_manifest_sweep(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code = main(["verify-suite", "--manifest", MANIFEST_V1,
                 "--nodes", "2048", "--out", str(summary)])
    lines = summary.read_text().splitlines() if summary.exists() else []
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    rows = lines[1:]
    if len(rows) < 40:
        failures.append(f"only {len(rows)} reports")
    failed_rows = [row for row in rows if row.endswith(",false")]
    if failed_rows:
        failures.append(f"{len(failed_rows)} failed reports")
    kinds = {row.split(",")[0] for row in rows}
    if kinds != set(KINDS):
        failures.append(f"kinds covered: {sorted(kinds)}")
    with capsys.disabled():
        _line(9, "full manifest sweep", failures)
    assert not failures, failures

"""Finite-N random-matrix counterparts of the equilibrium quantities.

The continuum objects in the rest of the package arise as N -> infinity
limits of Hermitian matrix models.  This module keeps the dictionary
honest at desk scale: a Metropolis sampler for the beta = 2 eigenvalue
gas, the exact entropy renormalization that fixes the (1/2) log N
counterterm, the finite-N matrix-integral pressure (exact at every N
through the orthogonal polynomials of exp(-N u) on a cutoff box), and
the trace form of the Fenchel-Young inequality.

All matrix integrals are taken against Lebesgue measure on the
Hilbert-Schmidt isometry coordinates (diagonal entries plus sqrt(2) times
the real and imaginary off-diagonal parts), so constants are comparable
across N without further bookkeeping.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._grids import gauss_legendre_01
from .equilibrium import EquilibriumResult, solve_equilibrium
from .errors import InvalidInputError, SolverError
from .logpotential import integrate_potential
from .measures import GridMeasure
from .potentials import Potential, fenchel_young_gap

__all__ = [
    "ConvergenceSeries",
    "EnsembleSample",
    "empirical_vs_equilibrium",
    "gue_entropy_identity",
    "log_joint_density",
    "matrix_fenchel_young_check",
    "micro_pressure_estimate",
    "rate_gap_per_sweep",
    "sample_eigenvalues",
]

MAX_PARTICLES = 512
# Gauss-Legendre nodes of the pressure rule: the floor resolves the
# |y|^(4/3) cusp of legendre(quartic) at 0 to 1e-8
PRESSURE_NODES = 4096

_TUNE_WINDOW = 50
_ACCEPT_LO, _ACCEPT_HI = 0.2, 0.6


@dataclass(frozen=True)
class EnsembleSample:
    """Retained sweeps of the eigenvalue gas for one potential."""

    N: int
    potential: Potential
    chains: int
    eigenvalue_sets: tuple
    acceptance_rate: float
    seed: int

    def __post_init__(self):
        if self.N < 1:
            raise InvalidInputError("need at least one eigenvalue")
        if not 0.0 < self.acceptance_rate < 1.0:
            raise InvalidInputError("acceptance rate must sit strictly inside (0,1)")
        for xs in self.eigenvalue_sets:
            if len(xs) != self.N or np.any(np.diff(xs) < 0):
                raise InvalidInputError("eigenvalue sets must be sorted, length N")


@dataclass(frozen=True)
class ConvergenceSeries:
    """A statistic tracked along increasing matrix size."""

    n_values: tuple
    statistic: tuple
    target: float | None
    label: str

    def __post_init__(self):
        if len(self.n_values) != len(self.statistic):
            raise InvalidInputError("series lengths differ")
        if np.any(np.diff(self.n_values) <= 0):
            raise InvalidInputError("matrix sizes must be strictly increasing")


def log_joint_density(u: Potential, xs) -> float:
    """Unnormalized log-density of the eigenvalue gas at the configuration xs.

    2 sum_{i<j} log|x_i - x_j| - N sum_i u(x_i); -inf on touching
    coordinates or outside the domain of u.
    """
    xs = np.asarray(xs, dtype=float)
    pot = np.sum(u.value(xs))
    if not np.isfinite(pot):
        return -np.inf
    diffs = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(xs.size, k=1)
    if np.any(diffs[iu] == 0.0):
        return -np.inf
    return float(2.0 * np.sum(np.log(diffs[iu])) - xs.size * pot)


def _run_chain(u, n, sweeps, burn_in, scale, rng):
    if np.isfinite(u.domain_lo) and np.isfinite(u.domain_hi):
        x = u.domain_lo + (u.domain_hi - u.domain_lo) * (0.1 + 0.8 * rng.random(n))
    else:
        x = np.sort(rng.standard_normal(n))
    pot = np.asarray(u.value(x), dtype=float)
    kept = []
    accepted = proposed = 0
    win_acc = win_prop = 0
    for sweep in range(burn_in + sweeps):
        for i in range(n):
            cand = x[i] + scale * rng.standard_normal()
            vc = float(u.value(cand))
            ratio = -np.inf
            if np.isfinite(vc):
                d_new = np.abs(cand - x)
                d_old = np.abs(x[i] - x)
                d_new[i] = d_old[i] = 1.0
                if np.all(d_new > 0.0):
                    ratio = 2.0 * float(np.sum(np.log(d_new)) - np.sum(np.log(d_old))) \
                        - n * (vc - pot[i])
            if ratio >= 0.0 or rng.random() < np.exp(ratio):
                x[i] = cand
                pot[i] = vc
                accepted += 1
                win_acc += 1
            proposed += 1
            win_prop += 1
        if sweep < burn_in:
            if (sweep + 1) % _TUNE_WINDOW == 0:
                rate = win_acc / win_prop
                if rate < _ACCEPT_LO:
                    scale *= 0.7
                elif rate > _ACCEPT_HI:
                    scale *= 1.3
                win_acc = win_prop = 0
            if sweep == burn_in - 1:
                accepted = proposed = 0  # burn-in proposals do not count
        else:
            kept.append(np.sort(x))
    return kept, accepted, proposed, scale


def sample_eigenvalues(u: Potential, N: int, sweeps: int, seed: int = 0,
                       chains: int = 1, burn_in: int | None = None,
                       proposal_scale: float | None = None) -> EnsembleSample:
    """Metropolis sampler for the beta = 2 eigenvalue gas of u at size N.

    Single-coordinate Gaussian proposals; the step size is tuned toward the
    [0.2, 0.6] acceptance band during burn-in and frozen afterwards, so the
    retained chain is a clean MH chain.  Chains run with seeds split off the
    master seed and are concatenated in chain order, which makes the output
    bit-reproducible regardless of scheduling.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (N, sweeps, chains)):
        raise InvalidInputError("N, sweeps and chains must be integers")
    if N < 1 or N > MAX_PARTICLES:
        raise InvalidInputError(f"N must lie in [1, {MAX_PARTICLES}]")
    if sweeps < 1 or chains < 1:
        raise InvalidInputError("need at least one sweep and one chain")
    if not u.growth_ok and not (np.isfinite(u.domain_lo) and np.isfinite(u.domain_hi)):
        raise InvalidInputError(
            f"{u.label} lacks the growth needed to confine the gas")
    if burn_in is None:
        burn_in = max(150, sweeps // 4)
    if proposal_scale is None:
        proposal_scale = max(0.05, 1.0 / math.sqrt(N))

    master = np.random.SeedSequence(seed)
    kept = []
    accepted = proposed = 0
    for child in master.spawn(chains):
        rng = np.random.Generator(np.random.PCG64(child))
        sets, acc, prop, _ = _run_chain(u, N, sweeps, burn_in, proposal_scale, rng)
        kept.extend(sets)
        accepted += acc
        proposed += prop
    rate = accepted / proposed
    if rate < 0.01:
        raise SolverError(
            f"sampler acceptance collapsed for {u.label}: rate {rate:.4f} "
            f"after tuning, N={N}, initial scale {proposal_scale:g}")
    return EnsembleSample(N=N, potential=u, chains=chains,
                          eigenvalue_sets=tuple(kept),
                          acceptance_rate=rate, seed=seed)


def gue_entropy_identity(N: int) -> float:
    """Defect of (1/N^2) S(GUE_N) + (1/2) log N against (1/2) log(2 pi e).

    Under the isometry with sqrt(2)-scaled off-diagonal parts, the GUE with
    density exp(-(N^2/2) tr_N M^2) is exactly N^2 independent Gaussian
    coordinates of variance 1/N, so the differential entropy is closed-form
    and the defect vanishes identically in N.
    """
    if N < 1:
        raise InvalidInputError("N must be a positive integer")
    per_coordinate = 0.5 * np.log(2.0 * np.pi * np.e / N)
    total = N * N * per_coordinate              # N diagonal + N^2 - N off-diagonal
    return float(total / (N * N) + 0.5 * np.log(N) - 0.5 * np.log(2.0 * np.pi * np.e))


def _weyl_log_constant(n: int) -> float:
    # HS-Lebesgue on matrices = c_n * Vandermonde^2 on eigenvalues,
    # c_n = (2 pi)^(n(n-1)/2) / prod_{j<=n} j!
    return 0.5 * n * (n - 1) * math.log(2.0 * math.pi) \
        - sum(math.lgamma(j + 1) for j in range(1, n + 1))


def micro_pressure_estimate(u: Potential, R: float, N: int) -> float:
    """Finite-N matrix-model pressure (1/N^2) log Z + (1/2) log N.

    Z integrates exp(-N tr_N u(M)) over the Hermitian N x N matrices whose
    eigenvalues lie in the box [-R, R].  The eigenvalue integral is
    N! prod_{k<N} h_k, with h_k the squared norms of the monic orthogonal
    polynomials of exp(-N u) on the box.  The discretized Stieltjes
    procedure gives them as products of the recurrence coefficients
    beta_k, run on sqrt-weighted orthonormal vectors over
    max(PRESSURE_NODES, 16 N) Gauss-Legendre nodes so that nothing
    overflows.  The value is exact up to that rule.  R must cover the
    equilibrium support, so the box only trims the tails of the gas.
    """
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= 256:
        raise InvalidInputError("N must be an integer in [1, 256]")
    if not (math.isfinite(R) and R > 0):
        raise InvalidInputError("cutoff radius must be positive and finite")
    lo = max(-R, u.domain_lo)
    hi = min(R, u.domain_hi)
    if hi <= lo:
        raise InvalidInputError("cutoff box misses the domain of the potential")
    res = solve_equilibrium(u)
    radius = max(abs(res.support_lo), abs(res.support_hi))
    if radius > R:
        raise InvalidInputError(
            f"cutoff {R:g} truncates the equilibrium support (radius {radius:g})")

    t, w = gauss_legendre_01(max(PRESSURE_NODES, 16 * N))
    xs = lo + (hi - lo) * t
    log_w = np.log((hi - lo) * w) - N * np.asarray(u.value(xs), dtype=float)
    shift = float(np.max(log_w))
    r = np.exp(0.5 * (log_w - shift))
    q_prev = np.zeros_like(r)
    log_beta = np.empty(N)
    for k in range(N):
        beta = float(r @ r)
        log_beta[k] = math.log(beta)
        root = math.sqrt(beta)
        q = r / root
        r = (xs - float(xs @ (q * q))) * q - root * q_prev
        q_prev = q
    # log h_k = shift + log beta_0 + ... + log beta_k
    log_z = math.lgamma(N + 1) + N * shift + float(np.sum(np.cumsum(log_beta)))
    return (_weyl_log_constant(N) + log_z) / (N * N) + 0.5 * math.log(N)


def matrix_fenchel_young_check(f: Potential, g: Potential, N: int,
                               trials: int, seed: int = 0) -> float:
    """Minimum of tr_N f(X) + tr_N g(Y) - tr_N(XY) over random matrix pairs.

    The scalar bound f(x) + g(y) >= xy transfers to traces by matching the
    sorted spectra, so the returned slack must be nonnegative up to
    roundoff whenever the lattice hypothesis holds.
    """
    if N < 1 or trials < 1:
        raise InvalidInputError("need N >= 1 and at least one trial")
    fenchel_young_gap(f, g, box=4.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    worst = np.inf
    for _ in range(trials):
        a = rng.standard_normal((N, N))
        b = rng.standard_normal((N, N))
        x = (a + a.T) / math.sqrt(2.0 * N)
        y = (b + b.T) / math.sqrt(2.0 * N)
        lx = np.linalg.eigvalsh(x)
        ly = np.linalg.eigvalsh(y)
        slack = float(np.mean(f.value(lx)) + np.mean(g.value(ly))
                      - np.sum(x * y) / N)
        worst = min(worst, slack)
    return worst


def _potential_match(u: Potential, eq: EquilibriumResult, enforce: bool):
    # the stored moment int u d(nu) is exact from the solver; recomputing it
    # for the claimed potential exposes a swapped reference immediately
    recomputed = float(integrate_potential(eq.measure, u))
    gap = abs(recomputed - eq.potential_moment)
    if enforce and gap > 1e-4 * (1.0 + abs(eq.potential_moment)):
        raise InvalidInputError(
            f"equilibrium result does not match potential {u.label}: "
            f"stored moment {eq.potential_moment:.6g}, recomputed {recomputed:.6g}")


def _pooled_ks(sets, mu: GridMeasure) -> float:
    pooled = np.sort(np.concatenate([np.asarray(s) for s in sets]))
    m = pooled.size
    cdf = mu.cdf(pooled)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.max(np.maximum(np.abs(cdf - hi), np.abs(cdf - lo))))


def empirical_vs_equilibrium(samples, eq: EquilibriumResult,
                             enforce_match: bool = True) -> ConvergenceSeries:
    """KS distance of the pooled empirical spectrum to the equilibrium, per N.

    Accepts one sample or a sequence over increasing N.  ``enforce_match``
    requires every sample's potential to be the one the equilibrium was
    solved for; pass False to measure the distance against a deliberately
    wrong reference.
    """
    if isinstance(samples, EnsembleSample):
        samples = [samples]
    else:
        samples = list(samples)
    if not samples:
        raise InvalidInputError("no samples given")
    label = samples[0].potential.label
    for s in samples:
        if s.potential.label != label:
            raise InvalidInputError("samples mix different potentials")
        _potential_match(s.potential, eq, enforce_match)
    samples.sort(key=lambda s: s.N)
    return ConvergenceSeries(
        n_values=tuple(s.N for s in samples),
        statistic=tuple(_pooled_ks(s.eigenvalue_sets, eq.measure) for s in samples),
        target=0.0,
        label=f"ks({label})",
    )


def rate_gap_per_sweep(sample: EnsembleSample, eq: EquilibriumResult,
                       enforce_match: bool = True) -> np.ndarray:
    """J(empirical) - J(equilibrium) per retained sweep, J the rate integrand.

    J(mu) = int u d(mu) - log-energy(mu), with the empirical double sum
    taken off-diagonal.  The equilibrium minimizes J, so the gaps sit above
    a small Monte-Carlo floor.
    """
    _potential_match(sample.potential, eq, enforce_match)
    u = sample.potential
    n = sample.N
    reference = eq.potential_moment - eq.energy
    gaps = np.empty(len(sample.eigenvalue_sets))
    for k, xs in enumerate(sample.eigenvalue_sets):
        xs = np.asarray(xs)
        diffs = np.abs(xs[:, None] - xs[None, :])
        iu = np.triu_indices(n, k=1)
        energy = 2.0 * float(np.sum(np.log(diffs[iu]))) / (n * n)
        gaps[k] = float(np.mean(u.value(xs))) - energy - reference
    return gaps

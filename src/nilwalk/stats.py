"""Central limit statistics for character sums along walk paths.

For a validated character chi with transfer eigenvalue c, |c| < 1, the
observable A = Re chi has the explicit Poisson solution B = Re(chi/(1-c)),
so S_N = N^(-1/2) sum_{n<=N} A(x_n) decomposes into a martingale plus a
bounded boundary term.  The limit variance has the closed form

    sigma^2 = (1 - |c|^2) / (2 |1 - c|^2),

and can also be estimated path-wise from the conditional increment
variance q_n = sum_j p_j B(g_j x_{n-1})^2 - (sum_j p_j B(g_j x_{n-1}))^2;
clt_experiment measures both and runs a Kolmogorov-Smirnov comparison of
the empirical S_N distribution against the predicted normal.  Paths run
on the config's level-0 coordinates (the abelianized torus), where the
proposal values B(g_j x_(n-1)) come from chi at x_(n-1) + shift_j; a
zero-shift generator reuses chi(x_(n-1)) from the step before, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import (
    Character,
    WalkConfig,
    _eigenvalue,
    run_chunks,
    sample_paths,
    torus_characters,
)

__all__ = [
    "ResonanceError",
    "closed_form_sigma",
    "CLTReport",
    "clt_experiment",
    "lemma_a1_check",
    "LemmaReport",
]


class ResonanceError(Exception):
    """|c| = 1: no spectral gap at this frequency, no CLT normalization."""


def closed_form_sigma(c: complex) -> float:
    """Limit standard deviation of S_N for the observable Re chi."""
    gap = abs(1 - c)
    if gap < 1e-12 or abs(c) > 1 - 1e-12:
        raise ResonanceError(f"eigenvalue {c} leaves no spectral gap")
    return math.sqrt((1 - abs(c) ** 2) / (2 * gap**2))


@dataclass(frozen=True)
class CLTReport:
    N: int
    trials: int
    eigenvalue: complex
    sigma_model: float
    sigma_martingale: float
    sigma_empirical: float
    ks_statistic: float
    ks_pvalue: float
    mean: float
    degenerate: bool


def _clt_chunk(config, char, w, N, size, rng):
    """S_N of each path in the chunk, and the summed increment variances.

    Each step evaluates chi on every generator's proposal prev + shift
    (chi is reduction invariant, so the proposals need no lattice
    reduction) and on the new state.  A generator whose shift is exactly
    zero proposes prev itself (prev + 0.0 is prev bit for bit, as no state
    is -0.0), so it reuses `held`, the value at prev kept from the step
    before: one complex exponential per moving generator, plus one for
    the state."""
    pfloat = np.asarray([float(p) for p in config.probs])
    still = [not shift.any() for shift in config.shifts]
    path_sum = np.zeros(size)
    q_total = 0.0
    held = char.values(np.zeros((size, len(char.lam))))
    for prev, t in sample_paths(config, size, rng, N):
        # conditional variance of the increment that led to t
        b1 = np.zeros(size)
        b2 = np.zeros(size)
        for p, shift, zero in zip(pfloat, config.shifts, still):
            v = held if zero else char.values(prev + shift)
            # Re(w v) as two separately rounded products, which no SIMD
            # dispatch fuses into one rounding as it can w * v
            b = v.real * w.real - v.imag * w.imag
            b1 += p * b
            b2 += p * b * b
        q_total += float(np.sum(b2 - b1 * b1))
        held = char.values(t)
        path_sum += np.real(held)
    return path_sum / math.sqrt(N), q_total


def clt_experiment(
    config: WalkConfig, char: Character, N: int, trials: int, seed: int
) -> CLTReport:
    """Distribution of S_N over independent paths started at the identity.

    The Kolmogorov-Smirnov statistic compares the empirically centered
    S_N sample with Normal(0, sigma_model); sigma_martingale averages
    the conditional increment variances over all paths and steps, which
    converges to the same limit when the walk equidistributes.  As in
    correlation_sweep, the paths run on the abelianized torus, once
    torus_characters has validated the character and cut it to level 0.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if trials < 100:
        raise ValueError("too few trials for a distributional test")
    torus_char = torus_characters(config, [char])[0]
    c, resonant = _eigenvalue(config, torus_char.lam)
    if resonant:
        raise ResonanceError(f"character {char.lam} is resonant for these generators")
    sigma_model = closed_form_sigma(c)

    results = run_chunks(_clt_chunk, config, trials, seed, torus_char, 1.0 / (1.0 - c), N)
    samples = np.concatenate([s for s, _ in results])
    q_mean = sum(q for _, q in results) / (trials * N)
    sigma_mart = math.sqrt(max(0.0, q_mean))

    mean = float(np.mean(samples))
    centered = samples - mean
    sigma_emp = float(np.std(centered))
    from scipy import stats as spstats  # slow to import; only the KS test needs it

    ks_stat, ks_p = spstats.kstest(centered, "norm", args=(0.0, sigma_model))
    return CLTReport(
        N=N,
        trials=trials,
        eigenvalue=c,
        sigma_model=sigma_model,
        sigma_martingale=sigma_mart,
        sigma_empirical=sigma_emp,
        ks_statistic=float(ks_stat),
        ks_pvalue=float(ks_p),
        mean=mean,
        # never true: closed_form_sigma refuses every c with sigma_model
        # below sqrt((1 - (1 - 1e-12)^2) / 8) > 4.9e-7
        degenerate=sigma_model < 1e-9,
    )


# -- the elementary cosine bound ------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    ok: bool
    min_residual: float
    argmin: float
    grid: int


# The scan holds LEMMA_CHUNK points at a time (a 15 MB peak by tracemalloc),
# so its memory does not grow with the grid; the cap bounds its time.
MAX_LEMMA_GRID = 1 << 24
LEMMA_CHUNK = 1 << 18


def lemma_a1_check(grid: int = 1_000_001, tol: float = 1e-12) -> LemmaReport:
    """Verify |1 + e(theta)| <= 2 - 8 theta^2 on [-1/2, 1/2] numerically.

    |1 + e^(2 pi i theta)| = 2 cos(pi theta) there, so the residual
    (2 - 8 theta^2) - 2 cos(pi theta) must be nonnegative up to rounding;
    equality holds at theta = 0 and theta = +-1/2.  The grid needs both
    endpoints, so at least 2 points, and at most MAX_LEMMA_GRID.  It is
    scanned in chunks of LEMMA_CHUNK points, theta_i = i / (grid - 1) -
    1/2 computed as np.linspace does, bit for bit, and the first minimum
    is kept.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    if grid > MAX_LEMMA_GRID:
        raise ValueError(f"grid must be at most {MAX_LEMMA_GRID}, got {grid}")
    step = 1.0 / (grid - 1)
    best = (math.inf, 0.0)
    for lo in range(0, grid, LEMMA_CHUNK):
        theta = np.arange(lo, min(lo + LEMMA_CHUNK, grid), dtype=float) * step - 0.5
        if lo + LEMMA_CHUNK >= grid:
            theta[-1] = 0.5
        residual = (2.0 - 8.0 * theta**2) - np.abs(1.0 + np.exp(2j * np.pi * theta))
        i = int(np.argmin(residual))
        if residual[i] < best[0]:
            best = (float(residual[i]), float(theta[i]))
    min_residual, argmin = best
    return LemmaReport(
        ok=min_residual >= -tol,
        min_residual=min_residual,
        argmin=argmin,
        grid=grid,
    )

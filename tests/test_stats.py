import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nilwalk
from nilwalk import catalog, stats
from nilwalk.lie_core import LieVector
from nilwalk.stats import (
    ResonanceError,
    _clt_chunk,
    closed_form_sigma,
    clt_experiment,
    lemma_a1_check,
)
from nilwalk.walk import (
    Character,
    golden_heisenberg_config,
    sample_paths,
    transfer_eigenvalue,
    walk_config,
)

F = Fraction


def quarters_config():
    """Jumps of 1/4 and 3/4: the frequency-1 eigenvalue is exactly zero,
    so successive observations decorrelate in one step."""
    return walk_config(
        catalog.abelian(1),
        [LieVector([F(1, 4)]), LieVector([F(3, 4)])],
        [F(1, 2), F(1, 2)],
    )


def test_closed_form_sigma_values():
    assert closed_form_sigma(0.0) == pytest.approx(math.sqrt(0.5))
    # real c: sigma^2 = (1 - c^2) / (2 (1 - c)^2) = (1 + c) / (2 (1 - c))
    assert closed_form_sigma(0.5) == pytest.approx(math.sqrt(1.5))
    assert closed_form_sigma(-0.5) == pytest.approx(math.sqrt(1.0 / 6.0))


def test_closed_form_sigma_resonance():
    # anywhere on the unit circle the gap vanishes, including c = -1
    for c in (1.0, -1.0, complex(math.cos(1.0), math.sin(1.0))):
        with pytest.raises(ResonanceError):
            closed_form_sigma(c)


def test_lazy_walks_have_half_variance():
    # c = (1 + e(theta))/2 satisfies Re c = |c|^2, so sigma^2 = 1/2 always
    cfg = golden_heisenberg_config()
    for lam in ((1, 0, 0), (0, 1, 0), (3, -2, 0)):
        c, _ = transfer_eigenvalue(cfg, Character(lam))
        assert closed_form_sigma(c) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def central_middle_config():
    """Heisenberg walk whose middle generator (0, 0, 1/2) is central, so
    its torus shift is zero while the other two move."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return walk_config(
        catalog.heisenberg(),
        [
            LieVector([F(phi), F(math.sqrt(2.0) - 1.0), F(0)]),
            LieVector([F(0), F(0), F(1, 2)]),
            LieVector([F(math.sqrt(3.0) - 1.0), F(-1, 3), F(1, 5)]),
        ],
        [F(1, 4), F(1, 2), F(1, 4)],
    )


def moving_config():
    """Heisenberg walk in which no generator has a zero torus shift."""
    return walk_config(
        catalog.heisenberg(),
        [
            LieVector([F(math.sqrt(5.0) - 2.0), F(1, 3), F(0)]),
            LieVector([F(-1, 7), F(math.sqrt(2.0) - 1.0), F(1, 2)]),
        ],
        [F(2, 5), F(3, 5)],
    )


def _reference_clt_chunk(config, char, w, N, size, rng):
    """The CLT chunk that evaluates chi on every proposal prev + shift."""
    pfloat = np.asarray([float(p) for p in config.probs])
    path_sum = np.zeros(size)
    q_total = 0.0
    for prev, t in sample_paths(config, size, rng, N):
        b1 = np.zeros(size)
        b2 = np.zeros(size)
        for p, shift in zip(pfloat, config.shifts):
            v = char.values(prev + shift)
            b = v.real * w.real - v.imag * w.imag
            b1 += p * b
            b2 += p * b * b
        q_total += float(np.sum(b2 - b1 * b1))
        path_sum += np.real(char.values(t))
    return path_sum / math.sqrt(N), q_total


@pytest.mark.parametrize(
    "make, lam, moving",
    [
        (golden_heisenberg_config, (1, 0, 0), 1),
        (central_middle_config, (2, -1, 0), 2),
        (moving_config, (1, 1, 0), 2),
    ],
)
def test_clt_chunk_reuses_held_value_bitwise(make, lam, moving):
    """A zero-shift generator reuses the state's value from the step
    before; path sums and increment variances stay bit for bit those of
    evaluating every proposal, with one exponential per moving generator
    and one for the state."""
    cfg = make()
    c, _ = transfer_eigenvalue(cfg, Character(lam))
    char = Character(lam[: cfg.shifts.shape[1]])
    w = 1.0 / (1.0 - c)
    N, size = 40, 1000
    calls = []
    values = char.values

    def counted(t):
        calls.append(len(t))
        return values(t)

    for seed in (1, 2):
        want = _reference_clt_chunk(cfg, char, w, N, size, np.random.default_rng(seed))
        calls.clear()
        char.values = counted
        try:
            got = _clt_chunk(cfg, char, w, N, size, np.random.default_rng(seed))
        finally:
            del char.values
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert len(calls) == 1 + N * (moving + 1)


def test_clt_iid_control():
    rep = clt_experiment(quarters_config(), Character((1,)), N=256, trials=1000, seed=3)
    assert rep.sigma_model == pytest.approx(math.sqrt(0.5))
    # on the four-point orbit the increment variance is exactly 1/2
    assert rep.sigma_martingale == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert rep.ks_statistic < 0.05
    assert not rep.degenerate


def test_clt_heisenberg_golden():
    cfg = golden_heisenberg_config()
    rep = clt_experiment(cfg, Character((1, 0, 0)), N=512, trials=1500, seed=5)
    assert rep.ks_statistic < 0.05
    assert abs(rep.sigma_martingale / rep.sigma_model - 1.0) < 0.05
    assert abs(rep.sigma_empirical / rep.sigma_model - 1.0) < 0.10
    assert abs(rep.mean) < 0.1


def test_clt_rejects_resonance_and_small_samples():
    cfg = walk_config(
        catalog.abelian(1),
        [LieVector([F(1, 3)]), LieVector([F(1, 3)])],
        [F(1, 2), F(1, 2)],
    )
    with pytest.raises(ResonanceError):
        clt_experiment(cfg, Character((3,)), N=16, trials=200, seed=1)
    with pytest.raises(ValueError):
        clt_experiment(quarters_config(), Character((1,)), N=16, trials=50, seed=1)


@pytest.mark.parametrize("N", [0, -2])
def test_clt_needs_positive_walk_length(N):
    with pytest.raises(ValueError, match="N must be at least 1"):
        clt_experiment(quarters_config(), Character((1,)), N=N, trials=200, seed=1)


def test_clt_deterministic():
    cfg = quarters_config()
    a = clt_experiment(cfg, Character((1,)), N=64, trials=300, seed=9)
    b = clt_experiment(cfg, Character((1,)), N=64, trials=300, seed=9)
    assert a == b


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import; only the KS test in
    # clt_experiment needs it, so importing the package must not load it
    src = os.path.dirname(os.path.dirname(nilwalk.__file__))
    code = "import sys, nilwalk; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_lemma_needs_both_endpoints(grid):
    with pytest.raises(ValueError, match="grid must be at least 2"):
        lemma_a1_check(grid=grid)


def test_lemma_grid_is_capped():
    # the cap bounds the scan's time; the refusal allocates nothing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid must be at most 16777216, got 16777217"):
            lemma_a1_check(grid=2**24 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _one_shot_lemma(grid):
    """The whole grid at once: (min_residual, argmin) of the chunked scan."""
    theta = np.linspace(-0.5, 0.5, grid)
    residual = (2.0 - 8.0 * theta**2) - np.abs(1.0 + np.exp(2j * np.pi * theta))
    i = int(np.argmin(residual))
    return float(residual[i]), float(theta[i])


@pytest.mark.parametrize("chunk", [7, 1000, stats.LEMMA_CHUNK])
@pytest.mark.parametrize("grid", [2, 3, 1001, 100_003, 3 * (1 << 18) + 17])
def test_lemma_scan_matches_one_shot(monkeypatch, chunk, grid):
    # the residual ties at theta = -1/2 and +1/2, in the first and the last
    # chunk, so the first minimum must survive the later chunks
    monkeypatch.setattr(stats, "LEMMA_CHUNK", chunk)
    rep = lemma_a1_check(grid=grid)
    assert (rep.min_residual, rep.argmin) == _one_shot_lemma(grid)
    assert rep.ok and rep.grid == grid


def test_lemma_scan_memory_is_bounded():
    # the whole grid at once would hold about 200 MB here
    tracemalloc.start()
    try:
        rep = lemma_a1_check(grid=1 << 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 64 << 20


def test_lemma_quadratic_cosine_bound():
    rep = lemma_a1_check(grid=100_001)
    assert rep.ok
    assert rep.min_residual >= -1e-12
    # equality is attained at the center and the endpoints
    assert abs(rep.argmin) in (0.0, 0.5)

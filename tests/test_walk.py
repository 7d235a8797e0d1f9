import math
import tracemalloc
from concurrent import futures
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from nilwalk import catalog, walk
from nilwalk.coords import SecondKindSystem
from nilwalk.lie_core import LieVector, rescale_levels
from nilwalk.stats import clt_experiment
from nilwalk.walk import (
    CHUNK,
    Character,
    ObservableError,
    abelianized_lambda_box,
    advance,
    correlation_sweep,
    draw_generators,
    gap_profile,
    golden_heisenberg_config,
    tame_decay_fit,
    transfer_eigenvalue,
    validate_observable,
    walk_config,
)

F = Fraction
PHI = (math.sqrt(5.0) - 1.0) / 2.0


def circle_config(*jumps, probs=None):
    gens = [LieVector([F(j)]) for j in jumps]
    if probs is None:
        probs = [F(1, len(gens))] * len(gens)
    return walk_config(catalog.abelian(1), gens, probs)


def triangular_config(s):
    """Lazy walk on triangular(s) whose moving generator has level-0
    coordinates (phi, sqrt 2 - 1, sqrt 3 - 1, sqrt 7 - 2)[:s] and no deeper part."""
    sc = catalog.triangular(s)
    head = [PHI, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(7.0) - 2.0][:s]
    move = LieVector([F(x) for x in head] + [F(0)] * (sc.dim - s))
    return walk_config(sc, [LieVector.zero(sc.dim), move], [F(1, 2), F(1, 2)])


WALKS = {
    "golden-heisenberg": golden_heisenberg_config,
    "triangular(3)": lambda: triangular_config(3),
    "triangular(4)": lambda: triangular_config(4),
}


# -- configuration -----------------------------------------------------------


def test_config_validation():
    sc = catalog.heisenberg()
    g = LieVector.zero(3)
    with pytest.raises(ValueError):
        walk_config(sc, [], [])
    with pytest.raises(ValueError):
        walk_config(sc, [g], [F(1, 2)])  # probabilities must sum to 1
    with pytest.raises(ValueError):
        walk_config(sc, [g, g], [F(1), F(0)])  # and be positive
    with pytest.raises(ValueError):
        walk_config(sc, [LieVector.zero(2)], [F(1)])


def test_config_requires_closed_lattice():
    from nilwalk.coords import LatticeError

    sc = catalog.example_3_2()
    with pytest.raises(LatticeError):
        walk_config(sc, [LieVector.zero(5)], [F(1)])


def test_config_builds_no_symbolic_group_law():
    # the lattice proof takes one exact product per nonzero bracket
    sc = catalog.triangular(4)
    cfg = walk_config(sc, [LieVector.zero(sc.dim)], [F(1)])
    assert "_law" not in cfg.system.__dict__


def test_golden_config_is_exact():
    cfg = golden_heisenberg_config()
    assert cfg.probs == (F(1, 2), F(1, 2))
    g2 = cfg.generators[1]
    assert float(g2.coords[0]) == PHI  # exact binary float, not an approximation
    assert g2.coords[2] == 0


# -- characters ---------------------------------------------------------------


def test_character_basics():
    ch = Character((2, -1, 0))
    assert ch.norm == math.sqrt(5.0)
    with pytest.raises(ValueError):
        Character((0, 0, 0))


def test_character_frequencies_are_integers():
    # int() truncated (0.5, 1.7, 0) to another observable, (0, 1, 0)
    for lam, entry in (((0.5, 1.7, 0), "0.5"), ((1, "2", 0), "'2'"), ((1, F(2), 0), "Fraction")):
        with pytest.raises(ValueError, match=f"a frequency entry must be an integer, got {entry}"):
            Character(lam)
    # numpy integers are integers
    assert Character(np.array([2, -1, 0])).lam == (2, -1, 0)
    assert all(type(v) is int for v in Character(np.array([2, -1, 0])).lam)


def test_character_phase_is_summed_left_to_right():
    # bit for bit the elementwise sum: a BLAS product t @ lam can round
    # with or without FMA by kernel
    t = np.random.default_rng(1).random((8192, 3))
    ref = np.exp(2j * np.pi * (t[:, 0] * 3.0 + t[:, 1] * 3.0 + t[:, 2] * 0.0))
    assert Character((3, 3, 0)).values(t).tobytes() == ref.tobytes()
    assert Character((3, 3, 0)).values(t[5]) == ref[5]
    for width in (2, 4):
        with pytest.raises(ValueError):
            Character((3, 3, 0)).values(np.zeros((4, width)))


def test_abelianized_box_count_and_order():
    box = abelianized_lambda_box(catalog.heisenberg(), 2)
    assert len(box) == 24  # 5^2 - 1
    assert box[0].lam in {(0, -1, 0), (-1, 0, 0), (1, 0, 0), (0, 1, 0)}
    norms = [ch.norm for ch in box]
    assert norms == sorted(norms)


def test_validation_accepts_abelianized_rejects_center(monkeypatch):
    cfg = golden_heisenberg_config()
    validate_observable(cfg, Character((1, -2, 0)))  # does not raise
    with pytest.raises(ObservableError):
        validate_observable(cfg, Character((0, 0, 1)))

    # a nonzero frequency on any level >= 1 fails validation on the full
    # config, so no walk is ever advanced for it
    def no_step(*args):
        raise AssertionError("advanced a walk for an invalid character")

    monkeypatch.setattr(walk, "advance", no_step)
    for make in WALKS.values():
        cfg = make()
        for i in range(cfg.sc.series.dims[0], cfg.dim):
            for head in (0, 1):
                lam = [0] * cfg.dim
                lam[0], lam[i] = head, 1
                ch = Character(lam)
                with pytest.raises(ObservableError):
                    validate_observable(cfg, ch)
                with pytest.raises(ObservableError):
                    correlation_sweep(cfg, [ch], [4], samples=64, seed=0)
                with pytest.raises(ObservableError):
                    clt_experiment(cfg, ch, N=4, trials=100, seed=0)


def _sampled_reference(cfg):
    """The sampled float validation the exact rule replaced, as a verdict
    function: 64 points from default_rng(2), each compared reduced against
    unreduced and after every generator's move, to a tolerance of 1e-9.
    The points and moves do not depend on the character, so they are
    computed once per config."""
    rng = np.random.default_rng(2)
    t = rng.uniform(-3.0, 3.0, size=(64, cfg.dim))
    box = cfg.system.reduce_batch(t)
    moves = [cfg.system.translation_map(g)(box) for g in cfg.generators]

    def passes(ch):
        base = ch.values(box)
        if np.max(np.abs(ch.values(t) - base)) > 1e-9:
            return False
        for moved in moves:
            ratio = ch.values(moved) / base
            if np.max(np.abs(ratio - ratio[0])) > 1e-9:
                return False
            if abs(np.max(np.abs(ratio)) - 1.0) > 1e-9:
                return False
        return True

    return passes


def _generic_walk(sc):
    """Two generators with irrational coordinates on every level (dim <= 6)."""
    head = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 6, 7, 10)][: sc.dim]
    gens = [[F(x) for x in head], [F(-x) for x in reversed(head)]]
    return walk_config(sc, gens, [F(1, 3), F(2, 3)])


def test_exact_rule_matches_sampled_reference():
    configs = {name: make() for name, make in WALKS.items()}
    for name, sc in [
        ("example_3_2 rescaled", rescale_levels(catalog.example_3_2(), [1, 1, 2])),
        ("filiform(5) rescaled", rescale_levels(catalog.filiform(5), [1, 1, 2, 6])),
    ]:
        configs[name] = _generic_walk(sc)
    rng = np.random.default_rng(17)
    for name, cfg in configs.items():
        n0 = cfg.sc.series.dims[0]
        if cfg.dim <= 6:
            lams = list(iproduct((-1, 0, 1), repeat=cfg.dim))
        else:  # a seeded sample of the box, plus its whole level-0 face
            lams = [tuple(row) for row in rng.integers(-1, 2, size=(400, cfg.dim))]
            lams += [head + (0,) * (cfg.dim - n0) for head in iproduct((-1, 0, 1), repeat=n0)]
        reference = _sampled_reference(cfg)
        verdicts = set()
        for lam in lams:
            if not any(lam):
                continue
            ch = Character(lam)
            try:
                validate_observable(cfg, ch)
                exact = True
            except ObservableError:
                exact = False
            assert exact == reference(ch) == (not any(lam[n0:])), (name, lam)
            verdicts.add(exact)
        assert verdicts == {True, False}, name


def test_sweep_and_clt_touch_only_the_torus(monkeypatch):
    cfg = triangular_config(4)
    n0 = cfg.sc.series.dims[0]
    dims = []
    built = []

    def build(self, sc, _init=SecondKindSystem.__init__):
        built.append(sc.dim)
        _init(self, sc)

    monkeypatch.setattr(SecondKindSystem, "__init__", build)
    for name in ("translation_map", "reduction_map"):

        def spy(self, arg, _compile=getattr(SecondKindSystem, name)):
            dims.append(self.dim)
            return _compile(self, arg)

        monkeypatch.setattr(SecondKindSystem, name, spy)
    ch = Character((1, -1, 0, 1) + (0,) * (cfg.dim - n0))
    correlation_sweep(cfg, [ch], [2, 4], samples=64, seed=0)
    clt_experiment(cfg, ch, N=4, trials=100, seed=0)
    # a torus step is t + shift reduced by floor: no map is compiled, and
    # the walk runs on the config itself, so no second system is built
    assert dims == [] and built == []


def test_transfer_eigenvalue_lazy_walk():
    cfg = golden_heisenberg_config()
    c, resonant = transfer_eigenvalue(cfg, Character((1, 0, 0)))
    assert not resonant
    assert abs(c - 0.5 * (1 + np.exp(2j * np.pi * PHI))) < 1e-12


def test_resonance_detected_exactly():
    cfg = circle_config(F(1, 3), F(2, 3))
    c, resonant = transfer_eigenvalue(cfg, Character((3,)))
    assert resonant and abs(abs(c) - 1.0) < 1e-15
    _, res1 = transfer_eigenvalue(cfg, Character((1,)))
    assert not res1


def test_gap_profile_golden_box():
    cfg = golden_heisenberg_config()
    prof = gap_profile(cfg, 5)
    assert len(prof) == 120
    assert not any(e.resonant for e in prof)
    assert all(e.modulus < 1.0 for e in prof)


# -- simulation ----------------------------------------------------------------


def test_advance_applies_chosen_generator():
    cfg = golden_heisenberg_config()
    assert np.array_equal(cfg.shifts, [[0.0, 0.0], [PHI, math.sqrt(2.0) - 1.0]])
    t = np.random.default_rng(5).random((64, 2))
    idx = np.arange(64) % 2
    out = advance(cfg, t, idx)
    # t + shift lies in [0, 2), where subtracting the floor is exact
    x = t + cfg.shifts[idx]
    assert np.array_equal(out, x - np.floor(x))
    assert np.array_equal(out[idx == 0], t[idx == 0])  # identity generator


def test_advance_repeats_reduction_off_the_right_edge():
    # -1e-20 + 1 rounds to 1.0, which a second pass brings to 0.0
    cfg = circle_config(0, F(PHI))
    out = advance(cfg, np.array([[-1e-20], [np.nextafter(1.0, 0.0)]]), np.array([0, 0]))
    assert out.tolist() == [[0.0], [np.nextafter(1.0, 0.0)]]


def _two_pass_advance(config, t, gen_idx):
    """The torus step that adds -floor until a pass adds nothing."""
    x = np.take(config.shifts, gen_idx, axis=0)
    x += t
    for _ in range(4):
        m = -np.floor(x)
        if not m.any():
            return x
        x += m
    raise AssertionError("torus reduction did not converge")


def test_one_pass_advance_matches_two_pass_bitwise():
    tiny, below_one = -1e-20, np.nextafter(1.0, 0.0)
    gens = [(0, 0), (F(1, 2), F(tiny)), (F(5, 4), F(-PHI)), (F(-1, 2), F(1, 4)), (F(-3), F(7, 4))]
    cfg = walk_config(catalog.abelian(2), [LieVector(list(map(F, g))) for g in gens], [F(1, 5)] * 5)
    rows = [
        ((tiny, below_one), 0),  # t itself needs a second pass in column 0
        ((0.1, 0.2), 0),  # no reduction at all
        ((0.5, 0.0), 1),  # lands exactly on 1.0, and -1e-20 in column 1
        ((0.75, 0.25), 2),  # lands exactly on 2.0; a negative shift
        ((0.75, 0.0), 3),  # 0.25 after a negative shift
        ((0.0, below_one), 4),  # -3.0, and 7/4 + nextafter(1, 0)
        ((below_one, tiny), 3),
        ((0.5, 0.5), 3),  # exactly 0.0 after a negative shift
    ]
    t = np.array([r for r, _ in rows])
    idx = np.array([j for _, j in rows])
    rng = np.random.default_rng(11)
    t = np.concatenate([t, rng.random((1000, 2)), rng.choice([0.0, 0.25, 0.5, 0.75, tiny, below_one], (1000, 2))])
    idx = np.concatenate([idx, rng.integers(0, len(gens), 2000)])
    want = _two_pass_advance(cfg, t, idx)
    got = advance(cfg, t, idx)
    assert got.tobytes() == want.tobytes()
    assert got[:4].tolist() == [[0.0, below_one], [0.1, 0.2], [0.0, 0.0], [0.0, 0.25 - PHI + 1.0]]
    assert ((got >= 0.0) & (got < 1.0)).all()
    assert advance(cfg, t[:0], idx[:0]).shape == (0, 2)


@pytest.mark.parametrize(
    "probs",
    [(F(1, 2), F(1, 2)), (F(1, 3),) * 3, (F(1, 10), F(7, 10), F(1, 5)), (F(1, 7), F(6, 7))],
)
def test_draw_matches_generator_choice(probs):
    """The walk's draw is Generator.choice over the float probabilities,
    index for index and in dtype, so seeded streams are unchanged."""
    cfg = circle_config(*[F(j, 11) for j in range(len(probs))], probs=probs)
    pfloat = [float(p) for p in probs]
    for seed in (0, 1, 7, 2024):
        for size in (1, 17, 8192):
            want = np.random.default_rng(seed).choice(len(pfloat), size, p=pfloat)
            got = draw_generators(cfg, size, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (probs, seed, size)


def _termwise(cmap, x):
    """A compiled map evaluated term by term, each output summed in the
    map's monomial order: the float semantics of a per-term evaluator."""
    out = np.zeros((len(x), cmap.n_out))
    for k in range(cmap.n_out):
        for varexps, c in zip(cmap.monomials, cmap.coef[:, k]):
            if c:
                term = np.full(len(x), c)
                for i, e in varexps:
                    term = term * (x[:, i] if e == 1 else x[:, i] ** e)
                out[:, k] += term
    return out


def _masked_step(cfg, t, gen_idx):
    """A full-config step by masked gather/scatter and termwise maps."""
    out = np.empty_like(t)
    for j, g in enumerate(cfg.generators):
        mask = gen_idx == j
        if mask.any():
            out[mask] = _termwise(cfg.system.translation_map(g), t[mask])
    for level in range(cfg.sc.step):
        idx = cfg.sc.series.level_indices(level)
        for _ in range(4):
            m = -np.floor(out[:, idx])
            if not m.any():
                break
            out = _termwise(cfg.system.reduction_map(level), np.concatenate([out, m], axis=1))
    return out


@pytest.mark.parametrize("name", sorted(WALKS))
def test_quotient_walk_matches_full_walk_bitwise(name):
    cfg = WALKS[name]()
    n0 = cfg.sc.series.dims[0]
    rng = np.random.default_rng(2024)
    size = 256
    full = np.zeros((size, cfg.dim))
    quo = np.zeros((size, n0))
    for _ in range(256):
        idx = rng.choice(2, size=size, p=[0.5, 0.5])
        full = _masked_step(cfg, full, idx)
        quo = advance(cfg, quo, idx)
    assert np.array_equal(full[:, :n0], quo)


def test_correlation_tracks_eigenvalue_power():
    cfg = golden_heisenberg_config()
    chars = [Character((1, 0, 0)), Character((0, 1, 0))]
    sweep = correlation_sweep(cfg, chars, [4, 16, 64], samples=20_000, seed=11)
    for ch in chars:
        c, _ = transfer_eigenvalue(cfg, ch)
        for pt in sweep[ch]:
            assert abs(pt.estimate - c**pt.N) <= 4.0 * pt.stderr
            assert pt.samples == 20_000


def test_correlation_deterministic():
    cfg = circle_config(0, F(PHI))
    ch = Character((1,))
    a = correlation_sweep(cfg, [ch], [8], samples=10_000, seed=3)[ch]
    b = correlation_sweep(cfg, [ch], [8], samples=10_000, seed=3)[ch]
    assert a == b


def test_chunks_run_in_process_whatever_the_environment(monkeypatch):
    """Chunks run in this process, in order, whatever NILWALK_WORKERS
    says: no run of several chunks starts a process pool."""
    cfg = circle_config(0, F(PHI))
    ch = Character((1,))
    samples = 2 * CHUNK + 5  # three chunks
    trials = CHUNK + 100  # two chunks
    monkeypatch.delenv("NILWALK_WORKERS", raising=False)
    sweep = correlation_sweep(cfg, [ch], [8], samples=samples, seed=3)
    clt = clt_experiment(cfg, ch, N=8, trials=trials, seed=9)

    def no_pool(*args, **kwargs):
        raise AssertionError("a chunk run started a process pool")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("NILWALK_WORKERS", "2")
    assert correlation_sweep(cfg, [ch], [8], samples=samples, seed=3) == sweep
    assert clt_experiment(cfg, ch, N=8, trials=trials, seed=9) == clt


def test_correlation_rejects_invalid_observable():
    cfg = golden_heisenberg_config()
    with pytest.raises(ObservableError):
        correlation_sweep(cfg, [Character((0, 0, 1))], [4], samples=100, seed=0)


def test_correlation_needs_positive_times():
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError):
        correlation_sweep(cfg, [Character((1,))], [0, 4], samples=100, seed=0)


@pytest.mark.parametrize("time, shown", [(2.5, "2.5"), (F(4), "Fraction"), ("4", "'4'")])
def test_correlation_times_are_integers(time, shown):
    # int() truncated 2.5 to a sweep point at N = 2
    cfg = golden_heisenberg_config()
    with pytest.raises(ValueError, match=f"a walk time must be an integer, got {shown}"):
        correlation_sweep(cfg, [Character((1, 0, 0))], [time], samples=10, seed=0)
    sweep = correlation_sweep(cfg, [Character((1, 0, 0))], np.array([2, 4]), samples=10, seed=0)
    assert [pt.N for pt in sweep[Character((1, 0, 0))]] == [2, 4]


@pytest.mark.parametrize("samples", [0, -3])
def test_correlation_needs_positive_samples(samples):
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        correlation_sweep(cfg, [Character((1,))], [4], samples=samples, seed=0)


@pytest.mark.parametrize("radius", [0, -1])
def test_frequency_box_needs_positive_radius(radius):
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match="radius must be at least 1"):
        abelianized_lambda_box(cfg.sc, radius)
    with pytest.raises(ValueError, match="radius must be at least 1"):
        gap_profile(cfg, radius)
    with pytest.raises(ValueError, match="radius must be at least 1"):
        tame_decay_fit(cfg, r=2.0, radius=radius, times=[2, 4, 8], grid=64)


def test_frequency_box_is_capped(monkeypatch):
    # abelian(4) at radius 20 asks for 41^4 - 1 frequencies, and grid 1 at
    # radius 2000 passes the decay fit's phase bound with 4001^2 - 1
    oversized = [
        (lambda: abelianized_lambda_box(catalog.abelian(4), 20),
         r"radius 20 on the n0=4 torus gives 2825760 frequencies"),
        (lambda: gap_profile(circle_config(0, F(PHI)), 65537),
         r"radius 65537 on the n0=1 torus gives 131074 frequencies"),
        (lambda: tame_decay_fit(golden_heisenberg_config(), 2.0, 2000, [2, 4, 8], grid=1),
         r"radius 2000 on the n0=2 torus gives 16008000 frequencies"),
    ]
    for call, message in oversized:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # the cap admits a box of exactly its size
    monkeypatch.setattr(walk, "MAX_FREQUENCIES", 24)
    assert len(abelianized_lambda_box(catalog.heisenberg(), 2)) == 24
    monkeypatch.setattr(walk, "MAX_FREQUENCIES", 23)
    with pytest.raises(ValueError, match="over the cap of 23"):
        abelianized_lambda_box(catalog.heisenberg(), 2)


# -- operator decay ---------------------------------------------------------------


def test_decay_slope_steepens_with_smoothness():
    cfg = circle_config(0, F(PHI))
    times = [4, 8, 16, 32, 64, 128, 256]
    slopes = []
    for r in (2.0, 4.0, 8.0):
        fit = tame_decay_fit(cfg, r=r, radius=32, times=times, grid=1024)
        slopes.append(fit.slope)
        assert fit.sups[0] > fit.sups[-1]
    assert slopes[0] > slopes[1] > slopes[2]
    assert slopes[2] <= -1.0


def test_decay_rejects_resonant_box():
    cfg = circle_config(F(1, 4), F(3, 4))
    with pytest.raises(ValueError):
        tame_decay_fit(cfg, r=2.0, radius=4, times=[2, 4, 8], grid=64)


def test_decay_needs_three_times():
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError):
        tame_decay_fit(cfg, r=2.0, radius=4, times=[2, 4], grid=64)


@pytest.mark.parametrize("times, shown", [([2, 4.5, 8], "4.5"), ([2, 4, F(8)], "Fraction")])
def test_decay_times_are_integers(times, shown):
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match=f"a walk time must be an integer, got {shown}"):
        tame_decay_fit(cfg, r=2.0, radius=4, times=times, grid=64)
    assert tame_decay_fit(cfg, r=2.0, radius=4, times=np.array([2, 4, 8]), grid=64).times == (2, 4, 8)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf")])
def test_decay_needs_finite_r(r):
    # a nan r gave a DecayFit whose sups and slope were all nan
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match="decay fit needs a finite r"):
        tame_decay_fit(cfg, r=r, radius=4, times=[2, 4, 8], grid=64)


@pytest.mark.parametrize("times", [[0, 4, 8], [-2, 4, 8]])
def test_decay_needs_positive_times(times):
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match="times must be at least 1"):
        tame_decay_fit(cfg, r=2.0, radius=4, times=times, grid=64)


def test_decay_bounds_the_phase_table(monkeypatch):
    """grid^n0 * |box| complex phases are allocated, so more than 2^24 of
    them is refused before any eigenvalue is computed."""

    class Reached(Exception):
        pass

    def profile(*args):
        raise Reached

    monkeypatch.setattr(walk, "gap_profile", profile)
    heis, circle = golden_heisenberg_config(), circle_config(0, F(PHI))
    # radius 10 on the 2-torus has 440 frequencies: 512^2 * 440 and
    # 196^2 * 440 exceed 2^24, 195^2 * 440 does not
    for cfg, grid, radius, ok in (
        (heis, 512, 10, False),
        (heis, 196, 10, False),
        (heis, 195, 10, True),
        (heis, 1449, 1, False),
        (heis, 1448, 1, True),
        (circle, 2**23 + 1, 1, False),
        (circle, 2**23, 1, True),
    ):
        want = Reached if ok else ValueError
        with pytest.raises(want, match=None if ok else f"grid {grid} at radius {radius}"):
            tame_decay_fit(cfg, r=2.0, radius=radius, times=[2, 4, 8], grid=grid)


@pytest.mark.parametrize("grid", [0, -1])
def test_decay_needs_positive_grid(grid):
    cfg = circle_config(0, F(PHI))
    with pytest.raises(ValueError, match="grid must be at least 1"):
        tame_decay_fit(cfg, r=2.0, radius=4, times=[2, 4, 8], grid=grid)

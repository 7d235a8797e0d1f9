import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog, words
from nilwalk.bch import bch_product, word_eval
from nilwalk.lie_core import LieVector, project, quotient_algebra
from nilwalk.words import (
    NicePairSearch,
    build_lr,
    diophantine_estimate,
    nice_pair_search,
    verify_word_bracket_identity,
    word_pair_logs,
)

F = Fraction


def rational_generators(sc, m, seed):
    """Dense random generators, components on every level."""
    rng = random.Random(seed)
    return [
        LieVector(
            [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(sc.dim)]
        )
        for _ in range(m)
    ]


# -- the recursion ------------------------------------------------------------


def test_build_lr_hand_case():
    pair = build_lr(1, [(0,), (1,), (0,)], 2)
    assert pair.w1.letters == (0, 0, 1)
    assert pair.w2.letters == (1, 0, 0)
    assert pair.k_sequence == ((1, -1), (1, 1))


def test_words_are_anagrams_from_level_one():
    pair = build_lr(2, [(0,), (1, 1), (0,), (1, 0)], 2)
    assert len(pair.w1) == len(pair.w2)
    assert pair.w1.counts(2) == pair.w2.counts(2)


def test_k_sequence_monotone_from_two():
    rng = random.Random(4)
    for _ in range(25):
        p = rng.randint(2, 4)
        seeds = [tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))]
        seeds.append(tuple(rng.randrange(2) for _ in range(rng.randint(1, 2))))
        seeds += [
            tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
            for _ in range(p)
        ]
        pair = build_lr(p, seeds, 2)
        ks = pair.k_sequence
        for i in range(2, len(ks)):
            assert all(a >= b for a, b in zip(ks[i], ks[i - 1])), ks


def test_seed_validation():
    with pytest.raises(ValueError):
        build_lr(1, [(), (), (0,)], 2)  # both bases empty
    with pytest.raises(ValueError):
        build_lr(0, [(0,), (1, 1)], 2)  # unequal level-0 base lengths
    with pytest.raises(ValueError):
        build_lr(1, [(0,), (2,), (0,)], 2)  # letter outside alphabet
    with pytest.raises(ValueError):
        build_lr(2, [(0,), (1,), (0,)], 2)  # missing filler


def test_recursion_logs_match_letterwise_evaluation():
    sc = catalog.example_3_2()
    gens = rational_generators(sc, 2, seed=1)
    pair = build_lr(2, [(0, 1), (1,), (0,), (1, 0)], 2)
    logL, logR = word_pair_logs(sc, pair, gens)
    assert word_eval(sc, pair.w1, gens) == logL
    assert word_eval(sc, pair.w2, gens) == logR


def test_bracket_identity_hand_case():
    sc = catalog.heisenberg()
    gens = [LieVector.basis(3, 0), LieVector.basis(3, 1)]
    pair = build_lr(1, [(0,), (1,), (0,)], 2)
    chk = verify_word_bracket_identity(sc, pair, gens)
    assert chk.ok
    # log(W1 W2^-1) = [x - y, x + y] = 2[x, y] = 2 X3 here
    assert chk.word_log.coords == (F(0), F(0), F(2))


def test_bracket_identity_across_algebras():
    """log(W1 W2^-1) equals the k-weighted nested bracket through level p,
    exactly, for dense rational generators with deep components."""
    rng = random.Random(9)
    cases = [
        (catalog.heisenberg(), 2),
        (catalog.example_3_2(), 2),
        (catalog.filiform(5), 2),
        (catalog.triangular(3), 3),
        (catalog.example_5_6(), 2),
    ]
    for sc, m in cases:
        gens = rational_generators(sc, m, seed=rng.randint(0, 999))
        for p in range(1, sc.step):
            for _ in range(3):
                seeds = [
                    tuple(rng.randrange(m) for _ in range(rng.randint(1, 2)))
                    for _ in range(2)
                ]
                seeds += [
                    tuple(rng.randrange(m) for _ in range(rng.randint(0, 2)))
                    for _ in range(p)
                ]
                pair = build_lr(p, seeds, m)
                chk = verify_word_bracket_identity(sc, pair, gens)
                assert chk.ok, (sc.names[:2], p, seeds, chk.residual)


def test_step4_quotient_kills_all_pairs():
    # with two generators every constructed pair has zero top displacement
    sc = catalog.example_5_6()
    gens = [LieVector.basis(15, 0), LieVector.basis(15, 1)]
    rng = random.Random(3)
    for _ in range(6):
        seeds = [(rng.randrange(2),), (rng.randrange(2),)]
        seeds += [tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))) for _ in range(3)]
        if seeds[0] == seeds[1]:
            seeds[1] = ((seeds[1][0] + 1) % 2,)
        pair = build_lr(3, seeds, 2)
        logL, logR = word_pair_logs(sc, pair, gens)
        h = bch_product(sc, logL, -logR)
        assert not any(project(sc, h, 3))


def test_quotient_first_matches_full_algebra(monkeypatch):
    """Evaluating in g / g^(p+1) gives the full-algebra results on levels
    <= p, for every proper quotient of every corpus algebra."""
    rng = random.Random(17)
    searches = []
    for _, sc in catalog.default_corpus():
        gens = rational_generators(sc, 2, seed=rng.randint(0, 999))
        for p in range(sc.step - 1):
            q_dim = quotient_algebra(sc, p).dim
            assert q_dim < sc.dim
            for _ in range(2):
                seeds = [tuple(rng.randrange(2) for _ in range(1 + (p > 0)))]
                seeds.append(tuple(rng.randrange(2) for _ in range(len(seeds[0]))))
                seeds += [tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                          for _ in range(p)]
                pair = build_lr(p, seeds, 2)
                logL, logR = word_pair_logs(sc, pair, gens)
                full = bch_product(sc, logL, -logR)
                chk = verify_word_bracket_identity(sc, pair, gens)
                assert chk.word_log.coords == full.coords[:q_dim]
            if p >= 1:
                searches.append((sc, gens, p, nice_pair_search(sc, gens, p, q_max=2, budget=60)))
    assert any(res.found for *_, res in searches)
    # the reference evaluates every candidate in the full algebra
    monkeypatch.setattr(words, "quotient_algebra", lambda sc, p: sc)
    for sc, gens, p, res in searches:
        assert nice_pair_search(sc, gens, p, q_max=2, budget=60) == res


# -- Diophantine scan ------------------------------------------------------------


def test_golden_mean_quality():
    # scan oracle: the minimum of |n phi - m| * |n| sits at n = 1, value phi^2
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    rep = diophantine_estimate([phi], tau=1.0, q_max=10_000)
    assert abs(rep.gamma_hat - 0.3819660112501051) < 1e-9
    assert abs(rep.worst_n[0]) == 1
    assert rep.float_error_bound < 1e-6


def test_rational_vector_has_zero_quality():
    rep = diophantine_estimate([0.5, 0.25], tau=2.0, q_max=8)
    assert rep.gamma_hat == 0.0


def test_gamma_monotone_in_qmax():
    v = [math.sqrt(2.0) - 1.0, math.pi - 3.0]
    prev = None
    for q in (5, 20, 60):
        rep = diophantine_estimate(v, tau=2.0, q_max=q)
        if prev is not None:
            assert rep.gamma_hat <= prev + 1e-15
        prev = rep.gamma_hat


def test_diophantine_validation():
    with pytest.raises(ValueError):
        diophantine_estimate([], tau=1.0, q_max=5)
    with pytest.raises(ValueError):
        diophantine_estimate([0.5], tau=1.0, q_max=0)
    with pytest.raises(ValueError, match="overflows"):  # 5.0 ** 1000
        diophantine_estimate([0.5], tau=1000.0, q_max=5)


@pytest.mark.parametrize(
    "vector, tau",
    [
        ([0.3, 0.7], math.nan),  # once gamma_hat = inf, worst_n = None
        ([0.3], math.nan),  # once gamma_hat = nan
        ([math.nan, 0.7], 2.0),  # once gamma_hat = inf, worst_n = None
        ([0.3, 0.7], math.inf),
        ([math.inf], 1.0),
    ],
)
def test_diophantine_rejects_non_finite_input(vector, tau):
    with pytest.raises(ValueError, match="finite input"):
        diophantine_estimate(vector, tau=tau, q_max=5)


def test_diophantine_refuses_oversized_scan():
    # example_5_6's level 2 has d = 8; at q_max = 100 one leading value
    # would carry 201^7 rows, about 13 GB per array.  A d = 2 box at
    # q_max = 10000 has small rows but 20001^2 points, over the budget.
    oversized = [
        ([0.1 * (i + 1) for i in range(8)], 8.0, 100,
         r"d=8, q_max=100 .* 13254776280841401 rows"),
        ([0.3, 0.7], 2.0, 10_000, r"d=2, q_max=10000 covers 400040001 points"),
    ]
    for vector, tau, q_max, message in oversized:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                diophantine_estimate(vector, tau=tau, q_max=q_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def reference_scan(vector, tau, q_max):
    """The scan before the grid was cached: one chunk per leading value,
    zero row masked out, strict improvement across chunks.  Kept as the
    bit-for-bit reference; returns (gamma_hat, worst_n)."""
    v = np.asarray([float(x) for x in vector], dtype=float)
    d = v.size
    rng1 = np.arange(-q_max, q_max + 1)
    best = math.inf
    best_n = None
    if d == 1:
        n = rng1[rng1 != 0].astype(float)
        r = n * v[0]
        dist = np.abs(r - np.round(r))
        vals = dist * np.abs(n) ** tau
        i = int(np.argmin(vals))
        return float(vals[i]), (int(n[i]),)
    grids = np.meshgrid(*([rng1] * (d - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    for n1 in rng1:
        block = np.concatenate([np.full((tail.shape[0], 1), n1), tail], axis=1).astype(float)
        norms = np.max(np.abs(block), axis=1)
        mask = norms > 0
        block, norms = block[mask], norms[mask]
        r = block @ v
        dist = np.abs(r - np.round(r))
        vals = dist * norms**tau
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_n = tuple(int(x) for x in block[i])
    return best, best_n


def test_scan_matches_per_leading_value_reference():
    rng = random.Random(11)
    cases = []
    for d, q_maxes in ((1, (1, 40, 10_000)), (2, (1, 7, 100)), (3, (2, 12))):
        for q_max in q_maxes:
            for tau in (0.0, 1.0, float(d), 1.7, -0.5):
                cases.append(([rng.uniform(-3, 3) for _ in range(d)], tau, q_max))
                # rational, with exact zeros: many ties at gamma_hat = 0
                zeros = [rng.choice((0.0, 0.5, -0.25, 1 / 3, 2.0)) for _ in range(d)]
                cases.append((zeros, tau, q_max))
    # chunked boxes: one leading value per chunk at d = 8, several at d = 3
    assert len(words._leading_runs(8, 2)) > 1 and len(words._leading_runs(3, 30)) > 1
    cases.append(([rng.uniform(-1, 1) for _ in range(8)], 8.0, 2))
    cases.append(([rng.uniform(-1, 1) for _ in range(3)], 3.0, 30))
    cases.append(([0.5, 0.0, 0.25], 3.0, 30))
    # interleave shapes, vectors and taus, so cached grids serve many calls
    rng.shuffle(cases)
    for vector, tau, q_max in cases:
        rep = diophantine_estimate(vector, tau=tau, q_max=q_max)
        assert (rep.gamma_hat, rep.worst_n) == reference_scan(vector, tau, q_max), (
            vector, tau, q_max)
    # the cached arrays are shared by every later scan of their shape
    for a in words._whole_grid(2, 7, 2.0, -7, 7):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_scan_matvecs_stay_under_chunk_entries(monkeypatch):
    # at d = 4, q_max = 31 one leading value carries 63^3 rows, about four
    # times SCAN_CHUNK_ENTRIES entries; bigger products took OpenBLAS's
    # threaded path, so the chunk is multiplied in row blocks
    assert 4 * 63**3 > words.SCAN_CHUNK_ENTRIES
    sizes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        sizes.append(a.size)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    vector = [0.3125, -0.7734, 0.1187, math.sqrt(2.0) - 1.0]
    rep = diophantine_estimate(vector, tau=4.0, q_max=31)
    monkeypatch.undo()
    assert max(sizes) <= words.SCAN_CHUNK_ENTRIES
    assert sum(sizes) == 4 * 63**4
    assert (rep.gamma_hat, rep.worst_n) == reference_scan(vector, 4.0, 31)


# -- search ------------------------------------------------------------------------


def test_nice_pair_search_finds_irrational_displacement():
    sc = catalog.heisenberg()
    gens = [
        LieVector([F(math.sqrt(2.0)), F(0), F(0)]),
        LieVector([F(0), F(math.sqrt(3.0)), F(0)]),
    ]
    res = nice_pair_search(sc, gens, p=1, q_max=50)
    assert res.found
    # best level vector is a multiple of sqrt(6) = [sqrt2 X1, sqrt3 X2]
    assert res.report.gamma_hat > 0
    assert res.pair.level == 1


def test_nice_pair_search_reports_total_collapse():
    sc = catalog.example_5_6()
    gens = [LieVector.basis(15, 0), LieVector.basis(15, 1)]
    res = nice_pair_search(sc, gens, p=3, budget=40, q_max=5)
    assert not res.found
    assert res.zero_count == res.tried == 40


def test_nice_pair_search_level_bounds():
    sc = catalog.heisenberg()
    gens = [LieVector.basis(3, 0), LieVector.basis(3, 1)]
    with pytest.raises(ValueError):
        nice_pair_search(sc, gens, p=0)
    with pytest.raises(ValueError):
        nice_pair_search(sc, gens, p=2)


def reference_search(sc, gens, p, tau, q_max, budget):
    """nice_pair_search with every candidate built from scratch by build_lr
    and word_pair_logs, in the same order and with the same best rule."""
    q_sc = quotient_algebra(sc, p)
    gens = [LieVector(g.coords[: q_sc.dim]) for g in gens]
    m = len(gens)
    bases = [(i,) for i in range(m)] + [(i, j) for i in range(m) for j in range(m)]
    fillers = [()] + bases
    tried = zeros = 0
    best = None  # (pair, level vector, report)
    for seeds in itertools.product(bases, bases, *([fillers] * p)):
        if tried >= budget:
            break
        tried += 1
        pair = build_lr(p, seeds, m)
        logL, logR = word_pair_logs(q_sc, pair, gens)
        block = project(q_sc, bch_product(q_sc, logL, -logR), p)
        if not any(block):
            zeros += 1
            continue
        vec = tuple(float(x) for x in block)
        rep = diophantine_estimate(vec, tau, q_max)
        if best is None or rep.gamma_hat > best[2].gamma_hat:
            best = (pair, vec, rep)
    pair, vec, rep = best or (None, None, None)
    return NicePairSearch(
        found=best is not None, pair=pair, report=rep, level_vector=vec,
        tried=tried, zero_count=zeros,
    )


def test_search_matches_per_candidate_reference():
    # the last filler varies fastest, in blocks of 7; every budget runs past
    # the first base pair ((0), (0)), whose candidates are all zero
    cases = [
        (catalog.example_3_2(), 1, 45),
        (catalog.triangular(3), 1, 30),
        (catalog.example_3_2(), 2, 7 * 7 + 7 * 3 + 4),
        (catalog.triangular(4), 3, 7**3 + 25),
    ]
    positive = 0
    for i, (sc, p, budget) in enumerate(cases):
        gens = rational_generators(sc, 2, seed=40 + i)
        tau = float(sc.dims[p])
        res = nice_pair_search(sc, gens, p, tau=tau, q_max=3, budget=budget)
        assert res == reference_search(sc, gens, p, tau, 3, budget), (sc.names[:2], p)
        assert res.found and res.tried == budget
        positive += res.report.gamma_hat > 0
    assert positive  # the largest-gamma rule is exercised, not only ties at 0


def test_search_steps_each_prefix_once(monkeypatch):
    sc = catalog.example_3_2()
    gens = rational_generators(sc, 2, seed=5)
    calls = {"bch_product": 0, "word_eval": 0}

    def counted(name):
        fn = getattr(words, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(words, name, counted(name))
    budget = 56
    nice_pair_search(sc, gens, 2, q_max=3, budget=budget)
    bases = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    candidates = list(
        itertools.islice(itertools.product(bases, bases, [()] + bases, [()] + bases), budget)
    )
    level1 = {seeds[:3] for seeds in candidates}
    assert len(level1) == 8
    # four products per level-1 prefix, then per candidate four for its
    # level-2 step and one for W1 W2^(-1); one log per distinct seed word
    assert calls["bch_product"] == 4 * len(level1) + 5 * budget
    assert calls["word_eval"] == len({w for seeds in candidates for w in seeds})

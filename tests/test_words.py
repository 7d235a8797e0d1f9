import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import bch, catalog, words
from nilwalk.bch import bch_product, word_eval
from nilwalk.lie_core import (
    LieVector,
    nested_bracket,
    project,
    quotient_algebra,
    rescale_levels,
)
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


def test_bracket_identity_with_an_unused_generator():
    """A generator past the pair's alphabet enters the common denominator
    d of the integer columns but no bracket, and the identity still holds."""
    sc = catalog.filiform(5)
    gens = rational_generators(sc, 2, seed=3)
    big = LieVector([F(1, 10**30 + 7)] + [F(0)] * (sc.dim - 1))
    pair = build_lr(2, [(0,), (1, 0), (1,), (0, 1)], 2)
    chk = verify_word_bracket_identity(sc, pair, gens + [big])
    assert chk.ok
    assert chk.bracket_log == verify_word_bracket_identity(sc, pair, gens).bracket_log


def _reference_bracket_log(sc, pair, gens):
    """[ ... [k_0 V, k_1 V], ..., k_p V ] in g / g^(p+1), one exact
    bracket of k-combinations of the projected generators at a time."""
    q_sc = quotient_algebra(sc, min(pair.level, sc.step - 1))
    vs = [LieVector(g.coords[: q_sc.dim]) for g in gens]

    def combo(k):
        return sum((c * v for c, v in zip(k, vs)), LieVector.zero(q_sc.dim))

    acc = combo(pair.k_sequence[0])
    for k in pair.k_sequence[1:]:
        acc = q_sc.bracket(acc, combo(k))
    return acc


def test_bracket_log_is_one_nested_bracket(monkeypatch):
    """bracket_log equals the reference bracket loop, from one
    nested_bracket call per check; filiform(5) rescaled has D = 60."""
    calls = []
    chain = words.nested_bracket
    monkeypatch.setattr(words, "nested_bracket", lambda *a: calls.append(a) or chain(*a))
    rng = random.Random(9)
    cases = [
        (catalog.heisenberg(), 2),
        (catalog.example_3_2(), 2),
        (catalog.filiform(5), 2),
        (catalog.triangular(3), 3),
        (catalog.example_5_6(), 2),
        (rescale_levels(catalog.filiform(5), [1, F(2, 3), F(5, 2), 3]), 2),
    ]
    checks = 0
    for sc, m in cases:
        gens = rational_generators(sc, m + 1, seed=rng.randint(0, 999))
        # p = step reads past the last level, where the bracket is 0
        for p in range(0, sc.step + 1):
            for _ in range(3):
                # level-0 base words need equal lengths
                seeds = [
                    tuple(rng.randrange(m) for _ in range(1 if p == 0 else rng.randint(1, 2)))
                    for _ in range(2)
                ]
                seeds += [
                    tuple(rng.randrange(m) for _ in range(rng.randint(0, 2)))
                    for _ in range(p)
                ]
                pair = build_lr(p, seeds, m)
                chk = verify_word_bracket_identity(sc, pair, gens)
                assert chk.bracket_log == _reference_bracket_log(sc, pair, gens), (p, seeds)
                checks += 1
    assert len(calls) == checks
    assert sc.integer_table[0] == 60


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
    # example_5_6's level 2 has d = 8; at q_max = 100 its box has 201^8
    # points.  A d = 2 box at q_max = 10000 has 20001^2, also over the budget.
    oversized = [
        ([0.1 * (i + 1) for i in range(8)], 8.0, 100,
         r"d=8, q_max=100 covers 2664210032449121601 points"),
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
        r = block[:, 0] * v[0]  # n.v left to right, as the scan sums it
        for j in range(1, d):
            r = r + block[:, j] * v[j]
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
    # chunked boxes: one chunk and no head at d = 2, q_max = 100 and d = 3,
    # q_max = 30, runs of several leading values at d = 1, 2, 3 and 8,
    # two-value heads at d = 4 and 5 (at q_max = 32 and 12 one leading
    # value alone carries over 2^18 points); (d, q_max, head length, runs)
    for d, q_max, k, runs in (
        (2, 100, 0, 1), (3, 30, 0, 1), (1, 1 << 18, 1, 3), (2, 400, 1, 3),
        (3, 100, 1, 34), (4, 32, 2, 69), (5, 12, 2, 40), (8, 2, 1, 2),
    ):
        head, width, *_ = words._scan_plan(d, q_max, float(d))
        assert (head, math.ceil((2 * q_max + 1) ** head / width)) == (k, runs), (d, q_max)
    cases.append(([rng.uniform(-1, 1) for _ in range(8)], 8.0, 2))
    cases.append(([rng.uniform(-1, 1) for _ in range(3)], 3.0, 30))
    cases.append(([0.5, 0.0, 0.25], 3.0, 30))
    cases.append(([0.5, 0.0, 0.25, 1 / 3, 0.0, 2.0, -0.25, 0.5], 8.0, 2))
    cases.append(([rng.uniform(-1, 1) for _ in range(4)], 4.0, 32))
    cases.append(([rng.uniform(-1, 1) for _ in range(5)], 5.0, 12))
    # a box of 34 chunks, more than a cache of 8 chunks could hold, and
    # head runs at d = 1 and 2, also with weights from a fractional tau
    cases.append(([rng.uniform(-1, 1) for _ in range(3)], 3.0, 100))
    cases.append(([0.5, -0.25, 1 / 3], 3.0, 100))
    cases.append(([rng.uniform(-1, 1)], 1.0, 1 << 18))
    cases.append(([rng.uniform(-3, 3)], -0.5, 1 << 18))
    cases.append(([rng.uniform(-1, 1) for _ in range(2)], 2.0, 400))
    cases.append(([rng.uniform(-1, 1) for _ in range(2)], 1.7, 400))
    # interleave shapes, vectors and taus, so cached plans serve many calls
    rng.shuffle(cases)
    for vector, tau, q_max in cases:
        rep = diophantine_estimate(vector, tau=tau, q_max=q_max)
        assert (rep.gamma_hat, rep.worst_n) == reference_scan(vector, tau, q_max), (
            vector, tau, q_max)
    # the cached arrays are shared by every later scan of their box
    for a in words._scan_plan(2, 7, 2.0)[2:]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_scan_matvecs_stay_under_chunk_entries(monkeypatch):
    # at d = 4, q_max = 31 one leading value carries 63^3 points, just
    # under SCAN_CHUNK_ENTRIES, so each chunk holds one leading value
    assert 63**3 <= words.SCAN_CHUNK_ENTRIES < 2 * 63**3
    chunks = []
    rint = np.rint

    def spy(x, out=None):
        # (first n.v, points, whether n.v runs up by one from the first)
        first = x.flat[0]
        chunks.append((first, x.size, np.array_equal(x.ravel(), first + np.arange(x.size))))
        return rint(x, out=out)

    # with v = (63^3, 63^2, 63, 1), n.v is n's lexicographic index in the
    # box, less the index of n = 0, and every n.v is exact
    monkeypatch.setattr(np, "rint", spy)
    rep = diophantine_estimate([63.0**3, 63.0**2, 63.0, 1.0], tau=4.0, q_max=31)
    monkeypatch.undo()
    assert rep.gamma_hat == 0.0
    assert max(size for _, size, _ in chunks) <= words.SCAN_CHUNK_ENTRIES
    # the chunks cover the 63^4 points once each, in order
    assert all(runs_up for _, _, runs_up in chunks)
    ends = [first + size for first, size, _ in chunks]
    assert [first for first, _, _ in chunks] == [-((63**4 - 1) // 2)] + ends[:-1]
    assert ends[-1] == (63**4 + 1) // 2
    vector = [0.3125, -0.7734, 0.1187, math.sqrt(2.0) - 1.0]
    rep = diophantine_estimate(vector, tau=4.0, q_max=31)
    assert (rep.gamma_hat, rep.worst_n) == reference_scan(vector, 4.0, 31)


def test_second_scan_of_a_box_builds_no_plan():
    # a d = 3, q_max = 100 box runs in 34 chunks, more than a cache of 8
    # chunks could hold; the plan holds no vector data, so one serves
    # every vector: the axis and the tail grid's norms and weights
    words._scan_plan.cache_clear()
    diophantine_estimate([0.3, -0.7, math.sqrt(2.0)], tau=3.0, q_max=100)
    diophantine_estimate([math.pi - 3.0, 0.1, -0.9], tau=3.0, q_max=100)
    info = words._scan_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    *_, tail_norm, tail_weight = words._scan_plan(3, 100, 3.0)
    assert tail_norm.size == tail_weight.size == 201**2


def test_default_q_max_scans_at_most_the_d3_box():
    assert [words.default_q_max(d) for d in (1, 2, 3)] == [10_000, 100, 100]
    assert [words.default_q_max(d) for d in range(4, 9)] == [26, 11, 6, 4, 3]
    for d in range(1, 9):
        assert (2 * words.default_q_max(d) + 1) ** d <= 201**3 < words.MAX_SCAN_POINTS


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


@pytest.mark.parametrize("budget", [0, -1])
def test_nice_pair_search_needs_a_budget(budget):
    sc = catalog.heisenberg()
    gens = [LieVector.basis(3, 0), LieVector.basis(3, 1)]
    with pytest.raises(ValueError, match="budget must be at least 1"):
        nice_pair_search(sc, gens, p=1, budget=budget)


def test_nice_pair_search_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        nice_pair_search(catalog.heisenberg(), [], p=1)


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
        if seeds[0] == seeds[1]:  # then L_q = R_q at every level: W1 W2^(-1) = 1
            zeros += 1
            continue
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


def test_search_matches_reference_across_corpus():
    """The bracket-identity shortcut agrees with evaluating the words, for
    every corpus algebra at every level, with two and three generators.
    The first base pair, ((0), (0)), takes the first fillers^p candidates,
    all zero; each budget runs two filler sweeps past them, and every such
    level finds a nonzero block.  Only where that run is over 30,000
    candidates (three generators at level 5) does the budget stay in it."""
    rng = random.Random(28)
    nonzero = set()
    for label, sc in catalog.default_corpus():
        for m in (2, 3):
            gens = rational_generators(sc, m, seed=rng.randint(0, 999))
            fillers = 1 + m + m * m
            for p in range(1, sc.step):
                budget = fillers**p + 2 * fillers if fillers**p <= 30_000 else 60
                tau = float(sc.dims[p])
                res = nice_pair_search(sc, gens, p, tau=tau, q_max=2, budget=budget)
                assert res == reference_search(sc, gens, p, tau, 2, budget), (label, m, p)
                assert res.tried == budget
                if res.found:
                    nonzero.add((m, p))
    assert nonzero == {(2, p) for p in range(1, 6)} | {(3, p) for p in range(1, 5)}


def test_search_takes_one_nested_bracket_per_candidate(monkeypatch):
    """The search builds no word log: one nested_bracket per candidate and
    not a single BCH product or word evaluation."""
    sc = catalog.example_3_2()
    gens = rational_generators(sc, 2, seed=5)
    calls = {"bch_product": 0, "word_eval": 0, "nested_bracket": 0}

    def counted(name):
        fn = getattr(words, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(words, name, counted(name))
    budget = 56
    res = nice_pair_search(sc, gens, 2, q_max=3, budget=budget)
    assert res.found and res.tried == budget
    assert calls == {"bch_product": 0, "word_eval": 0, "nested_bracket": budget}


def test_search_hashes_no_word(monkeypatch):
    """The candidate loop reads letter counts, never a Word key: with
    Word.__hash__ raising, a found and a failed search return as before."""
    cases = [
        (catalog.example_3_2(), rational_generators(catalog.example_3_2(), 2, seed=5), 2, 56),
        (catalog.example_5_6(), [LieVector.basis(15, 0), LieVector.basis(15, 1)], 3, 40),
    ]
    expected = [nice_pair_search(sc, gens, p, q_max=3, budget=b) for sc, gens, p, b in cases]
    assert [res.found for res in expected] == [True, False]

    def unhashable(self):
        raise AssertionError("a Word was hashed")

    monkeypatch.setattr(bch.Word, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(bch.Word((0,)))
    for (sc, gens, p, b), res in zip(cases, expected):
        assert nice_pair_search(sc, gens, p, q_max=3, budget=b) == res


def test_in_quotient_columns_are_level_zero():
    """_in_quotient's columns hold the generators' level-0 coordinates only,
    and in g / g^(p+1) they give the same nested bracket as the columns of
    every quotient coordinate."""
    rng = random.Random(32)
    for _, sc in catalog.default_corpus():
        gens = rational_generators(sc, 3, seed=rng.randint(0, 999))
        for p in range(sc.step):
            q_sc, q_gens, cols, d = words._in_quotient(sc, p, gens)
            assert len(cols) == sc.dims[0] and all(len(col) == 3 for col in cols)
            full = list(zip(*([x * (d // g.den) for x in g.nums] for g in q_gens)))
            assert full[: sc.dims[0]] == cols and len(full) == q_sc.dim
            ks = [tuple(rng.randint(-2, 3) for _ in range(3)) for _ in range(p + 1)]
            assert nested_bracket(q_sc, ks, cols) == nested_bracket(q_sc, ks, full)

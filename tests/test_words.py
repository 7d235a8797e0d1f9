import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog, words
from nilwalk.bch import bch_product, word_eval
from nilwalk.lie_core import LieVector, project, quotient_algebra
from nilwalk.words import (
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


def test_diophantine_refuses_oversized_scan():
    # example_5_6's level 2 has d = 8; at q_max = 100 one chunk would hold
    # 201^7 rows, about 13 GB per array
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"d=8, q_max=100 .* 13254776280841401 rows"):
            diophantine_estimate([0.1 * (i + 1) for i in range(8)], tau=8.0, q_max=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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

import hashlib
import itertools
import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog, pencil
from nilwalk.lie_core import (
    LieVector,
    StructureConstants,
    algebra_to_json,
    check_jacobi,
    direct_product,
    nested_bracket,
    quotient_algebra,
    rescale_levels,
)
from nilwalk.linalg import left_kernel_vector, rref
from nilwalk.pencil import (
    POINT_BOUND,
    GreatnessCertificate,
    LevelCertificate,
    MultiPoly,
    PolyRing,
    _futile,
    _points,
    _proved_independent,
    _structured_candidates,
    _symbolic_proof,
    alpha_ring,
    build_pencil,
    certify_greatness,
    linearly_independent,
    pencil_at_k,
    pencil_ring,
)

F = Fraction


# -- polynomial ring -------------------------------------------------------


RING = PolyRing(["u", "v", "w"])


def polys():
    mono = st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
    )
    return st.dictionaries(
        mono, st.fractions(-3, 3, max_denominator=4), max_size=4
    ).map(lambda d: MultiPoly(RING, {m: F(c) for m, c in d.items() if c}))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RING.zero()
    assert a * RING.const(1) == a


def test_restrict():
    u, v = RING.var("u"), RING.var("v")
    p = u * u * v - 2 * v + 1
    assert p.restrict({"u": F(3)}, RING) == 9 * v - 2 * v + 1
    # the rest renamed into a smaller ring, which need not hold unused w
    small = PolyRing(["v"])
    assert p.restrict({"u": 3}, small) == 7 * small.var("v") + 1
    # full evaluation: the constant term of a restriction into no variables
    empty = PolyRing(())
    assert p.restrict({"u": F(3), "v": F(1, 2), "w": F(0)}, empty).terms == {(): F(9, 2)}
    assert p.restrict({"u": 1, "v": 1}, empty).is_zero()
    assert (u * v - v).restrict({"u": F(1)}, small).is_zero()
    with pytest.raises(ValueError, match="variable v not in target ring"):
        p.restrict({"u": 3}, empty)


def test_str_is_canonical():
    u, v = RING.var("u"), RING.var("v")
    assert str(u * u - v) == "u^2 - v"
    assert str(RING.zero()) == "0"
    assert str(-2 * u) == "-2*u"
    assert str(u * v * F(1, 3)) == "1/3*u*v"


# -- independence over Q ------------------------------------------------------


def test_linearly_independent_with_kernel():
    u, v = RING.var("u"), RING.var("v")
    ok, kernel = linearly_independent([u + v, u - v])
    assert ok and kernel is None
    ok, kernel = linearly_independent([u + v, 2 * u + 2 * v])
    assert not ok
    # the kernel is an exact certificate
    combo = kernel[0] * (u + v) + kernel[1] * (2 * u + 2 * v)
    assert combo.is_zero()


def test_linearly_independent_edge_cases():
    with pytest.raises(ValueError):
        linearly_independent([])
    ok, kernel = linearly_independent([RING.zero()])
    assert not ok and list(kernel) == [F(1)]


# -- worked pencil values --------------------------------------------------------


def test_level1_pencil_heisenberg():
    sc = catalog.heisenberg()
    polys = pencil_at_k(sc, 2, 1, [(1, 0), (0, 1)])
    ring = alpha_ring(2, 2)
    a11, a12 = ring.var("a1_1"), ring.var("a1_2")
    a21, a22 = ring.var("a2_1"), ring.var("a2_2")
    assert list(polys) == [a11 * a22 - a12 * a21]
    ok, _ = linearly_independent(polys)
    assert ok


def test_k_pattern_121_expansion():
    # the two level-2 coordinates share the 2x2 determinant as a factor
    sc = catalog.example_3_2()
    polys = pencil_at_k(sc, 2, 2, [(1, 0), (0, 1), (1, 0)])
    ring = alpha_ring(2, 2)
    a11, a12 = ring.var("a1_1"), ring.var("a1_2")
    a21, a22 = ring.var("a2_1"), ring.var("a2_2")
    det = a11 * a22 - a12 * a21
    assert list(polys) == [a11 * det, a12 * det]
    ok, _ = linearly_independent(polys)
    assert ok


def test_k_patterns_vanish_at_top_of_step4():
    # both natural 4-row patterns collapse for two generic vectors
    sc = catalog.example_5_6()
    for rows in ([(1, 0), (0, 1), (1, 0), (1, 0)], [(1, 0), (0, 1), (1, 0), (0, 1)]):
        polys = pencil_at_k(sc, 2, 3, rows)
        assert all(p.is_zero() for p in polys)


def test_symbolic_pencil_matches_pointwise_evaluation():
    sc = catalog.example_3_2()
    pencil = build_pencil(sc, 2, 2)
    rows = [(2, -1), (1, 1), (0, 3)]
    subs = {f"k{q}_{i + 1}": v for q, row in enumerate(rows) for i, v in enumerate(row)}
    via_symbol = [c.restrict(subs, alpha_ring(2, 2)) for c in pencil]
    direct = pencil_at_k(sc, 2, 2, rows)
    assert list(via_symbol) == list(direct)


def test_deeper_generator_components_are_irrelevant():
    # the pencil projects to level p, where only level-0 parts survive;
    # this is why generic vectors carry level-0 variables only
    sc = catalog.heisenberg()
    ring = build_pencil(sc, 2, 1)[0].ring
    assert set(ring.names) >= {"a1_1", "a2_2", "k0_1", "k1_2"}
    assert not any("a1_3" in n for n in ring.names)


# -- the integer bracket table against a Fraction reference ----------------------

# common denominators D of the integer table: 2 and 60
DENOMINATOR_ALGEBRAS = [
    ("random_step3(3,3,2,0)", catalog.random_step3(3, 3, 2, seed=0)),
    ("filiform(5) rescaled", rescale_levels(catalog.filiform(5), [1, F(2, 3), F(5, 2), 3])),
]


def _fraction_level(sc, ring, weights):
    """Level-p block of the nested bracket on the rational table: every
    coefficient a Fraction, bracket_coords at every step, no rescaling."""
    n0 = sc.dims[0]
    vecs = [
        [ring.var(f"a{i + 1}_{j + 1}") if j < n0 else ring.zero() for j in range(sc.dim)]
        for i in range(len(weights[0]))
    ]
    acc = None
    for row in weights:
        w = [ring.zero() for _ in range(sc.dim)]
        for k, v in zip(row, vecs):
            for j in range(sc.dim):
                w[j] = w[j] + k * (v[j] * F(1))
        acc = w if acc is None else sc.bracket_coords(acc, w)
    level = [acc[i] for i in sc.series.level_indices(len(weights) - 1)]
    return [c if isinstance(c, MultiPoly) else ring.zero() for c in level]


def _assert_same_polys(got, ref, context):
    assert [c.terms for c in got] == [c.terms for c in ref], context
    assert [str(c) for c in got] == [str(c) for c in ref], context


PENCIL_ALGEBRAS = list(catalog.default_corpus()) + DENOMINATOR_ALGEBRAS


@pytest.mark.parametrize("sc", [sc for _, sc in PENCIL_ALGEBRAS], ids=[n for n, _ in PENCIL_ALGEBRAS])
def test_integer_pencil_matches_fraction_reference(sc):
    n0 = sc.dims[0]
    for m in (1, 2, 3):
        for p in range(1, sc.step):
            # entries in -2..2, zeros and negatives among them
            kbar = [[(q + 2 * i) % 5 - 2 for i in range(m)] for q in range(p + 1)]
            ref = _fraction_level(sc, alpha_ring(m, n0), [[F(k) for k in r] for r in kbar])
            _assert_same_polys(pencil_at_k(sc, m, p, kbar), ref, (m, p, kbar))

            word = tuple((q + q // m) % m for q in range(p + 1))
            units = [[F(int(i == t)) for i in range(max(word) + 1)] for t in word]
            ref = _fraction_level(sc, alpha_ring(len(units[0]), n0), units)
            _assert_same_polys(pencil_at_k(sc, len(units[0]), p, units), ref, word)

            ring = pencil_ring(m, n0, p)
            kvars = [[ring.var(f"k{q}_{i + 1}") * F(1) for i in range(m)] for q in range(p + 1)]
            ref = _fraction_level(sc, ring, kvars)
            _assert_same_polys(build_pencil(sc, m, p), ref, (m, p))


def _full_chain_level(sc, weights, cols):
    """Level-p block of [ ... [W_0, W_1], ..., W_p ] by the exact bracket
    on the full algebra, one LieVector per W_q."""
    acc = None
    for row in weights:
        w = LieVector([sum(k * c for k, c in zip(row, col)) for col in cols]
                      + [0] * (sc.dim - len(cols)))
        acc = w if acc is None else sc.bracket(acc, w)
    return [acc[i] for i in sc.series.level_indices(len(weights) - 1)]


@pytest.mark.parametrize("sc", [sc for _, sc in PENCIL_ALGEBRAS], ids=[n for n, _ in PENCIL_ALGEBRAS])
def test_quotient_chain_matches_full_algebra(sc):
    rng = random.Random(5)
    for m in (1, 2, 3):
        for p in range(sc.step):
            q_sc = quotient_algebra(sc, p)
            # level-0 points, as the pencil takes them, or dense ones
            rows = sc.dims[0] if (m + p) % 2 else q_sc.dim
            cols = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(rows)]
            kbar = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(p + 1)]
            acc = nested_bracket(q_sc, kbar, cols)
            assert len(acc) == q_sc.dim and all(type(x) is int for x in acc)
            scale = q_sc.integer_table[0] ** p
            got = [F(acc[i], scale) for i in q_sc.series.level_indices(p)]
            assert got == _full_chain_level(sc, kbar, cols), (m, p, kbar)


def test_denominator_algebras_have_nontrivial_integer_tables():
    assert [sc.integer_table[0] for _, sc in DENOMINATOR_ALGEBRAS] == [2, 60]


# -- certificates ------------------------------------------------------------------


def test_certify_great_small():
    for sc in (catalog.heisenberg(), catalog.example_3_2(), catalog.filiform(5)):
        cert = certify_greatness(sc, 2)
        assert cert.is_great
        assert cert.verify(sc)


def test_certify_budget_is_checked():
    sc = catalog.heisenberg()
    with pytest.raises(ValueError, match="budget must be at least 0"):
        certify_greatness(sc, 2, budget=-1)
    # budget 0 tries nothing and decides every level symbolically only
    cert = certify_greatness(catalog.example_5_6(), 2, budget=0)
    assert [lvl.tried for lvl in cert.levels] == [0, 0, 0]
    assert cert.level(3).proof == "identically_zero"


def test_certify_degenerate_step4():
    sc = catalog.example_5_6()
    cert = certify_greatness(sc, 2, budget=40, seed=0)
    assert cert.verdict == "degenerate"
    lvl = cert.level(3)
    assert lvl.status == "degenerate"
    assert lvl.proof == "identically_zero"
    assert cert.verify(sc)


def test_certify_m4_restores_greatness():
    cert = certify_greatness(catalog.example_5_6(), 4)
    assert cert.is_great
    assert cert.verify(sc=catalog.example_5_6())


RANDOM_STEP3 = [
    (f"random_step3(3,3,2,{s})", catalog.random_step3(3, 3, 2, seed=s)) for s in range(3)
]
# level dims (n0, n1, n2) random_step3 realizes for every seed tried
STEP3_SHAPES = [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3)]
random_step3s = st.builds(
    lambda shape, seed: catalog.random_step3(*shape, seed=seed),
    st.sampled_from(STEP3_SHAPES),
    st.integers(0, 10**6),
)


def _check_quotients(sc, m):
    """Levels compared: the certificate of g at level p is the top-level
    certificate of g / g^(p+1)."""
    cert = certify_greatness(sc, m)
    for p in range(1, sc.step):
        assert certify_greatness(quotient_algebra(sc, p), m).level(p) == cert.level(p), (m, p)
    return sc.step - 1


def test_level_certificate_equals_its_quotients():
    """The quotient's levels below p draw from the random stream exactly
    as g's do.  A change to how the stream is shared between levels would
    have to move this."""
    checked = 0
    for _, sc in catalog.default_corpus() + RANDOM_STEP3:
        for m in (2, 3):
            checked += _check_quotients(sc, m)
    assert checked == 56 + 12


@settings(max_examples=50, deadline=None)
@given(random_step3s, st.sampled_from([1, 2, 3]))
def test_level_certificate_equals_its_quotients_on_random_shapes(sc, m):
    _check_quotients(sc, m)


def _change_basis(sc, rng):
    """sc in another adapted basis: each new level-p basis vector is an
    integer combination, entries in -2..2, of the old vectors of level
    >= p, and the level-p block of the change is invertible."""
    n, series = sc.dim, sc.series
    cols = []  # the old coordinates of each new basis vector
    for p in range(series.step):
        block = series.level_indices(p)
        while True:
            new = [[F(rng.randint(-2, 2) if i >= block.start else 0) for i in range(n)]
                   for _ in block]
            if len(rref([[c[i] for i in block] for c in new])[1]) == len(block):
                break
        cols += new
    # rows of [A | I] with A's columns the new vectors reduce to [I | A^-1]
    inverse = [row[n:] for row in rref([[c[i] for c in cols] + [F(i == j) for j in range(n)]
                                        for i in range(n)])[0]]
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        out = sc.bracket(LieVector(cols[a]), LieVector(cols[b])).coords
        brackets[(a, b)] = {k: sum(r * x for r, x in zip(row, out)) for k, row in enumerate(inverse)}
    return StructureConstants(n, brackets)


def _check_basis_change(sc, rng):
    """Levels compared: the same algebra in another adapted basis has the
    same verdict and proof kind at every level, for m = 1, 2, 3;
    witnesses and tries may differ."""
    moved = _change_basis(sc, rng)
    assert check_jacobi(moved).ok and moved.dims == sc.dims
    for m in (1, 2, 3):
        cert, moved_cert = certify_greatness(sc, m), certify_greatness(moved, m)
        assert moved_cert.verify(moved), m
        for p in range(1, sc.step):
            a, b = cert.level(p), moved_cert.level(p)
            assert (a.status, a.proof) == (b.status, b.proof), (m, p)
    return 3 * (sc.step - 1)


def test_basis_change_keeps_every_verdict():
    rng = random.Random(14)
    algebras = catalog.default_corpus() + RANDOM_STEP3
    checked = sum(_check_basis_change(sc, rng) for _, sc in algebras)
    assert checked == 102


@settings(max_examples=50, deadline=None)
@given(random_step3s, st.integers(0, 10**6))
def test_basis_change_keeps_every_verdict_on_random_shapes(sc, seed):
    _check_basis_change(sc, random.Random(seed))


PRODUCT_FACTORS = [
    ("heisenberg", catalog.heisenberg()),
    ("example_3_2", catalog.example_3_2()),
    ("triangular(2)", catalog.triangular(2)),
    ("triangular(3)", catalog.triangular(3)),
    ("filiform(5)", catalog.filiform(5)),
    ("quasi_abelian(3,2)", catalog.quasi_abelian((3, 2))),
]


def _check_product(a, b, m):
    """(levels compared, levels where the product is degenerate and a
    factor has a witness): g x h is m-degenerate at level p iff a factor
    with a level p is, since the product's level-p pencil joins the
    factors' pencils, in disjoint variables, and the factors' sets of
    good k are nonempty and Zariski-open, so they meet."""
    sc = direct_product(a, b)
    certs = [certify_greatness(f, m) for f in (sc, a, b)]
    assert all(c.verdict != "undetermined" for c in certs), m
    mixed = 0
    for p in range(1, sc.step):
        factors = [c.level(p).status for c, f in zip(certs[1:], (a, b)) if p < f.step]
        degenerate = certs[0].level(p).status == "degenerate"
        assert degenerate == ("degenerate" in factors), (m, p)
        mixed += degenerate and "witness" in factors
    return sc.step - 1, mixed


def test_product_is_degenerate_where_a_factor_is():
    # example_5_6 is 2-degenerate at level 3 and filiform(5) is not
    mixed_pair = (("example_5_6", catalog.example_5_6()), PRODUCT_FACTORS[4])
    pairs = [*itertools.combinations(PRODUCT_FACTORS, 2), mixed_pair]
    pairs += itertools.combinations(RANDOM_STEP3, 2)
    pairs += [(r, PRODUCT_FACTORS[4]) for r in RANDOM_STEP3]
    checked = mixed = 0
    for (_, a), (_, b) in pairs:
        for m in (1, 2):
            levels, both = _check_product(a, b, m)
            checked, mixed = checked + levels, mixed + both
    assert checked == 68 + 6 + 30 and mixed == 1


@settings(max_examples=50, deadline=None)
@given(random_step3s, random_step3s, st.sampled_from([1, 2]))
def test_product_is_degenerate_where_a_factor_is_on_random_shapes(a, b, m):
    _check_product(a, b, m)


def _uniform_kernel_case():
    # level 3 is two-dimensional: example_5_6's coordinate vanishes for two
    # generic vectors, filiform(5)'s does not, so (1, 0) annihilates it
    sc = direct_product(catalog.example_5_6(), catalog.filiform(5))
    return sc, certify_greatness(sc, 2, budget=50)


def test_certify_uniform_kernel():
    sc, cert = _uniform_kernel_case()
    assert cert.verdict == "degenerate"
    lvl = cert.level(3)
    assert lvl.status == "degenerate"
    assert lvl.proof == "uniform_kernel"
    assert lvl.kernel == (F(1), F(0))
    # its tries are dependent but not all-zero; level 3 is not futile
    # (m = 2 < min(n0, 3)), so once the structured candidates fail the
    # symbolic pencil is built, and its kernel settles the level before
    # any random draw
    assert lvl.tried == len(_structured_candidates(2, 3))
    assert cert.verify(sc)


# -- settling all-zero levels early ---------------------------------------------------


def test_all_zero_level_settles_once_structured_candidates_are_spent():
    sc = catalog.example_5_6()
    cert = certify_greatness(sc, 2)
    lvl = cert.level(3)
    assert lvl.proof == "identically_zero"
    assert lvl.tried == len(_structured_candidates(2, 3)) == 4
    assert cert == certify_greatness(sc, 2, budget=40)
    # a level with a uniform kernel and nonzero pencils settles just as soon
    sc, cert = _uniform_kernel_case()
    lvl = cert.level(3)
    assert lvl.proof == "uniform_kernel"
    assert lvl.tried == len(_structured_candidates(2, 3)) == 4
    assert cert == certify_greatness(sc, 2, budget=200)


def test_one_generator_levels_are_identically_zero_after_one_try():
    for sc in (catalog.heisenberg(), catalog.filiform(5)):
        cert = certify_greatness(sc, 1)
        assert [(lv.proof, lv.tried) for lv in cert.levels] == [
            ("identically_zero", 1)
        ] * (sc.step - 1)
        assert cert.verify(sc)


def test_full_rank_symbolic_pencil_resumes_random_search():
    # every structured try at m=3, level 3 is all-zero but the symbolic
    # pencil is not degenerate, and the fifth try (the first random one)
    # is proved by evaluation, so it is the witness
    sc = catalog.example_5_6()
    cert = certify_greatness(sc, 3)
    lvl = cert.level(3)
    assert lvl.status == "witness" and lvl.tried == 5
    assert lvl.witness == ((3, 0, 3), (0, -3, -1), (1, 0, 0), (3, 3, -1))


def test_symbolic_build_only_where_a_proof_can_exist(monkeypatch):
    builds, streams = [], []
    build = pencil.build_pencil

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    monkeypatch.setattr(
        pencil, "build_pencil", lambda sc, m, p: builds.append(m) or build(sc, m, p)
    )
    monkeypatch.setattr(pencil.random, "Random", Recorded)
    sc = catalog.example_5_6()
    # at m=3 level 3 is futile (m >= min(n0, 3)), so nothing is built, and
    # evaluation proves the first random try
    assert certify_greatness(sc, 3).level(3).tried == 5
    # at m=2 the structured candidates fail at level 3; the build settles
    # it before any random draw, leaving the seed-0 stream untouched
    cert = certify_greatness(sc, 2)
    assert builds == [2]
    assert all(lv.tried <= len(_structured_candidates(2, lv.p)) for lv in cert.levels)
    assert streams[1].getstate() == random.Random(0).getstate()


def test_tampered_certificate_fails_verify():
    sc = catalog.heisenberg()
    cert = certify_greatness(sc, 2)
    lvl = cert.level(1)
    object.__setattr__(lvl, "witness", ((1, 0), (2, 0)))  # collinear rows
    assert not cert.verify(sc)
    sc, cert = _uniform_kernel_case()
    object.__setattr__(cert.level(3), "kernel", (F(0), F(1)))
    assert not cert.verify(sc)
    # certificates that prove nothing: heisenberg is 2-great, so a zero
    # kernel must not pass as a proof of degeneracy
    zero = LevelCertificate(p=1, status="degenerate", proof="uniform_kernel", kernel=(F(0),))
    assert not GreatnessCertificate(m=2, step=2, levels=(zero,)).verify(catalog.heisenberg())
    sc, good = _uniform_kernel_case()
    assert good.verify(sc)

    def level3(**changes):
        levels = tuple(replace(lv, **changes) if lv.p == 3 else lv for lv in good.levels)
        return replace(good, levels=levels)

    tampered = [
        level3(kernel=()),  # too short
        level3(kernel=(F(1), F(0), F(5))),  # too long
        level3(kernel=None),
        level3(kernel=("a", 0)),  # entries must be ints or Fractions
        level3(kernel=(1.0, 0)),
        level3(proof=None),
        level3(proof="by_inspection"),
        level3(status="great"),
        replace(good, step=good.step + 1),
        replace(good, levels=good.levels[:-1]),
        replace(good, levels=good.levels[::-1]),
        replace(good, levels=()),
        # levels that are not a sequence of LevelCertificates raised
        # TypeError or AttributeError
        replace(good, levels=None),
        replace(good, levels=5),
        replace(good, levels=(1,)),
    ]
    # m must be an int >= 1, read before any level is, and so must step
    tampered += [replace(good, m=m) for m in (2.0, "2", 0, True)]
    tampered += [replace(good, step=step) for step in (4.0, True)]
    for bad in tampered:
        assert not bad.verify(sc), bad
    # every p must be an int: a float p at a witness level and at a
    # degenerate one reached the pencil builders, which raised TypeError
    for alg, p in ((catalog.example_3_2(), 1), (catalog.example_5_6(), 3)):
        cert = certify_greatness(alg, 2)
        levels = tuple(replace(lv, p=float(p)) if lv.p == p else lv for lv in cert.levels)
        assert cert.verify(alg) and not replace(cert, levels=levels).verify(alg), p
    # witnesses verify cannot read fail instead of raising
    sc = catalog.heisenberg()
    cert = certify_greatness(sc, 2)
    unreadable = [None, ((1, 0),), ((1, 0, 0), (0, 1, 0)), ((1, 0), 5), 7]
    unreadable += [(("a", 0), (0, 1)), ((None, 0), (0, 1))]  # not ints or Fractions
    for witness in unreadable:
        bad = replace(cert, levels=(replace(cert.level(1), witness=witness),))
        assert not bad.verify(sc), witness


def test_certify_decides_every_try_by_evaluation(monkeypatch):
    # certify never takes a polynomial rank on a try, and builds at most
    # one symbolic pencil per level, only at a level that is not futile,
    # and ranks it at most once
    algebras = list(catalog.default_corpus()) + [("uniform_kernel", _uniform_kernel_case()[0])]
    builds, ranks = [], []
    build, rank = pencil.build_pencil, pencil.linearly_independent

    def no_pencil_at_k(*args):
        raise AssertionError("certify evaluated pencil_at_k")

    monkeypatch.setattr(pencil, "pencil_at_k", no_pencil_at_k)
    monkeypatch.setattr(
        pencil, "build_pencil", lambda sc, m, p: builds.append(p) or build(sc, m, p)
    )
    monkeypatch.setattr(pencil, "linearly_independent", lambda polys: ranks.append(1) or rank(polys))
    for label, sc in algebras:
        for m in (2, 3, 4):
            builds.clear()
            ranks.clear()
            certify_greatness(sc, m)
            assert len(builds) == len(set(builds)), (label, m, builds)
            assert not any(_futile(sc, m, p) for p in builds), (label, m, builds)
            assert len(ranks) <= len(builds), (label, m)


# -- futile levels: no proof of degeneracy exists --------------------------------------


def test_no_futile_level_has_a_symbolic_proof():
    # Schur-Weyl and the absence of the sign character from Lie_n, n >= 3:
    # at m >= min(n0, max(p, 2)) the pencil spans the whole level
    algebras = catalog.default_corpus() + RANDOM_STEP3 + [
        (f"random_step3(2,1,2,{s})", catalog.random_step3(2, 1, 2, seed=s)) for s in range(3)
    ]
    checked = 0
    for label, sc in algebras:
        for m in (1, 2, 3, 4):
            for p in range(1, sc.step):
                if _futile(sc, m, p):
                    assert _symbolic_proof(p, build_pencil(sc, m, p), 0) is None, (label, m, p)
                    checked += 1
    assert checked == 118


def test_certify_builds_nothing_at_futile_levels():
    # filiform(11) has n0 = 2, so every level is futile at m = 4; the
    # symbolic pencil there has 6 * 4^p terms, over a GB at p = 9
    sc = catalog.filiform(11)
    tracemalloc.start()
    try:
        cert = certify_greatness(sc, 4, budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(lv.status, lv.tried) for lv in cert.levels] == [("undetermined", 0)] * 9
    assert peak < 2 * 2**20, peak


def test_degenerate_claim_at_a_futile_level_fails_verify_unbuilt(monkeypatch):
    def no_build(*args):
        raise AssertionError("verify built a pencil")

    sc = catalog.heisenberg()
    cert = certify_greatness(sc, 1)
    monkeypatch.setattr(pencil, "build_pencil", no_build)
    for lvl in (
        LevelCertificate(p=1, status="degenerate", proof="identically_zero"),
        LevelCertificate(p=1, status="degenerate", proof="uniform_kernel", kernel=(F(1),)),
    ):
        assert not GreatnessCertificate(m=2, step=2, levels=(lvl,)).verify(sc)
    # heisenberg is 1-degenerate; the same proof at a huge m is refused at
    # once, where building the pencil would take O(m^2) terms
    assert cert.level(1).proof == "identically_zero"
    assert not replace(cert, m=10**6).verify(sc)


# -- witnesses proved by integer evaluation -------------------------------------------


def _random_k(rng, m, p):
    return tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(p + 1))


def _certify_tries(sc, m):
    """Every (p, k) that certify_greatness(sc, m) tries, rebuilt from its
    certificate: structured candidates first, then the seed-0 stream."""
    rng = random.Random(0)
    out = []
    for lv in certify_greatness(sc, m).levels:
        tries = list(_structured_candidates(m, lv.p)[: lv.tried])
        while len(tries) < lv.tried:
            tries.append(_random_k(rng, m, lv.p))
        if lv.status == "witness":
            assert tries[-1] == lv.witness
        out += [(lv.p, k) for k in tries]
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_evaluation_agrees_with_polynomial_rank_on_every_certify_try(m):
    # over the corpus and the uniform-kernel product, evaluation proves a
    # try exactly when the polynomial rank finds no kernel
    algebras = [sc for _, sc in catalog.default_corpus()] + [_uniform_kernel_case()[0]]
    for sc in algebras:
        for p, kbar in _certify_tries(sc, m):
            ok, _ = linearly_independent(pencil_at_k(sc, m, p, kbar))
            assert _proved_independent(sc, m, p, kbar) == ok, (sc.names, m, p, kbar)


def _level3_tries():
    rng = random.Random(0)
    return list(_structured_candidates(2, 3)) + [_random_k(rng, 2, 3) for _ in range(50)]


def test_evaluation_never_proves_a_degenerate_level():
    # example_5_6's level 3 is identically zero for two vectors, and the
    # product's level 3 has the uniform kernel (1, 0)
    for sc in (catalog.example_5_6(), _uniform_kernel_case()[0]):
        assert not any(_proved_independent(sc, 2, 3, k) for k in _level3_tries())


def test_tampered_witness_fails_verify_through_the_polynomial_rank(monkeypatch):
    sc = catalog.example_3_2()
    cert = certify_greatness(sc, 2)
    lvl = cert.level(2)
    k0, k1, k2 = lvl.witness
    calls = []
    at_k = pencil.pencil_at_k
    monkeypatch.setattr(pencil, "pencil_at_k", lambda *a: calls.append(a[3]) or at_k(*a))
    for bad in (((0, 0), k1, k2), (k0, k0, k2)):
        object.__setattr__(lvl, "witness", bad)
        assert not cert.verify(sc)
    # level 1 is proved by evaluation, each bad level-2 row by the fallback
    assert calls == [((0, 0), k1, k2), (k0, k0, k2)]


def test_fraction_witness_is_decided_by_the_polynomial_rank():
    sc = catalog.heisenberg()

    def cert(witness):
        level = LevelCertificate(p=1, status="witness", witness=witness)
        return GreatnessCertificate(m=2, step=2, levels=(level,))

    half = ((F(1, 2), 0), (0, F(3)))
    assert not _proved_independent(sc, 2, 1, half)
    assert cert(half).verify(sc)
    assert not cert(((F(1, 2), 0), (F(3), 0))).verify(sc)


def test_evaluation_points_are_fixed_and_cached():
    pts = _points(2, 3, 4)
    assert pts is _points(2, 3, 4)
    assert len(pts) == 4 and all(len(col) == 2 for pt in pts for col in pt)
    assert all(abs(a) <= POINT_BOUND for pt in pts for col in pt for a in col)
    _points.cache_clear()
    assert _points(2, 3, 4) == pts


def test_certificate_json_shape():
    cert = certify_greatness(catalog.heisenberg(), 2)
    doc = cert.to_json_dict()
    assert doc["verdict"] == "great"
    assert doc["m"] == 2 and doc["step"] == 2
    assert doc["levels"][0]["p"] == 1
    assert doc["levels"][0]["status"] == "witness"


# -- pinned certify bytes ------------------------------------------------------------

# SHA-256 of _certify_canon(); it pins certificates, witness searches,
# random-algebra bases (the nullspace path) and kernel vectors across
# refactors of pencil and linalg.
CERTIFY_SHA256 = "c9f624af2bc2a00daa692c234383085cdf3f60ba7aa8dae73f2355e6e091450e"


def _certify_canon():
    certs = []
    algebras = []
    corpus = list(catalog.default_corpus())
    for s in range(3):
        sc = catalog.random_step3(3, 2, 2, s)
        corpus.append((f"random_step3(3,2,2,{s})", sc))
        algebras.append(algebra_to_json(sc))
    for label, sc in corpus:
        for m in (2, 3, 4):
            cert = certify_greatness(sc, m)
            certs.append([label, m, cert.to_json_dict(), cert.verify(sc)])
    sc, cert = _uniform_kernel_case()
    certs.append(["uniform_kernel", 2, cert.to_json_dict(), cert.verify(sc)])
    matrices = [
        [[0, 1], [0, 1], [1, 0]],
        [[F(1), F(1, 2), F(0)], [F(0), F(1), F(3)], [F(2), F(0), F(-3)]],
    ]
    kernels = [[str(x) for x in left_kernel_vector(rows)] for rows in matrices]
    doc = {"certificates": certs, "algebras": algebras, "kernels": kernels}
    return json.dumps(doc, sort_keys=True).encode()


def test_certify_bytes_pinned():
    assert hashlib.sha256(_certify_canon()).hexdigest() == CERTIFY_SHA256

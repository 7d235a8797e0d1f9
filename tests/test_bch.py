"""The series is derived here, as log(exp x exp y) truncated in the free
algebra, so the checks here are what actually certifies it: its
exponential, frozen low-order values and per-step digests, the classical
degree-3 closed form on exact vectors, and associativity of the induced
product, which fails loudly for any wrong coefficient."""

import hashlib
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import bch, catalog
from nilwalk.bch import (
    MAX_STEP,
    Word,
    bch_coords,
    bch_product,
    bch_word_coefficients,
    word_eval,
)
from nilwalk.lie_core import LieVector, rescale_levels
from nilwalk.pencil import PolyRing

F = Fraction
X, Y = 0, 1


def small_vec(dim):
    return st.lists(
        st.fractions(-2, 2, max_denominator=3), min_size=dim, max_size=dim
    ).map(LieVector)


# the default corpus has integer structure constants (D = 1); these two
# exercise the integer kernels with D = 2 and D = 60
DENOMINATOR_ALGEBRAS = [
    catalog.random_step3(3, 3, 2, seed=0),
    rescale_levels(catalog.filiform(5), [1, F(2, 3), F(5, 2), 3]),
]
ALGEBRAS = [sc for _, sc in catalog.default_corpus()] + DENOMINATOR_ALGEBRAS


def mixed_vec(dim):
    """A zero vector, or coordinates with unrelated denominators."""
    return st.one_of(
        st.just(LieVector.zero(dim)),
        st.lists(
            st.fractions(-3, 3, max_denominator=12), min_size=dim, max_size=dim
        ).map(LieVector),
    )


def test_denominator_algebras_have_denominators():
    assert [sc.integer_table[0] for sc in DENOMINATOR_ALGEBRAS] == [2, 60]


def dynkin_reference(sc, xs, ys):
    """The Dynkin sum term by term: each word's rational coefficient times
    its right-nested bracket taken with the generic sc.bracket_coords.
    Independent of the integer core that bch_product and bch_coords share."""
    out = [a + b for a, b in zip(xs, ys)]
    vecs = (xs, ys)
    for word, c in bch_word_coefficients(sc.step).items():
        v = vecs[word[-1]]
        for letter in reversed(word[:-1]):
            v = sc.bracket_coords(vecs[letter], v)
        for k in range(sc.dim):
            if v[k]:
                out[k] = out[k] + c * v[k]
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_kernels_match_generic(data):
    """The integer bracket, bch_product and bch_coords on Fractions equal
    the generic Fraction evaluation of the same formulas, exactly."""
    sc = data.draw(st.sampled_from(ALGEBRAS))
    x = data.draw(mixed_vec(sc.dim))
    y = data.draw(mixed_vec(sc.dim))
    reference = dynkin_reference(sc, x.coords, y.coords)
    assert sc.bracket(x, y) == LieVector(sc.bracket_coords(x.coords, y.coords))
    assert bch_product(sc, x, y) == LieVector(reference)
    assert bch_coords(sc, x.coords, y.coords) == reference


@pytest.mark.parametrize("sc", DENOMINATOR_ALGEBRAS, ids=["D=2", "D=60"])
def test_denominator_algebras_match_reference(sc):
    x = LieVector([F(i - 2, 3 + i) for i in range(sc.dim)])
    y = LieVector([F(5 - 2 * i, 4) for i in range(sc.dim)])
    reference = dynkin_reference(sc, x.coords, y.coords)
    assert bch_product(sc, x, y) == LieVector(reference)
    assert bch_coords(sc, x.coords, y.coords) == reference


# step 6 (the deepest series table), the dim-15 corpus algebra and D = 60
DEEP_ALGEBRAS = [catalog.filiform(7), catalog.example_5_6(), DENOMINATOR_ALGEBRAS[1]]


@pytest.mark.parametrize("sc", DEEP_ALGEBRAS, ids=["filiform(7)", "example_5_6", "D=60"])
def test_deep_algebras_match_reference(sc):
    """Pairs whose brackets vanish from some length on (y = x, y central,
    y deep in the series) run the plan's zero-suffix skips; polynomial
    coordinates run bch_coords' Fraction weights."""
    n = sc.dim
    x = LieVector([F(i - 2, 3 + i) for i in range(n)])
    pairs = [
        (x, LieVector([F(5 - 2 * i, 4) for i in range(n)])),
        (x, x),
        (x, LieVector.basis(n, n - 1)),
        (x, LieVector.basis(n, n - 2)),
        (LieVector.basis(n, 1), x),
    ]
    for a, b in pairs:
        reference = dynkin_reference(sc, a.coords, b.coords)
        assert bch_product(sc, a, b) == LieVector(reference)
        assert bch_coords(sc, a.coords, b.coords) == reference
    ring = PolyRing(["a", "b"])
    xs = [F(i + 1, 3) * ring.var("a") + F(1, i + 2) for i in range(n)]
    ys = [F(2 - i, 5) * ring.var("b") for i in range(n)]
    assert bch_coords(sc, xs, ys) == dynkin_reference(sc, xs, ys)


def test_no_bracket_is_taken_on_a_zero_suffix(monkeypatch):
    """A suffix whose bracket is zero ends every longer word on it: in
    filiform(7), [x, [x, X6]] = 0 and no length-4 word builds on it."""
    counted = []

    def count_brackets(sc):
        inner = sc.integer_bracket

        def bracket(xs, ys):
            counted.append(any(ys))
            return inner(xs, ys)

        monkeypatch.setattr(sc, "integer_bracket", bracket)

    sc = catalog.filiform(7)
    x = LieVector([F(1), F(2), F(-1), F(0), F(1, 2), F(3), F(1)])
    y = LieVector.basis(7, 5)
    reference = LieVector(dynkin_reference(sc, x.coords, y.coords))
    count_brackets(sc)
    assert bch_product(sc, x, y) == reference
    assert counted and all(counted)
    counted.clear()
    sc = catalog.abelian(4)
    count_brackets(sc)
    x, y = LieVector.basis(4, 0), LieVector([F(1), F(2), F(0), F(-1)])
    assert bch_product(sc, x, y) == x + y
    assert counted == []


def _free_bracket(a, b):
    """ab - ba in the free associative algebra, {word tuple: coefficient}."""
    out = {}
    for u, s in a.items():
        for v, t in b.items():
            out[u + v] = out.get(u + v, 0) + s * t
            out[v + u] = out.get(v + u, 0) - s * t
    return {w: c for w, c in out.items() if c}


def _plan_words(step):
    """The plan's slot polynomials expanded in the free algebra, and
    {least word of P_w: c_w} from its terms."""
    brackets, terms, scale = bch._series_plan(step)
    polys = [{(X,): 1}, {(Y,): 1}]
    for left, right in brackets:
        polys.append(_free_bracket(polys[left], polys[right]))
    coefficients = {min(polys[slot]): F(e, scale[L]) for slot, L, e in terms}
    return polys, coefficients, terms


# (brackets, terms) per step; the right-nested Dynkin words would take
# 2/2, 6/6, 8/8, 30/24 and 44/38 at steps 2-6
PLAN_SIZES = {2: (1, 1), 3: (3, 3), 4: (4, 4), 5: (12, 10), 6: (17, 15)}
LYNDON_COEFFICIENTS = {
    (X, Y): F(1, 2),
    (X, X, Y): F(1, 12),
    (X, Y, Y): F(1, 12),
    (X, X, Y, Y): F(1, 24),
    (X, X, X, X, Y): F(-1, 720),
    (X, X, X, Y, Y): F(1, 180),
    (X, X, Y, X, Y): F(1, 360),
    (X, X, Y, Y, Y): F(1, 180),
    (X, Y, X, Y, Y): F(1, 120),
    (X, Y, Y, Y, Y): F(-1, 720),
    (X, X, X, X, Y, Y): F(-1, 1440),
    (X, X, X, Y, X, Y): F(1, 720),
    (X, X, X, Y, Y, Y): F(1, 360),
    (X, X, Y, X, Y, Y): F(1, 240),
    (X, X, Y, Y, Y, Y): F(-1, 1440),
}


@pytest.mark.parametrize("step", range(2, MAX_STEP + 1))
def test_lyndon_plan_expands_to_the_dynkin_sum(step):
    """Every P_w is w plus larger words, w Lyndon, and the plan's sum of
    c_w P_w is the Dynkin sum, both expanded in the free algebra."""
    polys, coefficients, terms = _plan_words(step)
    basis = {min(p): p for p in polys[2:]}
    assert len(basis) == len(polys) - 2
    for w, p in basis.items():
        assert p[w] == 1 and all(w < w[i:] for i in range(1, len(w)))
    lyndon_sum = {}
    for w, c in coefficients.items():
        for u, t in basis[w].items():
            lyndon_sum[u] = lyndon_sum.get(u, 0) + c * t
    dynkin_sum = {}
    for word, c in bch_word_coefficients(step).items():
        nested = {word[-1:]: 1}
        for letter in reversed(word[:-1]):
            nested = _free_bracket({(letter,): 1}, nested)
        for u, t in nested.items():
            dynkin_sum[u] = dynkin_sum.get(u, 0) + c * t
    assert {u: c for u, c in lyndon_sum.items() if c} == {u: c for u, c in dynkin_sum.items() if c}
    assert (len(polys) - 2, len(terms)) == PLAN_SIZES[step]
    assert coefficients == {w: c for w, c in LYNDON_COEFFICIENTS.items() if len(w) <= step}


def test_lyndon_plan_refuses_a_residual(monkeypatch):
    # with ab in place of ab - ba every word expands to itself, so the
    # Dynkin words that are not Lyndon, such as yx, are left over
    monkeypatch.setattr(
        bch, "_commutator", lambda a, b: {u + v: s * t for u, s in a.items() for v, t in b.items()}
    )
    with pytest.raises(ArithmeticError, match="Lyndon"):
        bch._series_plan.__wrapped__(2)


def test_step6_product_takes_one_bracket_per_plan_entry(monkeypatch):
    """On triangular(6), of step 6, no Lyndon bracket of generic vectors
    vanishes: one product takes all 17 of the plan's brackets."""
    sc = catalog.triangular(6)
    n = sc.dim
    x = LieVector([F(i - 2, 3 + i) for i in range(n)])
    y = LieVector([F(5 - 2 * i, 4) for i in range(n)])
    calls = []
    inner = sc.integer_bracket
    monkeypatch.setattr(sc, "integer_bracket", lambda xs, ys: calls.append(1) or inner(xs, ys))
    got = bch_product(sc, x, y)
    assert (sc.step, len(calls)) == (6, 17)
    assert got == LieVector(dynkin_reference(sc, x.coords, y.coords))


def test_bch_coords_on_polynomials_matches_reference():
    sc = DENOMINATOR_ALGEBRAS[1]
    n = sc.dim
    ring = PolyRing([f"t{i}" for i in range(n)] + [f"s{i}" for i in range(n)])
    xs = [ring.var(f"t{i}") + F(1, i + 2) for i in range(n)]
    ys = [F(i + 1, 7) * ring.var(f"s{i}") for i in range(n)]
    got = bch_coords(sc, xs, ys)
    assert got == dynkin_reference(sc, xs, ys)
    assert any(len(p.terms) > 2 for p in got)


def _free_product(a, b, step):
    """ab in the free associative algebra, words longer than step dropped."""
    out = {}
    for u, s in a.items():
        for v, t in b.items():
            if len(u) + len(v) <= step:
                out[u + v] = out.get(u + v, 0) + s * t
    return out


@pytest.mark.parametrize("step", range(2, MAX_STEP + 1))
def test_series_exponentiates_to_exp_x_exp_y(step):
    """exp of _bch_log(step), the sum of its powers over n!, truncated at
    length step, is exp x exp y: the words x^r y^s over r! s!."""
    log = bch._bch_log(step)
    total, power = {(): F(1)}, {(): F(1)}
    for n in range(1, step + 1):
        power = _free_product(power, log, step)
        for w, c in power.items():
            total[w] = total.get(w, 0) + c / factorial(n)
    expected = {
        (X,) * r + (Y,) * s: F(1, factorial(r) * factorial(s))
        for r in range(step + 1)
        for s in range(step + 1 - r)
    }
    assert {w: c for w, c in total.items() if c} == expected


# SHA-256 of repr(sorted(bch_word_coefficients(step).items())) and of
# repr(_series_plan(step)), taken when the Dynkin table came from
# Goldberg's cut sum over block decompositions, an independent derivation
SERIES_SHA256 = {
    1: ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "e2cd28edc2e7b39ae90f1c03cd31d015977383fe3887983c84ef9025e6367fe3"),
    2: ("00985b87a4e258573130579ef3899513c9e112eeb31d260b7893ba3860c37eb6",
        "487ec811c699f6eee1059ab9c20cdd8ef679b648bcfa46483b20e65db4bbbdc1"),
    3: ("6572bcfe089fbae905741216cc882224024aa0e9254784ac48268674096a2bb0",
        "73b507b7d127cddbe2586e461765e71a24acd5c65c3e53ca0a1c11c0fdffe74b"),
    4: ("397820468373845c1ea85a47782efc7621eaa267bdaf16db5f737bea9c6db559",
        "fdf4c46663f60e94d54189d8798aecb27c8c52a6adf416011cae0727d66eb20e"),
    5: ("16d7ecc82fcd4bf005c43f9873e6b15ec331fd39425130fe577a9b647fe3dc50",
        "55d6b1516eb7cf265bb832708996d008fea2f855cba77afc72169db7600c3ada"),
    6: ("ef1bef8c75b7078d0ee2ba45bb7d1c161dcba005022cbd269617c89b33b15c17",
        "0ddbea97b2b44b884c2ccb9b8bd1c1a11ce7eb3e5ea6ed4599097cdb37de4dea"),
}


@pytest.mark.parametrize("step", range(1, MAX_STEP + 1))
def test_series_tables_are_pinned(step):
    def digest(obj):
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    got = digest(sorted(bch_word_coefficients(step).items())), digest(bch._series_plan(step))
    assert got == SERIES_SHA256[step]


def test_low_order_coefficients():
    c = bch_word_coefficients(3)
    # degree 1 lives outside the table (the sum x + y is added directly)
    assert (X,) not in c and (Y,) not in c
    # [x,y]/2: both orders contribute
    assert c[(X, Y)] - c[(Y, X)] == F(1, 2)
    # [x,[x,y]]/12 and [y,[y,x]]/12
    assert c[(X, X, Y)] - c[(X, Y, X)] == F(1, 12)
    assert c[(Y, Y, X)] - c[(Y, X, Y)] == F(1, 12)


def test_words_ending_doubled_are_dropped():
    for L in (2, 3, 4):
        for w in bch_word_coefficients(L):
            assert len(w) < 2 or w[-1] != w[-2]
            assert bch_word_coefficients(L)[w] != 0


def test_identity_and_inverse():
    sc = catalog.example_3_2()
    x = LieVector([F(1), F(-2), F(3), F(0), F(1, 2)])
    # log(exp x exp 0) = x exactly: the other argument comes back as is
    assert bch_product(sc, x, LieVector.zero(5)) is x
    assert bch_product(sc, LieVector.zero(5), x) is x
    assert not any(bch_product(sc, x, -x))


def test_degree_three_closed_form():
    # z = x + y + [x,y]/2 + [x,[x,y]]/12 + [y,[y,x]]/12 on a step-3 algebra
    sc = catalog.example_3_2()
    x = LieVector([F(1), F(2), F(-1), F(0), F(3)])
    y = LieVector([F(-1, 2), F(1), F(2), F(1), F(0)])
    xy = sc.bracket(x, y)
    expected = (
        x
        + y
        + F(1, 2) * xy
        + F(1, 12) * sc.bracket(x, xy)
        + F(1, 12) * sc.bracket(y, sc.bracket(y, x))
    )
    assert bch_product(sc, x, y) == expected


@settings(max_examples=25, deadline=None)
@given(small_vec(5), small_vec(5), small_vec(5))
def test_associativity_step3(x, y, z):
    sc = catalog.example_3_2()
    left = bch_product(sc, bch_product(sc, x, y), z)
    right = bch_product(sc, x, bch_product(sc, y, z))
    assert left == right


def test_associativity_step6():
    # one deep exact case; the full series through length-6 words is used
    sc = catalog.filiform(7)
    x = LieVector([F(1), F(1, 2), F(0), F(-1), F(2), F(0), F(1, 3)])
    y = LieVector([F(0), F(1), F(-1, 2), F(1), F(0), F(2), F(-1)])
    z = LieVector([F(1, 2), F(0), F(1), F(0), F(-1), F(1), F(0)])
    left = bch_product(sc, bch_product(sc, x, y), z)
    right = bch_product(sc, x, bch_product(sc, y, z))
    assert left == right


def test_group_element_operations():
    # a group element is its log: the product is bch_product, the inverse
    # is negation and the identity is the zero vector
    sc = catalog.heisenberg()
    g, h = LieVector.basis(3, 0), LieVector.basis(3, 1)
    # exp(X1) exp(X2) = exp(X1 + X2 + [X1, X2] / 2), and [X1, X2] = X3
    gh = bch_product(sc, g, h)
    assert gh.coords == (F(1), F(1), F(1, 2))
    assert not any(bch_product(sc, gh, -gh))
    assert bch_product(sc, gh, LieVector.zero(3)) == gh


def test_word_eval_folds_letters():
    sc = catalog.heisenberg()
    gens = [LieVector.basis(3, 0), LieVector.basis(3, 1)]
    w = Word((0, 1, 0))
    manual = bch_product(sc, bch_product(sc, gens[0], gens[1]), gens[0])
    assert word_eval(sc, w, gens) == manual
    assert w.counts(2) == (2, 1)
    assert (w + Word((1,))).letters == (0, 1, 0, 1)


def test_step_bound_enforced():
    with pytest.raises(ValueError):
        bch_word_coefficients(7)

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog
from nilwalk.bch import bch_product
from nilwalk.coords import CompiledMap, LatticeError, SecondKindSystem
from nilwalk.lie_core import LieVector, direct_product, rescale_levels
from nilwalk.pencil import PolyRing

F = Fraction


def frac_tuple(dim):
    return st.lists(
        st.fractions(-4, 4, max_denominator=8), min_size=dim, max_size=dim
    )


@settings(max_examples=30, deadline=None)
@given(frac_tuple(5))
def test_round_trip_exact(t):
    sys = SecondKindSystem(catalog.example_3_2())
    x = sys.log_from_sk(t)
    assert sys.sk_from_log(x) == tuple(F(v) for v in t)


def test_round_trip_deep():
    sys = SecondKindSystem(catalog.filiform(6))
    rng = random.Random(0)
    for _ in range(4):
        x = LieVector([F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(6)])
        assert sys.log_from_sk(sys.sk_from_log(x)) == x


def test_heisenberg_log_coordinates():
    # g(t) = exp(t1 X1) exp(t2 X2) exp(t3 X3) has log t1 X1 + t2 X2 + (t3 + t1 t2/2) X3
    sys = SecondKindSystem(catalog.heisenberg())
    x = sys.log_from_sk([F(1), F(1), F(0)])
    assert x.coords == (F(1), F(1), F(1, 2))


# -- compiled maps -------------------------------------------------------------


def test_compiled_map_evaluates_polynomials():
    ring = PolyRing(["u", "v"])
    u, v = ring.var("u"), ring.var("v")
    cmap = CompiledMap(2, [u * u - v, ring.const(F(1, 2))])
    out = cmap(np.array([[3.0, 1.0], [0.0, 2.0]]))
    assert np.allclose(out, [[8.0, 0.5], [-2.0, 0.5]])
    single = cmap(np.array([2.0, 0.0]))
    assert single.shape == (2,) and single[0] == 4.0
    with pytest.raises(ValueError):
        cmap(np.zeros((1, 3)))


def _law_inputs():
    return [
        catalog.example_3_2(),
        catalog.heisenberg(),
        catalog.triangular(3),
        catalog.triangular(4),
        rescale_levels(catalog.example_3_2(), [1, 1, 2]),
        rescale_levels(catalog.filiform(5), [1, 1, 2, 6]),
    ]


def _rational_point(rng, dim):
    return [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)]


def test_translation_map_matches_exact_product():
    rng = random.Random(5)
    for sc in _law_inputs():
        sys = SecondKindSystem(sc)
        a = LieVector(_rational_point(rng, sc.dim))
        cmap = sys.translation_map(a)
        for _ in range(4):
            t = _rational_point(rng, sc.dim)
            want = sys.sk_from_log(bch_product(sc, a, sys.log_from_sk(t)))
            got = cmap(np.array([float(v) for v in t]))
            assert np.allclose(got, [float(v) for v in want], atol=1e-12)


def test_reduction_map_matches_exact_product():
    rng = random.Random(6)
    for sc in _law_inputs():
        sys = SecondKindSystem(sc)
        for level in range(sc.step):
            idx = sys.series.level_indices(level)
            rmap = sys.reduction_map(level)
            for _ in range(2):
                t = _rational_point(rng, sc.dim)
                m = _rational_point(rng, len(idx))
                s = [F(0)] * sc.dim
                for j, i in enumerate(idx):
                    s[i] = m[j]
                want = sys.sk_from_log(
                    bch_product(sc, sys.log_from_sk(t), sys.log_from_sk(s))
                )
                got = rmap(np.array([float(v) for v in t + m]))
                assert np.allclose(got, [float(v) for v in want], atol=1e-12)


def _output_terms(cmap, k):
    """(coefficient, monomial) pairs of output k, in the map's monomial order."""
    return tuple(
        (float(c), m) for m, c in zip(cmap.monomials, cmap.coef[:, k]) if c
    )


def test_translation_map_heisenberg_shape():
    # third output is t3 - a2 t1 + const: one linear cross term only
    sys = SecondKindSystem(catalog.heisenberg())
    a = LieVector([F(1, 3), F(1, 5), F(0)])
    cmap = sys.translation_map(a)
    terms = [_output_terms(cmap, k) for k in range(cmap.n_out)]
    assert terms[0] == ((1.0, ((0, 1),)), (1.0 / 3.0, ()))
    assert terms[1] == ((1.0, ((1, 1),)), (1.0 / 5.0, ()))
    cross = [t for t in terms[2] if t[1] == ((0, 1),)]
    assert cross and abs(cross[0][0] + 1.0 / 5.0) < 1e-15


def test_reduction_map_block_structure():
    sys = SecondKindSystem(catalog.example_3_2())
    rmap = sys.reduction_map(1)  # level-1 block is coordinate 2
    t = np.array([0.3, -0.7, 2.25, 0.1, -0.4])
    m = np.array([-2.0])
    out = rmap(np.concatenate([t, m]))
    # shallower coordinates exactly fixed, the level block exactly shifted
    assert out[0] == t[0] and out[1] == t[1]
    assert out[2] == 0.25
    # zero shift is a float no-op everywhere
    out0 = rmap(np.concatenate([t, [0.0]]))
    assert np.array_equal(out0, t)


# -- lattice ---------------------------------------------------------------------


LATTICES = {"abelian(3)", "heisenberg", "triangular(2)", "triangular(3)", "triangular(4)"}


def test_lattice_closure_verdicts():
    for name, sc in catalog.default_corpus():
        sys = SecondKindSystem(sc)
        if name in LATTICES:
            sys.verify_lattice()
        else:
            with pytest.raises(LatticeError):
                sys.verify_lattice()


def test_lattice_error_witness_is_not_integral():
    # each witness, recomputed through the exact BCH product, really fails
    for name, sc in catalog.default_corpus():
        if name in LATTICES:
            continue
        sys = SecondKindSystem(sc)
        with pytest.raises(LatticeError) as info:
            sys.verify_lattice()
        err = info.value
        t, s = err.points
        out = sys.sk_from_log(bch_product(sc, sys.log_from_sk(t), sys.log_from_sk(s)))
        assert out[err.coordinate].denominator != 1, name
        assert str(err.points[0]) in str(err)
        assert str(err).endswith(f"coordinate {err.coordinate} is {out[err.coordinate]}"), name


def test_factorial_dilation_closes_lattice():
    # dilating level l by l! clears every BCH denominator seen here
    SecondKindSystem(
        rescale_levels(catalog.example_3_2(), [1, 1, 2])
    ).verify_lattice()
    SecondKindSystem(
        rescale_levels(catalog.filiform(5), [1, 1, 2, 6])
    ).verify_lattice()


def _verdict_roster():
    """(name, algebra) pairs: the corpus, triangular(2..6), filiform(3..7),
    three quasi_abelian, random_step3 over six shapes at seeds 0..4 and
    two products; each of step >= 3 also under its factorial level
    dilation and under one random rational one."""
    base = list(catalog.default_corpus())
    base += [(f"triangular({s})", catalog.triangular(s)) for s in range(2, 7)]
    base += [(f"filiform({n})", catalog.filiform(n)) for n in range(3, 8)]
    base += [(f"quasi_abelian{h}", catalog.quasi_abelian(h)) for h in ((3, 2), (2, 2), (4, 2))]
    for shape in ((2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3)):
        base += [(f"random{shape}#{s}", catalog.random_step3(*shape, seed=s)) for s in range(5)]
    heis = catalog.heisenberg()
    base.append(("heisenberg x example_3_2", direct_product(heis, catalog.example_3_2())))
    base.append(("heisenberg x filiform(5)", direct_product(heis, catalog.filiform(5))))
    rng = random.Random(40)
    for name, sc in base:
        yield name, sc
        if sc.step >= 3:
            yield f"{name}!", rescale_levels(sc, [math.factorial(p) for p in range(sc.step)])
            factors = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(sc.step)]
            yield f"{name}~{factors}", rescale_levels(sc, factors)


# 1 where _verdict_roster()'s algebra has a closed lattice, in roster order;
# the symbolic group law's Polya test gave these same verdicts
VERDICTS = (
    "110100100101110110010010010010111011011011010100100100100101"
    "010110110110010010010010011010010011110110010000010010110000"
    "000000000010000000000000110000000010010"
)


def test_lattice_verdict_roster_is_pinned():
    names, got = [], ""
    for name, sc in _verdict_roster():
        names.append(name)
        sys = SecondKindSystem(sc)
        try:
            sys.verify_lattice()
            got += "1"
        except LatticeError as err:
            t, s = err.points
            out = sys.sk_from_log(bch_product(sc, sys.log_from_sk(t), sys.log_from_sk(s)))
            assert out[err.coordinate].denominator != 1, name
            got += "0"
    assert got == VERDICTS, [n for n, a, b in zip(names, got, VERDICTS) if a != b]


# random rational dilations rarely close the lattice; integer ones with a
# multiple of 3! on level 2 close it about a third of the time
LEVEL_FACTORS = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12), st.integers(1, 6).map(lambda c: 6 * c)),
    st.lists(st.fractions(F(1, 2), 12, max_denominator=3), min_size=3, max_size=3),
)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3)]),
    st.integers(0, 9),
    LEVEL_FACTORS,
    st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8), min_size=3, max_size=3),
)
def test_lattice_verdict_matches_exact_products(shape, seed, factors, points):
    # on a lattice, products of basis points and of random integer points
    # are integral; otherwise the named pair's product is not
    sc = rescale_levels(catalog.random_step3(*shape, seed=seed), factors)
    sys = SecondKindSystem(sc)

    def product(t, s):
        return sys.sk_from_log(bch_product(sc, sys.log_from_sk(t), sys.log_from_sk(s)))

    try:
        sys.verify_lattice()
    except LatticeError as err:
        assert product(*err.points)[err.coordinate].denominator != 1
        return
    basis = [LieVector.basis(sc.dim, i).nums for i in range(sc.dim)]
    t, s, u = (p[: sc.dim] for p in points)
    products = [product(a, b) for a in basis for b in basis] + [product(t, product(s, u))]
    assert all(v.denominator == 1 for p in products for v in p)


# -- reduction ---------------------------------------------------------------------


def test_reduce_exact_is_right_translation_by_gamma():
    sc = catalog.heisenberg()
    sys = SecondKindSystem(sc)
    t = [F(7, 2), F(-9, 4), F(13, 8)]
    red, gamma = sys.reduce_exact(t)
    assert all(0 <= v < 1 for v in red)
    assert all(isinstance(g, int) for g in gamma)
    lhs = bch_product(sc, sys.log_from_sk(t), sys.log_from_sk([F(g) for g in gamma]))
    assert lhs == sys.log_from_sk(red)


def test_reduce_batch_matches_exact():
    sys = SecondKindSystem(catalog.heisenberg())
    pts = [[3.5, -2.25, 1.625], [0.875, 0.25, -4.5], [-1.0, -1.0, -1.0]]
    got = sys.reduce_batch(np.array(pts))
    for row, p in zip(got, pts):
        want, _ = sys.reduce_exact([F(v) for v in p])
        assert np.allclose(row, [float(v) for v in want], atol=1e-12)


def test_reduce_batch_edge_of_box():
    sys = SecondKindSystem(catalog.heisenberg())
    pts = np.array(
        [[1.0 - 1e-18, 0.5, 0.5], [-1e-18, 0.5, 0.5], [2.0, 3.0, -1.0]]
    )
    out = sys.reduce_batch(pts)
    assert (out >= 0).all() and (out < 1).all()


def test_reduce_batch_deep_algebra_consistent():
    sc = rescale_levels(catalog.example_3_2(), [1, 1, 2])
    sys = SecondKindSystem(sc)
    rng = random.Random(8)
    for _ in range(3):
        t = [F(rng.randint(-40, 40), 8) for _ in range(5)]
        want, _ = sys.reduce_exact(t)
        got = sys.reduce_batch(np.array([[float(v) for v in t]]))[0]
        assert np.allclose(got, [float(v) for v in want], atol=1e-10)

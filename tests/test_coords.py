import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog
from nilwalk.bch import bch_product
from nilwalk.coords import CompiledMap, LatticeError, SecondKindSystem, non_integral_point
from nilwalk.lie_core import LieVector, rescale_levels
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


def test_binomial_basis_decides_integer_values():
    ring = PolyRing(["t"])
    t = ring.var("t")
    assert non_integral_point(t * (t - 1) * F(1, 2)) is None
    assert non_integral_point(t * t * F(1, 2)) == ((1,), F(1, 2))


def test_factorial_dilation_closes_lattice():
    # dilating level l by l! clears every BCH denominator seen here
    SecondKindSystem(
        rescale_levels(catalog.example_3_2(), [1, 1, 2])
    ).verify_lattice()
    SecondKindSystem(
        rescale_levels(catalog.filiform(5), [1, 1, 2, 6])
    ).verify_lattice()


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

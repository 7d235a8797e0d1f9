import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import bch, catalog, lie_core, linalg
from nilwalk.bch import bch_product
from nilwalk.coords import SecondKindSystem
from nilwalk.lie_core import (
    LieVector,
    NotAdaptedError,
    NotNilpotentError,
    StructureConstants,
    algebra_from_json,
    algebra_to_json,
    check_jacobi,
    direct_product,
    lower_central_series,
    project,
    quotient_algebra,
    rescale_levels,
)
from nilwalk.pencil import build_pencil, pencil_at_k
from nilwalk.words import nice_pair_search

F = Fraction


def small_vec(dim):
    return st.lists(
        st.fractions(-3, 3, max_denominator=4), min_size=dim, max_size=dim
    ).map(LieVector)


# -- vectors ---------------------------------------------------------------


def test_vector_arithmetic():
    x = LieVector([F(1), F(2), F(0)])
    y = LieVector([F(0), F(1, 2), F(-1)])
    assert (x + y).coords == (F(1), F(5, 2), F(-1))
    assert (x - y).coords == (F(1), F(3, 2), F(1))
    assert (-x).coords == (F(-1), F(-2), F(0))
    assert (F(2) * x).coords == (F(2), F(4), F(0))
    assert LieVector.basis(3, 1).coords == (F(0), F(1), F(0))
    assert not any(LieVector.zero(3))


@pytest.mark.parametrize("i", [-1, 3, 4])
def test_basis_index_must_be_in_range(i):
    # an index outside 0..dim-1 would otherwise give the zero vector
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        LieVector.basis(3, i)


def _assert_lowest_terms_and_equal(vectors):
    first = vectors[0]
    for v in vectors:
        assert v.den > 0 and gcd(v.den, *v.nums) == 1
        assert v == first
        assert (v.nums, v.den, hash(v)) == (first.nums, first.den, hash(first))


def test_vectors_are_stored_in_lowest_terms():
    sc = catalog.example_3_2()
    x = LieVector([F(1, 2), F(-3, 4), F(2), F(0), F(5, 6)])
    y = LieVector([F(2, 3), F(1), F(-1, 6), F(1, 2), F(0)])
    br = sc.bracket(x, y)
    _assert_lowest_terms_and_equal(
        [br, LieVector(br.coords), -sc.bracket(y, x), F(1, 2) * sc.bracket(F(2) * x, y)]
    )
    prod = bch_product(sc, x, y)
    _assert_lowest_terms_and_equal(
        [prod, LieVector(prod.coords), bch_product(sc, prod, LieVector.zero(5)), prod + y - y]
    )
    _assert_lowest_terms_and_equal([x, x + y - y, LieVector([str(c) for c in x.coords])])
    assert LieVector.zero(4).den == 1 and (x - x).den == 1
    assert (x - x) == LieVector.zero(5)


def test_vector_scalars_are_exact():
    x = LieVector([F(3), 1, "2/4"])
    for coords in (x.coords, list(x), [x[i] for i in range(x.dim)]):
        assert tuple(coords) == (F(3), F(1), F(1, 2))
        assert all(type(c) is Fraction for c in coords)
    with pytest.raises(TypeError):
        LieVector([0.5, F(1), F(0)])
    with pytest.raises(TypeError):
        x * 0.5


def _refuse(*args):
    raise AssertionError("Fraction built")


def test_exact_kernels_build_no_fraction(monkeypatch):
    sc = rescale_levels(catalog.filiform(5), [1, F(2, 3), F(5, 2), 3])
    x = LieVector([F(1, 2), F(-3), F(2, 5), F(0), F(7, 4)])
    y = LieVector([F(1, 3), F(1), F(-1, 6), F(3, 2), F(2)])
    expected = sc.bracket(x, y), bch_product(sc, x, y)
    monkeypatch.setattr(lie_core, "Fraction", _refuse)
    monkeypatch.setattr(bch, "Fraction", _refuse)
    assert (sc.bracket(x, y), bch_product(sc, x, y)) == expected
    # the patch is live: coords are built as Fractions
    with pytest.raises(AssertionError):
        x.coords


# -- structure constant bookkeeping ------------------------------------------


def test_bracket_normalization_flips_sign():
    # [X2,X1] = X3 stored as [X1,X2] = -X3
    a = StructureConstants(3, {(1, 0): {2: F(1)}})
    b = StructureConstants(3, {(0, 1): {2: F(-1)}})
    x, y = LieVector.basis(3, 0), LieVector.basis(3, 1)
    assert a.bracket(x, y) == b.bracket(x, y)
    assert a.bracket(x, y).coords == (F(0), F(0), F(-1))
    # a pair in both orders is refused; the two entries used to be summed,
    # here into an abelian algebra
    with pytest.raises(ValueError, match=r"^\[X1, X2\] is given in both orders$"):
        StructureConstants(3, {(0, 1): {2: 1}, (1, 0): {2: 1}})


ORIENTATION_CORPUS = catalog.default_corpus() + [
    ("random_step3(3,2,2,1)", catalog.random_step3(3, 2, 2, seed=1)),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORIENTATION_CORPUS), st.integers(0, 10**6))
def test_any_orientation_builds_the_oriented_table(entry, seed):
    """Each pair in a random orientation, negated when flipped, written as
    a Fraction or a string, with zero coefficients and some empty rows
    added, builds the same table; one pair in both orders is refused."""
    label, sc = entry
    rng = random.Random(seed)
    brackets = {}
    for i, j in itertools.combinations(range(sc.dim), 2):
        row = dict(sc._table.get((i, j), ()))
        if not row and rng.random() < 0.7:
            continue
        if rng.random() < 0.5:
            i, j, row = j, i, {k: -v for k, v in row.items()}
        row = {k: rng.choice((v, str(v))) for k, v in row.items()}
        for k in rng.sample(range(sc.dim), 2):
            row.setdefault(k, rng.choice((0, F(0), "0")))
        brackets[(i, j)] = row
    rebuilt = StructureConstants(sc.dim, brackets, names=sc.names)
    assert rebuilt == sc and algebra_to_json(rebuilt) == algebra_to_json(sc), label
    i, j = sorted(rng.sample(range(sc.dim), 2))
    twice = dict(brackets)
    twice.setdefault((i, j), {})
    twice.setdefault((j, i), {})
    pair = re.escape(f"[{sc.names[i]}, {sc.names[j]}]")
    with pytest.raises(ValueError, match=rf"^{pair} is given in both orders$"):
        StructureConstants(sc.dim, twice, names=sc.names)


def test_bracket_antisymmetry_and_bilinearity_heisenberg():
    sc = catalog.heisenberg()
    x = LieVector([F(1), F(2), F(3)])
    y = LieVector([F(-1, 2), F(1, 3), F(0)])
    assert sc.bracket(x, y) == -sc.bracket(y, x)
    z = LieVector([F(2), F(0), F(1)])
    lhs = sc.bracket(x + z, y)
    assert lhs == sc.bracket(x, y) + sc.bracket(z, y)


@settings(max_examples=40, deadline=None)
@given(small_vec(5), small_vec(5), st.fractions(-3, 3, max_denominator=4))
def test_bracket_bilinear_property(x, y, c):
    sc = catalog.example_3_2()
    assert sc.bracket(x, y) == -sc.bracket(y, x)
    assert sc.bracket(F(c) * x, y) == F(c) * sc.bracket(x, y)


def test_jacobi_violation_reported():
    cases = [
        # [X3,X1] = -X1 breaks the (X1,X2,X3) Jacobi sum
        ({(0, 1): {2: F(1)}, (0, 2): {0: F(1)}}, (0, 0, -1)),
        # the same shape over the common denominator D = 6
        ({(0, 1): {2: F(1, 2)}, (0, 2): {0: F(1, 3)}}, (0, 0, F(-1, 6))),
    ]
    for brackets, residual in cases:
        rep = check_jacobi(StructureConstants(3, brackets))
        assert not rep.ok
        assert rep.triple == (0, 1, 2)
        assert rep.residual == LieVector(residual)


def test_jacobi_clean_on_catalog():
    for label, sc in catalog.default_corpus():
        assert check_jacobi(sc).ok, label


# -- lower central series ------------------------------------------------------


def test_series_builds_no_fraction(monkeypatch):
    algebras = [catalog.example_5_6(), catalog.random_step3(3, 2, 2, seed=1)]
    expected = [lower_central_series(sc) for sc in algebras]
    monkeypatch.setattr(lie_core, "Fraction", _refuse)
    monkeypatch.setattr(linalg, "Fraction", _refuse)
    assert [lower_central_series(sc) for sc in algebras] == expected
    # the patch is live: rref returns Fractions
    with pytest.raises(AssertionError):
        linalg.rref([[2, 1]])


def test_series_shapes():
    assert catalog.heisenberg().dims == (2, 1)
    assert catalog.example_3_2().dims == (2, 1, 2)
    assert catalog.example_5_6().dims == (3, 3, 8, 1)
    assert catalog.filiform(6).dims == (2, 1, 1, 1, 1)
    assert catalog.triangular(3).dims == (3, 2, 1)
    assert catalog.abelian(4).step == 1


def test_not_nilpotent_detected():
    # [X1,X2] = X2 keeps regenerating X2 forever
    sc = StructureConstants(2, {(0, 1): {1: F(1)}})
    with pytest.raises(NotNilpotentError):
        sc.series


def test_not_nilpotent_takes_precedence_over_not_adapted():
    # [X3,X1] = X1: g^(1) = span(X1) sits at the front of the basis, but
    # the series stabilizes there, and that is the error reported
    sc = StructureConstants(3, {(0, 2): {0: F(-1)}})
    with pytest.raises(NotNilpotentError):
        sc.series


def test_not_adapted_detected():
    # derived algebra sits at the *front* of the basis
    sc = StructureConstants(3, {(1, 2): {0: F(1)}})
    with pytest.raises(NotAdaptedError):
        sc.series


def test_project_slices_levels():
    sc = catalog.example_3_2()
    x = LieVector([F(1), F(2), F(3), F(4), F(5)])
    assert project(sc, x, 0) == (F(1), F(2))
    assert project(sc, x, 1) == (F(3),)
    assert project(sc, x, 2) == (F(4), F(5))
    with pytest.raises(ValueError):
        project(sc, x, 3)


LEVEL_READERS = {
    "level_indices": lambda sc, p: sc.series.level_indices(p),
    "project": lambda sc, p: project(sc, LieVector.zero(sc.dim), p),
    "quotient_algebra": quotient_algebra,
    "build_pencil": lambda sc, p: build_pencil(sc, 2, p),
    "pencil_at_k": lambda sc, p: pencil_at_k(sc, 2, p, [(1, 0)] * (p + 1)),
    "reduction_map": lambda sc, p: SecondKindSystem(sc).reduction_map(p),
    "nice_pair_search": lambda sc, p: nice_pair_search(
        sc, [LieVector.basis(sc.dim, 0), LieVector.basis(sc.dim, 1)], p
    ),
}


# the pencil and the pair search have no level 0, and name the range they take
PENCIL_READERS = {"build_pencil", "pencil_at_k", "nice_pair_search"}


@pytest.mark.parametrize("reader", sorted(LEVEL_READERS))
def test_every_level_reader_checks_the_level(reader):
    # filiform(5) has step 4; -1 once read as range(4, 0), 4 raised IndexError
    sc = catalog.filiform(5)
    levels, named = (-1, sc.step), ""
    if reader in PENCIL_READERS:
        levels, named = (0, -1, sc.step), r"1\.\.step-1 "
    for p in levels:
        with pytest.raises(ValueError, match=rf"^level {p} out of range {named}for step 4$"):
            LEVEL_READERS[reader](sc, p)


# -- derived constructions -------------------------------------------------------


def test_quotient_algebra():
    q = quotient_algebra(catalog.filiform(6), 2)
    assert q.dims == (2, 1, 1)
    assert check_jacobi(q).ok
    # the quotient of the quotient at the same level is itself
    assert quotient_algebra(q, 2).dims == q.dims


def test_quotient_series_is_the_image_of_the_levels():
    # quotient_algebra reads the series off its parent; recomputing agrees
    for _, sc in catalog.default_corpus():
        for p in range(sc.step):
            q = quotient_algebra(sc, p)
            assert quotient_algebra(sc, p) is q
            assert q.series == lower_central_series(q)


def test_direct_product_is_adapted():
    prod = direct_product(catalog.heisenberg(), catalog.example_3_2())
    assert prod.dim == 8
    assert prod.dims == (4, 2, 2)
    assert check_jacobi(prod).ok
    # factor brackets survive with relocated indices
    names = prod.names
    assert "a.X1" in names and "b.X1" in names


def test_rescale_levels_scales_brackets():
    sc = catalog.heisenberg()
    r = rescale_levels(sc, [F(1), F(2)])
    # [X1, X2] = X3 becomes [X1, X2] = 2 * (X3/2)
    x, y = LieVector.basis(3, 0), LieVector.basis(3, 1)
    assert r.bracket(x, y).coords == (F(0), F(0), F(2))
    assert r.dims == sc.dims
    with pytest.raises(ValueError):
        rescale_levels(sc, [F(1)])
    with pytest.raises(ValueError):
        rescale_levels(sc, [F(1), F(0)])


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    for label, sc in catalog.default_corpus():
        doc = algebra_to_json(sc)
        back = algebra_from_json(json.loads(json.dumps(doc)))
        assert back.dim == sc.dim and back.dims == sc.dims, label
        assert back._table == sc._table, label


def test_json_rejects_malformed_names_and_indices():
    doc = algebra_to_json(catalog.heisenberg())
    for names in ("abc", ["a", "b"], ["a", "b", 3]):
        with pytest.raises(ValueError, match=r"names must be a list of 3 strings"):
            algebra_from_json({**doc, "names": names})
    for field, value in (("i", 0), ("j", 4), ("k", 0), ("k", 4)):
        bad = json.loads(json.dumps(doc))
        entry = bad["brackets"][0]
        (entry["out"][0] if field == "k" else entry)[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must lie in 1\.\.3, got {value}$"):
            algebra_from_json(bad)
    for bad, message in (
        ({"dim": 2, "brackets": 5}, "brackets must be a list, got int"),
        ({"dim": 2, "brackets": [1]}, r"brackets\[0\] must be a JSON object, got int"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": 5}]},
         r"brackets\[0\]\.out must be a list, got int"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": [7]}]},
         r"brackets\[0\]\.out\[0\] must be a JSON object, got int"),
        ([doc], "an algebra must be a JSON object, got list"),
    ):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            algebra_from_json(bad)
    for field, where in (("dim", "an algebra"), ("i", r"brackets\[0\]"),
                         ("j", r"brackets\[0\]"), ("out", r"brackets\[0\]"),
                         ("k", r"brackets\[0\]\.out\[0\]"),
                         ("num", r"brackets\[0\]\.out\[0\]")):
        bad = json.loads(json.dumps(doc))
        entry = bad["brackets"][0]
        owner = bad if field == "dim" else entry["out"][0] if field in ("k", "num") else entry
        del owner[field]
        with pytest.raises(ValueError, match=rf"^{where} is missing the field '{field}'$"):
            algebra_from_json(bad)
    # an output index given twice in one bracket: a dict kept the last entry
    bad = json.loads(json.dumps(doc))
    bad["brackets"][0]["out"].append({"k": 3, "num": 2})
    with pytest.raises(ValueError, match=r"^duplicate output index 3 in bracket \(1, 2\)$"):
        algebra_from_json(bad)
    # a pair given in both orders: the two entries were summed
    bad = json.loads(json.dumps(doc))
    bad["brackets"].append({"i": 2, "j": 1, "out": [{"k": 3, "num": 1}]})
    with pytest.raises(ValueError, match=r"^\[X1, X2\] is given in both orders$"):
        algebra_from_json(bad)


def test_json_verify_rejects_wrong_levels():
    doc = algebra_to_json(catalog.heisenberg())
    doc["levels"] = [[1, 2, 3]]  # claims the algebra is abelian-shaped
    with pytest.raises(NotAdaptedError):
        algebra_from_json(doc)
    doc["levels"] = [3]
    with pytest.raises(ValueError):
        algebra_from_json(doc)
    # a string is not a list of levels, though list() would take it apart
    doc["levels"] = "ab"
    with pytest.raises(ValueError, match=r"^levels must be a list, got str$"):
        algebra_from_json(doc)

import hashlib
import json

import pytest

from nilwalk import catalog, lie_core
from nilwalk.lie_core import (
    LieVector,
    algebra_to_json,
    check_jacobi,
    direct_product,
    quotient_algebra,
)


def test_registry_builds_with_defaults():
    for name, ent in catalog.CATALOG.items():
        sc = catalog.build(name)
        assert check_jacobi(sc).ok, name
        assert sc.step >= 1


def test_shapes_table():
    # frozen step/dimension facts the rest of the suite leans on
    cases = [
        (catalog.abelian(3), 1, (3,)),
        (catalog.heisenberg(), 2, (2, 1)),
        (catalog.quasi_abelian((3, 2)), 3, (3, 2, 1)),
        (catalog.filiform(5), 4, (2, 1, 1, 1)),
        (catalog.triangular(2), 2, (2, 1)),
        (catalog.triangular(4), 4, (4, 3, 2, 1)),
        (catalog.example_3_2(), 3, (2, 1, 2)),
        (catalog.example_5_6(), 4, (3, 3, 8, 1)),
    ]
    for sc, step, dims in cases:
        assert sc.step == step
        assert sc.dims == dims


def test_heisenberg_bracket():
    sc = catalog.heisenberg()
    z = sc.bracket(LieVector.basis(3, 0), LieVector.basis(3, 1))
    assert z == LieVector.basis(3, 2)


def test_filiform_chain():
    sc = catalog.filiform(6)
    x1 = LieVector.basis(6, 0)
    v = LieVector.basis(6, 1)
    for k in range(2, 6):
        v = sc.bracket(x1, v)
        assert v == LieVector.basis(6, k)
    assert not any(sc.bracket(x1, v))


def test_triangular_matches_matrix_commutators():
    # [E_ij, E_kl] = d_jk E_il - d_li E_kj, spot checked at s = 3
    sc = catalog.triangular(3)
    idx = {n: i for i, n in enumerate(sc.names)}
    e12 = LieVector.basis(6, idx["E12"])
    e23 = LieVector.basis(6, idx["E23"])
    e34 = LieVector.basis(6, idx["E34"])
    assert sc.bracket(e12, e23) == LieVector.basis(6, idx["E13"])
    assert sc.bracket(e23, e34) == LieVector.basis(6, idx["E24"])
    assert not any(sc.bracket(e12, e34))


def test_example_5_6_key_relations():
    sc = catalog.example_5_6()
    idx = {n: i for i, n in enumerate(sc.names)}

    def b(a, c):
        return sc.bracket(
            LieVector.basis(15, idx[a]), LieVector.basis(15, idx[c])
        )

    assert b("X1", "X2") == LieVector.basis(15, idx["Y1"])
    assert b("X1", "X3") == LieVector.basis(15, idx["Y2"])
    assert b("X2", "X3") == LieVector.basis(15, idx["Y3"])
    # the level-3 center appears only from level-1 pairs
    w = idx["W"]
    assert b("Y1", "Y2").coords[w] != 0
    assert check_jacobi(sc).ok


def test_quasi_abelian_shift():
    sc = catalog.quasi_abelian((3, 2))
    idx = {n: i for i, n in enumerate(sc.names)}
    x = LieVector.basis(6, idx["X"])
    y11 = LieVector.basis(6, idx["Y1_1"])
    assert sc.bracket(x, y11) == LieVector.basis(6, idx["Y2_1"])
    # bottom of each column is killed
    y31 = LieVector.basis(6, idx["Y3_1"])
    assert not any(sc.bracket(x, y31))


def test_random_step3_respects_requested_dims():
    for seed in range(5):
        sc = catalog.random_step3(3, 2, 2, seed=seed)
        assert sc.dims == (3, 2, 2)
        assert check_jacobi(sc).ok


def test_random_step3_deterministic_per_seed():
    a = catalog.random_step3(2, 1, 2, seed=11)
    b = catalog.random_step3(2, 1, 2, seed=11)
    assert a._table == b._table


def test_random_step3_impossible_shape():
    # two generators span at most a line at level 1
    with pytest.raises(RuntimeError):
        catalog.random_step3(2, 2, 2, seed=0)


def test_random_step3_propagates_faults(monkeypatch):
    # only a rejected draw (LieAlgebraError) is retried; any other error
    # in the series code surfaces instead of silently changing the draw
    def broken(sc):
        raise ZeroDivisionError("fault in the series code")

    monkeypatch.setattr(lie_core, "lower_central_series", broken)
    with pytest.raises(ZeroDivisionError):
        catalog.random_step3(2, 1, 1, seed=0)


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.build("borel")


def test_build_checks_the_argument_count():
    # the count is checked before the constructor runs, naming the entry
    with pytest.raises(ValueError, match=r"for filiform \(2\); write it as filiform:5$"):
        catalog.build("filiform", 6, 7)
    with pytest.raises(ValueError, match=r"for heisenberg \(1\); write it as heisenberg$"):
        catalog.build("heisenberg", 3)
    with pytest.raises(ValueError, match="for random_step3 "):
        catalog.build("random_step3", 2, 1)
    assert catalog.build("quasi_abelian", 2, 2, 3) == catalog.quasi_abelian((2, 2, 3))
    assert catalog.build("random_step3").dims == (2, 1, 1)


def test_default_corpus_labels_unique():
    labels = [label for label, _ in catalog.default_corpus()]
    assert len(labels) == len(set(labels))
    assert len(labels) >= 10


# SHA-256 over the canonical JSON of every table in _table_roster(), one
# line each.  StructureConstants normalizes every table the constructors
# hand it; moving that rule out of or into a constructor keeps the bytes.
TABLES_SHA256 = "550bfca31713b350938584ff5e853fd30956d901231401a825d797e72a56f620"


def _table_roster():
    yield from (sc for _, sc in catalog.default_corpus())
    yield from (catalog.triangular(s) for s in range(2, 8))
    yield from (catalog.filiform(n) for n in range(3, 12))
    yield from (catalog.quasi_abelian(h) for h in ((3, 2), (2, 2), (4, 2)))
    for shape in ((2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3)):
        yield from (catalog.random_step3(*shape, seed=seed) for seed in range(5))
    for sc in (catalog.triangular(5), catalog.example_5_6()):
        yield from (quotient_algebra(sc, p) for p in range(sc.step))
    yield direct_product(catalog.heisenberg(), catalog.example_3_2())


def test_pinned_tables_keep_their_bytes():
    digest, count = hashlib.sha256(), 0
    for sc in _table_roster():
        digest.update(json.dumps(algebra_to_json(sc), sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (70, TABLES_SHA256)

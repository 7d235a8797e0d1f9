import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import catalog
from nilwalk.lie_core import algebra_to_json, direct_product
from nilwalk.linalg import left_kernel_vector
from nilwalk.pencil import (
    MultiPoly,
    PolyRing,
    _structured_candidates,
    alpha_ring,
    build_pencil,
    certify_greatness,
    evaluate_at_k,
    linearly_independent,
    pencil_at_k,
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


def test_substitute_then_evaluate():
    u, v = RING.var("u"), RING.var("v")
    p = u * u * v - 2 * v + 1
    q = p.substitute({"u": F(3)})
    assert q == 9 * v - 2 * v + 1
    assert p.evaluate({"u": F(3), "v": F(1, 2), "w": F(0)}) == F(9, 2) - 1 + 1


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
    via_symbol = evaluate_at_k(pencil, rows)
    direct = pencil_at_k(sc, 2, 2, rows)
    assert list(via_symbol) == list(direct)


def test_deeper_generator_components_are_irrelevant():
    # the pencil projects to level p, where only level-0 parts survive;
    # this is why generic vectors carry level-0 variables only
    sc = catalog.heisenberg()
    pencil = build_pencil(sc, 2, 1)
    assert set(pencil.ring.names) >= {"a1_1", "a2_2", "k0_1", "k1_2"}
    assert not any("a1_3" in n for n in pencil.ring.names)


# -- certificates ------------------------------------------------------------------


def test_certify_great_small():
    for sc in (catalog.heisenberg(), catalog.example_3_2(), catalog.filiform(5)):
        cert = certify_greatness(sc, 2)
        assert cert.is_great
        assert cert.verify(sc)


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
    # its tries are dependent but not all-zero, so the whole budget is spent
    assert lvl.tried == 50
    assert cert.verify(sc)


# -- settling all-zero levels early ---------------------------------------------------


def test_all_zero_level_settles_once_structured_candidates_are_spent():
    sc = catalog.example_5_6()
    cert = certify_greatness(sc, 2)
    lvl = cert.level(3)
    assert lvl.proof == "identically_zero"
    assert lvl.tried == len(_structured_candidates(2, 3)) == 4
    assert cert == certify_greatness(sc, 2, budget=40)


def test_one_generator_levels_are_identically_zero_after_one_try():
    for sc in (catalog.heisenberg(), catalog.filiform(5)):
        cert = certify_greatness(sc, 1)
        assert [(lv.proof, lv.tried) for lv in cert.levels] == [
            ("identically_zero", 1)
        ] * (sc.step - 1)
        assert cert.verify(sc)


def test_full_rank_symbolic_pencil_resumes_random_search():
    # every structured try at m=3, level 3 is all-zero but the symbolic
    # pencil is not degenerate, so the fifth try (the first random one,
    # from the same stream as without the symbolic check) is the witness
    sc = catalog.example_5_6()
    cert = certify_greatness(sc, 3)
    lvl = cert.level(3)
    assert lvl.status == "witness" and lvl.tried == 5
    assert lvl.witness == ((3, 0, 3), (0, -3, -1), (1, 0, 0), (3, 3, -1))


def test_tampered_certificate_fails_verify():
    sc = catalog.heisenberg()
    cert = certify_greatness(sc, 2)
    lvl = cert.level(1)
    object.__setattr__(lvl, "witness", ((1, 0), (2, 0)))  # collinear rows
    assert not cert.verify(sc)
    sc, cert = _uniform_kernel_case()
    object.__setattr__(cert.level(3), "kernel", (F(0), F(1)))
    assert not cert.verify(sc)


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
CERTIFY_SHA256 = "64aa9ad0de9d7c507ff47417546f5c7e2fb50c273618e921d66995190c43312f"


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

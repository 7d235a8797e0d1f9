from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import linalg
from nilwalk.linalg import independent_rows, left_kernel_vector, nullspace, rref

F = Fraction


# -- reference: plain Gaussian elimination over Q ------------------------------


def _echelon(rows, track):
    """Forward elimination on a Fraction copy of rows.

    Returns (m, pivots, t): m is in row echelon form, its first
    len(pivots) rows nonzero with leading entries in columns pivots and
    every later row zero.  When track is true, t[i] holds the coefficients
    of the input rows whose combination is m[i]; otherwise t is None.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    t = [[Fraction(int(i == j)) for j in range(nrows)] for i in range(nrows)] if track else None
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        for pivot in range(r, nrows):
            if m[pivot][c]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if track:
            t[r], t[pivot] = t[pivot], t[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if track:
                    t[i] = [a - f * b for a, b in zip(t[i], t[r])]
        pivots.append(c)
    return m, pivots, t


def ref_rref(rows):
    m, pivots, _ = _echelon(rows, False)
    m = m[: len(pivots)]
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(r):
            if m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
    return m, pivots


def ref_left_kernel_vector(rows):
    m, pivots, t = _echelon(rows, True)
    return t[len(pivots)] if len(pivots) < len(m) else None


def ref_nullspace(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(echelon, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis


def same(got, want):
    """Equal values, and every number a Fraction as the reference returns."""
    if want is None:
        return got is None
    flat = [x for row in got for x in row] if got and isinstance(got[0], list) else got
    return got == want and all(type(x) is Fraction for x in flat)


@st.composite
def matrices(draw, entries):
    """Rectangular matrices, empty and zero-width ones included, with a
    zero row, a duplicate row or an integer combination of rows mixed in."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if nrows > 1:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["none", "zero", "duplicate", "combination"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[j])
        elif kind == "combination":
            cs = draw(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows))
            rows[i] = [sum(c * r[k] for t, (c, r) in enumerate(zip(cs, rows)) if t != i) for k in range(ncols)]
    return rows


INTEGERS = st.integers(-4, 4) | st.integers(-(2**40), 2**40)
MIXED = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(INTEGERS), matrices(MIXED)))
def test_every_routine_equals_the_fraction_reference(rows):
    (echelon, pivots), (ref_echelon, ref_pivots) = rref(rows), ref_rref(rows)
    assert same(echelon, ref_echelon) and pivots == ref_pivots
    assert same(left_kernel_vector(rows), ref_left_kernel_vector(rows))
    assert same(nullspace(rows), ref_nullspace(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(INTEGERS))
def test_independent_rows_equals_the_fraction_reference(rows):
    assert independent_rows(rows) == (ref_left_kernel_vector(rows) is None)


def test_integer_rows_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    rows = [[3, 0, 2**70], [1, -1, 5], [0, 4, 7]]
    assert independent_rows(rows)
    assert left_kernel_vector(rows) is None
    # the patch is live: a certificate is returned as Fractions
    with pytest.raises(AssertionError):
        left_kernel_vector(rows + [[4, -1, 2**70 + 5]])


def test_rref_identity_block():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    ech, pivots = rref(rows)
    assert pivots == [0, 1]
    assert ech[0] == [F(1), F(0)]
    assert ech[1] == [F(0), F(1)]


def test_rank_and_span():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert len(rref(rows)[0]) == 2
    # a vector lies in the row span iff appending it keeps the rank
    assert len(rref(rows + [[F(3), F(7), F(10)]])[0]) == 2  # row1 + row3
    assert len(rref(rows + [[F(0), F(0), F(1)]])[0]) == 3


def test_left_kernel_certificate():
    # row2 = 2*row0 - row1 exactly
    rows = [
        [F(1), F(1, 2), F(0)],
        [F(0), F(1), F(3)],
        [F(2), F(0), F(-3)],
    ]
    lam = left_kernel_vector(rows)
    assert lam is not None
    combo = [
        sum(l * r[j] for l, r in zip(lam, rows)) for j in range(3)
    ]
    assert all(v == 0 for v in combo)
    assert lam == [F(-2), F(1), F(1)]
    # the certificate is the tracked row at index rank, after the swaps
    assert left_kernel_vector([[0, 1], [0, 1], [1, 0]]) == [F(1), F(-1), F(0)]


def test_left_kernel_none_for_independent_rows():
    rows = [[F(1), F(0)], [F(1), F(1)]]
    assert left_kernel_vector(rows) is None


def test_nullspace_certificates():
    rows = [[F(1), F(2), F(3)], [F(0), F(0), F(1)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in rows)


def test_nullspace_full_rank_is_empty():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace(rows) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(-5, 5, max_denominator=6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_kernel_vector_is_always_exact(rows):
    rows = [[F(x) for x in r] for r in rows]
    lam = left_kernel_vector(rows)
    if lam is None:
        assert len(rref(rows)[0]) == len(rows)
    else:
        assert any(lam)
        for j in range(3):
            assert sum(l * r[j] for l, r in zip(lam, rows)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(-4, 4, max_denominator=5), min_size=4, max_size=4),
        min_size=2,
        max_size=3,
    )
)
def test_rank_plus_nullity(rows):
    rows = [[F(x) for x in r] for r in rows]
    ech, piv = rref(rows)
    assert len(ech) + len(nullspace(rows)) == 4
    # reduced: increasing pivots, each a leading 1 alone in its column
    assert piv == sorted(set(piv))
    for i, row in enumerate(ech):
        assert not any(row[: piv[i]])
        assert [r[piv[i]] for r in ech] == [F(int(j == i)) for j in range(len(ech))]


@st.composite
def integer_square_matrices(draw):
    """Small square integer matrices; about half are made singular by
    setting one row to an integer combination of the others."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-(2**20), 2**20) | st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        others = [(c, r) for t, (c, r) in enumerate(zip(coeffs, rows)) if t != i]
        rows[i] = [sum(c * r[j] for c, r in others) for j in range(n)]
        return rows, True
    return rows, False


@settings(max_examples=200, deadline=None)
@given(integer_square_matrices())
def test_independent_rows_agrees_with_left_kernel(case):
    rows, singular = case
    got = independent_rows(rows)
    assert got == (ref_left_kernel_vector(rows) is None)
    if singular:
        assert not got


def test_independent_rows_on_rectangular_and_empty_input():
    assert independent_rows([]) is True
    assert independent_rows([[1, 2, 3], [2, 4, 7]])
    assert not independent_rows([[1, 2, 3], [2, 4, 6]])
    assert not independent_rows([[1, 0], [0, 1], [1, 1]])
    assert not independent_rows([[0, 0]])


def test_empty_input():
    ech, piv = rref([])
    assert ech == [] and piv == []
    assert left_kernel_vector([]) is None
    assert nullspace([]) == []

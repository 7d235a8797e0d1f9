from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk.linalg import independent_rows, left_kernel_vector, nullspace, rref

F = Fraction


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
    assert got == (left_kernel_vector(rows) is None)
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

"""Exact linear algebra for small dense systems.

Everything here works on lists of lists of Fractions (or ints).  Matrices
are tiny (a few hundred rows at most), so plain Gaussian elimination with
exact rational arithmetic is both fast enough and free of pivoting
subtleties.  One forward elimination over Q, _echelon, serves rref, the
null space and the left-kernel certificate; independent_rows decides
independence of integer rows alone, fraction-free (Bareiss), so it never
builds a Fraction.
"""

from __future__ import annotations

from fractions import Fraction


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


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon, pivots) where echelon contains the nonzero rows and
    pivots[i] is the column of the leading 1 in echelon[i].  The input is
    not modified.
    """
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


def left_kernel_vector(rows):
    """First nonzero vector lam with lam @ rows == 0, or None.

    Elimination tracks the row operations in an identity block, so the
    first row that cancels to zero (the one at index rank) hands back the
    exact dependence certificate.
    """
    m, pivots, t = _echelon(rows, True)
    return t[len(pivots)] if len(pivots) < len(m) else None


def independent_rows(rows):
    """Whether the integer rows are linearly independent over Q.

    Fraction-free elimination (Bareiss 1968): each update a*x - b*y of a
    row is divided by the previous pivot, and that division is exact, so
    every entry stays an integer of bounded size.  Agrees with
    left_kernel_vector(rows) is None.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        for pivot in range(r, nrows):
            if m[pivot][c]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        a = top[c]
        for i in range(r + 1, nrows):
            b = m[i][c]
            m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
        prev = a
        r += 1
    return r == nrows


def nullspace(rows):
    """Basis of the right null space {x : rows @ x == 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(echelon, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis

"""Exact linear algebra for small dense systems.

One fraction-free forward elimination on integer rows (Bareiss 1968),
eliminate, serves every routine.  A row that holds Fractions is first
multiplied by the lcm of its denominators, which keeps its span.
Fractions appear only in what the routines return: rref rows, left-kernel
certificates and null-space bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def integer_numerators(coords):
    """(numerators, d): the Fractions coords written over one common denominator d."""
    d = lcm(*(c.denominator for c in coords))
    return [c.numerator * (d // c.denominator) for c in coords], d


def eliminate(m, ncols):
    """Fraction-free forward elimination of the integer rows m, in place.

    Each update a*x - b*y of a row is divided by the previous pivot; the
    division is exact, so every entry stays an integer (a minor of the
    input).  Pivots are taken in the first ncols columns only: later
    columns, such as an identity block, ride along and record the row
    operations.  Returns pivots: m[:len(pivots)] is in echelon form with
    leading entries in columns pivots, the later rows zero in the first
    ncols columns.
    """
    nrows = len(m)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
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
        pivots.append(c)
    return pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon, pivots) where echelon contains the nonzero rows and
    pivots[i] is the column of the leading 1 in echelon[i].  The input is
    not modified.  Each integer echelon row is divided by its pivot once,
    then back-substitution clears the columns above the pivots.
    """
    m = [integer_numerators(row)[0] for row in rows]
    pivots = eliminate(m, len(m[0]) if m else 0)
    m = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        for i in range(r):
            f = m[i][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
    return m, pivots


def left_kernel_vector(rows):
    """First nonzero vector lam with lam @ rows == 0, or None.

    Elimination tracks the row operations in an appended identity block.
    The row that cancels at index rank combines its own input row j with
    the input rows of the pivot rows only, so the dependence with
    coefficient 1 at j is unique: the tracked integer row, times the row
    scales, over its entry at j.  The pivot rows' tracked blocks cover
    exactly their input rows, which leaves j as the one other index.
    """
    n, ncols = len(rows), (len(rows[0]) if rows else 0)
    scaled = [integer_numerators(row) for row in rows]
    m = [xs + [int(i == j) for j in range(n)] for i, (xs, _) in enumerate(scaled)]
    r = len(eliminate(m, ncols))
    if r == n:
        return None
    used = {k for row in m[:r] for k, x in enumerate(row[ncols:]) if x}
    lam = [x * s for x, (_, s) in zip(m[r][ncols:], scaled)]
    j = next(k for k, x in enumerate(lam) if x and k not in used)
    return [Fraction(x, lam[j]) for x in lam]


def independent_rows(rows):
    """Whether the integer rows are linearly independent over Q.

    The elimination on the rows as given: no denominator scan and no
    tracking, for the witness proofs that call it on every try.
    """
    return len(eliminate(list(rows), len(rows[0]) if rows else 0)) == len(rows)


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

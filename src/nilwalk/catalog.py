"""Built-in algebra constructors.

Every constructor returns a StructureConstants whose basis is already
adapted to the lower central series, and is Jacobi-checked on the way
out.  The 15-dimensional step-4 algebra is stored as a literal relation
table; the Jacobi check at construction doubles as the guard against a
mistyped entry.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

from . import linalg
from .lie_core import LieAlgebraError, StructureConstants, check_jacobi

__all__ = [
    "abelian",
    "heisenberg",
    "quasi_abelian",
    "filiform",
    "triangular",
    "example_3_2",
    "example_5_6",
    "random_step3",
    "CATALOG",
    "build",
    "default_corpus",
]


def _finish(dim, brackets, names, expect_step=None, expect_dims=None):
    sc = StructureConstants(dim, brackets, names=names)
    rep = check_jacobi(sc)
    if not rep.ok:
        raise AssertionError(f"catalog algebra violates Jacobi at {rep.triple}")
    if expect_step is not None and sc.step != expect_step:
        raise AssertionError(f"expected step {expect_step}, got {sc.step}")
    if expect_dims is not None and sc.dims != tuple(expect_dims):
        raise AssertionError(f"expected dims {expect_dims}, got {sc.dims}")
    return sc


def abelian(n: int) -> StructureConstants:
    """R^n with zero bracket (step 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _finish(n, {}, [f"X{i + 1}" for i in range(n)], 1, (n,))


def heisenberg() -> StructureConstants:
    """3-dimensional algebra with [X1, X2] = X3."""
    return _finish(3, {(0, 1): {2: 1}}, ["X1", "X2", "X3"], 2, (2, 1))


def quasi_abelian(heights) -> StructureConstants:
    """One generator X acting as a shift on columns of Y's.

    heights[j] is the length of column j; the relations are
    [X, Y_{i,j}] = Y_{i+1,j} for i+1 < heights[j].  The complement of the
    derived algebra is abelian, hence the name.  Step is max(heights).
    """
    heights = tuple(int(h) for h in heights)
    if not heights or any(h < 1 for h in heights):
        raise ValueError("heights must be positive")
    if max(heights) < 2:
        raise ValueError("at least one column must have height >= 2")
    step = max(heights)
    # basis ordered by level: X first, then row i of every column
    index = {}
    names = ["X"]
    pos = 1
    for i in range(step):
        for j, h in enumerate(heights):
            if i < h:
                index[(i, j)] = pos
                names.append(f"Y{i + 1}_{j + 1}")
                pos += 1
    brackets = {}
    for (i, j), t in index.items():
        if (i + 1, j) in index:
            brackets[(0, t)] = {index[(i + 1, j)]: 1}
    dims = [1 + sum(1 for h in heights if h >= 1)]
    for i in range(1, step):
        dims.append(sum(1 for h in heights if h > i))
    return _finish(pos, brackets, names, step, tuple(dims))


def filiform(n: int) -> StructureConstants:
    """Dimension n, step n-1: [X1, Xi] = X(i+1) for 2 <= i < n."""
    if n < 3:
        raise ValueError("n must be at least 3")
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    names = [f"X{i + 1}" for i in range(n)]
    return _finish(n, brackets, names, n - 1, (2,) + (1,) * (n - 2))


def triangular(s: int) -> StructureConstants:
    """Strictly upper triangular (s+1)x(s+1) matrices.

    Basis E_ij (i < j) ordered by j - i, with
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.  Step s,
    dims (s, s-1, ..., 1).
    """
    if s < 1:
        raise ValueError("s must be positive")
    pairs = sorted(
        ((i, j) for i in range(1, s + 2) for j in range(i + 1, s + 2)),
        key=lambda p: (p[1] - p[0], p[0]),
    )
    index = {p: t for t, p in enumerate(pairs)}
    names = [f"E{i}{j}" for i, j in pairs]
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs[a + 1 :], a + 1):
            # i < j and k < l, so at most one of the two deltas is 1
            if j == k:
                brackets[(a, b)] = {index[(i, l)]: 1}
            elif l == i:
                brackets[(a, b)] = {index[(k, j)]: -1}
    dims = tuple(s - p for p in range(s))
    return _finish(len(pairs), brackets, names, s, dims)


def example_3_2() -> StructureConstants:
    """Step-3, dimension 5: [X1,X2] = Y, [Y,X1] = Z1, [Y,X2] = Z2."""
    names = ["X1", "X2", "Y", "Z1", "Z2"]
    brackets = {
        (0, 1): {2: 1},   # [X1, X2] = Y
        (0, 2): {3: -1},  # [Y, X1] = Z1
        (1, 2): {4: -1},  # [Y, X2] = Z2
    }
    return _finish(5, brackets, names, 3, (2, 1, 2))


# Relation table for the 15-dimensional step-4 algebra, one tuple per
# relation: (left name, right name, {output name: integer coefficient}).
# Unlisted brackets of basis vectors are zero.
_EX56_RELATIONS = (
    ("X1", "X2", {"Y1": 1}),
    ("X1", "X3", {"Y2": 1}),
    ("X2", "X3", {"Y3": 1}),
    ("Y1", "X1", {"Z1": 1}),
    ("Y1", "X2", {"Z2": 1}),
    ("Y1", "X3", {"Z3": 1}),
    ("Y2", "X1", {"Z4": 1}),
    ("Y2", "X2", {"Z5": 1}),
    ("Y2", "X3", {"Z6": 1}),
    ("Y3", "X1", {"Z5": 1, "Z3": -1}),
    ("Y3", "X2", {"Z7": 1}),
    ("Y3", "X3", {"Z8": 1}),
    ("Z1", "X3", {"W": 3}),
    ("Z2", "X3", {"W": -3}),
    ("Z3", "X1", {"W": -1}),
    ("Z3", "X2", {"W": 1}),
    ("Z3", "X3", {"W": -2}),
    ("Z4", "X2", {"W": -3}),
    ("Z5", "X1", {"W": 1}),
    ("Z5", "X2", {"W": 2}),
    ("Z5", "X3", {"W": -1}),
    ("Z6", "X2", {"W": 3}),
    ("Z7", "X1", {"W": -3}),
    ("Z8", "X1", {"W": -3}),
    ("Y1", "Y2", {"W": 4}),
    ("Y1", "Y3", {"W": -4}),
    ("Y2", "Y3", {"W": -4}),
)


def example_5_6() -> StructureConstants:
    """Step-4, dimension 15, level dims (3, 3, 8, 1).

    The interesting algebra of the certification suite: it is 4-great
    but the two-generator pencil at level 3 vanishes identically.
    """
    names = (
        ["X1", "X2", "X3"]
        + ["Y1", "Y2", "Y3"]
        + [f"Z{i}" for i in range(1, 9)]
        + ["W"]
    )
    idx = {n: i for i, n in enumerate(names)}
    brackets = {}
    for left, right, out in _EX56_RELATIONS:
        key = idx[left], idx[right]
        if key in brackets:  # a dict would keep only the last one
            raise AssertionError(f"duplicate relation for ({left}, {right})")
        brackets[key] = {idx[k]: v for k, v in out.items()}
    return _finish(15, brackets, names, 4, (3, 3, 8, 1))


def random_step3(n0: int, n1: int, n2: int, seed: int) -> StructureConstants:
    """Random step-3 algebra with level dims (n0, n1, n2).

    Draws the [level0, level0] constants at random, then solves the
    Jacobi constraints (linear in the [level0, level1] constants) exactly
    and picks a random integer point of the solution space.  Retries
    with derived seeds until the lower central series realizes the
    requested dims, so the result is always genuinely step 3.
    """
    if n0 < 2 or n1 < 1 or n2 < 1:
        raise ValueError("need n0 >= 2, n1 >= 1, n2 >= 1")
    rng = random.Random(seed)
    dim = n0 + n1 + n2
    for _ in range(200):
        # [Xi, Xj] -> level 1 and level 2 components
        c1 = {}  # (i, j, y) -> int, y in 0..n1-1
        c2 = {}  # (i, j, z) -> int, z in 0..n2-1
        for i in range(n0):
            for j in range(i + 1, n0):
                for y in range(n1):
                    c1[(i, j, y)] = rng.randint(-2, 2)
                for z in range(n2):
                    c2[(i, j, z)] = rng.randint(-2, 2)

        def c1s(i, j, y):
            return c1[(i, j, y)] if i < j else -c1[(j, i, y)]

        # unknowns B[(i, y, z)]: coefficient of Z_z in [Xi, Y_y]
        unknowns = [(i, y, z) for i in range(n0) for y in range(n1) for z in range(n2)]
        upos = {u: t for t, u in enumerate(unknowns)}
        rows = []
        for i in range(n0):
            for j in range(i + 1, n0):
                for k in range(j + 1, n0):
                    for z in range(n2):
                        row = [0] * len(unknowns)
                        # [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj] = 0,
                        # level-2 part; [Y_y, Xk] = -[Xk, Y_y]
                        for y in range(n1):
                            row[upos[(k, y, z)]] -= c1s(i, j, y)
                            row[upos[(i, y, z)]] -= c1s(j, k, y)
                            row[upos[(j, y, z)]] -= c1s(k, i, y)
                        if any(row):
                            rows.append(row)
        basis = linalg.nullspace(rows or [[0] * len(unknowns)])
        if not basis:
            continue
        coeffs = [rng.randint(-2, 2) for _ in basis]
        sol = [Fraction(0)] * len(unknowns)
        for cf, vec in zip(coeffs, basis):
            if cf:
                sol = [s + cf * v for s, v in zip(sol, vec)]
        brackets = {}
        for i in range(n0):
            for j in range(i + 1, n0):
                out = {n0 + y: c1[(i, j, y)] for y in range(n1)}
                out.update({n0 + n1 + z: c2[(i, j, z)] for z in range(n2)})
                brackets[(i, j)] = out
        for (i, y, z), t in upos.items():
            brackets.setdefault((i, n0 + y), {})[n0 + n1 + z] = sol[t]
        names = (
            [f"X{i + 1}" for i in range(n0)]
            + [f"Y{y + 1}" for y in range(n1)]
            + [f"Z{z + 1}" for z in range(n2)]
        )
        sc = StructureConstants(dim, brackets, names=names)
        try:
            dims = sc.dims
        except LieAlgebraError:  # not nilpotent or not adapted: a bad draw
            continue
        if dims != (n0, n1, n2):
            continue
        rep = check_jacobi(sc)
        if not rep.ok:
            raise AssertionError("Jacobi solver produced an invalid algebra")
        return sc
    raise RuntimeError(f"no step-3 algebra with dims ({n0},{n1},{n2}) after 200 draws")


# name -> (constructor, the integer arguments a bare name stands for)
CATALOG = {
    "abelian": (abelian, (3,)),
    "heisenberg": (heisenberg, ()),
    "quasi_abelian": (lambda *heights: quasi_abelian(heights), (3, 2)),
    "filiform": (filiform, (5,)),
    "triangular": (triangular, (3,)),
    "example_3_2": (example_3_2, ()),
    "example_5_6": (example_5_6, ()),
    "random_step3": (random_step3, (2, 1, 1, 0)),
}


def build(name: str, *args) -> StructureConstants:
    """Construct a catalog algebra from its name and integer arguments,
    or from its defaults when none are given."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown algebra {name!r}; catalog: {known}, or a file path")
    constructor, defaults = CATALOG[name]
    args = args or defaults
    try:
        inspect.signature(constructor).bind(*args)
    except TypeError:
        usage = f"{name}:{','.join(map(str, defaults))}" if defaults else name
        raise ValueError(
            f"wrong number of arguments for {name} ({len(args)}); write it as {usage}"
        ) from None
    return constructor(*args)


def default_corpus():
    """The named algebras exercised by the test suite, with labels."""
    out = [
        ("abelian(3)", abelian(3)),
        ("heisenberg", heisenberg()),
        ("example_3_2", example_3_2()),
        ("example_5_6", example_5_6()),
        ("quasi_abelian(3,2)", quasi_abelian((3, 2))),
        ("triangular(2)", triangular(2)),
        ("triangular(3)", triangular(3)),
        ("triangular(4)", triangular(4)),
        ("filiform(4)", filiform(4)),
        ("filiform(5)", filiform(5)),
        ("filiform(6)", filiform(6)),
        ("filiform(7)", filiform(7)),
    ]
    return out

"""Exact nilpotent Lie algebras given by rational structure constants.

A StructureConstants object stores the bracket table of a finite
dimensional Lie algebra over Q in a fixed basis.  All arithmetic in this
module is exact; nothing here touches floating point.  A LieVector is
stored as integer numerators over one denominator, and the exact
bracket, the k-weighted nested bracket, the Jacobi check and the lower
central series run on the integer form of the table (integer_table), so
none of them builds a Fraction.  The basis is required to be adapted to
the lower central series: writing g^(0) = g and g^(j) = [g^(j-1), g],
each g^(j) must be spanned by a trailing block of basis vectors.
Adaptedness is *verified*, never repaired: it is read off the pivots of
each g^(j)'s echelon form, and a basis that does not have this shape
raises NotAdaptedError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg

__all__ = [
    "LieVector",
    "StructureConstants",
    "CentralSeries",
    "JacobiReport",
    "LieAlgebraError",
    "NotNilpotentError",
    "NotAdaptedError",
    "check_jacobi",
    "lower_central_series",
    "nested_bracket",
    "project",
    "quotient_algebra",
    "direct_product",
    "algebra_from_json",
    "algebra_to_json",
    "load_algebra",
    "save_algebra",
]


class LieAlgebraError(Exception):
    pass


class NotNilpotentError(LieAlgebraError):
    """The lower central series stabilized at a nonzero subalgebra."""


class NotAdaptedError(LieAlgebraError):
    """Some g^(j) is not the span of a trailing block of basis vectors."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class LieVector:
    """Vector of exact rational coordinates in the fixed basis, stored as
    integer numerators nums over one denominator den > 0 in lowest terms.
    coords, iteration and indexing give Fractions."""

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        nums, self.den = linalg.integer_numerators([_frac(c) for c in coords])
        self.nums = tuple(nums)

    @classmethod
    def _of(cls, nums, den):
        """The vector nums / den for integers nums and den > 0, reduced."""
        g = gcd(den, *nums)
        v = cls.__new__(cls)
        v.nums = tuple(n // g for n in nums)
        v.den = den // g
        return v

    @classmethod
    def zero(cls, dim):
        return cls._of([0] * dim, 1)

    @classmethod
    def basis(cls, dim, i):
        if not 0 <= i < dim:
            raise ValueError(f"basis index {i} is outside 0..{dim - 1}")
        return cls._of([int(j == i) for j in range(dim)], 1)

    @property
    def coords(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def dim(self):
        return len(self.nums)

    def __add__(self, other):
        self._check(other)
        d = lcm(self.den, other.den)
        f, g = d // self.den, d // other.den
        return LieVector._of([a * f + b * g for a, b in zip(self.nums, other.nums)], d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return LieVector._of([-a for a in self.nums], self.den)

    def __mul__(self, scalar):
        s = _frac(scalar)
        return LieVector._of([s.numerator * a for a in self.nums], s.denominator * self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LieVector) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return f"LieVector({list(self.coords)})"

    def _check(self, other):
        if not isinstance(other, LieVector):
            raise TypeError("expected a LieVector")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triple: tuple | None = None
    residual: LieVector | None = None


@dataclass(frozen=True)
class CentralSeries:
    """Lower central series of an adapted algebra.

    g^(j) is spanned by the basis vectors from index starts[j] on; dims[p]
    is the dimension of the quotient g^(p)/g^(p+1).  step is the smallest
    s with g^(s) = 0.
    """

    dims: tuple
    starts: tuple
    step: int

    def level_of(self, i):
        """Level of basis vector i."""
        for p in range(self.step - 1, -1, -1):
            if i >= self.starts[p]:
                return p
        raise IndexError(i)

    def level_indices(self, p):
        """The level-p basis indices; every reader of a level checks p here."""
        if not 0 <= p < self.step:
            raise ValueError(f"level {p} out of range for step {self.step}")
        return range(self.starts[p], self.starts[p] + self.dims[p])

    def check_bracket_level(self, p):
        """Refuse p unless it is a level reached by a bracket, 1..step-1;
        the pencil and the pair search read only those."""
        if not 1 <= p < self.step:
            raise ValueError(f"level {p} out of range 1..step-1 for step {self.step}")


def _bracket_loop(table, dim, xs, ys):
    out = [0] * dim
    for (i, j), pairs in table.items():
        c = xs[i] * ys[j] - xs[j] * ys[i]
        if not c:
            continue
        for k, w in pairs:
            out[k] = out[k] + w * c
    return out


class StructureConstants:
    """Bracket table c_{ij}^k of a rational nilpotent Lie algebra.

    brackets maps (i, j), i != j, 0-based, to {k: coefficient}, each
    coefficient an int, a Fraction or a string such as "1/2".  A pair
    comes in either order, (j, i) standing for -(i, j), and at most once.
    This is the one normalizer: the table keeps each pair as i < j with
    its nonzero coefficients sorted by k, and no empty row.  Values are
    immutable after construction by convention: no method mutates them.
    """

    def __init__(self, dim, brackets, names=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        if names is None:
            names = [f"X{i + 1}" for i in range(dim)]
        if len(names) != dim:
            raise ValueError("names length must equal dim")
        self.names = tuple(str(n) for n in names)
        self._table = {}
        for (i, j), out in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            if i == j:
                raise ValueError(f"diagonal bracket entry ({i}, {i})")
            flip = i > j
            if flip and (j, i) in brackets:
                raise ValueError(f"[{self.names[j]}, {self.names[i]}] is given in both orders")
            row = []
            for k in sorted(out):
                if not (0 <= k < dim):
                    raise ValueError(f"bracket output index out of range: {k}")
                v = _frac(out[k])
                if v:
                    row.append((k, -v if flip else v))
            if row:
                self._table[(j, i) if flip else (i, j)] = tuple(row)
        self._quotients = {}

    # -- bracket ---------------------------------------------------------

    def bracket_coords(self, xs, ys):
        """Bilinear bracket on raw coordinate sequences.

        Generic over the scalar type: Fractions, symbolic polynomials and
        anything else supporting ring arithmetic with Fraction
        coefficients all work.  Exact callers go through bracket().
        """
        if len(xs) != self.dim or len(ys) != self.dim:
            raise ValueError("dimension mismatch in bracket")
        return _bracket_loop(self._table, self.dim, xs, ys)

    @cached_property
    def integer_table(self):
        """(D, table): the bracket table times its common denominator D.

        table has the shape of the rational one, {(i, j): ((k, w), ...)},
        with integer weights w = D * c_ij^k.  Built once per algebra.
        """
        D = lcm(*(w.denominator for pairs in self._table.values() for _, w in pairs))
        table = {
            ij: tuple((k, w.numerator * (D // w.denominator)) for k, w in pairs)
            for ij, pairs in self._table.items()
        }
        return D, table

    def integer_bracket(self, xs, ys):
        """D * [xs, ys] on integer coordinate sequences, D as in integer_table."""
        return _bracket_loop(self.integer_table[1], self.dim, xs, ys)

    def bracket(self, x: LieVector, y: LieVector) -> LieVector:
        """Exact bracket, run on the integer numerators of x and y."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ValueError("dimension mismatch in bracket")
        den = self.integer_table[0] * x.den * y.den
        return LieVector._of(self.integer_bracket(x.nums, y.nums), den)

    # -- derived structure ------------------------------------------------

    @cached_property
    def series(self) -> CentralSeries:
        return lower_central_series(self)

    @property
    def step(self):
        return self.series.step

    @property
    def dims(self):
        return self.series.dims

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstants)
            and self.dim == other.dim
            and self._table == other._table
        )

    def __repr__(self):
        return f"StructureConstants(dim={self.dim}, brackets={len(self._table)})"


def nested_bracket(sc: StructureConstants, weights, cols):
    """D^p times [ ... [W_0, W_1], ..., W_p ] on the integer table.

    p = len(weights) - 1 and W_q = sum_i weights[q][i] V_i, where
    cols[j][i] is coordinate j of V_i; coordinates from len(cols) on are
    0.  Scalars are ints or anything with ring arithmetic against them
    (MultiPoly), so integer input keeps every entry an int.  An entry no
    bracket touches stays the int 0.  D is sc.integer_table[0].
    """
    table = sc.integer_table[1]
    pad = [0] * (sc.dim - len(cols))
    acc = None
    for row in weights:
        w = [sum(map(mul, row, col)) for col in cols] + pad
        acc = w if acc is None else _bracket_loop(table, sc.dim, acc, w)
    return acc


def check_jacobi(sc: StructureConstants) -> JacobiReport:
    """Exact Jacobi check over all basis triples, on the integer table.

    Reports the first violating triple (i, j, k) together with the
    residual [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj].  The sum is taken
    with integer_bracket, so it is D^2 times the residual.
    """
    n = sc.dim
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    br = sc.integer_bracket
    pair = [[br(unit[i], unit[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = br(pair[i][j], unit[k]), br(pair[j][k], unit[i]), br(pair[k][i], unit[j])
                r = [sum(t) for t in zip(*terms)]
                if any(r):
                    residual = LieVector._of(r, sc.integer_table[0] ** 2)
                    return JacobiReport(False, (i, j, k), residual)
    return JacobiReport(True)


def _primitive(row):
    """The nonzero integer row divided by the gcd of its entries, signed
    so that its first nonzero entry is positive."""
    g = gcd(*row)
    for x in row:
        if x:
            break
    if x < 0:
        g = -g
    return tuple([x // g for x in row])


def lower_central_series(sc: StructureConstants) -> CentralSeries:
    """Compute g = g^(0) > g^(1) > ... exactly and verify adaptedness.

    Raises NotNilpotentError if the series stabilizes at nonzero
    dimension, NotAdaptedError if some g^(j) is not a trailing
    coordinate subspace.  Nilpotency is decided first, over the whole
    series.  Each g^(j) is held as integer echelon rows, each divided by
    the gcd of its entries; the brackets that span the next one are
    reduced the same way, signed and deduplicated before elimination.  A
    d-dimensional g^(j) is spanned by e_(n-d), ..., e_(n-1) exactly when
    its pivots are n-d, ..., n-1.
    """
    n = sc.dim
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    current, pivot_lists = unit, []
    while True:
        # most brackets [v, e_j] repeat another up to a scalar, and
        # elimination pays for every row it is handed
        brackets = (sc.integer_bracket(v, e) for v in current for e in unit)
        nxt = list(dict.fromkeys(_primitive(w) for w in brackets if any(w)))
        pivots = linalg.eliminate(nxt, n)
        if len(pivots) == len(current):
            raise NotNilpotentError(
                f"series stabilized at dimension {len(pivots)}"
            )
        if not pivots:
            break
        pivot_lists.append(pivots)
        current = [_primitive(row) for row in nxt[: len(pivots)]]

    starts = [0]
    for j, pivots in enumerate(pivot_lists, 1):
        start = n - len(pivots)
        if pivots != list(range(start, n)):
            raise NotAdaptedError(
                f"g^({j}) is not spanned by the last {len(pivots)} basis vectors"
            )
        starts.append(start)
    dims = [b - a for a, b in zip(starts, starts[1:] + [n])]
    return CentralSeries(tuple(dims), tuple(starts), len(starts))


def project(sc: StructureConstants, x: LieVector, p: int):
    """Coordinates of x on the level-p block (the quotient g^(p)/g^(p+1)).

    Linear in x; vanishes on g^(p+1) by the adapted-basis shape.
    """
    return tuple(Fraction(x.nums[i], x.den) for i in sc.series.level_indices(p))


def quotient_algebra(sc: StructureConstants, p: int) -> StructureConstants:
    """Structure constants of g / g^(p+1), in the inherited basis.

    Memoized per algebra, like its series.  The projection onto the
    quotient drops the coordinates from index dim(g / g^(p+1)) on, and
    the quotient's series is the image of g's levels 0..p.
    """
    quotient = sc._quotients.get(p)
    if quotient is None:
        keep = sc.series.level_indices(p).stop
        brackets = {
            (i, j): {k: v for k, v in pairs if k < keep}
            for (i, j), pairs in sc._table.items()
            if j < keep  # i < j in the table
        }
        quotient = StructureConstants(keep, brackets, names=sc.names[:keep])
        # the series of g / g^(p+1) is the image of g's first p+1 levels,
        # so it is read off rather than recomputed
        quotient.series = CentralSeries(sc.dims[: p + 1], sc.series.starts[: p + 1], p + 1)
        sc._quotients[p] = quotient
    return quotient


def rescale_levels(sc: StructureConstants, factors) -> StructureConstants:
    """Change basis to Y_i = X_i / f_level(i), one positive factor per level.

    [Y_i, Y_j] picks up f_level(k) / (f_level(i) f_level(j)) on each output
    coordinate.  Dilating deep levels this way can clear the denominators
    that keep integer coordinate tuples from forming a subgroup.
    """
    ser = sc.series
    factors = [Fraction(f) for f in factors]
    if len(factors) != ser.step or any(f <= 0 for f in factors):
        raise ValueError(f"need {ser.step} positive factors")
    lv = ser.level_of
    brackets = {}
    for (i, j), pairs in sc._table.items():
        scale = Fraction(1, factors[lv(i)] * factors[lv(j)])
        brackets[(i, j)] = {k: v * scale * factors[lv(k)] for k, v in pairs}
    return StructureConstants(sc.dim, brackets, names=sc.names)


def direct_product(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """Direct product with basis re-interleaved level by level.

    Blocks of equal level are placed next to each other (all of a's
    level-p vectors, then b's) so the product basis is adapted again.
    """
    sa, sb = a.series, b.series
    step = max(sa.step, sb.step)
    order = []  # (source, original index)
    for p in range(step):
        if p < sa.step:
            order.extend(("a", i) for i in sa.level_indices(p))
        if p < sb.step:
            order.extend(("b", i) for i in sb.level_indices(p))
    pos = {key: t for t, key in enumerate(order)}
    brackets = {}
    for src, sc_src in (("a", a), ("b", b)):
        for (i, j), pairs in sc_src._table.items():
            ii, jj = pos[(src, i)], pos[(src, j)]
            out = {pos[(src, k)]: v for k, v in pairs}
            brackets[(ii, jj)] = out
    names = []
    for src, i in order:
        base = a.names[i] if src == "a" else b.names[i]
        names.append(f"{src}.{base}")
    return StructureConstants(len(order), brackets, names=names)


# -- JSON wire format ------------------------------------------------------
#
# {"dim": 3, "names": ["X1","X2","X3"], "levels": [[1,2],[3]],
#  "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "num": 1, "den": 1}]}]}
#
# Indices are 1-based on the wire, and num/den round-trip bit exactly.
# A pair appears once, in either order, and an output index once per pair.


def algebra_to_json(sc: StructureConstants) -> dict:
    ser = sc.series
    levels = [[i + 1 for i in ser.level_indices(p)] for p in range(ser.step)]
    brackets = []
    for (i, j) in sorted(sc._table):
        out = [
            {"k": k + 1, "num": v.numerator, "den": v.denominator}
            for k, v in sc._table[(i, j)]
        ]
        brackets.append({"i": i + 1, "j": j + 1, "out": out})
    return {
        "dim": sc.dim,
        "names": list(sc.names),
        "levels": levels,
        "brackets": brackets,
    }


def _json_int(value, field):
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_object(value, what, fields):
    """value, once it is a JSON object holding every one of fields."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    for field in fields:
        if field not in value:
            raise ValueError(f"{what} is missing the field {field!r}")
    return value


def _json_list(value, field):
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {type(value).__name__}")
    return value


def _json_index(value, field, dim):
    """A basis index in the wire's 1-based numbering, returned 0-based."""
    if not 1 <= _json_int(value, field) <= dim:
        raise ValueError(f"{field} must lie in 1..{dim}, got {value}")
    return value - 1


def algebra_from_json(data: dict) -> StructureConstants:
    dim = _json_int(_json_object(data, "an algebra", ("dim",))["dim"], "dim")
    names = data.get("names")
    if names is not None and not (
        isinstance(names, list) and len(names) == dim and all(isinstance(n, str) for n in names)
    ):
        raise ValueError(f"names must be a list of {dim} strings, got {names!r}")
    brackets = {}
    for a, ent in enumerate(_json_list(data.get("brackets", []), "brackets")):
        _json_object(ent, f"brackets[{a}]", ("i", "j", "out"))
        i, j = _json_index(ent["i"], "i", dim), _json_index(ent["j"], "j", dim)
        out = {}
        for b, o in enumerate(_json_list(ent["out"], f"brackets[{a}].out")):
            _json_object(o, f"brackets[{a}].out[{b}]", ("k", "num"))
            num, den = _json_int(o["num"], "num"), _json_int(o.get("den", 1), "den")
            if not den:
                raise ValueError(f"den must be nonzero in bracket ({i + 1}, {j + 1})")
            k = _json_index(o["k"], "k", dim)
            if k in out:  # a dict would keep only the last entry
                raise ValueError(f"duplicate output index {k + 1} in bracket ({i + 1}, {j + 1})")
            out[k] = Fraction(num, den)
        if (i, j) in brackets:
            raise ValueError(f"duplicate bracket entry for ({i + 1}, {j + 1})")
        brackets[(i, j)] = out
    sc = StructureConstants(dim, brackets, names=names)
    ser = sc.series  # raises if not nilpotent / adapted
    claimed = data.get("levels")
    if claimed is not None:
        actual = [[i + 1 for i in ser.level_indices(p)] for p in range(ser.step)]
        levels = _json_list(claimed, "levels")
        claimed = [_json_list(lv, f"levels[{n}]") for n, lv in enumerate(levels)]
        if claimed != actual:
            raise NotAdaptedError(
                f"declared levels {claimed} do not match computed levels {actual}"
            )
    return sc


def save_algebra(sc: StructureConstants, path):
    with open(path, "w") as fh:
        json.dump(algebra_to_json(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> StructureConstants:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))

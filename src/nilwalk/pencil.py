"""Bracket pencils of generic vectors and exact greatness certificates.

For m generic level-0 vectors V_i = sum_j a_{i,j} X_j and integer weight
rows k_0..k_p, the level-p pencil is

    H_{m,p}(k, a) = [ ... [[k_0 V, k_1 V], k_2 V], ..., k_p V ]

read off on the level-p block of the basis, where k_q V = sum_i k_{q,i} V_i.
Each coordinate is a polynomial: multilinear in every k_q row and
homogeneous of degree p+1 in the a's.  The pencil is non-degenerate when
some integer choice of the k rows makes the coordinate polynomials
linearly independent over Q; an algebra is m-great when that holds for
every level 1 <= p <= step-1.

Everything here is exact.  A level-p bracket lives in the quotient
g/g^(p+1), so every pencil value is one lie_core.nested_bracket there,
on the quotient's integer table (D times its structure constants).  The
one builder, _nested_level, runs it on symbolic vectors: at integer k
every coefficient stays a Python int until the level-p block is divided
by D^p once, and when D = 1 no Fraction is built at all.  The witness
evaluation runs it on integer points.  Rank decisions on polynomials
come from fraction-free elimination on the coefficient matrix over the
monomial basis, and a dependence is always returned with its rational
kernel certificate.

A witness try needs only a yes, and integer evaluation proves one
without building a polynomial: if the n_p x n_p integer matrix of the
level-p coordinates at n_p fixed points a^(t) is nonsingular, no
dependence lam can kill every row, so the coordinates are independent.
A singular matrix proves nothing, and the search counts that try as
failed, so every witness is proved by evaluation.

Degeneracy is decided on the symbolic pencil, built at most once per
level and only where a proof of it can exist.  Let V be level 0, of
dimension n0.  The level-p block is the image of the free Lie algebra's
degree-(p+1) part Lie_{p+1}(V), and by Schur-Weyl duality the pencil's
values over all (k, a) span the image of its components S_lambda(V) with
at most m rows.  No component has more than n0 rows, and for p >= 2 none
has p+1, since the sign character does not occur in Lie_n for n >= 3
(Kraskiewicz-Weyman).  So when m >= min(n0, max(p, 2)) the values span
the whole level: no nonzero kernel annihilates the pencil, and it is not
zero.  Such a level is futile; certify builds no pencil there, and verify
refuses a degeneracy proof there without building one.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from . import linalg
from .lie_core import StructureConstants, nested_bracket, quotient_algebra

__all__ = [
    "PolyRing",
    "MultiPoly",
    "alpha_ring",
    "build_pencil",
    "pencil_at_k",
    "linearly_independent",
    "certify_greatness",
    "GreatnessCertificate",
    "LevelCertificate",
]


class PolyRing:
    """Polynomial ring over Q with a fixed, ordered tuple of variables."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nvars = len(self.names)
        self._zero_mono = (0,) * self.nvars

    def zero(self):
        return MultiPoly._of(self, {})

    def const(self, c):
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {self._zero_mono: c})

    def var(self, name):
        i = self.index[name]
        mono = self._zero_mono[:i] + (1,) + self._zero_mono[i + 1 :]
        return MultiPoly._of(self, {mono: 1})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __repr__(self):
        return f"PolyRing({self.names})"


def _mono_key(mono):
    # graded lexicographic, largest first when used with sorted(reverse=True)
    return (sum(mono), mono)


class MultiPoly:
    """Sparse multivariate polynomial with rational (int or Fraction)
    coefficients.  Immutable by convention: no operation changes terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _of(cls, ring, terms):
        """A polynomial on terms that hold no zero coefficient, kept as is."""
        out = cls.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly._of(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if not self.terms:
            return self
        return MultiPoly._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            if not self.terms:
                return self
            return MultiPoly._of(self.ring, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return other
        if not self.terms:
            return self
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly._of(self.ring, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------

    def restrict(self, values, target: PolyRing):
        """Substitute the exact rationals {name: value} for some variables
        and re-express the rest in the ring target, which must hold every
        variable left in a term."""
        plan = [
            (Fraction(values[n]), None) if n in values else (None, target.index.get(n))
            for n in self.ring.names
        ]
        out = {}
        for m, c in self.terms.items():
            newm = [0] * target.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                v, slot = plan[i]
                if v is not None:
                    c = c * v**e
                elif slot is None:
                    raise ValueError(f"variable {self.ring.names[i]} not in target ring")
                else:
                    newm[slot] = e
            key = tuple(newm)
            out[key] = out.get(key, 0) + c
        return MultiPoly(target, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # descending graded-lexicographic order: canonical
        for m, c in sorted(self.terms.items(), key=lambda t: _mono_key(t[0]), reverse=True):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring.names[i])
                elif e > 1:
                    factors.append(f"{self.ring.names[i]}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append((c, str(abs(c))))
                continue
            if abs(c) == 1:
                parts.append((c, body))
            else:
                parts.append((c, f"{abs(c)}*{body}"))
        s = ""
        for c, body in parts:
            sign = "-" if c < 0 else "+"
            s += f" {sign} {body}" if s else (f"-{body}" if c < 0 else body)
        return s

    def __repr__(self):
        return f"MultiPoly({self})"


# -- pencil construction ----------------------------------------------------


def _alpha_names(m, n0):
    return [f"a{i + 1}_{j + 1}" for i in range(m) for j in range(n0)]


def _k_names(m, p):
    return [f"k{q}_{i + 1}" for q in range(p + 1) for i in range(m)]


def alpha_ring(m: int, n0: int) -> PolyRing:
    return PolyRing(_alpha_names(m, n0))


def pencil_ring(m: int, n0: int, p: int) -> PolyRing:
    return PolyRing(_alpha_names(m, n0) + _k_names(m, p))


def _nested_level(sc: StructureConstants, ring: PolyRing, weights):
    """Level-p coordinates of [ ... [W_0, W_1], ..., W_p ], p = len(weights) - 1.

    W_q = sum_i weights[q][i] V_i over the generic level-0 vectors
    V_i = sum_j a_{i,j} X_j of ring.  A weight is a ring element (a
    symbolic k) or a number (an integer or rational k).  Components
    beyond level 0 would die in every pencil level (a bracket slot in
    g^(1) pushes the whole nested bracket past the level being read
    off), so the V_i have none.

    One nested_bracket on g/g^(p+1) gives D^p times the bracket, D the
    quotient's own denominator, so integer weights keep every coefficient
    an integer; the level-p block is divided by D^p once at the end, and
    not at all when D = 1.
    """
    p = len(weights) - 1
    q_sc = quotient_algebra(sc, p)
    m = len(weights[0])
    cols = [[ring.var(f"a{i + 1}_{j + 1}") for i in range(m)] for j in range(sc.dims[0])]
    acc = nested_bracket(q_sc, weights, cols)
    scale = q_sc.integer_table[0] ** p
    zero = ring.zero()
    out = []
    for i in q_sc.series.level_indices(p):
        # nested_bracket leaves untouched entries as int 0
        c = acc[i] if isinstance(acc[i], MultiPoly) else zero
        if scale != 1:
            c = MultiPoly._of(ring, {m: Fraction(x, scale) for m, x in c.terms.items()})
        out.append(c)
    return out


def _futile(sc: StructureConstants, m: int, p: int):
    """True when level p has no symbolic proof of degeneracy for m generic
    vectors, m >= min(n0, max(p, 2)); the module docstring has the proof."""
    return m >= min(sc.dims[0], max(p, 2))


def build_pencil(sc: StructureConstants, m: int, p: int):
    """The full symbolic pencil at level p: n_p polynomials over
    pencil_ring(m, n0, p), with both the a and k blocks kept as variables."""
    if m < 1:
        raise ValueError("m must be positive")
    sc.series.check_bracket_level(p)
    ring = pencil_ring(m, sc.dims[0], p)
    kvars = [[ring.var(f"k{q}_{i + 1}") for i in range(m)] for q in range(p + 1)]
    return _nested_level(sc, ring, kvars)


def _is_matrix(k, rows, cols):
    """True when k is a sequence of `rows` sequences of `cols` exact
    entries, each an int or a Fraction."""
    try:
        return len(k) == rows and all(
            len(row) == cols and all(isinstance(v, (int, Fraction)) for v in row) for row in k
        )
    except TypeError:
        return False


def pencil_at_k(sc: StructureConstants, m: int, p: int, kbar):
    """H_{m,p}(kbar, a) computed directly, without the symbolic k block.

    Same value as substituting kbar for the k variables of
    build_pencil(sc, m, p), but one nested bracket of numeric
    combinations.
    """
    sc.series.check_bracket_level(p)
    kbar = [tuple(row) for row in kbar]
    if len(kbar) != p + 1 or any(len(r) != m for r in kbar):
        raise ValueError(f"k must be {p + 1} rows of length {m}")
    # integer entries as Python ints keep the whole bracket on integers
    weights = [[int(v) if v == int(v) else Fraction(v) for v in row] for row in kbar]
    return _nested_level(sc, alpha_ring(m, sc.dims[0]), weights)


POINT_BOUND = 2**20


@functools.cache
def _points(m, n0, n):
    """n fixed integer points a^(t), entries in [-POINT_BOUND, POINT_BOUND]
    from a seeded stream of their own, built once per (m, n0, n); a point
    is stored as its n0 columns (a_{1,j}, ..., a_{m,j})."""
    rng = random.Random(f"pencil points m={m} n0={n0} n={n}")
    return [
        [tuple(rng.randint(-POINT_BOUND, POINT_BOUND) for _ in range(m)) for _ in range(n0)]
        for _ in range(n)
    ]


def _proved_independent(sc: StructureConstants, m: int, p: int, kbar):
    """True when integer evaluation proves H_{m,p}(kbar, a) independent.

    kbar is p+1 rows of m entries.  Row t of the matrix is the level-p
    block of nested_bracket on g/g^(p+1) at the point a^(t), the quotient's
    D^p times the pencil there.  A nonsingular matrix is a proof; False
    only means not proved, as does any non-int entry of kbar.
    """
    if not all(isinstance(v, int) for row in kbar for v in row):
        return False
    q_sc = quotient_algebra(sc, p)
    level = q_sc.series.level_indices(p)
    rows = []
    for point in _points(m, sc.dims[0], len(level)):
        acc = nested_bracket(q_sc, kbar, point)
        rows.append([acc[i] for i in level])
        if not any(rows[-1]):
            return False
    return linalg.independent_rows(rows)


def coefficient_rows(polys):
    """The distinct monomials of polys in descending graded-lex order, and
    for each polynomial its row of exact coefficients over them."""
    monos = sorted({m for p in polys for m in p.terms}, key=_mono_key, reverse=True)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [0] * len(monos)
        for m, c in p.terms.items():
            row[col[m]] = c
        rows.append(row)
    return monos, rows


def linearly_independent(polys):
    """Exact rank decision for a list of polynomials over one ring.

    Returns (True, None) when the polynomials are linearly independent
    over Q, else (False, kernel) with an exact nonzero rational vector
    lam satisfying sum(lam_i * polys_i) == 0.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty polynomial list")
    lam = linalg.left_kernel_vector(coefficient_rows(polys)[1])
    return lam is None, lam


# -- certification ------------------------------------------------------------


@dataclass(frozen=True)
class LevelCertificate:
    p: int
    status: str  # "witness" | "degenerate" | "undetermined"
    witness: tuple | None = None
    kernel: tuple | None = None
    proof: str | None = None  # "identically_zero" | "uniform_kernel"
    tried: int = 0
    polys: tuple = ()

    def to_json_dict(self):
        d = {"p": self.p, "status": self.status, "tried": self.tried}
        if self.witness is not None:
            d["witness"] = [list(r) for r in self.witness]
        if self.kernel is not None:
            d["kernel"] = [
                {"num": c.numerator, "den": c.denominator} for c in self.kernel
            ]
        if self.proof is not None:
            d["proof"] = self.proof
        if self.polys:
            d["polynomials"] = list(self.polys)
        return d


@dataclass(frozen=True)
class GreatnessCertificate:
    m: int
    step: int
    levels: tuple = field(default_factory=tuple)

    @property
    def verdict(self):
        if any(lv.status == "degenerate" for lv in self.levels):
            return "degenerate"
        if any(lv.status == "undetermined" for lv in self.levels):
            return "undetermined"
        return "great"

    @property
    def is_great(self):
        return self.verdict == "great"

    def level(self, p):
        for lv in self.levels:
            if lv.p == p:
                return lv
        raise KeyError(p)

    def verify(self, sc: StructureConstants):
        """Re-check every stored witness and kernel from scratch.

        m must be an int >= 1, step the int sc.step, and the levels a
        tuple or list of LevelCertificates at exactly the ints p = 1..step-1.
        A witness must be p+1 rows of m entries, proved by integer
        evaluation or else by the exact polynomial rank of its pencil, so
        the answer is exact either way.  A degenerate level must not be
        futile, and must carry a proof that holds: its symbolic pencil is
        zero, or a nonzero kernel with one entry per coordinate annihilates
        it.  Entries must be ints or Fractions.  A certificate it cannot
        read fails; verify never raises on it.
        """
        if type(self.m) is not int or self.m < 1 or type(self.step) is not int:
            return False
        if not isinstance(self.levels, (tuple, list)) or not all(
            isinstance(lv, LevelCertificate) for lv in self.levels
        ):
            return False
        levels = [(int, p) for p in range(1, sc.step)]
        if self.step != sc.step or [(type(lv.p), lv.p) for lv in self.levels] != levels:
            return False
        for lv in self.levels:
            m, p = self.m, lv.p
            if lv.status == "witness":
                k = lv.witness
                if not _is_matrix(k, p + 1, m) or not (
                    _proved_independent(sc, m, p, k)
                    or linearly_independent(pencil_at_k(sc, m, p, k))[0]
                ):
                    return False
            elif lv.status == "degenerate":
                if _futile(sc, m, p):
                    return False
                if lv.proof == "identically_zero":
                    if any(build_pencil(sc, m, p)):
                        return False
                elif lv.proof == "uniform_kernel":
                    coords = build_pencil(sc, m, p)
                    kernel = lv.kernel
                    if not (
                        _is_matrix((kernel,), 1, len(coords))
                        and any(kernel)
                        and sum(map(mul, kernel, coords)).is_zero()
                    ):
                        return False
                else:
                    return False
            elif lv.status != "undetermined":
                return False
        return True

    def to_json_dict(self):
        return {
            "m": self.m,
            "step": self.step,
            "verdict": self.verdict,
            "levels": [lv.to_json_dict() for lv in self.levels],
        }


@functools.cache
def _structured_candidates(m, p):
    """Witness guesses worth trying before random search, as a tuple
    built once per (m, p).

    For two generic vectors the rows (e1, e2, then e2/e1 choices) cover
    the alternating patterns the step <= 3 and shift-algebra arguments
    use; when p+1 <= m the distinct unit rows e1..e_{p+1} recover every
    nested bracket of distinct basis slots.
    """
    def unit(i):
        return tuple(int(t == i) for t in range(m))

    out = []
    if m >= 2:
        tails = [()]
        for _ in range(p - 1):
            tails = [t + (x,) for t in tails for x in (1, 0)]
        for tail in tails:
            rows = [unit(0), unit(1)] + [unit(t) for t in tail]
            out.append(tuple(rows[: p + 1]))
    if p + 1 <= m:
        out.append(tuple(unit(q) for q in range(p + 1)))
    if m == 1:
        out.append(((1,),) * (p + 1))
    return tuple(dict.fromkeys(out))


def _symbolic_proof(p, coords, tried):
    """The degenerate LevelCertificate that the symbolic level-p pencil
    coords proves, or None.

    Either every coordinate is the zero polynomial, or one rational kernel
    annihilates the whole symbolic pencil, hence every integer evaluation.
    """
    if not any(coords):
        return LevelCertificate(
            p=p,
            status="degenerate",
            proof="identically_zero",
            tried=tried,
            polys=tuple(str(c) for c in coords),
        )
    ok, kernel = linearly_independent(coords)
    if ok:
        return None
    return LevelCertificate(
        p=p, status="degenerate", kernel=tuple(kernel), proof="uniform_kernel", tried=tried
    )


def _first_witness(sc, m, p, tries, tried):
    """The witness LevelCertificate for the first k of tries that integer
    evaluation proves, counted after `tried` earlier tries, or None."""
    for t, kbar in enumerate(tries, tried + 1):
        if _proved_independent(sc, m, p, kbar):
            return LevelCertificate(p=p, status="witness", witness=kbar, tried=t)
    return None


def certify_greatness(
    sc: StructureConstants,
    m: int,
    budget: int = 200,
    seed: int = 0,
) -> GreatnessCertificate:
    """Search for witnesses at every level 1..step-1, else prove degeneracy.

    A level tries the structured candidates first, up to the budget.  If
    none is a witness and the level is not futile (m < min(n0, max(p, 2));
    see the module docstring), the symbolic pencil is built once and may
    settle it: every coordinate is the zero polynomial, or one rational
    kernel annihilates it, hence every integer evaluation.  A level still
    open tries uniform random rows in {-3..3} for the rest of the budget,
    and is reported undetermined if none is a witness.  Every try is
    decided by integer evaluation alone, and a try it does not prove
    counts as failed, so every witness in the certificate is proved.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    rng = random.Random(seed)
    levels = []
    for p in range(1, sc.step):
        structured = _structured_candidates(m, p)[:budget]
        tried = len(structured)
        cert = _first_witness(sc, m, p, structured, 0)
        if cert is None and not _futile(sc, m, p):
            cert = _symbolic_proof(p, build_pencil(sc, m, p), tried)
        if cert is None:
            draws = (
                tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(p + 1))
                for _ in range(budget - tried)
            )
            cert = _first_witness(sc, m, p, draws, tried)
        levels.append(cert or LevelCertificate(p=p, status="undetermined", tried=budget))
    return GreatnessCertificate(m=m, step=sc.step, levels=tuple(levels))

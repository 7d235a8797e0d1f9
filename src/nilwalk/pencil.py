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

Everything here is exact.  One builder, _nested_level, brackets on the
algebra's integer table (D times the structure constants), so at integer
k every coefficient stays a Python int until the level-p block is divided
by D^p once; when D = 1 no Fraction is built at all.  Rank decisions
come from rational Gaussian elimination on the coefficient matrix over
the monomial basis, and a dependence is always returned with its kernel
certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from . import linalg
from .lie_core import StructureConstants

__all__ = [
    "PolyRing",
    "MultiPoly",
    "Pencil",
    "alpha_ring",
    "generic_vectors",
    "generic_nested_bracket",
    "build_pencil",
    "evaluate_at_k",
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

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: _mono_key(t[0]), reverse=True)

    def substitute(self, values):
        """Partial substitution {name: rational}; stays in the same ring."""
        idx = {self.ring.index[n]: Fraction(v) for n, v in values.items()}
        out = {}
        for m, c in self.terms.items():
            coef = c
            newm = list(m)
            for i, v in idx.items():
                if m[i]:
                    coef = coef * v ** m[i]
                    newm[i] = 0
            if not coef:
                continue
            key = tuple(newm)
            s = out.get(key, 0) + coef
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MultiPoly(self.ring, out)

    def evaluate(self, values):
        """Full evaluation; values maps every occurring variable name."""
        total = Fraction(0)
        cache = {n: Fraction(values[n]) for n in values}
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term *= cache[self.ring.names[i]] ** e
            total += term
        return total

    def project(self, target: PolyRing):
        """Re-express in another ring; all used variables must exist there."""
        mapping = []
        for i, n in enumerate(self.ring.names):
            mapping.append(target.index.get(n))
        out = {}
        for m, c in self.terms.items():
            newm = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    if mapping[i] is None:
                        raise ValueError(f"variable {self.ring.names[i]} not in target ring")
                    newm[mapping[i]] = e
            out[tuple(newm)] = out.get(tuple(newm), 0) + c
        return MultiPoly(target, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
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


def generic_vectors(sc: StructureConstants, m: int, ring: PolyRing):
    """Symbolic V_i = sum_j a_{i,j} X_j over the level-0 basis vectors.

    Components beyond level 0 would die in every pencil level anyway
    (a bracket slot in g^(1) pushes the whole nested bracket past the
    level being read off), so they are omitted from the start.
    """
    n0 = sc.dims[0]
    vecs = []
    for i in range(m):
        v = [ring.zero()] * sc.dim
        for j in range(n0):
            v[j] = ring.var(f"a{i + 1}_{j + 1}")
        vecs.append(v)
    return vecs


def _nested_level(sc: StructureConstants, ring: PolyRing, weights):
    """Level-p coordinates of [ ... [W_0, W_1], ..., W_p ], p = len(weights) - 1.

    W_q = sum_i weights[q][i] V_i over the generic vectors of ring.  A
    weight is a ring element (a symbolic k) or a number (an integer k, or
    a unit row picking one V_i); zero weights are skipped.

    The brackets run on the integer table D * c_ij^k (sc.integer_bracket),
    so integer weights keep every coefficient an integer; the level-p
    block, D^p times the pencil, is divided by D^p once at the end, and
    not at all when D = 1.
    """
    p = len(weights) - 1
    if not (0 <= p < sc.step):
        raise ValueError(f"level {p} out of range for step {sc.step}")
    vecs = generic_vectors(sc, len(weights[0]), ring)
    zero = ring.zero()
    acc = None
    for row in weights:
        w = [zero] * sc.dim
        for k, v in zip(row, vecs):
            if k:
                for j in range(sc.dims[0]):
                    w[j] = w[j] + k * v[j]
        acc = w if acc is None else sc.integer_bracket(acc, w)
    scale = sc.integer_table[0] ** p
    out = []
    for i in sc.series.level_indices(p):
        # integer_bracket leaves untouched entries as int 0
        c = acc[i] if isinstance(acc[i], MultiPoly) else zero
        if scale != 1:
            c = MultiPoly._of(ring, {m: Fraction(x, scale) for m, x in c.terms.items()})
        out.append(c)
    return out


def generic_nested_bracket(sc: StructureConstants, indices):
    """Level-p coordinates of [ ... [V_{i_0}, V_{i_1}], ..., V_{i_p} ].

    indices are 0-based generic-vector labels; p = len(indices) - 1.
    Returns a list of n_p polynomials over alpha_ring(max+1, n0).
    """
    indices = tuple(int(i) for i in indices)
    if len(indices) < 1:
        raise ValueError("need at least one index")
    m = max(indices) + 1
    units = [[int(i == t) for i in range(m)] for t in indices]
    return _nested_level(sc, alpha_ring(m, sc.dims[0]), units)


@dataclass(frozen=True)
class Pencil:
    """Symbolic H_{m,p} with both the a and k blocks kept as variables."""

    m: int
    p: int
    coords: tuple  # n_p polynomials over pencil_ring(m, n0, p)
    ring: PolyRing
    n0: int

    def is_identically_zero(self):
        return all(c.is_zero() for c in self.coords)


def build_pencil(sc: StructureConstants, m: int, p: int) -> Pencil:
    """The full symbolic pencil at level p."""
    if m < 1:
        raise ValueError("m must be positive")
    n0 = sc.dims[0]
    ring = pencil_ring(m, n0, p)
    kvars = [[ring.var(f"k{q}_{i + 1}") for i in range(m)] for q in range(p + 1)]
    coords = tuple(_nested_level(sc, ring, kvars))
    return Pencil(m=m, p=p, coords=coords, ring=ring, n0=n0)


def evaluate_at_k(pencil: Pencil, kbar):
    """Substitute an integer matrix for the k rows; polynomials in a only."""
    kbar = [tuple(row) for row in kbar]
    if len(kbar) != pencil.p + 1 or any(len(r) != pencil.m for r in kbar):
        raise ValueError(f"k must be {pencil.p + 1} rows of length {pencil.m}")
    subs = {}
    for q, row in enumerate(kbar):
        for i, v in enumerate(row):
            subs[f"k{q}_{i + 1}"] = Fraction(v)
    target = alpha_ring(pencil.m, pencil.n0)
    return [c.substitute(subs).project(target) for c in pencil.coords]


def pencil_at_k(sc: StructureConstants, m: int, p: int, kbar):
    """H_{m,p}(kbar, a) computed directly, without the symbolic k block.

    Same value as evaluate_at_k(build_pencil(sc, m, p), kbar) but one
    nested bracket of numeric combinations, which is what the witness
    search wants to run hundreds of times.
    """
    kbar = [tuple(row) for row in kbar]
    if len(kbar) != p + 1 or any(len(r) != m for r in kbar):
        raise ValueError(f"k must be {p + 1} rows of length {m}")
    # integer entries as Python ints keep the whole bracket on integers
    weights = [[int(v) if v == int(v) else Fraction(v) for v in row] for row in kbar]
    return _nested_level(sc, alpha_ring(m, sc.dims[0]), weights)


def coefficient_rows(polys):
    """The distinct monomials of polys in descending graded-lex order, and
    for each polynomial its row of Fraction coefficients over them."""
    monos = sorted({m for p in polys for m in p.terms}, key=_mono_key, reverse=True)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monos)
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
    if lam is None:
        return True, None
    return False, lam


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
        """Re-check every stored witness and kernel from scratch."""
        for lv in self.levels:
            if lv.status == "witness":
                ok, _ = linearly_independent(pencil_at_k(sc, self.m, lv.p, lv.witness))
                if not ok:
                    return False
            elif lv.status == "degenerate" and lv.proof == "uniform_kernel":
                pen = build_pencil(sc, self.m, lv.p)
                s = pen.ring.zero()
                for c, poly in zip(lv.kernel, pen.coords):
                    s = s + c * poly
                if not s.is_zero():
                    return False
            elif lv.status == "degenerate" and lv.proof == "identically_zero":
                if not build_pencil(sc, self.m, lv.p).is_identically_zero():
                    return False
        return True

    def to_json_dict(self):
        return {
            "m": self.m,
            "step": self.step,
            "verdict": self.verdict,
            "levels": [lv.to_json_dict() for lv in self.levels],
        }


def _structured_candidates(m, p):
    """Witness guesses worth trying before random search.

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
    return list(dict.fromkeys(out))


def _symbolic_proof(pen: Pencil, tried: int):
    """The degenerate LevelCertificate that pen proves, or None.

    Either every coordinate is the zero polynomial, or one rational kernel
    annihilates the whole symbolic pencil, hence every integer evaluation.
    """
    if pen.is_identically_zero():
        return LevelCertificate(
            p=pen.p,
            status="degenerate",
            proof="identically_zero",
            tried=tried,
            polys=tuple(str(c) for c in pen.coords),
        )
    ok, kernel = linearly_independent(list(pen.coords))
    if ok:
        return None
    return LevelCertificate(
        p=pen.p, status="degenerate", kernel=tuple(kernel), proof="uniform_kernel", tried=tried
    )


def certify_greatness(
    sc: StructureConstants,
    m: int,
    budget: int = 200,
    seed: int = 0,
) -> GreatnessCertificate:
    """Search for witnesses at every level 1..step-1, else prove degeneracy.

    Structured candidates first, then uniform random integer rows in
    {-3..3} up to the per-level budget.  A level with no witness found is
    settled symbolically when possible: either every pencil coordinate is
    the zero polynomial, or a single rational kernel annihilates the
    whole symbolic pencil (hence every integer evaluation).  Otherwise
    the level is reported undetermined.

    A level settles before its budget runs out when every structured
    candidate gives the all-zero pencil: a nonzero pencil of degree D
    vanishes at a random point of S^n with probability at most D/|S|
    (Schwartz-Zippel), so the symbolic pencil is built then, once, and
    decides the level if it is zero or has a uniform kernel.  If it does
    not, the random search goes on and the built pencil is not rebuilt.
    """
    if m < 1:
        raise ValueError("m must be positive")
    rng = random.Random(seed)
    levels = []
    for p in range(1, sc.step):
        found = pen = settled = None
        all_zero = True
        tried = 0
        candidates = _structured_candidates(m, p)
        while tried < budget:
            if candidates:
                kbar = candidates.pop(0)
            else:
                if all_zero and pen is None:
                    pen = build_pencil(sc, m, p)
                    settled = _symbolic_proof(pen, tried)
                    if settled is not None:
                        break
                kbar = tuple(
                    tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(p + 1)
                )
            tried += 1
            polys = pencil_at_k(sc, m, p, kbar)
            all_zero = all_zero and all(c.is_zero() for c in polys)
            ok, _ = linearly_independent(polys)
            if ok:
                found = kbar
                break
        if found is not None:
            levels.append(LevelCertificate(p=p, status="witness", witness=found, tried=tried))
            continue
        if pen is None:
            # a pencil built in the loop has been decided already
            settled = _symbolic_proof(build_pencil(sc, m, p), tried)
        levels.append(settled or LevelCertificate(p=p, status="undetermined", tried=tried))
    return GreatnessCertificate(m=m, step=sc.step, levels=tuple(levels))

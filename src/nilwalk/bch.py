"""Exact Baker-Campbell-Hausdorff products on nilpotent algebras.

log(exp x exp y) is computed from the Dynkin series.  For each word w
over the letters {x, y} the series contributes c_w * [w], where [w] is
the right-nested bracket of the word and the rational coefficient c_w
sums (-1)^(n-1) / (n * |w| * prod r_i! s_i!) over all ways to cut w into
n consecutive blocks of the shape x^r y^s.  Nilpotency truncates the
series at words of length step, so the whole computation is exact.

The coefficient table is derived here from the combinatorial formula and
is *validated* by the associativity tests rather than trusted as a
transcription.

One evaluator, _bch_over, runs the series on the algebra's integer
table (denominator D), where a length-L word's nested bracket, taken at
x = xs / d, y = ys / d, sits over d^L D^(L-1), and each word carries the
integer C_L c_w, C_L the lcm of the length-L coefficients' denominators.
The series is compiled once per step into a plan: a flat list of the
suffix brackets the words need, shortest first, and one term per word.
The evaluator walks the plan once, takes no bracket on an all-zero
suffix (so no longer word on it is built) and adds each word's term
straight into the result with one weight per length.  bch_product, the
exact group law, runs it on the integer numerators of two LieVectors
with integer weights that put every length over one denominator M, and
builds no Fraction; a zero argument returns the other one unchanged.
bch_coords runs it on any scalars (Fractions, or the polynomials of
coords' group law) with the Fraction weights 1 / (C_L D^(L-1)), so
nothing is scaled up to M and back.  The truncation of the series at the
step is the one of Casas & Murua, J. Math. Phys. 50, 033513 (2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .lie_core import LieVector, StructureConstants

__all__ = [
    "bch_word_coefficients",
    "bch_product",
    "Word",
    "word_eval",
]

MAX_STEP = 6


def _block_coefficient(word):
    """Sum over decompositions of word into x^r y^s blocks."""
    L = len(word)
    total = Fraction(0)
    # a cut pattern is a subset of the L-1 gaps; a block is valid iff its
    # letters never step from y (1) back to x (0)
    for mask in range(1 << (L - 1)):
        blocks = []
        start = 0
        for g in range(L - 1):
            if mask & (1 << g):
                blocks.append(word[start : g + 1])
                start = g + 1
        blocks.append(word[start:])
        ok = True
        denom = L
        for b in blocks:
            r = 0
            while r < len(b) and b[r] == 0:
                r += 1
            if any(ch == 0 for ch in b[r:]):
                ok = False
                break
            s = len(b) - r
            denom *= factorial(r) * factorial(s)
        if not ok:
            continue
        n = len(blocks)
        total += Fraction((-1) ** (n - 1), n * denom)
    return total


@lru_cache(maxsize=None)
def bch_word_coefficients(max_len: int):
    """{word: coefficient} for words of length 2..max_len, the step of
    the algebra the series runs on.

    Words ending in a doubled letter are dropped (their right-nested
    bracket starts with [l, l] = 0), as are words whose coefficient
    vanishes.
    """
    if max_len > MAX_STEP:
        raise ValueError(f"BCH series built up to step {MAX_STEP}; this algebra has step {max_len}")
    table = {}
    for L in range(2, max_len + 1):
        for word in product((0, 1), repeat=L):
            if word[-1] == word[-2]:
                continue
            c = _block_coefficient(word)
            if c:
                table[word] = c
    return table


@lru_cache(maxsize=None)
def _series_plan(step: int):
    """(brackets, terms, scale): the Dynkin series through words of length
    step, compiled once per step.

    scale is {L: C_L}, C_L the lcm of the denominators of the length-L
    coefficients, so that every C_L * c_w is an integer.  Slots 0 and 1
    hold x and y.  brackets lists (letter, tail) for every suffix of
    length >= 2 that a coefficient word needs, shortest first; the suffix
    of brackets[i] goes to slot i + 2 and is [slot letter, slot tail].
    terms lists (slot, L, C_L * c_w) for each word w, of length L.
    """
    table = bch_word_coefficients(step)
    scale = {}
    for word, c in table.items():
        scale[len(word)] = lcm(scale.get(len(word), 1), c.denominator)
    suffixes = {w[i:] for w in table for i in range(len(w) - 1)}
    slots = {(0,): 0, (1,): 1}
    brackets = []
    for word in sorted(suffixes, key=lambda w: (len(w), w)):
        slots[word] = len(slots)
        brackets.append((word[0], slots[word[1:]]))
    terms = [
        (slots[w], len(w), c.numerator * (scale[len(w)] // c.denominator))
        for w, c in table.items()
    ]
    return brackets, terms, scale


@lru_cache(maxsize=1024)
def _integer_weights(step: int, D: int, d: int):
    """(M, {L: M // (C_L d^L D^(L-1))}): a length-L term of the series at
    x = xs / d, y = ys / d, on integer-table brackets, sits over
    C_L d^L D^(L-1), and M is the lcm of those and d."""
    dens = {L: C * d**L * D ** (L - 1) for L, C in _series_plan(step)[2].items()}
    M = lcm(d, *dens.values())
    return M, {L: M // q for L, q in dens.items()}


def _bch_over(sc: StructureConstants, xs, ys, base, weights):
    """base * (xs + ys) + sum over the coefficient words w of
    weights[|w|] * C_L c_w * N_w, for scalars of any ring type, where
    N_w is w's right-nested bracket taken with sc.integer_bracket.

    The plan is walked once.  A suffix that is all zero is stored as None
    and no bracket is taken on it, so every longer word on that suffix is
    skipped too.
    """
    brackets, terms, _ = _series_plan(sc.step)
    br = sc.integer_bracket
    vals = [xs if any(xs) else None, ys if any(ys) else None]
    for letter, tail in brackets:
        a, b = vals[letter], vals[tail]
        v = br(a, b) if a is not None and b is not None else None
        vals.append(v if v is not None and any(v) else None)
    out = [a + b for a, b in zip(xs, ys)]
    if base != 1:
        out = [a * base for a in out]
    for slot, L, e in terms:
        v = vals[slot]
        if v is None:
            continue
        w = e * weights[L]
        for k, a in enumerate(v):
            if a:
                out[k] += w * a
    return out


def bch_coords(sc: StructureConstants, xs, ys):
    """Dynkin series on raw coordinate sequences (generic scalars); the
    weights 1 / (C_L D^(L-1)) are Fractions, so nothing is scaled back."""
    D = sc.integer_table[0]
    scale = _series_plan(sc.step)[2]
    return _bch_over(sc, xs, ys, 1, {L: Fraction(1, C * D ** (L - 1)) for L, C in scale.items()})


def bch_product(sc: StructureConstants, x: LieVector, y: LieVector) -> LieVector:
    """log(exp x * exp y), exact, on integer numerators over the common
    denominator M of every length; log(exp 0 exp y) = y, so a zero
    argument returns the other one."""
    if x.dim != sc.dim or y.dim != sc.dim:
        raise ValueError("dimension mismatch in BCH product")
    if not any(x.nums):
        return y
    if not any(y.nums):
        return x
    d = lcm(x.den, y.den)
    xs = [a * (d // x.den) for a in x.nums]
    ys = [b * (d // y.den) for b in y.nums]
    M, weights = _integer_weights(sc.step, sc.integer_table[0], d)
    return LieVector._of(_bch_over(sc, xs, ys, M // d, weights), M)


@dataclass(frozen=True)
class Word:
    """Finite sequence of generator indices (0-based)."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(l) for l in self.letters))
        if any(l < 0 for l in self.letters):
            raise ValueError("letters must be nonnegative generator indices")

    def __len__(self):
        return len(self.letters)

    def counts(self, m: int):
        """Occurrences of each generator 0..m-1."""
        if any(l >= m for l in self.letters):
            raise ValueError("letter out of range for m generators")
        c = [0] * m
        for l in self.letters:
            c[l] += 1
        return tuple(c)

    def __add__(self, other):
        return Word(self.letters + other.letters)


def word_eval(sc: StructureConstants, word: Word, generators) -> LieVector:
    """Log of the left-to-right product of the generator logs named by
    the word; a group element is its log throughout."""
    acc = LieVector.zero(sc.dim)
    for l in word.letters:
        if l >= len(generators):
            raise ValueError(f"letter {l} out of range")
        acc = bch_product(sc, acc, generators[l])
    return acc

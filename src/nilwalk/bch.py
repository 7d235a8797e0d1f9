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

One evaluator, _bch_over, runs the series at x = xs / d, y = ys / d on
the algebra's integer table (denominator D), so a length-L word's nested
bracket sits over d^L D^(L-1).  With C_L the lcm of the length-L
coefficients' denominators, each length is summed with integer
coefficients, and all lengths are brought onto one denominator M.
bch_product, the exact group law, runs it on the integer numerators of
two LieVectors and builds no Fraction; bch_coords runs it with d = 1 on
any scalars (Fractions, or the polynomials of coords' group law) and
divides by M at the end.  The truncation of the series at the step is the
one of Casas & Murua, J. Math. Phys. 50, 033513 (2009).
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
    """{word: coefficient} for words of length 2..max_len.

    Words ending in a doubled letter are dropped (their right-nested
    bracket starts with [l, l] = 0), as are words whose coefficient
    vanishes.
    """
    if max_len > MAX_STEP:
        raise ValueError(f"series table only built up to depth {MAX_STEP}")
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
def _integer_word_coefficients(max_len: int):
    """({word: C_L * c_w}, {L: C_L}) with C_L the lcm of the denominators
    of the length-L coefficients, so every scaled coefficient is an integer."""
    table = bch_word_coefficients(max_len)
    scale = {}
    for word, c in table.items():
        scale[len(word)] = lcm(scale.get(len(word), 1), c.denominator)
    ints = {w: c.numerator * (scale[len(w)] // c.denominator) for w, c in table.items()}
    return ints, scale


def _bch_over(sc: StructureConstants, xs, ys, d):
    """(out, M) with log(exp x exp y) = out / M at x = xs / d, y = ys / d,
    for scalars of any ring type; each suffix bracket is taken once."""
    D = sc.integer_table[0]
    coeffs, scale = _integer_word_coefficients(sc.step)
    vecs = (xs, ys)
    suffix_cache = {}

    def nested(word):
        if word in suffix_cache:
            return suffix_cache[word]
        if len(word) == 1:
            v = vecs[word[0]]
        else:
            v = sc.integer_bracket(vecs[word[0]], nested(word[1:]))
        suffix_cache[word] = v
        return v

    sums = {L: [0] * sc.dim for L in scale}
    for word, e in coeffs.items():
        acc = sums[len(word)]
        for k, a in enumerate(nested(word)):
            if a:
                acc[k] += e * a
    dens = {L: C * d**L * D ** (L - 1) for L, C in scale.items()}
    M = lcm(d, *dens.values())
    out = [(a + b) * (M // d) for a, b in zip(xs, ys)]
    for L, acc in sums.items():
        f = M // dens[L]
        for k, a in enumerate(acc):
            if a:
                out[k] += a * f
    return out, M


def bch_coords(sc: StructureConstants, xs, ys):
    """Dynkin series on raw coordinate sequences (generic scalars)."""
    out, M = _bch_over(sc, xs, ys, 1)
    s = Fraction(1, M)
    return out if M == 1 else [s * a for a in out]


def bch_product(sc: StructureConstants, x: LieVector, y: LieVector) -> LieVector:
    """log(exp x * exp y), exact, on integer numerators."""
    if x.dim != sc.dim or y.dim != sc.dim:
        raise ValueError("dimension mismatch in BCH product")
    d = lcm(x.den, y.den)
    xs = [a * (d // x.den) for a in x.nums]
    ys = [b * (d // y.den) for b in y.nums]
    return LieVector._of(*_bch_over(sc, xs, ys, d))


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

"""Word pairs whose quotient realizes a nested bracket, and their
Diophantine quality.

Starting from seed words w0, w0' and fillers w1..wp, set

    L_0 = w0,  R_0 = w0',  L_q = L_{q-1} w_q R_{q-1},  R_q = R_{q-1} w_q L_{q-1}.

Writing V_j for the generator logs and k_0 = counts(w0) - counts(w0'),
k_q = counts(R_{q-1} w_q) for q >= 1, the group identity

    L_p (R_p)^(-1) = [ L_{p-1}(R_{p-1})^(-1), R_{p-1} w_p ]

unrolls to log(L_p R_p^(-1)) = [ ... [k_0 V, k_1 V], ..., k_p V ] modulo
g^(p+1), which verify_word_bracket_identity checks exactly, level by
level.  The counts satisfy k_q >= k_{q-1} componentwise for q >= 2; k_0
and k_1 are unconstrained.

Only levels <= p are ever read, so both the identity check and the pair
search evaluate in the quotient g / g^(p+1): the projection onto it is a
Lie algebra homomorphism, and in the adapted basis it drops the trailing
coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bch import Word, bch_product, word_eval
from .lie_core import LieVector, StructureConstants, project, quotient_algebra

__all__ = [
    "WordPair",
    "build_lr",
    "verify_word_bracket_identity",
    "IdentityCheck",
    "diophantine_estimate",
    "DiophantineReport",
    "nice_pair_search",
    "NicePairSearch",
]


@dataclass(frozen=True)
class WordPair:
    """The pair (W1, W2) = (L_p, R_p) with its construction data."""

    w1: Word
    w2: Word
    level: int
    m: int
    k_sequence: tuple  # p+1 integer tuples of length m
    seeds: tuple  # (w0, w0', w1, ..., wp)

    def __post_init__(self):
        if self.level >= 1 and len(self.w1) != len(self.w2):
            raise AssertionError("constructed words must have equal length")


def build_lr(p: int, seeds, m: int) -> WordPair:
    """Run the L/R recursion to depth p.

    seeds = (w0, w0', w1, ..., wp): the first two are the base words, the
    rest are the fillers (possibly empty).  At p = 0 the base words must
    have equal length for the pair to have a well-defined level; a pair
    of empty base words degenerates (the quotient is the identity for
    every filler choice) and is rejected.
    """
    seeds = tuple(w if isinstance(w, Word) else Word(tuple(w)) for w in seeds)
    if len(seeds) != p + 2:
        raise ValueError(f"need {p + 2} seed words for level {p}, got {len(seeds)}")
    if m < 1:
        raise ValueError("m must be positive")
    for w in seeds:
        if any(l >= m for l in w.letters):
            raise ValueError("seed letter out of range")
    w0, w0p = seeds[0], seeds[1]
    if not w0.letters and not w0p.letters:
        raise ValueError("both base words empty: construction degenerates")
    if p == 0 and len(w0) != len(w0p):
        raise ValueError("level-0 pairs need base words of equal length")

    c0 = w0.counts(m)
    c0p = w0p.counts(m)
    k_seq = [tuple(a - b for a, b in zip(c0, c0p))]
    left, right = w0, w0p
    right_counts = c0p
    for q in range(1, p + 1):
        wq = seeds[q + 1]
        k_seq.append(tuple(a + b for a, b in zip(right_counts, wq.counts(m))))
        left, right = left + wq + right, right + wq + left
        right_counts = right.counts(m)
    return WordPair(
        w1=left, w2=right, level=p, m=m, k_sequence=tuple(k_seq), seeds=seeds
    )


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of verify_word_bracket_identity.

    word_log = log(W1 W2^(-1)) and bracket_log = the k-weighted nested
    bracket are coordinates in the level-p quotient g / g^(p+1), i.e. the
    first dim(g / g^(p+1)) coordinates of the full-algebra vectors.
    residual = word_log - bracket_log, the coordinates on levels <= p.
    """

    ok: bool
    residual: tuple
    word_log: LieVector
    bracket_log: LieVector


def _combo(generators, coeffs):
    acc = LieVector.zero(generators[0].dim)
    for c, g in zip(coeffs, generators):
        if c:
            acc = acc + Fraction(c) * g
    return acc


def word_pair_logs(sc: StructureConstants, pair: WordPair, generators):
    """Exact logs of (W1, W2), via the recursion rather than letterwise.

    Combining sub-word logs with a handful of group products per level is
    an order of magnitude cheaper than folding over the full words; the
    test suite cross-checks it against word_eval on small cases.  The
    generators are LieVector logs.
    """
    return _lr_logs(sc, pair.seeds, generators, {})


def _lr_logs(sc: StructureConstants, seeds, generators, memo):
    """(log L_q, log R_q) for q = len(seeds) - 2, from the seed Words.

    memo maps each seed Word to its log and each seed prefix (a tuple of
    Words) to its level's pair of logs.  (L_q, R_q) depends only on
    seeds[:q+2], so callers that share one memo across many seed tuples
    evaluate every common prefix once.
    """
    if seeds in memo:
        return memo[seeds]
    for w in seeds:
        if w not in memo:
            memo[w] = word_eval(sc, w, generators)
    if len(seeds) == 2:
        out = (memo[seeds[0]], memo[seeds[1]])
    else:
        logL, logR = _lr_logs(sc, seeds[:-1], generators, memo)
        logw = memo[seeds[-1]]
        out = (
            bch_product(sc, bch_product(sc, logL, logw), logR),
            bch_product(sc, bch_product(sc, logR, logw), logL),
        )
    memo[seeds] = out
    return out


def _in_quotient(sc: StructureConstants, p: int, generators):
    """The quotient g / g^(p+1) and the generators projected onto it."""
    gens = [g if isinstance(g, LieVector) else LieVector(g) for g in generators]
    if any(g.dim != sc.dim for g in gens):
        raise ValueError(f"generators must have dimension {sc.dim}")
    q_sc = quotient_algebra(sc, p)
    return q_sc, [LieVector(g.coords[: q_sc.dim]) for g in gens]


def verify_word_bracket_identity(
    sc: StructureConstants, pair: WordPair, generators
) -> IdentityCheck:
    """Check log(W1 W2^(-1)) == [ ... [k_0 V, k_1 V], ..., k_p V] mod g^(p+1).

    generators is a sequence of LieVector logs (exact rationals).  Both
    sides are evaluated in g / g^(p+1).  The residual lists the
    coordinates of the discrepancy on levels 0..p; the identity holds iff
    they are all exactly zero.
    """
    q_sc, gens = _in_quotient(sc, min(pair.level, sc.step - 1), generators)
    if len(gens) < pair.m:
        raise ValueError("not enough generators for the pair's alphabet")
    logL, logR = word_pair_logs(q_sc, pair, gens)
    word_log = bch_product(q_sc, logL, -logR)

    acc = _combo(gens, pair.k_sequence[0])
    for kq in pair.k_sequence[1:]:
        acc = q_sc.bracket(acc, _combo(gens, kq))

    residual = (word_log - acc).coords
    return IdentityCheck(
        ok=not any(residual),
        residual=residual,
        word_log=word_log,
        bracket_log=acc,
    )


# -- Diophantine quality -------------------------------------------------------


@dataclass(frozen=True)
class DiophantineReport:
    """Result of the truncated scan min |n.v - m| * |n|^tau.

    |n| is the max norm, m the nearest integer to n.v, and the scan runs
    over 0 < |n| <= q_max.  float_error_bound estimates the rounding in
    each scanned value; gamma_hat is monotone nonincreasing in q_max.
    """

    vector: tuple
    tau: float
    q_max: int
    gamma_hat: float
    worst_n: tuple
    float_error_bound: float


# Largest leading value, in rows: each leading value of n carries the
# (2 q_max + 1)^(d-1) grid over the trailing coordinates, and a scan whose
# leading values carry more is refused.  2^18 rows kept a chunk's arrays
# under 60 MB for d <= 8 (measured at d = 4, q_max = 31).
MAX_SCAN_ROWS = 1 << 18
# A scan runs over chunks of consecutive leading values, as many per chunk
# as fit in SCAN_CHUNK_ENTRIES entries (rows times d), and at least one;
# a chunk of more entries (one leading value, d >= 4) multiplies in row
# blocks of at most SCAN_CHUNK_ENTRIES entries.  From about 2^19 entries
# numpy's matrix-vector product took OpenBLAS's threaded path and 20-50 ns
# per row, against 1-3 ns below it (OpenBLAS 0.3.31 with its default
# threads, 2-core x86-64 VM).
SCAN_CHUNK_ENTRIES = 1 << 18
# Largest scan, in points (2 q_max + 1)^d.  A box this size took 1.6 s of
# CPU at d = 1 and 2 and 3.6 s at d = 3 (24-54 ns per point, same VM).
MAX_SCAN_POINTS = 1 << 26


def _leading_runs(d: int, q_max: int):
    """Chunks (lo, hi) of the leading values -q_max..q_max, in order."""
    width = max(1, SCAN_CHUNK_ENTRIES // (d * (2 * q_max + 1) ** (d - 1)))
    return [(lo, min(lo + width - 1, q_max)) for lo in range(-q_max, q_max + 1, width)]


def _scan_grid(d: int, q_max: int, tau: float, lo: int, hi: int):
    """The points n of the box |n| <= q_max with leading value in lo..hi,
    as float rows in lexicographic order; |n|^tau for each (max norm);
    and the index of n = 0 among them, empty when the chunk misses it.
    All read-only, since cached grids are shared between scans."""
    axes = [np.arange(lo, hi + 1)] + [np.arange(-q_max, q_max + 1) for _ in range(d - 1)]
    grids = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    points = np.stack(grids, axis=1).astype(float)
    norms = functools.reduce(np.maximum, [np.abs(g) for g in grids]).astype(float)
    zero = np.flatnonzero(norms == 0)
    norms[zero] = 1.0  # never read; keeps 0 ** tau out for tau < 0
    weight = norms**tau
    for a in (points, weight, zero):
        a.flags.writeable = False
    return points, weight, zero


# Every candidate of a search scans the same box, so a box that fits in
# one chunk is built once per (d, q_max, tau).  Chunked boxes are rebuilt
# on each call, so the cache never holds more than 8 single-chunk grids.
_whole_grid = functools.lru_cache(maxsize=8)(_scan_grid)


def diophantine_estimate(vector, tau: float, q_max: int) -> DiophantineReport:
    """Scan min |n.v - m| * |n|^tau over 0 < |n| <= q_max.

    The points n, in lexicographic order, and their weights |n|^tau are
    built once per (d, q_max, tau) and cached; a call computes n.v for
    all of them with one matrix product and keeps the first minimum.  A
    box of more than SCAN_CHUNK_ENTRIES entries is scanned in chunks of
    consecutive leading values, built afresh on each call, and no matrix
    product covers more than SCAN_CHUNK_ENTRIES entries.  Non-finite
    input, an error bound that overflows, a leading value whose rows
    alone exceed MAX_SCAN_ROWS, and a box of more than MAX_SCAN_POINTS
    points raise ValueError before any allocation.
    """
    v = np.asarray([float(x) for x in vector], dtype=float)
    d = v.size
    if d == 0:
        raise ValueError("empty vector")
    if q_max < 1:
        raise ValueError("q_max must be positive")
    tau = float(tau)
    if not (math.isfinite(tau) and np.all(np.isfinite(v))):
        raise ValueError(f"Diophantine scan needs finite input: tau={tau}, vector={v.tolist()}")
    rows = (2 * q_max + 1) ** (d - 1)
    if rows > MAX_SCAN_ROWS:
        raise ValueError(
            f"Diophantine scan too large: d={d}, q_max={q_max} needs chunks of "
            f"{rows} rows, over the limit of {MAX_SCAN_ROWS}; lower q_max"
        )
    points = (2 * q_max + 1) ** d
    if points > MAX_SCAN_POINTS:
        raise ValueError(
            f"Diophantine scan too large: d={d}, q_max={q_max} covers {points} "
            f"points, over the budget of {MAX_SCAN_POINTS}; lower q_max"
        )
    eps = np.finfo(float).eps
    try:
        err = eps * (1.0 + q_max * float(np.sum(np.abs(v)))) * float(q_max) ** tau
    except OverflowError:
        err = math.inf
    if not math.isfinite(err):
        raise ValueError(f"Diophantine scan overflows floats: q_max={q_max}, tau={tau}")

    best = math.inf
    best_n = None
    runs = _leading_runs(d, q_max)
    build = _whole_grid if len(runs) == 1 else _scan_grid
    block = max(1, SCAN_CHUNK_ENTRIES // d)
    for lo, hi in runs:
        grid, weight, zero = build(d, q_max, tau, lo, hi)
        r = np.empty(len(grid))
        for start in range(0, len(grid), block):
            np.matmul(grid[start : start + block], v, out=r[start : start + block])
        vals = np.abs(r - np.round(r)) * weight
        vals[zero] = math.inf
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_n = tuple(int(x) for x in grid[i])
    return DiophantineReport(
        vector=tuple(float(x) for x in v),
        tau=tau,
        q_max=int(q_max),
        gamma_hat=best,
        worst_n=best_n,
        float_error_bound=float(err),
    )


def default_q_max(dim: int) -> int:
    """The q_max a search uses when none is given; it keeps the scan
    inside MAX_SCAN_POINTS."""
    return 10_000 if dim == 1 else 100


# -- search for well-distributed pairs -----------------------------------------


@dataclass(frozen=True)
class NicePairSearch:
    found: bool
    pair: WordPair | None
    report: DiophantineReport | None
    level_vector: tuple | None
    tried: int
    zero_count: int


def _seed_words(m, allow_empty):
    words = []
    if allow_empty:
        words.append(())
    words.extend((i,) for i in range(m))
    words.extend((i, j) for i in range(m) for j in range(m))
    return [Word(w) for w in words]


def nice_pair_search(
    sc: StructureConstants,
    generators,
    p: int,
    tau: float | None = None,
    q_max: int | None = None,
    budget: int = 500,
) -> NicePairSearch:
    """Enumerate short seed words and keep the best-quality pair at level p.

    Seeds run over words of length 1..2 for the base pair and length 0..2
    for the fillers, in a fixed lexicographic order, capped at budget.
    For every candidate the exact level-p block of log(W1 W2^(-1)) is
    computed in g / g^(p+1); zero blocks are skipped (for a
    two-degenerate level every candidate lands there, and the search
    reports failure), nonzero blocks are scanned and the largest
    gamma_hat wins.  Ties keep the
    earliest candidate, so results are reproducible.

    Candidates that share a seed prefix share its L/R logs: the search
    keeps every seed-word log and every prefix's level logs for the
    length of the call, so a candidate costs one level step, one product
    for W1 W2^(-1) and one scan of the grid that diophantine_estimate
    caches.  Without q_max, the scan uses default_q_max(d), which stays
    inside MAX_SCAN_POINTS.
    """
    if not (1 <= p < sc.step):
        raise ValueError(f"level must be in 1..{sc.step - 1}")
    q_sc, gens = _in_quotient(sc, p, generators)
    m = len(gens)
    n_p = sc.dims[p]
    if tau is None:
        tau = float(n_p)
    if q_max is None:
        q_max = default_q_max(n_p)

    bases = _seed_words(m, allow_empty=False)
    fillers = _seed_words(m, allow_empty=True)
    memo = {}  # seed Word or seed prefix -> logs, see _lr_logs
    tried = 0
    zeros = 0
    best = None  # (gamma_hat, seeds, report, vec)
    for seeds in itertools.product(bases, bases, *([fillers] * p)):
        if tried >= budget:
            break
        tried += 1
        logL, logR = _lr_logs(q_sc, seeds, gens, memo)
        h = bch_product(q_sc, logL, -logR)
        block = project(q_sc, h, p)
        if not any(block):
            zeros += 1
            continue
        vec = tuple(float(x) for x in block)
        rep = diophantine_estimate(vec, tau, q_max)
        if best is None or rep.gamma_hat > best[0]:
            best = (rep.gamma_hat, seeds, rep, vec)
    if best is None:
        return NicePairSearch(
            found=False,
            pair=None,
            report=None,
            level_vector=None,
            tried=tried,
            zero_count=zeros,
        )
    return NicePairSearch(
        found=True,
        pair=build_lr(p, best[1], m),
        report=best[2],
        level_vector=best[3],
        tried=tried,
        zero_count=zeros,
    )

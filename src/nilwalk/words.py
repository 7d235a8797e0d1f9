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

The pair search takes each candidate's level-p block from the right-hand
side alone, one nested bracket of its k-sequence, and builds no word;
verify_word_bracket_identity is the check that the shortcut is exact.

Only levels <= p are ever read, so both the identity check and the pair
search evaluate in the quotient g / g^(p+1): the projection onto it is a
Lie algebra homomorphism, and in the adapted basis it drops the trailing
coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .bch import Word, bch_product, bch_word_coefficients, word_eval
from .lie_core import LieVector, StructureConstants, nested_bracket, quotient_algebra

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

    left, right = w0, w0p
    for wq in seeds[2:]:
        left, right = left + wq + right, right + wq + left
    ks = _k_sequence([w.counts(m) for w in seeds])
    return WordPair(w1=left, w2=right, level=p, m=m, k_sequence=ks, seeds=seeds)


def _k_sequence(counts):
    """k_0..k_p from the letter counts of the seeds (w0, w0', w1, ..., wp).

    No word is built: from q = 1 on, L_q and R_q are anagrams, each
    counting c(L_{q-1}) + k_q letters, with k_q = c(R_{q-1}) + c(w_q).
    """
    left, right = counts[0], counts[1]
    ks = [tuple(map(sub, left, right))]
    for c in counts[2:]:
        ks.append(tuple(map(add, right, c)))
        left = right = tuple(map(add, left, ks[-1]))
    return tuple(ks)


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


def word_pair_logs(sc: StructureConstants, pair: WordPair, generators):
    """Exact logs of (W1, W2), via the recursion rather than letterwise.

    Combining sub-word logs with a handful of group products per level is
    an order of magnitude cheaper than folding over the full words; the
    test suite cross-checks it against word_eval on small cases.  The
    generators are LieVector logs.
    """
    log = {w: word_eval(sc, w, generators) for w in set(pair.seeds)}
    logL, logR = log[pair.seeds[0]], log[pair.seeds[1]]
    for w in pair.seeds[2:]:
        logL, logR = (
            bch_product(sc, bch_product(sc, logL, log[w]), logR),
            bch_product(sc, bch_product(sc, logR, log[w]), logL),
        )
    return logL, logR


def _in_quotient(sc: StructureConstants, p: int, generators):
    """(q_sc, gens, cols, d): g / g^(p+1), the generators projected onto it,
    their common denominator d, and cols[j][i] = coordinate j of d * gens[i]
    for the level-0 coordinates j only.  A nested bracket of p+1 vectors
    lies in g^(p), and its level-p block reads only their level-0
    components, so in g / g^(p+1) the columns give it exactly."""
    gens = [g if isinstance(g, LieVector) else LieVector(g) for g in generators]
    if any(g.dim != sc.dim for g in gens):
        raise ValueError(f"generators must have dimension {sc.dim}")
    q_sc = quotient_algebra(sc, p)
    gens = [LieVector._of(g.nums[: q_sc.dim], g.den) for g in gens]
    d = math.lcm(*(g.den for g in gens))
    cols = list(zip(*([x * (d // g.den) for x in g.nums[: sc.dims[0]]] for g in gens)))
    return q_sc, gens, cols, d


def verify_word_bracket_identity(
    sc: StructureConstants, pair: WordPair, generators
) -> IdentityCheck:
    """Check log(W1 W2^(-1)) == [ ... [k_0 V, k_1 V], ..., k_p V] mod g^(p+1).

    generators is a sequence of LieVector logs (exact rationals).  Both
    sides are evaluated in g / g^(p+1).  The bracket is one
    nested_bracket on the generators' level-0 integer numerators over
    their common denominator d, which gives D^p d^(p+1) times it.  The
    residual lists the coordinates of the discrepancy on levels 0..p; the
    identity holds iff they are all exactly zero.
    """
    q_sc, gens, cols, d = _in_quotient(sc, min(pair.level, sc.step - 1), generators)
    if len(gens) < pair.m:
        raise ValueError("not enough generators for the pair's alphabet")
    logL, logR = word_pair_logs(q_sc, pair, gens)
    word_log = bch_product(q_sc, logL, -logR)

    # a k row has pair.m entries, so zip drops any further generators' entries
    acc = nested_bracket(q_sc, pair.k_sequence, cols)
    bracket_log = LieVector._of(acc, q_sc.integer_table[0] ** pair.level * d ** (pair.level + 1))

    residual = (word_log - bracket_log).coords
    return IdentityCheck(
        ok=not any(residual),
        residual=residual,
        word_log=word_log,
        bracket_log=bracket_log,
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


# A scan runs over chunks of at most SCAN_CHUNK_ENTRIES points, which
# bounds what a scan holds.  Scans of the largest d = 2..4 boxes peaked
# at 40 MB RSS with this size (29 MB of it numpy's import), 66 MB at
# 2^20 and 131 MB at 2^22, none of them faster per point (2-core x86-64
# VM, numpy 2.4).
SCAN_CHUNK_ENTRIES = 1 << 18
# Largest scan, in points (2 q_max + 1)^d.  A box this size took 1.4 s of
# CPU at d = 1 and 0.3 s at d = 2 and at d = 3 (4-21 ns per point, same
# VM).
MAX_SCAN_POINTS = 1 << 26


@functools.lru_cache(maxsize=8)
def _scan_plan(d: int, q_max: int, tau: float):
    """(k, width, axis, tail_norm, tail_weight) for the box |n| <= q_max.

    A scan walks n's first k coordinates, the fewest (none for a box of
    one chunk) that leave a tail grid of at most SCAN_CHUNK_ENTRIES
    points, in runs of width consecutive values.  axis is -q_max..q_max
    as floats (empty without a tail); tail_norm and tail_weight are the
    tail grid's max norms and |n|^tau.  All read-only and free of vector
    data, so one plan serves every vector scanned in its box.
    """
    side = 2 * q_max + 1
    k = next(k for k in range(d + 1) if side ** (d - k) <= SCAN_CHUNK_ENTRIES)
    axis = np.arange(-q_max, q_max + 1.0) if k < d else np.empty(0)
    # 0-d arrays for an empty tail
    tail_norm = np.asarray(np.abs(np.indices((side,) * (d - k)) - q_max).max(axis=0, initial=0))
    tail_weight = np.asarray(np.maximum(tail_norm, 1.0) ** tau)  # 0 ** tau is never read
    for arr in (axis, tail_norm, tail_weight):
        arr.flags.writeable = False
    return k, SCAN_CHUNK_ENTRIES // tail_norm.size, axis, tail_norm, tail_weight


def _check_scan(d: int, tau, q_max: int) -> float:
    """tau as a float, once the scan of a d-vector is checked as far as it
    can be without the vector: q_max >= 1, a finite tau, and a box of at
    most MAX_SCAN_POINTS points."""
    if q_max < 1:
        raise ValueError("q_max must be positive")
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"Diophantine scan needs finite input: tau={tau}")
    points = (2 * q_max + 1) ** d
    if points > MAX_SCAN_POINTS:
        raise ValueError(
            f"Diophantine scan too large: d={d}, q_max={q_max} covers {points} "
            f"points, over the budget of {MAX_SCAN_POINTS}; lower q_max"
        )
    return tau


def diophantine_estimate(vector, tau: float, q_max: int) -> DiophantineReport:
    """Scan min |n.v - m| * |n|^tau over 0 < |n| <= q_max.

    The box is scanned in lexicographic order, in chunks of at most
    SCAN_CHUNK_ENTRIES points, along the plan that _scan_plan caches for
    the last 8 boxes.  n.v is n_0 v_0 + n_1 v_1 + ... summed left to
    right from the per-axis products n_i v_i, not by a BLAS product,
    whose rounding moves with the kernel (with or without FMA).  The
    weight |n|^tau is numpy's power, whose last bit can move with its
    SIMD dispatch for a tau that is not an integer or a power past 2^53;
    the default tau = d is exact in every admitted box.  The first
    minimum is kept across chunks.  Non-finite input, an error bound that
    overflows and a box of more than MAX_SCAN_POINTS points raise
    ValueError before any allocation.
    """
    floats = [float(x) for x in vector]
    d = len(floats)
    if d == 0:
        raise ValueError("empty vector")
    tau = _check_scan(d, tau, q_max)
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"Diophantine scan needs finite input: vector={floats}")
    v = np.asarray(floats)
    eps = sys.float_info.epsilon
    try:
        # np.sum's pairwise order, not a left-to-right sum, fixes the last digit
        err = eps * (1.0 + q_max * float(np.sum(np.abs(v)))) * float(q_max) ** tau
    except OverflowError:
        err = math.inf
    if not math.isfinite(err):
        raise ValueError(f"Diophantine scan overflows floats: q_max={q_max}, tau={tau}")

    side = 2 * q_max + 1
    k, width, axis, tail_norm, tail_weight = _scan_plan(d, q_max, tau)
    tails = [axis * x for x in v[k:]]  # n_i v_i along each tail coordinate's axis
    zero = (side**d - 1) // 2  # the lexicographic index of n = 0
    best, best_n = math.inf, None
    if k:
        # every run of a box of several chunks writes n.v, the scratch for
        # rint and the weights, and the norm test into these, sliced to the
        # run.  The two float rows are one allocation: as two, glibc gave
        # them back to the system after each call and every call faulted
        # them in again (about 1,000 minor faults at d = 2, q_max = 400)
        size = width * tail_norm.size
        buffers = (*np.empty((2, size)), np.empty(size, dtype=bool))
    for a in range(0, side**k, width):
        # n.v summed left to right: the run's head products, then the tail's
        terms, out, spare = tails, None, None
        if k:
            run = np.arange(a, min(a + width, side**k))
            # n's first k coordinates: k rows (integer division is slow, so not for k = 1)
            head = np.array(np.unravel_index(run, (side,) * k) if k > 1 else [run]) - q_max
            shape = run.shape + tail_norm.shape
            out, spare, cond = (b[: run.size * tail_norm.size].reshape(shape) for b in buffers)
            terms = [functools.reduce(np.add, [h * x for h, x in zip(head, v)])] + tails
        *rest, last = terms
        vals = np.add.outer(functools.reduce(np.add.outer, rest), last, out=out) if rest else last
        vals -= np.rint(vals, out=spare)
        np.abs(vals, out=vals)
        weight = tail_weight
        if k:
            # |n|^tau: the tail's, but the head's where the tail's norm is at most the head's
            norm = functools.reduce(np.maximum, np.abs(head)).reshape(run.shape + (1,) * (d - k))
            weight = spare
            np.copyto(weight, np.maximum(norm, 1.0) ** tau)
            np.copyto(weight, tail_weight, where=np.greater(tail_norm, norm, out=cond))
        vals *= weight
        start = a * tail_norm.size
        if 0 <= zero - start < vals.size:
            vals.flat[zero - start] = math.inf
        i = int(np.argmin(vals))
        if vals.flat[i] < best:
            best = float(vals.flat[i])
            best_n = tuple(int(x) - q_max for x in np.unravel_index(start + i, (side,) * d))
    return DiophantineReport(
        vector=tuple(floats),
        tau=tau,
        q_max=int(q_max),
        gamma_hat=best,
        worst_n=best_n,
        float_error_bound=float(err),
    )


def default_q_max(dim: int) -> int:
    """The q_max a search uses when none is given: the largest q <= 100
    (<= 10,000 at dim 1) whose box of (2 q + 1)^dim points holds at most
    201^3, the box of the dim-3 default, so a candidate costs no more to
    scan than there.  That is 100 up to dim 3, then 26, 11, 6, 4 and 3
    at dims 4 to 8.  It is never below 1: the 3^dim box outgrows 201^3
    from dim 15 on and MAX_SCAN_POINTS from dim 17 on, where the scan
    is refused."""
    q = 10_000 if dim == 1 else 100
    while q > 1 and (2 * q + 1) ** dim > 201**3:
        q -= 1
    return q


# -- search for well-distributed pairs -----------------------------------------


@dataclass(frozen=True)
class NicePairSearch:
    found: bool
    pair: WordPair | None
    report: DiophantineReport | None
    level_vector: tuple | None
    tried: int
    zero_count: int


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
    taken from the bracket identity: it is the level-p block of
    [ ... [k_0 V, k_1 V], ..., k_p V ], one nested_bracket in
    g / g^(p+1) on the generators' level-0 integer numerators, with the
    k's counted from the seed words and no word built or evaluated.
    verify_word_bracket_identity is the exact check of that identity,
    and a quotient deeper than its BCH series is refused here too.
    Zero blocks are skipped (for a two-degenerate level every candidate
    lands there, and the search reports failure), nonzero blocks are
    scanned and the largest gamma_hat wins.  Ties keep the earliest
    candidate, so results are reproducible.

    A candidate costs p brackets and one scan of the box, whose plan
    diophantine_estimate caches.  Without q_max, the scan uses
    default_q_max(d), a box of at most 201^3 points up to d = 14.
    """
    sc.series.check_bracket_level(p)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    q_sc, gens, cols, d = _in_quotient(sc, p, generators)
    m = len(gens)
    if m < 1:
        raise ValueError("need at least one generator")
    n_p = sc.dims[p]
    if q_max is None:
        q_max = default_q_max(n_p)
    # checked before the loop, which scans nothing when every candidate is zero
    tau = _check_scan(n_p, n_p if tau is None else tau, q_max)

    # refuse a quotient deeper than the BCH series, so that every returned
    # pair stays checkable by verify_word_bracket_identity
    bch_word_coefficients(q_sc.step)
    den = q_sc.integer_table[0] ** p * d ** (p + 1)
    level = q_sc.series.level_indices(p)

    # (seed word, letter counts) items: the loop reads only the counts
    short = [(i,) for i in range(m)] + [(i, j) for i in range(m) for j in range(m)]
    bases = [(w, w.counts(m)) for w in map(Word, short)]
    fillers = [(Word(()), (0,) * m)] + bases
    candidates = itertools.product(bases, bases, *([fillers] * p))
    tried = zeros = 0
    best = None  # (gamma_hat, items, report, vec)
    for tried, items in enumerate(itertools.islice(candidates, budget), 1):
        acc = nested_bracket(q_sc, _k_sequence([c for _, c in items]), cols)
        block = [acc[i] for i in level]
        if not any(block):
            zeros += 1
            continue
        try:
            vec = tuple(x / den for x in block)  # int / int rounds correctly
        except OverflowError:
            raise ValueError(
                f"a level-{p} displacement has a coordinate too large for a float"
            ) from None
        rep = diophantine_estimate(vec, tau, q_max)
        if best is None or rep.gamma_hat > best[0]:
            best = (rep.gamma_hat, items, rep, vec)
    _, items, report, vec = best or (None,) * 4
    return NicePairSearch(
        found=items is not None,
        pair=None if items is None else build_lr(p, [w for w, _ in items], m),
        report=report,
        level_vector=vec,
        tried=tried,
        zero_count=zeros,
    )

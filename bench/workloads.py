"""The three benchmark workloads.

Each workload's ``setup(nw, seed)`` takes the imported ``nilwalk``
package and a seed, does everything a run needs before its first
operation (building algebras and walk configs, the lower central series,
Jacobi checks, lattice verification, compiling every translation and
reduction map) and returns one round: the list of operations the timed
phase repeats.  The program sees only the inputs the seed generates.

Every operation's output is checked against a property that follows from
the mathematics, never against recorded output, and is reduced to a
canonical JSON form; the round's canonical bytes are hashed so that two
runs, or a traced and an untraced run, can be compared exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``run`` is the timed call; ``check`` returns None when the output is
    correct and a reason otherwise; ``canon`` gives the canonical form
    that goes into the digest; ``weight`` is how many operations the call
    counts as (sample-steps for walk calls, else 1).
    """

    label: str
    run: Callable
    check: Callable
    canon: Callable
    weight: int = 1


# -- certify ---------------------------------------------------------------------
#
# pencil and linalg do nearly all the timed work and bch none.  The round
# mixes quick witnesses (a few ms each) with example_5_6 at m=2, which
# spends the whole 200-try witness budget and then falls back to the
# symbolic proof that its level-3 pencil is identically zero.  Building
# the thirty random step-3 algebras puts weight on set-up.

CERTIFY_M = (2, 3, 4)
RANDOM_SHAPES = ((2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3))


def certify_roster(nw):
    """The acceptance-3 roster plus example_5_6, as (label, algebra)."""
    cat = nw.catalog
    roster = [(f"abelian({n})", cat.abelian(n)) for n in range(2, 7)]
    roster.append(("heisenberg", cat.heisenberg()))
    roster += [(f"filiform({n})", cat.filiform(n)) for n in range(4, 8)]
    roster += [(f"quasi_abelian{h}", cat.quasi_abelian(h)) for h in ((3, 2), (2, 2), (4, 2))]
    roster += [(f"triangular({s})", cat.triangular(s)) for s in range(2, 5)]
    roster.append(("example_3_2", cat.example_3_2()))
    for shape in RANDOM_SHAPES:
        for k in range(5):
            roster.append((f"random_step3{shape}#{k}", cat.random_step3(*shape, seed=k)))
    lc = nw.lie_core
    roster.append(("product", lc.direct_product(cat.heisenberg(), cat.example_3_2())))
    roster.append(("quotient", lc.quotient_algebra(cat.filiform(7), 4)))
    roster.append(("example_5_6", cat.example_5_6()))
    return roster


def _certify_check(label, m):
    def check(out):
        cert, verified = out
        if not verified:
            return "certificate does not re-verify"
        if label == "example_5_6" and m == 2:
            # the paper's counterexample: two generators never reach level 3
            lv = cert.level(3)
            if cert.verdict != "degenerate" or lv.proof != "identically_zero":
                return f"expected degenerate with an identically_zero proof, got {cert.verdict}"
            if any(cert.level(p).status != "witness" for p in (1, 2)):
                return "levels 1 and 2 should have witnesses"
            return None
        if cert.verdict != "great":
            return f"expected great, got {cert.verdict}"
        return None

    return check


def setup_certify(nw, seed):
    certify = nw.pencil.certify_greatness
    ops = []
    roster = certify_roster(nw)
    for _, sc in roster:
        sc.series  # computes and caches the lower central series
    for m in CERTIFY_M:
        for label, sc in roster:

            def run(sc=sc, m=m):
                cert = certify(sc, m, seed=seed)
                return cert, cert.verify(sc)

            ops.append(
                Op(
                    label=f"certify {label} m={m}",
                    run=run,
                    check=_certify_check(label, m),
                    canon=lambda out, label=label: [label, out[0].to_json_dict(), out[1]],
                )
            )
    return ops


# -- words -----------------------------------------------------------------------
#
# bch and the exact Fraction path of lie_core.bracket_coords do nearly all
# the work, pencil and linalg none.  The identity checks follow acceptance
# 4 at IDENTITY_CHECKS per (algebra, level) instead of fifty, so a round
# keeps acceptance 4's mix: filiform(7) and example_5_6 dominate, the two
# algebras a quotient-first evaluation would shrink most.
#
# Every search passes SEARCH_Q_MAX explicitly.  At the default
# q_max=10000 a 2-D level block scans (2*10000+1)^2 points, about 28 s
# per candidate, so a default search would run for hours; that defect is
# left visible in diophantine_estimate and is not what this workload
# times.  words.diophantine_estimate.points in the traced run counts the
# points the scans cover.

IDENTITY_CHECKS = 3
SEARCH_Q_MAX = 100
# (corpus label, level, budget, a nonzero pair must exist).  Candidates
# come in blocks of 7^p fillers per base pair, and the first block has
# base pair ((0), (0)), hence k_0 = 0 and a zero block; each budget
# reaches candidate 7^p + 1, base pair ((0), (1)), whose block is nonzero
# for the generators of _search_generators.
SEARCHES = (
    ("heisenberg", 1, 24, True),
    ("example_3_2", 1, 24, True),
    ("example_3_2", 2, 56, True),
    ("filiform(5)", 2, 56, True),
    ("triangular(3)", 1, 16, True),
    ("example_5_6", 3, 8, False),
)


def _rational(rng):
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


def _nonzero_rational(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))


def _search_generators(nw, sc, rng):
    """Two generators whose level-0 parts are upper triangular with a
    nonzero diagonal.  Then [V1, V2] has a nonzero level-1 part, and the
    candidate with base pair ((0), (1)) has a nonzero block at every level
    that SEARCHES expects to find one."""
    n0 = sc.dims[0]
    rows = []
    for i in range(2):
        head = [Fraction(0)] * i + [_nonzero_rational(rng)]
        head += [_rational(rng) for _ in range(n0 - len(head))]
        rows.append(nw.LieVector(head + [_rational(rng) for _ in range(sc.dim - n0)]))
    return rows


def _identity_check(pair):
    def check(chk):
        ks = pair.k_sequence
        if not all(a >= b for i in range(2, len(ks)) for a, b in zip(ks[i], ks[i - 1])):
            return "k sequence is not monotone from q = 2 on"
        return None if chk.ok else f"nonzero residual {chk.residual}"

    return check


def _identity_canon(label, pair):
    def canon(chk):
        return [label, pair.level, [list(s.letters) for s in pair.seeds], chk.ok,
                [str(c) for c in chk.word_log]]

    return canon


def _search_check(nw, sc, gens, p, budget, expect_found):
    m = len(gens)
    seed_words = m + m * m
    candidates = seed_words**2 * (seed_words + 1) ** p

    def check(res):
        if res.tried != min(budget, candidates):
            return f"tried {res.tried} of {min(budget, candidates)} candidates"
        if not expect_found:
            # two-degenerate level: every candidate's block is exactly zero
            if res.found or res.zero_count != res.tried:
                return "a two-degenerate level produced a nonzero candidate"
            return None
        if not res.found:
            return "no nonzero candidate at a two-great level"
        chk = nw.verify_word_bracket_identity(sc, res.pair, gens)
        block = tuple(float(x) for x in nw.lie_core.project(sc, chk.bracket_log, p))
        if not chk.ok or block != res.level_vector or not any(block):
            return "the reported level vector is not the pair's nested bracket"
        rep = res.report
        if rep.q_max != SEARCH_Q_MAX or not 0.0 <= rep.gamma_hat < math.inf:
            return f"bad Diophantine report {rep}"
        return None

    return check


def _search_canon(label, p):
    def canon(res):
        out = [label, p, res.found, res.tried, res.zero_count]
        if res.found:
            rep = res.report
            out += [list(res.pair.w1.letters), list(res.pair.w2.letters),
                    [repr(x) for x in res.level_vector], repr(rep.gamma_hat), list(rep.worst_n)]
        return out

    return canon


def setup_words(nw, seed):
    rng = random.Random(seed)
    verify = nw.verify_word_bracket_identity
    search = nw.nice_pair_search
    corpus = nw.default_corpus()
    ops = []
    m = 2
    for label, sc in corpus:
        for p in range(sc.step):
            for i in range(IDENTITY_CHECKS):
                gens = [nw.LieVector([_rational(rng) for _ in range(sc.dim)]) for _ in range(m)]
                # word lengths follow a fixed schedule over acceptance 4's
                # range, so a round's cost does not depend on the seed
                base_len = 1 + i % 2
                lengths = [base_len, base_len if p == 0 else 1 + (i + 1) % 2]
                lengths += [(i + q) % 3 for q in range(1, p + 1)]
                seeds = [tuple(rng.randrange(m) for _ in range(n)) for n in lengths]
                pair = nw.build_lr(p, seeds, m)
                ops.append(
                    Op(
                        label=f"identity {label} p={p}",
                        run=lambda sc=sc, pair=pair, gens=gens: verify(sc, pair, gens),
                        check=_identity_check(pair),
                        canon=_identity_canon(label, pair),
                    )
                )
    algebras = dict(corpus)
    for label, p, budget, expect_found in SEARCHES:
        sc = algebras[label]
        gens = _search_generators(nw, sc, rng)
        ops.append(
            Op(
                label=f"search {label} p={p}",
                run=lambda sc=sc, gens=gens, p=p, budget=budget: search(
                    sc, gens, p, q_max=SEARCH_Q_MAX, budget=budget
                ),
                check=_search_check(nw, sc, gens, p, budget, expect_found),
                canon=_search_canon(label, p),
            )
        )
    return ops


# -- walk ------------------------------------------------------------------------
#
# coords, walk and stats do all the timed work; the exact layers run only
# in set-up.  Golden-Heisenberg is dominated by per-call overhead,
# triangular(4) (dimension 10, four levels, compiled maps of 10 to 38
# terms) by term count.  The sweeps advance with reduction; the CLT run
# also evaluates every generator's translation on every step without
# reduction, so the compiled maps are used in two ways.

ACCEPTANCE_LAMBDAS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0), (3, 2, 0))
HEIS_SAMPLES, HEIS_CHECKPOINTS = 4096, (4, 16, 64, 256)
CLT_TRIALS, CLT_N = 1024, 512
TRI_SAMPLES, TRI_CHECKPOINTS = 2048, (4, 16, 64, 128)
TRI_LAMBDAS = ((1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 1, 0), (0, 0, 2, 1))
# Gaussian tail in stderr units: P(|z| > 6 stderr) = exp(-36) for a
# complex mean, so no correct run trips it.
MAX_DEVIATION = 6.0
# Dvoretzky-Kiefer-Wolfowitz: P(sqrt(T) * KS > t) <= 2 exp(-2 t^2), so
# t = sqrt(ln(2 / alpha) / 2) is exceeded with probability alpha = 1e-9.
KS_TAIL = math.sqrt(math.log(2e9) / 2.0)


def triangular4_config(nw):
    """A lazy walk on triangular(4) whose moving generator has level-0
    coordinates (phi, sqrt 2 - 1, sqrt 3 - 1, sqrt 7 - 2), independent of
    1 over the rationals, so no abelianized frequency resonates."""
    sc = nw.catalog.triangular(4)
    head = [(math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(7.0) - 2.0]
    move = nw.LieVector([Fraction(x) for x in head] + [Fraction(0)] * (sc.dim - 4))
    return nw.walk_config(sc, [nw.LieVector.zero(sc.dim), move], [Fraction(1, 2), Fraction(1, 2)])


def _sweep_check(nw, config, chars, samples):
    eig = {ch: nw.transfer_eigenvalue(config, ch)[0] for ch in chars}

    def check(sweep):
        for ch in chars:
            for pt in sweep[ch]:
                if pt.samples != samples:
                    return f"{ch.lam} N={pt.N}: {pt.samples} samples"
                dev = abs(pt.estimate - eig[ch] ** pt.N) / pt.stderr
                if not dev <= MAX_DEVIATION:
                    return f"{ch.lam} N={pt.N}: |estimate - c^N| is {dev:.2f} stderr"
        return None

    return check


def _sweep_canon(label, chars):
    def canon(sweep):
        return [label, {
            ",".join(map(str, ch.lam)): [
                [pt.N, repr(pt.estimate.real), repr(pt.estimate.imag), repr(pt.stderr), pt.samples]
                for pt in sweep[ch]
            ]
            for ch in chars
        }]

    return canon


def clt_tolerances(c, sigma, trials, N):
    """Tolerances on the KS statistic and on |variance ratio - 1|.

    Each is a sampling term that correct code exceeds with probability
    about 1e-9, plus the largest effect of the bounded boundary term
    (B(x_0) - B(x_N)) / sqrt(N), |B| <= |w| = 1/|1 - c|, that separates
    S_N from its martingale part.
    """
    w = 1.0 / abs(1.0 - c)
    shift = 2.0 * w / math.sqrt(N)
    ks = KS_TAIL / math.sqrt(trials) + shift / (sigma * math.sqrt(2.0 * math.pi))
    ratio = 6.0 * math.sqrt(2.0 / trials) + 2.0 * shift / sigma + (shift / sigma) ** 2
    return ks, ratio


def _clt_check(nw, config, char):
    c = nw.transfer_eigenvalue(config, char)[0]
    sigma = nw.closed_form_sigma(c)
    ks_tol, ratio_tol = clt_tolerances(c, sigma, CLT_TRIALS, CLT_N)

    def check(rep):
        if rep.N != CLT_N or rep.trials != CLT_TRIALS or rep.degenerate:
            return "wrong CLT run shape"
        if not rep.ks_statistic <= ks_tol:
            return f"KS {rep.ks_statistic:.4f} > {ks_tol:.4f}"
        ratio = rep.sigma_martingale**2 / rep.sigma_empirical**2
        if not abs(ratio - 1.0) <= ratio_tol:
            return f"martingale/empirical variance ratio {ratio:.4f} off by more than {ratio_tol:.4f}"
        return None

    return check


def _clt_canon(rep):
    return ["clt", rep.N, rep.trials, repr(rep.eigenvalue.real), repr(rep.eigenvalue.imag),
            repr(rep.sigma_model), repr(rep.sigma_martingale), repr(rep.sigma_empirical),
            repr(rep.ks_statistic), repr(rep.ks_pvalue), repr(rep.mean)]


def setup_walk(nw, seed):
    rng = random.Random(seed)
    heis_seed, clt_seed, tri_seed = (rng.randrange(2**32) for _ in range(3))
    heis = nw.golden_heisenberg_config()
    tri = triangular4_config(nw)
    for config in (heis, tri):
        for g in config.generators:
            config.system.translation_map(g)
        for level in range(config.sc.step):
            config.system.reduction_map(level)
    heis_chars = [nw.Character(lam) for lam in ACCEPTANCE_LAMBDAS]
    tri_chars = [nw.Character(lam + (0,) * (tri.dim - 4)) for lam in TRI_LAMBDAS]
    sweep = nw.correlation_sweep
    clt = nw.clt_experiment
    return [
        Op(
            label="correlation_sweep golden-heisenberg",
            run=lambda: sweep(heis, heis_chars, HEIS_CHECKPOINTS, HEIS_SAMPLES, heis_seed),
            check=_sweep_check(nw, heis, heis_chars, HEIS_SAMPLES),
            canon=_sweep_canon("golden-heisenberg", heis_chars),
            weight=HEIS_SAMPLES * max(HEIS_CHECKPOINTS),
        ),
        Op(
            label="clt_experiment golden-heisenberg",
            run=lambda: clt(heis, heis_chars[0], CLT_N, CLT_TRIALS, clt_seed),
            check=_clt_check(nw, heis, heis_chars[0]),
            canon=_clt_canon,
            weight=CLT_TRIALS * CLT_N,
        ),
        Op(
            label="correlation_sweep triangular(4)",
            run=lambda: sweep(tri, tri_chars, TRI_CHECKPOINTS, TRI_SAMPLES, tri_seed),
            check=_sweep_check(nw, tri, tri_chars, TRI_SAMPLES),
            canon=_sweep_canon("triangular(4)", tri_chars),
            weight=TRI_SAMPLES * max(TRI_CHECKPOINTS),
        ),
    ]


SETUPS = {"certify": setup_certify, "words": setup_words, "walk": setup_walk}

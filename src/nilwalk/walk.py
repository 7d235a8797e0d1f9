"""Random walks on compact nilmanifolds and their character statistics.

A walk is driven by finitely many group elements g_j picked i.i.d. with
rational probabilities; the state is the reduced coordinate tuple of
x_n = g_{j_n} x_{n-1} in the unit box.  Observables are characters
A(t) = exp(2 pi i lam.t) with integer frequency lam; validate_observable
proves that one is a walk observable iff lam lives on level 0.  Such a
character descends to the abelianized torus, where it is an exact
eigenfunction of the transfer operator, eigenvalue c = sum_j p_j A(g_j).

Correlations are estimated over independent sample paths started at the
identity, so the mean of A(x_N) should track c^N.  The paths run in
seeded chunks (run_chunks, shared with the CLT) on the config's own
level-0 coordinates, that torus, where a step adds the chosen
generator's shift and drops the integer part.
gap_profile lists c over a frequency box, flagging resonant frequencies
with |c| = 1, and tame_decay_fit measures the sup-norm decay of the
transfer operator on a Sobolev-weighted character sum.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .coords import SecondKindSystem
from .lie_core import LieVector, StructureConstants

__all__ = [
    "WalkConfig",
    "walk_config",
    "golden_heisenberg_config",
    "Character",
    "ObservableError",
    "validate_observable",
    "abelianized_lambda_box",
    "GapEntry",
    "gap_profile",
    "CorrelationPoint",
    "correlation_sweep",
    "DecayFit",
    "tame_decay_fit",
    "transfer_eigenvalue",
    "advance",
    "draw_generators",
]

CHUNK = 8192  # paths per seeded chunk; changing it changes every seeded result
# Largest frequency box, in nonzero frequencies.  Each one is a Character
# and, in gap_profile, a GapEntry; 28,560 of them (n0 = 4, radius 6) took
# 113 MB peak RSS through `nilwalk gap`.
MAX_FREQUENCIES = 1 << 17


class ObservableError(Exception):
    """The proposed character is not a walk observable."""


@dataclass(frozen=True)
class WalkConfig:
    sc: StructureConstants
    generators: tuple  # LieVector logs, exact
    probs: tuple  # Fractions, positive, summing to 1
    system: SecondKindSystem

    @property
    def dim(self):
        return self.sc.dim

    @cached_property
    def shifts(self):
        """(J, n0) floats: each generator's level-0 coordinates, the shift
        by which it translates the abelianized torus (log and second-kind
        coordinates coincide there).  A coordinate too large for a float
        is a ValueError naming its generator."""
        n0 = self.sc.series.dims[0]
        rows = []
        for j, g in enumerate(self.generators):
            try:
                rows.append([x / g.den for x in g.nums[:n0]])  # rounds as float(Fraction)
            except OverflowError:
                raise ValueError(
                    f"generator {j + 1} has a level-0 coordinate too large for a float"
                ) from None
        return np.array(rows)

    @cached_property
    def cdf(self):
        """Cumulative float probabilities, normalized as Generator.choice does."""
        cdf = np.cumsum([float(p) for p in self.probs])
        cdf /= cdf[-1]
        return cdf


def walk_config(sc: StructureConstants, generators, probs) -> WalkConfig:
    """Validate and freeze a walk: exact generators, exact probabilities.

    Float coordinates are converted through their exact binary values,
    so a config built from floats is still an exact object.  The integer
    lattice is verified here once; walks on an algebra whose lattice
    does not close fail loudly (rescale_levels can often fix the basis).
    """
    gens = []
    for g in generators:
        if isinstance(g, LieVector):
            gens.append(g)
        else:
            gens.append(LieVector([Fraction(c) for c in g]))
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.dim != sc.dim for g in gens):
        raise ValueError("generator dimension mismatch")
    ps = [Fraction(p) for p in probs]
    if len(ps) != len(gens):
        raise ValueError("one probability per generator")
    if any(p <= 0 for p in ps) or sum(ps) != 1:
        raise ValueError("probabilities must be positive and sum to 1")
    system = SecondKindSystem(sc)
    system.verify_lattice()
    return WalkConfig(sc=sc, generators=tuple(gens), probs=tuple(ps), system=system)


def golden_heisenberg_config() -> WalkConfig:
    """Lazy Heisenberg walk: stay put or translate by exp(phi X1 + sig X2).

    phi is the golden mean conjugate and sig = sqrt(2) - 1, so (1, phi,
    sig) are rationally independent and no low frequency resonates.
    """
    from .catalog import heisenberg

    sc = heisenberg()
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    sig = math.sqrt(2.0) - 1.0
    g1 = LieVector.zero(3)
    g2 = LieVector([Fraction(phi), Fraction(sig), Fraction(0)])
    return walk_config(sc, [g1, g2], [Fraction(1, 2), Fraction(1, 2)])


# -- characters ----------------------------------------------------------------


def _frequency(v):
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"a frequency entry must be an integer, got {v!r}") from None


class Character:
    """A(t) = exp(2 pi i lam.t) for an integer frequency tuple lam."""

    def __init__(self, lam):
        self.lam = tuple(map(_frequency, lam))
        if not any(self.lam):
            raise ValueError("the trivial frequency is not an observable")

    @property
    def norm(self):
        return math.sqrt(sum(v * v for v in self.lam))

    def values(self, t):
        """Evaluate on an (N, dim) batch of coordinate tuples, or on one.

        lam.t is t_0 lam_0 + t_1 lam_1 + ... summed left to right in
        elementwise products, not a BLAS product, whose rounding moves
        with the kernel (with or without FMA)."""
        t = np.asarray(t, dtype=float)
        if t.shape[-1:] != (len(self.lam),):
            raise ValueError(f"expected {len(self.lam)} coordinates, got shape {t.shape}")
        phase = t[..., 0] * float(self.lam[0])
        for k in range(1, len(self.lam)):
            phase += t[..., k] * float(self.lam[k])
        return np.exp(2j * np.pi * phase)

    def __repr__(self):
        return f"Character({self.lam})"

    def __eq__(self, other):
        return isinstance(other, Character) and other.lam == self.lam

    def __hash__(self):
        return hash(self.lam)


def transfer_eigenvalue(config: WalkConfig, char: Character):
    """c = sum_j p_j A(g_j) with exact rational phases, A validated first.

    Returns (c, resonant): resonant means every generator phase agrees
    mod 1, which forces |c| = 1 and kills all decay at this frequency.
    """
    validate_observable(config, char)
    return _eigenvalue(config, char.lam)


def _eigenvalue(config: WalkConfig, lam):
    """transfer_eigenvalue for a frequency lam that is zero off level 0.
    Generator g's phase lam . log(g) mod 1 is r / den with r = lam . nums
    mod den, on its integer numerators: the float of r / den is the
    correctly rounded quotient, as float(Fraction) is, and two phases
    agree iff r den' = r' den."""
    phases = [
        (sum(l * n for l, n in zip(lam, g.nums)) % g.den, g.den) for g in config.generators
    ]
    c = sum(
        float(p) * cmath.exp(2j * math.pi * (r / den))
        for p, (r, den) in zip(config.probs, phases)
    )
    r0, den0 = phases[0]
    resonant = all(r * den0 == r0 * den for r, den in phases)
    return c, resonant


def validate_observable(config: WalkConfig, char: Character):
    """Raise ObservableError unless lam is zero off level 0 (exact rule).
    Enough: the level-0 block of g(t) g(s) is t + s, so A is lattice
    invariant and generator equivariant.  Necessary: at the deepest level
    q >= 1 lam reads, right multiplication by a level-0 lattice point X_j
    moves lam.t by sum lam_z c_ij^z t_i (i on level q-1, z on level q)
    plus terms free of level-(q-1) coordinates; the level-q parts of the
    [X_i, X_j] span level q, so for some j that move is not constant."""
    sc = config.sc
    if len(char.lam) != sc.dim:
        raise ValueError(f"frequency has {len(char.lam)} entries but dim is {sc.dim}")
    for i in range(sc.series.dims[0], sc.dim):
        if char.lam[i]:
            where = f"level {sc.series.level_of(i)} ({sc.names[i]})"
            raise ObservableError(f"character {char.lam} is no walk observable: it reads {where}")


def abelianized_lambda_box(sc: StructureConstants, radius: int):
    """All nonzero integer frequencies on the top block with sup norm <= radius."""
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    n0 = sc.series.dims[0]
    count = (2 * radius + 1) ** n0 - 1
    if count > MAX_FREQUENCIES:
        raise ValueError(
            f"radius {radius} on the n0={n0} torus gives {count} frequencies,"
            f" over the cap of {MAX_FREQUENCIES}"
        )
    pad = (0,) * (sc.dim - n0)
    heads = iproduct(range(-radius, radius + 1), repeat=n0)
    box = [Character(head + pad) for head in heads if any(head)]
    return sorted(box, key=lambda ch: (ch.norm, ch.lam))


@dataclass(frozen=True)
class GapEntry:
    lam: tuple
    norm: float
    eigenvalue: complex
    modulus: float
    resonant: bool


def gap_profile(config: WalkConfig, radius: int):
    """Transfer eigenvalues over the abelianized frequency box."""
    entries = []
    for ch in abelianized_lambda_box(config.sc, radius):
        c, resonant = _eigenvalue(config, ch.lam)
        entries.append(
            GapEntry(
                lam=ch.lam,
                norm=ch.norm,
                eigenvalue=c,
                modulus=abs(c),
                resonant=resonant,
            )
        )
    return entries


# -- simulation ----------------------------------------------------------------


def draw_generators(config: WalkConfig, size, rng):
    """`size` generator indices, index j with probability p_j.  These are
    the uniforms and comparisons of rng.choice(J, size, p=p), which counts
    the cdf entries at or below each uniform, so seeded streams are kept;
    the last entry is 1.0 and never counts."""
    u = rng.random(size)
    idx = np.zeros(size, dtype=np.int64)
    for c in config.cdf[:-1]:
        idx += u >= c
    return idx


def advance(config: WalkConfig, t, gen_idx):
    """One step of the walk's image on the abelianized torus, for an
    (N, n0) batch of level-0 coordinates: row i moves by generator
    gen_idx[i]'s shift and is reduced into the unit box.  The torus law is
    addition, so the step is t + shift less its integer part, bit for bit
    the level 0 of what the compiled translation and reduction maps give.
    x - floor(x) is never negative, but rounding can leave it at exactly
    1.0 (x = -1e-20), so a pass repeats only while some coordinate is at
    least 1.0; x - f is x + (-f) bit for bit, and subtracting a zero floor
    changes nothing.  Returns the next state."""
    x = np.take(config.shifts, gen_idx, axis=0)
    x += t
    for _ in range(4):
        x -= np.floor(x)
        if x.max(initial=0.0) < 1.0:
            return x
    raise AssertionError("torus reduction did not converge")


def sample_paths(config: WalkConfig, size, rng, steps):
    """Yield (x_(n-1), x_n) for n = 1 .. steps over `size` paths started
    at the identity, each state the (size, n0) level-0 coordinates."""
    t = np.zeros((size, config.shifts.shape[1]))
    for _ in range(steps):
        prev, t = t, advance(config, t, draw_generators(config, size, rng))
        yield prev, t


def run_chunks(work, config: WalkConfig, samples, seed, *args):
    """[work(config, *args, size, rng)] over chunks of CHUNK paths (the
    last takes the rest), in order, each with its own PCG64 stream spawned
    from seed, so the results depend on the seed alone."""
    sizes = [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]
    states = np.random.SeedSequence(seed).spawn(len(sizes))
    return [
        work(config, *args, size, np.random.default_rng(np.random.PCG64(state)))
        for size, state in zip(sizes, states)
    ]


def torus_characters(config: WalkConfig, characters):
    """Validate every character and cut its frequency to level 0, the
    coordinates the walk runs on."""
    for ch in characters:
        validate_observable(config, ch)
    return [Character(ch.lam[: config.shifts.shape[1]]) for ch in characters]


def _correlation_chunk(config, chars, checkpoints, size, rng):
    """Sum of each character over the chunk at each checkpoint."""
    want = set(checkpoints)
    sums = {}  # (char index, N) -> sum of the character values
    for n, (_, t) in enumerate(sample_paths(config, size, rng, max(checkpoints)), 1):
        if n in want:
            for ci, ch in enumerate(chars):
                sums[(ci, n)] = complex(ch.values(t).sum())
    return sums


@dataclass(frozen=True)
class CorrelationPoint:
    N: int
    estimate: complex
    stderr: float
    samples: int


def correlation_sweep(config: WalkConfig, characters, checkpoints, samples, seed):
    """Mean of each character at the given walk times, over sample paths.

    All paths start at the identity and are advanced jointly; chunked
    deterministically so the output depends only on the seed.  After
    validation the paths run on the abelianized torus: the config's
    level-0 coordinates, which no higher level moves.
    stderr is the root mean square error of the complex mean (characters
    are unit modulus, so the population second moment is exactly 1).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    chars = list(characters)
    torus_chars = torus_characters(config, chars)
    checkpoints = sorted(set(int(n) for n in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive walk times")
    results = run_chunks(_correlation_chunk, config, samples, seed, torus_chars, checkpoints)
    sweep = {}
    for ci, ch in enumerate(chars):
        pts = []
        for n in checkpoints:
            mean = sum((sums[(ci, n)] for sums in results), 0j) / samples
            # var of the complex mean: E|z|^2 - |Ez|^2 = 1 - |mean|^2
            var = max(0.0, 1.0 - abs(mean) ** 2)
            pts.append(CorrelationPoint(n, mean, math.sqrt(var / samples), samples))
        sweep[ch] = pts
    return sweep


# -- operator decay -------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    r: float
    radius: int
    times: tuple
    sups: tuple
    slope: float
    intercept: float


def tame_decay_fit(
    config: WalkConfig, r: float, radius: int, times, grid: int = 512
) -> DecayFit:
    """Sup-norm decay of L^N applied to a Sobolev-weighted character sum.

    The test function is A = sum_lam |lam|^(-r) chi_lam over the nonzero
    abelianized box; the transfer operator scales each term by c_lam^N,
    so sup |L^N A| is evaluated directly on a grid of the abelianized
    torus and fitted with a log-log slope.  Resonant frequencies would
    freeze the sup at a constant, so their presence is an error here.
    """
    times = sorted(set(int(n) for n in times))
    if len(times) < 3:
        raise ValueError("need at least three times for a slope")
    if times[0] < 1:
        raise ValueError(f"times must be at least 1, got {times[0]}")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    n0 = config.sc.series.dims[0]
    # phases and its temporaries hold a complex per grid point and frequency
    if grid**n0 * ((2 * radius + 1) ** n0 - 1) > 2**24:
        raise ValueError(f"grid {grid} at radius {radius} needs over 2^24 phases on this torus")
    entries = gap_profile(config, radius)
    bad = [e.lam for e in entries if e.resonant]
    if bad:
        raise ValueError(f"resonant frequencies in the box: {bad[:4]}")
    # every product below is elementwise and every sum runs in a fixed
    # order: a BLAS product rounds with or without FMA by kernel
    axes = [np.arange(grid) / grid] * n0
    mesh = [g.ravel()[:, None] for g in np.meshgrid(*axes, indexing="ij")]
    lams = np.asarray([e.lam[:n0] for e in entries], dtype=float)
    arg = mesh[0] * lams[:, 0]  # (grid^n0, n_lam): lam . x, left to right
    for k in range(1, n0):
        arg += mesh[k] * lams[:, k]
    phases = np.exp(2j * np.pi * arg)
    p_re, p_im = np.ascontiguousarray(phases.real), np.ascontiguousarray(phases.imag)
    w = np.asarray([e.norm ** (-float(r)) for e in entries])
    c = np.asarray([e.eigenvalue for e in entries])
    sups = []
    for n in times:
        coeff = w * c**n
        c_re, c_im = coeff.real, coeff.imag
        re = (p_re * c_re - p_im * c_im).sum(axis=1)
        im = (p_re * c_im + p_im * c_re).sum(axis=1)
        sups.append(float(np.max(np.hypot(re, im))))
    # the closed-form least-squares line, summed exactly: np.polyfit's
    # LAPACK solve rounds differently under different BLAS kernels
    xs, ys = [math.log(n) for n in times], [math.log(s) for s in sups]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - xbar for x in xs]
    slope = math.fsum(a * (y - ybar) for a, y in zip(dx, ys)) / math.fsum(a * a for a in dx)
    intercept = ybar - slope * xbar
    return DecayFit(
        r=float(r),
        radius=radius,
        times=tuple(times),
        sups=tuple(sups),
        slope=float(slope),
        intercept=float(intercept),
    )

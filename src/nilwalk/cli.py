"""Command line interface.

Exit codes: 0 on success, 1 when a checked property fails (a degenerate
pencil, a gap below --min-gap, a failed distributional test), 2 on bad
input (a resonant character for clt among them), and 3 when a
certification ends undetermined.  All JSON output is emitted
with sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__, catalog, coords, stats, walk, words
from .lie_core import (
    LieAlgebraError,
    LieVector,
    algebra_to_json,
    check_jacobi,
    load_algebra,
)
from .pencil import build_pencil, certify_greatness, linearly_independent, pencil_at_k

# coords, stats, walk and words are the package's lazy modules: numpy loads
# at a command's first use of one, so check, pencil and certify never load it.

_SPECIAL_SCALARS = {
    "phi": (math.sqrt(5.0) - 1.0) / 2.0,
    "sigma": math.sqrt(2.0) - 1.0,
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "pi": math.pi,
    "e": math.e,
}


def parse_scalar(tok: str) -> Fraction:
    tok = tok.strip()
    if tok in _SPECIAL_SCALARS:
        return Fraction(_SPECIAL_SCALARS[tok])
    try:
        try:
            return Fraction(tok)
        except ValueError:
            return Fraction(float(tok))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite rational: {tok!r}") from None


def parse_algebra(ref: str):
    """Catalog name (with optional :a,b,... integers) or a path to a JSON file."""
    if os.path.exists(ref):
        return load_algebra(ref)
    name, _, rest = ref.partition(":")
    args = tuple(int(x) for x in rest.split(",")) if rest else ()
    return catalog.build(name, *args)


def algebra_digest(sc) -> str:
    blob = json.dumps(algebra_to_json(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def provenance(args, sc=None):
    """Version, command and every parsed argument except the output paths."""
    skip = ("func", "cmd", "json", "csv")
    doc = {k: v for k, v in vars(args).items() if k not in skip}
    doc.update(version=__version__, command=args.cmd)
    if sc is not None:
        doc["algebra_sha256"] = algebra_digest(sc)
    return doc


def _plain(obj):
    """JSON form of what json.dumps cannot write: a complex number as
    {"im", "re"}, a result dataclass as its fields."""
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit(args, doc, sc=None):
    """Attach the provenance and write the document as sorted JSON to
    args.json, or to stdout."""
    doc["provenance"] = provenance(args, sc)
    text = json.dumps(doc, sort_keys=True, indent=2, default=_plain, allow_nan=False)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def report_elapsed(seconds):
    """Timings go to stderr so the JSON on stdout stays byte-identical."""
    print(f"elapsed_seconds: {seconds:.3f}", file=sys.stderr)


# -- walk config plumbing --------------------------------------------------------


# name -> (algebra, generators), stepped with equal probabilities
PRESETS = {
    "golden-heisenberg": ("heisenberg", ["0,0,0", "phi,sigma,0"]),
    "circle-golden": ("abelian:1", ["0", "phi"]),
    "circle-quarters": ("abelian:1", ["1/4", "3/4"]),
}


def parse_generators(sc, tokens):
    """LieVectors from --generator strings of sc.dim comma separated scalars."""
    gens = []
    for g in tokens:
        xs = [parse_scalar(t) for t in g.split(",")]
        if len(xs) != sc.dim:
            raise ValueError(f"generator needs {sc.dim} coordinates: {g!r}")
        gens.append(LieVector(xs))
    return gens


def resolve_config(args):
    """The walk of --preset, which ignores --algebra, --generator and
    --probs, or of those three options."""
    algebra, generators, probs = args.algebra, args.generator or [], args.probs
    if args.preset:
        if args.preset not in PRESETS:
            raise KeyError(
                f"unknown preset {args.preset!r}; "
                "try golden-heisenberg, circle-golden or circle-quarters"
            )
        algebra, generators = PRESETS[args.preset]
        probs = None
    elif not algebra:
        raise ValueError("give either --preset or --algebra with --generator")
    sc = parse_algebra(algebra)
    gens = parse_generators(sc, generators)
    if not gens:
        raise ValueError("at least one --generator is required")
    if probs:
        try:
            probs = [Fraction(t) for t in probs.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in --probs {probs!r}") from None
    else:
        probs = [Fraction(1, len(gens))] * len(gens)
    return walk.walk_config(sc, gens, probs)


def parse_character(tok: str, dim: int):
    lam = [int(x) for x in tok.split(",")]
    if len(lam) > dim:
        raise ValueError(f"frequency has {len(lam)} entries but dim is {dim}")
    lam += [0] * (dim - len(lam))
    return walk.Character(lam)


def finite_float(tok: str) -> float:
    """A threshold option's value: a float other than nan or +-inf, at
    which the check it sets would pass or fail whatever the run measured."""
    try:
        x = float(tok)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {tok!r}")
    return x


def _add_config_opts(sp):
    sp.add_argument("--preset", help="golden-heisenberg, circle-golden, circle-quarters")
    sp.add_argument("--algebra", help="catalog name or JSON file")
    sp.add_argument(
        "--generator",
        action="append",
        help="comma separated log coordinates; repeatable; "
        "accepts fractions, decimals and phi/sigma/sqrt2/sqrt3/sqrt5/pi/e",
    )
    sp.add_argument("--probs", help="comma separated rational step probabilities")


# -- subcommands ------------------------------------------------------------------


def cmd_check(args):
    try:
        sc = parse_algebra(args.algebra)
    except LieAlgebraError as e:
        emit(args, {"ok": False, "error": str(e)})
        return 1
    rep = check_jacobi(sc)
    doc = {
        "ok": rep.ok,
        "dim": sc.dim,
        "step": sc.step,
        "level_dims": list(sc.dims),
        "names": list(sc.names),
    }
    if not rep.ok:
        doc["jacobi_violation"] = {
            "triple": [sc.names[i] for i in rep.triple],
            "residual": [str(v) for v in rep.residual],
        }
    emit(args, doc, sc)
    return 0 if rep.ok else 1


def cmd_pencil(args):
    sc = parse_algebra(args.algebra)
    coords = build_pencil(sc, args.m, args.p)
    doc = {
        "m": args.m,
        "level": args.p,
        "identically_zero": not any(coords),
        "coordinates": [str(c) for c in coords],
    }
    if args.k:
        rows = [
            tuple(int(x) for x in row.split(",")) for row in args.k.split(";")
        ]
        if len(rows) != args.p + 1 or any(len(r) != args.m for r in rows):
            raise ValueError(f"--k needs {args.p + 1} rows of {args.m} integers")
        evaluated = pencil_at_k(sc, args.m, args.p, rows)
        ok, kernel = linearly_independent(evaluated)
        doc["at_k"] = {
            "k": [list(r) for r in rows],
            "coordinates": [str(c) for c in evaluated],
            "independent": ok,
            "kernel": None if kernel is None else [str(v) for v in kernel],
        }
    emit(args, doc, sc)
    return 0


def cmd_certify(args):
    sc = parse_algebra(args.algebra)
    t0 = time.time()
    cert = certify_greatness(sc, args.m, budget=args.budget, seed=args.seed)
    report_elapsed(time.time() - t0)
    doc = cert.to_json_dict()
    if args.verify:
        doc["reverified"] = cert.verify(sc)
    emit(args, doc, sc)
    if args.verify and not doc["reverified"]:
        return 1
    if cert.verdict == "great":
        return 0
    if cert.verdict == "degenerate":
        return 1
    return 3


def cmd_counterexample(args):
    """End to end demonstration that greatness depends on m.

    The bundled dim-15 step-4 algebra is 4-great, yet for m = 2 every
    integer pencil at the top level collapses: the certification proves
    the level-3 pencil is identically zero, and an exhaustive search for
    short word pairs confirms that no candidate produces a nonzero
    level-3 displacement.
    """
    sc = catalog.example_5_6()
    t0 = time.time()
    cert2 = certify_greatness(sc, 2, budget=args.budget, seed=args.seed)
    cert4 = certify_greatness(sc, 4, budget=args.budget, seed=args.seed)
    gens = [LieVector.basis(sc.dim, 0), LieVector.basis(sc.dim, 1)]
    search = words.nice_pair_search(sc, gens, p=3, budget=args.words_budget, q_max=10)
    report_elapsed(time.time() - t0)
    lvl3 = cert2.level(3)
    confirmed = (
        cert2.verdict == "degenerate"
        and lvl3.status == "degenerate"
        and lvl3.proof == "identically_zero"
        and cert4.is_great
        and not search.found
        and search.zero_count == search.tried
    )
    doc = {
        "confirmed": confirmed,
        "m2": cert2.to_json_dict(),
        "m4": cert4.to_json_dict(),
        "word_search": {
            "level": 3,
            "found": search.found,
            "tried": search.tried,
            "all_zero": search.zero_count == search.tried,
        },
    }
    emit(args, doc, sc)
    return 0 if confirmed else 1


def cmd_words(args):
    sc = parse_algebra(args.algebra)
    if args.generator:
        gens = parse_generators(sc, args.generator)
    elif args.m < 1:
        raise ValueError(f"m must be at least 1, got {args.m}")
    else:
        gens = [LieVector.basis(sc.dim, i) for i in range(args.m)]
    res = words.nice_pair_search(
        sc, gens, p=args.p, tau=args.tau, q_max=args.qmax, budget=args.budget
    )
    doc = {
        "level": args.p,
        "found": res.found,
        "tried": res.tried,
        "zero_candidates": res.zero_count,
    }
    if res.found:
        doc.update(
            dataclasses.asdict(res.report),
            w1=res.pair.w1.letters,
            w2=res.pair.w2.letters,
            k_sequence=res.pair.k_sequence,
        )
        doc["level_vector"] = doc.pop("vector")  # the same floats as res.level_vector
    emit(args, doc, sc)
    return 0 if res.found else 1


def cmd_gap(args):
    config = resolve_config(args)
    entries = walk.gap_profile(config, args.radius)
    gaps = [1.0 - e.modulus for e in entries]
    doc = {
        "radius": args.radius,
        "entries": entries,
        "min_gap": min(gaps),
        "resonant_count": sum(e.resonant for e in entries),
    }
    emit(args, doc, config.sc)
    if args.min_gap is not None and doc["min_gap"] < args.min_gap:
        return 1
    return 0


def cmd_correlate(args):
    config = resolve_config(args)
    char = parse_character(args.character, config.dim)
    times = [int(x) for x in args.times.split(",")]
    sweep = walk.correlation_sweep(config, [char], times, args.samples, args.seed)
    points = sweep[char]
    c, _ = walk.transfer_eigenvalue(config, char)
    # the header is the provenance as key=value tokens, values in compact JSON
    prov = provenance(args, config.sc)
    digest = prov.pop("algebra_sha256")
    fields = [
        f"{k}={json.dumps(v, separators=(',', ':'))}"
        for k, v in sorted(prov.items())
        if v is not None and k not in ("version", "command")
    ]
    header = f"# nilwalk v{__version__} correlate {' '.join(fields)} algebra=sha256:{digest}"
    lines = [header, "N,estimate_re,estimate_im,stderr,samples"]
    worst = 0.0
    for pt in points:
        lines.append(
            "%d,%r,%r,%r,%d"
            % (pt.N, pt.estimate.real, pt.estimate.imag, pt.stderr, pt.samples)
        )
        pred = c**pt.N
        if pt.stderr > 0:
            worst = max(worst, abs(pt.estimate - pred) / pt.stderr)
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.check is not None and worst > args.check:
        print(
            f"correlation deviates from eigenvalue prediction by {worst:.2f} stderr",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_clt(args):
    config = resolve_config(args)
    char = parse_character(args.character, config.dim)
    rep = stats.clt_experiment(config, char, N=args.N, trials=args.trials, seed=args.seed)
    emit(args, dataclasses.asdict(rep), config.sc)
    if rep.degenerate:
        return 1
    if args.max_ks is not None and rep.ks_statistic > args.max_ks:
        return 1
    return 0


def cmd_lemma_a1(args):
    rep = stats.lemma_a1_check(grid=args.grid)
    emit(args, dataclasses.asdict(rep))
    return 0 if rep.ok else 1


# -- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="nilwalk",
        description="exact pencil certification and random walks on nilmanifolds",
    )
    p.add_argument("--version", action="version", version=f"nilwalk {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="structure constants sanity report")
    sp.add_argument("algebra")
    sp.add_argument("--json", help="write the report to a file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("pencil", help="symbolic level pencil, optionally at integer k")
    sp.add_argument("algebra")
    sp.add_argument("-m", type=int, required=True, help="number of generic vectors")
    sp.add_argument("-p", type=int, required=True, help="level")
    sp.add_argument("--k", help="integer rows 'a,b;c,d;...' to evaluate at")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_pencil)

    sp = sub.add_parser("certify", help="prove or refute m-greatness")
    sp.add_argument("algebra")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument(
        "--budget",
        type=int,
        default=200,
        help="witness tries per level; after the structured ones the symbolic"
        " pencil is built once, only where a proof of degeneracy can exist"
        " (m < min(n0, max(p, 2))), and may settle the level",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--verify", action="store_true", help="recheck the certificate")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser(
        "counterexample", help="demonstrate the step-4 collapse for two generators"
    )
    sp.add_argument("--budget", type=int, default=200)
    sp.add_argument("--words-budget", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("words", help="search short word pairs with good quality")
    sp.add_argument("algebra")
    sp.add_argument("-p", type=int, required=True, help="level")
    sp.add_argument("-m", type=int, default=2, help="alphabet size when no generators")
    sp.add_argument("--generator", action="append")
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--qmax", type=int, default=None)
    sp.add_argument("--budget", type=int, default=500)
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_words)

    sp = sub.add_parser("gap", help="transfer eigenvalues over a frequency box")
    _add_config_opts(sp)
    sp.add_argument("--radius", type=int, default=20)
    sp.add_argument("--min-gap", type=finite_float, default=None)
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("correlate", help="character means along the walk, as CSV")
    _add_config_opts(sp)
    sp.add_argument("--character", required=True, help="integer frequency 'a,b,...'")
    sp.add_argument("--times", default="4,16,64,256")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", help="write CSV here instead of stdout")
    sp.add_argument(
        "--check",
        type=finite_float,
        default=None,
        help="fail if any point deviates from c^N by more stderr multiples",
    )
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("clt", help="normalized character sums against the normal law")
    _add_config_opts(sp)
    sp.add_argument("--character", required=True)
    sp.add_argument("-N", type=int, default=2048, help="walk length per trial")
    sp.add_argument("--trials", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-ks", type=finite_float, default=None)
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_clt)

    sp = sub.add_parser("lemma-a1", help="grid check of the quadratic cosine bound")
    sp.add_argument("--grid", type=int, default=1_000_001)
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_lemma_a1)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the except tuple is evaluated, loading numpy, only once something raised
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, LieAlgebraError, coords.LatticeError,
            walk.ObservableError, stats.ResonanceError) as e:
        # str() of a KeyError is the repr of its argument, quotes and all
        msg = e.args[0] if isinstance(e, KeyError) and len(e.args) == 1 else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

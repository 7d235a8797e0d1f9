"""Command line interface.

Exit codes: 0 on success, 1 when a checked property fails (a degenerate
pencil, a resonance, a failed distributional test), 2 on bad input, and
3 when a certification ends undetermined.  All JSON output is emitted
with sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__, catalog
from .lie_core import (
    LieAlgebraError,
    LieVector,
    algebra_to_json,
    check_jacobi,
    load_algebra,
)
from .pencil import build_pencil, certify_greatness, evaluate_at_k, linearly_independent

# The exact-side commands (check, pencil, certify) never touch a float, so
# the numpy-backed modules (coords, walk, stats, words) are imported inside
# the commands that use them.

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
        return Fraction(tok)
    except ValueError:
        return Fraction(float(tok))


def parse_algebra(ref: str):
    """Catalog name (with optional :args) or a path to a JSON file."""
    if os.path.exists(ref):
        return load_algebra(ref)
    name, _, rest = ref.partition(":")
    args = tuple(int(x) for x in rest.split(",")) if rest else ()
    if name == "random_step3":
        if len(args) != 4:
            raise ValueError("random_step3 needs n0,n1,n2,seed")
        return catalog.random_step3(*args)
    if name not in catalog.CATALOG:
        known = ", ".join(sorted(catalog.CATALOG))
        raise KeyError(f"unknown algebra {name!r}; catalog: {known}, or a file path")
    ent = catalog.CATALOG[name]
    if args and len(ent.defaults) == 1 and isinstance(ent.defaults[0], tuple):
        return catalog.build(name, args)
    return catalog.build(name, *args)


def algebra_digest(sc) -> str:
    blob = json.dumps(algebra_to_json(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def provenance(args, sc=None):
    """Version, command and every parsed argument except the output paths.
    NILWALK_WORKERS is left out: it changes wall time, never the output."""
    skip = ("func", "cmd", "json", "csv")
    doc = {k: v for k, v in vars(args).items() if k not in skip}
    doc.update(version=__version__, command=args.cmd)
    if sc is not None:
        doc["algebra_sha256"] = algebra_digest(sc)
    return doc


def emit(doc, path=None):
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def report_elapsed(seconds):
    """Timings go to stderr so the JSON on stdout stays byte-identical."""
    print(f"elapsed_seconds: {seconds:.3f}", file=sys.stderr)


def _cnum(z):
    return {"im": z.imag, "re": z.real}


# -- walk config plumbing --------------------------------------------------------


def _preset_config(name):
    from .walk import golden_heisenberg_config, walk_config

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    if name == "golden-heisenberg":
        return golden_heisenberg_config()
    if name == "circle-golden":
        sc = catalog.abelian(1)
        return walk_config(
            sc,
            [LieVector.zero(1), LieVector([Fraction(phi)])],
            [Fraction(1, 2), Fraction(1, 2)],
        )
    if name == "circle-quarters":
        sc = catalog.abelian(1)
        return walk_config(
            sc,
            [LieVector([Fraction(1, 4)]), LieVector([Fraction(3, 4)])],
            [Fraction(1, 2), Fraction(1, 2)],
        )
    raise KeyError(
        f"unknown preset {name!r}; "
        "try golden-heisenberg, circle-golden or circle-quarters"
    )


def parse_generators(sc, tokens):
    """LieVectors from --generator strings of sc.dim comma separated scalars."""
    gens = []
    for g in tokens:
        coords = [parse_scalar(t) for t in g.split(",")]
        if len(coords) != sc.dim:
            raise ValueError(f"generator needs {sc.dim} coordinates: {g!r}")
        gens.append(LieVector(coords))
    return gens


def resolve_config(args):
    from .walk import walk_config

    if getattr(args, "preset", None):
        return _preset_config(args.preset)
    if not getattr(args, "algebra", None):
        raise ValueError("give either --preset or --algebra with --generator")
    sc = parse_algebra(args.algebra)
    gens = parse_generators(sc, args.generator or [])
    if not gens:
        raise ValueError("at least one --generator is required")
    if args.probs:
        probs = [Fraction(t) for t in args.probs.split(",")]
    else:
        probs = [Fraction(1, len(gens))] * len(gens)
    return walk_config(sc, gens, probs)


def parse_character(tok: str, dim: int):
    from .walk import Character

    lam = [int(x) for x in tok.split(",")]
    if len(lam) > dim:
        raise ValueError(f"frequency has {len(lam)} entries but dim is {dim}")
    lam += [0] * (dim - len(lam))
    return Character(lam)


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
        emit({"ok": False, "error": str(e)}, args.json)
        return 1
    rep = check_jacobi(sc)
    doc = {
        "ok": rep.ok,
        "dim": sc.dim,
        "step": sc.step,
        "level_dims": list(sc.dims),
        "names": list(sc.names),
        "provenance": provenance(args, sc),
    }
    if not rep.ok:
        doc["jacobi_violation"] = {
            "triple": [sc.names[i] for i in rep.triple],
            "residual": [str(v) for v in rep.residual],
        }
    emit(doc, args.json)
    return 0 if rep.ok else 1


def cmd_pencil(args):
    sc = parse_algebra(args.algebra)
    pencil = build_pencil(sc, args.m, args.p)
    doc = {
        "m": args.m,
        "level": args.p,
        "identically_zero": pencil.is_identically_zero(),
        "coordinates": [str(c) for c in pencil.coords],
        "provenance": provenance(args, sc),
    }
    if args.k:
        rows = [
            tuple(int(x) for x in row.split(",")) for row in args.k.split(";")
        ]
        if len(rows) != args.p + 1 or any(len(r) != args.m for r in rows):
            raise ValueError(f"--k needs {args.p + 1} rows of {args.m} integers")
        evaluated = evaluate_at_k(pencil, rows)
        ok, kernel = linearly_independent(evaluated)
        doc["at_k"] = {
            "k": [list(r) for r in rows],
            "coordinates": [str(c) for c in evaluated],
            "independent": ok,
            "kernel": None if kernel is None else [str(v) for v in kernel],
        }
    emit(doc, args.json)
    return 0


def cmd_certify(args):
    sc = parse_algebra(args.algebra)
    t0 = time.time()
    cert = certify_greatness(sc, args.m, budget=args.budget, seed=args.seed)
    report_elapsed(time.time() - t0)
    doc = cert.to_json_dict()
    doc["provenance"] = provenance(args, sc)
    if args.verify:
        doc["reverified"] = cert.verify(sc)
        if not doc["reverified"]:
            emit(doc, args.json)
            return 1
    emit(doc, args.json)
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
    from .words import nice_pair_search

    sc = catalog.example_5_6()
    t0 = time.time()
    cert2 = certify_greatness(sc, 2, budget=args.budget, seed=args.seed)
    cert4 = certify_greatness(sc, 4, budget=args.budget, seed=args.seed)
    gens = [LieVector.basis(sc.dim, 0), LieVector.basis(sc.dim, 1)]
    search = nice_pair_search(sc, gens, p=3, budget=args.words_budget, q_max=10)
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
        "provenance": provenance(args, sc),
    }
    emit(doc, args.json)
    return 0 if confirmed else 1


def cmd_words(args):
    from .words import nice_pair_search

    sc = parse_algebra(args.algebra)
    if args.generator:
        gens = parse_generators(sc, args.generator)
    else:
        gens = [LieVector.basis(sc.dim, i) for i in range(args.m)]
    res = nice_pair_search(
        sc, gens, p=args.p, tau=args.tau, q_max=args.qmax, budget=args.budget
    )
    doc = {
        "level": args.p,
        "found": res.found,
        "tried": res.tried,
        "zero_candidates": res.zero_count,
        "provenance": provenance(args, sc),
    }
    if res.found:
        doc.update(
            {
                "w1": list(res.pair.w1.letters),
                "w2": list(res.pair.w2.letters),
                "k_sequence": [list(k) for k in res.pair.k_sequence],
                "level_vector": list(res.level_vector),
                "gamma_hat": res.report.gamma_hat,
                "tau": res.report.tau,
                "q_max": res.report.q_max,
                "worst_n": list(res.report.worst_n),
                "float_error_bound": res.report.float_error_bound,
            }
        )
    emit(doc, args.json)
    return 0 if res.found else 1


def cmd_gap(args):
    from .walk import gap_profile

    config = resolve_config(args)
    entries = gap_profile(config, args.radius)
    gaps = [1.0 - e.modulus for e in entries]
    doc = {
        "radius": args.radius,
        "entries": [
            {
                "lam": list(e.lam),
                "norm": e.norm,
                "eigenvalue": _cnum(e.eigenvalue),
                "modulus": e.modulus,
                "resonant": e.resonant,
            }
            for e in entries
        ],
        "min_gap": min(gaps),
        "resonant_count": sum(e.resonant for e in entries),
        "provenance": provenance(args, config.sc),
    }
    emit(doc, args.json)
    if args.min_gap is not None and doc["min_gap"] < args.min_gap:
        return 1
    return 0


def cmd_correlate(args):
    from .walk import correlation_sweep, transfer_eigenvalue

    config = resolve_config(args)
    char = parse_character(args.character, config.dim)
    times = [int(x) for x in args.times.split(",")]
    sweep = correlation_sweep(config, [char], times, args.samples, args.seed)
    points = sweep[char]
    c, _ = transfer_eigenvalue(config, char)
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
    from .stats import clt_experiment

    config = resolve_config(args)
    char = parse_character(args.character, config.dim)
    rep = clt_experiment(config, char, N=args.N, trials=args.trials, seed=args.seed)
    doc = {
        "N": rep.N,
        "trials": rep.trials,
        "eigenvalue": _cnum(rep.eigenvalue),
        "sigma_model": rep.sigma_model,
        "sigma_martingale": rep.sigma_martingale,
        "sigma_empirical": rep.sigma_empirical,
        "ks_statistic": rep.ks_statistic,
        "ks_pvalue": rep.ks_pvalue,
        "mean": rep.mean,
        "degenerate": rep.degenerate,
        "provenance": provenance(args, config.sc),
    }
    emit(doc, args.json)
    if rep.degenerate:
        return 1
    if args.max_ks is not None and rep.ks_statistic > args.max_ks:
        return 1
    return 0


def cmd_lemma_a1(args):
    from .stats import lemma_a1_check

    rep = lemma_a1_check(grid=args.grid)
    doc = {
        "ok": rep.ok,
        "min_residual": rep.min_residual,
        "argmin": rep.argmin,
        "grid": rep.grid,
        "provenance": provenance(args),
    }
    emit(doc, args.json)
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
        help="witness tries per level; a level whose structured tries all give"
        " the zero pencil is decided symbolically before the budget runs out",
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
    sp.add_argument("--min-gap", type=float, default=None)
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
        type=float,
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
    sp.add_argument("--max-ks", type=float, default=None)
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
    try:
        return args.func(args)
    except _input_errors() as e:  # evaluated only once something raised
        print(f"error: {e}", file=sys.stderr)
        return 2


def _input_errors():
    """The exceptions that mean bad input, exit code 2.  The walk-side
    ones load numpy, so they are looked up only on the error path."""
    from .coords import LatticeError
    from .stats import ResonanceError
    from .walk import ObservableError

    return (KeyError, ValueError, OSError, LieAlgebraError, LatticeError, ObservableError, ResonanceError)


if __name__ == "__main__":
    sys.exit(main())

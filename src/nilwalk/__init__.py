"""Exact certification of nilpotent Lie algebra pencils and random walks
on the associated nilmanifolds."""

import importlib.util
import sys

from .bch import Word, bch_product, bch_word_coefficients, word_eval
from .catalog import CATALOG, build, default_corpus
from .lie_core import (
    CentralSeries,
    JacobiReport,
    LieAlgebraError,
    LieVector,
    NotAdaptedError,
    NotNilpotentError,
    StructureConstants,
    algebra_from_json,
    algebra_to_json,
    check_jacobi,
    direct_product,
    load_algebra,
    lower_central_series,
    project,
    quotient_algebra,
    rescale_levels,
    save_algebra,
)
from .pencil import (
    GreatnessCertificate,
    LevelCertificate,
    MultiPoly,
    PolyRing,
    build_pencil,
    certify_greatness,
    linearly_independent,
    pencil_at_k,
)


def _lazy_module(name):
    """nilwalk.<name> registered in sys.modules but not yet run: it runs,
    importing numpy, on its first attribute access.  Registering it keeps
    every submodule visible to code that looks modules up by name, such
    as bench/tracing.py."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# The float half (coords, walk, stats) and the Diophantine scans (words)
# run on numpy; the exact half never does, so importing nilwalk for an
# exact command does not load numpy.  Their names resolve on first use.
coords, stats, walk, words = (_lazy_module(n) for n in ("coords", "stats", "walk", "words"))
_LAZY_NAMES = {
    "coords": ("LatticeError", "SecondKindSystem"),
    "stats": (
        "CLTReport",
        "LemmaReport",
        "ResonanceError",
        "clt_experiment",
        "closed_form_sigma",
        "lemma_a1_check",
    ),
    "walk": (
        "Character",
        "CorrelationPoint",
        "DecayFit",
        "GapEntry",
        "ObservableError",
        "WalkConfig",
        "abelianized_lambda_box",
        "correlation_sweep",
        "gap_profile",
        "golden_heisenberg_config",
        "tame_decay_fit",
        "transfer_eigenvalue",
        "validate_observable",
        "walk_config",
    ),
    "words": (
        "DiophantineReport",
        "IdentityCheck",
        "NicePairSearch",
        "WordPair",
        "build_lr",
        "diophantine_estimate",
        "nice_pair_search",
        "verify_word_bracket_identity",
    ),
}
_LAZY = {name: mod for mod, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return getattr(globals()[_LAZY[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

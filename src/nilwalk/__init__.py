"""Exact certification of nilpotent Lie algebra pencils and random walks
on the associated nilmanifolds."""

from .bch import Word, bch_product, bch_word_coefficients, word_eval
from .catalog import CATALOG, build, default_corpus
from .coords import LatticeError, SecondKindSystem
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
    Pencil,
    PolyRing,
    build_pencil,
    certify_greatness,
    evaluate_at_k,
    linearly_independent,
    pencil_at_k,
)
from .stats import (
    CLTReport,
    LemmaReport,
    ResonanceError,
    clt_experiment,
    closed_form_sigma,
    lemma_a1_check,
)
from .walk import (
    Character,
    CorrelationPoint,
    DecayFit,
    GapEntry,
    ObservableError,
    WalkConfig,
    abelianized_lambda_box,
    correlation_sweep,
    gap_profile,
    golden_heisenberg_config,
    tame_decay_fit,
    transfer_eigenvalue,
    validate_observable,
    walk_config,
)
from .words import (
    DiophantineReport,
    IdentityCheck,
    NicePairSearch,
    WordPair,
    build_lr,
    diophantine_estimate,
    nice_pair_search,
    verify_word_bracket_identity,
)

__version__ = "0.1.0"

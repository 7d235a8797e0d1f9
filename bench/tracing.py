"""Per-layer tracing of nilwalk from outside the package.

A Tracer rebinds the public functions and methods of each nilwalk module
to timing wrappers at run time and restores them afterwards; no source
file is edited.  A function imported by name into another module (for
example ``coords.bch_coords``) is rebound there too, so every call site
goes through the wrapper.

Each wrapper records a span.  Spans are aggregated in memory per
(function, phase) instead of being stored one by one: the words
workload makes hundreds of thousands of bracket calls per round.  A
span's self time is its duration minus the time covered by the spans it
caused, so the self times of all spans add up to the traced wall time
that lies under some span.

Counters are recorded at the same boundaries, from the arguments and
results of the wrapped call, so ratios are measured where the work is
done.  Every counter depends only on the inputs, never on timing, and
repeats exactly between runs at one seed.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

# (metric prefix, module, class or None, attribute or attributes).  The
# prefix names the layer as <module>.<function>; methods use the name users
# know them by.  pencil.multipoly is the polynomial arithmetic that the
# generic bracket runs when its scalars are MultiPoly: without it that
# time would be booked to lie_core.bracket_coords.
SPANS = (
    ("lie_core.bracket_coords", "lie_core", "StructureConstants", "bracket_coords"),
    ("lie_core.lower_central_series", "lie_core", None, "lower_central_series"),
    ("lie_core.check_jacobi", "lie_core", None, "check_jacobi"),
    ("catalog.random_step3", "catalog", None, "random_step3"),
    ("bch.bch_coords", "bch", None, "bch_coords"),
    ("pencil.certify_greatness", "pencil", None, "certify_greatness"),
    ("pencil.pencil_at_k", "pencil", None, "pencil_at_k"),
    ("pencil.build_pencil", "pencil", None, "build_pencil"),
    ("pencil.linearly_independent", "pencil", None, "linearly_independent"),
    ("pencil.verify", "pencil", "GreatnessCertificate", "verify"),
    (
        "pencil.multipoly",
        "pencil",
        "MultiPoly",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"),
    ),
    ("linalg.left_kernel_vector", "linalg", None, "left_kernel_vector"),
    ("linalg.rref", "linalg", None, "rref"),
    ("words.verify_word_bracket_identity", "words", None, "verify_word_bracket_identity"),
    ("words.word_pair_logs", "words", None, "word_pair_logs"),
    ("words.nice_pair_search", "words", None, "nice_pair_search"),
    ("words.diophantine_estimate", "words", None, "diophantine_estimate"),
    ("coords.compiled_map", "coords", "CompiledMap", "__call__"),
    ("coords.reduce_batch", "coords", "SecondKindSystem", "reduce_batch"),
    ("coords.translation_map", "coords", "SecondKindSystem", "translation_map"),
    ("coords.reduction_map", "coords", "SecondKindSystem", "reduction_map"),
    ("coords.verify_lattice", "coords", "SecondKindSystem", "verify_lattice"),
    ("walk.advance", "walk", None, "advance"),
    ("walk.validate_observable", "walk", None, "validate_observable"),
    ("walk.correlation_sweep", "walk", None, "correlation_sweep"),
    ("stats.clt_experiment", "stats", None, "clt_experiment"),
)

MODULES = ("lie_core", "catalog", "bch", "pencil", "linalg", "words", "coords", "walk", "stats")
PHASES = ("setup", "timed")

# Metrics that are not a plain <span>.calls or <span>.self_s, with units.
EXTRA_METRICS = (
    ("lie_core.bracket_coords.calls_frac", "count"),
    ("lie_core.bracket_coords.calls_poly", "count"),
    ("pencil.witness_yield", "ratio"),
    ("linalg.left_kernel_vector.cells", "count"),
    ("words.nice_pair_search.nonzero_yield", "ratio"),
    ("words.diophantine_estimate.points", "count"),
    ("coords.compiled_map.rows", "count"),
    ("coords.compiled_map.term_evals", "count"),
    ("coords.reduce_batch.rmap_calls", "count"),
    ("coords.translation_map.compile_s", "s"),
    ("coords.reduction_map.compile_s", "s"),
    ("walk.advance.sample_steps", "count"),
)


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for name, *_ in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += list(EXTRA_METRICS)
    for mod in MODULES:
        out += [
            (f"{mod}.setup_self_s", "s"),
            (f"{mod}.timed_self_s", "s"),
            (f"{mod}.timed_calls", "count"),
        ]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class _Span:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wraps the layers of one imported nilwalk package.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.  ``phase`` names the phase that
    new spans are booked to; while it is None nothing is recorded.  It
    may only change while no span is open.
    """

    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.spans = defaultdict(_Span)  # (name, phase) -> _Span
        self.counts = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._undo = []
        self._map_terms = weakref.WeakKeyDictionary()  # CompiledMap -> term count
        self._reduction_maps = weakref.WeakSet()
        self._poly_type = None

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        mods = {m: sys.modules[f"{self.package.__name__}.{m}"] for m in MODULES}
        self._poly_type = mods["pencil"].MultiPoly
        cmap = mods["coords"].CompiledMap
        self._rebind(cmap, "__init__", self._count_terms(cmap.__init__))
        for name, mod, cls, attrs in SPANS:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            hook = getattr(self, "_on_" + name.replace(".", "_"), None)
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, hook)
                if cls:
                    self._rebind(owner, attr, wrapper)
                    continue
                # rebind the function wherever the package holds a reference to it
                for module in self._package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _package_modules(self):
        top = self.package.__name__
        return [m for n, m in list(sys.modules.items()) if n == top or n.startswith(top + ".")]

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, on_call):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span = spans[(name, self.phase)]
                span.calls += 1
                span.total += dt
                span.self += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def _count_terms(self, init):
        terms = self._map_terms

        @functools.wraps(init)
        def wrapper(cmap, n_in, polys, *args, **kwargs):
            polys = list(polys)
            init(cmap, n_in, polys, *args, **kwargs)
            terms[cmap] = sum(len(p.terms) for p in polys)

        return wrapper

    # -- counters, one hook per span that has them -------------------------------

    def _on_lie_core_bracket_coords(self, args, kwargs, result):
        _, xs, ys = args[:3]
        poly = self._poly_type
        if any(type(v) is poly for v in xs) or any(type(v) is poly for v in ys):
            self.counts["lie_core.bracket_coords.calls_poly"] += 1
        else:
            self.counts["lie_core.bracket_coords.calls_frac"] += 1

    def _on_pencil_certify_greatness(self, args, kwargs, cert):
        self.counts["pencil.witness_tries"] += sum(lv.tried for lv in cert.levels)
        self.counts["pencil.witnesses"] += sum(lv.status == "witness" for lv in cert.levels)

    def _on_linalg_left_kernel_vector(self, args, kwargs, result):
        rows = args[0]
        if rows:
            self.counts["linalg.left_kernel_vector.cells"] += len(rows) * len(rows[0])

    def _on_words_nice_pair_search(self, args, kwargs, res):
        self.counts["words.candidates"] += res.tried
        self.counts["words.nonzero_candidates"] += res.tried - res.zero_count

    def _on_words_diophantine_estimate(self, args, kwargs, rep):
        # the scan box 0 < |n|_inf <= q_max in dimension d
        self.counts["words.diophantine_estimate.points"] += (2 * rep.q_max + 1) ** len(rep.vector) - 1

    def _on_coords_compiled_map(self, args, kwargs, result):
        cmap, x = args[0], args[1]
        rows = len(x) if getattr(x, "ndim", 1) > 1 else 1
        self.counts["coords.compiled_map.rows"] += rows
        self.counts["coords.compiled_map.term_evals"] += rows * self._map_terms[cmap]
        if cmap in self._reduction_maps:
            self.counts["coords.reduce_batch.rmap_calls"] += 1

    def _on_coords_reduction_map(self, args, kwargs, cmap):
        self._reduction_maps.add(cmap)

    def _on_walk_advance(self, args, kwargs, result):
        self.counts["walk.advance.sample_steps"] += len(args[1])

    # -- report -------------------------------------------------------------------

    def metrics(self, overhead_ratio):
        """Per-layer metric values keyed as metric_units() names them."""
        out = {}
        for name, *_ in SPANS:
            spans = [self.spans.get((name, ph), _Span()) for ph in PHASES]
            out[f"{name}.calls"] = sum(s.calls for s in spans)
            out[f"{name}.self_s"] = sum(s.self for s in spans)
        c = self.counts
        for key, _ in EXTRA_METRICS:
            out[key] = c.get(key, 0)
        out["pencil.witness_yield"] = _ratio(c["pencil.witnesses"], c["pencil.witness_tries"])
        out["words.nice_pair_search.nonzero_yield"] = _ratio(
            c["words.nonzero_candidates"], c["words.candidates"]
        )
        for name in ("coords.translation_map", "coords.reduction_map"):
            # inclusive time: compiling is the child work the call causes
            out[f"{name}.compile_s"] = sum(
                self.spans.get((name, ph), _Span()).total for ph in PHASES
            )
        for mod in MODULES:
            for ph in PHASES:
                out[f"{mod}.{ph}_self_s"] = sum(
                    s.self for (n, p), s in self.spans.items() if p == ph and n.split(".")[0] == mod
                )
            out[f"{mod}.timed_calls"] = sum(
                s.calls for (n, p), s in self.spans.items() if p == "timed" and n.split(".")[0] == mod
            )
        out["trace.overhead_ratio"] = overhead_ratio
        return out


def _ratio(num, den):
    return num / den if den else 0.0

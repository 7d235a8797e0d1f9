"""The benchmark's layer tracer must still find every layer it wraps.

bench/tracing.py rebinds nilwalk functions by name; renaming or deleting a
traced layer breaks `bench/run.py --trace 1`, so entering the tracer here
makes that a test failure.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import nilwalk
from nilwalk import catalog, linalg, pencil, stats, walk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("nilwalk_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return (linalg.rref, linalg.left_kernel_vector, pencil.pencil_at_k, pencil.MultiPoly.__mul__)


def test_tracer_wraps_and_restores_every_layer():
    tracing = _tracing_module()
    originals = _layers()
    # certify decides every try by integer evaluation, so pencil_at_k and
    # the polynomial rank run in verify, on a witness with a Fraction entry
    sc = catalog.example_5_6()
    half = pencil.LevelCertificate(p=1, status="witness", witness=((Fraction(1, 2), 0), (0, 3)))
    with tracing.Tracer(nilwalk) as tracer:
        assert all(a is not b for a, b in zip(_layers(), originals))
        cert = pencil.certify_greatness(sc, 2)
        assert cert.verify(sc)
        fraction_cert = pencil.GreatnessCertificate(m=2, step=2, levels=(half,))
        assert fraction_cert.verify(catalog.heisenberg())
    assert _layers() == originals
    metrics = tracer.metrics(overhead_ratio=1.0)
    assert [name for name, _ in tracing.metric_units()] == list(metrics)
    assert metrics["pencil.certify_greatness.calls"] == 1
    assert metrics["pencil.pencil_at_k.calls"] >= 1
    assert metrics["linalg.left_kernel_vector.calls"] >= 1


def test_tracer_counts_walk_sample_steps():
    """walk.advance.sample_steps reads the batch from advance's second
    argument: every path of every chunk, once per step."""
    tracing = _tracing_module()
    cfg = walk.golden_heisenberg_config()
    ch = walk.Character((1, 0, 0))
    with tracing.Tracer(nilwalk) as tracer:
        walk.correlation_sweep(cfg, [ch], [3, 5], samples=200, seed=1)
        stats.clt_experiment(cfg, ch, N=4, trials=150, seed=1)
    metrics = tracer.metrics(overhead_ratio=1.0)
    assert metrics["walk.advance.calls"] == 5 + 4
    assert metrics["walk.advance.sample_steps"] == 200 * 5 + 150 * 4

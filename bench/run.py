"""Benchmark of nilwalk: the certify, words and walk workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single caller issues
each operation after the previous one returns.  Set-up builds the inputs
from the seed, then the timed phase repeats the same round of operations
until ``--seconds`` have passed.  Every operation's output is checked.

An operation is a certificate (certify_greatness plus its verify), an
identity check or a pair search (words), or a walk sample-step.  The
operations are deterministic, so each one's cost is taken as its fastest
repetition in the run: other processes on a shared machine only ever add
time, and on a shared 2-core machine identical rounds were measured up to
75 % slower than the fastest one.  A slowdown can also last a whole run,
so between rounds the run times a fixed reference_work() that does not
touch nilwalk, and divides every operation time by the ratio of that
work's fastest time to REF_NOMINAL_S.  The report line holds the ratio
and the unscaled values.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

    setup_s      median time to import nilwalk and set the workload up,
                 over SETUP_SAMPLES fresh processes
    ops_per_s    operations in a round over the sum of their fastest times
    op_p50_ms,   median and 90th percentile over the round's operations
    op_p90_ms    of their latency; for walk, whose sample-steps run in
                 batches, of its correlation_sweep and clt_experiment calls
    peak_rss_mb  peak resident memory of the process

With ``--trace 1`` one round runs untraced and then, after a fresh set-up,
traced, and the last line carries the per-layer metrics of bench/tracing.py.
The two rounds must give the same output digest.

The line before the last holds a report: the environment, the output
digest (SHA-256 of the round's canonical output), sample counts and the
failed-operation ratio.  The benchmark pins NILWALK_WORKERS and the BLAS
thread counts to 1, so it measures the program and not the scheduler.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 3
REF_CALLS_PER_ROUND = 3
# about the fastest reference_work() time on an idle 2.1 GHz Xeon core, so
# that scaled times read close to unscaled ones on a quiet machine
REF_NOMINAL_S = 0.002
PROBE_TIMEOUT_S = 120

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_environment():
    os.environ["NILWALK_WORKERS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_nilwalk():
    """Import the nilwalk of this checkout, never an installed copy."""
    if not (SRC / "nilwalk" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nilwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nilwalk

    if not Path(nilwalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported nilwalk from {nilwalk.__file__}, not {SRC}")
    return nilwalk


def timed_setup(workload, seed):
    """Import nilwalk and set the workload up; returns (nilwalk, ops, seconds)."""
    from workloads import SETUPS

    t0 = time.perf_counter()
    nw = import_nilwalk()
    ops = SETUPS[workload](nw, seed)
    return nw, ops, time.perf_counter() - t0


def probe_setup(workload, seed):
    """Set-up time of one fresh process, as a CLI user pays it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_round(ops, tracer=None):
    """Run every op once; time, check and canonicalize each output."""
    latencies, canon, failures = [], [], []
    failed = 0
    for op in ops:
        if tracer is not None:
            tracer.phase = "timed"
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failed += op.weight
            failures.append(f"{op.label}: {traceback.format_exc()}")
            canon.append([op.label, "raised"])
            continue
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.phase = None  # checking is not the program's work
        reason = op.check(out)
        if reason is not None:
            failed += op.weight
            failures.append(f"{op.label}: {reason}")
        canon.append(op.canon(out))
    blob = json.dumps(canon, sort_keys=True).encode()
    return {
        "latencies": latencies,
        "attempted": sum(op.weight for op in ops),
        "failed": failed,
        "failures": failures,
        "digest": hashlib.sha256(blob).hexdigest(),
    }


def environment(nw, seed):
    import numpy
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nilwalk": nw.__version__,
        "nproc": cpus,
        "NILWALK_WORKERS": os.environ["NILWALK_WORKERS"],
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def reference_work():
    """Fixed work that does not touch nilwalk: exact Fraction arithmetic and
    small numpy array operations, the two kinds of work the workloads do."""
    import numpy  # only after set-up, which times the import

    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    x = numpy.linspace(0.0, 1.0, 4096)
    for _ in range(40):
        x = numpy.sin(x) * 1.0001
    return acc, x


def round_metrics(ops, best):
    """Throughput and latency of one round from each op's time."""
    best_ms = [1000.0 * x for x in best]
    p90 = statistics.quantiles(best_ms, n=10)[8] if len(best) > 1 else best_ms[0]
    return {
        "ops_per_s": metric(sum(op.weight for op in ops) / sum(best), "1/s"),
        "op_p50_ms": metric(statistics.median(best_ms), "ms"),
        "op_p90_ms": metric(p90, "ms"),
    }


def measure(args):
    nw, ops, setup_main = timed_setup(args.workload, args.seed)
    rounds, refs = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(ops))
        for _ in range(REF_CALLS_PER_ROUND):
            t0 = time.perf_counter()
            reference_work()
            refs.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_main] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    # Every round repeats the same deterministic operations, and
    # interference from other processes only ever adds time, so each
    # operation's fastest repetition is the best estimate of its cost.
    # Whole runs can still land in a window where the machine is slow
    # throughout; the reference work's fastest time in the same run
    # measures that slowdown, and the times are scaled back by it.
    best = [min(times) for times in zip(*(r["latencies"] for r in rounds))]
    slowdown = min(refs) / REF_NOMINAL_S
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = sorted({r["digest"] for r in rounds})
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    metrics.update(round_metrics(ops, [b / slowdown for b in best]))
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    report = {
        "workload": args.workload,
        "environment": environment(nw, args.seed),
        "digest": digests[0] if len(digests) == 1 else digests,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "slowdown": slowdown,
        "unscaled": round_metrics(ops, best),
        "setup_samples_s": setups,
        "failed_ratio": metric(failed / attempted, "ratio"),
        "failures": summarize([f for r in rounds for f in r["failures"]]),
    }
    correct = failed == 0 and len(digests) == 1
    return report, correct, attempted, failed, metrics


def measure_traced(args):
    from tracing import MODULES, Tracer, metric_units
    from workloads import SETUPS

    nw, ops, _ = timed_setup(args.workload, args.seed)
    plain = run_round(ops)
    with Tracer(nw) as tracer:
        traced = run_round(SETUPS[args.workload](nw, args.seed), tracer)
    values = tracer.metrics(sum(traced["latencies"]) / sum(plain["latencies"]))
    metrics = {name: metric(values[name], unit) for name, unit in metric_units()}

    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    shares = {}
    for phase in ("setup", "timed"):
        total = sum(values[f"{mod}.{phase}_self_s"] for mod in MODULES)
        shares[phase] = {mod: values[f"{mod}.{phase}_self_s"] / total for mod in MODULES}
    report = {
        "workload": args.workload,
        "environment": environment(nw, args.seed),
        "digest": plain["digest"],
        "traced_digest": traced["digest"],
        "self_time_share": shares,
        "failed_ratio": metric(failed / attempted, "ratio"),
        "failures": summarize(plain["failures"] + traced["failures"]),
    }
    correct = failed == 0 and plain["digest"] == traced["digest"]
    return report, correct, attempted, failed, metrics


def summarize(failures, keep=5):
    """Print every failure to stderr; keep the last line of the first few."""
    for f in failures:
        print(f, file=sys.stderr)
    return [f.strip().splitlines()[-1] for f in failures[:keep]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "words", "walk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    pin_environment()

    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)[2]))
        return 0
    measure_fn = measure_traced if args.trace else measure
    report, correct, attempted, failed, metrics = measure_fn(args)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

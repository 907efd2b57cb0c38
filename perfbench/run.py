#!/usr/bin/env python3
"""structran benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Workloads: train, decode-ar, decode-long (see perfbench/README.md; the
first two are the ones BENCHMARK.json lists).  Every time is wall time
scaled to a reference speed of the host (see Stopwatch).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--fast`` runs
one set-up and the fewest rounds, for the benchmark's own tests.  The exit
code is nonzero when an output check fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Per-layer metrics that the final JSON line carries with --trace 1.  Times
# are listed only for functions that every workload calls; the times of the
# training-only and decoder-only functions, and every *.bw_ms, appear in the
# printed table and the span file.
SHARED_TIMED = [
    "model.Model.prepare", "model.Model.complete", "model.Model.encode",
    "model.Model.fertility_head", "model.Model.compose_intermediate",
    "model.Model.reordering_scores", "model.Model.mixing_weights",
    "model.Model.token_distributions", "model.Model.output_distributions",
    "fertility.length_distribution", "fertility.marginal_fertility",
    "fertility.log_length_probability", "reordering.expected_permutation",
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true")
    return parser.parse_args(argv)


def import_program():
    """Import structran from this checkout's src/ and nowhere else."""
    if not (SRC / "structran" / "__init__.py").is_file():
        raise SystemExit(f"error: no structran sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import structran
    if Path(structran.__file__).resolve().parent != SRC / "structran":
        raise SystemExit(f"error: structran imported from {structran.__file__}")


# The host's speed changes by up to 2x for tens of seconds at a time, with
# other load on the machine, and every time measured meanwhile moves with it.
# So each timed stretch is bracketed by timings of a fixed reference kernel
# and scaled to the speed at which that kernel takes REFERENCE_MS.  The kernel
# mixes what the program spends its time on (Python arithmetic and calls,
# small objects, small matrix products, scattered reads from a few MB) and
# does not touch structran, so a slower program still reads slower.
REFERENCE_MS = 0.65
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((32, 32)) / 8
_TABLE = _RNG.standard_normal(1 << 19)                # 4 MB
_GATHER = _RNG.integers(0, len(_TABLE), 60_000)


def _reference_kernel():
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    items = {(i, i % 7): [i, str(i)] for i in range(400)}
    for key, value in items.items():
        total += len(value[1]) + key[1]
    m = _MATRIX
    for _ in range(30):
        m = np.tanh(_MATRIX @ m)
    return total + float(_TABLE[_GATHER].sum()) + float(m.sum())


def reference_ms():
    """Fastest of eight timings of the reference kernel, in ms.

    Of the estimates tried (median or mean of three, median, mean or
    minimum of eight), the minimum of eight tracked the example times best.
    """
    times = []
    for _ in range(8):
        t0 = time.perf_counter_ns()
        _reference_kernel()
        times.append(time.perf_counter_ns() - t0)
    return min(times) / 1e6


class Stopwatch:
    """Wall time in laps, each also scaled to the reference speed.

    A lap's wall time is multiplied by REFERENCE_MS over the mean of the
    reference timings taken just before and just after it.  The reference
    timings themselves fall outside every lap.
    """

    def __init__(self):
        self.reference = reference_ms()
        self.started = time.perf_counter_ns()

    def restart(self):
        self.started = time.perf_counter_ns()

    def lap(self):
        """(wall ms, scaled ms) since the last restart or lap."""
        ms = (time.perf_counter_ns() - self.started) / 1e6
        reference = reference_ms()
        scaled = ms * 2.0 * REFERENCE_MS / (self.reference + reference)
        self.reference = reference
        self.started = time.perf_counter_ns()
        return ms, scaled


def timed_setup(workload, seed, repeats, watch):
    """Median scaled time of `repeats` identical set-ups, in s, and the last state.

    A set-up is timed in laps between its checkpoints, so that its scaling
    follows the host's speed along the way.
    """
    times, prints, state = [], [], None
    for _ in range(repeats):
        laps = []
        watch.restart()
        state = workload.setup(seed, lambda: laps.append(watch.lap()))
        laps.append(watch.lap())
        times.append(sum(scaled for _, scaled in laps) / 1000.0)
        prints.append(state.fingerprint())
    return statistics.median(times), state, all(p == prints[0] for p in prints)


def timed_phase(workload, state, seconds, tracer, watch):
    """Whole rounds until `seconds` have passed and min_examples are done.

    With a tracer, rounds alternate untraced and traced, so that the
    traced rounds give the per-layer figures and the overhead of tracing.
    Returns (wall ms, scaled ms) of every untraced and every traced example,
    the number of operations attempted and the failure messages.
    """
    plain, traced_times = [], []
    attempted, failures = 0, []

    def account(results):
        nonlocal attempted
        attempted += len(results)
        failures.extend(msg for msg in results if msg is not None)

    started = time.perf_counter()
    index = 0
    while (index < workload.min_rounds() or time.perf_counter() - started < seconds
           or (tracer is not None and index % 2 == 1)):
        account(workload.before_round(state, index))
        sources = state.rounds[index % len(state.rounds)]
        traced = tracer is not None and index % 2 == 1
        times = traced_times if traced else plain
        outputs = []
        if traced:
            tracer.install()
        for source in sources:
            if traced:
                tracer.example += 1
            watch.restart()
            try:
                outputs.append(workload.run(state, source))
            except Exception as exc:  # a crash is one failed operation
                outputs.append(exc)
            times.append(watch.lap())
        if traced:
            tracer.uninstall()
        account([f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                 else workload.check(state, source, out)
                 for source, out in zip(sources, outputs)])
        account(workload.after_round(state, index))
        index += 1
    return plain, traced_times, attempted, failures


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads
    from tracer import SPAN_NAMES, Tracer, NODES

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](fast=args.fast)
    repeats = 1 if args.fast else workload.setup_repeats
    seconds = 0.0 if args.fast else args.seconds

    watch = Stopwatch()
    setup_s, state, setups_agree = timed_setup(workload, args.seed, repeats, watch)
    tracer = Tracer() if args.trace else None
    plain, traced, attempted, failures = timed_phase(workload, state, seconds, tracer, watch)
    plain_ms = [scaled for _, scaled in plain]
    traced_ms = [scaled for _, scaled in traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for msg in failures:
        print(f"failed: {msg}", file=sys.stderr)
    if args.trace:
        layers = tracer.per_example(len(traced_ms))
        p50, plain_p50 = statistics.median(traced_ms), statistics.median(plain_ms)
        print(f"{'layer':<40} {'calls':>9} {'ms':>10} {'self_ms':>10} {'bw_ms':>10}")
        for name in SPAN_NAMES:
            print(f"{name:<40} {layers[name + '.calls']:>9.3f} {layers[name + '.ms']:>10.4f} "
                  f"{layers[name + '.self_ms']:>10.4f} {layers[name + '.bw_ms']:>10.4f}")
        print(f"{NODES} {layers[NODES]:.3f} per example; traced example_ms.p50 {p50:.3f} "
              f"vs untraced {plain_p50:.3f} over {len(traced_ms)}/{len(plain_ms)} examples")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {NODES: (layers[NODES], "count")}
        metrics.update({f"{name}.calls": (layers[f"{name}.calls"], "count")
                        for name in SPAN_NAMES})
        for name in SHARED_TIMED:
            metrics[f"{name}.ms"] = (layers[f"{name}.ms"], "ms")
            metrics[f"{name}.self_ms"] = (layers[f"{name}.self_ms"], "ms")
        metrics["trace.example_ms.p50"] = (p50, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (p50 / plain_p50 - 1.0), "%")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "example_ms.p50": (statistics.median(plain_ms), "ms"),
            "example_ms.tail": (float(np.percentile(plain_ms, workload.tail_pct)), "ms"),
            "examples_per_s": (len(plain_ms) / (sum(plain_ms) / 1000.0), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"{args.workload}: {len(plain_ms)} examples, tail = p{workload.tail_pct}, "
              f"{repeats} set-ups; wall-clock example_ms.p50 "
              f"{statistics.median(ms for ms, _ in plain):.3f}, reference kernel "
              f"{watch.reference:.4f} ms (scaled to {REFERENCE_MS} ms)")
    result = {
        "correct": setups_agree and bool(plain_ms),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] and not failures else 1


if __name__ == "__main__":
    sys.exit(main())

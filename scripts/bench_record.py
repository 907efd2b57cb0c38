#!/usr/bin/env python3
"""Run the benchmark that BENCHMARK.json declares and write one result file.

    python3 scripts/bench_record.py --out BENCH_7.json [--k 3] [--seed0 0]

Each workload listed in BENCHMARK.json runs k times, with seeds seed0 ..
seed0+k-1, for its run_seconds, one process after another.  The file
records the commit and the files that differ from it (untracked ones
included), the Python and numpy versions, nproc and the seeds, and per
workload the median and the spread (interquartile range over median) of
each end-to-end metric, the failed-operation count, and every run's
values.  Compare two files only when they were written on the same
machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def uncommitted_changes() -> list[str] | None:
    """Tracked files that differ from HEAD, then untracked files that are
    not ignored; None when git cannot tell."""
    changed = git("diff", "--name-only", "HEAD")
    untracked = git("ls-files", "--others", "--exclude-standard")
    if changed is None or untracked is None:
        return None
    return changed.splitlines() + untracked.splitlines()


def run_workload(command: list[str], name: str, seed: int, seconds: float) -> dict:
    """One benchmark process; its last line of output is the result JSON."""
    proc = subprocess.run(command + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: workload {name} seed {seed} printed nothing "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"error: workload {name} seed {seed}: last line is not a "
                         f"result (exit {proc.returncode})")
    result["exit_code"] = proc.returncode
    return result


def summarize(runs: list[dict], metric_names: list[str]) -> dict:
    metrics = {}
    for name in metric_names:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, q3 = np.percentile(values, [25, 75])
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "spread": float((q3 - q1) / median) if median else None,
            "values": values,
        }
    return {
        "metrics": metrics,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "all_correct": all(run["correct"] and run["exit_code"] == 0 for run in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("--k must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_names = [m["name"] for m in spec["end_to_end"]]
    seeds = list(range(args.seed0, args.seed0 + args.k))
    record = {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": uncommitted_changes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in seeds:
            runs.append(run_workload(spec["command"], name, seed, spec["run_seconds"]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {runs[-1]['metrics'][m]['value']:.4g}" for m in metric_names),
                file=sys.stderr)
        record["workloads"][name] = summarize(runs, metric_names)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

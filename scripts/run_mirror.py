#!/usr/bin/env python3
"""Train the mirror task end to end and report exact match per seed.

Example:

    python3 scripts/run_mirror.py --setup A --config configs/mirror_a.json \
        --seeds 0 1 2 --data-seed 1

Prints one row per seed (best dev exact match, test exact match with its
misses by cause, wall time) and the across-seed medians.  Each seed trains
as `structran train` does, from any config it accepts; with --out-dir its
files land there as seedN.ckpt, seedN.ckpt.meta.json and
seedN.ckpt.metrics.jsonl, which `structran predict` loads.
"""
import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from structran import data, training
from structran.cli import load_config_file, train_checkpoint


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", choices=list(data.MIRROR_SETUPS), required=True)
    parser.add_argument("--config", required=True, help="JSON model/training config")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--data-seed", type=int, default=1)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    model_raw, train_raw = load_config_file(args.config)
    splits = data.MIRROR_SETUPS[args.setup](args.data_seed)

    devs, tests = [], []
    print(f"setup {args.setup}, data seed {args.data_seed}, "
          f"config {args.config}")
    for seed in args.seeds:
        started = time.perf_counter()
        model, source_vocab, target_vocab, result = train_checkpoint(
            splits["train"], splits["dev"], {**model_raw, "seed": seed},
            {**train_raw, "seed": seed},
            Path(args.out_dir) / f"seed{seed}.ckpt" if args.out_dir else None)
        test = training.exact_match(model, data.encode_examples(
            splits["test"], source_vocab, target_vocab))
        wall = time.perf_counter() - started
        devs.append(result.best_dev)
        tests.append(test.rate)
        misses = ", ".join(f"{k} {v}" for k, v in test.misses().items())
        print(f"seed {seed}: dev {result.best_dev:.3f}  test {test.rate:.3f} "
              f"(misses: {misses})  ({wall:.0f}s)")
    print(f"median over {len(args.seeds)} seeds: "
          f"dev {statistics.median(devs):.3f}  "
          f"test {statistics.median(tests):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Train the mirror task end to end and report exact match per seed.

Example:

    python3 scripts/run_mirror.py --setup A --config configs/mirror_a.json \
        --seeds 0 1 2 --data-seed 1

Prints one row per seed (best dev exact match, test exact match with its
misses by cause, wall time) and the across-seed medians.  The config file
is read as `structran train` reads it.  Models and metrics land under
--out-dir when given; nothing is written otherwise.
"""
import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from structran import data, training
from structran.cli import build_model, load_config_file
from structran.model import ModelConfig


def run_seed(seed, splits, model_raw, train_raw, out_dir):
    source_vocab, target_vocab = data.build_vocabularies(splits["train"])
    encode = lambda name: data.encode_examples(splits[name], source_vocab,
                                               target_vocab)
    model_cfg = ModelConfig.from_dict({**model_raw,
                                       "source_vocab": len(source_vocab),
                                       "target_vocab": len(target_vocab),
                                       "seed": seed})
    train_cfg = training.TrainConfig.from_dict({**train_raw, "seed": seed})
    model = build_model(model_cfg, source_vocab, target_vocab)
    metrics_path = out_dir / f"seed{seed}.metrics.jsonl" if out_dir else None
    started = time.perf_counter()
    result = training.train(model, encode("train"), encode("dev"), train_cfg,
                            metrics_path=metrics_path)
    test = training.exact_match(model, encode("test"))
    wall = time.perf_counter() - started
    if out_dir:
        model.store.save(out_dir / f"seed{seed}.ckpt")
    return result.best_dev, test, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", choices=["A", "B"], required=True)
    parser.add_argument("--config", required=True, help="JSON model/training config")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--data-seed", type=int, default=1)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    model_raw, train_raw = load_config_file(args.config)
    generator = {"A": data.generate_mirror_A, "B": data.generate_mirror_B}
    splits = generator[args.setup](args.data_seed)

    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    devs, tests = [], []
    print(f"setup {args.setup}, data seed {args.data_seed}, "
          f"config {args.config}")
    for seed in args.seeds:
        dev, test, wall = run_seed(seed, splits, model_raw, train_raw, out_dir)
        devs.append(dev)
        tests.append(test.rate)
        misses = ", ".join(f"{k} {v}" for k, v in test.misses().items())
        print(f"seed {seed}: dev {dev:.3f}  test {test.rate:.3f} "
              f"(misses: {misses})  ({wall:.0f}s)")
    print(f"median over {len(args.seeds)} seeds: "
          f"dev {statistics.median(devs):.3f}  "
          f"test {statistics.median(tests):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: generate-data, train, predict, evaluate, gradcheck,
oracle-check.  Model and training hyperparameters come from a JSON
config file with two sections, "model" and "training"; unknown keys in
either section are errors.  A checkpoint CKPT is accompanied by
CKPT.meta.json (configs, vocabularies and the checkpoint's sha256) and
CKPT.metrics.jsonl (per-epoch training metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import checks, data, grammar as grammar_mod, inference, training
from .autodiff import UsageError, atomic_open
from .model import Model, ModelConfig


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_generate_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generator = {"A": data.generate_mirror_A, "B": data.generate_mirror_B}[args.setup]
    splits = generator(args.seed)
    for name, examples in splits.items():
        data.write_jsonl(out / f"{name}.jsonl", examples)
        print(f"wrote {len(examples)} examples to {out / f'{name}.jsonl'}")
    return 0


def load_config_file(path) -> tuple[dict, dict]:
    """The "model" and "training" sections of a config file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - {"model", "training"})
    if unknown:
        raise ValueError(f"unknown config sections: {', '.join(unknown)}")
    return dict(raw.get("model", {})), dict(raw.get("training", {}))


def build_model(config: ModelConfig, source_vocab: data.Vocabulary,
                target_vocab: data.Vocabulary) -> Model:
    """A fresh model; a copy decoder maps source to target ids by token."""
    copy_ids = None
    if config.decoder == "copy":
        copy_ids = data.copy_id_map(source_vocab, target_vocab)
    return Model(config, copy_ids=copy_ids)


def cmd_train(args) -> int:
    model_raw, train_raw = load_config_file(args.config)
    data_dir = Path(args.data)
    train_examples = data.read_jsonl(data_dir / "train.jsonl")
    dev_examples = data.read_jsonl(data_dir / "dev.jsonl")
    source_vocab, target_vocab = data.build_vocabularies(train_examples)
    model_raw.setdefault("source_vocab", len(source_vocab))
    model_raw.setdefault("target_vocab", len(target_vocab))
    model_config = ModelConfig.from_dict(model_raw)
    train_config = training.TrainConfig.from_dict(train_raw)
    model = build_model(model_config, source_vocab, target_vocab)
    train_pairs = data.encode_examples(train_examples, source_vocab, target_vocab)
    dev_pairs = data.encode_examples(dev_examples, source_vocab, target_vocab)
    ckpt = Path(args.out)
    if ckpt.parent != Path(""):
        ckpt.parent.mkdir(parents=True, exist_ok=True)
    result = training.train(model, train_pairs, dev_pairs, train_config,
                            metrics_path=f"{ckpt}.metrics.jsonl", log=print)
    model.store.save(ckpt)
    meta = {
        "model": model_config.to_dict(),
        "training": train_config.to_dict(),
        "source_vocab": source_vocab.id_to_token,
        "target_vocab": target_vocab.id_to_token,
        "best_dev": result.best_dev,
        "best_epoch": result.best_epoch,
        "checkpoint_sha256": _sha256(ckpt),
    }
    with atomic_open(f"{ckpt}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(f"best dev exact match {result.best_dev:.4f} "
          f"at epoch {result.best_epoch}; checkpoint {ckpt}")
    return 0


def load_checkpoint(ckpt) -> tuple[Model, data.Vocabulary, data.Vocabulary]:
    meta = _read_json(f"{ckpt}.meta.json")
    model_config = ModelConfig.from_dict(meta["model"])
    source_vocab = data.Vocabulary(list(meta["source_vocab"]))
    target_vocab = data.Vocabulary(list(meta["target_vocab"]))
    model = build_model(model_config, source_vocab, target_vocab)
    model.store.restore(ckpt)
    # the digest ties the weights to the configs and vocabularies beside them
    if meta.get("checkpoint_sha256") != _sha256(ckpt):
        raise UsageError(
            f"{ckpt} does not match {ckpt}.meta.json: the checkpoint's sha256 "
            f"differs from the one recorded when they were written together")
    return model, source_vocab, target_vocab


def cmd_predict(args) -> int:
    model, source_vocab, target_vocab = load_checkpoint(args.ckpt)
    g = grammar_mod.load_grammar(args.grammar) if args.grammar else None
    rows = data.read_fields(args.input, "source")
    with atomic_open(args.out, "w", encoding="utf-8") as out:
        for lineno, source in rows:
            try:
                result = inference.decode(model, source_vocab.encode(source),
                                          k=args.top_k, grammar=g,
                                          target_vocab=target_vocab)
            except (data.DatasetError, inference.InferenceError) as exc:
                raise data.DatasetError(
                    f"{args.input}: line {lineno}: {exc}") from exc
            out.write(json.dumps({
                "source": source,
                "tokens": target_vocab.decode(result.tokens),
                "length": result.length,
                "log_score": result.log_score,
            }) + "\n")
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    predictions = [tokens for _, tokens in data.read_fields(args.pred, "tokens")]
    references = [target for _, target in data.read_fields(args.gold, "target")]
    print(json.dumps({"exact_match": data.exact_match(predictions, references)}))
    return 0


def _report(results) -> int:
    failed = 0
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{status:4s} {res.name}: error {res.error:.3e} "
              f"(tolerance {res.tolerance:.0e})")
        failed += 0 if res.ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_gradcheck(args) -> int:
    return _report(checks.run_all_gradchecks(seed=args.seed))


def cmd_oracle_check(args) -> int:
    suites = [
        ("fertility vs enumeration", checks.fertility_oracle_suite(seed=args.seed), 1e-9),
        ("permutation vs enumeration", checks.permutation_oracle_suite(seed=args.seed), 1e-9),
        ("doubly stochastic", checks.stochasticity_suite(seed=args.seed), 1e-6),
    ]
    results = [checks.CheckResult(name, report["max_error"], tol)
               for name, report, tol in suites]
    return _report(results)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structran",
        description="Latent fertility/reordering sequence transduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write mirror-task JSONL splits")
    p.add_argument("--setup", choices=["A", "B"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate_data)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True,
                   help="directory holding train.jsonl and dev.jsonl")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="decode a JSONL file of sources")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--grammar", default=None)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="exact match of predictions vs gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("oracle-check", help="DP vs enumeration suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surfaced as exit code, not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

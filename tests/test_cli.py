"""Command-line surface: data generation, the tiny pipeline, check suites."""
import json
from pathlib import Path

import numpy as np
import pytest

from structran import checks, training
from structran.cli import load_checkpoint, main

MIRRORS = [(["a", "b"], ["a", "b", "b", "a"]),
           (["b", "c"], ["b", "c", "c", "b"]),
           (["c", "a"], ["c", "a", "a", "c"]),
           (["a", "b", "c"], ["a", "b", "c", "c", "b", "a"])]

TINY_CONFIG = {
    "model": {"embedding_dim": 6, "fertility_hidden": 4, "reorder_hidden": 4,
              "context_hidden": 4, "fertility_mlp": 4, "span_mlp": 4,
              "output_mlp": 4, "max_fertility": 2, "skip_scale": 0.0,
              "seed": 0},
    "training": {"epochs": 2, "lambda_guidance": 0.0, "seed": 0},
}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    write_jsonl(root / "train.jsonl",
                [{"source": s, "target": t} for s, t in MIRRORS])
    write_jsonl(root / "dev.jsonl",
                [{"source": ["b", "a"], "target": ["b", "a", "a", "b"]}])
    write_jsonl(root / "test.jsonl",
                [{"source": ["c", "b"], "target": ["c", "b", "b", "c"]}])
    return root


class TestGenerateData:
    def test_same_seed_writes_identical_bytes(self, tmp_path):
        for name in ("first", "second"):
            rc = main(["generate-data", "--setup", "A", "--seed", "1",
                       "--out", str(tmp_path / name)])
            assert rc == 0
        for split in ("train", "dev", "test"):
            a = (tmp_path / "first" / f"{split}.jsonl").read_bytes()
            b = (tmp_path / "second" / f"{split}.jsonl").read_bytes()
            assert a == b

    def test_split_sizes(self, tmp_path):
        assert main(["generate-data", "--setup", "B", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        sizes = {s: len((tmp_path / f"{s}.jsonl").read_text().splitlines())
                 for s in ("train", "dev", "test")}
        assert sizes == {"train": 4000, "dev": 200, "test": 1000}


class TestEvaluate:
    def test_identical_files_score_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        write_jsonl(pred, [{"tokens": t} for _, t in MIRRORS])
        write_jsonl(gold, [{"target": t} for _, t in MIRRORS])
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 0
        assert json.loads(capsys.readouterr().out) == {"exact_match": 1.0}

    def test_partial_match_fraction(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        write_jsonl(pred, [{"tokens": ["a"]}, {"tokens": ["b"]}])
        write_jsonl(gold, [{"target": ["a"]}, {"target": ["x"]}])
        main(["evaluate", "--pred", str(pred), "--gold", str(gold)])
        assert json.loads(capsys.readouterr().out) == {"exact_match": 0.5}

    def test_count_mismatch_is_an_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        write_jsonl(pred, [{"tokens": ["a"]}])
        write_jsonl(gold, [{"target": ["a"]}, {"target": ["b"]}])
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrainPredict:
    def test_tiny_pipeline(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        ckpt = tmp_path / "run" / "model.ckpt"

        rc = main(["train", "--config", str(config), "--data", str(corpus),
                   "--out", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        meta = json.loads((tmp_path / "run" / "model.ckpt.meta.json").read_text())
        assert {"model", "training", "source_vocab", "target_vocab",
                "best_dev", "best_epoch"} <= set(meta)
        metrics = (tmp_path / "run" / "model.ckpt.metrics.jsonl").read_text()
        assert len(metrics.splitlines()) == TINY_CONFIG["training"]["epochs"]

        out = tmp_path / "pred.jsonl"
        rc = main(["predict", "--ckpt", str(ckpt),
                   "--input", str(corpus / "test.jsonl"), "--out", str(out)])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 1
        assert set(rows[0]) == {"source", "tokens", "length", "log_score"}
        assert rows[0]["length"] == len(rows[0]["tokens"])

        # decoding is deterministic: a second pass writes the same bytes
        again = tmp_path / "pred2.jsonl"
        main(["predict", "--ckpt", str(ckpt),
              "--input", str(corpus / "test.jsonl"), "--out", str(again)])
        assert out.read_bytes() == again.read_bytes()

        rc = main(["evaluate", "--pred", str(out),
                   "--gold", str(corpus / "test.jsonl")])
        assert rc == 0
        assert "exact_match" in json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_grammar_and_top_k_flags(self, tmp_path, corpus):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--config", str(config), "--data", str(corpus),
              "--out", str(ckpt)])

        grammar = tmp_path / "sigma.cfg"
        grammar.write_text("%start S\nS -> S S\nS -> 'a'\nS -> 'b'\nS -> 'c'\n",
                           encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        rc = main(["predict", "--ckpt", str(ckpt),
                   "--input", str(corpus / "test.jsonl"),
                   "--grammar", str(grammar), "--top-k", "3",
                   "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text().splitlines()[0])
        assert set(row["tokens"]) <= {"a", "b", "c"}

    def test_unknown_model_key_fails_loudly(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"model": {"embeddng_dim": 4}, "training": {}}), encoding="utf-8")
        rc = main(["train", "--config", str(config), "--data", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "embeddng_dim" in err

    def test_unknown_config_section_fails(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modle": {}}), encoding="utf-8")
        rc = main(["train", "--config", str(config), "--data", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert "modle" in capsys.readouterr().err

    def test_missing_data_file_is_reported(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        rc = main(["train", "--config", str(config),
                   "--data", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_prediction_input(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--config", str(config), "--data", str(corpus),
              "--out", str(ckpt)])
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no_source": []}\n', encoding="utf-8")
        rc = main(["predict", "--ckpt", str(ckpt), "--input", str(bad),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


@pytest.fixture
def trained(tmp_path, corpus):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    ckpt = tmp_path / "run" / "model.ckpt"
    assert main(["train", "--config", str(config), "--data", str(corpus),
                 "--out", str(ckpt)]) == 0
    return config, ckpt


class TestMalformedInput:
    """Each bad line fails the command with `error: FILE: line N: ...`."""

    def test_train_rejects_a_string_sequence(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        with open(corpus / "dev.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"source": "ab", "target": ["a", "b", "b", "a"]}\n')
        rc = main(["train", "--config", str(config), "--data", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus / 'dev.jsonl'}: line 2: ")
        assert "'source'" in err

    def test_evaluate_rejects_a_number(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        write_jsonl(pred, [{"tokens": ["a"]}, {"tokens": 5}])
        write_jsonl(gold, [{"target": ["a"]}, {"target": ["b"]}])
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred}: line 2: ") and "'tokens'" in err

    def predict_lines(self, tmp_path, ckpt, rows, *flags):
        source = tmp_path / "in.jsonl"
        write_jsonl(source, rows)
        out = tmp_path / "pred.jsonl"
        out.write_text("previous\n", encoding="utf-8")
        rc = main(["predict", "--ckpt", str(ckpt), "--input", str(source),
                   "--out", str(out), *flags])
        # a failed run leaves the previous output and no temporary file
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert not list(tmp_path.glob("*.tmp"))
        return rc, source

    def test_predict_rejects_a_string_source(self, tmp_path, trained, capsys):
        _, ckpt = trained
        rc, source = self.predict_lines(tmp_path, ckpt, [{"source": "ab"}])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}: line 1: ") and "'source'" in err

    def test_predict_names_the_line_of_an_unknown_token(self, tmp_path, trained,
                                                        capsys):
        _, ckpt = trained
        rc, source = self.predict_lines(
            tmp_path, ckpt, [{"source": ["a", "b"]}, {"source": ["a", "q"]}])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {source}: line 2: token 'q' not in vocabulary\n")

    def test_predict_names_the_line_of_an_empty_source(self, tmp_path, trained,
                                                       capsys):
        _, ckpt = trained
        rc, source = self.predict_lines(
            tmp_path, ckpt, [{"source": ["a"]}, {"source": []}])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}: line 2: empty")

    def test_predict_rejects_top_k_below_one_before_loading(self, tmp_path,
                                                            capsys):
        # an empty input would otherwise never reach decode's own k check
        source = tmp_path / "in.jsonl"
        source.write_text("", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--ckpt", str(tmp_path / "missing.ckpt"),
                  "--input", str(source), "--out", str(out), "--top-k", "0"])
        assert exc.value.code == 2
        assert "--top-k: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_names_the_line_without_a_candidate(self, tmp_path,
                                                        trained, capsys):
        _, ckpt = trained
        grammar = tmp_path / "none.cfg"
        grammar.write_text("%start S\nS -> 'zz'\n", encoding="utf-8")
        rc, source = self.predict_lines(tmp_path, ckpt, [{"source": ["c", "b"]}],
                                        "--grammar", str(grammar))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}: line 1: no parse at any "
                              f"candidate length")


class TestCheckpointFiles:
    def predict_with(self, tmp_path, corpus, ckpt, payload):
        bad = tmp_path / "bad" / "model.ckpt"
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(payload)
        (bad.parent / "model.ckpt.meta.json").write_bytes(
            Path(f"{ckpt}.meta.json").read_bytes())
        return main(["predict", "--ckpt", str(bad),
                     "--input", str(corpus / "test.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")])

    def test_truncated_checkpoint_fails_loudly(self, tmp_path, corpus, trained,
                                               capsys):
        _, ckpt = trained
        blob = ckpt.read_bytes()
        # header: magic, version, count (16 bytes); then the first name
        # "emb_src" (length at 16..19, bytes 20..26), then its array
        cuts = [(0, "header"), (3, "header"), (12, "header"),
                (18, "name 0"), (22, "name 0"), (29, "array 'emb_src'"),
                (len(blob) // 2, "array"), (len(blob) - 1, "array")]
        for cut, what in cuts:
            assert self.predict_with(tmp_path, corpus, ckpt, blob[:cut]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "model.ckpt" in err
            assert "truncated checkpoint" in err and what in err, (cut, err)

    def test_trailing_bytes_fail_loudly(self, tmp_path, corpus, trained, capsys):
        _, ckpt = trained
        payload = ckpt.read_bytes() + b"\x00"
        assert self.predict_with(tmp_path, corpus, ckpt, payload) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1 trailing bytes" in err

    def test_failed_save_keeps_the_previous_checkpoint(self, trained,
                                                       monkeypatch):
        _, ckpt = trained
        before = ckpt.read_bytes()
        listing = sorted(ckpt.parent.iterdir())
        model, _, _ = load_checkpoint(ckpt)
        for _, node in model.store.items():
            node.value += 1.0
        written = []

        def failing(arr, dtype=None):
            if written:  # the first array is already in the file
                raise OSError("disk full")
            written.append(arr)
            return np.asarray(arr, dtype=dtype)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        with pytest.raises(OSError, match="disk full"):
            model.store.save(ckpt)
        assert ckpt.read_bytes() == before
        assert sorted(ckpt.parent.iterdir()) == listing

    def test_failed_meta_write_keeps_the_previous_file(self, tmp_path, corpus,
                                                       trained, monkeypatch,
                                                       capsys):
        _, ckpt = trained
        meta = Path(f"{ckpt}.meta.json")
        before = meta.read_bytes()

        def failing(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        # another initialization, so the new weights differ from those the
        # meta file was written with
        reseeded = tmp_path / "reseeded.json"
        reseeded.write_text(json.dumps({**TINY_CONFIG, "model": {
            **TINY_CONFIG["model"], "seed": 1}}), encoding="utf-8")
        weights = ckpt.read_bytes()
        monkeypatch.setattr(json, "dump", failing)
        assert main(["train", "--config", str(reseeded), "--data", str(corpus),
                     "--out", str(ckpt)]) == 1
        assert "disk full" in capsys.readouterr().err
        assert meta.read_bytes() == before
        assert not [p for p in ckpt.parent.iterdir() if p.suffix == ".tmp"]

        # the new weights beside the old meta file are refused
        assert ckpt.read_bytes() != weights
        assert main(["predict", "--ckpt", str(ckpt),
                     "--input", str(corpus / "test.jsonl"),
                     "--out", str(tmp_path / "pred.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt} does not match {meta}")

    def test_failed_retrain_keeps_the_previous_metrics_log(self, corpus,
                                                           trained,
                                                           monkeypatch, capsys):
        config, ckpt = trained
        metrics = Path(f"{ckpt}.metrics.jsonl")
        before = metrics.read_text(encoding="utf-8")
        assert len(before.splitlines()) == 2

        def failing(model, pairs):
            raise OSError("dev set unreadable")

        monkeypatch.setattr(training, "exact_match", failing)
        assert main(["train", "--config", str(config), "--data", str(corpus),
                     "--out", str(ckpt)]) == 1
        assert "dev set unreadable" in capsys.readouterr().err
        assert metrics.read_text(encoding="utf-8") == before
        assert not [p for p in ckpt.parent.iterdir() if p.suffix == ".tmp"]


class TestCheckCommands:
    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all 3 checks passed" in out

    def test_report_flags_failures(self, capsys):
        from structran.cli import _report
        results = [checks.CheckResult("good", 1e-9, 1e-4),
                   checks.CheckResult("bad", 0.5, 1e-4)]
        assert _report(results) == 1
        out = capsys.readouterr().out
        assert "FAIL bad" in out and "1 check(s) failed" in out
        assert _report([checks.CheckResult("good", 1e-9, 1e-4)]) == 0

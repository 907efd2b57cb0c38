"""Alignment guidance, the per-example loss, and the training loop."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from structran import autodiff as ad
from structran import checks, data, inference, model as md, training

MIRROR_A = Path(__file__).resolve().parent.parent / "configs" / "mirror_a.json"


def tiny_model(copy_ids=None, **overrides):
    base = dict(source_vocab=4, target_vocab=4, embedding_dim=4,
                fertility_hidden=3, reorder_hidden=3, context_hidden=3,
                fertility_mlp=4, span_mlp=4, output_mlp=4,
                max_fertility=2, temperature=1.0, skip_scale=0.5, seed=3)
    base.update(overrides)
    return md.Model(md.ModelConfig(**base), copy_ids)


def hand_ibm1(pairs, source_vocab, target_vocab, iterations):
    """Dict-based EM over the same corpus, written independently."""
    null = source_vocab
    t = {(j, i): 1.0 / target_vocab
         for j in range(source_vocab + 1) for i in range(target_vocab)}
    for _ in range(iterations):
        counts = {k: 0.0 for k in t}
        for src, tgt in pairs:
            xs = list(src) + [null]
            for y in tgt:
                z = sum(t[(x, y)] for x in xs)
                for x in xs:
                    counts[(x, y)] += t[(x, y)] / z
        for j in range(source_vocab + 1):
            row = sum(counts[(j, i)] for i in range(target_vocab))
            for i in range(target_vocab):
                t[(j, i)] = counts[(j, i)] / row if row > 0 else 1.0 / target_vocab
    out = np.zeros((source_vocab + 1, target_vocab))
    for (j, i), v in t.items():
        out[j, i] = v
    return out


class TestIbm1:
    def test_identical_pairs_concentrate_in_one_iteration(self):
        t, _ = training.ibm1_train([([0], [0])], 1, 2, iterations=1)
        assert t[0, 0] == pytest.approx(1.0)

    def test_first_posteriors_uniform_under_uniform_table(self):
        t = np.full((3, 2), 0.5)
        post = training.alignment_posteriors(t, np.array([0, 1]), np.array([0, 1]))
        np.testing.assert_allclose(post, 1.0 / 3.0)

    def test_matches_a_hand_run_em(self):
        pairs = [([0, 1], [0, 1]), ([0], [0])]
        got, _ = training.ibm1_train(pairs, 2, 2, iterations=5)
        want = hand_ibm1(pairs, 2, 2, iterations=5)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got[0, 0] > 0.8 and got[0, 0] > got[0, 1]

    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.integers(0, 5, size=rng.integers(1, 6)),
                  rng.integers(0, 6, size=rng.integers(1, 7)))
                 for _ in range(30)]
        _, lls = training.ibm1_train(pairs, 5, 6, iterations=6)
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-10

    def test_empty_examples_are_skipped_with_a_warning(self):
        with pytest.warns(UserWarning, match="skipping empty"):
            t, _ = training.ibm1_train([([0], [0]), ([], [0])], 1, 1, iterations=1)
        assert np.isfinite(t).all()


class TestGuidanceExtraction:
    def test_threshold_one_keeps_certain_links_only(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])  # null prefers token 1
        assert training.extract_guidance(t, [0], [0], 1.0) == {(0, 0)}
        assert training.extract_guidance(t, [0], [1], 1.0) == set()

    def test_uniform_posteriors_yield_nothing(self):
        t = np.full((3, 2), 0.5)
        assert training.extract_guidance(t, [0, 1], [0], 0.4) == set()

    def test_trained_toy_corpus_links(self):
        pairs = [([0, 1], [0, 1]), ([0], [0])]
        t, _ = training.ibm1_train(pairs, 2, 2, iterations=25)
        # the null token co-occurs exactly like source token 0 here, so the
        # posterior on the one-word pair is forever split 0.5/0.5
        assert training.extract_guidance(t, [0], [0], 0.6) == set()
        assert training.extract_guidance(t, [0, 1], [0, 1], 0.9) == {(1, 1)}
        assert training.extract_guidance(t, [0, 1], [0, 1], 0.4) == {(0, 0), (1, 1)}

    def test_null_alignments_never_emit_links(self):
        t = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        for i in (0, 1):
            for pair in training.extract_guidance(t, [0], [i], 0.1):
                assert pair[0] != 2


class TestExampleLoss:
    def test_degenerate_probabilities_give_zero_loss(self):
        m = tiny_model(target_vocab=1, max_fertility=1)
        m.store["fert.mlp.W2"].value[...] = 0.0
        m.store["fert.mlp.b2"].value[...] = [-40.0, 40.0]  # P(f=1) ~ 1
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=0.0)
        loss, _ = training.example_loss(m, [0], [0], cfg)
        assert abs(float(loss.value)) <= 1e-9

    def test_zero_weights_leave_the_uniform_nll(self):
        m = tiny_model(source_vocab=2, target_vocab=2, max_fertility=1, seed=0)
        for _, param in m.store.items():
            param.value[...] = 0.0
        no_len = training.TrainConfig(lambda_length=0.0, lambda_guidance=0.0)
        loss, _ = training.example_loss(m, [0], [1], no_len)
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)
        # the length term adds its own -log(1/2): both fertilities tie
        with_len = training.TrainConfig(lambda_length=1.0, lambda_guidance=0.0)
        loss2, _ = training.example_loss(m, [0], [1], with_len)
        assert float(loss2.value) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_length_weight_zero_is_pure_token_nll(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_length=0.0, lambda_guidance=0.0)
        tgt = [1, 0, 3, 2]
        loss, _ = training.example_loss(m, [0, 2], tgt, cfg)
        _, probs = m.complete(m.prepare([0, 2]), 4, tgt)
        want = -np.log(probs.value[np.arange(4), tgt]).sum()
        assert float(loss.value) == pytest.approx(want, abs=1e-12)

    def test_guidance_with_full_mass_costs_nothing(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=2.0,
                                   guidance_epochs=1)
        plain, _ = training.example_loss(m, [2], [1, 0], cfg)
        # a single source token owns every output position
        guided, _ = training.example_loss(m, [2], [1, 0], cfg,
                                          guidance={(0, 0), (0, 1)})
        assert float(guided.value) == pytest.approx(float(plain.value), abs=1e-12)

    def test_guidance_with_spread_mass_costs_extra(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=2.0,
                                   guidance_epochs=1)
        plain, _ = training.example_loss(m, [2, 3], [1, 0], cfg)
        guided, _ = training.example_loss(m, [2, 3], [1, 0], cfg,
                                          guidance={(0, 0)})
        assert float(guided.value) > float(plain.value)

    @pytest.mark.parametrize("decoder", md.DECODERS)
    @pytest.mark.parametrize("bad_id", [-1, 4])
    def test_target_id_outside_the_vocabulary_is_rejected(self, decoder, bad_id):
        # in the last position, which the autoregressive decoder never feeds back
        m = tiny_model(decoder=decoder, copy_ids=np.array([1, 0, 3, 2]))
        cfg = training.TrainConfig(lambda_guidance=0.0)
        with pytest.raises(ad.DomainError, match="vocabulary of size 4"):
            training.example_loss(m, [0, 2], [1, 0, bad_id], cfg)

    def test_infeasible_target_length_names_the_example(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_guidance=0.0)
        with pytest.raises(data.DatasetError, match="example 7"):
            training.example_loss(m, [0], [1, 2, 3], cfg, index=7)


def mirror_a_loss(composition):
    """example_loss of one length-6 mirror-A pair at configs/mirror_a.json sizes."""
    raw = json.loads(MIRROR_A.read_text(encoding="utf-8"))
    vocab = len(data.MIRROR_ALPHABET)
    m = md.Model(md.ModelConfig.from_dict({**raw["model"], "composition": composition,
                                           "source_vocab": vocab, "target_vocab": vocab}))
    cfg = training.TrainConfig.from_dict(raw["training"])
    src = np.array([0, 1, 2, 1, 0, 3])
    return lambda: training.example_loss(m, src, np.concatenate([src, src[::-1]]), cfg)[0]


def loss_builders():
    builders = {name: lambda model=model, fn=fn: fn(model)
                for name, model, fn in checks.model_cases()}
    for composition in md.COMPOSITION_ORDERS:
        builders[f"mirror_a.{composition}"] = mirror_a_loss(composition)
    return builders


class TestTape:
    @pytest.mark.parametrize("name", sorted(loss_builders()))
    def test_every_recorded_node_is_an_ancestor_of_the_loss(self, name, monkeypatch):
        build = loss_builders()[name]
        made = []
        make_node = ad.make_node

        def recording(value, parents, backward_fn):
            made.append(make_node(value, parents, backward_fn))
            return made[-1]

        monkeypatch.setattr(ad, "make_node", recording)
        loss = build()
        monkeypatch.undo()
        seen = {id(loss)}
        stack = [loss]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        unreachable = [n.shape for n in made if id(n) not in seen]
        assert made and unreachable == []


class TestOptimizer:
    def test_first_adam_step_is_a_signed_learning_rate(self):
        store = ad.ParameterStore([("w", (2,))])
        store["w"].value[...] = [1.0, -2.0]
        cfg = training.TrainConfig(learning_rate=0.1, lambda_guidance=0.0)
        opt = training.Adam(store, cfg)
        store["w"].grad = np.array([0.5, -3.0])
        opt.step()
        # bias-corrected m/v cancel on step one: update = lr * sign(g)
        np.testing.assert_allclose(store["w"].value,
                                   [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_clip_rescales_only_large_gradients(self):
        store = ad.ParameterStore([("w", (2,))])
        store["w"].grad = np.array([3.0, 4.0])
        norm = training.clip_gradients(store, 2.5)
        assert norm == pytest.approx(5.0)
        assert ad.global_grad_norm(store) == pytest.approx(2.5)
        store["w"].grad = np.array([0.3, 0.4])
        training.clip_gradients(store, 2.5)
        np.testing.assert_allclose(store["w"].grad, [0.3, 0.4])

    def test_adam_skips_an_array_without_a_gradient(self):
        shapes = [("a", (2,)), ("b", (3,)), ("c", (1,))]
        store, alone = ad.ParameterStore(shapes), ad.ParameterStore(shapes[:1])
        store.values[...] = [1.0, -2.0, 0.5, 0.25, 3.0, 4.0]
        alone.values[...] = [1.0, -2.0]
        cfg = training.TrainConfig(learning_rate=0.1, lambda_guidance=0.0)
        opt, opt_alone = training.Adam(store, cfg), training.Adam(alone, cfg)
        for name in ("a", "b", "c"):
            store[name].grad = np.ones_like(store[name].value)
        alone["a"].grad = np.ones(2)
        opt.step()
        opt_alone.step()
        # b's moments are non-zero now; a step without its gradient keeps them
        b = slice(2, 5)
        kept = store["b"].value.copy(), opt.m[b].copy(), opt.v[b].copy()
        assert np.all(kept[1] != 0.0) and np.all(kept[2] != 0.0)
        store.zero_grads()
        alone.zero_grads()
        store["a"].grad = alone["a"].grad = np.array([0.5, -3.0])
        store["c"].grad = np.array([-1.0])
        assert store["b"].grad is None
        assert store.touched_runs() == [(0, 2), (5, 6)]
        c_before = store["c"].value.copy()
        opt.step()
        opt_alone.step()
        np.testing.assert_array_equal(store["b"].value, kept[0])
        np.testing.assert_array_equal(opt.m[b], kept[1])
        np.testing.assert_array_equal(opt.v[b], kept[2])
        np.testing.assert_array_equal(store["a"].value, alone["a"].value)
        assert store["c"].value[0] != c_before[0]

    @pytest.mark.parametrize("skip_scale", [0.0, 0.5])
    @pytest.mark.parametrize("decoder,decoder_hidden", [
        ("independent", 4), ("copy", 4), ("autoregressive", 4), ("autoregressive", 5)])
    @pytest.mark.parametrize("composition", md.COMPOSITION_ORDERS)
    def test_every_array_gets_a_gradient(self, composition, decoder, decoder_hidden,
                                         skip_scale):
        # the store holds only what the forward pass reads, so one backward
        # pass touches every array: one run over the whole flat buffer
        m = tiny_model(np.arange(4) if decoder == "copy" else None,
                       composition=composition, decoder=decoder,
                       decoder_hidden=decoder_hidden, skip_scale=skip_scale)
        cfg = training.TrainConfig(lambda_guidance=0.0)
        src = np.array([0, 2, 1])
        loss, _ = training.example_loss(m, src, np.concatenate([src, src[::-1]]), cfg)
        ad.backward(loss)
        assert m.store.touched_runs() == [(0, m.store.values.size)]

    def test_reorder_first_step_on_one_token_leaves_the_span_scorer(self):
        m = tiny_model(composition="reorder-first", skip_scale=0.0)
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=1)
        opt = training.Adam(m.store, cfg)
        training.train_step(m, opt, cfg, [2, 1], [2, 1, 1, 2], None, epoch=0, index=0)
        before = m.store.state_arrays()
        moments = opt.m.copy(), opt.v.copy()
        training.train_step(m, opt, cfg, [1], [1, 1], None, epoch=0, index=1)
        # the flat buffers hold one run per array, in store order
        names = list(m.store.state_arrays())
        bounds = np.cumsum([0] + [m.store[name].value.size for name in names])
        span = [name for name in names if name.startswith("span.")]
        assert len(span) == 4
        for name in span:
            run = slice(*bounds[names.index(name):][:2])
            assert m.store[name].grad is None
            np.testing.assert_array_equal(m.store[name].value, before[name])
            assert moments[0][run].any()
            np.testing.assert_array_equal(opt.m[run], moments[0][run])
            np.testing.assert_array_equal(opt.v[run], moments[1][run])
        assert not np.array_equal(m.store["emb_src"].value, before["emb_src"])

    def test_state_arrays_are_not_aliased_by_later_steps(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=1)
        opt = training.Adam(m.store, cfg)
        snap = m.store.state_arrays()
        kept = {name: arr.copy() for name, arr in snap.items()}
        src = np.array([0, 2, 1])
        for index in range(2):
            training.train_step(m, opt, cfg, src, np.concatenate([src, src[::-1]]),
                                None, epoch=0, index=index)
        for name, arr in snap.items():
            np.testing.assert_array_equal(arr, kept[name])
        assert not np.array_equal(m.store["out.proj"].value, snap["out.proj"])


class TestTrainLoop:
    def _pairs(self):
        src = np.array([0, 2, 1])
        return [(src, np.concatenate([src, src[::-1]]))]

    def test_overfits_one_example(self):
        m = tiny_model(skip_scale=0.0, embedding_dim=8, fertility_hidden=8,
                       reorder_hidden=8, context_hidden=8, fertility_mlp=8,
                       span_mlp=8, output_mlp=8)
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=0.0,
                                   epochs=120, learning_rate=0.05, seed=0)
        res = training.train(m, self._pairs(), [], cfg)
        assert res.metrics[-1]["train_loss"] < 0.01

    def test_seed_reproduces_the_metrics_log(self):
        runs = []
        for _ in range(2):
            m = tiny_model()
            cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=0.0,
                                       epochs=3, seed=5)
            res = training.train(m, self._pairs(), self._pairs(), cfg)
            runs.append([(e["epoch"], e["train_loss"], e["dev_exact_match"],
                          e["grad_norm_mean"], e["grad_norm_max"])
                         for e in res.metrics])
        assert runs[0] == runs[1]

    def test_non_finite_loss_aborts(self):
        m = tiny_model()
        m.store["emb_src"].value[0, 0] = float("nan")
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=2)
        with pytest.raises(training.TrainingError, match=r"epoch 0, example \d"):
            training.train(m, self._pairs(), [], cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_norm_aborts_before_the_update(self, monkeypatch,
                                                                bad):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=1)
        opt = training.Adam(m.store, cfg)
        before = m.store.state_arrays()
        backward = ad.backward

        def poisoned(root):
            backward(root)
            m.store["out.proj"].grad[0, 0, 0] = bad

        monkeypatch.setattr(ad, "backward", poisoned)
        src = np.array([0, 2, 1])
        with pytest.raises(training.TrainingError,
                           match="non-finite gradient norm at epoch 3, example 7"):
            training.train_step(m, opt, cfg, src, np.concatenate([src, src[::-1]]),
                                None, epoch=3, index=7)
        for name, arr in before.items():
            np.testing.assert_array_equal(m.store[name].value, arr)
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()

    def test_metrics_file_mirrors_the_returned_log(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "metrics.jsonl"
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=2, seed=1)
        res = training.train(m, self._pairs(), self._pairs(), cfg,
                             metrics_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == res.metrics
        assert set(lines[0]) == {"epoch", "train_loss", "token_nll",
                                 "length_nll", "guidance", "dev_exact_match",
                                 "dev_misses", "grad_norm_mean",
                                 "grad_norm_max", "wall_ms"}
        for entry in lines:
            assert 0.0 < entry["grad_norm_mean"] <= entry["grad_norm_max"]
            misses = entry["dev_misses"]
            assert set(misses) == {"length", "tokens", "no_candidate"}
            assert entry["dev_exact_match"] == 1 - sum(misses.values())

    def test_loss_terms_add_up_to_the_train_loss(self):
        pairs = self._pairs() + [(np.array([1, 3]), np.array([1, 3, 3, 1]))]
        cfg = training.TrainConfig(lambda_length=0.7, lambda_guidance=1.5,
                                   guidance_epochs=1, posterior_threshold=0.3,
                                   epochs=2, seed=3)
        res = training.train(tiny_model(), pairs, [], cfg)
        for entry in res.metrics:
            assert entry["train_loss"] == pytest.approx(
                entry["token_nll"] + 0.7 * entry["length_nll"]
                + 1.5 * entry["guidance"], abs=1e-9)
        assert res.metrics[0]["guidance"] > 0.0
        assert res.metrics[1]["guidance"] == 0.0

    def test_grad_norm_is_taken_before_clipping(self):
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=1, seed=1,
                                   clip_norm=1e-6)
        src, tgt = self._pairs()[0]
        m = tiny_model()
        loss, _ = training.example_loss(m, src, tgt, cfg)
        ad.backward(loss)
        want = ad.global_grad_norm(m.store)
        res = training.train(tiny_model(), self._pairs(), [], cfg)
        assert want > 1e-3
        assert res.metrics[0]["grad_norm_max"] == pytest.approx(want, rel=1e-12)
        assert res.metrics[0]["grad_norm_mean"] == res.metrics[0]["grad_norm_max"]

    def test_best_dev_state_is_restored(self):
        m = tiny_model(skip_scale=0.0)
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=0.0,
                                   epochs=25, learning_rate=0.02, seed=0)
        res = training.train(m, self._pairs(), self._pairs(), cfg)
        assert res.best_dev == max(e["dev_exact_match"] for e in res.metrics)
        assert training.exact_match(m, self._pairs()).rate == res.best_dev

    def test_without_dev_pairs_the_last_epoch_is_kept(self, monkeypatch):
        m = tiny_model(skip_scale=0.0)
        ends, score = [], training.exact_match

        def snapshot_then_score(model, pairs):
            # exact_match runs once per epoch, after its steps
            ends.append(model.store.state_arrays())
            return score(model, pairs)

        monkeypatch.setattr(training, "exact_match", snapshot_then_score)
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=3, seed=0)
        res = training.train(m, self._pairs(), [], cfg)
        assert len(ends) == 3 and res.best_epoch == 2
        assert not np.array_equal(ends[0]["out.proj"], ends[2]["out.proj"])
        for name, arr in ends[2].items():
            np.testing.assert_array_equal(m.store[name].value, arr)

    def test_infeasible_dev_source_counts_as_no_candidate(self):
        m = tiny_model()
        # every token takes zero copies, so no output length is feasible
        m.store["fert.mlp.W2"].value[...] = 0.0
        m.store["fert.mlp.b2"].value[...] = [0.0, -1e4, -1e4]
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=1)
        res = training.train(m, [], self._pairs(), cfg)
        assert res.metrics[0]["dev_exact_match"] == 0.0
        assert res.metrics[0]["dev_misses"] == {"length": 0, "tokens": 0,
                                                "no_candidate": 1}

    def test_misses_are_split_by_cause(self):
        m = tiny_model()
        src = self._pairs()[0][0]
        right = np.array(inference.decode(m, src).tokens)
        wrong = right.copy()
        wrong[0] = (wrong[0] + 1) % m.config.target_vocab
        tally = training.exact_match(
            m, [(src, right), (src, right[:-1]), (src, wrong), (src, right)])
        assert tally.hits == 2 and tally.rate == 0.5
        assert tally.misses() == {"length": 1, "tokens": 1, "no_candidate": 0}

    def test_early_stop_on_dev_threshold(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_guidance=0.0, epochs=50,
                                   stop_exact_match=0.0)
        res = training.train(m, self._pairs(), self._pairs(), cfg)
        assert len(res.metrics) == 1

    def test_guided_epochs_run_end_to_end(self):
        m = tiny_model()
        cfg = training.TrainConfig(lambda_length=1.0, lambda_guidance=1.0,
                                   guidance_epochs=1, epochs=2, seed=2)
        res = training.train(m, self._pairs(), [], cfg)
        assert all(np.isfinite(e["train_loss"]) for e in res.metrics)


class TestExactMatch:
    tally = staticmethod(training.ExactMatch.of)

    def test_identical(self):
        seqs = [list("ab"), list("cd")]
        assert self.tally(seqs, seqs).rate == 1.0

    def test_disjoint(self):
        tally = self.tally([list("ab")], [list("ba")])
        assert tally.rate == 0.0
        assert tally.misses() == {"length": 0, "tokens": 1, "no_candidate": 0}

    def test_three_of_four(self):
        gold = [list("a"), list("b"), list("c"), list("d")]
        pred = [list("a"), list("b"), list("c"), list("x")]
        assert self.tally(pred, gold).rate == 0.75

    def test_count_mismatch_rejected(self):
        with pytest.raises(data.DatasetError, match="count mismatch: 1 vs 2"):
            self.tally([list("a")], [list("a"), list("b")])


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("lambda_length", -0.5), ("posterior_threshold", 0.0),
        ("posterior_threshold", 1.5), ("epochs", 0),
        ("learning_rate", 0.0), ("clip_norm", 0.0), ("guidance_epochs", -1),
        ("beta1", 1.0), ("beta2", -0.1), ("adam_eps", 0.0),
        ("stop_exact_match", 2.0), ("stop_exact_match", -0.5),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            training.TrainConfig(**{field: value})

    def test_infinite_clip_norm_means_no_clipping(self):
        assert training.TrainConfig(clip_norm=math.inf).clip_norm == math.inf

    def test_unknown_key_rejected(self):
        raw = training.TrainConfig().to_dict()
        raw["lamda_length"] = 1.0
        with pytest.raises(ValueError, match="lamda_length"):
            training.TrainConfig.from_dict(raw)

"""Model wiring: encoders, structure heads, mixing, and decoder variants."""
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from structran import autodiff as ad
from structran import data, fertility, model as md, reordering, training

MIRROR_A = Path(__file__).resolve().parent.parent / "configs" / "mirror_a.json"


def tiny_config(**overrides) -> md.ModelConfig:
    base = dict(source_vocab=5, target_vocab=6, embedding_dim=4,
                fertility_hidden=3, reorder_hidden=3, context_hidden=3,
                fertility_mlp=4, span_mlp=4, output_mlp=4,
                max_fertility=2, temperature=1.0, skip_scale=0.7, seed=11)
    base.update(overrides)
    return md.ModelConfig(**base)


def mirror_model(path=MIRROR_A, **overrides) -> md.Model:
    """The model of a shipped config, with the mirror alphabet as both
    vocabularies and the given model keys overridden."""
    raw = json.loads(path.read_text(encoding="utf-8"))["model"]
    vocab = len(data.MIRROR_ALPHABET)
    cfg = md.ModelConfig.from_dict({**raw, "source_vocab": vocab,
                                    "target_vocab": vocab, **overrides})
    return md.Model(cfg, np.arange(vocab) if cfg.decoder == "copy" else None)


def zero_out(model, *names):
    for name in names:
        model.store[name].value[...] = 0.0


class TestCheckpoint:
    def test_save_writes_the_documented_layout(self, tmp_path):
        m = mirror_model()
        # skip_scale 0: the contextual encoder's ctx.* arrays are left out
        names = ["emb_src", "slot_emb"] + [
            f"{tag}.{d}.{p}" for tag in ("fert", "reorder")
            for d in ("fw", "bw") for p in ("W", "b")] + [
            "fert.mlp.W1", "fert.mlp.b1", "fert.mlp.W2", "fert.mlp.b2",
            "span.mlp.W1", "span.mlp.b1", "span.mlp.W2", "span.mlp.b2",
            "out.mlp.W1", "out.mlp.b1", "out.proj"]
        assert [name for name, _ in m.store.items()] == names
        assert m.store.values.size == 29213
        # magic, version u32, count u64, then per parameter: name length
        # u32, utf-8 name, ndim u32, dims u64, float64 payload; little-endian
        want = b"STRN" + struct.pack("<IQ", 1, len(names))
        for name in names:
            value = m.store[name].value
            want += struct.pack("<I", len(name)) + name.encode("utf-8")
            want += struct.pack(f"<I{value.ndim}Q", value.ndim, *value.shape)
            want += struct.pack(f"<{value.size}d", *value.ravel().tolist())
        path = tmp_path / "mirror_a.ckpt"
        m.store.save(path)
        assert path.read_bytes() == want


class TestParameters:
    @pytest.mark.parametrize("decoder", md.DECODERS)
    @pytest.mark.parametrize("path", sorted(MIRROR_A.parent.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_every_array_starts_as_in_the_fullest_layout(self, path, decoder):
        # the fertility-first order with skip_scale != 0 holds every array
        # of the decoder; leaving arrays out must not move the others' draws
        m = mirror_model(path, decoder=decoder)
        full = mirror_model(path, decoder=decoder, skip_scale=0.5,
                            composition="fertility-first")
        assert m.store.state_arrays().keys() <= full.store.state_arrays().keys()
        for name, param in m.store.items():
            np.testing.assert_array_equal(param.value, full.store[name].value)

    def test_arrays_follow_the_config(self):
        ctx = {"ctx.fw.W", "ctx.fw.b", "ctx.bw.W", "ctx.bw.b", "ctx.proj"}
        reorder_first = mirror_model(composition="reorder-first").store
        assert not ({"slot_emb"} | ctx) & reorder_first.state_arrays().keys()
        assert reorder_first.values.size == 29165
        contextual = mirror_model(skip_scale=0.5).store
        assert ctx | {"slot_emb"} <= contextual.state_arrays().keys()
        assert contextual.values.size == 29213 + 10560


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        raw = tiny_config().to_dict()
        raw["embeddng_dim"] = 8
        with pytest.raises(ValueError, match="embeddng_dim"):
            md.ModelConfig.from_dict(raw)

    @pytest.mark.parametrize("field,value", [
        ("embedding_dim", 0), ("max_fertility", 0), ("temperature", 0.0),
        ("composition", "sideways"), ("decoder", "transformer"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            tiny_config(**{field: value})


class TestEncode:
    def test_skip_only_context_is_the_embedding(self):
        m = md.Model(tiny_config(skip_scale=0.0))
        x, context = m.encode([0, 3, 1])
        np.testing.assert_array_equal(context.value, x.value)

    def test_contextual_rows_differ_from_embeddings(self):
        m = md.Model(tiny_config(skip_scale=1.0))
        x, context = m.encode([0, 3, 1])
        assert not np.allclose(context.value, x.value)

    def test_out_of_vocabulary_id_rejected(self):
        m = md.Model(tiny_config())
        with pytest.raises(ad.DomainError, match="vocabulary"):
            m.encode([0, 5])

    def test_empty_input_rejected(self):
        m = md.Model(tiny_config())
        with pytest.raises(ad.UsageError):
            m.encode([])

    def test_same_seed_same_parameters(self):
        a = md.Model(tiny_config()).store.state_arrays()
        b = md.Model(tiny_config()).store.state_arrays()
        assert sorted(a) == sorted(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_weights_are_seeded_uniform_draws_and_biases_zero(self):
        cfg = tiny_config(decoder="autoregressive", decoder_hidden=5)
        rng = np.random.default_rng(cfg.seed)
        for name, node in md.Model(cfg).store.items():
            if name.split(".")[-1].startswith("b"):
                np.testing.assert_array_equal(node.value, 0.0)
            else:
                # store order is draw order; the bits must match exactly
                want = rng.uniform(-md.INIT_SCALE, md.INIT_SCALE, node.shape)
                np.testing.assert_array_equal(node.value.view(np.int64),
                                              want.view(np.int64))


class TestFertilityHead:
    def test_zero_weights_give_uniform_rows(self):
        m = md.Model(tiny_config())
        zero_out(m, "fert.mlp.W1", "fert.mlp.b1", "fert.mlp.W2", "fert.mlp.b2")
        ft = m.prepare([0, 1, 2]).fertility
        np.testing.assert_allclose(ft.probs.value, 1.0 / 3.0)

    def test_rows_normalize(self):
        m = md.Model(tiny_config())
        ft = m.prepare([4, 2, 0, 1]).fertility
        np.testing.assert_allclose(ft.probs.value.sum(axis=1), 1.0, atol=1e-9)

    def test_small_temperature_sharpens(self):
        warm = md.Model(tiny_config(temperature=1.0))
        cold = md.Model(tiny_config(temperature=0.01))
        for m in (warm, cold):
            # pin the head to fixed, clearly distinct logits per row
            zero_out(m, "fert.mlp.W2")
            m.store["fert.mlp.b2"].value[...] = [1.0, 0.0, -1.0]
        ids = [0, 1]
        p_warm = warm.prepare(ids).fertility.probs.value
        p_cold = cold.prepare(ids).fertility.probs.value
        assert p_cold.max(axis=1).min() > p_warm.max(axis=1).max()
        assert p_cold.max() > 0.99


class TestComposeIntermediate:
    def _slot_weights(self, marg):
        # the (length, n*d) slot weights F[i, j*d + u] = marg[j, i, u]
        marg = np.asarray(marg, float)
        return ad.constant(marg.transpose(1, 0, 2).reshape(marg.shape[1], -1))

    def test_hard_identity_adds_first_slot(self):
        m = md.Model(tiny_config())
        prep = m.prepare([1, 2])
        weights = self._slot_weights(np.stack([
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
        ]))
        inter = m.compose_intermediate(prep, weights)
        slots = m.store["slot_emb"].value
        np.testing.assert_allclose(inter.value,
                                   prep.embeddings.value + slots[0], atol=1e-12)

    def test_hard_double_copy_tags_slots(self):
        m = md.Model(tiny_config())
        prep = m.prepare([3])
        weights = self._slot_weights([[[1.0, 0.0], [0.0, 1.0]]])
        inter = m.compose_intermediate(prep, weights)
        x = prep.embeddings.value[0]
        slots = m.store["slot_emb"].value
        np.testing.assert_allclose(inter.value[0], x + slots[0], atol=1e-12)
        np.testing.assert_allclose(inter.value[1], x + slots[1], atol=1e-12)

    def test_rows_stay_inside_the_convex_image(self):
        m = md.Model(tiny_config())
        prep = m.prepare([0, 1, 4])
        marg = fertility.marginal_fertility(prep.fertility, 4)
        inter = m.compose_intermediate(prep, self._slot_weights(marg.value))
        slots = m.store["slot_emb"].value
        corners = [np.linalg.norm(prep.embeddings.value[i] + slots[u])
                   for i in range(3) for u in range(2)]
        norms = np.linalg.norm(inter.value, axis=1)
        assert norms.max() <= max(corners) + 1e-9


class TestReorderingScores:
    def test_single_row_has_no_spans(self):
        m = md.Model(tiny_config())
        ss = m.reordering_scores(m.encode([2])[0])
        assert ss.length == 1
        assert ss.scores.value.shape == (0, 2)

    def test_score_rows_follow_span_order(self):
        m = md.Model(tiny_config())
        ss = m.reordering_scores(m.encode([2, 0, 1, 4])[0])
        assert ss.scores.value.shape == (len(reordering.spans(4)), 2)

    def test_scores_are_the_mlp_over_fencepost_differences(self):
        # span (i, j) reads ff[j] - ff[i] and bb[i] - bb[j], where ff[k] is
        # the forward state after k rows and bb[k] the backward state
        # covering rows k..L-1, with ff[0] = bb[L] = 0
        m = md.Model(tiny_config())
        rng = np.random.default_rng(2)
        for _, p in m.store.items():  # biases away from zero
            p.value[...] = rng.normal(0.0, 0.5, p.shape)
        w1, b1, w2, b2 = (m.store[f"span.mlp.{n}"].value for n in ("W1", "b1", "W2", "b2"))
        for length in range(2, 13):
            seq = ad.constant(rng.normal(size=(length, 4)))
            got = m.reordering_scores(seq).scores.value
            states = m._bilstm("reorder", seq).value
            zero = np.zeros((1, 3))
            ff = np.concatenate([zero, states[:, :3]])
            bb = np.concatenate([states[:, 3:], zero])
            feats = np.array([np.concatenate([ff[j] - ff[i], bb[i] - bb[j]])
                              for i, j in reordering.spans(length)])
            want = np.tanh(feats @ w1.T + b1) @ w2.T + b2
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_incidence_is_cached_and_read_only(self):
        first = md._span_incidence(6)
        assert md._span_incidence(6) is first
        assert first.shape == (len(reordering.spans(6)), 12)
        assert not first.flags.writeable
        long = md._span_incidence(md._INCIDENCE_CACHE_LENGTHS + 1)
        assert md._span_incidence(md._INCIDENCE_CACHE_LENGTHS + 1) is not long

    def test_node_budget(self, monkeypatch):
        # bilstm, two reshapes and two transposes into the batched
        # projection, its reshape and the incidence product, then b1, tanh,
        # transpose of W2, product and b2
        m = md.Model(tiny_config())
        made = [0]
        make_node = ad.make_node

        def counting(value, parents, backward_fn):
            made[0] += 1
            return make_node(value, parents, backward_fn)

        monkeypatch.setattr(ad, "make_node", counting)
        rng = np.random.default_rng(3)
        for length in (2, 5, 9):
            made[0] = 0
            m.reordering_scores(ad.parameter(rng.normal(size=(length, 4))))
            assert made[0] == 13


class TestTransduction:
    @pytest.mark.parametrize("composition", ["fertility-first", "reorder-first"])
    def test_rows_are_distributions(self, composition):
        m = md.Model(tiny_config(composition=composition))
        _, probs = m.complete(m.prepare([0, 2, 4]), 5)
        p = probs.value
        assert p.shape == (5, 6)
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("composition", ["fertility-first", "reorder-first"])
    def test_mixing_columns_normalize(self, composition):
        m = md.Model(tiny_config(composition=composition))
        st, _ = m.complete(m.prepare([0, 2, 4]), 4)
        np.testing.assert_allclose(st.mixing.value.sum(axis=1), 1.0, atol=1e-9)

    def test_reorder_first_prepares_a_source_permutation(self):
        m = md.Model(tiny_config(composition="reorder-first"))
        prep = m.prepare([0, 2, 4])
        assert prep.permutation is not None
        assert prep.permutation.value.shape == (3, 3)

    def test_degenerate_sizes_factorize_exactly(self):
        # one token, one slot, one output: structure marginals are forced
        # hard, so the output row must equal the bare token classifier
        m = md.Model(tiny_config(max_fertility=1))
        _, probs = m.complete(m.prepare([3]), 1)
        direct = m.token_distributions(m.prepare([3]))
        np.testing.assert_allclose(probs.value[0],
                                   direct.value[0, 0], atol=1e-12)

    def test_copies_of_one_token_can_differ(self):
        m = md.Model(tiny_config())
        direct = m.token_distributions(m.prepare([3])).value
        assert direct.shape == (1, 2, 6)
        assert not np.allclose(direct[0, 0], direct[0, 1])

    @pytest.mark.parametrize("rows", [1, 5])
    def test_output_rows_mix_the_slot_table(self, rows):
        # one product for both table heights: a shared table (rows = 1)
        # broadcasts, and a per-position table (rows = length) pairs row i
        # with position i
        m = md.Model(tiny_config())
        rng = np.random.default_rng(4)
        mixing = rng.dirichlet(np.ones(6), size=5)
        table = rng.dirichlet(np.ones(7), size=(rows, 6))
        out = m.output_distributions(ad.constant(table), ad.constant(mixing)).value
        want = np.einsum("ik,ikv->iv", mixing, np.broadcast_to(table, (5, 6, 7)))
        np.testing.assert_allclose(out, want, rtol=1e-13, atol=1e-15)

    def test_repeat_runs_are_bit_identical(self):
        a, b = (m.complete(m.prepare([0, 2, 4]), 5)[1].value
                for m in (md.Model(tiny_config()), md.Model(tiny_config())))
        np.testing.assert_array_equal(a, b)

    def test_guidance_mass_distributes_each_position(self):
        m = md.Model(tiny_config())
        st, _ = m.complete(m.prepare([0, 2, 4]), 4)
        mass = m.guidance_mass(st)
        assert mass.value.shape == (4, 3)
        np.testing.assert_allclose(mass.value.sum(axis=1), 1.0, atol=1e-9)


def head_oracle(m: md.Model, prep: md.Prepared, h=None) -> np.ndarray:
    """Plain-numpy slot table: softmax(tanh((context + h ar.proj^T) W1^T + b1)
    proj^T) per (source token, copy slot), mixed with the copy gate for the
    copy decoder; h holds decoder LSTM rows (rows, H), or None for none."""
    s, cfg = m.store, m.config
    inp = m.encode(prep.source_ids)[1].value[None]
    if h is not None:
        h_emb = h @ s["ar.proj"].value.T if "ar.proj" in s else h
        inp = inp + h_emb[:, None, :]
    feats = np.tanh(inp @ s["out.mlp.W1"].value.T + s["out.mlp.b1"].value)
    logits = np.einsum("rjm,uym->rjuy", feats, s["out.proj"].value)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    if cfg.decoder == "copy":
        gate = 1.0 / (1.0 + np.exp(-(feats @ s["copy.gate.w"].value[:, None]
                                     + s["copy.gate.b"].value)))
        copied = np.zeros_like(probs)
        for j, src in enumerate(prep.source_ids):
            copied[:, j, :, m.copy_ids[src]] = 1.0
        probs = gate[..., None] * copied + (1.0 - gate[..., None]) * probs
    return probs.reshape(probs.shape[0], -1, cfg.target_vocab)


class TestOutputHead:
    @pytest.mark.parametrize("decoder,hidden,rows", [
        ("independent", 4, 0), ("copy", 4, 0), ("autoregressive", 4, 0),
        ("autoregressive", 4, 3), ("autoregressive", 5, 0), ("autoregressive", 5, 3)])
    def test_split_head_matches_the_unsplit_formula(self, decoder, hidden, rows):
        # decoder_hidden 4 == embedding_dim leaves out ar.proj, 5 keeps it
        m = md.Model(tiny_config(decoder=decoder, decoder_hidden=hidden),
                     copy_ids=np.array([1, 0, 3, 2, 5]))
        rng = np.random.default_rng(2)
        for _, p in m.store.items():  # biases away from zero
            p.value[...] = rng.normal(0.0, 0.5, p.shape)
        prep = m.prepare([0, 2, 4, 1])
        assert ("ar.proj" in m.store) == (decoder == "autoregressive" and hidden == 5)
        h = rng.normal(size=(rows, hidden)) if rows else None
        got = m.token_distributions(prep, None if h is None else ad.constant(h)).value
        assert got.shape == (max(rows, 1), 8, 6)
        np.testing.assert_allclose(got, head_oracle(m, prep, h), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("composition", md.COMPOSITION_ORDERS)
    @pytest.mark.parametrize("hidden", [4, 5])
    def test_one_pass_greedy_node_budget(self, composition, hidden, monkeypatch):
        # a greedy decode decided in one pass is teacher forcing on the
        # guess (one ar_context of length - 1 steps, one token_distributions,
        # the concat and output product) plus position 0's table, one more
        # token_distributions (AR product, reshape, add, tanh, product,
        # reshape, softmax): the same nodes at every length
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=hidden,
                                 composition=composition))
        prep = m.prepare([0, 2, 4, 1])
        with ad.no_grad():
            m.complete(prep, 1)  # the fertility table caches its DP tables
        made, steps = [0], []
        make_node, lstm = ad.make_node, ad.lstm

        def counting(value, parents, backward_fn):
            made[0] += 1
            return make_node(value, parents, backward_fn)

        def recorded_lstm(zx, wh, state=None):
            steps.append(zx.shape[0])
            return lstm(zx, wh, state)

        monkeypatch.setattr(ad, "make_node", counting)
        monkeypatch.setattr(ad, "lstm", recorded_lstm)
        counts = []
        for length in range(2, 9):
            with ad.no_grad():
                made[0] = 0
                ys = np.argmax(m.complete(prep, length)[1].value, axis=1)
                greedy = made[0]
                made[0] = 0
                m.complete(prep, length, ys)
            assert steps == [length - 1] * 2 and greedy == made[0] + 7
            steps.clear()
            counts.append(greedy)
        assert counts == [counts[0]] * 7

    @pytest.mark.parametrize("hidden", [4, 5])
    def test_greedy_decode_reads_the_decoder_weights_only_through_prepare(
            self, hidden, monkeypatch):
        # decoder_hidden 4 == embedding_dim leaves out ar.proj, 5 keeps it
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=hidden))
        assert ("ar.proj" in m.store) == (hidden == 5)
        weights = {id(m.store[name]) for name in ("ar.W", "ar.b", "emb_tgt")}
        prep = m.prepare([0, 2, 4, 1])
        readers = []
        make_node = ad.make_node

        def recording(value, parents, backward_fn):
            readers.extend(p for p in parents if id(p) in weights)
            return make_node(value, parents, backward_fn)

        monkeypatch.setattr(ad, "make_node", recording)
        _, rows = m.complete(prep, 6)
        assert rows.shape == (6, 6) and readers == []


class TestStalePrepared:
    # the store's version moves with every write made through Adam.step,
    # load_state_arrays and restore; complete refuses a Prepared made before
    def model_and_prep(self):
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=4))
        return m, m.prepare([0, 2, 4])

    def assert_stale(self, m, prep):
        with pytest.raises(ad.UsageError, match="stale Prepared"):
            m.complete(prep, 3)
        with pytest.raises(ad.UsageError, match="stale Prepared"):
            m.complete(prep, 3, [0, 1, 2])
        m.complete(m.prepare([0, 2, 4]), 3)

    def test_adam_step(self):
        m, prep = self.model_and_prep()
        m.complete(prep, 3)
        training.Adam(m.store, training.TrainConfig()).step()
        self.assert_stale(m, prep)

    def test_load_state_arrays(self):
        m, prep = self.model_and_prep()
        m.store.load_state_arrays(m.store.state_arrays())
        self.assert_stale(m, prep)

    def test_restore(self, tmp_path):
        m, prep = self.model_and_prep()
        path = tmp_path / "model.ckpt"
        m.store.save(path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ad.UsageError, match="truncated"):
            m.store.restore(cut)
        m.complete(prep, 3)  # a refused checkpoint writes nothing
        m.store.restore(path)
        self.assert_stale(m, prep)


class TestCopyDecoder:
    def test_requires_a_copy_map(self):
        with pytest.raises(ValueError, match="copy"):
            md.Model(tiny_config(decoder="copy"))

    def test_copy_map_must_cover_the_source_vocabulary(self):
        with pytest.raises(ValueError, match="cover"):
            md.Model(tiny_config(decoder="copy"), copy_ids=np.array([1, 0]))

    def test_rows_are_distributions(self):
        m = md.Model(tiny_config(decoder="copy"),
                     copy_ids=np.array([1, 0, 3, 2, 5]))
        p = m.complete(m.prepare([0, 2, 4]), 3)[1].value
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_saturated_gate_copies_the_source_token(self):
        copy_ids = np.array([1, 0, 3, 2, 5])
        m = md.Model(tiny_config(decoder="copy", max_fertility=1),
                     copy_ids=copy_ids)
        zero_out(m, "copy.gate.w")
        m.store["copy.gate.b"].value[...] = 30.0  # sigmoid ~ 1
        _, probs = m.complete(m.prepare([2]), 1)
        want = np.zeros(6)
        want[copy_ids[2]] = 1.0
        np.testing.assert_allclose(probs.value[0], want, atol=1e-9)


class TestAutoregressiveDecoder:
    def test_rows_are_distributions(self):
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=4))
        _, probs = m.complete(m.prepare([0, 1]), 3, target_ids=[2, 0, 5])
        np.testing.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-6)
        prep = m.prepare([0, 1])
        token_probs = m.token_distributions(prep, m.ar_context(prep, [2, 0, 5])[0])
        assert token_probs.shape == (3, 4, 6)  # (rows, n*d, V), one row per state

    def test_prefix_alone_determines_each_row(self):
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=4))
        a = m.complete(m.prepare([0, 1]), 3, target_ids=[2, 0, 5])[1].value
        b = m.complete(m.prepare([0, 1]), 3, target_ids=[2, 4, 5])[1].value
        # rows see only ids before them; the last id is never fed back
        np.testing.assert_allclose(a[:2], b[:2], atol=1e-12)
        assert not np.allclose(a[2], b[2])
        c = m.complete(m.prepare([0, 1]), 3, target_ids=[2, 0, 1])[1].value
        np.testing.assert_allclose(a, c, atol=1e-12)

    def test_wrong_target_length_rejected(self):
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=4))
        with pytest.raises(ad.UsageError, match="one target id per position"):
            m.complete(m.prepare([0, 1]), 3, target_ids=[0, 1])

    def test_out_of_vocabulary_target_rejected(self):
        m = md.Model(tiny_config(decoder="autoregressive", decoder_hidden=4))
        with pytest.raises(ad.DomainError, match="vocabulary of size 6"):
            m.complete(m.prepare([0, 1]), 3, target_ids=[0, 6, 1])


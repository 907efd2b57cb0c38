"""inference.decode on every route against exhaustive-search oracles."""
import math
import random

import numpy as np
import pytest

from structran import autodiff as ad
from structran import fertility, oracles, reordering
from structran.data import Vocabulary
from structran.grammar import GrammarError, parse_grammar
from structran.inference import (InferenceError, NoParseError, decode,
                                 top_lengths, viterbi_cyk)
from structran.model import Model, ModelConfig


def small_model(seed=0, **overrides):
    base = dict(source_vocab=4, target_vocab=3, embedding_dim=4,
                fertility_hidden=3, reorder_hidden=3, context_hidden=3,
                fertility_mlp=4, span_mlp=4, output_mlp=4,
                max_fertility=2, temperature=1.0, skip_scale=0.5, seed=seed)
    base.update(overrides)
    return Model(ModelConfig(**base))


def feasible_lengths(model, src):
    with ad.no_grad():
        probs = model.prepare(src).length_probs.value
    return [l for l in range(1, probs.shape[0]) if probs[l] > 0]


def oracle_closures(model, src):
    with ad.no_grad():
        prep = model.prepare(src)

        def length_logprob(l):
            return float(np.log(prep.length_probs.value[l]))

        def token_probs(l):
            with ad.no_grad():
                _, probs = model.complete(model.prepare(src), l)
                return probs.value

    return length_logprob, token_probs


TARGET_TOKENS = ["a", "b", "c"]


def target_vocab():
    return Vocabulary(TARGET_TOKENS)


def sigma_star_grammar(tokens=TARGET_TOKENS):
    lines = ["%start S", "S -> S S"] + [f"S -> '{t}'" for t in tokens]
    return parse_grammar("\n".join(lines))


class TestTopLengths:
    def test_length_zero_is_never_a_candidate(self):
        assert top_lengths(np.array([1.0, 0.0]), 3) == []
        assert top_lengths(np.array([0.6, 0.4]), 1) == [1]

    def test_ties_break_toward_the_smaller_length(self):
        probs = np.array([0.0, 0.3, 0.3, 0.4])
        assert top_lengths(probs, 3) == [3, 1, 2]

    def test_zero_mass_lengths_are_dropped(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5])
        assert top_lengths(probs, 10) == [1, 3]

    def test_k_truncates(self):
        probs = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        assert top_lengths(probs, 2) == [4, 3]


class TestPredict:
    def test_matches_exhaustive_search(self):
        for seed in range(4):
            m = small_model(seed=seed, source_vocab=3, max_fertility=2)
            src = [0, 1]
            lengths = feasible_lengths(m, src)
            got = decode(m, src, k=len(lengths))
            llp, tp = oracle_closures(m, src)
            want_l, want_ys, want_score = oracles.exhaustive_decode(
                llp, tp, lengths, m.config.target_vocab)
            assert got.length == want_l
            assert tuple(got.tokens) == want_ys
            assert got.log_score == pytest.approx(want_score, abs=1e-9)

    def test_oversized_k_is_harmless(self):
        m = small_model()
        src = [2, 0]
        lengths = feasible_lengths(m, src)
        a = decode(m, src, k=len(lengths))
        b = decode(m, src, k=100)
        assert (a.tokens, a.length, a.log_score) == (b.tokens, b.length, b.log_score)

    def test_result_is_reproducible(self):
        m = small_model(seed=7)
        a = decode(m, [1, 3], k=3)
        b = decode(m, [1, 3], k=3)
        assert a.tokens == b.tokens and a.log_score == b.log_score

    def test_k_must_be_positive(self):
        with pytest.raises(ad.UsageError, match="k"):
            decode(small_model(), [0], k=0)

    def test_distributions_ride_along(self):
        got = decode(small_model(), [0, 1], k=1)
        assert got.distributions.shape == (got.length, 3)
        assert [int(v) for v in np.argmax(got.distributions, axis=1)] == got.tokens


def random_cnf(rng, alphabet):
    """Sample a valid CNF grammar with a handful of rules."""
    while True:
        nts = ["S", "A", "B"][: rng.randint(2, 3)]
        binary = tuple((rng.choice(nts), rng.choice(nts), rng.choice(nts))
                       for _ in range(rng.randint(1, 3)))
        lexical = tuple((rng.choice(nts), rng.choice(alphabet))
                        for _ in range(rng.randint(2, 4)))
        try:
            return parse_grammar("\n".join(
                ["%start S"]
                + [f"{a} -> {b} {c}" for a, b, c in binary]
                + [f"{a} -> '{t}'" for a, t in lexical]))
        except GrammarError:
            continue


class TestViterbiCyk:
    def test_single_lexical_rule(self):
        g = parse_grammar("%start S\nS -> 'a'\n")
        tokens, score = viterbi_cyk(np.array([[0.7, 0.3]]), ["a", "b"], g)
        assert tokens == ["a"]
        assert score == pytest.approx(math.log(0.7), abs=1e-12)

    def test_the_constraint_beats_the_scores(self):
        g = parse_grammar("%start S\nS -> A B\nA -> 'a'\nB -> 'b'\n")
        dist = np.array([[0.1, 0.9], [0.9, 0.1]])  # argmax says "b a"
        tokens, score = viterbi_cyk(dist, ["a", "b"], g)
        assert tokens == ["a", "b"]
        assert score == pytest.approx(math.log(0.1) + math.log(0.1), abs=1e-12)

    def test_no_parse_at_impossible_length(self):
        g = parse_grammar("%start S\nS -> A B\nA -> 'a'\nB -> 'b'\n")
        with pytest.raises(NoParseError, match="no parse at length 3"):
            viterbi_cyk(np.full((3, 2), 0.5), ["a", "b"], g)

    def test_matches_brute_force_over_random_instances(self):
        rng = random.Random(11)
        np_rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            alphabet = ["a", "b", "c", "d"][: rng.randint(2, 4)]
            g = random_cnf(rng, alphabet)
            length = rng.randint(1, 4)
            dist = np_rng.dirichlet(np.ones(len(alphabet)), size=length)
            grammatical = [
                ys for ys in np.ndindex(*(len(alphabet),) * length)
                if oracles.cyk_recognizer(g, [alphabet[y] for y in ys])]
            if not grammatical:
                with pytest.raises(NoParseError):
                    viterbi_cyk(dist, alphabet, g)
                continue
            tokens, score = viterbi_cyk(dist, alphabet, g)
            assert oracles.cyk_recognizer(g, tokens)
            best = max(sum(math.log(dist[i, y]) for i, y in enumerate(ys))
                       for ys in grammatical)
            assert score == pytest.approx(best, abs=1e-9)
            checked += 1
        assert checked >= 15  # the sampler must exercise real parses

    def test_unknown_terminals_never_fill_the_chart(self):
        # a rule outside the alphabet is an error, never a silently
        # dropped rule (and not a NoParseError, which decode would skip)
        g = parse_grammar("%start S\nS -> A A\nA -> 'a'\nA -> 'zz'\n")
        with pytest.raises(GrammarError, match="A -> 'zz'") as exc:
            viterbi_cyk(np.full((2, 1), 1.0), ["a"], g)
        assert exc.value.rule == ("A", "zz")
        with pytest.raises(GrammarError, match="A -> 'zz'"):
            decode(small_model(), [0], grammar=g, target_vocab=target_vocab())


class TestPredictGrammar:
    def test_vacuous_grammar_agrees_with_predict(self):
        m = small_model(seed=2)
        src = [0, 3]
        k = len(feasible_lengths(m, src))
        plain = decode(m, src, k=k)
        constrained = decode(m, src, k=k, grammar=sigma_star_grammar(),
                             target_vocab=target_vocab())
        assert constrained.tokens == plain.tokens
        assert constrained.length == plain.length
        assert constrained.log_score == pytest.approx(plain.log_score, abs=1e-9)

    def test_forced_string_wins_even_when_improbable(self):
        m = small_model(seed=4)
        g = parse_grammar("%start S\nS -> A B\nA -> 'c'\nB -> 'a'\n")
        got = decode(m, [1, 2], k=10, grammar=g, target_vocab=target_vocab())
        assert got.length == 2
        assert target_vocab().decode(got.tokens) == ["c", "a"]

    def test_matches_the_grammar_aware_oracle(self):
        for seed in range(3):
            m = small_model(seed=seed)
            src = [seed % 4, (seed + 1) % 4]
            lengths = feasible_lengths(m, src)
            g = random_cnf(random.Random(seed + 20), TARGET_TOKENS)
            llp, tp = oracle_closures(m, src)
            want = oracles.exhaustive_decode(
                llp, tp, lengths, 3,
                accept=lambda ys: oracles.cyk_recognizer(
                    g, [TARGET_TOKENS[y] for y in ys]))
            if want is None:
                with pytest.raises(InferenceError, match="attempted"):
                    decode(m, src, k=len(lengths), grammar=g,
                           target_vocab=target_vocab())
                continue
            got = decode(m, src, k=len(lengths), grammar=g,
                         target_vocab=target_vocab())
            assert (got.length, tuple(got.tokens)) == want[:2]
            assert got.log_score == pytest.approx(want[2], abs=1e-9)

    def test_error_lists_the_attempted_lengths(self):
        m = small_model()
        # in the vocabulary, but every string it derives has length 3,
        # past the 2 copies a one-token source can reach
        g = parse_grammar("%start S\nS -> A B\nB -> A A\nA -> 'a'\n")
        with pytest.raises(InferenceError, match=r"attempted \[1(, \d)*\]"):
            decode(m, [0], k=10, grammar=g, target_vocab=target_vocab())


class TestPredictAutoregressive:
    def ar_model(self, seed=0, sharp=False, decoder_hidden=4, **overrides):
        m = small_model(seed=seed, decoder="autoregressive",
                        decoder_hidden=decoder_hidden, **overrides)
        if sharp:
            m.store["out.proj"].value *= 50.0
        return m

    def test_single_position_is_a_plain_argmax(self):
        m = self.ar_model(seed=3, source_vocab=2, max_fertility=1)
        got = decode(m, [1], k=1)
        assert got.length == 1
        with ad.no_grad():
            _, probs = m.complete(m.prepare([1]), 1, np.array([0], dtype=np.intp))
        assert got.tokens == [int(np.argmax(probs.value[0]))]
        np.testing.assert_array_equal(got.distributions, probs.value)

    def test_sharp_model_matches_exhaustive_search(self):
        m = self.ar_model(seed=5, sharp=True)
        src = [2, 1]
        lengths = feasible_lengths(m, src)

        with ad.no_grad():
            prep = m.prepare(src)

        def llp(l):
            return float(np.log(prep.length_probs.value[l]))

        best = None
        for l in lengths:
            for ys in np.ndindex(*(3,) * l):
                ids = np.array(ys, dtype=np.intp)
                with ad.no_grad():
                    _, probs = m.complete(m.prepare(src), l, ids)
                score = llp(l) + float(
                    np.log(probs.value[np.arange(l), ids]).sum())
                if best is None or score > best[2]:
                    best = (l, list(ys), score)

        got = decode(m, src, k=len(lengths))
        assert (got.length, got.tokens) == best[:2]
        assert got.log_score == pytest.approx(best[2], abs=1e-9)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_teacher_forced_complete(self, k):
        # sources long enough that the best lengths need several decoder steps
        for seed, src in enumerate([[2, 1, 3], [0, 3, 1, 2], [1, 1, 2], [3, 0, 0, 1]]):
            m = self.ar_model(seed=seed, sharp=True)
            got = decode(m, src, k=k)
            ys = np.array(got.tokens, dtype=np.intp)
            with ad.no_grad():
                st, probs = m.complete(m.prepare(src), got.length, ys)
            probs = probs.value
            assert got.tokens == [int(y) for y in np.argmax(probs, axis=1)]
            np.testing.assert_allclose(got.distributions, probs, rtol=0, atol=1e-12)
            score = float(st.log_length.value
                          + np.log(probs[np.arange(got.length), ys]).sum())
            assert abs(got.log_score - score) <= 1e-12

    @pytest.mark.parametrize("composition", ["fertility-first", "reorder-first"])
    @pytest.mark.parametrize("hidden", [4, 5])  # equal to embedding_dim, or not
    def test_greedy_rows_equal_teacher_forced_rows(self, composition, hidden):
        # the rows of decode, and greedy rows at every feasible length
        rng = np.random.default_rng(hidden)
        for n in range(1, 7):
            m = self.ar_model(seed=n, composition=composition, decoder_hidden=hidden)
            src = [int(t) for t in rng.integers(0, 4, size=n)]
            got = decode(m, src, k=2)
            assert got.tokens == np.argmax(got.distributions, axis=1).tolist()
            with ad.no_grad():
                prep = m.prepare(src)
                greedy = {length: m.complete(prep, length)[1].value
                          for length in feasible_lengths(m, src)}
                greedy[got.length] = got.distributions
                for length, rows in greedy.items():
                    _, forced = m.complete(prep, length, np.argmax(rows, axis=1))
                    np.testing.assert_allclose(rows, forced.value, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("composition", ["fertility-first", "reorder-first"])
    @pytest.mark.parametrize("hidden", [4, 5])  # equal to embedding_dim, or not
    def test_greedy_matches_one_position_per_call(self, composition, hidden,
                                                  monkeypatch):
        # the reference decides one position per call: row i of teacher
        # forcing depends only on the ids before i, so its argmax is greedy
        # token i once those are decided
        def one_position_per_call(m, prep, length):
            ids = np.zeros(length, dtype=np.intp)
            for i in range(length):
                rows = m.complete(prep, length, ids)[1].value
                ids[i] = np.argmax(rows[i])
            return ids.tolist(), rows

        calls = []
        ar_context = Model.ar_context

        def recorded(self, prep, prev_ids, state=None):
            calls.append(len(prev_ids))
            return ar_context(self, prep, prev_ids, state)

        monkeypatch.setattr(Model, "ar_context", recorded)
        rng = np.random.default_rng(hidden)
        passes = []
        for seed in range(5):
            # sharp tables and a strong decoder LSTM, so guesses often miss
            m = self.ar_model(seed=seed, sharp=True, composition=composition,
                              decoder_hidden=hidden)
            m.store["ar.W"].value *= 5.0
            m.store["emb_tgt"].value *= 5.0
            for n in (2, 3, 4):
                src = [int(t) for t in rng.integers(0, 4, size=n)]
                with ad.no_grad():
                    prep = m.prepare(src)
                    for length in feasible_lengths(m, src):
                        calls.clear()
                        rows = m.complete(prep, length)[1].value
                        # one call per pass, and one more carrying the state
                        # after each pass but the last
                        assert len(calls) % 2 == 1 or not calls
                        count = (len(calls) + 1) // 2
                        assert count <= length and (count > 0) == (length > 1)
                        passes.append(count)
                        tokens, want = one_position_per_call(m, prep, length)
                        assert np.argmax(rows, axis=1).tolist() == tokens
                        np.testing.assert_allclose(rows, want, rtol=0, atol=1e-15)
        assert max(passes) >= 2

    def test_structure_is_built_once_per_candidate_length(self, monkeypatch):
        m = self.ar_model(seed=4, sharp=True)
        src = [0, 2, 1]
        k = 3
        with ad.no_grad():
            lengths = top_lengths(m.prepare(src).length_probs.value, k)
        assert len(lengths) == k
        calls = {"perm": 0, "marg": 0}
        steps = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(reordering, "expected_permutation",
                            counted("perm", reordering.expected_permutation))
        monkeypatch.setattr(fertility, "marginal_fertility",
                            counted("marg", fertility.marginal_fertility))
        lstm = ad.lstm

        def recorded_lstm(zx, wh, state=None):
            steps.append(zx.shape[0])
            return lstm(zx, wh, state)

        monkeypatch.setattr(ad, "lstm", recorded_lstm)
        decode(m, src, k=k)
        assert calls == {"perm": k, "marg": k}
        # every candidate is decided in one pass: one lstm call over the
        # length - 1 guessed ids
        assert steps == [length - 1 for length in lengths if length > 1]

    def test_fixed_model_is_deterministic(self):
        m = self.ar_model(seed=9)
        a = decode(m, [0, 2], k=2)
        b = decode(m, [0, 2], k=2)
        assert a.tokens == b.tokens and a.log_score == b.log_score


def count_complete_calls(monkeypatch):
    calls = []
    complete = Model.complete

    def counted(self, prep, length, target_ids=None):
        calls.append(length)
        return complete(self, prep, length, target_ids)

    monkeypatch.setattr(Model, "complete", counted)
    return calls


class TestDecodeDispatch:
    def test_plain_route_defaults_to_one_length(self, monkeypatch):
        m = small_model(seed=1)
        src = [0, 1, 2]
        with ad.no_grad():
            prep = m.prepare(src)
            top = top_lengths(prep.length_probs.value, 1)[0]
            _, probs = m.complete(prep, top)
            probs = probs.value
        calls = count_complete_calls(monkeypatch)
        got = decode(m, src)
        assert calls == [top] and got.length == top
        assert got.tokens == [int(y) for y in np.argmax(probs, axis=1)]

    def test_grammar_route_defaults_to_five_lengths(self, monkeypatch):
        m = small_model(seed=1)
        src = [0, 1, 2]
        assert len(feasible_lengths(m, src)) > 5
        with ad.no_grad():
            want = top_lengths(m.prepare(src).length_probs.value, 5)
        calls = count_complete_calls(monkeypatch)
        got = decode(m, src, grammar=sigma_star_grammar(),
                     target_vocab=target_vocab())
        assert calls == want and got.length in want

    def test_grammar_route_needs_a_vocabulary(self):
        with pytest.raises(ad.UsageError, match="vocabulary"):
            decode(small_model(), [0], grammar=sigma_star_grammar())

    def test_grammar_route_needs_a_position_independent_decoder(self):
        m = small_model(decoder="autoregressive", decoder_hidden=3)
        with pytest.raises(ad.UsageError, match="position-independent"):
            decode(m, [0], grammar=sigma_star_grammar(),
                   target_vocab=target_vocab())

    def test_autoregressive_route(self, monkeypatch):
        m = small_model(seed=6, decoder="autoregressive", decoder_hidden=4)
        src = [1, 0]
        with ad.no_grad():
            top = top_lengths(m.prepare(src).length_probs.value, 1)[0]
        calls = count_complete_calls(monkeypatch)
        got = decode(m, src)
        assert calls == [top] and got.length == top
        with ad.no_grad():
            _, probs = m.complete(m.prepare(src), top, np.array(got.tokens))
        assert got.tokens == [int(y) for y in np.argmax(probs.value, axis=1)]

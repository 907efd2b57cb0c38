"""The brute-force references themselves, checked on closed-form cases."""
import math

import numpy as np
import pytest

from structran import oracles
from structran.grammar import parse_grammar


class TestFertilityEnumeration:
    def test_length_distribution_by_hand(self):
        probs = np.array([[0.3, 0.7], [0.4, 0.6]])
        dist = oracles.enum_length_distribution(probs)
        np.testing.assert_allclose(dist, [0.12, 0.46, 0.42], atol=1e-15)

    def test_deterministic_fertilities_give_an_indicator_tensor(self):
        probs = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        marg, p = oracles.enum_fertility_marginals(probs, 3)
        assert p == pytest.approx(1.0)
        assert set(np.unique(marg)) <= {0.0, 1.0}
        assert marg[0, 0, 0] == marg[0, 1, 1] == marg[1, 2, 0] == 1.0
        assert marg.sum() == 3.0

    def test_single_token_marginal(self):
        marg, p = oracles.enum_fertility_marginals(np.array([[0.2, 0.8]]), 1)
        assert p == pytest.approx(0.8)
        assert marg[0, 0, 0] == pytest.approx(1.0)

    def test_impossible_length_is_an_error(self):
        probs = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="zero probability"):
            oracles.enum_fertility_marginals(probs, 1)

    def test_enumeration_guard(self):
        big = np.full((21, 2), 0.5)
        with pytest.raises(ValueError, match="too large"):
            oracles.enum_fertility_marginals(big, 5)
        with pytest.raises(ValueError, match="too large"):
            oracles.enum_length_distribution(big)


class TestTreeEnumeration:
    def test_tree_counts_match_the_closed_form(self):
        # Catalan(l-1) bracketings times 2^(l-1) orientation labelings
        catalan = [1, 1, 2, 5, 14, 42]
        for l in range(2, 7):
            want = catalan[l - 1] * 2 ** (l - 1)
            assert oracles.count_labeled_trees(l) == want
        assert oracles.count_labeled_trees(1) == 1

    def test_permutation_support_sizes_are_schroeder(self):
        for l, want in [(1, 1), (2, 2), (3, 6), (4, 22), (5, 90)]:
            assert len(oracles.enum_permutation_support(l)) == want

    def test_non_separable_patterns_are_absent(self):
        support = oracles.enum_permutation_support(4)
        assert (2, 0, 3, 1) not in support
        assert (1, 3, 0, 2) not in support
        assert (3, 2, 1, 0) in support

    def test_every_enumerated_entry_is_a_permutation(self):
        for perm, nodes in oracles.enum_labeled_trees(0, 4):
            assert sorted(perm) == [0, 1, 2, 3]
            assert len(nodes) == 3  # internal nodes of a 4-leaf binary tree

    def test_uniform_two_leaf_expectation(self):
        mat, logz = oracles.enum_tree_expectation({(0, 2): (0.0, 0.0)}, 2)
        np.testing.assert_allclose(mat, 0.5)
        assert logz == pytest.approx(math.log(2))

    def test_zero_scores_count_trees(self):
        scores = {(i, i + w): (0.0, 0.0) for w in (2, 3, 4) for i in range(4 - w + 1)}
        mat, logz = oracles.enum_tree_expectation(scores, 4)
        assert logz == pytest.approx(math.log(40))
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_one_hot_scores_pick_out_a_single_permutation(self):
        scores = {(i, i + w): [0.0, 0.0] for w in (2, 3, 4) for i in range(4 - w + 1)}
        scores[(0, 2)][0] = 50.0   # keep the first pair
        scores[(2, 4)][1] = 50.0   # swap the second pair
        scores[(0, 4)][1] = 50.0   # emit the right block first
        mat, _ = oracles.enum_tree_expectation(
            {k: tuple(v) for k, v in scores.items()}, 4)
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 3] = want[2, 1] = want[3, 0] = 1.0
        np.testing.assert_allclose(mat, want, atol=1e-9)


class TestExhaustiveDecoding:
    def test_score_ties_prefer_the_smaller_length(self):
        l, ys, score = oracles.exhaustive_decode(
            lambda l: math.log(0.5), lambda l: np.ones((l, 1)), [1, 2], 1)
        assert (l, ys) == (1, (0,))
        assert score == pytest.approx(math.log(0.5))

    def test_token_ties_prefer_the_smaller_id(self):
        l, ys, _ = oracles.exhaustive_decode(
            lambda l: 0.0, lambda l: np.full((l, 2), 0.5), [1], 2)
        assert (l, ys) == (1, (0,))

    def test_picks_the_joint_maximizer(self):
        def token_probs(l):
            return np.array([[0.2, 0.8], [0.9, 0.1]])[:l]

        def llp(l):
            return math.log([0.0, 0.3, 0.7][l])

        l, ys, score = oracles.exhaustive_decode(llp, token_probs, [1, 2], 2)
        assert (l, ys) == (2, (1, 0))
        assert score == pytest.approx(math.log(0.7 * 0.8 * 0.9))

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="too large"):
            oracles.exhaustive_decode(lambda l: 0.0,
                                      lambda l: np.ones((l, 2)), [21], 2)


AB_GRAMMAR = parse_grammar(
    "%start S\nS -> A B\nS -> A T\nT -> S B\nA -> 'a'\nB -> 'b'\n")


class TestRecognizer:
    @pytest.mark.parametrize("tokens,member", [
        (["a", "b"], True),
        (["a", "a", "b", "b"], True),
        (["a", "a", "a", "b", "b", "b"], True),
        (["b", "a"], False),
        (["a", "a", "b"], False),
        (["a"], False),
        ([], False),
    ])
    def test_matched_bracket_language(self, tokens, member):
        assert oracles.cyk_recognizer(AB_GRAMMAR, tokens) is member

    def test_grammar_filtered_decode(self):
        def token_probs(l):
            return np.full((l, 2), 0.5)

        best = oracles.exhaustive_decode(
            lambda l: math.log(0.5), token_probs, [1, 2], 2,
            accept=lambda ys: oracles.cyk_recognizer(AB_GRAMMAR, ["ab"[y] for y in ys]))
        assert best is not None
        l, ys, score = best
        assert (l, ys) == (2, (0, 1))
        assert score == pytest.approx(math.log(0.5) + 2 * math.log(0.5))

    def test_no_grammatical_candidate_returns_none(self):
        got = oracles.exhaustive_decode(
            lambda l: 0.0, lambda l: np.ones((l, 1)), [1, 3], 1,
            accept=lambda ys: oracles.cyk_recognizer(AB_GRAMMAR, ["a"] * len(ys)))
        assert got is None


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        arr = np.array([1.0, -2.0, 0.5])
        grads = oracles.finite_difference_grad(
            lambda: float(np.sum(arr ** 2)), [arr])
        np.testing.assert_allclose(grads[0], 2 * arr, atol=1e-5)

    def test_arrays_are_restored(self):
        arr = np.array([0.3, 0.7])
        snapshot = arr.copy()
        oracles.finite_difference_grad(lambda: float(arr.sum()), [arr])
        np.testing.assert_array_equal(arr, snapshot)

    def test_relative_error_measure(self):
        assert oracles.max_relative_error([np.array([1.0])], [np.array([1.0])]) == 0.0
        got = oracles.max_relative_error([np.array([1.1])], [np.array([1.0])])
        assert got == pytest.approx(0.1, rel=1e-6)
        assert oracles.max_relative_error([], []) == 0.0

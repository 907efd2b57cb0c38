"""Inside values, split posteriors, and expected permutations for the
straight/inverted binary-tree distribution."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from structran import autodiff as ad
from structran import oracles, reordering


def score_chart(length, arr) -> reordering.SpanScores:
    return reordering.SpanScores(length, ad.constant(np.asarray(arr, dtype=float)))


def zero_chart(length) -> reordering.SpanScores:
    rows = len(reordering.spans(length))
    return score_chart(length, np.zeros((rows, 2)))


def random_chart(rng, length, scale=1.5) -> reordering.SpanScores:
    rows = len(reordering.spans(length))
    return score_chart(length, rng.normal(size=(rows, 2)) * scale)


def root_logz(ss: reordering.SpanScores) -> float:
    z, _, _, _ = reordering._chart_posteriors(ss.scores.value, reordering._plan(ss.length))
    return float(z[ss.length, 0])


def split_table(ss: reordering.SpanScores, i: int, j: int) -> np.ndarray:
    """(w-1, 2) posterior over (split, orientation) of span (i, j);
    row k-i-1 holds split point k."""
    _, po, _, ps = reordering._chart_posteriors(ss.scores.value, reordering._plan(ss.length))
    k = reordering.spans(ss.length).index((i, j))
    return ps[j - i][:, i, None] * po[k][None, :]


def score_lookup(ss: reordering.SpanScores) -> dict:
    v = ss.scores.value
    return {(i, j): (v[k, 0], v[k, 1])
            for k, (i, j) in enumerate(reordering.spans(ss.length))}


class TestSpanIndexing:
    def test_width_major_order(self):
        assert reordering.spans(4) == [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4), (0, 4)]


class TestInside:
    def test_single_leaf(self):
        assert root_logz(zero_chart(1)) == 0.0

    def test_two_leaves_two_labelings(self):
        assert root_logz(zero_chart(2)) == pytest.approx(math.log(2))

    def test_three_leaves_eight_derivations(self):
        assert root_logz(zero_chart(3)) == pytest.approx(math.log(8))

    @pytest.mark.parametrize("length,count", [(2, 2), (3, 8), (4, 40), (5, 224), (6, 1344)])
    def test_zero_scores_count_derivations(self, length, count):
        assert root_logz(zero_chart(length)) == pytest.approx(math.log(count), abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_matches_enumerated_partition(self, seed, length):
        ss = random_chart(np.random.default_rng(seed), length)
        _, logz = oracles.enum_tree_expectation(score_lookup(ss), length)
        assert root_logz(ss) == pytest.approx(logz, abs=1e-9)


class TestSplitViews:
    """Each view of `_split_views` addresses exactly the chart elements its
    docstring names, and stays inside the chart's buffer."""

    @staticmethod
    def assert_inside(view, base):
        lo, hi = byte_bounds(view)
        base_lo, base_hi = byte_bounds(base)
        assert base_lo <= lo and hi <= base_hi

    @pytest.mark.parametrize("length", range(2, 13))
    def test_views_follow_their_index_maps(self, length):
        # sentinels: every element holds its own flat index
        O = np.arange(float((length + 1) * length * length)).reshape(length + 1, length, length)
        Z = np.arange(float((length + 1) * length)).reshape(length + 1, length)
        for w in range(2, length + 1):
            n = length - w + 1
            left, right = reordering._split_views(Z, w)
            left_s, right_s, right_i, left_i = reordering._split_views(O, w)
            for view in (left, right):
                assert view.shape == (w - 1, n)
                self.assert_inside(view, Z)
            for view in (left_s, right_s, right_i, left_i):
                assert view.shape == (w - 1, n, n)
                self.assert_inside(view, O)
            for k in range(w - 1):
                c = k + 1
                for i in range(n):
                    assert left[k, i] == Z[c, i]
                    assert right[k, i] == Z[w - c, c + i]
                    for s in range(n):
                        assert left_s[k, i, s] == O[c, i, s]
                        assert right_s[k, i, s] == O[w - c, c + i, c + s]
                        assert right_i[k, i, s] == O[w - c, c + i, s]
                        assert left_i[k, i, s] == O[c, i, w - c + s]


class TestPlan:
    """The flat (w, c, i) split layout of `_plan` against spans(length)."""

    @pytest.mark.parametrize("length", range(0, 13))
    def test_span_endpoints_follow_spans(self, length):
        left, right = reordering.span_endpoints(length)
        assert left.dtype == right.dtype == np.intp
        assert list(zip(left.tolist(), right.tolist())) == reordering.spans(length)

    @pytest.mark.parametrize("length", range(2, 13))
    def test_layout_follows_spans(self, length):
        plan = reordering._plan(length)
        row = {span: k for k, span in enumerate(reordering.spans(length))}
        assert [w for w, _, _, _ in plan.blocks] == list(range(2, length + 1))
        end = 0
        for w, n, a, b in plan.blocks:
            assert n == length - w + 1 and a == end and b - a == (w - 1) * n
            end = b
            for c in range(1, w):
                for i in range(n):
                    assert plan.span_of[a + (c - 1) * n + i] == row[(i, i + w)]
        assert plan.span_of.shape == (end,)
        for (i, j), k in row.items():
            assert plan.cells[k] == (j - i) * length + i

    @pytest.mark.parametrize("length", range(2, 13))
    def test_split_posteriors_are_views_of_one_buffer(self, length):
        plan = reordering._plan(length)
        ss = random_chart(np.random.default_rng(length), length)
        _, _, split, ps = reordering._chart_posteriors(ss.scores.value, plan)
        base = byte_bounds(split)[0]
        for w, n, a, b in plan.blocks:
            assert ps[w].shape == (w - 1, n)
            assert byte_bounds(ps[w]) == (base + a * split.itemsize, base + b * split.itemsize)
            np.testing.assert_array_equal(ps[w], split[a:b].reshape(w - 1, n))

    def test_plan_is_cached_and_read_only(self):
        bound = reordering._PLAN_CACHE_LENGTHS
        plan = reordering._plan(bound)
        assert reordering._plan(bound) is plan
        for arr in (plan.span_of, plan.cells):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            plan.span_of = plan.span_of.copy()
        longer = reordering._plan(bound + 1)
        assert reordering._plan(bound + 1) is not longer
        assert max(reordering._PLANS) <= bound
        assert not longer.span_of.flags.writeable


class TestSplitPosteriors:
    def test_two_leaves_symmetric(self):
        np.testing.assert_allclose(split_table(zero_chart(2), 0, 2), [[0.5, 0.5]])

    def test_three_leaves_uniform(self):
        np.testing.assert_allclose(split_table(zero_chart(3), 0, 3), np.full((2, 2), 0.25))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_tables_normalize(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 7))
        ss = random_chart(rng, length)
        for (i, j) in reordering.spans(length):
            assert split_table(ss, i, j).sum() == pytest.approx(1.0, abs=1e-9)


class TestExpectedPermutation:
    def test_two_leaves_uniform(self):
        perm = reordering.expected_permutation(zero_chart(2))
        np.testing.assert_allclose(perm.value, [[0.5, 0.5], [0.5, 0.5]])

    def test_point_mass_reverses_pairs(self):
        # force the derivation (inverted (straight a b) (inverted c d)):
        # "ab" stays, "cd" flips, then the halves swap, giving dcab
        length = 4
        rows = len(reordering.spans(length))
        arr = np.full((rows, 2), -1e4)
        index = reordering.spans(length).index
        arr[index((0, 2))] = [1e4, -1e4]
        arr[index((2, 4))] = [-1e4, 1e4]
        arr[index((0, 4))] = [-1e4, 1e4]
        perm = reordering.expected_permutation(score_chart(length, arr)).value
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 3] = want[2, 1] = want[3, 0] = 1.0
        np.testing.assert_allclose(perm, want, atol=1e-9)

    def test_straight_bias_gives_identity(self):
        for length in (3, 5, 7):
            rows = len(reordering.spans(length))
            arr = np.zeros((rows, 2))
            arr[:, 0] = 30.0  # straight wins every orientation choice
            perm = reordering.expected_permutation(score_chart(length, arr)).value
            assert np.abs(perm - np.eye(length)).max() <= 1e-9

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_matches_enumeration(self, seed, length):
        ss = random_chart(np.random.default_rng(seed), length)
        perm = reordering.expected_permutation(ss).value
        want, _ = oracles.enum_tree_expectation(score_lookup(ss), length)
        np.testing.assert_allclose(perm, want, atol=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_doubly_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 13))
        perm = reordering.expected_permutation(random_chart(rng, length)).value
        np.testing.assert_allclose(perm.sum(axis=0), np.ones(length), atol=1e-6)
        np.testing.assert_allclose(perm.sum(axis=1), np.ones(length), atol=1e-6)
        assert perm.min() >= 0.0

    def test_two_leaves_follow_orientation_posterior(self):
        ss = random_chart(np.random.default_rng(9), 2)
        straight, inverted = split_table(ss, 0, 2)[0]
        np.testing.assert_allclose(reordering.expected_permutation(ss).value,
                                   [[straight, inverted], [inverted, straight]], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        length = 4
        rows = len(reordering.spans(length))
        scores = rng.normal(size=(rows, 2))

        def loss_from(arr):
            perm = reordering.expected_permutation(score_chart(length, arr))
            return ad.sum_(ad.log(ad.add(perm, ad.constant(np.full((length, length), 1e-3)))))

        node = ad.parameter(scores.copy())
        perm = reordering.expected_permutation(reordering.SpanScores(length, node))
        root = ad.sum_(ad.log(ad.add(perm, ad.constant(np.full((length, length), 1e-3)))))
        ad.backward(root)
        fd_arr = scores.copy()
        numeric = oracles.finite_difference_grad(
            lambda: float(loss_from(fd_arr).value), [fd_arr])
        assert oracles.max_relative_error([node.grad], numeric) <= 1e-4


class TestLongEnd:
    """Outputs of 80 or more: the matrix stays finite and doubly stochastic."""

    @pytest.mark.parametrize("kind", ["scale2", "sharp"])
    def test_length_81(self, kind):
        length = 81
        rng = np.random.default_rng(81)
        rows = len(reordering.spans(length))
        if kind == "scale2":
            scores = rng.normal(size=(rows, 2)) * 2.0
        else:
            scores = rng.choice([-40.0, 40.0], size=(rows, 2))
        plan = reordering._plan(length)
        _, _, split, _ = reordering._chart_posteriors(scores, plan)
        assert np.isfinite(split).all()
        np.testing.assert_allclose(np.bincount(plan.span_of, split), np.ones(rows),
                                   rtol=0, atol=1e-12)
        node = ad.parameter(scores)
        perm = reordering.expected_permutation(reordering.SpanScores(length, node))
        ad.backward(ad.sum_(ad.mul(perm, ad.constant(rng.normal(size=(length, length))))))
        p = perm.value
        assert np.isfinite(p).all() and p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=0), np.ones(length), atol=1e-9)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(length), atol=1e-9)
        assert np.isfinite(node.grad).all()


class TestSupport:
    def test_separable_count_for_four_leaves(self):
        support = oracles.enum_permutation_support(4)
        assert len(support) == 22

    def test_unreachable_permutations_stay_unreachable(self):
        support = oracles.enum_permutation_support(4)
        assert (2, 0, 3, 1) not in support  # 3142
        assert (1, 3, 0, 2) not in support  # 2413

    def test_reachable_permutation_is_in_support(self):
        assert (2, 3, 1, 0) in oracles.enum_permutation_support(4)

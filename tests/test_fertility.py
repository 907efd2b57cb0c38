"""Length and copy-alignment marginals against brute-force enumeration."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from structran import autodiff as ad
from structran import fertility, oracles


def table(rows) -> fertility.FertilityTable:
    return fertility.FertilityTable(ad.constant(np.asarray(rows, dtype=float)))


def random_table(rng, n, d) -> fertility.FertilityTable:
    raw = rng.random((n, d + 1)) + 0.05
    return table(raw / raw.sum(axis=1, keepdims=True))


def mean_fertilities(mf: ad.Node) -> np.ndarray:
    """E[f_i | total = length] per token."""
    return mf.value.sum(axis=(1, 2))


def softmax_table(logits: ad.Node) -> fertility.FertilityTable:
    return fertility.FertilityTable(ad.softmax(logits, axis=-1))


def assert_sweep_shares(ft: fertility.FertilityTable) -> None:
    """The shares of the stacked prefix/suffix sweep are finite, exactly 0
    at infeasible totals, and sum to 1 over the counts elsewhere."""
    logp = ft.log_probs
    out, weights = fertility._sweep(np.stack([logp, logp[::-1]]))
    assert np.isfinite(weights).all()
    infeasible = out[:, 1:] == -np.inf
    assert (weights.transpose(0, 1, 3, 2)[infeasible] == 0.0).all()
    np.testing.assert_allclose(weights.sum(axis=2)[~infeasible], 1.0, rtol=0, atol=1e-12)


class TestLengthTables:
    def test_deterministic_ones(self):
        prefix = np.exp(table([[0, 1], [0, 1]]).log_tables.value[0])
        assert prefix[2][2] == pytest.approx(1.0)
        assert prefix[2].sum() == pytest.approx(1.0)

    def test_uniform_two_tokens(self):
        prefix = np.exp(table([[0.5, 0.5], [0.5, 0.5]]).log_tables.value[0])
        np.testing.assert_allclose(prefix[2], [0.25, 0.5, 0.25])

    def test_forward_backward_give_same_totals(self):
        rng = np.random.default_rng(0)
        ft = random_table(rng, 4, 3)
        prefix, suffix = np.exp(ft.log_tables.value)
        # prefix totals over all tokens == suffix totals over all tokens
        np.testing.assert_allclose(prefix[ft.n], suffix[0], atol=1e-12)
        assert prefix[ft.n].sum() == pytest.approx(1.0, abs=1e-12)


class TestTableChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        with pytest.raises(ad.DomainError):
            table([[bad, 0.5, 0.5], [0.2, 0.3, 0.5]])

    def test_zero_entries_and_infeasible_lengths_raise_no_warning(self):
        node = ad.parameter(np.array([[0.0, 0.5, 0.5], [0.3, 0.7, 0.0],
                                      [0.0, 1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ft = fertility.FertilityTable(node)
            assert_sweep_shares(ft)
            dist = fertility.length_distribution(ft).value
            for length in (1, 5, 6):
                with pytest.raises(fertility.InfeasibleLengthError):
                    fertility.marginal_fertility(ft, length)
            loss = ad.sum_(fertility.marginal_fertility(ft, 4))
            ad.backward(loss + fertility.log_length_probability(ft, 3))
        np.testing.assert_array_equal(dist[[0, 1, 5, 6]], 0.0)
        assert np.isfinite(node.grad).all()


class TestLengthDistribution:
    def test_point_mass_at_n(self):
        dist = fertility.length_distribution(table([[0, 1], [0, 1], [0, 1]]))
        np.testing.assert_allclose(dist.value, [0, 0, 0, 1.0], atol=1e-15)

    def test_single_token_fertility_two(self):
        dist = fertility.length_distribution(table([[0, 0, 1]]))
        np.testing.assert_allclose(dist.value, [0, 0, 1.0], atol=1e-15)

    def test_uniform_convolution(self):
        dist = fertility.length_distribution(table([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(dist.value, [0.25, 0.5, 0.25])

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_normalizes_and_matches_enumeration(self, seed, n, d):
        ft = random_table(np.random.default_rng(seed), n, d)
        dist = fertility.length_distribution(ft).value
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(dist, oracles.enum_length_distribution(ft.probs.value),
                                   atol=1e-12)

    def test_log_probability_consistent(self):
        rng = np.random.default_rng(4)
        ft = random_table(rng, 3, 2)
        dist = fertility.length_distribution(ft).value
        for l in range(1, ft.max_length + 1):
            got = fertility.log_length_probability(ft, l).value
            assert got == pytest.approx(math.log(dist[l]), abs=1e-10)


class TestMarginalFertility:
    def test_identity_alignment(self):
        mf = fertility.marginal_fertility(table([[0, 1], [0, 1]]), 2)
        t = mf.value
        assert t[0, 0, 0] == pytest.approx(1.0)
        assert t[1, 1, 0] == pytest.approx(1.0)
        assert t.sum() == pytest.approx(2.0)

    def test_uniform_short_output(self):
        mf = fertility.marginal_fertility(table([[0.5, 0.5], [0.5, 0.5]]), 1)
        t = mf.value
        assert t[0, 0, 0] == pytest.approx(0.5)
        assert t[1, 0, 0] == pytest.approx(0.5)

    def test_second_copy_lands_after_predecessors(self):
        # deterministic fertilities (2, 2, 1, 2): token 4's copies are the
        # sixth and seventh intermediate slots, tagged as copy 1 and copy 2
        rows = [[0, 0, 1], [0, 0, 1], [0, 1, 0], [0, 0, 1]]
        mf = fertility.marginal_fertility(table(rows), 7)
        t = mf.value
        assert t[3, 5, 0] == pytest.approx(1.0)
        assert t[3, 6, 1] == pytest.approx(1.0)
        assert np.count_nonzero(t) == 7

    def test_infeasible_length_raises(self):
        with pytest.raises(fertility.InfeasibleLengthError) as info:
            fertility.marginal_fertility(table([[0, 1], [0, 1]]), 1)
        assert info.value.length == 1
        assert info.value.support == [2]

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_columns_normalize(self, seed, n, d, length):
        ft = random_table(np.random.default_rng(seed), n, d)
        if length > ft.max_length:
            length = ft.max_length
        mf = fertility.marginal_fertility(ft, length)
        cols = mf.value.sum(axis=(0, 2))
        np.testing.assert_allclose(cols, np.ones(length), atol=1e-6)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            ft = random_table(rng, 3, 2)
            for length in range(1, ft.max_length + 1):
                mf = fertility.marginal_fertility(ft, length)
                want, _ = oracles.enum_fertility_marginals(ft.probs.value, length)
                np.testing.assert_allclose(mf.value, want, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(3, 3))
        mask = rng.random((3, 5, 2)) < 0.4
        mask[0, 0, 0] = True  # keep the loss nonconstant

        def loss_value(arr):
            probs = ad.softmax(ad.constant(arr), axis=-1)
            mf = fertility.marginal_fertility(fertility.FertilityTable(probs), 5)
            picked = ad.mul(mf, ad.constant(mask.astype(float)))
            return ad.log(ad.sum_(picked))

        node = ad.parameter(logits.copy())
        probs = ad.softmax(node, axis=-1)
        mf = fertility.marginal_fertility(fertility.FertilityTable(probs), 5)
        root = ad.log(ad.sum_(ad.mul(mf, ad.constant(mask.astype(float)))))
        ad.backward(root)
        fd_arr = logits.copy()
        numeric = oracles.finite_difference_grad(
            lambda: float(loss_value(fd_arr).value), [fd_arr])
        assert oracles.max_relative_error([node.grad], numeric) <= 1e-4


class TestExpectedFertilities:
    def test_identity_case(self):
        mf = fertility.marginal_fertility(table([[0, 1], [0, 1]]), 2)
        np.testing.assert_allclose(mean_fertilities(mf), [1.0, 1.0])

    def test_uniform_short_output(self):
        mf = fertility.marginal_fertility(table([[0.5, 0.5], [0.5, 0.5]]), 1)
        np.testing.assert_allclose(mean_fertilities(mf), [0.5, 0.5])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sums_to_length(self, seed):
        rng = np.random.default_rng(seed)
        ft = random_table(rng, 4, 2)
        length = int(rng.integers(1, ft.max_length + 1))
        mf = fertility.marginal_fertility(ft, length)
        total = mean_fertilities(mf).sum()
        assert total == pytest.approx(length, abs=1e-9)


class TestWindow:
    """`_window` addresses the cells of the gather out[:, i, d + h - r] and
    stays inside the padded table's buffer."""

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (4, 1), (5, 4), (9, 2)])
    def test_view_matches_the_gather(self, n, d):
        width = n * d + 1
        # sentinels: every element holds its own flat index
        out = np.arange(float(2 * (n + 1) * (d + width))).reshape(2, n + 1, d + width)
        shifted = d + np.arange(width) - np.arange(d + 1)[:, None]
        lo, hi = byte_bounds(out)
        for i in range(n):
            # the sweep's width at row i, and the whole row
            for top in ((i + 1) * d + 1, width):
                view = fertility._window(out, i, d + 1, top)
                assert view.shape == (2, d + 1, top)
                np.testing.assert_array_equal(view, out[:, i, shifted[:, :top]])
                v_lo, v_hi = byte_bounds(view)
                assert lo <= v_lo and v_hi <= hi
                assert np.shares_memory(view, out)


class TestOperationCount:
    def test_marginal_cost_scales_with_n_l_d_squared(self, monkeypatch):
        tables_built = []
        shares_size = []
        build_tables = fertility._log_tables
        pair_shares = fertility._pair_shares

        def counting_tables(ft):
            tables_built.append(ft.n)
            return build_tables(ft)

        def measuring_shares(ft, length, logz):
            out = pair_shares(ft, length, logz)
            shares_size.append(sum(share.size for _, _, share in out))
            return out

        monkeypatch.setattr(fertility, "_log_tables", counting_tables)
        monkeypatch.setattr(fertility, "_pair_shares", measuring_shares)
        rng = np.random.default_rng(6)
        worst = 0.0
        cases = [(3, 2, 4), (6, 2, 8), (6, 4, 12), (10, 3, 20), (40, 4, 80)]
        for n, d, length in cases:
            ft = random_table(rng, n, d)
            fertility.length_distribution(ft)
            fertility.log_length_probability(ft, length)
            fertility.marginal_fertility(ft, length)
            fertility.marginal_fertility(ft, length - 1)
            worst = max(worst, max(shares_size[-2:]) / (n * length * d * d))
        # one prefix/suffix sweep per table, whatever reads it
        assert tables_built == [n for n, _, _ in cases]
        assert worst <= 1.0


class TestLongEnd:
    """n = 40, d = 4 with every probability at least e^-80: lengths far in
    the tail underflow any linear-domain table but stay exact in log space."""

    N, D = 40, 4

    def logits(self):
        arr = np.full((self.N, self.D + 1), -40.0)
        arr[:, 1] = 40.0
        return arr

    def test_every_length_is_feasible_and_normalized(self):
        ft = softmax_table(ad.constant(self.logits()))
        logs = [float(fertility.log_length_probability(ft, l).value)
                for l in range(1, self.N * self.D + 1)]
        assert all(math.isfinite(v) for v in logs)
        assert np.logaddexp.reduce(logs) == pytest.approx(0.0, abs=1e-9)

    def test_sweep_shares_normalize(self):
        assert_sweep_shares(softmax_table(ad.constant(self.logits())))

    @pytest.mark.parametrize("length", [41, 80, 120])
    def test_marginal_columns_normalize(self, length):
        ft = softmax_table(ad.constant(self.logits()))
        mf = fertility.marginal_fertility(ft, length)
        cols = mf.value.sum(axis=(0, 2))
        np.testing.assert_allclose(cols, np.ones(length), atol=1e-9)
        # identical rows: every token expects the same share of the length
        np.testing.assert_allclose(mean_fertilities(mf), length / self.N, atol=1e-9)

    def test_longest_length_is_deterministic(self):
        ft = softmax_table(ad.constant(self.logits()))
        t = fertility.marginal_fertility(ft, self.N * self.D).value
        want = np.zeros_like(t)
        for i in range(self.N):
            for u in range(self.D):
                want[i, self.D * i + u, u] = 1.0
        np.testing.assert_allclose(t, want, atol=1e-9)

    def test_gradient_is_finite(self):
        node = ad.parameter(self.logits())
        ft = softmax_table(node)
        mf = fertility.marginal_fertility(ft, 80)
        w = np.random.default_rng(0).standard_normal(mf.shape)
        loss = ad.sum_(mf * ad.constant(w)) + fertility.log_length_probability(ft, 80)
        ad.backward(loss)
        assert np.all(np.isfinite(node.grad))

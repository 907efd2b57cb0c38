"""Tape mechanics, per-op gradients, and the parameter store."""
import math
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structran import autodiff as ad
from structran import checks


def lstm_per_step(x, w, b, h=None, c=None):
    """Rows [h_t; c_t] of the LSTM recurrence written out one step at a time."""
    hdim = b.shape[0] // 4
    h = np.zeros(hdim) if h is None else h
    c = np.zeros(hdim) if c is None else c

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    rows = []
    for xt in x:
        z = w @ np.concatenate([xt, h]) + b
        i, f, o = sig(z[:hdim]), sig(z[hdim:2 * hdim]), sig(z[3 * hdim:])
        c = f * c + i * np.tanh(z[2 * hdim:3 * hdim])
        h = o * np.tanh(c)
        rows.append(np.concatenate([h, c]))
    return np.array(rows)


def lstm_over_rows(x, w, b, state=None):
    """ad.lstm over the rows of x (T, D), with w = [W_x W_h] (4H, D + H)
    and b (4H,) as in lstm_per_step: zx = x W_xᵀ + b on the tape."""
    dim = x.shape[1]
    w_x = ad.slice_(w, (slice(None), slice(None, dim)))
    zx = ad.matmul(x, ad.transpose(w_x)) + b
    return ad.lstm(zx, ad.slice_(w, (slice(None), slice(dim, None))), state)


def saturated_lstm_arrays(rng):
    """x, w, b of a T=81 LSTM with preactivations up to +-40: every gate
    saturates."""
    x, w, b = rng.normal(size=(81, 3)), rng.normal(size=(16, 7)), rng.normal(size=16)
    scale = 40.0 / np.abs(x @ w[:, :3].T + b).max()
    return x, w * scale, b * scale


def bilstm_by_directions(x, w_fw, b_fw, w_bw, b_bw):
    """A BiLSTM composed of two lstm nodes: the backward one runs over the
    reversed rows, and its hidden rows are reversed back."""
    reverse = slice(None, None, -1)
    fwd = lstm_over_rows(x, w_fw, b_fw)[0]
    bwd = lstm_over_rows(ad.slice_(x, reverse), w_bw, b_bw)[0]
    return ad.concat([fwd, ad.slice_(bwd, reverse)], axis=1)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = ad.softmax(ad.constant(np.array([0.0, 0.0])), tau=1.0)
        np.testing.assert_allclose(out.value, [0.5, 0.5])

    def test_lse_softmax_identity(self):
        v, w = ad.lse_softmax(np.log(np.array([0.25, 0.25])))
        assert v.shape == (1,)
        assert v[0] == pytest.approx(math.log(0.5))
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_softmax_temperature_sharpens(self):
        logits = ad.constant(np.array([1.0, 0.0]))
        hot = ad.softmax(logits, tau=0.1).value
        warm = ad.softmax(logits, tau=2.0).value
        assert hot[0] > warm[0]
        np.testing.assert_allclose(hot.sum(), 1.0)

    def test_lse_softmax_survives_extreme_inputs(self):
        v, w = ad.lse_softmax(np.array([-1e4, 1e4]))
        assert np.isfinite(v).all()
        assert v[0] == pytest.approx(1e4)
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_lse_softmax_all_neg_inf_is_neg_inf(self):
        v, w = ad.lse_softmax(np.array([-np.inf, -np.inf]))
        assert v[0] == -np.inf
        np.testing.assert_array_equal(w, [0.0, 0.0])

    def test_lse_softmax_neg_inf_row_along_axis(self):
        v, w = ad.lse_softmax(np.array([[-np.inf, -np.inf], [0.0, math.log(3.0)]]),
                              axis=1)
        assert v.shape == (2, 1)
        assert v[0, 0] == -np.inf
        assert v[1, 0] == pytest.approx(math.log(4.0))
        np.testing.assert_allclose(w, [[0.0, 0.0], [0.25, 0.75]])

    def test_lse_softmax_all_neg_inf_slices_raise_no_warning(self):
        x = np.array([[-np.inf, -np.inf, 0.5], [-np.inf, -np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for axis in (0, None):
                ad.lse_softmax(x, axis=axis)
            v, w = ad.lse_softmax(x, axis=1)
            s = ad.softmax(ad.constant(x), axis=1).value
        np.testing.assert_array_equal(v[:, 0], [0.5, -np.inf])
        np.testing.assert_array_equal(w, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(s, w)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_value_is_the_lse_softmax_weights(self, axis):
        x = np.random.default_rng(4).normal(size=(5, 7)) * 30.0
        x[1, 2] = -np.inf
        out = ad.softmax(ad.constant(x), axis=axis).value
        np.testing.assert_array_equal(out, ad.lse_softmax(x, axis=axis)[1])

    def test_matmul_shapes(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        v = np.arange(3.0)
        np.testing.assert_allclose(ad.matmul(ad.constant(a), ad.constant(b)).value, a @ b)
        stack = np.arange(24.0).reshape(2, 4, 3)
        np.testing.assert_allclose(ad.matmul(ad.constant(stack), ad.constant(b)).value,
                                   stack @ b)
        for x, y in ((a, v), (v, b), (v, v), (a, a), (stack, np.ones((3, 3, 2)))):
            with pytest.raises(ad.ShapeError, match="matmul"):
                ad.matmul(ad.constant(x), ad.constant(y))

    def test_lstm_matches_per_step_formula(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(16, 7)), rng.normal(size=16)
        h0, c0 = rng.normal(size=4), rng.normal(size=4)
        for start in (None, np.concatenate([h0, c0])):
            out, state = lstm_over_rows(ad.constant(x), ad.constant(w), ad.constant(b),
                                        start)
            want = lstm_per_step(x, w, b, *(() if start is None else (h0, c0)))
            np.testing.assert_allclose(out.value, want[:, :4], rtol=0, atol=1e-12)
            np.testing.assert_allclose(state, want[-1], rtol=0, atol=1e-12)
        # the start state is a plain (2H,) array, never a tape node
        for bad in (np.zeros(7), np.zeros((1, 8)), ad.constant(np.zeros(8))):
            with pytest.raises(ad.ShapeError, match="lstm"):
                lstm_over_rows(ad.constant(x), ad.constant(w), ad.constant(b), bad)
        # zx must be (T, 4H) and wh (4H, H)
        for zx, wh in ((np.zeros((4, 15)), w[:, 3:]), (np.zeros(16), w[:, 3:]),
                       (np.zeros((4, 16)), w[:, 2:]), (np.zeros((4, 16)), w[:4, 3:])):
            with pytest.raises(ad.ShapeError, match="lstm"):
                ad.lstm(ad.constant(zx), ad.constant(wh))

    def test_lstm_long_sequence_with_saturated_gates_stays_finite(self):
        rng = np.random.default_rng(5)
        x, w, b = saturated_lstm_arrays(rng)
        start = rng.normal(size=8)
        nodes = [ad.parameter(a) for a in (x, w, b)]
        out, state = lstm_over_rows(*nodes, start)
        want = lstm_per_step(x, w, b, start[:4], start[4:])
        np.testing.assert_allclose(out.value, want[:, :4], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state, want[-1], rtol=0, atol=1e-12)
        ad.backward(ad.sum_(out * ad.constant(rng.normal(size=out.shape))))
        for node in nodes:
            assert node.grad is not None and np.isfinite(node.grad).all()

    @pytest.mark.parametrize("steps", [1, 6, 81])
    def test_bilstm_equals_two_directions(self, steps):
        rng = np.random.default_rng(steps)
        if steps == 81:
            x, w_fw, b_fw = saturated_lstm_arrays(rng)
            _, w_bw, b_bw = saturated_lstm_arrays(rng)
        else:
            x = rng.normal(size=(steps, 3))
            w_fw, b_fw, w_bw, b_bw = (rng.normal(size=s) for s in ((16, 7), 16) * 2)
        upstream = rng.normal(size=(steps, 8))

        def run(op):
            nodes = [ad.parameter(a) for a in (x, w_fw, b_fw, w_bw, b_bw)]
            out = op(*nodes)
            ad.backward(ad.sum_(out * ad.constant(upstream)))
            return [out.value] + [node.grad for node in nodes]

        for fused, composed in zip(run(ad.bilstm), run(bilstm_by_directions)):
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12)

    def test_gate_scales_are_built_once_per_width_and_read_only(self, monkeypatch):
        monkeypatch.setattr(ad, "_GATE_SCALES", {})
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        arrays = [rng.normal(size=s) for s in ((16, 7), 16, (16, 7), 16)]
        upstream = rng.normal(size=(5, 8))

        def run():
            nodes = [ad.parameter(a) for a in [x] + arrays]
            out, state = lstm_over_rows(*nodes[:3])
            both = ad.bilstm(*nodes)
            ad.backward(ad.sum_(out * ad.constant(upstream[:, :4]))
                        + ad.sum_(both * ad.constant(upstream)))
            return [out.value, state, both.value] + [node.grad for node in nodes]

        cold = run()
        assert sorted(ad._GATE_SCALES) == [4, 8]  # lstm width H, bilstm width 2H
        cached = dict(ad._GATE_SCALES)
        for got, want in zip(run(), cold):
            np.testing.assert_array_equal(got, want)
        for width, (scale, shift) in ad._GATE_SCALES.items():
            assert ad._gate_scale(width)[0] is cached[width][0] is scale
            np.testing.assert_array_equal(scale, np.repeat(ad._GATE_SCALE, width))
            np.testing.assert_array_equal(shift, 1.0 - np.repeat(ad._GATE_SCALE, width))
            assert not scale.flags.writeable and not shift.flags.writeable

    def test_lstm_over_no_rows_is_empty_with_zero_gradients(self):
        # teacher forcing at output length 1 runs the decoder over no tokens
        rng = np.random.default_rng(6)
        nodes = [ad.parameter(a) for a in
                 (np.zeros((0, 3)), rng.normal(size=(16, 7)), rng.normal(size=16))]
        start = rng.normal(size=8)
        out, state = lstm_over_rows(*nodes, start)
        assert out.shape == (0, 4)
        np.testing.assert_array_equal(state, start)
        ad.backward(ad.sum_(out))
        for node in nodes:
            assert node.grad.shape == node.shape
            np.testing.assert_array_equal(node.grad, 0.0)


class TestBackward:
    def test_quadratic_gradient(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        ad.backward(ad.sum_(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant_root_leaves_gradients_unset(self):
        w = ad.parameter(np.array(3.0))
        root = ad.constant(np.array(5.0))
        ad.backward(root)
        assert w.grad is None

    def test_product_gradient(self):
        w = ad.parameter(np.array(3.0))
        x = ad.constant(np.array(2.0))
        ad.backward(ad.mul(w, x))
        assert w.grad == pytest.approx(2.0)

    def test_backward_requires_scalar_root(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ad.UsageError):
            ad.backward(ad.mul(x, x))

    def test_gradient_accumulates_across_reuse(self):
        # x appears twice; both paths must contribute
        x = ad.parameter(np.array(2.0))
        ad.backward(ad.add(ad.mul(x, x), x))
        assert x.grad == pytest.approx(5.0)

    def test_composite_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(4, 3)) * 0.5
        b1 = rng.normal(size=(4, 1)) * 0.1
        w2 = rng.normal(size=(4, 1)) * 0.5
        x = rng.normal(size=(3, 1))

        def build(nodes):
            nw1, nb1, nw2, nx = nodes
            hidden = ad.tanh(ad.add(ad.matmul(nw1, nx), nb1))
            return ad.sum_(ad.mul(nw2, hidden))

        assert checks.run_case("mlp", build, [w1, b1, w2, x], tol=1e-5).ok

    def test_lstm_rows_one_call_at_a_time_equal_one_call(self):
        # the greedy decoder feeds one row per call, carrying [h; c]
        rng = np.random.default_rng(4)
        x, w, b = [ad.constant(rng.normal(size=s)) for s in ((6, 3), (16, 7), 16)]
        whole, final = lstm_over_rows(x, w, b)
        rows, state = [], None
        for t in range(6):
            row, state = lstm_over_rows(ad.slice_(x, slice(t, t + 1)), w, b, state)
            rows.append(row.value)
        np.testing.assert_allclose(np.concatenate(rows), whole.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state, final, rtol=0, atol=1e-12)

    def test_no_grad_suppresses_tape(self):
        x = ad.parameter(np.ones(2))
        with ad.no_grad():
            y = ad.sum_(ad.mul(x, x))
        assert not y.requires_grad

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_broadcast_add_gradient_shape(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        na, nb = ad.parameter(a), ad.parameter(b)
        ad.backward(ad.sum_(ad.add(na, nb)))
        assert na.grad.shape == a.shape
        assert nb.grad.shape == b.shape
        np.testing.assert_allclose(nb.grad, np.full(4, 3.0))


class TestPerOpGradients:
    """Each op against finite differences on a scalarized output."""

    @pytest.mark.parametrize("seed", range(21))
    def test_gradcheck_op_cases(self, seed):
        failed = [(r.name, r.error) for r in checks.run_op_gradchecks(seed) if not r.ok]
        assert failed == []

    def test_gradcheck_seed_reaches_the_model_cases(self, monkeypatch):
        # seed 0 keeps the original model seed 7; every other seed draws new models
        seen = []

        def record(name, model, loss_fn, tol=checks.MODEL_TOLERANCE):
            seen.append((name, model.config.seed,
                         np.concatenate([p.value.ravel() for _, p in model.store.items()])))
            return checks.CheckResult(name, 0.0, tol)

        monkeypatch.setattr(checks, "run_case", lambda name, build, arrays, tol=1.0:
                            checks.CheckResult(name, 0.0, tol))
        monkeypatch.setattr(checks, "run_model_case", record)
        checks.run_all_gradchecks(seed=0)
        checks.run_all_gradchecks(seed=3)
        base, other = seen[:len(seen) // 2], seen[len(seen) // 2:]
        assert [seed for _, seed, _ in base] == [7] * 5
        assert [seed for _, seed, _ in other] == [10] * 5
        for (name, _, w0), (name3, _, w3) in zip(base, other):
            assert name == name3 and w0.shape == w3.shape and not np.array_equal(w0, w3)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_broadcast_arithmetic(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3,)) + 3.0
        w = rng.normal(size=(2, 3))
        fn = getattr(ad, op)
        assert checks.run_case(
            op, lambda ns: ad.sum_(ad.mul(fn(ns[0], ns[1]), ad.constant(w))), [a, b],
            tol=1e-5).ok

    def test_slice_negative_step(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 3))
        assert checks.run_case(
            "slice", lambda ns: ad.sum_(ad.mul(ad.slice_(ns[0], slice(None, None, -1)),
                                               ad.constant(w))), [a], tol=1e-5).ok

    def test_slice_repeated_rows_accumulate(self):
        a = ad.parameter(np.array([1.0, 2.0]))
        ad.backward(ad.sum_(ad.slice_(a, np.array([0, 0, 1]))))
        np.testing.assert_allclose(a.grad, [2.0, 1.0])

    def test_log_domain_check(self):
        with pytest.raises(ad.DomainError, match="log"):
            ad.log(ad.constant(np.array([1.0, 0.0])))

    def test_softmax_temperature_check(self):
        with pytest.raises(ad.DomainError):
            ad.softmax(ad.constant(np.zeros(2)), tau=0.0)

    def test_log_rejects_nan(self):
        with pytest.raises(ad.DomainError, match="log"):
            ad.log(ad.constant(np.array([1.0, np.nan])))

    def test_softmax_rejects_nan_temperature(self):
        with pytest.raises(ad.DomainError, match="temperature"):
            ad.softmax(ad.constant(np.zeros(2)), tau=float("nan"))

    def test_concat_gradients(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        w = rng.normal(size=(4, 3))
        assert checks.run_case(
            "concat", lambda ns: ad.sum_(ad.mul(ad.concat(ns, axis=0), ad.constant(w))),
            [a, b], tol=1e-5).ok

    def test_shape_mismatch_detected(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)
        with pytest.raises(ad.ShapeError):
            ad.matmul(a, b)
        with pytest.raises(ad.ShapeError):
            ad.concat([a, b], axis=0)


class TestParameterStore:
    def _store(self):
        store = ad.ParameterStore([("layer.w", (3, 2)), ("layer.b", (3,))])
        rng = np.random.default_rng(7)
        store["layer.w"].value[...] = rng.normal(size=(3, 2))
        store["layer.b"].value[...] = rng.normal(size=3)
        return store

    def test_round_trip(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.ckpt"
        store.save(path)
        before = store.state_arrays()
        for node in (store["layer.w"], store["layer.b"]):
            node.value[...] = 0.0
        store.restore(path)
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].value, arr)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ad.UsageError, match="duplicate"):
            ad.ParameterStore([("layer.w", (1,)), ("layer.w", (1,))])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ad.UsageError, match="magic"):
            self._store().restore(path)

    def test_name_mismatch_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.ckpt"
        store.save(path)
        other = ad.ParameterStore([("different", (2,))])
        with pytest.raises(ad.UsageError):
            other.restore(path)

    @pytest.mark.parametrize("layout,error,what", [
        ([("layer.w", (3, 2)), ("layer.b", (3,)), ("extra", (1,))],
         ad.UsageError, "unexpected array 'extra'"),
        ([("layer.w", (3, 2))], ad.UsageError, "missing array 'layer.b'"),
        ([("layer.w", (2, 3)), ("layer.b", (4,))], ad.ShapeError,
         "restore 'layer.w': incompatible shapes"),
    ])
    def test_restore_names_the_file_and_the_first_bad_array(self, tmp_path, layout,
                                                            error, what):
        path = tmp_path / "model.ckpt"
        ad.ParameterStore(layout).save(path)
        with pytest.raises(error) as caught:
            self._store().restore(path)
        assert str(caught.value).startswith(f"{path}: {what}")

    def test_restore_rejects_an_array_named_twice(self, tmp_path):
        # without the check the second 'layer.w' would win and the file,
        # naming exactly the store's arrays, would restore
        store = self._store()
        blob = b"STRN" + struct.pack("<IQ", 1, 3)
        for name in ("layer.w", "layer.w", "layer.b"):
            value = store[name].value
            blob += struct.pack("<I", len(name)) + name.encode("utf-8")
            blob += struct.pack(f"<I{value.ndim}Q", value.ndim, *value.shape)
            blob += value.astype("<f8").tobytes()
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob)
        before = store.state_arrays()
        with pytest.raises(ad.UsageError) as caught:
            store.restore(path)
        assert str(caught.value) == f"{path}: duplicate array 'layer.w'"
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].value, arr)

    def test_restore_reads_arrays_by_name(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.ckpt"
        swapped = ad.ParameterStore([("layer.b", (3,)), ("layer.w", (3, 2))])
        swapped.load_state_arrays(dict(reversed(store.state_arrays().items())))
        swapped.save(path)
        other = ad.ParameterStore([("layer.w", (3, 2)), ("layer.b", (3,))])
        other.restore(path)
        np.testing.assert_array_equal(other.values, store.values)

    def test_failed_restore_leaves_the_store_unchanged(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.ckpt"
        ad.ParameterStore([("layer.w", (3, 2)), ("layer.b", (4,))]).save(path)
        before = store.state_arrays()
        with pytest.raises(ad.ShapeError, match="restore"):
            store.restore(path)
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].value, arr)

    def test_values_and_grads_are_views_of_the_flat_buffers(self):
        store = self._store()
        w, b = store["layer.w"], store["layer.b"]
        np.testing.assert_array_equal(store.values, np.concatenate(
            [w.value.ravel(), b.value.ravel()]))
        assert w.grad is None and b.grad is None
        x = ad.constant(np.ones((2, 4)))
        ad.backward(ad.sum_(ad.matmul(w, x)))
        # the tape wrote w's adjoint into the store; b has none
        assert b.grad is None and store.touched_runs() == [(0, 6)]
        np.testing.assert_array_equal(store.grads, np.r_[np.full(6, 4.0), np.zeros(3)])
        b.grad = np.array([1.0, 2.0, 3.0])
        assert store.touched_runs() == [(0, 9)]
        w.grad = None
        assert store.touched_runs() == [(6, 9)]
        np.testing.assert_array_equal(store.grads, np.r_[np.zeros(6), 1.0, 2.0, 3.0])
        store.zero_grads()
        assert store.touched_runs() == [] and not store.grads.any()

    def test_state_arrays_are_copies(self):
        store = self._store()
        snap = store.state_arrays()
        snap["layer.b"][...] = 99.0
        assert not np.any(store["layer.b"].value == 99.0)

    def test_global_grad_norm(self):
        store = self._store()
        store["layer.b"].grad = np.array([3.0, 4.0, 0.0])
        assert ad.global_grad_norm(store) == pytest.approx(5.0)

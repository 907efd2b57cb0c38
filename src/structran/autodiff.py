"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation builds a Node holding its value, its parent
nodes and a closure that maps the node's adjoint to adjoint contributions
for the parents.  backward() walks nodes in reverse creation order, which
is a valid topological order for a define-by-run graph.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from typing import Callable, Iterable, Iterator

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for an operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {tuple(map(tuple, shapes))}")


class DomainError(ValueError):
    """Operand values outside an operation's domain."""


class UsageError(RuntimeError):
    """The graph API was used incorrectly (e.g. non-scalar backward root)."""


_grad_enabled = True
_ids = itertools.count()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad", "_id")

    def __init__(self, value: np.ndarray, parents=(), backward_fn=None,
                 requires_grad: bool = False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad
        self._id = next(_ids)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def _as_value(x) -> np.ndarray:
    if isinstance(x, Node):
        raise TypeError("expected a raw array, got a Node")
    return np.asarray(x, dtype=np.float64)


def constant(x) -> Node:
    return Node(_as_value(x))


def parameter(x) -> Node:
    return Node(_as_value(x), requires_grad=True)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def make_node(value: np.ndarray, parents: tuple, backward_fn) -> Node:
    """Record an op result; prunes the graph when no parent needs gradients."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Node(value, parents, backward_fn, True)
    return Node(value)


def _acc(p: Node, g: np.ndarray) -> None:
    if not p.requires_grad:
        return
    grad = p.grad
    if grad is not None:
        grad += g
    elif isinstance(p, Parameter):
        p.grad = g  # copied into the store's gradient view
    else:
        # the first adjoint is stored as a copy, broadcast as += would
        if g.shape != p.value.shape:
            g = np.broadcast_to(g, p.value.shape)
        p.grad = np.array(g, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (the adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(root: Node) -> None:
    """Accumulate droot/dnode into .grad for every ancestor of `root`.

    Repeated calls keep accumulating; zero grads between uses if that is
    not wanted.  The root must hold a single scalar.
    """
    if root.value.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.value.shape}")
    if root.grad is None:
        root.grad = np.zeros_like(root.value)
    root.grad += 1.0
    if not root.requires_grad:
        return
    # Reverse creation order is a topological order: parents precede children.
    seen = {id(root)}
    nodes = [root]
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    nodes.sort(key=lambda n: n._id, reverse=True)
    for node in nodes:
        if node.backward_fn is None or node.grad is None:
            continue
        node.backward_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    try:
        v = a.value + b.value
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)

    def bw(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(g, b.value.shape))

    return make_node(v, (a, b), bw)


def sub(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    try:
        v = a.value - b.value
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape)

    def bw(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(-g, b.value.shape))

    return make_node(v, (a, b), bw)


def mul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    try:
        v = a.value * b.value
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape)

    def bw(g):
        _acc(a, _unbroadcast(g * b.value, a.value.shape))
        _acc(b, _unbroadcast(g * a.value, b.value.shape))

    return make_node(v, (a, b), bw)


def matmul(a, b) -> Node:
    """Product of two operands of at least 2 axes each: the last two axes
    multiply as matrices and the leading ones broadcast, as in numpy's @."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        v = a.value @ b.value
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape))

    return make_node(v, (a, b), bw)


def linear(x, w, b=None) -> Node:
    """The affine map x wᵀ + b as one node: x (..., in), w (out, in) read as
    stored, b (out,) or None, giving (..., out).  w's gradient is the sum
    of gᵀ x over every leading row of x."""
    x, w = _wrap(x), _wrap(w)
    parents = (x, w) if b is None else (x, w, _wrap(b))
    if (x.ndim < 1 or w.ndim != 2 or x.value.shape[-1] != w.value.shape[1]
            or (b is not None and parents[2].value.shape != w.value.shape[:1])):
        raise ShapeError("linear", *(p.shape for p in parents))
    v = x.value @ w.value.T
    if b is not None:
        v += parents[2].value

    def bw(g):
        if x.requires_grad:
            _acc(x, g @ w.value)
        if w.requires_grad:
            xs = x.value.reshape(-1, x.value.shape[-1])
            _acc(w, (xs.T @ g.reshape(-1, g.shape[-1])).T)
        if b is not None:
            _acc(parents[2], g.sum(axis=tuple(range(g.ndim - 1))))

    return make_node(v, parents, bw)


# ---------------------------------------------------------------------------
# shape plumbing

def concat(nodes: Iterable[Node], axis: int = 0) -> Node:
    nodes = [_wrap(x) for x in nodes]
    try:
        v = np.concatenate([x.value for x in nodes], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[x.shape for x in nodes])
    sizes = [x.value.shape[axis] for x in nodes]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for x, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(x, g[tuple(idx)])

    return make_node(v, tuple(nodes), bw)


def slice_(a: Node, key) -> Node:
    """Static slicing/indexing with ints, slices, and integer arrays.

    An integer array on axis 0 is the row lookup (the embedding lookup):
    indices are not range-checked here, so callers check them against the
    table first.
    """
    a = _wrap(a)
    v = a.value[key]
    if not isinstance(v, np.ndarray):
        v = np.asarray(v)
    parts = key if isinstance(key, tuple) else (key,)
    # fancy indexing may visit the same cell twice; += would drop those
    fancy = any(isinstance(k, (np.ndarray, list)) for k in parts)

    def bw(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        if fancy:
            np.add.at(a.grad, key, g)
        else:
            a.grad[key] += g

    return make_node(v, (a,), bw)


def reshape(a: Node, shape) -> Node:
    a = _wrap(a)
    try:
        v = a.value.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, tuple(np.atleast_1d(shape)))

    def bw(g):
        _acc(a, g.reshape(a.value.shape))

    return make_node(v, (a,), bw)


def transpose(a: Node, axes=None) -> Node:
    a = _wrap(a)
    v = np.transpose(a.value, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def bw(g):
        _acc(a, np.transpose(g, inv))

    return make_node(v, (a,), bw)


def sum_(a: Node, axis=None, keepdims: bool = False) -> Node:
    """Sum over axis: None for all, an int, or a tuple of ints."""
    a = _wrap(a)
    v = np.asarray(a.value.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.value.shape))

    return make_node(v, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities

def exp(a: Node) -> Node:
    a = _wrap(a)
    v = np.exp(a.value)

    def bw(g):
        _acc(a, g * v)

    return make_node(v, (a,), bw)


def log(a: Node) -> Node:
    a = _wrap(a)
    if not (a.value > 0.0).all():
        raise DomainError("log: input not positive")
    v = np.log(a.value)

    def bw(g):
        _acc(a, g / a.value)

    return make_node(v, (a,), bw)


def tanh(a: Node) -> Node:
    a = _wrap(a)
    v = np.tanh(a.value)

    def bw(g):
        _acc(a, g * (1.0 - v * v))

    return make_node(v, (a,), bw)


def sigmoid(a: Node) -> Node:
    """1 / (1 + exp(-x)) as tanh(x / 2) / 2 + 1 / 2, which cannot overflow;
    the LSTM gates use the same identity."""
    a = _wrap(a)
    v = 0.5 * np.tanh(0.5 * a.value) + 0.5

    def bw(g):
        _acc(a, g * v * (1.0 - v))

    return make_node(v, (a,), bw)


def softmax(a: Node, tau: float = 1.0, axis: int = -1) -> Node:
    """Temperature softmax along `axis`: softmax(x / tau)."""
    a = _wrap(a)
    if not tau > 0.0:
        raise DomainError(f"softmax: temperature must be positive, got {tau}")
    _, v, s = _shifted_exp(a.value / tau, axis)
    v /= s

    def bw(g):
        inner = (g * v).sum(axis=axis, keepdims=True)
        _acc(a, (v * (g - inner)) / tau)

    return make_node(v, (a,), bw)


def lse_softmax(x: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """log sum exp of x along `axis` (kept as a size-1 axis) and the softmax.

    A slice that is all -inf gives -inf with all-zero weights.  The
    reordering DP takes its orientation softmax here; the DPs' sums over
    splits and counts are np.logaddexp reductions instead, one call each.
    """
    m, e, s = _shifted_exp(x, axis)
    return np.log(s) + m, e / s


_LOWEST = np.finfo(np.float64).min


def _shifted_exp(x: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, e, s): the max m of x along `axis` (kept as a size-1 axis),
    e = exp(x - max(m, -DBL_MAX)) and s = max(sum of e, 1).

    The shift keeps every exponent at or below zero.  The max entry of a
    slice contributes exp(0) = 1 to its sum, so only an all -inf slice,
    whose e is 0 and whose m is -inf, has its sum raised to 1: there
    log(s) + m is -inf and e / s is 0, with no warning raised.
    """
    m = np.maximum.reduce(x, axis, keepdims=True)
    e = np.exp(x - np.maximum(m, _LOWEST))
    s = np.add.reduce(e, axis, keepdims=True)
    return m, e, np.maximum(s, 1.0, out=s)


# Per-gate scale s of the gate blocks (input, forget, cell, output):
# sigmoid(z) = tanh(z / 2) / 2 + 1 / 2, so tanh(s * z) * s + (1 - s) is the
# activation of every gate, one tanh for all four.  Scaling by s is exact.
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
_GATE_SCALES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gate_scale(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-unit scale s (4 * width,), _GATE_SCALE[g] repeated over the
    width units of gate g, and the shift 1 - s.  Read-only, built once
    per width."""
    if width not in _GATE_SCALES:
        scale = np.repeat(_GATE_SCALE, width)
        shift = 1.0 - scale
        scale.setflags(write=False)
        shift.setflags(write=False)
        _GATE_SCALES[width] = scale, shift
    return _GATE_SCALES[width]


def _recurrence(zx: np.ndarray, wh: np.ndarray, start=None):
    """The LSTM step loop, over gate-major pre-activations of width K.

    zx (T, 4K) holds the input terms and the bias of every step and wh
    (4K, K) the recurrent weights; rows g*K .. (g+1)*K are gate g of
    (input, forget, cell, output).  The state starts from start, the
    (2K,) row [h_0; c_0] (zeros when omitted).  Every step is one product,
    one add, one multiply by the gate scale (see _gate_scale) and one tanh
    over all 4K pre-activations; the scales are powers of two, so scaling
    here is exact and no caller builds a scaled copy of zx or wh.

    Step t works in one row [h_t | c_t | i f g o] of width 6K, so that one
    multiply of [c_t | i] by [f | g] gives [c_t f, i g] and one add of its
    halves gives c_{t+1}; h_{t+1} and c_{t+1} open the next row.

    Returns the states (T+1, 2K), whose row t is [h_t; c_t] (row 0 the
    start), and what _recurrence_adjoint needs besides: the gate
    activations (T, 4K) and tanh of the cell states (T, K).  The states
    and the activations are views of the rows.
    """
    steps, width = zx.shape[0], wh.shape[1]
    scale, shift = _gate_scale(width)
    rows = np.zeros((steps + 1, 6 * width))  # the last row holds only h_T, c_T
    if start is not None:
        rows[0, :2 * width] = start
    tanh_c = np.empty((steps, width))
    prod = np.empty(2 * width)
    cf, ig = prod[:width], prod[width:]
    for h, a, ci, fg, o, z, h_next, c_next, tc in zip(
            rows[:, :width], rows[:, 2 * width:], rows[:, width:3 * width],
            rows[:, 3 * width:5 * width], rows[:, 5 * width:], zx,
            rows[1:, :width], rows[1:, width:2 * width], tanh_c):
        np.dot(wh, h, out=a)
        a += z
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(ci, fg, out=prod)
        np.add(cf, ig, out=c_next)
        np.tanh(c_next, out=tc)
        np.multiply(o, tc, out=h_next)
    return rows[:, :2 * width], rows[:-1, 2 * width:], tanh_c


def _recurrence_adjoint(wh, states, act, tanh_c, dh_out):
    """Backprop through time for _recurrence, in one reverse sweep.

    wh is the recurrent matrix _recurrence ran with, states, act and tanh_c
    what it returned, and dh_out (T, K) the adjoint of the hidden states
    after each step.  The gate activations already carry the gate scale,
    so the sweep needs no scale of its own.  Like the step loop, the sweep
    zips over row views of preallocated arrays and writes each step's
    results in place.  Returns the adjoints dz (T, 4K) of the
    pre-activations zx of every step.
    """
    steps, width = dh_out.shape
    i, f = act[:, :width], act[:, width:2 * width]
    gc, o = act[:, 2 * width:3 * width], act[:, 3 * width:]
    dh_to_dc = o * (1.0 - tanh_c * tanh_c)
    # dz[t] = coef[t] * [dc_t, dc_t, dc_t, dh_t], block by block
    coef = np.stack([gc * i * (1.0 - i), states[:-1, width:] * f * (1.0 - f),
                     i * (1.0 - gc * gc), tanh_c * o * (1.0 - o)], axis=1)
    dz = np.empty((steps, 4, width))
    wh_t = wh.T
    dh, dc = np.empty(width), np.empty(width)
    dh_next, dc_next = np.zeros(width), np.zeros(width)
    for g, to_dc, co, ft, d in zip(dh_out[::-1], dh_to_dc[::-1], coef[::-1], f[::-1],
                                   dz[::-1]):
        np.add(g, dh_next, out=dh)
        np.multiply(dh, to_dc, out=dc)
        dc += dc_next
        np.multiply(co[:3], dc, out=d[:3])
        np.multiply(co[3], dh, out=d[3])
        np.multiply(dc, ft, out=dc_next)
        np.dot(wh_t, d.reshape(-1), out=dh_next)
    return dz.reshape(steps, 4 * width)


def lstm(zx: Node, wh: Node, state: np.ndarray | None = None) -> tuple[Node, np.ndarray]:
    """One LSTM direction as a single op, over the input pre-activations
    zx (T, 4H) of its steps: row t is the input term of step t plus the
    bias, W_x x_t + b.

    wh is the (4H, H) recurrent block; the gate blocks are (input, forget,
    cell, output).  The recurrence starts from state, a constant (2H,)
    array [h_0; c_0], or from zeros.  Returns the node of the hidden
    states (T, H), row t being h after input row t, and the plain
    (T+1, 2H) array of the [h; c] rows: row k is the state after k steps,
    row 0 the start state, so any row can start a later call.  No
    gradient flows into state.

    The caller forms zx, so the input contributions of all steps are one
    matrix product outside the recurrence (Appleyard et al. 2016), or a
    row lookup in a table built once.  The backward is one reverse sweep
    of backprop through time that fills the adjoints dz of every step,
    which are zx's gradient; wh's is dz^T hs[:-1].
    """
    zx, wh = _wrap(zx), _wrap(wh)
    hdim = wh.value.shape[-1]
    if zx.ndim != 2 or wh.value.shape != (4 * hdim, hdim) or zx.value.shape[1] != 4 * hdim:
        raise ShapeError("lstm", zx.shape, wh.shape)
    if state is not None:
        state = np.asarray(state)
        if state.shape != (2 * hdim,):
            raise ShapeError("lstm", wh.shape, state.shape)
    states, act, tanh_c = _recurrence(zx.value, wh.value, state)
    hs = states[:, :hdim]

    def bw(g):
        dz = _recurrence_adjoint(wh.value, states, act, tanh_c, g)
        _acc(zx, dz)
        _acc(wh, dz.T @ hs[:-1])

    return make_node(hs[1:], (zx, wh), bw), states


def bilstm(inputs: Node, wx: Node, wh: Node, b: Node) -> Node:
    """Both directions of a bidirectional LSTM over the rows of inputs (T, D)
    as a single op.

    The two directions are one recurrence of width K = 2H, gate major and
    direction minor, and the weights are stored that way: row g*K + d*H + j
    of the input weights wx (4K, D) and of the bias b (4K,) is unit j of
    gate g in direction d (0 forward, 1 backward), with lstm's gate
    blocks, and wh (4, 2, H, H) holds the recurrent block wh[g, d] of gate
    g in direction d.  Returns the hidden states (T, 2H) whose row t is
    [h_fw_t; h_bw_t]: the forward state after rows 0..t and the backward
    state after rows T-1 down to t.

    The recurrent matrix is block diagonal inside each gate block, laid
    out from wh once per call, and step t of the backward direction reads
    input row T-1-t, so each step runs on contiguous slices of both
    directions at once.  The backward sweep is likewise one for both, and
    every gradient comes out in its weight's layout.
    """
    x, wx, wh, b = (_wrap(a) for a in (inputs, wx, wh, b))
    hdim = wh.value.shape[-1]
    width = 2 * hdim
    if (x.ndim != 2 or wx.value.shape != (4 * width, x.value.shape[1])
            or wh.value.shape != (4, 2, hdim, hdim) or b.value.shape != (4 * width,)):
        raise ShapeError("bilstm", x.shape, wx.shape, wh.shape, b.shape)
    steps = x.value.shape[0]

    def reverse_backward_steps(z: np.ndarray) -> np.ndarray:
        """Swap between input row order and step order: the backward
        direction's columns of (T, 4K) reversed in time, in place."""
        z4 = z.reshape(steps, 4, 2, hdim)
        z4[:, :, 1] = z4[::-1, :, 1].copy()
        return z

    def diagonal_blocks(a: np.ndarray) -> np.ndarray:
        """The (4, 2, H, H) view of the blocks [g, d, :, d, :] of a (4K, K)."""
        return np.einsum("gdidj->gdij", a.reshape(4, 2, hdim, 2, hdim))

    rec = np.zeros((4 * width, width))
    diagonal_blocks(rec)[...] = wh.value
    zx = x.value @ wx.value.T + b.value
    states, act, tanh_c = _recurrence(reverse_backward_steps(zx), rec)
    hs = states[:, :width]
    v = np.concatenate([hs[1:, :hdim], hs[:0:-1, hdim:]], axis=1)

    def bw(g):
        dh_out = np.concatenate([g[:, :hdim], g[::-1, hdim:]], axis=1)
        dz = _recurrence_adjoint(rec, states, act, tanh_c, dh_out)
        _acc(wh, diagonal_blocks(dz.T @ hs[:-1]))
        dz = reverse_backward_steps(dz)
        _acc(wx, dz.T @ x.value)
        _acc(b, dz.sum(axis=0))
        _acc(x, dz @ wx.value)

    return make_node(v, (x, wx, wh, b), bw)


# ---------------------------------------------------------------------------
# parameters and checkpoints

@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write through a temporary file next to path, then rename it into place.

    path keeps its previous content until the block finishes; when the
    block raises, the temporary file is removed and path is untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_CKPT_MAGIC = b"STRN"
_CKPT_VERSION = 1


class Parameter(Node):
    """A trainable array owned by a ParameterStore: value and grad are views
    of the store's flat buffers.

    grad reads None until the tape or a caller writes it.  Assigning an
    array copies it into the view, broadcast as += would; assigning None
    zeroes the view.  The array grad returns is that view, so the store's
    zero_grads and clipping change it in place: copy it to keep it.
    """

    __slots__ = ("_grad", "_touched", "_index")

    def __init__(self, value: np.ndarray, grad: np.ndarray, touched: np.ndarray,
                 index: int):
        self.value, self.parents, self.backward_fn = value, (), None
        self.requires_grad, self._id = True, next(_ids)
        self._grad, self._touched, self._index = grad, touched, index

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad if self._touched[self._index] else None

    @grad.setter
    def grad(self, g) -> None:
        self._grad[...] = 0.0 if g is None else g
        self._touched[self._index] = g is not None


class ParameterStore:
    """Named trainable arrays in one flat layout, with binary I/O.

    The buffers are allocated once: `values` holds every array's entries
    and `grads` their gradients, one contiguous run per array in the order
    given, and each Parameter's value and grad are views of them.  The tape
    accumulates adjoints straight into `grads`, and the optimizer, clipping
    and snapshots each work on whole flat arrays.  A per-array flag records
    which grads were written since the last zero_grads.

    version counts the writes made through Adam.step, load_state_arrays
    and restore, so a Model.prepare result can tell that its weights went
    stale.  Direct writes to the value views, as the gradchecks make, are
    not counted.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]]):
        """Zero arrays of the given (name, shape) pairs; callers set their
        initial values through each Parameter's value."""
        self._layout: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        size = 0
        for name, shape in shapes:
            if name in self._layout:
                raise UsageError(f"duplicate parameter name: {name!r}")
            lo, size = size, size + math.prod(shape)
            self._layout[name] = (lo, size, tuple(shape))
        self._bounds = np.array([0] + [hi for _, hi, _ in self._layout.values()])
        self.values, self.grads = np.zeros((2, size))
        self.version = 0
        # array i's flag is entry i + 1; the sentinels at both ends stay False
        self._touched = np.zeros(len(self._layout) + 2, dtype=bool)
        self._params = {
            name: Parameter(self.values[lo:hi].reshape(shape),
                            self.grads[lo:hi].reshape(shape), self._touched, index)
            for index, (name, (lo, hi, shape)) in enumerate(self._layout.items(), start=1)}

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._params.items())

    def touched_runs(self) -> list[tuple[int, int]]:
        """The (lo, hi) ranges of the flat buffers that hold each maximal
        run of consecutive arrays whose grad was written."""
        edges = self._bounds[np.flatnonzero(self._touched[1:] != self._touched[:-1])]
        return list(zip(edges[::2].tolist(), edges[1::2].tolist()))

    def zero_grads(self) -> None:
        self.grads.fill(0.0)
        self._touched.fill(False)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """A copy of every value, by name: views of one copy of `values`."""
        flat = self.values.copy()
        return {name: flat[lo:hi].reshape(shape)
                for name, (lo, hi, shape) in self._layout.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every value from arrays, keyed as state_arrays keys them."""
        self._load(arrays, "")

    def _load(self, arrays: dict[str, np.ndarray], where: str) -> None:
        """Set every value from arrays by name.  The names must be the
        store's and every shape must match; otherwise this raises, after
        where, naming the first unexpected, missing or mis-shaped array,
        and writes nothing."""
        for name in arrays:
            if name not in self._layout:
                raise UsageError(f"{where}unexpected array {name!r}")
        for name, (_, _, shape) in self._layout.items():
            if name not in arrays:
                raise UsageError(f"{where}missing array {name!r}")
            if np.shape(arrays[name]) != shape:
                raise ShapeError(f"{where}restore {name!r}", np.shape(arrays[name]), shape)
        if arrays:
            np.concatenate([np.ravel(arrays[name]) for name in self._layout],
                           out=self.values)
        self.version += 1

    def save(self, path) -> None:
        """Binary container: magic, version, count, then per parameter
        (name length, utf-8 name, ndim, dims, little-endian float64 data).
        The file appears at path only once it is completely written."""
        with atomic_open(path, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<I", _CKPT_VERSION))
            fh.write(struct.pack("<Q", len(self._params)))
            for name, node in self._params.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", node.value.ndim))
                for d in node.value.shape:
                    fh.write(struct.pack("<Q", d))
                fh.write(np.ascontiguousarray(node.value, dtype="<f8").tobytes())

    @staticmethod
    def read_arrays(path) -> dict[str, np.ndarray]:
        """Parse a checkpoint written by save().

        A wrong magic or version, a file cut short inside the header, a
        name or an array, an array named twice, and bytes after the last
        array all raise UsageError naming the path.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        pos = 0

        def take(size: int, what: str) -> bytes:
            nonlocal pos
            if size > len(blob) - pos:
                raise UsageError(f"{path}: truncated checkpoint: {what} needs "
                                 f"{size} bytes at offset {pos}, "
                                 f"{len(blob) - pos} left")
            pos += size
            return blob[pos - size:pos]

        def unpack(fmt: str, what: str) -> int:
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

        magic = take(4, "header")
        if magic != _CKPT_MAGIC:
            raise UsageError(f"{path}: not a checkpoint file (magic {magic!r})")
        version = unpack("<I", "header")
        if version != _CKPT_VERSION:
            raise UsageError(f"{path}: unsupported checkpoint version {version}")
        count = unpack("<Q", "header")
        out: dict[str, np.ndarray] = {}
        for index in range(count):
            raw = take(unpack("<I", f"name {index}"), f"name {index}")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UsageError(f"{path}: name {index} is not utf-8") from exc
            what = f"array {name!r}"
            if name in out:
                raise UsageError(f"{path}: duplicate {what}")
            shape = tuple(unpack("<Q", what) for _ in range(unpack("<I", what)))
            data = take(8 * math.prod(shape), what)
            out[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
        if pos != len(blob):
            raise UsageError(f"{path}: {len(blob) - pos} trailing bytes after "
                             f"the last array")
        return out

    def restore(self, path) -> None:
        """Load a checkpoint written by save(), as load_state_arrays does;
        every fault raises naming path."""
        self._load(self.read_arrays(path), f"{path}: ")


def global_grad_norm(store: ParameterStore) -> float:
    """The 2-norm of all gradients: one dot product over the flat buffer."""
    return math.sqrt(store.grads @ store.grads)

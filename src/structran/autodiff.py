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

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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
    if p.grad is None:
        p.grad = np.zeros_like(p.value)
    p.grad += g


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
        if node.grad is None or node.backward_fn is None:
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


def div(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    try:
        v = a.value / b.value
    except ValueError:
        raise ShapeError("div", a.shape, b.shape)

    def bw(g):
        _acc(a, _unbroadcast(g / b.value, a.value.shape))
        _acc(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return make_node(v, (a, b), bw)


def matmul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError("matmul", a.shape, b.shape)
    if a.value.shape[-1] != b.value.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    v = a.value @ b.value

    def bw(g):
        av, bv = a.value, b.value
        if a.ndim == 2 and b.ndim == 2:
            _acc(a, g @ bv.T)
            _acc(b, av.T @ g)
        elif a.ndim == 2 and b.ndim == 1:
            _acc(a, np.outer(g, bv))
            _acc(b, av.T @ g)
        elif a.ndim == 1 and b.ndim == 2:
            _acc(a, bv @ g)
            _acc(b, np.outer(av, g))
        else:
            _acc(a, g * bv)
            _acc(b, g * av)

    return make_node(v, (a, b), bw)


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


def stack(nodes: Iterable[Node], axis: int = 0) -> Node:
    nodes = [_wrap(x) for x in nodes]
    try:
        v = np.stack([x.value for x in nodes], axis=axis)
    except ValueError:
        raise ShapeError("stack", *[x.shape for x in nodes])

    def bw(g):
        for k, x in enumerate(nodes):
            _acc(x, np.take(g, k, axis=axis))

    return make_node(v, tuple(nodes), bw)


def slice_(a: Node, key) -> Node:
    """Static slicing/indexing with ints, slices, and integer arrays."""
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


def gather(a: Node, indices) -> Node:
    """Take rows (axis 0) by integer index; also the embedding lookup."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    if np.any(idx < 0) or np.any(idx >= a.value.shape[0]):
        raise DomainError(f"gather: index out of range for axis of size {a.value.shape[0]}")
    v = a.value[idx]

    def bw(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        np.add.at(a.grad, idx, g)

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
    a = _wrap(a)
    v = a.value.sum(axis=axis, keepdims=keepdims)
    if not isinstance(v, np.ndarray):
        v = np.asarray(v)

    def bw(g):
        if axis is None:
            _acc(a, np.broadcast_to(g, a.value.shape).copy() if g.shape != a.value.shape else g)
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(gg, a.value.shape))

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
    if np.any(a.value <= 0.0):
        raise DomainError("log: nonpositive input")
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


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: exp(-|x|) is at most 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Node) -> Node:
    a = _wrap(a)
    v = _logistic(a.value)

    def bw(g):
        _acc(a, g * v * (1.0 - v))

    return make_node(v, (a,), bw)


def softmax(a: Node, tau: float = 1.0, axis: int = -1) -> Node:
    """Temperature softmax along `axis`: softmax(x / tau)."""
    a = _wrap(a)
    if tau <= 0.0:
        raise DomainError(f"softmax: temperature must be positive, got {tau}")
    z = a.value / tau
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    v = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * v).sum(axis=axis, keepdims=True)
        _acc(a, (v * (g - inner)) / tau)

    return make_node(v, (a,), bw)


def lse_softmax(x: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """log sum exp of x along `axis` (kept as a size-1 axis) and the softmax.

    The max shift keeps every exponent at or below zero.  A slice that is
    all -inf gives -inf with all-zero weights.
    """
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(m > -np.inf, m, 0.0)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        v = np.log(s) + m
    return v, e / np.where(s > 0.0, s, 1.0)


def log_sum_exp(a: Node, axis=None, keepdims: bool = False) -> Node:
    a = _wrap(a)
    v, soft = lse_softmax(a.value, axis)
    if not keepdims:
        v = v.reshape(()) if axis is None else np.squeeze(v, axis=axis)

    def bw(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _acc(a, soft * gg)

    return make_node(v, (a,), bw)


def lstm_cell(z: Node, c_prev: Node) -> Node:
    """One LSTM step from gate preactivations; returns [h; c] packed.

    z holds the four gate blocks (input, forget, cell, output), each of
    the hidden size; c_prev is the previous cell state.
    """
    z, c_prev = _wrap(z), _wrap(c_prev)
    hdim = c_prev.value.shape[0]
    if z.value.shape != (4 * hdim,):
        raise ShapeError("lstm_cell", z.shape, c_prev.shape)
    zv = z.value
    i = _logistic(zv[:hdim])
    f = _logistic(zv[hdim:2 * hdim])
    gc = np.tanh(zv[2 * hdim:3 * hdim])
    o = _logistic(zv[3 * hdim:])
    c = f * c_prev.value + i * gc
    tc = np.tanh(c)
    h = o * tc
    v = np.concatenate([h, c])

    def bw(g):
        dh, dc_out = g[:hdim], g[hdim:]
        dc = dc_out + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([
            dc * gc * i * (1.0 - i),
            dc * c_prev.value * f * (1.0 - f),
            dc * i * (1.0 - gc * gc),
            dh * tc * o * (1.0 - o),
        ])
        _acc(z, dz)
        _acc(c_prev, dc * f)

    return make_node(v, (z, c_prev), bw)


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


class ParameterStore:
    """Named trainable arrays with deterministic ordering and binary I/O."""

    def __init__(self):
        self._params: dict[str, Node] = {}

    def add(self, name: str, value) -> Node:
        if name in self._params:
            raise UsageError(f"duplicate parameter name: {name!r}")
        node = parameter(value)
        self._params[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def zero_grads(self) -> None:
        for node in self._params.values():
            node.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self._params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k, v in arrays.items():
            self._params[k].value[...] = v

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
        name or an array, and bytes after the last array all raise
        UsageError naming the path.
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
            shape = tuple(unpack("<Q", what) for _ in range(unpack("<I", what)))
            data = take(8 * math.prod(shape), what)
            out[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
        if pos != len(blob):
            raise UsageError(f"{path}: {len(blob) - pos} trailing bytes after "
                             f"the last array")
        return out

    def restore(self, path) -> None:
        """Load a checkpoint written by save(); names and shapes must match."""
        arrays = self.read_arrays(path)
        if list(arrays) != self.names():
            raise UsageError("checkpoint parameter names do not match the store")
        for name, arr in arrays.items():
            node = self._params[name]
            if arr.shape != node.value.shape:
                raise ShapeError("restore", arr.shape, node.value.shape)
            node.value[...] = arr


def global_grad_norm(store: ParameterStore) -> float:
    total = 0.0
    for _, node in store.items():
        if node.grad is not None:
            total += float((node.grad * node.grad).sum())
    return float(np.sqrt(total))

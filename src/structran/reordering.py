"""Marginals over separable permutations of an l-token sequence.

A latent binary tree carves the sequence into spans; each internal node is
straight (children keep their order) or inverted (children swap).  With a
score per (span, orientation), P(tree) is proportional to exp(sum of node
scores).  The inside chart gives the log partition and split posteriors the
per-span branching distribution; passing output offsets top-down from the
root to the leaves yields the expected permutation matrix, which is doubly
stochastic by construction.

Scores attach to spans only, never to (span, split) triples, so the joint
posterior over (split, orientation) factorizes into independent softmaxes.
Spans of width >= 2 are laid out width-major: all widths 2 first, then 3,
and so on, each block ordered by left endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Node


def spans(length: int) -> list[tuple[int, int]]:
    """Spans (i, j), j - i >= 2, in the canonical width-major order."""
    return [(i, i + w) for w in range(2, length + 1)
            for i in range(length - w + 1)]


def span_endpoints(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The left and right endpoints of spans(length) as two intp arrays."""
    counts = np.arange(length - 1, 0, -1)  # spans of width 2, 3, .., length
    width = np.repeat(np.arange(2, length + 1), counts)
    left = np.arange(width.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return left, left + width


@dataclass(frozen=True)
class _Plan:
    """The flat split layout of one length; its arrays are read-only.

    The T splits of every span of width >= 2 are laid out (w, c, i): split
    (w, c, i), the split at i+c of span (i, i+w), is entry a + (c-1)*n + i,
    where n = length-w+1 and blocks holds one (w, n, a, b) per width in
    ascending order: [a, b) is width w's block, a row-major (w-1, n)
    array.  span_of[t] is the span row of split t, and cells[k] the flat
    index of span k's entry Z[w, i] in a (length+1, length) chart.
    """

    length: int
    blocks: tuple[tuple[int, int, int, int], ...]
    span_of: np.ndarray
    cells: np.ndarray


# Plans are cached for lengths up to this bound: together they take
# 0.14 MB, where caching every length up to 81 would pin 15 MB.
_PLAN_CACHE_LENGTHS = 24
_PLANS: dict[int, _Plan] = {}


def _plan(length: int) -> _Plan:
    """The split layout of `length`, cached up to _PLAN_CACHE_LENGTHS."""
    if length in _PLANS:
        return _PLANS[length]
    left, right = span_endpoints(length)
    widths = np.arange(2, length + 1)
    ns = length + 1 - widths
    rows = np.flatnonzero(left == 0)  # the first span row of each width
    bounds = np.concatenate(([0], np.cumsum((widths - 1) * ns)))
    # width w's block is w-1 runs of n splits, one per c, and split t of the
    # run that starts at t0 belongs to span row t - t0 + row
    run = np.repeat(ns, widths - 1)
    shift = np.cumsum(run) - run - np.repeat(rows, widths - 1)
    span_of = np.arange(bounds[-1])
    span_of -= np.repeat(shift, run)
    cells = (right - left) * length + left
    span_of.setflags(write=False)
    cells.setflags(write=False)
    plan = _Plan(length, tuple(zip(widths.tolist(), ns.tolist(),
                                   bounds[:-1].tolist(), bounds[1:].tolist())),
                 span_of, cells)
    if length <= _PLAN_CACHE_LENGTHS:
        _PLANS[length] = plan
    return plan


@dataclass
class SpanScores:
    """(straight, inverted) scores for every span of width >= 2."""

    length: int
    scores: Node

    def __post_init__(self):
        expect = self.length * (self.length - 1) // 2
        if self.scores.value.shape != (expect, 2):
            raise DomainError(
                f"scores for length {self.length} must have shape ({expect}, 2), "
                f"got {self.scores.value.shape}")


def _split_views(a: np.ndarray, w: int) -> tuple[np.ndarray, ...]:
    """The children of every split of every width-w span, as strided views
    of a dense chart; writes through a view land in `a`.

    With L = a.shape[1], n = L-w+1 width-w spans and k = c-1 numbering the
    split at i+c (c = 1..w-1), a 2-D inside chart Z[w, i] with strides
    (z0, z1) gives two (w-1, n) views:

        left[k, i]  = Z[c, i]        Z[1:w, :n]
        right[k, i] = Z[w-c, c+i]    Z[w-1, 1:] with strides (z1-z0, z1)

    and a 3-D offset chart O[w, i, s] with strides (s0, s1, s2) gives the
    four (w-1, n, n) targets of a straight and an inverted split:

        left_straight[k, i, s]  = O[c, i, s]        O[1:w, :n, :n]
        right_straight[k, i, s] = O[w-c, c+i, c+s]  O[w-1, 1:, 1:] with
                                                    strides (s1+s2-s0, s1, s2)
        right_inverted[k, i, s] = O[w-c, c+i, s]    O[w-1, 1:, :] with
                                                    strides (s1-s0, s1, s2)
        left_inverted[k, i, s]  = O[c, i, w-c+s]    O[1, :, w-1:] with
                                                    strides (s0-s2, s1, s2)

    Every index stays below L, and distinct k address distinct planes, so
    one in-place add per view never writes an element twice.  The strided
    views come from the ndarray constructor over `a`'s buffer (a byte
    offset plus strides), which raises ValueError for a view that would
    reach outside the buffer; `as_strided` checks nothing and costs about
    eight times as much per view.
    """
    n = a.shape[1] - w + 1
    if a.ndim == 2:
        z0, z1 = a.strides
        return a[1:w, :n], np.ndarray((w - 1, n), a.dtype, a,
                                      (w - 1) * z0 + z1, (z1 - z0, z1))
    s0, s1, s2 = a.strides
    shape = (w - 1, n, n)
    return (a[1:w, :n, :n],
            np.ndarray(shape, a.dtype, a, (w - 1) * s0 + s1 + s2, (s1 + s2 - s0, s1, s2)),
            np.ndarray(shape, a.dtype, a, (w - 1) * s0 + s1, (s1 - s0, s1, s2)),
            np.ndarray(shape, a.dtype, a, s0 + (w - 1) * s2, (s0 - s2, s1, s2)))


def _chart_posteriors(scores: np.ndarray, plan: _Plan):
    """Inside values plus factorized posteriors.

    Z is the dense (length+1, length) inside chart: Z[w, i] is the log
    inside value of span (i, i+w) for i <= length-w, and zero elsewhere.
    po[k] is the (straight, inverted) posterior of span k of
    spans(length).  split is the flat (T,) buffer of split posteriors in
    the plan's layout, and ps[w] its (w-1, n) block: ps[w][c-1][i] is the
    posterior of the split at i+c of span (i, i+w).

    Each width writes its split log-scores left + right into its block
    and reduces them with one logaddexp over the splits; only that sum is
    read by wider spans.  The blocks are normalized after the loop, all
    at once: each split less its span's sum, exponentiated in place and
    divided by its span's total.
    """
    orient_lse, po = ad.lse_softmax(scores, axis=1)
    Z = np.zeros((plan.length + 1, plan.length))
    np.put(Z, plan.cells, orient_lse[:, 0])  # the splits' lse is added per width
    split = np.empty(plan.span_of.size)
    split_lse = np.empty(len(scores))  # per span row, width-major
    ps: list[np.ndarray | None] = [None, None]
    row = 0
    for w, n, a, b in plan.blocks:
        left, right = _split_views(Z, w)
        s = np.add(left, right, out=split[a:b].reshape(w - 1, n))
        lse = np.logaddexp.reduce(s, axis=0, out=split_lse[row:row + n])
        Z[w, :n] += lse
        ps.append(s)
        row += n
    split -= split_lse.take(plan.span_of)
    np.exp(split, out=split)
    # the sequential reduction rounds at the scale of Z, so a span's
    # posteriors can sum to 1 only within 1e-12 at L = 81; this divides
    # that rounding out
    split /= np.bincount(plan.span_of, split, len(scores)).take(plan.span_of)
    return Z, po, split, ps


# ---------------------------------------------------------------------------
# expected permutation: one fused op with a handwritten adjoint

def expected_permutation(ss: SpanScores) -> Node:
    """Expected permutation matrix over the tree posterior: entry [a][b] is
    P(source position a lands on target slot b).

    A top-down branching process over output offsets: O[w, i, s] is the
    probability that span (i, i+w) is a constituent whose output block
    starts at offset s.  A straight node split at i+c passes s to its left
    child and s+c to its right child; an inverted one passes s to its right
    child and s+w-c to its left child.  The leaves give the matrix: O[1].
    Each width moves its mass to all its splits at once through the views
    of `_split_views`.  Work that does not depend on another width (the
    branch posteriors, and in the adjoint the split and orientation JVPs)
    runs once over the flat split layout of `_plan`, outside the loops.
    """
    length = ss.length
    scores = ss.scores.value
    plan = _plan(length)
    _, po, split, ps = _chart_posteriors(scores, plan)

    # q[t, o] = P(split t, orientation o | its span), o = straight, inverted
    q = po.take(plan.span_of, axis=0)
    q *= split[:, None]
    qo = q.T  # (2, T): one orientation per row
    O = np.zeros((length + 1, length, length))
    O[length, 0, 0] = 1.0
    for w, n, a, b in reversed(plan.blocks):
        qw = qo[:, a:b].reshape(2, w - 1, n, 1)
        ow = O[w, :n, :n]
        left_s, right_s, right_i, left_i = _split_views(O, w)
        # one orientation's product at a time, added while it is in cache
        qs = qw[0] * ow
        left_s += qs
        right_s += qs
        qi = qw[1] * ow
        right_i += qi
        left_i += qi

    def bw(groot):
        # bottom-up: adjoints of O and of the branch posteriors q
        dO = np.zeros(O.shape)
        dO[1] = groot
        dq = np.empty(qo.shape)  # the layout einsum writes fastest
        for w, n, a, b in plan.blocks:
            left_s, right_s, right_i, left_i = _split_views(dO, w)
            g = np.empty((2, w - 1, n, n))  # straight, inverted
            np.add(left_s, right_s, out=g[0])
            np.add(right_i, left_i, out=g[1])
            np.einsum("ocis,is->oci", g, O[w, :n, :n], out=dq[:, a:b].reshape(2, w - 1, n))
            np.einsum("cio,ocis->is", q[a:b].reshape(w - 1, n, 2), g, out=dO[w, :n, :n])
        # every split's JVP at once, centred by per-span segment sums, and
        # every span's orientation JVP as a segment sum over its splits
        rows = len(scores)
        dsplit = (dq * po.take(plan.span_of, axis=0).T).sum(axis=0)
        dsplit -= np.bincount(plan.span_of, split * dsplit, rows)[plan.span_of]
        dq *= split
        dpo = np.empty_like(scores)
        for o in (0, 1):
            dpo[:, o] = np.bincount(plan.span_of, dq[o], rows)
        # top-down: z = lse_splits + lse_orient, posteriors are softmax JVPs;
        # leaves have a constant inside value, so dZ[1] is never read
        dZ = np.zeros((length + 1, length))
        for w, n, a, b in reversed(plan.blocks):
            dt = ps[w] * (dsplit[a:b].reshape(w - 1, n) + dZ[w, :n])
            left, right = _split_views(dZ, w)
            left += dt
            right += dt
        # every span's orientation JVP at once; gz stays out of the centring
        gz = dZ.ravel()[plan.cells]
        ad._acc(ss.scores, po * (dpo - (po * dpo).sum(axis=1, keepdims=True) + gz[:, None]))

    # a copy, so that without a tape the result does not keep all of O alive
    return ad.make_node(O[1].copy(), (ss.scores,), bw)

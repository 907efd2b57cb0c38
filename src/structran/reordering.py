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


def _chart_posteriors(scores: np.ndarray, length: int):
    """Inside values plus factorized posteriors.

    Z is the dense (length+1, length) inside chart: Z[w, i] is the log
    inside value of span (i, i+w) for i <= length-w, and zero elsewhere.
    po[k] is the (straight, inverted) posterior of span k of
    spans(length), and ps[w][c-1][i] the posterior of the split at i+c of
    span (i, i+w).
    """
    orient_lse, po = ad.lse_softmax(scores, axis=1)
    Z = np.zeros((length + 1, length))
    ps: list[np.ndarray | None] = [None, None]
    offset = 0
    for w in range(2, length + 1):
        n_w = length - w + 1
        left, right = _split_views(Z, w)
        a, split_post = ad.lse_softmax(left + right, axis=0)
        Z[w, :n_w] = a[0] + orient_lse[offset:offset + n_w, 0]
        ps.append(split_post)
        offset += n_w
    return Z, po, ps


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
    of `_split_views`.
    """
    length = ss.length
    scores = ss.scores.value
    _, po, ps = _chart_posteriors(scores, length)

    # q[w][c-1, i] = P(split at i+c, (straight, inverted) | span (i, i+w))
    q: list[np.ndarray | None] = [None] * (length + 1)
    O = np.zeros((length + 1, length, length))
    O[length, 0, 0] = 1.0
    off = len(scores)
    for w in range(length, 1, -1):
        n = length - w + 1
        off -= n
        q[w] = ps[w][:, :, None] * po[off:off + n]
        ow = O[w, :n, :n]
        qs = q[w][:, :, 0, None] * ow
        qi = q[w][:, :, 1, None] * ow
        left_s, right_s, right_i, left_i = _split_views(O, w)
        left_s += qs
        right_s += qs
        right_i += qi
        left_i += qi

    def bw(groot):
        # bottom-up: adjoints of O and of the branch posteriors q; every
        # JVP that does not read dZ is taken here, the split one centred
        dO = np.zeros_like(O)
        dO[1] = groot
        dps_c: list[np.ndarray | None] = [None, None]
        dpo = np.empty_like(scores)  # width-major, like scores
        off = 0
        for w in range(2, length + 1):
            n = length - w + 1
            ow = O[w, :n, :n]
            left_s, right_s, right_i, left_i = _split_views(dO, w)
            g = np.empty((2, w - 1, n, n))  # straight, inverted
            np.add(left_s, right_s, out=g[0])
            np.add(right_i, left_i, out=g[1])
            dqw = np.einsum("ocis,is->cio", g, ow)
            dO[w, :n, :n] = np.einsum("cio,ocis->is", q[w], g)
            dps = (dqw * po[off:off + n]).sum(axis=2)
            dps_c.append(dps - (ps[w] * dps).sum(axis=0))
            dpo[off:off + n] = (dqw * ps[w][:, :, None]).sum(axis=0)
            off += n
        # top-down: z = lse_splits + lse_orient, posteriors are softmax JVPs;
        # leaves have a constant inside value, so dZ[1] is never read
        dZ = np.zeros((length + 1, length))
        for w in range(length, 1, -1):
            dt = ps[w] * (dps_c[w] + dZ[w, :length - w + 1])
            left, right = _split_views(dZ, w)
            left += dt
            right += dt
        # every span's orientation JVP at once; gz stays out of the centring
        widths = np.arange(2, length + 1)[:, None]
        gz = dZ[2:][widths + np.arange(length) <= length]
        ad._acc(ss.scores, po * (dpo - (po * dpo).sum(axis=1, keepdims=True) + gz[:, None]))

    # a copy, so that without a tape the result does not keep all of O alive
    return ad.make_node(O[1].copy(), (ss.scores,), bw)

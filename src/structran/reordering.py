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


def spans(length: int, min_width: int = 2) -> list[tuple[int, int]]:
    """Spans (i, j), j - i >= min_width, in the canonical width-major order."""
    return [(i, i + w) for w in range(min_width, length + 1)
            for i in range(length - w + 1)]


def score_index(length: int, i: int, j: int) -> int:
    """Row of span (i, j) inside the width-major score array."""
    w = j - i
    if not (0 <= i < j <= length and w >= 2):
        raise DomainError(f"bad span ({i}, {j}) for length {length}")
    off = sum(length - ww + 1 for ww in range(2, w))
    return off + i


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


@dataclass
class MarginalPermutation:
    """matrix[a][b] = P(source position a lands on target slot b)."""

    matrix: Node


def _per_width_scores(scores: np.ndarray, length: int) -> list[np.ndarray | None]:
    out: list[np.ndarray | None] = [None, None]
    offset = 0
    for w in range(2, length + 1):
        n_w = length - w + 1
        out.append(scores[offset:offset + n_w])
        offset += n_w
    return out


def _chart_posteriors(scores: np.ndarray, length: int):
    """Inside values plus factorized posteriors, all per width.

    zw[w][i] is the log inside value of span (i, i+w), po[w][i] its
    (straight, inverted) posterior and ps[w][c-1][i] the posterior of its
    split at i+c.
    """
    sc = _per_width_scores(scores, length)
    zw: list[np.ndarray | None] = [None, np.zeros(length)]
    po: list[np.ndarray | None] = [None, None]
    ps: list[np.ndarray | None] = [None, None]
    for w in range(2, length + 1):
        n_w = length - w + 1
        t = np.empty((w - 1, n_w))
        for c in range(1, w):
            t[c - 1] = zw[c][:n_w] + zw[w - c][c:c + n_w]
        a, split_post = ad.lse_softmax(t, axis=0)
        b, orient_post = ad.lse_softmax(sc[w], axis=1)
        zw.append(a[0] + b[:, 0])
        po.append(orient_post)
        ps.append(split_post)
    return zw, po, ps


# ---------------------------------------------------------------------------
# expected permutation: one fused op with a handwritten adjoint

def expected_permutation(ss: SpanScores) -> MarginalPermutation:
    """Expected permutation matrix over the tree posterior.

    A top-down branching process over output offsets: o[w][i, s] is the
    probability that span (i, i+w) is a constituent whose output block
    starts at offset s.  A straight node split at i+c passes s to its left
    child and s+c to its right child; an inverted one passes s to its right
    child and s+w-c to its left child.  The leaves give the matrix: o[1].
    """
    length = ss.length
    scores = ss.scores.value
    _, po, ps = _chart_posteriors(scores, length)

    # q[w][c-1, i] = P(split at i+c, (straight, inverted) | span (i, i+w))
    q = [None, None] + [ps[w][:, :, None] * po[w] for w in range(2, length + 1)]
    o = [None] + [np.zeros((length - w + 1, length - w + 1)) for w in range(1, length + 1)]
    o[length][0, 0] = 1.0
    for w in range(length, 1, -1):
        n = length - w + 1
        for c in range(1, w):
            qs = q[w][c - 1, :, 0, None] * o[w]
            qi = q[w][c - 1, :, 1, None] * o[w]
            o[c][:n, :n] += qs
            o[w - c][c:c + n, c:c + n] += qs
            o[w - c][c:c + n, :n] += qi
            o[c][:n, w - c:w - c + n] += qi

    def bw(groot):
        # bottom-up: adjoints of o and of the branch posteriors q
        do = [None, groot]
        dq = [None, None]
        for w in range(2, length + 1):
            n = length - w + 1
            dow = np.zeros((n, n))
            dqw = np.empty_like(q[w])
            for c in range(1, w):
                gs = do[c][:n, :n] + do[w - c][c:c + n, c:c + n]
                gi = do[w - c][c:c + n, :n] + do[c][:n, w - c:w - c + n]
                dqw[c - 1, :, 0] = (gs * o[w]).sum(axis=1)
                dqw[c - 1, :, 1] = (gi * o[w]).sum(axis=1)
                dow += q[w][c - 1, :, 0, None] * gs + q[w][c - 1, :, 1, None] * gi
            do.append(dow)
            dq.append(dqw)
        # top-down: z = lse_splits + lse_orient, posteriors are softmax JVPs;
        # leaves have a constant inside value, so dz[1] is never read
        dz = [np.zeros(length - w + 1) for w in range(length + 1)]
        dscores = np.empty_like(scores)
        off = len(scores)
        for w in range(length, 1, -1):
            n = length - w + 1
            off -= n
            gz = dz[w]
            dps = (dq[w] * po[w]).sum(axis=2)
            dpo = (dq[w] * ps[w][:, :, None]).sum(axis=0)
            dt = ps[w] * (gz + dps - (ps[w] * dps).sum(axis=0))
            dscores[off:off + n] = po[w] * (gz[:, None] + dpo
                                            - (po[w] * dpo).sum(axis=1, keepdims=True))
            for c in range(1, w):
                dz[c][:n] += dt[c - 1]
                dz[w - c][c:c + n] += dt[c - 1]
        ad._acc(ss.scores, dscores)

    return MarginalPermutation(ad.make_node(o[1], (ss.scores,), bw))

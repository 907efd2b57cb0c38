"""Marginals over separable permutations of an l-token sequence.

A latent binary tree carves the sequence into spans; each internal node is
straight (children keep their order) or inverted (children swap).  With a
score per (span, orientation), P(tree) is proportional to exp(sum of node
scores).  The inside chart gives the log partition, split posteriors the
per-span branching distribution, and composing conditional expectations
bottom-up yields the expected permutation matrix, which is doubly
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

    def index(self, i: int, j: int) -> int:
        return score_index(self.length, i, j)


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

    Conditional span matrices compose bottom-up: with split posterior q and
    children L (width c) and R (width w - c), a straight branch places L at
    target offsets 0..c-1 and R after it; an inverted branch places R first
    and shifts L by w - c.
    """
    length = ss.length
    if length == 1:
        return MarginalPermutation(ad.make_node(np.ones((1, 1)), (ss.scores,), lambda g: None))
    scores = ss.scores.value
    zw, po, ps = _chart_posteriors(scores, length)

    m: list[np.ndarray | None] = [None, np.ones((length, 1, 1))]
    for w in range(2, length + 1):
        n_w = length - w + 1
        mw = np.zeros((n_w, w, w))
        for c in range(1, w):
            left = m[c][:n_w]
            right = m[w - c][c:c + n_w]
            qs = (po[w][:, 0] * ps[w][c - 1])[:, None, None]
            qi = (po[w][:, 1] * ps[w][c - 1])[:, None, None]
            mw[:, :c, :c] += qs * left
            mw[:, c:, c:] += qs * right
            mw[:, c:, :w - c] += qi * right
            mw[:, :c, w - c:] += qi * left
        m.append(mw)

    value = m[length][0].copy()

    def bw(groot):
        dz = [np.zeros(length - w + 1) for w in range(length + 1)]  # dz[w], w >= 2 used
        dm = [None, None] + [np.zeros_like(m[w]) for w in range(2, length + 1)]
        dscores = np.zeros_like(scores)
        offsets = {}
        off = 0
        for w in range(2, length + 1):
            offsets[w] = off
            off += length - w + 1
        dm[length][0] += groot
        for w in range(length, 1, -1):
            n_w = length - w + 1
            g = dm[w]
            dps = np.zeros((w - 1, n_w))
            dpo = np.zeros((n_w, 2))
            for c in range(1, w):
                left = m[c][:n_w]
                right = m[w - c][c:c + n_w]
                psc = ps[w][c - 1]
                qs = po[w][:, 0] * psc
                qi = po[w][:, 1] * psc
                gll = g[:, :c, :c]
                grr = g[:, c:, c:]
                grl = g[:, c:, :w - c]
                glr = g[:, :c, w - c:]
                gstr = (gll * left).sum(axis=(1, 2)) + (grr * right).sum(axis=(1, 2))
                ginv = (grl * right).sum(axis=(1, 2)) + (glr * left).sum(axis=(1, 2))
                if c >= 2:
                    dm[c][:n_w] += qs[:, None, None] * gll + qi[:, None, None] * glr
                if w - c >= 2:
                    dm[w - c][c:c + n_w] += qs[:, None, None] * grr + qi[:, None, None] * grl
                dpo[:, 0] += gstr * psc
                dpo[:, 1] += ginv * psc
                dps[c - 1] = gstr * po[w][:, 0] + ginv * po[w][:, 1]
            gz = dz[w]
            # z = lse_splits + lse_orient; posterior tables are the softmax JVPs
            dt = ps[w] * gz[None, :]
            dt += ps[w] * (dps - (ps[w] * dps).sum(axis=0, keepdims=True))
            dsc_w = po[w] * gz[:, None]
            dsc_w += po[w] * (dpo - (po[w] * dpo).sum(axis=1, keepdims=True))
            dscores[offsets[w]:offsets[w] + n_w] += dsc_w
            for c in range(1, w):
                if c >= 2:
                    dz[c][:n_w] += dt[c - 1]
                if w - c >= 2:
                    dz[w - c][c:c + n_w] += dt[c - 1]
        ad._acc(ss.scores, dscores)

    return MarginalPermutation(ad.make_node(value, (ss.scores,), bw))

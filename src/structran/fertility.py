"""Latent-fertility dynamic programs.

Each source token i draws a copy count f_i from a categorical over 0..d.
A prefix table gives log P(f_1 + .. + f_i = h) by discrete convolution,
a suffix table the same for f_{i+1} + .. + f_n, and conditioning the
total on an output length l yields the marginal copy-alignment tensor

    F[i][j][u] = P(output slot j is the u-th copy of input i | total = l).

The DP runs in log space only, so a length is infeasible exactly when its
probability is zero.  Both tables are built once per FertilityTable as a
single tape node; the length distribution, the log length probability and
the marginal all read it, and its backward pass takes the summed adjoints
of every reader through the two recursions once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Node

ROW_SUM_TOL = 1e-9


class InfeasibleLengthError(ValueError):
    """Requested output length has zero probability under the table."""

    def __init__(self, length: int, support: list[int]):
        self.length = length
        self.support = support
        super().__init__(
            f"output length {length} has zero probability; feasible lengths: {support}")


@dataclass
class FertilityTable:
    """Per-token fertility distributions: probs[i][r] = P(f_i = r), r in 0..d."""

    probs: Node

    def __post_init__(self):
        v = self.probs.value
        if v.ndim != 2 or v.shape[1] < 2:
            raise DomainError(f"fertility table must be (n, d+1) with d >= 1, got {v.shape}")
        # written so that NaN fails both checks
        if not (v >= 0.0).all():
            raise DomainError("fertility probabilities must be nonnegative numbers")
        if not (np.abs(v.sum(axis=1) - 1.0) <= ROW_SUM_TOL).all():
            raise DomainError("fertility rows must sum to 1")

    @property
    def n(self) -> int:
        return self.probs.value.shape[0]

    @property
    def d(self) -> int:
        return self.probs.value.shape[1] - 1

    @property
    def max_length(self) -> int:
        return self.n * self.d

    @cached_property
    def log_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.probs.value)

    @cached_property
    def log_tables(self) -> Node:
        """(2, n+1, n*d+1) node: [0][i][h] = log P(f_1 + .. + f_i = h) and
        [1][i][h] = log P(f_{i+1} + .. + f_n = h).

        Built on first use, with the gradient mode in force at that time;
        the probabilities must not change afterwards.
        """
        return _log_tables(self)


# ---------------------------------------------------------------------------
# log-space prefix sweeps and their adjoint

def _window(out: np.ndarray, i: int, dp1: int, top: int) -> np.ndarray:
    """Row i of a padded prefix table, shifted once per count: a strided
    (K, d+1, top) view with window[k, r, h] = out[k, i, d + h - r].

    out is (K, n+1, d + width) with d = dp1 - 1 leading pad columns, so
    every index d + h - r lies in 0..d+width-1 for top <= width.  The view
    comes from the ndarray constructor over out's buffer, which raises
    ValueError for a view that would reach outside it.
    """
    k0, k1, k2 = out.strides
    return np.ndarray((out.shape[0], dp1, top), out.dtype, out,
                      i * k1 + (dp1 - 1) * k2, (k0, -k2, k2))


def _sweep(logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix log-convolutions of a stack of tables, all in one loop:
    out[k][i][h] = log P(f_1 + .. + f_i = h) under logp[k], (K, n, d+1).

    Also returns weights[k][i][r][h], the share of out[k][i+1][h] that has
    f_{i+1} = r, which is the local derivative the adjoint needs.  Each row
    writes its log terms into weights and reduces them with one logaddexp
    over r, into out; the shares are normalized after the loop, all rows
    at once.  Row i+1 can reach the totals 0..(i+1)*d only, so each row
    works on those; the rest of out stays -inf.  An infeasible total
    (-inf) has all-zero shares, with no warning raised.
    """
    stack, n, dp1 = logp.shape
    d = dp1 - 1
    width = n * d + 1
    out = np.full((stack, n + 1, d + width), -np.inf)  # d leading -inf columns pad the shifts
    out[:, 0, d] = 0.0
    weights = np.full((stack, n, dp1, width), -np.inf)
    for i in range(n):
        top = (i + 1) * d + 1  # the totals above (i+1)*d stay -inf
        terms = np.add(logp[:, i, :, None], _window(out, i, dp1, top),
                       out=weights[:, i, :, :top])
        np.logaddexp.reduce(terms, axis=1, out=out[:, i + 1, d:d + top])
    # a -inf total's terms are all -inf, and -inf less -DBL_MAX stays -inf
    weights -= np.maximum(out[:, 1:, None, d:], ad._LOWEST)
    np.exp(weights, out=weights)
    return out[:, :, d:], weights


def _sweep_adjoint(dout: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backpropagate through _sweep; consumes dout in place, returns dlogp."""
    stack, n, dp1, width = weights.shape
    dlogp = np.empty((stack, n, dp1))
    for i in range(n - 1, -1, -1):
        seg = weights[:, i] * dout[:, i + 1, None]
        dlogp[:, i] = seg.sum(axis=2)
        for r in range(dp1):
            dout[:, i, :width - r] += seg[:, r, r:]
    return dlogp


def _log_tables(ft: FertilityTable) -> Node:
    """Prefix and suffix tables as one node (see FertilityTable.log_tables).

    The suffix table is the prefix table of the reversed rows, so one
    stacked sweep builds both.
    """
    probs = ft.probs  # the backward closure must not hold ft, which caches the node
    logp = ft.log_probs
    (prefix, suffix), weights = _sweep(np.stack([logp, logp[::-1]]))

    def bw(g):
        dlogp = _sweep_adjoint(np.stack([g[0], g[1, ::-1]]), weights)
        _acc_log_grad(probs, dlogp[0] + dlogp[1, ::-1])

    return ad.make_node(np.stack([prefix, suffix[::-1]]), (probs,), bw)


def _acc_log_grad(probs: Node, dlogp: np.ndarray) -> None:
    """Chain d/dlog p into d/dp.  Zero probabilities get zero gradient: every
    table in the model comes from a softmax, whose backward multiplies by p."""
    p = probs.value
    ad._acc(probs, dlogp / np.where(p > 0.0, p, 1.0))


def _log_normalizer(ft: FertilityTable, length: int) -> float:
    """log P(total = length); raises when that probability is zero."""
    totals = ft.log_tables.value[0, ft.n]
    if not 1 <= length <= ft.max_length or totals[length] == -np.inf:
        raise InfeasibleLengthError(
            length, [h for h in range(1, totals.shape[0]) if totals[h] > -np.inf])
    return float(totals[length])


def _pair_shares(ft: FertilityTable, length: int, logz: float) -> list:
    """(u, v, share) per copy index u and later-copy count v of one token.

    share[i][k] = P(f_i = u + v, its u-th copy lands on slot k + u | total),
    for the slots k + u = u..length-v that leave room for both prefix and
    suffix counts.
    """
    logp = ft.log_probs
    prefix, suffix = ft.log_tables.value
    out = []
    for u in range(1, ft.d + 1):
        for v in range(0, ft.d - u + 1):
            m = length - u - v + 1
            if m < 1:
                continue
            term = (logp[:, u + v, None] + prefix[:-1, :m]
                    + suffix[1:, :m][:, ::-1] - logz)
            out.append((u, v, np.exp(term)))
    return out


# ---------------------------------------------------------------------------
# public ops

def length_distribution(ft: FertilityTable) -> Node:
    """P(total output length = h) for h in 0..n*d; sums to 1."""
    return ad.exp(ad.slice_(ft.log_tables, (0, ft.n)))


def log_length_probability(ft: FertilityTable, length: int) -> Node:
    """log P(total = length), finite for every length of positive probability."""
    _log_normalizer(ft, length)
    return ad.slice_(ft.log_tables, (0, ft.n, length))


def marginal_fertility(ft: FertilityTable, length: int) -> Node:
    """Marginal copy-alignment tensor (n, length, d) given the output length.

    F[i][j][u] (0-based) is the posterior probability that output slot j+1
    is the (u+1)-th copy of input token i+1 given total length.  Columns
    are distributions: sum_{i,u} F[i][j][u] = 1 for every j.
    """
    logz = _log_normalizer(ft, length)
    probs, tables = ft.probs, ft.log_tables
    n, d = ft.n, ft.d
    shares = _pair_shares(ft, length, logz)
    marg = np.zeros((n, length, d))
    for u, v, share in shares:
        marg[:, u - 1:length - v, u - 1] += share
    # Each column sums to 1 identically, so this changes values only by
    # rounding (it cancels the rounding of logz) and the adjoint ignores it.
    marg /= marg.sum(axis=(0, 2))[None, :, None]

    def bw(g):
        dlogp = np.zeros((n, d + 1))
        dtables = np.zeros_like(tables.value)
        for u, v, share in shares:
            m = share.shape[1]
            gs = g[:, u - 1:length - v, u - 1] * share
            dlogp[:, u + v] += gs.sum(axis=1)
            dtables[0, :n, :m] += gs
            dtables[1, 1:, :m] += gs[:, ::-1]
        dtables[0, n, length] -= float((g * marg).sum())
        _acc_log_grad(probs, dlogp)
        ad._acc(tables, dtables)

    return ad.make_node(marg, (probs, tables), bw)

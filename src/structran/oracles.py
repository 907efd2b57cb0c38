"""Brute-force reference implementations used to check the fast paths.

Everything here enumerates or perturbs directly and shares no code with the
dynamic programs it verifies.  Guards reject inputs whose enumeration would
exceed about 1e6 states.

Only the tests call count_labeled_trees, enum_permutation_support,
exhaustive_decode and cyk_recognizer.  They stay here, beside the oracles
that checks.py runs, because they are the same kind of reference: brute
force that shares no code with the fast paths.  The first two pin the
tree enumeration behind enum_tree_expectation to closed-form counts, and
the tests check inference.decode against exhaustive_decode and the
grammar-constrained decode against cyk_recognizer.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

ENUM_LIMIT = 1_000_000


def enum_length_distribution(probs: np.ndarray) -> np.ndarray:
    """P(total copies = h) by summing over all fertility assignments."""
    n, dp1 = probs.shape
    if dp1 ** n > ENUM_LIMIT:
        raise ValueError(f"enumeration too large: {dp1}^{n}")
    dist = np.zeros(n * (dp1 - 1) + 1)
    for fs in itertools.product(range(dp1), repeat=n):
        w = 1.0
        for i, fi in enumerate(fs):
            w *= probs[i, fi]
        dist[sum(fs)] += w
    return dist


def enum_fertility_marginals(probs: np.ndarray, length: int) -> tuple[np.ndarray, float]:
    """Copy-alignment marginals by enumerating and rejecting on total != length.

    Returns (marginals with shape (n, length, d), P(total = length)).
    """
    n, dp1 = probs.shape
    d = dp1 - 1
    if dp1 ** n > ENUM_LIMIT:
        raise ValueError(f"enumeration too large: {dp1}^{n}")
    acc = np.zeros((n, length, d))
    total = 0.0
    for fs in itertools.product(range(dp1), repeat=n):
        if sum(fs) != length:
            continue
        w = 1.0
        for i, fi in enumerate(fs):
            w *= probs[i, fi]
        if w == 0.0:
            continue
        total += w
        slot = 0
        for i, fi in enumerate(fs):
            for u in range(fi):
                acc[i, slot, u] += w
                slot += 1
    if total == 0.0:
        raise ValueError(f"length {length} has zero probability")
    return acc / total, total


def enum_labeled_trees(lo: int, hi: int, _memo=None) -> list[tuple[tuple[int, ...], tuple]]:
    """All branching structures over the span [lo, hi) with a straight (0) or
    inverted (1) label at each internal node.

    Each entry is (permutation, nodes): permutation[a] is the target offset of
    source offset a within the span, nodes a tuple of (i, j, orientation).
    """
    if _memo is None:
        _memo = {}
    key = (lo, hi)
    if key in _memo:
        return _memo[key]
    if hi - lo == 1:
        out = [((0,), ())]
    else:
        out = []
        for k in range(lo + 1, hi):
            for lperm, lnodes in enum_labeled_trees(lo, k, _memo):
                for rperm, rnodes in enum_labeled_trees(k, hi, _memo):
                    nodes = lnodes + rnodes
                    wl, wr = k - lo, hi - k
                    straight = tuple(lperm) + tuple(x + wl for x in rperm)
                    inverted = tuple(x + wr for x in lperm) + tuple(rperm)
                    out.append((straight, nodes + ((lo, hi, 0),)))
                    out.append((inverted, nodes + ((lo, hi, 1),)))
    _memo[key] = out
    return out


def count_labeled_trees(length: int) -> int:
    return len(enum_labeled_trees(0, length))


def enum_permutation_support(length: int) -> set[tuple[int, ...]]:
    """Permutations reachable by some labeled tree over `length` leaves."""
    return {perm for perm, _ in enum_labeled_trees(0, length)}


def enum_tree_expectation(score_of: dict, length: int) -> tuple[np.ndarray, float]:
    """Expected permutation matrix under P(tree) proportional to exp(sum of
    node scores); score_of maps (i, j) to the (straight, inverted) pair.

    Returns (matrix, log partition).
    """
    if length == 1:
        return np.ones((1, 1)), 0.0
    trees = enum_labeled_trees(0, length)
    if len(trees) > ENUM_LIMIT:
        raise ValueError("enumeration too large")
    logw = np.array([sum(score_of[(i, j)][o] for i, j, o in nodes)
                     for _, nodes in trees])
    shift = logw.max()
    w = np.exp(logw - shift)
    z = w.sum()
    mat = np.zeros((length, length))
    for (perm, _), wt in zip(trees, w):
        for a, bpos in enumerate(perm):
            mat[a, bpos] += wt
    return mat / z, float(np.log(z) + shift)


def exhaustive_decode(
    length_logprob: Callable[[int], float],
    token_probs: Callable[[int], np.ndarray],
    lengths: Sequence[int],
    vocab: int,
    accept: Callable[[tuple[int, ...]], bool] | None = None,
) -> tuple[int, tuple[int, ...], float] | None:
    """Best (length, tokens, score) by scoring every candidate output exactly.

    When accept is given, only token tuples it accepts compete, and the
    result is None if it accepts none.  Ties are resolved toward smaller
    length, then lexicographic tokens, which matches the decoder's argmax
    conventions.
    """
    total = sum(vocab ** l for l in lengths)
    if total > ENUM_LIMIT:
        raise ValueError(f"enumeration too large: {total} candidates")
    best = None
    for l in sorted(lengths):
        lp = length_logprob(l)
        probs = token_probs(l)
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        for ys in itertools.product(range(vocab), repeat=l):
            if accept is not None and not accept(ys):
                continue
            score = lp + sum(logp[i, y] for i, y in enumerate(ys))
            if best is None or score > best[2]:
                best = (l, ys, score)
    return best


def cyk_recognizer(grammar, tokens: Sequence[str]) -> bool:
    """Boolean CYK membership check for a CNF grammar."""
    n = len(tokens)
    if n == 0:
        return False
    chart: list[list[set[str]]] = [[set() for _ in range(n + 1)] for _ in range(n + 1)]
    for i, tok in enumerate(tokens):
        for lhs, term in grammar.lexical:
            if term == tok:
                chart[i][i + 1].add(lhs)
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = chart[i][j]
            for k in range(i + 1, j):
                left, right = chart[i][k], chart[k][j]
                for lhs, b, c in grammar.binary:
                    if b in left and c in right:
                        cell.add(lhs)
    return grammar.start in chart[0][n]


def finite_difference_grad(
    fn: Callable[[], float],
    arrays: Sequence[np.ndarray],
    step: float = 1e-3,
) -> list[np.ndarray]:
    """Gradient of fn() w.r.t. every entry of `arrays`, perturbing the
    arrays in place and restoring them.

    Each entry gets the Richardson estimate (4 D(h) - D(2h)) / 3, where D is
    the central difference.  It cancels the h^2 truncation term, so h can be
    large enough that a last-bit change of fn() is not amplified into a
    visible error where the true gradient is 0.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            central = []
            for h in (step, 2.0 * step):
                flat[k] = orig + h
                hi = fn()
                flat[k] = orig - h
                lo = fn()
                central.append((hi - lo) / (2.0 * h))
            flat[k] = orig
            gflat[k] = (4.0 * central[0] - central[1]) / 3.0
        grads.append(g)
    return grads


def max_relative_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray]) -> float:
    """max |a - n| / (|n| + 1e-8) over all gradient entries."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        err = np.abs(a - b) / (np.abs(b) + 1e-8)
        if err.size:
            worst = max(worst, float(err.max()))
    return worst

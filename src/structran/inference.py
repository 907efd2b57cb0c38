"""Decoding: top-k length search with argmax or grammar-constrained output.

decode is the one decoding routine.  The model scores a candidate as
log P(length | source) plus the summed log probabilities of the chosen
tokens.  Plain decoding takes the per-position argmax; grammar-constrained
decoding replaces it with a Viterbi CYK pass that only considers strings
the grammar derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .grammar import Grammar, GrammarError
from .model import Model


class InferenceError(RuntimeError):
    """No decodable candidate (no feasible length, or no parse)."""


class NoParseError(InferenceError):
    """The grammar derives no string of the requested length."""


@dataclass
class DecodeResult:
    tokens: list[int]
    length: int
    log_score: float
    distributions: np.ndarray | None = None


def top_lengths(length_probs: np.ndarray, k: int) -> list[int]:
    """The k most probable feasible lengths, ties toward the smaller one.

    Length 0 is never a candidate.
    """
    probs = np.asarray(length_probs)
    lengths = np.arange(1, probs.shape[0])
    mass = probs[1:]
    keep = mass > 0
    lengths, mass = lengths[keep], mass[keep]
    order = np.argsort(-mass, kind="stable")
    return [int(v) for v in lengths[order][:k]]


def viterbi_cyk(distributions: np.ndarray, alphabet: Sequence[str],
                grammar: Grammar) -> tuple[list[str], float]:
    """Highest-probability grammatical string under per-position scores.

    distributions holds one probability row per output position over the
    alphabet columns.  Binary rules carry weight one; only lexical
    choices are scored.  Raises NoParseError when the start symbol does
    not derive a string of this length, and GrammarError for a lexical
    rule whose terminal is not in the alphabet.
    """
    dist = np.asarray(distributions)
    length = dist.shape[0]
    with np.errstate(divide="ignore"):
        logd = np.log(dist)
    col = {tok: idx for idx, tok in enumerate(alphabet)}
    chart: dict[str, np.ndarray] = {
        a: np.full((length, length), -np.inf) for a in grammar.nonterminals}
    back: dict = {}
    for a, term in grammar.lexical:
        idx = col.get(term)
        if idx is None:
            raise GrammarError(f"rule {a} -> '{term}': terminal not in the alphabet",
                               (a, term))
        row = chart[a]
        for i in range(length):
            if logd[i, idx] > row[i, i]:
                row[i, i] = logd[i, idx]
                back[(a, i, i)] = ("lex", term)
    for width in range(2, length + 1):
        for i in range(length - width + 1):
            j = i + width - 1
            for a, b, c in grammar.binary:
                left, right = chart[b], chart[c]
                for s in range(i, j):
                    v = left[i, s] + right[s + 1, j]
                    if v > chart[a][i, j]:
                        chart[a][i, j] = v
                        back[(a, i, j)] = ("bin", b, c, s)
    score = chart[grammar.start][0, length - 1]
    if score == -np.inf:
        raise NoParseError(f"no parse at length {length}")

    def rebuild(a: str, i: int, j: int) -> list[str]:
        entry = back[(a, i, j)]
        if entry[0] == "lex":
            return [entry[1]]
        _, b, c, s = entry
        return rebuild(b, i, s) + rebuild(c, s + 1, j)

    return rebuild(grammar.start, 0, length - 1), float(score)


def decode(model: Model, source_ids, k: int | None = None,
           grammar: Grammar | None = None, target_vocab=None) -> DecodeResult:
    """Best (length, string) among the top-k candidate output lengths.

    Each length's rows come from Model.complete.  The string is their
    argmax or, with a grammar, the viterbi_cyk parse; target_vocab (a
    data.Vocabulary) names the grammar's terminals, and lengths with no
    parse are skipped.  k defaults to 1, or 5 with a grammar.
    """
    if k is None:
        k = 1 if grammar is None else 5
    if k < 1:
        raise ad.UsageError("k must be at least 1")
    if grammar is not None and target_vocab is None:
        raise ad.UsageError("grammar decoding needs the target vocabulary")
    if grammar is not None and model.config.decoder == "autoregressive":
        raise ad.UsageError("grammar decoding needs a position-independent decoder")
    with ad.no_grad():
        prep = model.prepare(source_ids)
        lengths = top_lengths(prep.length_probs.value, k)
        if not lengths:
            raise InferenceError("no feasible output length for this source")
        best = None
        unparsed = []
        for length in lengths:
            st, probs = model.complete(prep, length)
            probs = probs.value
            if grammar is None:
                ys = np.argmax(probs, axis=1)
                with np.errstate(divide="ignore"):
                    lex_score = np.log(probs[np.arange(length), ys]).sum()
            else:
                try:
                    tokens, lex_score = viterbi_cyk(
                        probs, target_vocab.id_to_token, grammar)
                except NoParseError:
                    unparsed.append(length)
                    continue
                ys = target_vocab.encode(tokens)
            score = float(st.log_length.value + lex_score)
            if best is None or score > best.log_score:
                best = DecodeResult([int(y) for y in ys], length, score, probs)
        if best is None:
            raise InferenceError(
                f"no parse at any candidate length; attempted {unparsed}")
        return best

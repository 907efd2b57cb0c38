"""Transduction model with latent fertility and latent reordering.

The forward pass factors the map from a source sequence to per-position
output distributions through two marginalized discrete structures: a
fertility assignment (how many copies each source token contributes) and
a binary-tree reordering of those copies.  Both structures are summed out
exactly by dynamic programs, so the decoder sees dense mixture weights
and the whole pipeline stays differentiable.

Two composition orders are supported.  In the fertility-first order the
fertility marginal builds an expected intermediate sequence whose rows
are reordered; in the reorder-first order the source itself is softly
permuted and fertility applies to the permuted rows.  The decoder mixes
per-(source token, copy slot) output distributions with the joint
structure weights either way.

Model is the one place that wires these stages.  prepare runs the stages
that do not depend on the output length once per source, together with
the terms of the output head and of the decoder LSTM that depend only on
the source or the weights, and complete finishes one candidate length:
the structure, then the decoder.  The autoregressive decoder runs its
LSTM through ar_context, on rows of the input pre-activation table that
prepare built, over the whole target prefix when target ids are given
(teacher forcing).  Greedy decoding is teacher forcing applied to a guess
of the tokens, repeated from the first position where the guess was wrong,
carrying the [h; c] state row as a constant, until the guess is its own
argmax.  Both emit through token_distributions and one
output_distributions call.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import fertility
from . import reordering
from .autodiff import Node, ParameterStore

COMPOSITION_ORDERS = ("fertility-first", "reorder-first")
DECODERS = ("independent", "copy", "autoregressive")

INIT_SCALE = 0.1


@dataclass
class ModelConfig:
    """Sizes and switches for every layer of the model."""

    source_vocab: int
    target_vocab: int
    embedding_dim: int = 32
    fertility_hidden: int = 32
    reorder_hidden: int = 48
    context_hidden: int = 32
    fertility_mlp: int = 32
    span_mlp: int = 48
    output_mlp: int = 48
    max_fertility: int = 4
    temperature: float = 1.0
    skip_scale: float = 1.0
    composition: str = "fertility-first"
    decoder: str = "independent"
    decoder_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("source_vocab", "target_vocab", "embedding_dim",
                     "fertility_hidden", "reorder_hidden", "context_hidden",
                     "fertility_mlp", "span_mlp", "output_mlp",
                     "max_fertility", "decoder_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not math.isfinite(self.skip_scale):
            raise ValueError("skip_scale must be finite")
        if self.composition not in COMPOSITION_ORDERS:
            raise ValueError(f"composition must be one of {COMPOSITION_ORDERS}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        return config_from_dict(cls, raw)


# JSON value types a config field accepts, by its annotation; never a boolean
_JSON_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "float | None": ((int, float, type(None)), "a number or null"),
               "str": ((str,), "a string")}


def config_from_dict(cls, raw: dict):
    """Build a config dataclass from parsed JSON, rejecting unknown keys and
    values of the wrong JSON type loudly."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    for name, value in raw.items():
        kinds, what = _JSON_KINDS[types[name]]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be {what}, got {json.dumps(value)}")
    return cls(**raw)


# Incidence matrices are cached for lengths up to this bound: together
# they take 0.68 MB, where caching every length up to 81 would pin 87 MB.
_INCIDENCE_CACHE_LENGTHS = 24
_INCIDENCE: dict[int, np.ndarray] = {}


def _span_incidence(length: int) -> np.ndarray:
    """The +-1 incidence matrix (S, 2*length) that maps BiLSTM states to
    span features, one row per span of reordering.spans(length).

    With the fenceposts ff[k], the forward state after k rows, and bb[k],
    the backward state covering rows k..length-1, span (i, j) has the
    features ff[j] - ff[i] and bb[i] - bb[j].  ff[0] and bb[length] are
    zero and have no column: ff[k] is column k - 1, the forward half of
    state row k - 1, and bb[k] is column length + k, the backward half of
    state row k.  The array is read-only, and cached up to
    _INCIDENCE_CACHE_LENGTHS.
    """
    if length in _INCIDENCE:
        return _INCIDENCE[length]
    left, right = reordering.span_endpoints(length)
    rows = np.arange(left.size)
    e = np.zeros((rows.size, 2 * length))
    e[rows, right - 1] = e[rows, length + left] = 1.0
    e[rows[left > 0], left[left > 0] - 1] = -1.0
    e[rows[right < length], length + right[right < length]] = -1.0
    e.setflags(write=False)
    if length <= _INCIDENCE_CACHE_LENGTHS:
        _INCIDENCE[length] = e
    return e


@dataclass
class Prepared:
    """Length-independent forward state, reused across candidate lengths.

    The weight terms hold the weights as of prepare: proj and ar_rec, and
    ar_head without ar.proj, are views of the store, while head, ar_in and
    ar_head with ar.proj are copies.  So a Prepared must not be reused
    across an optimizer step or a restore: complete raises UsageError when
    the store's version has moved since prepare (see ParameterStore).
    """

    source_ids: np.ndarray
    embeddings: Node          # x, one row per source token
    fertility: fertility.FertilityTable
    permutation: Node | None  # (n, n) source permutation, reorder-first only
    # the output head's terms that do not depend on the AR row (see
    # Model.token_distributions), with h' the decoder context of encode
    head: Node                # (n, m) source term h' W1^T + b1
    proj: Node                # (m, d*V) out.proj, column u*V + y
    ar_head: Node | None      # (H, m) LSTM row into the MLP, autoregressive only
    # the decoder LSTM's weight terms, autoregressive only, with e the
    # embedding width (see Model.ar_context)
    ar_in: Node | None        # (V, 4H) input pre-activations emb_tgt ar.W[:, :e]^T + ar.b
    ar_rec: Node | None       # (4H, H) recurrent block ar.W[:, e:]
    version: int              # the store's version at prepare

    @property
    def length_probs(self) -> Node:
        """P(output length = h | source), h = 0..n*d; computed on each read."""
        return fertility.length_distribution(self.fertility)


@dataclass
class Structure:
    """Target-independent forward state for one candidate output length.

    Only the decoder reads the target prefix, so teacher forcing and
    token-by-token decoding both emit from one Structure.
    """

    marginal: Node     # (n, length, d) fertility marginal, see marginal_fertility
    log_length: Node   # scalar log P(length | source)
    permutation: Node  # expected permutation matrix, see expected_permutation
    mixing: Node       # (length, n*d) joint structure weights, see mixing_weights


class Model:
    """Parameter container plus the differentiable forward pipeline."""

    def __init__(self, config: ModelConfig, copy_ids: np.ndarray | None = None):
        self.config = config
        if config.decoder == "copy":
            if copy_ids is None:
                raise ValueError("copy decoder requires a source-to-target id map")
            copy_ids = np.asarray(copy_ids, dtype=np.intp)
            if copy_ids.shape != (config.source_vocab,):
                raise ValueError("copy id map must cover the whole source vocabulary")
            if copy_ids.min() < 0 or copy_ids.max() >= config.target_vocab:
                raise ValueError("copy id map points outside the target vocabulary")
        self.copy_ids = copy_ids
        layout = list(self._parameters())
        self.store = ParameterStore((name, shape) for name, shape, _, read in layout
                                    if read)
        # weights are drawn in declared order straight into the store, and an
        # array left out still takes its draws, into a throwaway; biases stay
        # zero.  This is rng.uniform(-INIT_SCALE, INIT_SCALE) bit for bit
        # (numpy draws lower + range * u), in about two thirds of its time
        rng = np.random.default_rng(config.seed)
        for name, shape, drawn, read in layout:
            if drawn:
                value = self.store[name].value if read else np.empty(shape)
                rng.random(out=value)
                value *= 2 * INIT_SCALE
                value -= INIT_SCALE

    # -- parameter layout ---------------------------------------------------

    def _parameters(self) -> Iterator[tuple[str, tuple, bool, bool]]:
        """(name, shape, drawn, read) of every declared parameter, in draw
        order: drawn weights start uniform in (-INIT_SCALE, INIT_SCALE),
        biases at zero.  The store holds an array only when the configured
        forward pass reads it: the contextual encoder's ctx.* arrays only
        with skip_scale != 0, slot_emb only in the fertility-first order.
        An array left out still takes its draws, so every kept array starts
        from the same values whichever arrays the config leaves out."""
        cfg = self.config
        e = cfg.embedding_dim
        contextual = cfg.skip_scale != 0.0

        def weight(name: str, shape: tuple,
                   read: bool = True) -> tuple[str, tuple, bool, bool]:
            return name, shape, True, read

        def bias(name: str, shape: tuple,
                 read: bool = True) -> tuple[str, tuple, bool, bool]:
            return name, shape, False, read

        yield weight("emb_src", (cfg.source_vocab, e))
        yield weight("slot_emb", (cfg.max_fertility, e),
                     cfg.composition == "fertility-first")
        for tag, hidden, read in (("fert", cfg.fertility_hidden, True),
                                  ("reorder", cfg.reorder_hidden, True),
                                  ("ctx", cfg.context_hidden, contextual)):
            for direction in ("fw", "bw"):
                yield weight(f"{tag}.{direction}.W", (4 * hidden, e + hidden), read)
                yield bias(f"{tag}.{direction}.b", (4 * hidden,), read)
        if 2 * cfg.context_hidden != e:
            yield weight("ctx.proj", (e, 2 * cfg.context_hidden), contextual)
        yield weight("fert.mlp.W1", (cfg.fertility_mlp, 2 * cfg.fertility_hidden))
        yield bias("fert.mlp.b1", (cfg.fertility_mlp,))
        yield weight("fert.mlp.W2", (cfg.max_fertility + 1, cfg.fertility_mlp))
        yield bias("fert.mlp.b2", (cfg.max_fertility + 1,))
        yield weight("span.mlp.W1", (cfg.span_mlp, 2 * cfg.reorder_hidden))
        yield bias("span.mlp.b1", (cfg.span_mlp,))
        yield weight("span.mlp.W2", (2, cfg.span_mlp))
        yield bias("span.mlp.b2", (2,))
        yield weight("out.mlp.W1", (cfg.output_mlp, e))
        yield bias("out.mlp.b1", (cfg.output_mlp,))
        yield weight("out.proj", (cfg.max_fertility, cfg.target_vocab, cfg.output_mlp))
        if cfg.decoder == "copy":
            yield weight("copy.gate.w", (cfg.output_mlp,))
            yield bias("copy.gate.b", (cfg.max_fertility,))
        if cfg.decoder == "autoregressive":
            yield weight("emb_tgt", (cfg.target_vocab, e))
            yield weight("ar.W", (4 * cfg.decoder_hidden, e + cfg.decoder_hidden))
            yield bias("ar.b", (4 * cfg.decoder_hidden,))
            if cfg.decoder_hidden != e:
                yield weight("ar.proj", (e, cfg.decoder_hidden))

    # -- recurrent encoders -------------------------------------------------

    def _bilstm(self, tag: str, inputs: Node) -> Node:
        """Hidden states (T, 2H) of the BiLSTM over the rows of inputs, one
        ad.bilstm node: row t is [h_fw_t; h_bw_t], the forward state after
        rows 0..t and the backward state covering rows t..T-1."""
        s = self.store
        return ad.bilstm(inputs, s[tag + ".fw.W"], s[tag + ".fw.b"],
                         s[tag + ".bw.W"], s[tag + ".bw.b"])

    # -- pipeline stages ----------------------------------------------------

    def encode(self, source_ids: Sequence[int]) -> tuple[Node, Node]:
        """The embeddings x and the decoder context h' of the source rows."""
        cfg = self.config
        ids = np.asarray(source_ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size == 0:
            raise ad.UsageError("encode expects a non-empty 1-D token id sequence")
        if ids.min() < 0 or ids.max() >= cfg.source_vocab:
            raise ad.DomainError(
                f"source token id outside the vocabulary of size {cfg.source_vocab}")
        x = ad.slice_(self.store["emb_src"], ids)
        if cfg.skip_scale == 0.0:
            return x, x
        ctx_states = self._bilstm("ctx", x)
        if "ctx.proj" in self.store:
            ctx_states = ad.matmul(ctx_states, ad.transpose(self.store["ctx.proj"]))
        return x, ctx_states * cfg.skip_scale + x

    def fertility_head(self, rows: Node) -> fertility.FertilityTable:
        """Fertility table of the given rows: a BiLSTM over them, then a
        per-row softmax over 0..d copies."""
        s = self.store
        hid = ad.tanh(ad.matmul(self._bilstm("fert", rows), ad.transpose(s["fert.mlp.W1"]))
                      + s["fert.mlp.b1"])
        logits = ad.matmul(hid, ad.transpose(s["fert.mlp.W2"])) + s["fert.mlp.b2"]
        return fertility.FertilityTable(
            ad.softmax(logits, tau=self.config.temperature, axis=-1))

    def compose_intermediate(self, prep: Prepared, slot_weights: Node) -> Node:
        """Expected copy sequence (length, e) under the (length, n*d) slot
        weights F of Structure: row i is sum_{j,u} F[i, j*d + u] (x_j + w_u)."""
        n, e = prep.embeddings.shape
        slots = ad.reshape(prep.embeddings, (n, 1, e)) + self.store["slot_emb"]
        return ad.matmul(slot_weights, ad.reshape(slots, (-1, e)))

    def reordering_scores(self, seq: Node) -> reordering.SpanScores:
        """Orientation scores for every span of the given sequence: the span
        MLP over the fencepost differences of _span_incidence.  Its first
        layer is linear in them, so the (L, 2, H) BiLSTM rows are projected
        once through span.mlp.W1 as (m, 2, H), each half through its own
        columns, and one incidence product gives every span's
        pre-activation."""
        length = seq.shape[0]
        if length == 1:
            return reordering.SpanScores(1, ad.constant(np.zeros((0, 2))))
        s, cfg = self.store, self.config
        states = ad.reshape(self._bilstm("reorder", seq), (length, 2, cfg.reorder_hidden))
        w1 = ad.reshape(s["span.mlp.W1"], (cfg.span_mlp, 2, cfg.reorder_hidden))
        proj = ad.matmul(ad.transpose(states, (1, 0, 2)), ad.transpose(w1, (1, 2, 0)))
        pre = ad.matmul(_span_incidence(length), ad.reshape(proj, (2 * length, cfg.span_mlp)))
        hid = ad.tanh(pre + s["span.mlp.b1"])
        return reordering.SpanScores(
            length, ad.matmul(hid, ad.transpose(s["span.mlp.W2"])) + s["span.mlp.b2"])

    def mixing_weights(self, slot_weights: Node, perm_matrix: Node) -> Node:
        """Joint structure weights as a (length, n*d) matrix M, from the
        (length, n*d) fertility slot weights of Structure.

        M[i, j*d + u] is the probability that output position i realizes
        copy slot u of source token j.  Rows sum to one.
        """
        if self.config.composition == "fertility-first":
            return ad.matmul(ad.transpose(perm_matrix), slot_weights)
        # reorder-first: the permutation acts on source positions and the
        # fertility marginal is indexed by reordered positions
        length, n = slot_weights.shape[0], perm_matrix.shape[0]
        mixed = ad.matmul(perm_matrix, ad.reshape(slot_weights, (length, n, -1)))
        return ad.reshape(mixed, slot_weights.shape)

    def token_distributions(self, prep: Prepared,
                            ar_states: Node | None = None) -> Node:
        """Per-slot token distributions P(y | x_j, u) as a (rows, n*d, V)
        table, with slot j*d + u in the order of the mixing weights.

        rows is 1 for the position-independent decoders and one per
        decoder LSTM row (rows, H) of ar_states otherwise.  The output MLP
        is affine in the AR row before its tanh, so its hidden layer is
        tanh(head + ar_states ar_head) with both terms built in prepare.
        """
        cfg = self.config
        d, vocab = cfg.max_fertility, cfg.target_vocab
        n = prep.source_ids.shape[0]
        pre = prep.head
        if ar_states is not None:
            ar_term = ad.matmul(ar_states, prep.ar_head)
            pre = pre + ad.reshape(ar_term, (-1, 1, cfg.output_mlp))
        feats = ad.tanh(pre)
        logits = ad.reshape(ad.matmul(feats, prep.proj), (-1, n * d, vocab))
        probs = ad.softmax(logits, axis=-1)
        if cfg.decoder == "copy":
            onehot = np.zeros((n * d, vocab))
            onehot[np.arange(n * d), np.repeat(self.copy_ids[prep.source_ids], d)] = 1.0
            w = ad.reshape(self.store["copy.gate.w"], (cfg.output_mlp, 1))
            gate = ad.sigmoid(ad.matmul(feats, w) + self.store["copy.gate.b"])
            gate = ad.reshape(gate, (1, n * d, 1))
            probs = gate * ad.constant(onehot) + (1.0 - gate) * probs
        return probs

    def output_distributions(self, token_probs: Node, mixing: Node) -> Node:
        """Mix the (rows, n*d, V) slot table into (length, V) output rows
        with one product: row i is mixing[i] @ token_probs[r], with r = 0
        when rows is 1 and r = i otherwise."""
        length = mixing.shape[0]
        mixed = ad.matmul(ad.reshape(mixing, (length, 1, -1)), token_probs)
        return ad.reshape(mixed, (length, -1))

    def ar_context(self, prep: Prepared, prev_ids: Sequence[int],
                   state: np.ndarray | None = None) -> tuple[Node, np.ndarray]:
        """Run the decoder LSTM over prev_ids from state, a constant (2H,)
        row [h; c] (zeros when omitted): the rows of prep.ar_in at the ids
        are the input pre-activations, so a step is a row lookup and the
        recurrence.

        Returns the LSTM rows (len(prev_ids), H), which token_distributions
        reads: the row after token t conditions the position after t.
        Also returns the [h; c] row to continue from.  The ids are not
        range-checked here: complete checks target ids, and greedy ids are
        argmaxes over the vocabulary.
        """
        ids = np.asarray(prev_ids, dtype=np.intp)
        return ad.lstm(ad.slice_(prep.ar_in, ids), prep.ar_rec, state)

    # -- orchestration ------------------------------------------------------

    def prepare(self, source_ids: Sequence[int]) -> Prepared:
        """Run every length-independent stage once per source: the fertility
        head reads x in the fertility-first order and P^T x in the
        reorder-first order."""
        cfg, s = self.config, self.store
        ids = np.asarray(source_ids, dtype=np.intp)
        x, context = self.encode(ids)
        rows, perm = x, None
        if cfg.composition == "reorder-first":
            perm = reordering.expected_permutation(self.reordering_scores(x))
            rows = ad.matmul(ad.transpose(perm), x)
        w1_t = ad.transpose(s["out.mlp.W1"])
        head = ad.matmul(context, w1_t) + s["out.mlp.b1"]
        proj = ad.transpose(ad.reshape(
            s["out.proj"], (cfg.max_fertility * cfg.target_vocab, cfg.output_mlp)))
        ar_head = ar_in = ar_rec = None
        if cfg.decoder == "autoregressive":
            # ar.proj has no bias, so it folds into W1: (W1 ar.proj)^T
            ar_head = (ad.transpose(ad.matmul(s["out.mlp.W1"], s["ar.proj"]))
                       if "ar.proj" in s else w1_t)
            w_in = ad.slice_(s["ar.W"], (slice(None), slice(None, cfg.embedding_dim)))
            ar_in = ad.matmul(s["emb_tgt"], ad.transpose(w_in)) + s["ar.b"]
            ar_rec = ad.slice_(s["ar.W"], (slice(None), slice(cfg.embedding_dim, None)))
        return Prepared(ids, x, self.fertility_head(rows), perm, head, proj, ar_head,
                        ar_in, ar_rec, s.version)

    def structure(self, prep: Prepared, length: int) -> Structure:
        """The target-independent stages for one candidate output length."""
        marg = fertility.marginal_fertility(prep.fertility, length)
        log_len = fertility.log_length_probability(prep.fertility, length)
        # the slot weights F[i, j*d + u] = marg[j, i, u], read by both stages
        slot_weights = ad.reshape(ad.transpose(marg, (1, 0, 2)), (length, -1))
        if self.config.composition == "fertility-first":
            inter = self.compose_intermediate(prep, slot_weights)
            perm = reordering.expected_permutation(self.reordering_scores(inter))
        else:
            perm = prep.permutation
        return Structure(marg, log_len, perm, self.mixing_weights(slot_weights, perm))

    def complete(self, prep: Prepared, length: int,
                 target_ids: Sequence[int] | None = None) -> tuple[Structure, Node]:
        """Finish the forward pass for one candidate output length.

        Returns the Structure and the (length, target_vocab) output rows,
        each a distribution.  target_ids, when given, must hold one id in
        [0, target_vocab) per position, for every decoder.  The
        autoregressive decoder conditions position i on the LSTM row after
        the ids before it, and position 0 on the zero start row.  It is
        teacher-forced on target_ids.  Without them it decodes greedily,
        with the greedy tokens found as the fixed point of teacher forcing,
        y_i = argmax of row i given y_<i (Jacobi decoding; Santilli et al.
        2023).  The guess takes every position's token from position 0's
        (1, n*d, V) slot table, the zero row's, mixed by that position's
        mixing row, so position 0 is decided at once.  A pass from the
        first undecided position s runs one ar_context over the guessed ids
        from s-1 on, from the carried [h; c] state, and one
        token_distributions over its rows; argmaxes of mixing[i] @ table[i]
        are taken on plain values.  When none differs from the guess, every
        position is decided.  Otherwise positions s..j are decided, j being
        the first that differs, with its new argmax; the later positions
        take theirs as the next guess, one more ar_context carries the
        state over the newly decided ids, and the next pass starts at j+1.
        Each pass decides at least one position, so there are at most
        length - 1 passes.  The rows then come from one output_distributions
        call over the decided positions' tables, the call teacher forcing
        makes, so greedy rows are the teacher-forced rows of the greedy
        tokens.  Gradient flows through the LSTM within a pass, but the
        carried state is a constant, so none flows from one pass to the
        next.
        """
        cfg = self.config
        if prep.version != self.store.version:
            raise ad.UsageError("stale Prepared: the weights changed since prepare")
        if target_ids is not None:
            ids = np.asarray(target_ids, dtype=np.intp)
            if ids.shape != (length,):
                raise ad.UsageError("complete needs one target id per position")
            if not ((ids >= 0) & (ids < cfg.target_vocab)).all():
                raise ad.DomainError(
                    f"target token id outside the vocabulary of size {cfg.target_vocab}")
        st = self.structure(prep, length)
        ar_states = None
        if cfg.decoder == "autoregressive":
            zero = ad.constant(np.zeros((1, cfg.decoder_hidden)))
            if target_ids is None:
                mixing = st.mixing.value
                first = self.token_distributions(prep, zero)
                tokens = np.argmax(mixing @ first.value[0], axis=1)
                tables, state, start = [first], None, 1
                for _ in range(length):
                    if start == length:
                        break
                    rows, _ = self.ar_context(prep, tokens[start - 1:-1], state)
                    table = self.token_distributions(prep, rows)
                    new = np.argmax(np.matmul(mixing[start:, None], table.value)[:, 0],
                                    axis=1)
                    changed = np.flatnonzero(new != tokens[start:])
                    tokens[start:] = new
                    end = length if changed.size == 0 else start + int(changed[0]) + 1
                    if end == length:
                        tables.append(table)
                    else:
                        tables.append(ad.slice_(table, slice(0, end - start)))
                        state = self.ar_context(prep, tokens[start - 1:end - 1], state)[1]
                    start = end
                return st, self.output_distributions(ad.concat(tables, axis=0), st.mixing)
            ar_states = ad.concat([zero, self.ar_context(prep, ids[:-1])[0]], axis=0)
        token_probs = self.token_distributions(prep, ar_states)
        return st, self.output_distributions(token_probs, st.mixing)

    def guidance_mass(self, st: Structure) -> Node:
        """Alignment mass (length, n): entry (i, j) is P(output position i
        came from token j), the mixing weights summed over copy slots."""
        length, d = st.mixing.shape[0], self.config.max_fertility
        return ad.sum_(ad.reshape(st.mixing, (length, -1, d)), axis=2)


"""Training loop, per-example loss, and IBM model 1 alignment guidance.

The loss for one example is the negative log likelihood of the target
tokens plus a weighted negative log probability of the target length,
plus (during the first few epochs, when enabled) a guidance term that
pushes alignment mass toward word alignments extracted by IBM model 1.
Updates are Adam steps after one example at a time with global-norm
gradient clipping.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import random
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fertility
from . import inference
from .data import DatasetError
from .model import Model, config_from_dict


class TrainingError(RuntimeError):
    """Aborted training run (non-finite loss or gradient norm)."""


@dataclass
class TrainConfig:
    """Loss weights, schedule, and optimizer settings."""

    lambda_length: float = 1.0
    lambda_guidance: float = 1.0
    guidance_epochs: int = 10
    posterior_threshold: float = 0.6
    epochs: int = 100
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # optional early stop once dev exact match reaches this value
    stop_exact_match: float | None = None

    def __post_init__(self):
        # each range check is written so that NaN fails it; only clip_norm
        # may be infinite (no clipping)
        for name in ("lambda_length", "lambda_guidance"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not 0 < self.posterior_threshold <= 1:
            raise ValueError("posterior_threshold must be in (0, 1]")
        if self.guidance_epochs < 0:
            raise ValueError("guidance_epochs must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        for name in ("learning_rate", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.stop_exact_match is not None and not 0 <= self.stop_exact_match <= 1:
            raise ValueError("stop_exact_match must be in [0, 1]")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        return config_from_dict(cls, raw)


# ---------------------------------------------------------------------------
# IBM model 1 guidance

def ibm1_train(pairs, source_vocab: int, target_vocab: int,
               iterations: int = 5) -> tuple[np.ndarray, list[float]]:
    """EM for the IBM-1 lexical table with an extra null source token.

    Returns (t, log_likelihoods) where t has shape
    (source_vocab + 1, target_vocab), row source_vocab is the null token,
    and every row is a distribution over target tokens.  The likelihood
    list has one entry per iteration and is non-decreasing.
    """
    null = source_vocab
    usable = []
    for k, (src, tgt) in enumerate(pairs):
        if len(src) == 0 or len(tgt) == 0:
            warnings.warn(f"ibm1: skipping empty example {k}")
            continue
        usable.append((np.asarray(src, dtype=np.intp), np.asarray(tgt, dtype=np.intp)))
    t = np.full((source_vocab + 1, target_vocab), 1.0 / target_vocab)
    lls: list[float] = []
    for _ in range(iterations):
        counts = np.zeros_like(t)
        ll = 0.0
        for src, tgt in usable:
            xs = np.append(src, null)
            block = t[xs][:, tgt]                      # (n+1, m)
            totals = block.sum(axis=0)
            ll += float(np.log(totals / len(xs)).sum())
            np.add.at(counts, (xs[:, None], tgt[None, :]), block / totals)
        lls.append(ll)
        sums = counts.sum(axis=1, keepdims=True)
        uniform = np.full_like(t[0], 1.0 / target_vocab)
        t = np.where(sums > 0, counts / np.where(sums > 0, sums, 1.0), uniform)
    return t, lls


def alignment_posteriors(t: np.ndarray, src: np.ndarray,
                         tgt: np.ndarray) -> np.ndarray:
    """P(a_i = j) for each target position i; last row is the null token."""
    xs = np.append(np.asarray(src, dtype=np.intp), t.shape[0] - 1)
    block = t[xs][:, np.asarray(tgt, dtype=np.intp)]
    return block / block.sum(axis=0, keepdims=True)


def extract_guidance(t: np.ndarray, src, tgt,
                     threshold: float) -> set[tuple[int, int]]:
    """(source j, target i) pairs whose alignment posterior clears the bar.

    Null alignments never yield a pair.
    """
    post = alignment_posteriors(t, src, tgt)
    pairs = set()
    js, is_ = np.nonzero(post[:-1] >= threshold)
    for j, i in zip(js, is_):
        pairs.add((int(j), int(i)))
    return pairs


# ---------------------------------------------------------------------------
# loss

LOSS_TERMS = ("token_nll", "length_nll", "guidance")


def _example_label(index) -> str:
    """How errors name an example: an origin string ("FILE: line N") as it
    is, an int i as "example i"."""
    if index is None:
        return "example"
    return index if isinstance(index, str) else f"example {index}"


def example_loss(model: Model, source_ids, target_ids, config: TrainConfig,
                 guidance: set[tuple[int, int]] | None = None,
                 index=None) -> tuple[ad.Node, dict[str, float]]:
    """Loss node for one example, and its unweighted LOSS_TERMS as floats:
    loss = token_nll + lambda_length * length_nll + lambda_guidance * guidance,
    where guidance is 0 without guidance pairs.  An infeasible target
    length raises DatasetError naming the example by `index` (an int or
    an origin string)."""
    target_ids = np.asarray(target_ids, dtype=np.intp)
    try:
        st, probs = model.complete(model.prepare(source_ids), len(target_ids),
                                   target_ids)
    except fertility.InfeasibleLengthError as exc:
        raise DatasetError(f"{_example_label(index)}: {exc}") from exc
    picks = ad.slice_(probs, (np.arange(len(target_ids)), target_ids))
    loss = -ad.sum_(ad.log(picks))
    terms = {"token_nll": float(loss.value),
             "length_nll": -float(st.log_length.value), "guidance": 0.0}
    if config.lambda_length:
        loss = loss - st.log_length * config.lambda_length
    if guidance:
        mass = model.guidance_mass(st)
        js = np.array([j for j, _ in guidance], dtype=np.intp)
        is_ = np.array([i for _, i in guidance], dtype=np.intp)
        gterm = ad.sum_(ad.log(ad.slice_(mass, (is_, js))))
        terms["guidance"] = -float(gterm.value)
        loss = loss - gterm * config.lambda_guidance
    return loss, terms


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Standard Adam with bias correction over a parameter store.

    The moments m and v are flat arrays laid out like the store's values.
    A step moves only the arrays whose grad was written since the store's
    last zero_grads: an array with no gradient keeps its value and its
    moments.  Each maximal run of such arrays is one slice of the flat
    buffers, updated in place through one scratch buffer that persists
    between steps.
    """

    def __init__(self, store: ad.ParameterStore, config: TrainConfig):
        self.store = store
        self.lr = config.learning_rate
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.eps = config.adam_eps
        self.m, self.v = np.zeros((2, store.values.size))
        # two rows as long as the longest run updated so far, grown in step:
        # allocated with the moments, they would double the optimizer's
        # memory during set-up, when no step has run yet
        self._scratch = np.empty((2, 0))
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        values, grads = self.store.values, self.store.grads
        for lo, hi in self.store.touched_runs():
            if self._scratch.shape[1] < hi - lo:
                self._scratch = np.empty((2, hi - lo))
            g, m, v = grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s, u = self._scratch[:, :hi - lo]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            # value -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, c1, out=u)
            u *= self.lr
            u /= s
            values[lo:hi] -= u
        self.store.version += 1


def clip_gradients(store: ad.ParameterStore, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm;
    returns the norm before clipping.  A non-finite norm leaves them as
    they are."""
    norm = ad.global_grad_norm(store)
    if max_norm < norm < math.inf:
        store.grads *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# training loop

def train_step(model: Model, optimizer: Adam, config: TrainConfig, source_ids,
               target_ids, guidance, *, epoch: int,
               index: int | str) -> tuple[dict[str, float], float]:
    """One Adam update on one example; returns its "train_loss" and
    unweighted LOSS_TERMS, and the global gradient norm before clipping.
    A non-finite loss, or a forward pass that fails a domain check (NaN
    weights give a NaN fertility table, which FertilityTable rejects),
    raises TrainingError, naming the epoch and the example, before any
    backward pass; a non-finite gradient norm raises it before the Adam
    update, so the weights and moments stay as they were."""
    model.store.zero_grads()
    where = f"epoch {epoch}, {_example_label(index)}"
    try:
        loss, terms = example_loss(model, source_ids, target_ids, config,
                                   guidance, index=index)
    except ad.DomainError as exc:
        raise TrainingError(f"{where}: {exc}") from exc
    value = float(loss.value)
    if not np.isfinite(value):
        raise TrainingError(f"non-finite loss at {where}")
    ad.backward(loss)
    norm = clip_gradients(model.store, config.clip_norm)
    if not math.isfinite(norm):
        raise TrainingError(f"non-finite gradient norm at {where}")
    optimizer.step()
    return {"train_loss": value, **terms}, norm


@dataclass
class TrainResult:
    best_dev: float
    best_epoch: int
    metrics: list[dict]


@dataclass
class ExactMatch:
    """Exact-match tally of decoded pairs, with the misses split by cause."""

    hits: int = 0
    length: int = 0        # decoded to the wrong length
    tokens: int = 0        # right length, wrong tokens
    no_candidate: int = 0  # InferenceError: no feasible length or no parse

    @classmethod
    def of(cls, predictions, references) -> "ExactMatch":
        """Tally paired lists; raises DatasetError if their lengths differ."""
        if len(predictions) != len(references):
            raise DatasetError(f"prediction/reference count mismatch: "
                               f"{len(predictions)} vs {len(references)}")
        tally = cls()
        for predicted, reference in zip(predictions, references):
            tally.add(predicted, reference)
        return tally

    def add(self, predicted, reference) -> None:
        """Count one output; predicted is None for a source with no candidate."""
        if predicted is None:
            self.no_candidate += 1
        elif len(predicted) != len(reference):
            self.length += 1
        elif list(predicted) == list(reference):
            self.hits += 1
        else:
            self.tokens += 1

    @property
    def rate(self) -> float:
        total = self.hits + self.length + self.tokens + self.no_candidate
        return self.hits / total if total else 0.0

    def misses(self) -> dict[str, int]:
        return {"length": self.length, "tokens": self.tokens,
                "no_candidate": self.no_candidate}


def exact_match(model: Model, pairs) -> ExactMatch:
    """Score inference.decode at its defaults on (source_ids, target_ids) pairs."""
    tally = ExactMatch()
    for src, tgt in pairs:
        try:
            tokens = inference.decode(model, src).tokens
        except inference.InferenceError:
            tokens = None
        tally.add(tokens, tgt)
    return tally


def train(model: Model, train_pairs, dev_pairs, config: TrainConfig,
          metrics_path=None, log=None, origins=None) -> TrainResult:
    """Seeded per-example Adam training with a best-dev snapshot.

    train_pairs and dev_pairs hold (source_ids, target_ids) arrays.  The
    model is left holding the weights of its best dev epoch, the first
    one to reach the best dev exact match, or of the last epoch when there
    are no dev pairs, and the result reports that epoch.  Raises
    TrainingError, as train_step does, on a forward pass that fails a
    domain check, a non-finite loss or a non-finite gradient norm.
    Errors name train pair i by origins[i] ("FILE: line N") when that is
    given, else by i.
    """
    rng = random.Random(config.seed)
    optimizer = Adam(model.store, config)
    guidance_sets = [None] * len(train_pairs)
    if config.lambda_guidance > 0 and config.guidance_epochs > 0:
        cfg = model.config
        table, _ = ibm1_train(train_pairs, cfg.source_vocab, cfg.target_vocab)
        guidance_sets = [
            extract_guidance(table, src, tgt, config.posterior_threshold)
            for src, tgt in train_pairs
        ]
    origins = origins or [None] * len(train_pairs)
    order = list(range(len(train_pairs)))
    # epochs >= 1 and every dev rate is >= 0, so the first epoch sets best_state
    best_dev, best_epoch = -1.0, -1
    metrics: list[dict] = []
    # the records stream to PATH.tmp, which replaces PATH only when
    # training returns, so a failed run leaves the previous log in place
    with (ad.atomic_open(metrics_path, "w", encoding="utf-8") if metrics_path
          else contextlib.nullcontext()) as metrics_file:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            rng.shuffle(order)
            sums = dict.fromkeys(("train_loss",) + LOSS_TERMS, 0.0)
            grad_norms = []
            guided = epoch < config.guidance_epochs
            for idx in order:
                losses, norm = train_step(
                    model, optimizer, config, *train_pairs[idx],
                    guidance_sets[idx] if guided else None, epoch=epoch,
                    index=origins[idx] or idx)
                grad_norms.append(norm)
                for key, value in losses.items():
                    sums[key] += value
            dev = exact_match(model, dev_pairs)
            steps = max(len(train_pairs), 1)
            entry = {
                "epoch": epoch,
                # the mean loss and the unweighted means of its terms (see example_loss)
                **{key: total / steps for key, total in sums.items()},
                "dev_exact_match": dev.rate,
                "dev_misses": dev.misses(),
                # global gradient norm before clipping, over the epoch's steps
                "grad_norm_mean": sum(grad_norms) / max(len(grad_norms), 1),
                "grad_norm_max": max(grad_norms, default=0.0),
                "wall_ms": (time.perf_counter() - started) * 1000.0,
            }
            metrics.append(entry)
            if metrics_file:
                metrics_file.write(json.dumps(entry) + "\n")
                metrics_file.flush()
            if log:
                log(f"epoch {epoch}: loss {entry['train_loss']:.4f} "
                    f"dev {dev.rate:.3f} ({entry['wall_ms']:.0f} ms)")
            # with no dev pairs there is nothing to select on: keep the last epoch
            if dev.rate > best_dev or not dev_pairs:
                best_dev, best_epoch = dev.rate, epoch
                best_state = model.store.state_arrays()
            if (config.stop_exact_match is not None
                    and dev.rate >= config.stop_exact_match):
                break
    model.store.load_state_arrays(best_state)
    return TrainResult(best_dev, best_epoch, metrics)

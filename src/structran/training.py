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
import random
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fertility
from . import inference
from .data import DatasetError
from .model import Model, config_from_dict


class TrainingError(RuntimeError):
    """Aborted training run (non-finite loss)."""


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
        if self.lambda_length < 0 or self.lambda_guidance < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0 < self.posterior_threshold <= 1:
            raise ValueError("posterior_threshold must be in (0, 1]")
        if self.guidance_epochs < 0:
            raise ValueError("guidance_epochs must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate and clip_norm must be positive")

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

def example_loss(model: Model, source_ids, target_ids, config: TrainConfig,
                 guidance: set[tuple[int, int]] | None = None,
                 index=None):
    """Loss node for one example; also returns the forward output."""
    target_ids = np.asarray(target_ids, dtype=np.intp)
    try:
        out = model.transduce(source_ids, len(target_ids), target_ids)
    except fertility.InfeasibleLengthError as exc:
        label = "example" if index is None else f"example {index}"
        raise DatasetError(f"{label}: {exc}") from exc
    picks = ad.slice_(out.probs, (np.arange(len(target_ids)), target_ids))
    loss = -ad.sum_(ad.log(picks))
    if config.lambda_length:
        loss = loss - out.log_length * config.lambda_length
    if guidance:
        mass = model.guidance_mass(out)
        js = np.array([j for j, _ in guidance], dtype=np.intp)
        is_ = np.array([i for _, i in guidance], dtype=np.intp)
        gterm = ad.sum_(ad.log(ad.slice_(mass, (js, is_))))
        loss = loss - gterm * config.lambda_guidance
    return loss, out


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Standard Adam with bias correction over a parameter store."""

    def __init__(self, store: ad.ParameterStore, config: TrainConfig):
        self.store = store
        self.lr = config.learning_rate
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.eps = config.adam_eps
        self.m = {name: np.zeros_like(node.value) for name, node in store.items()}
        self.v = {name: np.zeros_like(node.value) for name, node in store.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, node in self.store.items():
            g = node.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            node.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def clip_gradients(store: ad.ParameterStore, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    norm = ad.global_grad_norm(store)
    if norm > max_norm:
        scale = max_norm / norm
        for _, node in store.items():
            if node.grad is not None:
                node.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    best_dev: float
    best_epoch: int
    metrics: list[dict]
    final_state: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


@dataclass
class ExactMatch:
    """Exact-match tally of decoded pairs, with the misses split by cause."""

    hits: int = 0
    length: int = 0        # decoded to the wrong length
    tokens: int = 0        # right length, wrong tokens
    no_candidate: int = 0  # InferenceError: no feasible length or no parse

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
            result = inference.decode(model, src)
        except inference.InferenceError:
            tally.no_candidate += 1
            continue
        if result.length != len(tgt):
            tally.length += 1
        elif np.array_equal(result.tokens, tgt):
            tally.hits += 1
        else:
            tally.tokens += 1
    return tally


def train(model: Model, train_pairs, dev_pairs, config: TrainConfig,
          metrics_path=None, log=None) -> TrainResult:
    """Seeded per-example Adam training with a best-dev snapshot.

    train_pairs and dev_pairs hold (source_ids, target_ids) arrays.  The
    model is left holding the weights of its best dev epoch.  Raises
    TrainingError on a non-finite loss.
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
    order = list(range(len(train_pairs)))
    best_dev = -1.0
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {}
    metrics: list[dict] = []
    # the records stream to PATH.tmp, which replaces PATH only when
    # training returns, so a failed run leaves the previous log in place
    with (ad.atomic_open(metrics_path, "w", encoding="utf-8") if metrics_path
          else contextlib.nullcontext()) as metrics_file:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            rng.shuffle(order)
            total = 0.0
            grad_norms = []
            guided = epoch < config.guidance_epochs
            for idx in order:
                src, tgt = train_pairs[idx]
                model.store.zero_grads()
                loss, _ = example_loss(model, src, tgt, config,
                                       guidance_sets[idx] if guided else None,
                                       index=idx)
                value = float(loss.value)
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, example {idx}")
                ad.backward(loss)
                grad_norms.append(clip_gradients(model.store, config.clip_norm))
                optimizer.step()
                total += value
            dev = exact_match(model, dev_pairs)
            dev_em = dev.rate
            entry = {
                "epoch": epoch,
                "train_loss": total / max(len(train_pairs), 1),
                "dev_exact_match": dev_em,
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
                    f"dev {dev_em:.3f} ({entry['wall_ms']:.0f} ms)")
            if dev_em > best_dev:
                best_dev = dev_em
                best_epoch = epoch
                best_state = model.store.state_arrays()
            if (config.stop_exact_match is not None
                    and dev_em >= config.stop_exact_match):
                break
    if best_state:
        model.store.load_state_arrays(best_state)
    return TrainResult(best_dev, best_epoch, metrics, model.store.state_arrays())

"""The three benchmark workloads: inputs, set-up, one timed operation, checks.

Every workload runs in rounds.  A round is a fixed list of source lengths,
so the mix of work per round, and with it every per-example count, is the
same whatever the seed and however many rounds a run makes; the seed only
chooses the symbols.  The checks compare outputs with references the
benchmark computes itself (w ++ reverse(w), central finite differences,
row sums), never with stored outputs of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from structran import autodiff, data, inference, training
from structran.model import Model, ModelConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "mirror_a.json"
ALPHABET = list("abcdefghijk")

# The decode models train on a fixed mirror-A sample, so every run decodes
# with the same weights and only the decoded sources depend on the seed.
DECODE_TRAIN_SEED = 0
DECODE_TRAIN_STEPS = 400
CHECKPOINT_STEPS = 40            # set-up steps between two speed readings
TRAIN_ROUNDS_BEFORE_DEV = 8      # the dev check runs after 8 rounds (560 steps)
DEV_SEED, DEV_LENGTH, DEV_SIZE = 0, 10, 8
GRADCHECK_ROUNDS = 3             # rounds whose first step is finite-differenced
GRADCHECK_EPS = 1e-4
GRADCHECK_RTOL, GRADCHECK_ATOL = 1e-4, 1e-9
ROW_SUM_TOL = 1e-9


def mirror(source: list[str]) -> list[str]:
    return source + source[::-1]


def random_source(rng: random.Random, n: int) -> list[str]:
    return [ALPHABET[rng.randrange(len(ALPHABET))] for _ in range(n)]


def load_config(decoder: str) -> tuple[ModelConfig, training.TrainConfig]:
    raw = json.loads(CONFIG.read_text(encoding="utf-8"))
    vocab = len(ALPHABET)
    model_cfg = ModelConfig.from_dict({**raw["model"], "decoder": decoder,
                                       "source_vocab": vocab, "target_vocab": vocab})
    return model_cfg, training.TrainConfig.from_dict(raw["training"])


@dataclass
class State:
    """Everything one set-up produces."""

    model: Model
    train_cfg: training.TrainConfig
    vocab: data.Vocabulary
    rounds: list[list[list[str]]]  # source tokens, per round
    optimizer: training.Adam | None = None
    seed: int = 0
    dev: list[list[str]] = field(default_factory=list)

    def encode(self, tokens: list[str]) -> np.ndarray:
        return self.vocab.encode(tokens)

    def fingerprint(self) -> list:
        """Values that identical set-ups must reproduce exactly."""
        return [self.rounds, {k: v.tobytes() for k, v in self.model.store.state_arrays().items()}]


class Workload:
    """Round layout and hooks; subclasses define set-up and the operation."""

    name = ""
    round_lengths: tuple[int, ...] = ()
    min_examples = 0
    tail_pct = 50
    setup_repeats = 3
    fast_rounds: tuple[tuple[int, ...], int] | None = None  # round, min examples

    def __init__(self, fast: bool = False):
        if fast and self.fast_rounds:
            self.round_lengths, self.min_examples = self.fast_rounds

    def min_rounds(self) -> int:
        return -(-self.min_examples // len(self.round_lengths))

    def make_rounds(self, seed: int) -> list[list[list[str]]]:
        rng = random.Random(seed)
        rounds = []
        for _ in range(self.min_rounds()):
            sources = [random_source(rng, n) for n in self.round_lengths]
            rng.shuffle(sources)
            rounds.append(sources)
        return rounds

    def setup(self, seed: int, checkpoint=lambda: None) -> State:
        """Build the state; a long set-up calls `checkpoint` every few steps."""
        raise NotImplementedError

    def run(self, state: State, source: list[str]):
        raise NotImplementedError

    def check(self, state: State, source: list[str], output) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError

    def before_round(self, state: State, index: int) -> list[str | None]:
        """Untimed checks made before round `index`; one entry per check."""
        return []

    def after_round(self, state: State, index: int) -> list[str | None]:
        """Untimed checks made after round `index`; one entry per check."""
        return []


def train_step(model: Model, optimizer: training.Adam, cfg: training.TrainConfig,
               vocab: data.Vocabulary, source: list[str]) -> float:
    """One step of training.train: loss, backward, clipping, Adam update."""
    model.store.zero_grads()
    loss, _ = training.example_loss(model, vocab.encode(source),
                                    vocab.encode(mirror(source)), cfg)
    value = float(loss.value)
    autodiff.backward(loss)
    training.clip_gradients(model.store, cfg.clip_norm)
    optimizer.step()
    return value


def train_decoder(decoder: str, steps: int, checkpoint=lambda: None
                  ) -> tuple[Model, training.TrainConfig, data.Vocabulary]:
    model_cfg, train_cfg = load_config(decoder)
    vocab = data.Vocabulary(sorted(ALPHABET))
    model = Model(model_cfg)
    optimizer = training.Adam(model.store, train_cfg)
    rng = random.Random(DECODE_TRAIN_SEED)
    for k in range(steps):
        train_step(model, optimizer, train_cfg, vocab, random_source(rng, 3 + k % 7))
        if k % CHECKPOINT_STEPS == CHECKPOINT_STEPS - 1:
            checkpoint()
    return model, train_cfg, vocab


def check_decode(result: inference.DecodeResult, expected: np.ndarray) -> str | None:
    if result.length != len(expected):
        return f"length {result.length}, expected {len(expected)}"
    if not np.array_equal(result.tokens, expected):
        return "tokens differ from w ++ reverse(w)"
    rows = np.asarray(result.distributions).sum(axis=1)
    worst = float(np.abs(rows - 1.0).max())
    if not worst <= ROW_SUM_TOL:
        return f"distribution rows sum to 1 only within {worst:.3g}"
    return None


class Decode(Workload):
    decoder = ""

    def setup(self, seed: int, checkpoint=lambda: None) -> State:
        model, train_cfg, vocab = train_decoder(self.decoder, DECODE_TRAIN_STEPS, checkpoint)
        return State(model, train_cfg, vocab, self.make_rounds(seed))

    def run(self, state: State, source: list[str]):
        return inference.decode(state.model, state.encode(source))

    def check(self, state: State, source: list[str], output) -> str | None:
        return check_decode(output, state.encode(mirror(source)))


class DecodeLong(Decode):
    """Top-1 decoding well past the training lengths; the permutation DP dominates."""

    name = "decode-long"
    decoder = "independent"
    round_lengths = (11, 18, 26, 33, 40)
    min_examples = 50
    tail_pct = 75
    fast_rounds = ((11, 14), 2)


class DecodeAR(Decode):
    """Greedy autoregressive decoding: one Model.complete per output position."""

    name = "decode-ar"
    decoder = "autoregressive"
    round_lengths = (6, 7, 8, 9, 10)
    min_examples = 100
    tail_pct = 90
    fast_rounds = ((6,), 1)


class Train(Workload):
    """One training step per example on mirror-A training lengths."""

    name = "train"
    round_lengths = tuple(n for n in range(3, 10) for _ in range(10))
    min_examples = len(round_lengths) * TRAIN_ROUNDS_BEFORE_DEV
    tail_pct = 98
    setup_repeats = 25

    def setup(self, seed: int, checkpoint=lambda: None) -> State:
        model_cfg, train_cfg = load_config("independent")
        vocab = data.Vocabulary(sorted(ALPHABET))
        model = Model(model_cfg)
        dev_rng = random.Random(DEV_SEED)
        dev = [random_source(dev_rng, DEV_LENGTH) for _ in range(DEV_SIZE)]
        return State(model, train_cfg, vocab, self.make_rounds(seed),
                     training.Adam(model.store, train_cfg), seed, dev)

    def run(self, state: State, source: list[str]):
        return train_step(state.model, state.optimizer, state.train_cfg, state.vocab, source)

    def check(self, state: State, source: list[str], output) -> str | None:
        return None if np.isfinite(output) else f"non-finite loss {output}"

    def before_round(self, state: State, index: int) -> list[str | None]:
        if index >= GRADCHECK_ROUNDS:
            return []
        rng = np.random.default_rng([state.seed, index])
        return [directional_gradcheck(state, state.rounds[index][0], rng)]

    def after_round(self, state: State, index: int) -> list[str | None]:
        if index != TRAIN_ROUNDS_BEFORE_DEV - 1:
            return []
        return [check_decode(inference.decode(state.model, state.encode(source)),
                             state.encode(mirror(source)))
                for source in state.dev]


def directional_gradcheck(state: State, source: list[str],
                          rng: np.random.Generator) -> str | None:
    """Tape derivative of the loss along a random unit direction vs central FD."""
    model, cfg = state.model, state.train_cfg
    src, tgt = state.encode(source), state.encode(mirror(source))
    params = dict(model.store.items())
    direction = {name: rng.standard_normal(node.value.shape) for name, node in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    model.store.zero_grads()
    loss, _ = training.example_loss(model, src, tgt, cfg)
    autodiff.backward(loss)
    tape = sum(float((node.grad * direction[name]).sum())
               for name, node in params.items() if node.grad is not None) / norm
    model.store.zero_grads()
    saved = model.store.state_arrays()
    sides = []
    for sign in (1.0, -1.0):
        for name, node in params.items():
            node.value[...] = saved[name] + sign * GRADCHECK_EPS / norm * direction[name]
        with autodiff.no_grad():
            sides.append(float(training.example_loss(model, src, tgt, cfg)[0].value))
    model.store.load_state_arrays(saved)
    fd = (sides[0] - sides[1]) / (2 * GRADCHECK_EPS)
    if abs(tape - fd) <= GRADCHECK_RTOL * max(abs(tape), abs(fd)) + GRADCHECK_ATOL:
        return None
    return f"directional derivative {tape:.8g} (tape) vs {fd:.8g} (finite difference)"


WORKLOADS = {cls.name: cls for cls in (Train, DecodeLong, DecodeAR)}

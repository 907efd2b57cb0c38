"""Synthetic mirror datasets, JSONL I/O, vocabularies.

The mirror task maps a source string w to w followed by reversed w.
Setup A uses a flat 11-symbol alphabet with train, dev, and test lengths
drawn from disjoint ranges.  Setup B adds three cluster symbols that
appear in training only as the fixed trigram "x y z"; its test set
places them freely so that generalization requires treating them as
ordinary symbols.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MIRROR_ALPHABET = list("abcdefghijk")
CLUSTER = ["x", "y", "z"]
SPLIT_SIZES = {"train": 4000, "dev": 200, "test": 1000}


class DatasetError(ValueError):
    """Malformed dataset files, vocab misses, or infeasible examples."""


@dataclass
class Example:
    source: list[str]
    target: list[str]
    # "FILE: line N" for an example read from a file; errors name it
    origin: str | None = field(default=None, compare=False)


def mirror_target(source: Sequence[str]) -> list[str]:
    return list(source) + list(reversed(source))


def _uniform_example(rng: random.Random, length: int,
                     alphabet: Sequence[str]) -> Example:
    source = [alphabet[rng.randrange(len(alphabet))] for _ in range(length)]
    return Example(source, mirror_target(source))


def generate_mirror_A(seed: int) -> dict[str, list[Example]]:
    """Train lengths 3..9, dev length 10, test lengths 11..20."""
    rng = random.Random(seed)
    splits: dict[str, list[Example]] = {"train": [], "dev": [], "test": []}
    for _ in range(SPLIT_SIZES["train"]):
        splits["train"].append(_uniform_example(rng, rng.randint(3, 9), MIRROR_ALPHABET))
    for _ in range(SPLIT_SIZES["dev"]):
        splits["dev"].append(_uniform_example(rng, 10, MIRROR_ALPHABET))
    for _ in range(SPLIT_SIZES["test"]):
        splits["test"].append(_uniform_example(rng, rng.randint(11, 20), MIRROR_ALPHABET))
    return splits


def _clustered_source(rng: random.Random, length: int) -> list[str]:
    # left-to-right build: an xyz cluster goes in with probability 0.2
    # whenever three slots remain, otherwise one base symbol
    out: list[str] = []
    while len(out) < length:
        if length - len(out) >= 3 and rng.random() < 0.2:
            out.extend(CLUSTER)
        else:
            out.append(MIRROR_ALPHABET[rng.randrange(len(MIRROR_ALPHABET))])
    return out


def has_free_cluster_symbol(source: Sequence[str]) -> bool:
    """True when some x, y, or z is not inside a full in-order xyz trigram."""
    covered = [False] * len(source)
    for i in range(len(source) - 2):
        if list(source[i:i + 3]) == CLUSTER:
            covered[i] = covered[i + 1] = covered[i + 2] = True
    return any(tok in CLUSTER and not covered[i] for i, tok in enumerate(source))


def generate_mirror_B(seed: int) -> dict[str, list[Example]]:
    """Clustered xyz in train/dev; test places x, y, z freely."""
    rng = random.Random(seed)
    full = MIRROR_ALPHABET + CLUSTER
    splits: dict[str, list[Example]] = {"train": [], "dev": [], "test": []}
    for name in ("train", "dev"):
        for _ in range(SPLIT_SIZES[name]):
            source = _clustered_source(rng, rng.randint(3, 9))
            splits[name].append(Example(source, mirror_target(source)))
    while len(splits["test"]) < SPLIT_SIZES["test"]:
        length = rng.randint(3, 9)
        source = [full[rng.randrange(len(full))] for _ in range(length)]
        if has_free_cluster_symbol(source):
            splits["test"].append(Example(source, mirror_target(source)))
    return splits


# the generator of each mirror setup, by the name the command line takes
MIRROR_SETUPS = {"A": generate_mirror_A, "B": generate_mirror_B}


def write_jsonl(path, examples: Iterable[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"source": ex.source, "target": ex.target}) + "\n")


def read_fields(path, *fields: str) -> list[tuple]:
    """(line number, one token list per field) for each non-blank line.

    Every field must be a non-empty JSON array of strings or numbers (not
    booleans); any other line raises DatasetError naming the path and the line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            row = [lineno]
            for name in fields:
                value = obj.get(name) if isinstance(obj, dict) else None
                if not isinstance(value, list) or not all(
                        isinstance(t, (str, int, float)) and not isinstance(t, bool)
                        for t in value):
                    raise DatasetError(f"{path}: line {lineno}: expected "
                                       f"{name!r} to be a JSON array of tokens")
                if not value:
                    raise DatasetError(
                        f"{path}: line {lineno}: empty sequence {name!r}")
                row.append([str(t) for t in value])
            rows.append(tuple(row))
    return rows


def read_jsonl(path) -> list[Example]:
    return [Example(source, target, f"{path}: line {lineno}")
            for lineno, source, target in read_fields(path, "source", "target")]


@dataclass
class Vocabulary:
    """Closed vocabulary; encoding an unseen token is an error."""

    id_to_token: list[str]

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DatasetError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, sequences: Iterable[Sequence[str]]) -> "Vocabulary":
        seen = set()
        for seq in sequences:
            seen.update(seq)
        return cls(sorted(seen))

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self.token_to_id[t] for t in tokens], dtype=np.intp)
        except KeyError as exc:
            raise DatasetError(f"token {exc.args[0]!r} not in vocabulary") from exc

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[int(i)] for i in ids]


def build_vocabularies(examples: Sequence[Example]) -> tuple[Vocabulary, Vocabulary]:
    src = Vocabulary.build(ex.source for ex in examples)
    tgt = Vocabulary.build(ex.target for ex in examples)
    return src, tgt


def copy_id_map(source_vocab: Vocabulary, target_vocab: Vocabulary) -> np.ndarray:
    """Source id to target id map for the copy decoder."""
    ids = np.empty(len(source_vocab), dtype=np.intp)
    for i, token in enumerate(source_vocab.id_to_token):
        j = target_vocab.token_to_id.get(token)
        if j is None:
            raise DatasetError(
                f"copy decoder: source token {token!r} missing from target vocabulary")
        ids[i] = j
    return ids


def encode_examples(examples: Sequence[Example], source_vocab: Vocabulary,
                    target_vocab: Vocabulary) -> list[tuple[np.ndarray, np.ndarray]]:
    """(source_ids, target_ids) per example; an unknown token raises
    DatasetError, which names the example's origin when it has one."""
    pairs = []
    for ex in examples:
        try:
            pairs.append((source_vocab.encode(ex.source), target_vocab.encode(ex.target)))
        except DatasetError as exc:
            if ex.origin is None:
                raise
            raise DatasetError(f"{ex.origin}: {exc}") from exc
    return pairs

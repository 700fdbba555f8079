"""Frozen static token embeddings plus sinusoidal positional encodings.

The table is never trained: it is excluded from the optimizer's parameter
set and the embedding output tensor does not require grad. When no table
file is given, a seeded unit-variance random table stands in so the whole
pipeline runs without any pretrained asset.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError
from .tensor import Tensor
from .tokenizer import Vocab


class EmbeddingTable:
    frozen = True

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.vocab_size, self.d = self.weights.shape


def random_table(vocab: Vocab, d: int, seed: int) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.standard_normal((len(vocab), d)))


def load_table(path: str | None, vocab: Vocab, d: int, seed: int = 0) -> EmbeddingTable:
    """Read a "token<TAB>v1 v2 ... vd" file ordered into vocab-id rows, or
    fall back to a seeded random table when no path is given."""
    if not path:
        return random_table(vocab, d, seed)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: embeddings file does not exist")
    rows: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            tok, _, rest = line.partition("\t")
            try:
                vec = np.array([float(v) for v in rest.split()])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if len(vec) != d:
                raise ConfigError(f"{path}:{lineno}: embedding width {len(vec)} != {d}")
            if tok not in vocab:
                raise ConfigError(f"{path}:{lineno}: token {tok!r} not in vocabulary")
            if tok in rows:
                raise ConfigError(f"{path}:{lineno}: duplicate embedding for token {tok!r}")
            rows[tok] = vec
    missing = [t for t in vocab.tokens if t not in rows]
    if missing:
        raise ConfigError(f"{path}: missing embeddings for {missing[:5]}")
    return EmbeddingTable(np.stack([rows[t] for t in vocab.tokens]))


_PE_CACHE: dict[int, np.ndarray] = {}


def pe_matrix(n: int, d: int) -> np.ndarray:
    if d % 2:
        raise ConfigError(f"positional encoding needs even width, got {d}")
    cached = _PE_CACHE.get(d)
    if cached is None or cached.shape[0] < n:
        size = max(n, 512)
        pos = np.arange(size).reshape(-1, 1)
        i = np.arange(d // 2)
        angle = pos / np.power(10000.0, 2.0 * i / d)
        out = np.empty((size, d))
        out[:, 0::2] = np.sin(angle)
        out[:, 1::2] = np.cos(angle)
        _PE_CACHE[d] = cached = out
    return cached[:n]


def embed(vocab_ids, table: EmbeddingTable) -> Tensor:
    """Rows weights[id] + PE(position); constant with respect to training."""
    ids = np.asarray(vocab_ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.vocab_size):
        bad = ids[(ids < 0) | (ids >= table.vocab_size)][0]
        raise ConfigError(f"vocab id {bad} out of range [0, {table.vocab_size})")
    return Tensor(table.weights[ids] + pe_matrix(len(ids), table.d))

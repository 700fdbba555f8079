"""Frozen static token embeddings plus sinusoidal positional encodings.

The table is never trained: it is excluded from the optimizer's parameter
set and the embedding output tensor does not require grad. When no table
file is given, a seeded unit-variance random table stands in so the whole
pipeline runs without any pretrained asset.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError, read_text
from .tensor import Tensor
from .tokenizer import Vocab


def random_table(vocab: Vocab, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((len(vocab), d))


def load_table(path: str | None, vocab: Vocab, d: int, seed: int = 0) -> np.ndarray:
    """Read a "token<TAB>v1 ... vd" file, UTF-8 byte order mark skipped, into
    a (vocab, d) array of vocab-id rows, or fall back to a seeded random table
    when no path is given."""
    if not path:
        return random_table(vocab, d, seed)
    if not os.path.exists(path):
        raise ConfigError(f"{path}: embeddings file does not exist")
    rows: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path, ConfigError).split("\n"), start=1):
        if not line:
            continue
        tok, _, rest = line.partition("\t")
        fields = rest.split()
        try:
            vec = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ConfigError(
                f"{path}:{lineno}: non-finite value {fields[bad[0]]!r} in the embedding of {tok!r}"
            )
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
    return np.stack([rows[t] for t in vocab.tokens])


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


def embed(vocab_ids, table: np.ndarray) -> Tensor:
    """Rows table[id] + PE(position), from a (vocab, d) table; constant with
    respect to training. The output's `source` rebuilds any block of rows as
    table[ids[rows]] + PE[rows] from the table and the cached encodings, so
    an op that saves its input keeps no n-row copy of it."""
    ids = np.asarray(vocab_ids, dtype=np.intp)
    weights = np.asarray(table, dtype=np.float64)
    vocab_size, d = weights.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = ids[(ids < 0) | (ids >= vocab_size)][0]
        raise ConfigError(f"vocab id {bad} out of range [0, {vocab_size})")
    pe = pe_matrix(len(ids), d)

    def source(rows, out):
        # the ids are checked above; "clip" lets take write straight into out
        np.take(weights, ids[rows], axis=0, out=out, mode="clip")
        out += pe[rows]
        return out

    return Tensor(weights[ids] + pe, source=source)

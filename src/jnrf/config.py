"""Line-oriented "key = value" run configuration.

The model's shape is declared once, in `ModelConfig`; `RunConfig` adds the
fields training reads. Training takes one whole document per Adam step, so
no key sets a batch size or splits documents. Both are frozen and validate
themselves on construction. Unknown keys are rejected; every key has a
default, so an empty file is a valid configuration. Values keep the type of
their default. Every error in parsed text names its line. '#' starts a
comment, so no value can hold one, a path included: `vocab` (one token per
line; `python -m jnrf` requires it) or `embeddings` (token<TAB>vector lines;
empty means the seeded random table), both relative to the working directory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields


class ConfigError(ValueError):
    """`key` names the configuration key a validation rule rejected, if any."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _require(ok: bool, key: str, rule: str, value):
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}", key)


@dataclass(frozen=True)
class ModelConfig:
    emb_dim: int = 64
    d_model: int = 64
    ffn_hidden: int = 128
    mixer: str = "fnet"           # fnet | mlp | windowed_attention
    n_blocks: int = 2
    window: int = 512             # windowed_attention only; single-head
    train_pooling: str = "gold"   # gold | predicted spans during training

    def __post_init__(self):
        _require(self.mixer in ("fnet", "mlp", "windowed_attention"), "mixer",
                 "fnet|mlp|windowed_attention", self.mixer)
        _require(self.train_pooling in ("gold", "predicted"), "train_pooling",
                 "gold|predicted", self.train_pooling)
        _require(self.emb_dim >= 1 and self.emb_dim % 2 == 0, "emb_dim",
                 "even and >= 1 for positional encodings", self.emb_dim)
        for key in ("d_model", "ffn_hidden", "n_blocks", "window"):
            _require(getattr(self, key) >= 1, key, ">= 1", getattr(self, key))

    @classmethod
    def from_run_config(cls, cfg: RunConfig) -> ModelConfig:
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    seed: int = 0
    # Single-valued and read by nothing: it stays a key only so that config
    # text written with `granularity = document`, as the benchmark's is,
    # still parses.
    granularity: str = "document"
    epochs: int = 10
    lr: float = 1e-3
    vocab: str = ""
    embeddings: str = ""

    def __post_init__(self):
        super().__post_init__()
        _require(self.seed >= 0, "seed", ">= 0", self.seed)
        _require(self.granularity == "document", "granularity", "document", self.granularity)
        _require(self.epochs >= 1, "epochs", ">= 1", self.epochs)
        _require(math.isfinite(self.lr) and self.lr > 0, "lr", "finite and > 0", self.lr)
        for key in ("vocab", "embeddings"):  # open() rejects a NUL with ValueError
            _require("\0" not in getattr(self, key), key, "a path without NUL", getattr(self, key))


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _convert(key: str, raw: str, lineno: int):
    raw = raw.strip()
    try:
        return type(_DEFAULTS[key])(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for key {key!r}") from None


def parse_config_text(text: str) -> RunConfig:
    values, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {line_of[key]})", key
            )
        values[key] = _convert(key, value, lineno)
        line_of[key] = lineno
    try:
        return RunConfig(**values)
    except ConfigError as e:  # defaults are valid, so the text set the rejected key
        raise ConfigError(f"line {line_of[e.key]}: {e}", e.key) from None


def decode_utf8(data: bytes, where: str, error: type[Exception]) -> str:
    """`data` as UTF-8 text; an undecodable byte raises `error` naming
    `where`, the byte's line and its offset in `data`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n")
        raise error(f"{where} is not UTF-8 ({exc.reason} at line {line}, byte {exc.start})") from None


def read_text(path: str, error: type[Exception]) -> str:
    """A UTF-8 file's text as text mode reads it, a byte order mark dropped and
    each "\\r\\n" or "\\r" read as "\\n"; `decode_utf8` errors name the path."""
    with open(path, "rb") as f:
        text = decode_utf8(f.read(), path, error)
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def load_config(path: str) -> RunConfig:
    """Parse a config file, a UTF-8 byte order mark skipped; errors name it."""
    text = read_text(path, ConfigError)
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", exc.key) from None


def serialize_config(cfg: RunConfig) -> str:
    return "\n".join(f"{k} = {v}" for k, v in asdict(cfg).items()) + "\n"

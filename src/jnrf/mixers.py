"""Pluggable token-mixing layers sharing one residual + LayerNorm skeleton.

fnet_block:   h = LN(x + fourier_mix(x));  out = LN(h + FFN(h))
mlp_block:    h = LN(x);                   out = LN(h + FFN(h))
windowed_attention_block: fourier_mix replaced by scaled dot-product
self-attention applied independently per non-overlapping window; no token
attends across a window boundary, and window = n is exactly full attention.
The attention is one tape node per block (`T.windowed_attention`): it saves
x, q, k, v and the merged heads, and backward recomputes each window's
probabilities instead of keeping them.

The Fourier sublayer contributes no trainable parameters; each block trains
only its two LayerNorms and the FFN (plus q/k/v/o projections for the
attention kind).
"""

from __future__ import annotations

from . import tensor as T
from .config import ModelConfig
from .params import Params, add_layer_norm, add_linear, linear_init
from .tensor import Tensor


def init_mixer_params(params: Params, cfg: ModelConfig, rng, prefix: str = "lm"):
    d = cfg.d_model
    for b in range(cfg.n_blocks):
        p = f"{prefix}.{b}"
        add_layer_norm(params, f"{p}.ln1", d)
        add_linear(params, rng, f"{p}.ffn.1", d, cfg.ffn_hidden)
        add_linear(params, rng, f"{p}.ffn.2", cfg.ffn_hidden, d)
        add_layer_norm(params, f"{p}.ln2", d)
        if cfg.mixer == "windowed_attention":
            for name in ("wq", "wk", "wv", "wo"):
                params.add(f"{p}.{name}", linear_init(rng, d, d))


def ffn(x: Tensor, params: Params, prefix: str) -> Tensor:
    """Two-layer gelu MLP applied row-wise, from `{prefix}.1.*` and `{prefix}.2.*`."""
    return T.ffn(
        x, params[f"{prefix}.1.w"], params[f"{prefix}.1.b"],
        params[f"{prefix}.2.w"], params[f"{prefix}.2.b"],
    )


def _ffn_sublayer(h: Tensor, params: Params, p: str) -> Tensor:
    return T.layer_norm_rows(
        h, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"], residual=ffn(h, params, f"{p}.ffn")
    )


def fnet_block(x: Tensor, params: Params, prefix: str) -> Tensor:
    h = T.layer_norm_rows(
        x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"], residual=T.fourier_mix(x)
    )
    return _ffn_sublayer(h, params, prefix)


def mlp_mixer_block(x: Tensor, params: Params, prefix: str) -> Tensor:
    h = T.layer_norm_rows(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    return _ffn_sublayer(h, params, prefix)


def windowed_attention_block(
    x: Tensor, params: Params, prefix: str, window: int, n_attn_heads: int = 1
) -> Tensor:
    mixed = T.windowed_attention(
        x, params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"],
        params[f"{prefix}.wo"], window, n_attn_heads,
    )
    h = T.layer_norm_rows(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"], residual=mixed)
    return _ffn_sublayer(h, params, prefix)


def shared_lm(x: Tensor, cfg: ModelConfig, params: Params, prefix: str = "lm") -> Tensor:
    """One weight set producing the single contextualized matrix consumed by
    both the entity and the relation heads."""
    for b in range(cfg.n_blocks):
        p = f"{prefix}.{b}"
        if cfg.mixer == "fnet":
            x = fnet_block(x, params, p)
        elif cfg.mixer == "mlp":
            x = mlp_mixer_block(x, params, p)
        else:  # windowed_attention; ModelConfig admits no other mixer
            x = windowed_attention_block(x, params, p, cfg.window, cfg.n_attn_heads)
    return x

"""Pluggable token-mixing layers sharing one residual + LayerNorm skeleton.

fnet_block:   h = LN(x + fourier_mix(x));  out = LN(h + FFN(h))
mlp_block:    h = LN(x);                   out = LN(h + FFN(h))
windowed_attention_block: fourier_mix replaced by scaled dot-product
self-attention applied independently per non-overlapping window; no token
attends across a window boundary, and window = n is exactly full attention.
The attention is one tape node per block (`T.windowed_attention`): it saves
x's row source and each row's softmax max and sum per head, and backward
recomputes each window's q, k and v projections, its exponentials and its
merged heads instead of keeping them. The FFN's input and every block's
input, the first block's too, carry a row source: the first block's input
is the input MLP's output, an ffn's, and every other input a layer norm's.
So the nodes that read them again in backward rebuild their rows, from the
layer norm's saved rows or by running the input MLP again on the
embedding, instead of keeping a copy. Each mixer's output goes straight
into the layer norm as its residual, so it is freed when that returns.

The Fourier sublayer contributes no trainable parameters; each block trains
only its two LayerNorms and the FFN (plus q/k/v/o projections for the
attention kind).
"""

from __future__ import annotations

from . import tensor as T
from .config import ModelConfig
from .params import Params, add_layer_norm, add_linear, linear_init
from .tensor import Tensor


def init_mixer_params(params: Params, cfg: ModelConfig, rng):
    """Block b's parameters are named `lm.{b}.*`."""
    d = cfg.d_model
    for b in range(cfg.n_blocks):
        p = f"lm.{b}"
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
    x: Tensor, params: Params, prefix: str, window: int, n_attn_heads: int
) -> Tensor:
    h = T.layer_norm_rows(
        x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"],
        residual=T.windowed_attention(
            x, params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"],
            params[f"{prefix}.wo"], window, n_attn_heads,
        ),
    )
    return _ffn_sublayer(h, params, prefix)


def shared_lm(x: Tensor, cfg: ModelConfig, params: Params) -> Tensor:
    """One weight set, `lm.*`, producing the single contextualized matrix
    consumed by both the entity and the relation heads."""
    for b in range(cfg.n_blocks):
        p = f"lm.{b}"
        if cfg.mixer == "fnet":
            x = fnet_block(x, params, p)
        elif cfg.mixer == "mlp":
            x = mlp_mixer_block(x, params, p)
        else:  # windowed_attention; ModelConfig admits no other mixer
            x = windowed_attention_block(x, params, p, cfg.window, cfg.n_attn_heads)
    return x

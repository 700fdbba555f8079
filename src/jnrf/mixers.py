"""The weight-shared language model: `shared_lm` runs one residual
skeleton for every mixer, block after block,

    x = LN1(x + mix(x))        (LN1(x) for the mlp mixer)
    x = LN2(x + FFN(x))

and rebinding x frees each block's input as soon as the first layer norm
returns. `fnet_block` mixes with the Fourier transform and
`windowed_attention_block` with single-head scaled dot-product
self-attention applied independently per non-overlapping window; no token
attends across a window boundary, and window = n is exactly full attention. Both are the mix
sublayer alone. The attention is one tape node per block
(`T.windowed_attention`): it saves x's row source and each row's softmax
max and sum, and backward recomputes each window's q, k and v
projections, its exponentials and its merged rows instead of keeping
them. The FFN's input and every block's input, the first block's too,
carry a row source: the first block's input is the input MLP's output, an
ffn's, and every other input a layer norm's. So the nodes that read them
again in backward rebuild their rows, from the layer norm's saved rows or
by running the input MLP again on the embedding, instead of keeping a
copy. Each mixer's and FFN's output goes straight into its layer norm as
the residual, so it is freed when that returns.

This module is forward code alone; `model.parameter_layout` names block b's
parameters `lm.{b}.*`. The Fourier sublayer has none: each block trains its
two LayerNorms and the FFN (plus q/k/v/o projections for the attention kind).
"""

from __future__ import annotations

from . import tensor as T
from .config import ModelConfig
from .params import Params
from .tensor import Tensor


def ffn(x: Tensor, params: Params, prefix: str) -> Tensor:
    """Two-layer gelu MLP applied row-wise, from `{prefix}.1.*` and `{prefix}.2.*`."""
    return T.ffn(
        x, params[f"{prefix}.1.w"], params[f"{prefix}.1.b"],
        params[f"{prefix}.2.w"], params[f"{prefix}.2.b"],
    )


def fnet_block(x: Tensor, params: Params, prefix: str) -> Tensor:
    return T.layer_norm_rows(
        x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"], residual=T.fourier_mix(x)
    )


def windowed_attention_block(x: Tensor, params: Params, prefix: str, window: int) -> Tensor:
    return T.layer_norm_rows(
        x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"],
        residual=T.windowed_attention(
            x, params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"],
            params[f"{prefix}.wo"], window,
        ),
    )


def shared_lm(x: Tensor, cfg: ModelConfig, params: Params) -> Tensor:
    """One weight set, `lm.*`, producing the single contextualized matrix
    consumed by both the entity and the relation heads."""
    for b in range(cfg.n_blocks):
        p = f"lm.{b}"
        if cfg.mixer == "fnet":
            x = fnet_block(x, params, p)
        elif cfg.mixer == "mlp":
            x = T.layer_norm_rows(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        else:  # windowed_attention; ModelConfig admits no other mixer
            x = windowed_attention_block(x, params, p, cfg.window)
        x = T.layer_norm_rows(
            x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"], residual=ffn(x, params, f"{p}.ffn")
        )
    return x

"""Named trainable parameters."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Params:
    """Insertion-ordered name -> Tensor map; the unit the optimizer walks."""

    def __init__(self):
        self._store: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._store:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(array, requires_grad=True)
        self._store[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._store[name]

    def __len__(self):
        return len(self._store)

    def items(self):
        return self._store.items()

    def zero_grad(self):
        for t in self._store.values():
            t.grad = None

def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)


def add_linear(params: Params, rng, prefix: str, fan_in: int, fan_out: int):
    params.add(f"{prefix}.w", linear_init(rng, fan_in, fan_out))
    params.add(f"{prefix}.b", np.zeros((1, fan_out)))


def add_layer_norm(params: Params, prefix: str, d: int):
    params.add(f"{prefix}.g", np.ones((1, d)))
    params.add(f"{prefix}.b", np.zeros((1, d)))

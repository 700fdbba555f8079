"""Named trainable parameters. Which names and shapes a model has, and how
each starts, is `model.parameter_layout` and `JNRF`'s to say."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Params(dict):
    """Insertion-ordered name -> Tensor map; the unit the optimizer walks."""

    def add(self, name: str, array: np.ndarray):
        if name in self:
            raise KeyError(f"duplicate parameter {name!r}")
        self[name] = Tensor(array, requires_grad=True)

    def zero_grad(self):
        for t in self.values():
            t.grad = None

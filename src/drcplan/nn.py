"""Named parameter collections, initialization, and gradient extraction.

Parameters live in a `ParameterSet`: an ordered map from a dotted path to a
`Tensor`, trainable when the tensor requires a gradient. Paths are stable
across save/load and are the join key for optimizer state and checkpoints.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, backward


class ParameterSet:
    """Ordered map of dotted parameter paths to tensors."""

    def __init__(self):
        self._params = {}

    def add(self, path, array, trainable=True):
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = Tensor(np.asarray(array), requires_grad=trainable)
        self._params[path] = t
        return t

    def __getitem__(self, path):
        return self._params[path]

    def __contains__(self, path):
        return path in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def paths(self):
        return list(self._params)

    def is_trainable(self, path):
        return self._params[path].requires_grad

    def trainable_items(self):
        return [(p, t) for p, t in self._params.items() if t.requires_grad]

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None


def compute_gradients(loss, params):
    """Backpropagate a scalar loss and collect gradients per parameter path.

    Returns a dict mapping path -> gradient array, covering exactly the
    trainable parameters the loss actually touched; untouched parameters are
    absent rather than zero-filled. Raises on a non-finite loss.
    """
    if not np.isfinite(loss.data).all():
        raise FloatingPointError(f"loss is not finite: {loss.data!r}")
    params.zero_grads()
    backward(loss)
    record = {}
    for path, t in params.trainable_items():
        if t.grad is not None:
            if t.grad.shape != t.data.shape:
                raise ValueError(f"gradient shape {t.grad.shape} != parameter shape {t.data.shape} at {path}")
            record[path] = t.grad
            t.grad = None
    return record


class Initializer:
    """Fan-in scaled uniform weights, zero biases, from a seeded generator."""

    def __init__(self, seed, dtype=np.float32):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype

    def conv(self, k, cin, cout):
        limit = 1.0 / np.sqrt(k * k * cin)
        return self.rng.uniform(-limit, limit, size=(k, k, cin, cout)).astype(self.dtype)

    def dense(self, fan_in, fan_out):
        limit = 1.0 / np.sqrt(fan_in)
        return self.rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(self.dtype)

    def bias(self, n):
        return np.zeros(n, dtype=self.dtype)

"""Adam optimizer with bias correction, and the global gradient norm that
training reports."""

from __future__ import annotations

import numpy as np


class AdamState:
    """Per-parameter first/second moment estimates and the shared step count."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-4):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {}
        self.v = {}


def adam_step(params, grads, state, lr):
    """Apply one Adam update in place and advance the step counter.

    `grads` maps parameter paths to gradient arrays (see
    `nn.compute_gradients`). Moments are created lazily for paths seen for
    the first time. With lr=0 the parameters stay put but the moment
    estimates still advance.
    """
    if lr < 0:
        raise ValueError(f"adam_step: negative learning rate {lr}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for path, g in grads.items():
        p = params[path]
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape} at {path}")
        g = g.astype(p.data.dtype, copy=False)
        if path not in state.m:
            state.m[path] = np.zeros_like(p.data)
            state.v[path] = np.zeros_like(p.data)
        m = state.m[path]
        v = state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        # in place: a fresh array per step lands in the heap the freed tape
        # left and pins it, which raised a training run's peak RSS
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def global_norm(grads):
    """The joint L2 norm of the `grads` arrays, summed in float64."""
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    return float(np.sqrt(total))


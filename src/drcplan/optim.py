"""Adam optimizer with bias correction, plus optional global-norm clipping."""

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
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    return float(np.sqrt(total))


def clip_by_global_norm(grads, max_norm):
    """Rescale all gradients so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm. Off by default in training configs; exposed
    as an optional knob.
    """
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for path in grads:
            grads[path] = grads[path] * scale
    return norm

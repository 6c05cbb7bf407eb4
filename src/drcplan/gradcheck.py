"""Finite-difference verification of analytic gradients.

Checks run in float64: central differences at eps = 1e-5 are compared
entry-by-entry against backpropagated gradients with a relative-error
tolerance (relative to the larger magnitude, floored to dodge 0/0).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .drc import DrcConfig, DrcNetwork
from .nn import compute_gradients
from .train import TrainConfig, compute_loss


def finite_difference_check(loss_fn, params, entries_per_param=0):
    """Max relative error between analytic and numeric gradients.

    `loss_fn` rebuilds the scalar loss graph on every call. With
    `entries_per_param` = 0 every entry of every trainable parameter is
    checked; otherwise a deterministic subsample per parameter. A trainable
    parameter the loss does not reach raises ValueError naming it, since its
    gradient could not be checked.
    """
    record = compute_gradients(loss_fn(), params)
    unreached = [path for path, _ in params.trainable_items() if path not in record]
    if unreached:
        raise ValueError(f"finite_difference_check: the loss does not reach {', '.join(unreached)}")
    eps = 1e-5

    def value():
        with ad.no_grad():
            return float(loss_fn().data)

    worst = 0.0
    for path in sorted(record):
        grad = record[path].reshape(-1)
        flat = params[path].data.reshape(-1)
        if entries_per_param and entries_per_param < flat.size:
            idx = np.linspace(0, flat.size - 1, entries_per_param).astype(int)
        else:
            idx = range(flat.size)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            up = value()
            flat[i] = orig - eps
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(grad[i]), 1e-6)
            worst = max(worst, abs(numeric - grad[i]) / denom)
    return worst


def tiny_drc_config(**overrides):
    kw = dict(depth=2, repeats=2, obs_shape=(4, 4, 1), action_count=5, encoder=((4, 3, 1),),
              hidden_channels=4, head_hidden=8, lstm_units=4)
    kw.update(overrides)
    return DrcConfig(**kw)


def drc_episode_loss(net, seed):
    """Closure computing an actor-critic loss on a synthetic 2-step episode.

    Observations, actions, advantages and value targets are fixed random
    numbers; the loss exercises the full network including BPTT across the
    episode, matching what the learner optimizes.
    """
    rng = np.random.default_rng(seed)
    cfg = net.config
    episode_len = 2
    obs = rng.uniform(0.0, 1.0, (episode_len, 1) + tuple(cfg.obs_shape))
    actions = rng.integers(0, cfg.action_count, size=episode_len)
    advantages = rng.normal(size=episode_len)
    targets = rng.normal(size=episode_len)
    train_cfg = TrainConfig()
    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]

    def loss_fn():
        state, logits_steps, values_steps = net.zero_state(batch=1), [], []
        for obs_t in obs:
            state, logits, value = net.forward(state, obs_t)
            logits_steps.append(logits)
            values_steps.append(value)
        loss, _ = compute_loss(logits_steps, values_steps, actions, advantages,
                               targets, head_weights, train_cfg)
        return loss

    return loss_fn


def full_drc_gradcheck(seed, entries_per_param=0, **overrides):
    """Finite-difference check of the whole DRC stack, `tiny_drc_config`
    with `overrides`; returns max rel error."""
    net = DrcNetwork.create(tiny_drc_config(**overrides), seed=seed, dtype=np.float64)
    loss_fn = drc_episode_loss(net, seed=seed + 1)
    return finite_difference_check(loss_fn, net.params, entries_per_param=entries_per_param)

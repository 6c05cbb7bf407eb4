"""Actor-critic training with off-policy corrected targets.

The pipeline follows a single-process multi-worker contract: K actors each
own an environment stream and a recurrent state, produce fixed-length
unrolls against the latest published parameters (snapshots refresh between
unrolls, never inside one), and push trajectories into a bounded FIFO queue;
a single learner consumes batches, replays the forward passes from each
trajectory's stored initial state under the current parameters, and applies
one Adam step per batch. Actors are stepped in lockstep so their forward
passes share one batched network call, and the whole schedule is
deterministic: a fixed (config, seed) pair reproduces training bit for bit.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .drc import concat_states, slice_state, state_from_arrays, zero_state
from .nn import compute_gradients
from .optim import AdamState, adam_step, clip_by_global_norm
from .vtrace import vtrace_targets


@dataclass
class TrainConfig:
    gamma: float = 0.97
    lam: float = 0.97
    unroll_length: int = 20
    batch_size: int = 32
    entropy_cost: float = 0.01
    baseline_cost: float = 0.5
    logit_l2_cost: float = 1e-3
    head_l2_cost: float = 1e-5
    logit_l2_on_value_head: bool = False  # L2 penalty applies to policy logits only
    lr_init: float = 4e-4
    anneal_horizon: float = 1.5e9  # environment steps until lr reaches 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-4
    rho_bar: float = 1.0
    c_bar: float = 1.0
    clip_grad_norm: float = 0.0  # 0 disables clipping
    num_actors: int = 4
    queue_capacity: int = 64
    checkpoint_every: int = 0  # updates between checkpoints, 0 disables
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.gamma <= 1 and 0 <= self.lam <= 1):
            raise ValueError("gamma must be in (0,1], lambda in [0,1]")
        for name in ("entropy_cost", "baseline_cost", "logit_l2_cost", "head_l2_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.queue_capacity < self.batch_size:
            raise ValueError("queue capacity must hold at least one batch")
        if self.num_actors > self.queue_capacity:
            # one round of unrolls would overflow the queue, so backpressure
            # would stop the first round and leave the learner an empty batch
            raise ValueError(f"num_actors={self.num_actors} exceeds queue_capacity="
                             f"{self.queue_capacity}: one round of unrolls must fit the queue")


def anneal_lr(step, config):
    """Linear decay from lr_init to 0 across the anneal horizon."""
    return config.lr_init * max(0.0, 1.0 - step / config.anneal_horizon)


@dataclass
class Trajectory:
    """One fixed-length unroll as recorded by an actor.

    `obs` holds unroll_length + 1 observations: the final entry is the state
    after the last transition and exists for bootstrapping. `initial_state`
    stores the recurrent state at the start of the unroll so the learner can
    replay the forward pass exactly under fresh parameters.
    """

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    behaviour_logits: np.ndarray
    bootstrap_value: float
    initial_state: list


def sample_action(logits, rng):
    """Draw from the softmax distribution over a single logits row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, len(p) - 1))


class ActorGroup:
    """K lockstep actors sharing batched forward passes."""

    def __init__(self, net, sources, unroll_length, seed):
        self.net = net
        self.sources = sources
        self.unroll_length = unroll_length
        self.k = len(sources)
        self.envs = [src.next_env() for src in sources]
        self.obs = np.stack([env.reset() for env in self.envs]).astype(np.float32)
        self.states = net.zero_state(batch=self.k)
        self.rngs = [np.random.default_rng([seed, i]) for i in range(self.k)]
        self.episode_return = np.zeros(self.k)
        self.episode_length = np.zeros(self.k, dtype=np.int64)
        self.finished = []  # (return, length, solved) tuples since last drain

    def drain_episode_stats(self):
        out = self.finished
        self.finished = []
        return out

    def run_unroll(self, net):
        """Collect one unroll per actor under the given parameter snapshot."""
        t_len, k = self.unroll_length, self.k
        obs_shape = self.obs.shape[1:]
        action_count = net.config.action_count
        obs_buf = np.empty((t_len + 1, k) + obs_shape, dtype=np.float32)
        actions = np.empty((t_len, k), dtype=np.int64)
        rewards = np.empty((t_len, k), dtype=np.float32)
        dones = np.zeros((t_len, k), dtype=bool)
        blogits = np.empty((t_len, k, action_count), dtype=np.float32)
        initial_states = [slice_state(self.states, i) for i in range(k)]

        with ad.no_grad():
            for t in range(t_len):
                obs_buf[t] = self.obs
                self.states, logits, _ = net.forward(self.states, Tensor(self.obs))
                blogits[t] = logits.data
                for i in range(k):
                    a = sample_action(logits.data[i], self.rngs[i])
                    actions[t, i] = a
                    res = self.envs[i].step(a)
                    rewards[t, i] = res.reward
                    self.episode_return[i] += res.reward
                    self.episode_length[i] += 1
                    if res.done:
                        dones[t, i] = True
                        self.finished.append((float(self.episode_return[i]),
                                              int(self.episode_length[i]), bool(res.solved)))
                        self.episode_return[i] = 0.0
                        self.episode_length[i] = 0
                        self.envs[i] = self.sources[i].next_env()
                        self.obs[i] = self.envs[i].reset()
                        for comp in self.states.c + self.states.h:
                            comp.data[i] = 0
                    else:
                        self.obs[i] = res.obs
            obs_buf[t_len] = self.obs
            _, _, boot_values = net.forward(self.states, Tensor(self.obs))

        return [
            Trajectory(
                obs=obs_buf[:, i].copy(),
                actions=actions[:, i].copy(),
                rewards=rewards[:, i].copy(),
                dones=dones[:, i].copy(),
                behaviour_logits=blogits[:, i].copy(),
                bootstrap_value=float(boot_values.data[i]),
                initial_state=initial_states[i].to_arrays(),
            )
            for i in range(k)
        ]


def _log_probs(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def compute_loss(logits_steps, values_steps, actions_flat, advantages_flat,
                 value_targets_flat, head_weights, config):
    """Composite actor-critic loss over flattened (T*B) step data.

    Terms: score-function policy loss weighted by fixed advantages, squared
    value error against fixed targets (baseline weight), an entropy bonus, a
    mean-squared penalty on the policy logits (optionally also the value
    output), and L2 on the output-head weight matrices. Returns the scalar
    loss tensor and per-term floats.
    """
    logits_all = ad.concat(logits_steps, axis=0) if len(logits_steps) > 1 else logits_steps[0]
    values_all = ad.concat(values_steps, axis=0) if len(values_steps) > 1 else values_steps[0]
    dt = logits_all.dtype

    lp = ad.log_softmax(logits_all)
    logp_a = ad.gather_last(lp, actions_flat)
    adv = ad.constant(advantages_flat, dtype=dt)
    policy_term = ad.mul(ad.constant(-1.0, dtype=dt), ad.mean_all(ad.mul(adv, logp_a)))

    err = ad.sub(values_all, ad.constant(value_targets_flat, dtype=dt))
    value_term = ad.mean_all(ad.square(err))

    probs = ad.exp(lp)
    neg_entropy = ad.mean_all(ad.sum_axis(ad.mul(probs, lp), -1))
    entropy = -neg_entropy.item()

    logit_term = ad.mean_all(ad.square(logits_all))
    if config.logit_l2_on_value_head:
        logit_term = ad.add(logit_term, ad.mean_all(ad.square(values_all)))

    loss = ad.add(policy_term, ad.mul(ad.constant(config.baseline_cost, dtype=dt), value_term))
    loss = ad.add(loss, ad.mul(ad.constant(config.entropy_cost, dtype=dt), neg_entropy))
    loss = ad.add(loss, ad.mul(ad.constant(config.logit_l2_cost, dtype=dt), logit_term))
    head_l2 = 0.0
    for w in head_weights:
        term = ad.sum_all(ad.square(w))
        head_l2 += term.item()
        loss = ad.add(loss, ad.mul(ad.constant(config.head_l2_cost, dtype=dt), term))

    parts = {
        "policy_loss": float(policy_term.item()),
        "value_loss": float(value_term.item()),
        "entropy": float(entropy),
        "logit_l2": float(logit_term.item()),
        "head_l2": float(head_l2),
    }
    return loss, parts


def learner_update(net, batch, adam, config, env_steps):
    """Replay a batch of trajectories, build targets, apply one Adam step."""
    t_len = batch[0].actions.shape[0]
    b = len(batch)
    obs = np.stack([tr.obs for tr in batch], axis=1)  # (T+1, B, ...)
    actions = np.stack([tr.actions for tr in batch], axis=1)
    rewards = np.stack([tr.rewards for tr in batch], axis=1)
    dones = np.stack([tr.dones for tr in batch], axis=1)
    behaviour_logits = np.stack([tr.behaviour_logits for tr in batch], axis=1)

    state = concat_states([state_from_arrays(net.config, tr.initial_state) for tr in batch])
    logits_steps, values_steps = [], []
    for t in range(t_len):
        state, logits, value = net.forward(state, Tensor(obs[t]))
        logits_steps.append(logits)
        values_steps.append(value)
        if dones[t].any():
            state = state.scale(1.0 - dones[t].astype(np.float32))
    with ad.no_grad():
        _, _, boot = net.forward(state, Tensor(obs[t_len]))

    values_np = np.stack([v.data for v in values_steps])  # (T, B)
    target_logp = np.take_along_axis(
        _log_probs(np.stack([l.data for l in logits_steps], dtype=np.float64)),
        actions[..., None], axis=-1)[..., 0]
    behaviour_logp = np.take_along_axis(
        _log_probs(behaviour_logits.astype(np.float64)), actions[..., None], axis=-1)[..., 0]

    vt = vtrace_targets(rewards, dones, behaviour_logp, target_logp, values_np,
                        boot.data, config.gamma, config.lam, config.rho_bar, config.c_bar)

    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]
    loss, parts = compute_loss(
        logits_steps, values_steps, actions.reshape(-1),
        vt.pg_advantages.reshape(-1), vt.vs.reshape(-1), head_weights, config)

    grads = compute_gradients(loss, net.params)
    grad_norm = clip_by_global_norm(grads, config.clip_grad_norm)
    lr = anneal_lr(env_steps, config)
    adam_step(net.params, grads, adam, lr)

    parts.update({
        "loss": float(loss.item()),
        "grad_norm": grad_norm,
        "lr": lr,
        "mean_rho": float(vt.rhos.mean()),
    })
    return parts


class Trainer:
    """Deterministic round-robin actor/learner loop with a bounded queue."""

    def __init__(self, net, source_factory, config, out_dir=None):
        self.net = net
        self.config = config
        self.out_dir = out_dir
        sources = [source_factory(config.seed, i) for i in range(config.num_actors)]
        self.actors = ActorGroup(net, sources, config.unroll_length, config.seed)
        self.queue = deque()
        self.adam = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
        self.env_steps = 0
        self.updates = 0

    def train_one_update(self):
        cfg = self.config
        frames = cfg.unroll_length * self.actors.k
        while len(self.queue) < cfg.batch_size:
            if len(self.queue) + self.actors.k > cfg.queue_capacity:
                break  # backpressure: let the learner drain before producing more
            for traj in self.actors.run_unroll(self.net):
                self.queue.append(traj)
            self.env_steps += frames
        batch = [self.queue.popleft() for _ in range(min(cfg.batch_size, len(self.queue)))]
        metrics = learner_update(self.net, batch, self.adam, cfg, self.env_steps)
        self.updates += 1

        episodes = self.actors.drain_episode_stats()
        solved = sum(1 for _, _, s in episodes if s)
        metrics.update({
            "update": self.updates,
            "env_steps": self.env_steps,
            "queue_depth": len(self.queue),
            "episodes": len(episodes),
            "solved": solved,
            "mean_return": float(np.mean([r for r, _, _ in episodes])) if episodes else None,
            "mean_length": float(np.mean([l for _, l, _ in episodes])) if episodes else None,
        })
        return metrics

    def run(self, max_env_steps, metrics_path=None, stop_fn=None, log_every=1):
        """Train until the frame budget is exhausted or `stop_fn` fires."""
        out = open(metrics_path, "w") if metrics_path else None
        try:
            while self.env_steps < max_env_steps:
                metrics = self.train_one_update()
                if out and self.updates % log_every == 0:
                    out.write(json.dumps(metrics) + "\n")
                    out.flush()
                if self.out_dir and self.config.checkpoint_every:
                    if self.updates % self.config.checkpoint_every == 0:
                        save_checkpoint(f"{self.out_dir}/ckpt_{self.updates:06d}.bin",
                                        self.net.params, self.adam)
                if stop_fn is not None and stop_fn(metrics):
                    break
        finally:
            if out:
                out.close()
        return self.updates

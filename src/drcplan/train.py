"""Actor-critic training with off-policy corrected targets.

The pipeline follows a single-process multi-worker contract: K actors each
own an environment stream and a recurrent state and produce fixed-length
unrolls against the latest parameters (they refresh between unrolls, never
inside one). `ActorGroup` steps the K actors in lockstep, one batched no-grad
forward per step, and writes each unroll as (T, K) arrays. The FIFO queue
keeps those arrays as column blocks; actors run only while it holds fewer
than B columns, so it never holds more than B + K - 1. The learner takes
its B columns in queue order, even when a batch spans two unrolls, replays
the forward passes from the stored initial state under the current
parameters, and applies one Adam step per batch. The replay runs the convs
that do not depend on the recurrent state once over all T*B rows and the
rest step by step, so its logits match the actors' bit for bit. Evaluation
drives the same stepper, where a row whose stream of episodes runs out
leaves the batch. The whole schedule is
deterministic: a fixed (config, seed) pair reproduces training bit for bit.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .drc import DrcState
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
    lr_init: float = 4e-4
    anneal_horizon: float = 1.5e9  # environment steps until lr reaches 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-4
    rho_bar: float = 1.0
    c_bar: float = 1.0
    clip_grad_norm: float = 0.0  # 0 disables clipping
    num_actors: int = 4
    checkpoint_every: int = 0  # updates between checkpoints, 0 disables
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.gamma <= 1 and 0 <= self.lam <= 1):
            raise ValueError("gamma must be in (0,1], lambda in [0,1]")
        for names, ok, rule in (
                (("num_actors", "batch_size", "unroll_length"), lambda v: v >= 1, ">= 1"),
                (("entropy_cost", "baseline_cost", "logit_l2_cost", "head_l2_cost", "lr_init",
                  "checkpoint_every", "clip_grad_norm"), lambda v: v >= 0, ">= 0"),
                (("anneal_horizon", "adam_eps"), lambda v: v > 0, "> 0"),
                (("adam_beta1", "adam_beta2"), lambda v: 0 <= v < 1, "in [0, 1)")):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


def anneal_lr(step, config):
    """Linear decay from lr_init to 0 across the anneal horizon."""
    return config.lr_init * max(0.0, 1.0 - step / config.anneal_horizon)


class Unroll(NamedTuple):
    """A (T, K) block, time-major: column j is row j's trajectory.

    Every field keeps its columns on axis 1, so blocks slice and join field
    by field. `obs` has a last entry, after the final step, to bootstrap
    from; the learner replays from the recurrent state `initial_c/h`.
    """

    obs: np.ndarray  # (T + 1, K, H, W, C)
    actions: np.ndarray  # (T, K)
    rewards: np.ndarray  # (T, K)
    dones: np.ndarray  # (T, K)
    behaviour_logits: np.ndarray  # (T, K, A)
    initial_c: np.ndarray  # (D, K, ...)
    initial_h: np.ndarray  # (D, K, ...)

    @property
    def width(self):
        return self.actions.shape[1]

    def columns(self, lo, hi=None):
        return Unroll(*(a[:, lo:hi] for a in self))


def take_columns(queue, count):
    """Pop the first `count` queued columns, in queue order, as one block.

    A batch may span several unrolls; a partly taken unroll stays at the
    head of the queue with its remaining columns.
    """
    parts = []
    while count and queue:
        head = queue.popleft()
        if head.width > count:
            queue.appendleft(head.columns(count))
            head = head.columns(0, count)
        parts.append(head)
        count -= head.width
    return Unroll(*(np.concatenate(field, axis=1) for field in zip(*parts)))


def sample_action(logits, rng):
    """Draw from the softmax distribution over a single logits row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, len(p) - 1))


class ActorGroup:
    """Rows of environments stepped in lockstep through one batched forward.

    Each row owns an environment, which keeps its episode's return and
    length, an RNG and its recurrent-state row. `next_episode(row)` returns
    `(env, rng, noop_steps, tag)` for the row's next episode, or None when
    its stream is empty; the first `noop_steps` actions of that episode are
    the environment's no-op. A row whose stream is empty leaves the batch, so
    no forward runs on finished episodes. Finished episodes are recorded as
    `(tag, solved, return, length)`.
    """

    def __init__(self, net, next_episode, rows, unroll_length=0, greedy=False):
        self.net = net
        self.next_episode = next_episode
        self.unroll_length = unroll_length
        self.greedy = greedy
        self.episodes = [next_episode(i) for i in range(rows)]
        self.k = rows
        self.obs = np.stack([env.reset() for env, _, _, _ in self.episodes]).astype(np.float32)
        self.state = net.zero_state(batch=self.k)
        self.finished = []

    def drain_episode_stats(self):
        out = self.finished
        self.finished = []
        return out

    def step(self):
        """Advance every row one env step; returns (logits, actions, rewards, dones)."""
        with ad.no_grad():
            self.state, logits, _ = self.net.forward(self.state, Tensor(self.obs))
        logits = logits.data
        actions, rewards, dones, emptied = [], [], [], []
        for i, (env, rng, noop_steps, tag) in enumerate(self.episodes):
            if env.steps < noop_steps:
                a = env.noop_action
            elif self.greedy:
                a = int(np.argmax(logits[i]))
            else:
                a = sample_action(logits[i], rng)
            res = env.step(a)
            actions.append(a)
            rewards.append(res.reward)
            dones.append(res.done)
            if not res.done:
                self.obs[i] = res.obs
                continue
            self.finished.append((tag, env.solved, env.episode_return, env.steps))
            self.episodes[i] = self.next_episode(i)
            if self.episodes[i] is None:
                emptied.append(i)
                continue
            self.obs[i] = self.episodes[i][0].reset()
            for comp in self.state.c + self.state.h:
                comp.data[i] = 0
        if emptied:  # those rows leave the batch
            keep = np.setdiff1d(np.arange(self.k), emptied)
            self.obs, self.state, self.k = self.obs[keep], self.state.rows(keep), len(keep)
            for i in reversed(emptied):
                del self.episodes[i]
        return logits, actions, rewards, dones

    def run_unroll(self):
        """Collect one (T, K) unroll under the current parameters."""
        initial_c = np.stack([t.data for t in self.state.c])
        initial_h = np.stack([t.data for t in self.state.h])
        obs = np.empty((self.unroll_length + 1,) + self.obs.shape, dtype=np.float32)
        steps = []
        for t in range(self.unroll_length):
            obs[t] = self.obs
            steps.append(self.step())
        obs[-1] = self.obs
        logits, actions, rewards, dones = (np.array(x) for x in zip(*steps))
        return Unroll(obs, actions, rewards.astype(np.float32), dones,
                      logits.astype(np.float32, copy=False), initial_c, initial_h)


def _action_log_probs(logits, actions):
    """Float64 log-probability of each taken action under (..., A) logits."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return np.take_along_axis(lp, actions[..., None], axis=-1)[..., 0]


def compute_loss(logits_steps, values_steps, actions_flat, advantages_flat,
                 value_targets_flat, head_weights, config):
    """Composite actor-critic loss over flattened (T*B) step data.

    Terms: score-function policy loss weighted by fixed advantages, squared
    value error against fixed targets (baseline weight), an entropy bonus, a
    mean-squared penalty on the policy logits, and L2 on the output-head
    weight matrices. Returns the scalar loss tensor and per-term floats.
    """
    logits_all = ad.concat(logits_steps, axis=0)
    values_all = ad.concat(values_steps, axis=0)
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


def replay(net, state, obs, dones):
    """Run the network from `state` over obs[0..T-1], T = len(dones), zeroing
    a row's state after a step that ends its episode, as the actors do.
    Returns (the state after step T, T logits, T values).

    What does not depend on the recurrent state (the encoder convs and each
    depth's observation conv) runs once over all T*B rows
    (`DrcNetwork.step_inputs`); the ticks, heads and dense layers run per
    step, so the logits and values match the actors' forward bit for bit.
    """
    t_len = len(dones)
    rows = obs[:t_len].reshape((-1,) + obs.shape[2:])
    logits_steps, values_steps = [], []
    for t, (i_t, terms) in enumerate(net.step_inputs(rows, t_len)):
        state, o_t = net.step_state(state, terms)
        logits, value = net.heads(o_t, i_t)
        logits_steps.append(logits)
        values_steps.append(value)
        if dones[t].any():
            state = state.scale(1.0 - dones[t].astype(np.float32))
    return state, logits_steps, values_steps


def learner_update(net, batch, adam, config, env_steps):
    """Replay a (T, B) `Unroll` batch, build targets, apply one Adam step."""
    state = DrcState(tuple(Tensor(a) for a in batch.initial_c),
                     tuple(Tensor(a) for a in batch.initial_h))
    state, logits_steps, values_steps = replay(net, state, batch.obs, batch.dones)
    with ad.no_grad():
        _, _, boot = net.forward(state, Tensor(batch.obs[-1]))

    values_np = np.stack([v.data for v in values_steps])  # (T, B)
    target_logp = _action_log_probs(np.stack([l.data for l in logits_steps]), batch.actions)
    behaviour_logp = _action_log_probs(batch.behaviour_logits, batch.actions)

    vt = vtrace_targets(batch.rewards, batch.dones, behaviour_logp, target_logp, values_np,
                        boot.data, config.gamma, config.lam, config.rho_bar, config.c_bar)

    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]
    loss, parts = compute_loss(
        logits_steps, values_steps, batch.actions.reshape(-1),
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
    """Deterministic round-robin actor/learner loop over a FIFO column queue."""

    def __init__(self, net, source_factory, config, out_dir=None):
        self.net = net
        self.config = config
        self.out_dir = out_dir
        sources = [source_factory(config.seed, i) for i in range(config.num_actors)]
        rngs = [np.random.default_rng([config.seed, i]) for i in range(config.num_actors)]
        self.actors = ActorGroup(net, lambda i: (sources[i].next_env(), rngs[i], 0, i),
                                 config.num_actors, config.unroll_length)
        self.queue = deque()  # Unroll column blocks, oldest first
        self.adam = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
        self.env_steps = 0
        self.updates = 0

    @property
    def queue_depth(self):
        """Columns waiting in the queue."""
        return sum(u.width for u in self.queue)

    def train_one_update(self):
        cfg = self.config
        while self.queue_depth < cfg.batch_size:
            self.queue.append(self.actors.run_unroll())
            self.env_steps += cfg.unroll_length * self.actors.k
        batch = take_columns(self.queue, cfg.batch_size)
        metrics = learner_update(self.net, batch, self.adam, cfg, self.env_steps)
        self.updates += 1

        episodes = self.actors.drain_episode_stats()
        solved = sum(1 for _, s, _, _ in episodes if s)
        metrics.update({
            "update": self.updates,
            "env_steps": self.env_steps,
            "queue_depth": self.queue_depth,
            "episodes": len(episodes),
            "solved": solved,
            "mean_return": float(np.mean([r for _, _, r, _ in episodes])) if episodes else None,
            "mean_length": float(np.mean([l for _, _, _, l in episodes])) if episodes else None,
        })
        return metrics

    def run(self, max_env_steps, metrics_path=None, log_every=1):
        """Train until the frame budget is exhausted, logging every `log_every` updates."""
        if log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {log_every}")
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
        finally:
            if out:
                out.close()
        return self.updates

"""Actor-critic training with off-policy corrected targets.

K actors each own an environment stream, an RNG and a recurrent-state row.
`ActorGroup` steps them in lockstep, one batched forward per step, and
writes each unroll as (T, K) arrays. The actors are the batch: K equals the
batch size B, so every learner batch is one fresh unroll, run on the
autodiff tape under the parameters the learner updates. The learner
backpropagates through that taped forward and applies one Adam step per
batch; the actors' state is then detached, so the next unroll's graph
starts from leaves (truncated BPTT).

The paper's IMPALA actors lag the learner, and V-trace corrects for the
lag. This synchronous loop has none: the actors act on the logits the
learner trains on, so the learner passes those one policy's log-probs to
`vtrace_targets` as both the behaviour and the target policy. Every
importance weight rho is then 1 and V-trace reduces to lambda-returns;
`vtrace_targets` stays the estimator all the same, as in the paper.

Evaluation drives the same stepper without a tape, where a row whose stream
of episodes runs out leaves the batch. The whole schedule is deterministic:
a fixed (config, seed) pair reproduces training bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .nn import compute_gradients
from .optim import AdamState, adam_step, global_norm
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
    num_actors: int = 32  # the actors are the batch: must equal batch_size
    checkpoint_every: int = 0  # updates between checkpoints, 0 disables
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.gamma <= 1 and 0 <= self.lam <= 1):
            raise ValueError("gamma must be in (0,1], lambda in [0,1]")
        for names, ok, rule in (
                (("num_actors", "batch_size", "unroll_length"), lambda v: v >= 1, ">= 1"),
                (("entropy_cost", "baseline_cost", "logit_l2_cost", "head_l2_cost", "lr_init",
                  "checkpoint_every", "seed"), lambda v: v >= 0, ">= 0"),
                (("anneal_horizon", "adam_eps"), lambda v: v > 0, "> 0"),
                (("adam_beta1", "adam_beta2"), lambda v: 0 <= v < 1, "in [0, 1)")):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.num_actors != self.batch_size:
            raise ValueError(f"num_actors must equal batch_size, got num_actors {self.num_actors} "
                             f"and batch_size {self.batch_size}")


def anneal_lr(step, config):
    """Linear decay from lr_init to 0 across the anneal horizon."""
    return config.lr_init * max(0.0, 1.0 - step / config.anneal_horizon)


class Unroll(NamedTuple):
    """A (T, K) block, time-major: column j is row j's trajectory. `obs`
    has a last entry, after the final step, to bootstrap from."""

    obs: np.ndarray  # (T + 1, K, H, W, C)
    actions: np.ndarray  # (T, K)
    rewards: np.ndarray  # (T, K)
    dones: np.ndarray  # (T, K)


def sample_action(logits, rng):
    """Draw from the softmax distribution over a single logits row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), len(p) - 1)


class ActorGroup:
    """Rows of environments stepped in lockstep through one batched forward.

    Each row owns an environment, which is one episode and keeps its return
    and length, an RNG and its recurrent-state row. `next_episode(row)`
    returns `(env, rng, noop_steps, tag)` for the row's next episode, a
    freshly built env, or None when its stream is empty; the first
    `noop_steps` actions of that episode are the environment's no-op. A
    row reads its env's `render()` at the episode's start and after each
    step the episode goes on from, and draws no other frame. A row whose
    stream is empty leaves the batch, so no forward runs on finished
    episodes. Finished episodes are recorded as `(tag, solved, return,
    length)`.

    The forward runs in the caller's grad mode: evaluation runs it under
    `autodiff.no_grad`; training records it on the autodiff tape, and
    `run_unroll` hands it to the learner with the unroll. A row's state is
    reset to zero after the step that ends its episode. The state is
    detached to leaves after each unroll, so each unroll's graph starts from
    the state the previous one ended in (truncated BPTT). Rows cannot leave
    a taped batch.
    """

    def __init__(self, net, next_episode, rows, unroll_length=0, greedy=False):
        self.net = net
        self.next_episode = next_episode
        self.unroll_length = unroll_length
        self.greedy = greedy
        self.episodes = [next_episode(i) for i in range(rows)]
        self.k = rows
        self.obs = np.stack([env.render() for env, _, _, _ in self.episodes]).astype(np.float32)
        self.state = net.zero_state(batch=self.k)
        self.finished = []

    def drain_episode_stats(self):
        out = self.finished
        self.finished = []
        return out

    def step(self, obs):
        """Advance every row one env step from `obs`, the rows' current
        observations: `self.obs`, or under a tape a copy of it that is never
        written. Returns (logits, values, actions, rewards, dones), the
        logits and values as the forward's tensors."""
        self.state, logits, values = self.net.forward(self.state, Tensor(obs))
        actions, rewards, dones, emptied = [], [], [], []
        for i, (env, rng, noop_steps, tag) in enumerate(self.episodes):
            if env.steps < noop_steps:
                a = env.noop_action
            elif self.greedy:
                a = int(np.argmax(logits.data[i]))
            else:
                a = sample_action(logits.data[i], rng)
            res = env.step(a)
            actions.append(a)
            rewards.append(res.reward)
            dones.append(res.done)
            if not res.done:
                self.obs[i] = env.render()
                continue
            self.finished.append((tag, env.solved, env.episode_return, env.steps))
            self.episodes[i] = self.next_episode(i)
            if self.episodes[i] is None:
                emptied.append(i)
                continue
            self.obs[i] = self.episodes[i][0].render()
        if any(dones):  # a new episode starts from the zero state
            self.state = self.state.scale(1.0 - np.array(dones, dtype=np.float32))
        if emptied:  # those rows leave the batch
            if self.state.h[0].requires_grad:
                raise RuntimeError("rows cannot leave a batch whose forward is taped")
            keep = np.setdiff1d(np.arange(self.k), emptied)
            self.obs, self.state, self.k = self.obs[keep], self.state.rows(keep), len(keep)
            for i in reversed(emptied):
                del self.episodes[i]
        return logits, values, actions, rewards, dones

    def run_unroll(self):
        """Collect one (T, K) unroll under the current parameters.

        Returns (the `Unroll`, its forward): the state after step T, and
        the T logits and T values of the per-step `DrcNetwork.forward`, on
        the autodiff tape unless run under `autodiff.no_grad`.
        """
        obs = np.empty((self.unroll_length + 1,) + self.obs.shape, dtype=np.float32)
        steps = []
        for t in range(self.unroll_length):
            obs[t] = self.obs
            steps.append(self.step(obs[t]))  # the tape may hold obs[t]; self.obs is rewritten
        obs[-1] = self.obs
        logits, values, actions, rewards, dones = zip(*steps)
        unroll = Unroll(obs, np.array(actions), np.array(rewards).astype(np.float32), np.array(dones))
        forward = (self.state, logits, values)
        self.state = self.state.rows(slice(None))  # leaves: the next unroll's graph starts here
        return unroll, forward


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
    mean-squared penalty on the policy logits, all four one
    `autodiff.actor_critic_loss` node, and L2 on the output-head weight
    matrices. Returns the scalar loss tensor and per-term floats.
    """
    costs = (config.baseline_cost, config.entropy_cost, config.logit_l2_cost)
    loss, parts = ad.actor_critic_loss(logits_steps, values_steps, actions_flat, advantages_flat,
                                       value_targets_flat, costs)
    head_l2 = 0.0
    for w in head_weights:
        term = ad.sum_all(ad.square(w))
        head_l2 += term.item()
        loss = ad.add(loss, ad.mul(ad.constant(config.head_l2_cost, dtype=loss.dtype), term))
    parts["head_l2"] = float(head_l2)
    return loss, parts


def learner_update(net, batch, forward, adam, config, env_steps):
    """Build targets for a (T, B) `Unroll` batch, backpropagate the loss
    through its `forward` (the actors' taped forward of that unroll, as
    `ActorGroup.run_unroll` returns it) and apply one Adam step."""
    state, logits_steps, values_steps = forward
    with ad.no_grad():
        _, _, boot = net.forward(state, Tensor(batch.obs[-1]))

    values_np = np.stack([v.data for v in values_steps])  # (T, B)
    logp = _action_log_probs(np.stack([l.data for l in logits_steps]), batch.actions)
    # the actors acted on these logits: one policy is behaviour and target
    vt = vtrace_targets(batch.rewards, batch.dones, logp, logp, values_np, boot.data,
                        config.gamma, config.lam)

    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]
    loss, parts = compute_loss(
        logits_steps, values_steps, batch.actions.reshape(-1),
        vt.pg_advantages.reshape(-1), vt.vs.reshape(-1), head_weights, config)

    grads = compute_gradients(loss, net.params)
    lr = anneal_lr(env_steps, config)
    adam_step(net.params, grads, adam, lr)

    parts.update({
        "loss": float(loss.item()),
        "grad_norm": global_norm(grads),
        "lr": lr,
        "mean_rho": float(vt.rhos.mean()),
    })
    return parts


class Trainer:
    """Deterministic synchronous actor/learner loop: each update trains on
    one fresh (T, B) unroll of the B actors."""

    def __init__(self, net, source_factory, config, out_dir=None):
        self.net = net
        self.config = config
        self.out_dir = out_dir
        sources = [source_factory(config.seed, i) for i in range(config.num_actors)]
        rngs = [np.random.default_rng([config.seed, i]) for i in range(config.num_actors)]
        self.actors = ActorGroup(net, lambda i: (sources[i].next_env(), rngs[i], 0, i),
                                 config.num_actors, config.unroll_length)
        self.adam = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
        self.env_steps = 0
        self.updates = 0

    def train_one_update(self):
        batch, forward = self.actors.run_unroll()
        self.env_steps += batch.actions.size
        metrics = learner_update(self.net, batch, forward, self.adam, self.config, self.env_steps)
        self.updates += 1

        episodes = self.actors.drain_episode_stats()
        solved = sum(1 for _, s, _, _ in episodes if s)
        metrics.update({
            "update": self.updates,
            "env_steps": self.env_steps,
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

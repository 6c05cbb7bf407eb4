"""Benchmark workloads: each is set up from a seed and then driven in a closed loop.

A workload exposes `prepare(seed)` (untimed input generation), `setup(seed)`
(repeated and timed as set-up), `op()` (one closed-loop operation, timed) and
`check()` (correctness problems found so far). Every workload reports two
rates: `work` units over the time spent on them, and `items` over theirs.

    workload           work (per s)                 items (per s)
    train_sokoban      env frames trained           learner updates
    train_gridworld12  env frames trained           learner updates
    eval_sokoban       env steps evaluated          episodes finished
    levelgen           levels verified              levels certified
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from drcplan import autodiff as ad
from drcplan import boxoban, checkpoint
from drcplan.autodiff import Tensor
from drcplan.drc import DrcNetwork, preset_config, zero_state
from drcplan.envs.sokoban_env import SokobanEnv
from drcplan.evaluate import thinking_steps_eval
from drcplan.nn import ParameterSet
from drcplan.sources import source_factory
from drcplan.train import Trainer, TrainConfig

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "boxoban-4box-seed1901.txt")
FIXTURE_SHA256 = "a32ecee3fa4f88a3264fb8c2b1c76d8f8a29d620d6bee2651dcfb337dff3e417"
VERIFY_BUDGET = 200000  # the node budget of `drcplan verify-levels`


def derive_seed(seed, *tags):
    """A well-separated 56-bit seed for (workload seed, tags...)."""
    # the tag count keeps (s, 4) and (s, 4, 0) apart: SeedSequence ignores trailing zeros
    state = np.random.SeedSequence([seed, len(tags), *tags]).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(8))


def load_fixture():
    """The committed 4-box level file, checked against its recorded hash."""
    with open(FIXTURE, "rb") as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != FIXTURE_SHA256:
        raise ValueError(f"{FIXTURE}: sha256 {digest} does not match the recorded {FIXTURE_SHA256}")
    return boxoban.parse_levels(raw.decode("ascii"), tier="fixture", split="bench")


@dataclass
class Op:
    """Outcome of one closed-loop operation."""

    work: float
    work_s: float
    items: float
    items_s: float
    attempted: int
    failed: int = 0
    wall_s: float = 0.0


class TrainWorkload:
    """`Trainer` with lockstep actors; one op is one unroll plus one learner update."""

    labels = (("train_frames_per_s", "frames/s"), ("train_updates_per_s", "updates/s"))

    def __init__(self, game, depth, repeats, actors=8, batch=8, unroll=20, setup_reps=3):
        self.game, self.depth, self.repeats = game, depth, repeats
        self.actors, self.batch, self.unroll = actors, batch, unroll
        self.setup_reps = setup_reps
        self.trainer = None
        self.problems = []

    def prepare(self, seed):
        pass

    def setup(self, seed):
        levels = load_fixture() if self.game == "sokoban" else None
        net = DrcNetwork.create(preset_config(self.game, self.depth, self.repeats),
                                seed=derive_seed(seed, 1))
        config = TrainConfig(num_actors=self.actors, batch_size=self.batch,
                             unroll_length=self.unroll, seed=derive_seed(seed, 2) % 2**31)
        self.trainer = Trainer(net, source_factory(self.game, levels=levels), config)
        self._update()  # warm-up: the first update pays one-off allocation costs

    def _update(self):
        metrics = self.trainer.train_one_update()
        loss, rho = metrics["loss"], metrics["mean_rho"]
        if not np.isfinite(loss):
            self.problems.append(f"update {self.trainer.updates}: loss {loss}")
        # actors and learner share parameters, so every importance weight is 1
        if abs(rho - 1.0) > 1e-5:
            self.problems.append(f"update {self.trainer.updates}: mean_rho {rho!r} != 1")

    def op(self):
        start = time.perf_counter()
        try:
            self._update()
            failed = 0
        except FloatingPointError as e:
            self.problems.append(f"update {self.trainer.updates + 1}: {e}")
            failed = 1
        elapsed = time.perf_counter() - start
        frames = 0 if failed else self.batch * self.unroll
        return Op(frames, elapsed, 1 - failed, elapsed, attempted=1, failed=failed)

    def check(self):
        return self.problems

    def close(self):
        pass


def _probe_forward(net, obs):
    with ad.no_grad():
        state = zero_state(net.config, batch=obs.shape[0], dtype=net.dtype)
        _, logits, value = net.forward(state, Tensor(obs.astype(net.dtype)))
    return logits.data.astype(np.float64), value.data.astype(np.float64)


class EvalWorkload:
    """`thinking_steps_eval` for k = 0..k_max on fixture levels, with no gradients.

    One op evaluates `batch` levels picked by the seed. Their step limits are
    a seeded permutation of `batch` evenly spaced limits in [10, 120], so the
    number of useful env steps per op (and the batch occupancy) is the same
    for every seed while an untrained network solves nothing.
    """

    labels = (("eval_steps_per_s", "steps/s"), ("eval_episodes_per_s", "episodes/s"))

    def __init__(self, batch=8, k_max=1, limits=(10, 120), setup_reps=3):
        self.batch, self.k_max, self.limits = batch, k_max, limits
        self.setup_reps = setup_reps
        self.problems = []
        self.ops = 0

    def prepare(self, seed):
        # stand-in weights: the repository holds no trained network
        self.seed = seed
        self.config = preset_config("sokoban", 3, 3)
        self.tmp = tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE)
        self.params_path = os.path.join(self.tmp.name, "params.bin")
        net = DrcNetwork.create(self.config, seed=derive_seed(seed, 1))
        checkpoint.save_checkpoint(self.params_path, net.params)

    def setup(self, seed):
        self.levels = load_fixture().levels
        params, _ = checkpoint.load_checkpoint(self.params_path)
        self.net = DrcNetwork(self.config, params)
        obs = np.stack([SokobanEnv(lv).render() for lv in self.levels[:self.batch]])
        _probe_forward(self.net, obs)  # warm-up forward pass

    def op(self):
        rng = np.random.default_rng(derive_seed(self.seed, 3, self.ops))
        self.ops += 1
        picks = rng.choice(len(self.levels), size=self.batch, replace=False)
        lo, hi = self.limits
        limits = rng.permutation(np.linspace(lo, hi, self.batch).round().astype(int))
        envs = []

        def factory(level, limit):
            def make():
                env = SokobanEnv(level, step_limit=int(limit))
                envs.append(env)
                return env
            return make

        factories = [factory(self.levels[i], lim) for i, lim in zip(picks, limits)]
        start = time.perf_counter()
        curve = thinking_steps_eval(self.net, factories, k_max=self.k_max, mode="sample",
                                    seed=int(rng.integers(2**31)), batch_size=self.batch)
        elapsed = time.perf_counter() - start
        episodes = self.batch * (self.k_max + 1)
        steps = sum(env.steps for env in envs)
        self._check_op(curve, envs, episodes, steps)
        return Op(steps, elapsed, episodes, elapsed, attempted=episodes,
                  failed=episodes - sum(env.done for env in envs))

    def _check_op(self, curve, envs, episodes, steps):
        if len(envs) != episodes or sorted(curve) != list(range(self.k_max + 1)):
            self.problems.append(f"op {self.ops}: {len(envs)} envs for {episodes} episodes")
        for env in envs:
            if not env.done or env.steps > env.step_limit:
                self.problems.append(f"op {self.ops}: episode of {env.steps} steps, "
                                     f"limit {env.step_limit}, done={env.done}")
        reported = sum(r.episodes * r.mean_length for r in curve.values())
        if any(r.episodes != self.batch for r in curve.values()) or abs(reported - steps) > 1e-6 * steps:
            self.problems.append(f"op {self.ops}: reports cover {reported} steps, envs ran {steps}")

    def check(self):
        # a float32 forward of a fixed probe batch against float64 arithmetic
        params64 = ParameterSet()
        for path, t in self.net.params.items():
            params64.add(path, t.data.astype(np.float64), trainable=self.net.params.is_trainable(path))
        obs = np.stack([SokobanEnv(lv).render() for lv in self.levels[:4]])
        got = _probe_forward(self.net, obs)
        want = _probe_forward(DrcNetwork(self.config, params64), obs)
        for name, a, b in zip(("logits", "value"), got, want):
            rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)
            if rel > 1e-4:
                self.problems.append(f"float32 {name} differ from float64 by {rel:.2e} relative")
        return self.problems

    def close(self):
        self.tmp.cleanup()


class LevelgenWorkload:
    """Certified level generation and a verify pass, over a fixed pool of requests.

    One op is one pass over the pool: `generate_level_set` for every request in
    a seeded order, then `solve_bfs` at the CLI's 200k budget and
    `replay_solution` on every emitted level. Level costs vary about as much
    as their mean, so the timed pool is the same for every workload seed: a
    run that drew new levels would see too few of them to give a rate that
    holds across seeds. After the timed loop, `probe` levels new to each
    workload seed are certified and verified the same way.
    """

    labels = (("verify_levels_per_s", "levels/s"), ("certified_levels_per_s", "levels/s"))

    def __init__(self, pool=((4, 5, 2), (5, 2, 1)), probe=2, setup_reps=3):
        # pool: (boxes, requests, levels per request); level seeds are well
        # separated, since level i of a set is seeded with base ^ i
        self.requests = [(boxes, derive_seed(1901, boxes, r), count)
                         for boxes, requests, count in pool for r in range(requests)]
        self.probe = probe
        self.setup_reps = setup_reps
        self.problems = []
        self.pool_hashes = set()
        self.probe_hashes = set()
        self.ops = 0

    def prepare(self, seed):
        self.seed = seed

    def setup(self, seed):
        # warm-up with fixed work: solve and replay the first fixture level
        self._verify(load_fixture().levels[:1], set())

    def _verify(self, levels, hashes):
        for level in levels:
            res = boxoban.solve_bfs(level, node_budget=VERIFY_BUDGET)
            if res.status != boxoban.SOLVED or not boxoban.replay_solution(level, res.solution.actions):
                self.problems.append(f"op {self.ops}: emitted level fails verification ({res.status})")
            h = boxoban.level_hash(level)
            if h in hashes:
                self.problems.append(f"op {self.ops}: duplicate level hash {h:#x}")
            hashes.add(h)

    def op(self):
        order = np.random.default_rng(derive_seed(self.seed, 4, self.ops)).permutation(len(self.requests))
        self.ops += 1
        levels, failed = [], 0
        start = time.perf_counter()
        for i in order:
            boxes, base, count = self.requests[i]
            try:
                levels += boxoban.generate_level_set(base, count, boxes=boxes).levels
            except RuntimeError as e:
                self.problems.append(f"op {self.ops}: {e}")
                failed += count
        generated = time.perf_counter()
        hashes = set()
        self._verify(levels, hashes)
        self.pool_hashes |= hashes
        verified = time.perf_counter()
        n = len(levels)
        return Op(n, verified - generated, n, generated - start, attempted=n + failed, failed=failed)

    def check(self):
        # levels new to this workload seed: certified and verified, untimed
        fresh = boxoban.generate_level_set(derive_seed(self.seed, 5), self.probe, boxes=4)
        self._verify(fresh.levels, self.probe_hashes)
        if self.probe_hashes & self.pool_hashes:
            self.problems.append("a level new to this seed is also in the pool")
        return self.problems

    def close(self):
        pass


WORKLOADS = {
    "train_sokoban": lambda: TrainWorkload("sokoban", 3, 3, setup_reps=2),
    "train_gridworld12": lambda: TrainWorkload("gridworld12", 1, 1),
    "eval_sokoban": EvalWorkload,
    "levelgen": LevelgenWorkload,
}

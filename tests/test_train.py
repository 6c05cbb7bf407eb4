"""Trainer configuration checks and the actor-critic loss terms."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from drcplan import autodiff as ad
from drcplan import cli, train
from drcplan.autodiff import Tensor
from drcplan.boxoban import generate_level_set
from drcplan.checkpoint import load_checkpoint
from drcplan.drc import MEMORY_KINDS, DrcNetwork, preset_config
from drcplan.gradcheck import finite_difference_check, tiny_drc_config
from drcplan.nn import compute_gradients
from drcplan.sources import source_factory
from drcplan.train import TrainConfig, Trainer, compute_loss

from oracles import replay_reference


@pytest.mark.parametrize("field, value, message", [
    *(pytest.param(name, 0, f"{name} must be >= 1, got 0", id=name)
      for name in ("num_actors", "batch_size", "unroll_length")),
    pytest.param("lr_init", -0.001, "lr_init must be >= 0, got -0.001", id="lr_init"),
    pytest.param("anneal_horizon", 0, "anneal_horizon must be > 0, got 0", id="anneal_horizon"),
    pytest.param("adam_beta1", 1, "adam_beta1 must be in [0, 1), got 1", id="adam_beta1"),
    pytest.param("adam_beta2", 1, "adam_beta2 must be in [0, 1), got 1", id="adam_beta2"),
    pytest.param("adam_beta2", -0.5, "adam_beta2 must be in [0, 1), got -0.5",
                 id="adam_beta2_negative"),
    pytest.param("adam_eps", 0, "adam_eps must be > 0, got 0", id="adam_eps"),
    pytest.param("checkpoint_every", -1, "checkpoint_every must be >= 0, got -1",
                 id="checkpoint_every"),
    pytest.param("clip_grad_norm", -1, "clip_grad_norm must be >= 0, got -1", id="clip_grad_norm"),
    pytest.param("seed", -1, "seed must be >= 0, got -1", id="seed"),
])
def test_config_rejects_counts_below_one(field, value, message):
    """Counts below one and rates, horizons and Adam constants out of range
    fail when the config is built, not in the first update."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value})


def test_config_rejects_num_actors_that_differ_from_batch_size():
    """The actors are the batch, so a config whose counts differ fails when
    it is built, naming both."""
    message = "num_actors must equal batch_size, got num_actors 4 and batch_size 32"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(num_actors=4, batch_size=32)


def test_actors_filling_the_queue_exactly_still_train():
    """One update trains on one round of unrolls: K = B actors, T steps."""
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)
    config = TrainConfig(num_actors=4, batch_size=4, unroll_length=3)
    metrics = Trainer(net, source_factory("gridworld12"), config).train_one_update()
    assert metrics["env_steps"] == 12
    assert np.isfinite(metrics["loss"])


def test_compute_loss_policy_term_matches_numpy():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 5))
    values = rng.normal(size=6)
    actions = rng.integers(0, 5, size=6)
    adv = rng.normal(size=6)
    targets = rng.normal(size=6)
    config = TrainConfig(entropy_cost=0.0, baseline_cost=0.0, logit_l2_cost=0.0, head_l2_cost=0.0)
    loss, parts = compute_loss([Tensor(logits, requires_grad=True)], [Tensor(values)],
                               actions, adv, targets, [], config)
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    want = -np.mean(adv * logp[np.arange(6), actions])
    assert parts["policy_loss"] == pytest.approx(want, rel=1e-12)
    # with every other cost at 0, the loss is the policy term alone
    assert loss.item() == pytest.approx(want, rel=1e-12)


GRIDWORLD_RUN = """\
game = gridworld12
drc.depth = 1
drc.repeats = 1
train.num_actors = {actors}
train.batch_size = {batch}
train.unroll_length = 5
"""


def _cli_train(tmp_path, name, batch, extra="", env_steps=600, flags=()):
    config = tmp_path / f"{name}.cfg"
    config.write_text(GRIDWORLD_RUN.format(batch=batch, actors=batch) + extra)
    out = tmp_path / name
    cli.main(["train", "--config", str(config), "--seed", "3", "--env-steps", str(env_steps),
              "--out", str(out), *flags])
    return out


def test_cli_train_rejects_log_every_below_one(tmp_path, monkeypatch, capsys):
    """`--log-every 0` fails before the first update and opens no metrics file."""
    monkeypatch.setattr(Trainer, "train_one_update", lambda self: pytest.fail("an update ran"))
    with pytest.raises(SystemExit) as stop:
        _cli_train(tmp_path, "run", batch=4, flags=["--log-every", "0"])
    assert stop.value.code == 2
    assert "drcplan train: error: argument --log-every: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def test_cli_train_rejects_actors_that_differ_from_the_batch(tmp_path, monkeypatch, capsys):
    """3 actors at batch 4 fail as one error line before the first update."""
    monkeypatch.setattr(Trainer, "train_one_update", lambda self: pytest.fail("an update ran"))
    config = tmp_path / "run.cfg"
    config.write_text(GRIDWORLD_RUN.format(actors=3, batch=4))
    with pytest.raises(SystemExit) as stop:
        cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert stop.value.code == 2
    assert capsys.readouterr().err == ("drcplan train: error: num_actors must equal batch_size, "
                                       "got num_actors 3 and batch_size 4\n")


def test_cli_train_is_bit_exact_across_runs(tmp_path):
    """Two runs of one (config, seed) pair write the same bytes."""
    a = _cli_train(tmp_path, "a", batch=4)
    b = _cli_train(tmp_path, "b", batch=4)
    for name in ("metrics.jsonl", "params.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_learner_replays_the_actor_forward_exactly(tmp_path, kind):
    """Every batch is one unroll taken under the parameters the learner
    updates, and the behaviour logits the actors store are the logits the
    learner trains on, so every importance weight is exactly 1, also across
    episode ends inside an unroll."""
    for batch, updates in ((3, 40), (8, 15)):
        out = _cli_train(tmp_path, f"run{batch}", batch=batch, extra=f"drc.memory_kind = {kind}\n")
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == updates
        assert all(row["mean_rho"] == 1.0 for row in rows), batch
        assert sum(row["episodes"] for row in rows) > 0


def _taped_batch(kind, dtype, rows=3, t_len=4):
    """A gridworld12 DRC(2, 2) network in `dtype` and the second unroll its
    taped actors ran, so the batch starts from a state that is not zero.
    Episodes last at most 3 steps, so every row ends one inside the batch.
    Returns the network, the batch, the actors' forward and the forward
    `replay_reference` computes from the batch and the actors' start state."""
    net = DrcNetwork.create(preset_config("gridworld12", 2, 2, memory_kind=kind), seed=1, dtype=dtype)
    sources = [source_factory("gridworld12", step_limit=3)(5, i) for i in range(rows)]
    rngs = [np.random.default_rng(i) for i in range(rows)]
    actors = train.ActorGroup(net, lambda i: (sources[i].next_env(), rngs[i], 0, i), rows, t_len)
    actors.run_unroll()
    start = actors.state
    batch, taped = actors.run_unroll()
    assert batch.dones[:-1].any()
    return net, batch, taped, replay_reference(net, start, batch.obs[:-1], batch.dones)


def _loss_and_gradients(net, batch, forward):
    advantages, targets = np.random.default_rng(0).normal(size=(2, batch.actions.size))
    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]
    _, logits, values = forward
    loss, _ = compute_loss(logits, values, batch.actions.reshape(-1), advantages, targets,
                           head_weights, TrainConfig())
    return loss, compute_gradients(loss, net.params)


def _forward_tensors(forward):
    """The final state, logits and values of a forward, in order."""
    state, logits, values = forward
    return [*state.c, *state.h, *logits, *values]


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_the_actor_tape_and_the_replay_agree(kind):
    """The forward the actors record on the tape is one `forward` per step
    from their start state, reset after each episode end: float32 logits,
    values, final state and loss are bit-identical. The gradients agree to
    1e-5 in float32 and 1e-12 in float64 (relative)."""
    rel = lambda a, b: float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-300)
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        net, batch, taped, replayed = _taped_batch(kind, dtype)
        np.testing.assert_array_equal(batch.behaviour_logits, np.stack([l.data for l in taped[1]]))
        (loss, grads), (want_loss, want_grads) = (_loss_and_gradients(net, batch, f)
                                                  for f in (taped, replayed))
        pairs = [(got.data, want.data)
                 for got, want in zip(_forward_tensors(taped), _forward_tensors(replayed), strict=True)]
        assert all(got.dtype == want.dtype == dtype for got, want in pairs)
        if dtype == np.float32:
            for got, want in pairs:
                np.testing.assert_array_equal(got, want)
            assert loss.item() == want_loss.item()
        assert sorted(grads) == sorted(want_grads) == sorted(net.params.paths())
        pairs += [(loss.data, want_loss.data)] + [(grads[p], want_grads[p]) for p in grads]
        assert max(rel(got, want) for got, want in pairs) < tol, dtype


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_the_actor_tape_matches_the_replay_as_training_moves_the_parameters(monkeypatch, kind):
    """At every update of an 8-actor, batch 8 run, while Adam moves the
    parameters, the learner gets one (T, B) batch, and the forward the
    actors recorded is bit for bit `replay_reference` of it from their start
    state under the parameters the learner updates, across episode ends.
    After every update the actors' state holds leaves, so no update's graph
    reaches into the next."""
    ends, starts, real = [], [], train.learner_update

    def spy(net, batch, forward, *rest):
        assert batch.obs.shape[:2] == (6, 8) and batch.behaviour_logits.shape[:2] == (5, 8)
        assert batch.actions.shape == batch.rewards.shape == batch.dones.shape == (5, 8)
        with ad.no_grad():
            replayed = replay_reference(net, starts[-1], batch.obs[:-1], batch.dones)
        np.testing.assert_array_equal(batch.behaviour_logits, np.stack([l.data for l in forward[1]]))
        for got, want in zip(_forward_tensors(forward), _forward_tensors(replayed), strict=True):
            np.testing.assert_array_equal(got.data, want.data)
        ends.append(bool(batch.dones.any()))
        return real(net, batch, forward, *rest)

    monkeypatch.setattr(train, "learner_update", spy)
    net = DrcNetwork.create(preset_config("gridworld12", 2, 2, memory_kind=kind), seed=1)
    trainer = Trainer(net, source_factory("gridworld12", step_limit=4),
                      TrainConfig(num_actors=8, batch_size=8, unroll_length=5, lr_init=1e-2))
    before = net.params["heads.policy.w"].data.copy()
    for _ in range(6):
        starts.append(trainer.actors.state)
        assert trainer.train_one_update()["mean_rho"] == 1.0
        for t in trainer.actors.state.c + trainer.actors.state.h:
            assert not t.requires_grad and t._parents == ()
    assert len(ends) == 6 and all(ends)
    assert not np.array_equal(net.params["heads.policy.w"].data, before)


def test_rows_leave_the_batch_only_without_a_tape():
    """A row whose stream runs out leaves the batch under `no_grad`, as
    evaluation needs. Dropping it from a taped state would cut the graph
    mid-unroll, so under the tape the step raises instead."""
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)

    def group():
        source = source_factory("gridworld12", step_limit=1)(0, 0)
        streams = [iter([source.next_env()]), iter([source.next_env(), source.next_env()])]

        def next_episode(row):
            env = next(streams[row], None)
            return None if env is None else (env, np.random.default_rng(row), 0, row)

        return train.ActorGroup(net, next_episode, 2)

    rows = group()
    with ad.no_grad():
        rows.step(rows.obs)
    assert rows.k == 1 and rows.obs.shape[0] == rows.state.h[0].shape[0] == 1
    rows = group()
    with pytest.raises(RuntimeError, match="taped"):
        rows.step(rows.obs)


@pytest.mark.parametrize("actors", [2, 3])
def test_float64_training_keeps_every_importance_weight_at_one(actors):
    """The actors keep their behaviour logits in the network's dtype, so a
    float64 run whose batches are one fresh unroll each reads mean_rho 1
    exactly."""
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0, dtype=np.float64)
    trainer = Trainer(net, source_factory("gridworld12"),
                      TrainConfig(num_actors=actors, batch_size=actors, unroll_length=3))
    assert [trainer.train_one_update()["mean_rho"] for _ in range(3)] == [1.0] * 3


def test_the_learner_tape_stays_small():
    """The tracemalloc peak of a B=2, T=4 Sokoban DRC(3, 3) taped
    `ActorGroup` unroll and its backward stays within 5% of its bound, so a
    change that makes the learner hold more shows here. It read 42.03 MB
    while the tape kept every gate preactivation, 37.25 MB while every
    step copied its slices of one gate kernel, and 30.11 MB while the gate
    bias was added to the boundary term by a node of its own."""
    net = DrcNetwork.create(preset_config("sokoban", 3, 3), seed=0)
    levels = generate_level_set(3, 2, boxes=1)
    sources = [source_factory("sokoban", levels=levels)(0, i) for i in range(2)]
    rngs = [np.random.default_rng(i) for i in range(2)]
    actors = train.ActorGroup(net, lambda i: (sources[i].next_env(), rngs[i], 0, i), 2, 4)

    def update():
        batch, (_, logits, values) = actors.run_unroll()
        loss, _ = compute_loss(logits, values, batch.actions.reshape(-1), np.ones(8), np.ones(8), [],
                               TrainConfig())
        compute_gradients(loss, net.params)

    update()  # warm-up: one-off allocations
    tracemalloc.start()
    try:
        update()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 29.52 * 1e6 * 1.05, peak


@pytest.mark.parametrize("every", [0, 2])
def test_periodic_checkpoints_round_trip(tmp_path, every):
    """`checkpoint_every` = 2 over 4 updates writes the checkpoints of
    updates 2 and 4, and the last one holds the trainer's parameters and
    Adam state bit for bit; 0 writes none."""
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)
    config = TrainConfig(num_actors=2, batch_size=2, unroll_length=3, checkpoint_every=every)
    trainer = Trainer(net, source_factory("gridworld12"), config, out_dir=str(tmp_path))
    assert trainer.run(24) == 4
    if not every:
        assert list(tmp_path.iterdir()) == []
        return
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_000002.bin", "ckpt_000004.bin"]
    params, adam = load_checkpoint(tmp_path / "ckpt_000004.bin")
    assert params.paths() == net.params.paths()
    for path, t in net.params.items():
        assert params[path].data.dtype == t.data.dtype
        assert params[path].data.tobytes() == t.data.tobytes()
        assert params.is_trainable(path) == net.params.is_trainable(path)
    assert adam.step == trainer.adam.step == 4
    for moments, want in ((adam.m, trainer.adam.m), (adam.v, trainer.adam.v)):
        assert sorted(moments) == sorted(want)
        assert all(moments[k].tobytes() == want[k].tobytes() for k in want)


def test_the_network_input_follows_the_gridworld_size(tmp_path):
    """`gridworld.size` alone sets the grid the envs render and the input
    the network is built for, so the run trains."""
    out = _cli_train(tmp_path, "run", batch=3, extra="gridworld.size = 16\n", env_steps=15)
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 1
    params, _ = load_checkpoint(out / "params.bin")
    # two encoder layers, the second at stride 2: 8 x 8 cells of 16 + 16 channels
    assert params["heads.hidden.w"].shape[0] == 8 * 8 * 32


def test_replay_resets_an_ended_column_and_its_gradients_check():
    """After a done the actors' per-step reset (`replay_reference`) zeroes
    that column's state: its loss passes the finite-difference check, and
    the column's later logits are a fresh unroll of its later steps from the
    zero state."""
    net = DrcNetwork.create(tiny_drc_config(), seed=2, dtype=np.float64)
    cfg = net.config
    rng = np.random.default_rng(3)
    t_len, batch = 3, 2
    obs = rng.uniform(0.0, 1.0, (t_len, batch) + cfg.obs_shape)
    dones = np.zeros((t_len, batch), dtype=bool)
    dones[0, 0] = True  # column 0's episode ends after step 1
    start = net.zero_state(batch)
    for t in start.c + start.h:
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    actions = rng.integers(0, cfg.action_count, size=t_len * batch)
    advantages, targets = rng.normal(size=(2, t_len * batch))
    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]

    def loss_fn():
        _, logits, values = replay_reference(net, start, obs, dones)
        return compute_loss(logits, values, actions, advantages, targets, head_weights,
                            TrainConfig())[0]

    assert finite_difference_check(loss_fn, net.params, entries_per_param=25) < 1e-4
    _, logits, _ = replay_reference(net, start, obs, dones)
    _, fresh, _ = replay_reference(net, net.zero_state(1), obs[1:, :1])
    for got, want in zip(logits[1:], fresh):
        np.testing.assert_allclose(got.data[:1], want.data, rtol=1e-12, atol=1e-12)

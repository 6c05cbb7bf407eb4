"""Trainer configuration checks and the actor-critic loss terms."""

import json
from collections import deque

import numpy as np
import pytest

from drcplan import cli
from drcplan.autodiff import Tensor
from drcplan.drc import DrcNetwork, preset_config
from drcplan.sources import source_factory
from drcplan.train import TrainConfig, Trainer, Unroll, compute_loss, take_columns


def test_config_rejects_more_actors_than_queue_slots():
    with pytest.raises(ValueError, match="num_actors=9.*queue_capacity=8"):
        TrainConfig(num_actors=9, queue_capacity=8, batch_size=8)


def test_actors_filling_the_queue_exactly_still_train():
    """At num_actors == queue_capacity one round of unrolls fits the queue,
    so the learner gets a full batch."""
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)
    config = TrainConfig(num_actors=4, queue_capacity=4, batch_size=4, unroll_length=3)
    metrics = Trainer(net, source_factory("gridworld12"), config).train_one_update()
    assert metrics["env_steps"] == 12 and metrics["queue_depth"] == 0
    assert np.isfinite(metrics["loss"])


def _block(first, width, t_len=2):
    """An Unroll in which every entry of column j reads first + j."""
    ids = first + np.arange(width)

    def field(lead, *trail):
        shape = (lead, width) + trail
        return np.broadcast_to(ids.reshape((1, width) + (1,) * len(trail)), shape).copy()

    return Unroll(field(t_len + 1, 2, 2, 1), field(t_len), field(t_len), field(t_len),
                  field(t_len, 3), field(1, 2), field(1, 2))


def test_take_columns_spans_unrolls_in_queue_order():
    queue = deque([_block(0, 3), _block(3, 3), _block(6, 3)])
    for ids in ([0, 1, 2, 3], [4, 5, 6, 7], [8]):
        batch = take_columns(queue, 4)
        for field in batch:
            assert field.flags.c_contiguous
            by_column = np.moveaxis(field, 1, 0).reshape(len(ids), -1)
            np.testing.assert_array_equal(by_column, np.broadcast_to(np.array(ids)[:, None], by_column.shape))
    assert not queue


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
train.num_actors = 3
train.batch_size = {batch}
train.queue_capacity = 8
train.unroll_length = 5
"""


def _cli_train(tmp_path, name, batch):
    config = tmp_path / f"{name}.cfg"
    config.write_text(GRIDWORLD_RUN.format(batch=batch))
    out = tmp_path / name
    cli.main(["train", "--config", str(config), "--seed", "3", "--env-steps", "600",
              "--out", str(out)])
    return out


def test_cli_train_is_bit_exact_across_runs(tmp_path):
    """3 actors, batch 4: learner batches span two unrolls."""
    a = _cli_train(tmp_path, "a", batch=4)
    b = _cli_train(tmp_path, "b", batch=4)
    for name in ("metrics.jsonl", "params.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_learner_replays_the_actor_forward_exactly(tmp_path):
    """With batch == num_actors every batch is one unroll taken under the
    parameters the learner replays, so every importance weight is exactly 1,
    also across episode ends inside an unroll."""
    out = _cli_train(tmp_path, "run", batch=3)
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 40
    assert all(row["mean_rho"] == 1.0 for row in rows)
    assert sum(row["episodes"] for row in rows) > 0

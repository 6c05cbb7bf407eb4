"""Trainer configuration checks and the actor-critic loss terms."""

import numpy as np
import pytest

from drcplan.autodiff import Tensor
from drcplan.drc import DrcNetwork, preset_config
from drcplan.sources import source_factory
from drcplan.train import TrainConfig, Trainer, compute_loss


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

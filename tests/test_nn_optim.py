"""ParameterSet bookkeeping, gradient records, Adam, and checkpoints."""

import io
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.format import write_array

from drcplan import autodiff as ad
from drcplan.checkpoint import load_checkpoint, save_checkpoint
from drcplan.drc import DrcNetwork
from drcplan.gradcheck import tiny_drc_config
from drcplan.nn import Initializer, ParameterSet, compute_gradients
from drcplan.optim import AdamState, adam_step
from drcplan.train import TrainConfig, compute_loss

from oracles import adam_reference, backward_reference, replay_reference


def _params():
    ps = ParameterSet()
    rng = np.random.default_rng(0)
    ps.add("a.w", rng.normal(size=(3, 2)).astype(np.float64))
    ps.add("a.b", np.zeros(2))
    ps.add("frozen", np.ones(4), trainable=False)
    return ps


def test_duplicate_path_rejected():
    ps = _params()
    with pytest.raises(ValueError):
        ps.add("a.w", np.zeros(1))


def test_gradient_record_linear_and_quadratic():
    ps = _params()
    w = ps["a.w"]
    rec = compute_gradients(ad.sum_all(w), ps)
    np.testing.assert_array_equal(rec["a.w"], np.ones((3, 2)))

    rec = compute_gradients(ad.mul(ad.constant(0.5, np.float64), ad.sum_all(ad.square(w))), ps)
    np.testing.assert_allclose(rec["a.w"], w.data)


def test_gradient_record_skips_untouched_and_frozen():
    ps = _params()
    rec = compute_gradients(ad.sum_all(ps["a.w"]), ps)
    assert set(rec) == {"a.w"}  # a.b untouched, frozen not trainable


def _interior_nodes(root):
    """Every tape node reachable from `root` that has a backward closure."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def test_backward_frees_the_tape_and_keeps_parameter_gradients():
    """After compute_gradients no interior node of a DRC(2, 2) loss over a
    3-step episode holds a gradient, closure or parents, and every parameter
    gradient equals the one a backward pass that keeps the whole tape
    computes."""
    net = DrcNetwork.create(tiny_drc_config(), seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    obs = rng.uniform(0.0, 1.0, (3, 1) + net.config.obs_shape)
    actions = rng.integers(0, net.config.action_count, size=3)
    advantages, targets = rng.normal(size=(2, 3))
    head_weights = [net.params["heads.policy.w"], net.params["heads.value.w"]]

    def loss_fn():
        _, logits, values = replay_reference(net, net.zero_state(1), obs)
        return compute_loss(logits, values, actions, advantages, targets, head_weights, TrainConfig())[0]

    net.params.zero_grads()
    backward_reference(loss_fn())
    want = {path: t.grad for path, t in net.params.trainable_items()}

    loss = loss_fn()
    interior = _interior_nodes(loss)
    assert len(interior) > 100
    got = compute_gradients(loss, net.params)
    for node in interior:
        assert node.grad is None and node._backward is None and node._parents == ()
    assert set(got) == set(want)
    for path in want:
        np.testing.assert_array_equal(got[path], want[path])


def test_non_finite_loss_raises():
    ps = _params()
    with np.errstate(invalid="ignore"):  # the loss sums +inf and -inf on purpose
        bad = ad.mul(ps["a.w"], ad.constant(np.inf, np.float64))
        with pytest.raises(FloatingPointError):
            compute_gradients(ad.sum_all(bad), ps)


def test_adam_zero_lr_updates_moments_only():
    ps = _params()
    before = ps["a.w"].data.copy()
    state = AdamState()
    adam_step(ps, {"a.w": np.ones((3, 2))}, state, lr=0.0)
    np.testing.assert_array_equal(ps["a.w"].data, before)
    assert state.step == 1
    assert np.any(state.m["a.w"] != 0) and np.any(state.v["a.w"] != 0)


def test_adam_first_step_matches_hand_recurrence():
    ps = ParameterSet()
    ps.add("w", np.array([1.0]))
    array = ps["w"].data
    state = AdamState()
    g = 0.3
    adam_step(ps, {"w": np.array([g])}, state, lr=0.01)
    assert ps["w"].data is array  # updated in place, not reallocated every step
    want = adam_reference(1.0, [g], lr=0.01)
    np.testing.assert_allclose(ps["w"].data, [want], rtol=0, atol=1e-15)
    # first-step magnitude is ~ lr * g / (|g| + eps)
    assert ps["w"].data[0] == pytest.approx(1.0 - 0.01 * g / (abs(g) + 1e-4), rel=1e-12)


def test_adam_hundred_steps_descends_quadratic():
    ps = ParameterSet()
    ps.add("w", np.array([1.0]))
    state = AdamState()
    history = []
    w_ref = 1.0
    grads_seen = []
    for _ in range(100):
        w = ps["w"].data[0]
        assert w == pytest.approx(w_ref, rel=1e-12)
        g = 2 * w
        grads_seen.append(g)
        adam_step(ps, {"w": np.array([g])}, state, lr=0.1)
        w_ref = adam_reference(1.0, grads_seen, lr=0.1)
        history.append(abs(ps["w"].data[0]))
    assert history[-1] < 0.1
    # the oscillation envelope shrinks toward the optimum
    peaks = [max(history[i:i + 25]) for i in range(0, 100, 25)]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_adam_deterministic():
    def run():
        ps = ParameterSet()
        ps.add("w", np.linspace(-1, 1, 8))
        state = AdamState()
        for t in range(10):
            adam_step(ps, {"w": np.sin(np.arange(8) + t)}, state, lr=1e-3)
        return ps["w"].data
    np.testing.assert_array_equal(run(), run())


def test_adam_shape_mismatch_error():
    ps = _params()
    with pytest.raises(ValueError):
        adam_step(ps, {"a.w": np.ones(5)}, AdamState(), lr=0.1)


def test_initializer_deterministic_and_fan_in_scaled():
    a = Initializer(9).conv(3, 4, 8)
    b = Initializer(9).conv(3, 4, 8)
    np.testing.assert_array_equal(a, b)
    limit = 1 / np.sqrt(3 * 3 * 4)
    assert np.abs(a).max() <= limit
    assert np.abs(Initializer(1).bias(16)).max() == 0


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ps = _params()
    state = AdamState(beta1=0.95, beta2=0.99, eps=1e-4)
    rec = compute_gradients(ad.sum_all(ad.square(ps["a.w"])), ps)
    adam_step(ps, rec, state, lr=1e-3)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ps, state)
    ps2, state2 = load_checkpoint(path)
    assert ps2.paths() == ps.paths()
    for name in ps.paths():
        np.testing.assert_array_equal(ps2[name].data, ps[name].data)
        assert ps2[name].dtype == ps[name].dtype
        assert ps2.is_trainable(name) == ps.is_trainable(name)
    assert [ps2.is_trainable(name) for name in ps2.paths()] == [True, True, False]
    assert state2.step == state.step
    assert (state2.beta1, state2.beta2, state2.eps) == (0.95, 0.99, 1e-4)
    np.testing.assert_array_equal(state2.m["a.w"], state.m["a.w"])
    np.testing.assert_array_equal(state2.v["a.w"], state.v["a.w"])
    # saving the reloaded state reproduces the same bytes
    path2 = tmp_path / "ck2.bin"
    save_checkpoint(path2, ps2, state2)
    assert path.read_bytes() == path2.read_bytes()


@st.composite
def checkpoint_states(draw):
    """1-4 parameters with distinct unicode paths, float32 or float64 arrays
    of rank 0-4 (dims of size zero included) and mixed trainable flags, and
    either no Adam state or one with moments for some of the paths."""
    paths = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    params, arrays = ParameterSet(), {}
    for path in paths:
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        arrays[path] = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                                max_side=3)))
        params.add(path, arrays[path], trainable=draw(st.booleans()))
    if draw(st.booleans()):
        return params, None
    adam = AdamState(beta1=draw(st.floats(0, 1, exclude_max=True)),
                     beta2=draw(st.floats(0, 1, exclude_max=True)),
                     eps=draw(st.floats(0, 1, exclude_min=True)))
    adam.step = draw(st.integers(0, 2**40))
    for path in draw(st.permutations(paths))[:draw(st.integers(0, len(paths)))]:
        like = arrays[path]
        adam.m[path], adam.v[path] = (draw(hnp.arrays(like.dtype, like.shape)) for _ in range(2))
    return params, adam


def _same_array(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(state=checkpoint_states())
def test_checkpoint_round_trip_keeps_every_byte(state):
    ps, adam = state
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
        save_checkpoint(first, ps, adam)
        ps2, adam2 = load_checkpoint(first)
        assert ps2.paths() == ps.paths()
        for path in ps.paths():
            assert _same_array(ps2[path].data, ps[path].data)
            assert ps2.is_trainable(path) == ps.is_trainable(path)
        if adam is None:
            assert adam2 is None
        else:
            assert (adam2.beta1, adam2.beta2, adam2.eps, adam2.step) == \
                (adam.beta1, adam.beta2, adam.eps, adam.step)
            assert list(adam2.m) == list(adam2.v) == list(adam.m)
            for path in adam.m:
                assert _same_array(adam2.m[path], adam.m[path])
                assert _same_array(adam2.v[path], adam.v[path])
        save_checkpoint(second, ps2, adam2)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def _npy(arr):
    buf = io.BytesIO()
    write_array(buf, arr)
    return buf.getvalue()


# a checkpoint of no parameters and no Adam state
EMPTY = _npy(np.array(json.dumps({"magic": "DRCK", "version": 2, "params": [], "adam": None})))


@pytest.mark.parametrize("raw,cause", [
    pytest.param(b"NOPE" + b"\0" * 32, "", id="junk"),
    pytest.param(b"", "", id="empty"),
    pytest.param(b"DRCK" + struct.pack("<II", 1, 0),
                 "a version 1 checkpoint, an old format that is no longer read$", id="v1_header"),
    pytest.param(_npy(np.arange(3.0)), "", id="float_npy"),
    pytest.param(_npy(np.array(json.dumps({"version": 2, "params": [], "adam": None}))), "",
                 id="header_without_magic"),
    pytest.param(_npy(np.array(json.dumps({"magic": "DRCK", "version": 3, "params": [],
                                           "adam": None}))), "", id="other_version"),
    pytest.param(EMPTY + b"\0", "1 bytes after the last record$", id="one_byte_after"),
    pytest.param(EMPTY + EMPTY, f"{len(EMPTY)} bytes after the last record$",
                 id="two_checkpoints"),
])
def test_checkpoint_rejects_other_files(tmp_path, raw, cause):
    path = tmp_path / "junk.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {cause}"):
        load_checkpoint(path)


def test_truncated_checkpoint_raises_value_error_naming_the_file(tmp_path):
    ps = ParameterSet()
    ps.add("a.w", np.arange(6, dtype=np.float32).reshape(3, 2))
    ps.add("a.b", np.zeros(2))
    state = AdamState()
    adam_step(ps, compute_gradients(ad.sum_all(ad.square(ps["a.w"])), ps), state, lr=1e-3)
    full = tmp_path / "ck.bin"
    save_checkpoint(full, ps, state)
    raw = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
            load_checkpoint(cut)

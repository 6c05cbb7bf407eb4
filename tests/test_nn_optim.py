"""ParameterSet bookkeeping, gradient records, Adam, and checkpoints."""

import re

import numpy as np
import pytest

from drcplan import autodiff as ad
from drcplan.autodiff import Tensor
from drcplan.checkpoint import load_checkpoint, save_checkpoint
from drcplan.nn import Initializer, ParameterSet, compute_gradients
from drcplan.optim import AdamState, adam_step, clip_by_global_norm

from oracles import adam_reference


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


def test_count_by_prefix():
    ps = _params()
    assert ps.count() == 12
    assert ps.count("a.") == 8


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


def test_non_finite_loss_raises():
    ps = _params()
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
    state = AdamState()
    g = 0.3
    adam_step(ps, {"w": np.array([g])}, state, lr=0.01)
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


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_by_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.hypot(grads["a"][0], grads["b"][0]) == pytest.approx(1.0)
    grads = {"a": np.array([0.3])}
    clip_by_global_norm(grads, 0.0)  # 0 disables
    assert grads["a"][0] == 0.3


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
    assert state2.step == state.step
    assert (state2.beta1, state2.beta2, state2.eps) == (0.95, 0.99, 1e-4)
    np.testing.assert_array_equal(state2.m["a.w"], state.m["a.w"])
    np.testing.assert_array_equal(state2.v["a.w"], state.v["a.w"])
    # saving the reloaded state reproduces the same bytes
    path2 = tmp_path / "ck2.bin"
    save_checkpoint(path2, ps2, state2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
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

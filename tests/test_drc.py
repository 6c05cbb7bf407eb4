"""Architecture tests: encoder shapes, memory-module math against scalar and
compositional oracles, recurrence equivalences, heads, parameter counts."""

import itertools

import numpy as np
import pytest

from drcplan import autodiff as ad
from drcplan.autodiff import Tensor
from drcplan.drc import (MEMORY_KINDS, DrcConfig, DrcNetwork, _edge_map, _gate_slices,
                         count_parameters, pool_and_inject, preset_config)
from drcplan.gradcheck import full_drc_gradcheck
from drcplan.nn import Initializer, compute_gradients

from oracles import (boundary_channel_reference, gate_kernel, pool_projection_reference,
                     scalar_convlstm_reference, unsplit_memory_step_reference)


def tiny_net(depth=2, repeats=2, seed=0, **overrides):
    cfg_kw = dict(
        depth=depth, repeats=repeats, obs_shape=(4, 4, 1), action_count=3,
        encoder=((4, 3, 1),), hidden_channels=4, head_hidden=8,
    )
    cfg_kw.update(overrides)
    return DrcNetwork.create(DrcConfig(**cfg_kw), seed=seed)


def zero_gate(net, depth=1):
    """Zero every parameter of a depth's gate: its kernel slices and bias."""
    for path in net.params.paths():
        if path.startswith(f"core.d{depth}.gates."):
            net.params[path].data[...] = 0


def rand_obs(net, batch=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (batch,) + tuple(net.config.obs_shape)).astype(np.float32)


def rand_state(net, batch=1, seed=1):
    rng = np.random.default_rng(seed)
    st = net.zero_state(batch)
    for t in st.c + st.h:
        t.data[...] = rng.normal(scale=0.5, size=t.shape).astype(np.float32)
    return st


# -- encoder ----------------------------------------------------------------

def test_encode_sokoban_shape():
    net = DrcNetwork.create(preset_config("sokoban", 1, 1), seed=0)
    out = net.encode(np.zeros((2, 80, 80, 3), dtype=np.float32))
    assert out.shape == (2, 10, 10, 32)


def test_encode_zero_obs_zero_weights_gives_zero():
    net = tiny_net()
    for path in net.params.paths():
        if path.startswith("encoder"):
            net.params[path].data[...] = 0
    out = net.encode(np.zeros((1, 4, 4, 1), dtype=np.float32))
    np.testing.assert_array_equal(out.data, 0)


def test_encode_gridworld_chain_shape():
    net = DrcNetwork.create(preset_config("gridworld", 1, 1), seed=0)
    out = net.encode(np.zeros((1, 32, 32, 1), dtype=np.float32))
    assert out.shape == (1, 16, 16, 32)
    assert net.config.encoded_shape == (16, 16, 32)


def test_encode_rejects_wrong_shape():
    net = tiny_net()
    with pytest.raises(ValueError, match="observation shape"):
        net.encode(np.zeros((1, 5, 4, 1), dtype=np.float32))


# -- memory modules ----------------------------------------------------------

def test_convlstm_zero_weights_and_inputs():
    net = tiny_net(depth=1, repeats=1)
    zero_gate(net)
    z = Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32))
    pool = Tensor(np.zeros((1, 4), dtype=np.float32))
    c, h = net.memory_step(net.gate_terms(0, z), z, z, z, pool)
    # all-zero preactivations: every gate sits at 0.5, candidate tanh at 0
    np.testing.assert_array_equal(c.data, 0)
    np.testing.assert_array_equal(h.data, 0)


def test_convlstm_matches_scalar_hand_recurrence():
    cfg = DrcConfig(depth=1, repeats=1, obs_shape=(1, 1, 1), action_count=2,
                    encoder=((1, 1, 1),), hidden_channels=1, head_hidden=2,
                    boundary_padding=False)
    net = DrcNetwork.create(cfg, seed=0, dtype=np.float64)
    # gate conv input channels: [encoded obs, h below, own h, pooled]
    weights = {
        "f": (0.3, -0.2, 0.5, 0.1, 0.05),
        "i": (-0.4, 0.6, 0.2, -0.1, -0.2),
        "o": (0.7, 0.1, -0.3, 0.2, 0.1),
        "g": (0.5, -0.5, 0.4, 0.3, 0.0),
    }
    w = np.zeros((3, 3, 4, 4))
    b = net.params["core.d1.gates.b"]
    for col, gate in enumerate(("f", "i", "o", "g")):
        w[1, 1, :, col] = weights[gate][:4]  # obs, h below, own h, pooled
        b.data[col] = weights[gate][4]
    for name, part in _gate_slices(cfg, w).items():
        net.params[f"core.d1.gates.{name}"].data[...] = part

    i_t, c0, h0, below, pool = 0.8, -0.3, 0.25, 0.6, -0.45
    mk = lambda v: Tensor(np.full((1, 1, 1, 1), v, dtype=np.float64))
    pool_proj = Tensor(np.full((1, 1), pool, dtype=np.float64))  # (B, C), untiled
    c, h = net.memory_step(net.gate_terms(0, mk(i_t)), mk(c0), mk(h0), mk(below), pool_proj)
    c_ref, h_ref = scalar_convlstm_reference(weights, i_t, c0, h0, below, pool)
    assert c.data.item() == pytest.approx(c_ref, abs=1e-12)
    assert h.data.item() == pytest.approx(h_ref, abs=1e-12)


def test_simple_convrnn_zero_weights_gives_zero():
    net = tiny_net(depth=1, repeats=1, memory_kind="simple_convrnn")
    zero_gate(net)
    obs = rand_obs(net)
    state, _, _ = net.forward(net.zero_state(1), obs)
    np.testing.assert_array_equal(state.h[0].data, 0)


def test_gated_convrnn_has_no_cell_state():
    net = tiny_net(depth=1, repeats=2, memory_kind="gated_convrnn")
    state = net.zero_state(1)
    state2, _, _ = net.forward(state, rand_obs(net))
    np.testing.assert_array_equal(state2.c[0].data, 0)  # untouched
    assert np.any(state2.h[0].data != 0)


def test_memory_kind_gate_channel_multiples():
    assert tiny_net(memory_kind="convlstm").config.gate_channels == 16
    assert tiny_net(memory_kind="gated_convrnn").config.gate_channels == 8
    assert tiny_net(memory_kind="simple_convrnn").config.gate_channels == 4


# -- tick wiring ------------------------------------------------------------

# the split tick against the unsplit gate (one conv over the whole gate
# input) on Sokoban DRC(3, 3) shapes, with each optional input switched off
TICK_TOL = {np.float64: 1e-12, np.float32: 1e-6}
ABLATIONS = ({}, {"pool_and_inject": False}, {"boundary_padding": False},
             {"top_down_skip": False}, {"obs_skip_all_depths": False})


def _sokoban_tick_case(depth, dtype, flags, seed):
    net = DrcNetwork.create(preset_config("sokoban", depth, 3, **flags), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    state = net.zero_state(2)
    for t in state.c + state.h:
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    i_t = Tensor(np.abs(rng.normal(size=(2,) + net.config.encoded_shape)).astype(dtype))
    return net, state, i_t


def _pool_reference(net, h, d):
    if not net.config.pool_and_inject:
        return None
    w_p, b_p = (net.params[f"core.d{d + 1}.pool.{n}"].data.astype(np.float64) for n in "wb")
    return pool_projection_reference(h.astype(np.float64), w_p, b_p)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_depth1_tick_equals_single_memory_step_with_self_topdown():
    for dtype, flags in itertools.product(TICK_TOL, ABLATIONS):
        net, state, i_t = _sokoban_tick_case(1, dtype, flags, seed=0)
        h0 = state.h[0].data
        below = h0 if net.config.top_down_skip else np.zeros_like(h0)
        want = unsplit_memory_step_reference(net, 0, i_t.data, state.c[0].data, h0, below,
                                             _pool_reference(net, h0, 0))
        ticked = net.tick(state, net.step_terms(i_t))
        for got, ref in zip((ticked.c[0], ticked.h[0]), want):
            assert got.dtype == dtype
            assert _rel_err(got.data, ref) < TICK_TOL[dtype], (dtype, flags)


def test_depth3_tick_matches_hand_wired_composition():
    for dtype, flags in itertools.product(TICK_TOL, ABLATIONS):
        net, state, i_t = _sokoban_tick_case(3, dtype, flags, seed=5)
        cfg = net.config
        c, h = [t.data for t in state.c], [t.data for t in state.h]
        pools = [_pool_reference(net, h[d], d) for d in range(3)]
        top_down = h[2] if cfg.top_down_skip else np.zeros_like(h[2])
        deep_obs = i_t.data if cfg.obs_skip_all_depths else np.zeros_like(i_t.data)
        c1, h1 = unsplit_memory_step_reference(net, 0, i_t.data, c[0], h[0], top_down, pools[0])
        c2, h2 = unsplit_memory_step_reference(net, 1, deep_obs, c[1], h[1], h1, pools[1])
        c3, h3 = unsplit_memory_step_reference(net, 2, deep_obs, c[2], h[2], h2, pools[2])

        ticked = net.tick(state, net.step_terms(i_t))
        for got, want in zip(ticked.c + ticked.h, (c1, c2, c3, h1, h2, h3)):
            assert _rel_err(got.data, want) < TICK_TOL[dtype], (dtype, flags)


def test_obs_skip_ablation_changes_deep_outputs():
    on = tiny_net(depth=2, repeats=1, seed=3, obs_skip_all_depths=True)
    off = tiny_net(depth=2, repeats=1, seed=3, obs_skip_all_depths=False)
    for path in on.params.paths():
        np.testing.assert_array_equal(on.params[path].data, off.params[path].data)
    obs = rand_obs(on, seed=2)
    st_on, _, _ = on.forward(on.zero_state(1), obs)
    st_off, _, _ = off.forward(off.zero_state(1), obs)
    # depth 1 sees the observation either way; depth 2 only with the skip
    np.testing.assert_array_equal(st_on.h[0].data, st_off.h[0].data)
    assert np.any(st_on.h[1].data != st_off.h[1].data)


def test_topdown_skip_ablation_changes_outputs():
    on = tiny_net(depth=2, repeats=2, seed=3, top_down_skip=True)
    off = tiny_net(depth=2, repeats=2, seed=3, top_down_skip=False)
    state_on = rand_state(on, seed=4)
    state_off = rand_state(off, seed=4)
    i_t = on.encode(Tensor(rand_obs(on, seed=5)))
    a = on.tick(state_on, on.step_terms(i_t))
    b = off.tick(state_off, off.step_terms(i_t))
    assert np.any(a.h[0].data != b.h[0].data)


# -- repeats ----------------------------------------------------------------

def test_step_n1_equals_single_tick():
    net = tiny_net(depth=2, repeats=1)
    state, obs = rand_state(net), rand_obs(net)
    via_step, _, _ = net.forward(state, obs)
    via_tick = net.tick(state, net.step_terms(net.encode(Tensor(obs))))
    for got, want in zip(via_step.c + via_step.h, via_tick.c + via_tick.h):
        np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(via_step.h[-1].data, via_tick.h[-1].data)


def test_step_n3_equals_manual_tick_loop_bit_identical():
    net = tiny_net(depth=2, repeats=3)
    state, obs = rand_state(net), rand_obs(net)
    manual, terms = state, net.step_terms(net.encode(Tensor(obs)))
    for _ in range(3):
        manual = net.tick(manual, terms)
    stepped, _, _ = net.forward(state, obs)
    for got, want in zip(stepped.c + stepped.h, manual.c + manual.h):
        np.testing.assert_array_equal(got.data, want.data)


def test_repeat_associativity_bit_identical():
    for seed in range(20):
        net = tiny_net(depth=2, repeats=5, seed=seed)
        state = rand_state(net, seed=seed + 100)
        obs = rand_obs(net, seed=seed + 200)
        full, _, _ = net.forward(state, obs)
        net.config = DrcConfig(**{**net.config.__dict__, "repeats": 2})
        part, _, _ = net.forward(state, obs)
        net.config = DrcConfig(**{**net.config.__dict__, "repeats": 3})
        part, _, _ = net.forward(part, obs)
        for got, want in zip(part.c + part.h, full.c + full.h):
            np.testing.assert_array_equal(got.data, want.data)


def test_drc11_reduces_to_plain_convlstm():
    """With the extras disabled, one step is a textbook ConvLSTM update."""
    net = tiny_net(depth=1, repeats=1, pool_and_inject=False, top_down_skip=False,
                   boundary_padding=False, vision_shortcut=False)
    state = rand_state(net, seed=9)
    obs = rand_obs(net, seed=10)
    new_state, _, _ = net.forward(state, obs)

    i_t = net.encode(Tensor(obs)).data.astype(np.float64)
    h = state.h[0].data.astype(np.float64)
    c = state.c[0].data.astype(np.float64)
    w = gate_kernel(net, 0).astype(np.float64)
    b = net.params["core.d1.gates.b"].data.astype(np.float64)
    x = np.concatenate([i_t, np.zeros_like(h), h], axis=-1)
    pre = np.zeros(h.shape[:3] + (16,))
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    for kh in range(3):
        for kw in range(3):
            pre += xp[:, kh:kh + 4, kw:kw + 4, :] @ w[kh, kw]
    pre += b
    sig = lambda z: 1 / (1 + np.exp(-z))
    f, i, o, g = np.split(pre, 4, axis=-1)
    c_ref = sig(f) * c + sig(i) * np.tanh(g)
    h_ref = sig(o) * np.tanh(c_ref)
    np.testing.assert_allclose(new_state.c[0].data, c_ref, atol=1e-6)
    np.testing.assert_allclose(new_state.h[0].data, h_ref, atol=1e-6)


# -- pool-and-inject / boundary ----------------------------------------------

def test_pool_and_inject_constant_input():
    c = 3
    h = Tensor(np.full((1, 4, 4, c), 1.5, dtype=np.float32))
    w = np.zeros((2 * c, c), dtype=np.float32)
    w[:c] = np.eye(c)  # pick out the max-pool half
    out = pool_and_inject(h, Tensor(w), Tensor(np.zeros(c, dtype=np.float32)))
    assert out.shape == (1, c)
    np.testing.assert_allclose(out.data, 1.5)


def test_pool_and_inject_zero_input_zero_bias():
    h = Tensor(np.zeros((2, 3, 3, 4), dtype=np.float32))
    w = Tensor(np.ones((8, 4), dtype=np.float32))
    out = pool_and_inject(h, w, Tensor(np.zeros(4, dtype=np.float32)))
    assert out.shape == (2, 4)
    np.testing.assert_array_equal(out.data, 0)


def test_pool_and_inject_matches_composition_oracle():
    rng = np.random.default_rng(12)
    h = rng.normal(size=(2, 5, 5, 3)).astype(np.float64)
    w = rng.normal(size=(6, 3))
    b = rng.normal(size=3)
    out = pool_and_inject(Tensor(h), Tensor(w), Tensor(b)).data
    pooled = np.concatenate([h.max(axis=(1, 2)), h.mean(axis=(1, 2))], axis=-1)
    np.testing.assert_array_equal(out, pooled @ w + b)


@pytest.mark.parametrize("hw,ones", [((3, 3), 8), ((2, 2), 4), ((10, 10), 36)])
def test_boundary_channel_counts(hw, ones):
    x = np.zeros((2,) + hw + (2,), dtype=np.float32)
    out = boundary_channel_reference(x)
    assert out.shape == (2,) + hw + (3,)
    convolved = _edge_map(*hw, np.dtype(np.float32)).data  # the map the network convolves
    assert convolved.shape == (1,) + hw + (1,) and not convolved.flags.writeable
    assert _edge_map(*hw, np.dtype(np.float32)).data is convolved  # built once per shape
    for edge in out[..., -1]:
        assert int(edge.sum()) == ones
        np.testing.assert_array_equal(edge, convolved[0, ..., 0])
    assert set(np.unique(edge)) <= {0.0, 1.0}


def test_boundary_padding_ablation_changes_params_and_outputs():
    on = tiny_net(seed=1, boundary_padding=True)
    off = tiny_net(seed=1, boundary_padding=False)
    assert count_parameters(on.config)["core.d1"] > count_parameters(off.config)["core.d1"]


# -- heads -------------------------------------------------------------------

def test_heads_zero_weights_uniform_policy_zero_value():
    net = tiny_net(depth=1, repeats=1)
    for path in ("heads.hidden.w", "heads.hidden.b", "heads.policy.w",
                 "heads.policy.b", "heads.value.w", "heads.value.b"):
        net.params[path].data[...] = 0
    _, logits, value = net.forward(net.zero_state(1), rand_obs(net))
    np.testing.assert_array_equal(logits.data, 0)
    assert value.data[0] == 0
    p = np.exp(ad.log_softmax(logits).data)
    np.testing.assert_allclose(p, 1.0 / net.config.action_count)


def test_sokoban_heads_output_five_logits():
    net = DrcNetwork.create(preset_config("sokoban", 1, 1), seed=0)
    _, logits, value = net.forward(net.zero_state(1),
                                   np.zeros((1, 80, 80, 3), dtype=np.float32))
    assert logits.shape == (1, 5)
    assert value.shape == (1,)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 5))
    a = np.exp(ad.log_softmax(Tensor(logits)).data)
    b = np.exp(ad.log_softmax(Tensor(logits + 13.7)).data)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_vision_shortcut_changes_head_input_width():
    with_skip = tiny_net(seed=2, vision_shortcut=True)
    without = tiny_net(seed=2, vision_shortcut=False)
    assert with_skip.params["heads.hidden.w"].shape[0] == 2 * without.params["heads.hidden.w"].shape[0]


# -- invariants ---------------------------------------------------------------

def test_spatial_preservation_across_ticks():
    net = DrcNetwork.create(preset_config("sokoban", 2, 2), seed=0)
    state = net.zero_state(1)
    obs = np.zeros((1, 80, 80, 3), dtype=np.float32)
    for _ in range(3):
        state, _, _ = net.forward(state, obs)
        for t in state.c + state.h:
            assert t.shape == (1, 10, 10, 32)


def test_parameters_not_shared_across_depth():
    net = tiny_net(depth=2, repeats=1, seed=4)
    obs = rand_obs(net, seed=6)
    _, logits_a, _ = net.forward(net.zero_state(1), obs)
    for name in ("w_obs", "w_rec", "w_pool", "w_edge", "b"):
        assert not np.shares_memory(net.params[f"core.d1.gates.{name}"].data,
                                    net.params[f"core.d2.gates.{name}"].data)
    net.params["core.d2.gates.w_rec"].data[...] += 0.25
    _, logits_b, _ = net.forward(net.zero_state(1), obs)
    assert np.any(logits_a.data != logits_b.data)


def test_repeats_touch_identical_parameter_set():
    grads_by_repeats = []
    for repeats in (1, 3):
        net = tiny_net(depth=2, repeats=repeats, seed=4)
        state, logits, value = net.forward(net.zero_state(1), rand_obs(net))
        loss = ad.add(ad.mean_all(ad.square(logits)), ad.mean_all(ad.square(value)))
        grads_by_repeats.append(set(compute_gradients(loss, net.params)))
    assert grads_by_repeats[0] == grads_by_repeats[1]


def test_cell_state_growth_at_most_linear():
    net = tiny_net(depth=2, repeats=1, seed=8)
    state = net.zero_state(1)
    terms = net.step_terms(net.encode(Tensor(rand_obs(net, seed=3) * 4)))
    for ticks in range(1, 51):
        state = net.tick(state, terms)
        for c in state.c:
            assert np.abs(c.data).max() <= ticks + 1


def test_full_network_gradient_check_subsampled():
    # the exhaustive 20-seed run lives in the acceptance suite
    err = full_drc_gradcheck(seed=0, entries_per_param=25)
    assert err < 1e-4


# -- parameters -----------------------------------------------------------------

# every ablation and every memory kind
VARIANTS = [{}] + [{flag: False} for flag in ("pool_and_inject", "top_down_skip", "vision_shortcut",
                                               "obs_skip_all_depths", "boundary_padding")] \
    + [{"memory_kind": kind} for kind in MEMORY_KINDS[1:]]


@pytest.mark.parametrize("flags", VARIANTS, ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()) or "all")
def test_the_gate_slices_are_one_initializer_draw(flags):
    """Each depth's gate is stored as the slices its ops read; put back
    together they are bit for bit the one `Initializer` draw made at the
    kernel's place in the creation order, and every other parameter is the
    draw made at its own place."""
    cfg = preset_config("gridworld12", 2, 2, **flags)
    net = DrcNetwork.create(cfg, seed=7)
    init, gate_in = Initializer(7), sum(cfg.gate_inputs)
    for path, t in net.params.items():
        if path.endswith(".gates.w_obs"):
            got = gate_kernel(net, int(path.split(".")[1][1:]) - 1)
            want = (init.dense(gate_in, got.shape[-1]) if got.ndim == 2
                    else init.conv(cfg.kernel_size, gate_in, got.shape[-1]))
        elif ".gates.w_" in path:
            continue  # checked with its kernel's w_obs
        elif path.endswith(".b"):
            got, want = t.data, init.bias(t.size)
        else:
            got = t.data
            want = init.conv(t.shape[0], t.shape[2], t.shape[3]) if t.ndim == 4 else init.dense(*t.shape)
        assert got.dtype == want.dtype and got.shape == want.shape, path
        np.testing.assert_array_equal(got, want, err_msg=path)


def test_count_parameters_toy_hand_enumeration():
    cfg = DrcConfig(depth=1, repeats=1, obs_shape=(2, 2, 1), action_count=2,
                    encoder=((1, 1, 1),), hidden_channels=1, kernel_size=1,
                    head_hidden=3)
    counts = count_parameters(cfg)
    # encoder 1*1*1*1+1; gates 1*1*5*4+4; pool 2*1+1; heads 8*3+3 + 3*2+2 + 3+1
    assert counts["encoder"] == 2
    assert counts["core.d1"] == 24 + 3
    assert counts["heads"] == 27 + 8 + 4
    assert counts["total"] == 68


def test_count_parameters_matches_built_network():
    cfg = preset_config("sokoban", 2, 2)
    counts = count_parameters(cfg)
    net = DrcNetwork.create(cfg, seed=0)
    assert counts["total"] == sum(t.size for _, t in net.params.items())
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")


def test_vector_lstm_variant_runs_and_counts():
    cfg = preset_config("sokoban", 2, 2, memory_kind="vector_lstm")
    net = DrcNetwork.create(cfg, seed=0)
    state = net.zero_state(2)
    obs = np.zeros((2, 80, 80, 3), dtype=np.float32)
    state, logits, value = net.forward(state, obs)
    assert state.h[0].shape == (2, 200)
    assert logits.shape == (2, 5)
    counts = count_parameters(cfg)
    assert counts["core.compress"] == 3200 * 200 + 200
    # per-depth vector LSTM: 600 inputs -> 800 gate units
    assert counts["core.d1"] == 600 * 800 + 800

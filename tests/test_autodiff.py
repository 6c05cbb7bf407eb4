"""Op-level checks for the autodiff core: forward semantics against naive
oracles, and analytic gradients against central finite differences."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcplan import autodiff as ad
from drcplan.autodiff import ShapeError, Tensor
from drcplan.gradcheck import finite_difference_check
from drcplan.nn import ParameterSet

from oracles import (actor_critic_loss_reference, conv2d_backward_reference, conv2d_reference,
                     lstm_cell_reference, pool_spatial_reference)

TOL = 1e-4


def fd_check(op, arrays, seed):
    """Compare backprop gradients of sum(op(*inputs)) with central finite
    differences, through the checker `drcplan gradcheck` runs, which
    raises unless every input receives a gradient."""
    params = ParameterSet()
    for i, a in enumerate(arrays):
        params.add(f"x{i}", a)
    loss = lambda: ad.sum_all(op(*(t for _, t in params.items())))
    worst = finite_difference_check(loss, params)
    assert worst < TOL, f"seed {seed}: max rel err {worst:.2e}"


def _rng_arrays(seed, shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s).astype(np.float64) for s in shapes]


OPS = {
    "add": (lambda a, b: ad.add(a, b), [(2, 3), (2, 3)]),
    "add_broadcast": (lambda a, b: ad.add(a, b), [(2, 3), (3,)]),
    "mul": (lambda a, b: ad.mul(a, b), [(2, 3), (2, 3)]),
    "square": (ad.square, [(2, 3)]),
    "matmul": (lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)]),
    "dense": (lambda x, w, b: ad.dense(x, w, b), [(3, 4), (4, 2), (2,)]),
    "conv_same": (lambda x, w, b: ad.conv2d(x, w, b, stride=1, padding="same"),
                  [(2, 4, 4, 2), (3, 3, 2, 3), (3,)]),
    # the Sokoban encoder's second conv (K=4 > stride=2, "same") on a 7 x 6
    # input: rows pad 1 top / 2 bottom, columns 1 / 1
    "conv_stride2_same_even_kernel": (lambda x, w: ad.conv2d(x, w, stride=2, padding="same"),
                                      [(1, 7, 6, 2), (4, 4, 2, 2)]),
    # an even kernel at stride 1 pads one more row and column at the
    # bottom/right; squared so that every gradient depends on the position
    "conv_even_k": (lambda x, w, b: ad.square(ad.conv2d(x, w, b)),
                    [(1, 3, 3, 2), (2, 2, 2, 2), (2,)]),
    # vectors as a 1 x 1 grid and a 1 x 1 kernel: the vector LSTM's dense gate
    "conv_vectors": (lambda x, w, b: ad.square(ad.conv2d(x, w, b)),
                     [(3, 1, 1, 3), (1, 1, 3, 4), (4,)]),
    "relu": (ad.relu, [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "tanh": (ad.tanh, [(3, 4)]),
    # the whole ConvLSTM update: two maps, a per-row and a broadcast base,
    # an even kernel's pool term; c * h puts both outputs in the loss, and
    # h's path through c. Few input channels keep the gates off saturation,
    # where gradients of 1e-7 drown in the differences' rounding
    "convlstm_cell": (lambda x1, x2, w, base, b, c, pool, wp: ad.mul(
        *ad.convlstm_cell([x1, x2], w, [base, b], c, pool, wp)),
        [(2, 3, 2, 1), (2, 3, 2, 1), (2, 2, 2, 8), (2, 3, 2, 8), (1, 3, 2, 8), (2, 3, 2, 2), (2, 1), (1, 32)]),
    # the same at k = 3: two maps on a non-square grid, a per-row and a
    # broadcast base, and the pool term of an odd kernel
    "convlstm_cell_k3": (lambda x1, x2, w, base, b, c, pool, wp: ad.mul(
        *ad.convlstm_cell([x1, x2], w, [base, b], c, pool, wp)),
        [(2, 3, 2, 1), (2, 3, 2, 1), (3, 3, 2, 4), (2, 3, 2, 4), (1, 3, 2, 4), (2, 3, 2, 1), (2, 1), (1, 36)]),
    # gradients past released values, wired as `DrcNetwork` runs them: a
    # ReLU whose conv map is released once it has run, and a convlstm_cell
    # base (the observation term) released once the cell has read it
    "release": (lambda x, w, b, w_obs, h, w_rec, c: (
        pre := ad.conv2d(x, w, b), i_t := ad.relu(pre), ad.release(pre),
        obs := ad.conv2d(i_t, w_obs), cell := ad.convlstm_cell([h], w_rec, [obs], c), ad.release(obs),
        ad.mul(*cell))[-1],
        [(2, 3, 2, 1), (1, 1, 1, 2), (2,), (1, 1, 2, 8), (2, 3, 2, 1), (2, 2, 1, 8), (2, 3, 2, 2)]),
    "sum_all": (ad.sum_all, [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (6, 2)), [(3, 4)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=-1), [(2, 3), (2, 2)]),
    "spatial_max": (ad.spatial_max, [(2, 3, 3, 2)]),
    "spatial_mean": (ad.spatial_mean, [(2, 3, 3, 2)]),
    # T = 2 steps of 3 rows and 4 actions with every cost nonzero: the
    # logits get the policy, entropy and logit terms, the values the baseline
    "actor_critic_loss": (lambda l0, l1, v0, v1: ad.actor_critic_loss(
        [l0, l1], [v0, v1], [1, 0, 3, 3, 2, 1], np.linspace(-1, 1, 6), np.linspace(0.5, -0.5, 6),
        (0.5, 0.3, 0.2))[0], [(3, 4), (3, 4), (3,), (3,)]),
}


def test_every_tape_building_function_has_an_ops_row():
    """Each public autodiff function that records tape nodes is named by
    some OPS row, so its gradient is finite-difference checked."""
    not_ops = {"constant", "backward"}  # a leaf, and the pass that runs the tape
    public = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")} - not_ops
    named = set()
    for op, _ in OPS.values():
        named |= set(op.__code__.co_names) if op.__name__ == "<lambda>" else {op.__name__}
    assert sorted(public - named) == []


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradients_match_finite_differences(name):
    op, shapes = OPS[name]
    # the module-wide gradient property: quantified over >= 100 seeds per op
    for seed in range(100):
        fd_check(op, _rng_arrays(seed, shapes), seed)


def test_conv2d_identity_kernel():
    x = np.random.default_rng(0).uniform(size=(1, 3, 3, 1)).astype(np.float32)
    w = np.zeros((1, 1, 1, 1), dtype=np.float32)
    w[0, 0, 0, 0] = 1.0
    out = ad.conv2d(Tensor(x), Tensor(w), stride=1, padding="same")
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_matches_direct_summation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding="same").data
    want = conv2d_reference(x, w, b, stride=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("stride,padding,shape,expected", [
    (4, "same", (80, 80, 3), (20, 20)),
    (1, "same", (7, 7, 1), (7, 7)),
])
def test_conv2d_output_shapes(stride, padding, shape, expected):
    k = 8 if shape[0] == 80 else 3
    cout = 4
    x = Tensor(np.zeros((1,) + shape, dtype=np.float32))
    w = Tensor(np.zeros((k, k, shape[2], cout), dtype=np.float32))
    out = ad.conv2d(x, w, stride=stride, padding=padding)
    assert out.shape[1:3] == expected


def test_sokoban_encoder_chain_shapes():
    x = Tensor(np.zeros((1, 80, 80, 3), dtype=np.float32))
    w1 = Tensor(np.zeros((8, 8, 3, 32), dtype=np.float32))
    y = ad.conv2d(x, w1, stride=4, padding="same")
    assert y.shape == (1, 20, 20, 32)
    w2 = Tensor(np.zeros((4, 4, 32, 32), dtype=np.float32))
    z = ad.conv2d(y, w2, stride=2, padding="same")
    assert z.shape == (1, 10, 10, 32)


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 8)), draw(st.integers(1, 8)),
             draw(st.integers(1, 3)))
    cout, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return shape, k, cout, stride, draw(st.integers(0, 2**32 - 1))


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=conv_cases(), dtype=st.sampled_from([np.float64, np.float32]))
def test_conv2d_matches_loop_oracles(case, dtype):
    """Forward against direct summation, x.grad and w.grad against the
    per-tap backward, over random shapes, kernels and strides."""
    shape, k, cout, stride, seed = case
    rng = np.random.default_rng(seed)
    x_np = rng.normal(size=shape).astype(dtype)
    w_np = rng.normal(size=(k, k, shape[3], cout)).astype(dtype)
    x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
    out = ad.conv2d(x, w, stride=stride)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    assert out.dtype == dtype
    assert _rel_err(out.data, conv2d_reference(x_np, w_np, stride=stride)) < tol
    g = rng.normal(size=out.shape).astype(dtype)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=dtype))))
    dx, dw = conv2d_backward_reference(x_np, w_np, g, stride=stride)
    assert x.grad.shape == shape and w.grad.shape == w_np.shape
    assert _rel_err(x.grad, dx) < tol
    assert _rel_err(w.grad, dw) < tol


@st.composite
def convlstm_cell_cases(draw):
    k, cell = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    nhw = (draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return nhw, sizes, k, cell, draw(st.integers(0, 2**32 - 1))


def _cell_oracle(tiled, w_np, c_np, gc, gh):
    """`lstm_cell_reference` on the direct-summation conv of `tiled` with
    `w_np`: (c, h, d tiled, d w, d c_prev)."""
    c, h, d_pre, dc_prev = lstm_cell_reference(conv2d_reference(tiled, w_np), c_np, gc, gh)
    return (c, h) + conv2d_backward_reference(tiled, w_np, d_pre) + (dc_prev,)


def _cell_loss(c, h, gc, gh):
    """The loss sum(c * gc) + sum(h * gh), whose output gradients are gc and gh."""
    return ad.add(ad.sum_all(ad.mul(c, ad.constant(gc, gc.dtype))),
                  ad.sum_all(ad.mul(h, ad.constant(gh, gh.dtype))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=convlstm_cell_cases(), dtype=st.sampled_from([np.float64, np.float32]))
def test_convlstm_cell_matches_loop_oracles(case, dtype):
    """c, h and the gradients of each input map, the kernel and c_prev
    against the LSTM cell on the direct summation, and its backward on the
    per-tap backward, of a conv over the maps' concatenation: 1-3 maps split
    along channels, on grids down to 1 x 1, with odd and even kernels."""
    (n, h, wd), sizes, k, cell, seed = case
    rng = np.random.default_rng(seed)
    maps = [rng.normal(size=(n, h, wd, c)).astype(dtype) for c in sizes]
    w_np = rng.normal(scale=0.5, size=(k, k, sum(sizes), 4 * cell)).astype(dtype)
    c_np, gc, gh = rng.normal(size=(3, n, h, wd, cell)).astype(dtype)
    xs = [Tensor(m, requires_grad=True) for m in maps]
    w, c_prev = Tensor(w_np, requires_grad=True), Tensor(c_np, requires_grad=True)
    c, h_out = ad.convlstm_cell(xs, w, [], c_prev)
    ad.backward(_cell_loss(c, h_out, gc, gh))
    want = _cell_oracle(np.concatenate(maps, axis=-1), w_np, c_np, gc, gh)
    dxs = np.split(want[2], np.cumsum(sizes)[:-1], axis=-1)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    for got, ref in zip([c.data, h_out.data] + [x.grad for x in xs] + [w.grad, c_prev.grad],
                        list(want[:2]) + dxs + list(want[3:]), strict=True):
        assert got.dtype == dtype and got.shape == ref.shape
        assert _rel_err(got, ref) < tol


def _check_pool_term(rng, k, hw):
    """`convlstm_cell`'s pool term alone (zero map, zero kernel), pool
    (2, 3) spread over an `hw` grid, against the LSTM cell on direct
    summation over the explicitly tiled input: float64 c, h and the
    gradients of the pool, of its (K, K, 3, 4) kernel and of c_prev, to a
    relative error of 1e-12."""
    pool_np, wp_np = rng.normal(size=(2, 3)), rng.normal(size=(k, k, 3, 4))
    c_np, gc, gh = rng.normal(size=(3, 2) + hw + (1,))
    as_matrix = lambda w: w.transpose(2, 0, 1, 3).reshape(3, -1)
    pool, w_pool = Tensor(pool_np, requires_grad=True), Tensor(as_matrix(wp_np), requires_grad=True)
    c_prev = Tensor(c_np, requires_grad=True)
    zeros = Tensor(np.zeros((2,) + hw + (1,)))
    c, h = ad.convlstm_cell([zeros], Tensor(np.zeros((k, k, 1, 4))), [], c_prev, pool, w_pool)
    ad.backward(_cell_loss(c, h, gc, gh))
    tiled = np.broadcast_to(pool_np[:, None, None, :], (2,) + hw + (3,))
    c_ref, h_ref, dx, dw, dc_prev = _cell_oracle(tiled, wp_np, c_np, gc, gh)
    for got, want in ((c.data, c_ref), (h.data, h_ref), (pool.grad, dx.sum(axis=(1, 2))),
                      (w_pool.grad, as_matrix(dw)), (c_prev.grad, dc_prev)):
        assert _rel_err(got, want) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_convlstm_cell_pool_term_matches_conv_of_the_tiled_input(k):
    rng = np.random.default_rng(k)
    for hw in ((3, 5), (4, 2), (1, 3), (3, 4)):
        _check_pool_term(rng, k, hw)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gate_conv_is_the_chain_it_replaces(k):
    """The gate preactivation `convlstm_cell` computes (one `_conv` over
    several maps plus several bases) against concat -> conv2d -> add: the
    same float32 values bit for bit, and the same gradients. Its pool term is
    checked against the conv of the tiled pool, as above."""
    rng = np.random.default_rng(k)
    arrays = [rng.normal(size=s).astype(np.float32) for s in
              ((2, 3, 4, 2), (2, 3, 4, 3), (k, k, 5, 6), (2, 3, 4, 6), (6,))]
    g = ad.constant(rng.normal(size=(2, 3, 4, 6)))

    def run(fused):
        x1, x2, w, base, b = tensors = [Tensor(a, requires_grad=True) for a in arrays]
        if fused:
            out = ad._node(*ad._conv("convlstm_cell", [x1, x2], w, [base, b]))
        else:
            out = ad.add(ad.add(ad.conv2d(ad.concat([x1, x2]), w), base), b)
        ad.backward(ad.sum_all(ad.mul(out, g)))
        return out.data, [t.grad for t in tensors]

    (fused, fused_grads), (chain, chain_grads) = run(True), run(False)
    np.testing.assert_array_equal(fused, chain)
    for got, want in zip(fused_grads, chain_grads, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    _check_pool_term(rng, k, (3, 4))
    with pytest.raises(ShapeError, match="^convlstm_cell: inputs"):
        ad._conv("convlstm_cell", [Tensor(arrays[0])], Tensor(np.zeros((k, k, 5, 6))), [])


def test_conv_takes_maps_and_kernels_in_one_layout():
    """Each convolution op reads (N, H, W, C) maps and (K, K, sum(C), Cout)
    kernels only: vectors and im2col-matrix kernels are refused, naming the op."""
    maps = [Tensor(np.zeros((2, 1, 1, 3))), Tensor(np.zeros((2, 1, 1, 1)))]
    vectors = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1)))]
    kernel, matrix = Tensor(np.zeros((1, 1, 4, 8))), Tensor(np.zeros((4, 8)))
    c_prev = Tensor(np.zeros((2, 1, 1, 2)))
    ops = {"conv2d": lambda xs, w: ad.conv2d(ad.concat(xs), w),
           "convlstm_cell": lambda xs, w: ad.convlstm_cell(xs, w, [], c_prev)[0]}
    for name, op in ops.items():
        assert op(maps, kernel).shape[:3] == (2, 1, 1)
        for xs, w in ((vectors, kernel), (maps, matrix), (maps, Tensor(np.zeros((1, 2, 4, 8))))):
            with pytest.raises(ShapeError, match=f"^{name}: inputs"):
                op(xs, w)


def test_accumulate_stores_a_whole_view_and_copies_a_partial_one():
    """A first gradient that views all of its base is stored without a
    copy; a slice or a broadcast, which would keep a larger buffer alive, is
    copied."""
    base = np.arange(12.0)
    for g, shared in ((base.reshape(3, 4), True), (base.reshape(6, 2)[:3], False),
                      (np.broadcast_to(base[:4], (3, 4)), False)):
        t = Tensor(np.zeros((3, 4)), requires_grad=True)
        ad._accumulate(t, g)
        assert np.shares_memory(t.grad, base) == shared
        np.testing.assert_array_equal(t.grad, g)


def test_no_leaf_gradient_is_a_view_of_a_larger_base():
    for name, (op, shapes) in OPS.items():
        tensors = [Tensor(a, requires_grad=True) for a in _rng_arrays(0, shapes)]
        ad.backward(ad.sum_all(op(*tensors)))
        for i, t in enumerate(tensors):
            assert t.grad.base is None or t.grad.base.nbytes == t.grad.nbytes, (name, i)


def test_release_drops_a_value_and_refuses_a_parameter():
    """`release` empties an interior node, while a leaf that requires grad
    (a parameter) keeps its value. A released node prints as released, and
    reading its array's attributes raises, naming `release`."""
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    pre = ad.mul(w, w)
    ad.release(pre)
    assert pre.data is None
    assert repr(pre) == "Tensor(released, requires_grad=True)"
    for name in ("shape", "ndim", "size", "dtype"):
        with pytest.raises(RuntimeError, match=f"has no {name}: autodiff.release dropped its value$"):
            getattr(pre, name)
    with pytest.raises(ValueError, match="leaf that requires grad"):
        ad.release(w)
    np.testing.assert_array_equal(w.data, np.ones((2, 3)))


def test_convlstm_cell_matches_gate_formula():
    """An identity 1 x 1 kernel hands the cell `raw` as its preactivation."""
    rng = np.random.default_rng(4)
    raw, c_prev = rng.normal(size=(2, 3, 3, 8)), rng.normal(size=(2, 3, 3, 2))
    eye = lambda n: Tensor(np.eye(n).reshape(1, 1, n, n))
    c, h = ad.convlstm_cell([Tensor(raw)], eye(8), [], Tensor(c_prev))
    sig = lambda z: 1 / (1 + np.exp(-z))
    f, i, o, g = np.split(raw, 4, axis=-1)
    c_ref = sig(f) * c_prev + sig(i) * np.tanh(g)
    np.testing.assert_allclose(c.data, c_ref, rtol=1e-12)
    np.testing.assert_allclose(h.data, sig(o) * np.tanh(c_ref), rtol=1e-12)
    with pytest.raises(ShapeError, match="convlstm_cell: gates"):
        ad.convlstm_cell([Tensor(raw)], eye(8), [], Tensor(rng.normal(size=(2, 3, 3, 3))))
    with pytest.raises(ShapeError, match="convlstm_cell: inputs"):
        ad.convlstm_cell([Tensor(raw)], eye(9), [], Tensor(c_prev))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_convlstm_cell_is_the_chain_it_replaces(k):
    """One `convlstm_cell` op against the chain of public ops it fuses:
    conv2d over the concatenated maps, an `add` per base, each gate's
    channels picked by a 0/1 selector `matmul`, then the cell formula. The
    same float32 and float64 values bit for bit, and float64 gradients
    within 1e-12. (The pool term has no public op; its oracle is
    `_check_pool_term`.)"""
    rng = np.random.default_rng(k)
    shapes = ((2, 3, 4, 2), (2, 3, 4, 3), (k, k, 5, 8), (2, 3, 4, 8), (8,), (2, 3, 4, 2))
    arrays = [rng.normal(size=s) for s in shapes]
    gc, gh = rng.normal(size=(2, 2, 3, 4, 2))

    def run(fused, dtype):
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        x1, x2, w, base, b, c_prev = tensors
        if fused:
            c, h = ad.convlstm_cell([x1, x2], w, [base, b], c_prev)
        else:
            pre = ad.reshape(ad.add(ad.add(ad.conv2d(ad.concat([x1, x2]), w), base), b), (-1, 8))
            f, i, o, g = (ad.reshape(ad.matmul(pre, ad.constant(np.eye(8)[:, 2 * j:2 * j + 2], dtype)),
                                     c_prev.shape) for j in range(4))
            c = ad.add(ad.mul(ad.sigmoid(f), c_prev), ad.mul(ad.sigmoid(i), ad.tanh(g)))
            h = ad.mul(ad.sigmoid(o), ad.tanh(c))
        out = [c.data, h.data]
        if dtype == np.float64:
            ad.backward(_cell_loss(c, h, gc, gh))
        return out, [t.grad for t in tensors]

    for dtype in (np.float32, np.float64):
        (fused, fused_grads), (chain, chain_grads) = run(True, dtype), run(False, dtype)
        for got, want in zip(fused, chain):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
    for got, want in zip(fused_grads, chain_grads, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_channel_mismatch_error():
    x = Tensor(np.zeros((1, 4, 4, 3), dtype=np.float32))
    w = Tensor(np.zeros((3, 3, 2, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="channel"):
        ad.conv2d(x, w)


def test_conv2d_rejects_any_padding_but_same():
    x = Tensor(np.zeros((1, 7, 7, 1)))
    w = Tensor(np.zeros((3, 3, 1, 4)))
    for padding in ("valid", "SAME"):
        with pytest.raises(ValueError, match=repr(padding)):
            ad.conv2d(x, w, stride=1, padding=padding)


def test_conv2d_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
    y = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
    w = Tensor(rng.normal(size=(3, 3, 3, 4)).astype(np.float32))
    a, b = 1.7, -0.4
    lhs = ad.conv2d(Tensor(a * x + b * y), w, stride=1, padding="same").data
    rhs = (a * ad.conv2d(Tensor(x), w, stride=1, padding="same").data
           + b * ad.conv2d(Tensor(y), w, stride=1, padding="same").data)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


def test_elementwise_shape_mismatch_error():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.mul(a, b)


SPATIAL_POOLS = {"max": ad.spatial_max, "mean": ad.spatial_mean}


def test_pool_spatial_constant_and_onehot():
    const = np.full((1, 4, 5, 3), 2.5, dtype=np.float32)
    for pool in SPATIAL_POOLS.values():
        out = pool(Tensor(const)).data
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out.reshape(-1), 2.5)
    onehot = np.zeros((1, 4, 5, 1), dtype=np.float64)
    onehot[0, 2, 3, 0] = 1.0
    assert ad.spatial_max(Tensor(onehot)).data.item() == 1.0
    assert ad.spatial_mean(Tensor(onehot)).data.item() == pytest.approx(1 / 20)


def test_pool_spatial_matches_scan_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 5, 3))
    for mode, pool in SPATIAL_POOLS.items():
        got = pool(Tensor(x)).data
        for n in range(2):
            np.testing.assert_array_equal(got[n], pool_spatial_reference(x[n], mode))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_actor_critic_loss_is_the_chain_it_replaces(dtype, tol):
    """One `actor_critic_loss` node against `actor_critic_loss_reference`,
    the log-softmax, gather and mean chain it replaces, run in float64 on
    the same inputs: T = 3 steps of 4 rows and 5 actions, every cost
    nonzero. The loss, its four means and each step's logit and value
    gradients agree within `tol` (relative), and the gradients keep the
    inputs' dtype."""
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=2.0, size=(3, 4, 5)).astype(dtype)
    values = rng.normal(size=(3, 4)).astype(dtype)
    actions = rng.integers(0, 5, size=12)
    advantages, targets = rng.normal(size=(2, 12))
    costs = (0.5, 0.3, 0.2)
    ls, vs = [[Tensor(x, requires_grad=True) for x in arrays] for arrays in (logits, values)]
    loss, terms = ad.actor_critic_loss(ls, vs, actions, advantages, targets, costs)
    ad.backward(loss)
    want_loss, want_terms, dz, dv = actor_critic_loss_reference(
        logits.reshape(12, 5), values.reshape(12), actions, advantages, targets, costs)
    assert sorted(terms) == sorted(want_terms)
    for got, want in [(loss.data, want_loss), *((terms[k], want_terms[k]) for k in terms),
                      (np.concatenate([t.grad for t in ls]), dz), (np.concatenate([t.grad for t in vs]), dv)]:
        assert _rel_err(np.asarray(got), want) < tol
    assert loss.dtype == dtype and all(t.grad.dtype == dtype for t in ls + vs)
    with pytest.raises(ShapeError, match="^actor_critic_loss: 12 logit rows"):
        ad.actor_critic_loss(ls, vs, actions[:-1], advantages, targets, costs)


def test_backward_requires_scalar_and_finite():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.add(t, t))
    bad = Tensor(np.array(np.inf), requires_grad=True, _parents=(t,), _backward=lambda g: None)
    with pytest.raises(FloatingPointError):
        ad.backward(bad)


def test_no_grad_suppresses_tape():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.mul(t, t)
    assert out._backward is None and not out.requires_grad


def test_deep_graph_backward_no_recursion_limit():
    t = Tensor(np.ones(4), requires_grad=True)
    x = t
    for _ in range(3000):
        x = ad.mul(x, ad.constant(np.ones(4)))
    ad.backward(ad.sum_all(x))
    np.testing.assert_allclose(t.grad, 1.0)

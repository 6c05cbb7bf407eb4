"""Op-level checks for the autodiff core: forward semantics against naive
oracles, and analytic gradients against central finite differences."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcplan import autodiff as ad
from drcplan.autodiff import ShapeError, Tensor

from oracles import conv2d_backward_reference, conv2d_reference, pool_spatial_reference

EPS = 1e-5
TOL = 1e-4


def fd_check(op, arrays, seed):
    """Compare backprop gradients of sum(op(*inputs)) with central FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]

    def loss():
        return ad.sum_all(op(*tensors))

    root = loss()
    ad.backward(root)
    grads = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPS
            with ad.no_grad():
                up = float(loss().data)
            flat[i] = orig - EPS
            with ad.no_grad():
                down = float(loss().data)
            flat[i] = orig
            num = (up - down) / (2 * EPS)
            worst = max(worst, abs(num - gf[i]) / max(abs(num), abs(gf[i]), 1e-6))
    assert worst < TOL, f"seed {seed}: max rel err {worst:.2e}"


def _rng_arrays(seed, shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s).astype(np.float64) for s in shapes]


OPS = {
    "add": (lambda a, b: ad.add(a, b), [(2, 3), (2, 3)]),
    "add_broadcast": (lambda a, b: ad.add(a, b), [(2, 3), (3,)]),
    "sub": (lambda a, b: ad.sub(a, b), [(2, 3), (2, 3)]),
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
    # two maps on a non-square grid, a per-row and a broadcast base, and the
    # pool term; squared so that every gradient depends on the position
    "gate_conv_k3_pool": (lambda x1, x2, w, base, b, pool, wp: ad.square(
        ad.gate_conv([x1, x2], w, [base, b], pool, wp)),
        [(2, 3, 4, 2), (2, 3, 4, 1), (27, 2), (2, 3, 4, 2), (1, 3, 4, 2), (2, 2), (2, 18)]),
    # an even kernel pads one more row and column at the bottom/right
    "gate_conv_even_k": (lambda x, w, b: ad.square(ad.gate_conv([x], w, [b])),
                         [(1, 3, 3, 2), (8, 2), (2,)]),
    # the pool term of an even kernel, whose taps overhang one side more
    "gate_conv_even_k_pool": (lambda x, w, pool, wp: ad.square(ad.gate_conv([x], w, [], pool, wp)),
                              [(2, 3, 2, 1), (4, 2), (2, 2), (2, 8)]),
    # vectors as a 1 x 1 grid: the vector LSTM's dense gate
    "gate_conv_vectors": (lambda h1, h2, w, base: ad.square(ad.gate_conv([h1, h2], w, [base])),
                          [(3, 2), (3, 1), (3, 4), (3, 4)]),
    "relu": (ad.relu, [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "tanh": (ad.tanh, [(3, 4)]),
    # the whole ConvLSTM update: two maps, a per-row and a broadcast base,
    # an even kernel's pool term; c * h puts both outputs in the loss, and
    # h's path through c. Few input channels keep the gates off saturation,
    # where gradients of 1e-7 drown in the differences' rounding
    "convlstm_cell": (lambda x1, x2, w, base, b, c, pool, wp: ad.mul(
        *ad.convlstm_cell([x1, x2], w, [base, b], c, pool, wp)),
        [(2, 3, 2, 1), (2, 3, 2, 1), (8, 8), (2, 3, 2, 8), (1, 3, 2, 8), (2, 3, 2, 2), (2, 1), (1, 32)]),
    "exp": (ad.exp, [(3, 4)]),
    "sum_all": (ad.sum_all, [(3, 4)]),
    "log_softmax": (ad.log_softmax, [(4, 5)]),
    "mean_all": (ad.mean_all, [(3, 4)]),
    "sum_axis": (lambda a: ad.sum_axis(a, -1), [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (6, 2)), [(3, 4)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=-1), [(2, 3), (2, 2)]),
    "split": (lambda a: ad.mul(*ad.split(a, 2, axis=-1)), [(2, 4)]),
    "spatial_max": (ad.spatial_max, [(2, 3, 3, 2)]),
    "spatial_mean": (ad.spatial_mean, [(2, 3, 3, 2)]),
    # `add` hands `a` and `b` one gradient array; `a`'s chunks must not write into it
    "split_after_add": (lambda a, b: ad.concat([ad.square(ad.add(a, b)), ad.mul(*ad.split(a, 2, axis=0))],
                                               axis=0), [(2, 3), (2, 3)]),
    "gather": (lambda a: ad.gather_last(a, np.array([1, 0, 2])), [(3, 4)]),
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
def gate_conv_cases(draw):
    k, cout = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    vectors = draw(st.booleans())
    hw = (1, 1) if vectors else (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return (draw(st.integers(1, 2)),) + hw, vectors, sizes, k, cout, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=gate_conv_cases(), dtype=st.sampled_from([np.float64, np.float32]))
def test_gate_conv_matches_loop_oracles(case, dtype):
    """Forward, each input's gradient and the kernel's against direct
    summation and the per-tap backward of a conv over the inputs'
    concatenation: 1-3 maps, or N x 1 x 1 vectors, split along channels,
    with odd and even kernels."""
    (n, h, wd), vectors, sizes, k, cout, seed = case
    rng = np.random.default_rng(seed)
    maps = [rng.normal(size=(n, h, wd, c)).astype(dtype) for c in sizes]
    w_np = rng.normal(size=(k, k, sum(sizes), cout)).astype(dtype)
    xs = [Tensor(m.reshape(n, -1) if vectors else m, requires_grad=True) for m in maps]
    w = Tensor(w_np.reshape(-1, cout), requires_grad=True)
    out = ad.gate_conv(xs, w, [])
    x_np = np.concatenate(maps, axis=-1)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    assert out.dtype == dtype
    assert _rel_err(out.data.reshape(n, h, wd, cout), conv2d_reference(x_np, w_np)) < tol
    g = rng.normal(size=out.shape).astype(dtype)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=dtype))))
    dx, dw = conv2d_backward_reference(x_np, w_np, g.reshape(n, h, wd, cout))
    for x, want in zip(xs, np.split(dx, np.cumsum(sizes)[:-1], axis=-1)):
        assert x.grad.shape == x.shape
        assert _rel_err(x.grad, want.reshape(x.shape)) < tol
    assert _rel_err(w.grad, dw.reshape(-1, cout)) < tol


def _check_pool_term(rng, k, hw):
    """`gate_conv`'s pool term alone (zero map, zero kernel), pool (2, 3)
    spread over an `hw` grid, against direct summation over the explicitly
    tiled input: float64 values and the gradients of the pool and of its
    (K, K, 3, 2) kernel, to a relative error of 1e-12."""
    pool_np, wp_np = rng.normal(size=(2, 3)), rng.normal(size=(k, k, 3, 2))
    as_matrix = lambda w: w.transpose(2, 0, 1, 3).reshape(3, -1)
    pool, w_pool = Tensor(pool_np, requires_grad=True), Tensor(as_matrix(wp_np), requires_grad=True)
    zeros = Tensor(np.zeros((2,) + hw + (1,)))
    out = ad.gate_conv([zeros], Tensor(np.zeros((k * k, 2))), [], pool, w_pool)
    tiled = np.broadcast_to(pool_np[:, None, None, :], (2,) + hw + (3,))
    assert _rel_err(out.data, conv2d_reference(tiled, wp_np, stride=1)) < 1e-12
    g = rng.normal(size=out.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=np.float64))))
    dx, dw = conv2d_backward_reference(tiled, wp_np, g)
    assert _rel_err(pool.grad, dx.sum(axis=(1, 2))) < 1e-12
    assert _rel_err(w_pool.grad, as_matrix(dw)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gate_conv_pool_term_matches_conv_of_the_tiled_input(k):
    rng = np.random.default_rng(k)
    for hw in ((3, 5), (4, 2), (1, 3)):
        _check_pool_term(rng, k, hw)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gate_conv_is_the_chain_it_replaces(k):
    """One `gate_conv` node against concat -> conv2d -> add: the same
    float32 values bit for bit, and the same gradients. Its pool term is
    checked against the conv of the tiled pool, as above."""
    rng = np.random.default_rng(k)
    arrays = [rng.normal(size=s).astype(np.float32) for s in
              ((2, 3, 4, 2), (2, 3, 4, 3), (k, k, 5, 6), (2, 3, 4, 6))]
    g = ad.constant(rng.normal(size=(2, 3, 4, 6)))

    def run(fused):
        x1, x2, w, base = tensors = [Tensor(a, requires_grad=True) for a in arrays]
        if fused:
            out = ad.gate_conv([x1, x2], ad.reshape(w, (-1, 6)), [base])
        else:
            out = ad.add(ad.conv2d(ad.concat([x1, x2]), w), base)
        ad.backward(ad.sum_all(ad.mul(out, g)))
        return out.data, [t.grad for t in tensors]

    (fused, fused_grads), (chain, chain_grads) = run(True), run(False)
    np.testing.assert_array_equal(fused, chain)
    for got, want in zip(fused_grads, chain_grads):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    _check_pool_term(rng, k, (3, 4))
    with pytest.raises(ShapeError, match="gate_conv"):
        ad.gate_conv([Tensor(arrays[0])], Tensor(np.zeros((k * k * 5, 6))), [])


def test_split_rejects_sizes_that_do_not_cover_the_axis():
    w = Tensor(np.zeros((2, 1, 4, 3)))
    with pytest.raises(ShapeError, match="divisible"):
        ad.split(w, 3, axis=-2)


def test_convlstm_cell_matches_gate_formula():
    """An identity 1 x 1 kernel hands the cell `raw` as its preactivation."""
    rng = np.random.default_rng(4)
    raw, c_prev = rng.normal(size=(2, 3, 3, 8)), rng.normal(size=(2, 3, 3, 2))
    c, h = ad.convlstm_cell([Tensor(raw)], Tensor(np.eye(8)), [], Tensor(c_prev))
    sig = lambda z: 1 / (1 + np.exp(-z))
    f, i, o, g = np.split(raw, 4, axis=-1)
    c_ref = sig(f) * c_prev + sig(i) * np.tanh(g)
    np.testing.assert_allclose(c.data, c_ref, rtol=1e-12)
    np.testing.assert_allclose(h.data, sig(o) * np.tanh(c_ref), rtol=1e-12)
    with pytest.raises(ShapeError, match="convlstm_cell: gates"):
        ad.convlstm_cell([Tensor(raw)], Tensor(np.eye(8)), [], Tensor(rng.normal(size=(2, 3, 3, 3))))
    with pytest.raises(ShapeError, match="convlstm_cell: inputs"):
        ad.convlstm_cell([Tensor(raw)], Tensor(np.eye(9)), [], Tensor(c_prev))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_convlstm_cell_is_the_chain_it_replaces(k):
    """One `convlstm_cell` op against `gate_conv` followed by the cell
    formula in separate ops: the same float32 and float64 values bit for
    bit, and float64 gradients within 1e-12, pool term included."""
    rng = np.random.default_rng(k)
    shapes = ((2, 3, 4, 2), (2, 3, 4, 3), (k * k * 5, 8), (2, 3, 4, 8), (8,), (2, 3, 4, 2), (2, 3),
              (3, k * k * 8))
    arrays = [rng.normal(size=s) for s in shapes]
    gc, gh = (ad.constant(rng.normal(size=(2, 3, 4, 2)), dtype=np.float64) for _ in range(2))

    def run(fused, dtype):
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        x1, x2, w, base, b, c_prev, pool, wp = tensors
        if fused:
            c, h = ad.convlstm_cell([x1, x2], w, [base, b], c_prev, pool, wp)
        else:
            f, i, o, g = ad.split(ad.gate_conv([x1, x2], w, [base, b], pool, wp), 4, axis=-1)
            c = ad.add(ad.mul(ad.sigmoid(f), c_prev), ad.mul(ad.sigmoid(i), ad.tanh(g)))
            h = ad.mul(ad.sigmoid(o), ad.tanh(c))
        out = [c.data, h.data]
        if dtype == np.float64:
            ad.backward(ad.add(ad.sum_all(ad.mul(c, gc)), ad.sum_all(ad.mul(h, gh))))
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


def test_log_softmax_normalises():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(6, 5)) * 10)
    p = np.exp(ad.log_softmax(logits).data)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)


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

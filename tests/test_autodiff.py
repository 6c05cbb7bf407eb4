"""Op-level checks for the autodiff core: forward semantics against naive
oracles, and analytic gradients against central finite differences."""

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
    "matmul": (lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)]),
    "conv_same": (lambda x, w, b: ad.conv2d(x, w, b, stride=1, padding="same"),
                  [(2, 4, 4, 2), (3, 3, 2, 3), (3,)]),
    "conv_stride2_valid": (lambda x, w: ad.conv2d(x, w, stride=2, padding="valid"),
                           [(1, 5, 5, 2), (3, 3, 2, 2)]),
    # the Sokoban encoder's second conv (K=4 > stride=2, "same") on a 7 x 6
    # input: rows pad 1 top / 2 bottom, columns 1 / 1
    "conv_stride2_same_even_kernel": (lambda x, w: ad.conv2d(x, w, stride=2, padding="same"),
                                      [(1, 7, 6, 2), (4, 4, 2, 2)]),
    # the last input row and column lie in no window
    "conv_stride3_valid_remainder": (lambda x, w: ad.conv2d(x, w, stride=3, padding="valid"),
                                     [(1, 7, 7, 2), (3, 3, 2, 2)]),
    "relu": (ad.relu, [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "tanh": (ad.tanh, [(3, 4)]),
    "exp": (ad.exp, [(3, 4)]),
    "log_softmax": (ad.log_softmax, [(4, 5)]),
    "mean_all": (ad.mean_all, [(3, 4)]),
    "sum_axis": (lambda a: ad.sum_axis(a, -1), [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (6, 2)), [(3, 4)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=-1), [(2, 3), (2, 2)]),
    "split": (lambda a: ad.mul(*ad.split(a, 2, axis=-1)), [(2, 4)]),
    "spatial_max": (ad.spatial_max, [(2, 3, 3, 2)]),
    "spatial_mean": (ad.spatial_mean, [(2, 3, 3, 2)]),
    "tile_spatial": (lambda a: ad.tile_spatial(a, 3, 4), [(2, 5)]),
    "gather": (lambda a: ad.gather_last(a, np.array([1, 0, 2])), [(3, 4)]),
}


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
    want = conv2d_reference(x, w, b, stride=1, padding="same")
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("stride,padding,shape,expected", [
    (4, "same", (80, 80, 3), (20, 20)),
    (1, "same", (7, 7, 1), (7, 7)),
    (2, "valid", (7, 7, 1), (3, 3)),
    (1, "valid", (7, 7, 1), (5, 5)),
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
    padding = draw(st.sampled_from(["same", "valid"]))
    lo = k if padding == "valid" else 1
    shape = (draw(st.integers(1, 2)), draw(st.integers(lo, 8)), draw(st.integers(lo, 8)),
             draw(st.integers(1, 3)))
    cout, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return shape, k, cout, stride, padding, draw(st.integers(0, 2**32 - 1))


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=conv_cases(), dtype=st.sampled_from([np.float64, np.float32]))
def test_conv2d_matches_loop_oracles(case, dtype):
    """Forward against direct summation, x.grad and w.grad against the
    per-tap backward, over random shapes, kernels, strides and padding."""
    shape, k, cout, stride, padding, seed = case
    rng = np.random.default_rng(seed)
    x_np = rng.normal(size=shape).astype(dtype)
    w_np = rng.normal(size=(k, k, shape[3], cout)).astype(dtype)
    x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
    out = ad.conv2d(x, w, stride=stride, padding=padding)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    assert out.dtype == dtype
    assert _rel_err(out.data, conv2d_reference(x_np, w_np, stride=stride, padding=padding)) < tol
    g = rng.normal(size=out.shape).astype(dtype)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=dtype))))
    dx, dw = conv2d_backward_reference(x_np, w_np, g, stride=stride, padding=padding)
    assert x.grad.shape == shape and w.grad.shape == w_np.shape
    assert _rel_err(x.grad, dx) < tol
    assert _rel_err(w.grad, dw) < tol


def test_conv2d_channel_mismatch_error():
    x = Tensor(np.zeros((1, 4, 4, 3), dtype=np.float32))
    w = Tensor(np.zeros((3, 3, 2, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="channel"):
        ad.conv2d(x, w)


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

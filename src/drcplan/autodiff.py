"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is not a general autodiff system: it implements exactly the op set the
rest of the library needs (dense layers, 2D convolution, gate nonlinearities,
spatial pooling, softmax losses). Image tensors are batched NHWC arrays,
(N, H, W, C).

Training runs in float32; gradient verification runs in float64 (central
finite differences are unreliable at single precision). The dtype of a
computation is carried by its leaf arrays.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape recording (pure numpy forward)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    `grad` accumulates during `backward()`. `_backward(g)` pushes the output
    gradient `g` into the parents' `grad` fields.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(x, dtype=np.float32):
    """A leaf tensor that never receives gradient."""
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data, parents, backward):
    """Create a result tensor, recording the tape edge only when needed."""
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) and g.base is not None else np.asarray(g)
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(a_shape, b_shape, op):
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a_shape} and {b_shape} are not compatible")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    if a.shape != b.shape:
        _check_broadcast(a.shape, b.shape, "add")
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b):
    if a.shape != b.shape:
        _check_broadcast(a.shape, b.shape, "sub")
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b):
    if a.shape != b.shape:
        _check_broadcast(a.shape, b.shape, "mul")
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), backward)


def square(a):
    return mul(a, a)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """2D matrix product (rows, k) @ (k, cols)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected 2D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape[1]} vs {b.shape[0]}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def dense(x, w, b=None):
    """Affine map over the last axis of a 2D input: x @ w + b."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


# ---------------------------------------------------------------------------
# 2D convolution, NHWC x (K, K, Cin, Cout)


def _same_pad(size, k, stride):
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return out, lo, total - lo  # extra padding goes on the bottom/right


def conv2d(x, w, b=None, stride=1, padding="same"):
    """Convolve NHWC input with a (K, K, Cin, Cout) kernel.

    `padding` is "same" (output spatial dims ceil(in/stride), zero padded)
    or "valid" (floor((in - K)/stride) + 1).

    Forward is one matmul over the im2col matrix `cols` (N*OH*OW, K*K*Cin).
    Backward rebuilds `cols` from the padded input instead of keeping it, so
    it stays transient; then dW = cols^T g is one matmul, and dX is one matmul
    dcols = g W^T followed by a col2im of K*K strided adds.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d: expected rank 4 input, got shape {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: expected rank 4 kernel, got shape {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(
            f"conv2d: input channel dimension {x.shape[3]} does not match kernel Cin {w.shape[2]}"
        )
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d: only square kernels supported, got {w.shape[:2]}")
    k = w.shape[0]
    if k < 1 or stride < 1:
        raise ShapeError(f"conv2d: kernel size {k} and stride {stride} must be >= 1")

    n, h, width, cin = x.shape
    cout = w.shape[3]
    if padding == "same":
        out_h, pad_top, pad_bot = _same_pad(h, k, stride)
        out_w, pad_left, pad_right = _same_pad(width, k, stride)
    elif padding == "valid":
        if h < k or width < k:
            raise ShapeError(f"conv2d: valid padding needs input >= kernel, got {(h, width)} vs {k}")
        out_h = (h - k) // stride + 1
        out_w = (width - k) // stride + 1
        pad_top = pad_bot = pad_left = pad_right = 0
    else:
        raise ValueError(f"conv2d: unknown padding {padding!r}")

    xp = x.data
    if pad_top or pad_bot or pad_left or pad_right:
        xp = np.pad(x.data, ((0, 0), (pad_top, pad_bot), (pad_left, pad_right), (0, 0)))

    w2 = w.data.reshape(k * k * cin, cout)
    rows_out = n * out_h * out_w
    # im2col as a zero-copy window view; reshaping it gathers `cols` for one
    # matmul. Backward gathers it again: kept on the tape, `cols` would pin
    # about 3.7 MB per gate conv (B=8) until the backward pass.
    st = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(n, out_h, out_w, k, k, cin),
        strides=(st[0], st[1] * stride, st[2] * stride, st[1], st[2], st[3]))
    out_data = (view.reshape(rows_out, k * k * cin) @ w2).reshape(n, out_h, out_w, cout)
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"conv2d: bias shape {b.shape} does not match Cout {cout}")
        out_data += b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(rows_out, cout)
        if w.requires_grad:
            # unnamed, the rebuilt `cols` is freed before dcols is allocated
            dw = view.reshape(rows_out, k * k * cin).T @ g2
            _accumulate(w, dw.reshape(k, k, cin, cout))
        if x.requires_grad:
            # col2im: scatter each tap's slice of dcols back onto the windows
            dcols = (g2 @ w2.T).reshape(n, out_h, out_w, k, k, cin)
            dxp = np.zeros(xp.shape, dtype=g.dtype)
            for kh in range(k):
                rows = slice(kh, kh + (out_h - 1) * stride + 1, stride)
                for kw in range(k):
                    cs = slice(kw, kw + (out_w - 1) * stride + 1, stride)
                    dxp[:, rows, cs, :] += dcols[:, :, :, kh, kw, :]
            _accumulate(x, dxp[:, pad_top:pad_top + h, pad_left:pad_left + width, :])
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 1, 2)))

    return _node(out_data, parents, backward)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    out_data = np.maximum(a.data, 0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _node(out_data, (a,), backward)


def sigmoid(a):
    # stable logistic via tanh: sigma(x) = (1 + tanh(x/2)) / 2
    out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    out_data = out_data.astype(a.dtype, copy=False)

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def exp(a):
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_all(a):
    out_data = a.data.sum(dtype=a.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(out_data, (a,), backward)


def mean_all(a):
    scale = 1.0 / a.size
    out_data = a.data.sum(dtype=a.dtype) * scale

    def backward(g):
        _accumulate(a, np.broadcast_to(g * scale, a.shape).astype(a.dtype, copy=False))

    return _node(out_data, (a,), backward)


def sum_axis(a, axis):
    out_data = a.data.sum(axis=axis)

    def backward(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _node(out_data, (a,), backward)


def reshape(a, shape):
    shape = tuple(shape)
    out_data = a.data.reshape(shape)
    in_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(in_shape))

    return _node(out_data, (a,), backward)


def concat(tensors, axis=-1):
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(out_data, tuple(tensors), backward)


def split(a, sections, axis=-1):
    """Split into `sections` equal chunks along `axis`."""
    dim = a.shape[axis]
    if dim % sections:
        raise ShapeError(f"split: axis size {dim} not divisible into {sections} chunks")
    step = dim // sections
    outs = []
    for i in range(sections):
        lo = i * step

        def make_backward(lo):
            def backward(g):
                dg = np.zeros(a.shape, dtype=g.dtype)
                idx = [slice(None)] * a.ndim
                idx[axis] = slice(lo, lo + step)
                dg[tuple(idx)] = g
                _accumulate(a, dg)

            return backward

        idx = [slice(None)] * a.ndim
        idx[axis] = slice(lo, lo + step)
        outs.append(_node(np.ascontiguousarray(a.data[tuple(idx)]), (a,), make_backward(lo)))
    return outs


def gather_last(a, index):
    """Pick one entry along the last axis per leading position: (R, A)[r, index[r]]."""
    idx = np.asarray(index)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"gather_last: index shape {idx.shape} does not match leading dims {a.shape[:-1]}")
    taken = np.take_along_axis(a.data, idx[..., None], axis=-1)
    out_data = taken[..., 0]

    def backward(g):
        dg = np.zeros(a.shape, dtype=g.dtype)
        np.put_along_axis(dg, idx[..., None], g[..., None], axis=-1)
        _accumulate(a, dg)

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# softmax family


def log_softmax(a):
    """Log-softmax over the last axis."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - logsum

    def backward(g):
        p = np.exp(out_data)
        _accumulate(a, g - p * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# spatial pooling for NHWC tensors


def spatial_max(a):
    """Per-channel max over the two spatial axes: (N, H, W, C) -> (N, C)."""
    n, h, w, c = a.shape
    flat = a.data.reshape(n, h * w, c)
    arg = flat.argmax(axis=1)
    out_data = np.take_along_axis(flat, arg[:, None, :], axis=1)[:, 0, :]

    def backward(g):
        dflat = np.zeros((n, h * w, c), dtype=g.dtype)
        np.put_along_axis(dflat, arg[:, None, :], g[:, None, :], axis=1)
        _accumulate(a, dflat.reshape(n, h, w, c))

    return _node(out_data, (a,), backward)


def spatial_mean(a):
    n, h, w, c = a.shape
    scale = 1.0 / (h * w)
    out_data = a.data.mean(axis=(1, 2))

    def backward(g):
        _accumulate(a, np.broadcast_to(g[:, None, None, :] * scale, a.shape).astype(g.dtype, copy=False))

    return _node(out_data, (a,), backward)


def tile_spatial(a, h, w):
    """Broadcast (N, C) across space to (N, H, W, C)."""
    n, c = a.shape
    out_data = np.broadcast_to(a.data[:, None, None, :], (n, h, w, c)).copy()

    def backward(g):
        _accumulate(a, g.sum(axis=(1, 2)))

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# backward driver


def backward(root):
    """Run reverse-mode accumulation from a scalar `root`.

    Gradients land in the `.grad` field of every tensor on the tape that
    `requires_grad`. Uses an explicit stack: unroll graphs are deeper than
    the default recursion limit.
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    if not np.isfinite(root.data).all():
        raise FloatingPointError("backward: root value is not finite")

    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

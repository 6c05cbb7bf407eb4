"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is not a general autodiff system: it implements exactly the op set the
rest of the library needs: elementwise arithmetic, dense layers, 2D
convolution (`conv2d`), a fused gate preactivation (`gate_conv`) and a
fused ConvLSTM update (`convlstm_cell`: that preactivation and the LSTM cell
in one op, so no preactivation stays on the tape), all three on one
convolution forward and adjoint (`_conv`: an im2col GEMM and its col2im);
gate nonlinearities, reductions, reshaping, spatial pooling and
log-softmax. Image tensors are batched NHWC arrays, (N, H, W, C).

Training runs in float32; gradient verification runs in float64 (central
finite differences are unreliable at single precision). The dtype of a
computation is carried by its leaf arrays.
"""

from __future__ import annotations

import functools
import math

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


def _same_pad(h, w, k, stride):
    """Output size (ceil(H/stride), ceil(W/stride)) of a "same" convolution and
    its (top, bottom, left, right) zero padding. An odd total, as an even
    kernel at stride 1 needs, puts the extra row and column bottom/right."""
    oh, ow = -(-h // stride), -(-w // stride)
    th, tw = max((oh - 1) * stride + k - h, 0), max((ow - 1) * stride + k - w, 0)
    return oh, ow, (th // 2, th - th // 2, tw // 2, tw - tw // 2)


def _im2col(xs, k, stride, pads):
    """The (N*OH*OW, K*K*Cin) im2col matrix of the NHWC arrays `xs`, side by
    side along channels (Cin = sum of theirs) and zero padded by `pads`:
    row (n, oy, ox), column (tap row, tap column, channel).

    The inputs go into one zeroed buffer (np.pad costs far more per call at
    these sizes), windowed by a zero-copy strided view that the reshape
    gathers. Callers rebuild the matrix in backward rather than keep it.
    """
    top, bot, left, right = pads
    n, h, w, _ = xs[0].shape
    cin = sum(x.shape[3] for x in xs)
    xp = xs[0]
    if len(xs) > 1 or any(pads):
        xp = np.zeros((n, h + top + bot, w + left + right, cin), dtype=xs[0].dtype)
        lo = 0
        for x in xs:
            xp[:, top:top + h, left:left + w, lo:lo + x.shape[3]] = x
            lo += x.shape[3]
    oh, ow = (xp.shape[1] - k) // stride + 1, (xp.shape[2] - k) // stride + 1
    st = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(n, oh, ow, k, k, cin),
        strides=(st[0], st[1] * stride, st[2] * stride, st[1], st[2], st[3]))
    return view.reshape(n * oh * ow, k * k * cin)


def _col2im(dcols, xs, k, stride, pads):
    """The adjoint of `_im2col(xs, k, stride, pads)`: each tap's slice of
    `dcols` is added back onto the windows it was read from, and the
    gradient of each of `xs` is its slice of the unpadded result."""
    top, bot, left, right = pads
    n, h, w, _ = xs[0].shape
    cin = sum(x.shape[3] for x in xs)
    hp, wp = h + top + bot, w + left + right
    oh, ow = (hp - k) // stride + 1, (wp - k) // stride + 1
    dcols = dcols.reshape(n, oh, ow, k, k, cin)
    dxp = np.zeros((n, hp, wp, cin), dtype=dcols.dtype)
    for kh in range(k):
        rows = slice(kh, kh + (oh - 1) * stride + 1, stride)
        for kw in range(k):
            cs = slice(kw, kw + (ow - 1) * stride + 1, stride)
            dxp[:, rows, cs, :] += dcols[:, :, :, kh, kw, :]
    ends = np.cumsum([0] + [x.shape[3] for x in xs])
    return [dxp[:, top:top + h, left:left + w, lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]


def conv2d(x, w, b=None, stride=1, padding="same"):
    """Convolve NHWC input with a (K, K, Cin, Cout) kernel, plus an optional
    (Cout,) bias, to (N, ceil(H/stride), ceil(W/stride), Cout): one `_conv`
    node. "same" is the only padding; the parameter stays because perfbench's
    wrapper passes it positionally, and any other value raises ValueError."""
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
    if w.shape[0] < 1 or stride < 1:
        raise ShapeError(f"conv2d: kernel size {w.shape[0]} and stride {stride} must be >= 1")
    if padding != "same":
        raise ValueError(f"conv2d: padding {padding!r} is not supported, only 'same'")
    if b is not None and b.shape != (w.shape[3],):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match Cout {w.shape[3]}")
    return _node(*_conv("conv2d", [x], w, [] if b is None else [b], stride=stride))


@functools.lru_cache(maxsize=None)
def _uniform_taps(h, w, k, dtype):
    """(H*W, K*K) matrix of which taps of each pixel's "same", stride-1 K x K
    window fall inside the (H, W) grid, read-only: where the pool term of
    `gate_conv` lands. It depends on shapes alone, so it is built once."""
    taps = _im2col([np.ones((1, h, w, 1), dtype=dtype)], k, 1, _same_pad(h, w, k, 1)[2])
    taps.flags.writeable = False
    return taps


def _conv(op, xs, w, bases, stride=1, pool=None, w_pool=None):
    """The one convolution forward and adjoint, which `conv2d`, `gate_conv`
    and `convlstm_cell` run: returns (output array, parents, backward(g)),
    where backward pushes the output's gradient `g` into the parents.

    The output is the "same" convolution of `xs`, side by side along
    channels, with `w` ((K, K, Cin, Cout) or (K*K*Cin, Cout)) read as its
    im2col matrix, plus each of `bases` and `gate_conv`'s pool term. Forward
    and dW, dX are one GEMM each; backward rebuilds the im2col matrix
    rather than keep it, and dX goes back through col2im.
    """
    lead = xs[0].shape[:-1]
    cin = sum(x.shape[-1] for x in xs)
    cout = w.shape[-1]
    w2 = w.data.reshape(-1, cout)
    k = math.isqrt(w2.shape[0] // cin) if cin else 0
    if len(lead) not in (1, 3) or any(x.shape[:-1] != lead for x in xs) or k * k * cin != w2.shape[0]:
        raise ShapeError(f"{op}: inputs {[x.shape for x in xs]} do not fit kernel {w.shape}")
    n, h, width = lead if len(lead) == 3 else (lead[0], 1, 1)
    oh, ow, pads = _same_pad(h, width, k, stride)
    if pool is not None and (pool.shape[0] != n or w_pool.shape != (pool.shape[1], k * k * cout)):
        raise ShapeError(f"{op}: pool {pool.shape} and kernel {w_pool.shape} do not fit")
    grids = [x.data.reshape(n, h, width, -1) for x in xs]

    out_lead = (n, oh, ow) if len(lead) == 3 else lead
    out = (_im2col(grids, k, stride, pads) @ w2).reshape(out_lead + (cout,))
    for b in bases:
        out += b.data
    if pool is not None:
        taps = _uniform_taps(h, width, k, np.dtype(out.dtype))
        out += (taps @ (pool.data @ w_pool.data).reshape(n, k * k, cout)).reshape(out.shape)
    parents = tuple(xs) + (w,) + tuple(bases) + (() if pool is None else (pool, w_pool))

    def backward(g):
        for b in bases:
            _accumulate(b, _unbroadcast(g, b.shape))
        g2 = g.reshape(-1, cout)
        if w.requires_grad:
            # unnamed, the rebuilt cols is freed at once; a reshaped view of dw
            # would be copied by `_accumulate`, so a matrix `w` takes dw itself
            dw = _im2col(grids, k, stride, pads).T @ g2
            _accumulate(w, dw if w.ndim == 2 else dw.reshape(w.shape))
        if any(x.requires_grad for x in xs):
            for x, dx in zip(xs, _col2im(g2 @ w2.T, grids, k, stride, pads)):
                _accumulate(x, dx.reshape(x.shape))
        if pool is not None:
            d_tap = (taps.T @ g.reshape(n, h * width, cout)).reshape(n, -1)
            if pool.requires_grad:
                _accumulate(pool, d_tap @ w_pool.data.T)
            if w_pool.requires_grad:
                _accumulate(w_pool, pool.data.T @ d_tap)

    return out, parents, backward


def gate_conv(xs, w, bases, pool=None, w_pool=None):
    """A memory module's gate preactivation as one tape node:

        conv2d(concat(xs, axis=-1), w) + sum(bases)
            + conv2d(pool tiled over the grid, w_pool)

    `xs` are (N, H, W, C_i) maps, or (N, C_i) vectors taken as a 1 x 1 grid.
    `w` is the kernel as its (K*K*Cin, Cout) im2col matrix, rows ordered
    (tap row, tap column, channel) with Cin = sum(C_i). Each of `bases`
    broadcasts to the output. `pool` (N, P) is the spatially constant input
    of the pool term and `w_pool` its kernel as the (P, K*K*Cout) matrix
    w[kh, kw, p, o] -> [p, (kh*K + kw)*Cout + o].

    It is `conv2d`'s forward and adjoint (`_conv`) at stride 1: the inputs
    are padded straight into one im2col buffer, one GEMM writes the output,
    and the bases and the pool term are added to it in place. The pool term
    is never tiled: each pixel sums pool @ w_pool over the taps of its
    window that fall inside the grid.
    """
    return _node(*_conv("gate_conv", xs, w, bases, pool=pool, w_pool=w_pool))


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


def convlstm_cell(xs, w, bases, c_prev, pool=None, w_pool=None):
    """A ConvLSTM update as one op: the gate preactivation [f, i, o, g]
    (last axis) of `gate_conv(xs, w, bases, pool, w_pool)`, then

        c = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
        h = sigmoid(o) * tanh(c)

    Returns (c, h) as two tape nodes with a hand-written backward; h's
    parent is c, so h's backward always runs first and leaves the o-gate
    gradient for c's backward, which writes all four gate gradients at once
    and runs the preactivation's adjoint (`_conv`'s) on them. The
    preactivation itself is freed once the four gate activations are
    computed: the tape keeps sigmoid(f), sigmoid(i), sigmoid(o) and tanh(g),
    and h's backward recomputes tanh(c).
    """
    raw, parents, gate_backward = _conv("convlstm_cell", xs, w, bases, pool=pool, w_pool=w_pool)
    if raw.shape[-1] != 4 * c_prev.shape[-1] or raw.shape[:-1] != c_prev.shape[:-1]:
        raise ShapeError(f"convlstm_cell: gates {raw.shape} do not fit cell {c_prev.shape}")
    sig = lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))
    n = c_prev.shape[-1]
    gates = lambda a: [a[..., j * n:(j + 1) * n] for j in range(4)]  # views, cheaper than np.split
    f, i, o, g = gates(raw)
    sf, si, so, tg = sig(f), sig(i), sig(o), np.tanh(g)
    del raw, f, i, o, g
    c_data = sf * c_prev.data + si * tg
    d_o = []

    def backward_c(gc):
        draw = np.empty(gc.shape[:-1] + (4 * n,), dtype=gc.dtype)
        df, di, do, dg = gates(draw)
        df[...] = gc * c_prev.data * sf * (1.0 - sf)
        di[...] = gc * tg * si * (1.0 - si)
        do[...] = d_o[0] if d_o else 0.0
        dg[...] = gc * si * (1.0 - tg * tg)
        gate_backward(draw)
        _accumulate(c_prev, gc * sf)

    def backward_h(gh):
        tc = np.tanh(c.data)
        d_o.append(gh * tc * so * (1.0 - so))
        _accumulate(c, gh * so * (1.0 - tc * tc))

    c = _node(c_data, parents + (c_prev,), backward_c)
    return c, _node(so * np.tanh(c_data), (c,), backward_h)


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
    """`sections` equal chunks of `a` along `axis`, as views.

    The chunks' gradients are written into one buffer that reaches `a` as a
    single gradient, rather than one full-size gradient per chunk. The
    writes are in place, so the buffer belongs to a private node between `a`
    and its chunks: `_accumulate` may store one array as the gradient of
    several tensors, and `a`'s own gradient could be such an array.
    """
    dim = a.shape[axis]
    if dim % sections:
        raise ShapeError(f"split: axis size {dim} not divisible into {sections} chunks")
    size = dim // sections
    hub = _node(a.data, (a,), lambda g: _accumulate(a, g))
    chunks = []
    for lo in range(0, dim, size):
        idx = (slice(None),) * (axis % a.ndim) + (slice(lo, lo + size),)

        def backward(g, idx=idx):
            if hub.grad is None:
                hub.grad = np.zeros(a.shape, dtype=g.dtype)
            hub.grad[idx] = g

        chunks.append(_node(a.data[idx], (hub,), backward))
    return chunks


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


# ---------------------------------------------------------------------------
# backward driver


def backward(root):
    """Run reverse-mode accumulation from a scalar `root`.

    Gradients land in the `.grad` field of every leaf on the tape that
    `requires_grad`. Each interior node drops its gradient, closure and
    parents as soon as its own backward has run, so the tape is freed as the
    pass goes instead of holding every intermediate gradient until it ends.
    Uses an explicit stack: unroll graphs are deeper than the default
    recursion limit.
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
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, None, ()

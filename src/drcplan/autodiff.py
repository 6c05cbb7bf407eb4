"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is not a general autodiff system: it implements exactly the op set the
rest of the library needs: elementwise arithmetic, dense layers, 2D
convolution (`conv2d`) and a fused ConvLSTM update (`convlstm_cell`: the
gate preactivation and the LSTM cell in one op, so no preactivation stays on
the tape), both on one convolution forward and adjoint (`_conv`: an im2col
GEMM and its col2im); gate nonlinearities, reductions, reshaping, spatial
pooling, and the actor-critic loss as one op (`actor_critic_loss`, whose
gradients are closed forms). `sigmoid` and `tanh` are the reference chain that
tests compare `convlstm_cell` against. Every map a convolution reads or
writes is a batched NHWC array, (N, H, W, C), and every kernel is
(K, K, Cin, Cout).

A tape node keeps only the arrays its backward reads, captured in its
closure. A convolution routes its bases' gradients by the shapes it saw in
the forward, and `relu` takes its mask from its own output, so neither reads
those parents again; `release(t)` can then drop such a parent's value as soon
as the forward is done with it, while its gradient still flows.

Training runs in float32; gradient verification runs in float64 (central
finite differences are unreliable at single precision). The dtype of a
computation is carried by its leaf arrays.
"""

from __future__ import annotations

import functools

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


def _array_attribute(name):
    """A `Tensor` property that reads `name` of its array; on a tensor that
    `release` emptied it raises, saying so."""

    def get(self):
        if self.data is None:
            raise RuntimeError(f"{self!r} has no {name}: autodiff.release dropped its value")
        return getattr(self.data, name)

    return property(get)


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    `grad` accumulates during `backward()`. `_backward(g)` pushes the output
    gradient `g` into the parents' `grad` fields.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    shape, ndim, dtype, size = map(_array_attribute, ("shape", "ndim", "dtype", "size"))

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    def item(self):
        return self.data.item()

    def __repr__(self):
        if self.data is None:
            return f"Tensor(released, requires_grad={self.requires_grad})"
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


def release(t):
    """Drop the value of `t` once the forward has done with it; the node
    stays on the tape, so its gradient still flows. Safe only on a tensor
    whose consumers read neither its value nor its shape in backward: a base
    of a convolution, or the input of `relu`. A leaf that requires grad, a
    parameter, is refused."""
    if t.requires_grad and t._backward is None:
        raise ValueError(f"release: {t!r} is a leaf that requires grad; a parameter keeps its value")
    t.data = None


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # A view that covers its whole base, such as a reshape of a fresh GEMM
        # result, is stored as is. A slice or a broadcast is copied: stored,
        # it would keep the larger buffer it views alive.
        g = np.asarray(g)
        t.grad = g if g.base is None or (g.nbytes == g.base.nbytes and g.flags.forc) else g.copy()
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
    if w.shape[0] < 1 or stride < 1:
        raise ShapeError(f"conv2d: kernel size {w.shape[0]} and stride {stride} must be >= 1")
    if padding != "same":
        raise ValueError(f"conv2d: padding {padding!r} is not supported, only 'same'")
    if b is not None and b.shape != w.shape[-1:]:
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match Cout {w.shape[-1]}")
    return _node(*_conv("conv2d", [x], w, [] if b is None else [b], stride=stride))


@functools.lru_cache(maxsize=None)
def _uniform_taps(h, w, k, dtype):
    """(H*W, K*K) matrix of which taps of each pixel's "same", stride-1 K x K
    window fall inside the (H, W) grid, read-only: where the pool term of
    `convlstm_cell` lands. It depends on shapes alone, so it is built once."""
    taps = _im2col([np.ones((1, h, w, 1), dtype=dtype)], k, 1, _same_pad(h, w, k, 1)[2])
    taps.flags.writeable = False
    return taps


def _conv(op, xs, w, bases, stride=1, pool=None, w_pool=None):
    """The one convolution forward and adjoint, which `conv2d` and
    `convlstm_cell` run: returns (output array, parents, backward(g)),
    where backward pushes the output's gradient `g` into the parents.

    The output is the "same" convolution of the (N, H, W, C_i) maps `xs`,
    side by side along channels, with the (K, K, sum(C_i), Cout) kernel `w`
    read as its im2col matrix, plus each of `bases` and `convlstm_cell`'s
    pool term. The inputs are padded straight into one im2col buffer, one
    GEMM writes the output, and the bases and the pool term are added to it
    in place. Forward and dW, dX are one GEMM each; backward rebuilds the
    im2col matrix rather than keep it, and dX goes back through col2im.
    """
    cin = sum(x.shape[-1] for x in xs)
    k, cout = w.shape[0], w.shape[-1]
    if any(x.ndim != 4 or x.shape[:3] != xs[0].shape[:3] for x in xs) or w.shape != (k, k, cin, cout):
        raise ShapeError(f"{op}: inputs {[x.shape for x in xs]} do not fit kernel {w.shape}: it takes "
                         "(N, H, W, C) maps and a (K, K, their total channels, Cout) kernel")
    n, h, width = xs[0].shape[:3]
    oh, ow, pads = _same_pad(h, width, k, stride)
    if pool is not None and (pool.shape[0] != n or w_pool.shape != (pool.shape[1], k * k * cout)):
        raise ShapeError(f"{op}: pool {pool.shape} and kernel {w_pool.shape} do not fit")
    maps = [x.data for x in xs]
    w2 = w.data.reshape(-1, cout)

    out = (_im2col(maps, k, stride, pads) @ w2).reshape(n, oh, ow, cout)
    for b in bases:
        out += b.data
    if pool is not None:
        taps = _uniform_taps(h, width, k, np.dtype(out.dtype))
        out += (taps @ (pool.data @ w_pool.data).reshape(n, k * k, cout)).reshape(out.shape)
    parents = tuple(xs) + (w,) + tuple(bases) + (() if pool is None else (pool, w_pool))

    shapes = [b.shape for b in bases]  # a base may be released before backward runs

    def backward(g):
        for b, shape in zip(bases, shapes):
            _accumulate(b, _unbroadcast(g, shape))
        g2 = g.reshape(-1, cout)
        if w.requires_grad:  # unnamed, the rebuilt im2col matrix is freed at once
            _accumulate(w, (_im2col(maps, k, stride, pads).T @ g2).reshape(w.shape))
        if any(x.requires_grad for x in xs):
            for x, dx in zip(xs, _col2im(g2 @ w2.T, maps, k, stride, pads)):
                _accumulate(x, dx)
        if pool is not None:
            d_tap = (taps.T @ g.reshape(n, h * width, cout)).reshape(n, -1)
            if pool.requires_grad:
                _accumulate(pool, d_tap @ w_pool.data.T)
            if w_pool.requires_grad:
                _accumulate(w_pool, pool.data.T @ d_tap)

    return out, parents, backward


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    out_data = np.maximum(a.data, 0)

    def backward(g):
        _accumulate(a, g * (out_data > 0))  # a > 0 exactly where max(a, 0) > 0

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
    (last axis)

        conv2d(concat(xs, axis=-1), w) + sum(bases)
            + conv2d(pool tiled over the grid, w_pool)

    as one `_conv` at stride 1, then

        c = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
        h = sigmoid(o) * tanh(c)

    `xs` are (N, H, W, C_i) maps and `w` is the (K, K, sum(C_i), 4C)
    kernel. Each of `bases` broadcasts to the preactivation. `pool` (N, P)
    is the spatially constant input of the pool term and `w_pool` its kernel
    as the (P, K*K*4C) matrix w[kh, kw, p, o] -> [p, (kh*K + kw)*4C + o]; the
    pool term is never tiled: each pixel sums pool @ w_pool over the taps of
    its window that fall inside the grid.

    c_prev, c and h are (N, H, W, C) maps, on a 1 x 1 grid for a vector
    LSTM. Returns (c, h) as two tape nodes with a hand-written backward; h's
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


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_all(a):
    out_data = a.data.sum(dtype=a.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

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
# the actor-critic loss


def actor_critic_loss(logits_steps, values_steps, actions, advantages, targets, costs):
    """The actor-critic loss of T steps' (B, A) logits and (B,) values as
    one node. `actions`, `advantages` and `targets` hold one entry per row
    of the steps' rows stacked step after step, N rows in all. With `costs`
    = (baseline, entropy, logit_l2) the loss is

        policy + baseline * value - entropy * entropy_term + logit_l2 * logit_term

    the means over the rows of -advantage * log p(action), of (value -
    target)^2 and of the softmax entropy, and the mean squared logit.
    Returns (the scalar loss tensor, those four means as floats keyed
    policy_loss, value_loss, entropy, logit_l2).

    Everything is computed in float64. The gradients are closed forms, per
    row with p = softmax(z) and H its entropy:

        d/dz = (advantage * (p - onehot(action)) + entropy * p * (log p + H)
                + logit_l2 * 2 z / A) / N
        d/dvalue = baseline * 2 (value - target) / N

    so the tape keeps only them, cast to the logits' dtype, and backward
    scales them into each step's tensors.
    """
    z = np.concatenate([t.data for t in logits_steps]).astype(np.float64)
    v = np.concatenate([t.data for t in values_steps]).astype(np.float64)
    n, a = z.shape
    actions = np.asarray(actions)
    adv, targets = np.asarray(advantages, np.float64), np.asarray(targets, np.float64)
    if any(x.shape != (n,) for x in (v, actions, adv, targets)):
        raise ShapeError(f"actor_critic_loss: {n} logit rows but values {v.shape}, actions "
                         f"{actions.shape}, advantages {adv.shape} and targets {targets.shape}")
    baseline, entropy_cost, logit_cost = costs
    lp = z - z.max(axis=-1, keepdims=True)
    lp -= np.log(np.exp(lp).sum(axis=-1, keepdims=True))
    p = np.exp(lp)
    neg_h = (p * lp).sum(axis=-1)
    rows = np.arange(n)
    err = v - targets
    terms = {"policy_loss": -(adv * lp[rows, actions]).mean(), "value_loss": (err * err).mean(),
             "entropy": -neg_h.mean(), "logit_l2": (z * z).mean()}
    loss = (terms["policy_loss"] + baseline * terms["value_loss"]
            - entropy_cost * terms["entropy"] + logit_cost * terms["logit_l2"])

    dt = logits_steps[0].dtype
    dz = adv[:, None] * p + entropy_cost * p * (lp - neg_h[:, None]) + (2 * logit_cost / a) * z
    dz[rows, actions] -= adv
    ends = np.cumsum([t.shape[0] for t in logits_steps])[:-1]
    dzs = np.split((dz / n).astype(dt), ends)
    dvs = np.split((2 * baseline / n * err).astype(dt), ends)

    parents = tuple(logits_steps) + tuple(values_steps)

    def backward(g):
        for t, d in zip(parents, dzs + dvs):
            _accumulate(t, g * d)

    out = _node(np.asarray(loss, dtype=dt), parents, backward)
    return out, {name: float(x) for name, x in terms.items()}


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

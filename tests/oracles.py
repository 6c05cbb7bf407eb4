"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct summation) and
shares no code with the library paths it checks, except `replay_reference`,
which runs the actors' per-step forward to check the actors' taped unroll
against.
"""

import numpy as np


def _conv_geometry(h, wd, k, stride):
    """Output size and top/left zero padding of a "same" convolution; extra
    padding goes bottom/right."""
    oh = -(-h // stride)
    ow = -(-wd // stride)
    pad_h = max((oh - 1) * stride + k - h, 0)
    pad_w = max((ow - 1) * stride + k - wd, 0)
    return oh, ow, pad_h // 2, pad_w // 2


def conv2d_reference(x, w, b=None, stride=1):
    """Quadruple-loop direct-summation "same" convolution, NHWC."""
    n, h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    oh, ow, top, left = _conv_geometry(h, wd, k, stride)
    out = np.zeros((n, oh, ow, cout), dtype=x.dtype)
    for ni in range(n):
        for oi in range(oh):
            for oj in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            ri = oi * stride + ki - top
                            rj = oj * stride + kj - left
                            if 0 <= ri < h and 0 <= rj < wd:
                                for ci in range(cin):
                                    acc += x[ni, ri, rj, ci] * w[ki, kj, ci, co]
                    out[ni, oi, oj, co] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_backward_reference(x, w, g, stride=1):
    """Per-tap gradients of a bias-free "same" NHWC convolution: (dx, dw).

    For each kernel tap (kh, kw), the input pixels that tap reads form a
    strided grid; dw[kh, kw] contracts that grid with `g` over the batch and
    output positions, and dx gets `g @ w[kh, kw].T` added back onto the grid.
    """
    n, h, wd, cin = x.shape
    k = w.shape[0]
    oh, ow, top, left = _conv_geometry(h, wd, k, stride)
    ph = max((oh - 1) * stride + k, h + top)
    pw = max((ow - 1) * stride + k, wd + left)
    xp = np.zeros((n, ph, pw, cin), dtype=x.dtype)
    xp[:, top:top + h, left:left + wd, :] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for kh in range(k):
        rows = slice(kh, kh + (oh - 1) * stride + 1, stride)
        for kw in range(k):
            cs = slice(kw, kw + (ow - 1) * stride + 1, stride)
            dw[kh, kw] = np.tensordot(xp[:, rows, cs, :], g, axes=([0, 1, 2], [0, 1, 2]))
            dxp[:, rows, cs, :] += g @ w[kh, kw].T
    return dxp[:, top:top + h, left:left + wd, :], dw


def conv_same_reference(x, w):
    """Stride-1 "same" convolution as a sum of K*K shifted matmuls, NHWC."""
    n, h, wd, cin = x.shape
    k = w.shape[0]
    _, _, top, left = _conv_geometry(h, wd, k, 1)
    xp = np.zeros((n, h + k - 1, wd + k - 1, cin), dtype=x.dtype)
    xp[:, top:top + h, left:left + wd, :] = x
    return sum(xp[:, i:i + h, j:j + wd, :] @ w[i, j] for i in range(k) for j in range(k))


def boundary_channel_reference(x):
    """Append a channel that is 1 on the spatial edges and 0 inside (NHWC)."""
    n, h, w, _ = x.shape
    edge = np.zeros((n, h, w, 1), dtype=x.dtype)
    edge[:, 0] = edge[:, -1] = edge[:, :, 0] = edge[:, :, -1] = 1
    return np.concatenate([x, edge], axis=-1)


def pool_projection_reference(h, w_p, b_p):
    """Per-channel spatial max and mean of (B, H, W, C), projected to (B, C)."""
    return np.concatenate([h.max(axis=(1, 2)), h.mean(axis=(1, 2))], axis=-1) @ w_p + b_p


def gate_kernel(net, depth):
    """The gate kernel of `depth` (0-based) put back together from the
    slices the network stores: (K, K, Cin, Cout) with input channels [obs,
    h below, own h, pool, boundary], or the (Cin, 4 * units) dense kernel of
    `vector_lstm`, in the parameters' dtype."""
    gate = f"core.d{depth + 1}.gates."
    w_obs, w_rec = net.params[gate + "w_obs"].data, net.params[gate + "w_rec"].data
    if w_obs.ndim == 2:
        return np.concatenate([w_obs, w_rec], axis=0)
    k, _, _, cout = w_obs.shape
    parts = [w_obs, w_rec.reshape(k, k, -1, cout)]
    if gate + "w_pool" in net.params:
        w_pool = net.params[gate + "w_pool"].data
        parts.append(w_pool.reshape(-1, k, k, cout).transpose(1, 2, 0, 3))
    if gate + "w_edge" in net.params:
        parts.append(net.params[gate + "w_edge"].data)
    return np.concatenate(parts, axis=2)


def unsplit_memory_step_reference(net, depth, i_t, c_prev, h_prev, h_below, pool):
    """One ConvLSTM module update with the whole gate input built and
    convolved at once, in float64 numpy: [i_t, h_below, h_prev, the (B, C)
    pooled projection `pool` tiled over space (if not None), the boundary
    channel (if configured)], one conv over all of it plus bias, then the
    LSTM cell. Returns (c, h)."""
    i_t, c_prev, h_prev, h_below = (np.asarray(a, dtype=np.float64)
                                    for a in (i_t, c_prev, h_prev, h_below))
    parts = [i_t, h_below, h_prev]
    if pool is not None:
        parts.append(np.broadcast_to(np.asarray(pool, np.float64)[:, None, None, :],
                                     h_prev.shape[:3] + pool.shape[-1:]))
    x = np.concatenate(parts, axis=-1)
    if net.config.boundary_padding:
        x = boundary_channel_reference(x)
    w = gate_kernel(net, depth).astype(np.float64)
    b = net.params[f"core.d{depth + 1}.gates.b"].data.astype(np.float64)
    raw = conv_same_reference(x, w) + b
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    f, i, o, g = np.split(raw, 4, axis=-1)
    c = sig(f) * c_prev + sig(i) * np.tanh(g)
    return c, sig(o) * np.tanh(c)


def lambda_return_reference(rewards, values, bootstrap, dones, gamma, lam):
    """Brute-force lambda returns via the explicit n-step mixture.

    For each step s inside an episode segment of remaining length L:
        G^(n) = sum_{i<n} gamma^i r_{s+i} + gamma^n V_{s+n}
        G^lam = (1-lam) sum_{n=1}^{L-1} lam^(n-1) G^(n) + lam^(L-1) G^(L)
    where V at the segment end is the bootstrap value, or 0 if the segment
    ended with a terminal transition.
    """
    t_len = len(rewards)
    out = np.zeros(t_len, dtype=np.float64)
    # split [0, T) into segments ending at done flags
    starts = [0]
    for t in range(t_len):
        if dones[t] and t + 1 < t_len:
            starts.append(t + 1)
    for si, start in enumerate(starts):
        end = starts[si + 1] - 1 if si + 1 < len(starts) else t_len - 1
        terminal = bool(dones[end])
        for s in range(start, end + 1):
            length = end - s + 1

            def nstep(n):
                acc = 0.0
                for i in range(n):
                    acc += gamma ** i * rewards[s + i]
                if s + n - 1 == end:
                    tail = 0.0 if terminal else (gamma ** n) * bootstrap
                else:
                    tail = (gamma ** n) * values[s + n]
                return acc + tail

            if lam == 1.0:
                g = nstep(length)
            else:
                g = 0.0
                for n in range(1, length):
                    g += (1 - lam) * lam ** (n - 1) * nstep(n)
                g += lam ** (length - 1) * nstep(length)
            out[s] = g
    return out


def scalar_convlstm_reference(weights, i_t, c_prev, h_prev, h_below, pool_in, steps=1):
    """Hand-written scalar LSTM recurrence matching the gate layout.

    `weights` maps each gate in (f, i, o, g) to per-input scalar weights
    (wi, wb, wh, wp) and a bias. All quantities are plain floats; the 1 x 1
    spatial case of the convolutional module reduces to exactly this.
    """
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    c, h = c_prev, h_prev
    for _ in range(steps):
        pre = {}
        for gate in ("f", "i", "o", "g"):
            wi, wb, wh, wp, bias = weights[gate]
            pre[gate] = wi * i_t + wb * h_below + wh * h + wp * pool_in + bias
        c = sig(pre["f"]) * c + sig(pre["i"]) * np.tanh(pre["g"])
        h = sig(pre["o"]) * np.tanh(c)
    return c, h


def adam_reference(w, grads, lr, beta1=0.9, beta2=0.999, eps=1e-4):
    """Hand-executed Adam recurrence on a scalar parameter."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def pool_spatial_reference(x, mode):
    """Linear-scan spatial pooling for a single H x W x C tensor."""
    h, w, c = x.shape
    out = np.zeros(c, dtype=x.dtype)
    for ci in range(c):
        vals = [x[i, j, ci] for i in range(h) for j in range(w)]
        out[ci] = max(vals) if mode == "max" else sum(vals) / len(vals)
    return out


def backward_reference(root):
    """Reverse-mode accumulation that keeps the whole tape: the same
    depth-first order as `autodiff.backward` (so gradients sum in the same
    order), but no node releases its gradient, closure or parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def replay_reference(net, state, obs, dones=None):
    """An unroll over the T steps of `obs` as one `net.forward` per step,
    the call the actors make: every step encodes its own B rows and
    computes its own gate terms. Zeroes a row's state after a step that the
    (T, B) `dones` marks as its episode's end, as `ActorGroup.step` does.
    Returns (the state after step T, T logits, T values)."""
    logits_steps, values_steps = [], []
    for t in range(len(obs)):
        state, logits, value = net.forward(state, obs[t])
        logits_steps.append(logits)
        values_steps.append(value)
        if dones is not None and dones[t].any():
            state = state.scale(1.0 - dones[t].astype(np.float32))
    return state, logits_steps, values_steps

"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct summation) and
shares no code with the library paths it checks, except `replay_reference`,
which runs the actors' per-step forward to check the actors' taped unroll
against, and `solve_bfs_reference`, which shares the solver's board geometry
and the full `grid_search` but runs its own search with its own push
distances, matching bound and plan expansion.
"""

import heapq
import itertools

import numpy as np

from drcplan.boxoban.solver import (BUDGET_EXHAUSTED, SOLVED, UNSOLVABLE, Solution,
                                    SolveResult, _Board)
from drcplan.envs.base import grid_path, grid_search


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


def lstm_cell_reference(pre, c_prev, gc, gh):
    """The LSTM cell on a gate preactivation `pre` ([f, i, o, g] on the last
    axis) and its backward for output gradients `gc`, `gh`, by hand:
    returns (c, h, d pre, d c_prev)."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    f, i, o, g = np.split(pre, 4, axis=-1)
    sf, si, so, tg = sig(f), sig(i), sig(o), np.tanh(g)
    c = sf * c_prev + si * tg
    tc = np.tanh(c)
    dc = gc + gh * so * (1 - tc * tc)
    d_pre = np.concatenate([dc * c_prev * sf * (1 - sf), dc * tg * si * (1 - si),
                            gh * tc * so * (1 - so), dc * si * (1 - tg * tg)], axis=-1)
    return c, so * tc, d_pre, dc * sf


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
    slices the network stores: (K, K, Cin, Cout) with input channels [obs
    (at a depth that sees it), h below, own h, pool, boundary], in the
    parameters' dtype."""
    gate = f"core.d{depth + 1}.gates."
    parts = [net.params[gate + "w_rec"].data]
    k, _, _, cout = parts[0].shape
    if gate + "w_obs" in net.params:
        parts.insert(0, net.params[gate + "w_obs"].data)
    if gate + "w_pool" in net.params:
        w_pool = net.params[gate + "w_pool"].data
        parts.append(w_pool.reshape(-1, k, k, cout).transpose(1, 2, 0, 3))
    if gate + "w_edge" in net.params:
        parts.append(net.params[gate + "w_edge"].data)
    return np.concatenate(parts, axis=2)


def unsplit_memory_step_reference(net, depth, i_t, c_prev, h_prev, h_below, pool):
    """One ConvLSTM module update with the whole gate input built and
    convolved at once, in float64 numpy: [i_t (if not None), h_below, h_prev,
    the (B, C) pooled projection `pool` tiled over space (if not None), the
    boundary channel (if configured)], one conv over all of it plus bias,
    then the LSTM cell. Returns (c, h)."""
    c_prev, h_prev, h_below = (np.asarray(a, dtype=np.float64) for a in (c_prev, h_prev, h_below))
    parts = [h_below, h_prev] if i_t is None else [np.asarray(i_t, dtype=np.float64), h_below, h_prev]
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


def lambda_targets_reference(rewards, dones, values, bootstrap, gamma, lam):
    """Value targets and policy-gradient advantages of a (T, B) batch as
    lambda-returns, V-trace's on-policy case, one column and one step at a
    time from the end:

        G_t = r_t + gamma (1 - d_t) ((1 - lam) V_{t+1} + lam G_{t+1})
        A_t = r_t + gamma (1 - d_t) G_{t+1} - V_t

    with V_T = G_T the (B,) `bootstrap`. Returns (G, A) in float64."""
    t_len, batch = np.shape(rewards)
    targets = np.zeros((t_len, batch))
    advantages = np.zeros((t_len, batch))
    for b in range(batch):
        next_value = next_return = float(bootstrap[b])
        for t in reversed(range(t_len)):
            keep = 0.0 if dones[t][b] else gamma
            r, v = float(rewards[t][b]), float(values[t][b])
            advantages[t, b] = r + keep * next_return - v
            targets[t, b] = r + keep * ((1 - lam) * next_value + lam * next_return)
            next_value, next_return = v, targets[t, b]
    return targets, advantages


def actor_critic_loss_reference(logits, values, actions, advantages, targets, costs):
    """The actor-critic loss as a chain of elementary steps in float64 numpy,
    and its gradient by running the chain's adjoints in reverse, one step at
    a time: log-softmax of the (N, A) `logits`, the taken actions' entries,
    the policy, value, entropy and logit means, and their sum weighted by
    `costs` = (baseline, entropy, logit_l2). Returns (loss, the four means
    keyed as `autodiff.actor_critic_loss` keys them, d loss/d logits,
    d loss/d values)."""
    z, v = np.asarray(logits, np.float64), np.asarray(values, np.float64)
    adv, tgt = np.asarray(advantages, np.float64), np.asarray(targets, np.float64)
    baseline, entropy_cost, logit_cost = costs
    n, a = z.shape
    rows = np.arange(n)
    shifted = z - z.max(axis=-1, keepdims=True)
    lp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(lp)
    policy = -np.mean(adv * lp[rows, actions])
    err = v - tgt
    value = np.mean(err * err)
    neg_entropy = np.mean(np.sum(probs * lp, axis=-1))
    logit = np.mean(z * z)
    loss = policy + baseline * value + entropy_cost * neg_entropy + logit_cost * logit

    # the logit term: mean of z * z
    d_square = np.full(z.shape, logit_cost / z.size)
    dz = d_square * z + d_square * z
    # the value term: mean of err * err
    d_err_square = np.full(n, baseline / n)
    dv = d_err_square * err + d_err_square * err
    # the entropy term: mean over rows of the row sum of probs * lp
    d_product = np.broadcast_to(np.full(n, entropy_cost / n)[:, None], z.shape)
    d_lp = d_product * probs
    d_probs = d_product * lp
    d_lp = d_lp + d_probs * probs  # probs = exp(lp)
    # the policy term: minus the mean of adv * lp[row, action]
    d_taken = -np.ones(n) / n * adv
    for r in range(n):
        d_lp[r, actions[r]] += d_taken[r]
    # log-softmax
    dz = dz + d_lp - probs * d_lp.sum(axis=-1, keepdims=True)
    terms = {"policy_loss": policy, "value_loss": value, "entropy": -neg_entropy, "logit_l2": logit}
    return loss, terms, dz, dv


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


def _flood_reference(board, free, start_bit):
    """All cells reachable from start through `free` cells, with column
    masks that keep a one-cell shift from wrapping into another row."""
    w, full = board.w, (1 << board.h * board.w) - 1
    nc0 = ncw = full
    for r in range(board.h):
        nc0 &= ~(1 << (r * w))
        ncw &= ~(1 << (r * w + w - 1))
    reach = start_bit
    while True:
        grown = (reach | ((reach & nc0) >> 1) | ((reach & ncw) << 1)
                 | (reach >> w) | ((reach << w) & full)) & free | reach
        if grown == reach:
            return reach
        reach = grown


def expand_moves_reference(board, boxes, player, pushes):
    """A push plan as player moves: each leg walks the `grid_search` path
    of a full search through a fresh set of the free cells."""
    w = board.w
    actions = []
    for bi, d, pi in pushes:
        if player != pi:
            free = board.floor & ~boxes
            open_cells = {divmod(i, w) for i in range(free.bit_length()) if free >> i & 1}
            path = grid_path(grid_search(divmod(player, w), open_cells), divmod(pi, w))
            assert path is not None, "push plan references an unreachable player cell"
            actions.extend(path)
        actions.append(d)
        boxes = (boxes ^ (1 << bi)) | (1 << (bi + board.step[d]))
        player = bi
    return actions


def push_distances_reference(level):
    """Per target, in sorted order, a dict from cell to the fewest pushes
    that bring a lone box on that cell to the target, found by a
    breadth-first search of reverse pushes over (row, col) cells."""
    floor = {(r, c) for r in range(level.height) for c in range(level.width)
             if not level.walls[r][c]}
    tables = []
    for target in sorted(level.targets):
        dist = {target: 0}
        frontier = [target]
        for cell in frontier:  # grows while it is read: FIFO order
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                box = (cell[0] - dr, cell[1] - dc)  # pushed along (dr, dc) onto cell
                player = (box[0] - dr, box[1] - dc)
                if box in floor and player in floor and box not in dist:
                    dist[box] = dist[cell] + 1
                    frontier.append(box)
        tables.append(dist)
    return tables


def matching_bound_reference(tables, boxes):
    """The fewest total pushes over every assignment of the `boxes` cells to
    distinct targets, each box costing its distance in `tables`, by trying
    every permutation; None when no assignment has every distance finite."""
    best = None
    for perm in itertools.permutations(range(len(tables))):
        if all(box in tables[t] for box, t in zip(boxes, perm)):
            cost = sum(tables[t][box] for box, t in zip(boxes, perm))
            best = cost if best is None else min(best, cost)
    return best


def solve_bfs_reference(level, node_budget=200000):
    """The A* push search `solve_bfs` must reproduce, with tuple heap
    entries (pushes + bound, -pushes, insertion count, ...), tuple state
    keys and one flood per (boxes, region) through a per-box-set cache. The
    bound is `matching_bound_reference`, and a child with no matching is
    not inserted. Its status, node count and plan are the ones `solve_bfs`
    returns."""
    if node_budget <= 0:
        raise ValueError("node_budget must be positive")
    board = _Board(level)
    boxes0 = board._mask(level.boxes)
    player0 = board.idx(level.player)
    if boxes0 & ~board.targets == 0:
        return SolveResult(SOLVED, Solution([], 0), nodes=0)

    tables = push_distances_reference(level)
    bounds = {}

    def bound(boxes):
        if boxes not in bounds:
            cells = [divmod(i, board.w) for i in range(boxes.bit_length()) if boxes >> i & 1]
            bounds[boxes] = matching_bound_reference(tables, cells)
        return bounds[boxes]

    h0 = bound(boxes0)
    if h0 is None:
        return SolveResult(UNSOLVABLE, nodes=0)
    visited = set()
    best_g = {(boxes0, player0): 0}
    heap = [(h0, 0, 0, 0, h0, boxes0, player0, None, None)]
    inserted = 1
    parents = {}
    region_cache = {}
    nodes = 0

    def get_region(boxes, player_bit):
        regions = region_cache.setdefault(boxes, [])
        for reg in regions:
            if reg & player_bit:
                return reg
        reg = _flood_reference(board, board.floor & ~boxes, player_bit)
        regions.append(reg)
        return reg

    goal_state = None
    while heap:
        _, _, _, g, h, boxes, player_idx, parent_key, push = heapq.heappop(heap)
        reach = get_region(boxes, 1 << player_idx)
        key = (boxes, reach & -reach)
        if key in visited:
            continue
        visited.add(key)
        parents[key] = (parent_key, push)
        if h == 0:
            goal_state = key
            break
        nodes += 1
        if nodes > node_budget:
            return SolveResult(BUDGET_EXHAUSTED, nodes=nodes)
        ng = g + 1
        rem = boxes
        while rem:
            b = rem & -rem
            rem ^= b
            bi = b.bit_length() - 1
            for d in range(4):
                pi = bi - board.step[d]
                ti = bi + board.step[d]
                if not ((reach >> pi) & 1):
                    continue
                t = 1 << ti
                if not (board.floor & t) or (boxes & t):
                    continue
                nboxes = (boxes ^ b) | t
                pre = (nboxes, bi)
                if best_g.get(pre, ng + 1) <= ng:
                    continue
                best_g[pre] = ng
                nh = bound(nboxes)
                if nh is None:
                    continue
                heapq.heappush(heap, (ng + nh, -ng, inserted, ng, nh, nboxes, bi, key, (bi, d, pi)))
                inserted += 1
    if goal_state is None:
        return SolveResult(UNSOLVABLE, nodes=nodes)

    pushes = []
    key = goal_state
    while parents[key][1] is not None:
        key, push = parents[key]
        pushes.append(push)
    pushes.reverse()
    actions = expand_moves_reference(board, boxes0, player0, pushes)
    return SolveResult(SOLVED, Solution(actions, len(pushes)), nodes=nodes)


def push_bfs_reference(level):
    """The fewest pushes that solve `level`, or None when no push sequence
    does: a breadth-first search over (boxes, player region) states of
    frozensets of (row, col) cells, with no bound, which drops only pushes
    onto a cell from which no target can be reached."""
    floor = {(r, c) for r in range(level.height) for c in range(level.width)
             if not level.walls[r][c]}
    live = set().union(*push_distances_reference(level))
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def region(boxes, start):
        seen = {start}
        frontier = [start]
        for r, c in frontier:
            for dr, dc in moves:
                cell = (r + dr, c + dc)
                if cell in floor and cell not in boxes and cell not in seen:
                    seen.add(cell)
                    frontier.append(cell)
        return frozenset(seen)

    if level.boxes <= level.targets:
        return 0
    start = (level.boxes, region(level.boxes, level.player))
    seen = {start}
    frontier = [start]
    pushes = 0
    while frontier:
        pushes += 1
        nxt = []
        for boxes, reach in frontier:
            for r, c in boxes:
                for dr, dc in moves:
                    to = (r + dr, c + dc)
                    if (r - dr, c - dc) not in reach or to not in live or to in boxes:
                        continue
                    nboxes = boxes - {(r, c)} | {to}
                    if nboxes <= level.targets:
                        return pushes
                    state = (nboxes, region(nboxes, (r, c)))
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
        frontier = nxt
    return None

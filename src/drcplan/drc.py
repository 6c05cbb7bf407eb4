"""Deep repeated ConvLSTM (DRC) policy/value networks.

A DRC(D, N) network stacks D convolutional memory modules and applies the
whole stack N times ("ticks") per environment time step, reusing the same
encoded observation at every tick and depth. The deepest module's hidden
state after the last tick feeds a flat MLP that produces action logits and a
state value.

Wiring of one tick, bottom to top (depth d = 1..D):

    gate input = [encoded obs, h below (this tick), own h (previous tick),
                  pooled summary of own h (previous tick), boundary channel]

For d = 1 the "below" input is the deepest hidden state from the previous
tick (top-down skip). All state components keep the encoder's output spatial
shape. Each of the optional inputs is controlled by a config flag so ablated
variants can be built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Initializer, ParameterSet

MEMORY_KINDS = ("convlstm", "gated_convrnn", "simple_convrnn", "vector_lstm")

# chunks the gate convolution output is split into
_GATE_MULTIPLE = {"convlstm": 4, "gated_convrnn": 2, "simple_convrnn": 1, "vector_lstm": 4}


@dataclass(frozen=True)
class DrcConfig:
    depth: int = 3
    repeats: int = 3
    obs_shape: tuple = (80, 80, 3)
    action_count: int = 5
    encoder: tuple = ((32, 8, 4), (32, 4, 2))  # (channels, kernel, stride) per layer
    hidden_channels: int = 32
    kernel_size: int = 3
    memory_kind: str = "convlstm"
    head_hidden: int = 256
    pool_and_inject: bool = True
    top_down_skip: bool = True
    vision_shortcut: bool = True
    obs_skip_all_depths: bool = True
    boundary_padding: bool = True
    lstm_units: int = 200  # vector_lstm only

    def __post_init__(self):
        if self.depth < 1 or self.repeats < 1:
            raise ValueError("depth and repeats must be >= 1")
        if self.memory_kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {self.memory_kind!r}")

    @property
    def gate_channels(self):
        """Output channels of the per-depth gate convolution."""
        return _GATE_MULTIPLE[self.memory_kind] * self.hidden_channels

    @property
    def encoded_shape(self):
        """Spatial and channel shape of the encoded observation."""
        h, w, _ = self.obs_shape
        for _, _, stride in self.encoder:
            h = -(-h // stride)
            w = -(-w // stride)
        return (h, w, self.encoder[-1][0])


# Encoder layouts and action sets per game. DRC hyperparameters (32 hidden
# channels, kernel 3, 128-channel gate conv, 256-unit head) are shared across
# games; only the encoder adapts to the observation format.
_PRESETS = {
    "sokoban": dict(obs_shape=(80, 80, 3), action_count=5,
                    encoder=((32, 8, 4), (32, 4, 2))),
    "boxworld": dict(obs_shape=(14, 14, 3), action_count=4,
                     encoder=((32, 3, 1), (32, 2, 1))),
    "minipacman": dict(obs_shape=(15, 19, 3), action_count=5,
                       encoder=((32, 3, 1), (32, 3, 1))),
    "gridworld": dict(obs_shape=(32, 32, 1), action_count=4,
                      encoder=((64, 3, 1), (64, 3, 1), (32, 2, 2))),
    # desk-scale variant: small encoder that halves the spatial resolution
    "gridworld12": dict(obs_shape=(12, 12, 1), action_count=4,
                        encoder=((16, 3, 1), (16, 3, 2)),
                        hidden_channels=16, head_hidden=128),
}


def preset_config(game, depth=3, repeats=3, **overrides):
    """DrcConfig for one of the built-in games."""
    if game not in _PRESETS:
        raise ValueError(f"unknown game {game!r}; choose from {sorted(_PRESETS)}")
    kw = dict(_PRESETS[game])
    kw.update(overrides)
    return DrcConfig(depth=depth, repeats=repeats, **kw)


@dataclass
class DrcState:
    """Recurrent state: cell and hidden tensors for each depth, batched."""

    c: tuple
    h: tuple

    def rows(self, index):
        """A new state holding the rows picked by a numpy index on the batch axis."""
        pick = lambda ts: tuple(Tensor(t.data[index]) for t in ts)
        return DrcState(pick(self.c), pick(self.h))

    def scale(self, keep):
        """Multiply every component by a per-row keep mask (0 resets a row)."""
        mask = keep.reshape((-1,) + (1,) * (self.h[0].ndim - 1))
        m = ad.constant(mask.astype(self.h[0].dtype))
        return DrcState(tuple(ad.mul(t, m) for t in self.c), tuple(ad.mul(t, m) for t in self.h))


def zero_state(config, batch=1, dtype=np.float32):
    if config.memory_kind == "vector_lstm":
        shape = (batch, config.lstm_units)
    else:
        eh, ew, _ = config.encoded_shape
        shape = (batch, eh, ew, config.hidden_channels)
    zeros = lambda: Tensor(np.zeros(shape, dtype=dtype))
    return DrcState(tuple(zeros() for _ in range(config.depth)), tuple(zeros() for _ in range(config.depth)))


def boundary_pad_channel(x):
    """Append a channel that is 1 on the spatial edges and 0 inside (NHWC)."""
    n, h, w, _ = x.shape
    mask = _boundary_mask(h, w, x.dtype)
    edge = ad.constant(np.broadcast_to(mask, (n, h, w, 1)).copy(), dtype=x.dtype)
    return ad.concat([x, edge], axis=-1)


_BOUNDARY_CACHE = {}


def _boundary_mask(h, w, dtype):
    key = (h, w, np.dtype(dtype).str)
    if key not in _BOUNDARY_CACHE:
        m = np.zeros((h, w, 1), dtype=dtype)
        m[0, :, 0] = 1
        m[-1, :, 0] = 1
        m[:, 0, 0] = 1
        m[:, -1, 0] = 1
        _BOUNDARY_CACHE[key] = m
    return _BOUNDARY_CACHE[key]


def pool_and_inject(h, w_p, b_p):
    """Spatial max+mean pooling, linear projection, tiled back over space."""
    mx = ad.spatial_max(h)
    mn = ad.spatial_mean(h)
    proj = ad.dense(ad.concat([mx, mn], axis=-1), w_p, b_p)
    _, hh, ww, _ = h.shape
    return ad.tile_spatial(proj, hh, ww)


class DrcNetwork:
    """A DRC network bound to a parameter set."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config, seed=0, dtype=np.float32):
        return cls(config, build_parameters(config, seed=seed, dtype=dtype))

    @property
    def dtype(self):
        return self.params[next(iter(self.params))].dtype

    def zero_state(self, batch=1):
        return zero_state(self.config, batch=batch, dtype=self.dtype)

    # -- encoder ------------------------------------------------------------

    def encode(self, obs):
        """Run the convolutional encoder on an NHWC batch; ReLU after every layer."""
        if isinstance(obs, np.ndarray):
            obs = Tensor(obs.astype(self.dtype, copy=False))
        if obs.shape[1:] != tuple(self.config.obs_shape):
            raise ValueError(
                f"observation shape {obs.shape[1:]} does not match configured {tuple(self.config.obs_shape)}"
            )
        x = obs
        for i in range(len(self.config.encoder)):
            _, _, stride = self.config.encoder[i]
            x = ad.conv2d(x, self.params[f"encoder.conv{i}.w"], self.params[f"encoder.conv{i}.b"],
                          stride=stride, padding="same")
            x = ad.relu(x)
        if self.config.memory_kind == "vector_lstm":
            flat = ad.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
            x = ad.relu(ad.dense(flat, self.params["core.compress.w"], self.params["core.compress.b"]))
        return x

    # -- memory stack -------------------------------------------------------

    def memory_step(self, depth, i_t, c_prev, h_prev, h_below, pool_in):
        """One memory module update at the given depth (0-based)."""
        cfg = self.config
        parts = [i_t, h_below, h_prev]
        if pool_in is not None:
            parts.append(pool_in)
        x = ad.concat(parts, axis=-1)
        w = self.params[f"core.d{depth + 1}.gates.w"]
        b = self.params[f"core.d{depth + 1}.gates.b"]
        if cfg.memory_kind == "vector_lstm":
            raw = ad.dense(x, w, b)
        else:
            if cfg.boundary_padding:
                x = boundary_pad_channel(x)
            raw = ad.conv2d(x, w, b, stride=1, padding="same")

        kind = cfg.memory_kind
        if kind in ("convlstm", "vector_lstm"):
            f, i, o, g = ad.split(raw, 4, axis=-1)
            c = ad.add(ad.mul(ad.sigmoid(f), c_prev), ad.mul(ad.sigmoid(i), ad.tanh(g)))
            h = ad.mul(ad.sigmoid(o), ad.tanh(c))
        elif kind == "gated_convrnn":
            o, g = ad.split(raw, 2, axis=-1)
            c = c_prev
            h = ad.mul(ad.sigmoid(o), ad.tanh(g))
        else:  # simple_convrnn
            c = c_prev
            h = ad.tanh(raw)
        return c, h

    def tick(self, state, i_t):
        """Run the full depth stack once (bottom to top)."""
        cfg = self.config
        prev_c, prev_h = state.c, state.h
        zeros_h = None
        new_c, new_h = [], []
        for d in range(cfg.depth):
            if d == 0:
                if cfg.top_down_skip:
                    h_below = prev_h[-1]
                else:
                    if zeros_h is None:
                        zeros_h = Tensor(np.zeros_like(prev_h[0].data))
                    h_below = zeros_h
            else:
                h_below = new_h[d - 1]
            if d == 0 or cfg.obs_skip_all_depths:
                obs_in = i_t
            else:
                obs_in = Tensor(np.zeros_like(i_t.data))
            pool_in = None
            if cfg.pool_and_inject and cfg.memory_kind != "vector_lstm":
                pool_in = pool_and_inject(prev_h[d], self.params[f"core.d{d + 1}.pool.w"],
                                          self.params[f"core.d{d + 1}.pool.b"])
            c, h = self.memory_step(d, obs_in, prev_c[d], prev_h[d], h_below, pool_in)
            new_c.append(c)
            new_h.append(h)
        return DrcState(tuple(new_c), tuple(new_h))

    def step_state(self, state, i_t):
        """Apply the stack N times on the same encoded observation."""
        for _ in range(self.config.repeats):
            state = self.tick(state, i_t)
        return state, state.h[-1]

    # -- output heads ---------------------------------------------------------

    def heads(self, o_t, i_t):
        """Flatten (optionally with the encoded-obs shortcut) into logits/value."""
        if self.config.vision_shortcut:
            x = ad.concat([i_t, o_t], axis=-1)
        else:
            x = o_t
        flat = ad.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        hid = ad.relu(ad.dense(flat, self.params["heads.hidden.w"], self.params["heads.hidden.b"]))
        logits = ad.dense(hid, self.params["heads.policy.w"], self.params["heads.policy.b"])
        value = ad.dense(hid, self.params["heads.value.w"], self.params["heads.value.b"])
        return logits, ad.reshape(value, (value.shape[0],))

    def forward(self, state, obs):
        """(state, observation) -> (new state, logits, value)."""
        i_t = self.encode(obs)
        state, o_t = self.step_state(state, i_t)
        logits, value = self.heads(o_t, i_t)
        return state, logits, value


def build_parameters(config, seed=0, dtype=np.float32):
    """Instantiate all trainable arrays for a DrcConfig.

    Creation order is fixed so that a (config, seed) pair is reproducible.
    """
    init = Initializer(seed, dtype=dtype)
    ps = ParameterSet()

    cin = config.obs_shape[2]
    for i, (ch, k, _) in enumerate(config.encoder):
        ps.add(f"encoder.conv{i}.w", init.conv(k, cin, ch))
        ps.add(f"encoder.conv{i}.b", init.bias(ch))
        cin = ch

    if config.memory_kind == "vector_lstm":
        eh, ew, ec = config.encoded_shape
        units = config.lstm_units
        ps.add("core.compress.w", init.dense(eh * ew * ec, units))
        ps.add("core.compress.b", init.bias(units))
        gate_in = 3 * units  # encoded obs + below/top-down + own previous h
        for d in range(1, config.depth + 1):
            ps.add(f"core.d{d}.gates.w", init.dense(gate_in, 4 * units))
            ps.add(f"core.d{d}.gates.b", init.bias(4 * units))
        head_in = (2 * units) if config.vision_shortcut else units
    else:
        hc = config.hidden_channels
        enc_ch = config.encoder[-1][0]
        gate_in = enc_ch + 2 * hc  # encoded obs + h below + own previous h
        if config.pool_and_inject:
            gate_in += hc
        if config.boundary_padding:
            gate_in += 1
        for d in range(1, config.depth + 1):
            ps.add(f"core.d{d}.gates.w", init.conv(config.kernel_size, gate_in, config.gate_channels))
            ps.add(f"core.d{d}.gates.b", init.bias(config.gate_channels))
            if config.pool_and_inject:
                ps.add(f"core.d{d}.pool.w", init.dense(2 * hc, hc))
                ps.add(f"core.d{d}.pool.b", init.bias(hc))
        eh, ew, _ = config.encoded_shape
        head_in = eh * ew * ((enc_ch + hc) if config.vision_shortcut else hc)

    ps.add("heads.hidden.w", init.dense(head_in, config.head_hidden))
    ps.add("heads.hidden.b", init.bias(config.head_hidden))
    ps.add("heads.policy.w", init.dense(config.head_hidden, config.action_count))
    ps.add("heads.policy.b", init.bias(config.action_count))
    ps.add("heads.value.w", init.dense(config.head_hidden, 1))
    ps.add("heads.value.b", init.bias(1))
    return ps


def count_parameters(config):
    """Itemized trainable-parameter count: component -> scalar count."""
    ps = build_parameters(config, seed=0)
    groups = {}
    for path, t in ps.items():
        head = path.split(".")
        key = ".".join(head[:2]) if head[0] == "core" else head[0]
        groups[key] = groups.get(key, 0) + t.size
    groups["total"] = sum(t.size for _, t in ps.items())
    return groups


def format_count_report(config, counts=None):
    counts = counts or count_parameters(config)
    lines = [f"{'component':<16} {'parameters':>12}"]
    for key, n in counts.items():
        if key == "total":
            continue
        lines.append(f"{key:<16} {n:>12,}")
    lines.append(f"{'total':<16} {counts['total']:>12,}")
    return "\n".join(lines)

"""Deep repeated ConvLSTM (DRC) policy/value networks.

A DRC(D, N) network stacks D convolutional memory modules and applies the
whole stack N times ("ticks") per environment time step, reusing the same
encoded observation at every tick and depth. The deepest module's hidden
state after the last tick feeds a flat MLP that produces action logits and a
state value.

Wiring of one tick, bottom to top (depth d = 1..D): the gate convolution
reads the channels

    [encoded obs, h below (this tick), own h (previous tick),
     pooled summary of own h (previous tick), boundary channel]

For d = 1 the "below" input is the deepest hidden state from the previous
tick (top-down skip). All state components keep the encoder's output spatial
shape. Each of the optional inputs is controlled by a config flag so ablated
variants can be built.

A convolution is linear in its input channels, so the gate preactivation is
computed as a sum of four terms. `build_parameters` draws each depth's gate
kernel whole and stores its input-channel slices (widths in
`DrcConfig.gate_inputs`) as separate parameters, each in the layout of the
op that reads it:

- observation term, conv(i_t, `core.dK.gates.w_obs`): i_t is the same at
  every tick, so it runs once per step and depth (`gate_terms`);
- fixed term: conv(edge map, `core.dK.gates.w_edge`) with the bias
  `core.dK.gates.b` as that conv's bias. The boundary channel is the same
  (H, W) edge map for every row, so its term is a (1, H, W, Cout) map, also
  once per step;
- recurrent term, conv([h below, own h], w_rec): per tick, with
  `core.dK.gates.w_rec` the (K*K*2C, Cout) im2col matrix of its slice;
- pool term: the pooled projection is spatially constant, so per tick it is
  a (B, C) x (C, K*K*Cout) product with `core.dK.gates.w_pool`, spread over
  the pixels by which kernel taps fall inside the grid, never tiled.

Per tick, one op computes the recurrent term and adds the others to it in
place. For a ConvLSTM that op is `autodiff.convlstm_cell`, which also runs
the LSTM cell on the preactivation and frees it, so the tape keeps the four
gate activations, c and h, but no preactivation. `vector_lstm` takes the
same path on a 1 x 1 grid, its dense gate weight being a 1 x 1 kernel. The
RNN kinds take the preactivation from an `autodiff.gate_conv` node.

`DrcNetwork.forward` is the network's one step, which the actors, the
bootstrap, evaluation and the gradient check all run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    def gate_inputs(self):
        """Widths of the gate kernel's input-channel slices, in order: encoded
        obs, [h below, own h], pool, boundary. Each nonzero one is a parameter."""
        if self.memory_kind == "vector_lstm":
            return (self.lstm_units, 2 * self.lstm_units, 0, 0)
        hc = self.hidden_channels
        return (self.encoder[-1][0], 2 * hc, hc * self.pool_and_inject, int(self.boundary_padding))

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


def pool_and_inject(h, w_p, b_p):
    """Spatial max+mean pooling and a linear projection: (B, H, W, C) -> (B, C).

    The gate conv sees the projection tiled over space; `memory_step` hands it
    untiled to the gate op, which spreads its term over the grid.
    """
    mx = ad.spatial_max(h)
    mn = ad.spatial_mean(h)
    return ad.dense(ad.concat([mx, mn], axis=-1), w_p, b_p)


@functools.lru_cache(maxsize=None)
def _edge_map(h, w, dtype):
    """The boundary channel as a read-only (1, H, W, 1) constant: 1 on the
    spatial edges, 0 inside. It depends on its shape and dtype alone, so it
    is built once."""
    m = np.ones((1, h, w, 1), dtype=dtype)
    m[:, 1:-1, 1:-1] = 0
    m.flags.writeable = False
    return Tensor(m)


class GateTerms(NamedTuple):
    """One depth's gate inputs that stay fixed over the N ticks of a step."""

    obs: Tensor | None  # observation term, per row; None for a depth that does not see it
    fixed: Tensor  # bias + boundary term, the same for every row
    w_rec: Tensor  # the `gates.w_rec` parameter, [h below, own h] as `autodiff.gate_conv` takes it
    w_pool: Tensor | None  # the `gates.w_pool` parameter; None without pool-and-inject


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
        return x

    # -- memory stack -------------------------------------------------------

    def gate_terms(self, depth, i_t):
        """The gate terms of `depth` (0-based) that do not change across ticks.

        `i_t` is the encoded observation, or None for a depth that does not
        see it.
        """
        cfg = self.config
        gate = f"core.d{depth + 1}.gates."
        _, _, pool, boundary = cfg.gate_inputs
        fixed = self.params[gate + "b"]
        obs = None
        if i_t is not None:
            w_obs = self.params[gate + "w_obs"]
            obs = (ad.dense(i_t, w_obs) if cfg.memory_kind == "vector_lstm"
                   else ad.conv2d(i_t, w_obs, stride=1, padding="same"))
        if boundary:
            edge = _edge_map(*cfg.encoded_shape[:2], self.dtype)
            fixed = ad.conv2d(edge, self.params[gate + "w_edge"], fixed)
        w_pool = self.params[gate + "w_pool"] if pool else None
        return GateTerms(obs, fixed, self.params[gate + "w_rec"], w_pool)

    def step_terms(self, i_t):
        """`gate_terms` for every depth, honouring `obs_skip_all_depths`."""
        cfg = self.config
        return [self.gate_terms(d, i_t if d == 0 or cfg.obs_skip_all_depths else None)
                for d in range(cfg.depth)]

    def memory_step(self, terms, c_prev, h_prev, h_below, pool):
        """One memory module update from its depth's fixed `terms`
        (`gate_terms`), the per-tick inputs and the (B, C) pooled
        projection (None without). An LSTM update is one
        `autodiff.convlstm_cell` op; the other kinds take their gate
        preactivation from one `autodiff.gate_conv` node."""
        bases = (terms.fixed,) if terms.obs is None else (terms.obs, terms.fixed)
        kind = self.config.memory_kind
        if kind in ("convlstm", "vector_lstm"):
            return ad.convlstm_cell([h_below, h_prev], terms.w_rec, bases, c_prev, pool, terms.w_pool)

        raw = ad.gate_conv([h_below, h_prev], terms.w_rec, bases, pool, terms.w_pool)
        if kind == "gated_convrnn":
            o, g = ad.split(raw, 2, axis=-1)
            return c_prev, ad.mul(ad.sigmoid(o), ad.tanh(g))
        return c_prev, ad.tanh(raw)  # simple_convrnn

    def tick(self, state, terms):
        """Run the full depth stack once (bottom to top) with the step's
        `terms` (`step_terms`)."""
        cfg = self.config
        prev_c, prev_h = state.c, state.h
        new_c, new_h = [], []
        for d in range(cfg.depth):
            if d > 0:
                h_below = new_h[d - 1]
            elif cfg.top_down_skip:
                h_below = prev_h[-1]
            else:
                h_below = Tensor(np.zeros_like(prev_h[0].data))
            pool = None
            if terms[d].w_pool is not None:
                pool = pool_and_inject(prev_h[d], self.params[f"core.d{d + 1}.pool.w"],
                                       self.params[f"core.d{d + 1}.pool.b"])
            c, h = self.memory_step(terms[d], prev_c[d], prev_h[d], h_below, pool)
            new_c.append(c)
            new_h.append(h)
        return DrcState(tuple(new_c), tuple(new_h))

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
        """One environment step from `state` on a (B, ...) observation array
        or Tensor: encode, N ticks, heads. Returns (new state, logits, value)."""
        i_t = self.encode(obs.data if isinstance(obs, Tensor) else obs)
        if self.config.memory_kind == "vector_lstm":  # i_t: dense + ReLU on the flat encoding
            flat = ad.reshape(i_t, (i_t.shape[0], -1))
            i_t = ad.relu(ad.dense(flat, self.params["core.compress.w"], self.params["core.compress.b"]))
        terms = self.step_terms(i_t)
        for _ in range(self.config.repeats):
            state = self.tick(state, terms)
        logits, value = self.heads(state.h[-1], i_t)
        return state, logits, value


def _gate_slices(config, w):
    """One depth's gate kernel `w`, drawn whole ((K, K, Cin, Cout), or the
    (Cin, 4 * units) dense kernel of `vector_lstm`), cut by input channel
    into the parameters `gate_terms` reads: name -> contiguous array."""
    obs, rec, pool, boundary = config.gate_inputs
    if config.memory_kind == "vector_lstm":
        return {"w_obs": w[:obs].copy(), "w_rec": w[obs:].copy()}
    w_obs, w_rec, w_pool, w_edge = np.split(w, np.cumsum([obs, rec, pool]), axis=2)
    slices = {"w_obs": w_obs.copy(), "w_rec": w_rec.reshape(-1, w.shape[-1])}
    if pool:
        slices["w_pool"] = w_pool.transpose(2, 0, 1, 3).reshape(pool, -1)
    if boundary:
        slices["w_edge"] = w_edge.copy()
    return slices


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

    gate_in = sum(config.gate_inputs)
    eh, ew, ec = config.encoded_shape
    if config.memory_kind == "vector_lstm":
        units = config.lstm_units
        ps.add("core.compress.w", init.dense(eh * ew * ec, units))
        ps.add("core.compress.b", init.bias(units))
        for d in range(1, config.depth + 1):
            for name, w in _gate_slices(config, init.dense(gate_in, 4 * units)).items():
                ps.add(f"core.d{d}.gates.{name}", w)
            ps.add(f"core.d{d}.gates.b", init.bias(4 * units))
        head_in = (2 * units) if config.vision_shortcut else units
    else:
        hc = config.hidden_channels
        for d in range(1, config.depth + 1):
            for name, w in _gate_slices(config, init.conv(config.kernel_size, gate_in,
                                                          config.gate_channels)).items():
                ps.add(f"core.d{d}.gates.{name}", w)
            ps.add(f"core.d{d}.gates.b", init.bias(config.gate_channels))
            if config.pool_and_inject:
                ps.add(f"core.d{d}.pool.w", init.dense(2 * hc, hc))
                ps.add(f"core.d{d}.pool.b", init.bias(hc))
        head_in = eh * ew * ((ec + hc) if config.vision_shortcut else hc)

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

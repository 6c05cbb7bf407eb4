"""Run configuration: a flat `key = value` file mapped onto typed configs.

Unknown keys are rejected so typos fail loudly. Booleans accept true/false,
tuples are comma-separated, and the encoder spec uses
`channels:kernel:stride` groups, e.g. `encoder = 32:8:4,32:4:2`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .drc import DrcConfig, preset_config
from .envs.gridworld import GRIDWORLD12, GridworldConfig
from .envs.minipacman import MiniPacmanConfig
from .train import TrainConfig


@dataclass
class RunConfig:
    game: str = "sokoban"
    drc: DrcConfig = None
    train: TrainConfig = None
    step_limit: int = 120
    levels_path: str = ""  # training level file/directory (Sokoban)
    eval_batch_size: int = 64
    gridworld: GridworldConfig = None
    minipacman: MiniPacmanConfig = None


def parse_config_text(text):
    """Flat key = value pairs; '#' starts a comment; blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _coerce(value, like):
    if isinstance(like, bool):
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        if not value:
            return ()
        return tuple(int(v) for v in value.split(","))
    return value


def _parse_encoder(value):
    layers = []
    for part in value.split(","):
        ch, k, s = (int(x) for x in part.split(":"))
        layers.append((ch, k, s))
    return tuple(layers)


def load_run_config(path=None, overrides=None, seed=None):
    """Build a RunConfig from an optional file plus CLI overrides.

    Keys `<section>.<field>` override one field of the section's dataclass,
    coerced to the type of the field's default.
    """
    raw = {}
    if path:
        with open(path) as f:
            raw.update(parse_config_text(f.read()))
    if overrides:
        raw.update(overrides)

    game = raw.pop("game", "sokoban")
    sections = {}
    for prefix, defaults in (("drc", preset_config(game)),
                             ("train", TrainConfig()),
                             ("gridworld", GRIDWORLD12 if game == "gridworld12" else GridworldConfig()),
                             ("minipacman", MiniPacmanConfig())):
        over = {}
        for f_ in fields(defaults):
            key = f"{prefix}.{f_.name}"
            if key in raw:
                value = raw.pop(key)
                over[f_.name] = (_parse_encoder(value) if key == "drc.encoder"
                                 else _coerce(value, getattr(defaults, f_.name)))
        sections[prefix] = replace(defaults, **over)
    if seed is not None:
        sections["train"] = replace(sections["train"], seed=seed)

    run = RunConfig(
        game=game,
        step_limit=int(raw.pop("env.step_limit", 120)),
        levels_path=raw.pop("data.levels", ""),
        eval_batch_size=int(raw.pop("eval.batch_size", 64)),
        **sections,
    )
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return run

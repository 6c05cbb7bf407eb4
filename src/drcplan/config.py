"""Run configuration: a flat `key = value` file mapped onto typed configs.

Unknown keys are rejected so typos fail loudly. Booleans accept true/false,
tuples are comma-separated, and the encoder spec uses
`channels:kernel:stride` groups, e.g. `encoder = 32:8:4,32:4:2`.

Every game reads `game`, `drc.*`, `train.*`, `env.step_limit`,
`eval.batch_size` and its own keys (`sources.GAME_SETTINGS`): `data.levels`
for Sokoban, `gridworld.*` for the gridworlds, `minipacman.*` for MiniPacman,
none for Boxworld. Another game's key is rejected as unknown.

The game's preset fixes the network's input and action count (`drc.obs_shape`
and `drc.action_count` are not keys; a gridworld's input is `gridworld.size`
square). `env.step_limit` caps every game's episodes (unset: 500 steps for
MiniPacman, 120 for the others). The seed comes only from the command line's
`--seed`: a file that sets `train.seed` is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .drc import DrcConfig, preset_config
from .sources import GAME_SETTINGS
from .train import TrainConfig


@dataclass
class RunConfig:
    game: str = "sokoban"
    drc: DrcConfig = None
    train: TrainConfig = None
    step_limit: int = None  # None: each game's own episode cap
    levels_path: str = ""  # training level file/directory (Sokoban)
    eval_batch_size: int = 64
    settings: object = None  # the game's own settings; None for Sokoban and Boxworld


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


def _coerce(key, value, like):
    """`value` as the type of `like`; a value that does not parse names `key`."""
    if isinstance(like, bool):
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {value!r}")
    try:
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float):
            return float(value)
        if isinstance(like, tuple):
            return tuple(int(v) for v in value.split(",")) if value else ()
    except ValueError:
        kind = "comma-separated integers" if isinstance(like, tuple) else type(like).__name__
        raise ValueError(f"{key}: expected {kind}, got {value!r}") from None
    return value


def _parse_encoder(value):
    layers = []
    for part in value.split(","):
        try:
            ch, k, s = (int(x) for x in part.split(":"))
        except ValueError:
            raise ValueError(f"drc.encoder: expected channels:kernel:stride groups, got {value!r}") from None
        layers.append((ch, k, s))
    return tuple(layers)


def _override(raw, prefix, defaults):
    """`defaults` with the fields `raw` sets as `<prefix>.<field>`, popped and coerced."""
    over = {}
    for f_ in fields(defaults):
        key = f"{prefix}.{f_.name}"
        if key in raw and key not in ("drc.obs_shape", "drc.action_count"):  # set by the game
            value = raw.pop(key)
            over[f_.name] = (_parse_encoder(value) if key == "drc.encoder"
                             else _coerce(key, value, getattr(defaults, f_.name)))
    return replace(defaults, **over)


def load_run_config(path=None, seed=0):
    """Build a RunConfig from an optional file and the run's seed.

    Keys `<section>.<field>` override one field of the section's dataclass;
    a key of a section the game does not read is left over and rejected.
    """
    raw = {}
    if path:
        with open(path) as f:
            raw.update(parse_config_text(f.read()))
    if "train.seed" in raw:
        raise ValueError("train.seed cannot be set in a run config: pass the seed with --seed")

    game = raw.pop("game", "sokoban")
    drc = _override(raw, "drc", preset_config(game))
    train = _override(raw, "train", TrainConfig(seed=seed))
    settings = None
    if game in GAME_SETTINGS:
        prefix, defaults, _ = GAME_SETTINGS[game]
        settings = _override(raw, prefix, defaults)
        if prefix == "gridworld":  # the network sees the whole grid
            drc = replace(drc, obs_shape=(settings.size, settings.size, 1))

    step_limit = raw.pop("env.step_limit", None)
    run = RunConfig(
        game, drc, train,
        step_limit=None if step_limit is None else _coerce("env.step_limit", step_limit, 0),
        levels_path=raw.pop("data.levels", "") if game == "sokoban" else "",
        eval_batch_size=_coerce("eval.batch_size", raw.pop("eval.batch_size", "64"), 0),
        settings=settings,
    )
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    for key, value in (("env.step_limit", run.step_limit), ("eval.batch_size", run.eval_batch_size)):
        if value is not None and value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    return run

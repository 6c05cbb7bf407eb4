"""Sokoban level type and the Boxoban text format.

The on-disk grammar, bit-exact:

    ; <id>
    <10 rows of 10 characters>
    <one blank line between levels, none after the last>

Characters: ``#`` wall, space floor, ``.`` target, ``$`` box, ``@`` player,
``*`` box on target, ``+`` player on target. Files use ``\n`` line endings.
`serialize_levels(parse_levels(text)) == text` for canonical files, and
parsing a serialized set reproduces the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GRID_SIZE = 10

WALL, FLOOR, TARGET = "#", " ", "."
BOX, PLAYER, BOX_ON_TARGET, PLAYER_ON_TARGET = "$", "@", "*", "+"
_VALID_CHARS = set("# .$@*+")


@dataclass(frozen=True)
class SokobanLevel:
    """Static walls/targets plus the initial box and player placement."""

    walls: tuple  # tuple of rows, each a tuple of bools
    targets: frozenset  # (row, col)
    boxes: frozenset  # (row, col)
    player: tuple  # (row, col)

    def __post_init__(self):
        h, w = self.height, self.width
        for r, c in self.boxes | self.targets | {self.player}:
            if not (0 <= r < h and 0 <= c < w):
                raise ValueError(f"cell ({r},{c}) outside {h}x{w} grid")
        if self.walls[self.player[0]][self.player[1]]:
            raise ValueError(f"player at {self.player} is inside a wall")
        for r, c in self.boxes | self.targets:
            if self.walls[r][c]:
                raise ValueError(f"entity at ({r},{c}) is inside a wall")
        if self.player in self.boxes:
            raise ValueError(f"player at {self.player} overlaps a box")
        if len(self.boxes) != len(self.targets):
            raise ValueError(f"{len(self.boxes)} boxes but {len(self.targets)} targets")
        if not self.boxes:
            raise ValueError("level has no boxes")

    @property
    def height(self):
        return len(self.walls)

    @property
    def width(self):
        return len(self.walls[0])

    @property
    def box_count(self):
        return len(self.boxes)

    def is_wall(self, r, c):
        return self.walls[r][c]

    def to_lines(self):
        """Canonical 10-line text rendering."""
        rows = []
        for r in range(self.height):
            row = []
            for c in range(self.width):
                if self.walls[r][c]:
                    ch = WALL
                elif (r, c) == self.player:
                    ch = PLAYER_ON_TARGET if (r, c) in self.targets else PLAYER
                elif (r, c) in self.boxes:
                    ch = BOX_ON_TARGET if (r, c) in self.targets else BOX
                elif (r, c) in self.targets:
                    ch = TARGET
                else:
                    ch = FLOOR
                row.append(ch)
            rows.append("".join(row))
        return rows

    @classmethod
    def from_lines(cls, lines, lineno=0):
        """Parse a block of grid rows; `lineno` is used for error messages."""
        if len(lines) != GRID_SIZE:
            raise ValueError(f"line {lineno}: expected {GRID_SIZE} rows, got {len(lines)}")
        walls, targets, boxes = [], set(), set()
        player = None
        players = 0
        for i, line in enumerate(lines):
            n = lineno + i + 1
            if len(line) != GRID_SIZE:
                raise ValueError(f"line {n}: expected {GRID_SIZE} characters, got {len(line)}")
            row = []
            for c, ch in enumerate(line):
                if ch not in _VALID_CHARS:
                    raise ValueError(f"line {n}: invalid character {ch!r} at column {c}")
                row.append(ch == WALL)
                if ch in (TARGET, BOX_ON_TARGET, PLAYER_ON_TARGET):
                    targets.add((i, c))
                if ch in (BOX, BOX_ON_TARGET):
                    boxes.add((i, c))
                if ch in (PLAYER, PLAYER_ON_TARGET):
                    player = (i, c)
                    players += 1
            walls.append(tuple(row))
        if players != 1:
            raise ValueError(f"line {lineno + 1}: level has {players} players, expected 1")
        if len(boxes) != len(targets):
            raise ValueError(f"line {lineno + 1}: {len(boxes)} boxes but {len(targets)} targets")
        return cls(tuple(walls), frozenset(targets), frozenset(boxes), player)


@dataclass
class LevelSet:
    """An ordered collection of levels with ids and tier/split tags."""

    levels: list = field(default_factory=list)
    ids: list = field(default_factory=list)
    tier: str = "unfiltered"
    split: str = "train"

    def __post_init__(self):
        if len(self.levels) != len(self.ids):
            raise ValueError("levels and ids must be parallel")
        self._id_set = set(self.ids)  # for O(1) duplicate checks in `add`
        if len(self._id_set) != len(self.ids):
            raise ValueError("duplicate level ids")

    def __len__(self):
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def add(self, level, level_id=None):
        if level_id is None:
            level_id = self.ids[-1] + 1 if self.ids else 0
        if level_id in self._id_set:
            raise ValueError(f"duplicate level id {level_id}")
        self.levels.append(level)
        self.ids.append(level_id)
        self._id_set.add(level_id)


def parse_levels(text, tier="unfiltered", split="train"):
    """Parse a Boxoban-format file; raises ValueError with a line number."""
    out = LevelSet(tier=tier, split=split)
    lines = text.split("\n")
    # a canonical file ends with "\n", producing one trailing empty string
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines):
        if lines[i] == "":
            i += 1
            continue
        header = lines[i]
        if not header.startswith("; "):
            raise ValueError(f"line {i + 1}: expected level header '; <id>', got {header!r}")
        try:
            level_id = int(header[2:])
        except ValueError:
            raise ValueError(f"line {i + 1}: malformed level id in {header!r}") from None
        if len(lines) - (i + 1) < GRID_SIZE:
            raise ValueError(f"line {i + 1}: truncated level (expected {GRID_SIZE} rows)")
        block = lines[i + 1:i + 1 + GRID_SIZE]
        level = SokobanLevel.from_lines(block, lineno=i + 1)
        try:
            out.add(level, level_id)
        except ValueError as e:
            raise ValueError(f"line {i + 1}: {e}") from None
        i += 1 + GRID_SIZE
        if i < len(lines) and lines[i] != "":
            raise ValueError(f"line {i + 1}: expected blank line between levels")
        i += 1
    return out


def serialize_levels(level_set):
    """Render a level set in the canonical byte-exact format."""
    blocks = []
    for level_id, level in zip(level_set.ids, level_set.levels):
        blocks.append("\n".join([f"; {level_id}"] + level.to_lines()) + "\n")
    return "\n".join(blocks)


_HASH_BASE = 1099511628211  # 64-bit polynomial rolling hash base
_HASH_MASK = (1 << 64) - 1


def level_hash(level):
    """Stable 64-bit hash of the canonical serialization of a level."""
    h = 0
    for line in level.to_lines():
        for ch in line.encode("ascii"):
            h = (h * _HASH_BASE + ch) & _HASH_MASK
        h = (h * _HASH_BASE + 10) & _HASH_MASK  # newline
    return h

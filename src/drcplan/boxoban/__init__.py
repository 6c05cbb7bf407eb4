"""Boxoban dataset pipeline: levels, text I/O, solving, generation, filtering."""

from .filtering import (SolutionReplayPolicy, UniformRandomPolicy, filter_by_agent,
                        play_scripted)
from .generator import generate_level, generate_level_set
from .levels import (GRID_SIZE, LevelSet, SokobanLevel, level_hash,
                     parse_levels, serialize_levels)
from .solver import (BUDGET_EXHAUSTED, SOLVED, UNSOLVABLE, Solution,
                     SolveResult, replay_solution, solve_bfs)

__all__ = [
    "GRID_SIZE", "SokobanLevel", "LevelSet",
    "parse_levels", "serialize_levels", "level_hash",
    "solve_bfs", "replay_solution", "Solution", "SolveResult",
    "SOLVED", "UNSOLVABLE", "BUDGET_EXHAUSTED",
    "generate_level", "generate_level_set",
    "filter_by_agent", "play_scripted",
    "UniformRandomPolicy", "SolutionReplayPolicy",
]

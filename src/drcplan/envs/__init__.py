"""Planning environments: Sokoban, Gridworld, Boxworld, MiniPacman."""

from .base import DIRECTIONS, Env, StepResult
from .boxworld import BoxworldEnv, generate_boxworld, solve_scripted
from .gridworld import GRIDWORLD12, GridworldConfig, GridworldEnv, generate_gridworld
from .minipacman import MiniPacmanConfig, MiniPacmanEnv
from .sokoban_env import SokobanEnv

__all__ = [
    "DIRECTIONS", "Env", "StepResult",
    "SokobanEnv",
    "GridworldEnv", "GridworldConfig", "GRIDWORLD12", "generate_gridworld",
    "BoxworldEnv", "generate_boxworld", "solve_scripted",
    "MiniPacmanEnv", "MiniPacmanConfig",
]

"""Level text format, hashing, the A* solver oracle, generation, filtering."""

import hashlib
import heapq
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcplan.boxoban import (BUDGET_EXHAUSTED, SOLVED, UNSOLVABLE, LevelSet,
                             SokobanLevel, filter_by_agent, generate_level,
                             generate_level_set, level_hash, parse_levels, play_random,
                             replay_solution, serialize_levels, solve_bfs)
from drcplan.boxoban import generator, solver
from drcplan.boxoban.generator import _reverse_play_sample
from drcplan.envs.sokoban_env import ACTION_NOOP, SokobanEnv

import oracles


def level_from(text):
    return SokobanLevel.from_lines(text.strip("\n").split("\n"))


GOLDEN = """; 0
##########
#@ $ .   #
# $    . #
#  $   . #
#        #
#   # .  #
#  $#    #
#   #    #
#        #
##########

; 1
##########
#        #
# @$.    #
# $.     #
# $.     #
# $.     #
#        #
#        #
#        #
##########
"""


def test_parse_serialize_roundtrip_bytes():
    ls = parse_levels(GOLDEN)
    assert len(ls) == 2
    assert ls.ids == [0, 1]
    assert serialize_levels(ls) == GOLDEN


def test_value_roundtrip():
    ls = parse_levels(GOLDEN)
    again = parse_levels(serialize_levels(ls))
    assert again.levels == ls.levels and again.ids == ls.ids


@settings(max_examples=40, deadline=None, derandomize=True)
@given(draws=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                                st.integers(0, 2**63 - 1)),
                      min_size=1, max_size=4, unique_by=lambda draw: draw[2]))
def test_level_text_round_trips(draws):
    """Reverse-play levels with 1-4 boxes under distinct random ids parse
    back to the same ids and levels, and reserialize to the same text."""
    levels = LevelSet()
    for seed, boxes, level_id in draws:
        rng = np.random.default_rng(seed)
        level = None
        while level is None:
            level = _reverse_play_sample(rng, boxes)
        levels.add(level, level_id)
    text = serialize_levels(levels)
    parsed = parse_levels(text)
    assert serialize_levels(parsed) == text
    assert (parsed.ids, parsed.levels) == (levels.ids, levels.levels)


def test_empty_file():
    ls = parse_levels("")
    assert len(ls) == 0
    assert serialize_levels(ls) == ""


def test_parse_error_unbalanced_boxes_targets():
    bad = GOLDEN.replace("# $.     #\n# $.     #\n# $.     #\n",
                         "# $.     #\n# $.     #\n# $..    #\n", 1)
    with pytest.raises(ValueError, match="line .*boxes but"):
        parse_levels(bad)


def test_parse_error_bad_character_names_line():
    bad = GOLDEN.replace("#   # .  #", "#   # ?  #")
    with pytest.raises(ValueError, match="line 7"):
        parse_levels(bad)


def test_parse_error_wrong_dimensions():
    bad = GOLDEN.replace("##########\n#@ $ .   #", "##########\n#@ $ .  #", 1)
    with pytest.raises(ValueError, match="expected 10 characters"):
        parse_levels(bad)


@pytest.mark.parametrize("rows, message", [
    ({22: "         #"}, "border cell (8,0) is not a wall"),
    ({16: "# @      #", 17: "#        #", 18: "#        #", 19: "#        #"},
     "level has no boxes"),
])
def test_parse_error_in_a_level_names_its_header_line(rows, message):
    lines = GOLDEN.split("\n")  # level 1's header is line 13
    for n, row in rows.items():
        lines[n - 1] = row
    with pytest.raises(ValueError, match=f"^line 13: {re.escape(message)}$"):
        parse_levels("\n".join(lines))


@pytest.mark.parametrize("rows", [9, 4])
def test_parse_error_truncated_last_level(rows):
    cut = "\n".join(GOLDEN.split("\n")[:13 + rows]) + "\n"
    with pytest.raises(ValueError, match="line 13: truncated level"):
        parse_levels(cut)


def test_level_set_add_checks_duplicates_without_scanning_the_ids():
    """Each `add` looks its id up in a set, not by comparing it with every
    id so far, so building a set of n levels is linear in n."""
    calls = [0]

    class Id(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            calls[0] += 1
            return int(self) == int(other)

    level = parse_levels(GOLDEN).levels[0]
    ls = LevelSet()
    for i in range(200):
        ls.add(level, Id(i))
    assert calls[0] < 200  # a scan of the list makes 19,900 calls
    assert ls.ids == list(range(200))
    with pytest.raises(ValueError, match="duplicate level id 7"):
        ls.add(level, Id(7))
    with pytest.raises(ValueError, match="duplicate level ids"):
        LevelSet(levels=[level, level], ids=[Id(3), Id(3)])


def test_parse_error_missing_header():
    with pytest.raises(ValueError, match="header"):
        parse_levels("##########\n" * 10)


def test_parse_error_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        parse_levels(GOLDEN.replace("; 1", "; 0"))


def test_hash_equal_levels_equal_hashes():
    a = parse_levels(GOLDEN).levels[0]
    b = parse_levels(GOLDEN).levels[0]
    assert a == b and level_hash(a) == level_hash(b)


def test_hash_is_canonical_over_box_set_order():
    text = GOLDEN.split("\n\n")[0].split("\n", 1)[1]
    lines = text.strip("\n").split("\n")
    lvl = SokobanLevel.from_lines(lines)
    reordered = SokobanLevel(lvl.walls, frozenset(sorted(lvl.targets, reverse=True)),
                             frozenset(sorted(lvl.boxes, reverse=True)), lvl.player)
    assert level_hash(lvl) == level_hash(reordered)


def test_hash_no_collisions_small_scan():
    hashes = {level_hash(generate_level(s)) for s in range(300)}
    assert len(hashes) == 300


def test_solver_already_solved_level():
    lvl = level_from("""\
##########
#@       #
# *      #
#        #
#        #
#        #
#        #
#        #
#        #
##########""")
    res = solve_bfs(lvl)
    assert res.status == SOLVED
    assert res.solution.actions == []


def test_solver_single_forced_push():
    lvl = level_from("""\
##########
#        #
# @$.    #
#        #
#        #
#        #
#        #
#        #
#        #
##########""")
    res = solve_bfs(lvl)
    assert res.status == SOLVED
    assert res.solution.actions == [3]  # one push right
    assert res.solution.pushes == 1


CORNER_DEADLOCK = """\
##########
#$       #
#  @   . #
#        #
#        #
#        #
#        #
#        #
#        #
##########"""

# box against the top wall, no target anywhere on that wall line
WALL_LINE_DEADLOCK = """\
##########
#   $    #
#   @    #
#     .  #
#        #
#        #
#        #
#        #
#        #
##########"""


# four boxes frozen in a 2x2 block: the search must try every place of the
# fifth box before it proves the level unsolvable
FROZEN_BLOCK = """\
##########
#        #
# $$   . #
# $$   . #
#     $. #
#      . #
#      . #
#  @     #
#        #
##########"""


# both boxes sit against the top wall, so each can only reach the one
# target on that wall: every box can reach a target, but no two can reach
# distinct ones
SHARED_TARGET = """\
##########
#  $ $.  #
#        #
#   @    #
#        #
#     .  #
#        #
#        #
#        #
##########"""


def test_solver_corner_deadlock_unsolvable():
    assert solve_bfs(level_from(CORNER_DEADLOCK)).status == UNSOLVABLE


def test_solver_wall_line_deadlock_unsolvable():
    assert solve_bfs(level_from(WALL_LINE_DEADLOCK)).status == UNSOLVABLE


def test_solver_budget_exhaustion_is_a_value():
    lvl = generate_level(5)
    res = solve_bfs(lvl, node_budget=3)
    assert res.status in (BUDGET_EXHAUSTED, SOLVED)
    if res.status == BUDGET_EXHAUSTED:
        assert res.solution is None
    with pytest.raises(ValueError):
        solve_bfs(lvl, node_budget=0)


def test_solver_solutions_replay_and_are_push_minimal_or_better():
    golden = parse_levels(GOLDEN).levels
    # level 1: four boxes, each one push from its target (by hand); level 0:
    # 17 pushes, as found by an exhaustive breadth-first push search
    for level, pushes in zip(golden, (17, 4)):
        res = solve_bfs(level)
        assert res.status == SOLVED
        assert res.solution.pushes == pushes
        assert replay_solution(level, res.solution.actions)
    for seed in range(20):
        lvl = generate_level(seed)
        res = solve_bfs(lvl)
        assert res.status == SOLVED
        assert replay_solution(lvl, res.solution.actions)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), boxes=st.integers(1, 3))
def test_solver_plans_replay_and_need_their_last_push(seed, boxes):
    """On reverse-play samples, the solver's plan solves the level under
    `SokobanEnv`'s rules, and the plan without its last push does not."""
    rng = np.random.default_rng(seed)
    level = None
    while level is None:
        level = _reverse_play_sample(rng, boxes)
    res = solve_bfs(level)
    assert res.status == SOLVED
    assert replay_solution(level, res.solution.actions)
    assert not replay_solution(level, res.solution.actions[:-1])


def test_replay_draws_no_frame_per_move(monkeypatch):
    """`replay_solution` runs the moves through `SokobanEnv`'s rules and
    draws no frame, whether the plan solves the level or not."""
    frames, render = [], SokobanEnv.render
    monkeypatch.setattr(SokobanEnv, "render", lambda env: frames.append(env) or render(env))
    for level in parse_levels(GOLDEN).levels:
        actions = solve_bfs(level).solution.actions
        for plan, solves in ((actions, True), (actions[:-1], False)):
            frames.clear()
            assert replay_solution(level, plan) == solves
            assert frames == []


def _reference_levels():
    """GOLDEN, the hand-made deadlocks and six unchecked reverse-play samples
    per box count 1-5 (the degenerate ones, which come back as None, are
    skipped)."""
    levels = parse_levels(GOLDEN).levels + [
        level_from(text) for text in (CORNER_DEADLOCK, WALL_LINE_DEADLOCK, FROZEN_BLOCK)]
    rng = np.random.default_rng(0)
    for boxes in range(1, 6):
        samples = []
        while len(samples) < 6:
            level = _reverse_play_sample(rng, boxes)
            if level is not None:
                samples.append(level)
        levels += samples
    return levels


class _CountingHeapq:
    """`heapq` as a solver module sees it, counting heap insertions."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


def test_solver_runs_the_reference_search_node_for_node(monkeypatch):
    """`solve_bfs` inserts and expands the same states in the same order as
    the tuple-keyed search in `oracles`: same status, node count, plan and
    number of heap insertions, at the CLI's 200k budget and at half the
    nodes each level needs there. (Insertions are what the (boxes, player
    cell) filter saves; without it the expansions would not change.)"""
    counters = {}
    for module in (solver, oracles):
        counters[module] = _CountingHeapq()
        monkeypatch.setattr(module, "heapq", counters[module])

    def run(module, solve, level, budget):
        counters[module].pushes = 0
        res = solve(level, node_budget=budget)
        plan = res.solution and (res.solution.pushes, res.solution.actions)
        return res.status, res.nodes, plan, counters[module].pushes

    exhausted = unsolvable_searched = 0
    for level in _reference_levels():
        full = run(oracles, oracles.solve_bfs_reference, level, 200000)
        small = max(1, full[1] // 2)
        for budget, want in ((200000, full), (small, run(oracles, oracles.solve_bfs_reference, level, small))):
            assert run(solver, solve_bfs, level, budget) == want, (level, budget)
            exhausted += want[0] == BUDGET_EXHAUSTED
            unsolvable_searched += want[0] == UNSOLVABLE and want[1] > 0
    assert exhausted >= 20 and unsolvable_searched == 1


def _random_placement(rng, boxes, size=7):
    """A size x size level with a few random interior walls and boxes,
    targets and player on distinct random floor cells, redrawn until every
    box can reach some target: many such levels are unsolvable."""
    while True:
        walls = tuple(tuple(r in (0, size - 1) or c in (0, size - 1) or rng.random() < 0.1
                            for c in range(size)) for r in range(size))
        floor = [(r, c) for r in range(size) for c in range(size) if not walls[r][c]]
        cells = [floor[i] for i in rng.choice(len(floor), size=2 * boxes + 1, replace=False)]
        level = SokobanLevel(walls, frozenset(cells[boxes:2 * boxes]), frozenset(cells[:boxes]), cells[-1])
        if level.boxes <= set().union(*oracles.push_distances_reference(level)):
            return level


def test_solver_agrees_with_an_exhaustive_push_search():
    """Status and push count equal those of a breadth-first search with no
    bound, on 1-2-box reverse-play samples, 1-3-box random placements
    (solvable, unsolvable at the root, unsolvable after a search) and
    SHARED_TARGET, which only the missing matching proves unsolvable
    without a search."""
    rng = np.random.default_rng(0)
    # (the exhaustive search takes up to seconds on a 3-box 10 x 10 sample)
    samples = [_reverse_play_sample(rng, boxes) for boxes in (1, 2) for _ in range(8)]
    levels = [level_from(SHARED_TARGET)] + [s for s in samples if s is not None]
    levels += [_random_placement(rng, boxes) for boxes in (1, 2, 3) for _ in range(10)]
    outcomes = set()
    for level in levels:
        res = solve_bfs(level)
        pushes = oracles.push_bfs_reference(level)
        assert (res.status, res.solution and res.solution.pushes) == (
            (SOLVED, pushes) if pushes is not None else (UNSOLVABLE, None)), level
        outcomes.add((res.status, res.nodes > 0))
    assert outcomes == {(SOLVED, True), (UNSOLVABLE, False), (UNSOLVABLE, True)}
    assert solve_bfs(level_from(SHARED_TARGET)).nodes == 0


def test_matching_bound_is_the_cheapest_assignment():
    """`_Matching.bound` equals the minimum over every permutation of the
    targets, on the box sets of a random walk of single box moves through
    2-, 4- and 6-box samples: each state's children, one per cell next to a
    box, share that box's table of the other boxes, as in a search."""
    rng = np.random.default_rng(1)
    outcomes = set()
    for boxes in (2, 4, 6):
        level = None
        while level is None:
            level = _reverse_play_sample(rng, boxes)
        board = solver._Board(level)
        matching = solver._Matching(board)
        tables = oracles.push_distances_reference(level)
        cells = set(level.boxes)
        for _ in range(25):
            moved = sorted(cells)[rng.integers(len(cells))]
            others = cells - {moved}
            to = [(moved[0] + dr, moved[1] + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))]
            to = [c for c in to if not level.walls[c[0]][c[1]] and c not in others]
            for cell in to:
                want = oracles.matching_bound_reference(tables, sorted(others | {cell}))
                got = matching.bound(board._mask(others | {cell}), board._mask(others), board.idx(cell))
                assert got == want, (level, others, cell)
                outcomes.add(want is None)
            if to:
                cells = others | {to[rng.integers(len(to))]}
    assert outcomes == {True, False}


# sha256 of serialize_levels(generate_level_set(40 + b, n, boxes=b))
GENERATED_SETS = {
    (4, 4): "a814266cf3533325cb56d95a8db9b99d045b310162c91d78d1a6949cccc0ef54",
    (5, 3): "0e077a27827eab135533b684258eed5842fa5c0608ec05650530fbf54a54a7d0",
    (6, 2): "30c361eee29b88364891a39b23566785312f5ab352061c96f7ce92874c40629c",
    (7, 2): "0d465a5eb0700249db9e48c5943b0154ff7a6287026e5d48407c7d4cae667c38",
}


@pytest.mark.parametrize("boxes, count", sorted(GENERATED_SETS))
def test_generated_level_sets_keep_their_bytes(boxes, count):
    """Generation and certification emit the same levels as before: a
    solver change that rejects or accepts other samples fails here."""
    text = serialize_levels(generate_level_set(40 + boxes, count, boxes=boxes))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SETS[boxes, count]


def test_generated_levels_certified_and_deterministic():
    a = generate_level(123)
    b = generate_level(123)
    assert a == b
    assert solve_bfs(a).status == SOLVED
    assert a.box_count == 4
    assert not (a.boxes & a.targets)


def test_generate_level_set_unique_hashes():
    ls = generate_level_set(7, 60)
    assert len(ls) == 60
    assert len({level_hash(l) for l in ls.levels}) == 60


def test_generate_extrapolation_box_counts():
    for n in (5, 6, 7):
        lvl = generate_level(100 + n, boxes=n)
        assert lvl.box_count == n
        assert solve_bfs(lvl).status == SOLVED


def test_generate_level_takes_one_to_eight_boxes(monkeypatch):
    """Eight boxes still fit the carved floor. Counts outside 1-8 fail,
    naming the range, before any sample is drawn."""
    assert generate_level(7, boxes=8).box_count == 8
    monkeypatch.setattr(generator, "_reverse_play_sample", lambda *a: pytest.fail("a sample was drawn"))
    for boxes in (0, 9):
        with pytest.raises(ValueError, match=f"^boxes must be between 1 and 8, got {boxes}$"):
            generate_level(0, boxes=boxes)


def test_generate_level_failure_names_its_cause(monkeypatch):
    # one expansion cannot certify a level whose four boxes all need a push
    monkeypatch.setattr(generator, "MAX_TRIES", 3)
    monkeypatch.setattr(generator, "NODE_BUDGET", 1)
    with pytest.raises(RuntimeError) as info:
        generate_level(5)
    m = re.search(r"boxes=4\): (\d+) samples were degenerate and (\d+) could not "
                  r"be certified within node_budget=1$", str(info.value))
    assert m and int(m[1]) + int(m[2]) == 3 and int(m[2]) > 0


def play_scripted(policy, env_factories, seed=0):
    """`play_random` for a scripted policy `(env, rng) -> action`, whose
    `begin_episode(env)` hook, if any, runs when each env is built."""
    key = seed if isinstance(seed, tuple) else (seed,)
    outcomes = []
    for j, make in enumerate(env_factories):
        env = make()
        rng = np.random.default_rng([*key, j])
        if hasattr(policy, "begin_episode"):
            policy.begin_episode(env)
        while not env.step(policy(env, rng)).done:
            pass
        outcomes.append((env.solved, env.episode_return, env.steps))
    return outcomes


class SolutionReplayPolicy:
    """A scripted probe that replays known solutions keyed by level hash and
    plays no-ops once a plan is exhausted (or on a level it has none for)."""

    def __init__(self, solutions):
        self.solutions = solutions  # level_hash -> action list
        self._plan = []
        self._i = 0

    def begin_episode(self, env):
        self._plan = self.solutions.get(level_hash(env.level), [])
        self._i = 0

    def __call__(self, env, rng):
        if self._i < len(self._plan):
            a = self._plan[self._i]
            self._i += 1
            return a
        return ACTION_NOOP


def test_filter_keeps_levels_the_policy_fails():
    """The filtered set is exactly the subset the probe cannot solve. The probe
    replays solver solutions for every third id, so it solves a known part."""
    ls = generate_level_set(11, 12)
    solvable = {i for i in ls.ids if i % 3 == 0}
    policy = partial(play_scripted, SolutionReplayPolicy(
        {level_hash(l): solve_bfs(l).solution.actions
         for i, l in zip(ls.ids, ls.levels) if i in solvable}))
    kept = filter_by_agent(ls, policy, attempts=10, seed=0)
    assert solvable and kept.ids == [i for i in ls.ids if i not in solvable]
    for level_id, level in zip(kept.ids, kept.levels):
        sub = LevelSet(levels=[level], ids=[level_id])
        again = filter_by_agent(sub, policy, attempts=10, seed=0)
        assert len(again) == 1


def test_filter_rejects_oracle_solved_levels():
    ls = generate_level_set(13, 8)
    solutions = {level_hash(l): solve_bfs(l).solution.actions for l in ls.levels}
    oracle = partial(play_scripted, SolutionReplayPolicy(solutions))
    kept = filter_by_agent(ls, oracle, attempts=10, seed=0)
    assert len(kept) == 0


def test_the_random_probe_plays_uniform_actions_and_draws_no_frame(monkeypatch):
    """`play_random` steps episode j with a uniform action from RNG
    `[*seed, j]`, as a scripted uniform policy does, and never renders."""
    levels = generate_level_set(29, 4, boxes=1).levels
    factories = [partial(SokobanEnv, lv, step_limit=40) for lv in levels]
    scripted = play_scripted(lambda env, rng: int(rng.integers(0, 5)), factories, seed=(5, 2))
    frames, render = [], SokobanEnv.render
    monkeypatch.setattr(SokobanEnv, "render", lambda env: frames.append(env) or render(env))
    assert play_random(factories, seed=(5, 2)) == scripted
    assert any(solved for solved, _, _ in scripted) and frames == []


def test_filter_random_policy_keeps_most_levels():
    ls = generate_level_set(17, 15)
    kept = filter_by_agent(ls, play_random, attempts=2, seed=0)
    assert len(kept) >= 12  # random play rarely solves these


def test_filter_decides_each_level_on_its_own():
    """Attempt a on a level plays RNG [seed, level_id, a], so a level's fate
    does not depend on the other levels of the set."""
    ls = generate_level_set(29, 12, boxes=1)
    kept = filter_by_agent(ls, play_random, attempts=3, step_limit=40, seed=5)
    alone = [i for i, l in zip(ls.ids, ls.levels)
             if len(filter_by_agent(LevelSet(levels=[l], ids=[i]), play_random, attempts=3,
                                    step_limit=40, seed=5))]
    assert kept.ids == alone
    assert 0 < len(kept) < len(ls)  # both decisions occur


def test_filter_plays_attempt_a_on_stream_seed_level_id_a():
    ls = generate_level_set(31, 3, boxes=1)
    ls = LevelSet(levels=ls.levels, ids=[4, 9, 17])
    first_draws = []

    class Spy:
        def begin_episode(self, env):
            first_draws.append(None)

        def __call__(self, env, rng):
            if first_draws[-1] is None:
                first_draws[-1] = rng.random()
            return 4  # the no-op never solves, so every attempt is played

    kept = filter_by_agent(ls, partial(play_scripted, Spy()), attempts=2, step_limit=3, seed=5)
    assert kept.ids == [4, 9, 17]
    assert first_draws == [np.random.default_rng([5, i, a]).random()
                           for i in ls.ids for a in (0, 1)]


def test_filter_zero_attempts_empty_by_convention():
    ls = generate_level_set(19, 3)
    kept = filter_by_agent(ls, play_random, attempts=0)
    assert len(kept) == 0


def test_filtered_set_is_strictly_harder_for_the_probe_policy():
    """Tier-construction property: the probe policy's solve rate on the
    filtered set is 0, hence strictly below its rate on the source set.

    The probe replays solver solutions for the even ids only, so its solve
    set on the source is known and non-empty."""
    ls = generate_level_set(23, 25)
    solvable = [i for i in ls.ids if i % 2 == 0]
    policy = partial(play_scripted, SolutionReplayPolicy(
        {level_hash(l): solve_bfs(l).solution.actions
         for i, l in zip(ls.ids, ls.levels) if i in solvable}))
    kept = filter_by_agent(ls, policy, attempts=4, seed=1)
    solved_src = len(ls) - len(kept)
    assert solved_src == len(solvable)
    assert solved_src > 0  # the probe solves at least one source level
    assert kept.ids == [i for i in ls.ids if i not in solvable]
    again = filter_by_agent(kept, policy, attempts=4, seed=1)
    assert len(again) == len(kept)  # 0 solves on the filtered tier

"""Level text format, hashing, the A* solver oracle, generation, filtering."""

import re
from functools import partial

import numpy as np
import pytest

from drcplan.boxoban import (BUDGET_EXHAUSTED, SOLVED, UNSOLVABLE, LevelSet,
                             SokobanLevel, SolutionReplayPolicy, UniformRandomPolicy,
                             filter_by_agent, generate_level, generate_level_set,
                             level_hash, parse_levels, play_scripted, replay_solution,
                             serialize_levels, solve_bfs)


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


def test_solver_corner_deadlock_unsolvable():
    lvl = level_from("""\
##########
#$       #
#  @   . #
#        #
#        #
#        #
#        #
#        #
#        #
##########""")
    assert solve_bfs(lvl).status == UNSOLVABLE


def test_solver_wall_line_deadlock_unsolvable():
    # box against the top wall, no target anywhere on that wall line
    lvl = level_from("""\
##########
#   $    #
#   @    #
#     .  #
#        #
#        #
#        #
#        #
#        #
##########""")
    assert solve_bfs(lvl).status == UNSOLVABLE


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


def test_generate_level_failure_names_its_cause():
    # one expansion cannot certify a level whose four boxes all need a push
    with pytest.raises(RuntimeError) as info:
        generate_level(5, max_tries=3, node_budget=1)
    m = re.search(r"boxes=4\): (\d+) samples were degenerate and (\d+) could not "
                  r"be certified within node_budget=1$", str(info.value))
    assert m and int(m[1]) + int(m[2]) == 3 and int(m[2]) > 0


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


def test_filter_random_policy_keeps_most_levels():
    ls = generate_level_set(17, 15)
    kept = filter_by_agent(ls, partial(play_scripted, UniformRandomPolicy(5)), attempts=2, seed=0)
    assert len(kept) >= 12  # random play rarely solves these


def test_filter_decides_each_level_on_its_own():
    """Attempt a on a level plays RNG [seed, level_id, a], so a level's fate
    does not depend on the other levels of the set."""
    ls = generate_level_set(29, 12, boxes=1)
    play = partial(play_scripted, UniformRandomPolicy(5))
    kept = filter_by_agent(ls, play, attempts=3, step_limit=40, seed=5)
    alone = [i for i, l in zip(ls.ids, ls.levels)
             if len(filter_by_agent(LevelSet(levels=[l], ids=[i]), play, attempts=3,
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

        def __call__(self, obs, rng):
            if first_draws[-1] is None:
                first_draws[-1] = rng.random()
            return 4  # the no-op never solves, so every attempt is played

    kept = filter_by_agent(ls, partial(play_scripted, Spy()), attempts=2, step_limit=3, seed=5)
    assert kept.ids == [4, 9, 17]
    assert first_draws == [np.random.default_rng([5, i, a]).random()
                           for i in ls.ids for a in (0, 1)]


def test_filter_zero_attempts_empty_by_convention():
    ls = generate_level_set(19, 3)
    kept = filter_by_agent(ls, partial(play_scripted, UniformRandomPolicy(5)), attempts=0)
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

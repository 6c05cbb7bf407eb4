"""Self-tests of the benchmark at a tiny size; not part of the tier-1 suite.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import (WORKLOADS, EvalWorkload, LevelgenWorkload,  # noqa: E402
                       TrainWorkload, load_fixture)

from drcplan import boxoban  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

TINY = {
    "train_sokoban": lambda: TrainWorkload("sokoban", 3, 3, actors=2, batch=2, unroll=2, setup_reps=1),
    "train_gridworld12": lambda: TrainWorkload("gridworld12", 1, 1, actors=2, batch=2, unroll=4,
                                               setup_reps=1),
    "eval_sokoban": lambda: EvalWorkload(batch=2, k_max=1, limits=(2, 6), setup_reps=1),
    "levelgen": lambda: LevelgenWorkload(pool=((4, 1, 1),), probe=1, setup_reps=1),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_fixture_parses_certifies_and_replays():
    levels = load_fixture()
    assert len(levels) == 48 and all(lv.box_count == 4 for lv in levels)
    for lv in levels:
        res = boxoban.solve_bfs(lv, node_budget=200000)
        assert res.status == boxoban.SOLVED
        assert boxoban.replay_solution(lv, res.solution.actions)


def test_two_workload_seeds_give_disjoint_levels():
    hashes = []
    for seed in (1, 2):
        w = LevelgenWorkload(pool=(), probe=3, setup_reps=1)
        w.prepare(seed)
        assert not w.check()
        hashes.append(w.probe_hashes)
    assert len(hashes[0]) == len(hashes[1]) == 3
    assert not hashes[0] & hashes[1]


def _expect(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(name, trace):
    result, named, problems, _ = run.run(TINY[name](), seed=3, seconds=0.01, trace=trace)
    assert problems == [] and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = _expect("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(v > 0 for v, _ in named.values())


def test_command_prints_result_last(tmp_path):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_gridworld12",
                          "--seed", "5",
                          "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    assert meta["blas_threads"] == 1 and meta["seed"] == 5 and meta["schema"] == run.SCHEMA
    result = json.loads(lines[-1])
    assert result["correct"] and set(result["metrics"]) == set(_expect("end_to_end"))


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces", "tmp-*"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "levelgen", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

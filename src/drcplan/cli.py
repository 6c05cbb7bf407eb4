"""Command-line interface.

Subcommands: train, eval, think-eval, extrapolate, gen-levels, filter-levels,
verify-levels, gradcheck, param-count. Shared flags: --config, --seed, --out,
each only on the subcommands whose handler reads it; --seed is a run's only
seed (a run config may not set `train.seed`). Reports are written as JSON,
training metrics as JSONL (one object per update); identical config and seed
reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .boxoban import (SOLVED, filter_by_agent, generate_level_set, level_hash, parse_levels,
                      play_random, replay_solution, serialize_levels, solve_bfs)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_run_config
from .drc import DrcNetwork, build_parameters, count_parameters, format_count_report
from .evaluate import (evaluate, extrapolate_boxes, run_episodes, sokoban_factories,
                       thinking_steps_eval)
from .gradcheck import full_drc_gradcheck
from .sources import source_factory
from .train import Trainer


def _add_common(p, flags=("--config", "--seed", "--out")):
    settings = {"--config": dict(help="run config file (key = value)"),
                "--seed": dict(type=non_negative_int, default=0),
                "--out": dict(default="out", help="output directory")}
    for flag in flags:
        p.add_argument(flag, **settings[flag])


def _int_at_least(text, low):
    n = int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
    return n


def positive_int(text):
    """An argparse type: an integer of at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text):
    """An argparse type: an integer of at least 0."""
    return _int_at_least(text, 0)


def positive_ints(text):
    """An argparse type: comma-separated integers of at least 1."""
    return tuple(map(positive_int, text.split(",")))


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_levels(path):
    """Read one level file or every .txt under a directory, sorted; later files'
    levels take the ids after the first file's, and a parse error names its file."""
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(dp, f)
            for dp, _, fs in os.walk(path) for f in fs if f.endswith(".txt")
        )
        if not paths:
            raise FileNotFoundError(f"no .txt level files under {path}")
    else:
        paths = [path]
    merged = None
    for p in paths:
        with open(p) as f:
            text = f.read()
        try:
            ls = parse_levels(text)
        except ValueError as e:
            raise ValueError(f"{p}: {e}") from None
        if merged is None:
            merged, offset = ls, max(ls.ids, default=-1) + 1
        else:
            for lv in ls.levels:
                merged.add(lv, offset)
                offset += 1
    return merged


def _sokoban_run(args):
    """Run config of a Sokoban-only command; other games fail first."""
    run = load_run_config(args.config, seed=args.seed)
    if run.game != "sokoban":
        raise ValueError(f"{args.command} plays Sokoban only, but the run config's game is "
                         f"{run.game!r}")
    return run


def _load_net(args, run):
    """The checkpoint's network, after checking it fits the run config's DRC."""
    params, _ = load_checkpoint(args.params)
    want = build_parameters(run.drc)
    for path in dict.fromkeys(want.paths() + params.paths()):
        got, expected = (ps[path].shape if path in ps else "absent" for ps in (params, want))
        if got != expected:
            raise ValueError(f"{args.params} does not fit the run config: {path!r} is {got} "
                             f"in the checkpoint but {expected} under the config")
    return DrcNetwork(run.drc, params)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(args):
    run = load_run_config(args.config, seed=args.seed)
    net = DrcNetwork.create(run.drc, seed=run.train.seed)
    levels = _load_levels(run.levels_path) if run.levels_path else None
    factory = source_factory(run.game, levels=levels, settings=run.settings, step_limit=run.step_limit)
    out = _ensure_out(args)
    trainer = Trainer(net, factory, run.train, out_dir=out)
    trainer.run(args.env_steps, metrics_path=os.path.join(out, "metrics.jsonl"),
                log_every=args.log_every)
    save_checkpoint(os.path.join(out, "params.bin"), net.params, trainer.adam)
    print(f"trained {trainer.updates} updates / {trainer.env_steps} env steps; "
          f"checkpoint at {out}/params.bin")


def cmd_eval(args):
    run = _sokoban_run(args)
    net = _load_net(args, run)
    factories = sokoban_factories(_load_levels(args.levels), step_limit=run.step_limit)
    report = evaluate(net, factories, episodes_per_level=args.episodes_per_level,
                      mode=args.mode, seed=args.seed, batch_size=run.eval_batch_size,
                      level_set_id=args.levels)
    _write_json(os.path.join(_ensure_out(args), "eval.json"), report.to_dict())
    print(f"{report.level_set_id}: solved {report.solved}/{report.episodes} "
          f"({report.solved_fraction:.3f} ± {report.ci95:.3f}), "
          f"return {report.mean_return:.2f}, length {report.mean_length:.1f}")


def cmd_think_eval(args):
    run = _sokoban_run(args)
    net = _load_net(args, run)
    factories = sokoban_factories(_load_levels(args.levels), step_limit=run.step_limit)
    curve = thinking_steps_eval(net, factories, k_max=args.k_max,
                                episodes_per_level=args.episodes_per_level,
                                mode=args.mode, seed=args.seed,
                                batch_size=run.eval_batch_size, level_set_id=args.levels)
    payload = {str(k): r.to_dict() for k, r in curve.items()}
    _write_json(os.path.join(_ensure_out(args), "thinking_curve.json"), payload)
    for k in sorted(curve):
        r = curve[k]
        print(f"k={k:2d}  solved {r.solved_fraction:.3f} ± {r.ci95:.3f}")


def cmd_extrapolate(args):
    run = _sokoban_run(args)
    net = _load_net(args, run)
    result = extrapolate_boxes(net, box_counts=args.boxes, levels_per_count=args.levels_per_count,
                               seed=args.seed, mode=args.mode, step_limit=run.step_limit,
                               batch_size=run.eval_batch_size)
    payload = {
        "reports": {str(n): r.to_dict() for n, r in result["reports"].items()},
        "degradation_vs_base": {str(n): d for n, d in result["degradation_vs_base"].items()},
    }
    _write_json(os.path.join(_ensure_out(args), "extrapolation.json"), payload)
    for n in args.boxes:
        r = result["reports"][n]
        print(f"{n} boxes: solved {r.solved_fraction:.3f} ± {r.ci95:.3f} "
              f"(degradation {result['degradation_vs_base'][n]:+.3f})")


def cmd_gen_levels(args):
    out = os.path.join(args.out, args.tier, args.split)
    per_file = 1000
    written = 0
    file_idx = 0
    while written < args.count:
        n = min(per_file, args.count - written)
        ls = generate_level_set(args.seed + file_idx * 1_000_003, n, boxes=args.boxes)
        path = os.path.join(out, f"{file_idx:03d}.txt")
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as f:
            f.write(serialize_levels(ls))
        written += n
        file_idx += 1
        print(f"wrote {n} levels to {path}")


def cmd_filter_levels(args):
    run = _sokoban_run(args)
    levels = _load_levels(args.levels)
    if args.params is None:
        play = play_random
    else:
        play = partial(run_episodes, _load_net(args, run), batch_size=run.eval_batch_size)
    kept = filter_by_agent(levels, play, attempts=args.attempts, step_limit=run.step_limit,
                           seed=args.seed)
    path = os.path.join(_ensure_out(args), f"{args.tier}.txt")
    with open(path, "w") as f:
        f.write(serialize_levels(kept))
    print(f"kept {len(kept)}/{len(levels)} levels -> {path}")


def cmd_verify_levels(args):
    levels = _load_levels(args.levels)
    solved = 0
    hashes = set()
    for level_id, lv in zip(levels.ids, levels.levels):
        res = solve_bfs(lv, node_budget=args.budget)
        if res.status != SOLVED:
            print(f"level {level_id}: {res.status} after {res.nodes} nodes")
        elif replay_solution(lv, res.solution.actions):
            solved += 1
        else:
            print(f"level {level_id}: the solver's plan does not solve it")
        hashes.add(level_hash(lv))
    print(f"{solved}/{len(levels)} solvable within budget; "
          f"{len(hashes)} distinct hashes")
    if solved != len(levels):
        sys.exit(1)


def cmd_gradcheck(args):
    seeds = list(range(args.seeds))
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            errs = list(pool.map(full_drc_gradcheck, seeds))
    else:
        errs = [full_drc_gradcheck(s) for s in seeds]
    worst = max(errs)
    for s, e in zip(seeds, errs):
        print(f"seed {s}: max rel err {e:.3e}")
    print(f"worst over {len(seeds)} seeds: {worst:.3e} (tolerance 1e-4)")
    if worst >= 1e-4:
        sys.exit(1)


def cmd_param_count(args):
    run = load_run_config(args.config)
    counts = count_parameters(run.drc)
    if args.json:
        print(json.dumps(counts, indent=2, sort_keys=True))
    else:
        print(format_count_report(run.drc, counts))


def build_parser():
    parser = argparse.ArgumentParser(prog="drcplan")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the actor/learner loop")
    _add_common(p)
    p.add_argument("--env-steps", type=positive_int, default=1_000_000)
    p.add_argument("--log-every", type=positive_int, default=1)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="solve-rate evaluation on a level set")
    _add_common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--episodes-per-level", type=positive_int, default=1)
    p.add_argument("--mode", choices=("sample", "greedy"), default="sample")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("think-eval", help="forced no-op thinking-steps probe")
    _add_common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--k-max", type=non_negative_int, default=10)
    p.add_argument("--episodes-per-level", type=positive_int, default=1)
    p.add_argument("--mode", choices=("sample", "greedy"), default="sample")
    p.set_defaults(fn=cmd_think_eval)

    p = sub.add_parser("extrapolate", help="evaluate on higher box counts")
    _add_common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--boxes", type=positive_ints, default="4,5,6,7")
    p.add_argument("--levels-per-count", type=positive_int, default=100)
    p.add_argument("--mode", choices=("sample", "greedy"), default="sample")
    p.set_defaults(fn=cmd_extrapolate)

    p = sub.add_parser("gen-levels", help="generate certified level files")
    _add_common(p, ("--seed", "--out"))
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--boxes", type=positive_int, default=4)
    p.add_argument("--tier", default="unfiltered")
    p.add_argument("--split", default="train")
    p.set_defaults(fn=cmd_gen_levels)

    p = sub.add_parser("filter-levels", help="keep the levels a probe fails in every "
                       "attempt (env.step_limit steps; eval.batch_size attempts per forward)")
    _add_common(p)
    p.add_argument("--levels", required=True)
    p.add_argument("--params", default=None, help="checkpoint of the probe network, which "
                   "samples its actions; without it the probe is the uniform random policy")
    p.add_argument("--attempts", type=positive_int, default=10)
    p.add_argument("--tier", default="medium")
    p.set_defaults(fn=cmd_filter_levels)

    p = sub.add_parser("verify-levels", help="certify a level file with the push-optimal solver")
    p.add_argument("--levels", required=True)
    p.add_argument("--budget", type=positive_int, default=200000)
    p.set_defaults(fn=cmd_verify_levels)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seeds", type=positive_int, default=5)
    p.add_argument("--workers", type=positive_int, default=2)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("param-count", help="itemized trainable parameter counts")
    _add_common(p, ("--config",))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_param_count)

    return parser


def main(argv=None):
    """Parse `argv` and run its subcommand. A `ValueError` the run raises
    (a config, checkpoint or level file that does not fit) or an `OSError`
    (a file or directory that cannot be read or written) ends it with one
    `drcplan <command>: error: ...` line and exit code 2, as a bad flag does."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError) as e:
        print(f"drcplan {args.command}: error: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports `drcplan` from `src/` and exits
with code 2 when the sources are missing. The workload runs in this one
process with one BLAS thread. `--trace 0` prints the end-to-end metrics;
`--trace 1` times an untraced phase of S/2 seconds, installs the span wrappers
and prints the per-layer metrics of a traced phase of S seconds, writing the
spans to perfbench/traces/. A metadata line precedes the result line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: set before numpy loads, since OpenBLAS reads it at load time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = "perfbench/1"

# spans reported as self seconds per operation
SPAN_METRICS = [
    "autodiff.conv2d.fwd", "autodiff.conv2d.bwd", "autodiff.dense.fwd", "autodiff.dense.bwd",
    "autodiff.backward",
    "drc.encode", "drc.tick", "drc.pool_and_inject", "drc.heads",
    "train.actor_unroll", "train.learner_update", "train.compute_loss", "train.sample_action",
    "nn.compute_gradients", "vtrace.vtrace_targets", "optim.adam_step",
    "envs.sokoban.step", "envs.sokoban.render", "envs.gridworld.step", "sources.next_env",
    "evaluate.run_episodes",
    "boxoban.solve_bfs", "boxoban.generate_level",
]
COUNT_METRICS = [  # (name, counter, scale, unit) reported per op
    ("autodiff.conv2d.calls", "autodiff.conv2d.calls", 1.0, "count/op"),
    ("autodiff.conv2d.gflop", "autodiff.conv2d.flop", 1e-9, "gflop/op"),
    ("drc.forward_rows", "drc.forward_rows", 1.0, "rows/op"),
    ("boxoban.solve_bfs.calls", "boxoban.solve_bfs.calls", 1.0, "count/op"),
    ("boxoban.solve_bfs.nodes", "boxoban.solve_bfs.nodes", 1.0, "nodes/op"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, setup_window, window, n_ops, overhead):
    """Per-layer metrics of the traced phase, normalised per operation."""
    (s0, _), (s1, _) = setup_window
    (w0, before), (w1, after) = window
    counts = {k: v - before.get(k, 0.0) for k, v in after.items()}
    self_s = tracer.self_times(w0, w1)
    out = {f"{name}_s": (self_s.get(name, 0.0) / n_ops, "s/op") for name in SPAN_METRICS}
    for name, key, scale, unit in COUNT_METRICS:
        out[name] = (counts.get(key, 0.0) * scale / n_ops, unit)
    out["evaluate.batch_occupancy"] = (
        _ratio(counts.get("evaluate.useful_steps", 0.0), counts.get("evaluate.network_rows", 0.0)),
        "ratio")
    out["boxoban.solve_bfs.nodes_per_s"] = (
        _ratio(counts.get("boxoban.solve_bfs.nodes", 0.0), self_s.get("boxoban.solve_bfs", 0.0)),
        "nodes/s")
    certified = counts.get("boxoban.certify.solved", 0.0)
    out["boxoban.certify_accept_ratio"] = (
        _ratio(certified, counts.get("boxoban.certify.calls", 0.0)), "ratio")
    out["boxoban.nodes_per_certified_level"] = (
        _ratio(counts.get("boxoban.certify.nodes", 0.0), certified), "nodes/level")
    loads = [tracer.ends[i] - tracer.starts[i] for i in range(s0, s1)
             if tracer.names[i] == "checkpoint.load"]
    out["checkpoint.load_s"] = (statistics.median(loads) if loads else 0.0, "s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def measure(workload, seconds):
    """Run ops back to back; start another only if it should end in time."""
    ops = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        ops.append(workload.op())
        ops[-1].wall_s = time.perf_counter() - op_start
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(ops) > seconds:
            return ops, elapsed


def _rates(ops):
    work = sum(op.work for op in ops)
    items = sum(op.items for op in ops)
    return (_ratio(work, sum(op.work_s for op in ops)),
            _ratio(items, sum(op.items_s for op in ops)), work)


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def metadata(args):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(workload, seed, seconds, trace, imports_s=0.0, trace_path=None):
    """Set up, measure and check one workload; returns (result, named, problems, ops)."""
    from tracing import Tracer, traced

    tracer = Tracer() if trace else None
    tracing = (lambda: traced(tracer)) if tracer else contextlib.nullcontext
    workload.prepare(seed)
    setup_times = []
    setup_begin = tracer.mark() if tracer else None
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        with tracing():
            workload.setup(seed)
        setup_times.append(time.perf_counter() - start)

    if tracer:
        setup_window = (setup_begin, tracer.mark())
        plain_ops, plain_s = measure(workload, seconds / 2)
        with tracing():
            begin = tracer.mark()
            ops, elapsed = measure(workload, seconds)
            end = tracer.mark()
        # traced time per unit of work over untraced time per unit of work
        overhead = _ratio(elapsed * _rates(plain_ops)[2], plain_s * _rates(ops)[2]) - 1.0
        metrics = layer_metrics(tracer, setup_window, (begin, end), len(ops), overhead)
        if trace_path:
            tracer.write(trace_path)
        ops = plain_ops + ops
    else:
        ops, elapsed = measure(workload, seconds)
    problems = workload.check()
    workload.close()

    work_rate, item_rate, _ = _rates(ops)
    if not tracer:
        metrics = {
            "setup_s": (imports_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "work_per_s": (work_rate, "1/s"),
            "items_per_s": (item_rate, "1/s"),
        }
    result = {
        "correct": not problems,
        "attempted": int(sum(op.attempted for op in ops)),
        "failed": int(sum(op.failed for op in ops)),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (work_name, work_unit), (item_name, item_unit) = workload.labels
    named = {work_name: (work_rate, work_unit), item_name: (item_rate, item_unit),
             "ops": (len(ops), "count"), "measured_s": (elapsed, "s")}
    return result, named, problems, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drcplan", "__init__.py")):
        print(f"perfbench: no drcplan sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    imports_s = time.perf_counter() - T0

    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        trace_path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.tsv")
    result, named, problems, ops = run(workload, args.seed, args.seconds, args.trace,
                                  imports_s, trace_path)

    for name, (value, unit) in {**named, **{k: (m["value"], m["unit"]) for k, m in
                                            result["metrics"].items()}}.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"meta": metadata(args), "named": {k: v for k, (v, _) in named.items()},
                      "op_s": [round(op.wall_s, 6) for op in ops]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

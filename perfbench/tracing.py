"""In-memory span tracer wrapped around drcplan's public functions and methods.

Wrappers are installed from the benchmark's own files: each name is patched
where its caller looks it up (a module attribute or a class attribute), so no
program file changes. An untraced run installs nothing.

A span records a name, start, end and the index of its parent span. Spans stay
in memory until the run ends; self time is a span's duration minus the time
its child spans cover. Counters (calls, flops, rows, search nodes) are kept at
the same boundaries so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._open = []

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = _clock()
            self._open.pop()

    def mark(self):
        """A position in the span log and a copy of the counters."""
        return len(self.names), dict(self.counts)

    def self_times(self, since=0, until=None):
        """Summed self seconds per span name over spans [since, until)."""
        until = len(self.names) if until is None else until
        covered = defaultdict(float)
        for i in range(since, until):
            p = self.parents[i]
            if p >= since:
                covered[p] += self.ends[i] - self.starts[i]
        out = defaultdict(float)
        for i in range(since, until):
            out[self.names[i]] += self.ends[i] - self.starts[i] - covered[i]
        return out

    def write(self, path):
        """Dump every span as `name<TAB>start<TAB>end<TAB>parent` lines."""
        with open(path, "w") as f:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                f.write("%s\t%.9f\t%.9f\t%d\n" % rec)


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _time_backward(tracer, name, node, on_call=None):
    """Wrap the backward closure of a Tensor the op returned."""
    inner = node._backward
    if inner is None:
        return

    def backward(g):
        if on_call is not None:
            on_call()
        tracer.call(name, inner, (g,), {})

    node._backward = backward


def _wrappers(tracer):
    """(owner, attribute, replacement) for every traced name."""
    from drcplan import autodiff, boxoban, checkpoint, drc, evaluate, nn, sources, train
    from drcplan.boxoban import generator
    from drcplan.envs.gridworld import GridworldEnv
    from drcplan.envs.sokoban_env import SokobanEnv

    counts = tracer.counts
    span = functools.partial(_spanned, tracer)

    conv2d = autodiff.conv2d

    def traced_conv2d(x, w, b=None, stride=1, padding="same"):
        out = tracer.call("autodiff.conv2d.fwd", conv2d, (x, w, b, stride, padding), {})
        k, _, cin, _ = w.shape
        flop = 2 * out.size * k * k * cin
        counts["autodiff.conv2d.calls"] += 1
        counts["autodiff.conv2d.flop"] += flop

        def count_backward():
            counts["autodiff.conv2d.flop"] += flop * (x.requires_grad + w.requires_grad)

        _time_backward(tracer, "autodiff.conv2d.bwd", out, count_backward)
        return out

    dense = autodiff.dense

    def traced_dense(x, w, b=None):
        out = tracer.call("autodiff.dense.fwd", dense, (x, w, b), {})
        _time_backward(tracer, "autodiff.dense.bwd", out)
        if b is not None and out._parents:  # out = add(matmul(x, w), b)
            _time_backward(tracer, "autodiff.dense.bwd", out._parents[0])
        return out

    forward = drc.DrcNetwork.forward

    def traced_forward(self, state, obs):
        counts["drc.forward_rows"] += obs.shape[0]
        return forward(self, state, obs)

    run_episodes = evaluate.run_episodes

    def traced_run_episodes(*args, **kwargs):
        rows = counts["drc.forward_rows"]
        results = tracer.call("evaluate.run_episodes", run_episodes, args, kwargs)
        counts["evaluate.network_rows"] += counts["drc.forward_rows"] - rows
        counts["evaluate.useful_steps"] += sum(length for _, _, length in results)
        return results

    def traced_solver(key, solve):
        def traced_solve(level, node_budget=200000):
            res = tracer.call("boxoban.solve_bfs", solve, (level,), {"node_budget": node_budget})
            counts["boxoban.solve_bfs.calls"] += 1
            counts["boxoban.solve_bfs.nodes"] += res.nodes
            counts[key + ".calls"] += 1
            counts[key + ".nodes"] += res.nodes
            counts[key + ".solved"] += res.status == boxoban.SOLVED
            return res
        return traced_solve

    sample_action = span("train.sample_action", train.sample_action)
    return [
        (autodiff, "conv2d", traced_conv2d),
        (autodiff, "dense", traced_dense),
        (nn, "backward", span("autodiff.backward", nn.backward)),
        (drc.DrcNetwork, "forward", traced_forward),
        (drc.DrcNetwork, "encode", span("drc.encode", drc.DrcNetwork.encode)),
        (drc.DrcNetwork, "tick", span("drc.tick", drc.DrcNetwork.tick)),
        (drc.DrcNetwork, "heads", span("drc.heads", drc.DrcNetwork.heads)),
        (drc, "pool_and_inject", span("drc.pool_and_inject", drc.pool_and_inject)),
        (train.ActorGroup, "run_unroll", span("train.actor_unroll", train.ActorGroup.run_unroll)),
        (train, "learner_update", span("train.learner_update", train.learner_update)),
        (train, "compute_loss", span("train.compute_loss", train.compute_loss)),
        (train, "sample_action", sample_action),
        (evaluate, "sample_action", sample_action),
        (train, "compute_gradients", span("nn.compute_gradients", train.compute_gradients)),
        (train, "vtrace_targets", span("vtrace.vtrace_targets", train.vtrace_targets)),
        (train, "adam_step", span("optim.adam_step", train.adam_step)),
        (SokobanEnv, "step", span("envs.sokoban.step", SokobanEnv.step)),
        (SokobanEnv, "render", span("envs.sokoban.render", SokobanEnv.render)),
        (GridworldEnv, "step", span("envs.gridworld.step", GridworldEnv.step)),
        (sources.SokobanSource, "next_env", span("sources.next_env", sources.SokobanSource.next_env)),
        (sources.GridworldSource, "next_env", span("sources.next_env", sources.GridworldSource.next_env)),
        (evaluate, "run_episodes", traced_run_episodes),
        (generator, "solve_bfs", traced_solver("boxoban.certify", generator.solve_bfs)),
        (boxoban, "solve_bfs", traced_solver("boxoban.verify", boxoban.solve_bfs)),
        (generator, "generate_level", span("boxoban.generate_level", generator.generate_level)),
        (checkpoint, "load_checkpoint", span("checkpoint.load", checkpoint.load_checkpoint)),
    ]


@contextmanager
def traced(tracer):
    """Install every wrapper for the duration of the block, then restore."""
    patches = _wrappers(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

"""The `drcplan` names the benchmark imports and patches still exist.

`perfbench/tracing.py` wraps `drcplan` functions and methods by attribute
name and `perfbench/workloads.py` imports more, so a rename in `src` would
break `--trace 1` or a workload without failing any test here. This imports
both and installs and removes every wrapper once.
"""

import importlib
from pathlib import Path

from drcplan.drc import DrcNetwork

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_imports_and_wraps_every_name_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    assert importlib.import_module("perfbench.workloads").WORKLOADS
    tracing = importlib.import_module("perfbench.tracing")
    tick = DrcNetwork.tick
    with tracing.traced(tracing.Tracer()):
        assert DrcNetwork.tick is not tick
    assert DrcNetwork.tick is tick

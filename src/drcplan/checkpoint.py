"""Checkpoint container for parameters and optimizer state.

A checkpoint is a run of `.npy` records, each written by
`numpy.lib.format.write_array` and read by `read_array`. The first is a 0-d
string array holding a JSON header: `magic` "DRCK", `version` 2, `params` as
[path, trainable] pairs in parameter order, and `adam`, null or {beta1,
beta2, eps, step, moments: [path, ...]}. The parameter arrays follow in
header order, then the m and the v array of each moment path in turn.

Arrays are float32 or float64 and keep their dtype, shape and bytes, so a
round trip is bit-exact and saving the loaded state writes the same file.
The container is not `.npz`: zip entries carry their write time, so two
identical runs would write different bytes, and `np.savez` appends `.npz` to
the path. A truncated or malformed file raises `ValueError` naming it.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.lib.format import read_array, write_array

from .nn import ParameterSet
from .optim import AdamState

MAGIC = "DRCK"
VERSION = 2


def save_checkpoint(path, params, adam=None):
    header = {"magic": MAGIC, "version": VERSION,
              "params": [[name, params.is_trainable(name)] for name in params],
              "adam": None if adam is None else {
                  "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps, "step": adam.step,
                  "moments": list(adam.m)}}
    with open(path, "wb") as f:
        write_array(f, np.array(json.dumps(header)))
        for _, t in params.items():
            write_array(f, t.data)
        for name in adam.m if adam is not None else ():
            write_array(f, adam.m[name])
            write_array(f, adam.v[name])


def _read_float_array(f):
    arr = read_array(f)
    if arr.dtype not in (np.float32, np.float64):
        raise ValueError(f"array of dtype {arr.dtype}, not float32 or float64")
    return arr


def load_checkpoint(path):
    """Read a checkpoint; returns (ParameterSet, AdamState or None)."""
    with open(path, "rb") as f:
        try:
            header = json.loads(read_array(f)[()])
            if not isinstance(header, dict) or header.get("magic") != MAGIC:
                raise ValueError("not a checkpoint file")
            if header["version"] != VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            params = ParameterSet()
            for name, trainable in header["params"]:
                params.add(name, _read_float_array(f), trainable=bool(trainable))
            adam = None
            if header["adam"] is not None:
                h = header["adam"]
                adam = AdamState(beta1=h["beta1"], beta2=h["beta2"], eps=h["eps"])
                adam.step = h["step"]
                for name in h["moments"]:
                    adam.m[name] = _read_float_array(f)
                    adam.v[name] = _read_float_array(f)
            return params, adam
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: {e}") from None

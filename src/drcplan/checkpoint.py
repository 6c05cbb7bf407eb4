"""Binary checkpoint container for parameters and optimizer state.

Layout (all integers little-endian, raw array data little-endian too):

    magic   4 bytes  b"DRCK"
    version u32      currently 1
    nparams u32
    per parameter:
        path_len u16, path utf-8 bytes
        trainable u8
        dtype    u8   0 = float32, 1 = float64
        rank     u8
        dims     u32 * rank
        data     raw bytes, C order
    has_adam u8
    if has_adam:
        beta1 f64, beta2 f64, eps f64, step u64
        nmoments u32
        per moment pair: path (as above), dtype u8, rank u8, dims u32*rank,
        m data, v data

The same array bytes written are read back, so a save/load round trip is
bit-exact. A truncated or malformed file raises `ValueError` naming it.
"""

from __future__ import annotations

import struct

import numpy as np

from .nn import ParameterSet
from .optim import AdamState

MAGIC = b"DRCK"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _write_path(f, path):
    raw = path.encode("utf-8")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _take(f, n):
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated: {n} bytes wanted at offset {f.tell() - len(raw)}, "
                         f"{len(raw)} left")
    return raw


def _unpack(f, fmt):
    return struct.unpack(fmt, _take(f, struct.calcsize(fmt)))


def _read_path(f):
    (n,) = _unpack(f, "<H")
    return _take(f, n).decode("utf-8")


def _write_array(f, arr):
    code = _DTYPE_CODES[np.dtype(arr.dtype)]
    f.write(struct.pack("<BB", code, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr).astype(_CODE_DTYPES[code], copy=False).tobytes())


def _read_array(f):
    code, rank = _unpack(f, "<BB")
    dims = _unpack(f, f"<{rank}I")
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    dtype = _CODE_DTYPES[code]
    count = int(np.prod(dims)) if dims else 1
    data = np.frombuffer(_take(f, count * dtype.itemsize), dtype=dtype)
    return data.reshape(dims).astype(dtype.newbyteorder("="), copy=True)


def save_checkpoint(path, params, adam=None):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            _write_path(f, name)
            f.write(struct.pack("<B", 1 if params.is_trainable(name) else 0))
            _write_array(f, t.data)
        f.write(struct.pack("<B", 1 if adam is not None else 0))
        if adam is not None:
            f.write(struct.pack("<dddQ", adam.beta1, adam.beta2, adam.eps, adam.step))
            f.write(struct.pack("<I", len(adam.m)))
            for name in adam.m:
                _write_path(f, name)
                _write_array(f, adam.m[name])
                _write_array(f, adam.v[name])


def load_checkpoint(path):
    """Read a checkpoint; returns (ParameterSet, AdamState or None)."""
    with open(path, "rb") as f:
        try:
            if f.read(4) != MAGIC:
                raise ValueError("not a checkpoint file")
            (version,) = _unpack(f, "<I")
            if version != VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            (nparams,) = _unpack(f, "<I")
            params = ParameterSet()
            for _ in range(nparams):
                name = _read_path(f)
                (trainable,) = _unpack(f, "<B")
                params.add(name, _read_array(f), trainable=bool(trainable))
            (has_adam,) = _unpack(f, "<B")
            adam = None
            if has_adam:
                beta1, beta2, eps, step = _unpack(f, "<dddQ")
                adam = AdamState(beta1=beta1, beta2=beta2, eps=eps)
                adam.step = step
                (nmoments,) = _unpack(f, "<I")
                for _ in range(nmoments):
                    name = _read_path(f)
                    adam.m[name] = _read_array(f)
                    adam.v[name] = _read_array(f)
            return params, adam
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

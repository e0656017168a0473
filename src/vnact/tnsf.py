"""TNSF binary tensor files and manifest-based parameter bundles.

Layout of one TNSF file:

    bytes 0-3   magic ``TNSF``
    byte  4     version (1)
    byte  5     dtype: 0 = float32, 1 = float64
    bytes 6-7   rank, unsigned 16-bit little-endian
    then        rank × unsigned 64-bit little-endian extents
    then        row-major payload, little-endian

A parameter bundle is a directory with a ``manifest.json`` naming each
tensor and one TNSF file per entry.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"TNSF"
VERSION = 1

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_tnsf(path, array: np.ndarray) -> None:
    """Write an array as a TNSF file (dtype f32 or f64 preserved)."""
    arr = np.asarray(array)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float64)
    code = _DTYPE_CODES[arr.dtype]
    if arr.ndim > 0xFFFF:
        raise FormatError(f"rank {arr.ndim} exceeds TNSF limit")
    header = struct.pack("<4sBBH", MAGIC, VERSION, code, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    payload = np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(extents)
        fh.write(payload)


def read_tnsf(path) -> np.ndarray:
    """Read a TNSF file back into an ndarray (f32 files stay f32)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header, expected at least 8 bytes, got {len(blob)}")
    magic, version, code, rank = struct.unpack_from("<4sBBH", blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {VERSION}")
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype byte {code}")
    offset = 8
    need = rank * 8
    if len(blob) < offset + need:
        raise FormatError(
            f"{path}: truncated extents, expected {need} bytes, got {len(blob) - offset}"
        )
    shape = struct.unpack_from(f"<{rank}Q", blob, offset) if rank else ()
    offset += need
    dtype = _DTYPES[code]
    count = int(np.prod(shape)) if shape else 1
    expected = count * dtype.itemsize
    actual = len(blob) - offset
    if actual != expected:
        raise FormatError(
            f"{path}: payload length mismatch, expected {expected} bytes, got {actual}"
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape).copy()


def save_bundle(directory, tensors: dict[str, np.ndarray]) -> None:
    """Write a manifest plus one TNSF file per named tensor."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format": "tnsf-bundle", "version": 1, "tensors": {}}
    for name in sorted(tensors):
        fname = f"{name}.tnsf"
        write_tnsf(directory / fname, tensors[name])
        manifest["tensors"][name] = fname
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(directory) -> dict[str, np.ndarray]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"{directory}: missing manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if manifest.get("format") != "tnsf-bundle":
        raise FormatError(f"{manifest_path}: not a tnsf-bundle manifest")
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise FormatError(f"{manifest_path}: 'tensors' must be an object")
    root = directory.resolve()
    tensors = {}
    for name, fname in entries.items():
        path = (directory / str(fname)).resolve()
        if Path(str(fname)).is_absolute() or root not in path.parents:
            raise FormatError(f"{manifest_path}: entry '{name}' names {fname!r} outside the bundle")
        if not path.is_file():
            raise FormatError(f"{manifest_path}: entry '{name}' names missing file {fname!r}")
        tensors[name] = read_tnsf(path)
    return tensors

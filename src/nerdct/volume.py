"""Dense 3D volumes, slice-axis names, and the slice-axis difference operator.

A volume is a C-contiguous float64 array of shape (nz, ny, nx): z is the
slowest axis, so ``vol[k]`` is the k-th axial slice.  Files on disk are the
raw little-endian float64 buffer in that order, with a JSON sidecar at
``<path>.json`` recording dimensions, dtype and provenance.  Sinograms and
weights use the same format: every raw array is written by `save_raw` and
read by `load_raw`, which hold the one rule for every record (finite
entries, shape fields, recorded fields compared as JSON text), and every
JSON file is written by `write_json`.
"""

import json
import math
import os

import numpy as np

SLICE_AXES = ("axial", "coronal", "sagittal")  # planes normal to z, y, x
VOLUME_KEYS = ("nz", "ny", "nx")  # the sidecar fields of a volume's shape


def dz_forward(vol):
    """Forward difference along z with a Neumann (replicated) boundary.

    out[k] = vol[k+1] - vol[k] for k < nz-1, and out[nz-1] = 0.  Voxel
    spacing is 1, so values are plain differences.
    """
    out = np.empty_like(vol)
    np.subtract(vol[1:], vol[:-1], out=out[:-1])
    out[-1] = 0.0
    return out


def dz_adjoint(grad):
    """Exact adjoint of dz_forward (negative divergence along z).

    0.0 - g gives the bits of zeros minus g, signed zeros included, which
    negating g would not.
    """
    out = np.empty_like(grad)
    np.subtract(0.0, grad[:-1], out=out[:-1])
    out[-1] = 0.0
    out[1:] += grad[:-1]
    return out


def _dot(a, b):
    # einsum sums in one order at any BLAS thread count, where np.dot splits
    # the sum across threads.  An overflowing sum is inf, which callers check.
    with np.errstate(over="ignore"):
        return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def l2_norm_sq(a):
    return _dot(a, a)


def l1_norm(a):
    return float(np.sum(np.abs(a)))


def write_json(path, obj):
    """JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_raw(path, array, shape_keys, record):
    """Raw little-endian float64 dump in C order plus its sidecar at path + '.json'.

    The sidecar holds `record`, the dtype and one field per `shape_keys`
    entry, read from the array's shape.  ValueError, with nothing written,
    unless the array has one axis per shape key, each shape field that
    `record` states equals the array's, and every entry is finite.
    """
    array = np.ascontiguousarray(array, dtype="<f8")
    if array.ndim != len(shape_keys):
        raise ValueError(f"{path}: expected {len(shape_keys)} axes {shape_keys}, "
                         f"got shape {array.shape}")
    for key, n in zip(shape_keys, array.shape):
        if key in record and record[key] != n:
            raise ValueError(f"{path}: record states {key} {record[key]!r}, "
                             f"the array has {n}")
    _check_finite(path, array)
    array.tofile(path)
    write_json(path + ".json",
               {**record, **dict(zip(shape_keys, array.shape)), "dtype": "<f8"})


def load_raw(path, shape_keys, expected):
    """(array, sidecar) of a save_raw file, shaped by the sidecar's `shape_keys`.

    ValueError unless each shape key is a non-negative integer, the sidecar's
    dtype and each field of `expected` equal the recorded ones as sorted-key
    JSON text (so 23.0 differs from 23 and true from 1, while key order does
    not matter), the file holds exactly that many entries, and all are finite.
    """
    with open(path + ".json") as fh:
        try:
            sidecar = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}.json: nested too deeply to parse") from None
    if not isinstance(sidecar, dict):
        raise ValueError(
            f"{path}.json: expected a JSON object, got {type(sidecar).__name__}")
    shape = tuple(sidecar.get(key) for key in shape_keys)
    for key, n in zip(shape_keys, shape):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(
                f"{path}.json: {key} must be a non-negative integer, got {n!r}"
            )
    for key, value in {"dtype": "<f8", **(expected or {})}.items():
        recorded, wanted = (json.dumps(v, sort_keys=True) for v in (sidecar.get(key), value))
        if recorded != wanted:
            raise ValueError(f"{path}.json: {key} {recorded} does not match {wanted}")
    size = math.prod(shape) * 8
    actual = os.path.getsize(path)
    if actual != size:
        raise ValueError(
            f"{path}: size {actual} bytes does not match sidecar dims "
            f"{shape} ({size} bytes)"
        )
    array = np.fromfile(path, dtype="<f8").reshape(shape)
    _check_finite(path, array)
    return array, sidecar


def _check_finite(path, array):
    bad = int(np.count_nonzero(~np.isfinite(array)))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite entries")


def save_volume(path, vol, provenance):
    """Save a (nz, ny, nx) volume with save_raw."""
    save_raw(path, vol, VOLUME_KEYS, {
        "layout": "C-order (nz, ny, nx), z slowest",
        "provenance": provenance,
    })


def load_volume(path, expected=None):
    """(volume, sidecar) of a save_volume file; `expected` as in load_raw."""
    return load_raw(path, VOLUME_KEYS, expected)

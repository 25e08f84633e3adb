"""Dense 3D volumes, slice-axis names, and the slice-axis difference operator.

A volume is a C-contiguous float64 array of shape (nz, ny, nx): z is the
slowest axis, so ``vol[k]`` is the k-th axial slice.  Files on disk are the
raw little-endian float64 buffer in that order, with a JSON sidecar at
``<path>.json`` recording dimensions, dtype and provenance.  Sinograms and
weights use the same format: every raw array is written by `save_raw` and
read by `load_raw`, and every JSON file by `write_json`.
"""

import json
import math
import os

import numpy as np

SLICE_AXES = ("axial", "coronal", "sagittal")  # planes normal to z, y, x


def validate_volume(vol):
    """Check shape/dtype/finiteness and return the array C-contiguous."""
    vol = np.asarray(vol)
    if vol.ndim != 3:
        raise ValueError(f"expected 3 axes (nz, ny, nx), got shape {vol.shape}")
    if vol.dtype != np.float64:
        raise ValueError(f"expected float64 voxels, got {vol.dtype}")
    if not np.all(np.isfinite(vol)):
        bad = int(np.count_nonzero(~np.isfinite(vol)))
        raise ValueError(f"volume contains {bad} non-finite voxels")
    return np.ascontiguousarray(vol)


def dz_forward(vol, out=None):
    """Forward difference along z with a Neumann (replicated) boundary.

    out[k] = vol[k+1] - vol[k] for k < nz-1, and out[nz-1] = 0.  Voxel
    spacing is 1, so values are plain differences.  With `out`, an array
    of vol's shape that does not overlap it, the result is written there.
    """
    if out is None:
        out = np.empty_like(vol)
    np.subtract(vol[1:], vol[:-1], out=out[:-1])
    out[-1] = 0.0
    return out


def dz_adjoint(grad, out=None):
    """Exact adjoint of dz_forward (negative divergence along z).

    `out` works as in dz_forward.  0.0 - g gives the bits of zeros minus g,
    signed zeros included, which negating g would not.
    """
    if out is None:
        out = np.empty_like(grad)
    np.subtract(0.0, grad[:-1], out=out[:-1])
    out[-1] = 0.0
    out[1:] += grad[:-1]
    return out


def l2_norm_sq(a):
    # An overflowing sum is inf, which callers check; no RuntimeWarning.
    with np.errstate(over="ignore"):
        return float(np.dot(a.ravel(), a.ravel()))


def l1_norm(a):
    return float(np.sum(np.abs(a)))


def write_json(path, obj):
    """JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_raw(path, array, sidecar):
    """Raw little-endian float64 dump in C order plus `sidecar` at path + '.json'."""
    np.asarray(array, dtype="<f8").tofile(path)
    write_json(path + ".json", {**sidecar, "dtype": "<f8"})


def load_raw(path, *shape_keys):
    """(array, sidecar) of a save_raw file, shaped by the sidecar's `shape_keys`."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValueError(
            f"{path}.json: expected a JSON object, got {type(sidecar).__name__}")
    shape = tuple(sidecar[key] for key in shape_keys)
    for key, n in zip(shape_keys, shape):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(
                f"{path}.json: {key} must be a non-negative integer, got {n!r}"
            )
    expected = math.prod(shape) * 8
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: size {actual} bytes does not match sidecar dims "
            f"{shape} ({expected} bytes)"
        )
    return np.fromfile(path, dtype="<f8").reshape(shape), sidecar


def save_volume(path, vol, provenance=None):
    """Raw little-endian float64 dump plus a JSON sidecar at path + '.json'."""
    vol = validate_volume(vol)
    nz, ny, nx = vol.shape
    save_raw(path, vol, {
        "nx": int(nx),
        "ny": int(ny),
        "nz": int(nz),
        "layout": "C-order (nz, ny, nx), z slowest",
        "provenance": provenance or {},
    })


def load_volume(path):
    """Load a raw volume written by save_volume; returns (volume, sidecar)."""
    vol, sidecar = load_raw(path, "nz", "ny", "nx")
    return validate_volume(vol), sidecar

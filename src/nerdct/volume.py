"""Dense 3D volumes, slice views, and the slice-axis difference operator.

A volume is a C-contiguous float64 array of shape (nz, ny, nx): z is the
slowest axis, so ``vol[k]`` is the k-th axial slice.  Files on disk are the
raw little-endian float64 buffer in that order, with a JSON sidecar at
``<path>.json`` recording dimensions, dtype and provenance.
"""

import json
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


def dz_forward(vol):
    """Forward difference along z with a Neumann (replicated) boundary.

    out[k] = vol[k+1] - vol[k] for k < nz-1, and out[nz-1] = 0.  Voxel
    spacing is 1, so values are plain differences.
    """
    out = np.zeros_like(vol)
    out[:-1] = vol[1:] - vol[:-1]
    return out


def dz_adjoint(grad):
    """Exact adjoint of dz_forward (negative divergence along z)."""
    out = np.zeros_like(grad)
    out[:-1] -= grad[:-1]
    out[1:] += grad[:-1]
    return out


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def dot(a, b):
    _check_same_shape(a, b)
    return float(np.dot(a.ravel(), b.ravel()))


def l2_norm_sq(a):
    # An overflowing sum is inf, which callers check; no RuntimeWarning.
    with np.errstate(over="ignore"):
        return float(np.dot(a.ravel(), a.ravel()))


def l1_norm(a):
    return float(np.sum(np.abs(a)))


def get_slice(vol, axis, index):
    """2D view of the plane `index` along the named axis."""
    nz, ny, nx = vol.shape
    if axis == "axial":
        limit = nz
    elif axis == "coronal":
        limit = ny
    elif axis == "sagittal":
        limit = nx
    else:
        raise ValueError(f"axis must be one of {SLICE_AXES}, got {axis!r}")
    if not 0 <= index < limit:
        raise IndexError(f"{axis} index {index} out of range [0, {limit})")
    if axis == "axial":
        return vol[index, :, :]
    if axis == "coronal":
        return vol[:, index, :]
    return vol[:, :, index]


def save_volume(path, vol, provenance=None):
    """Raw little-endian float64 dump plus a JSON sidecar at path + '.json'."""
    vol = validate_volume(vol)
    nz, ny, nx = vol.shape
    vol.astype("<f8").tofile(path)
    sidecar = {
        "nx": int(nx),
        "ny": int(ny),
        "nz": int(nz),
        "dtype": "<f8",
        "layout": "C-order (nz, ny, nx), z slowest",
        "provenance": provenance or {},
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_volume(path):
    """Load a raw volume written by save_volume; returns (volume, sidecar)."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    shape = (sidecar["nz"], sidecar["ny"], sidecar["nx"])
    expected = shape[0] * shape[1] * shape[2] * 8
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: size {actual} bytes does not match sidecar dims "
            f"{shape} ({expected} bytes)"
        )
    vol = np.fromfile(path, dtype="<f8").reshape(shape)
    return validate_volume(vol), sidecar

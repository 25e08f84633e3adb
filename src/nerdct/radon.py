"""Parallel-beam forward model for stacked axial slices.

The 2D transform is ray-driven: each (angle, detector) ray is sampled at
unit steps, the image is read by bilinear interpolation at the samples, and
the line integral is the plain sum of the sampled values (step length 1).
Samples falling outside the grid contribute zero.  The interpolation
weights are assembled once into a sparse matrix, so the adjoint is its
exact transpose: scatter with the identical weights.

A 3D volume (nz, ny, nx) is projected slice by slice with a shared
geometry; sinograms are stored as (n_views, n_detectors, nz).
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .rng import Xoshiro256PP


@dataclass(frozen=True)
class ProjectionGeometry:
    """Full-view parallel-beam geometry for square axial slices."""

    n_angles_full: int
    n_detectors: int
    detector_spacing: float = 1.0

    def __post_init__(self):
        if self.n_angles_full < 1:
            raise ValueError(f"n_angles_full must be >= 1, got {self.n_angles_full}")
        if self.n_detectors < 1:
            raise ValueError(f"n_detectors must be >= 1, got {self.n_detectors}")
        if not self.detector_spacing > 0:
            raise ValueError(f"detector_spacing must be > 0, got {self.detector_spacing}")

    @property
    def angles(self):
        """Uniform angles over [0, pi)."""
        return np.arange(self.n_angles_full) * (np.pi / self.n_angles_full)


def default_geometry(nx, n_angles_full=180, detector_spacing=1.0):
    """Detector row wide enough to cover the slice diagonal."""
    n_detectors = math.ceil(math.sqrt(2.0) * nx)
    return ProjectionGeometry(n_angles_full, n_detectors, detector_spacing)


def uniform_view_indices(n_angles_full, n_views):
    """`n_views` indices uniformly spaced over the full angle set."""
    if not 1 <= n_views <= n_angles_full:
        raise ValueError(f"need 1 <= n_views <= {n_angles_full}, got {n_views}")
    return (np.arange(n_views) * n_angles_full) // n_views


def _ray_matrix(nx, ny, geometry, angle_indices):
    """Sparse (len(angle_indices)*n_det, ny*nx) interpolation-weight matrix."""
    n_det = geometry.n_detectors
    offsets = (np.arange(n_det) - (n_det - 1) / 2.0) * geometry.detector_spacing
    n_samples = math.ceil(math.hypot(nx, ny)) + 1
    along = np.arange(n_samples) - (n_samples - 1) / 2.0
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    angles = geometry.angles

    rows, cols, vals = [], [], []
    for local, a_idx in enumerate(angle_indices):
        cos_t, sin_t = np.cos(angles[a_idx]), np.sin(angles[a_idx])
        px = cx + offsets[:, None] * cos_t - along[None, :] * sin_t
        py = cy + offsets[:, None] * sin_t + along[None, :] * cos_t
        ix0 = np.floor(px).astype(np.int64)
        iy0 = np.floor(py).astype(np.int64)
        fx = px - ix0
        fy = py - iy0
        row = np.broadcast_to(
            local * n_det + np.arange(n_det)[:, None], px.shape
        )
        for dx, dy, wt in (
            (0, 0, (1 - fx) * (1 - fy)),
            (1, 0, fx * (1 - fy)),
            (0, 1, (1 - fx) * fy),
            (1, 1, fx * fy),
        ):
            ix, iy = ix0 + dx, iy0 + dy
            ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
            rows.append(row[ok])
            cols.append((iy * nx + ix)[ok])
            vals.append(wt[ok])

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(angle_indices) * n_det, ny * nx),
    )
    return matrix.tocsr()


class CTOperator:
    """Forward/adjoint projector for a volume, optionally view-subsampled.

    With `view_indices` the operator is A = P T: project at the selected
    angles only.  The adjoint of the subsampled operator equals zero-filling
    the missing views and applying the full-view adjoint.
    """

    def __init__(self, nx, ny, nz, geometry, view_indices=None):
        if nx != ny:
            raise ValueError(f"axial slices must be square, got nx={nx}, ny={ny}")
        if min(nx, ny, nz) < 1:
            raise ValueError(f"empty volume ({nz}, {ny}, {nx})")
        if view_indices is None:
            view_indices = np.arange(geometry.n_angles_full)
        view_indices = np.asarray(view_indices, dtype=np.int64)
        if view_indices.ndim != 1 or len(view_indices) == 0:
            raise ValueError("view_indices must be a non-empty 1D index array")
        if len(np.unique(view_indices)) != len(view_indices):
            raise ValueError("view_indices must be distinct")
        if view_indices.min() < 0 or view_indices.max() >= geometry.n_angles_full:
            raise ValueError(
                f"view_indices out of range [0, {geometry.n_angles_full})"
            )
        self.nx, self.ny, self.nz = nx, ny, nz
        self.geometry = geometry
        self.view_indices = view_indices
        self._matrix = _ray_matrix(nx, ny, geometry, view_indices)
        self._matrix_t = self._matrix.T.tocsr()

    @property
    def n_views(self):
        return len(self.view_indices)

    @property
    def sinogram_shape(self):
        return (self.n_views, self.geometry.n_detectors, self.nz)

    def forward(self, vol):
        """(nz, ny, nx) volume -> (n_views, n_detectors, nz) sinogram."""
        if vol.shape != (self.nz, self.ny, self.nx):
            raise ValueError(
                f"expected volume {(self.nz, self.ny, self.nx)}, got {vol.shape}"
            )
        stacked = vol.reshape(self.nz, self.ny * self.nx).T
        sino = self._matrix @ stacked
        return np.ascontiguousarray(
            sino.reshape(self.n_views, self.geometry.n_detectors, self.nz)
        )

    def adjoint(self, sino):
        """(n_views, n_detectors, nz) sinogram -> (nz, ny, nx) volume."""
        if sino.shape != self.sinogram_shape:
            raise ValueError(
                f"expected sinogram {self.sinogram_shape}, got {sino.shape}"
            )
        rows = sino.reshape(self.n_views * self.geometry.n_detectors, self.nz)
        vol = self._matrix_t @ rows
        return np.ascontiguousarray(vol.T.reshape(self.nz, self.ny, self.nx))


def add_gaussian_noise(sino, sigma_y, seed):
    """y + sigma_y * eta with eta drawn i.i.d. standard normal.

    Draws follow C order of the (view, detector, slice) array from the
    seeded stream.  sigma_y = 0 returns an untouched copy without drawing.
    """
    if sigma_y < 0:
        raise ValueError(f"sigma_y must be >= 0, got {sigma_y}")
    if sigma_y == 0:
        return sino.copy()
    rng = Xoshiro256PP(seed)
    return sino + sigma_y * rng.normal_array(sino.shape)


def save_sinogram(path, sino, geometry, view_indices, sigma_y=None, seed=None,
                  provenance=None):
    """Raw little-endian float64 dump plus a JSON sidecar at path + '.json'."""
    sino = np.ascontiguousarray(np.asarray(sino, dtype=np.float64))
    if sino.ndim != 3:
        raise ValueError(f"expected (views, detectors, slices), got {sino.shape}")
    if not np.all(np.isfinite(sino)):
        raise ValueError("sinogram contains non-finite entries")
    sino.astype("<f8").tofile(path)
    sidecar = {
        "n_views": int(sino.shape[0]),
        "n_detectors": int(sino.shape[1]),
        "nz": int(sino.shape[2]),
        "dtype": "<f8",
        "layout": "C-order (view, detector, slice)",
        "geometry": {
            "n_angles_full": geometry.n_angles_full,
            "n_detectors": geometry.n_detectors,
            "detector_spacing": geometry.detector_spacing,
        },
        "view_indices": [int(i) for i in view_indices],
        "sigma_y": sigma_y,
        "seed": seed,
        "provenance": provenance or {},
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sinogram(path):
    """Load a sinogram written by save_sinogram; returns (sino, sidecar)."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    shape = (sidecar["n_views"], sidecar["n_detectors"], sidecar["nz"])
    expected = shape[0] * shape[1] * shape[2] * 8
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: size {actual} bytes does not match sidecar dims "
            f"{shape} ({expected} bytes)"
        )
    sino = np.fromfile(path, dtype="<f8").reshape(shape)
    return sino, sidecar

"""Parallel-beam forward model for stacked axial slices.

The 2D transform is ray-driven: each (angle, detector) ray is sampled at
unit steps, the image is read by bilinear interpolation at the samples, and
the line integral is the plain sum of the sampled values (step length 1).
Samples falling outside the grid contribute zero.  The interpolation
weights are assembled once into a sparse matrix, so the adjoint is its
exact transpose: scatter with the identical weights.

The CSR matrix is built and applied with scipy's compiled sparsetools
routines, loaded without importing `scipy.sparse` and its dependencies.
The adjoint reads the same arrays as the CSC of the transpose, the
scatter scipy's own `A.T @ x` runs, so the weights are stored once.

A 3D volume (nz, ny, nx) is projected slice by slice with a shared
geometry; sinograms are stored as (n_views, n_detectors, nz).  The sparse
products read and write the volume as (ny*nx, nz) "columns", each voxel's
slices side by side, which is the layout `forward_columns` and
`adjoint_columns` take; `forward` and `adjoint` copy between the two.
"""

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .rng import Xoshiro256PP
from .volume import load_raw, save_raw


@dataclass(frozen=True)
class ProjectionGeometry:
    """Full-view parallel-beam geometry for square axial slices."""

    n_angles_full: int
    n_detectors: int
    detector_spacing: float = 1.0

    def __post_init__(self):
        for name in ("n_angles_full", "n_detectors"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        spacing = self.detector_spacing
        if isinstance(spacing, bool) or not isinstance(spacing, numbers.Real) \
                or not 0 < spacing < math.inf:
            raise ValueError(
                f"detector_spacing must be a finite number > 0, got {spacing!r}")

    @property
    def angles(self):
        """Uniform angles over [0, pi)."""
        return np.arange(self.n_angles_full) * (np.pi / self.n_angles_full)


def default_geometry(nx, n_angles_full):
    """Unit-spaced detector row wide enough to cover the slice diagonal."""
    return ProjectionGeometry(n_angles_full, math.ceil(math.sqrt(2.0) * nx))


def uniform_view_indices(n_angles_full, n_views):
    """`n_views` indices uniformly spaced over the full angle set."""
    if not 1 <= n_views <= n_angles_full:
        raise ValueError(f"need 1 <= n_views <= {n_angles_full}, got {n_views}")
    return (np.arange(n_views) * n_angles_full) // n_views


def _load_sparsetools():
    """scipy's compiled `scipy.sparse._sparsetools`, without `import scipy.sparse`.

    The extension is loaded under a private name, so a later
    `import scipy.sparse` loads and binds its own copy.
    """
    name = "nerdct._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    directory = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            sys.modules[name] = module
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled scipy _sparsetools extension in {directory}")


_sparsetools = _load_sparsetools()


class _Csr(NamedTuple):
    """CSR arrays as scipy lays them out: row i is indices/data[indptr[i]:indptr[i+1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


def _index_dtype(*sizes):
    """int32, the index type scipy picks, unless a size passes its range."""
    return np.int64 if max(sizes) > np.iinfo(np.int32).max else np.int32


def _coo_tocsr(m, n, rows, cols, vals):
    """Unsorted CSR of COO triplets; entries of a row keep their input order."""
    idx = _index_dtype(m, n, len(vals))
    indptr = np.empty(m + 1, dtype=idx)
    indices = np.empty(len(vals), dtype=idx)
    data = np.empty(len(vals))
    _sparsetools.coo_tocsr(m, n, len(vals), rows.astype(idx), cols.astype(idx),
                           vals, indptr, indices, data)
    return indptr, indices, data


def _ray_matrix(nx, ny, geometry, angle_indices):
    """CSR (len(angle_indices)*n_det, ny*nx) interpolation-weight matrix.

    A first pass counts each view's in-grid triplets, so `indices` and
    `data` are allocated once at their full size.  Each view's triplets then
    become a CSR row block that is copied into them at once, so no more
    than one view's triplets exist beside the matrix.  Views own disjoint
    row blocks and `coo_tocsr` keeps input order within a row, so the
    blocks in order give the arrays of one `coo_tocsr` over all views.  The
    canonicalisation after it is the sequence scipy's `coo_array.tocsr()`
    runs, so the arrays are byte-equal to scipy's.
    """
    n_det = geometry.n_detectors
    offsets = (np.arange(n_det) - (n_det - 1) / 2.0) * geometry.detector_spacing
    n_samples = math.ceil(math.hypot(nx, ny)) + 1
    along = np.arange(n_samples) - (n_samples - 1) / 2.0
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    angles = geometry.angles
    m, n = len(angle_indices) * n_det, ny * nx

    def samples(a_idx):
        """Floor corners (ix0, iy0) and fractions (fx, fy) of one view's samples."""
        cos_t, sin_t = np.cos(angles[a_idx]), np.sin(angles[a_idx])
        px = cx + offsets[:, None] * cos_t - along[None, :] * sin_t
        py = cy + offsets[:, None] * sin_t + along[None, :] * cos_t
        ix0 = np.floor(px).astype(np.int64)
        iy0 = np.floor(py).astype(np.int64)
        return ix0, iy0, px - ix0, py - iy0

    def corners(ix0, iy0):
        """(dx, dy, mask of the samples whose corner lies in the grid) per corner."""
        in_x = [(ix0 >= -d) & (ix0 < nx - d) for d in (0, 1)]
        in_y = [(iy0 >= -d) & (iy0 < ny - d) for d in (0, 1)]
        for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            yield dx, dy, in_x[dx] & in_y[dy]

    nnz = sum(int(np.count_nonzero(corner[-1])) for a_idx in angle_indices
              for corner in corners(*samples(a_idx)[:2]))
    idx = _index_dtype(m, n, nnz)
    indptr = np.zeros(m + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    row = np.broadcast_to(np.arange(n_det)[:, None], (n_det, n_samples))
    start = 0
    for view, a_idx in enumerate(angle_indices):
        ix0, iy0, fx, fy = samples(a_idx)
        voxel = iy0 * nx + ix0
        rows, cols, vals = [], [], []
        for dx, dy, ok in corners(ix0, iy0):
            rows.append(row[ok])
            cols.append(voxel[ok] + (dy * nx + dx))
            vals.append(((fx if dx else 1 - fx) * (fy if dy else 1 - fy))[ok])
        block = _coo_tocsr(n_det, n, np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(vals))
        stop = start + len(block[2])
        indptr[view * n_det + 1:(view + 1) * n_det + 1] = block[0][1:] + start
        indices[start:stop] = block[1]
        data[start:stop] = block[2]
        start = stop
    if not _sparsetools.csr_has_canonical_format(m, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
            _sparsetools.csr_sort_indices(m, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(m, n, indptr, indices, data)
        # Shrink in place (no view of them exists): a trimmed copy would sit
        # beside the full arrays.
        indices.resize(indptr[-1], refcheck=False)
        data.resize(indptr[-1], refcheck=False)
    return _Csr(indptr, indices, data, (m, n))


class CTOperator:
    """Forward/adjoint projector A = P T of a volume at the views `view_indices`.

    The adjoint of the subsampled operator equals zero-filling the missing
    views and applying the full-view adjoint.

    `forward_columns` and `adjoint_columns` are the products, in the
    (ny*nx, nz) column layout; they are the sparsetools calls behind
    scipy's `A @ x` and `A.T @ x`, so their bits are scipy's.  `forward`
    and `adjoint` are their volume-layout wrappers.  The operator holds no
    mutable state, so one operator may be shared across threads.
    """

    def __init__(self, nx, ny, nz, geometry, view_indices):
        if nx != ny:
            raise ValueError(f"axial slices must be square, got nx={nx}, ny={ny}")
        if min(nx, ny, nz) < 1:
            raise ValueError(f"empty volume ({nz}, {ny}, {nx})")
        view_indices = np.asarray(view_indices)
        if view_indices.ndim != 1 or len(view_indices) == 0:
            raise ValueError("view_indices must be a non-empty 1D index array")
        if not np.issubdtype(view_indices.dtype, np.integer):
            raise ValueError(
                f"view_indices must be integers, got dtype {view_indices.dtype}"
            )
        view_indices = view_indices.astype(np.int64)
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

    @property
    def n_views(self):
        return len(self.view_indices)

    @property
    def sinogram_shape(self):
        return (self.n_views, self.geometry.n_detectors, self.nz)

    @property
    def columns_shape(self):
        """(ny*nx, nz): the volume with each voxel's slices side by side."""
        return (self.ny * self.nx, self.nz)

    def forward(self, vol):
        """(nz, ny, nx) volume -> (n_views, n_detectors, nz) sinogram.

        The volume, of any real dtype, is laid out as float64 columns and
        projected by `forward_columns`.
        """
        if vol.shape != (self.nz, self.ny, self.nx):
            raise ValueError(
                f"expected volume {(self.nz, self.ny, self.nx)}, got {vol.shape}"
            )
        return self.forward_columns(np.ascontiguousarray(
            vol.reshape(self.nz, -1).T, dtype=np.float64))

    def adjoint(self, sino):
        """(n_views, n_detectors, nz) sinogram -> new (nz, ny, nx) volume.

        `adjoint_columns` runs into a new column array, whose transpose is
        returned as a C-contiguous copy.
        """
        if sino.shape != self.sinogram_shape:
            raise ValueError(
                f"expected sinogram {self.sinogram_shape}, got {sino.shape}"
            )
        cols = self.adjoint_columns(np.ascontiguousarray(sino, dtype=np.float64),
                                    np.empty(self.columns_shape))
        return np.ascontiguousarray(cols.T).reshape(self.nz, self.ny, self.nx)

    def forward_columns(self, cols):
        """(ny*nx, nz) columns -> new (n_views, n_detectors, nz) sinogram.

        `cols` must be a C-contiguous float64 (ny*nx, nz) array: column j
        of row i is voxel i of slice j.  This is scipy's `A @ cols`.
        """
        _check_buffer("cols", cols, self.columns_shape)
        sino = np.zeros(self.sinogram_shape)
        a = self._matrix
        _sparsetools.csr_matvecs(*a.shape, self.nz, a.indptr, a.indices, a.data,
                                 cols.ravel(), sino.ravel())
        return sino

    def adjoint_columns(self, sino, out):
        """(n_views, n_detectors, nz) sinogram -> (ny*nx, nz) columns in `out`.

        `sino` and `out` must be C-contiguous float64 arrays of the
        sinogram's and the columns' shape.  `out` is overwritten and
        returned.  This is scipy's `A.T @ sino`.
        """
        _check_buffer("sino", sino, self.sinogram_shape)
        _check_buffer("out", out, self.columns_shape)
        out.fill(0.0)
        a = self._matrix
        _sparsetools.csc_matvecs(*a.shape[::-1], self.nz, a.indptr, a.indices,
                                 a.data, sino.ravel(), out.ravel())
        return out


def _check_buffer(name, array, shape):
    """ValueError unless `array` is a C-contiguous float64 array of `shape`."""
    if (array.shape != shape or array.dtype != np.float64
            or not array.flags.c_contiguous):
        raise ValueError(
            f"{name} must be a C-contiguous float64 {shape} array, got "
            f"{array.dtype} {array.shape}"
        )


def add_gaussian_noise(sino, sigma_y, seed):
    """y + sigma_y * eta with eta drawn i.i.d. standard normal.

    Draws follow C order of the (view, detector, slice) array from the
    seeded stream.  sigma_y = 0 returns an untouched copy without drawing.
    """
    if not 0 <= sigma_y < math.inf:
        raise ValueError(f"sigma_y must be finite and >= 0, got {sigma_y}")
    if sigma_y == 0:
        return sino.copy()
    rng = Xoshiro256PP(seed)
    return sino + sigma_y * rng.normal_array(sino.shape)


SINOGRAM_KEYS = ("n_views", "n_detectors", "nz")


def _operator_record(operator):
    """What a sinogram's sidecar records of the operator that made it."""
    return {"geometry": asdict(operator.geometry),
            "view_indices": operator.view_indices.tolist(),
            **dict(zip(SINOGRAM_KEYS, map(int, operator.sinogram_shape)))}


def save_sinogram(path, sino, operator, sigma_y, seed, provenance):
    """Save a (view, detector, slice) sinogram of `operator` with save_raw."""
    save_raw(path, sino, SINOGRAM_KEYS, {
        **_operator_record(operator),
        "layout": "C-order (view, detector, slice)",
        "sigma_y": sigma_y,
        "seed": seed,
        "provenance": provenance,
    })


def load_sinogram(path, operator):
    """(sino, sidecar) of a save_sinogram file recorded under `operator`."""
    return load_raw(path, SINOGRAM_KEYS, _operator_record(operator))

"""Analytic 3D head phantom built from additive ellipsoids."""

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _finite(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _finite_triple(values):
    try:
        return len(values) == 3 and all(_finite(v) for v in values)
    except TypeError:
        return False


@dataclass(frozen=True)
class Ellipsoid:
    """Additive intensity inside an axis-scaled, z-rotated ellipsoid."""

    intensity: float
    center: tuple          # (x0, y0, z0) in [-1, 1] coordinates
    semi_axes: tuple       # (a, b, c) along x, y, z before rotation
    angle_deg: float = 0.0  # rotation of the (a, b) axes about z

    def __post_init__(self):
        for name in ("intensity", "angle_deg"):
            value = getattr(self, name)
            if not _finite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not _finite_triple(self.center):
            raise ValueError(f"center must hold 3 finite numbers, got {self.center!r}")
        if not (_finite_triple(self.semi_axes) and min(self.semi_axes) > 0):
            raise ValueError(
                f"semi_axes must hold 3 finite numbers > 0, got {self.semi_axes!r}")


# The standard 10-ellipsoid head phantom (intensity, center, semi-axes,
# z-rotation).  Values in [-1, 1] coordinates; summing intensities gives
# tissue levels 0.0 / 0.1 / 0.2 / 0.3 inside a shell of 1.0.
SHEPP_LOGAN_ELLIPSOIDS = (
    Ellipsoid(1.0, (0.0, 0.0, 0.0), (0.69, 0.92, 0.81), 0.0),
    Ellipsoid(-0.8, (0.0, -0.0184, 0.0), (0.6624, 0.874, 0.78), 0.0),
    Ellipsoid(-0.2, (0.22, 0.0, 0.0), (0.11, 0.31, 0.22), -18.0),
    Ellipsoid(-0.2, (-0.22, 0.0, 0.0), (0.16, 0.41, 0.28), 18.0),
    Ellipsoid(0.1, (0.0, 0.35, -0.15), (0.21, 0.25, 0.41), 0.0),
    Ellipsoid(0.1, (0.0, 0.1, 0.25), (0.046, 0.046, 0.05), 0.0),
    Ellipsoid(0.1, (0.0, -0.1, 0.25), (0.046, 0.046, 0.05), 0.0),
    Ellipsoid(0.1, (-0.08, -0.605, 0.0), (0.046, 0.023, 0.05), 0.0),
    Ellipsoid(0.1, (0.0, -0.606, 0.0), (0.023, 0.023, 0.2), 0.0),
    Ellipsoid(0.1, (0.06, -0.605, 0.0), (0.023, 0.046, 0.2), 0.0),
)


def shepp_logan_3d(nx, ny, nz, ellipsoids=None):
    """Evaluate the phantom at voxel centers; returns (nz, ny, nx) in [0, 1].

    Voxel centers sit on linspace(-1, 1, n) per axis, so the outer shell is
    fully contained and corner voxels are empty.

    A voxel is inside an ellipsoid when `plane + depth <= 1`, with the
    in-plane term `plane` computed once per ellipsoid on the (ny, nx) grid
    and `depth = (dz / c)**2` once per slice.  Only the slices with
    `depth <= 1` are evaluated.  The restriction is exact: `plane >= 0` and
    rounded addition is monotone, so `plane + depth >= depth > 1` on every
    other slice.  Each voxel still gets the same operations in the same
    order, so the bits equal those of the formula evaluated on full 3D
    coordinate grids.
    """
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        if n < 8:
            raise ValueError(f"{name} must be >= 8, got {n}")
    if ellipsoids is None:
        ellipsoids = SHEPP_LOGAN_ELLIPSOIDS
    zs = np.linspace(-1.0, 1.0, nz)
    ys = np.linspace(-1.0, 1.0, ny)
    xs = np.linspace(-1.0, 1.0, nx)
    vol = np.zeros((nz, ny, nx))
    for e in ellipsoids:
        phi = np.deg2rad(e.angle_deg)
        dx = (xs - e.center[0])[None, :]
        dy = (ys - e.center[1])[:, None]
        dz = zs - e.center[2]
        rot_x = dx * np.cos(phi) + dy * np.sin(phi)
        rot_y = -dx * np.sin(phi) + dy * np.cos(phi)
        a, b, c = e.semi_axes
        plane = (rot_x / a) ** 2 + (rot_y / b) ** 2
        depth = (dz / c) ** 2
        slab = np.flatnonzero(depth <= 1.0)
        if slab.size == 0:
            continue
        lo, hi = slab[0], slab[-1] + 1
        inside = plane + depth[lo:hi, None, None] <= 1.0
        np.add(vol[lo:hi], e.intensity, out=vol[lo:hi], where=inside)
    return np.clip(vol, 0.0, 1.0)

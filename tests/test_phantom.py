"""3D Shepp-Logan phantom geometry checks."""

import numpy as np
import pytest

from nerdct import SHEPP_LOGAN_ELLIPSOIDS, Ellipsoid, shepp_logan_3d


def test_table_has_ten_ellipsoids():
    assert len(SHEPP_LOGAN_ELLIPSOIDS) == 10
    assert SHEPP_LOGAN_ELLIPSOIDS[0].intensity == 1.0
    assert SHEPP_LOGAN_ELLIPSOIDS[1].intensity == -0.8


def test_value_range_and_dtype():
    vol = shepp_logan_3d(32, 32, 16)
    assert vol.shape == (16, 32, 32)
    assert vol.dtype == np.float64
    assert vol.min() >= 0.0
    assert vol.max() <= 1.0


def test_corners_are_air():
    vol = shepp_logan_3d(32, 32, 16)
    for k in (0, -1):
        for j in (0, -1):
            for i in (0, -1):
                assert vol[k, j, i] == 0.0


def test_center_value_analytic():
    # Voxel nearest the origin accumulates head + interior ellipsoids
    # that contain (0,0,0): 1.0 - 0.8 = 0.2 for the standard table.
    vol = shepp_logan_3d(33, 33, 17)
    assert abs(vol[8, 16, 16] - 0.2) < 1e-12


def test_single_ellipsoid_analytic_membership():
    ell = (Ellipsoid(0.5, (0.1, -0.2, 0.0), (0.3, 0.4, 0.5), 30.0),)
    n = 24
    vol = shepp_logan_3d(n, n, n, ellipsoids=ell)
    coords = np.linspace(-1.0, 1.0, n)
    zz, yy, xx = np.meshgrid(coords, coords, coords, indexing="ij")
    th = np.deg2rad(30.0)
    xr = (xx - 0.1) * np.cos(th) + (yy + 0.2) * np.sin(th)
    yr = -(xx - 0.1) * np.sin(th) + (yy + 0.2) * np.cos(th)
    inside = (xr / 0.3) ** 2 + (yr / 0.4) ** 2 + (zz / 0.5) ** 2 <= 1.0
    expected = np.where(inside, 0.5, 0.0)
    assert np.array_equal(vol, expected)


def test_mirror_symmetry_of_symmetric_subset():
    # Ellipsoids with zero rotation and centered x are mirror symmetric
    # about the x axis; the two rotated tumors break it, so drop them.
    subset = tuple(
        e for e in SHEPP_LOGAN_ELLIPSOIDS if e.angle_deg == 0.0 and e.center[0] == 0.0
    )
    assert len(subset) >= 5
    vol = shepp_logan_3d(32, 32, 16, ellipsoids=subset)
    assert np.allclose(vol, vol[:, :, ::-1], atol=1e-12)


def test_additivity_of_intensities():
    a = (Ellipsoid(0.4, (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),)
    b = (Ellipsoid(0.3, (0.1, 0.0, 0.0), (0.4, 0.4, 0.4)),)
    va = shepp_logan_3d(20, 20, 20, ellipsoids=a)
    vb = shepp_logan_3d(20, 20, 20, ellipsoids=b)
    vab = shepp_logan_3d(20, 20, 20, ellipsoids=a + b)
    assert np.allclose(vab, np.clip(va + vb, 0.0, 1.0), atol=1e-12)


def test_head_boundary_inside_volume():
    # The outer skull ellipsoid has semi-axis 0.92 along y: the phantom
    # must vanish near the y edges but not at mid-radius.
    vol = shepp_logan_3d(64, 64, 32)
    assert np.all(vol[:, 0, :] == 0.0)
    assert np.all(vol[:, -1, :] == 0.0)
    assert vol[16, 32, 32] > 0.0


def test_dims_validated():
    with pytest.raises(ValueError):
        shepp_logan_3d(4, 32, 32)
    with pytest.raises(ValueError):
        shepp_logan_3d(32, 32, 7)


def _grid_phantom(nx, ny, nz, ellipsoids):
    """The phantom formula evaluated on full 3D coordinate grids."""
    zs = np.linspace(-1.0, 1.0, nz)
    ys = np.linspace(-1.0, 1.0, ny)
    xs = np.linspace(-1.0, 1.0, nx)
    grid_z, grid_y, grid_x = np.meshgrid(zs, ys, xs, indexing="ij")
    vol = np.zeros((nz, ny, nx))
    for e in ellipsoids:
        phi = np.deg2rad(e.angle_deg)
        dx = grid_x - e.center[0]
        dy = grid_y - e.center[1]
        dz = grid_z - e.center[2]
        rot_x = dx * np.cos(phi) + dy * np.sin(phi)
        rot_y = -dx * np.sin(phi) + dy * np.cos(phi)
        a, b, c = e.semi_axes
        inside = (rot_x / a) ** 2 + (rot_y / b) ** 2 + (dz / c) ** 2 <= 1.0
        vol[inside] += e.intensity
    return np.clip(vol, 0.0, 1.0)


# No slice within z in [-1, 1]; a slab cut off by z = 1; rotated and
# off-centre on every axis.
_EDGE_TABLE = (
    Ellipsoid(0.7, (0.0, 0.0, 1.4), (0.5, 0.5, 0.3)),
    Ellipsoid(0.4, (0.1, 0.0, 0.9), (0.6, 0.3, 0.35), -25.0),
    Ellipsoid(0.3, (-0.3, 0.2, -0.35), (0.45, 0.2, 0.5), 37.0),
)


@pytest.mark.parametrize("table", ["default", "edge"])
@pytest.mark.parametrize("shape", [(64, 64, 16), (33, 33, 17), (24, 40, 9)],
                         ids=["64x64x16", "33x33x17", "24x40x9"])
def test_bits_equal_full_grid_formula(shape, table):
    ellipsoids = SHEPP_LOGAN_ELLIPSOIDS if table == "default" else _EDGE_TABLE
    vol = shepp_logan_3d(*shape, ellipsoids=ellipsoids)
    assert vol.tobytes() == _grid_phantom(*shape, ellipsoids).tobytes()


def test_edge_table_covers_each_slab_case():
    alone = [shepp_logan_3d(24, 40, 9, ellipsoids=(e,)) for e in _EDGE_TABLE]
    assert not alone[0].any()
    assert alone[1][-1].any() and not alone[1][0].any()
    assert alone[2].any()


@pytest.mark.parametrize("field, kwargs", [
    ("intensity", dict(intensity=float("nan"))),
    ("intensity", dict(intensity=float("inf"))),
    ("intensity", dict(intensity="0.5")),
    ("angle_deg", dict(angle_deg=float("nan"))),
    ("angle_deg", dict(angle_deg=True)),
    ("center", dict(center=(0.0, float("nan"), 0.0))),
    ("center", dict(center=(0.0, 0.0))),
    ("center", dict(center=None)),
    ("semi_axes", dict(semi_axes=(0.3, 0.0, 0.3))),
    ("semi_axes", dict(semi_axes=(0.3, -0.2, 0.3))),
    ("semi_axes", dict(semi_axes=(0.3, 0.3, float("inf")))),
    ("semi_axes", dict(semi_axes=(0.3, 0.3, 0.3, 0.3))),
])
def test_ellipsoid_refuses_bad_values(field, kwargs):
    fields = dict(intensity=0.5, center=(0.0, 0.0, 0.0), semi_axes=(0.3, 0.3, 0.3),
                  angle_deg=0.0)
    with pytest.raises(ValueError, match=field):
        Ellipsoid(**{**fields, **kwargs})


def test_peak_memory_is_a_few_volumes(peak_traced_bytes):
    shepp_logan_3d(64, 64, 32)
    peak, vol = peak_traced_bytes(lambda: shepp_logan_3d(64, 64, 32))
    assert peak <= 3 * vol.nbytes, peak / vol.nbytes

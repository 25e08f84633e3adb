"""Projector tests: dense oracle, adjointness, geometry, noise, and IO."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nerdct import (
    CTOperator,
    ProjectionGeometry,
    add_gaussian_noise,
    default_geometry,
    dot,
    load_sinogram,
    save_sinogram,
    uniform_view_indices,
)
from nerdct.rng import Xoshiro256PP


def dense_forward_matrix(operator, nx, ny, nz):
    """Materialize the operator column by column through unit volumes."""
    cols = []
    for j in range(nz * ny * nx):
        e = np.zeros(nz * ny * nx)
        e[j] = 1.0
        cols.append(operator.forward(e.reshape(nz, ny, nx)).ravel())
    return np.stack(cols, axis=1)


def test_forward_matches_dense_matrix():
    nx = ny = 16
    nz = 2
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    op = CTOperator(nx, ny, nz, geom)
    dense = dense_forward_matrix(op, nx, ny, nz)
    rng = Xoshiro256PP(0)
    for _ in range(5):
        vol = rng.normal_array((nz, ny, nx))
        expected = (dense @ vol.ravel()).reshape(op.sinogram_shape)
        assert np.allclose(op.forward(vol), expected, atol=1e-12)
    # Adjoint against the same dense matrix.
    for _ in range(5):
        sino = rng.normal_array(op.sinogram_shape)
        expected = (dense.T @ sino.ravel()).reshape(nz, ny, nx)
        assert np.allclose(op.adjoint(sino), expected, atol=1e-12)


def test_adjoint_dot_product_identity():
    geom = ProjectionGeometry(n_angles_full=24, n_detectors=31)
    op = CTOperator(20, 20, 4, geom, uniform_view_indices(24, 6))
    rng = Xoshiro256PP(1)
    for _ in range(30):
        v = rng.normal_array((4, 20, 20))
        s = rng.normal_array(op.sinogram_shape)
        av = op.forward(v)
        lhs = dot(av, s)
        rhs = dot(v, op.adjoint(s))
        bound = 1e-10 * math.sqrt(dot(av, av)) * math.sqrt(dot(s, s))
        assert abs(lhs - rhs) <= max(bound, 1e-12)


def test_centered_disk_projection_width():
    # A filled disk of radius r projects to a profile whose central ray
    # integrates to about the chord length 2r, independent of angle.
    nx = ny = 64
    r = 10.0
    yy, xx = np.meshgrid(np.arange(ny) - (ny - 1) / 2.0, np.arange(nx) - (nx - 1) / 2.0, indexing="ij")
    disk = (xx**2 + yy**2 <= r * r).astype(np.float64)
    vol = disk[None, :, :]
    geom = default_geometry(nx, 45)
    sino = CTOperator(nx, ny, 1, geom).forward(vol)
    center = geom.n_detectors // 2
    central = sino[:, center, 0]
    # Rasterized disk: allow one voxel of slack around 2r.
    assert np.all(central >= 2 * r - 1.5)
    assert np.all(central <= 2 * r + 1.5)
    # Rotation invariance up to the hard edge's rasterization jitter.
    assert np.ptp(central) <= 1.5


def test_rotation_consistency_smooth_blob():
    # A smooth isotropic Gaussian blob must produce nearly identical
    # detector profiles at every angle.
    nx = ny = 48
    yy, xx = np.meshgrid(np.arange(ny) - (ny - 1) / 2.0, np.arange(nx) - (nx - 1) / 2.0, indexing="ij")
    blob = np.exp(-(xx**2 + yy**2) / (2.0 * 6.0**2))
    vol = blob[None, :, :]
    geom = default_geometry(nx, 30)
    sino = CTOperator(nx, ny, 1, geom).forward(vol)
    profiles = sino[:, :, 0]
    ref = profiles[0]
    for k in range(1, geom.n_angles_full):
        assert np.max(np.abs(profiles[k] - ref)) <= 1e-2 * ref.max()


def test_zero_volume_zero_sinogram():
    geom = default_geometry(16, 10)
    op = CTOperator(16, 16, 3, geom)
    assert np.all(op.forward(np.zeros((3, 16, 16))) == 0.0)
    assert np.all(op.adjoint(np.zeros(op.sinogram_shape)) == 0.0)


def test_view_subsampling_matches_row_selection():
    # P*T: projecting at a view subset equals slicing the full sinogram.
    geom = ProjectionGeometry(n_angles_full=20, n_detectors=23)
    views = uniform_view_indices(20, 5)
    full = CTOperator(16, 16, 2, geom)
    sub = CTOperator(16, 16, 2, geom, views)
    vol = Xoshiro256PP(2).normal_array((2, 16, 16))
    assert np.allclose(sub.forward(vol), full.forward(vol)[views], atol=1e-13)


def test_subsampled_adjoint_equals_zero_filled_full_adjoint():
    geom = ProjectionGeometry(n_angles_full=20, n_detectors=23)
    views = uniform_view_indices(20, 5)
    full = CTOperator(16, 16, 2, geom)
    sub = CTOperator(16, 16, 2, geom, views)
    sino = Xoshiro256PP(3).normal_array(sub.sinogram_shape)
    padded = np.zeros(full.sinogram_shape)
    padded[views] = sino
    assert np.allclose(sub.adjoint(sino), full.adjoint(padded), atol=1e-13)


def test_uniform_view_indices():
    assert list(uniform_view_indices(180, 8)) == [0, 22, 45, 67, 90, 112, 135, 157]
    assert list(uniform_view_indices(6, 6)) == [0, 1, 2, 3, 4, 5]
    assert list(uniform_view_indices(10, 1)) == [0]
    with pytest.raises(ValueError):
        uniform_view_indices(10, 11)
    with pytest.raises(ValueError):
        uniform_view_indices(10, 0)


def test_operator_validation():
    geom = default_geometry(16, 10)
    with pytest.raises(ValueError):
        CTOperator(16, 8, 2, geom)  # nx != ny unsupported
    with pytest.raises(ValueError):
        CTOperator(16, 16, 2, geom, [0, 0, 1])  # duplicate views
    with pytest.raises(ValueError):
        CTOperator(16, 16, 2, geom, [0, 10])  # out of range


def test_default_geometry_detector_count():
    geom = default_geometry(64)
    assert geom.n_detectors == math.ceil(64 * math.sqrt(2.0))
    assert geom.n_angles_full == 180
    angles = geom.angles
    assert len(angles) == 180
    assert angles[0] == 0.0
    assert angles[-1] < math.pi


def test_slicewise_structure():
    # Each z-slice projects independently: sinogram slice k depends only
    # on volume slice k.
    geom = default_geometry(16, 8)
    op = CTOperator(16, 16, 3, geom)
    rng = Xoshiro256PP(4)
    vol = rng.normal_array((3, 16, 16))
    sino = op.forward(vol)
    for k in range(3):
        isolated = np.zeros_like(vol)
        isolated[k] = vol[k]
        assert np.allclose(op.forward(isolated)[:, :, k], sino[:, :, k], atol=1e-13)
        assert np.all(op.forward(isolated)[:, :, [j for j in range(3) if j != k]] == 0.0)


def test_noise_statistics_and_determinism():
    sino = np.zeros((4, 50, 50))
    noisy = add_gaussian_noise(sino, 0.1, seed=7)
    again = add_gaussian_noise(sino, 0.1, seed=7)
    assert np.array_equal(noisy, again)
    other = add_gaussian_noise(sino, 0.1, seed=8)
    assert not np.array_equal(noisy, other)
    resid = noisy - sino
    assert abs(resid.mean()) < 0.005
    assert abs(resid.std() - 0.1) < 0.005


def test_noise_sigma_zero_is_identity():
    sino = Xoshiro256PP(5).normal_array((2, 5, 3))
    out = add_gaussian_noise(sino, 0.0, seed=1)
    assert np.array_equal(out, sino)
    assert out is not sino
    with pytest.raises(ValueError):
        add_gaussian_noise(sino, -0.1, seed=1)


def test_sinogram_io_round_trip(tmp_path):
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    views = uniform_view_indices(12, 4)
    op = CTOperator(16, 16, 2, geom, views)
    sino = op.forward(Xoshiro256PP(6).normal_array((2, 16, 16)))
    path = tmp_path / "sino.f64"
    save_sinogram(str(path), sino, geom, views, sigma_y=0.1, seed=3)
    loaded, meta = load_sinogram(str(path))
    assert np.array_equal(loaded, sino)
    assert meta["geometry"]["n_angles_full"] == 12
    assert meta["geometry"]["n_detectors"] == 23
    assert meta["n_detectors"] == 23
    assert list(meta["view_indices"]) == list(views)
    assert meta["sigma_y"] == 0.1
    assert meta["seed"] == 3


def test_sinogram_io_size_mismatch(tmp_path):
    geom = ProjectionGeometry(n_angles_full=6, n_detectors=11)
    sino = np.zeros((6, 11, 2))
    path = tmp_path / "sino.f64"
    save_sinogram(str(path), sino, geom, list(range(6)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_sinogram(str(path))


@given(nx=st.integers(4, 24), nz=st.integers(1, 5),
       n_angles_full=st.integers(1, 40), data=st.data(),
       detector_spacing=st.floats(0.25, 4.0), seed=st.integers(0, 2**32))
def test_adjoint_identity_random_geometries(nx, nz, n_angles_full, data,
                                            detector_spacing, seed):
    views = data.draw(st.lists(st.integers(0, n_angles_full - 1), min_size=1,
                               unique=True), label="views")
    geom = default_geometry(nx, n_angles_full, detector_spacing)
    op = CTOperator(nx, nx, nz, geom, views)
    rng = Xoshiro256PP(seed)
    v = rng.normal_array((nz, nx, nx))
    s = rng.normal_array(op.sinogram_shape)
    av = op.forward(v)
    lhs = dot(av, s)
    rhs = dot(v, op.adjoint(s))
    assert abs(lhs - rhs) <= 1e-12 * math.sqrt(dot(av, av) * dot(s, s))

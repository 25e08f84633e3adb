"""Projector tests: dense oracle, adjointness, geometry, noise, and IO."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from nerdct import (
    CTOperator,
    ProjectionGeometry,
    add_gaussian_noise,
    default_geometry,
    load_sinogram,
    save_sinogram,
    uniform_view_indices,
)
from nerdct import radon
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
    op = CTOperator(nx, ny, nz, geom, range(geom.n_angles_full))
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
        lhs = float(np.vdot(av, s))
        rhs = float(np.vdot(v, op.adjoint(s)))
        bound = 1e-10 * math.sqrt(float(np.vdot(av, av))) * math.sqrt(
            float(np.vdot(s, s)))
        assert abs(lhs - rhs) <= max(bound, 1e-12)


@pytest.mark.parametrize("nz", [1, 3])
def test_projector_bytes_equal_scipy_product(nz):
    # forward/adjoint run scipy's own sparsetools routines into their own
    # buffers; the bytes must stay those of `A @ x` and of `A.T @ x`, the
    # CSC scatter over A's own arrays, and equal those of the transposed
    # CSR product `A.T.tocsr() @ x`.  One column must match scipy's
    # single-vector routines too.  Real inputs of any dtype give float64.
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    op = CTOperator(16, 16, nz, geom, uniform_view_indices(12, 5))
    rng = Xoshiro256PP(7)
    vol = rng.normal_array((nz, 16, 16))
    sino = rng.normal_array(op.sinogram_shape)
    m = op._matrix
    matrix = sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape)
    for v in (vol, vol.astype(np.float32), np.round(10 * vol).astype(np.int64)):
        expected = matrix @ v.reshape(nz, -1).T
        got = op.forward(v)
        assert got.dtype == np.float64 and got.shape == op.sinogram_shape
        assert got.tobytes() == expected.tobytes()
    if nz == 1:
        assert op.forward(vol).tobytes() == (matrix @ vol.ravel()).tobytes()
    rows = sino.reshape(-1, nz)
    got = op.adjoint(sino).tobytes()
    assert got == np.ascontiguousarray((matrix.T @ rows).T).tobytes()
    assert got == np.ascontiguousarray((matrix.T.tocsr() @ rows).T).tobytes()


def csr_bytes(matrix):
    return [(a.dtype, a.tobytes()) for a in (matrix.indptr, matrix.indices, matrix.data)]


@pytest.mark.parametrize("geom, views, hits", [
    (ProjectionGeometry(n_angles_full=12, n_detectors=23), [0, 5, 7, 11], True),
    (default_geometry(16, 12), [3], True),
    (default_geometry(16, 12), range(12), True),
    (ProjectionGeometry(n_angles_full=12, n_detectors=2, detector_spacing=40.0),
     [0, 5], False),  # every ray misses the grid
])
def test_csr_build_bytes_equal_scipy(monkeypatch, geom, views, hits):
    # The operator's CSR arrays of A, index dtype included, are those of
    # scipy's coo_matrix(...).tocsr() over the same triplets, which hold
    # duplicate (row, column) entries wherever a ray meets the grid.
    # (coo_array keeps int64 indices; coo_matrix picks int32 at this size,
    # as the operator does.)
    triplets = []
    build_block = radon._coo_tocsr

    def record(m, n, rows, cols, vals):
        triplets.append((rows + len(triplets) * m, cols, vals))
        return build_block(m, n, rows, cols, vals)

    monkeypatch.setattr(radon, "_coo_tocsr", record)
    op = CTOperator(16, 16, 2, geom, views)
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*triplets))
    expected = sp.coo_matrix((vals, (rows, cols)), shape=op._matrix.shape).tocsr()
    assert len(triplets) == op.n_views
    assert op._matrix.shape == expected.shape
    assert csr_bytes(op._matrix) == csr_bytes(expected)
    if hits:  # neighbouring samples share voxels: duplicates were summed
        assert len(rows) > op._matrix.data.size > 0
    else:
        assert len(rows) == op._matrix.data.size == 0


def test_full_view_build_allocation_peak(peak_traced_bytes):
    # The full-view 64x64 build samples 2.95 M triplets.  Its index and
    # weight arrays are allocated once (12 bytes a triplet) and take each
    # view's block as it is made: the build peaks near 37 MB.  Keeping every
    # block until one final concatenate and trimmed copy peaked near 60 MB.
    geom = default_geometry(64, 180)
    peak, matrix = peak_traced_bytes(lambda: radon._ray_matrix(64, 64, geom, np.arange(180)))
    assert matrix.data.size == 1_640_308
    assert peak < 45_000_000, peak


def test_one_operator_shared_by_two_threads():
    # The operator holds no mutable state, so calls from two threads at once
    # give the bytes of the same calls made one after another.
    geom = ProjectionGeometry(n_angles_full=180, n_detectors=91)
    op = CTOperator(64, 64, 16, geom, uniform_view_indices(180, 8))
    rng = Xoshiro256PP(10)
    vols = [rng.normal_array((16, 64, 64)) for _ in range(4)]
    sinos = [rng.normal_array(op.sinogram_shape) for _ in range(4)]
    expected = [(op.forward(v).tobytes(), op.adjoint(s).tobytes())
                for v, s in zip(vols, sinos)]

    def mismatches(offset):
        wrong = 0
        for i in range(150):
            k = (i + offset) % 4
            wrong += op.forward(vols[k]).tobytes() != expected[k][0]
            wrong += op.adjoint(sinos[k]).tobytes() != expected[k][1]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(mismatches, offset) for offset in (0, 1)]
            wrong = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0, 0]


@pytest.mark.parametrize("nz", [1, 3, 16])
def test_column_products_bytes_equal_volume_products(nz):
    # forward/adjoint are the column products wrapped by a transposed copy,
    # so the column products on transposed data give the same bytes.  The
    # adjoint overwrites a NaN-filled `out` rather than adding into it.
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    op = CTOperator(16, 16, nz, geom, uniform_view_indices(12, 5))
    rng = Xoshiro256PP(9)
    vol = rng.normal_array((nz, 16, 16))
    sino = rng.normal_array(op.sinogram_shape)
    cols = np.ascontiguousarray(vol.reshape(nz, -1).T)
    assert op.columns_shape == cols.shape == (256, nz)
    got = op.forward_columns(cols)
    assert got.shape == op.sinogram_shape
    assert got.tobytes() == op.forward(vol).tobytes()
    out = np.full(op.columns_shape, np.nan)
    assert op.adjoint_columns(sino, out) is out
    assert np.ascontiguousarray(out.T).tobytes() == op.adjoint(sino).tobytes()


def test_column_adjoint_identity():
    geom = ProjectionGeometry(n_angles_full=24, n_detectors=31)
    op = CTOperator(20, 20, 4, geom, uniform_view_indices(24, 6))
    rng = Xoshiro256PP(2)
    for _ in range(30):
        v = rng.normal_array(op.columns_shape)
        s = rng.normal_array(op.sinogram_shape)
        av = op.forward_columns(v)
        lhs = float(np.vdot(av, s))
        rhs = float(np.vdot(v, op.adjoint_columns(s, np.empty(op.columns_shape))))
        bound = 1e-10 * math.sqrt(float(np.vdot(av, av))) * math.sqrt(
            float(np.vdot(s, s)))
        assert abs(lhs - rhs) <= max(bound, 1e-12)


def test_column_products_reject_other_layouts():
    # The column products never copy: a wrong shape, Fortran order or a
    # dtype other than float64 is an error, for the input and for `out`.
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    op = CTOperator(16, 16, 3, geom, uniform_view_indices(12, 5))
    sino = Xoshiro256PP(3).normal_array(op.sinogram_shape)
    bad_columns = (np.zeros((256, 4)), np.zeros((3, 256)), np.zeros((256, 3), order="F"),
                   np.zeros((256, 3), dtype=np.float32))
    for bad in bad_columns:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            op.forward_columns(bad)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            op.adjoint_columns(sino, bad)
    bad_sinos = (np.zeros((5, 23, 4)), np.zeros(op.sinogram_shape, order="F"),
                 np.zeros(op.sinogram_shape, dtype=np.float32))
    for bad in bad_sinos:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            op.adjoint_columns(bad, np.empty(op.columns_shape))


def test_centered_disk_projection_width():
    # A filled disk of radius r projects to a profile whose central ray
    # integrates to about the chord length 2r, independent of angle.
    nx = ny = 64
    r = 10.0
    yy, xx = np.meshgrid(np.arange(ny) - (ny - 1) / 2.0, np.arange(nx) - (nx - 1) / 2.0, indexing="ij")
    disk = (xx**2 + yy**2 <= r * r).astype(np.float64)
    vol = disk[None, :, :]
    geom = default_geometry(nx, 45)
    sino = CTOperator(nx, ny, 1, geom, range(45)).forward(vol)
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
    sino = CTOperator(nx, ny, 1, geom, range(30)).forward(vol)
    profiles = sino[:, :, 0]
    ref = profiles[0]
    for k in range(1, geom.n_angles_full):
        assert np.max(np.abs(profiles[k] - ref)) <= 1e-2 * ref.max()


def test_zero_volume_zero_sinogram():
    geom = default_geometry(16, 10)
    op = CTOperator(16, 16, 3, geom, range(10))
    assert np.all(op.forward(np.zeros((3, 16, 16))) == 0.0)
    assert np.all(op.adjoint(np.zeros(op.sinogram_shape)) == 0.0)


def test_view_subsampling_matches_row_selection():
    # P*T: projecting at a view subset equals slicing the full sinogram.
    geom = ProjectionGeometry(n_angles_full=20, n_detectors=23)
    views = uniform_view_indices(20, 5)
    full = CTOperator(16, 16, 2, geom, range(20))
    sub = CTOperator(16, 16, 2, geom, views)
    vol = Xoshiro256PP(2).normal_array((2, 16, 16))
    assert np.allclose(sub.forward(vol), full.forward(vol)[views], atol=1e-13)


def test_subsampled_adjoint_equals_zero_filled_full_adjoint():
    geom = ProjectionGeometry(n_angles_full=20, n_detectors=23)
    views = uniform_view_indices(20, 5)
    full = CTOperator(16, 16, 2, geom, range(20))
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
        CTOperator(16, 8, 2, geom, range(10))  # nx != ny unsupported
    with pytest.raises(ValueError):
        CTOperator(16, 16, 2, geom, [0, 0, 1])  # duplicate views
    with pytest.raises(ValueError):
        CTOperator(16, 16, 2, geom, [0, 10])  # out of range
    for views in ([0.5, 2.7], [True, False]):  # not integers: no silent cast
        with pytest.raises(ValueError, match="integers"):
            CTOperator(16, 16, 2, geom, views)
    with pytest.raises(ValueError, match="empty volume"):
        CTOperator(16, 16, 0, geom, range(10))
    with pytest.raises(ValueError, match="non-empty 1D"):
        CTOperator(16, 16, 2, geom, [])
    op = CTOperator(16, 16, 2, geom, [0, 5])
    with pytest.raises(ValueError, match="expected volume"):
        op.forward(np.zeros((2, 16, 15)))
    with pytest.raises(ValueError, match="expected sinogram"):
        op.adjoint(np.zeros((3, 4, 5)))


def test_default_geometry_detector_count():
    geom = default_geometry(64, 180)
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
    op = CTOperator(16, 16, 3, geom, range(8))
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
    for sigma_y in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            add_gaussian_noise(sino, sigma_y, seed=1)


def test_sinogram_io_round_trip(tmp_path):
    geom = ProjectionGeometry(n_angles_full=12, n_detectors=23)
    views = uniform_view_indices(12, 4)
    op = CTOperator(16, 16, 2, geom, views)
    sino = op.forward(Xoshiro256PP(6).normal_array((2, 16, 16)))
    path = tmp_path / "sino.f64"
    save_sinogram(str(path), sino, op, sigma_y=0.1, seed=3, provenance={})
    loaded, meta = load_sinogram(str(path), op)
    assert np.array_equal(loaded, sino)
    assert meta["geometry"]["n_angles_full"] == 12
    assert meta["geometry"]["n_detectors"] == 23
    assert meta["n_detectors"] == 23
    assert list(meta["view_indices"]) == list(views)
    assert meta["sigma_y"] == 0.1
    assert meta["seed"] == 3


def test_sinogram_io_size_mismatch(tmp_path):
    op = CTOperator(4, 4, 2, ProjectionGeometry(n_angles_full=6, n_detectors=11), range(6))
    sino = np.zeros((6, 11, 2))
    path = tmp_path / "sino.f64"
    save_sinogram(str(path), sino, op, 0.0, 0, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_sinogram(str(path), op)


def test_save_sinogram_rejects_array_of_another_operator(tmp_path):
    # A 6-view 8x8x2 operator records 6 views; a 5-view array must not be
    # written under that record.
    op = CTOperator(8, 8, 2, ProjectionGeometry(n_angles_full=6, n_detectors=12), range(6))
    path = tmp_path / "sino.f64"
    with pytest.raises(ValueError, match="n_views 6, the array has 5"):
        save_sinogram(str(path), np.zeros((5, 12, 2)), op, 0.0, 0, {})
    assert not path.exists()
    assert not (tmp_path / "sino.f64.json").exists()


@given(nx=st.integers(4, 24), nz=st.integers(1, 5),
       n_angles_full=st.integers(1, 40), data=st.data(),
       detector_spacing=st.floats(0.25, 4.0), seed=st.integers(0, 2**32))
def test_adjoint_identity_random_geometries(nx, nz, n_angles_full, data,
                                            detector_spacing, seed):
    views = data.draw(st.lists(st.integers(0, n_angles_full - 1), min_size=1,
                               unique=True), label="views")
    geom = ProjectionGeometry(n_angles_full, math.ceil(math.sqrt(2.0) * nx),
                              detector_spacing)
    op = CTOperator(nx, nx, nz, geom, views)
    rng = Xoshiro256PP(seed)
    v = rng.normal_array((nz, nx, nx))
    s = rng.normal_array(op.sinogram_shape)
    av = op.forward(v)
    lhs = float(np.vdot(av, s))
    rhs = float(np.vdot(v, op.adjoint(s)))
    bound = 1e-12 * math.sqrt(float(np.vdot(av, av)) * float(np.vdot(s, s)))
    assert abs(lhs - rhs) <= bound

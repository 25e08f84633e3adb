"""Volume container, z-difference operator, and raw-file round trips."""

import json

import numpy as np
import pytest

from nerdct import (
    SLICE_AXES,
    dot,
    dz_adjoint,
    dz_forward,
    get_slice,
    l1_norm,
    l2_norm_sq,
    load_volume,
    save_volume,
    validate_volume,
)
from nerdct.rng import Xoshiro256PP


def dense_dz_matrix(nz):
    """Forward difference along z with a zero last row, materialized."""
    mat = np.zeros((nz, nz))
    for k in range(nz - 1):
        mat[k, k] = -1.0
        mat[k, k + 1] = 1.0
    return mat


def test_dz_forward_matches_dense():
    rng = Xoshiro256PP(0)
    for _ in range(10):
        nz = int(rng.integers(2, 9, 1)[0])
        vol = rng.normal_array((nz, 4, 5))
        out = dz_forward(vol)
        mat = dense_dz_matrix(nz)
        expected = np.einsum("ij,jyx->iyx", mat, vol)
        assert np.allclose(out, expected, atol=1e-14)
        assert np.all(out[-1] == 0.0)


def test_dz_adjoint_matches_dense_transpose():
    rng = Xoshiro256PP(1)
    for _ in range(10):
        nz = int(rng.integers(2, 9, 1)[0])
        g = rng.normal_array((nz, 3, 3))
        mat = dense_dz_matrix(nz)
        expected = np.einsum("ji,jyx->iyx", mat, g)
        assert np.allclose(dz_adjoint(g), expected, atol=1e-14)


def test_dz_adjoint_identity():
    # <D_z v, g> == <v, D_z^T g> to near machine precision.
    rng = Xoshiro256PP(2)
    for _ in range(20):
        v = rng.normal_array((6, 4, 4))
        g = rng.normal_array((6, 4, 4))
        lhs = dot(dz_forward(v), g)
        rhs = dot(v, dz_adjoint(g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_dz_constant_along_z_is_zero():
    vol = np.ones((5, 3, 3))
    assert np.all(dz_forward(vol) == 0.0)


def test_validate_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_volume(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        validate_volume(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        validate_volume(np.full((2, 2, 2), np.inf))


def test_validate_volume_dtype_and_layout():
    with pytest.raises(ValueError):
        validate_volume(np.ones((3, 4, 5), dtype=np.float32))
    out = validate_volume(np.asfortranarray(np.ones((3, 4, 5))))
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]


def test_linalg_helpers():
    rng = Xoshiro256PP(3)
    a = rng.normal_array((4, 3, 2))
    b = rng.normal_array((4, 3, 2))
    assert abs(dot(a, b) - float(np.sum(a * b))) < 1e-12
    assert abs(l2_norm_sq(a) - float(np.sum(a * a))) < 1e-12
    assert abs(l1_norm(a) - float(np.sum(np.abs(a)))) < 1e-12
    with pytest.raises(ValueError):
        dot(a, b[:2])


def test_slice_round_trip():
    rng = Xoshiro256PP(4)
    vol = rng.normal_array((5, 6, 7))
    for axis in SLICE_AXES:
        n = {"axial": 5, "coronal": 6, "sagittal": 7}[axis]
        for idx in range(n):
            plane = get_slice(vol, axis, idx)
            stamped = vol.copy()
            get_slice(stamped, axis, idx)[...] = plane * 2.0
            assert np.allclose(get_slice(stamped, axis, idx), plane * 2.0)
            # Other slices along the same axis untouched.
            for other in range(n):
                if other != idx:
                    assert np.array_equal(
                        get_slice(stamped, axis, other), get_slice(vol, axis, other)
                    )


def test_slice_orientation():
    vol = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    assert np.array_equal(get_slice(vol, "axial", 1), vol[1])
    assert np.array_equal(get_slice(vol, "coronal", 2), vol[:, 2, :])
    assert np.array_equal(get_slice(vol, "sagittal", 3), vol[:, :, 3])
    with pytest.raises(ValueError):
        get_slice(vol, "oblique", 0)
    with pytest.raises(IndexError):
        get_slice(vol, "axial", 2)


def test_volume_io_round_trip(tmp_path):
    rng = Xoshiro256PP(5)
    vol = rng.normal_array((3, 4, 5))
    path = tmp_path / "vol.f64"
    save_volume(str(path), vol, provenance={"note": "test"})
    loaded, meta = load_volume(str(path))
    assert np.array_equal(loaded, vol)
    assert meta["nx"] == 5 and meta["ny"] == 4 and meta["nz"] == 3
    sidecar = json.loads((tmp_path / "vol.f64.json").read_text())
    assert sidecar["dtype"] == "<f8"


def test_volume_io_size_mismatch(tmp_path):
    vol = np.zeros((2, 2, 2))
    path = tmp_path / "vol.f64"
    save_volume(str(path), vol)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_volume(str(path))


def test_volume_io_deterministic_bytes(tmp_path):
    vol = Xoshiro256PP(6).normal_array((4, 4, 4))
    p1 = tmp_path / "a.f64"
    p2 = tmp_path / "b.f64"
    save_volume(str(p1), vol)
    save_volume(str(p2), vol)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.f64.json").read_bytes() == (tmp_path / "b.f64.json").read_bytes()

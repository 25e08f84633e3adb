"""Volume container, z-difference operator, and raw-file round trips."""

import json

import numpy as np
import pytest

from nerdct import (
    dz_adjoint,
    dz_forward,
    l1_norm,
    l2_norm_sq,
    load_volume,
    save_volume,
)
from nerdct.rng import Xoshiro256PP


def dense_dz_matrix(nz):
    """Forward difference along z with a zero last row, materialized."""
    mat = np.zeros((nz, nz))
    for k in range(nz - 1):
        mat[k, k] = -1.0
        mat[k, k + 1] = 1.0
    return mat


def signed_zero_volumes():
    """Volumes of +0.0 and -0.0 (and one nz = 1), whose Dz signs are pinned."""
    column = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0, -1.0])
    return [np.broadcast_to(column[:, None, None], (7, 2, 3)).copy(),
            np.array([-0.0, 0.0]).reshape(2, 1, 1), np.full((1, 2, 2), -0.0)]


def test_dz_forward_matches_dense():
    rng = Xoshiro256PP(0)
    vols = [rng.normal_array((int(rng.integers(2, 9, 1)[0]), 4, 5)) for _ in range(10)]
    for vol in vols + signed_zero_volumes():
        nz = vol.shape[0]
        out = dz_forward(vol)
        mat = dense_dz_matrix(nz)
        expected = np.einsum("ij,jyx->iyx", mat, vol)
        assert np.allclose(out, expected, atol=1e-14)
        assert np.all(out[-1] == 0.0)
        oracle = np.zeros_like(vol)
        oracle[:-1] = vol[1:] - vol[:-1]
        assert dz_forward(vol).tobytes() == oracle.tobytes()


def test_dz_adjoint_matches_dense_transpose():
    rng = Xoshiro256PP(1)
    grads = [rng.normal_array((int(rng.integers(2, 9, 1)[0]), 3, 3)) for _ in range(10)]
    for g in grads + signed_zero_volumes():
        nz = g.shape[0]
        mat = dense_dz_matrix(nz)
        expected = np.einsum("ji,jyx->iyx", mat, g)
        assert np.allclose(dz_adjoint(g), expected, atol=1e-14)
        # zeros minus g, then plus the shifted g: -g alone would turn +0.0
        # into -0.0.
        oracle = np.zeros_like(g)
        oracle[:-1] -= g[:-1]
        oracle[1:] += g[:-1]
        assert dz_adjoint(g).tobytes() == oracle.tobytes()


def test_dz_adjoint_identity():
    # <D_z v, g> == <v, D_z^T g> to near machine precision.
    rng = Xoshiro256PP(2)
    for _ in range(20):
        v = rng.normal_array((6, 4, 4))
        g = rng.normal_array((6, 4, 4))
        lhs = float(np.vdot(dz_forward(v), g))
        rhs = float(np.vdot(v, dz_adjoint(g)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_dz_constant_along_z_is_zero():
    vol = np.ones((5, 3, 3))
    assert np.all(dz_forward(vol) == 0.0)


def test_validate_volume_rejects_bad_input(tmp_path):
    # save_volume validates: a wrong axis count or a non-finite voxel writes
    # no file.
    path = tmp_path / "vol.f64"
    for bad in (np.zeros((3, 3)), np.full((2, 2, 2), np.nan),
                np.full((2, 2, 2), np.inf)):
        with pytest.raises(ValueError):
            save_volume(str(path), bad, {})
        assert not path.exists()


def test_validate_volume_dtype_and_layout(tmp_path):
    # save_volume widens float32 to float64 and writes C order.
    path = tmp_path / "vol.f64"
    save_volume(str(path), np.arange(60, dtype=np.float32).reshape(3, 4, 5), {})
    loaded, _ = load_volume(str(path))
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, np.arange(60.0).reshape(3, 4, 5))
    fortran = np.asfortranarray(np.arange(60.0).reshape(3, 4, 5))
    save_volume(str(path), fortran, {})
    assert path.read_bytes() == np.arange(60.0).tobytes()
    assert load_volume(str(path))[0].flags["C_CONTIGUOUS"]


def test_linalg_helpers():
    rng = Xoshiro256PP(3)
    a = rng.normal_array((4, 3, 2))
    assert abs(l2_norm_sq(a) - float(np.sum(a * a))) < 1e-12
    assert abs(l1_norm(a) - float(np.sum(np.abs(a)))) < 1e-12


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
    save_volume(str(path), vol, {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_volume(str(path))


def test_volume_io_deterministic_bytes(tmp_path):
    vol = Xoshiro256PP(6).normal_array((4, 4, 4))
    p1 = tmp_path / "a.f64"
    p2 = tmp_path / "b.f64"
    save_volume(str(p1), vol, {})
    save_volume(str(p2), vol, {})
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.f64.json").read_bytes() == (tmp_path / "b.f64.json").read_bytes()


@pytest.mark.parametrize("shape, edits", [
    ((8, 16, 16), {"nz": 8.0}),
    ((1, 16, 16), {"nz": True}),
    ((8, 16, 16), {"nz": -8, "ny": -16}),
])
def test_volume_io_rejects_bad_sidecar_dims(tmp_path, shape, edits):
    # Each edit keeps the byte-size product (True is 1), so only a check of
    # the values themselves catches it.
    path = tmp_path / "vol.f64"
    save_volume(str(path), np.zeros(shape), {})
    sidecar_path = tmp_path / "vol.f64.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps({**sidecar, **edits}))
    with pytest.raises(ValueError, match="nz must be a non-negative integer"):
        load_volume(str(path))


def test_volume_io_rejects_deeply_nested_sidecar(tmp_path):
    # json.load recurses once per level; a traceback used to escape the CLI.
    path = tmp_path / "vol.f64"
    save_volume(str(path), np.zeros((1, 1, 1)), {})
    (tmp_path / "vol.f64.json").write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_volume(str(path))

"""PSNR/SSIM and the slice-wise evaluation report."""

import json
import math

import numpy as np
import pytest
from scipy.signal import correlate2d

from nerdct import evaluate_volume, get_slice, metrics, psnr, ssim_2d
from nerdct.metrics import SSIM_SIGMA, SSIM_WINDOW
from nerdct.rng import Xoshiro256PP
from nerdct.volume import SLICE_AXES


def test_psnr_hand_computed():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.5)
    # mse = 0.25, data range 1 -> 10*log10(1/0.25)
    assert abs(psnr(a, b) - 10.0 * math.log10(1.0 / 0.25)) < 1e-12
    # Data range scales the score.
    assert abs(psnr(a, b, data_range=2.0) - 10.0 * math.log10(4.0 / 0.25)) < 1e-12


def test_psnr_identical_is_infinite():
    x = Xoshiro256PP(0).normal_array((5, 5))
    assert psnr(x, x) == math.inf


def test_psnr_translation_invariance():
    rng = Xoshiro256PP(1)
    a = rng.normal_array((6, 6))
    b = rng.normal_array((6, 6))
    assert abs(psnr(a, b) - psnr(a + 0.7, b + 0.7)) < 1e-10


def naive_ssim(a, b, data_range=1.0):
    """Dual implementation: explicit Gaussian window, loop-free formulas."""
    half = SSIM_WINDOW // 2
    ax = np.arange(SSIM_WINDOW) - half
    g1 = np.exp(-(ax**2) / (2.0 * SSIM_SIGMA**2))
    win = np.outer(g1, g1)
    win /= win.sum()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    def filt(img):
        return correlate2d(img, win, mode="valid")

    mu_a = filt(a)
    mu_b = filt(b)
    va = filt(a * a) - mu_a**2
    vb = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (va + vb + c2)
    return float(np.mean(num / den))


def test_ssim_identical_is_one():
    x = Xoshiro256PP(2).normal_array((16, 16))
    assert abs(ssim_2d(x, x) - 1.0) < 1e-12


def test_ssim_matches_independent_implementation():
    rng = Xoshiro256PP(3)
    for _ in range(5):
        a = rng.normal_array((20, 24)) * 0.2 + 0.5
        b = a + rng.normal_array((20, 24)) * 0.05
        assert abs(ssim_2d(a, b) - naive_ssim(a, b)) <= 1e-10


def test_ssim_degrades_with_noise():
    rng = Xoshiro256PP(4)
    a = rng.normal_array((24, 24)) * 0.1 + 0.5
    weak = a + rng.normal_array((24, 24)) * 0.01
    strong = a + rng.normal_array((24, 24)) * 0.2
    assert ssim_2d(a, weak) > ssim_2d(a, strong)


def test_ssim_rejects_small_slices():
    small = np.zeros((SSIM_WINDOW - 1, SSIM_WINDOW))
    with pytest.raises(ValueError):
        ssim_2d(small, small)


def test_evaluate_volume_aggregation():
    rng = Xoshiro256PP(5)
    ref = rng.normal_array((12, 14, 16)) * 0.1 + 0.5
    cand = ref + rng.normal_array((12, 14, 16)) * 0.02
    report = evaluate_volume(cand, ref, seed=9, config={"method": "x"})
    assert set(report.views) == {"axial", "coronal", "sagittal"}
    assert report.views["axial"].n_slices == 12
    assert report.views["coronal"].n_slices == 14
    assert report.views["sagittal"].n_slices == 16
    # Hand-check the axial mean.
    vals = [psnr(cand[k], ref[k]) for k in range(12)]
    assert abs(report.views["axial"].psnr_mean - np.mean(vals)) < 1e-10
    assert abs(report.views["axial"].psnr_std - np.std(vals)) < 1e-10
    assert report.seed == 9
    assert report.config == {"method": "x"}


def test_evaluate_identical_volumes_serializes_inf():
    ref = Xoshiro256PP(6).normal_array((12, 12, 12)) * 0.1 + 0.5
    report = evaluate_volume(ref.copy(), ref)
    stats = report.views["axial"]
    assert stats.psnr_mean == math.inf
    assert stats.psnr_std == 0.0
    assert abs(stats.ssim_mean - 1.0) < 1e-12
    payload = report.to_dict()
    assert payload["views"]["axial"]["psnr_mean"] == "inf"
    # Whole report must survive the JSON round trip.
    txt = json.dumps(payload, sort_keys=True)
    back = json.loads(txt)
    assert back["views"]["coronal"]["psnr_mean"] == "inf"


def test_evaluate_volume_shape_mismatch():
    with pytest.raises(ValueError):
        evaluate_volume(np.zeros((12, 12, 12)), np.zeros((12, 12, 13)))


@pytest.mark.parametrize("shape", [(12, 13, 15), (16, 64, 64)])
def test_evaluate_volume_matches_per_slice_reference(shape):
    rng = Xoshiro256PP(7)
    ref = rng.normal_array(shape) * 0.1 + 0.5
    cand = ref + rng.normal_array(shape) * 0.03
    report = evaluate_volume(cand, ref, data_range=1.5)
    for axis, count in zip(SLICE_AXES, shape):
        pairs = [(get_slice(cand, axis, i), get_slice(ref, axis, i))
                 for i in range(count)]
        psnr_values = [psnr(a, b, 1.5) for a, b in pairs]
        ssim_values = [naive_ssim(a, b, 1.5) for a, b in pairs]
        stats = report.views[axis]
        assert stats.n_slices == count
        assert stats.psnr_mean == float(np.mean(psnr_values))
        assert stats.psnr_std == float(np.std(psnr_values))
        assert abs(stats.ssim_mean - np.mean(ssim_values)) <= 1e-12
        assert abs(stats.ssim_std - np.std(ssim_values)) <= 1e-12
        for (a, b), expected in zip(pairs[:3], ssim_values):
            assert abs(ssim_2d(a, b, 1.5) - expected) <= 1e-12


def test_evaluate_volume_calls_the_module_psnr(monkeypatch):
    # Tracing wraps `nerdct.metrics.psnr`; every slice must go through it.
    calls = []
    real = metrics.psnr

    def counting(a, b, data_range=1.0):
        calls.append(a.shape)
        return real(a, b, data_range)

    monkeypatch.setattr(metrics, "psnr", counting)
    vol = Xoshiro256PP(8).normal_array((12, 13, 15))
    evaluate_volume(vol + 0.1, vol)
    assert len(calls) == 12 + 13 + 15


@pytest.mark.parametrize("shape", [(12, 13, 10), (5, 20, 20)])
def test_evaluate_volume_rejects_slices_smaller_than_window(shape):
    vol = np.zeros(shape)
    with pytest.raises(ValueError, match="window"):
        evaluate_volume(vol, vol)

"""Reconstruction quality metrics and the per-axis evaluation report."""

import math
from dataclasses import dataclass

import numpy as np

from .volume import SLICE_AXES

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(candidate, reference, data_range=1.0):
    """10 log10(data_range^2 / MSE); identical inputs give +inf."""
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: {candidate.shape} vs {reference.shape}"
        )
    if not data_range > 0:
        raise ValueError(f"data_range must be > 0, got {data_range}")
    mse = float(np.mean((candidate - reference) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range**2 / mse)


def _gaussian_1d():
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


_GAUSS = _gaussian_1d()


def _filter_rows(a):
    """Valid correlation of the last axis of `a` with the 1-D Gaussian."""
    n = a.shape[-1] - SSIM_WINDOW + 1
    out = _GAUSS[0] * a[..., :n]
    scratch = np.empty_like(out)
    for k in range(1, SSIM_WINDOW):
        out += np.multiply(_GAUSS[k], a[..., k:k + n], out=scratch)
    return out


def _smooth(planes):
    """Valid correlation of each (h, w) plane with the 11x11 Gaussian window.

    The window is the outer product of the normalised 1-D Gaussian, so the
    filter runs as one 1-D pass along w and one along h.
    """
    return _filter_rows(_filter_rows(planes).swapaxes(1, 2)).swapaxes(1, 2)


def _ssim_planes(candidate, reference, data_range):
    """Mean SSIM of each plane of two (n, h, w) stacks, as a length-n array."""
    if min(candidate.shape[1:]) < SSIM_WINDOW:
        raise ValueError(
            f"slice {candidate.shape[1:]} smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window"
        )
    if not data_range > 0:
        raise ValueError(f"data_range must be > 0, got {data_range}")
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    mu_x = _smooth(candidate)
    mu_y = _smooth(reference)
    var_x = _smooth(candidate * candidate) - mu_x**2
    var_y = _smooth(reference * reference) - mu_y**2
    cov = _smooth(candidate * reference) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return np.mean(num / den, axis=(1, 2))


def ssim_2d(candidate, reference, data_range=1.0):
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5).

    Windows are fully interior (valid correlation, no padding); slices
    smaller than the window are rejected.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: {candidate.shape} vs {reference.shape}"
        )
    if candidate.ndim != 2:
        raise ValueError(f"expected 2D slices, got shape {candidate.shape}")
    return float(_ssim_planes(candidate[None], reference[None], data_range)[0])


@dataclass
class ViewStats:
    psnr_mean: float
    psnr_std: float
    ssim_mean: float
    ssim_std: float
    n_slices: int


@dataclass
class Report:
    views: dict          # axis name -> ViewStats
    data_range: float
    seed: int = None
    config: dict = None

    def to_dict(self):
        out = {
            "data_range": self.data_range,
            "seed": self.seed,
            "config": self.config,
            "views": {},
        }
        for axis, stats in self.views.items():
            out["views"][axis] = {
                "psnr_mean": _json_float(stats.psnr_mean),
                "psnr_std": _json_float(stats.psnr_std),
                "ssim_mean": _json_float(stats.ssim_mean),
                "ssim_std": _json_float(stats.ssim_std),
                "n_slices": stats.n_slices,
            }
        return out


def _json_float(value):
    """Non-finite floats serialize as strings ('inf', '-inf', 'nan')."""
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _stats(values):
    values = np.asarray(values, dtype=np.float64)
    if np.all(np.isinf(values)):
        return math.inf, 0.0
    return float(np.mean(values)), float(np.std(values))


def evaluate_volume(candidate, reference, data_range=1.0, seed=None, config=None):
    """Per-slice PSNR/SSIM along axial, coronal, sagittal axes.

    Every slice of each view is scored and aggregated as mean/std.  A
    perfect reconstruction yields +inf PSNR (std reported as 0).
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: {candidate.shape} vs {reference.shape}"
        )
    views = {}
    for axis, order in zip(SLICE_AXES, ((0, 1, 2), (1, 0, 2), (2, 0, 1))):
        a_planes = candidate.transpose(order)
        b_planes = reference.transpose(order)
        psnr_values = [psnr(a, b, data_range) for a, b in zip(a_planes, b_planes)]
        ssim_values = _ssim_planes(a_planes, b_planes, data_range)
        psnr_mean, psnr_std = _stats(psnr_values)
        ssim_mean, ssim_std = _stats(ssim_values)
        views[axis] = ViewStats(psnr_mean, psnr_std, ssim_mean, ssim_std,
                                len(a_planes))
    return Report(views=views, data_range=data_range, seed=seed, config=config)

"""Reconstruction quality metrics and the per-axis evaluation report."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .volume import SLICE_AXES

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(candidate, reference):
    """10 log10(1 / MSE), for volumes in [0, 1]; identical inputs give +inf.

    A subnormal MSE, whose quotient overflows, is scored through logs.

    FloatingPointError when the MSE overflows a float64; NaN inputs give NaN.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: {candidate.shape} vs {reference.shape}"
        )
    with np.errstate(over="ignore"):
        mse = float(np.mean((candidate - reference) ** 2))
    if mse == 0.0:
        return math.inf
    if mse == math.inf:
        raise FloatingPointError("overflow in the PSNR's mean squared error")
    ratio = 1.0 / mse
    if ratio == math.inf:  # a subnormal MSE
        return -10.0 * math.log10(mse)
    return 10.0 * math.log10(ratio)


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


def _ssim_planes(candidate, reference):
    """Mean SSIM of each plane of two (n, h, w) stacks, as a length-n array."""
    if min(candidate.shape[1:]) < SSIM_WINDOW:
        raise ValueError(
            f"slice {candidate.shape[1:]} smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window"
        )
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    mu_x = _smooth(candidate)
    mu_y = _smooth(reference)
    var_x = _smooth(candidate * candidate) - mu_x**2
    var_y = _smooth(reference * reference) - mu_y**2
    cov = _smooth(candidate * reference) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return np.mean(num / den, axis=(1, 2))


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

    def to_dict(self):
        views = {
            axis: {key: _json_float(value) for key, value in asdict(stats).items()}
            for axis, stats in self.views.items()
        }
        return {"views": views}


def _json_float(value):
    """Non-finite floats serialize as strings ('inf', '-inf', 'nan')."""
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _stats(values):
    """(mean, std); any +inf slice makes both inf, unless all are (std 0.0)."""
    values = np.asarray(values, dtype=np.float64)
    infinite = np.isinf(values)
    if np.all(infinite):
        return math.inf, 0.0
    if np.any(infinite):
        return math.inf, math.inf
    return float(np.mean(values)), float(np.std(values))


def evaluate_volume(candidate, reference):
    """Per-slice PSNR/SSIM along axial, coronal, sagittal axes.

    Every slice of each view is scored and aggregated as mean/std.  A slice
    identical to the reference scores +inf PSNR: a view whose slices all
    do reports mean +inf and std 0.0, and a view with only some reports
    mean +inf and std +inf (the spread is unbounded, not undefined).
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
        psnr_values = [psnr(a, b) for a, b in zip(a_planes, b_planes)]
        ssim_values = _ssim_planes(a_planes, b_planes)
        psnr_mean, psnr_std = _stats(psnr_values)
        ssim_mean, ssim_std = _stats(ssim_values)
        views[axis] = ViewStats(psnr_mean, psnr_std, ssim_mean, ssim_std,
                                len(a_planes))
    return Report(views=views)

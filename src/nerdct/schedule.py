"""Diffusion noise schedule and the Tweedie posterior-mean estimate."""

from dataclasses import dataclass

import numpy as np

# DDPM's schedule (Ho et al. 2020), the one every run uses; a caller that
# needs another builds a NoiseSchedule from its own alpha_bar.
NUM_TRAIN_STEPS = 1000
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions alpha_bar plus the sampling sub-schedule.

    alpha_bar has length T+1 with alpha_bar[0] = 1 by convention (index 0
    is the clean image) and is strictly decreasing.  sampling_steps are the
    strictly decreasing time indices the sampler visits, all within [1, T];
    the step after sampling_steps[-1] is index 0.
    """

    alpha_bar: np.ndarray
    sampling_steps: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        steps = np.asarray(self.sampling_steps, dtype=np.int64)
        if ab.ndim != 1 or len(ab) < 2:
            raise ValueError("alpha_bar must be a 1D array of length T+1 >= 2")
        if ab[0] != 1.0:
            raise ValueError(f"alpha_bar[0] must be 1, got {ab[0]}")
        if not np.all(np.diff(ab) < 0):  # a NaN entry fails too
            raise ValueError("alpha_bar must be strictly decreasing")
        if not ab[-1] > 0:
            raise ValueError("alpha_bar values must stay in (0, 1]")
        if steps.ndim != 1 or len(steps) < 1:
            raise ValueError("sampling_steps must be a non-empty 1D array")
        if np.any(np.diff(steps) >= 0):
            raise ValueError("sampling_steps must be strictly decreasing")
        if steps[-1] < 1 or steps[0] > self.num_train_steps:
            raise ValueError(
                f"sampling_steps must lie in [1, {self.num_train_steps}]"
            )
        object.__setattr__(self, "alpha_bar", ab)
        object.__setattr__(self, "sampling_steps", steps)

    @property
    def num_train_steps(self):
        return len(self.alpha_bar) - 1

    @property
    def n_sampling_steps(self):
        return len(self.sampling_steps)

    @classmethod
    def linear_beta(cls, *, n_sampling_steps):
        """DDPM's linear beta ramp; alpha_bar[t] = prod_{s<=t} (1 - beta_s)."""
        betas = np.linspace(BETA_START, BETA_END, NUM_TRAIN_STEPS)
        alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        steps = uniform_sampling_steps(NUM_TRAIN_STEPS, n_sampling_steps)
        return cls(alpha_bar, steps)


def uniform_sampling_steps(num_train_steps, n_sampling_steps):
    """n strictly decreasing indices spread uniformly over [1, T]."""
    if not 1 <= n_sampling_steps <= num_train_steps:
        raise ValueError(
            f"need 1 <= n_sampling_steps <= {num_train_steps}, "
            f"got {n_sampling_steps}"
        )
    # The grid's spacing is at least 1, so no two indices round to one.
    return np.round(np.linspace(num_train_steps, 1, n_sampling_steps)).astype(np.int64)


def tweedie_denoise(x_t, t, eps_pred, schedule):
    """Posterior-mean estimate from a noise prediction.

    x0_hat = (x_t - sqrt(1 - alpha_bar_t) * eps_pred) / sqrt(alpha_bar_t).
    """
    a = schedule.alpha_bar[t]
    return (x_t - np.sqrt(1.0 - a) * eps_pred) / np.sqrt(a)

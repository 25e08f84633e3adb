"""Noise schedule construction and the Tweedie estimate."""

import numpy as np
import pytest

from nerdct import NoiseSchedule, tweedie_denoise
from nerdct.schedule import uniform_sampling_steps
from nerdct.rng import Xoshiro256PP


def test_linear_beta_alpha_bar_shape_and_bounds():
    sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
    assert sched.num_train_steps == 1000
    assert sched.alpha_bar.shape == (1001,)
    assert sched.alpha_bar[0] == 1.0
    assert np.all(np.diff(sched.alpha_bar) < 0.0)
    assert np.all(sched.alpha_bar > 0.0)
    assert np.all(sched.alpha_bar <= 1.0)


def test_linear_beta_matches_cumprod():
    # DDPM's schedule: beta linear from 1e-4 to 0.02 over T = 1000 steps.
    sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
    betas = np.linspace(1e-4, 0.02, 1000)
    expected = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    np.testing.assert_array_equal(sched.alpha_bar, expected)
    np.testing.assert_array_equal(sched.sampling_steps, uniform_sampling_steps(1000, 30))


def test_sampling_steps_properties():
    for n in (1, 5, 30, 60, 1000):
        steps = uniform_sampling_steps(1000, n)
        assert len(steps) == n
        assert steps[0] == 1000
        if n > 1:
            assert steps[-1] == 1
        assert np.all(np.diff(steps) < 0)
        assert steps.min() >= 1 and steps.max() <= 1000


def test_sampling_steps_never_collide():
    # For n <= T the rounded grid's spacing (T - 1)/(n - 1) is at least 1,
    # so no two indices round to one: every n in [1, T] fits.
    for num_train_steps in range(1, 121):
        for n in range(1, num_train_steps + 1):
            steps = uniform_sampling_steps(num_train_steps, n)
            assert len(steps) == n and steps[0] == num_train_steps
            assert np.all(np.diff(steps) < 0) and steps[-1] >= 1


def test_sampling_steps_too_many_rejected():
    with pytest.raises(ValueError):
        uniform_sampling_steps(10, 11)


def test_schedule_validation():
    bad = np.array([1.0, 0.5, 0.6])  # not decreasing
    with pytest.raises(ValueError):
        NoiseSchedule(bad, np.array([2, 1]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.9, 0.5]), np.array([1]))  # alpha_bar[0] != 1
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.0, 0.5, 0.3]), np.array([1, 2]))  # increasing steps
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.0, 0.5, 0.3]), np.array([5, 1]))  # out of range
    for alpha_bar in (np.ones((2, 2)), np.array([1.0])):
        with pytest.raises(ValueError, match="alpha_bar must be a 1D array"):
            NoiseSchedule(alpha_bar, np.array([1]))
    with pytest.raises(ValueError, match="sampling_steps must be a non-empty"):
        NoiseSchedule(np.array([1.0, 0.5]), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=r"alpha_bar values must stay in \(0, 1\]"):
        NoiseSchedule(np.array([1.0, 0.5, 0.0]), np.array([2, 1]))  # ends at 0
    for alpha_bar in ([1.0, np.nan, 0.5], [1.0, 0.5, np.nan]):
        with pytest.raises(ValueError, match="alpha_bar must be strictly decreasing"):
            NoiseSchedule(np.array(alpha_bar), np.array([2, 1]))


def test_tweedie_formula_direct():
    sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
    t = 500
    a = sched.alpha_bar[t]
    x_t = np.full((2, 2, 2), 0.7)
    eps = np.full((2, 2, 2), -0.3)
    expected = (x_t - np.sqrt(1.0 - a) * eps) / np.sqrt(a)
    assert np.allclose(tweedie_denoise(x_t, t, eps, sched), expected, rtol=1e-14)


def test_tweedie_noiseless_limit():
    # At t where alpha_bar ~ 1, x0 ~ x_t when eps = 0.
    sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
    x_t = Xoshiro256PP(1).normal_array((3, 3, 3))
    x0 = tweedie_denoise(x_t, 1, np.zeros_like(x_t), sched)
    assert np.allclose(x0, x_t / np.sqrt(sched.alpha_bar[1]), rtol=1e-14)

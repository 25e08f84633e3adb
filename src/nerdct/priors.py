"""Denoiser priors: the sampler-facing interface and the analytic GMM prior.

A prior exposes the posterior-mean denoiser f(x_t, t) (an estimate of the
clean image) and the vector-Jacobian product of f with respect to x_t,
which is what the samplers differentiate through.
"""

import abc

import numpy as np


class DenoiserPrior(abc.ABC):
    """Posterior-mean denoiser with a matching input VJP."""

    #: True when denoise is affine in x_t, enabling exact inner solves.
    is_linear = False

    @abc.abstractmethod
    def denoise(self, x_t, t):
        """Estimate of the clean image given x_t at time index t."""

    @abc.abstractmethod
    def denoise_and_vjp(self, x_t, t):
        """(denoise(x_t, t), vjp) in one pass: vjp(c) = d<c, denoise>/d x_t."""

    def input_vjp(self, x_t, t, cotangent):
        """d<cotangent, denoise(x_t, t)> / d x_t."""
        return self.denoise_and_vjp(x_t, t)[1](cotangent)


class IdentityPrior(DenoiserPrior):
    """f(x_t, t) = x_t; turns the samplers into plain linear solvers."""

    is_linear = True

    def denoise(self, x_t, t):
        return x_t

    def denoise_and_vjp(self, x_t, t):
        return x_t, lambda cotangent: cotangent


class GmmScalarPrior(DenoiserPrior):
    """Per-voxel scalar Gaussian-mixture prior with the exact posterior mean.

    For x_t = sqrt(a)*x0 + sqrt(1-a)*eps with x0 ~ sum_k pi_k N(mu_k, s_k^2)
    per voxel, the posterior mean is

        f(x_t) = sum_k w_k(x_t) * m_k(x_t),
        m_k = (sqrt(a) s_k^2 x_t + (1-a) mu_k) / (a s_k^2 + (1-a)),
        w_k propto pi_k * N(x_t; sqrt(a) mu_k, a s_k^2 + (1-a)),

    applied independently to every voxel.  The derivative is analytic:
    d f/d x_t = sum_k w_k * (c_k + (g_k - gbar) * m_k) with c_k = dm_k/dx_t
    and g_k the responsibility log-derivative.
    """

    def __init__(self, schedule, weights, means, stds):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        stds = np.asarray(stds, dtype=np.float64)
        if not (weights.shape == means.shape == stds.shape) or weights.ndim != 1:
            raise ValueError("weights, means, stds must be equal-length 1D arrays")
        if len(weights) < 1:
            raise ValueError("mixture needs at least one component")
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {weights.sum()}")
        if np.any(stds <= 0):
            raise ValueError("component stds must be positive")
        self.schedule = schedule
        self.weights = weights
        self.means = means
        self.stds = stds

    def _moments(self, x_t, t):
        """Responsibilities, cond. means, x_t - sqrt(a) mu_k, sqrt(a) s_k^2, var_k.

        Component axis first, (K, *x_t.shape), so reductions over it are
        elementwise across K contiguous blocks.
        """
        a = self.schedule.alpha_bar[t]
        sqrt_a = np.sqrt(a)
        noise_var = 1.0 - a
        x = np.asarray(x_t, dtype=np.float64)
        per_k = (slice(None),) + (None,) * x.ndim
        var_k = a * self.stds**2 + noise_var
        log_norm = np.log(self.weights) - 0.5 * np.log(var_k)
        var_k = var_k[per_k]
        centred = x - (sqrt_a * self.means)[per_k]
        # Non-finite inputs propagate as NaN responsibilities without
        # warnings; callers validate their outputs.
        with np.errstate(invalid="ignore", over="ignore"):
            resp = np.square(centred)
            resp *= 0.5
            resp /= var_k
            np.subtract(log_norm[per_k], resp, out=resp)
            resp -= resp.max(axis=0)
            np.exp(resp, out=resp)
            resp /= resp.sum(axis=0)
        gain_k = (sqrt_a * self.stds**2)[per_k]
        cond_mean = gain_k * x
        cond_mean += (noise_var * self.means)[per_k]
        cond_mean /= var_k
        return resp, cond_mean, centred, gain_k, var_k

    def denoise(self, x_t, t):
        resp, cond_mean, _, _, _ = self._moments(x_t, t)
        resp *= cond_mean
        return resp.sum(axis=0)

    def denoise_and_vjp(self, x_t, t):
        resp, cond_mean, centred, gain_k, var_k = self._moments(x_t, t)
        scratch = resp * cond_mean
        x0 = scratch.sum(axis=0)
        # sum_k resp * (c_k + (g_k - gbar) * cond_mean) in place; g_k = -centred/var_k
        log_grad = np.negative(centred, out=centred)
        log_grad /= var_k
        np.multiply(resp, log_grad, out=scratch)
        log_grad -= scratch.sum(axis=0)
        log_grad *= cond_mean
        log_grad += gain_k / var_k
        log_grad *= resp
        deriv = log_grad.sum(axis=0)
        return x0, lambda cotangent: cotangent * deriv

    def posterior_mean_derivative(self, x_t, t):
        """Elementwise d denoise / d x_t (diagonal Jacobian): the VJP of ones."""
        return self.denoise_and_vjp(x_t, t)[1](1.0)

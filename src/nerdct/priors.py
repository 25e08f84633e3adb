"""Denoiser priors: the sampler-facing interface and the analytic GMM prior.

A prior exposes the posterior-mean denoiser f(x_t, t) (an estimate of the
clean image) and the vector-Jacobian product of f with respect to x_t,
which is what the samplers differentiate through.
"""

import abc

import numpy as np

#: Voxels per tile of the GMM pass: its (K, tile) scratch stays in L2.
_TILE = 8192


class DenoiserPrior(abc.ABC):
    """Posterior-mean denoiser with a matching input VJP."""

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

    def denoise(self, x_t, t):
        return x_t

    def denoise_and_vjp(self, x_t, t):
        return x_t, lambda cotangent: cotangent


def validate_mixture(weights, means, stds):
    """Checked float64 (weights, means, stds) of a scalar mixture; NaN and inf fail."""
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if not (weights.shape == means.shape == stds.shape) or weights.ndim != 1:
        raise ValueError("weights, means, stds must be equal-length 1D arrays")
    if len(weights) < 1:
        raise ValueError("mixture needs at least one component")
    if not np.all(weights > 0):
        raise ValueError("component weights must be positive")
    if not abs(weights.sum() - 1.0) <= 1e-9:
        raise ValueError(f"component weights must sum to 1, got {weights.sum()}")
    if not np.all(np.isfinite(means)):
        raise ValueError("component means must be finite")
    if not np.all((stds > 0) & np.isfinite(stds)):
        raise ValueError("component stds must be positive and finite")
    return weights, means, stds


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
        self.schedule = schedule
        self.weights, self.means, self.stds = validate_mixture(weights, means, stds)

    def _tiled(self, x_t, t, with_deriv):
        """Posterior mean and (if asked) its derivative, in tiles of `_TILE` voxels.

        Each tile of a flat view works in (K, tile) scratch that stays in
        cache.  All steps are elementwise or sums over components in order,
        so the tile size cannot change a bit.
        """
        a = self.schedule.alpha_bar[t]
        sqrt_a = np.sqrt(a)
        noise_var = 1.0 - a
        x = np.asarray(x_t, dtype=np.float64)
        flat = x.reshape(-1)
        means, stds = self.means[:, None], self.stds[:, None]
        var_k = a * stds**2 + noise_var
        log_norm = np.log(self.weights)[:, None] - 0.5 * np.log(var_k)
        shift_k, offset_k = sqrt_a * means, noise_var * means
        gain_k = sqrt_a * stds**2
        slope_k = gain_k / var_k
        n_comp, n_vox = len(means), flat.size
        tile = max(1, min(_TILE, n_vox))
        buffers, row = np.empty((4, n_comp * tile)), np.empty(tile)
        x0 = np.empty(x.shape)
        deriv = np.empty(x.shape) if with_deriv else None
        # Non-finite inputs propagate as NaN without warnings; callers
        # validate their outputs.
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, n_vox, tile):
                hi = min(lo + tile, n_vox)
                centred, resp, cond_mean, scratch = (
                    b[:n_comp * (hi - lo)].reshape(n_comp, -1) for b in buffers)
                per_voxel = row[:hi - lo]
                np.subtract(flat[lo:hi], shift_k, out=centred)
                np.square(centred, out=resp)
                resp *= 0.5
                resp /= var_k
                np.subtract(log_norm, resp, out=resp)
                resp -= np.max(resp, axis=0, out=per_voxel)
                np.exp(resp, out=resp)
                resp /= np.sum(resp, axis=0, out=per_voxel)
                np.multiply(gain_k, flat[lo:hi], out=cond_mean)
                cond_mean += offset_k
                cond_mean /= var_k
                np.multiply(resp, cond_mean, out=scratch)
                np.sum(scratch, axis=0, out=x0.reshape(-1)[lo:hi])
                if not with_deriv:
                    continue
                # sum_k resp * (c_k + (g_k - gbar) * cond_mean); g_k = -centred/var_k
                log_grad = np.negative(centred, out=centred)
                log_grad /= var_k
                np.multiply(resp, log_grad, out=scratch)
                log_grad -= np.sum(scratch, axis=0, out=per_voxel)
                log_grad *= cond_mean
                log_grad += slope_k
                log_grad *= resp
                np.sum(log_grad, axis=0, out=deriv.reshape(-1)[lo:hi])
        return x0, deriv

    def denoise(self, x_t, t):
        return self._tiled(x_t, t, with_deriv=False)[0]

    def denoise_and_vjp(self, x_t, t):
        x0, deriv = self._tiled(x_t, t, with_deriv=True)
        return x0, lambda cotangent: cotangent * deriv

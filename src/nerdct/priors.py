"""Denoiser priors: the sampler-facing interface and the analytic GMM prior.

A prior exposes the posterior-mean denoiser f(x_t, t) (an estimate of the
clean image) and the vector-Jacobian product of f with respect to x_t,
which is what the samplers differentiate through.
"""

import abc
import functools

import numpy as np

#: Voxels per tile of the GMM pass: its (K, tile) scratch stays in L2.
_TILE = 8192
#: The GMM prior's per-t table spans [-_TABLE_EDGE, _TABLE_EDGE] with
#: nodes _TABLE_STEP apart (16,001 nodes, 16,000 cubic cells).
_TABLE_EDGE = 8.0
_TABLE_STEP = 1e-3
_TABLE_CELLS = round(2 * _TABLE_EDGE / _TABLE_STEP)
#: A table is kept only if it is this close to the exact pass at every
#: cell midpoint, where cubic Hermite error peaks.
_TABLE_TOL = 1e-7


class DenoiserPrior(abc.ABC):
    """Posterior-mean denoiser: a prior implements `denoise_and_vjp` only."""

    @abc.abstractmethod
    def denoise_and_vjp(self, x_t, t):
        """(denoise(x_t, t), vjp) in one pass: vjp(c) = d<c, denoise>/d x_t."""

    def denoise(self, x_t, t):
        """Estimate of the clean image given x_t at time index t."""
        return self.denoise_and_vjp(x_t, t)[0]

    def input_vjp(self, x_t, t, cotangent):
        """d<cotangent, denoise(x_t, t)> / d x_t.

        Kept only because the benchmark's tracer wraps it by name; it goes
        with that tracer's change (ROADMAP item 3).
        """
        return self.denoise_and_vjp(x_t, t)[1](cotangent)


class IdentityPrior(DenoiserPrior):
    """f(x_t, t) = x_t; turns the samplers into plain linear solvers."""

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


def _exact_pass(mixture, a, x):
    """Posterior mean and its derivative, in tiles of `_TILE` voxels.

    `mixture` is (weights, means, stds), `a` is alpha_bar at the call's t
    and `x` a float64 array.  Each tile of a flat view works in (K, tile) scratch that stays in
    cache.  All steps are elementwise or sums over components in order,
    so the tile size cannot change a bit.
    """
    weights, means, stds = mixture
    sqrt_a = np.sqrt(a)
    noise_var = 1.0 - a
    flat = x.reshape(-1)
    means, stds = means[:, None], stds[:, None]
    var_k = a * stds**2 + noise_var
    log_norm = np.log(weights)[:, None] - 0.5 * np.log(var_k)
    shift_k, offset_k = sqrt_a * means, noise_var * means
    gain_k = sqrt_a * stds**2
    slope_k = gain_k / var_k
    n_comp, n_vox = len(means), flat.size
    tile = max(1, min(_TILE, n_vox))
    buffers, row = np.empty((4, n_comp * tile)), np.empty(tile)
    x0 = np.empty(x.shape)
    deriv = np.empty(x.shape)
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


def _table_pass(coef, x):
    """The table's value and derivative at x in range, in tiles.

    Cell i starts at node x_i = i*_TABLE_STEP - _TABLE_EDGE and holds
    p(s) = c0 + s*(c1 + s*(c2 + s*c3)) for s = (x - x_i)/_TABLE_STEP in
    [0, 1]; the derivative is p'(s)/_TABLE_STEP, the interpolant's own.
    """
    flat = x.reshape(-1)
    n_vox = flat.size
    tile = max(1, min(_TILE, n_vox))
    pos, cell, gathered = np.empty(tile), np.empty(tile, np.intp), np.empty((tile, 4))
    x0 = np.empty(x.shape)
    deriv = np.empty(x.shape)
    for lo in range(0, n_vox, tile):
        hi = min(lo + tile, n_vox)
        s, index, c = pos[:hi - lo], cell[:hi - lo], gathered[:hi - lo]
        np.multiply(flat[lo:hi], 1.0 / _TABLE_STEP, out=s)
        s += _TABLE_EDGE / _TABLE_STEP
        np.copyto(index, s, casting="unsafe")  # floor, as s >= 0
        np.minimum(index, _TABLE_CELLS - 1, out=index)
        s -= index
        np.take(coef, index, axis=0, out=c)
        out = x0.reshape(-1)[lo:hi]
        np.multiply(c[:, 3], s, out=out)
        out += c[:, 2]
        out *= s
        out += c[:, 1]
        out *= s
        out += c[:, 0]
        out = deriv.reshape(-1)[lo:hi]
        np.multiply(c[:, 3], 3.0 * s, out=out)  # (3 c3 s + 2 c2) s + c1
        out += 2.0 * c[:, 2]
        out *= s
        out += c[:, 1]
        out *= 1.0 / _TABLE_STEP
    return x0, deriv


@functools.lru_cache(maxsize=1)
def _table(weights, means, stds, a):
    """Per-cell cubic Hermite coefficients (cells, 4) of f at alpha_bar `a`.

    Node values and slopes come from the exact pass.  Returns None when the
    cubic misses the exact pass by more than `_TABLE_TOL` at a cell
    midpoint; calls at that t then take the exact pass.  The one cached
    table is keyed by the mixture's values, so a prior mutated in place
    never reads a stale table.
    """
    mixture = tuple(np.array(v) for v in (weights, means, stds))
    nodes = np.arange(_TABLE_CELLS + 1) * _TABLE_STEP - _TABLE_EDGE
    f, slope = _exact_pass(mixture, a, nodes)
    # The Hermite cubic of each cell matches f and its slope at both nodes.
    slope *= _TABLE_STEP
    rise = np.diff(f)
    coef = np.empty((_TABLE_CELLS, 4))
    coef[:, 0] = f[:-1]
    coef[:, 1] = slope[:-1]
    coef[:, 2] = 3.0 * rise - 2.0 * slope[:-1] - slope[1:]
    coef[:, 3] = slope[:-1] + slope[1:] - 2.0 * rise
    midpoints = nodes[:-1] + 0.5 * _TABLE_STEP
    error = _table_pass(coef, midpoints)[0]
    error -= _exact_pass(mixture, a, midpoints)[0]
    coef.flags.writeable = False  # every caller at this t shares it
    return coef if np.max(np.abs(error)) <= _TABLE_TOL else None


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

    Calls read f and f' from a cubic Hermite table of f at the call's t
    when every voxel lies in [-_TABLE_EDGE, _TABLE_EDGE] and the table
    passed its midpoint check; otherwise they run the exact pass.
    """

    def __init__(self, schedule, weights, means, stds):
        self.schedule = schedule
        self.weights, self.means, self.stds = validate_mixture(weights, means, stds)

    def denoise_and_vjp(self, x_t, t):
        a = float(self.schedule.alpha_bar[t])
        x = np.asarray(x_t, dtype=np.float64)
        mixture = (self.weights, self.means, self.stds)
        coef = None
        # NaN fails both comparisons.
        if x.size and -_TABLE_EDGE <= x.min() and x.max() <= _TABLE_EDGE:
            coef = _table(*(tuple(v.tolist()) for v in mixture), a)
        x0, deriv = _exact_pass(mixture, a, x) if coef is None else _table_pass(coef, x)
        return x0, lambda cotangent: cotangent * deriv

"""Exact inner solves for the Adam-path samplers under a linear prior, and
the tolerance CG they run.

With f(v) = v each inner objective of `sitcom`, `nerd-a` and `nerd-p` is a
convex quadratic, so its minimizer is one CG solve.  `solve_inner_exactly`
swaps a sampler's inner loop for that solve, driven by the objective the
sampler itself hands the loop, so the checks that use it read the method's
own gradient rather than a second derivation of it.

`cg_oracle` is that solve: the out-of-place CG recursion with a tolerance.
At tolerance 0 it runs `cg_solve`'s fixed budget, so it is also the bit
reference for `cg_solve`'s in-place updates.
"""

import math

import numpy as np

from nerdct.optim import CGResult
from nerdct.volume import _dot

TOL = 1e-11
MAX_ITER = 20000


def cg_oracle(apply_op, b, tol, max_iter, x0):
    """CG from `x0` until ||r|| <= tol * ||b|| or `max_iter` steps, out of
    place.  A non-positive or NaN curvature ends it with breakdown=True and
    the last iterate; `converged` means the tolerance was met."""
    x = np.array(x0, dtype=np.float64)
    r = b - apply_op(x)
    d = r.copy()
    rs = _dot(r, r)
    b_norm = np.sqrt(_dot(b, b))
    norms = [np.sqrt(rs)]
    for _ in range(max_iter):
        if norms[-1] <= tol * b_norm:
            break
        op_d = apply_op(d)
        curvature = _dot(d, op_d)
        if not curvature > 0.0:
            return CGResult(x, False, len(norms) - 1, norms, breakdown=True)
        alpha = rs / curvature
        x = x + alpha * d
        r = r - alpha * op_d
        rs_new = _dot(r, r)
        d = r + (rs_new / rs) * d
        rs = rs_new
        norms.append(np.sqrt(rs))
    return CGResult(x, norms[-1] <= tol * b_norm, len(norms) - 1, norms)


def _minimize(gradient, start, what, t):
    """The minimizer of the convex quadratic whose affine gradient is
    `gradient`, g(b) = H b + g(0), by CG on H b = -g(0) from `start`.

    H d is taken as (g(d / |d|) - g(0)) |d| so that the constant g(0) does
    not swamp small directions.  A CG breakdown (a Hessian that is not
    positive definite) or a solve that misses the tolerance fails the check.
    """
    g0 = gradient(np.zeros_like(start))

    def hessian(d):
        norm = math.sqrt(float(np.vdot(d, d)))
        if norm == 0.0:
            return np.zeros_like(d)
        return (gradient(d / norm) - g0) * norm

    result = cg_oracle(hessian, -g0, TOL, MAX_ITER, start)
    if result.breakdown or not result.converged:
        raise AssertionError(
            f"exact {what} at t={t}: CG "
            f"{'breakdown' if result.breakdown else 'did not converge'} "
            f"after {result.iterations} iterations")
    return result.x


def solve_inner_exactly(sampler):
    """Replace a sampler's inner solves with the exact minimizers of the
    objectives they are handed.

    sitcom and nerd-a hand `_optimize` the method's `terms`, to which the
    anchor lam ||v - x_t||^2 is added.  nerd-p hands `_primal_step` the v
    gradient of its coupling and the w block's normal equation
    apply_op(w) = rhs(v), divided by the shift s = 1/(2 tau) + lam_couple,
    so the w gradient of its primal objective is 2 s (apply_op(w) - rhs(v));
    the joint (v, w) minimizer replaces the rounds of Adam and CG.
    """
    cfg = sampler.config
    lam, nz = cfg.lam, sampler.op.nz
    w_scale = 2.0 * (0.5 / cfg.tau + cfg.lam_couple)

    def anchored(grad, v, x_t):
        if lam != 0.0:
            grad += 2.0 * lam * (v - x_t)
        return grad

    def optimize(adam, steps, v, x_t, t, terms, what):
        def gradient(b):
            return anchored(terms(b)[1], b, x_t)

        return _minimize(gradient, v, what, t), []  # no Adam updates, so no losses

    def primal_step(x_t, t, cols, coupling, apply_op, rhs):
        def gradient(b):
            v, w = b
            w_cols = np.ascontiguousarray(w.reshape(nz, -1).T)
            g_w = (apply_op(w_cols) - rhs(v)) * w_scale
            return np.stack([anchored(coupling(v, w)[1], v, x_t),
                             g_w.T.reshape(w.shape)])

        start = np.stack([x_t, cols.T.reshape(x_t.shape)])
        v, w = _minimize(gradient, start, "joint primal solve", t)
        return v, w, []

    sampler._optimize = optimize
    sampler._primal_step = primal_step
    return sampler

"""Exact inner solves for the Adam-path samplers under a linear prior, and
the tolerance CG they run.

With f(v) = v each inner objective of `sitcom`, `nerd-a` and `nerd-p` is a
convex quadratic, so its minimizer is one CG solve.  `solve_inner_exactly`
swaps a sampler's Adam inner loop for that solve, driven by the objective
the sampler itself hands the loop, so the checks that use it read the
method's own gradient rather than a second derivation of it.

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


def solve_inner_exactly(sampler):
    """Replace `sampler._optimize` with CG on the quadratic it is handed.

    The gradient is the method's `terms` plus the anchor lam ||v - x_t||^2
    that `_optimize` adds; it is affine, g(b) = H b + g(0), so CG solves
    H b = -g(0) from the given blocks.  H d is taken as
    (g(d / |d|) - g(0)) |d| so that the constant g(0) does not swamp small
    directions.  A CG breakdown (a Hessian that is not positive definite)
    or a solve that misses the tolerance fails the check.
    """
    lam = sampler.config.lam

    def optimize(x_t, t, blocks, terms, what):
        def gradient(b):
            grad = terms(b)[1].copy()  # nerd-p's terms rewrites one buffer per call
            if lam != 0.0:
                grad[0] += 2.0 * lam * (b[0] - x_t)
            return grad

        g0 = gradient(np.zeros_like(blocks))

        def hessian(d):
            norm = math.sqrt(float(np.vdot(d, d)))
            if norm == 0.0:
                return np.zeros_like(d)
            return (gradient(d / norm) - g0) * norm

        result = cg_oracle(hessian, -g0, TOL, MAX_ITER, blocks)
        if result.breakdown or not result.converged:
            raise AssertionError(
                f"exact {what} at t={t}: CG "
                f"{'breakdown' if result.breakdown else 'did not converge'} "
                f"after {result.iterations} iterations")
        return result.x, []  # no Adam updates, so no losses before them

    sampler._optimize = optimize
    return sampler

"""Exact inner solves for the Adam-path samplers under a linear prior.

With f(v) = v each inner objective of `sitcom`, `nerd-a` and `nerd-p` is a
convex quadratic, so its minimizer is one CG solve.  `solve_inner_exactly`
swaps a sampler's Adam inner loop for that solve, driven by the objective
the sampler itself hands the loop, so the checks that use it read the
method's own gradient rather than a second derivation of it.
"""

import math

import numpy as np

from nerdct.optim import cg_solve

TOL = 1e-11
MAX_ITER = 20000


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

        result = cg_solve(hessian, -g0, tol=TOL, max_iter=MAX_ITER, x0=blocks)
        if result.breakdown or not result.converged:
            raise AssertionError(
                f"exact {what} at t={t}: CG "
                f"{'breakdown' if result.breakdown else 'did not converge'} "
                f"after {result.iterations} iterations")
        return result.x, []  # no Adam updates, so no losses before them

    sampler._optimize = optimize
    return sampler

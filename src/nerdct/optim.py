"""Shared optimization primitives: Adam, proximal maps, conjugate gradients."""

from dataclasses import dataclass, field

import numpy as np

from .volume import _dot


class NonFiniteGradientError(ValueError):
    """Raised when an optimizer receives a NaN/inf gradient."""


@dataclass
class AdamState:
    """Adam with bias correction; moments live with the state object.

    m <- b1*m + (1-b1)*g,  v <- b2*v + (1-b2)*g^2
    x <- x - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The first step on any nonzero gradient therefore has magnitude close
    to lr per coordinate.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)


def adam_step(state, x, grad):
    """One Adam update; mutates `state` in place, never `x`; returns the new iterate."""
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} != iterate shape {x.shape}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise NonFiniteGradientError(
            f"non-finite gradient ({bad} entries) at Adam step {state.t + 1}"
        )
    if state.m is None:
        state.m = np.zeros_like(x)
        state.v = np.zeros_like(x)
    state.t += 1
    scratch = np.multiply(1.0 - state.beta1, grad)
    state.m *= state.beta1
    state.m += scratch
    np.multiply(1.0 - state.beta2, grad, out=scratch)
    scratch *= grad
    state.v *= state.beta2
    state.v += scratch
    np.sqrt(np.divide(state.v, 1.0 - state.beta2 ** state.t, out=scratch), out=scratch)
    scratch += state.eps
    step = state.m / (1.0 - state.beta1 ** state.t) * state.lr
    step /= scratch
    return np.subtract(x, step, out=step)


def soft_threshold(v, kappa):
    """prox of kappa*|.|: sign(v) * max(|v| - kappa, 0)."""
    if not kappa >= 0:
        raise ValueError(f"threshold must be >= 0, got {kappa}")
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def project_linf_ball(u):
    """Projection onto the unit l-inf ball, u_i / max(1, |u_i|)."""
    return u / np.maximum(1.0, np.abs(u))


@dataclass
class CGResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list
    breakdown: bool = False


def cg_solve(apply_op, b, tol=1e-6, max_iter=None, x0=None):
    """Matrix-free CG for SPD operators.

    Stops when ||r|| <= tol * ||b||.  Non-convergence is reported through
    the result (converged=False), never silently; a non-positive or NaN
    curvature sets breakdown=True and returns the last iterate.

    x, r and d are updated in place through one scratch array, and the
    array `apply_op` returns is read before the next call, so it may be a
    buffer that `apply_op` reuses.  `b` and `x0` are never written.
    """
    b = np.asarray(b, dtype=np.float64)
    if max_iter is None:
        max_iter = 10 * b.size
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - apply_op(x)
    d = r.copy()
    scratch = np.empty_like(b)
    rs = _dot(r, r)
    b_norm = np.sqrt(_dot(b, b))
    norms = [np.sqrt(rs)]
    iterations = 0
    for _ in range(max_iter):
        if norms[-1] <= tol * b_norm:
            return CGResult(x, True, iterations, norms)
        op_d = apply_op(d)
        curvature = _dot(d, op_d)
        if not curvature > 0.0:
            return CGResult(x, False, iterations, norms, breakdown=True)
        alpha = rs / curvature
        x += np.multiply(alpha, d, out=scratch)
        r -= np.multiply(alpha, op_d, out=scratch)
        rs_new = _dot(r, r)
        d *= rs_new / rs
        d += r
        rs = rs_new
        iterations += 1
        norms.append(np.sqrt(rs))
    converged = norms[-1] <= tol * b_norm
    return CGResult(x, converged, iterations, norms)

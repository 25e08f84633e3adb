"""Shared optimization primitives: Adam, proximal maps, conjugate gradients."""

from dataclasses import dataclass, field

import numpy as np

from .volume import _dot


class NonFiniteGradientError(ValueError):
    """Raised when an optimizer receives a NaN/inf gradient."""


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; moments live with the state object.

    m <- b1*m + (1-b1)*g,  v <- b2*v + (1-b2)*g^2
    x <- x - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    where b1, b2 and eps are the module constants ADAM_BETA1, ADAM_BETA2
    and ADAM_EPS.  The first step on any nonzero gradient therefore has
    magnitude close to lr per coordinate.
    """

    lr: float
    t: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)


ADAM_TILE = 8192    # elements per tile of adam_step's pass


def adam_step(state, x, grad):
    """One Adam update; mutates `state` in place, never `x`; returns the new iterate.

    Both checks run before any state is touched.  The moments and the step
    are then formed tile by tile over the flat arrays, so one tile-sized
    scratch is the only temporary besides the returned iterate; each
    element gets the same operations in the same order as the formulas in
    `AdamState`.
    """
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} != iterate shape {x.shape}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise NonFiniteGradientError(
            f"non-finite gradient ({bad} entries) at Adam step {state.t + 1}"
        )
    if state.m is None:
        # C order, so that their flat views below write through to them.
        state.m = np.zeros_like(x, order="C")
        state.v = np.zeros_like(x, order="C")
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    new = np.empty_like(state.m)
    m, v, g, x_in, out = (a.reshape(-1) for a in (state.m, state.v, grad, x, new))
    scratch = np.empty(min(ADAM_TILE, m.size), dtype=g.dtype)
    for lo in range(0, m.size, ADAM_TILE):
        tile = slice(lo, lo + ADAM_TILE)
        m_t, v_t, g_t, out_t = m[tile], v[tile], g[tile], out[tile]
        s = scratch[:m_t.size]
        np.multiply(1.0 - ADAM_BETA1, g_t, out=s)
        m_t *= ADAM_BETA1
        m_t += s
        np.multiply(1.0 - ADAM_BETA2, g_t, out=s)
        s *= g_t
        v_t *= ADAM_BETA2
        v_t += s
        np.sqrt(np.divide(v_t, bias2, out=s), out=s)
        s += ADAM_EPS
        np.divide(m_t, bias1, out=out_t)
        out_t *= state.lr
        out_t /= s
        np.subtract(x_in[tile], out_t, out=out_t)
    return new


def soft_threshold(v, kappa):
    """prox of kappa*|.|: sign(v) * max(|v| - kappa, 0)."""
    if not kappa >= 0:
        raise ValueError(f"threshold must be >= 0, got {kappa}")
    out = np.abs(v)
    out -= kappa
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


def project_linf_ball(u):
    """Projection onto the unit l-inf ball, u_i / max(1, |u_i|)."""
    return u / np.maximum(1.0, np.abs(u))


@dataclass
class CGResult:
    """How cg_solve ended: `converged` means the residual reached exactly
    zero within the budget, `breakdown` that a non-positive or NaN
    curvature stopped the solve."""
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list
    breakdown: bool = False


def cg_solve(apply_op, b, x0, iterations):
    """`iterations` steps of matrix-free CG for an SPD operator, in `x0`.

    No tolerance: only a residual of exactly zero, whose next curvature
    would be zero, ends the budget early (converged=True); a non-positive
    or NaN curvature sets breakdown=True and returns the last iterate.

    The float64 start `x0` is the iterate: it is updated in place and
    returned as `x`.  x, r and d are updated through one scratch array,
    and the array `apply_op` returns is read before the next call, so it
    may be a buffer that `apply_op` reuses.  `b` is never written.
    """
    x = x0
    r = b - apply_op(x)
    d = r.copy()
    scratch = np.empty_like(x)
    rs = _dot(r, r)
    norms = [np.sqrt(rs)]
    for step in range(iterations):
        if rs == 0.0:
            return CGResult(x, True, step, norms)
        op_d = apply_op(d)
        curvature = _dot(d, op_d)
        if not curvature > 0.0:
            return CGResult(x, False, step, norms, breakdown=True)
        alpha = rs / curvature
        x += np.multiply(alpha, d, out=scratch)
        r -= np.multiply(alpha, op_d, out=scratch)
        rs_new = _dot(r, r)
        d *= rs_new / rs
        d += r
        rs = rs_new
        norms.append(np.sqrt(rs))
    return CGResult(x, rs == 0.0, iterations, norms)

"""Adam, proximal maps, l-inf projection, and conjugate gradient."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nerdct import (
    AdamState,
    NonFiniteGradientError,
    adam_step,
    cg_solve,
    project_linf_ball,
    soft_threshold,
)
from nerdct.rng import Xoshiro256PP
from nerdct.volume import _dot


# ---------------------------------------------------------------- Adam

def test_adam_first_step_magnitude():
    # With bias correction the very first update is lr * sign(grad)
    # up to the eps cushion, independent of gradient scale.
    for scale_factor in (1e-3, 1.0, 1e6):
        state = AdamState(lr=0.01)
        x = np.zeros(5)
        g = np.full(5, scale_factor)
        x1 = adam_step(state, x, g)
        assert np.allclose(x1, -0.01, rtol=1e-4)


def test_adam_descends_quadratic():
    # Minimize 0.5*||x - c||^2; Adam should approach c.
    rng = Xoshiro256PP(0)
    c = rng.normal_array((8,))
    x = np.zeros(8)
    state = AdamState(lr=0.05)
    for _ in range(500):
        x = adam_step(state, x, x - c)
    assert np.max(np.abs(x - c)) < 1e-2


def test_adam_bias_correction_reference():
    # Follow the textbook recursion by hand for three steps.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    state = AdamState(lr=lr)
    x = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    xs = x.copy()
    for t in range(1, 4):
        g = 2.0 * xs  # gradient of ||x||^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        xs = xs - lr * mhat / (np.sqrt(vhat) + eps)
        x = adam_step(state, x, 2.0 * x)
        assert np.allclose(x, xs, atol=1e-14)


def test_adam_rejects_nonfinite_gradient():
    state = AdamState(lr=0.1)
    with pytest.raises(NonFiniteGradientError):
        adam_step(state, np.zeros(3), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(NonFiniteGradientError):
        adam_step(state, np.zeros(3), np.array([np.inf, 0.0, 0.0]))


def test_adam_in_place_matches_out_of_place_formulas():
    # The moments are updated in place; the iterates must keep the bits of
    # the out-of-place recursion, and the input iterate (here a stacked
    # pair the caller holds views of) must never be written.
    lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
    rng = Xoshiro256PP(5)
    state = AdamState(lr=lr)
    x = np.stack([rng.normal_array((3, 4, 5)), rng.normal_array((3, 4, 5))])
    ref, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for t in range(1, 41):
        g = t * rng.normal_array(x.shape)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        held = x.copy()
        first, second = x
        new = adam_step(state, x, g)
        assert np.array_equal(x, held)
        assert np.array_equal(first, held[0]) and np.array_equal(second, held[1])
        assert not np.shares_memory(new, x)
        x = new
        assert np.array_equal(x, ref)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_adam_nonfinite_gradient_leaves_state_untouched():
    state = AdamState(lr=0.1)
    x = adam_step(state, np.zeros(3), np.array([1.0, -2.0, 0.5]))
    m, v = state.m.copy(), state.v.copy()
    with pytest.raises(NonFiniteGradientError):
        adam_step(state, x, np.array([1.0, np.nan, 0.0]))
    assert state.t == 1
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_adam_state_isolated_between_instances():
    s1 = AdamState(lr=0.1)
    s2 = AdamState(lr=0.1)
    x = np.ones(4)
    g = np.ones(4)
    a = adam_step(s1, x, g)
    adam_step(s1, a, g)
    b = adam_step(s2, x, g)
    assert np.allclose(a, b)
    assert s1.t == 2 and s2.t == 1


# ------------------------------------------------- proximal operators

def test_soft_threshold_closed_form():
    v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    out = soft_threshold(v, 1.0)
    assert np.allclose(out, [-1.0, 0.0, 0.0, 0.0, 1.0])
    # kappa = 0 is the identity.
    assert np.array_equal(soft_threshold(v, 0.0), v)
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)
    # A NaN threshold would turn every output into NaN.
    with pytest.raises(ValueError):
        soft_threshold(v, float("nan"))


def test_soft_threshold_is_prox_via_grid():
    # Brute-force argmin of 0.5*(x-v)^2 + kappa*|x| over a dense grid.
    rng = Xoshiro256PP(1)
    for _ in range(100):
        v = float(rng.normals(1)[0]) * 2.0
        kappa = float(rng.uniforms(1)[0]) * 1.5
        grid = np.linspace(-12.0, 12.0, 480_001)
        obj = 0.5 * (grid - v) ** 2 + kappa * np.abs(grid)
        best = grid[int(np.argmin(obj))]
        got = float(soft_threshold(np.array([v]), kappa)[0])
        assert abs(got - best) <= 1e-4


def test_project_linf_ball_equals_clamp():
    rng = Xoshiro256PP(2)
    for _ in range(20):
        u = rng.normal_array((4, 3, 3)) * 3.0
        proj = project_linf_ball(u)
        assert np.array_equal(proj, np.clip(u, -1.0, 1.0))
        assert np.max(np.abs(proj)) <= 1.0
    # Idempotent and identity inside the ball.
    inside = np.array([0.3, -0.9, 0.0])
    assert np.array_equal(project_linf_ball(inside), inside)
    assert np.array_equal(project_linf_ball(project_linf_ball(u)), project_linf_ball(u))


def grid_argmin(objective, lo, hi, step):
    """Brute-force minimiser of `objective` over a grid of [lo, hi] that holds 0."""
    grid = np.arange(round(lo / step), round(hi / step) + 1) * step
    values = objective(grid)
    return grid[int(np.argmin(values))], values.min()


_GRID_STEP = 1e-4


@given(v=st.floats(-8.0, 8.0), kappa=st.floats(0.0, 4.0))
@example(v=1.25, kappa=1.25)
@example(v=-0.5, kappa=0.0)
@example(v=0.0, kappa=2.0)
def test_soft_threshold_matches_grid_minimiser(v, kappa):
    # prox of kappa*|.| at v: argmin_x 0.5*(x - v)^2 + kappa*|x|, which lies
    # in [-|v|, |v|].  The grid holds 0, where the minimiser often sits.
    def objective(x):
        return 0.5 * (x - v) ** 2 + kappa * np.abs(x)

    best, best_value = grid_argmin(objective, -abs(v) - 1.0, abs(v) + 1.0, _GRID_STEP)
    got = float(soft_threshold(np.array([v]), kappa)[0])
    assert abs(got - best) <= _GRID_STEP
    assert objective(got) <= best_value + 1e-12


@given(u=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
@example(u=[1.0, -1.0, 0.0])
@example(u=[-20.0, 1.0 + 1e-12, 0.999])
def test_project_linf_ball_matches_grid_minimiser(u):
    # Projection onto the unit l-inf ball separates by coordinate:
    # argmin_{|x| <= 1} 0.5*(x - u_i)^2 for each entry.
    u = np.array(u)
    proj = project_linf_ball(u)
    assert np.max(np.abs(proj)) <= 1.0
    for got, target in zip(proj, u):
        best, best_value = grid_argmin(lambda x: 0.5 * (x - target) ** 2,
                                       -1.0, 1.0, _GRID_STEP)
        assert abs(got - best) <= _GRID_STEP
        assert 0.5 * (got - target) ** 2 <= best_value + 1e-12


# ------------------------------------------------- conjugate gradient

def cg_oracle(apply_op, b, tol, max_iter, x0):
    """The out-of-place CG recursion; cg_solve must keep its bits."""
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
        alpha = rs / _dot(d, op_d)
        x = x + alpha * d
        r = r - alpha * op_d
        rs_new = _dot(r, r)
        d = r + (rs_new / rs) * d
        rs = rs_new
        norms.append(np.sqrt(rs))
    return x, norms


def test_cg_in_place_matches_out_of_place_recursion():
    # apply_op returns one buffer it overwrites on every call, as the dds
    # normal operator does; cg_solve must read it before the next call.
    rng = Xoshiro256PP(8)
    mat = rng.normal_array((60, 60))
    spd = mat.T @ mat + 0.1 * np.eye(60)
    buf = np.empty((3, 4, 5))

    def reused(v):
        buf.reshape(-1)[:] = spd @ v.ravel()
        return buf

    def fresh(v):
        return (spd @ v.ravel()).reshape(v.shape)

    b = rng.normal_array((3, 4, 5))
    x0 = rng.normal_array((3, 4, 5))
    for tol, max_iter in ((1e-14, 25), (1e-3, 200)):
        held_b, held_x0 = b.copy(), x0.copy()
        res = cg_solve(reused, b, tol=tol, max_iter=max_iter, x0=x0)
        x, norms = cg_oracle(fresh, b, tol, max_iter, x0)
        assert res.x.tobytes() == x.tobytes()
        assert res.residual_norms == norms
        assert res.iterations == len(norms) - 1
        assert np.array_equal(b, held_b) and np.array_equal(x0, held_x0)
        assert not np.shares_memory(res.x, x0) and not np.shares_memory(res.x, buf)


def test_cg_identity_system():
    b = Xoshiro256PP(3).normal_array((10,))
    res = cg_solve(lambda x: x, b, tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    assert np.allclose(res.x, b, atol=1e-10)


def test_cg_hand_solved_2x2():
    # [[4,1],[1,3]] x = [1,2] has solution [1/11, 7/11].
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    res = cg_solve(lambda x: mat @ x, np.array([1.0, 2.0]), tol=1e-14)
    assert res.converged
    assert np.allclose(res.x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)


def test_cg_random_spd():
    rng = Xoshiro256PP(4)
    for _ in range(5):
        mat = rng.normal_array((12, 12))
        spd = mat.T @ mat + np.eye(12)
        b = rng.normal_array((12,))
        res = cg_solve(lambda x: spd @ x, b, tol=1e-10, max_iter=200)
        assert res.converged
        assert np.linalg.norm(spd @ res.x - b) <= 1e-9 * np.linalg.norm(b) * 10


def test_cg_residual_monotone_reported():
    rng = Xoshiro256PP(5)
    mat = rng.normal_array((20, 20))
    spd = mat.T @ mat + np.eye(20)
    b = rng.normal_array((20,))
    res = cg_solve(lambda x: spd @ x, b, tol=1e-12, max_iter=100)
    # CG residual history tracked and final entry at least meets the tolerance.
    assert len(res.residual_norms) == res.iterations + 1
    assert res.residual_norms[-1] <= 1e-12 * np.linalg.norm(b)


def test_cg_max_iter_respected():
    rng = Xoshiro256PP(6)
    mat = rng.normal_array((30, 30))
    spd = mat.T @ mat + 1e-4 * np.eye(30)
    b = rng.normal_array((30,))
    res = cg_solve(lambda x: spd @ x, b, tol=1e-16, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_cg_breakdown_on_indefinite():
    # A matrix with a negative eigenvalue produces non-positive curvature;
    # an operator returning NaN produces NaN curvature.
    mat = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    res = cg_solve(lambda x: mat @ x, b, tol=1e-12, max_iter=10)
    assert res.breakdown
    res = cg_solve(lambda x: x * np.nan, np.ones(4), max_iter=5)
    assert res.breakdown
    assert res.iterations == 0
    assert np.isnan(res.residual_norms[-1])


def test_cg_warm_start():
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    exact = np.array([1.0 / 11.0, 7.0 / 11.0])
    res = cg_solve(lambda x: mat @ x, np.array([1.0, 2.0]), tol=1e-14, x0=exact)
    assert res.converged
    assert res.iterations == 0
    assert np.allclose(res.x, exact)


def test_cg_zero_rhs():
    res = cg_solve(lambda x: 2.0 * x, np.zeros(5), tol=1e-12)
    assert res.converged
    assert np.all(res.x == 0.0)
    assert res.residual_norms == [0.0]

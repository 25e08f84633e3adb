"""Sampler behavior: stream discipline, reductions, duals, and traces."""

import logging
import warnings

import numpy as np
import pytest

from nerdct import (
    CTOperator,
    GmmScalarPrior,
    IdentityPrior,
    NoiseSchedule,
    Sampler,
    SamplerConfig,
    SamplerError,
    default_geometry,
    dz_forward,
    l1_norm,
    run_sampler,
    save_trace,
    shepp_logan_3d,
    soft_threshold,
    uniform_view_indices,
)
from nerdct.rng import Xoshiro256PP

NX, NZ = 16, 8
GEOM = default_geometry(NX, 12)
VIEWS = uniform_view_indices(12, 4)
SCHED = NoiseSchedule.linear_beta(n_sampling_steps=4)


def small_problem(seed=0, noise=0.0, views=VIEWS):
    op = CTOperator(NX, NX, NZ, GEOM, views)
    phantom = shepp_logan_3d(NX, NX, NZ)
    y = op.forward(phantom)
    if noise:
        y = y + Xoshiro256PP(1234).normal_array(y.shape) * noise
    return op, phantom, y


def gmm_prior(sched=SCHED):
    return GmmScalarPrior(sched, [0.8, 0.15, 0.05], [0.0, 0.2, 1.0], [0.05, 0.05, 0.05])


def config(method, **kw):
    kw.setdefault("n_steps", 4)
    kw.setdefault("inner_steps", 3)
    kw.setdefault("lr", 0.01)
    kw.setdefault("seed", 0)
    return SamplerConfig(method=method, **kw)


# ------------------------------------------------------------ plumbing

def test_init_draws_standard_normal_volume():
    op, _, y = small_problem()
    sampler = Sampler(config("sitcom", seed=3), op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    expected = Xoshiro256PP(3).normal_array((NZ, NX, NX))
    assert np.array_equal(state.x, expected)


def test_methods_share_noise_stream():
    # Every method consumes init + one noise volume per step, so the
    # generator ends at the same stream position regardless of method.
    op, _, y = small_problem()
    numel = NZ * NX * NX
    marks = {}
    for method in ("sitcom", "nerd-a", "nerd-p", "dds"):
        sampler = Sampler(config(method, seed=5), op, y, gmm_prior(), SCHED)
        sampler.run()
        marks[method] = sampler.rng.raw(2)
    reference = Xoshiro256PP(5)
    reference.raw((1 + 4) * numel)
    expected = reference.raw(2)
    for method, got in marks.items():
        assert got == expected, method


def test_rerun_bit_identical():
    op, phantom, y = small_problem(noise=0.05)
    for method in ("sitcom", "nerd-a", "nerd-p", "dds"):
        cfg = config(method, seed=7)
        x1, tr1 = run_sampler(cfg, op, y, gmm_prior(), SCHED, phantom)
        x2, tr2 = run_sampler(config(method, seed=7), op, y, gmm_prior(), SCHED, phantom)
        assert np.array_equal(x1, x2), method
        for a, b in zip(tr1, tr2):
            assert (a.data_residual, a.tv_z, a.psnr) == (b.data_residual, b.tv_z, b.psnr)


def test_single_step_single_trace():
    op, _, y = small_problem()
    cfg = config("nerd-p", n_steps=1)
    _, traces = run_sampler(cfg, op, y, gmm_prior(), SCHED)
    assert len(traces) == 1
    assert traces[0].step == 1
    assert traces[0].t_index == 1000


def test_trace_without_ground_truth_has_nan_psnr():
    op, _, y = small_problem()
    _, traces = run_sampler(config("dds"), op, y, gmm_prior(), SCHED)
    assert all(np.isnan(rec.psnr) for rec in traces)
    assert all(np.isfinite(rec.data_residual) for rec in traces)
    assert all(np.isfinite(rec.tv_z) for rec in traces)


def test_schedule_rederived_when_n_steps_differs():
    op, _, y = small_problem()
    sampler = Sampler(config("sitcom", n_steps=6), op, y, gmm_prior(), SCHED)
    assert sampler.schedule.n_sampling_steps == 6
    assert len(sampler.schedule.sampling_steps) == 6


def test_measurement_shape_validated():
    op, _, y = small_problem()
    with pytest.raises(ValueError):
        Sampler(config("sitcom"), op, y[:, :, :2], gmm_prior(), SCHED)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="unknown").validate()
    with pytest.raises(ValueError):
        SamplerConfig(lam=-1.0).validate()
    with pytest.raises(ValueError):
        SamplerConfig(tau=0.0).validate()
    with pytest.raises(ValueError):
        SamplerConfig(n_steps=0).validate()
    with pytest.raises(ValueError):
        SamplerConfig(pdhg_extrapolation="fancy").validate()


def test_save_trace_format(tmp_path):
    op, phantom, y = small_problem()
    _, traces = run_sampler(config("nerd-p"), op, y, gmm_prior(), SCHED, phantom)
    path = tmp_path / "trace.csv"
    save_trace(str(path), traces)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,t_index,data_residual,tv_z,psnr,wall_ms"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    # repr round trip keeps full precision.
    assert float(first[2]) == traces[0].data_residual


# ------------------------------------------------------------- sitcom

def test_sitcom_huge_anchor_freezes_input():
    # lam >> data term: v cannot move from x_t, so x0 ~= f(x_t).
    op, _, y = small_problem()
    cfg = config("sitcom", lam=1e9, lr=1e-4, inner_steps=5)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    x_t = state.x.copy()
    t = int(SCHED.sampling_steps[0])
    sampler.sitcom_step(state, t, int(SCHED.sampling_steps[1]), resample=False)
    expected = sampler.prior.denoise(x_t, t)
    rel = np.linalg.norm(state.x0 - expected) / np.linalg.norm(expected)
    assert rel <= 1e-3


def test_inner_loss_windowed_non_increase():
    # Averaged over halves, the inner objective should not increase.
    op, _, y = small_problem(noise=0.05)
    cfg = config("sitcom", inner_steps=10, lr=0.005)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    steps = SCHED.sampling_steps
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        sampler.sitcom_step(state, int(t), t_next)
        losses = state.inner_losses
        first = np.mean(losses[: len(losses) // 2])
        second = np.mean(losses[len(losses) // 2 :])
        assert second <= first * (1.0 + 1e-9)


# ------------------------------------------------------------- nerd-a

def test_nerd_a_rho_zero_bit_identical_to_sitcom():
    op, phantom, y = small_problem(noise=0.05)
    x_s, tr_s = run_sampler(config("sitcom", seed=11), op, y, gmm_prior(), SCHED, phantom)
    x_a, tr_a = run_sampler(
        config("nerd-a", seed=11, rho=0.0, lam_z=0.0), op, y, gmm_prior(), SCHED, phantom
    )
    assert np.array_equal(x_s, x_a)
    for a, b in zip(tr_s, tr_a):
        assert a.data_residual == b.data_residual
        assert a.tv_z == b.tv_z
        assert a.psnr == b.psnr


def test_nerd_a_z_update_is_prox_grid_oracle():
    op, _, y = small_problem(noise=0.05)
    cfg = config("nerd-a", lam_z=0.3, rho=2.0)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    w_before = state.w_dual.copy()
    t = int(SCHED.sampling_steps[0])
    x0 = sampler.nerd_a_step(state, t, int(SCHED.sampling_steps[1]), resample=False)
    target = dz_forward(x0) + w_before
    # z minimizes lam_z*|z| + rho/2*(z - target)^2 per coordinate.
    rng = Xoshiro256PP(12)
    flat_target = target.ravel()
    flat_z = state.z.ravel()
    for idx in rng.integers(0, flat_target.size - 1, 40):
        grid = np.linspace(flat_target[idx] - 2.0, flat_target[idx] + 2.0, 200_001)
        obj = cfg.lam_z * np.abs(grid) + 0.5 * cfg.rho * (grid - flat_target[idx]) ** 2
        best = grid[int(np.argmin(obj))]
        assert abs(flat_z[idx] - best) <= 1e-4
    # And matches the closed form exactly.
    assert np.allclose(state.z, soft_threshold(target, cfg.lam_z / cfg.rho), atol=1e-15)
    # Scaled dual accumulates the constraint violation.
    assert np.allclose(state.w_dual, w_before + dz_forward(x0) - state.z, atol=1e-15)


def test_nerd_a_state_persists_across_steps():
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config("nerd-a", lam_z=0.2), op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    assert np.all(state.z == 0.0) and np.all(state.w_dual == 0.0)
    steps = SCHED.sampling_steps
    sampler.nerd_a_step(state, int(steps[0]), int(steps[1]))
    z_after_first = state.z.copy()
    sampler.nerd_a_step(state, int(steps[1]), int(steps[2]))
    # Second step reuses, not resets: the dual cannot be the first-step
    # value recomputed from scratch unless the constraint is exactly met.
    assert not np.array_equal(state.z, z_after_first) or np.all(state.z == 0.0)


# ------------------------------------------------------------- nerd-p

def test_nerd_p_dual_feasible_every_step():
    op, phantom, y = small_problem(noise=0.05)
    cfg = config("nerd-p", sigma=50.0, n_steps=6)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    steps = sampler.schedule.sampling_steps
    saw_active_dual = False
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        sampler.nerd_p_step(state, int(t), t_next)
        assert np.max(np.abs(state.u)) <= 1.0
        if np.max(np.abs(state.u)) > 0.5:
            saw_active_dual = True
    # With a large dual step the ball constraint actually binds.
    assert saw_active_dual


def test_nerd_p_broken_projection_raises(monkeypatch):
    # The feasibility check is a typed error, so it holds under python -O.
    monkeypatch.setattr("nerdct.samplers.project_linf_ball", lambda u: u + 2.0)
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config("nerd-p"), op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    with pytest.raises(SamplerError, match="unit l-inf ball"):
        sampler.nerd_p_step(state, int(SCHED.sampling_steps[0]), 0)


def test_nerd_p_lam_z_zero_keeps_dual_silent():
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config("nerd-p", lam_z=0.0), op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    steps = SCHED.sampling_steps
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        sampler.nerd_p_step(state, int(t), t_next)
        assert np.all(state.u == 0.0)


def test_nerd_p_extrapolation_modes_differ():
    op, phantom, y = small_problem(noise=0.05)
    x_lit, _ = run_sampler(
        config("nerd-p", sigma=10.0, pdhg_extrapolation="literal"),
        op, y, gmm_prior(), SCHED, phantom,
    )
    x_cls, _ = run_sampler(
        config("nerd-p", sigma=10.0, pdhg_extrapolation="classical"),
        op, y, gmm_prior(), SCHED, phantom,
    )
    assert not np.array_equal(x_lit, x_cls)


def test_nerd_p_data_residual_improves():
    op, phantom, y = small_problem(noise=0.05)
    cfg = config("nerd-p", n_steps=8, inner_steps=10, lr=0.02)
    _, traces = run_sampler(cfg, op, y, gmm_prior(), SCHED, phantom)
    assert traces[-1].data_residual <= traces[0].data_residual


# ---------------------------------------------------------------- dds

def test_dds_gamma_zero_full_view_reaches_least_squares():
    # All views kept, no noise, gamma = 0 and a vanishing quadratic
    # penalty: the CG solve reduces to plain least squares, whose
    # residual is zero for consistent measurements.
    op, phantom, y = small_problem(views=None)
    cfg = config(
        "dds", dds_gamma=0.0, dds_rho=1e-9, dds_admm_iters=1,
        cg_tol=1e-12, cg_max_iter=2000,
    )
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[0])
    x0 = sampler.dds_step(state, t, int(SCHED.sampling_steps[1]), resample=False)
    resid = np.sqrt(np.sum((op.forward(x0) - y) ** 2))
    # Normal-equation conditioning limits the reachable accuracy.
    assert resid <= 1e-5 * np.sqrt(np.sum(y**2))


def test_dds_huge_gamma_smooths_along_z():
    # gamma >> everything saturates z at zero, so a single ADMM iteration
    # already shrinks the slice-axis variation of the estimate.  Use the
    # last (nearly noiseless) time index where the denoised start is
    # speckled rather than the flat prior mean.
    op, _, y = small_problem(noise=0.05)
    cfg = config("dds", dds_gamma=1e9, dds_rho=5.0, dds_admm_iters=1)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[-1])
    before = sampler.prior.denoise(state.x, t)
    x0 = sampler.dds_step(state, t, 0, resample=False)
    assert l1_norm(dz_forward(x0)) < l1_norm(dz_forward(before))


def test_dds_zero_admm_iters_is_plain_denoising():
    op, _, y = small_problem()
    cfg = config("dds", dds_admm_iters=0)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    x_t = state.x.copy()
    t = int(SCHED.sampling_steps[0])
    x0 = sampler.dds_step(state, t, int(SCHED.sampling_steps[1]), resample=False)
    assert np.array_equal(x0, sampler.prior.denoise(x_t, t))


def test_dds_cg_nonconvergence_warns(caplog):
    op, _, y = small_problem(noise=0.05)
    cfg = config("dds", cg_tol=1e-15, cg_max_iter=1, dds_admm_iters=1)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    with caplog.at_level(logging.WARNING, logger="nerdct.samplers"):
        sampler.dds_step(state, 1000, 500, resample=False)
    assert any("CG stopped" in rec.message for rec in caplog.records)


# ----------------------------------------------------- exact inner solves

def dense_operator_matrix(op):
    n = op.nz * op.ny * op.nx
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(op.forward(e.reshape(op.nz, op.ny, op.nx)).ravel())
    return np.stack(cols, axis=1)


def dense_dz_matrix_3d(shape):
    nz, ny, nx = shape
    n = nz * ny * nx
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(dz_forward(e.reshape(shape)).ravel())
    return np.stack(cols, axis=1)


def test_exact_input_solve_matches_dense_solution():
    op, phantom, y = small_problem(noise=0.02)
    cfg = config("nerd-a", lam=0.3, lam_z=0.1, rho=1.5)
    sampler = Sampler(cfg, op, y, IdentityPrior(), SCHED)
    rng = Xoshiro256PP(13)
    shape = (NZ, NX, NX)
    x_t = rng.normal_array(shape)
    z = rng.normal_array(shape) * 0.1
    w = rng.normal_array(shape) * 0.1
    v = sampler._solve_input_exact(x_t, 500, z, w)

    amat = dense_operator_matrix(op)
    dmat = dense_dz_matrix_3d(shape)
    n = amat.shape[1]
    lhs = 2.0 * amat.T @ amat + 2.0 * cfg.lam * np.eye(n) + cfg.rho * dmat.T @ dmat
    rhs = 2.0 * amat.T @ y.ravel() + 2.0 * cfg.lam * x_t.ravel() + cfg.rho * dmat.T @ (z - w).ravel()
    expected = np.linalg.solve(lhs, rhs)
    assert np.allclose(v.ravel(), expected, atol=1e-7)


def test_exact_joint_solve_matches_dense_solution():
    op, phantom, y = small_problem(noise=0.02)
    cfg = config("nerd-p", lam=0.2, lam_couple=0.7, tau=0.05)
    sampler = Sampler(cfg, op, y, IdentityPrior(), SCHED)
    rng = Xoshiro256PP(14)
    shape = (NZ, NX, NX)
    x_t = rng.normal_array(shape)
    w_hat = rng.normal_array(shape) * 0.1
    v, w = sampler._solve_joint_exact(x_t, 500, w_hat)

    amat = dense_operator_matrix(op)
    n = amat.shape[1]
    eye = np.eye(n)
    lc, lam, tau = cfg.lam_couple, cfg.lam, cfg.tau
    top = np.hstack([2 * lc * eye + 2 * lam * eye, -2 * lc * eye])
    bottom = np.hstack([-2 * lc * eye, 2 * amat.T @ amat + eye / tau + 2 * lc * eye])
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([2 * lam * x_t.ravel(), 2 * amat.T @ y.ravel() + w_hat.ravel() / tau])
    expected = np.linalg.solve(lhs, rhs)
    assert np.allclose(v.ravel(), expected[:n], atol=1e-7)
    assert np.allclose(w.ravel(), expected[n:], atol=1e-7)


def test_exact_solves_require_linear_prior():
    op, _, y = small_problem()
    sampler = Sampler(config("nerd-a"), op, y, gmm_prior(), SCHED)
    shape = (NZ, NX, NX)
    zeros = np.zeros(shape)
    with pytest.raises(SamplerError):
        sampler._solve_input_exact(zeros, 500, zeros, zeros)
    sampler_p = Sampler(config("nerd-p"), op, y, gmm_prior(), SCHED)
    with pytest.raises(SamplerError):
        sampler_p._solve_joint_exact(zeros, 500, zeros)


# ------------------------------------------------------------ failures

def test_overflowing_inner_objective_raises():
    op, _, y = small_problem()
    cfg = config("sitcom", lr=1e200, inner_steps=3, lam=0.1)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    # The overflow surfaces as SamplerError alone, without a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SamplerError):
            sampler.sitcom_step(state, 1000, 500, resample=False)

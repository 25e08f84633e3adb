"""Sampler behavior: stream discipline, reductions, duals, and traces."""

import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerdct import (
    ConvDenoiserPrior,
    CTOperator,
    GmmScalarPrior,
    IdentityPrior,
    NoiseSchedule,
    Sampler,
    SamplerConfig,
    SamplerError,
    build_operator,
    build_prior,
    build_run_config,
    build_schedule,
    default_geometry,
    dz_adjoint,
    dz_forward,
    l1_norm,
    save_trace,
    shepp_logan_3d,
    soft_threshold,
    uniform_view_indices,
)
from nerdct.convnet import init_weights
from nerdct.optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, NonFiniteGradientError, cg_solve,
                          project_linf_ball)
from nerdct.rng import Xoshiro256PP
from nerdct.samplers import METHODS, PDHG_CG_STEPS, PDHG_ROUNDS, SamplerState
from nerdct.schedule import uniform_sampling_steps
from exact_inner import cg_oracle, solve_inner_exactly

SRC = Path(__file__).resolve().parent.parent / "src"
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
        marks[method] = sampler.rng._words(2).tolist()
    reference = Xoshiro256PP(5)
    reference._words((1 + 4) * numel)
    expected = reference._words(2).tolist()
    for method, got in marks.items():
        assert got == expected, method


def test_rerun_bit_identical():
    op, phantom, y = small_problem(noise=0.05)
    for method in ("sitcom", "nerd-a", "nerd-p", "dds"):
        cfg = config(method, seed=7)
        x1, tr1 = Sampler(cfg, op, y, gmm_prior(), SCHED, phantom).run()
        x2, tr2 = Sampler(config(method, seed=7), op, y, gmm_prior(), SCHED,
                          phantom).run()
        assert np.array_equal(x1, x2), method
        for a, b in zip(tr1, tr2):
            assert (a.data_residual, a.tv_z, a.psnr) == (b.data_residual, b.tv_z, b.psnr)


@pytest.mark.parametrize("prior", [gmm_prior(), IdentityPrior()], ids=["gmm", "identity"])
@pytest.mark.parametrize("method", METHODS)
def test_step_leaves_callers_x_t_unchanged(method, prior):
    # nerd-a's inner loop starts from a view of x_t, and the identity prior
    # returns its input, so an in-place write there would reach x_t.  With
    # one slice, or one voxel a slice, the column layout of x_t is a view
    # of x_t, and CG iterates in place in the start it is given.
    op, _, y = small_problem()
    cases = [(op, y)]
    for nz, nx in ((1, NX), (NZ, 1)):
        thin = CTOperator(nx, nx, nz, default_geometry(nx, 12), VIEWS)
        cases.append((thin, np.zeros(thin.sinogram_shape)))
    for op, y in cases:
        sampler = Sampler(config(method), op, y, prior, SCHED)
        state = sampler.initialize()
        x_t = state.x
        before = x_t.tobytes()
        sampler.step(state, 500, 500)
        assert x_t.tobytes() == before, x_t.shape


@pytest.mark.parametrize("method", METHODS)
def test_run_and_step_return_c_contiguous_volumes(method):
    # dds holds its iterates as transposed column arrays; library callers
    # still get a plain (nz, ny, nx) volume from both entry points.
    op = CTOperator(12, 12, 8, default_geometry(12, 12), uniform_view_indices(12, 4))
    y = op.forward(shepp_logan_3d(12, 12, 8))
    sampler = Sampler(config(method), op, y, gmm_prior(), SCHED)
    stepped = sampler.step(sampler.initialize(), 500, 500)
    recon, _ = Sampler(config(method), op, y, gmm_prior(), SCHED).run()
    for vol in (stepped, recon):
        assert vol.shape == (8, 12, 12) and vol.dtype == np.float64
        assert vol.flags.c_contiguous


# Warm-run traced peaks read 7.67, 10.67, 14.67 and 12.49 volumes; each
# bound sits about half a volume above its reading, dds's 0.7.
PEAK_VOLUMES = {"sitcom": 8.2, "nerd-a": 11.2, "nerd-p": 15.2, "dds": 13.2}


@pytest.mark.parametrize("method", METHODS)
def test_run_peak_memory(method, peak_traced_bytes):
    # The volume is the unit of a run's memory: a step holds its state,
    # the Adam moments and the gradient, and each temporary it has not yet
    # released.  The peak of a warm run (the prior's tables built) is read
    # in volumes of the 64x64x32 problem.
    nx, nz = 64, 32
    sched = NoiseSchedule.linear_beta(n_sampling_steps=3)
    op = CTOperator(nx, nx, nz, default_geometry(nx, 180), uniform_view_indices(180, 8))
    y = op.forward(shepp_logan_3d(nx, nx, nz))
    sampler = Sampler(config(method, n_steps=3), op, y, gmm_prior(sched), sched)
    sampler.run()
    peak, (x0, _) = peak_traced_bytes(sampler.run)
    assert peak / x0.nbytes <= PEAK_VOLUMES[method], peak / x0.nbytes


def test_single_step_single_trace():
    op, _, y = small_problem()
    cfg = config("nerd-p", n_steps=1)
    sched = NoiseSchedule.linear_beta(n_sampling_steps=1)
    _, traces = Sampler(cfg, op, y, gmm_prior(), sched).run()
    assert len(traces) == 1
    assert traces[0].step == 1
    assert traces[0].t_index == 1000


def test_trace_without_ground_truth_has_nan_psnr():
    op, _, y = small_problem()
    _, traces = Sampler(config("dds"), op, y, gmm_prior(), SCHED).run()
    assert all(np.isnan(rec.psnr) for rec in traces)
    assert all(np.isfinite(rec.data_residual) for rec in traces)
    assert all(np.isfinite(rec.tv_z) for rec in traces)


def test_schedule_step_count_must_match_n_steps(monkeypatch):
    # A schedule of another length is refused before the stream is seeded.
    def no_stream(seed):
        raise AssertionError("the sampler seeded its stream")

    monkeypatch.setattr("nerdct.samplers.Xoshiro256PP", no_stream)
    op, _, y = small_problem()
    with pytest.raises(ValueError,
                       match="schedule has 4 sampling steps, config n_steps is 6"):
        Sampler(config("sitcom", n_steps=6), op, y, gmm_prior(), SCHED)


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
    with pytest.raises(ValueError, match="dds needs rho > 0"):
        SamplerConfig(method="dds", rho=0.0).validate()
    with pytest.raises(ValueError, match="dds_admm_iters must be >= 0"):
        SamplerConfig(dds_admm_iters=-1).validate()
    with pytest.raises(ValueError, match="cg_max_iter must be >= 1"):
        SamplerConfig(cg_max_iter=0).validate()
    SamplerConfig(method="nerd-a", rho=0.0).validate()
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=bad).validate()
    SamplerConfig(seed=2**64 - 1).validate()
    # Non-finite floats: NaN slips past `x < 0`, inf past `not x > 0`.  A
    # bool passes both as 0 or 1; a string or None fails them with TypeError.
    # An int past the float range passes both and overflows mid-run.
    for name in ("lam", "lam_z", "rho", "lam_couple", "tau", "sigma", "lr"):
        for bad in (float("nan"), float("inf"), float("-inf"), True, "0.1", None,
                    10**400, -10**400):
            with pytest.raises(ValueError, match=name):
                SamplerConfig(**{name: bad}).validate()


@pytest.mark.parametrize("name, bad", [
    ("n_steps", True), ("seed", True), ("inner_steps", 2.5),
    ("dds_admm_iters", 1.5), ("cg_max_iter", 2.5), ("n_steps", np.float64(3.0)),
])
def test_integer_fields_take_only_integers(name, bad):
    # A bool would run as 1 (one step, seed 1); a float count fails mid-run.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SamplerConfig(**{name: bad}).validate()
    SamplerConfig(**{name: np.int64(3)}).validate()


def test_ground_truth_shape_validated():
    # Refused when the sampler is built, not by psnr after the first step.
    op, phantom, y = small_problem()
    with pytest.raises(ValueError, match="ground truth"):
        Sampler(config("dds"), op, y, gmm_prior(), SCHED, phantom[1:])


@pytest.mark.parametrize("num_train_steps, beta_end", [(1000, 0.04), (500, 0.02)],
                         ids=["beta_end", "num_train_steps"])
def test_prior_schedule_alpha_bar_must_match(num_train_steps, beta_end):
    # The prior would denoise with one alpha_bar and _resample re-noise with
    # another: here a linear beta ramp other than DDPM's.
    betas = np.linspace(1e-4, beta_end, num_train_steps)
    sched = NoiseSchedule(np.concatenate([[1.0], np.cumprod(1.0 - betas)]),
                          uniform_sampling_steps(num_train_steps, 4))
    op, _, y = small_problem()
    with pytest.raises(ValueError, match="alpha_bar"):
        Sampler(config("dds"), op, y, gmm_prior(), sched)
    # The sampling steps may differ: the prior reads only alpha_bar.
    coarse = NoiseSchedule.linear_beta(n_sampling_steps=2)
    Sampler(config("dds"), op, y, gmm_prior(coarse), SCHED)


def test_save_trace_format(tmp_path):
    op, phantom, y = small_problem()
    _, traces = Sampler(config("nerd-p"), op, y, gmm_prior(), SCHED, phantom).run()
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

def test_sitcom_ignores_admm_settings():
    # sitcom runs the nerd-a estimator with rho = 0, whatever rho and lam_z say.
    op, phantom, y = small_problem(noise=0.05)
    x_d, tr_d = Sampler(config("sitcom", seed=4), op, y, gmm_prior(), SCHED,
                        phantom).run()
    x_s, tr_s = Sampler(config("sitcom", seed=4, rho=5.0, lam_z=0.3), op, y,
                        gmm_prior(), SCHED, phantom).run()
    assert x_d.tobytes() == x_s.tobytes()
    for a, b in zip(tr_d, tr_s):
        assert (a.step, a.t_index, a.data_residual, a.tv_z, a.psnr) == (
            b.step, b.t_index, b.data_residual, b.tv_z, b.psnr)


def test_sitcom_huge_anchor_freezes_input():
    # lam >> data term: v cannot move from x_t, so x0 ~= f(x_t).
    op, _, y = small_problem()
    cfg = config("sitcom", lam=1e9, lr=1e-4, inner_steps=5)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    x_t = state.x.copy()
    t = int(SCHED.sampling_steps[0])
    sampler.step(state, t, int(SCHED.sampling_steps[1]))
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
        sampler.step(state, int(t), t_next)
        losses = state.inner_losses
        first = np.mean(losses[: len(losses) // 2])
        second = np.mean(losses[len(losses) // 2 :])
        assert second <= first * (1.0 + 1e-9)


# ------------------------------------------------------------- nerd-a

def test_nerd_a_rho_zero_bit_identical_to_sitcom():
    op, phantom, y = small_problem(noise=0.05)
    x_s, tr_s = Sampler(config("sitcom", seed=11), op, y, gmm_prior(), SCHED,
                        phantom).run()
    x_a, tr_a = Sampler(
        config("nerd-a", seed=11, rho=0.0, lam_z=0.0), op, y, gmm_prior(), SCHED, phantom
    ).run()
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
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[1]))
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
    sampler.step(state, int(steps[0]), int(steps[1]))
    z_after_first = state.z.copy()
    sampler.step(state, int(steps[1]), int(steps[2]))
    # Second step reuses, not resets: the dual cannot be the first-step
    # value recomputed from scratch unless the constraint is exactly met.
    assert not np.array_equal(state.z, z_after_first) or np.all(state.z == 0.0)


# ------------------------------------------------------------- nerd-p

def test_nerd_p_dual_update_reads_extrapolated_point():
    # u <- proj(u + sigma lam_z Dz(2 w_new - w)), with the ball not binding
    # everywhere so that the projection does not hide the argument.
    op, _, y = small_problem(noise=0.05)
    cfg = config("nerd-p", sigma=20.0, lam_z=0.3)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    steps = SCHED.sampling_steps
    for i in range(2):
        u_before, w_before = state.u.copy(), state.w.copy()
        sampler.step(state, int(steps[i]), int(steps[i + 1]))
        w_bar = 2.0 * state.w - w_before
        expected = project_linf_ball(u_before + cfg.sigma * cfg.lam_z * dz_forward(w_bar))
        assert np.array_equal(state.u, expected), i
        inside = np.abs(state.u) < 1.0
        assert np.any(inside & (state.u != 0.0)), i


def test_nerd_p_dual_feasible_every_step():
    op, phantom, y = small_problem(noise=0.05)
    cfg = config("nerd-p", sigma=50.0, n_steps=6)
    sched = NoiseSchedule.linear_beta(n_sampling_steps=6)
    sampler = Sampler(cfg, op, y, gmm_prior(), sched)
    state = sampler.initialize()
    steps = sampler.schedule.sampling_steps
    saw_active_dual = False
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        sampler.step(state, int(t), t_next)
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
        sampler.step(state, int(SCHED.sampling_steps[0]), 0)


def test_nerd_p_lam_z_zero_keeps_dual_silent():
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config("nerd-p", lam_z=0.0), op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    steps = SCHED.sampling_steps
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        sampler.step(state, int(t), t_next)
        assert np.all(state.u == 0.0)


def test_nerd_p_takes_one_prior_pair_per_v(monkeypatch):
    # K Adam updates reach K + 1 iterates of v; the pair made at a round's
    # end serves the CG rhs, the next round's first update and the estimate.
    op, _, y = small_problem(noise=0.05)
    prior = gmm_prior()
    sampler = Sampler(config("nerd-p", inner_steps=5), op, y, prior, SCHED)
    state = sampler.initialize()
    calls = []
    fused = prior.denoise_and_vjp
    monkeypatch.setattr(prior, "denoise_and_vjp", lambda v, t: calls.append(t) or fused(v, t))
    sampler.step(state, 500, 250)
    assert calls == [500] * 6


def test_nerd_p_cg_breakdown_on_nan_operator(monkeypatch):
    # The w block's CG flags the NaN curvature as dds's does.
    nan_forward_step(monkeypatch, "nerd-p", gmm_prior())


def test_nerd_p_data_residual_improves():
    op, phantom, y = small_problem(noise=0.05)
    cfg = config("nerd-p", n_steps=8, inner_steps=10, lr=0.02)
    sched = NoiseSchedule.linear_beta(n_sampling_steps=8)
    _, traces = Sampler(cfg, op, y, gmm_prior(), sched, phantom).run()
    assert traces[-1].data_residual <= traces[0].data_residual


# ---------------------------------------------------------------- dds

def test_dds_lam_z_zero_full_view_reaches_least_squares():
    # All views kept, no noise, l1 weight lam_z = 0 and a vanishing
    # quadratic penalty: 2000 CG steps solve plain least squares, whose
    # residual is zero for consistent measurements.
    op, phantom, y = small_problem(views=range(12))
    cfg = config("dds", lam_z=0.0, rho=1e-9, dds_admm_iters=1, cg_max_iter=2000)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[0])
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[1]))
    resid = np.sqrt(np.sum((op.forward(x0) - y) ** 2))
    # Normal-equation conditioning limits the reachable accuracy.
    assert resid <= 1e-5 * np.sqrt(np.sum(y**2))


def test_dds_huge_lam_z_smooths_along_z():
    # lam_z >> everything saturates z at zero, so a single ADMM
    # iteration already shrinks the slice-axis variation of the estimate.
    # Use the last (nearly noiseless) time index where the denoised start
    # is speckled rather than the flat prior mean.
    op, _, y = small_problem(noise=0.05)
    cfg = config("dds", lam_z=1e9, rho=5.0, dds_admm_iters=1)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[-1])
    before = sampler.prior.denoise(state.x, t)
    x0 = sampler.step(state, t, 0)
    assert l1_norm(dz_forward(x0)) < l1_norm(dz_forward(before))


def test_dds_zero_admm_iters_is_plain_denoising():
    op, _, y = small_problem()
    cfg = config("dds", dds_admm_iters=0)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    x_t = state.x.copy()
    t = int(SCHED.sampling_steps[0])
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[1]))
    assert np.array_equal(x0, sampler.prior.denoise(x_t, t))


def dds_reference(sampler, state, t, solve):
    """dds's clean estimate at t, out of place, with `solve(x, z, w)` as the
    x-update of each ADMM iteration."""
    cfg = sampler.config
    x = sampler.prior.denoise(state.x, t)
    z = w = np.zeros_like(x)
    for _ in range(cfg.dds_admm_iters):
        x = solve(x, z, w)
        dz_x = dz_forward(x)
        z = soft_threshold(dz_x + w, cfg.lam_z / cfg.rho)
        w = w + dz_x - z
    return x


def column_solve(op, y, cfg):
    """The halved normal equation (A^T A + (rho/2) Dz^T Dz) x = A^T y
    + (rho/2) Dz^T (z - w) in (ny*nx, nz) columns, out of place, with
    Dz's flat difference and shift, solved by cg_oracle."""
    nz, half_rho = op.nz, 0.5 * cfg.rho

    def columns(vol):
        return np.ascontiguousarray(vol.reshape(nz, -1).T)

    def apply_op(v):
        flat = v.ravel()
        d = np.concatenate((flat[1:] - flat[:-1], [0.0])).reshape(v.shape)
        d[:, -1] = 0.0
        d = half_rho * d
        out = (columns(op.adjoint(op.forward(v.T.reshape(nz, op.ny, op.nx))))
               - d).ravel()
        out = np.concatenate((out[:1], out[1:] + d.ravel()[:-1]))
        return out.reshape(v.shape)

    def solve(x, z, w):
        rhs = columns(half_rho * dz_adjoint(z - w)) + columns(op.adjoint(y))
        cols = cg_oracle(apply_op, rhs, 0.0, cfg.cg_max_iter, columns(x)).x
        return np.ascontiguousarray(cols.T).reshape(x.shape)

    return solve


def volume_solve(op, y, cfg):
    """The parent formulation: (2 A^T A + rho Dz^T Dz) x = 2 A^T y
    + rho Dz^T (z - w) in the volume layout, solved by cg_oracle."""
    rho = cfg.rho

    def apply_op(v):
        return 2.0 * op.adjoint(op.forward(v)) + rho * dz_adjoint(dz_forward(v))

    def solve(x, z, w):
        rhs = 2.0 * op.adjoint(y) + rho * dz_adjoint(z - w)
        return cg_oracle(apply_op, rhs, 0.0, cfg.cg_max_iter, x).x

    return solve


def test_dds_step_matches_out_of_place_oracle():
    # The normal operator runs in column buffers and CG updates in place;
    # one step must keep the bits of the out-of-place halved system in
    # columns solved by the out-of-place CG recursion.
    op, _, y = small_problem(noise=0.05)
    cfg = config("dds", lam_z=0.02, rho=2.0, dds_admm_iters=3, cg_max_iter=8)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[1])
    x = dds_reference(sampler, state, t, column_solve(op, y, cfg))
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[2]))
    assert x0.tobytes() == x.tobytes()


@pytest.mark.parametrize("nz", [1, 2, 5])
def test_dds_step_matches_volume_layout_formulation(nz):
    # Halving the system and permuting its unknowns into columns leave CG's
    # iterates unchanged in exact arithmetic, so one step must agree with
    # the volume-layout system 2 A^T A + rho Dz^T Dz to rounding.  nz = 1
    # makes Dz zero and every flat shift a column boundary.  This tiny
    # system is singular, and CG amplifies rounding after a few steps (a
    # one-ulp change of the rhs moves x by about 1e-11 at 8 steps, nz = 2),
    # so the step runs 5 CG steps, where that change moves it by < 1e-14.
    op = CTOperator(NX, NX, nz, GEOM, VIEWS)
    y = op.forward(shepp_logan_3d(NX, NX, 8)[:nz])
    y = y + 0.05 * Xoshiro256PP(1234).normal_array(y.shape)
    cfg = config("dds", lam_z=0.02, rho=2.0, dds_admm_iters=3, cg_max_iter=5)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[1])
    x = dds_reference(sampler, state, t, volume_solve(op, y, cfg))
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[2]))
    assert np.linalg.norm(x0 - x) <= 1e-12 * np.linalg.norm(x)


# A 2-step dds run on 64x64x16, where each reduction spans 65,536 voxels:
# long enough for BLAS to split a dot across threads.  Prints the sha256 of
# x0 and the trace rows without wall_ms.
BLAS_THREADS_RUN = """
import hashlib, json
from dataclasses import astuple
from nerdct import (CTOperator, GmmScalarPrior, NoiseSchedule, Sampler, SamplerConfig,
                    default_geometry, shepp_logan_3d, uniform_view_indices)
op = CTOperator(64, 64, 16, default_geometry(64, 180), uniform_view_indices(180, 8))
phantom = shepp_logan_3d(64, 64, 16)
sched = NoiseSchedule.linear_beta(n_sampling_steps=2)
prior = GmmScalarPrior(sched, [0.8, 0.15, 0.05], [0.0, 0.2, 1.0], [0.05, 0.05, 0.05])
config = SamplerConfig(method="dds", n_steps=2)
x0, traces = Sampler(config, op, op.forward(phantom), prior, sched, phantom).run()
print(json.dumps([hashlib.sha256(x0.tobytes()).hexdigest(),
                  [astuple(record)[:-1] for record in traces]]))
"""


def test_dds_bits_do_not_depend_on_blas_threads():
    # CG's and the loss's sums reduce in one order whatever the thread count.
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_dds_cg_runs_its_fixed_budget_silently(caplog, monkeypatch):
    # The CG step count is the dds regulariser: every solve runs exactly
    # cg_max_iter iterations, and running out of them is not worth a log line.
    iterations = []

    def counting_cg(*args, **kwargs):
        result = cg_solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr("nerdct.samplers.cg_solve", counting_cg)
    op, _, y = small_problem(noise=0.05)
    cfg = config("dds", cg_max_iter=3, dds_admm_iters=5)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    with caplog.at_level(logging.DEBUG, logger="nerdct"):
        sampler.step(state, 1000, 500)
        sampler.step(state, 500, 250)
    assert iterations == [3] * 10
    assert caplog.records == []


def nan_forward_step(monkeypatch, method, prior):
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config(method, dds_admm_iters=1), op, y, prior, SCHED)
    state = sampler.initialize()
    # dds's normal solve runs the column product, the rest the volume one.
    for name in ("forward", "forward_columns"):
        monkeypatch.setattr(op, name, lambda vol: np.full(op.sinogram_shape, np.nan))
    with pytest.raises(SamplerError, match="CG breakdown"):
        sampler.step(state, 1000, 500)


def test_dds_cg_breakdown_on_nan_operator(monkeypatch):
    # NaN curvature is a breakdown, not a silent unconverged solve.
    nan_forward_step(monkeypatch, "dds", gmm_prior())


@pytest.mark.parametrize("method, tau, sigma, lam_z, warns", [
    ("nerd-p", 0.01, 20.0, 0.05, False),  # the pins: 0.0019
    ("nerd-p", 0.26, 1.0, 1.0, True),     # 1.0004, just above 1
    ("nerd-p", 0.5, 1.0, 1.0, True),
    ("nerd-a", 0.5, 1.0, 1.0, False),     # no PDHG steps
    ("nerd-a", 0.01, 0.05, 1e160, False), # lam_z^2 overflows a float
    ("nerd-p", 0.01, 0.05, 1e160, True),
])
def test_pdhg_step_size_condition_logged(caplog, method, tau, sigma, lam_z, warns):
    # Chambolle-Pock needs tau * sigma * lam_z^2 * ||Dz||^2 < 1; at NZ = 8,
    # ||Dz||^2 = 2 + 2 cos(pi / 8) = 3.85.
    op, _, y = small_problem()
    cfg = config(method, tau=tau, sigma=sigma, lam_z=lam_z)
    with caplog.at_level(logging.WARNING, logger="nerdct.samplers"):
        Sampler(cfg, op, y, gmm_prior(), SCHED)
    assert any("Chambolle-Pock" in rec.message for rec in caplog.records) == warns


def chambolle_pock_warnings(caplog, nz, **kw):
    op = CTOperator(NX, NX, nz, GEOM, VIEWS)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="nerdct.samplers"):
        Sampler(config("nerd-p", **kw), op, np.zeros(op.sinogram_shape),
                gmm_prior(), SCHED)
    return [rec for rec in caplog.records if "Chambolle-Pock" in rec.message]


def test_pdhg_step_size_condition_uses_exact_dz_norm(caplog):
    # With tau = sigma = lam_z = 1 the logged product is ||Dz||^2, the
    # largest eigenvalue of the dense Dz^T Dz; at nz = 1 it is 0.
    for nz in range(1, 13):
        dmat = dense_dz_matrix_3d((nz, 1, 1))
        expected = np.linalg.eigvalsh(dmat.T @ dmat)[-1]
        logged = chambolle_pock_warnings(caplog, nz, tau=1.0, sigma=1.0, lam_z=1.0)
        if nz == 1:
            assert logged == [] and abs(expected) <= 1e-12
        else:
            (rec,) = logged
            assert abs(rec.args[0] - expected) <= 1e-12, (nz, rec.args[0], expected)
            assert "||Dz||^2" in rec.getMessage()
    # Criterion 5's nerd-p settings give 0.956 < 1 at nz = 4, so they must not warn.
    assert chambolle_pock_warnings(caplog, 4, tau=1.0, sigma=28.0, lam_z=0.1) == []
    # The condition is strict: at nz = 2, where ||Dz||^2 rounds to 2 - 2**-52,
    # this tau makes the product exactly 1, which must warn.
    (rec,) = chambolle_pock_warnings(caplog, 2, tau=0.5000000000000001, sigma=1.0,
                                     lam_z=1.0)
    assert rec.args[0] == 1.0


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


def exact_step(sampler, state):
    return solve_inner_exactly(sampler).step(state, 500, 500)


def test_exact_input_solve_matches_dense_solution():
    op, phantom, y = small_problem(noise=0.02)
    cfg = config("nerd-a", lam=0.3, lam_z=0.1, rho=1.5)
    sampler = Sampler(cfg, op, y, IdentityPrior(), SCHED)
    rng = Xoshiro256PP(13)
    shape = (NZ, NX, NX)
    x_t = rng.normal_array(shape)
    z = rng.normal_array(shape) * 0.1
    w = rng.normal_array(shape) * 0.1
    v = exact_step(sampler, SamplerState(x=x_t, z=z, w_dual=w))

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
    # With u = 0 the step's w_hat is the current w.
    state = SamplerState(x=x_t, w=w_hat, u=np.zeros(shape))
    v = exact_step(sampler, state)
    w = state.w

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


def test_exact_joint_solve_ignores_rho():
    # nerd-p runs no ADMM split, so its exact solve reads no rho.
    op, _, y = small_problem(noise=0.02)
    outputs = []
    for kw in ({}, {"rho": 5.0}):
        sampler = Sampler(config("nerd-p", **kw), op, y, IdentityPrior(), SCHED)
        state = sampler.initialize()
        x0 = exact_step(sampler, state)
        outputs.append((x0.tobytes(), state.w.tobytes(), state.u.tobytes()))
    assert outputs[0] == outputs[1]


def test_exact_joint_solve_without_anchor_or_coupling_keeps_input():
    # lam = lam' = 0 leaves v free; the solve keeps it at x_t, and w is
    # still the finite minimizer of the data and proximal terms.
    op, _, y = small_problem(noise=0.02)
    sampler = Sampler(config("nerd-p", lam=0.0, lam_couple=0.0), op, y,
                      IdentityPrior(), SCHED)
    state = sampler.initialize()
    x_t = state.x.copy()
    x0 = exact_step(sampler, state)
    assert np.array_equal(x0, x_t)
    assert np.all(np.isfinite(state.w))


# ------------------------------------------------------ one-step oracles
# One Sampler.step of each method on a 6x6x4, 3-view problem, against the
# docstring equations written out in dense NumPy: the operator and Dz as
# matrices, the textbook Adam recursion and out-of-place CG.

ORACLE_SHAPE = (4, 6, 6)
ORACLE_T, ORACLE_T_NEXT = 500, 250


def oracle_problem():
    nz, ny, nx = ORACLE_SHAPE
    op = CTOperator(nx, ny, nz, default_geometry(nx, 12), uniform_view_indices(12, 3))
    truth = np.zeros(ORACLE_SHAPE)
    truth[1:3, 2:5, 1:4] = 1.0
    y = op.forward(truth) + 0.05 * Xoshiro256PP(31).normal_array(op.sinogram_shape)
    return op, y, dense_operator_matrix(op), dense_dz_matrix_3d(ORACLE_SHAPE)


def adam_reference(v, gradient, lr, steps, moments):
    """`steps` textbook Adam updates from v that continue `moments` (m, s, k)."""
    m, s, k = moments
    for _ in range(steps):
        g = gradient(v)
        k += 1
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        s = ADAM_BETA2 * s + (1.0 - ADAM_BETA2) * g * g
        v = v - lr * (m / (1.0 - ADAM_BETA1**k)) / (np.sqrt(s / (1.0 - ADAM_BETA2**k))
                                                    + ADAM_EPS)
    return v, (m, s, k)


def renoise_reference(cfg, x0):
    """x_{t_next} = sqrt(a) x0 + sqrt(1 - a) eta, eta the stream's first draw."""
    a = SCHED.alpha_bar[ORACLE_T_NEXT]
    eta = Xoshiro256PP(cfg.seed).normal_array(x0.shape)
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eta


def admm_reference(prior, amat, dmat, y, cfg, x_t, z, w):
    """sitcom / nerd-a: Adam on ||A f(v) - y||^2 + lam ||v - x_t||^2
    + (rho/2) ||Dz f(v) - z + w||^2, x0 = f(v), then the z and dual steps."""
    rho = cfg.rho if cfg.method == "nerd-a" else 0.0

    def gradient(v):
        x0, vjp = prior.denoise_and_vjp(v, ORACLE_T)
        cot = 2.0 * amat.T @ (amat @ x0.ravel() - y.ravel())
        if rho:
            cot = cot + rho * dmat.T @ (dmat @ x0.ravel() - z.ravel() + w.ravel())
        return vjp(cot.reshape(v.shape)) + 2.0 * cfg.lam * (v - x_t)

    zero = np.zeros_like(x_t)
    v, _ = adam_reference(x_t, gradient, cfg.lr, cfg.inner_steps, (zero, zero, 0))
    x0 = prior.denoise(v, ORACLE_T)
    if rho:
        target = (dmat @ x0.ravel() + w.ravel()).reshape(x0.shape)
        z_new = np.sign(target) * np.maximum(np.abs(target) - cfg.lam_z / rho, 0.0)
        w = w + (dmat @ x0.ravel()).reshape(x0.shape) - z_new
        z = z_new
    return x0, z, w


def pdhg_reference(prior, amat, dmat, y, cfg, x_t, w, u):
    """nerd-p: w_hat = w - tau lam_z Dz^T u; rounds of Adam on
    lam ||v - x_t||^2 + lam' ||f(v) - w||^2, each followed by CG on
    (A^T A + (1/(2 tau) + lam') I) w = A^T y + w_hat/(2 tau) + lam' f(v)
    from the last w; then w_bar = 2 w_new - w and the projected dual ascent."""
    n = x_t.size
    w_hat = w.ravel() - cfg.tau * cfg.lam_z * dmat.T @ u.ravel()
    hmat = amat.T @ amat + (0.5 / cfg.tau + cfg.lam_couple) * np.eye(n)
    base = amat.T @ y.ravel() + w_hat / (2.0 * cfg.tau)
    zero = np.zeros_like(x_t)
    v, w_new, moments = x_t, w_hat, (zero, zero, 0)
    for r in range(PDHG_ROUNDS):
        def gradient(v):
            x0, vjp = prior.denoise_and_vjp(v, ORACLE_T)
            return (2.0 * cfg.lam_couple * vjp(x0 - w_new.reshape(x0.shape))
                    + 2.0 * cfg.lam * (v - x_t))

        steps = cfg.inner_steps // PDHG_ROUNDS + (r < cfg.inner_steps % PDHG_ROUNDS)
        v, moments = adam_reference(v, gradient, cfg.lr, steps, moments)
        rhs = base + cfg.lam_couple * prior.denoise(v, ORACLE_T).ravel()
        w_new = cg_oracle(lambda d: hmat @ d, rhs, 0.0, PDHG_CG_STEPS, w_new).x
    w_bar = 2.0 * w_new - w.ravel()
    u = np.clip(u.ravel() + cfg.sigma * cfg.lam_z * dmat @ w_bar, -1.0, 1.0)
    return prior.denoise(v, ORACLE_T), w_new.reshape(x_t.shape), u.reshape(x_t.shape)


def dds_dense_reference(prior, amat, dmat, y, cfg, x_t):
    """dds: x = f(x_t), then ADMM iterations from z = w = 0, each
    cg_max_iter CG steps from the last x on (A^T A + (rho/2) Dz^T Dz) x
    = A^T y + (rho/2) Dz^T (z - w), then z = soft(Dz x + w, lam_z/rho) and
    w = w + Dz x - z.  Returns x and the last z."""
    hmat = amat.T @ amat + 0.5 * cfg.rho * dmat.T @ dmat
    x = prior.denoise(x_t, ORACLE_T).ravel()
    z = w = np.zeros_like(x)
    for _ in range(cfg.dds_admm_iters):
        rhs = amat.T @ y.ravel() + 0.5 * cfg.rho * dmat.T @ (z - w)
        x = cg_oracle(lambda d: hmat @ d, rhs, 0.0, cfg.cg_max_iter, x).x
        target = dmat @ x + w
        z = np.sign(target) * np.maximum(np.abs(target) - cfg.lam_z / cfg.rho, 0.0)
        w = target - z
    return x.reshape(x_t.shape), z


def assert_close(got, expected, name):
    assert np.max(np.abs(got - expected)) <= 1e-12, (name, np.max(np.abs(got - expected)))


ORACLE_PRIORS = pytest.mark.parametrize(
    "prior", [IdentityPrior(), gmm_prior()], ids=["identity", "gmm"])


@ORACLE_PRIORS
@pytest.mark.parametrize("method", ["sitcom", "nerd-a"])
def test_admm_step_matches_dense_reference(method, prior):
    # Covers the anchor, the split update with its dual step, and the re-noise.
    op, y, amat, dmat = oracle_problem()
    cfg = config(method, lam=0.5, lam_z=0.1, rho=2.0, inner_steps=4, lr=0.02, seed=3)
    rng = Xoshiro256PP(41)
    x_t, z, w = (rng.normal_array(ORACLE_SHAPE) * scale for scale in (1.0, 0.1, 0.1))
    x0, z_new, w_new = admm_reference(prior, amat, dmat, y, cfg, x_t, z, w)
    state = SamplerState(x=x_t.copy(), z=z.copy(), w_dual=w.copy())
    got = Sampler(cfg, op, y, prior, SCHED).step(state, ORACLE_T, ORACLE_T_NEXT)
    assert_close(got, x0, "x0")
    assert_close(state.x, renoise_reference(cfg, x0), "x_next")
    if method == "nerd-a":
        assert np.count_nonzero(z_new) and np.count_nonzero(z_new == 0.0)
        assert_close(state.z, z_new, "z")
        assert_close(state.w_dual, w_new, "w_dual")


@ORACLE_PRIORS
def test_pdhg_step_matches_dense_reference(prior):
    # Covers w_hat, the Adam rounds on v, the w block's CG, w_bar, the dual
    # ascent and the re-noise; the ball binds on some entries, not all.
    op, y, amat, dmat = oracle_problem()
    cfg = config("nerd-p", lam=0.3, lam_z=0.3, lam_couple=0.7, tau=0.05, sigma=2.0,
                 inner_steps=5, lr=0.02, seed=3)
    rng = Xoshiro256PP(42)
    x_t, w = rng.normal_array(ORACLE_SHAPE), 0.1 * rng.normal_array(ORACLE_SHAPE)
    u = 0.9 * (2.0 * rng.uniforms(x_t.size).reshape(ORACLE_SHAPE) - 1.0)
    x0, w_new, u_new = pdhg_reference(prior, amat, dmat, y, cfg, x_t, w, u)
    assert np.count_nonzero(np.abs(u_new) == 1.0) and np.count_nonzero(np.abs(u_new) < 1.0)
    state = SamplerState(x=x_t.copy(), w=w.copy(), u=u.copy())
    got = Sampler(cfg, op, y, prior, SCHED).step(state, ORACLE_T, ORACLE_T_NEXT)
    assert_close(got, x0, "x0")
    assert_close(state.w, w_new, "w")
    assert_close(state.u, u_new, "u")
    assert_close(state.x, renoise_reference(cfg, x0), "x_next")


@ORACLE_PRIORS
def test_dds_step_matches_dense_reference(prior):
    # Covers the denoise, the x-update's CG on the halved normal equation
    # with Dz as a matrix, the split update and the re-noise; the threshold
    # binds on some entries, not all.  A few CG steps keep the dense
    # recursion within 1e-12 of the column one.
    op, y, amat, dmat = oracle_problem()
    cfg = config("dds", lam_z=0.1, rho=2.0, dds_admm_iters=2, cg_max_iter=3, seed=3)
    x_t = Xoshiro256PP(43).normal_array(ORACLE_SHAPE)
    x0, z = dds_dense_reference(prior, amat, dmat, y, cfg, x_t)
    assert np.count_nonzero(z) and np.count_nonzero(z == 0.0)
    state = SamplerState(x=x_t.copy())
    got = Sampler(cfg, op, y, prior, SCHED).step(state, ORACLE_T, ORACLE_T_NEXT)
    assert_close(got, x0, "x0")
    assert_close(state.x, renoise_reference(cfg, x0), "x_next")


# ----------------------------------------------------- inner gradients

@pytest.mark.parametrize("method, kw", [
    ("sitcom", {}),
    ("nerd-a", {"rho": 1.5, "lam_z": 0.1}),
    ("nerd-p", {}),
])
def test_inner_gradient_matches_finite_differences(method, kw):
    # The GMM prior is not affine, so a gradient that skips its VJP shows
    # here; with the identity prior it would pass unnoticed.
    op, _, y = small_problem(noise=0.05)
    sampler = Sampler(config(method, **kw), op, y, gmm_prior(), SCHED)
    rng = Xoshiro256PP(21)
    slopes = []

    def check_terms(adam, steps, v, x_t, t, terms, what):
        direction = rng.normal_array(v.shape)
        slope = float(np.vdot(terms(v)[1], direction))
        eps = 1e-5
        central = (terms(v + eps * direction)[0]
                   - terms(v - eps * direction)[0]) / (2.0 * eps)
        slopes.append((slope, central))
        return v, []

    sampler._optimize = check_terms
    sampler.step(sampler.initialize(), 500, 500)
    # nerd-p hands each of its rounds' v updates the coupling at that round's w.
    assert len(slopes) == (PDHG_ROUNDS if method == "nerd-p" else 1)
    for slope, central in slopes:
        assert abs(slope - central) <= 1e-6 * abs(slope), (slope, central)


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
            sampler.step(state, 1000, 500)


def test_non_finite_clean_estimate_raises():
    # Adam's first step at lr 5.7e299 moves v to about +-5.7e299, where the
    # default GMM prior returns NaN without a floating-point warning; run
    # must raise, not return the NaN estimate.
    cfg = build_run_config({}, {
        "nx": "12", "nz": "8", "n_angles_full": "30", "n_views": "6",
        "method": "sitcom", "n_steps": "1", "inner_steps": "1", "lam": "0",
        "lr": "5.7e299"})
    op, schedule = build_operator(cfg), build_schedule(cfg)
    sampler = Sampler(cfg, op, op.forward(shepp_logan_3d(12, 12, 8)),
                      build_prior(cfg, schedule), schedule)
    with pytest.raises(SamplerError, match="sitcom estimate at t=1000: 1152 non-finite"):
        sampler.run()


FUZZ_OP = CTOperator(12, 12, 8, default_geometry(12, 12), uniform_view_indices(12, 4))
FUZZ_PHANTOM = shepp_logan_3d(12, 12, 8)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e300)
POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@settings(max_examples=60)
@given(method=st.sampled_from(METHODS), prior=st.sampled_from(("identity", "gmm", "conv")),
       floats=st.fixed_dictionaries({
           **dict.fromkeys(("lam", "lam_z", "rho", "lam_couple"), NON_NEGATIVE),
           **dict.fromkeys(("tau", "sigma", "lr"), POSITIVE)}),
       counts=st.fixed_dictionaries({
           "n_steps": st.integers(1, 3), "inner_steps": st.integers(1, 4),
           "dds_admm_iters": st.integers(0, 2), "cg_max_iter": st.integers(1, 3),
           "seed": st.integers(0, 2**64 - 1)}))
def test_run_ends_finite_or_raises_a_typed_error(method, prior, floats, counts):
    # Extreme but finite settings: a library run returns a finite volume and
    # trace or raises one of the errors a caller can catch, never a NumPy
    # RuntimeWarning (here an error) or a non-finite result.  Untrained conv
    # weights are enough for that.
    sched = NoiseSchedule.linear_beta(n_sampling_steps=counts["n_steps"])
    prior = {"identity": IdentityPrior, "gmm": lambda: gmm_prior(sched),
             "conv": lambda: ConvDenoiserPrior(sched, init_weights(counts["seed"]))}[prior]()
    cfg = SamplerConfig(method=method, **floats, **counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sampler = Sampler(cfg, FUZZ_OP, FUZZ_OP.forward(FUZZ_PHANTOM), prior, sched,
                              FUZZ_PHANTOM)
            x0, traces = sampler.run()
        except (SamplerError, NonFiniteGradientError, ValueError, FloatingPointError):
            return
    assert np.all(np.isfinite(x0))
    assert all(np.isfinite([rec.data_residual, rec.tv_z, rec.psnr]).all() for rec in traces)

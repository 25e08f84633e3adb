"""Sampler behavior: stream discipline, reductions, duals, and traces."""

import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    dz_adjoint,
    dz_forward,
    l1_norm,
    save_trace,
    shepp_logan_3d,
    soft_threshold,
    uniform_view_indices,
)
from nerdct.optim import cg_solve
from nerdct.rng import Xoshiro256PP
from nerdct.samplers import METHODS, SamplerState
from exact_inner import solve_inner_exactly
from test_optim import cg_oracle

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
    # returns its input, so an in-place write there would reach x_t.
    op, _, y = small_problem()
    sampler = Sampler(config(method), op, y, prior, SCHED)
    state = sampler.initialize()
    x_t = state.x
    before = x_t.tobytes()
    sampler.step(state, 500, 500)
    assert x_t.tobytes() == before


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
    SamplerConfig(method="nerd-a", rho=0.0).validate()
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=bad).validate()
    SamplerConfig(seed=2**64 - 1).validate()
    # Non-finite floats: NaN slips past `x < 0`, inf past `not x > 0`.
    for name in ("lam", "lam_z", "rho", "lam_couple", "tau", "sigma", "lr"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                SamplerConfig(**{name: bad}).validate()


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
    op, phantom, y = small_problem(views=None)
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


def test_dds_step_matches_out_of_place_oracle():
    # The normal operator runs into per-step buffers and CG updates in
    # place; one step must keep the bits of the out-of-place expression
    # solved by the out-of-place CG recursion.
    op, _, y = small_problem(noise=0.05)
    lam_z, rho, admm_iters, max_iter = 0.02, 2.0, 3, 8
    cfg = config("dds", lam_z=lam_z, rho=rho, dds_admm_iters=admm_iters,
                 cg_max_iter=max_iter)
    sampler = Sampler(cfg, op, y, gmm_prior(), SCHED)
    state = sampler.initialize()
    t = int(SCHED.sampling_steps[1])

    def apply_op(v):
        return 2.0 * op.adjoint(op.forward(v)) + rho * dz_adjoint(dz_forward(v))

    x = sampler.prior.denoise(state.x, t)
    z = w = np.zeros_like(x)
    for _ in range(admm_iters):
        rhs = 2.0 * op.adjoint(y) + rho * dz_adjoint(z - w)
        x, _ = cg_oracle(apply_op, rhs, 0.0, max_iter, x)
        dz_x = dz_forward(x)
        z = soft_threshold(dz_x + w, lam_z / rho)
        w = w + dz_x - z
    x0 = sampler.step(state, t, int(SCHED.sampling_steps[2]))
    assert x0.tobytes() == x.tobytes()


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
    monkeypatch.setattr(op, "forward", lambda vol: np.full(op.sinogram_shape, np.nan))
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

    def check_terms(x_t, t, blocks, terms, what):
        direction = rng.normal_array(blocks.shape)
        slope = float(np.vdot(terms(blocks)[1], direction))
        eps = 1e-5
        central = (terms(blocks + eps * direction)[0]
                   - terms(blocks - eps * direction)[0]) / (2.0 * eps)
        slopes.append((slope, central))
        return blocks, []

    sampler._optimize = check_terms
    sampler.step(sampler.initialize(), 500, 500)
    (slope, central), = slopes
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

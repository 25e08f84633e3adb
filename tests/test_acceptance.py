"""Acceptance suite: ten numbered criteria, one test (and one line) each.

Each test prints a single ``criterion NN: PASS`` line on success (visible
under ``pytest -s``); under ``pytest -v`` the test names themselves give the
per-criterion pass/fail report.  The desk-scale benchmark numbers in PIN were
measured once with this exact code and are regression-tested within a
+-0.1 dB band.
"""

import time

import numpy as np
import pytest

from nerdct import (
    CTOperator,
    ConvDenoiserPrior,
    GmmScalarPrior,
    IdentityPrior,
    NoiseSchedule,
    Sampler,
    SamplerConfig,
    Xoshiro256PP,
    add_gaussian_noise,
    default_geometry,
    dz_forward,
    evaluate_volume,
    l1_norm,
    l2_norm_sq,
    project_linf_ball,
    shepp_logan_3d,
    soft_threshold,
    uniform_view_indices,
)
from exact_inner import solve_inner_exactly
from nerdct.cli import main
from nerdct.convnet import (
    _backward,
    _forward_cache,
    conv_forward,
    init_weights,
    pack_weights,
    unpack_weights,
)

# ---------------------------------------------------------------- pinned
# One-time oracle-run results for the 64x64x32 Shepp-Logan benchmark
# (8 of 180 views, noise std 0.1, seed 0, N = 30 sampling steps, shared
# four-component GMM prior).  PSNRs in dB, regression band +-0.1 dB.

BENCH_WEIGHTS = [0.7604, 0.1987, 0.0109, 0.0301]
BENCH_WEIGHTS = [w / sum(BENCH_WEIGHTS) for w in BENCH_WEIGHTS]
BENCH_MEANS = [0.0, 0.2, 0.3, 1.0]
BENCH_STDS = [0.05, 0.05, 0.05, 0.05]

NERD_P_PIN = dict(method="nerd-p", n_steps=30, seed=0, lr=0.02, inner_steps=40,
                  lam=0.1, lam_z=0.05, sigma=20.0, tau=0.01, lam_couple=1.0)
NERD_A_PIN = dict(method="nerd-a", n_steps=30, seed=0, lr=0.05, inner_steps=30,
                  lam=0.1, lam_z=2.0, rho=20.0)
DDS_PIN = dict(method="dds", n_steps=30, seed=0, lam_z=0.05)

PIN = {
    "adjoint_axial": 14.7027,
    "nerd_p_axial": 22.5010,
    "nerd_p_vol": 18.5307,
    "nerd_p_tv": 7019.33,
    "nerd_a_axial": 20.6703,
    "nerd_a_vol": 17.2488,
    "dds30_axial": 20.0157,
    "dds30_vol": 18.5010,
}
DB_BAND = 0.1


def _pass(num, msg):
    print(f"criterion {num:2d}: PASS - {msg}", flush=True)


# ------------------------------------------------------- shared benchmark

_bench_cache = {}


def bench_problem():
    if "problem" not in _bench_cache:
        phantom = shepp_logan_3d(64, 64, 32)
        geom = default_geometry(64, 180)
        op = CTOperator(64, 64, 32, geom, uniform_view_indices(180, 8))
        y = add_gaussian_noise(op.forward(phantom), 0.1, 0)
        sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
        prior = GmmScalarPrior(sched, BENCH_WEIGHTS, BENCH_MEANS, BENCH_STDS)
        _bench_cache["problem"] = (phantom, op, y, sched, prior)
    return _bench_cache["problem"]


def bench_run(name, **overrides):
    """Run (once) and cache a sampler configuration on the benchmark."""
    if name not in _bench_cache:
        phantom, op, y, sched, prior = bench_problem()
        cfg = SamplerConfig(**overrides)
        t0 = time.perf_counter()
        recon, traces = Sampler(cfg, op, y, prior, sched, phantom).run()
        wall = time.perf_counter() - t0
        _bench_cache[name] = (recon, traces, wall)
    return _bench_cache[name]


# ------------------------------------------------------------- criteria


def test_criterion_01_operator_adjointness():
    t0 = time.perf_counter()
    geom = default_geometry(32, 60)
    op = CTOperator(32, 32, 8, geom, uniform_view_indices(60, 8))
    rng = Xoshiro256PP(101)
    worst = 0.0
    for _ in range(100):
        v = rng.normal_array((8, 32, 32))
        s = rng.normal_array(op.sinogram_shape)
        av = op.forward(v)
        ats = op.adjoint(s)
        lhs = float(np.vdot(av, s))
        rhs = float(np.vdot(v, ats))
        bound = 1e-10 * np.linalg.norm(av) * np.linalg.norm(s)
        assert abs(lhs - rhs) <= bound
        worst = max(worst, abs(lhs - rhs) / bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(1, f"100 adjoint pairs, worst {worst:.2e} of bound, {elapsed:.2f}s")


def test_criterion_02_prox_and_projection_oracles():
    rng = Xoshiro256PP(202)
    grid = np.linspace(-12.0, 12.0, 480_001)
    for _ in range(100):
        v = 3.0 * rng.normals(1)[0]
        kappa = 2.0 * rng.uniforms(1)[0]
        objective = 0.5 * (grid - v) ** 2 + kappa * np.abs(grid)
        best = grid[int(np.argmin(objective))]
        got = soft_threshold(np.array([[[v]]]), kappa)[0, 0, 0]
        assert abs(got - best) <= 1e-4
    arr = rng.normal_array((4, 5, 6)) * 3.0
    proj = project_linf_ball(arr)
    assert np.array_equal(proj, np.clip(arr, -1.0, 1.0))
    assert np.array_equal(project_linf_ball(proj), proj)
    _pass(2, "soft_threshold matches 480k-point grid argmin; projection = clamp")


def test_criterion_03_tweedie_exactness():
    sched = NoiseSchedule.linear_beta(n_sampling_steps=25)
    mc = np.random.default_rng(33)
    n_samples = 10_000_000
    configs = []
    for i in range(20):
        k = 2 + (i % 3)
        raw = mc.uniform(0.2, 1.0, k)
        weights = raw / raw.sum()
        means = mc.uniform(-1.0, 1.5, k)
        stds = mc.uniform(0.03, 0.4, k)
        t = int(sched.sampling_steps[i % len(sched.sampling_steps)])
        prior = GmmScalarPrior(sched, weights, means, stds)
        # Draw x_t from the forward model so the importance weights overlap.
        j = int(mc.integers(k))
        x0 = means[j] + stds[j] * mc.standard_normal()
        a = sched.alpha_bar[t]
        x_t = np.sqrt(a) * x0 + np.sqrt(1.0 - a) * mc.standard_normal()
        configs.append((prior, weights, means, stds, t, x_t))
    for prior, weights, means, stds, t, x_t in configs:
        a = sched.alpha_bar[t]
        comp = mc.choice(len(weights), size=n_samples, p=weights)
        x0 = np.asarray(means)[comp] + np.asarray(stds)[comp] * mc.standard_normal(n_samples)
        logw = -0.5 * (x_t - np.sqrt(a) * x0) ** 2 / (1.0 - a)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        est = float(np.sum(w * x0))
        se = float(np.sqrt(np.sum(w**2 * (x0 - est) ** 2)))
        got = float(prior.denoise(np.full((1, 1, 1), x_t), t)[0, 0, 0])
        assert abs(got - est) <= 3.0 * se, (got, est, se, t, x_t)
    _pass(3, "20 GMM configs within 3 SE of 1e7-sample Monte Carlo")


def _rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / scale


def test_criterion_04_gradient_correctness():
    sched = NoiseSchedule.linear_beta(n_sampling_steps=25)
    prior = GmmScalarPrior(sched, [0.6, 0.3, 0.1], [0.0, 0.4, 1.0], [0.08, 0.1, 0.2])
    rng = Xoshiro256PP(404)
    h = 1e-5
    # GMM posterior-mean derivative at 50 scalar points.
    for _ in range(50):
        x = 1.5 * rng.normals(1)[0]
        t = 1 + rng.integers(1, 999, 1)[0]
        arr = np.full((1, 1, 1), x)
        an = float(prior.input_vjp(arr, t, np.ones_like(arr))[0, 0, 0])
        fp = float(prior.denoise(arr + h, t)[0, 0, 0])
        fm = float(prior.denoise(arr - h, t)[0, 0, 0])
        assert _rel_err(an, (fp - fm) / (2 * h)) <= 1e-6
    # Conv denoiser: the prior's fused VJP, the call the samplers make, against
    # central differences of <c, prior(x)>; the weight gradient that training
    # runs against those of <c, net(x)>.
    weights = init_weights(11)
    x2d = shepp_logan_3d(12, 12, 8)[4] + 0.05 * rng.normal_array((12, 12))
    t = 600
    cot = rng.normal_array((12, 12))
    conv_prior = ConvDenoiserPrior(sched, weights)

    def probe_x(x):
        return float(np.vdot(cot, conv_prior.denoise(x[None], t)))

    grad_x = conv_prior.denoise_and_vjp(x2d[None], t)[1](cot[None])[0]
    for _ in range(50):
        i = rng.integers(0, 11, 1)[0]
        j = rng.integers(0, 11, 1)[0]
        xp = x2d.copy(); xp[i, j] += h
        xm = x2d.copy(); xm[i, j] -= h
        assert _rel_err(grad_x[i, j], (probe_x(xp) - probe_x(xm)) / (2 * h)) <= 1e-6
    inputs = _forward_cache(x2d, t, weights, sched)[1]
    grad_w = pack_weights(_backward(cot, weights, inputs))
    flat = pack_weights(weights)
    for _ in range(50):
        k = rng.integers(0, flat.size - 1, 1)[0]
        wp = flat.copy(); wp[k] += h
        wm = flat.copy(); wm[k] -= h
        fp = float(np.vdot(cot, conv_forward(x2d, t, unpack_weights(wp), sched)))
        fm = float(np.vdot(cot, conv_forward(x2d, t, unpack_weights(wm), sched)))
        assert _rel_err(grad_w[k], (fp - fm) / (2 * h)) <= 1e-6
    _pass(4, "GMM + conv gradients match central differences at 150 points, rel <= 1e-6")


# --------------------------------------------------- criterion 5 helpers

_TV_CANDIDATES = []  # (blocks, signs) for length-4 signals
for mask in range(8):
    blocks, start = [], 0
    for cut in range(3):
        if mask >> cut & 1:
            blocks.append((start, cut + 1))
            start = cut + 1
    blocks.append((start, 4))
    m = len(blocks)
    for sbits in range(1 << (m - 1)):
        signs = [1.0 if sbits >> i & 1 else -1.0 for i in range(m - 1)]
        _TV_CANDIDATES.append((blocks, [0.0] + signs + [0.0]))


def tv1d_prox_len4(y, weight):
    """Exact prox of weight*TV along axis 0 of a (4, C) array.

    Enumerates every segmentation/jump-sign candidate (27 for length 4),
    evaluates the objective, and keeps the per-column argmin.  Brute force,
    but exact -- this is the independent reference the solvers are checked
    against.
    """
    best_obj = np.full(y.shape[1], np.inf)
    best = np.empty_like(y)
    for blocks, signs in _TV_CANDIDATES:
        u = np.empty_like(y)
        for j, (lo, hi) in enumerate(blocks):
            value = y[lo:hi].mean(axis=0) - weight * (signs[j] - signs[j + 1]) / (hi - lo)
            u[lo:hi] = value
        obj = 0.5 * ((u - y) ** 2).sum(axis=0) + weight * np.abs(np.diff(u, axis=0)).sum(axis=0)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best[:, better] = u[:, better]
    return best


def test_criterion_05_linear_surrogate_equivalence():
    t0 = time.perf_counter()
    # Self-check the reference prox via the subgradient conditions.
    rng = Xoshiro256PP(505)
    for _ in range(50):
        y1 = 2.0 * rng.normal_array((4, 1))
        wgt = 0.1 + 2.0 * rng.uniforms(1)[0]
        u = tv1d_prox_len4(y1, wgt)[:, 0]
        resid = (y1[:, 0] - u) / wgt
        q = np.cumsum(resid)[:-1] * -1.0  # dual from the stationarity recursion
        assert np.all(np.abs(q) <= 1.0 + 1e-9)
        du = np.diff(u)
        live = np.abs(du) > 1e-10
        assert np.all(np.abs(q[live] - np.sign(du[live])) <= 1e-8)
        assert abs(resid.sum()) <= 1e-10  # boundary closure

    nz, n = 4, 8
    geom = default_geometry(n, 12)
    op = CTOperator(n, n, nz, geom, uniform_view_indices(12, 12))
    truth = np.zeros((nz, n, n))
    truth[:, 2:6, 2:6] = 0.8
    truth[2:, 3:5, 3:5] = 1.0
    y = add_gaussian_noise(op.forward(truth), 0.05, 7)
    lam_z = 0.1

    def objective(w):
        return l2_norm_sq(op.forward(w) - y) + lam_z * l1_norm(dz_forward(w))

    # Independent proximal-gradient (FISTA) reference with the exact prox.
    b = Xoshiro256PP(1).normal_array((nz, n, n))
    for _ in range(200):
        b = op.adjoint(op.forward(b))
        b /= np.linalg.norm(b)
    lip = 2.0 * float(np.vdot(b, op.adjoint(op.forward(b)))) + 1e-9
    step = 1.0 / lip
    w = np.zeros((nz, n, n))
    v = w.copy()
    t_k = 1.0
    ref_obj = np.inf
    for _ in range(4000):
        grad = 2.0 * op.adjoint(op.forward(v) - y)
        flat = (v - step * grad).reshape(nz, -1)
        w_new = tv1d_prox_len4(flat, step * lam_z).reshape(nz, n, n)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        v = w_new + (t_k - 1.0) / t_next * (w_new - w)
        w, t_k = w_new, t_next
        ref_obj = min(ref_obj, objective(w))

    # With f(v) = v each inner objective is quadratic; the exact solves
    # minimize the objectives the samplers themselves hand their inner loop.
    sched = NoiseSchedule.linear_beta(n_sampling_steps=10)
    prior = IdentityPrior()

    cfg_a = SamplerConfig(method="nerd-a", n_steps=10, lam=0.0, lam_z=lam_z, rho=1.0,
                          seed=0)
    sampler_a = solve_inner_exactly(Sampler(cfg_a, op, y, prior, sched))
    state = sampler_a.initialize()
    for _ in range(500):
        sampler_a.step(state, 500, 500)
    obj_a = objective(state.x0)

    # For this Neumann forward difference on nz=4, ||Dz||^2 = 2 + sqrt(2),
    # so tau*sigma*lam_z^2*||Dz||^2 = 0.956 < 1 keeps the iteration stable.
    cfg_p = SamplerConfig(method="nerd-p", n_steps=10, lam=0.0, lam_z=lam_z,
                          tau=1.0, sigma=28.0, lam_couple=1.0, seed=0)
    sampler_p = solve_inner_exactly(Sampler(cfg_p, op, y, prior, sched))
    state = sampler_p.initialize()
    for _ in range(500):
        sampler_p.step(state, 500, 500)
    obj_p = objective(state.w)

    assert abs(obj_a - ref_obj) <= 1e-3 * ref_obj, (obj_a, ref_obj)
    assert abs(obj_p - ref_obj) <= 1e-3 * ref_obj, (obj_p, ref_obj)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(5, f"objectives {obj_a:.6f}/{obj_p:.6f} vs reference {ref_obj:.6f}, {elapsed:.1f}s")


def test_criterion_06_reduction_to_sitcom():
    geom = default_geometry(16, 12)
    op = CTOperator(16, 16, 8, geom, uniform_view_indices(12, 4))
    truth = shepp_logan_3d(16, 16, 8)
    y = add_gaussian_noise(op.forward(truth), 0.1, 0)
    sched = NoiseSchedule.linear_beta(n_sampling_steps=6)
    prior = GmmScalarPrior(sched, [0.8, 0.2], [0.0, 1.0], [0.1, 0.1])
    common = dict(n_steps=6, seed=5, lr=0.01, inner_steps=4, lam=0.1)
    rec_a, tr_a = Sampler(SamplerConfig(method="nerd-a", lam_z=0.0, rho=0.0, **common),
                          op, y, prior, sched, truth).run()
    rec_s, tr_s = Sampler(SamplerConfig(method="sitcom", **common),
                          op, y, prior, sched, truth).run()
    assert rec_a.tobytes() == rec_s.tobytes()
    for a, s in zip(tr_a, tr_s):
        assert (a.step, a.t_index, a.data_residual, a.tv_z, a.psnr) == (
            s.step, s.t_index, s.data_residual, s.tv_z, s.psnr)
    _pass(6, "nerd-a with lam_z=rho=0 reproduces sitcom bit-for-bit")


def test_criterion_07_dual_feasibility():
    geom = default_geometry(16, 24)
    op = CTOperator(16, 16, 8, geom, uniform_view_indices(24, 6))
    truth = shepp_logan_3d(16, 16, 8)
    y = add_gaussian_noise(op.forward(truth), 0.1, 0)
    sched = NoiseSchedule.linear_beta(n_sampling_steps=30)
    prior = GmmScalarPrior(sched, [0.8, 0.2], [0.0, 1.0], [0.08, 0.08])
    cfg = SamplerConfig(method="nerd-p", n_steps=30, seed=2, lr=0.02,
                        inner_steps=8, sigma=50.0, lam_z=0.05)
    sampler = Sampler(cfg, op, y, prior, sched)
    state = sampler.initialize()
    steps = sampler.schedule.sampling_steps
    saw_active = False
    for i, t in enumerate(steps):
        t_next = steps[i + 1] if i + 1 < len(steps) else 0
        sampler.step(state, int(t), int(t_next))
        assert np.max(np.abs(state.u)) <= 1.0
        saw_active = saw_active or np.max(np.abs(state.u)) > 0.99
    assert saw_active  # the ball actually binds; the check is not vacuous
    _pass(7, "30-step nerd-p run keeps ||u||_inf <= 1 after every step")


def test_criterion_08_regularizer_effect_pinned_benchmark():
    phantom, op, y, sched, prior = bench_problem()
    _, tr_p, wall_p = bench_run("nerd_p", **NERD_P_PIN)
    _, tr_p0, wall_p0 = bench_run("nerd_p_nz", **{**NERD_P_PIN, "lam_z": 0.0})
    _, tr_a, wall_a = bench_run("nerd_a", **NERD_A_PIN)

    bp = op.adjoint(y)
    bp = (bp - bp.min()) / (bp.max() - bp.min())
    adj_axial = evaluate_volume(bp, phantom).views["axial"].psnr_mean
    assert abs(adj_axial - PIN["adjoint_axial"]) <= DB_BAND

    assert tr_p[-1].tv_z < tr_p0[-1].tv_z  # z-TV pressure is real

    p_axial = evaluate_volume(_bench_cache["nerd_p"][0], phantom).views["axial"].psnr_mean
    a_axial = evaluate_volume(_bench_cache["nerd_a"][0], phantom).views["axial"].psnr_mean
    assert p_axial >= adj_axial + 5.0
    assert a_axial >= adj_axial + 5.0

    assert abs(p_axial - PIN["nerd_p_axial"]) <= DB_BAND
    assert abs(a_axial - PIN["nerd_a_axial"]) <= DB_BAND
    assert abs(tr_p[-1].psnr - PIN["nerd_p_vol"]) <= DB_BAND
    assert abs(tr_a[-1].psnr - PIN["nerd_a_vol"]) <= DB_BAND
    assert abs(tr_p[-1].tv_z - PIN["nerd_p_tv"]) <= 0.01 * PIN["nerd_p_tv"]

    total = wall_p + wall_p0 + wall_a
    assert total < 600.0
    _pass(8, f"axial {p_axial:.2f}/{a_axial:.2f} dB vs adjoint {adj_axial:.2f} dB, "
             f"tv {tr_p[-1].tv_z:.1f} < {tr_p0[-1].tv_z:.1f}, {total:.0f}s")


def test_criterion_09_convergence_trace_shape():
    phantom, op, y, sched, prior = bench_problem()
    recon_p, tr_p, _ = bench_run("nerd_p", **NERD_P_PIN)
    recon_d, tr_d30, _ = bench_run("dds30", **DDS_PIN)
    recon_d10, _, _ = bench_run("dds10", **DDS_PIN, cg_max_iter=10)

    def axial(vol):
        return evaluate_volume(vol, phantom).views["axial"].psnr_mean

    # Comparator: the benchmark's headline metric, mean axial-slice PSNR of
    # the step-30 clean estimate.
    p30 = axial(recon_p)
    d30 = axial(recon_d)
    assert p30 >= d30
    assert abs(d30 - PIN["dds30_axial"]) <= DB_BAND
    assert abs(tr_d30[-1].psnr - PIN["dds30_vol"]) <= DB_BAND
    # dds is semi-convergent in its CG budget and peaks near 10 steps per
    # ADMM iteration; nerd-p must beat that best budget too.
    d10 = axial(recon_d10)
    assert p30 >= d10

    # dds with twice the budget: per-step mean axial PSNR must not reach the
    # nerd-p step-30 level before step 60.
    cfg = SamplerConfig(**{**DDS_PIN, "n_steps": 60})
    sched60 = NoiseSchedule.linear_beta(n_sampling_steps=60)
    sampler = Sampler(cfg, op, y, prior, sched60)
    state = sampler.initialize()
    steps = sampler.schedule.sampling_steps
    first = None
    best = -np.inf
    for i, t in enumerate(steps):
        t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
        x0 = sampler.step(state, int(t), t_next)
        a = axial(x0)
        best = max(best, a)
        if first is None and a >= p30:
            first = i + 1
    assert first is None or first >= 60
    _pass(9, f"nerd-p@30 {p30:.2f} dB >= dds@30 {d30:.2f} dB and dds@30 with "
             f"10 CG steps {d10:.2f} dB; dds@60 peaks at {best:.2f} dB "
             f"(crossing step: {first})")


def test_criterion_10_cli_determinism(tmp_path):
    d = tmp_path
    args = [
        "--set", "nx=16", "--set", "nz=12",
        "--set", "n_angles_full=12", "--set", "n_views=4",
        "--set", "n_steps=3", "--set", "inner_steps=2", "--set", "epochs=1",
        "--set", f"volume_path={d}/vol.f64",
        "--set", f"sinogram_path={d}/sino.f64",
        "--set", f"recon_path={d}/recon.f64",
        "--set", f"trace_path={d}/trace.csv",
        "--set", f"report_path={d}/report.json",
        "--set", f"weights_path={d}/weights.f64",
    ]

    def chain():
        assert main(["generate-phantom"] + args) == 0
        assert main(["simulate", "--set", "seed=4"] + args) == 0
        assert main(["reconstruct", "--set", "seed=4"] + args) == 0
        assert main(["evaluate"] + args) == 0
        assert main(["train-denoiser"] + args) == 0
        names = ("vol.f64", "sino.f64", "recon.f64", "report.json", "weights.f64")
        return {name: (d / name).read_bytes() for name in names}, (
            d / "trace.csv").read_text()

    first, trace_first = chain()
    second, trace_second = chain()
    for name, blob in first.items():
        assert second[name] == blob, name
    # Trace rows are identical except the wall-clock column, which cannot be
    # bit-stable by nature; every numeric column is compared exactly.
    rows_a = [r.rsplit(",", 1)[0] for r in trace_first.splitlines()]
    rows_b = [r.rsplit(",", 1)[0] for r in trace_second.splitlines()]
    assert rows_a == rows_b
    _pass(10, "re-runs byte-identical (trace compared without wall_ms)")

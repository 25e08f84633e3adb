"""Measurement-guided diffusion samplers for sparse-view reconstruction.

All methods share the same outer loop: visit the sampling time indices in
decreasing order, estimate the clean volume at each step, and resample to
the next index with fresh noise.  They differ in how the clean estimate is
obtained:

* sitcom: K Adam updates on ||A f(v) - y||^2 + lam ||v - x_t||^2 starting
  from v = x_t, then f(v).
* nerd-a: the same inner objective plus an ADMM penalty (rho/2) *
  ||Dz f(v) - z + w||^2 coupling a soft-thresholded auxiliary z to the
  slice-axis differences; z and the scaled dual w persist across steps.
* nerd-p: a primal-dual treatment of the slice-axis l1 term.  The dual u
  lives in the unit l-inf ball; the l1 weight lam_z is folded into the
  coupling operator (lam_z * Dz) so the projection stays onto the unit
  ball.  The primal pair (v, w) takes K joint Adam updates; u is reused
  across steps.
* dds: plain posterior-mean denoising followed by a few ADMM iterations on
  ||A x - y||^2 + gamma ||Dz x||_1 with a CG inner solve.

Every stochastic draw (the initial volume, then one noise volume per step,
in that order) comes from the seeded stream, so two methods with the same
seed consume identical noise realizations.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import psnr
from .optim import AdamState, adam_step, cg_solve, project_linf_ball, soft_threshold
from .rng import Xoshiro256PP
from .volume import dz_adjoint, dz_forward, l1_norm, l2_norm_sq

logger = logging.getLogger(__name__)

METHODS = ("sitcom", "nerd-a", "nerd-p", "dds")

_EXACT_TOL = 1e-11
_EXACT_MAX_ITER = 20000


class SamplerError(RuntimeError):
    """Non-finite inner objective or broken solver state."""


@dataclass
class SamplerConfig:
    method: str = "nerd-p"
    lam: float = 0.1            # anchor weight on ||v - x_t||^2
    lam_z: float = 0.05         # slice-axis l1 weight
    rho: float = 1.0            # ADMM penalty (nerd-a)
    lam_couple: float = 1.0     # coupling weight lam' (nerd-p)
    tau: float = 0.01           # primal step (nerd-p)
    sigma: float = 0.05         # dual step (nerd-p)
    n_steps: int = 30           # sampling steps N
    inner_steps: int = 10       # Adam updates K per step
    lr: float = 1e-3
    seed: int = 0
    dds_gamma: float = None     # defaults to lam_z
    dds_admm_iters: int = 5
    dds_rho: float = 1.0
    cg_tol: float = 1e-6
    cg_max_iter: int = 30
    pdhg_extrapolation: str = "literal"  # "literal" | "classical"

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("lam", "lam_z", "rho", "lam_couple"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("tau", "sigma", "lr", "dds_rho", "cg_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("n_steps", "inner_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dds_admm_iters < 0:
            raise ValueError(f"dds_admm_iters must be >= 0, got {self.dds_admm_iters}")
        if self.dds_gamma is not None and self.dds_gamma < 0:
            raise ValueError(f"dds_gamma must be >= 0, got {self.dds_gamma}")
        if self.pdhg_extrapolation not in ("literal", "classical"):
            raise ValueError(
                f"pdhg_extrapolation must be 'literal' or 'classical', "
                f"got {self.pdhg_extrapolation!r}"
            )
        if self.cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be >= 1, got {self.cg_max_iter}")
        return self


@dataclass
class TraceRecord:
    step: int
    t_index: int
    data_residual: float
    tv_z: float
    psnr: float
    wall_ms: float


@dataclass
class SamplerState:
    x: np.ndarray                 # current x_t
    x0: np.ndarray = None         # latest clean estimate
    z: np.ndarray = None          # ADMM auxiliary (nerd-a)
    w_dual: np.ndarray = None     # ADMM scaled dual (nerd-a)
    u: np.ndarray = None          # l-inf dual (nerd-p)
    w: np.ndarray = None          # primal image iterate (nerd-p)
    w_bar: np.ndarray = None      # extrapolated primal (nerd-p)
    inner_losses: list = field(default_factory=list)


class Sampler:
    """One reconstruction run: operator, measurements, prior, schedule."""

    def __init__(self, config, operator, y, prior, schedule, ground_truth=None):
        config.validate()
        if y.shape != operator.sinogram_shape:
            raise ValueError(
                f"measurements {y.shape} do not match operator "
                f"{operator.sinogram_shape}"
            )
        if config.n_steps != schedule.n_sampling_steps:
            schedule = schedule.with_sampling_steps(config.n_steps)
        self.config = config
        self.op = operator
        self.y = y
        self.prior = prior
        self.schedule = schedule
        self.ground_truth = ground_truth
        self.rng = Xoshiro256PP(config.seed)
        self.volume_shape = (operator.nz, operator.ny, operator.nx)
        self._aty2 = None

    # ------------------------------------------------------------- state

    def initialize(self):
        """Draw x at the largest sampling index and set up method state."""
        x = self.rng.normal_array(self.volume_shape)
        state = SamplerState(x=x)
        zeros = np.zeros(self.volume_shape)
        if self.config.method == "nerd-a":
            state.z = zeros.copy()
            state.w_dual = zeros.copy()
        elif self.config.method == "nerd-p":
            state.u = zeros.copy()
            t_start = int(self.schedule.sampling_steps[0])
            state.w = self.prior.denoise(x, t_start)
            state.w_bar = state.w.copy()
        return state

    def _resample(self, x0, t_next):
        """x_{t_next} = sqrt(a)*x0 + sqrt(1-a)*eta with fresh noise.

        Noise is drawn unconditionally (even for t_next = 0, where its
        coefficient is zero) so all methods consume the same stream.
        """
        eta = self.rng.normal_array(self.volume_shape)
        a = self.schedule.alpha_bar[t_next]
        return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eta

    # ------------------------------------------------- inner optimization

    def _check_finite(self, loss, t, what):
        if not np.isfinite(loss):
            raise SamplerError(
                f"non-finite inner objective ({loss}) in {what} at t={t}"
            )

    def _optimize_input(self, x_t, t, z=None, w_dual=None):
        """K Adam updates on the input-domain objective, from v = x_t.

        Objective: ||A f(v) - y||^2 + lam ||v - x_t||^2 and, when an ADMM
        pair is given and rho > 0, + (rho/2) ||Dz f(v) - z + w||^2.
        """
        cfg = self.config
        with_penalty = z is not None and cfg.rho != 0.0
        v = x_t.copy()
        adam = AdamState(lr=cfg.lr)
        losses = []
        for _ in range(cfg.inner_steps):
            x0 = self.prior.denoise(v, t)
            resid = self.op.forward(x0) - self.y
            loss = l2_norm_sq(resid)
            cot = 2.0 * self.op.adjoint(resid)
            if with_penalty:
                gap = dz_forward(x0) - z + w_dual
                loss += 0.5 * cfg.rho * l2_norm_sq(gap)
                cot += cfg.rho * dz_adjoint(gap)
            grad = self.prior.input_vjp(v, t, cot)
            if cfg.lam != 0.0:
                diff = v - x_t
                loss += cfg.lam * l2_norm_sq(diff)
                grad += 2.0 * cfg.lam * diff
            self._check_finite(loss, t, "input optimization")
            losses.append(loss)
            v = adam_step(adam, v, grad)
        return v, losses

    def _solve_input_exact(self, x_t, t, z, w_dual):
        """Exact minimizer of the nerd-a inner quadratic (linear priors)."""
        if not self.prior.is_linear:
            raise SamplerError("exact inner solves need a linear prior")
        cfg = self.config

        def apply_op(v):
            out = 2.0 * self.op.adjoint(self.op.forward(v))
            if cfg.rho != 0.0:
                out += cfg.rho * dz_adjoint(dz_forward(v))
            if cfg.lam != 0.0:
                out += 2.0 * cfg.lam * v
            return out

        rhs = 2.0 * self.op.adjoint(self.y)
        if cfg.rho != 0.0:
            rhs += cfg.rho * dz_adjoint(z - w_dual)
        if cfg.lam != 0.0:
            rhs += 2.0 * cfg.lam * x_t
        result = cg_solve(apply_op, rhs, tol=_EXACT_TOL, max_iter=_EXACT_MAX_ITER,
                          x0=x_t)
        if result.breakdown:
            raise SamplerError("CG breakdown in exact inner solve")
        return result.x

    def _optimize_joint(self, x_t, t, w_hat):
        """K joint Adam updates for nerd-p, from v = x_t, w = w_hat.

        Objective over the concatenated pair:
        ||A w - y||^2 + lam ||v - x_t||^2 + ||w - w_hat||^2 / (2 tau)
        + lam_couple ||f(v) - w||^2.
        """
        cfg = self.config
        n = x_t.size
        flat = np.concatenate([x_t.ravel(), w_hat.ravel()])
        adam = AdamState(lr=cfg.lr)
        losses = []
        for _ in range(cfg.inner_steps):
            v = flat[:n].reshape(self.volume_shape)
            w = flat[n:].reshape(self.volume_shape)
            resid = self.op.forward(w) - self.y
            w_gap = w - w_hat
            loss = l2_norm_sq(resid) + 0.5 / cfg.tau * l2_norm_sq(w_gap)
            grad_w = 2.0 * self.op.adjoint(resid) + w_gap / cfg.tau
            grad_v = np.zeros_like(v)
            couple = self.prior.denoise(v, t) - w
            loss += cfg.lam_couple * l2_norm_sq(couple)
            grad_v += 2.0 * cfg.lam_couple * self.prior.input_vjp(v, t, couple)
            grad_w -= 2.0 * cfg.lam_couple * couple
            if cfg.lam != 0.0:
                anchor = v - x_t
                loss += cfg.lam * l2_norm_sq(anchor)
                grad_v += 2.0 * cfg.lam * anchor
            self._check_finite(loss, t, "joint optimization")
            losses.append(loss)
            flat = adam_step(
                adam, flat, np.concatenate([grad_v.ravel(), grad_w.ravel()])
            )
        v = flat[:n].reshape(self.volume_shape)
        w = flat[n:].reshape(self.volume_shape)
        return v, w, losses

    def _solve_joint_exact(self, x_t, t, w_hat):
        """Exact minimizer of the nerd-p joint quadratic (linear priors)."""
        if not self.prior.is_linear:
            raise SamplerError("exact inner solves need a linear prior")
        cfg = self.config
        n = x_t.size
        shape = self.volume_shape

        def apply_op(flat):
            v = flat[:n].reshape(shape)
            w = flat[n:].reshape(shape)
            couple = v - w
            out_v = 2.0 * cfg.lam_couple * couple + 2.0 * cfg.lam * v
            out_w = (
                2.0 * self.op.adjoint(self.op.forward(w))
                + w / cfg.tau
                - 2.0 * cfg.lam_couple * couple
            )
            return np.concatenate([out_v.ravel(), out_w.ravel()])

        rhs = np.concatenate(
            [
                (2.0 * cfg.lam * x_t).ravel(),
                (2.0 * self.op.adjoint(self.y) + w_hat / cfg.tau).ravel(),
            ]
        )
        start = np.concatenate([x_t.ravel(), w_hat.ravel()])
        result = cg_solve(apply_op, rhs, tol=_EXACT_TOL, max_iter=_EXACT_MAX_ITER,
                          x0=start)
        if result.breakdown:
            raise SamplerError("CG breakdown in exact joint solve")
        return result.x[:n].reshape(shape), result.x[n:].reshape(shape)

    # ------------------------------------------------------------- steps

    def sitcom_step(self, state, t, t_next, resample=True):
        """Anchored data-consistency step: optimize, denoise, resample."""
        v, losses = self._optimize_input(state.x, t)
        state.inner_losses = losses
        state.x0 = self.prior.denoise(v, t)
        if resample:
            state.x = self._resample(state.x0, t_next)
        return state.x0

    def nerd_a_step(self, state, t, t_next, resample=True, inner="adam"):
        """ADMM-regularized step.

        1. optimize v with the rho-penalty against (z, w);
        2. x0 = f(v);
        3. z <- soft_threshold(Dz x0 + w, lam_z / rho);
        4. w <- w + Dz x0 - z;
        5. resample.  With rho = 0 steps 3-4 are skipped and the update
        reduces exactly to sitcom.
        """
        cfg = self.config
        if inner == "adam":
            v, losses = self._optimize_input(state.x, t, state.z, state.w_dual)
            state.inner_losses = losses
        elif inner == "exact":
            v = self._solve_input_exact(state.x, t, state.z, state.w_dual)
        else:
            raise ValueError(f"unknown inner solver {inner!r}")
        x0 = self.prior.denoise(v, t)
        if cfg.rho != 0.0:
            dz_x0 = dz_forward(x0)
            state.z = soft_threshold(dz_x0 + state.w_dual, cfg.lam_z / cfg.rho)
            state.w_dual = state.w_dual + dz_x0 - state.z
        state.x0 = x0
        if resample:
            state.x = self._resample(x0, t_next)
        return x0

    def nerd_p_step(self, state, t, t_next, resample=True, inner="adam"):
        """Primal-dual step with the coupling operator lam_z * Dz.

        literal extrapolation re-bases w_bar on the current w before the
        primal update ("w_bar <- w_t"); classical keeps the extrapolated
        point from the previous step as the base.  Both set
        w_bar = 2 w_new - w_old afterwards for the dual ascent.
        """
        cfg = self.config
        if cfg.pdhg_extrapolation == "literal":
            base = state.w
        else:
            base = state.w_bar
        w_hat = base - cfg.tau * cfg.lam_z * dz_adjoint(state.u)
        if inner == "adam":
            v, w_new, losses = self._optimize_joint(state.x, t, w_hat)
            state.inner_losses = losses
        elif inner == "exact":
            v, w_new = self._solve_joint_exact(state.x, t, w_hat)
        else:
            raise ValueError(f"unknown inner solver {inner!r}")
        state.w_bar = 2.0 * w_new - state.w
        state.u = project_linf_ball(
            state.u + cfg.sigma * cfg.lam_z * dz_forward(state.w_bar)
        )
        if not np.max(np.abs(state.u)) <= 1.0:
            raise SamplerError("dual left the unit l-inf ball")
        state.w = w_new
        state.x0 = self.prior.denoise(v, t)
        if resample:
            state.x = self._resample(state.x0, t_next)
        return state.x0

    def dds_step(self, state, t, t_next, resample=True):
        """Denoise, then ADMM data-consistency on the clean estimate."""
        x0 = self.prior.denoise(state.x, t)
        if self.config.dds_admm_iters > 0:
            x0 = self._dds_admm(x0)
        state.x0 = x0
        if resample:
            state.x = self._resample(x0, t_next)
        return x0

    def _dds_admm(self, x):
        """ADMM iterations on ||A x - y||^2 + gamma ||Dz x||_1 from x."""
        cfg = self.config
        gamma = cfg.lam_z if cfg.dds_gamma is None else cfg.dds_gamma
        rho = cfg.dds_rho
        if self._aty2 is None:
            self._aty2 = 2.0 * self.op.adjoint(self.y)

        def apply_op(v):
            return 2.0 * self.op.adjoint(self.op.forward(v)) + rho * dz_adjoint(
                dz_forward(v)
            )

        z = np.zeros_like(x)
        w = np.zeros_like(x)
        for it in range(cfg.dds_admm_iters):
            rhs = self._aty2 + rho * dz_adjoint(z - w)
            result = cg_solve(apply_op, rhs, tol=cfg.cg_tol,
                              max_iter=cfg.cg_max_iter, x0=x)
            if result.breakdown:
                raise SamplerError("CG breakdown in dds data-consistency solve")
            if not result.converged:
                logger.warning(
                    "dds CG stopped at %d iterations, relative residual %.3e",
                    result.iterations, result.relative_residual,
                )
            x = result.x
            dz_x = dz_forward(x)
            z = soft_threshold(dz_x + w, gamma / rho)
            w = w + dz_x - z
        return x

    def step(self, state, t, t_next, resample=True):
        method = self.config.method
        if method == "sitcom":
            return self.sitcom_step(state, t, t_next, resample)
        if method == "nerd-a":
            return self.nerd_a_step(state, t, t_next, resample)
        if method == "nerd-p":
            return self.nerd_p_step(state, t, t_next, resample)
        return self.dds_step(state, t, t_next, resample)

    # --------------------------------------------------------------- run

    def run(self):
        """Full reconstruction; returns (clean estimate, per-step traces)."""
        state = self.initialize()
        steps = self.schedule.sampling_steps
        traces = []
        for i, t in enumerate(steps):
            t_next = int(steps[i + 1]) if i + 1 < len(steps) else 0
            started = time.perf_counter()
            x0 = self.step(state, int(t), t_next)
            wall_ms = (time.perf_counter() - started) * 1e3
            value = (
                psnr(x0, self.ground_truth)
                if self.ground_truth is not None
                else float("nan")
            )
            traces.append(
                TraceRecord(
                    step=i + 1,
                    t_index=int(t),
                    data_residual=float(
                        np.sqrt(l2_norm_sq(self.op.forward(x0) - self.y))
                    ),
                    tv_z=l1_norm(dz_forward(x0)),
                    psnr=value,
                    wall_ms=wall_ms,
                )
            )
        return state.x0, traces


def run_sampler(config, operator, y, prior, schedule, ground_truth=None):
    """Convenience wrapper building a Sampler and running it."""
    sampler = Sampler(config, operator, y, prior, schedule, ground_truth)
    return sampler.run()


def save_trace(path, traces):
    """CSV with columns step,t_index,data_residual,tv_z,psnr,wall_ms."""
    lines = ["step,t_index,data_residual,tv_z,psnr,wall_ms"]
    for rec in traces:
        lines.append(
            f"{rec.step},{rec.t_index},{rec.data_residual!r},"
            f"{rec.tv_z!r},{rec.psnr!r},{rec.wall_ms!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

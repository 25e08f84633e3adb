"""Measurement-guided diffusion samplers for sparse-view reconstruction.

All methods share the same outer loop: visit the sampling time indices in
decreasing order, estimate the clean volume at each step, and resample to
the next index with fresh noise.  They differ in how the clean estimate is
obtained:

* sitcom: K Adam updates on ||A f(v) - y||^2 + lam ||v - x_t||^2 starting
  from v = x_t, then f(v).  It runs as nerd-a with rho = 0.
* nerd-a: the same inner objective plus an ADMM penalty (rho/2) *
  ||Dz f(v) - z + w||^2 coupling a soft-thresholded auxiliary z to the
  slice-axis differences; z and the scaled dual w persist across steps.
* nerd-p: a primal-dual treatment of the slice-axis l1 term.  The dual u
  lives in the unit l-inf ball; the l1 weight lam_z is folded into the
  coupling operator (lam_z * Dz) so the projection stays onto the unit
  ball.  The primal step alternates K Adam updates on v, split over
  PDHG_ROUNDS rounds, with PDHG_CG_STEPS CG steps on the quadratic w block
  after each round; u is reused across steps.
* dds: plain posterior-mean denoising followed by a few ADMM iterations on
  ||A x - y||^2 + lam_z ||Dz x||_1 with penalty rho, whose x-update runs a
  fixed number of CG steps (Chung, Lee & Ye, arXiv 2303.05754).

Every stochastic draw (the initial volume, then one noise volume per step,
in that order) comes from the seeded stream, so two methods with the same
seed consume identical noise realizations.
"""

import logging
import math
import numbers
import sys
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .metrics import psnr
from .optim import AdamState, adam_step, cg_solve, project_linf_ball, soft_threshold
from .rng import Xoshiro256PP
from .volume import dz_adjoint, dz_forward, l1_norm, l2_norm_sq

logger = logging.getLogger(__name__)

METHODS = ("sitcom", "nerd-a", "nerd-p", "dds")

#: nerd-p's primal step: rounds of Adam on v, each then CG steps on w.
PDHG_ROUNDS = 2
PDHG_CG_STEPS = 5


class SamplerError(RuntimeError):
    """Non-finite inner objective or broken solver state."""


@dataclass
class SamplerConfig:
    method: str = "nerd-p"
    lam: float = 0.1            # anchor weight on ||v - x_t||^2
    lam_z: float = 0.05         # slice-axis l1 weight
    rho: float = 1.0            # ADMM penalty (nerd-a, dds)
    lam_couple: float = 1.0     # coupling weight lam' (nerd-p)
    tau: float = 0.01           # primal step (nerd-p)
    sigma: float = 0.05         # dual step (nerd-p)
    n_steps: int = 30           # sampling steps N
    inner_steps: int = 10       # Adam updates K on v per step
    lr: float = 1e-3
    seed: int = 0
    dds_admm_iters: int = 5
    cg_max_iter: int = 30       # CG steps per dds ADMM iteration

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {int: numbers.Integral, float: numbers.Real}.get(f.type)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                noun = "an integer" if kind is numbers.Integral else "a number"
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            # Compared, not converted: an int past the float range overflows.
            if kind is numbers.Real and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("lam", "lam_z", "rho", "lam_couple"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("tau", "sigma", "lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("n_steps", "inner_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dds_admm_iters < 0:
            raise ValueError(f"dds_admm_iters must be >= 0, got {self.dds_admm_iters}")
        if self.cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be >= 1, got {self.cg_max_iter}")
        if self.method == "dds" and not self.rho > 0:
            raise ValueError(f"dds needs rho > 0, got {self.rho}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
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
    x0: np.ndarray = None         # latest clean estimate, None while a step runs
    z: np.ndarray = None          # ADMM auxiliary (nerd-a)
    w_dual: np.ndarray = None     # ADMM scaled dual (nerd-a)
    u: np.ndarray = None          # l-inf dual (nerd-p)
    w: np.ndarray = None          # primal image iterate (nerd-p)
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
        if schedule.n_sampling_steps != config.n_steps:
            raise ValueError(
                f"schedule has {schedule.n_sampling_steps} sampling steps, "
                f"config n_steps is {config.n_steps}"
            )
        prior_schedule = getattr(prior, "schedule", None)
        if prior_schedule is not None and not np.array_equal(
                prior_schedule.alpha_bar, schedule.alpha_bar):
            raise ValueError("prior's schedule has another alpha_bar than the sampler's")
        volume_shape = (operator.nz, operator.ny, operator.nx)
        if ground_truth is not None and np.shape(ground_truth) != volume_shape:
            raise ValueError(f"ground truth {np.shape(ground_truth)} is not {volume_shape}")
        # Chambolle-Pock: tau * sigma * ||lam_z Dz||^2 < 1, where ||Dz||^2 is
        # the path Laplacian's largest eigenvalue.  lam_z * lam_z overflows to
        # inf, where lam_z**2 would raise.
        if config.method == "nerd-p":
            nz = operator.nz
            dz_norm_sq = 2.0 - 2.0 * math.cos(math.pi * (nz - 1) / nz)
            step_product = (config.tau * config.sigma * config.lam_z * config.lam_z
                            * dz_norm_sq)
            if step_product >= 1.0:
                logger.warning("nerd-p step sizes break the Chambolle-Pock condition: "
                               "tau*sigma*lam_z^2*||Dz||^2 = %g >= 1", step_product)
        self.config = config
        self.op = operator
        self.y = np.ascontiguousarray(y, dtype=np.float64)    # the column products' layout
        self.prior = prior
        self.schedule = schedule
        self.ground_truth = ground_truth
        self.rng = Xoshiro256PP(config.seed)
        self.volume_shape = volume_shape
        # Only nerd-a and dds run the ADMM split; sitcom is nerd-a without it.
        self.rho = config.rho if config.method in ("nerd-a", "dds") else 0.0
        self._estimate = {
            "sitcom": self._admm_estimate,
            "nerd-a": self._admm_estimate,
            "nerd-p": self._pdhg_estimate,
            "dds": self._dds_estimate,
        }[config.method]

    # ------------------------------------------------------------- state

    def initialize(self):
        """Draw x at the largest sampling index and set up method state."""
        x = self.rng.normal_array(self.volume_shape)
        state = SamplerState(x=x)
        if self.config.method == "nerd-a":
            state.z = np.zeros(self.volume_shape)
            state.w_dual = np.zeros(self.volume_shape)
        elif self.config.method == "nerd-p":
            state.u = np.zeros(self.volume_shape)
            t_start = int(self.schedule.sampling_steps[0])
            state.w = self.prior.denoise(x, t_start)
        return state

    def _resample(self, x0, t_next):
        """x_{t_next} = sqrt(a)*x0 + sqrt(1-a)*eta with fresh noise.

        Noise is drawn unconditionally (even for t_next = 0, where its
        coefficient is zero) so all methods consume the same stream.
        """
        eta = self.rng.normal_array(self.volume_shape)
        a = self.schedule.alpha_bar[t_next]
        eta *= np.sqrt(1.0 - a)
        eta += np.sqrt(a) * x0
        return eta

    # ------------------------------------------------- inner optimization

    def _optimize(self, adam, steps, v, x_t, t, terms, what):
        """`steps` Adam updates on v that continue `adam`.

        `terms(v)` returns the method's objective and its gradient in v,
        (loss, grad); the anchor lam ||v - x_t||^2 is added to both last.
        Returns the final v and the loss before each update.

        Here and in each `terms`, a volume-sized temporary is scaled in
        place and deleted once read, so that it is gone before the next
        volume is made: the step's peak memory counts every one still held.
        """
        lam = self.config.lam
        losses = []
        for _ in range(steps):
            loss, grad = terms(v)
            if lam != 0.0:
                anchor = v - x_t
                loss += lam * l2_norm_sq(anchor)
                anchor *= 2.0 * lam
                grad += anchor
                del anchor
            if not np.isfinite(loss):
                raise SamplerError(
                    f"non-finite inner objective ({loss}) in {what} at t={t}"
                )
            losses.append(loss)
            v = adam_step(adam, v, grad)
            del grad
        return v, losses

    def _split_update(self, x, z, w):
        """ADMM z- and scaled dual step on the split z = Dz x; returns (z, w)."""
        dz_x = dz_forward(x)
        z = soft_threshold(dz_x + w, self.config.lam_z / self.rho)
        return z, w + dz_x - z

    # ------------------------------------------------------------- steps

    def _admm_estimate(self, state, t):
        """nerd-a, and sitcom as nerd-a with rho = 0.

        1. optimize v from x_t on ||A f(v) - y||^2 + lam ||v - x_t||^2
           + (rho/2) ||Dz f(v) - z + w||^2;
        2. x0 = f(v);
        3. z <- soft_threshold(Dz x0 + w, lam_z / rho);
        4. w <- w + Dz x0 - z.
        With rho = 0 the penalty and steps 3-4 drop out, which is sitcom.
        """
        def terms(v):
            x0, vjp = self.prior.denoise_and_vjp(v, t)
            resid = self.op.forward(x0) - self.y
            gap = dz_forward(x0) if self.rho != 0.0 else None
            del x0
            loss = l2_norm_sq(resid)
            cot = self.op.adjoint(resid)
            cot *= 2.0
            if gap is not None:
                gap -= state.z
                gap += state.w_dual
                loss += 0.5 * self.rho * l2_norm_sq(gap)
                gap = dz_adjoint(gap)
                gap *= self.rho
                cot += gap
                del gap
            return loss, vjp(cot)

        v, state.inner_losses = self._optimize(
            AdamState(lr=self.config.lr), self.config.inner_steps, state.x, state.x, t,
            terms, "input optimization")
        x0 = self.prior.denoise(v, t)
        if self.rho != 0.0:
            state.z, state.w_dual = self._split_update(x0, state.z, state.w_dual)
        return x0

    def _pdhg_estimate(self, state, t):
        """nerd-p: primal-dual step with the coupling operator lam_z * Dz.

        `_primal_step` lowers ||A w - y||^2 + lam ||v - x_t||^2 + lam_couple
        ||f(v) - w||^2 + ||w - w_hat||^2 / (2 tau) from (x_t, w_hat), where
        w_hat = w - tau lam_z Dz^T u; the dual ascent reads 2 w_new - w.  For
        a fixed v the w block solves (A^T A + s I) w = A^T y + w_hat / (2 tau)
        + lam_couple f(v), s = 1/(2 tau) + lam_couple: `apply_op` and `rhs`
        are that system over s in columns; the rhs is made anew each round,
        so neither A^T y nor w_hat is held through CG.  f and its VJP are
        taken once per v, so a round's last pair serves the rhs, the next
        round's first Adam update and the returned x0.
        """
        cfg, op, nz = self.config, self.op, self.op.nz
        inv_shift = 1.0 / (0.5 / cfg.tau + cfg.lam_couple)
        normal_buf = np.empty(op.columns_shape)
        latest = (None,)    # (v, f(v), vjp) at the last v the prior saw

        def w_hat():
            return state.w - cfg.tau * cfg.lam_z * dz_adjoint(state.u)

        def prior_at(v):
            nonlocal latest
            if latest[0] is not v:
                latest = None    # the stale pair goes before the new one is made
                latest = (v, *self.prior.denoise_and_vjp(v, t))
            return latest[1:]

        def coupling(v, w):
            x0, vjp = prior_at(v)
            couple = x0 - w
            loss = cfg.lam_couple * l2_norm_sq(couple)
            couple *= 2.0 * cfg.lam_couple
            return loss, vjp(couple)

        def apply_op(cols):
            out = op.adjoint_columns(op.forward_columns(cols), normal_buf)
            out *= inv_shift
            out += cols
            return out

        def rhs(v):
            out = op.adjoint_columns(self.y, np.empty(op.columns_shape))
            extra = (0.5 / cfg.tau) * w_hat() + cfg.lam_couple * prior_at(v)[0]
            out += extra.reshape(nz, -1).T
            out *= inv_shift
            return out

        # The start is passed, not named, so that no local holds it past
        # the first round.
        v, w_new, state.inner_losses = self._primal_step(
            state.x, t, np.ascontiguousarray(w_hat().reshape(nz, -1).T),
            coupling, apply_op, rhs)
        w_bar = 2.0 * w_new - state.w
        state.u = project_linf_ball(
            state.u + cfg.sigma * cfg.lam_z * dz_forward(w_bar)
        )
        if not np.max(np.abs(state.u)) <= 1.0:
            raise SamplerError("dual left the unit l-inf ball")
        state.w = w_new
        return prior_at(v)[0]

    def _primal_step(self, x_t, t, cols, coupling, apply_op, rhs):
        """PDHG_ROUNDS rounds from v = x_t and w in (ny*nx, nz) `cols`, each of
        its share of inner_steps Adam updates on lam ||v - x_t||^2 +
        coupling(v, w), one AdamState for all, then PDHG_CG_STEPS CG steps
        on apply_op(w) = rhs(v) from the last w; returns (v, w, losses)."""
        cfg = self.config
        adam = AdamState(lr=cfg.lr)
        v, losses = x_t, []
        for r in range(PDHG_ROUNDS):
            steps = cfg.inner_steps // PDHG_ROUNDS + (r < cfg.inner_steps % PDHG_ROUNDS)
            w = np.ascontiguousarray(cols.T).reshape(self.volume_shape)
            v, round_losses = self._optimize(
                adam, steps, v, x_t, t, lambda v: coupling(v, w), "v optimization")
            del w    # not held through CG
            losses += round_losses
            result = cg_solve(apply_op, rhs(v), cols, PDHG_CG_STEPS)
            if result.breakdown:
                raise SamplerError("CG breakdown in nerd-p's w solve")
            cols = result.x
        return v, np.ascontiguousarray(cols.T).reshape(self.volume_shape), losses

    def _dds_estimate(self, state, t):
        """dds: denoise, then ADMM on ||A x - y||^2 + lam_z ||Dz x||_1.

        Each ADMM iteration's x-update is cg_solve's fixed budget of
        cg_max_iter CG steps, started from the previous x, on the halved
        normal equation of ||A x - y||^2 + (rho/2) ||Dz x - z + w||^2,

            (A^T A + (rho/2) Dz^T Dz) x = A^T y + (rho/2) Dz^T (z - w).

        x, z and w are (nz, ny*nx) transposes of C-contiguous (ny*nx, nz)
        column arrays, the projector's layout with z the fast axis: Dz, the
        split update and the rhs act along axis 0 of these views, and CG
        reads and returns their transposes, so the layout changes only
        after the denoise and at the return.  A^T y and the operator's two
        column buffers are made once per step.
        """
        cfg, op, nz = self.config, self.op, self.op.nz
        half_rho = 0.5 * self.rho
        aty = op.adjoint_columns(self.y, np.empty(op.columns_shape))
        normal_buf, dz_buf = np.empty((2,) + op.columns_shape)
        flat_out, flat_dz = normal_buf.ravel(), dz_buf.ravel()

        def apply_op(v):
            out = op.adjoint_columns(op.forward_columns(v), normal_buf)
            # d = (rho/2) Dz v: a flat difference whose entries that cross
            # into the next column, each column's last, are zeroed.
            flat_v = v.ravel()
            np.subtract(flat_v[1:], flat_v[:-1], out=flat_dz[:-1])
            dz_buf[:, -1] = 0.0
            np.multiply(flat_dz, half_rho, out=flat_dz)
            # Dz^T d = -d plus d shifted one slice on; d's zeroed last
            # entries stop the flat shift at every column boundary.
            np.subtract(flat_out, flat_dz, out=flat_out)
            np.add(flat_out[1:], flat_dz[:-1], out=flat_out[1:])
            return out

        # Always a copy, since CG writes x and the identity prior returns x_t.
        x = self.prior.denoise(state.x, t).reshape(nz, -1).T.copy().T
        z = np.zeros_like(x)
        w = np.zeros_like(x)
        for _ in range(cfg.dds_admm_iters):
            rhs = (half_rho * dz_adjoint(z - w)).T
            rhs += aty
            result = cg_solve(apply_op, rhs, x.T, cfg.cg_max_iter)
            if result.breakdown:
                raise SamplerError("CG breakdown in normal-equation solve")
            x = result.x.T
            z, w = self._split_update(x, z, w)
        return np.ascontiguousarray(x).reshape(self.volume_shape)

    def step(self, state, t, t_next):
        """Clean estimate at t, SamplerError unless finite, then resample to t_next."""
        state.x0 = None
        x0 = self._estimate(state, t)
        bad = np.count_nonzero(~np.isfinite(x0))
        if bad:
            raise SamplerError(
                f"{self.config.method} estimate at t={t}: {bad} non-finite entries")
        state.x0 = x0
        state.x = self._resample(x0, t_next)
        return x0

    # --------------------------------------------------------------- run

    @np.errstate(over="raise", divide="raise", invalid="raise")
    def run(self):
        """Full reconstruction; returns (clean estimate, per-step traces).
        Overflow, division by zero and invalid values raise FloatingPointError."""
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
            del x0    # not held while the next estimate is computed
        return state.x0, traces


def save_trace(path, traces):
    """CSV with one column per TraceRecord field, each value written as its repr."""
    lines = [",".join(f.name for f in fields(TraceRecord))]
    lines += [",".join(map(repr, astuple(rec))) for rec in traces]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

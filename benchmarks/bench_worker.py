"""One benchmark workload in this process: set up, reconstruct, check, report.

run.py starts this with the BLAS thread count pinned in the environment
and the checkout's `src` on PYTHONPATH.
Every line but the last names a metric with its unit; the last line is the
JSON result.  NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import nerdct
from nerdct import (
    ConvDenoiserPrior,
    CTOperator,
    GmmScalarPrior,
    NoiseSchedule,
    NonFiniteGradientError,
    Sampler,
    SamplerConfig,
    SamplerError,
    add_gaussian_noise,
    default_geometry,
    shepp_logan_3d,
    splitmix64_stream,
    train_denoiser,
    uniform_view_indices,
)
from nerdct.metrics import evaluate_volume, psnr

from bench_tracing import (
    Tracer,
    instance_targets,
    module_targets,
    properly_nested,
    summarize,
)

ROOT = Path(__file__).resolve().parents[1]

# Shepp-Logan 64x64x16, 8 of 180 views, noise std 0.1.
NX, NZ = 64, 16
N_ANGLES, N_VIEWS, SIGMA_Y = 180, 8, 0.1

# The four-component bench prior and the sampler pins of
# tests/test_acceptance.py (BENCH_*, NERD_P_PIN, DDS_PIN).
GMM_WEIGHTS = [0.7604, 0.1987, 0.0109, 0.0301]
GMM_WEIGHTS = [w / sum(GMM_WEIGHTS) for w in GMM_WEIGHTS]
GMM_MEANS = [0.0, 0.2, 0.3, 1.0]
GMM_STDS = [0.05, 0.05, 0.05, 0.05]
NERD_P_PIN = dict(method="nerd-p", lr=0.02, inner_steps=40, lam=0.1, lam_z=0.05,
                  sigma=20.0, tau=0.01, lam_couple=1.0)
DDS_PIN = dict(method="dds", lam_z=0.05)

# `nerdct train-denoiser` defaults.  The training seed stays 0 so the net
# is the same for every workload seed.
TRAIN_ARGS = dict(epochs=4, seed=0, lr=2e-3, holdout_fraction=0.2)

# setup_s is the median of repeated set-ups spanning at least this long.
SETUP_SECONDS, SETUP_MIN_REPEATS = 4.0, 3
TAIL_BEYOND = 10    # samples a tail percentile must leave above it

LAYER_SPANS = (
    "samplers.step", "priors.denoise", "priors.input_vjp", "convnet.denoise",
    "convnet.input_vjp", "radon.forward", "radon.adjoint", "optim.adam_step",
    "optim.cg_solve", "optim.prox", "volume.dz", "volume.l2_norm_sq",
    "rng.normal_array", "metrics.evaluate_volume", "metrics.psnr",
)


@dataclass(frozen=True)
class Workload:
    name: str
    sampler: dict        # SamplerConfig fields, seed excluded
    prior: str           # "gmm" | "conv"
    curve: bool = False  # the reconstruction evaluates every step's estimate


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nerdp-gmm", dict(NERD_P_PIN, n_steps=10), "gmm"),
        Workload("dds-curve", dict(DDS_PIN, n_steps=30), "gmm", curve=True),
        Workload("nerda-conv", dict(method="nerd-a", n_steps=10), "conv"),
    )
}


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Problem:
    phantom: np.ndarray
    op: CTOperator
    y: np.ndarray
    schedule: NoiseSchedule
    prior: object
    sampler_seed: int

    def digest(self):
        arrays = [self.phantom, self.y]
        if isinstance(self.prior, ConvDenoiserPrior):
            arrays += [a for layer in self.prior.weights for a in layer]
        return sha256(*arrays)


def derive_seeds(seed):
    """(noise seed, sampler seed) from the workload seed."""
    noise_seed, sampler_seed = splitmix64_stream(seed, 2)
    return noise_seed, sampler_seed


def setup(workload, seed, tracer):
    noise_seed, sampler_seed = derive_seeds(seed)
    with tracer.span("phantom.shepp_logan_3d"):
        phantom = shepp_logan_3d(NX, NX, NZ)
    with tracer.span("radon.operator_build"):
        op = CTOperator(NX, NX, NZ, default_geometry(NX, N_ANGLES),
                        uniform_view_indices(N_ANGLES, N_VIEWS))
    y = add_gaussian_noise(op.forward(phantom), SIGMA_Y, noise_seed)
    schedule = NoiseSchedule.linear_beta(n_sampling_steps=workload.sampler["n_steps"])
    if workload.prior == "gmm":
        prior = GmmScalarPrior(schedule, GMM_WEIGHTS, GMM_MEANS, GMM_STDS)
    else:
        with tracer.span("convnet.train_denoiser"):
            weights, _ = train_denoiser(phantom, schedule, **TRAIN_ARGS)
        prior = ConvDenoiserPrior(schedule, weights)
    return Problem(phantom, op, y, schedule, prior, sampler_seed)


def evaluate(tracer, x0, phantom):
    with tracer.span("metrics.evaluate_volume"):
        return evaluate_volume(x0, phantom)


def reconstruct(workload, problem, tracer, traced=False):
    """One reconstruction; returns (x0, reports).

    Untraced, every step's clean estimate is evaluated, so evaluation is
    timed across the whole run; traced, only curve workloads do that and the
    others evaluate the final estimate once.  `reports[-1]` is the final
    estimate's.  Spans cover the run, each step and each evaluation; with
    `traced` every layer call gets one too.
    """
    cfg = SamplerConfig(**workload.sampler, seed=problem.sampler_seed)
    sampler = Sampler(cfg, problem.op, problem.y, problem.prior,
                      problem.schedule, problem.phantom)
    if traced:
        targets = instance_targets(sampler)
    else:
        targets = [(sampler, "step", "samplers.step", None)]
    reports = []
    evaluate_steps = workload.curve or not traced
    with tracer.patch(targets):
        if evaluate_steps:
            stepped = sampler.step

            def step_then_evaluate(*args):
                x0 = stepped(*args)
                reports.append(evaluate(tracer, x0, problem.phantom))
                return x0

            sampler.step = step_then_evaluate
        with tracer.span("samplers.run"):
            x0, traces = sampler.run()
    if len(traces) != cfg.n_steps:
        raise SamplerError(f"{len(traces)} trace records for {cfg.n_steps} steps")
    if not np.all(np.isfinite(x0)):
        raise SamplerError("non-finite clean estimate")
    if not evaluate_steps:
        reports.append(evaluate(tracer, x0, problem.phantom))
    return x0, reports


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest percentile, to a tenth and at least the median, that leaves
    `beyond` of `n` samples above it.  Below 2 * beyond samples no
    percentile above the median does, and the median is returned."""
    return max(50.0, (1000 * (n - beyond) // n) / 10.0)


def timing_summary(values):
    """Median and tail of `values`, with the tail's percentile and support."""
    values = np.asarray(values, dtype=np.float64)
    pct = tail_percentile(len(values))
    tail = float(np.percentile(values, pct))
    return {
        "p50": float(np.median(values)),
        "tail": tail,
        "tail_pct": pct,
        "n": len(values),
        "beyond": int(np.count_nonzero(values > tail)),
    }


def span_seconds(spans, name):
    return [(end - start) / 1e9 for n, _, start, end in spans if n == name]


def recon_seconds(spans):
    """Seconds of each reconstruction, less the evaluations inside it."""
    out = []
    for name, _, start, end in spans:
        if name == "samplers.run":
            inner = sum(
                e - s for n, _, s, e in spans
                if n == "metrics.evaluate_volume" and start <= s and e <= end
            )
            out.append((end - start - inner) / 1e9)
    return out


def reconstruct_for(workload, problem, tracer, seconds):
    """Whole reconstructions until `seconds` have passed, at least one.

    Returns (attempted, failed, x0 hashes, last x0, its reports).  A
    reconstruction fails when it raises, ends non-finite or differs from
    the first one in its bits.
    """
    attempted, failed, hashes, last = 0, 0, [], None
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() - started < seconds:
        attempted += 1
        try:
            x0, reports = reconstruct(workload, problem, tracer)
        except (SamplerError, NonFiniteGradientError) as exc:
            print(f"reconstruction {attempted} failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        hashes.append(sha256(x0))
        failed += hashes[-1] != hashes[0]
        last = (x0, reports)
    if last is None:
        raise SystemExit(f"all {attempted} reconstructions failed")
    return attempted, failed, hashes, last[0], last[1]


def end_to_end(workload, problem, tracer, seconds, record):
    """Untraced run: the end-to-end metrics."""
    attempted, failed, hashes, x0, reports = reconstruct_for(
        workload, problem, tracer, seconds)
    final = reports[-1]
    evals_per_recon = workload.sampler["n_steps"] if workload.curve else 1
    step_ms = [s * 1e3 for s in span_seconds(tracer.spans, "samplers.step")]
    eval_s = span_seconds(tracer.spans, "metrics.evaluate_volume")
    steps = timing_summary(step_ms)
    recon_s = statistics.median(recon_seconds(tracer.spans))
    eval_per_recon_s = evals_per_recon * statistics.fmean(eval_s)
    axial = final.views["axial"]
    psnr_vol = psnr(x0, problem.phantom)
    metrics = {
        "setup_s": (statistics.median(span_seconds(tracer.spans, "setup")), "s"),
        "recon_s": (recon_s, "s"),
        "recon_eval_s": (recon_s + eval_per_recon_s, "s"),
        "step_ms_p50": (steps["p50"], "ms"),
        "step_ms_tail": (steps["tail"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rmse_axial": (10.0 ** (-axial.psnr_mean / 20.0), "1"),
        "rmse_vol": (10.0 ** (-psnr_vol / 20.0), "1"),
        "one_minus_ssim_axial": (1.0 - axial.ssim_mean, "1"),
    }
    record.update(
        x0_sha256=hashes[0],
        reconstructions=len(hashes),
        eval_s=eval_per_recon_s,
        step_ms_summary=steps,
        step_ms_samples=step_ms,
        eval_s_samples=eval_s,
        setup_s_samples=span_seconds(tracer.spans, "setup"),
        psnr_axial_db=axial.psnr_mean,
        psnr_vol_db=psnr_vol,
        ssim_axial=axial.ssim_mean,
        curve_psnr_axial_db=[r.views["axial"].psnr_mean for r in reports],
    )
    return attempted, failed, metrics


def per_layer(workload, seed, problem, tracer, checks, record):
    """One untraced and one traced reconstruction: the per-layer metrics."""
    attempted, failed, hashes, _, _ = reconstruct_for(workload, problem, tracer, 0)
    untraced_s = recon_seconds(tracer.spans)[0]

    traced = Tracer()
    with traced.patch(module_targets()):
        traced_problem = setup(workload, seed, traced)
        try:
            x0, _ = reconstruct(workload, traced_problem, traced, traced=True)
            traced_hash = sha256(x0)
        except (SamplerError, NonFiniteGradientError) as exc:
            print(f"traced reconstruction failed: {exc}", file=sys.stderr)
            traced_hash = None
    attempted += 1
    failed += traced_hash != hashes[0]
    checks["traced_setup_identical"] = traced_problem.digest() == problem.digest()
    checks["spans_nested"] = properly_nested(traced.spans)

    summary = summarize(traced.spans)

    def layer(name, field):
        return summary.get(name, {}).get(field, 0)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = (layer(name, "calls"), "count")
        metrics[f"{name}.self_ms"] = (layer(name, "self_ms"), "ms")
    prior_ms = sum(layer(f"{module}.{fn}", "self_ms")
                   for module in ("priors", "convnet")
                   for fn in ("denoise", "input_vjp"))
    counts = traced.counts
    metrics.update({
        "samplers.run.self_ms": (layer("samplers.run", "self_ms"), "ms"),
        "optim.cg_solve.iterations": (counts.get("optim.cg_solve.iterations", 0), "count"),
        "optim.cg_solve.unconverged": (counts.get("optim.cg_solve.unconverged", 0), "count"),
        "rng.normal_array.draws": (counts.get("rng.normal_array.draws", 0), "count"),
        "priors.mvox_per_s": (
            counts.get("prior.voxels", 0) / prior_ms / 1e3 if prior_ms else 0.0, "Mvox/s"),
        "convnet.train_denoiser.ms": (layer("convnet.train_denoiser", "total_ms"), "ms"),
        "radon.operator_build_ms": (layer("radon.operator_build", "total_ms"), "ms"),
        "phantom.shepp_logan_3d.ms": (layer("phantom.shepp_logan_3d", "total_ms"), "ms"),
        "trace.wall_ms": (layer("samplers.run", "total_ms"), "ms"),
        "trace.overhead_pct": (
            100.0 * (recon_seconds(traced.spans)[0] / untraced_s - 1.0), "%"),
        "trace.spans": (len(traced.spans), "count"),
    })
    record.update(
        x0_sha256=hashes[0],
        traced_x0_sha256=traced_hash,
        self_ms_sum=sum(v["self_ms"] for v in summary.values()),
        root_ms_sum=sum((e - s) / 1e6 for _, p, s, e in traced.spans if p < 0),
        spans=traced.spans,
    )
    return attempted, failed, metrics


def read_git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nerdct").glob("*.py")):
        source.update(path.read_bytes())
    noise_seed, sampler_seed = derive_seeds(seed)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": read_git_commit(),
        "src_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "noise_seed": noise_seed,
        "sampler_seed": sampler_seed,
    }


class DropAndCount(logging.Filter):
    """Drops every record it sees and counts them."""

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def filter(self, record):
        self.dropped += 1
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if Path(nerdct.__file__).resolve().parent != ROOT / "src" / "nerdct":
        raise SystemExit(f"imported nerdct from {nerdct.__file__}, not this checkout")
    workload = WORKLOADS[args.workload]

    tracer = Tracer()
    setups = []
    min_repeats, min_seconds = (1, 0.0) if args.trace else (SETUP_MIN_REPEATS, SETUP_SECONDS)
    started = time.perf_counter()
    while len(setups) < min_repeats or time.perf_counter() - started < min_seconds:
        with tracer.span("setup"):
            problem = setup(workload, args.seed, tracer)
        setups.append(problem.digest())
    checks = {"setup_repeats_identical": len(set(setups)) == 1}
    record = {"fingerprint": fingerprint(workload, args.seed), "setup_sha256": setups[0]}

    # dds logs a warning for every CG solve that stops at cg_max_iter; the
    # traced run counts those solves as optim.cg_solve.unconverged instead.
    cg_warnings = DropAndCount()
    sampler_log = logging.getLogger(nerdct.samplers.__name__)
    sampler_log.addFilter(cg_warnings)
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(
                workload, args.seed, problem, tracer, checks, record)
        else:
            attempted, failed, metrics = end_to_end(
                workload, problem, tracer, args.seconds, record)
    finally:
        sampler_log.removeFilter(cg_warnings)
    record.update(checks=checks, sampler_log_records_dropped=cg_warnings.dropped,
                  attempted=attempted, failed=failed, error_rate=failed / attempted,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    out_dir = ROOT / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print("fingerprint " + json.dumps(record["fingerprint"]))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"{workload.name} self times sum to {record['self_ms_sum']:.1f} ms "
              f"over root spans of {record['root_ms_sum']:.1f} ms")
    else:
        steps = record["step_ms_summary"]
        print(f"{workload.name} step_ms_tail is p{steps['tail_pct']:g} of "
              f"{steps['n']} steps, {steps['beyond']} above it")
        for name, unit in (("eval_s", "s"), ("psnr_axial_db", "dB"),
                           ("psnr_vol_db", "dB"), ("ssim_axial", "1")):
            print(f"{workload.name} {name} = {record[name]:.6g} {unit}")
    print(f"{workload.name} error_rate = {failed / attempted:g} ({failed}/{attempted})")
    print(f"{workload.name} x0 sha256 = {record['x0_sha256']}")
    print(f"{workload.name} CG warnings suppressed = {cg_warnings.dropped}")
    failed_checks = [name for name, ok in checks.items() if not ok]
    if failed_checks:
        print(f"{workload.name} failed checks: {', '.join(failed_checks)}")
    print(f"{workload.name} record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own helpers: span arithmetic, the tail
percentile, and wrappers that restore the originals and keep the bits."""

import numpy as np
import pytest

from bench_tracing import (
    Tracer,
    module_targets,
    properly_nested,
    self_times,
    summarize,
)
import run
from bench_worker import (
    WORKLOADS,
    Problem,
    Workload,
    recon_seconds,
    reconstruct,
    sha256,
    tail_percentile,
    timing_summary,
)
from nerdct import (
    ConvDenoiserPrior,
    CTOperator,
    GmmScalarPrior,
    NoiseSchedule,
    add_gaussian_noise,
    default_geometry,
    shepp_logan_3d,
    uniform_view_indices,
)
from nerdct.convnet import init_weights

# [name, parent, start ns, end ns]: a root with two children, one nested.
SPANS = [
    ["samplers.run", -1, 0, 100],
    ["priors.denoise", 0, 10, 60],
    ["radon.forward", 1, 20, 30],
    ["priors.denoise", 0, 70, 90],
    ["metrics.evaluate_volume", 0, 92, 97],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [100 - 50 - 20 - 5, 50 - 10, 10, 20, 5]
    assert sum(self_times(SPANS)) == 100
    summary = summarize(SPANS)
    assert summary["priors.denoise"]["calls"] == 2
    assert summary["priors.denoise"]["self_ms"] == pytest.approx(60e-6)
    assert summary["priors.denoise"]["total_ms"] == pytest.approx(70e-6)
    assert recon_seconds(SPANS) == [pytest.approx(95e-9)]


def test_entry_point_lists_the_worker_workloads():
    assert run.WORKLOADS == tuple(WORKLOADS)


def test_nesting_check_rejects_a_child_outside_its_parent():
    assert properly_nested(SPANS)
    assert not properly_nested(SPANS[:2] + [["radon.forward", 1, 20, 61]])


def test_tail_percentile_is_the_highest_tenth_with_ten_samples_beyond():
    assert [tail_percentile(n) for n in (10, 19, 20, 30, 40, 1000)] == [
        50.0, 50.0, 50.0, 66.6, 75.0, 99.0]
    for n in range(20, 3000, 7):
        tenths = round(10 * tail_percentile(n))
        assert n * (1000 - tenths) >= 10 * 1000
        assert n * (1000 - tenths - 1) < 10 * 1000
        assert timing_summary(np.arange(n, dtype=float))["beyond"] >= 10


def _problem(prior_kind):
    phantom = shepp_logan_3d(16, 16, 12)
    op = CTOperator(16, 16, 12, default_geometry(16, 180), uniform_view_indices(180, 8))
    y = add_gaussian_noise(op.forward(phantom), 0.1, 3)
    schedule = NoiseSchedule.linear_beta(n_sampling_steps=2)
    if prior_kind == "gmm":
        prior = GmmScalarPrior(schedule, [0.8, 0.2], [0.0, 1.0], [0.05, 0.05])
    else:
        prior = ConvDenoiserPrior(schedule, init_weights(0))
    return Problem(phantom, op, y, schedule, prior, sampler_seed=5)


@pytest.mark.parametrize("workload", [
    Workload("p", dict(method="nerd-p", n_steps=2, inner_steps=3), "gmm"),
    Workload("d", dict(method="dds", n_steps=2, dds_admm_iters=2), "gmm", curve=True),
    Workload("a", dict(method="nerd-a", n_steps=2, inner_steps=2), "conv"),
], ids=lambda w: w.sampler["method"])
def test_wrappers_restore_originals_and_keep_output_bits(workload):
    problem = _problem(workload.prior)
    untraced, _ = reconstruct(workload, problem, Tracer())
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in module_targets()]
    attrs = {id(obj): dict(vars(obj)) for obj in (problem.op, problem.prior)}

    tracer = Tracer()
    with tracer.patch(module_targets()):
        traced, _ = reconstruct(workload, problem, tracer, traced=True)

    assert sha256(traced) == sha256(untraced)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    for obj in (problem.op, problem.prior):
        before = attrs[id(obj)]
        assert vars(obj).keys() == before.keys()
        assert all(vars(obj)[key] is value for key, value in before.items())
    names = set(summarize(tracer.spans))
    layer = "priors" if workload.prior == "gmm" else "convnet"
    assert {"samplers.run", "samplers.step", "radon.forward", "rng.normal_array",
            f"{layer}.denoise", "metrics.evaluate_volume"} <= names
    assert properly_nested(tracer.spans)

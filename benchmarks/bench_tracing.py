"""Span tracer for the benchmark, kept outside the nerdct package.

Spans are recorded around calls into each layer's public functions: module
functions are patched in the namespace their caller looks them up in, and
per-object methods (projector, prior, RNG, sampler step) are shadowed by an
instance attribute.  `Tracer.patch` restores every original on exit.

A span is ``[name, parent index, start ns, end ns]``; spans live in memory
and are written out by the caller when the run ends.  A layer's self time
is its span's duration minus the durations of its direct children.
"""

import time
from contextlib import contextmanager

import nerdct.convnet
import nerdct.metrics
import nerdct.samplers

_MISSING = object()


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter_ns()

    def wrap(self, fn, name, counter=None):
        """`fn` recorded as span `name`; `counter(args, result)` -> {name: n}."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    @contextmanager
    def patch(self, targets):
        """Wrap each (owner, attribute, span name, counter) until exit."""
        saved = []
        try:
            for owner, attr, name, counter in targets:
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _cg_counts(args, result):
    return {
        "optim.cg_solve.iterations": result.iterations,
        "optim.cg_solve.unconverged": int(not result.converged),
    }


def _draw_counts(args, result):
    return {"rng.normal_array.draws": result.size}


def _voxel_counts(args, result):
    return {"prior.voxels": args[0].size}


def module_targets():
    """Functions samplers.py and convnet.py imported by name, patched there."""
    samplers = nerdct.samplers
    return [
        (samplers, "adam_step", "optim.adam_step", None),
        (samplers, "cg_solve", "optim.cg_solve", _cg_counts),
        (samplers, "soft_threshold", "optim.prox", None),
        (samplers, "project_linf_ball", "optim.prox", None),
        (samplers, "dz_forward", "volume.dz", None),
        (samplers, "dz_adjoint", "volume.dz", None),
        (samplers, "l2_norm_sq", "volume.l2_norm_sq", None),
        (samplers, "psnr", "metrics.psnr", None),
        (nerdct.metrics, "psnr", "metrics.psnr", None),
        (nerdct.convnet, "adam_step", "optim.adam_step", None),
    ]


def instance_targets(sampler):
    """Per-object methods of one sampler; the prior is named by its module."""
    layer = type(sampler.prior).__module__.rsplit(".", 1)[-1]
    return [
        (sampler, "step", "samplers.step", None),
        (sampler.rng, "normal_array", "rng.normal_array", _draw_counts),
        (sampler.op, "forward", "radon.forward", None),
        (sampler.op, "adjoint", "radon.adjoint", None),
        (sampler.prior, "denoise", f"{layer}.denoise", _voxel_counts),
        (sampler.prior, "input_vjp", f"{layer}.input_vjp", _voxel_counts),
    ]


def self_times(spans):
    """Self time of each span in ns: its duration minus its direct children's."""
    child_ns = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, _, start, end) in enumerate(spans)]


def properly_nested(spans):
    """True when every child span lies inside its parent's interval."""
    return all(
        parent < 0 or (spans[parent][2] <= start and end <= spans[parent][3])
        for _, parent, start, end in spans
    )


def summarize(spans):
    """Span name -> {"calls", "total_ms", "self_ms"}."""
    out = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) / 1e6
        entry["self_ms"] += own / 1e6
    return out

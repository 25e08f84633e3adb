"""The pinned benchmark's four-component GMM prior, shared by the acceptance
suite and the prior tests: (normalised weights, means, stds)."""

_WEIGHTS = [0.7604, 0.1987, 0.0109, 0.0301]
BENCH_MIXTURE = ([w / sum(_WEIGHTS) for w in _WEIGHTS], [0.0, 0.2, 0.3, 1.0], [0.05] * 4)

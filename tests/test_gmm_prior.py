"""Gaussian-mixture scalar prior: posterior mean, limits, derivative."""

import tracemalloc
import warnings

import numpy as np
import pytest

from nerdct import DenoiserPrior, GmmScalarPrior, IdentityPrior, NoiseSchedule, priors
from nerdct.rng import Xoshiro256PP


def make_prior(weights, means, stds, n_sampling_steps=30):
    sched = NoiseSchedule.linear_beta(n_sampling_steps=n_sampling_steps)
    return GmmScalarPrior(sched, weights, means, stds), sched


def mc_posterior_mean(x_t, t, weights, means, stds, sched, n_samples, seed):
    """Self-normalized importance estimate of E[x0 | x_t] under the mixture.

    Samples x0 from the prior, weights by the Gaussian likelihood of
    x_t = sqrt(a)*x0 + sqrt(1-a)*eps.
    """
    rng = Xoshiro256PP(seed)
    a = sched.alpha_bar[t]
    comp = np.array(rng.integers(0, len(weights) - 1, n_samples))
    # integers() is uniform; reweight by component probabilities instead
    # of sampling them, keeping the estimator unbiased.
    x0 = np.array(means)[comp] + np.array(stds)[comp] * rng.normals(n_samples)
    log_w = np.log(np.array(weights)[comp] * len(weights))
    resid = (x_t - np.sqrt(a) * x0) ** 2 / (2.0 * (1.0 - a))
    log_w = log_w - resid
    log_w -= log_w.max()
    w = np.exp(log_w)
    est = float(np.sum(w * x0) / np.sum(w))
    # Effective-sample-size based standard error.
    wn = w / w.sum()
    ess = 1.0 / np.sum(wn**2)
    se = float(np.sqrt(np.sum(wn**2 * (x0 - est) ** 2))) * np.sqrt(ess / (ess - 1.0))
    return est, se


def test_posterior_mean_matches_monte_carlo():
    weights = [0.6, 0.3, 0.1]
    means = [0.0, 0.4, 1.0]
    stds = [0.05, 0.08, 0.1]
    prior, sched = make_prior(weights, means, stds)
    rng = Xoshiro256PP(99)
    cases = [(0.2, 900), (-0.1, 500), (0.5, 200), (1.2, 50), (0.05, 999)]
    for x_val, t in cases:
        got = float(prior.denoise(np.full((1, 1, 1), x_val), t)[0, 0, 0])
        est, se = mc_posterior_mean(x_val, t, weights, means, stds, sched, 400_000, seed=int(rng.raw(1)[0] % 2**31))
        assert abs(got - est) <= max(3.0 * se, 2e-3), (x_val, t, got, est, se)


def test_noiseless_limit_returns_input():
    # alpha_bar ~= 1: the posterior concentrates at x_t (modulo prior shrink).
    prior, sched = make_prior([1.0], [0.3], [10.0])
    x = np.full((2, 2, 2), 0.77)
    out = prior.denoise(x, 1)
    # Wide single Gaussian, almost no noise: posterior mean ~ x / sqrt(a).
    a = sched.alpha_bar[1]
    assert np.allclose(out, x / np.sqrt(a), atol=1e-3)


def test_full_noise_limit_returns_prior_mean():
    # alpha_bar ~ 0: posterior mean approaches the prior mixture mean.
    weights = [0.5, 0.5]
    means = [0.0, 1.0]
    prior, sched = make_prior(weights, means, [0.05, 0.05])
    t = 1000
    a = sched.alpha_bar[t]
    assert a < 1e-4
    out = prior.denoise(np.zeros((1, 1, 1)), t)
    mix_mean = 0.5 * 0.0 + 0.5 * 1.0
    assert abs(float(out[0, 0, 0]) - mix_mean) < 0.02


def test_single_component_closed_form():
    # One Gaussian: posterior mean is linear with known slope/intercept.
    mu, s = 0.25, 0.15
    prior, sched = make_prior([1.0], [mu], [s])
    for t in (1, 100, 700, 1000):
        a = sched.alpha_bar[t]
        slope = np.sqrt(a) * s**2 / (a * s**2 + 1.0 - a)
        intercept = (1.0 - a) * mu / (a * s**2 + 1.0 - a)
        x = np.linspace(-1.0, 2.0, 7).reshape(1, 1, 7)
        expected = slope * x + intercept
        assert np.allclose(prior.denoise(x, t), expected, rtol=1e-12)
        # Derivative is the constant slope.
        cot = np.ones_like(x)
        assert np.allclose(prior.input_vjp(x, t, cot), slope, rtol=1e-10)


def test_derivative_matches_finite_differences():
    prior, _ = make_prior([0.55, 0.25, 0.2], [0.0, 0.3, 1.0], [0.04, 0.06, 0.12])
    rng = Xoshiro256PP(5)
    h = 1e-5
    checked = 0
    for _ in range(60):
        x_val = float(rng.normals(1)[0]) * 0.6 + 0.3
        t = int(rng.integers(1, 1000, 1)[0])
        x = np.full((1, 1, 1), x_val)
        up = prior.denoise(x + h, t)[0, 0, 0]
        dn = prior.denoise(x - h, t)[0, 0, 0]
        fd = (up - dn) / (2.0 * h)
        got = float(prior.input_vjp(x, t, np.ones_like(x))[0, 0, 0])
        denom = max(abs(fd), 1e-8)
        assert abs(got - fd) / denom <= 1e-6, (x_val, t, got, fd)
        checked += 1
    assert checked == 60


def test_vjp_scales_with_cotangent():
    prior, _ = make_prior([0.7, 0.3], [0.0, 1.0], [0.1, 0.1])
    x = Xoshiro256PP(6).normal_array((3, 3, 3))
    cot = Xoshiro256PP(7).normal_array((3, 3, 3))
    base = prior.input_vjp(x, 500, np.ones_like(x))
    assert np.allclose(prior.input_vjp(x, 500, cot), cot * base, rtol=1e-12)


def test_posterior_mean_bounded_by_modes():
    # Posterior mean of a mixture stays within the convex hull of
    # component posterior means, hence within [min m_k, max m_k].
    prior, sched = make_prior([0.5, 0.5], [0.0, 1.0], [0.05, 0.05])
    xs = np.linspace(-3.0, 4.0, 200).reshape(1, 1, -1)
    for t in (1, 250, 750, 1000):
        a = sched.alpha_bar[t]
        out = prior.denoise(xs, t)
        lo = (np.sqrt(a) * 0.05**2 * xs + (1 - a) * 0.0) / (a * 0.05**2 + 1 - a)
        hi = (np.sqrt(a) * 0.05**2 * xs + (1 - a) * 1.0) / (a * 0.05**2 + 1 - a)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


def test_validation():
    sched = NoiseSchedule.linear_beta()
    with pytest.raises(ValueError):
        GmmScalarPrior(sched, [0.5, 0.6], [0.0, 1.0], [0.1, 0.1])  # sum != 1
    with pytest.raises(ValueError):
        GmmScalarPrior(sched, [0.5, 0.5], [0.0, 1.0], [0.1, -0.1])  # bad std
    with pytest.raises(ValueError):
        GmmScalarPrior(sched, [1.0, 0.0], [0.0, 1.0], [0.1, 0.1])  # zero weight
    with pytest.raises(ValueError):
        GmmScalarPrior(sched, [0.5, 0.5], [0.0], [0.1, 0.1])  # length mismatch
    for weights, means, stds in [([np.nan], [0.0], [0.1]), ([1.0], [np.nan], [0.1]),
                                 ([1.0], [0.0], [np.nan]), ([1.0], [0.0], [np.inf])]:
        with pytest.raises(ValueError):
            GmmScalarPrior(sched, weights, means, stds)  # non-finite parameter


def test_identity_prior():
    prior = IdentityPrior()
    x = Xoshiro256PP(8).normal_array((2, 3, 4))
    assert np.array_equal(prior.denoise(x, 500), x)
    cot = Xoshiro256PP(9).normal_array((2, 3, 4))
    assert np.array_equal(prior.input_vjp(x, 500, cot), cot)
    x0, vjp = prior.denoise_and_vjp(x, 500)
    assert np.array_equal(x0, x)
    assert np.array_equal(vjp(cot), cot)
    assert vars(prior) == {}


class SquarePrior(DenoiserPrior):
    """f(x) = x * x, defining only the one abstract call."""

    def denoise_and_vjp(self, x_t, t):
        return x_t * x_t, lambda cotangent: 2.0 * x_t * cotangent


def test_prior_interface_has_one_abstract_method():
    # denoise and input_vjp are the fused call's value and VJP, bit for bit.
    assert DenoiserPrior.__abstractmethods__ == {"denoise_and_vjp"}
    prior = SquarePrior()
    x = Xoshiro256PP(20).normal_array((2, 3, 4))
    cot = Xoshiro256PP(21).normal_array(x.shape)
    x0, vjp = prior.denoise_and_vjp(x, 500)
    assert prior.denoise(x, 500).tobytes() == x0.tobytes()
    assert prior.input_vjp(x, 500, cot).tobytes() == vjp(cot).tobytes()


def test_no_saturation_overflow():
    # Far tails: responsibilities collapse but nothing overflows.
    prior, _ = make_prior([0.5, 0.5], [0.0, 1.0], [0.01, 0.01])
    x = np.array([[[-50.0, 50.0, 0.0]]])
    for t in (1, 500, 1000):
        out = prior.denoise(x, t)
        assert np.all(np.isfinite(out))
        vjp = prior.input_vjp(x, t, np.ones_like(x))
        assert np.all(np.isfinite(vjp))


def last_axis_reference(prior, x_t, t):
    """Posterior mean and derivative with the component axis last.

    The layout and operation order the prior used before it moved the
    component axis first; its outputs must match these bit for bit.
    """
    a = prior.schedule.alpha_bar[t]
    sqrt_a = np.sqrt(a)
    noise_var = 1.0 - a
    x = np.asarray(x_t, dtype=np.float64)[..., None]
    var_k = a * prior.stds**2 + noise_var
    with np.errstate(invalid="ignore", over="ignore"):
        log_w = (
            np.log(prior.weights)
            - 0.5 * np.log(var_k)
            - 0.5 * (x - sqrt_a * prior.means) ** 2 / var_k
        )
        log_w -= log_w.max(axis=-1, keepdims=True)
        resp = np.exp(log_w)
        resp /= resp.sum(axis=-1, keepdims=True)
    cond_mean = (sqrt_a * prior.stds**2 * x + noise_var * prior.means) / var_k
    slope_k = sqrt_a * prior.stds**2 / var_k
    log_grad = -(x - sqrt_a * prior.means) / var_k
    log_grad_mean = np.sum(resp * log_grad, axis=-1, keepdims=True)
    deriv = resp * (slope_k + (log_grad - log_grad_mean) * cond_mean)
    return np.sum(resp * cond_mean, axis=-1), np.sum(deriv, axis=-1)


@pytest.mark.parametrize("t", [1, 500, 999])
@pytest.mark.parametrize("case", ["far_tails", "volume"])
def test_denoise_and_vjp_bit_identical(case, t):
    if case == "far_tails":
        prior, _ = make_prior([0.5, 0.5], [0.0, 1.0], [0.01, 0.01])
        x = np.array([[[-50.0, 50.0, 0.0]]])
    else:
        prior, _ = make_prior([0.55, 0.25, 0.2], [0.0, 0.3, 1.0], [0.04, 0.06, 0.12])
        x = 0.6 * Xoshiro256PP(10).normal_array((4, 5, 6)) + 0.3
    cot = Xoshiro256PP(11).normal_array(x.shape)
    before = dict(vars(prior))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0, vjp = prior.denoise_and_vjp(x, t)
        grad = vjp(cot)
        ref_x0, ref_deriv = last_axis_reference(prior, x, t)
        assert np.array_equal(x0, prior.denoise(x, t))
        assert value_is_fused(prior, x, t)
        if case == "far_tails":  # out of the table's range: the exact pass
            assert np.array_equal(x0, ref_x0)
            deriv = ref_deriv
        else:
            assert np.max(np.abs(x0 - ref_x0)) <= priors._TABLE_TOL
            deriv = vjp(np.ones_like(x))
        assert np.array_equal(grad, cot * deriv)
        assert np.array_equal(prior.input_vjp(x, t, cot), grad)
        assert np.array_equal(prior.input_vjp(x, t, np.ones_like(x)), deriv)
    assert np.all(np.isfinite(x0)) and np.all(np.isfinite(grad))
    assert vars(prior).keys() == before.keys()
    assert all(vars(prior)[key] is value for key, value in before.items())


BENCH_LIKE = ([0.55, 0.25, 0.15, 0.05], [0.0, 0.3, 0.6, 1.0], [0.04, 0.06, 0.1, 0.12])
TILE = priors._TILE


def same_bits(a, b):
    """Equal shapes and bytes: stricter than array_equal, which lets -0.0 == 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def value_is_fused(prior, x, t):
    """denoise(x, t) has the bytes of denoise_and_vjp(x, t)'s value."""
    return prior.denoise(x, t).tobytes() == prior.denoise_and_vjp(x, t)[0].tobytes()


def fused_outputs(prior, x, t, cot):
    x0, vjp = prior.denoise_and_vjp(x, t)
    return x0, vjp(cot), prior.denoise(x, t)


@pytest.mark.parametrize("shape", [
    (), (1,), (TILE - 1,), (TILE,), (TILE + 1,), (3 * TILE + 5,),
    (16, 64, 64), "transposed",
], ids=["0-d", "1", "tile-1", "tile", "tile+1", "3tile+5", "16x64x64", "transposed"])
def test_tiled_matches_one_tile(shape, monkeypatch):
    # Tiles of the default size, and of 7 voxels, give the bits of one
    # tile holding the whole volume.
    prior, _ = make_prior(*BENCH_LIKE)
    if shape == "transposed":
        x = (0.6 * Xoshiro256PP(12).normal_array((16, 64, 64)) + 0.3).transpose(2, 0, 1)
        assert not x.flags.c_contiguous
    else:
        x = 0.6 * Xoshiro256PP(12).normal_array(shape) + 0.3
    cot = Xoshiro256PP(13).normal_array(x.shape)
    for t in (1, 500, 999):
        tiled = fused_outputs(prior, x, t, cot)
        monkeypatch.setattr(priors, "_TILE", 7)
        small = fused_outputs(prior, x, t, cot)
        monkeypatch.setattr(priors, "_TILE", max(x.size, 1))
        whole = fused_outputs(prior, x, t, cot)
        monkeypatch.setattr(priors, "_TILE", TILE)
        assert tiled[0].shape == x.shape
        for got, small_got, ref in zip(tiled, small, whole):
            assert same_bits(got, ref) and same_bits(small_got, ref)


def test_non_finite_inputs_propagate_without_warnings():
    # NaN, +-inf and a square that overflows, placed on both sides of a tile
    # border, give NaN at their own voxels only.
    prior, _ = make_prior(*BENCH_LIKE)
    x = np.full(2 * TILE, 0.4)
    bad = [0, TILE - 1, TILE, TILE + 1]
    x[bad] = [np.nan, np.inf, -np.inf, 1e200]
    for t in (1, 500, 999):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0, vjp = prior.denoise_and_vjp(x, t)
            grad = vjp(np.ones_like(x))
            alone = prior.denoise(x, t)
        for out in (x0, grad, alone):
            assert np.all(np.isnan(out[bad]))
            assert np.isfinite(np.delete(out, bad)).all()
        assert value_is_fused(prior, x, t)


def test_calls_leave_prior_attributes_unchanged():
    prior, _ = make_prior(*BENCH_LIKE)
    before = dict(vars(prior))
    snapshot = {key: np.copy(value) for key, value in before.items()
                if isinstance(value, np.ndarray)}
    x = Xoshiro256PP(14).normal_array((3, TILE + 1))
    prior.denoise(x, 500)
    prior.denoise_and_vjp(x, 500)[1](x)
    assert vars(prior).keys() == before.keys()
    assert all(vars(prior)[key] is value for key, value in before.items())
    assert all(np.array_equal(vars(prior)[key], value) for key, value in snapshot.items())


def test_fused_call_allocation_peak():
    # The outputs take 1 MB at 16x64x64; the tile scratch adds about 1 MB
    # for four components, where full (K, N) temporaries took 9 MB.  The
    # first call at a new t (501) also builds its 0.5 MB table through the
    # exact pass.
    prior, _ = make_prior(*BENCH_LIKE)
    x = 0.6 * Xoshiro256PP(15).normal_array((16, 64, 64)) + 0.3
    prior.denoise_and_vjp(x, 500)
    for t in (500, 501):
        tracemalloc.start()
        try:
            prior.denoise_and_vjp(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, (t, peak)


NARROW = ([0.5, 0.5], [0.0, 1.0], [0.01, 0.01])


def table_for(prior, t):
    """The cached table of `prior` at t, or None where it failed its check."""
    mixture = (prior.weights, prior.means, prior.stds)
    return priors._table(*(tuple(v.tolist()) for v in mixture),
                         float(prior.schedule.alpha_bar[t]))


def exact_outputs(prior, x, t):
    mixture = (prior.weights, prior.means, prior.stds)
    return priors._exact_pass(mixture, float(prior.schedule.alpha_bar[t]), x)


def test_table_within_tolerance_or_exact_bits():
    # Every t of a 30-step schedule, on 1e5 points spread over the table's
    # range: a kept table stays within tolerance of the exact pass, and a
    # rejected one (the narrow prior at t = 1) leaves the exact pass's bits.
    x = 2 * priors._TABLE_EDGE * np.array(Xoshiro256PP(16).uniforms(100_000)) - priors._TABLE_EDGE
    kept = rejected = 0
    for mixture in (BENCH_LIKE, NARROW):
        prior, sched = make_prior(*mixture)
        for t in sched.sampling_steps:
            x0, vjp = prior.denoise_and_vjp(x, t)
            ref_x0, ref_deriv = exact_outputs(prior, x, t)
            if table_for(prior, t) is None:
                rejected += 1
                assert same_bits(x0, ref_x0) and same_bits(vjp(np.ones_like(x)), ref_deriv)
            else:
                kept += 1
                assert np.max(np.abs(x0 - ref_x0)) <= priors._TABLE_TOL, t
            assert value_is_fused(prior, x, t), t
    assert kept and rejected


@pytest.mark.parametrize("value", [9.0, -9.0, np.nan, np.inf, -np.inf])
def test_one_voxel_out_of_range_takes_the_exact_pass(value):
    prior, _ = make_prior(*BENCH_LIKE)
    x = 0.6 * Xoshiro256PP(17).normal_array((3, TILE + 1)) + 0.3
    x[2, 5] = value
    assert table_for(prior, 500) is not None
    x0, vjp = prior.denoise_and_vjp(x, 500)
    ref_x0, ref_deriv = exact_outputs(prior, x, 500)
    assert same_bits(x0, ref_x0) and same_bits(prior.denoise(x, 500), ref_x0)
    assert same_bits(vjp(np.ones_like(x)), ref_deriv)
    assert value_is_fused(prior, x, 500)


def test_mixture_mutated_in_place_gets_a_fresh_table():
    prior, _ = make_prior(*BENCH_LIKE)
    x = 0.6 * Xoshiro256PP(18).normal_array((4, 5, 6)) + 0.3
    before = prior.denoise(x, 500)
    prior.means[1] += 0.1
    after = prior.denoise(x, 500)
    assert table_for(prior, 500) is not None
    assert np.max(np.abs(after - exact_outputs(prior, x, 500)[0])) <= priors._TABLE_TOL
    assert np.max(np.abs(after - before)) > 1e-3
    assert value_is_fused(prior, x, 500)


def test_one_table_cached_across_thirty_steps():
    prior, sched = make_prior(*BENCH_LIKE)
    x = 0.6 * Xoshiro256PP(19).normal_array((2, 3, 4)) + 0.3
    for t in sched.sampling_steps:
        prior.denoise_and_vjp(x, t)
    info = priors._table.cache_info()
    assert info.maxsize == 1 and info.currsize == 1

"""Convolutional noise predictor: manual conv calculus and training."""

import numpy as np
import pytest

from nerdct import (
    ConvDenoiserPrior,
    NoiseSchedule,
    load_weights,
    save_weights,
    train_denoiser,
)
from nerdct.convnet import (
    CHANNELS,
    KERNEL,
    _backward,
    _forward_cache,
    conv2d,
    conv_forward,
    conv2d_input_grad,
    denoising_loss,
    init_weights,
    pack_weights,
    unpack_weights,
)
from nerdct.rng import Xoshiro256PP

SCHED = NoiseSchedule.linear_beta(n_sampling_steps=30)


def test_conv2d_against_naive_loops():
    rng = Xoshiro256PP(0)
    x = rng.normal_array((2, 6, 7))
    w = rng.normal_array((3, 2, KERNEL, KERNEL))
    b = rng.normals(3)
    out = conv2d(x, w, b)
    assert out.shape == (3, 6, 7)
    pad = KERNEL // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    for co in range(3):
        for i in range(6):
            for j in range(7):
                acc = b[co]
                for ci in range(2):
                    for u in range(KERNEL):
                        for v in range(KERNEL):
                            acc += w[co, ci, u, v] * xp[ci, i + u, j + v]
                assert abs(out[co, i, j] - acc) < 1e-12


def tensordot_conv2d(x, weight, bias):
    """Reference: conv2d as a per-tap tensordot over copied patches."""
    c_in, height, width = x.shape
    c_out = weight.shape[0]
    padded = np.zeros((c_in, height + 2, width + 2))
    padded[:, 1:-1, 1:-1] = x
    out = np.zeros((c_out, height, width))
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            patch = padded[:, dy:dy + height, dx:dx + width]
            out += np.tensordot(weight[:, :, dy, dx], patch, axes=1)
    return out + bias[:, None, None]


def tensordot_conv2d_input_grad(grad_out, weight):
    """Reference: the transposed conv as a per-tap tensordot scatter."""
    c_out, height, width = grad_out.shape
    c_in = weight.shape[1]
    acc = np.zeros((c_in, height + 2, width + 2))
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            acc[:, dy:dy + height, dx:dx + width] += np.tensordot(
                weight[:, :, dy, dx].T, grad_out, axes=1
            )
    return acc[:, 1:-1, 1:-1]


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("c_in, c_out", [(2, 8), (8, 8), (8, 1), (1, 3)])
@pytest.mark.parametrize("height, width", [(1, 1), (7, 6), (6, 7), (64, 64)])
def test_conv_kernels_bit_identical_to_tensordot_loops(c_in, c_out, height, width):
    rng = Xoshiro256PP(100 * c_in + c_out + height)
    x = rng.normal_array((c_in, height, width))
    w = rng.normal_array((c_out, c_in, KERNEL, KERNEL))
    b = rng.normals(c_out)
    assert_same_bits(conv2d(x, w, b), tensordot_conv2d(x, w, b))

    # A cotangent masked like a ReLU's: exact 0.0 and -0.0 entries and blocks.
    grad = rng.normal_array((c_out, height, width))
    grad *= rng.normal_array(grad.shape) > 0.0
    grad[:, : height // 2, : width // 2] = 0.0
    grad[:, height // 2 :, width // 2 :] = -0.0
    for g in (grad, rng.normal_array(grad.shape)):
        assert_same_bits(conv2d_input_grad(g, w), tensordot_conv2d_input_grad(g, w))
        # The transposed conv is the adjoint of the bias-free conv.
        lhs = float(np.sum(conv2d(x, w, np.zeros(c_out)) * g))
        rhs = float(np.sum(x * conv2d_input_grad(g, w)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_zero_weights_zero_prediction():
    weights = init_weights(0)
    zeroed = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    x = Xoshiro256PP(1).normal_array((5, 5))
    eps_hat = conv_forward(x, 500, zeroed, SCHED)
    assert np.all(eps_hat == 0.0)


def test_forward_shape_and_channels():
    weights = init_weights(3)
    x = Xoshiro256PP(2).normal_array((8, 9))
    out = conv_forward(x, 250, weights, SCHED)
    assert out.shape == (8, 9)
    # Layer shapes follow the declared channel progression.
    assert [w.shape[1] for w, _ in weights] == list(CHANNELS[:-1])
    assert [w.shape[0] for w, _ in weights] == list(CHANNELS[1:])


def test_time_channel_matters():
    # The conditioning channel changes the output across t.
    weights = init_weights(4)
    x = Xoshiro256PP(3).normal_array((6, 6))
    a = conv_forward(x, 10, weights, SCHED)
    b = conv_forward(x, 990, weights, SCHED)
    assert not np.allclose(a, b)


def test_input_vjp_matches_finite_differences():
    # The fused call the samplers make: Tweedie's step chained through the net.
    prior = ConvDenoiserPrior(SCHED, init_weights(5))
    rng = Xoshiro256PP(6)
    x = rng.normal_array((1, 5, 6))
    cot = rng.normal_array((1, 5, 6))
    g = prior.denoise_and_vjp(x, 400)[1](cot)
    h = 1e-6
    for _ in range(20):
        i = int(rng.integers(0, 4, 1)[0])
        j = int(rng.integers(0, 5, 1)[0])
        xp = x.copy(); xp[0, i, j] += h
        xm = x.copy(); xm[0, i, j] -= h
        fd = (np.sum(cot * prior.denoise(xp, 400))
              - np.sum(cot * prior.denoise(xm, 400))) / (2 * h)
        assert abs(g[0, i, j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_weight_grad_matches_finite_differences():
    weights = init_weights(7)
    rng = Xoshiro256PP(8)
    x = rng.normal_array((5, 5))
    cot = rng.normal_array((5, 5))
    # The two calls denoising_loss makes, with the probe's cotangent.
    grads = _backward(cot, weights, _forward_cache(x, 300, weights, SCHED)[1])
    h = 1e-6
    flat = pack_weights(weights)
    gflat = pack_weights(grads)
    for _ in range(30):
        idx = int(rng.integers(0, flat.size - 1, 1)[0])
        wp = unpack_weights(flat.copy())
        fp = flat.copy(); fp[idx] += h
        fm = flat.copy(); fm[idx] -= h
        up = np.sum(cot * conv_forward(x, 300, unpack_weights(fp), SCHED))
        dn = np.sum(cot * conv_forward(x, 300, unpack_weights(fm), SCHED))
        fd = (up - dn) / (2 * h)
        assert abs(gflat[idx] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_pack_unpack_round_trip():
    weights = init_weights(9)
    flat = pack_weights(weights)
    back = unpack_weights(flat)
    for (w1, b1), (w2, b2) in zip(weights, back):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    n_params = sum(w.size + b.size for w, b in weights)
    assert flat.size == n_params


def test_denoising_loss_gradient_finite_differences():
    weights = init_weights(10)
    rng = Xoshiro256PP(11)
    x = rng.normal_array((6, 6))
    eps = rng.normal_array((6, 6))
    loss, grads = denoising_loss(x, 200, weights, SCHED, eps)
    assert loss >= 0.0
    flat = pack_weights(weights)
    gflat = pack_weights(grads)
    h = 1e-6
    for _ in range(15):
        idx = int(rng.integers(0, flat.size - 1, 1)[0])
        fp = flat.copy(); fp[idx] += h
        fm = flat.copy(); fm[idx] -= h
        lp, _ = denoising_loss(x, 200, unpack_weights(fp), SCHED, eps)
        lm, _ = denoising_loss(x, 200, unpack_weights(fm), SCHED, eps)
        fd = (lp - lm) / (2 * h)
        assert abs(gflat[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def phantom_slices(nx=64, nz=32):
    from nerdct import shepp_logan_3d

    vol = shepp_logan_3d(nx, nx, nz)
    return [vol[k] for k in range(nz)]


def test_training_decreases_loss_and_beats_identity():
    # Pinned desk-scale conditions: axial phantom slices, defaults, seed 0.
    slices = phantom_slices()
    weights, record = train_denoiser(slices, SCHED, epochs=4, seed=0, lr=2e-3,
                                     holdout_fraction=0.2)
    losses = record["train_epoch_losses"]
    assert len(losses) == 4
    assert losses[-1] < losses[0]
    # Predicting eps = x_t (pure passthrough) is the do-nothing floor.
    assert record["holdout_loss"] < record["identity_baseline_loss"]
    assert record["n_train"] == 26 and record["n_holdout"] == 6


def test_training_deterministic():
    slices = phantom_slices(nx=32, nz=8)
    args = dict(epochs=2, lr=1e-3, holdout_fraction=0.2)
    w1, r1 = train_denoiser(slices, SCHED, seed=4, **args)
    w2, r2 = train_denoiser(slices, SCHED, seed=4, **args)
    assert np.array_equal(pack_weights(w1), pack_weights(w2))
    assert r1["train_epoch_losses"] == r2["train_epoch_losses"]
    w3, _ = train_denoiser(slices, SCHED, seed=5, **args)
    assert not np.array_equal(pack_weights(w1), pack_weights(w3))


def test_training_zero_lr_keeps_init():
    slices = phantom_slices(nx=32, nz=8)
    trained, _ = train_denoiser(slices, SCHED, epochs=2, seed=6, lr=0.0,
                                holdout_fraction=0.2)
    init = init_weights(6)
    assert np.array_equal(pack_weights(trained), pack_weights(init))


def test_holdout_fraction_bounds():
    slices = phantom_slices(nx=32, nz=8)
    with pytest.raises(ValueError):
        train_denoiser(slices, SCHED, epochs=1, seed=0, lr=1e-3,
                       holdout_fraction=1.0)
    with pytest.raises(ValueError):
        train_denoiser([], SCHED, epochs=1, seed=0, lr=1e-3,
                       holdout_fraction=0.2)


def test_weights_io_round_trip(tmp_path):
    weights = init_weights(16)
    path = tmp_path / "weights.f64"
    save_weights(str(path), weights, SCHED, record={"epochs": 0})
    loaded, meta = load_weights(str(path), SCHED)
    assert np.array_equal(pack_weights(weights), pack_weights(loaded))
    assert meta["kernel"] == KERNEL
    assert tuple(meta["channels"]) == CHANNELS


def test_weights_io_size_mismatch(tmp_path):
    path = tmp_path / "weights.f64"
    save_weights(str(path), init_weights(16), SCHED, {})
    data = path.read_bytes()
    for damaged in (data[:-8], data + b"\0\0\0"):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="does not match"):
            load_weights(str(path), SCHED)


def test_prior_denoise_and_vjp_consistent_with_tweedie():
    weights = init_weights(17)
    prior = ConvDenoiserPrior(SCHED, weights)
    rng = Xoshiro256PP(18)
    vol = rng.normal_array((3, 6, 6))
    t = 600
    a = SCHED.alpha_bar[t]
    out = prior.denoise(vol, t)
    for k in range(3):
        eps_hat = conv_forward(vol[k], t, weights, SCHED)
        expected = (vol[k] - np.sqrt(1 - a) * eps_hat) / np.sqrt(a)
        assert np.allclose(out[k], expected, rtol=1e-12)


def test_prior_vjp_finite_difference_through_volume():
    weights = init_weights(19)
    prior = ConvDenoiserPrior(SCHED, weights)
    rng = Xoshiro256PP(20)
    vol = rng.normal_array((2, 5, 5))
    cot = rng.normal_array((2, 5, 5))
    g = prior.input_vjp(vol, 450, cot)
    h = 1e-6
    for _ in range(10):
        k = int(rng.integers(0, 1, 1)[0])
        i = int(rng.integers(0, 4, 1)[0])
        j = int(rng.integers(0, 4, 1)[0])
        vp = vol.copy(); vp[k, i, j] += h
        vm = vol.copy(); vm[k, i, j] -= h
        fd = (np.sum(cot * prior.denoise(vp, 450)) - np.sum(cot * prior.denoise(vm, 450))) / (2 * h)
        assert abs(g[k, i, j] - fd) <= 1e-5 * max(1.0, abs(fd))


def closure_arrays(fn):
    """Arrays a closure keeps alive, including those inside lists and tuples."""
    found, todo = [], [cell.cell_contents for cell in fn.__closure__]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return found


def test_prior_denoise_and_vjp_bit_identical_per_slice():
    weights = init_weights(21)
    prior = ConvDenoiserPrior(SCHED, weights)
    rng = Xoshiro256PP(22)
    vol = rng.normal_array((3, 7, 6))
    cot = rng.normal_array((3, 7, 6))
    t = 350
    before = dict(vars(prior))
    x0, vjp = prior.denoise_and_vjp(vol, t)
    assert np.array_equal(x0, prior.denoise(vol, t))
    got = vjp(cot)
    for k in range(3):
        x0_k, vjp_k = prior.denoise_and_vjp(vol[k:k + 1], t)
        assert np.array_equal(x0[k], x0_k[0])
        assert np.array_equal(got[k], vjp_k(cot[k:k + 1])[0])
    assert np.array_equal(prior.input_vjp(vol, t, cot), got)
    assert vars(prior).keys() == before.keys()
    assert all(vars(prior)[key] is value for key, value in before.items())
    # The closure keeps the prior and boolean ReLU masks, never the input,
    # the activations or the noise prediction.
    held = closure_arrays(vjp)
    assert not any(arr is vol or np.shares_memory(arr, vol) for arr in held)
    assert all(arr.dtype == bool for arr in held if arr.shape[-2:] == vol.shape[-2:])


@pytest.mark.parametrize("call, message", [
    (lambda: unpack_weights(np.zeros(len(pack_weights(init_weights(0))) + 1)),
     "weight vector length"),
    (lambda: train_denoiser(np.zeros((5, 8, 8)), SCHED, epochs=-1, seed=0,
                            lr=1e-3, holdout_fraction=0.2), "epochs"),
], ids=["weights-length", "negative-epochs"])
def test_convnet_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()

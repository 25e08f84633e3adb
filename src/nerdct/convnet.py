"""Small convolutional noise predictor with hand-written backward passes.

Architecture: three 3x3 same-padding conv layers over the image channels
1 -> 8 -> 8 -> 1 with ReLU between them.  Time conditioning concatenates a
constant channel equal to sqrt(1 - alpha_bar_t) to the input, so the first
kernel sees 2 input channels.  The network predicts the noise eps_hat; the
denoised image is the residual form (x_t - sqrt(1-a)*eps_hat) / sqrt(a).

Forward, input-gradient, and weight-gradient passes are explicit numpy so
they can be checked directly against finite differences.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optim import AdamState, adam_step
from .priors import DenoiserPrior
from .rng import Xoshiro256PP
from .schedule import tweedie_denoise
from .volume import load_raw, save_raw

KERNEL = 3
CHANNELS = (2, 8, 8, 1)  # image + time channel in, eps out
GATHER_CHANNELS = 2  # operands this thin run as one matmul on copied windows
#: train-denoiser's Adam rate and the share of slices it holds out.
TRAIN_LR = 2e-3
HOLDOUT_FRACTION = 0.2


def _windows(x):
    """(9C, H*W) copy of the 3x3 windows of x (C, H, W), zero-padded once:
    row 9c + 3dy + dx is channel c shifted by (dy, dx)."""
    c, height, width = x.shape
    padded = np.zeros((c, height + 2, width + 2))
    padded[:, 1:-1, 1:-1] = x
    windows = sliding_window_view(padded, (height, width), axis=(1, 2))
    return windows.reshape(c * KERNEL * KERNEL, height * width)


def _tap_sum(x, taps, scatter):
    """Sum over the taps (dy, dx), in row-major order, of taps[dy, dx] @ x.

    An x of at most GATHER_CHANNELS channels has its windows copied into one
    buffer for a single matmul (taps flipped for the transposed conv).  For
    wider ones the copy costs more than it saves, so x is zero-padded once
    into a (C, H+2, W+4) buffer viewed flat, and each tap's operand is a
    contiguous run that BLAS reads in place: the conv reads at the tap's shift
    and adds at the centre, the transposed conv (scatter) reads at the centre
    and adds at the shift.  Pitch columns are cropped; in the scatter they add
    +-0 to sums that start at +0.0.  These bits equal a per-tap np.dot on the
    dense patch: kernels go in as np.dot takes them (a matrix copied, a row
    strided), and the run spans the first to the last pixel with length
    H*W mod 4, so gemv kernels that round the last N mod 4 outputs apart
    round the same pixels apart.
    """
    c, height, width = x.shape
    if c <= GATHER_CHANNELS:
        taps = taps[::-1, ::-1] if scatter else taps
        kernel = taps.transpose(2, 3, 0, 1).reshape(taps.shape[2], -1)
        return (kernel @ _windows(x)).reshape(-1, height, width)
    taps = np.ascontiguousarray(taps) if taps.shape[2] > 1 else taps
    row = width + 4
    n = (height - 1) * row + width
    padded = np.zeros((c, height + 2, row))
    padded[:, 1:height + 1, 1:width + 1] = x
    flat = padded.reshape(c, -1)
    out = np.zeros((taps.shape[2], (height + 2) * row))
    prod = np.empty((taps.shape[2], n))
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            shift = dy * row + dx
            read, write = (row + 1, shift) if scatter else (shift, row + 1)
            np.matmul(taps[dy, dx], flat[:, read:read + n], out=prod)
            out[:, write:write + n] += prod
    return out.reshape(-1, height + 2, row)[:, 1:height + 1, 1:width + 1]


def conv2d(x, weight, bias):
    """3x3 stride-1 conv with zero same-padding; x is (Cin, H, W)."""
    return _tap_sum(x, weight.transpose(2, 3, 0, 1), scatter=False) + bias[:, None, None]


def conv2d_input_grad(grad_out, weight):
    """Gradient w.r.t. the conv input (transposed conv, same kernel)."""
    return _tap_sum(grad_out, weight.transpose(2, 3, 1, 0), scatter=True)


def conv2d_weight_grad(grad_out, x):
    """Gradients w.r.t. kernel and bias for one input.  A thin x takes one
    matmul on its windows; a wide one takes a patch per tap, since its
    windows would be the largest buffer training holds."""
    c_in, height, width = x.shape
    c_out = grad_out.shape[0]
    if c_in <= GATHER_CHANNELS:
        grad_w = grad_out.reshape(c_out, -1) @ _windows(x).T
        return grad_w.reshape(c_out, c_in, KERNEL, KERNEL), grad_out.sum(axis=(1, 2))
    padded = np.zeros((c_in, height + 2, width + 2))
    padded[:, 1:-1, 1:-1] = x
    grad_w = np.zeros((c_out, c_in, KERNEL, KERNEL))
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            patch = padded[:, dy:dy + height, dx:dx + width]
            grad_w[:, :, dy, dx] = np.tensordot(
                grad_out, patch, axes=([1, 2], [1, 2])
            )
    return grad_w, grad_out.sum(axis=(1, 2))


def init_weights(seed):
    """He-normal kernels, zero biases, drawn from the documented stream.

    Draw order: for each layer, kernel entries in C order, then biases.
    """
    rng = Xoshiro256PP(seed)
    layers = []
    for c_in, c_out in zip(CHANNELS[:-1], CHANNELS[1:]):
        scale = np.sqrt(2.0 / (c_in * KERNEL * KERNEL))
        weight = scale * rng.normal_array((c_out, c_in, KERNEL, KERNEL))
        bias = np.zeros(c_out)
        layers.append((weight, bias))
    return layers


def _time_stack(x2d, t, schedule):
    a = schedule.alpha_bar[t]
    return np.stack([x2d, np.full_like(x2d, np.sqrt(1.0 - a))])


def _forward_cache(x2d, t, weights, schedule):
    """(eps_hat, each layer's input).  A hidden input is a ReLU output, which
    is > 0 exactly where its pre-activation is, so it doubles as the mask."""
    act = _time_stack(x2d, t, schedule)
    inputs = []
    last = len(weights) - 1
    for i, (kernel, bias) in enumerate(weights):
        inputs.append(act)
        z = conv2d(act, kernel, bias)
        act = np.maximum(z, 0.0) if i < last else z
    return act[0], inputs


def conv_forward(x2d, t, weights, schedule):
    """Predicted noise eps_hat for one 2D slice."""
    return _forward_cache(x2d, t, weights, schedule)[0]


def _backward(grad_eps, weights, inputs):
    """Per-layer (kernel, bias) gradients; the training pass."""
    grad = grad_eps[None]
    weight_grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        weight_grads[i] = conv2d_weight_grad(grad, inputs[i])
        if i > 0:
            grad = conv2d_input_grad(grad, weights[i][0]) * (inputs[i] > 0.0)
    return weight_grads


def _input_grad(grad_eps, weights, masks):
    """Transposed-conv chain to the image channel; masks[i] = hidden ReLU i active.
    The first layer's transpose forms the image channel alone, not the time one."""
    grad = grad_eps[None]
    for i in range(len(weights) - 1, 0, -1):
        grad = conv2d_input_grad(grad, weights[i][0]) * masks[i - 1]
    return conv2d_input_grad(grad, weights[0][0][:, :1])[0]


def pack_weights(weights):
    """Flatten layers to one vector: kernel then bias, layer by layer."""
    return np.concatenate(
        [np.concatenate([w.ravel(), b.ravel()]) for w, b in weights]
    )


def unpack_weights(flat):
    layers, offset = [], 0
    for c_in, c_out in zip(CHANNELS[:-1], CHANNELS[1:]):
        n_w = c_out * c_in * KERNEL * KERNEL
        weight = flat[offset:offset + n_w].reshape(c_out, c_in, KERNEL, KERNEL)
        offset += n_w
        bias = flat[offset:offset + c_out]
        offset += c_out
        layers.append((weight.copy(), bias.copy()))
    if offset != len(flat):
        raise ValueError(f"weight vector length {len(flat)} != expected {offset}")
    return layers


class ConvDenoiserPrior(DenoiserPrior):
    """Denoiser prior backed by the conv noise predictor, applied per slice."""

    def __init__(self, schedule, weights):
        self.schedule = schedule
        self.weights = weights

    def denoise_and_vjp(self, x_t, t):
        """One forward pass per slice; the VJP reuses its hidden ReLU masks."""
        if np.ndim(x_t) != 3:
            raise ValueError("expected an (nz, ny, nx) stack of slices, "
                             f"got shape {np.shape(x_t)}")
        eps = np.empty_like(x_t)
        # One bool block (slice, hidden layer, channel, y, x); hidden widths match.
        hidden = (len(CHANNELS) - 2, CHANNELS[1])
        masks = np.empty((len(x_t),) + hidden + x_t.shape[1:], dtype=bool)
        for k in range(len(x_t)):
            eps[k], inputs = _forward_cache(x_t[k], t, self.weights, self.schedule)
            masks[k] = [a > 0.0 for a in inputs[1:]]
        x0 = tweedie_denoise(x_t, t, eps, self.schedule)

        def vjp(cotangent):
            eps_vjp = np.empty(cotangent.shape)
            for k in range(len(cotangent)):
                eps_vjp[k] = _input_grad(cotangent[k], self.weights, masks[k])
            return tweedie_denoise(cotangent, t, eps_vjp, self.schedule)

        return x0, vjp


def denoising_loss(x2d, t, weights, schedule, eps):
    """Mean squared noise-prediction error and its weight gradients."""
    a = schedule.alpha_bar[t]
    noisy = np.sqrt(a) * x2d + np.sqrt(1.0 - a) * eps
    eps_hat, inputs = _forward_cache(noisy, t, weights, schedule)
    diff = eps_hat - eps
    loss = float(np.mean(diff**2))
    return loss, _backward(2.0 * diff / diff.size, weights, inputs)


def _holdout_losses(slices, pairs, weights, schedule):
    """Noise-prediction loss of the net and of the identity map eps_hat = x_t."""
    net_total, identity_total = 0.0, 0.0
    for x2d, (t, eps) in zip(slices, pairs):
        a = schedule.alpha_bar[t]
        noisy = np.sqrt(a) * x2d + np.sqrt(1.0 - a) * eps
        eps_hat = conv_forward(noisy, t, weights, schedule)
        net_total += float(np.mean((eps_hat - eps) ** 2))
        identity_total += float(np.mean((noisy - eps) ** 2))
    return net_total / len(pairs), identity_total / len(pairs)


def train_denoiser(slices, schedule, epochs, seed, lr, holdout_fraction):
    """Train the noise predictor on 2D slices with the denoising objective.

    Per sample: draw t uniform over [1, T] and fresh noise, form the noisy
    slice, and take one Adam step on the mean squared noise-prediction
    error.  The trailing `holdout_fraction` of the slices is held out and
    scored with draws fixed before training, so the held-out loss depends
    only on the final weights.  Returns (weights, record) where the record
    carries per-epoch training means and the held-out/identity losses.
    """
    slices = np.asarray(slices, dtype=np.float64)
    if slices.ndim != 3:
        raise ValueError(f"expected (n_slices, H, W), got shape {slices.shape}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if not 0 < holdout_fraction < 1:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    n_holdout = max(1, int(round(holdout_fraction * len(slices))))
    if n_holdout >= len(slices):
        raise ValueError(f"not enough slices ({len(slices)}) to hold out {n_holdout}")
    train, holdout = slices[:-n_holdout], slices[-n_holdout:]

    weights = init_weights(seed)
    rng = Xoshiro256PP(seed)
    num_t = schedule.num_train_steps
    eval_pairs = [
        (rng.integers(1, num_t, 1)[0], rng.normal_array(holdout.shape[1:]))
        for _ in range(n_holdout)
    ]

    adam = AdamState(lr=lr)
    flat = pack_weights(weights)
    epoch_losses = []
    for _ in range(epochs):
        total = 0.0
        for x2d in train:
            t = rng.integers(1, num_t, 1)[0]
            eps = rng.normal_array(x2d.shape)
            loss, grads = denoising_loss(x2d, t, weights, schedule, eps)
            total += loss
            flat = adam_step(adam, flat, pack_weights(grads))
            weights = unpack_weights(flat)
        epoch_losses.append(total / len(train))

    holdout_loss, identity_loss = _holdout_losses(holdout, eval_pairs, weights, schedule)
    record = {
        "epochs": epochs,
        "n_train": len(train),
        "n_holdout": n_holdout,
        "train_epoch_losses": epoch_losses,
        "holdout_loss": holdout_loss,
        "identity_baseline_loss": identity_loss,
    }
    return weights, record


def _weights_record(schedule):
    """What a weights descriptor records of the net and its training schedule."""
    return {"kernel": KERNEL,
            "channels": list(CHANNELS),
            "schedule": {"num_train_steps": schedule.num_train_steps,
                         "alpha_bar_last": float(schedule.alpha_bar[-1])}}


def save_weights(path, weights, schedule, record):
    """Save the packed weight vector with save_raw."""
    save_raw(path, pack_weights(weights), ("n_parameters",), {
        **_weights_record(schedule),
        "layout": "per layer: kernel C-order then bias",
        "training": record,
    })


def load_weights(path, schedule):
    """(weights, descriptor) of a save_weights file for this net, trained
    under `schedule`."""
    flat, descriptor = load_raw(path, ("n_parameters",), _weights_record(schedule))
    return unpack_weights(flat), descriptor

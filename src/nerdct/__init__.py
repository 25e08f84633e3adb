"""Sparse-view 3D CT reconstruction with network-regularized diffusion sampling."""

from .config import ConfigError, RunConfig, build_run_config, parse_gmm_components
from .convnet import (
    ConvDenoiserPrior,
    conv_forward,
    conv_input_vjp,
    conv_weight_grad,
    load_weights,
    save_weights,
    train_denoiser,
)
from .metrics import Report, ViewStats, evaluate_volume, psnr, ssim_2d
from .optim import (
    AdamState,
    CGResult,
    NonFiniteGradientError,
    adam_step,
    cg_solve,
    project_linf_ball,
    soft_threshold,
)
from .phantom import SHEPP_LOGAN_ELLIPSOIDS, Ellipsoid, shepp_logan_3d
from .pipeline import build_geometry, build_operator, build_prior, build_schedule
from .priors import DenoiserPrior, GmmScalarPrior, IdentityPrior
from .radon import (
    CTOperator,
    ProjectionGeometry,
    add_gaussian_noise,
    default_geometry,
    load_sinogram,
    save_sinogram,
    uniform_view_indices,
)
from .rng import Xoshiro256PP, splitmix64_stream
from .samplers import (
    Sampler,
    SamplerConfig,
    SamplerError,
    SamplerState,
    TraceRecord,
    run_sampler,
    save_trace,
)
from .schedule import (
    NoiseSchedule,
    eps_from_denoiser,
    tweedie_denoise,
    uniform_sampling_steps,
)
from .volume import (
    SLICE_AXES,
    dot,
    dz_adjoint,
    dz_forward,
    get_slice,
    l1_norm,
    l2_norm_sq,
    load_volume,
    save_volume,
    validate_volume,
)

__version__ = "0.1.0"

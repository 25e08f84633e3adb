"""Sparse-view 3D CT reconstruction with network-regularized diffusion sampling."""

from .config import (
    RunConfig,
    build_operator,
    build_prior,
    build_run_config,
    build_schedule,
)
from .convnet import (
    ConvDenoiserPrior,
    load_weights,
    save_weights,
    train_denoiser,
)
from .metrics import Report, ViewStats, evaluate_volume, psnr
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
    TraceRecord,
    save_trace,
)
from .schedule import (
    NoiseSchedule,
    tweedie_denoise,
)
from .volume import (
    SLICE_AXES,
    dz_adjoint,
    dz_forward,
    l1_norm,
    l2_norm_sq,
    load_volume,
    save_volume,
)

__version__ = "0.1.0"

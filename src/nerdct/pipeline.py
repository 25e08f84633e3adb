"""Builders wiring a RunConfig into schedule, operator and prior."""

from .config import parse_gmm_components
from .convnet import ConvDenoiserPrior, load_weights
from .priors import GmmScalarPrior, IdentityPrior
from .radon import (
    CTOperator,
    ProjectionGeometry,
    default_geometry,
    uniform_view_indices,
)
from .schedule import NoiseSchedule


def build_schedule(cfg):
    return NoiseSchedule.linear_beta(
        num_train_steps=cfg.num_train_steps,
        beta_start=cfg.beta_start,
        beta_end=cfg.beta_end,
        n_sampling_steps=cfg.n_steps,
    )


def build_geometry(cfg):
    if cfg.n_detectors is None:
        return default_geometry(cfg.nx, cfg.n_angles_full, cfg.detector_spacing)
    return ProjectionGeometry(cfg.n_angles_full, cfg.n_detectors, cfg.detector_spacing)


def build_operator(cfg):
    geometry = build_geometry(cfg)
    view_indices = uniform_view_indices(geometry.n_angles_full, cfg.n_views)
    return CTOperator(cfg.nx, cfg.ny, cfg.nz, geometry, view_indices)


def build_prior(cfg, schedule):
    if cfg.prior == "identity":
        return IdentityPrior()
    if cfg.prior == "gmm":
        weights, means, stds = parse_gmm_components(cfg.gmm_components)
        return GmmScalarPrior(schedule, weights, means, stds)
    layers, _ = load_weights(cfg.weights_path)
    return ConvDenoiserPrior(schedule, layers)

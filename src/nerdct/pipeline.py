"""Builders wiring a RunConfig into operator and prior.

The geometry and schedule builders live in `config`, whose validation
runs them.
"""

from .config import build_geometry, parse_gmm_components
from .convnet import ConvDenoiserPrior, load_weights
from .priors import GmmScalarPrior, IdentityPrior
from .radon import CTOperator, uniform_view_indices


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

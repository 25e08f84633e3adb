"""Flat key-value run configuration shared by all CLI commands.

Config files are plain text: one ``key = value`` per line, ``#`` comments
and blank lines ignored.  Every key has a typed default: the sampler keys
in ``SamplerConfig``, the run keys below, and its type is the field's
annotation.  Each key has one name, and unknown keys are rejected.  The
builders at the end wire a RunConfig into geometry, schedule, operator and
prior; validation runs the geometry and schedule builders and the view
selection.  Every rule raises ValueError.
"""

from dataclasses import dataclass, fields

from .convnet import ConvDenoiserPrior, load_weights
from .priors import GmmScalarPrior, IdentityPrior, validate_mixture
from .radon import CTOperator, default_geometry, uniform_view_indices
from .samplers import SamplerConfig
from .schedule import NoiseSchedule


@dataclass
class RunConfig(SamplerConfig):
    """SamplerConfig's keys plus geometry, schedule, prior, training, paths."""

    # volume / geometry
    nx: int = 64                   # axial slices are nx x nx
    nz: int = 32
    n_angles_full: int = 180
    n_views: int = 8
    sigma_y: float = 0.1           # measurement noise std (variance 0.01)
    # prior
    prior: str = "gmm"             # gmm | conv | identity
    gmm_components: str = (
        "0.78:0.0:0.03,0.13:0.2:0.03,0.07:0.3:0.03,0.02:1.0:0.03"
    )
    weights_path: str = "weights.f64"
    # denoiser training
    epochs: int = 4
    # file paths
    volume_path: str = "phantom.f64"
    sinogram_path: str = "sinogram.f64"
    recon_path: str = "recon.f64"
    trace_path: str = "trace.csv"
    report_path: str = "report.json"

    def validate(self):
        super().validate()
        for name in ("nx", "nz"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sigma_y < 0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")
        if self.prior not in ("gmm", "conv", "identity"):
            raise ValueError(f"prior must be gmm, conv or identity, got {self.prior!r}")
        parse_gmm_components(self.gmm_components)
        uniform_view_indices(self.n_angles_full, self.n_views)
        build_geometry(self)
        build_schedule(self)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name, text, target_type):
    text = text.strip()
    try:
        return target_type(text)
    except ValueError as exc:
        raise ValueError(
            f"config key {name!r}: cannot parse {text!r} as {target_type.__name__}"
        ) from exc


def parse_config_text(text):
    """key = value lines to a string dict; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_run_config(file_values, overrides):
    """Typed RunConfig from file values plus --set overrides (later wins)."""
    cfg = RunConfig()
    for key, text in {**file_values, **overrides}.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, str(text), _FIELD_TYPES[key]))
    return cfg.validate()


def build_schedule(cfg):
    return NoiseSchedule.linear_beta(n_sampling_steps=cfg.n_steps)


def build_geometry(cfg):
    return default_geometry(cfg.nx, cfg.n_angles_full)


def build_operator(cfg):
    geometry = build_geometry(cfg)
    view_indices = uniform_view_indices(geometry.n_angles_full, cfg.n_views)
    return CTOperator(cfg.nx, cfg.nx, cfg.nz, geometry, view_indices)


def build_prior(cfg, schedule):
    if cfg.prior == "identity":
        return IdentityPrior()
    if cfg.prior == "gmm":
        weights, means, stds = parse_gmm_components(cfg.gmm_components)
        return GmmScalarPrior(schedule, weights, means, stds)
    layers, _ = load_weights(cfg.weights_path, schedule)
    return ConvDenoiserPrior(schedule, layers)


def parse_gmm_components(text):
    """'w:mu:s,...' triples to checked (weights, means, stds) arrays."""
    triples = [chunk for chunk in text.split(",") if chunk.strip()]
    if not triples:
        raise ValueError("gmm_components must list at least one w:mu:s triple")
    weights, means, stds = [], [], []
    for chunk in triples:
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad gmm component {chunk!r}, expected w:mu:s")
        try:
            w, mu, s = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad gmm component {chunk!r}: {exc}") from exc
        weights.append(w)
        means.append(mu)
        stds.append(s)
    try:
        return validate_mixture(weights, means, stds)
    except ValueError as exc:
        raise ValueError(f"gmm_components: {exc}") from exc

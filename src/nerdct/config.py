"""Flat key-value run configuration shared by all CLI commands.

Config files are plain text: one ``key = value`` per line, ``#`` comments
and blank lines ignored.  Every key has a typed default: the sampler keys
in ``SamplerConfig``, the run keys below.  Unknown keys are rejected.
``lambda``, ``lambda_z`` and ``lambda_couple`` are accepted as aliases for
the lam* fields.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .samplers import SamplerConfig


class ConfigError(ValueError):
    """Bad usage or configuration; maps to CLI exit code 1."""


@dataclass
class RunConfig(SamplerConfig):
    """SamplerConfig's keys plus geometry, schedule, prior, training, paths."""

    # volume / geometry
    nx: int = 64
    ny: int = 64
    nz: int = 32
    n_angles_full: int = 180
    n_views: int = 8
    n_detectors: int = None        # default: ceil(sqrt(2) * nx)
    detector_spacing: float = 1.0
    sigma_y: float = 0.1           # measurement noise std (variance 0.01)
    # diffusion schedule
    num_train_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    # prior
    prior: str = "gmm"             # gmm | conv | identity
    gmm_components: str = (
        "0.78:0.0:0.03,0.13:0.2:0.03,0.07:0.3:0.03,0.02:1.0:0.03"
    )
    weights_path: str = "weights.f64"
    # denoiser training
    epochs: int = 4
    train_lr: float = 2e-3
    holdout_fraction: float = 0.2
    # file paths
    volume_path: str = "phantom.f64"
    sinogram_path: str = "sinogram.f64"
    recon_path: str = "recon.f64"
    trace_path: str = "trace.csv"
    report_path: str = "report.json"

    def validate(self):
        super().validate()
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sigma_y < 0:
            raise ConfigError(f"sigma_y must be >= 0, got {self.sigma_y}")
        if not 1 <= self.n_views <= self.n_angles_full:
            raise ConfigError(
                f"need 1 <= n_views <= n_angles_full, got {self.n_views} of "
                f"{self.n_angles_full}"
            )
        if self.prior not in ("gmm", "conv", "identity"):
            raise ConfigError(f"prior must be gmm, conv or identity, got {self.prior!r}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.holdout_fraction < 1:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_dict(self):
        return asdict(self)


_ALIASES = {
    "lambda": "lam",
    "lambda_z": "lam_z",
    "lambda_couple": "lam_couple",
}

_OPTIONAL_FLOATS = {"dds_gamma"}
_OPTIONAL_INTS = {"n_detectors"}


def _coerce(name, text, target_type):
    text = text.strip()
    if name in _OPTIONAL_FLOATS or name in _OPTIONAL_INTS:
        if text.lower() in ("", "none", "auto"):
            return None
        target_type = int if name in _OPTIONAL_INTS else float
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("non-finite")
            return value
        return text
    except ValueError as exc:
        raise ConfigError(
            f"config key {name!r}: cannot parse {text!r} as {target_type.__name__}"
        ) from exc


def _field_types():
    defaults = RunConfig()
    out = {}
    for f in fields(RunConfig):
        default = getattr(defaults, f.name)
        out[f.name] = type(default) if default is not None else float
    return out


_FIELD_TYPES = _field_types()


def parse_config_text(text):
    """key = value lines to a string dict; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_run_config(file_values=None, overrides=None):
    """Typed RunConfig from file values plus --set overrides (later wins)."""
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            merged[_ALIASES.get(key, key)] = value
    cfg = RunConfig()
    for key, text in merged.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, str(text), _FIELD_TYPES[key]))
    return cfg.validate()


def parse_gmm_components(text):
    """'w:mu:s,...' triples to (weights, means, stds) arrays."""
    triples = [chunk for chunk in text.split(",") if chunk.strip()]
    if not triples:
        raise ConfigError("gmm_components must list at least one w:mu:s triple")
    weights, means, stds = [], [], []
    for chunk in triples:
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad gmm component {chunk!r}, expected w:mu:s")
        try:
            w, mu, s = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad gmm component {chunk!r}: {exc}") from exc
        weights.append(w)
        means.append(mu)
        stds.append(s)
    return np.asarray(weights), np.asarray(means), np.asarray(stds)

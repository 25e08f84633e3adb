"""Command-line entry point.

Commands: generate-phantom, simulate, reconstruct, evaluate, train-denoiser.
Each reads a flat key-value config file (--config), applies --set overrides,
and writes its outputs next to the configured paths.  Exit codes: 0 on
success, 1 for usage/config errors, 2 for runtime or numeric failures.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import convnet
from .config import ConfigError, build_run_config, parse_config_text
from .metrics import evaluate_volume
from .optim import NonFiniteGradientError
from .phantom import shepp_logan_3d
from .pipeline import build_operator, build_prior, build_schedule
from .radon import (
    CTOperator,
    ProjectionGeometry,
    add_gaussian_noise,
    load_sinogram,
    save_sinogram,
)
from .samplers import Sampler, SamplerError, save_trace
from .volume import load_volume, save_volume

COMMANDS = (
    "generate-phantom",
    "simulate",
    "reconstruct",
    "evaluate",
    "train-denoiser",
)

# --out targets this config path, per command.
_OUT_KEY = {
    "generate-phantom": "volume_path",
    "simulate": "sinogram_path",
    "reconstruct": "recon_path",
    "evaluate": "report_path",
    "train-denoiser": "weights_path",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(args):
    file_values = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            file_values = parse_config_text(fh.read())
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.method is not None:
        overrides["method"] = args.method
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides[_OUT_KEY[args.command]] = args.out
    return build_run_config(file_values, overrides)


def _require_file(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


def cmd_generate_phantom(cfg):
    vol = shepp_logan_3d(cfg.nx, cfg.ny, cfg.nz)
    save_volume(
        cfg.volume_path,
        vol,
        provenance={"generator": "shepp-logan-3d", "seed": cfg.seed},
    )
    print(f"wrote {cfg.volume_path} ({cfg.nz}x{cfg.ny}x{cfg.nx})")
    return 0


def cmd_simulate(cfg):
    _require_file(cfg.volume_path, "input volume")
    vol, _ = load_volume(cfg.volume_path)
    nz, ny, nx = vol.shape
    if (cfg.nz, cfg.ny, cfg.nx) != (nz, ny, nx):
        raise ConfigError(
            f"volume file is {nz}x{ny}x{nx}, config says {cfg.nz}x{cfg.ny}x{cfg.nx}"
        )
    operator = build_operator(cfg)
    clean = operator.forward(vol)
    noisy = add_gaussian_noise(clean, cfg.sigma_y, cfg.seed)
    save_sinogram(
        cfg.sinogram_path,
        noisy,
        operator.geometry,
        operator.view_indices,
        sigma_y=cfg.sigma_y,
        seed=cfg.seed,
        provenance={"source_volume": cfg.volume_path},
    )
    print(
        f"wrote {cfg.sinogram_path} ({operator.n_views} views x "
        f"{operator.geometry.n_detectors} detectors x {nz} slices)"
    )
    return 0


def _operator_from_sinogram(cfg, sidecar):
    geo = sidecar["geometry"]
    geometry = ProjectionGeometry(
        geo["n_angles_full"], geo["n_detectors"], geo["detector_spacing"]
    )
    view_indices = np.asarray(sidecar["view_indices"], dtype=np.int64)
    if cfg.n_angles_full != geometry.n_angles_full:
        raise ConfigError(
            f"config n_angles_full={cfg.n_angles_full} does not match sinogram "
            f"({geometry.n_angles_full})"
        )
    if cfg.n_views != len(view_indices):
        raise ConfigError(
            f"config n_views={cfg.n_views} does not match sinogram "
            f"({len(view_indices)})"
        )
    if cfg.nz != sidecar["nz"]:
        raise ConfigError(
            f"config nz={cfg.nz} does not match sinogram ({sidecar['nz']})"
        )
    return CTOperator(cfg.nx, cfg.ny, cfg.nz, geometry, view_indices)


def cmd_reconstruct(cfg):
    _require_file(cfg.sinogram_path, "sinogram")
    y, sidecar = load_sinogram(cfg.sinogram_path)
    operator = _operator_from_sinogram(cfg, sidecar)
    schedule = build_schedule(cfg)
    prior = build_prior(cfg, schedule)
    ground_truth = None
    if os.path.exists(cfg.volume_path):
        ground_truth, _ = load_volume(cfg.volume_path)
        if ground_truth.shape != (cfg.nz, cfg.ny, cfg.nx):
            ground_truth = None
    sampler = Sampler(cfg, operator, y, prior, schedule, ground_truth)
    recon, traces = sampler.run()
    save_volume(
        cfg.recon_path,
        recon,
        provenance={
            "generator": f"reconstruct:{cfg.method}",
            "seed": cfg.seed,
            "sinogram": cfg.sinogram_path,
        },
    )
    save_trace(cfg.trace_path, traces)
    final = traces[-1]
    print(
        f"wrote {cfg.recon_path} and {cfg.trace_path} "
        f"(method={cfg.method}, steps={len(traces)}, "
        f"final residual={final.data_residual:.4g})"
    )
    return 0


def cmd_evaluate(cfg):
    _require_file(cfg.recon_path, "reconstruction")
    _require_file(cfg.volume_path, "reference volume")
    recon, _ = load_volume(cfg.recon_path)
    reference, _ = load_volume(cfg.volume_path)
    if recon.shape != reference.shape:
        raise ConfigError(
            f"reconstruction {recon.shape} and reference {reference.shape} differ"
        )
    report = evaluate_volume(
        recon, reference, data_range=1.0, seed=cfg.seed, config=cfg.to_dict()
    )
    with open(cfg.report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    axial = report.views["axial"]
    print(
        f"wrote {cfg.report_path} (axial PSNR {axial.psnr_mean:.2f} dB, "
        f"SSIM {axial.ssim_mean:.4f})"
    )
    return 0


def cmd_train_denoiser(cfg):
    _require_file(cfg.volume_path, "training volume")
    vol, _ = load_volume(cfg.volume_path)
    schedule = build_schedule(cfg)
    weights, record = convnet.train_denoiser(
        vol,
        schedule,
        epochs=cfg.epochs,
        seed=cfg.seed,
        lr=cfg.train_lr,
        holdout_fraction=cfg.holdout_fraction,
    )
    convnet.save_weights(cfg.weights_path, weights, schedule, record)
    print(
        f"wrote {cfg.weights_path} (epochs={cfg.epochs}, "
        f"holdout loss {record['holdout_loss']:.4f} vs identity "
        f"{record['identity_baseline_loss']:.4f})"
    )
    return 0


_HANDLERS = {
    "generate-phantom": cmd_generate_phantom,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "train-denoiser": cmd_train_denoiser,
}


def main(argv=None):
    parser = _Parser(prog="nerdct", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--method", help="sampler method override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--out", help="output path override for this command")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="config override, repeatable",
    )
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return _HANDLERS[args.command](cfg)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SamplerError, NonFiniteGradientError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

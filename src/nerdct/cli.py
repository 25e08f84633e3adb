"""Command-line entry point.

Commands: generate-phantom, simulate, reconstruct, evaluate, train-denoiser.
Every run setting is a config key, set by a --config file line or by --set
key=value (repeatable; it beats the file).  Exit codes: 0 on success, 1 for
usage/config errors, 2 for runtime or numeric failures, floating-point
overflow, division by zero and invalid operations included.
"""

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import convnet
from .config import (
    build_operator,
    build_prior,
    build_run_config,
    build_schedule,
    parse_config_text,
)
from .metrics import evaluate_volume
from .optim import NonFiniteGradientError
from .phantom import shepp_logan_3d
from .radon import add_gaussian_noise, load_sinogram, save_sinogram
from .samplers import Sampler, SamplerError, save_trace
from .volume import VOLUME_KEYS, load_volume, save_volume, write_json

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_config(args):
    file_values = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ValueError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            file_values = parse_config_text(fh.read())
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return build_run_config(file_values, overrides)


def _require_file(path, what):
    if not os.path.exists(path):
        raise ValueError(f"{what} not found: {path}")


def cmd_generate_phantom(cfg):
    vol = shepp_logan_3d(cfg.nx, cfg.nx, cfg.nz)
    save_volume(
        cfg.volume_path,
        vol,
        provenance={"generator": "shepp-logan-3d", "seed": cfg.seed},
    )
    print(f"wrote {cfg.volume_path} ({cfg.nz}x{cfg.nx}x{cfg.nx})")
    return 0


def cmd_simulate(cfg):
    _require_file(cfg.volume_path, "input volume")
    vol, _ = load_volume(cfg.volume_path, {"nz": cfg.nz, "ny": cfg.nx, "nx": cfg.nx})
    operator = build_operator(cfg)
    clean = operator.forward(vol)
    noisy = add_gaussian_noise(clean, cfg.sigma_y, cfg.seed)
    save_sinogram(
        cfg.sinogram_path,
        noisy,
        operator,
        sigma_y=cfg.sigma_y,
        seed=cfg.seed,
        provenance={"source_volume": cfg.volume_path},
    )
    print(
        f"wrote {cfg.sinogram_path} ({operator.n_views} views x "
        f"{operator.geometry.n_detectors} detectors x {cfg.nz} slices)"
    )
    return 0


def cmd_reconstruct(cfg):
    _require_file(cfg.sinogram_path, "sinogram")
    operator = build_operator(cfg)
    y, _ = load_sinogram(cfg.sinogram_path, operator)
    schedule = build_schedule(cfg)
    prior = build_prior(cfg, schedule)
    ground_truth = None
    if os.path.exists(cfg.volume_path):
        ground_truth, _ = load_volume(cfg.volume_path)
        if ground_truth.shape != (cfg.nz, cfg.nx, cfg.nx):
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
            "config": asdict(cfg),
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
    reference, _ = load_volume(cfg.volume_path, dict(zip(VOLUME_KEYS, recon.shape)))
    report = evaluate_volume(recon, reference)
    write_json(cfg.report_path, report.to_dict())
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


COMMANDS = {
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
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="config override, repeatable",
    )
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return COMMANDS[args.command](cfg)
    except (SamplerError, NonFiniteGradientError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import os

import numpy as np
import pytest

from nerdct import load_volume
from nerdct.cli import main
from nerdct.config import build_run_config, parse_config_text, parse_gmm_components

BASE = [
    "--set", "nx=16", "--set", "ny=16", "--set", "nz=12",
    "--set", "n_angles_full=12", "--set", "n_views=4",
    "--set", "n_steps=3", "--set", "inner_steps=2",
]


def paths_args(tmp_path):
    return [
        "--set", f"volume_path={tmp_path}/phantom.f64",
        "--set", f"sinogram_path={tmp_path}/sino.f64",
        "--set", f"recon_path={tmp_path}/recon.f64",
        "--set", f"trace_path={tmp_path}/trace.csv",
        "--set", f"report_path={tmp_path}/report.json",
        "--set", f"weights_path={tmp_path}/weights.f64",
    ]


def run_pipeline(tmp_path, method="nerd-p", seed=0, extra=()):
    args = BASE + paths_args(tmp_path) + list(extra)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate", "--seed", str(seed)] + args) == 0
    assert main(["reconstruct", "--method", method, "--seed", str(seed)] + args) == 0
    assert main(["evaluate"] + args) == 0


def test_full_pipeline_writes_all_artifacts(tmp_path):
    run_pipeline(tmp_path)
    for name in ("phantom.f64", "phantom.f64.json", "sino.f64", "sino.f64.json",
                 "recon.f64", "recon.f64.json", "trace.csv", "report.json"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["views"]) == {"axial", "coronal", "sagittal"}
    trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,t_index,data_residual,tv_z,psnr,wall_ms"
    assert len(trace) == 4  # header + n_steps rows


def test_all_methods_run(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    for method in ("sitcom", "nerd-a", "nerd-p", "dds"):
        assert main(["reconstruct", "--method", method] + args) == 0
        vol, meta = load_volume(str(tmp_path / "recon.f64"))
        assert vol.shape == (12, 16, 16)
        assert meta["provenance"]["generator"] == f"reconstruct:{method}"


def test_reconstruct_deterministic_bytes(tmp_path):
    run_pipeline(tmp_path, seed=3)
    recon1 = (tmp_path / "recon.f64").read_bytes()
    trace1 = (tmp_path / "trace.csv").read_text()
    report1 = (tmp_path / "report.json").read_bytes()
    args = BASE + paths_args(tmp_path)
    assert main(["reconstruct", "--seed", "3"] + args) == 0
    assert main(["evaluate"] + args) == 0
    assert (tmp_path / "recon.f64").read_bytes() == recon1
    assert (tmp_path / "report.json").read_bytes() == report1
    trace2 = (tmp_path / "trace.csv").read_text()

    def strip_wall(text):
        rows = [line.split(",")[:-1] for line in text.strip().split("\n")]
        return rows

    # wall_ms is timing jitter; everything else must match exactly.
    assert strip_wall(trace1) == strip_wall(trace2)


def test_different_seed_changes_reconstruction(tmp_path):
    run_pipeline(tmp_path, seed=0)
    first = (tmp_path / "recon.f64").read_bytes()
    args = BASE + paths_args(tmp_path)
    assert main(["reconstruct", "--seed", "9"] + args) == 0
    assert (tmp_path / "recon.f64").read_bytes() != first


def test_invalid_dims_exit_code_and_no_file(tmp_path):
    args = paths_args(tmp_path) + ["--set", "nx=4", "--set", "ny=4", "--set", "nz=4"]
    assert main(["generate-phantom"] + args) == 1
    assert not (tmp_path / "phantom.f64").exists()


def test_sampler_keys_validated_at_load(tmp_path):
    # Every command validates the full config, sampler keys included.
    args = BASE + paths_args(tmp_path) + ["--set", "tau=0"]
    assert main(["generate-phantom"] + args) == 1
    assert not (tmp_path / "phantom.f64").exists()


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_rejected(tmp_path):
    args = paths_args(tmp_path) + ["--set", "does_not_exist=1"]
    assert main(["generate-phantom"] + args) == 1


def test_bad_method_rejected(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    assert main(["reconstruct", "--method", "magic"] + args) == 1


def test_missing_input_files(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["simulate"] + args) == 1
    assert main(["reconstruct"] + args) == 1
    assert main(["evaluate"] + args) == 1
    assert main(["train-denoiser"] + args) == 1


def test_corrupted_sinogram_rejected(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    raw = (tmp_path / "sino.f64").read_bytes()
    (tmp_path / "sino.f64").write_bytes(raw[:-16])
    assert main(["reconstruct"] + args) == 1


def test_config_mismatch_with_sinogram_sidecar(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    bad = [a if a != "n_views=4" else "n_views=6" for a in args]
    assert main(["reconstruct"] + bad) == 1


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# benchmark geometry\n"
        "nx = 16\nny = 16\nnz = 8\n"
        "n_angles_full = 12\nn_views = 4\n"
        "n_steps = 2\ninner_steps = 2\n"
        f"volume_path = {tmp_path}/p.f64\n"
        f"sinogram_path = {tmp_path}/s.f64\n"
        f"recon_path = {tmp_path}/r.f64\n"
        f"trace_path = {tmp_path}/t.csv\n"
    )
    assert main(["generate-phantom", "--config", str(cfg_file)]) == 0
    assert main(["simulate", "--config", str(cfg_file)]) == 0
    # --set beats the file; lambda alias maps onto lam.
    assert main([
        "reconstruct", "--config", str(cfg_file),
        "--set", "lambda=0.2", "--set", "n_steps=3",
    ]) == 0
    rows = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert len(rows) == 4


def test_out_flag_overrides_target_path(tmp_path):
    args = BASE + paths_args(tmp_path)
    out = tmp_path / "elsewhere.f64"
    assert main(["generate-phantom", "--out", str(out)] + args) == 0
    assert out.exists()
    assert not (tmp_path / "phantom.f64").exists()


def test_missing_config_file():
    assert main(["generate-phantom", "--config", "/nonexistent/run.cfg"]) == 1


def test_malformed_set_flag(tmp_path):
    args = paths_args(tmp_path)
    assert main(["generate-phantom", "--set", "novalue"] + args) == 1


def test_train_denoiser_writes_weights(tmp_path):
    args = BASE + paths_args(tmp_path) + ["--set", "epochs=2"]
    assert main(["generate-phantom"] + args) == 0
    assert main(["train-denoiser"] + args) == 0
    assert (tmp_path / "weights.f64").exists()
    meta = json.loads((tmp_path / "weights.f64.json").read_text())
    assert meta["training"]["epochs"] == 2


def test_reconstruct_with_conv_prior(tmp_path):
    args = BASE + paths_args(tmp_path) + ["--set", "epochs=1"]
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    assert main(["train-denoiser"] + args) == 0
    assert main(["reconstruct", "--set", "prior=conv"] + args) == 0
    assert (tmp_path / "recon.f64").exists()


def test_evaluate_identical_volume_inf_serialization(tmp_path):
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    # Reconstruction equal to the reference: copy the phantom.
    phantom, _ = load_volume(str(tmp_path / "phantom.f64"))
    from nerdct import save_volume

    save_volume(str(tmp_path / "recon.f64"), phantom)
    assert main(["evaluate"] + args) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["views"]["axial"]["psnr_mean"] == "inf"


# ------------------------------------------------------- config parsing

def test_parse_config_text():
    values = parse_config_text("a = 1\n# comment\n\nb=x y\n")
    assert values == {"a": "1", "b": "x y"}
    with pytest.raises(Exception):
        parse_config_text("not-a-pair\n")


def test_build_run_config_aliases_and_types():
    cfg = build_run_config({}, {"lambda": "0.25", "lambda_z": "0.1", "n_steps": "12"})
    assert cfg.lam == 0.25
    assert cfg.lam_z == 0.1
    assert cfg.n_steps == 12
    cfg = build_run_config({}, {"dds_gamma": "none"})
    assert cfg.dds_gamma is None
    cfg = build_run_config({}, {"dds_gamma": "0.5", "n_detectors": "auto"})
    assert cfg.dds_gamma == 0.5
    assert cfg.n_detectors is None


def test_parse_gmm_components():
    weights, means, stds = parse_gmm_components("0.5:0.0:0.05,0.5:1.0:0.1")
    assert list(weights) == [0.5, 0.5]
    assert list(means) == [0.0, 1.0]
    assert list(stds) == [0.05, 0.1]
    with pytest.raises(Exception):
        parse_gmm_components("0.5:0.0")

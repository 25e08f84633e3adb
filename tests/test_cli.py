"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import math
import os
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerdct import load_volume, save_volume
from nerdct.cli import main
from nerdct.config import (RunConfig, build_run_config, parse_config_text,
                           parse_gmm_components)

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
    run_pipeline(tmp_path, method="dds", seed=5)
    for name in ("phantom.f64", "phantom.f64.json", "sino.f64", "sino.f64.json",
                 "recon.f64", "recon.f64.json", "trace.csv", "report.json"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"data_range", "views"}
    assert set(report["views"]) == {"axial", "coronal", "sagittal"}
    _, meta = load_volume(str(tmp_path / "recon.f64"))
    assert meta["provenance"]["seed"] == 5
    assert meta["provenance"]["config"]["seed"] == 5
    assert meta["provenance"]["config"]["method"] == "dds"
    trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,t_index,data_residual,tv_z,psnr,wall_ms"
    assert len(trace) == 4  # header + n_steps rows


def test_reconstruction_records_its_own_config_not_evaluates(tmp_path):
    # A plain evaluate after `reconstruct --method dds --seed 7` runs with the
    # default method and seed; neither may be reported as the run's.
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    assert main(["reconstruct", "--method", "dds", "--seed", "7"] + args) == 0
    assert main(["evaluate"] + args) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"data_range", "views"}
    _, meta = load_volume(str(tmp_path / "recon.f64"))
    provenance = meta["provenance"]
    assert provenance["generator"] == "reconstruct:dds"
    assert provenance["seed"] == 7
    assert provenance["config"]["method"] == "dds"
    assert provenance["config"]["seed"] == 7
    assert provenance["config"]["nx"] == 16


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
    # Every command validates the full config: sampler, prior, geometry and
    # schedule keys included.
    for override in ("tau=0", "gmm_components=garbage",
                     "gmm_components=0.5:0:0.1",  # weights sum to 0.5
                     "gmm_components=1:nan:0.1",
                     "n_detectors=0", "n_detectors=-3", "detector_spacing=0",
                     "beta_end=2", "num_train_steps=0",
                     "seed=-1", "seed=18446744073709551616",  # 2**64
                     "train_lr=0", "train_lr=-5", "ny=8"):
        args = BASE + paths_args(tmp_path) + ["--set", override]
        assert main(["generate-phantom"] + args) == 1, override
        assert not (tmp_path / "phantom.f64").exists(), override


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    # The last four were sampler keys once; their work moved to lam_z, rho,
    # cg_max_iter and nerd-p's one extrapolation.
    for key in ("does_not_exist", "dds_gamma", "dds_rho", "cg_tol",
                "pdhg_extrapolation"):
        args = paths_args(tmp_path) + ["--set", f"{key}=1"]
        assert main(["generate-phantom"] + args) == 1, key
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "phantom.f64").exists(), key


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


@pytest.mark.parametrize("method", ["sitcom", "nerd-a", "nerd-p", "dds", "conv-weights"])
def test_non_finite_sinogram_exit_1(tmp_path, capsys, method):
    # A NaN at a detector that no ray weight reads: without the load check
    # dds ran to the end with a NaN data residual and the others exited 2.
    # The last case puts the NaN in the conv prior's weights instead, which
    # used to exit 2 as well.
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    target, run = "sino.f64", ["--method", method]
    if method == "conv-weights":
        assert main(["train-denoiser", "--set", "epochs=0"] + args) == 0
        target, run = "weights.f64", ["--set", "prior=conv"]
    values = np.fromfile(tmp_path / target, dtype="<f8")
    values[5] = np.nan
    values.tofile(tmp_path / target)
    capsys.readouterr()
    assert main(["reconstruct"] + run + args) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "recon.f64").exists()
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("edits", [
    {"nz": 1.0}, {"nz": True}, {"nz": -1, "ny": -16}, {"nz": None},
])
def test_bad_volume_sidecar_dims_exit_1(tmp_path, capsys, edits):
    # A one-slice input volume, so every edit keeps the sidecar's byte-size
    # product and only a check of the values themselves catches it.  None
    # drops the key, which used to print "error: 'nz'".
    args = BASE + paths_args(tmp_path)
    save_volume(str(tmp_path / "phantom.f64"), np.zeros((1, 16, 16)))
    sidecar_path = tmp_path / "phantom.f64.json"
    sidecar = {key: value for key, value in
               {**json.loads(sidecar_path.read_text()), **edits}.items()
               if value is not None}
    sidecar_path.write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert main(["simulate"] + args) == 1
    assert "nz must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "sino.f64").exists()


@pytest.mark.parametrize("edit", [
    lambda side: {**side, "geometry": None},
    lambda side: {**side, "view_indices": "abc"},
    lambda side: {**side, "geometry": {**side["geometry"], "n_detectors": 23.0}},
    lambda side: {**side, "geometry": {**side["geometry"], "detector_spacing": "x"}},
    lambda side: {**side, "geometry": {**side["geometry"], "detector_spacing": math.inf}},
    lambda side: [side],
    lambda side: {key: value for key, value in side.items() if key != "nz"},
], ids=["null-geometry", "string-views", "float-detectors", "string-spacing",
        "infinite-spacing", "list-sidecar", "no-nz"])
def test_malformed_sinogram_sidecar_exit_1(tmp_path, capsys, edit):
    # The error names the sidecar it refuses.
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    sidecar_path = tmp_path / "sino.f64.json"
    sidecar_path.write_text(json.dumps(edit(json.loads(sidecar_path.read_text()))))
    capsys.readouterr()
    assert main(["reconstruct"] + args) == 1
    assert capsys.readouterr().err.startswith(f"error: {sidecar_path}: ")
    assert not (tmp_path / "recon.f64").exists()


@pytest.mark.parametrize("change", [
    "n_views=6", "detector_spacing=2.0", "n_detectors=30", "nz=8",
    {"view_indices": [0, 5, 7, 11]},
], ids=["n_views=6", "detector_spacing=2.0", "n_detectors=30", "nz=8", "views-0-5-7-11"])
def test_config_mismatch_with_sinogram_sidecar(tmp_path, capsys, change):
    # reconstruct builds the projector from the config; a sinogram recorded
    # under another geometry, view set or shape is refused, not adopted.
    args = BASE + paths_args(tmp_path)
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    if isinstance(change, dict):
        sidecar_path = tmp_path / "sino.f64.json"
        sidecar_path.write_text(json.dumps({**json.loads(sidecar_path.read_text()),
                                            **change}))
        change = []
    else:
        change = ["--set", change]
    capsys.readouterr()
    assert main(["reconstruct"] + args + change) == 1
    assert "does not match" in capsys.readouterr().err
    assert not (tmp_path / "recon.f64").exists()
    assert not (tmp_path / "trace.csv").exists()


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


@pytest.mark.parametrize("trained", [
    "num_train_steps=50", "beta_end=0.5", {"num_train_steps": 1000.0},
])
def test_reconstruct_rejects_weights_from_another_schedule(tmp_path, capsys, trained):
    # A dict edits the recorded schedule: JSON text 1000.0 is not 1000.
    args = BASE + paths_args(tmp_path) + ["--set", "epochs=1"]
    assert main(["generate-phantom"] + args) == 0
    assert main(["simulate"] + args) == 0
    if isinstance(trained, dict):
        assert main(["train-denoiser"] + args) == 0
        sidecar_path = tmp_path / "weights.f64.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["schedule"].update(trained)
        sidecar_path.write_text(json.dumps(sidecar))
    else:
        assert main(["train-denoiser", "--set", trained] + args) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--set", "prior=conv"] + args) == 1
    err = capsys.readouterr().err
    assert "num_train_steps" in err and "alpha_bar_last" in err and "1000" in err
    assert not (tmp_path / "recon.f64").exists()


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


# ------------------------------------------- mutated sidecars (property)

# The smallest chain evaluate accepts: every view's slices hold the 11x11
# SSIM window.
TINY = [
    "--set", "nx=12", "--set", "ny=12", "--set", "nz=12",
    "--set", "n_angles_full=6", "--set", "n_views=3",
    "--set", "n_steps=1", "--set", "inner_steps=1",
    "--set", "epochs=0", "--set", "prior=conv",
]
# command: the artifacts it reads
READS = {
    "simulate": ("phantom.f64",),
    "reconstruct": ("sino.f64", "weights.f64", "phantom.f64"),
    "evaluate": ("recon.f64", "phantom.f64"),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """{file name: bytes} of a phantom, its sinogram, conv weights and a
    reconstruction."""
    root = tmp_path_factory.mktemp("chain")
    args = TINY + paths_args(root)
    for command in ("generate-phantom", "simulate", "train-denoiser", "reconstruct"):
        assert main([command] + args) == 0
    return {p.name: p.read_bytes() for p in root.iterdir()}


@st.composite
def mutated(draw, sidecar):
    """`sidecar` with one field, or one field of a nested record, dropped or
    set to a nearby or arbitrary JSON value; or any JSON value instead."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JSON_VALUES)
    edited = json.loads(json.dumps(sidecar))
    paths = [(key,) for key in sorted(sidecar)] + [
        (key, inner) for key in sorted(sidecar) if isinstance(sidecar[key], dict)
        for inner in sorted(sidecar[key])]
    *outer, key = draw(st.sampled_from(paths))
    record = edited[outer[0]] if outer else edited
    if draw(st.integers(0, 3)) == 0:
        del record[key]
        return edited
    value = record[key]
    nearby = [None, str(value), [value]]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        nearby += [float(value), value + 1, -value, value == 1]
    record[key] = draw(st.sampled_from(nearby) if draw(st.booleans()) else JSON_VALUES)
    return edited


@settings(max_examples=100)
@given(data=st.data())
def test_mutated_sidecars_exit_0_1_or_2(tiny_chain, tmp_path_factory, data):
    # A command fed a damaged record exits with a code, never a traceback,
    # and on exit 1 leaves the directory as it found it.
    command = data.draw(st.sampled_from(sorted(READS)))
    reads = READS[command]
    root = tmp_path_factory.mktemp("mutated")
    for name in reads:
        for file_name in (name, name + ".json"):
            (root / file_name).write_bytes(tiny_chain[file_name])
    target = data.draw(st.sampled_from(reads))
    sidecar = json.loads(tiny_chain[target + ".json"])
    (root / f"{target}.json").write_text(json.dumps(data.draw(mutated(sidecar))))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    code = main([command] + TINY + paths_args(root))
    assert code in (0, 1, 2)
    if code == 1:
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before


# ------------------------------- mutated --set values and raw bytes (property)

# RunConfig keys a --set may change; the *_path keys name the chain's files.
SET_KEYS = sorted(f.name for f in fields(RunConfig) if not f.name.endswith("_path"))
WORDS = ["", "none", "nan", "inf", "-inf", "1e309", "0", "-1", "word"]
# NaN (quiet, negative, signalling) and infinity bit patterns of a float64.
NON_FINITE_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                   0x7FF0000000000000, 0xFFF0000000000000]
TINY_CONFIG = build_run_config({}, dict(item.split("=", 1) for item in TINY[1::2]))


@st.composite
def set_override(draw):
    """key=value for one RunConfig key, the value a word or, for a number,
    one near the key's value in the tiny chain."""
    key = draw(st.sampled_from(SET_KEYS))
    value = getattr(TINY_CONFIG, key)
    nearby = list(WORDS)
    if isinstance(value, (int, float)):
        nearby += [str(v) for v in (value - 1, value + 1, 2 * value, -value)]
    return f"{key}={draw(st.sampled_from(nearby))}"


@st.composite
def damaged_bytes(draw, raw):
    """`raw`, float64 entries, truncated or extended by 1-8 bytes, or with
    one entry overwritten by a non-finite or an arbitrary finite double."""
    kind = draw(st.sampled_from(["truncate", "append", "non-finite", "finite"]))
    if kind == "truncate":
        return raw[:-draw(st.integers(1, 8))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=8))
    if kind == "non-finite":
        entry = struct.pack("<Q", draw(st.sampled_from(NON_FINITE_BITS)))
    else:
        entry = struct.pack("<d", draw(st.floats(allow_nan=False, allow_infinity=False)))
    at = 8 * draw(st.integers(0, len(raw) // 8 - 1))
    return raw[:at] + entry + raw[at + 8:]


@settings(max_examples=100)
@given(data=st.data())
def test_mutated_set_values_and_raw_bytes_exit_0_1_or_2(tiny_chain, tmp_path_factory, data):
    # One --set value near the chain's own, or one damaged raw array: the
    # command exits with a code, never a traceback, and on exit 1 leaves the
    # directory as it found it.
    extra = []
    if data.draw(st.booleans()):
        command = data.draw(st.sampled_from(["reconstruct", "simulate"]))
        extra = ["--set", data.draw(set_override())]
    else:
        command = data.draw(st.sampled_from(sorted(READS)))
    root = tmp_path_factory.mktemp("mutated")
    for name in READS[command]:
        for file_name in (name, name + ".json"):
            (root / file_name).write_bytes(tiny_chain[file_name])
    if not extra:
        target = data.draw(st.sampled_from(READS[command]))
        (root / target).write_bytes(data.draw(damaged_bytes(tiny_chain[target])))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    code = main([command] + TINY + paths_args(root) + extra)
    assert code in (0, 1, 2)
    if code == 1:
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before


@pytest.mark.parametrize("command,target", [
    ("evaluate", "recon.f64"), ("reconstruct", "weights.f64"),
])
def test_huge_finite_entry_is_a_numeric_failure(tiny_chain, tmp_path, capsys, command, target):
    # 1e308 is a valid float64 entry whose square overflows: a numeric
    # failure (exit 2), not a RuntimeWarning.
    for name in READS[command]:
        for file_name in (name, name + ".json"):
            (tmp_path / file_name).write_bytes(tiny_chain[file_name])
    values = np.fromfile(tmp_path / target, dtype="<f8")
    values[0] = 1e308
    values.tofile(tmp_path / target)
    capsys.readouterr()
    assert main([command] + TINY + paths_args(tmp_path)) == 2
    assert "numeric failure" in capsys.readouterr().err


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
    for text in ("auto", "none", ""):
        assert build_run_config({}, {"n_detectors": text}).n_detectors is None
    assert build_run_config({}, {"n_detectors": "23"}).n_detectors == 23


def test_parse_gmm_components():
    weights, means, stds = parse_gmm_components("0.5:0.0:0.05,0.5:1.0:0.1")
    assert list(weights) == [0.5, 0.5]
    assert list(means) == [0.0, 1.0]
    assert list(stds) == [0.05, 0.1]
    with pytest.raises(Exception):
        parse_gmm_components("0.5:0.0")

"""End-to-end CLI tests through the in-process entry point."""

import json
import os
import shutil

import numpy as np
import pytest

from mdtaf.cli import run
from mdtaf.data import read_pnm
from test_model import _edit_checkpoint_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset plus a 2-step checkpoint shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "ds")
    ckpt = str(root / "model.ckpt")
    hist = str(root / "history.jsonl")
    assert run(["gen-data", "--out", data, "--count", "3", "--size", "32",
                "--seed", "0"]) == 0
    assert run(["train", "--data", data, "--preset", "desk", "--steps", "2",
                "--batch-size", "3", "--checkpoint", ckpt,
                "--history", hist, "--seed", "0"]) == 0
    return {"root": root, "data": data, "ckpt": ckpt, "hist": hist}


def test_gen_data_writes_manifest(workspace):
    manifest = os.path.join(workspace["data"], "manifest.jsonl")
    records = [json.loads(l) for l in open(manifest)]
    assert len(records) == 3
    for rec in records:
        assert os.path.exists(os.path.join(workspace["data"], rec["image_path"]))
        assert os.path.exists(os.path.join(workspace["data"], rec["mask_path"]))


def test_train_writes_checkpoint_and_history(workspace):
    assert os.path.exists(workspace["ckpt"])
    recs = [json.loads(l) for l in open(workspace["hist"])]
    losses = [r["loss"] for r in recs if "loss" in r]
    assert len(losses) == 2 and all(np.isfinite(losses))


def test_eval_loads_checkpoint(workspace, capsys):
    assert run(["eval", "--data", workspace["data"],
                "--checkpoint", workspace["ckpt"]]) == 0
    out = capsys.readouterr().out
    assert "dice=" in out and "acc=" in out


def test_infer_writes_a_mask(workspace):
    image = os.path.join(workspace["data"], "sample_00000.pgm")
    out = str(workspace["root"] / "pred.pgm")
    assert run(["infer", "--checkpoint", workspace["ckpt"],
                "--image", image, "--out", out]) == 0
    mask = read_pnm(out)
    assert mask.shape == (32, 32)
    assert set(np.unique(mask)) <= {0, 255}


def test_gradcheck_ops_passes(capsys):
    assert run(["gradcheck", "--module", "ops", "--seed", "0"]) == 0
    assert "conv2d=" in capsys.readouterr().out


def test_gradcheck_block_passes(capsys):
    assert run(["gradcheck", "--module", "block", "--seed", "0"]) == 0
    assert "gradcheck block: max rel err" in capsys.readouterr().out


def test_verify_passes_every_check(capsys):
    from mdtaf.verify import ALL_CHECKS
    assert run(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == [f"[PASS] {name}" for name, _ in ALL_CHECKS]


def test_missing_checkpoint_exits_1(workspace, capsys):
    assert run(["eval", "--data", workspace["data"],
                "--checkpoint", str(workspace["root"] / "absent.ckpt")]) == 1
    assert "error" in capsys.readouterr().err


def test_checkpoint_of_another_shape_exits_1(workspace, tmp_path, capsys):
    ckpt = str(tmp_path / "wide.ckpt")
    shutil.copy(workspace["ckpt"], ckpt)
    _edit_checkpoint_config(ckpt, lambda d: d.update(stage_channels=[64, 128, 320, 512]))
    image = os.path.join(workspace["data"], "sample_00000.pgm")
    out = str(tmp_path / "pred.pgm")
    assert run(["infer", "--checkpoint", ckpt, "--image", image, "--out", out]) == 1
    assert "config expects" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(["eval", "--data", workspace["data"], "--checkpoint", ckpt]) == 1
    assert "config expects" in capsys.readouterr().err


def test_malformed_manifest_exits_1(workspace, tmp_path, capsys):
    data = tmp_path / "ds"
    data.mkdir()
    good = json.loads(open(os.path.join(workspace["data"], "manifest.jsonl")).readline())
    for key in ("image_path", "mask_path"):  # absolute paths survive the join
        good[key] = os.path.join(workspace["data"], good[key])
    for bad, named in ((json.dumps({"id": "x", "mask_path": "m.pgm"}), "'image_path'"),
                       ("[1, 2]", "not a JSON object"),
                       ("{not json", "not JSON")):
        (data / "manifest.jsonl").write_text("\n".join([json.dumps(good), bad]) + "\n")
        assert run(["eval", "--data", str(data), "--checkpoint", workspace["ckpt"]]) == 1
        err = capsys.readouterr().err
        assert "manifest.jsonl:2" in err and named in err


def test_bad_arguments_exit_2():
    assert run(["train"]) == 2
    assert run(["no-such-command"]) == 2


def test_config_file_sets_defaults_but_flags_win(workspace, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    json.dump({"gen-data.count": 2, "gen-data.size": 16}, open(cfg, "w"))
    out_dir = str(tmp_path / "ds2")
    assert run(["--config", cfg, "gen-data", "--out", out_dir,
                "--count", "1", "--seed", "0"]) == 0
    recs = [json.loads(l) for l in
            open(os.path.join(out_dir, "manifest.jsonl"))]
    assert len(recs) == 1  # explicit flag beat the config file
    img = read_pnm(os.path.join(out_dir, recs[0]["image_path"]))
    assert img.shape == (16, 16)  # config default applied


def test_config_file_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_dir = tmp_path / "ds"
    for content, named in (({"model.stage_channels": [8, 16, 20, 32]}, "model.stage_channels"),
                           ({"gen-data.command": "verify"}, "gen-data.command"),
                           ([{"gen-data.count": 2}], "list"),
                           ({"gen-data.count": "2"}, "gen-data.count"),
                           ({"gen-data.noise-sigma": "0.1"}, "gen-data.noise-sigma"),
                           ({"gen-data.family": "squares"}, "gen-data.family"),
                           ({"gen-data.out": 3}, "gen-data.out")):
        cfg.write_text(json.dumps(content))
        assert run(["--config", str(cfg), "gen-data", "--out", str(out_dir)]) == 2
        assert named in capsys.readouterr().err
    cfg.write_text(json.dumps({"train.no-msa": 1}))
    assert run(["--config", str(cfg), "train", "--data", str(out_dir)]) == 2
    assert "train.no-msa" in capsys.readouterr().err
    assert not out_dir.exists()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MDTAF_SEED", "42")
    out_dir = str(tmp_path / "ds3")
    assert run(["gen-data", "--out", out_dir, "--count", "1",
                "--size", "16"]) == 0
    assert '"seed": 42' in capsys.readouterr().out


@pytest.mark.parametrize("size", ["0", "1"])
def test_gen_data_rejects_a_degenerate_size(tmp_path, capsys, size):
    assert run(["gen-data", "--out", str(tmp_path / "ds"), "--size", size]) == 2
    assert f"size {size}" in capsys.readouterr().err


def test_gen_data_exits_1_when_no_mask_fits(tmp_path, monkeypatch):
    from mdtaf import data as D
    monkeypatch.setitem(D._FAMILIES, "blobs",
                        lambda size, rng: np.ones((size, size), dtype=bool))
    assert run(["gen-data", "--out", str(tmp_path / "ds"), "--size", "8",
                "--family", "blobs"]) == 1


def test_bench_emits_rows(capsys):
    assert run(["bench", "--kinds", "esa", "--sizes", "256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "kind,N,C,R_or_w,flops_estimate,wall_ms,peak_mb"
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["kind"] == "esa" and row["N"] == "256"
    assert float(row["wall_ms"]) > 0.0
    # the two heads' 256 x 32 f32 scores alone hold 64 KiB
    assert 2 * 256 * 32 * 4 / 2**20 < float(row["peak_mb"]) < 16.0


def test_resolved_config_is_printed(capsys):
    run(["gradcheck", "--module", "ops", "--seed", "3"])
    head = capsys.readouterr().out.splitlines()[0]
    assert head.startswith("resolved config (gradcheck):")
    assert '"seed": 3' in head

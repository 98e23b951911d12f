"""End-to-end CLI tests through the in-process entry point."""

import importlib
import inspect
import json
import os
import pkgutil
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import mdtaf
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
    records = [json.loads(l) for l in Path(manifest).read_text().splitlines()]
    assert len(records) == 3
    for rec in records:
        assert os.path.exists(os.path.join(workspace["data"], rec["image_path"]))
        assert os.path.exists(os.path.join(workspace["data"], rec["mask_path"]))


def test_train_writes_checkpoint_and_history(workspace):
    assert os.path.exists(workspace["ckpt"])
    recs = [json.loads(l) for l in Path(workspace["hist"]).read_text().splitlines()]
    losses = [r["loss"] for r in recs if "lr" in r]
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


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_a_checkpoint_of_an_older_version_exits_1(workspace, tmp_path, capsys, command):
    ckpt = tmp_path / "old.ckpt"
    blob = bytearray(Path(workspace["ckpt"]).read_bytes())
    blob[5:8] = b"001"
    ckpt.write_bytes(bytes(blob))
    argv = {"eval": ["eval", "--data", workspace["data"]],
            "infer": ["infer", "--image", os.path.join(workspace["data"], "sample_00000.pgm"),
                      "--out", str(tmp_path / "pred.pgm")]}[command]
    assert run(argv + ["--checkpoint", str(ckpt)]) == 1
    assert "unsupported checkpoint version b'001'" in capsys.readouterr().err


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
    good = json.loads(Path(workspace["data"], "manifest.jsonl").read_text().splitlines()[0])
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
    Path(cfg).write_text(json.dumps({"gen-data.count": 2, "gen-data.size": 16}))
    out_dir = str(tmp_path / "ds2")
    assert run(["--config", cfg, "gen-data", "--out", out_dir,
                "--count", "1", "--seed", "0"]) == 0
    recs = [json.loads(l) for l in Path(out_dir, "manifest.jsonl").read_text().splitlines()]
    assert len(recs) == 1  # explicit flag beat the config file
    img = read_pnm(os.path.join(out_dir, recs[0]["image_path"]))
    assert img.shape == (16, 16)  # config default applied


def test_abbreviated_flag_beats_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bench.heads": 4, "bench.window": 4}))
    assert run(["--config", str(cfg), "bench", "--kinds", "esa", "--sizes", "64",
                "--head", "1"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert '"heads": 1' in head and '"window": 4' in head


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


def test_config_key_of_a_required_flag_exits_2(tmp_path, capsys):
    # argparse demands --out before the file is read, so the key could never apply
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen-data.out": str(tmp_path / "from_file")}))
    out_dir = tmp_path / "ds"
    assert run(["--config", str(cfg), "gen-data", "--out", str(out_dir), "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert "gen-data.out" in err and "--out is required" in err
    assert not out_dir.exists() and not (tmp_path / "from_file").exists()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MDTAF_SEED", "42")
    out_dir = str(tmp_path / "ds3")
    assert run(["gen-data", "--out", out_dir, "--count", "1",
                "--size", "16"]) == 0
    assert '"seed": 42' in capsys.readouterr().out


@pytest.mark.parametrize("env,argv,named", [
    ("abc", ["gen-data", "--out", "ds"], "MDTAF_SEED abc"),
    ("-2", ["gen-data", "--out", "ds"], "MDTAF_SEED -2"),
    (None, ["gen-data", "--out", "ds", "--seed", "-1"], "--seed -1"),
    (None, ["gradcheck", "--seed", "-3"], "--seed -3"),
])
def test_a_bad_seed_exits_2(tmp_path, capsys, monkeypatch, env, argv, named):
    # a bad MDTAF_SEED was a bare traceback, a negative --seed an unnamed exit 1
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("MDTAF_SEED", env)
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


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


def test_non_positive_batch_size_exits_2(workspace, tmp_path, capsys):
    # 0 before -1: a loop that ignores the size fails fast at 0 but spins at -1
    for command in (["train", "--steps", "1", "--checkpoint", str(tmp_path / "m.ckpt")],
                    ["eval", "--checkpoint", workspace["ckpt"]]):
        for size in ("0", "-1"):
            assert run(command + ["--data", workspace["data"], "--batch-size", size]) == 2
            assert f"batch size {size}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.ckpt")


@pytest.mark.parametrize("size", ["0", "-3"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_positive_resize_exits_2(workspace, tmp_path, capsys, command, size):
    ckpt = workspace["ckpt"] if command == "eval" else str(tmp_path / "m.ckpt")
    assert run([command, "--data", workspace["data"], "--checkpoint", ckpt,
                "--resize", size]) == 2
    assert f"extent {size}" in capsys.readouterr().err


@pytest.mark.parametrize("channels", ["0", "2"])
def test_gen_data_rejects_channels_a_pnm_cannot_hold(tmp_path, capsys, channels):
    out = tmp_path / "ds"
    assert run(["gen-data", "--out", str(out), "--channels", channels]) == 2
    assert f"channels {channels}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [(["--lr-max", "-1", "--lr-min", "-2"], "lr_max -1"),
                                           (["--steps", "-1"], "max_steps -1"),
                                           (["--eval-interval", "-1"], "eval_interval -1")])
def test_train_rejects_settings_that_cannot_work(workspace, capsys, flags, message):
    # each used to run: a negative rate climbs the loss, -1 steps ran one step
    assert run(["train", "--data", workspace["data"], *flags]) == 2
    assert message in capsys.readouterr().err


def test_train_with_a_nan_weight_decay_exits_2_and_saves_nothing(workspace, capsys):
    # it used to exit 0 and save a checkpoint whose parameters were all NaN
    ckpt = workspace["root"] / "nan.ckpt"
    assert run(["train", "--data", workspace["data"], "--steps", "1", "--weight-decay", "nan",
                "--checkpoint", str(ckpt)]) == 2
    assert "weight_decay nan" in capsys.readouterr().err
    assert not ckpt.exists()


def test_a_diverging_train_run_exits_1_without_a_traceback(workspace, capsys):
    # TrainingDiverged used to escape run() as a traceback
    ckpt = workspace["root"] / "diverged.ckpt"
    assert run(["train", "--data", workspace["data"], "--steps", "2", "--batch-size", "3",
                "--lr-max", "1e38", "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "error: non-finite" in err and "Traceback" not in err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags,message", [(["--count", "0"], "count 0"),
                                           (["--noise-sigma", "-1"], "noise_sigma -1"),
                                           (["--blur-radius", "-2"], "blur_radius -2")])
def test_gen_data_rejects_a_spec_that_cannot_work(tmp_path, capsys, flags, message):
    # --count 0 used to write an empty dataset and exit 0
    out = tmp_path / "ds"
    assert run(["gen-data", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["heads", "reduction", "window", "channels", "sizes"])
def test_bench_rejects_a_zero_count(capsys, flag):
    assert run(["bench", "--kinds", "esa,ssa", "--sizes", "64", f"--{flag}", "0"]) == 2
    assert ("size 0" if flag == "sizes" else f"{flag} 0") in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [(["--kinds", "foo"], "--kinds: unknown attention kind"),
                                         (["--sizes", "abc"], "--sizes 'abc'"),
                                         (["--kinds", "ssa", "--sizes", "60"], "--sizes: ssa"),
                                         (["--kinds", ",", "--sizes", "64"],
                                          "--kinds: the list is empty"),
                                         (["--kinds", "esa", "--sizes", ","],
                                          "--sizes: the list is empty")])
def test_bench_rejects_kinds_and_sizes_it_cannot_run(capsys, flags, named):
    assert run(["bench", *flags]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("kinds,sizes,named", [
    ("esa,foo", "64", "'foo'"), ("esa,ssa", "64,60", "ssa needs square N"),
    ("dense,esa", "64,100", "esa needs N divisible by its reduction 8")])
def test_bench_checks_every_input_before_the_first_timed_row(capsys, monkeypatch,
                                                             kinds, sizes, named):
    def timed(fn, repeats=3):
        raise AssertionError("a row was timed before every input was checked")

    monkeypatch.setattr(sys.modules["mdtaf.bench"], "_time", timed)
    assert run(["bench", "--kinds", kinds, "--sizes", sizes]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_bench_checks_the_window_before_the_ssa_grid(capsys):
    # the grid check used to divide by a zero window: ZeroDivisionError, exit 1
    assert run(["bench", "--kinds", "ssa", "--sizes", "64", "--window", "0"]) == 2
    err = capsys.readouterr().err
    assert "window 0 is not positive" in err and "Traceback" not in err


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


@pytest.mark.parametrize("flags,message", [(["--fg-mean", "nan"], "fg_mean nan"),
                                           (["--bg-mean", "inf", "--noise-sigma", "0"],
                                            "bg_mean inf")])
def test_gen_data_rejects_a_mean_a_pixel_cannot_store(tmp_path, capsys, flags, message):
    # each used to exit 0 and write images of the wrong intensity
    out = tmp_path / "ds"
    assert run(["gen-data", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--checkpoint", "--history"])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_train_rejects_an_output_path_before_the_first_step(workspace, tmp_path, capsys,
                                                            monkeypatch, flag, where):
    # a checkpoint in a missing directory used to fail after the whole run
    def forward(*args):
        raise AssertionError("a step ran before the output paths were checked")

    monkeypatch.setattr(sys.modules["mdtaf.train"], "model_forward", forward)
    path = tmp_path / "missing" / "x.out" if where == "missing_dir" else tmp_path
    assert run(["train", "--data", workspace["data"], "--steps", "1",
                "--checkpoint", str(tmp_path / "m.ckpt"), flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]}_path {path}" in err and "Traceback" not in err


def test_train_rejects_a_best_checkpoint_path_before_the_first_step(workspace, tmp_path,
                                                                    capsys, monkeypatch):
    # a directory at <checkpoint>.best used to fail after the whole run, exit 1
    def forward(*args):
        raise AssertionError("a step ran before the output paths were checked")

    monkeypatch.setattr(sys.modules["mdtaf.train"], "model_forward", forward)
    (tmp_path / "m.ckpt.best").mkdir()
    assert run(["train", "--data", workspace["data"], "--steps", "3",
                "--checkpoint", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "m.ckpt.best is a directory" in err and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["infer", "bench", "gen-data"])
def test_an_output_that_cannot_be_written_exits_1(workspace, tmp_path, capsys, command):
    missing = str(tmp_path / "missing" / "o.out")
    argv = {"infer": ["infer", "--checkpoint", workspace["ckpt"], "--image",
                      os.path.join(workspace["data"], "sample_00000.pgm"), "--out", missing],
            "bench": ["bench", "--kinds", "dense", "--sizes", "16", "--out", missing],
            "gen-data": ["gen-data", "--out", workspace["ckpt"], "--count", "1"]}[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def mixed_sizes(tmp_path_factory):
    """A 32x32 sample and a 48x48 one under one manifest."""
    root = tmp_path_factory.mktemp("mixed")
    assert run(["gen-data", "--out", str(root), "--count", "1", "--size", "32"]) == 0
    assert run(["gen-data", "--out", str(root / "big"), "--count", "1", "--size", "48"]) == 0
    rec = json.loads((root / "big" / "manifest.jsonl").read_text())
    rec.update(id="big_00000", image_path="big/" + rec["image_path"],
               mask_path="big/" + rec["mask_path"])
    with open(root / "manifest.jsonl", "a") as f:
        f.write(json.dumps(rec) + "\n")
    return str(root)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_batch_of_mixed_sizes_names_the_samples(workspace, mixed_sizes, tmp_path, capsys,
                                                  command):
    # it used to end in numpy's "all input arrays must have the same shape"
    ckpt = workspace["ckpt"] if command == "eval" else str(tmp_path / "m.ckpt")
    assert run([command, "--data", mixed_sizes, "--checkpoint", ckpt,
                "--batch-size", "2", *(["--steps", "1"] if command == "train" else [])]) == 1
    err = capsys.readouterr().err
    assert "sample_00000 (1, 32, 32)" in err and "big_00000 (1, 48, 48)" in err
    assert "--resize" in err and "Traceback" not in err


def test_batch_size_1_trains_on_mixed_sizes(mixed_sizes, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", mixed_sizes, "--steps", "2", "--batch-size", "1",
                "--checkpoint", str(ckpt)]) == 0
    assert run(["eval", "--data", mixed_sizes, "--checkpoint", str(ckpt),
                "--batch-size", "1"]) == 0


def test_every_public_function_runs_outside_the_tests(tmp_path, capsys):
    # every command at a small size, recording each code object entered; a
    # public function none of them enters is reached only by the tests
    modules = {m.name: importlib.import_module(f"mdtaf.{m.name}")
               for m in pkgutil.iter_modules(mdtaf.__path__)}
    # unwrapped: no_grad and nan_check would both be contextlib's helper
    public = {inspect.unwrap(f).__code__: f"{short}.{name}"
              for short, mod in modules.items() for name, f in vars(mod).items()
              if inspect.isfunction(f) and f.__module__ == mod.__name__ and name[0] != "_"}
    data, ckpt = str(tmp_path / "ds"), str(tmp_path / "m.ckpt")
    commands = [
        ["gen-data", "--out", data, "--count", "2", "--size", "32", "--seed", "0"],
        ["train", "--data", data, "--steps", "2", "--batch-size", "2", "--eval-interval", "1",
         "--checkpoint", ckpt, "--history", str(tmp_path / "h.jsonl"), "--seed", "0"],
        ["eval", "--data", data, "--checkpoint", ckpt],
        ["infer", "--checkpoint", ckpt, "--image", os.path.join(data, "sample_00000.pgm"),
         "--out", str(tmp_path / "pred.pgm")],
        *(["gradcheck", "--module", m, "--seed", "0"] for m in ("ops", "block", "model")),
        ["verify"],
        ["bench", "--kinds", "dense,esa,ssa,csa", "--sizes", "64", "--channels", "8",
         "--reduction", "2", "--window", "4"],
    ]
    entered = set()

    def trace(frame, event, arg):  # call events only: no line tracing
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [run(argv) for argv in commands]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(commands), capsys.readouterr().err
    assert {public[c] for c in public.keys() - entered} == {
        "cli.main",              # the console entry point around cli.run
        "model.default_config",  # the paper preset: too large for a test; perfbench loads it
        "tensor.nan_check",      # a debugging guard the package exports; no program path sets it
        "tensor.texp",           # kept for perfbench's tracer test, which names its VJP
    }

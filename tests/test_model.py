"""Model assembly tests: shapes, padding, checkpoints, ablations."""

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtaf.model import (CheckpointCorruptError, CheckpointError,
                         CheckpointMagicError, CheckpointShapeError,
                         CheckpointVersionError, ModelConfig, default_config,
                         desk_config, encoder_forward, init_params,
                         load_checkpoint, mlp_decoder, model_forward,
                         pad_to_multiple, save_checkpoint, tiny_config)
from mdtaf import tensor as T
from mdtaf.gradcheck import grad_check
from mdtaf.layers import linear, map_to_tokens, tokens_to_map
from mdtaf.params import ParamStore
from mdtaf.tensor import Tensor, no_grad
from mdtaf.train import bce_loss
from mdtaf.verify import _randomize


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config()
    return cfg, init_params(cfg, seed=0)


def test_desk_stage_shapes(desk):
    cfg, params = desk
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 64, 64)).astype(np.float32))
    with no_grad():
        feats = encoder_forward(x, cfg, params)
    assert [f.shape for f in feats] == [
        (1, 16, 16, 16), (1, 32, 8, 8), (1, 40, 4, 4), (1, 64, 2, 2)]


def test_decoder_restores_input_resolution(desk):
    cfg, params = desk
    x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 64, 64)).astype(np.float32))
    with no_grad():
        logits = model_forward(x, cfg, params)
    assert logits.shape == (2, 1, 64, 64)


def test_non_multiple_input_is_padded_and_cropped(desk):
    cfg, params = desk
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 50, 70)).astype(np.float32))
    with no_grad():
        logits = model_forward(x, cfg, params)
    assert logits.shape == (1, 1, 50, 70)


def test_pad_to_multiple_is_identity_on_aligned_input():
    x = Tensor(np.random.default_rng(3).normal(size=(1, 1, 64, 32)))
    assert pad_to_multiple(x, 32).shape == (1, 1, 64, 32)
    y = pad_to_multiple(Tensor(np.zeros((1, 1, 33, 65))), 32)
    assert y.shape == (1, 1, 64, 96)


def test_tracked_and_untracked_inputs_give_the_same_logits(desk):
    cfg, params = desk
    data = np.random.default_rng(2).normal(size=(1, 1, 50, 70)).astype(np.float32)
    with no_grad():
        plain = model_forward(Tensor(data), cfg, params).data
    tracked = model_forward(Tensor(data, requires_grad=True), cfg, params).data
    np.testing.assert_array_equal(tracked, plain)


def test_grad_reflect_pad():
    # H pads 5 -> 8, W pads 3 -> 8: more than one reflection
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(1, 2, 5, 3)))
    want = np.pad(x.data, ((0, 0), (0, 0), (0, 3), (0, 5)), mode="reflect")
    np.testing.assert_array_equal(pad_to_multiple(x, 8).data, want)
    probe = Tensor(rng.normal(size=(1, 2, 8, 8)))
    assert grad_check(lambda x: T.tsum(pad_to_multiple(x, 8) * probe), [x]) < 1e-6


def test_batch_independence(desk):
    # each sample of a batch of four must match the same sample run alone; the
    # conv GEMMs fold batch and space into one set of rows, so only BLAS
    # blocking may tell them apart
    cfg, params = desk
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(4, 1, 64, 64)).astype(np.float32)
    with no_grad():
        together = model_forward(Tensor(batch), cfg, params).data
        for i in range(4):
            solo = model_forward(Tensor(batch[i:i + 1]), cfg, params).data
            assert np.abs(together[i:i + 1] - solo).max() < 1e-6


def _concat_fuse_decoder(features, params, h, w):
    # SegFormer's head as written: resize every projection, concat, fuse
    h1, w1 = features[0].shape[2:]
    maps = []
    for i, f in enumerate(features):
        t = linear(params, f"decoder.proj{i + 1}", map_to_tokens(f))
        m = tokens_to_map(t, f.shape[2], f.shape[3])
        maps.append(m if m.shape[2:] == (h1, w1) else T.bilinear_resize(m, h1, w1))
    fused = T.gelu(linear(params, "decoder.fuse", map_to_tokens(T.concat(maps, axis=1))))
    logits = tokens_to_map(linear(params, "decoder.head", fused), h1, w1)
    return T.bilinear_resize(logits, h, w)


def test_decoder_equals_concat_then_fuse():
    cfg = tiny_config()
    rng = np.random.default_rng(9)
    params = init_params(cfg, seed=0).astype(np.float64)
    for name, t in params.items():
        t.data[:] = rng.normal(scale=0.3, size=t.shape)  # nonzero biases too
    with no_grad():
        features = encoder_forward(Tensor(rng.normal(size=(2, 1, 32, 32))), cfg, params)
    probe = Tensor(rng.normal(size=(2, 1, 32, 32)))
    decoder = [name for name in params.names() if name.startswith("decoder.")]
    results = []
    for run in (lambda: mlp_decoder(features, cfg, params),
                lambda: _concat_fuse_decoder(features, params, 32, 32)):
        for name in decoder:
            params[name].requires_grad = True
            params[name].grad = None
        logits = run()
        T.tsum(logits * probe).backward()
        results.append([logits.data] + [params[name].grad for name in decoder])
    for got, want in zip(*results):
        assert np.abs(got - want).max() < 1e-12


def test_every_parameter_can_change_the_loss():
    # a parameter whose gradient is zero up to rounding cannot change a
    # result; ESA's former key biases got 1e-20 of the largest
    cfg = desk_config()
    params = init_params(cfg, seed=0).astype(np.float64)
    _randomize(params, np.random.default_rng(0), scale=0.1)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 1, 64, 64)))
    y = Tensor((rng.uniform(size=(2, 1, 64, 64)) > 0.5).astype(np.float64))
    bce_loss(model_forward(x, cfg, params), y).backward()
    peak = {name: np.abs(t.grad).max() for name, t in params.items()}
    top = max(peak.values())
    assert [name for name, g in peak.items() if g < 1e-12 * top] == []


def test_config_roundtrips_through_dict():
    cfg = desk_config(filtering=False, msa=False)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_preset_families_are_distinct():
    assert default_config().stage_channels == (64, 128, 320, 512)
    assert desk_config().stage_channels != default_config().stage_channels
    assert tiny_config().stage_channels[0] < desk_config().stage_channels[0]


def test_ablation_lattice_param_counts_differ():
    counts = set()
    for filtering in (True, False):
        for msa in (True, False):
            cfg = tiny_config(filtering=filtering, msa=msa)
            counts.add(init_params(cfg, seed=0).param_count())
    assert len(counts) == 4


def test_ablation_lattice_outputs_differ():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
    outs = []
    for filtering in (True, False):
        for msa in (True, False):
            cfg = tiny_config(filtering=filtering, msa=msa)
            params = init_params(cfg, seed=0)
            with no_grad():
                outs.append(model_forward(x, cfg, params).data.copy())
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.abs(outs[i] - outs[j]).max() > 1e-8


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    a, b = init_params(cfg, seed=7), init_params(cfg, seed=7)
    c = init_params(cfg, seed=8)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a.names())
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, seed=3)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(params, cfg, path)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert loaded.names() == params.names()
    for n in params.names():
        assert np.array_equal(loaded[n].data, params[n].data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOTMDTAF" + b"\0" * 64)
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    # 001 held ESA key biases and a num_classes field; 002 held conv weights
    # in (Cout, Cin, k, k) and deconv weights in (Cin, Cout, k, k) order
    cfg = tiny_config()
    path = str(tmp_path / "v.ckpt")
    save_checkpoint(init_params(cfg, seed=0), cfg, path)
    blob = bytearray(Path(path).read_bytes())
    for version in (b"001", b"002", b"999"):
        blob[5:8] = version
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(init_params(cfg, seed=0), cfg, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_checkpoint_rejects_config_mismatch(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(init_params(cfg, seed=0), cfg, path)
    _edit_checkpoint_config(path, lambda d: d.update(msa=False))
    with pytest.raises(CheckpointShapeError, match="names differ"):
        load_checkpoint(path)


def test_checkpoint_shapes_are_checked_against_its_config(tmp_path):
    # same names, other widths: this used to load and run its forward
    cfg = tiny_config()
    path = str(tmp_path / "w.ckpt")
    save_checkpoint(init_params(cfg, seed=0), cfg, path)
    _edit_checkpoint_config(path, lambda d: d.update(stage_channels=[64, 128, 320, 512]))
    with pytest.raises(CheckpointShapeError, match="config expects"):
        load_checkpoint(path)
    # a config that builds no model is corrupt, not a shape mismatch
    _edit_checkpoint_config(path, lambda d: d.update(stage_channels=[8, 16, 20]))
    with pytest.raises(CheckpointCorruptError, match="describes no model"):
        load_checkpoint(path)


def _edit_checkpoint_config(path, edit):
    """Rewrite the JSON config of the checkpoint at ``path`` through ``edit``."""
    blob = Path(path).read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    d = json.loads(blob[16:16 + n])
    edit(d)
    new = json.dumps(d, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + n:])


def test_checkpoint_config_keys(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "k.ckpt")
    save_checkpoint(init_params(cfg, seed=0), cfg, path)
    # a removed field is an unknown key, whatever its value
    _edit_checkpoint_config(path, lambda d: d.update(eq17_literal=False))
    with pytest.raises(CheckpointCorruptError, match="has unknown key 'eq17_literal'"):
        load_checkpoint(path)

    def misspell_channels(d):
        del d["eq17_literal"]
        d["stage_chanels"] = [1]

    _edit_checkpoint_config(path, misspell_channels)
    with pytest.raises(CheckpointCorruptError, match="unknown key 'stage_chanels'"):
        load_checkpoint(path)

    def drop_channels(d):
        del d["stage_chanels"], d["stage_channels"]

    _edit_checkpoint_config(path, drop_channels)
    with pytest.raises(CheckpointCorruptError, match="lacks key 'stage_channels'"):
        load_checkpoint(path)
    with pytest.raises(CheckpointCorruptError, match="list"):
        ModelConfig.from_dict([])
    _edit_checkpoint_config(path, lambda d: d.update(stage_channels=64))
    with pytest.raises(CheckpointCorruptError, match="'stage_channels' is not a list"):
        load_checkpoint(path)


def _small_checkpoint_bytes(tmp_dir):
    """A valid checkpoint of two one-letter tensors, a (2,3) 'a' and a (4,) 'b',
    and the offset of the byte after its config."""
    store = ParamStore()
    store.add("a", np.arange(6, dtype=np.float32).reshape(2, 3))
    store.add("b", np.ones(4, dtype=np.float32))
    path = os.path.join(tmp_dir, "small.ckpt")
    save_checkpoint(store, tiny_config(), path)
    blob = Path(path).read_bytes()
    return blob, 16 + struct.unpack("<Q", blob[8:16])[0]


def test_checkpoint_rejects_oversized_lengths_and_duplicates(tmp_path):
    blob, cfg_end = _small_checkpoint_bytes(str(tmp_path))
    first_extent = cfg_end + 8 + 8 + 1 + 8   # count, name length, "a", rank
    second_name = first_extent + 16 + 24 + 8
    assert blob[second_name:second_name + 1] == b"b"
    path = str(tmp_path / "bad.ckpt")
    for at, patch, message in ((8, struct.pack("<Q", 2 ** 62), "config length"),
                               (first_extent, struct.pack("<Q", 2 ** 40), "extent"),
                               (cfg_end, struct.pack("<Q", 2 ** 60), "tensor count"),
                               (first_extent - 8, struct.pack("<Q", 2 ** 61), "rank"),
                               (second_name, b"a", "duplicate tensor name 'a'")):
        Path(path).write_bytes(blob[:at] + patch + blob[at + len(patch):])
        with pytest.raises(CheckpointCorruptError, match=message):
            load_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_fuzz_raises_only_checkpoint_errors(data):
    with tempfile.TemporaryDirectory() as tmp_dir:
        blob, _ = _small_checkpoint_bytes(tmp_dir)
        cut = data.draw(st.integers(0, len(blob)), label="length")
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=4), label="flips")
        buf = bytearray(blob)
        for at, mask in flips:
            buf[at] ^= mask
        path = os.path.join(tmp_dir, "fuzz.ckpt")
        Path(path).write_bytes(bytes(buf[:cut]))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_checkpoint_error_hierarchy():
    for sub in (CheckpointMagicError, CheckpointVersionError,
                CheckpointCorruptError, CheckpointShapeError):
        assert issubclass(sub, CheckpointError)

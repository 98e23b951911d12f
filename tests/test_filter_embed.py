"""Patch embedding and filter-branch tests.

The key identities: a saturated gate reduces filtered embedding to the plain
patch embedding exactly, and switching filtering off takes the same path.
"""

import numpy as np
import pytest

from mdtaf import filter_embed
from mdtaf.filter_embed import (FILTER_CHANNELS, FILTER_DILATIONS,
                                FILTER_SPLITS, PatchEmbedConfig,
                                attention_weights, dilated_pyramid,
                                filtered_embed, hourglass2d,
                                init_patch_embed,
                                overlap_patch_embed)
from mdtaf.layers import map_to_tokens
from mdtaf.params import Initializer, ParamStore
from mdtaf.tensor import ConfigError, ShapeError, Tensor, no_grad


def _embed_setup(stage1=True, in_ch=1, out_ch=8, seed=0):
    cfg = (PatchEmbedConfig.stage1(in_ch, out_ch) if stage1
           else PatchEmbedConfig.later_stage(in_ch, out_ch))
    store = ParamStore()
    init = Initializer(seed)
    init_patch_embed(store, init, "pe", cfg, filtering=True)
    return cfg, store


def test_stage1_embed_is_quarter_resolution():
    cfg, store = _embed_setup()
    assert (cfg.kernel, cfg.stride, cfg.padding) == (7, 4, 3)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 32, 32)))
    with no_grad():
        f = overlap_patch_embed(x, cfg, store, "pe")
    assert f.shape == (2, 8, 8, 8)


def test_later_stage_embed_halves_resolution():
    cfg, store = _embed_setup(stage1=False, in_ch=4)
    assert (cfg.kernel, cfg.stride, cfg.padding) == (3, 2, 1)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 16, 16)))
    with no_grad():
        f = overlap_patch_embed(x, cfg, store, "pe")
    assert f.shape == (1, 8, 8, 8)


def test_filter_channel_budget():
    assert sum(FILTER_SPLITS) == FILTER_CHANNELS
    assert len(FILTER_SPLITS) == len(FILTER_DILATIONS)


def test_dilated_pyramid_shapes_and_channel_guard():
    cfg, store = _embed_setup()
    x = Tensor(np.random.default_rng(1).normal(size=(1, FILTER_CHANNELS, 8, 8)))
    with no_grad():
        y = dilated_pyramid(x, store, "pe.filter")
    assert y.shape == (1, FILTER_CHANNELS, 8, 8)
    with pytest.raises(ShapeError):
        dilated_pyramid(Tensor(np.zeros((1, 16, 8, 8))), store, "pe.filter")


def test_dilated_pyramid_widens_receptive_field():
    # dilation 3 slices must react to pixels 3 steps away from the center
    cfg, store = _embed_setup()
    base = np.zeros((1, FILTER_CHANNELS, 9, 9), dtype=np.float32)
    poke = base.copy()
    poke[0, :, 4 + 3, 4] = 1.0
    with no_grad():
        d = (dilated_pyramid(Tensor(poke), store, "pe.filter").data
             - dilated_pyramid(Tensor(base), store, "pe.filter").data)
    assert np.abs(d[0, -FILTER_SPLITS[-1]:, 4, 4]).max() > 0


def test_hourglass_preserves_shape_and_requires_divisibility():
    cfg, store = _embed_setup()
    x = Tensor(np.random.default_rng(2).normal(size=(1, FILTER_CHANNELS, 8, 8)))
    with no_grad():
        y = hourglass2d(x, store, "pe.filter.hg")
    assert y.shape == x.shape
    with pytest.raises(ConfigError):
        hourglass2d(Tensor(np.zeros((1, FILTER_CHANNELS, 6, 6))), store,
                    "pe.filter.hg")


def test_attention_weights_are_a_unit_interval_map():
    cfg, store = _embed_setup()
    x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 32, 32)))
    with no_grad():
        a = attention_weights(x, cfg, store, "pe.filter")
    assert a.shape == (2, 1, 8, 8)
    assert np.all(a.data > 0) and np.all(a.data < 1)


def test_attention_weights_handle_non_multiple_of_four_maps():
    # later stages produce 2x2 maps at desk scale; the hourglass pads them
    cfg, store = _embed_setup(stage1=False, in_ch=4)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 4, 4, 4)))
    with no_grad():
        a = attention_weights(x, cfg, store, "pe.filter")
    assert a.shape == (1, 1, 2, 2)


def test_saturated_gate_recovers_plain_embedding():
    cfg, store = _embed_setup()
    for name in store.names():
        if ".filter." in name:
            store[name].data[:] = 0
    store["pe.filter.compress.bias"].data[:] = 40.0  # sigmoid(40) == 1 in f32
    x = Tensor(np.random.default_rng(5).normal(size=(1, 1, 32, 32)).astype(np.float32))
    with no_grad():
        tokens, h, w = filtered_embed(x, cfg, store, "pe", filtering=True)
        plain = overlap_patch_embed(x, cfg, store, "pe")
    b, c = plain.shape[:2]
    want = plain.data.reshape(b, c, h * w).transpose(0, 2, 1)
    assert np.abs(tokens.data - want).max() < 1e-15


def test_filtering_off_equals_plain_embedding():
    cfg, store = _embed_setup()
    x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 32, 32)).astype(np.float32))
    with no_grad():
        tokens, h, w = filtered_embed(x, cfg, store, "pe", filtering=False)
        plain = overlap_patch_embed(x, cfg, store, "pe")
    b, c = plain.shape[:2]
    want = plain.data.reshape(b, c, h * w).transpose(0, 2, 1)
    assert np.array_equal(tokens.data, want)
    assert (h, w) == (8, 8)


def test_gate_actually_attenuates():
    # an unsaturated random gate must change the embedding somewhere
    cfg, store = _embed_setup(seed=3)
    rng = np.random.default_rng(7)
    for name in store.names():
        if ".compress." in name:
            store[name].data[:] = rng.normal(size=store[name].shape)
    x = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
    with no_grad():
        filtered, _, _ = filtered_embed(x, cfg, store, "pe", filtering=True)
        off, _, _ = filtered_embed(x, cfg, store, "pe", filtering=False)
    assert np.abs(filtered.data - off.data).max() > 1e-6


@pytest.mark.parametrize("filtering", [False, True])
def test_stage1_tokens_are_a_view_of_the_channel_last_embedding(monkeypatch, filtering):
    # the image is a compact B,C,H,W leaf; its embedding comes out as a
    # channel-last view, so tokenizing it, gated or not, copies nothing
    cfg, store = _embed_setup()
    x = Tensor(np.random.default_rng(8).normal(size=(2, 1, 32, 32)).astype(np.float32))
    seen = {}

    def spy(name, fn):
        def wrapped(*args):
            seen[name] = (args[0], fn(*args))
            return seen[name][1]
        return wrapped

    monkeypatch.setattr(filter_embed, "overlap_patch_embed",
                        spy("embed", overlap_patch_embed))
    monkeypatch.setattr(filter_embed, "map_to_tokens", spy("tokens", map_to_tokens))
    with no_grad():
        tokens, _, _ = filter_embed.filtered_embed(x, cfg, store, "pe", filtering=filtering)
    embed = seen["embed"][1].data
    assert embed.transpose(0, 2, 3, 1).flags.c_contiguous
    gated, out = seen["tokens"]
    assert out is tokens and np.shares_memory(tokens.data, gated.data)
    assert np.shares_memory(tokens.data, embed) == (not filtering)

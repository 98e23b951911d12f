"""Oracle and invariant tests for the three attention branches and the block.

The dense references live in mdtaf.verify as plain-numpy loops; they share no
code with the Tensor implementations they judge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtaf import attention as A
from mdtaf import tensor as T
from mdtaf.attention import (AttentionConfig, BlockConfig, channel_self_attention,
                             combine_branches, efficient_self_attention,
                             init_csa, init_esa, init_mdt_block, init_ssa,
                             mdt_block, relative_position_index,
                             spatial_self_attention, window_merge,
                             window_partition)
from mdtaf.layers import token_norm
from mdtaf.params import Initializer, ParamStore
from mdtaf.tensor import ConfigError, Tensor, no_grad
from mdtaf.verify import channel_attention_oracle, dense_attention_oracle


def _cfg(c=8, heads=2, reduction=1, window=2):
    return AttentionConfig(channels=c, heads=heads, reduction=reduction,
                           window=window, r1=4, r2=4)


# ---------------------------------------------------------------------------
# window rearrangement

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_window_roundtrip_is_bit_exact(w, hm, wm, c, seed):
    h, wd = w * hm, w * wm
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, h, wd, c)).astype(np.float32))
    y = window_merge(window_partition(x, w), w, h, wd)
    assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("field", ["heads", "reduction", "window", "r1", "r2"])
@pytest.mark.parametrize("value", [0, -2])
def test_non_positive_counts_are_rejected(field, value):
    kwargs = {"channels": 64, "heads": 2, field: value}
    with pytest.raises(ConfigError, match=f"{field} {value}"):
        AttentionConfig(**kwargs)


def test_window_partition_rejects_nondivisible():
    x = Tensor(np.zeros((1, 6, 6, 2)))
    with pytest.raises(ConfigError):
        window_partition(x, 4)


def test_window_partition_groups_pixels_by_window():
    # label each pixel by its window id; every partitioned window must be pure
    h = wd = 4
    w = 2
    labels = np.arange(h * wd).reshape(h, wd) // 1
    wid = (np.arange(h)[:, None] // w) * (wd // w) + np.arange(wd)[None, :] // w
    x = Tensor(wid[None, :, :, None].astype(np.float64))
    parts = window_partition(x, w).data[..., 0]
    for i in range(parts.shape[0]):
        assert np.unique(parts[i]).size == 1


@pytest.mark.parametrize("w", [2, 3, 4])
def test_relative_position_index_properties(w):
    idx = relative_position_index(w)
    n = w * w
    assert idx.shape == (n, n)
    assert idx.min() >= 0 and idx.max() < (2 * w - 1) ** 2
    # zero displacement maps every token to the same table entry
    assert np.unique(np.diag(idx)).size == 1
    # equal displacements share an entry: token pairs shifted together match
    if w >= 2:
        assert idx[0, 1] == idx[w, w + 1]


# ---------------------------------------------------------------------------
# ESA against the dense oracle

def test_esa_r1_matches_dense_oracle():
    n, c, heads = 16, 8, 2
    cfg = _cfg(c, heads, reduction=1)
    store = ParamStore()
    init_esa(store, Initializer(0), "esa", cfg)
    for nm in ("kr", "vr"):
        store[f"esa.{nm}.weight"].data[:] = np.eye(c)
        store[f"esa.{nm}.bias"].data[:] = 0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, n, c)).astype(np.float32)
    with no_grad():
        y = efficient_self_attention(Tensor(x), cfg, store, "esa").data[0]
    ref = dense_attention_oracle(
        x[0].astype(np.float64),
        *(store[f"esa.{nm}.{p}"].data.astype(np.float64)
          for nm in ("wq", "wk", "wv") for p in ("weight", "bias")),
        store["esa.proj.weight"].data.astype(np.float64),
        store["esa.proj.bias"].data.astype(np.float64), heads)
    assert np.abs(y - ref).max() / max(1.0, np.abs(ref).max()) < 1e-6


def test_esa_reduction_shrinks_kv_not_output():
    cfg = _cfg(c=8, heads=2, reduction=4)
    store = ParamStore()
    init_esa(store, Initializer(0), "esa", cfg)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 16, 8)))
    with no_grad():
        y = efficient_self_attention(x, cfg, store, "esa")
    assert y.shape == (2, 16, 8)
    assert store["esa.kr.weight"].shape == (32, 8)


def test_esa_rejects_indivisible_token_count():
    cfg = _cfg(c=8, heads=2, reduction=4)
    store = ParamStore()
    init_esa(store, Initializer(0), "esa", cfg)
    with pytest.raises(ConfigError):
        efficient_self_attention(Tensor(np.zeros((1, 6, 8))), cfg, store, "esa")


# ---------------------------------------------------------------------------
# SSA: single-window oracle plus strict window locality

def _isolated_ssa_store(cfg, seed=0):
    store = ParamStore()
    init_ssa(store, Initializer(seed), "ssa", cfg)
    c = cfg.channels
    store["ssa.merge.weight"].data[:] = np.eye(c)
    store["ssa.merge_out.weight"].data[:] = np.eye(c)
    store["ssa.gate_c.ch1.weight"].data[:] = 0
    store["ssa.gate_c.ch2.weight"].data[:] = 0
    store["ssa.gate_c.ch2.bias"].data[:] = 40.0   # pass the attention map
    store["ssa.gate_s.sp1.weight"].data[:] = 0
    store["ssa.gate_s.sp2.weight"].data[:] = 0
    store["ssa.gate_s.sp2.bias"].data[:] = -40.0  # silence the local branch
    return store


def test_ssa_single_window_matches_dense_oracle():
    h = w = 4
    c, heads = 8, 2
    cfg = _cfg(c, heads, window=4)
    store = _isolated_ssa_store(cfg)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, h * w, c)).astype(np.float32)
    with no_grad():
        y = spatial_self_attention(Tensor(x), h, w, cfg, store, "ssa").data[0]
    zeros = np.zeros(c)
    ref = dense_attention_oracle(
        x[0].astype(np.float64),
        store["ssa.wq.weight"].data.astype(np.float64), zeros,
        store["ssa.wk.weight"].data.astype(np.float64), zeros,
        store["ssa.wv.weight"].data.astype(np.float64), zeros,
        np.eye(c), zeros, heads)
    assert np.abs(y - ref).max() / max(1.0, np.abs(ref).max()) < 1e-6


def test_ssa_attention_is_window_local():
    # perturbing one pixel must not change isolated-attention outputs in any
    # other window (per-token projections, no cross-window terms)
    h = wd = 8
    c = 8
    cfg = _cfg(c, heads=2, window=4)
    store = _isolated_ssa_store(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, h * wd, c)).astype(np.float32)
    xp = x.copy()
    xp[0, 0] += 1.0  # pixel (0,0), window covering rows 0..3, cols 0..3
    with no_grad():
        y0 = spatial_self_attention(Tensor(x), h, wd, cfg, store, "ssa").data
        y1 = spatial_self_attention(Tensor(xp), h, wd, cfg, store, "ssa").data
    inside = np.zeros((h, wd), dtype=bool)
    inside[:4, :4] = True
    inside = inside.reshape(-1)
    assert np.array_equal(y0[0, ~inside], y1[0, ~inside])
    assert np.abs(y0[0, inside] - y1[0, inside]).max() > 1e-6


def test_ssa_rel_pos_bias_shifts_logits():
    cfg = _cfg(c=8, heads=2, window=2)
    store = _isolated_ssa_store(cfg)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 16, 8)))
    with no_grad():
        base = spatial_self_attention(x, 4, 4, cfg, store, "ssa").data
        store["ssa.rel_pos_bias"].data[:] = np.random.default_rng(5).normal(
            size=store["ssa.rel_pos_bias"].shape)
        biased = spatial_self_attention(x, 4, 4, cfg, store, "ssa").data
    assert np.abs(base - biased).max() > 1e-6


# ---------------------------------------------------------------------------
# CSA: Gram oracle and permutation equivariance

def _isolated_csa_store(cfg, seed=0):
    store = ParamStore()
    init_csa(store, Initializer(seed), "csa", cfg)
    c = cfg.channels
    store["csa.merge_out.weight"].data[:] = np.eye(c)
    store["csa.gate_s.sp1.weight"].data[:] = 0
    store["csa.gate_s.sp2.weight"].data[:] = 0
    store["csa.gate_s.sp2.bias"].data[:] = 40.0
    store["csa.gate_c.ch1.weight"].data[:] = 0
    store["csa.gate_c.ch2.weight"].data[:] = 0
    store["csa.gate_c.ch2.bias"].data[:] = -40.0
    return store


def test_csa_matches_gram_oracle():
    n, c, heads = 8, 4, 1
    cfg = _cfg(c, heads)
    store = _isolated_csa_store(cfg)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, n, c)).astype(np.float32)
    with no_grad():
        y = channel_self_attention(Tensor(x), 2, 4, cfg, store, "csa").data[0]
    ref = channel_attention_oracle(
        x[0].astype(np.float64),
        store["csa.wq.weight"].data.astype(np.float64),
        store["csa.wk.weight"].data.astype(np.float64),
        store["csa.wv.weight"].data.astype(np.float64),
        store["csa.merge.weight"].data.astype(np.float64),
        store["csa.alpha"].data.astype(np.float64), heads) + x[0]
    assert np.abs(y - ref).max() / max(1.0, np.abs(ref).max()) < 1e-6


def test_csa_attention_is_permutation_equivariant():
    n, c = 8, 4
    cfg = _cfg(c, heads=1)
    store = _isolated_csa_store(cfg)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, n, c)).astype(np.float32)
    perm = rng.permutation(n)
    with no_grad():
        y = channel_self_attention(Tensor(x), 2, 4, cfg, store, "csa").data
        yp = channel_self_attention(Tensor(x[:, perm]), 2, 4, cfg, store,
                                    "csa").data
    assert np.array_equal(y[:, perm], yp)


def test_csa_alpha_scales_attention_temperature():
    n, c = 8, 4
    cfg = _cfg(c, heads=1)
    store = _isolated_csa_store(cfg)
    x = Tensor(np.random.default_rng(7).normal(size=(1, n, c)))
    with no_grad():
        sharp = channel_self_attention(x, 2, 4, cfg, store, "csa").data
        store["csa.alpha"].data[:] = 1e4  # near-uniform attention
        flat = channel_self_attention(x, 2, 4, cfg, store, "csa").data
    assert np.abs(sharp - flat).max() > 1e-6


# ---------------------------------------------------------------------------
# interaction gates

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_gates_are_contractions(seed):
    # sigmoid gates lie in (0,1), so the gated branch never grows in magnitude
    rng = np.random.default_rng(seed)
    c = 8
    store = ParamStore()
    A.init_interact_spatial(store, Initializer(0), "gs", c, 4)
    A.init_interact_channel(store, Initializer(0), "gc", c, 4)
    x1 = Tensor(rng.normal(size=(1, c, 4, 4)).astype(np.float32))
    x2 = Tensor(rng.normal(size=(1, c, 4, 4)).astype(np.float32))
    with no_grad():
        gs = A.interact_spatial(x1, x2, store, "gs").data
        gc = A.interact_channel(x1, x2, store, "gc").data
    assert np.all(np.abs(gs) <= np.abs(x1.data) + 1e-7)
    assert np.all(np.abs(gc) <= np.abs(x1.data) + 1e-7)


# ---------------------------------------------------------------------------
# block-level fusion

def test_combine_branches_lambda_stub():
    ones = Tensor(np.ones((2, 3, 4)))
    assert (combine_branches(ones, ones, ones).data == 2.0).all()
    x = Tensor(np.random.default_rng(8).normal(size=(1, 4, 4)))
    z = combine_branches(x, x, x).data
    np.testing.assert_allclose(z, 2.0 * x.data, rtol=1e-15, atol=0)
    a, b, c = (Tensor(np.full((2, 2), v)) for v in (1.0, 1.0, 0.0))
    assert np.allclose(combine_branches(a, b, c).data, 1.6)


def test_block_with_silenced_attention_reduces_to_mlp_path():
    # zero the output projections of every branch; each branch then returns
    # its raw residual and the block must equal MLP(norm2(2x)) + 2x
    cfg = BlockConfig(_cfg(c=8, heads=2, window=2), mlp_ratio=2)
    store = ParamStore()
    init_mdt_block(store, Initializer(0), "blk", cfg)
    store["blk.esa.proj.weight"].data[:] = 0
    store["blk.esa.proj.bias"].data[:] = 0
    store["blk.ssa.merge_out.weight"].data[:] = 0
    store["blk.csa.merge_out.weight"].data[:] = 0
    x = Tensor(np.random.default_rng(9).normal(size=(1, 16, 8)).astype(np.float32))
    with no_grad():
        y = mdt_block(x, 4, 4, cfg, store, "blk").data
        z = Tensor(2.0 * x.data)
        h = T.linear(token_norm(store, "blk.norm2", z),
                     store["blk.mlp.fc1.weight"], store["blk.mlp.fc1.bias"])
        h = T.linear(T.gelu(h), store["blk.mlp.fc2.weight"],
                     store["blk.mlp.fc2.bias"])
        want = h.data + z.data
    assert np.abs(y - want).max() < 1e-6


def test_block_without_msa_drops_ssa_csa_params():
    cfg_full = BlockConfig(_cfg(), mlp_ratio=2, msa=True)
    cfg_esa = BlockConfig(_cfg(), mlp_ratio=2, msa=False)
    full, esa_only = ParamStore(), ParamStore()
    init_mdt_block(full, Initializer(0), "b", cfg_full)
    init_mdt_block(esa_only, Initializer(0), "b", cfg_esa)
    assert any(".ssa." in n for n in full.names())
    assert not any(".ssa." in n or ".csa." in n for n in esa_only.names())
    x = Tensor(np.random.default_rng(10).normal(size=(1, 16, 8)))
    with no_grad():
        y = mdt_block(x, 4, 4, cfg_esa, esa_only, "b")
    assert y.shape == (1, 16, 8)


def test_attention_config_validates_divisibility():
    with pytest.raises(ConfigError):
        AttentionConfig(channels=8, heads=3, reduction=1, window=2, r1=4, r2=4)
    with pytest.raises(ConfigError):
        AttentionConfig(channels=8, heads=2, reduction=1, window=2, r1=3, r2=4)

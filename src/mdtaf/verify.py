"""Self-contained invariant suite behind the ``verify`` CLI command.

The oracles here are deliberately independent of the autodiff engine: dense
attention and channel attention are recomputed with plain numpy, gradients
are re-derived by central finite differences.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import tensor as T
from .attention import (AttentionConfig, BlockConfig, channel_self_attention,
                        efficient_self_attention, init_csa, init_esa,
                        init_mdt_block, init_ssa, mdt_block,
                        spatial_self_attention, window_merge, window_partition)
from .filter_embed import (PatchEmbedConfig, filtered_embed, init_patch_embed,
                           overlap_patch_embed)
from .gradcheck import grad_check, grad_check_params
from .model import (desk_config, init_params, load_checkpoint, model_forward,
                    save_checkpoint, tiny_config)
from .params import Initializer, ParamStore
from .tensor import Tensor, no_grad
from .train import accuracy, bce_loss, cosine_lr, dice_score


def _np_softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def dense_attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Plain-numpy multi-head attention with residual; the ESA/SSA reference."""
    n, c = x.shape
    d = c // heads
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    outs = []
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        a = _np_softmax(q[:, sl] @ k[:, sl].T / np.sqrt(d), axis=-1)
        outs.append(a @ v[:, sl])
    return np.concatenate(outs, axis=1) @ wo + bo + x


def channel_attention_oracle(x, wq, wk, wv, wm, alpha, heads):
    """Scalar-style reference for the channel Gram attention (no fusion)."""
    n, c = x.shape
    d = c // heads
    q, k, v = x @ wq, x @ wk, x @ wv
    outs = []
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        a = _np_softmax(q[:, sl].T @ k[:, sl] / alpha[h], axis=-1)
        outs.append(v[:, sl] @ a)
    return np.concatenate(outs, axis=1) @ wm


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail)

def check_gradients_ops(seed=0):
    rng = np.random.default_rng(seed)
    worst = {}
    def f_conv(x, w, b):
        return T.tsum(T.tanh(T.conv2d(x, w, b, stride=2, padding=1, dilation=2, groups=2)))
    worst["conv2d"] = grad_check(f_conv, [_rand(rng, 1, 4, 9, 9), _rand(rng, 6, 2, 3, 3),
                                          _rand(rng, 6)])
    def f_deconv(x, w, b):
        return T.tsum(T.sigmoid(T.conv_transpose2d(x, w, b)))
    worst["conv_transpose2d"] = grad_check(f_deconv, [_rand(rng, 1, 2, 4, 4),
                                                      _rand(rng, 2, 3, 2, 2), _rand(rng, 3)])
    worst["linear"] = grad_check(lambda x, w, b: T.tsum(T.gelu(T.linear(x, w, b))),
                                 [_rand(rng, 2, 5), _rand(rng, 5, 3), _rand(rng, 3)])
    worst["gelu"] = grad_check(lambda x: T.tsum(T.gelu(x)), [_rand(rng, 16)])
    worst["sigmoid"] = grad_check(lambda x: T.tsum(T.sigmoid(x)), [_rand(rng, 16)])
    probe_sm = _rand(rng, 3, 5)
    worst["softmax"] = grad_check(lambda x: T.tsum(T.softmax(x, axis=-1) * probe_sm),
                                  [_rand(rng, 3, 5)])
    worst["layer_norm"] = grad_check(
        lambda x, g, b: T.tsum(T.tanh(T.layer_norm(x, g, b, axis=-1))),
        [_rand(rng, 2, 6), _rand(rng, 6), _rand(rng, 6)])
    worst["matmul"] = grad_check(lambda a, b: T.tsum(T.matmul(a, b)),
                                 [_rand(rng, 2, 3, 4), _rand(rng, 2, 4, 2)])
    probe_rs = _rand(rng, 1, 2, 5, 7)
    worst["bilinear_resize"] = grad_check(
        lambda x: T.tsum(T.bilinear_resize(x, 5, 7) * probe_rs),
        [_rand(rng, 1, 2, 3, 4)])
    target = Tensor((rng.random((2, 1, 4, 4)) > 0.5).astype(np.float64))
    worst["bce_loss"] = grad_check(lambda x: bce_loss(x, target),
                                   [_rand(rng, 2, 1, 4, 4)])
    # fused ESA/SSA core, without and with a (heads, N, M) bias
    probe_at = _rand(rng, 2, 2, 3, 5)
    qkv = [_rand(rng, 2, 2, 3, 4), _rand(rng, 2, 2, 6, 4), _rand(rng, 2, 2, 6, 5)]
    worst["attention"] = max(
        grad_check(lambda q, k, v: T.tsum(T.attention(q, k, v, 0.5) * probe_at), qkv),
        grad_check(lambda q, k, v, b: T.tsum(T.attention(q, k, v, 0.5, b) * probe_at),
                   qkv + [_rand(rng, 2, 3, 6)]))
    # the fused linear on a 3-D input, with and without bias
    xw = [_rand(rng, 2, 3, 5), _rand(rng, 5, 4)]
    worst["linear"] = max(
        worst["linear"],
        grad_check(lambda x, w, b: T.tsum(T.gelu(T.linear(x, w, b))), xw + [_rand(rng, 4)]),
        grad_check(lambda x, w: T.tsum(T.gelu(T.linear(x, w))), xw))
    # attention over more than one query tile, the last one ragged
    n = T.ATTENTION_TILE + 5
    probe_tiles = _rand(rng, 1, n, 2)
    worst["attention"] = max(
        worst["attention"],
        grad_check(lambda q, k, v: T.tsum(T.attention(q, k, v, 0.5) * probe_tiles),
                   [_rand(rng, 1, n, 2), _rand(rng, 1, 7, 2), _rand(rng, 1, 7, 2)]))
    # stride-1 depthwise conv (the shifted multiply-add path) on a channel-first
    # leaf and on a channel-last view of a B,H,W,C leaf; the channel norm on one
    def f_dw(x, w, b):
        return T.tsum(T.tanh(T.conv2d(x, w, b, padding=2, dilation=2, groups=3)))
    dw = [_rand(rng, 3, 1, 3, 3), _rand(rng, 3)]
    worst["conv2d"] = max(worst["conv2d"], grad_check(f_dw, [_rand(rng, 2, 3, 5, 6)] + dw),
                          grad_check(lambda x, w, b: f_dw(T.transpose(x, (0, 3, 1, 2)), w, b),
                                     [_rand(rng, 2, 5, 6, 3)] + dw))
    worst["layer_norm"] = max(worst["layer_norm"], grad_check(
        lambda x, g, b: T.tsum(T.tanh(T.layer_norm(T.transpose(x, (0, 3, 1, 2)), g, b, axis=1))),
        [_rand(rng, 2, 3, 4, 5), _rand(rng, 1, 5, 1, 1), _rand(rng, 1, 5, 1, 1)]))
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    return not bad, detail


def _randomize(store: ParamStore, rng, scale: float = 0.3):
    """Replace the tiny training init with O(scale) values; gradients at the
    0.02 init are ~1e-8, below what central differences can resolve."""
    for name, t in store.items():
        t.data[:] = rng.normal(scale=scale, size=t.shape)
        if name.endswith(".alpha"):
            t.data[:] = np.abs(t.data) + 0.5


def check_gradients_block(seed=0):
    cfg = BlockConfig(AttentionConfig(channels=8, heads=2, reduction=2, window=2,
                                      r1=4, r2=4), mlp_ratio=2)
    store = ParamStore()
    init_mdt_block(store, Initializer(seed), "blk", cfg)
    store64 = store.astype(np.float64)
    rng = np.random.default_rng(seed)
    _randomize(store64, rng)
    x = Tensor(rng.normal(size=(1, 16, 8)))
    err = grad_check_params(lambda p: T.tsum(T.tanh(mdt_block(x, 4, 4, cfg, p, "blk"))),
                            store64, max_coords=4, min_grad=1e-6,
                            rng=np.random.default_rng(seed))
    return err < 1e-3, f"max rel err {err:.2e}"


def check_gradients_model(seed=0):
    """Whole tiny model in float64 at 32x32, one probed coordinate per tensor."""
    cfg = tiny_config()
    store = init_params(cfg, seed).astype(np.float64)
    rng = np.random.default_rng(seed)
    _randomize(store, rng, scale=0.1)
    x = Tensor(rng.normal(size=(1, 1, 32, 32)))
    y = Tensor((rng.random((1, 1, 32, 32)) > 0.7).astype(np.float64))
    err = grad_check_params(lambda p: bce_loss(model_forward(x, cfg, p), y), store,
                            max_coords=1, min_grad=1e-6, rng=np.random.default_rng(seed))
    return err < 1e-3, f"max rel err {err:.2e} (threshold 1e-3)"


def check_softmax_props(seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 7)))
    s = T.softmax(x, axis=-1).data
    sums_ok = np.abs(s.sum(-1) - 1).max() < 1e-6
    shifted = T.softmax(Tensor(x.data + 1000.0), axis=-1).data
    shift_ok = np.abs(shifted - s).max() < 1e-12
    return sums_ok and shift_ok, f"row-sum dev {np.abs(s.sum(-1)-1).max():.1e}"


def check_window_roundtrip(seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 8, 12, 5)).astype(np.float32))
    y = window_merge(window_partition(x, 4), 4, 8, 12)
    ok = np.array_equal(x.data, y.data)
    return ok, "bit-exact" if ok else "mismatch"


def _identity_reduce(store, prefix, c):
    store[f"{prefix}.kr.weight"].data[:] = np.eye(c, dtype=np.float32)
    store[f"{prefix}.kr.bias"].data[:] = 0
    store[f"{prefix}.vr.weight"].data[:] = np.eye(c, dtype=np.float32)
    store[f"{prefix}.vr.bias"].data[:] = 0


def check_esa_oracle(seed=0):
    n, c, heads = 16, 8, 2
    cfg = AttentionConfig(channels=c, heads=heads, reduction=1, window=2, r1=4, r2=4)
    store = ParamStore()
    init_esa(store, Initializer(seed), "esa", cfg)
    _identity_reduce(store, "esa", c)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(1, n, c)).astype(np.float32))
    with no_grad():
        y = efficient_self_attention(x, cfg, store, "esa").data[0]
    ref = dense_attention_oracle(
        x.data[0].astype(np.float64),
        *(store[f"esa.{nm}.{p}"].data.astype(np.float64)
          for nm in ("wq", "wk", "wv") for p in ("weight", "bias")),
        store["esa.proj.weight"].data.astype(np.float64),
        store["esa.proj.bias"].data.astype(np.float64), heads)
    err = np.abs(y - ref).max() / max(1.0, np.abs(ref).max())
    return err < 1e-6, f"rel err {err:.2e}"


def check_ssa_oracle(seed=0):
    # single window covering the whole 4x4 map, zero position bias, with the
    # fusion path disabled by saturating the channel gate and zeroing the rest
    h = w = 4
    c, heads = 8, 2
    cfg = AttentionConfig(channels=c, heads=heads, reduction=1, window=4, r1=4, r2=4)
    store = ParamStore()
    init_ssa(store, Initializer(seed), "ssa", cfg)
    store["ssa.merge.weight"].data[:] = np.eye(c)
    store["ssa.merge_out.weight"].data[:] = np.eye(c)
    # gate_c saturated open (bias +40) -> Y_Sp passes; local branch gated shut
    store["ssa.gate_c.ch1.weight"].data[:] = 0
    store["ssa.gate_c.ch2.weight"].data[:] = 0
    store["ssa.gate_c.ch2.bias"].data[:] = 40.0
    store["ssa.gate_s.sp1.weight"].data[:] = 0
    store["ssa.gate_s.sp2.weight"].data[:] = 0
    store["ssa.gate_s.sp2.bias"].data[:] = -40.0
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(1, h * w, c)).astype(np.float32))
    with no_grad():
        y = spatial_self_attention(x, h, w, cfg, store, "ssa").data[0]
    zeros = np.zeros(c)
    ref = dense_attention_oracle(
        x.data[0].astype(np.float64),
        store["ssa.wq.weight"].data.astype(np.float64), zeros,
        store["ssa.wk.weight"].data.astype(np.float64), zeros,
        store["ssa.wv.weight"].data.astype(np.float64), zeros,
        np.eye(c), zeros, heads)
    err = np.abs(y - ref).max() / max(1.0, np.abs(ref).max())
    return err < 1e-6, f"rel err {err:.2e}"


def check_csa_oracle(seed=0):
    n, c, heads = 8, 4, 1
    cfg = AttentionConfig(channels=c, heads=heads, reduction=1, window=2, r1=4, r2=4)
    store = ParamStore()
    init_csa(store, Initializer(seed), "csa", cfg)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(1, n, c)).astype(np.float32))

    # isolate the attention path: identity output merge, open spatial gate,
    # closed channel gate on the local branch
    store["csa.merge_out.weight"].data[:] = np.eye(c)
    store["csa.gate_s.sp1.weight"].data[:] = 0
    store["csa.gate_s.sp2.weight"].data[:] = 0
    store["csa.gate_s.sp2.bias"].data[:] = 40.0
    store["csa.gate_c.ch1.weight"].data[:] = 0
    store["csa.gate_c.ch2.weight"].data[:] = 0
    store["csa.gate_c.ch2.bias"].data[:] = -40.0
    with no_grad():
        y = channel_self_attention(x, 2, 4, cfg, store, "csa").data[0]
    ref = channel_attention_oracle(
        x.data[0].astype(np.float64),
        store["csa.wq.weight"].data.astype(np.float64),
        store["csa.wk.weight"].data.astype(np.float64),
        store["csa.wv.weight"].data.astype(np.float64),
        store["csa.merge.weight"].data.astype(np.float64),
        store["csa.alpha"].data.astype(np.float64), heads) + x.data[0]
    err = np.abs(y - ref).max() / max(1.0, np.abs(ref).max())

    # exact spatial permutation equivariance of the full CSA output
    perm = rng.permutation(n)
    with no_grad():
        y_full = channel_self_attention(x, 2, 4, cfg, store, "csa").data
        xp = Tensor(x.data[:, perm])
        y_perm = channel_self_attention(xp, 2, 4, cfg, store, "csa").data
    equiv = np.array_equal(y_full[:, perm], y_perm)
    return err < 1e-6 and equiv, f"rel err {err:.2e}, permutation exact: {equiv}"


def check_filter_gate(seed=0):
    cfg = PatchEmbedConfig.stage1(1, 8)
    store = ParamStore()
    init_patch_embed(store, Initializer(seed), "em", cfg, filtering=True)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
    # saturate the gate: zero branch, compression bias +40 -> A ~ 1
    for name, t in store.items():
        if ".filter." in name:
            t.data[:] = 0
    store["em.filter.compress.bias"].data[:] = 40.0
    with no_grad():
        f1 = overlap_patch_embed(x, cfg, store, "em")
        tok, h, w = filtered_embed(x, cfg, store, "em", filtering=True)
        tok_off, _, _ = filtered_embed(x, cfg, store, "em", filtering=False)
    gated = tok.data.reshape(-1)
    plain = tok_off.data.reshape(-1)
    sat_ok = np.abs(gated - plain).max() < 1e-6
    off_ok = np.array_equal(tok_off.data.transpose(0, 2, 1).reshape(f1.shape), f1.data)
    return sat_ok and off_ok, f"saturated-gate dev {np.abs(gated-plain).max():.1e}"


def check_checkpoint_roundtrip(seed=0):
    cfg = tiny_config()
    params = init_params(cfg, seed)
    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "a.ckpt")
        p2 = os.path.join(d, "b.ckpt")
        save_checkpoint(params, cfg, p1)
        loaded, cfg2 = load_checkpoint(p1)
        save_checkpoint(loaded, cfg2, p2)
        with open(p1, "rb") as f:
            b1 = f.read()
        with open(p2, "rb") as f:
            b2 = f.read()
    return b1 == b2 and cfg2 == cfg, f"{len(b1)} bytes"


def check_loss_metrics():
    logits = Tensor(np.zeros((1, 1, 4, 4)))
    target = Tensor(np.zeros((1, 1, 4, 4)))
    ln2_ok = abs(bce_loss(logits, target).item() - np.log(2)) < 1e-9
    lr0 = cosine_lr(0, 100, 1e-4, 1e-6) == 1e-4
    lr1 = cosine_lr(100, 100, 1e-4, 1e-6) == 1e-6
    a = np.zeros((4, 4), np.uint8)
    a[:2] = 1
    dice_ok = dice_score(a, a) == 1.0 and accuracy(a, a) == 1.0
    return ln2_ok and lr0 and lr1 and dice_ok, "ln2 / schedule endpoints / dice identity"


def check_shapes(seed=0):
    cfg = desk_config()
    params = init_params(cfg, seed)
    x = Tensor(np.zeros((1, 1, 64, 64), np.float32))
    from .model import encoder_forward, mlp_decoder
    with no_grad():
        feats = encoder_forward(x, cfg, params)
        logits = mlp_decoder(feats, cfg, params, out_hw=(64, 64))
    want = [(1, 16, 16, 16), (1, 32, 8, 8), (1, 40, 4, 4), (1, 64, 2, 2)]
    ok = [f.shape for f in feats] == want and logits.shape == (1, 1, 64, 64)
    return ok, f"{[f.shape for f in feats]} -> {logits.shape}"


ALL_CHECKS = [
    ("gradients/ops", check_gradients_ops),
    ("gradients/mdt-block", check_gradients_block),
    ("softmax/properties", check_softmax_props),
    ("window/roundtrip", check_window_roundtrip),
    ("esa/dense-oracle", check_esa_oracle),
    ("ssa/dense-oracle", check_ssa_oracle),
    ("csa/oracle+equivariance", check_csa_oracle),
    ("filter/gate-identities", check_filter_gate),
    ("checkpoint/roundtrip", check_checkpoint_roundtrip),
    ("loss-metrics/analytic", check_loss_metrics),
    ("model/shape-contract", check_shapes),
]


def run_all(out=None) -> bool:
    """Run every check, print one line each; True iff all pass."""
    ok_all = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        ok_all &= ok
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        print(line, file=out)
    return ok_all

"""Gradient and semantics tests for the tensor engine.

Every differentiable op is checked against central finite differences in
float64.  Convolutions additionally get a brute-force loop oracle so the
im2col fast path is never its own referee.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtaf import tensor as T
from mdtaf.attention import _merge_heads, _split_heads, window_merge, window_partition
from mdtaf.gradcheck import grad_check, relative_error
from mdtaf.layers import map_to_tokens, tokens_to_map
from mdtaf.model import desk_config, init_params, model_forward, tiny_config
from mdtaf.tensor import (ConfigError, GraphError, ShapeError, Tensor, nan_check, no_grad)

TOL = 1e-4  # per-op threshold; observed errors are orders of magnitude lower

RNG = np.random.default_rng(0)


def _t(*shape, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, size=shape))


# ---------------------------------------------------------------------------
# elementwise and reduction gradients (full-coordinate checks)

def test_grad_add_broadcast():
    a, b = _t(3, 4), _t(4)
    assert grad_check(lambda a, b: T.tsum(T.tanh(a + b)), [a, b]) < TOL


def test_grad_mul_div():
    a, b = _t(2, 5), Tensor(RNG.uniform(0.5, 2.0, size=(2, 5)))
    assert grad_check(lambda a, b: T.tsum(a * b), [a, b]) < TOL
    assert grad_check(lambda a, b: T.tsum(a / b), [a, b]) < TOL


def test_grad_exp_log_sqrt():
    p = Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)))
    assert grad_check(lambda x: T.tsum(T.texp(x)), [p]) < TOL


@pytest.mark.parametrize("op", [T.tanh, T.sigmoid, T.gelu])
def test_grad_activations(op):
    x = _t(4, 6)
    assert grad_check(lambda x: T.tsum(op(x) * 0.7), [x]) < TOL


def test_grad_softmax():
    x = _t(3, 5)
    probe = Tensor(RNG.normal(size=(3, 5)))
    assert grad_check(lambda x: T.tsum(T.softmax(x) * probe), [x]) < TOL


def test_grad_sum_mean_axes():
    # the whole-array sum and the spatial mean, each under a nonlinear consumer
    x = _t(2, 3, 4, 5)

    def sq_sum(t):
        return T.tsum(t * t)

    assert grad_check(lambda x: sq_sum(T.tsum(x)) * 0.1, [x]) < TOL
    assert grad_check(lambda x: sq_sum(T.global_avg_pool(x)), [x]) < TOL


# ---------------------------------------------------------------------------
# shape ops

def _permute(x, axes):
    """``x`` permuted by ``axes``, as one ``rearrange`` node."""
    return T.rearrange(x, tuple(x.shape[a] for a in axes), axes=axes)


def test_grad_reshape_transpose():
    # rearrange's three forms: reshape; permute and reshape; reshape, permute
    # and reshape.  Neither permutation is its own inverse.
    x = _t(2, 3, 4)
    for shape, axes, split in [((4, 6), None, None), ((4, 6), (2, 0, 1), None),
                               ((3, 4, 2), (2, 0, 3, 1), (2, 3, 2, 2))]:
        probe = Tensor(RNG.normal(size=shape))
        assert grad_check(lambda x: T.tsum(T.rearrange(x, shape, axes, split) * probe),
                          [x]) < TOL


@pytest.mark.parametrize("key", [
    (slice(None), slice(None), slice(0, 3), slice(1, 4)),     # crop
    (slice(None), slice(1, 3)),                               # channel slice
    (slice(None, None, 2), Ellipsis, slice(1, None, 2)),      # stepped slice
    (1, None, slice(None), -1),                               # ints and a new axis
])
def test_grad_getitem_basic_indices(key):
    x = _t(3, 4, 5, 5)
    probe = Tensor(RNG.normal(size=x.data[key].shape))
    assert grad_check(lambda x: T.tsum(T.getitem(x, key) * probe), [x]) < TOL


def test_grad_getitem_repeated_indices():
    # repeated rows force the scatter-add in the backward pass
    x = _t(4, 3)
    idx = np.array([0, 2, 2, 1, 0])
    probe = Tensor(RNG.normal(size=(5, 3)))
    assert grad_check(lambda x: T.tsum(T.getitem(x, idx) * probe), [x]) < TOL


def test_grad_concat():
    a, b = _t(2, 3), _t(2, 2)
    probe = Tensor(RNG.normal(size=(2, 5)))
    assert grad_check(lambda a, b: T.tsum(T.concat([a, b], axis=1) * probe),
                      [a, b]) < TOL


def test_grad_pads():
    x = _t(1, 2, 3, 3)
    probe = Tensor(RNG.normal(size=(1, 2, 5, 4)))
    assert grad_check(lambda x: T.tsum(T.pad_bottom_right(x, 2, 1) * probe),
                      [x]) < TOL


# ---------------------------------------------------------------------------
# linear algebra

def test_grad_matmul_batched():
    a, b = _t(2, 3, 4), _t(2, 4, 5)
    assert grad_check(lambda a, b: T.tsum(T.tanh(T.matmul(a, b))), [a, b]) < TOL


def test_grad_linear_layer_norm():
    x, w, b = _t(2, 5, 4), _t(4, 3), _t(3)
    assert grad_check(lambda x, w, b: T.tsum(T.tanh(T.linear(x, w, b))),
                      [x, w, b]) < TOL
    g, be = Tensor(RNG.uniform(0.5, 1.5, size=(4,))), _t(4)
    probe = Tensor(RNG.normal(size=(2, 5, 4)))
    assert grad_check(
        lambda x, g, be: T.tsum(T.layer_norm(x, g, be) * probe),
        [x, g, be]) < TOL


def _layer_norm_composite(x, gamma, beta, axis, eps=1e-6):
    # the formula spelled out in numpy float64
    xc = x - x.mean(axis=axis, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=axis, keepdims=True) + eps) * gamma + beta


@pytest.mark.parametrize("axis,xshape,pshape", [
    (1, (2, 6, 3, 4), (1, 6, 1, 1)),
    (-1, (2, 5, 6), (6,)),
])
def test_layer_norm_matches_composite_f32(axis, xshape, pshape):
    # values against the numpy formula; gradients against the op's float64
    # run, which the float64 layer_norm gradchecks verify
    rng = np.random.default_rng(5)
    x, gamma, beta, probe = (
        rng.normal(1.0, 2.0, size=xshape).astype(np.float32),
        rng.uniform(0.5, 1.5, size=pshape).astype(np.float32),
        rng.normal(size=pshape).astype(np.float32),
        rng.normal(size=xshape).astype(np.float32))
    runs = []
    for dtype in (np.float32, np.float64):
        leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta)]
        y = T.layer_norm(*leaves, axis=axis)
        T.tsum(y * Tensor(probe.astype(dtype))).backward()
        runs.append([y.data] + [t.grad for t in leaves])
    f32, f64 = runs
    want = _layer_norm_composite(*(a.astype(np.float64) for a in (x, gamma, beta)), axis)
    for a, b in [(f64[0], want), (f32[0], want)] + list(zip(f32[1:], f64[1:])):
        assert np.abs(a - b).max() / max(1.0, np.abs(b).max()) < TOL
    assert all(a.dtype == np.float32 for a in f32)


def test_grad_layer_norm_channel_axis():
    x, g, be = _t(2, 4, 3, 3), Tensor(RNG.uniform(0.5, 1.5, size=(1, 4, 1, 1))), _t(1, 4, 1, 1)
    probe = Tensor(RNG.normal(size=(2, 4, 3, 3)))
    assert grad_check(
        lambda x, g, be: T.tsum(T.layer_norm(x, g, be, axis=1) * probe),
        [x, g, be]) < TOL


def test_layer_norm_is_one_tape_node():
    x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    y = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert y._parents[0] is x


def _attention_composite(q, k, v, scale, bias=None):
    # the ESA/SSA chain as it was built from separate tape ops
    s = T.matmul(q, _permute(k, (0, 1, 3, 2))) * scale
    if bias is not None:
        s = s + bias
    return T.matmul(T.softmax(s), v)


def _attention_deferred(q, k, v, scale, bias=None, shift=False):
    # the op's order in plain numpy: scores in log2 units from q scaled before
    # the GEMM, each row shifted by its max only when ``shift``, and rows
    # normalized by the last column of E @ [v | 1] after the GEMM
    log2e = np.log2(np.e)
    s = (q * q.dtype.type(scale * log2e)) @ k.swapaxes(-1, -2)
    if bias is not None:
        s = s + bias * bias.dtype.type(log2e)
    if shift:
        s = s - s.max(axis=-1, keepdims=True)
    ev = np.exp2(s) @ np.concatenate([v, np.ones_like(v[..., :1])], axis=-1)
    return ev[..., :-1] / ev[..., -1:]


@pytest.mark.parametrize("with_bias", [False, True])
def test_attention_matches_composite_f32(with_bias):
    rng = np.random.default_rng(7)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    q, k, v = leaf(3, 2, 16, 8), leaf(3, 2, 12, 8), leaf(3, 2, 12, 8)
    leaves = [q, k, v] + ([leaf(2, 16, 12)] if with_bias else [])
    probe = Tensor(rng.normal(size=(3, 2, 16, 8)).astype(np.float32))
    scale = 1.0 / np.sqrt(8)
    got, want = [], []
    for op, res in ((T.attention, got), (_attention_composite, want)):
        for t in leaves:
            t.grad = None
        y = op(*leaves[:3], scale, *leaves[3:])
        T.tsum(y * probe).backward()
        res.append(y.data.copy())
        res.extend(t.grad.copy() for t in leaves)
    assert np.array_equal(got[0], _attention_deferred(*(t.data for t in leaves[:3]), scale,
                                                      *(t.data for t in leaves[3:])))
    for a, b in zip(got, want):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() / max(1.0, np.abs(b).max()) < TOL


def test_attention_keeps_f32_under_f64_scale():
    q = Tensor(RNG.normal(size=(1, 4, 8)).astype(np.float32), requires_grad=True)
    y = T.attention(q, q, q, 1.0 / np.sqrt(np.float64(8)))
    assert y.dtype == np.float32
    T.tsum(y).backward()
    assert q.grad.dtype == np.float32


_QKV = ((2, 3, 4, 8), (2, 3, 6, 8), (2, 3, 6, 5))


@pytest.mark.parametrize("shapes", [
    ((2, 3, 4, 8), (3, 6, 8), (3, 6, 5)),
    ((2, 3, 4, 8), (2, 3, 6, 8), (1, 3, 6, 5)),
    ((2, 3, 4, 8), (2, 1, 6, 8), (2, 3, 6, 5)),
    ((2, 3, 4, 8), (2, 3, 6, 7), (2, 3, 6, 5)),
    ((2, 3, 4, 8), (2, 3, 6, 8), (2, 3, 5, 5)),
    _QKV + ((3, 1, 6),),
    _QKV + ((6,),),
    _QKV + ((4, 5),),
    _QKV + ((2, 2, 4, 6),),
    _QKV + ((5, 2, 3, 4, 6),),
], ids=["k_lead", "v_lead", "k_lead_broadcast", "k_width", "v_rows",
        "bias_row_broadcast", "bias_1d", "bias_cols", "bias_lead", "bias_extra_axis"])
def test_attention_rejects_shapes_off_the_contract(shapes):
    args = [Tensor(np.zeros(s)) for s in shapes]
    with pytest.raises(ShapeError, match=r"attention shapes differ: q \(2, 3, 4, 8\)"):
        T.attention(*args[:3], 0.5, *args[3:])


@pytest.mark.parametrize("bias_shape", [(4, 6), (1, 4, 6), (3, 4, 6), (2, 1, 4, 6)])
def test_attention_bias_broadcasts_over_the_leading_shape(bias_shape):
    rng = np.random.default_rng(9)
    q, k, v = (Tensor(rng.normal(size=s)) for s in _QKV)
    bias = Tensor(rng.normal(size=bias_shape), requires_grad=True)
    full = Tensor(np.broadcast_to(bias.data, (2, 3, 4, 6)).copy(), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3, 4, 5)))
    y, y_full = T.attention(q, k, v, 0.5, bias), T.attention(q, k, v, 0.5, full)
    assert np.array_equal(y.data, y_full.data)
    T.tsum(y * probe).backward()
    T.tsum(y_full * probe).backward()
    want = full.grad.sum(axis=tuple(range(4 - len(bias_shape))))
    want = want.sum(axis=tuple(i for i, e in enumerate(bias_shape[:-2]) if e == 1),
                    keepdims=True)
    assert bias.grad.shape == bias_shape
    assert np.allclose(bias.grad, want, rtol=1e-12, atol=1e-14)


# N = 1029 queries: one full tile of T.ATTENTION_TILE rows and a ragged tail
_TILED_N, _TILED_M = T.ATTENTION_TILE + 5, 7


@pytest.mark.parametrize("with_bias", [False, True])
def test_attention_tiles_match_grad_mode_and_composite(with_bias):
    rng = np.random.default_rng(11)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    n, m = _TILED_N, _TILED_M
    args = [leaf(2, 3, n, 8), leaf(2, 3, m, 8), leaf(2, 3, m, 4)]
    args += [leaf(3, n, m)] if with_bias else []
    tracked = T.attention(args[0], args[1], args[2], 0.35, *args[3:])
    with no_grad():
        free = T.attention(args[0], args[1], args[2], 0.35, *args[3:])
        want = _attention_composite(args[0], args[1], args[2], 0.35, *args[3:])
    assert tracked.requires_grad and not free.requires_grad
    assert np.array_equal(free.data, tracked.data)
    assert np.array_equal(free.data, _attention_deferred(*(t.data for t in args[:3]), 0.35,
                                                         *(t.data for t in args[3:])))
    assert np.abs(free.data - want.data).max() / max(1.0, np.abs(want.data).max()) < TOL


@pytest.mark.parametrize("with_bias", [False, True])
def test_grad_attention_across_tiles(with_bias):
    n, m = _TILED_N, _TILED_M
    qkv = [_t(1, 1, n, 2), _t(1, 1, m, 2), _t(1, 1, m, 2)]
    probe = _t(1, 1, n, 2)
    if not with_bias:
        assert grad_check(lambda q, k, v: T.tsum(T.attention(q, k, v, 0.5) * probe), qkv) < TOL
        return
    # a (heads, N, M) bias whose rows 1020-1028, on both sides of the tile
    # edge, are probed; finite differences over all N * M entries take seconds
    top = _t(1, n - 9, m)

    def f(q, k, v, rows):
        bias = T.concat([top, rows], axis=1)
        return T.tsum(T.attention(q, k, v, 0.5, bias) * probe)

    assert grad_check(f, qkv + [_t(1, 9, m)]) < TOL


def _attention_leaves(rng, dtype, qk_scale=1.0, bias_scale=None):
    def leaf(*shape, scale=1.0):
        return Tensor((rng.normal(size=shape) * scale).astype(dtype), requires_grad=True)

    leaves = [leaf(2, 3, 40, 8, scale=qk_scale), leaf(2, 3, 24, 8, scale=qk_scale),
              leaf(2, 3, 24, 5)]
    return leaves + ([leaf(3, 40, 24, scale=bias_scale)] if bias_scale else [])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_bias", [False, True])
def test_attention_skips_the_row_max_on_ordinary_scores(dtype, with_bias):
    leaves = _attention_leaves(np.random.default_rng(5), dtype,
                               bias_scale=1.0 if with_bias else None)
    data = [t.data for t in leaves]
    with no_grad():
        got = T.attention(*leaves[:3], 0.35, *leaves[3:]).data
    assert np.array_equal(got, _attention_deferred(*data[:3], 0.35, *data[3:]))
    assert not np.array_equal(got, _attention_deferred(*data[:3], 0.35, *data[3:], shift=True))


# scores near +-1e3: 2^(1e3 log2 e) overflows f32, so these rows need the shift
_LARGE_SCORES = {"qk": dict(qk_scale=20.0), "bias": dict(bias_scale=1e3)}


@pytest.mark.parametrize("case", sorted(_LARGE_SCORES))
def test_attention_shifts_rows_whose_bound_exceeds_the_limit(case):
    leaves = _attention_leaves(np.random.default_rng(6), np.float32, **_LARGE_SCORES[case])
    data = [t.data for t in leaves]
    scores = data[0] @ data[1].swapaxes(-1, -2) * 0.35 + (data[3] if len(data) > 3 else 0)
    assert 500 < np.abs(scores).max() < 5000
    y = T.attention(*leaves[:3], 0.35, *leaves[3:])
    assert np.array_equal(y.data, _attention_deferred(*data[:3], 0.35, *data[3:], shift=True))
    probe = Tensor(np.random.default_rng(7).normal(size=y.shape).astype(np.float32))
    T.tsum(y * probe).backward()
    got = [y.data] + [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    ref = _attention_composite(*leaves[:3], 0.35, *leaves[3:])
    T.tsum(ref * probe).backward()
    for a, b in zip(got, [ref.data] + [t.grad for t in leaves]):
        assert np.isfinite(a).all()
        assert np.abs(a - b).max() / max(1.0, np.abs(b).max()) < TOL


def _attention_grads_rowsum(q, k, v, scale, bias, g):
    # the VJP as it was: dS = dP*P - P*rowsum(dP*P), from a numpy softmax
    s = q @ k.swapaxes(-1, -2) * scale + bias
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ds = (g @ v.swapaxes(-1, -2)) * p
    ds -= p * ds.sum(axis=-1, keepdims=True)
    return ds @ k * scale, (ds * scale).swapaxes(-1, -2) @ q, p.swapaxes(-1, -2) @ g, ds.sum(0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_vjp_through_d_matches_the_rowsum_form(dtype):
    rng = np.random.default_rng(8)
    leaves = _attention_leaves(rng, dtype, bias_scale=1.0)
    g = rng.normal(size=(2, 3, 40, 5)).astype(dtype)
    T.tsum(T.attention(*leaves[:3], 0.35, leaves[3]) * Tensor(g)).backward()
    want = _attention_grads_rowsum(*(t.data for t in leaves[:3]), 0.35, leaves[3].data, g)
    for t, b in zip(leaves, want):
        assert t.grad.dtype == dtype
        assert np.abs(t.grad - b).max() / max(1.0, np.abs(b).max()) < TOL


def test_attention_no_grad_scores_take_one_tile():
    rng = np.random.default_rng(3)
    q, k = (Tensor(rng.normal(size=(1, 1, n, 8)).astype(np.float32)) for n in (4096, 1024))
    full_scores = 4096 * 1024 * 4  # bytes of the (4096, 1024) f32 score matrix
    tracemalloc.start()
    try:
        with no_grad():
            T.attention(q, k, k, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_scores


# ---------------------------------------------------------------------------
# GELU in blocks of T.BLOCK elements

def _gelu_one_shot(x, g):
    # the chain over whole arrays, unblocked: output and input gradient
    s, c = float(np.sqrt(2.0 / np.pi)), 0.044715
    t = x * x
    t *= s * c
    t += s
    t *= x
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    d = x * x
    d *= 1.5 * c * s
    d += 0.5 * s
    d *= x
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    d *= sech2
    d += 0.5 * t
    d += 0.5
    d *= g
    return out, d


_GELU_MAPS = {  # leaf shape, then the view of it that gelu reads: axes, basic index
    "c_order": ((1, 3 * T.BLOCK + 77), (0, 1), ...),  # three blocks and a ragged tail
    "channel_last": ((2, 32, 32, 72), (0, 3, 1, 2), ...),  # B,C,H,W as conv2d returns it
    "strided": ((3, 200, 300), (0, 1, 2), np.s_[:, 1:, ::2]),  # not dense
    "one_block": ((4, 5, 6), (0, 1, 2), ...),  # the arrays themselves
}


@pytest.mark.parametrize("case", sorted(_GELU_MAPS))
def test_gelu_blocks_match_one_shot_chain_bitwise(case):
    shape, axes, key = _GELU_MAPS[case]
    rng = np.random.default_rng(4)
    leaf = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    x = T.getitem(_permute(leaf, axes), key)
    g = rng.normal(size=x.shape).astype(np.float32)
    want, want_grad = _gelu_one_shot(x.data, g)
    y = T.gelu(x)
    T.tsum(y * Tensor(g)).backward()
    with no_grad():
        free = T.gelu(x)
    grad = np.zeros_like(leaf.data)
    grad.transpose(axes)[key] = want_grad
    assert y.dtype == free.dtype == np.float32
    assert np.array_equal(y.data, want) and np.array_equal(free.data, want)
    assert np.array_equal(leaf.grad, grad)


def test_gelu_no_grad_scratch_takes_one_block():
    rng = np.random.default_rng(6)
    # channel-last map of 4.5 blocks: its memory-order view needs no copy
    x = _permute(Tensor(rng.normal(size=(1, 48, 48, 128)).astype(np.float32)), (0, 3, 1, 2))
    assert x.data.size >= 4 * T.BLOCK
    block_bytes = T.BLOCK * x.data.itemsize
    tracemalloc.start()
    try:
        with no_grad():
            y = T.gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.data.nbytes + 2 * block_bytes


# ---------------------------------------------------------------------------
# convolution: loop oracle plus gradients

def _stored(w, deconv=False):
    """An OIHW conv weight, or with ``deconv`` an IOHW deconv weight, as
    ``conv2d`` and ``conv_transpose2d`` take it: (k, k, Cin/groups, Cout) or
    (Cin, k, k, Cout).  An array gives an array, a Tensor a Tensor."""
    axes = (0, 2, 3, 1) if deconv else (2, 3, 1, 0)
    if isinstance(w, Tensor):
        return Tensor(w.data.transpose(axes), requires_grad=w.requires_grad)
    return np.ascontiguousarray(w.transpose(axes))


# a 3x3 conv from 320 to 512 channels (5.9 MB of f32 weight) and a 2x2
# deconv from 512 to 320, each on a map of a few pixels
_BIG_CONVS = {
    "conv2d": ((1, 320, 4, 4), (3, 3, 320, 512), lambda x, w, b: T.conv2d(x, w, b, padding=1)),
    "conv_transpose2d": ((1, 512, 2, 2), (512, 2, 2, 320), T.conv_transpose2d),
}


@pytest.mark.parametrize("name", sorted(_BIG_CONVS))
def test_no_conv_copies_its_weight(name):
    # the weight is stored in the order its GEMM reads it: a call allocates
    # its windows and its output, which are small here, and no weight copy
    x_shape, w_shape, op = _BIG_CONVS[name]
    rng = np.random.default_rng(9)
    x, w, b = (Tensor(rng.standard_normal(size=s, dtype=np.float32))
               for s in (x_shape, w_shape, w_shape[-1:]))
    tracemalloc.start()
    try:
        with no_grad():
            op(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.data.nbytes / 2


def _conv_oracle(x, w, b, stride, pad, dil, groups):
    bs, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - dil * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * pad - dil * (kw - 1) - 1) // stride + 1
    out = np.zeros((bs, cout, ho, wo))
    cpg = cout // groups
    for n in range(bs):
        for co in range(cout):
            g = co // cpg
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += (xp[n, g * cg + ci,
                                           i * stride + a * dil,
                                           j * stride + bb * dil]
                                        * w[co, ci, a, bb])
                    out[n, co, i, j] = acc + b[co]
    return out


@pytest.mark.parametrize("stride,pad,dil,groups,channels", [
    pytest.param(*case, 4, id="-".join(map(str, case))) for case in (
        (1, 0, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (2, 2, 2, 1),
        # depthwise (groups == channels) at stride 1: the per-tap multiply-add path
        (1, 1, 1, 4), (1, 0, 1, 4), (1, 2, 2, 4), (1, 3, 3, 4))
] + [
    # a (1, 1, 3, 3) weight on one channel is dense: both paths compute it
    pytest.param(1, 1, 1, 1, 1, id="one_channel"),
])
def test_conv2d_matches_loop_oracle(stride, pad, dil, groups, channels):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, channels, 6, 5))
    w = rng.normal(size=(channels, channels // groups, 3, 3))
    b = rng.normal(size=(channels,))
    got = T.conv2d(Tensor(x), Tensor(_stored(w)), Tensor(b), stride=stride, padding=pad,
                   dilation=dil).data
    assert np.abs(got - _conv_oracle(x, w, b, stride, pad, dil, groups)).max() < 1e-10


@pytest.mark.parametrize("cin,cout,stride,groups,kernel,error,match", [
    # a grouped (4, 2, 3, 3) weight: not the input's 4 in-channels
    pytest.param(4, 4, 1, 2, (3, 3), ShapeError, "in-channels", id="4-4-1-2"),
    # a depthwise (4, 1, 3, 3) weight at stride 2
    pytest.param(4, 4, 2, 4, (3, 3), ConfigError, "stride 2", id="4-4-2-4"),
    # an (8, 1, 3, 3) weight: depthwise with a channel multiplier
    pytest.param(4, 8, 1, 4, (3, 3), ShapeError, "in-channels", id="4-8-1-4"),
    # a 1x3 kernel: the stride-1 input gradient pads both axes alike
    pytest.param(4, 4, 1, 1, (1, 3), ConfigError, "square", id="non_square"),
])
def test_conv2d_rejects_settings_the_model_never_runs(cin, cout, stride, groups, kernel,
                                                      error, match):
    # conv2d reads the kind from the weight's shape alone
    x, w, b = _t(1, cin, 6, 6), _stored(_t(cout, cin // groups, *kernel)), _t(cout)
    with pytest.raises(error, match=match):
        T.conv2d(x, w, b, stride=stride, padding=1)


# depthwise maps (dtype, B, C, H, W) whose tap products span BLOCK-sized
# blocks: 8 maps of 16 rows, one map to a block; 8 maps of 8 rows, 7 maps to
# a block and 1 in the last; 2 maps of 20 rows, 18 rows to a block and 2 in
# the last
_DEPTHWISE_MAPS = ((np.float32, 8, 16, 16, 16), (np.float32, 8, 16, 8, 8),
                   (np.float32, 2, 16, 20, 24), (np.float64, 2, 16, 20, 24))


@pytest.mark.parametrize("pad,dil", [(1, 1), (2, 2)])
def test_depthwise_conv2d_equals_per_tap_numpy_bitwise(pad, dil):
    # pad, then sum the shifted slices times the weights in tap order: the
    # depthwise forward and the input and weight gradients must give the same
    # floats.  The input gradient is the same sum over the upstream gradient,
    # padded by dil*(k-1) - pad, with the flipped kernel; the bias gradient is
    # the GEMV of a ones vector with the upstream gradient's channel-last rows
    rng = np.random.default_rng(11)
    for dtype, bsz, c, h, w in _DEPTHWISE_MAPS:
        assert 9 * bsz * c * h * w > T.BLOCK
        x = rng.normal(size=(bsz, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
        wt = rng.normal(size=(c, 1, 3, 3)).astype(dtype)
        bias = rng.normal(size=(c,)).astype(dtype)
        g = rng.normal(size=(bsz, h, w, c)).astype(dtype)   # channel-last upstream
        y = T.conv2d(Tensor(x, requires_grad=True), Tensor(_stored(wt), requires_grad=True),
                     Tensor(bias), padding=pad, dilation=dil)
        xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        pg = dil * 2 - pad
        gp = np.pad(g, ((0, 0), (pg, pg), (pg, pg), (0, 0)))
        want = np.zeros((bsz, h, w, c), dtype)
        want_gx = np.zeros((bsz, h, w, c), dtype)
        gw = np.empty((c, 9), dtype)
        for t, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
            tap = xp[:, i * dil:i * dil + h, j * dil:j * dil + w]
            want += tap * wt[:, 0, i, j]
            want_gx += gp[:, i * dil:i * dil + h, j * dil:j * dil + w] * wt[:, 0, 2 - i, 2 - j]
            gw[:, t] = np.einsum("bhk,bhk->k", g.reshape(bsz, h, w * c),
                                 tap.reshape(bsz, h, w * c)).reshape(w, c).sum(axis=0)
        want += bias
        gx, gwt, gb = y._vjp(g.transpose(0, 3, 1, 2))
        assert y.data.transpose(0, 2, 3, 1).tobytes() == want.tobytes()
        assert gx.transpose(0, 2, 3, 1).tobytes() == want_gx.tobytes()
        assert gwt.tobytes() == _stored(gw.reshape(c, 1, 3, 3)).tobytes()
        assert gb.tobytes() == (np.ones(bsz * h * w, dtype) @ g.reshape(-1, c)).tobytes()


def test_both_conv2d_vjps_are_charged_to_conv2d():
    # a profiler names a VJP by its qualname: a depthwise backward moved into
    # a helper of its own would leave the conv2d entry without a trace
    x = _t(1, 4, 6, 6)
    for w in (_stored(_t(4, 1, 3, 3)), _stored(_t(4, 4, 3, 3))):
        y = T.conv2d(x, Tensor(w.data, requires_grad=True), _t(4), padding=1)
        assert y._vjp.__qualname__.startswith("conv2d.")


# stride-1 settings whose input gradient pads the upstream gradient by
# pg = dil*(k-1) - pad: (k, pad, dil) for pg = 2, same padding at dilations
# 1 to 3, and pad > dil*(k-1), where pg < 0 crops it
_STRIDE1_INPUT_GRAD = ((3, 0, 1), (3, 1, 1), (3, 2, 2), (3, 3, 3), (1, 1, 1), (3, 3, 1))


def _conv_input_grad_oracle(g, w, stride, pad, dil, groups, hw):
    # scatter every output pixel's gradient back through the kernel, in float64
    bs, cout, ho, wo = g.shape
    _, cg, k, _ = w.shape
    gxp = np.zeros((bs, cg * groups, hw[0] + 2 * pad, hw[1] + 2 * pad))
    cpg = cout // groups
    for n, co, i, j, ci, a, bb in itertools.product(
            range(bs), range(cout), range(ho), range(wo), range(cg), range(k), range(k)):
        gxp[n, co // cpg * cg + ci, i * stride + a * dil, j * stride + bb * dil] += \
            g[n, co, i, j] * w[co, ci, a, bb]
    return gxp[:, :, pad:pad + hw[0], pad:pad + hw[1]]


@pytest.mark.parametrize("groups", [1, 4], ids=["dense", "depthwise"])
@pytest.mark.parametrize("k,pad,dil", _STRIDE1_INPUT_GRAD,
                         ids=[f"k{k}-p{p}-d{d}" for k, p, d in _STRIDE1_INPUT_GRAD])
def test_stride1_conv2d_input_grad_matches_loop_oracle(k, pad, dil, groups):
    rng = np.random.default_rng(k * 100 + pad * 10 + dil)
    x = rng.normal(size=(2, 4, 6, 5))
    w, b = rng.normal(size=(4, 4 // groups, k, k)), rng.normal(size=(4,))
    y = T.conv2d(Tensor(x, requires_grad=True), Tensor(_stored(w)), Tensor(b), padding=pad,
                 dilation=dil)
    g = rng.normal(size=y.shape)
    gx = y._vjp(g)[0]
    assert gx.shape == x.shape
    assert np.abs(gx - _conv_input_grad_oracle(g, w, 1, pad, dil, groups, (6, 5))).max() < 1e-10


# strided dense settings (k, stride, pad, dil, H, W): the model's 3x3 stride-2
# embeds and hourglass downs, verify's stride-2 dilation-2 conv, 1x1 stride-2
# filter entries (three of four phases empty), the 7x7 stride-4 stage-1 embed,
# and odd, non-square extents whose phases are cropped or padded at the end
_STRIDED_INPUT_GRAD = (
    (3, 2, 1, 1, 7, 6), (3, 2, 0, 1, 8, 9), (3, 2, 1, 2, 9, 9), (3, 2, 3, 1, 6, 5),
    (3, 3, 1, 1, 8, 7), (3, 3, 2, 2, 9, 10), (5, 3, 0, 2, 12, 11), (2, 2, 0, 1, 7, 6),
    (1, 2, 0, 1, 7, 6), (1, 2, 1, 1, 6, 7), (7, 4, 3, 1, 16, 13), (4, 4, 0, 2, 13, 11))


@pytest.mark.parametrize("k,stride,pad,dil,h,w", _STRIDED_INPUT_GRAD,
                         ids=[f"k{k}-s{s}-p{p}-d{d}-{h}x{w}"
                              for k, s, p, d, h, w in _STRIDED_INPUT_GRAD])
def test_strided_conv2d_input_grad_matches_loop_oracle(k, stride, pad, dil, h, w):
    rng = np.random.default_rng(k * 1000 + stride * 100 + pad * 10 + dil)
    x = rng.normal(size=(2, 3, h, w))
    wt, b = rng.normal(size=(4, 3, k, k)), rng.normal(size=(4,))
    y = T.conv2d(Tensor(x, requires_grad=True), Tensor(_stored(wt)), Tensor(b), stride=stride,
                 padding=pad, dilation=dil)
    g = rng.normal(size=y.shape)
    gx = y._vjp(g)[0]
    assert gx.shape == x.shape and _axes_by_stride(gx) == (0, 2, 3, 1)
    assert np.abs(gx - _conv_input_grad_oracle(g, wt, stride, pad, dil, 1, (h, w))).max() < 1e-10


def test_conv_vjps_gather_without_scatter(monkeypatch):
    # every conv input gradient, at any stride, and the deconv forward and VJP
    # are GEMMs or tap loops of multiply-adds: none scatter-adds into taps
    real_add = np.add

    class AddWithoutAt:  # np.add for every call and method but the scatter-add np.add.at
        def __call__(self, *args, **kwargs):
            return real_add(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(real_add, name)

        def at(self, *args):
            raise AssertionError("a conv VJP scattered with np.add.at")

    assert not hasattr(T, "_col2im")
    monkeypatch.setattr(np, "add", AddWithoutAt())
    x = Tensor(RNG.normal(size=(2, 4, 7, 6)), requires_grad=True)
    for groups in (1, 4):
        for k, pad, dil in _STRIDE1_INPUT_GRAD:
            y = T.conv2d(x, _stored(_t(4, 4 // groups, k, k)), _t(4), padding=pad,
                         dilation=dil)
            assert y._vjp(np.ones_like(y.data))[0].shape == x.shape
    for k, stride, pad, dil, *_ in _STRIDED_INPUT_GRAD:
        if T._conv_out_extent(6, k, stride, pad, dil) > 0:
            y = T.conv2d(x, _stored(_t(4, 4, k, k)), _t(4), stride=stride, padding=pad,
                         dilation=dil)
            assert y._vjp(np.ones_like(y.data))[0].shape == x.shape
    w = _stored(_t(4, 3, 2, 2), deconv=True)
    y = T.conv_transpose2d(x, w, _t(3))
    assert [gp.shape for gp in y._vjp(np.ones_like(y.data))] == [x.shape, w.shape, (3,)]


def test_vjps_skip_the_gradients_of_constant_inputs(monkeypatch):
    # conv2d gives no input gradient for an input that needs none, so a
    # strided conv on the image never runs its phase GEMM; mul gives none for a
    # constant factor.  The gradients of the other parents do not move
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, 12, 12)).astype(np.float32)
    probe = rng.normal(size=(2, 4, 12, 12)).astype(np.float32)
    for kind, stride, w_shape in (("dense", 4, (4, 4, 7, 7)), ("depthwise", 1, (4, 1, 3, 3))):
        w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                for s in (w_shape, (4,)))
        w = _stored(w)

        def grads(x_needs_grad):
            xt = Tensor(x, requires_grad=x_needs_grad)
            y = T.conv2d(xt, w, b, stride=stride, padding=stride // 2 + 1)
            gx, gw, gb = y._vjp(probe[:, :, :y.shape[2], :y.shape[3]])
            return gx, gw.tobytes(), gb.tobytes()

        gx, *want = grads(True)
        assert gx.shape == x.shape
        with monkeypatch.context() as m:
            m.setattr(T, "_phase_gemm",
                      lambda *a: pytest.fail(f"{kind} conv computed a dead gradient"))
            gx, *got = grads(False)
        assert gx is None and got == want
    a = Tensor(x, requires_grad=True)
    for y, dead, want in ((a * 0.6, 1, probe * np.float32(0.6)),
                          (0.4 * a, 1, probe * np.float32(0.4)),
                          (T.mul(Tensor(probe), a), 0, probe * probe)):
        gs = y._vjp(probe)
        assert gs[dead] is None and gs[1 - dead].tobytes() == want.tobytes()


def _deconv_as_gemm(x, w, b):
    # the inline form of a stride = kernel deconv: one GEMM over channel-last
    # pixels, the bias, then a depth-to-space copy
    bs, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    out = (x.transpose(0, 2, 3, 1).reshape(-1, cin) @ w.transpose(0, 2, 3, 1).reshape(cin, -1))
    out = out.reshape(bs, h, wd, kh, kw, cout)
    out += b
    return out.transpose(0, 1, 3, 2, 4, 5).reshape(bs, h * kh, wd * kw, cout).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("kernel", [(2, 2), (1, 1), (4, 4)],
                         ids=lambda k: "x".join(map(str, k)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_transpose2d_equals_inline_gemm_bitwise(kernel, dtype):
    rng = np.random.default_rng(sum(kernel))
    for x in (Tensor(rng.normal(size=(2, 3, 5, 4)).astype(dtype)),
              _permute(Tensor(rng.normal(size=(2, 5, 4, 3)).astype(dtype)), (0, 3, 1, 2))):
        w = rng.normal(size=(3, 6) + kernel).astype(dtype)
        b = rng.normal(size=(6,)).astype(dtype)
        got = T.conv_transpose2d(x, Tensor(_stored(w, deconv=True)), Tensor(b)).data
        want = _deconv_as_gemm(x.data, w, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


@pytest.mark.parametrize("stride,pad,dil,groups,k", [
    pytest.param(*case, 3, id="-".join(map(str, case))) for case in (
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1),
        (1, 1, 1, 4), (1, 2, 2, 4), (1, 3, 3, 4))
] + [
    # the stride-1 input-gradient settings above not yet covered, dense and depthwise
    pytest.param(1, pad, dil, groups, k,
                 id=f"{'depthwise' if groups == 4 else 'dense'}-k{k}-p{pad}-d{dil}")
    for k, pad, dil in _STRIDE1_INPUT_GRAD for groups in (1, 4)
    if (k, pad, dil, groups) not in ((3, 1, 1, 1), (3, 1, 1, 4), (3, 2, 2, 4), (3, 3, 3, 4))
])
def test_grad_conv2d(stride, pad, dil, groups, k):
    cin = 4 if groups == 4 else 2  # groups == cin == cout: depthwise
    x, w, b = _t(1, cin, 5, 5), _stored(_t(4, cin // groups, k, k)), _t(4)
    assert grad_check(
        lambda x, w, b: T.tsum(T.tanh(T.conv2d(
            x, w, b, stride=stride, padding=pad, dilation=dil))),
        [x, w, b]) < TOL


def test_conv_transpose2d_inverts_strided_downsample_shape():
    x = _t(1, 3, 4, 4)
    w = _stored(_t(3, 5, 2, 2), deconv=True)
    y = T.conv_transpose2d(x, w, Tensor(np.zeros(5)))
    assert y.shape == (1, 5, 8, 8)


def test_conv_transpose2d_rejects_a_non_square_kernel():
    # the model's deconvs are 2x2, and conv2d takes square kernels only too
    with pytest.raises(ConfigError, match="square"):
        T.conv_transpose2d(_t(1, 3, 4, 4), _stored(_t(3, 2, 2, 3), deconv=True), _t(2))


def test_grad_conv_transpose2d():
    x, w, b = _t(1, 3, 4, 4), _stored(_t(3, 2, 2, 2), deconv=True), _t(2)
    assert grad_check(
        lambda x, w, b: T.tsum(T.tanh(T.conv_transpose2d(x, w, b))),
        [x, w, b]) < TOL


def _conv_transpose_oracle(x, w, b):
    # each input pixel paints its own kh x kw output window (stride = kernel)
    bs, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    out = np.zeros((bs, cout, h * kh, wd * kw))
    for n in range(bs):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    for a in range(kh):
                        for c in range(kw):
                            acc = 0.0
                            for ci in range(cin):
                                acc += x[n, ci, i, j] * w[ci, co, a, c]
                            out[n, co, i * kh + a, j * kw + c] = acc
    return out + b.reshape(1, cout, 1, 1)


@pytest.mark.parametrize("bias", [True, False])
def test_conv_transpose2d_matches_loop_oracle(bias):
    # bias=False: a zero bias, as a layer without one would pass
    rng = np.random.default_rng(11)
    x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(3, 4, 2, 2))
    b = rng.normal(size=(4,)) if bias else np.zeros(4)
    got = T.conv_transpose2d(Tensor(x), Tensor(_stored(w, deconv=True)), Tensor(b)).data
    assert got.shape == (2, 4, 8, 10)
    assert np.abs(got - _conv_transpose_oracle(x, w, b)).max() < 1e-10
    probe = Tensor(rng.normal(size=got.shape))
    inputs = [Tensor(x), Tensor(_stored(w, deconv=True)), Tensor(b)]
    assert grad_check(lambda *a: T.tsum(T.conv_transpose2d(*a) * probe), inputs) < TOL


def test_conv_transpose_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> for matched kernels and zero biases
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 8, 8))
    w = rng.normal(size=(3, 2, 2, 2))  # conv layout (cout, cin, kh, kw)
    y = rng.normal(size=(1, 3, 4, 4))
    cx = T.conv2d(Tensor(x), Tensor(_stored(w)), Tensor(np.zeros(3)), stride=2).data
    # the same array read in deconv layout (cin, cout, kh, kw) is the adjoint
    ty = T.conv_transpose2d(Tensor(y), Tensor(_stored(w, deconv=True)), Tensor(np.zeros(2))).data
    assert abs(float((cx * y).sum()) - float((x * ty).sum())) < 1e-9


def _channel_last32(rng, b, c, h, w):
    """A float32 B,C,H,W array with channels innermost, as conv outputs are."""
    return rng.normal(size=(b, h, w, c)).astype(np.float32).transpose(0, 3, 1, 2)


def _bias_sum_case(make):
    """A conv or linear case: its op, inputs and upstream gradient; the bias
    gradient (VJP output 2) sums the gradient over every axis but channels."""
    def case(rng):
        y, g = make(rng)
        axes = tuple(i for i in range(g.ndim) if i != (1 if g.ndim == 4 else g.ndim - 1))
        return y, g, 2, g.astype(np.float64), axes, True
    return case


def _gate_sum_case(gate_shape, channel_last):
    """``map * gate``: the gate gradient (VJP output 1) sums ``g * map`` over
    the gate's broadcast axes, a GEMV only on channel-last rows."""
    def case(rng):
        if channel_last:  # a map of tokens, as the model gates them
            tokens = Tensor(rng.normal(size=(2, 42, 5)).astype(np.float32), requires_grad=True)
            m, g = tokens_to_map(tokens, 6, 7), _channel_last32(rng, 2, 5, 6, 7)
        else:
            m, g = (Tensor(rng.normal(size=(2, 5, 6, 7)).astype(np.float32), requires_grad=True),
                    rng.normal(size=(2, 5, 6, 7)).astype(np.float32))
        gate = Tensor(rng.uniform(size=gate_shape).astype(np.float32), requires_grad=True)
        axes = tuple(i for i, n in enumerate(gate_shape) if n == 1)
        terms = g.astype(np.float64) * m.data.astype(np.float64)
        return T.mul(m, gate), g, 1, terms, axes, channel_last
    return case


def _conv_y_g(x_shape, w_shape, **kw):
    def make(rng):
        x = Tensor(_channel_last32(rng, *x_shape), requires_grad=True)
        w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                for s in (w_shape, (w_shape[0],)))
        y = T.conv2d(x, _stored(w), b, **kw)
        return y, _channel_last32(rng, *y.shape)
    return make


def _deconv_y_g(rng):
    x = Tensor(_channel_last32(rng, 2, 5, 4, 3), requires_grad=True)
    w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in ((5, 6, 2, 2), (6,)))
    y = T.conv_transpose2d(x, _stored(w, deconv=True), b)
    return y, _channel_last32(rng, *y.shape)


def _linear_y_g(rng):
    x, w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in ((3, 41, 5), (5, 6), (6,)))
    return T.linear(x, w, b), rng.normal(size=(3, 41, 6)).astype(np.float32)


_GRAD_SUMS = {
    "conv_dense3x3": _bias_sum_case(_conv_y_g((2, 5, 8, 9), (6, 5, 3, 3), padding=1)),
    "conv_1x1": _bias_sum_case(_conv_y_g((2, 5, 8, 9), (6, 5, 1, 1))),
    "conv_strided": _bias_sum_case(_conv_y_g((2, 5, 8, 9), (6, 5, 3, 3), stride=2, padding=1)),
    "conv_depthwise": _bias_sum_case(_conv_y_g((2, 5, 8, 9), (5, 1, 3, 3), padding=1)),
    "conv_transpose2d": _bias_sum_case(_deconv_y_g),
    "linear": _bias_sum_case(_linear_y_g),
    "mul_spatial_gate": _gate_sum_case((2, 1, 6, 7), channel_last=True),
    "mul_channel_gate": _gate_sum_case((2, 5, 1, 1), channel_last=True),
    "mul_gate_channel_first_sum": _gate_sum_case((2, 1, 6, 7), channel_last=False),
}


@pytest.mark.parametrize("name", sorted(_GRAD_SUMS))
def test_gradient_row_sums_match_a_float64_sum(name, monkeypatch):
    # bias and gate gradients sum many rows of few floats, which a GEMV with a
    # ones vector does faster than numpy's axis reduction; any other layout
    # keeps the numpy sum.  Either way the float32 result is within the
    # rounding bound n * eps * sum|terms| of a float64 sum of the same terms
    y, g, index, terms, axes, gemv = _GRAD_SUMS[name](np.random.default_rng(12))
    ones = []
    monkeypatch.setattr(T, "_ones", lambda n, dtype: ones.append(n) or np.ones(n, dtype))
    got = y._vjp(g)[index]
    want = terms.sum(axis=axes)
    n = terms.size // want.size
    bound = n * np.finfo(np.float32).eps * np.abs(terms).sum(axis=axes)
    assert got.dtype == np.float32
    assert np.all(np.abs(got.reshape(want.shape) - want) <= bound)
    assert bool(ones) == gemv and (not gemv or n in ones)


def test_grad_global_avg_pool_and_bilinear():
    x = _t(1, 2, 4, 4)
    probe = Tensor(RNG.normal(size=(1, 2, 1, 1)))
    assert grad_check(lambda x: T.tsum(T.global_avg_pool(x) * probe), [x]) < TOL
    probe2 = Tensor(RNG.normal(size=(1, 2, 7, 5)))
    assert grad_check(lambda x: T.tsum(T.bilinear_resize(x, 7, 5) * probe2),
                      [x]) < TOL


def _resize_oracle(x, h2, w2):
    # per output pixel: align_corners=False source point, clamped 2x2 gather, lerp
    h, w = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (h2, w2))
    for oi in range(h2):
        sy = (oi + 0.5) * h / h2 - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        for oj in range(w2):
            sx = (oj + 0.5) * w / w2 - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0

            def px(i, j):
                return x[..., min(max(i, 0), h - 1), min(max(j, 0), w - 1)]

            out[..., oi, oj] = ((1 - fy) * ((1 - fx) * px(y0, x0) + fx * px(y0, x0 + 1))
                                + fy * ((1 - fx) * px(y0 + 1, x0) + fx * px(y0 + 1, x0 + 1)))
    return out


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("src,dst", [((4, 5), (9, 7)), ((8, 6), (3, 4)), ((5, 5), (5, 5))])
def test_bilinear_resize_matches_gather_oracle(lead, src, dst):
    x = np.random.default_rng(9).normal(size=lead + src)
    if len(lead) < 2:  # the tape op takes B,C,H,W maps only
        with pytest.raises(ShapeError, match="B,C,H,W"):
            T.bilinear_resize(Tensor(x), *dst)
    else:
        want = _resize_oracle(x, *dst)
        assert np.abs(T.bilinear_resize(Tensor(x), *dst).data - want).max() < 1e-10


def test_bilinear_resize_preserves_constants():
    x = Tensor(np.full((1, 1, 3, 3), 2.5))
    y = T.bilinear_resize(x, 8, 6).data
    assert np.abs(y - 2.5).max() < 1e-6
    same = T.bilinear_resize(Tensor(RNG.normal(size=(1, 2, 4, 4))), 4, 4)
    # identity resize must be exact up to float roundoff
    assert same.shape == (1, 2, 4, 4)


def test_resize_matrices_are_cached_read_only():
    dtype = np.dtype(np.float32)
    m = T._resize_matrix(5, 9, dtype)
    assert T._resize_matrix(5, 9, dtype) is m and not m.flags.writeable
    assert T._resize_matrix(5, 9, np.dtype(np.float64)) is not m
    with pytest.raises(ConfigError, match="not positive"):
        T._resize_matrix(5, 0, dtype)


# ---------------------------------------------------------------------------
# layout: op outputs keep numpy's layout, leaves are C-contiguous

def test_layout_ops_return_views():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)), requires_grad=True)
    for y in (_permute(x, (2, 0, 1)), T.rearrange(x, (6, 4)),
              T.getitem(x, (slice(None), 1)), x[:, :, 1:3], x[None, ..., ::2]):
        assert np.shares_memory(y.data, x.data)


@pytest.fixture
def tape_nodes(monkeypatch):
    """The count of tape nodes made since the fixture was set up."""
    made = [0]
    node = T._node

    def counted(*args):
        made[0] += 1
        return node(*args)

    monkeypatch.setattr(T, "_node", counted)
    return made


@pytest.mark.parametrize("helper,shape", [
    (lambda x: tokens_to_map(x, 4, 6), (2, 24, 3)),
    (map_to_tokens, (2, 3, 4, 6)),
    (lambda x: _split_heads(x, 2), (2, 5, 6)),
    (_merge_heads, (2, 2, 5, 3)),
    (lambda x: window_partition(x, 2, 4, 6), (2, 24, 3)),
    (lambda x: window_merge(x, 2, 4, 6), (12, 1, 4, 3)),
    (lambda x: window_partition(x, 2, 4, 6, 3), (2, 24, 6)),
    (lambda x: window_merge(x, 2, 4, 6), (12, 3, 4, 2)),
], ids=["tokens_to_map", "map_to_tokens", "split_heads", "merge_heads",
        "window_partition", "window_merge", "window_partition_heads", "window_merge_heads"])
def test_layout_helpers_record_one_node(helper, shape, tape_nodes):
    x = Tensor(np.random.default_rng(2).normal(size=shape), requires_grad=True)
    y = helper(x)
    assert tape_nodes[0] == 1 and y._parents == (x,)


@pytest.mark.parametrize("preset,size,most", [(tiny_config, 32, 547), (desk_config, 64, 545)],
                         ids=["tiny", "desk"])
def test_forward_tape_size(preset, size, most, tape_nodes):
    # a grad-mode forward, with each layout helper one node
    cfg = preset()
    model_forward(Tensor(np.zeros((1, 1, size, size))), cfg, init_params(cfg, seed=0))
    assert tape_nodes[0] <= most


def _axes_by_stride(a):
    """Axes from the outermost in memory to the innermost."""
    return tuple(int(i) for i in np.argsort(a.strides, kind="stable")[::-1])


_RNG3 = np.random.default_rng(3)
_K3, _K1, _KDW4, _KT4, _B3, _B4 = (
    Tensor(_RNG3.normal(size=s))
    for s in ((3, 4, 3, 3), (3, 4, 1, 1), (4, 1, 3, 3), (4, 3, 2, 2), (3,), (4,)))
_K3, _K1, _KDW4, _KT4 = _stored(_K3), _stored(_K1), _stored(_KDW4), _stored(_KT4, deconv=True)
_Z3, _Z4 = Tensor(np.zeros(3)), Tensor(np.zeros(4))  # zero biases: the no-bias form


@pytest.mark.parametrize("op", [
    lambda x: T.conv2d(x, _K3, _B3, padding=1),
    lambda x: T.conv2d(x, _K3, _B3, stride=2, padding=1),
    lambda x: T.conv2d(x, _K1, _B3),
    lambda x: T.conv2d(x, _K1, _Z3),
    lambda x: T.conv2d(x, _KDW4, _B4, padding=1),
    lambda x: T.conv2d(x, _KDW4, _Z4),
    lambda x: T.conv_transpose2d(x, _KT4, _B3),
    lambda x: T.conv_transpose2d(x, _KT4, _Z3),
    lambda x: T.bilinear_resize(x, 9, 4),
    lambda x: T.pad_bottom_right(x, 2, 1),
], ids=["gemm", "gemm_strided", "1x1", "1x1_no_bias", "depthwise", "depthwise_no_bias",
        "conv_transpose2d", "conv_transpose2d_no_bias", "bilinear_resize", "pad_bottom_right"])
def test_conv_deconv_and_resize_return_channel_last_views(op):
    # a channel-last view (as tokens_to_map gives) and a compact B,C,H,W leaf
    # both give a channel-last output and input gradient
    leaf = Tensor(_RNG3.normal(size=(2, 5, 6, 4)), requires_grad=True)
    for x in (_permute(leaf, (0, 3, 1, 2)),
              Tensor(_RNG3.normal(size=(2, 4, 5, 6)), requires_grad=True)):
        y = op(x)
        assert _axes_by_stride(y.data) == (0, 2, 3, 1)
        gx = y._vjp(np.ones_like(y.data))[0]
        assert gx.shape == x.shape and _axes_by_stride(gx) == (0, 2, 3, 1)


def test_global_avg_pool_input_gradient_is_channel_last():
    # CSA's channel gate adds it to the channel-last gradients of the same map
    rng = np.random.default_rng(6)
    leaf = Tensor(rng.normal(size=(2, 5, 6, 4)), requires_grad=True)
    for x in (_permute(leaf, (0, 3, 1, 2)),
              Tensor(rng.normal(size=(2, 4, 5, 6)), requires_grad=True)):
        g = rng.normal(size=(2, 4, 1, 1))
        gx = T.global_avg_pool(x)._vjp(g)[0]
        assert _axes_by_stride(gx) == (0, 2, 3, 1)
        assert np.array_equal(gx, np.broadcast_to(g * (1 / 30), x.shape))


def test_1x1_conv_reads_a_channel_last_input_in_place():
    x = _permute(Tensor(np.random.default_rng(4).normal(size=(2, 5, 6, 4))), (0, 3, 1, 2))
    assert np.shares_memory(T._im2col(x.data, 1, 1, 0, 1, 5, 6), x.data)


def _im2col_oracle(x, kh, kw, stride, pad, dil, ho, wo):
    # one strided slice copy per tap of the zero-padded channel-last map
    xl = x.transpose(0, 2, 3, 1)
    b, h, w, c = xl.shape
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = xl
    cols = np.empty((b, ho, wo, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xp[:, i * dil: i * dil + stride * ho: stride,
                                     j * dil: j * dil + stride * wo: stride]
    return cols


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,pad,dil", [
    (3, 1, 1, 1), (3, 2, 1, 1), (3, 1, 2, 2), (3, 1, 0, 3), (3, 2, 2, 2), (2, 2, 0, 1),
    (1, 2, 0, 1), (1, 2, 1, 1), (1, 1, 1, 1)])
@pytest.mark.parametrize("channel_last", [False, True], ids=["nchw", "nhwc_view"])
def test_im2col_matches_per_tap_oracle(k, stride, pad, dil, dtype, channel_last):
    rng = np.random.default_rng(k * 100 + stride * 10 + pad + dil)
    if channel_last:
        x = rng.normal(size=(2, 7, 9, 3)).astype(dtype).transpose(0, 3, 1, 2)
    else:
        x = rng.normal(size=(2, 3, 7, 9)).astype(dtype)
    ho = T._conv_out_extent(7, k, stride, pad, dil)
    wo = T._conv_out_extent(9, k, stride, pad, dil)
    cols = T._im2col(x, k, stride, pad, dil, ho, wo)
    want = _im2col_oracle(x, k, k, stride, pad, dil, ho, wo)
    assert cols.dtype == want.dtype and cols.shape == want.shape
    assert cols.tobytes() == want.tobytes()
    if k > 1 or pad > 0:
        assert cols.flags.c_contiguous and not np.shares_memory(cols, x)


def test_linear_is_one_tape_node():
    rng = np.random.default_rng(4)
    x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 3, 5), (5, 4), (4,)))
    assert T.linear(x, w, b)._parents == (x, w, b)
    assert T.linear(x, w)._parents == (x, w)


def test_leaf_from_a_transposed_array_is_contiguous():
    a = np.random.default_rng(5).normal(size=(3, 4)).T
    x = Tensor(a)
    assert x.data.flags.c_contiguous and np.array_equal(x.data, a)
    probe = Tensor(np.random.default_rng(6).normal(size=(4, 3)))
    assert grad_check(lambda x: T.tsum(T.tanh(x) * probe), [x]) < TOL


def test_grad_check_rejects_an_input_it_cannot_perturb(monkeypatch):
    # a non-contiguous input would be perturbed through a copy: every
    # finite difference 0, and no error without the check
    monkeypatch.setattr(Tensor, "astype", lambda t, dtype: _permute(
        Tensor(t.data, requires_grad=True), (1, 0)))
    with pytest.raises(GraphError, match="not contiguous"):
        grad_check(lambda x: T.tsum(x * x), [Tensor(np.ones((3, 4)))])


_VIEW_RNG = np.random.default_rng(21)


def _const(*shape, low=None):
    if low is None:
        return Tensor(_VIEW_RNG.normal(size=shape))
    return Tensor(_VIEW_RNG.uniform(low, 2.0, size=shape))


_C5, _P5, _W53, _B3 = _const(5), _const(5, low=0.5), _const(5, 3), _const(3)
_G5, _G3 = _const(5, low=0.5), _const(1, 3, 1, 1, low=0.5)
_K, _KDW, _KT = (_stored(_const(4, 3, 3, 3)), _stored(_const(3, 1, 3, 3)),
                 _stored(_const(3, 2, 2, 2), deconv=True))

# one-input forms of every tape op, applied to a (2, 3, 4, 5) input
_VIEW_OPS = {
    "add": lambda x: x + _C5,
    "mul": lambda x: x * _C5,
    "div": lambda x: x / _P5,
    "texp": T.texp,
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "gelu": T.gelu,
    "softmax": T.softmax,
    "tsum": T.tsum,
    "rearrange": lambda x: T.rearrange(x, (6, 20)),
    "rearrange_axes": lambda x: T.rearrange(x, (2, 4, 5, 3), axes=(0, 2, 3, 1)),
    "rearrange_split": lambda x: T.rearrange(x, (4, 6, 5), axes=(0, 2, 1, 3, 4),
                                             split=(2, 3, 2, 2, 5)),
    "getitem": lambda x: x[:, 1:, ::2],
    "getitem_array": lambda x: T.getitem(x, np.array([1, 0, 1])),
    "concat": lambda x: T.concat([x, x], axis=1),
    "pad_bottom_right": lambda x: T.pad_bottom_right(x, 1, 2),
    "matmul": lambda x: T.matmul(x, _W53),
    "linear": lambda x: T.linear(x, _W53, _B3),
    "attention": lambda x: T.attention(x, x, x, 0.5),
    "layer_norm": lambda x: T.layer_norm(x, _G5, _C5),
    "layer_norm_channels": lambda x: T.layer_norm(x, _G3, _G3, axis=1),
    "conv2d": lambda x: T.conv2d(x, _K, _C5[:4], padding=1),
    "conv2d_strided": lambda x: T.conv2d(x, _K, _C5[:4], stride=2, padding=1, dilation=2),
    "conv2d_depthwise": lambda x: T.conv2d(x, _KDW, _B3, padding=1),
    "conv_transpose2d": lambda x: T.conv_transpose2d(x, _KT, _C5[:2]),
    "bilinear_resize": lambda x: T.bilinear_resize(x, 7, 3),
    "global_avg_pool": T.global_avg_pool,
}


def _transposed_view(shape):
    """A leaf of the reversed shape seen through a transpose, and the map from
    the leaf's gradient to the view's."""
    axes = tuple(reversed(range(len(shape))))
    leaf = Tensor(_VIEW_RNG.normal(size=shape[::-1]), requires_grad=True)
    return leaf, _permute(leaf, axes), lambda g: g.transpose(axes)


def _cropped_view(shape):
    leaf = Tensor(_VIEW_RNG.normal(size=shape[:-1] + (shape[-1] + 3,)), requires_grad=True)
    return leaf, leaf[..., 1:-2], lambda g: g[..., 1:-2]


def _channel_last_view(shape):
    """A B,H,W,C leaf seen as B,C,H,W, as ``tokens_to_map`` gives it."""
    b, c, h, w = shape
    leaf = Tensor(_VIEW_RNG.normal(size=(b, h, w, c)), requires_grad=True)
    return leaf, _permute(leaf, (0, 3, 1, 2)), lambda g: g.transpose(0, 3, 1, 2)


@pytest.mark.parametrize("view", [_transposed_view, _cropped_view, _channel_last_view])
@pytest.mark.parametrize("name", sorted(_VIEW_OPS))
def test_ops_on_views_match_contiguous_copies(name, view):
    leaf, x, take = view((2, 3, 4, 5))
    assert not x.data.flags.c_contiguous and np.shares_memory(x.data, leaf.data)
    copy = Tensor(x.data.copy(), requires_grad=True)
    outs = []
    for inp in (x, copy):
        y = _VIEW_OPS[name](inp)
        probe = Tensor(np.random.default_rng(1).normal(size=y.shape))
        T.tsum(y * probe).backward()
        outs.append(y.data)
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(take(leaf.grad), copy.grad, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# softmax properties

@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, size=(rows, cols))
    s = T.softmax(Tensor(x)).data
    assert np.all(s > 0)
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-6
    shifted = T.softmax(Tensor(x + 123.0)).data
    assert np.abs(shifted - s).max() < 1e-6


def test_softmax_flushes_subnormal_probabilities():
    # exp(-90) is about 8e-40, a subnormal float32; a GEMM reading it runs slowly
    s = T.softmax(Tensor(np.array([[0.0, -90.0, -200.0]], dtype=np.float32))).data
    assert s.dtype == np.float32
    assert s[0, 0] == 1.0 and np.array_equal(s[0, 1:], [0.0, 0.0])


def test_softmax_survives_large_logits():
    s = T.softmax(Tensor(np.array([[1e4, 0.0, -1e4]]))).data
    assert np.isfinite(s).all() and abs(s.sum() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# tape discipline

def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        (x * 2.0).backward()


def test_double_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(x * x)
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.tsum(x * x)
    assert not y.requires_grad
    with pytest.raises(GraphError):
        y.backward()


def test_nan_check_raises_on_nonfinite():
    x = Tensor(np.array([1.0, 0.0]))
    with nan_check(), np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError):
            T.div(x, x * 0.0)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.tsum(x * x + x * 3.0)
    loss.backward()
    assert abs(float(x.grad[0]) - 7.0) < 1e-12


def test_backward_sets_grad_on_leaves_only():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = T.tanh(x)
    T.tsum(h * h).backward()
    assert h.grad is None
    assert x.grad is not None


def test_leaves_fed_by_one_add_get_separate_buffers():
    # add's VJP hands the same array to both parents
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    T.tsum(a + b).backward()
    assert np.array_equal(a.grad, [1.0, 1.0]) and np.array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        y = T.tsum(T.softmax(T.matmul(x, _permute(x, (1, 0)))))
        y.backward()
        return x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(1.0, 2.0) == 0.5


def test_conv_rejects_empty_output():
    with pytest.raises((ConfigError, T.ShapeError)):
        T.conv2d(_t(1, 1, 2, 2), _t(1, 1, 5, 5), _t(1))

"""Gradient and semantics tests for the tensor engine.

Every differentiable op is checked against central finite differences in
float64.  Convolutions additionally get a brute-force loop oracle so the
im2col fast path is never its own referee.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtaf import tensor as T
from mdtaf.gradcheck import grad_check, relative_error
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
    assert grad_check(lambda x: T.tsum(T.tsqrt(x)), [p]) < TOL


@pytest.mark.parametrize("op", [T.tanh, T.sigmoid, T.gelu])
def test_grad_activations(op):
    x = _t(4, 6)
    assert grad_check(lambda x: T.tsum(op(x) * 0.7), [x]) < TOL


def test_grad_softmax():
    x = _t(3, 5)
    probe = Tensor(RNG.normal(size=(3, 5)))
    assert grad_check(lambda x: T.tsum(T.softmax(x, axis=-1) * probe), [x]) < TOL


def test_grad_sum_mean_axes():
    x = _t(2, 3, 4)

    def sq_sum(t):
        return T.tsum(t * t)

    assert grad_check(lambda x: sq_sum(T.tsum(x, axis=1)) * 0.1, [x]) < TOL
    assert grad_check(lambda x: sq_sum(T.tmean(x, axis=(0, 2))), [x]) < TOL


# ---------------------------------------------------------------------------
# shape ops

def test_grad_reshape_transpose():
    x = _t(2, 3, 4)
    probe = Tensor(RNG.normal(size=(4, 6)))
    assert grad_check(
        lambda x: T.tsum(T.reshape(T.transpose(x, (2, 0, 1)), (4, 6)) * probe),
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
    # the formula spelled out in tape ops, one node per step
    xc = x - T.tmean(x, axis=axis, keepdims=True)
    var = T.tmean(xc * xc, axis=axis, keepdims=True)
    return T.add(T.mul(T.div(xc, T.tsqrt(T.add(var, eps))), gamma), beta)


@pytest.mark.parametrize("axis,xshape,pshape", [
    (1, (2, 6, 3, 4), (1, 6, 1, 1)),
    (-1, (2, 5, 6), (6,)),
])
def test_layer_norm_matches_composite_f32(axis, xshape, pshape):
    rng = np.random.default_rng(5)
    x, gamma, beta, probe = (
        Tensor(rng.normal(1.0, 2.0, size=xshape).astype(np.float32), requires_grad=True),
        Tensor(rng.uniform(0.5, 1.5, size=pshape).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(size=pshape).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(size=xshape).astype(np.float32)))
    got, want = [], []
    for op, res in ((T.layer_norm, got), (_layer_norm_composite, want)):
        for t in (x, gamma, beta):
            t.zero_grad()
        y = op(x, gamma, beta, axis=axis)
        T.tsum(y * probe).backward()
        res.extend([y.data.copy()] + [t.grad.copy() for t in (x, gamma, beta)])
    for a, b in zip(got, want):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() / max(1.0, np.abs(b).max()) < TOL


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
    s = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * scale
    if bias is not None:
        s = s + bias
    return T.matmul(T.softmax(s, axis=-1), v)


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
            t.zero_grad()
        y = op(*leaves[:3], scale, *leaves[3:])
        T.tsum(y * probe).backward()
        res.append(y.data.copy())
        res.extend(t.grad.copy() for t in leaves)
    assert np.array_equal(got[0], want[0])  # same floats, same op order
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() / max(1.0, np.abs(b).max()) < TOL


def test_attention_keeps_f32_under_f64_scale():
    q = Tensor(RNG.normal(size=(1, 4, 8)).astype(np.float32), requires_grad=True)
    y = T.attention(q, q, q, 1.0 / np.sqrt(np.float64(8)))
    assert y.dtype == np.float32
    T.tsum(y).backward()
    assert q.grad.dtype == np.float32


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
    assert np.array_equal(free.data, want.data)  # same floats, same op order


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
# convolution: loop oracle plus gradients

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
                    out[n, co, i, j] = acc + (0.0 if b is None else b[co])
    return out


@pytest.mark.parametrize("stride,pad,dil,groups", [
    (1, 0, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, 4), (2, 1, 1, 2),
    (2, 2, 2, 1), (1, 1, 1, 2),
    # depthwise (groups == channels): stride 1 takes the shifted multiply-add path
    (1, 0, 1, 4), (1, 2, 2, 4), (1, 3, 3, 4), (2, 1, 1, 4),
])
def test_conv2d_matches_loop_oracle(stride, pad, dil, groups):
    rng = np.random.default_rng(7)
    cin, cout = 4, 4
    x = rng.normal(size=(2, cin, 6, 5))
    w = rng.normal(size=(cout, cin // groups, 3, 3))
    for b in (rng.normal(size=(cout,)), None):
        got = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride,
                       padding=pad, dilation=dil, groups=groups).data
        want = _conv_oracle(x, w, b, stride, pad, dil, groups)
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("stride,pad,dil,groups", [
    (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1), (1, 0, 1, 2),
    (1, 1, 1, 4), (1, 2, 2, 4), (1, 3, 3, 4),
])
def test_grad_conv2d(stride, pad, dil, groups):
    cin = 4 if groups == 4 else 2  # groups == cin == cout: depthwise
    x, w, b = _t(1, cin, 5, 5), _t(4, cin // groups, 3, 3), _t(4)
    assert grad_check(
        lambda x, w, b: T.tsum(T.tanh(T.conv2d(
            x, w, b, stride=stride, padding=pad, dilation=dil, groups=groups))),
        [x, w, b]) < TOL


def test_conv_transpose2d_inverts_strided_downsample_shape():
    x = _t(1, 3, 4, 4)
    w = _t(3, 5, 2, 2)
    y = T.conv_transpose2d(x, w)
    assert y.shape == (1, 5, 8, 8)


def test_grad_conv_transpose2d():
    x, w, b = _t(1, 3, 4, 4), _t(3, 2, 2, 2), _t(2)
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
    return out if b is None else out + b.reshape(1, cout, 1, 1)


@pytest.mark.parametrize("bias", [True, False])
def test_conv_transpose2d_matches_loop_oracle(bias):
    rng = np.random.default_rng(11)
    x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(3, 4, 2, 3))
    b = rng.normal(size=(4,)) if bias else None
    got = T.conv_transpose2d(Tensor(x), Tensor(w), None if b is None else Tensor(b)).data
    assert got.shape == (2, 4, 8, 15)
    assert np.abs(got - _conv_transpose_oracle(x, w, b)).max() < 1e-10
    probe = Tensor(rng.normal(size=got.shape))
    inputs = [Tensor(x), Tensor(w)] + ([] if b is None else [Tensor(b)])
    assert grad_check(lambda *a: T.tsum(T.conv_transpose2d(*a) * probe), inputs) < TOL


def test_conv_transpose_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> for bias-free matched kernels
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 8, 8))
    w = rng.normal(size=(3, 2, 2, 2))  # conv layout (cout, cin, kh, kw)
    y = rng.normal(size=(1, 3, 4, 4))
    cx = T.conv2d(Tensor(x), Tensor(w), stride=2).data
    # the same array read in deconv layout (cin, cout, kh, kw) is the adjoint
    ty = T.conv_transpose2d(Tensor(y), Tensor(w)).data
    assert abs(float((cx * y).sum()) - float((x * ty).sum())) < 1e-9


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


# ---------------------------------------------------------------------------
# layout: op outputs keep numpy's layout, leaves are C-contiguous

def test_layout_ops_return_views():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)), requires_grad=True)
    for y in (T.transpose(x, (2, 0, 1)), T.reshape(x, (6, 4)),
              T.getitem(x, (slice(None), 1)), x[:, :, 1:3], x[None, ..., ::2]):
        assert np.shares_memory(y.data, x.data)


def _axes_by_stride(a):
    """Axes from the outermost in memory to the innermost."""
    return tuple(int(i) for i in np.argsort(a.strides, kind="stable")[::-1])


_RNG3 = np.random.default_rng(3)
_K3, _K1, _KDW4, _KT4, _B3, _B4 = (
    Tensor(_RNG3.normal(size=s))
    for s in ((3, 4, 3, 3), (3, 4, 1, 1), (4, 1, 3, 3), (4, 3, 2, 2), (3,), (4,)))


@pytest.mark.parametrize("op", [
    lambda x: T.conv2d(x, _K3, _B3, padding=1),
    lambda x: T.conv2d(x, _K3, stride=2, padding=1),
    lambda x: T.conv2d(x, _K1, _B3),
    lambda x: T.conv2d(x, _K1),
    lambda x: T.conv2d(x, _KDW4, _B4, padding=1, groups=4),
    lambda x: T.conv2d(x, _KDW4, groups=4),
    lambda x: T.conv_transpose2d(x, _KT4, _B3),
    lambda x: T.conv_transpose2d(x, _KT4),
    lambda x: T.bilinear_resize(x, 9, 4),
    lambda x: T.pad_bottom_right(x, 2, 1),
], ids=["gemm", "gemm_strided", "1x1", "1x1_no_bias", "depthwise", "depthwise_no_bias",
        "conv_transpose2d", "conv_transpose2d_no_bias", "bilinear_resize", "pad_bottom_right"])
def test_conv_deconv_and_resize_return_channel_last_views(op):
    # a channel-last view (as tokens_to_map gives) and a compact B,C,H,W leaf
    # both give a channel-last output and input gradient
    leaf = Tensor(_RNG3.normal(size=(2, 5, 6, 4)), requires_grad=True)
    for x in (T.transpose(leaf, (0, 3, 1, 2)),
              Tensor(_RNG3.normal(size=(2, 4, 5, 6)), requires_grad=True)):
        y = op(x)
        assert _axes_by_stride(y.data) == (0, 2, 3, 1)
        gx = y._vjp(np.ones_like(y.data))[0]
        assert gx.shape == x.shape and _axes_by_stride(gx) == (0, 2, 3, 1)


def test_1x1_conv_reads_a_channel_last_input_in_place():
    x = T.transpose(Tensor(np.random.default_rng(4).normal(size=(2, 5, 6, 4))), (0, 3, 1, 2))
    assert np.shares_memory(T._im2col(x.data, 1, 1, 1, 0, 1, 5, 6), x.data)


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
    monkeypatch.setattr(Tensor, "astype", lambda t, dtype: T.transpose(
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
_K, _KDW, _KT = _const(4, 3, 3, 3), _const(3, 1, 3, 3), _const(3, 2, 2, 2)

# one-input forms of every tape op, applied to a (2, 3, 4, 5) input
_VIEW_OPS = {
    "add": lambda x: x + _C5,
    "mul": lambda x: x * _C5,
    "div": lambda x: x / _P5,
    "texp": T.texp,
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "gelu": T.gelu,
    "softmax": lambda x: T.softmax(x, axis=1),
    "tsum": lambda x: T.tsum(x, axis=(1, 3)),
    "tmean": lambda x: T.tmean(x, axis=-1, keepdims=True),
    "reshape": lambda x: T.reshape(x, (6, 20)),
    "transpose": lambda x: T.transpose(x, (0, 2, 3, 1)),
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
    "conv2d_strided": lambda x: T.conv2d(x, _K, stride=2, padding=1, dilation=2),
    "conv2d_depthwise": lambda x: T.conv2d(x, _KDW, _B3, padding=1, groups=3),
    "conv_transpose2d": lambda x: T.conv_transpose2d(x, _KT, _C5[:2]),
    "bilinear_resize": lambda x: T.bilinear_resize(x, 7, 3),
    "global_avg_pool": T.global_avg_pool,
}


def _transposed_view(shape):
    """A leaf of the reversed shape seen through a transpose, and the map from
    the leaf's gradient to the view's."""
    axes = tuple(reversed(range(len(shape))))
    leaf = Tensor(_VIEW_RNG.normal(size=shape[::-1]), requires_grad=True)
    return leaf, T.transpose(leaf, axes), lambda g: g.transpose(axes)


def _cropped_view(shape):
    leaf = Tensor(_VIEW_RNG.normal(size=shape[:-1] + (shape[-1] + 3,)), requires_grad=True)
    return leaf, leaf[..., 1:-2], lambda g: g[..., 1:-2]


def _channel_last_view(shape):
    """A B,H,W,C leaf seen as B,C,H,W, as ``tokens_to_map`` gives it."""
    b, c, h, w = shape
    leaf = Tensor(_VIEW_RNG.normal(size=(b, h, w, c)), requires_grad=True)
    return leaf, T.transpose(leaf, (0, 3, 1, 2)), lambda g: g.transpose(0, 3, 1, 2)


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
    s = T.softmax(Tensor(x), axis=-1).data
    assert np.all(s > 0)
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-6
    shifted = T.softmax(Tensor(x + 123.0), axis=-1).data
    assert np.abs(shifted - s).max() < 1e-6


def test_softmax_flushes_subnormal_probabilities():
    # exp(-90) is about 8e-40, a subnormal float32; a GEMM reading it runs slowly
    s = T.softmax(Tensor(np.array([[0.0, -90.0, -200.0]], dtype=np.float32)), axis=-1).data
    assert s.dtype == np.float32
    assert s[0, 0] == 1.0 and np.array_equal(s[0, 1:], [0.0, 0.0])


def test_softmax_survives_large_logits():
    s = T.softmax(Tensor(np.array([[1e4, 0.0, -1e4]])), axis=-1).data
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
        y = T.tsum(T.softmax(T.matmul(x, T.transpose(x, (1, 0))), axis=-1))
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
        T.conv2d(_t(1, 1, 2, 2), _t(1, 1, 5, 5))

"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
verification).  A leaf -- a ``Tensor(...)`` built from user data or a
parameter -- holds a C-contiguous array.  An op output keeps the array numpy
returned, without a copy: ``transpose``, ``reshape`` and basic-key
``getitem`` give views of their input, and elementwise ops keep its memory
order, so switching between token and map layouts costs nothing.  Because an
op output may share memory with its inputs, only leaves may be written in
place.  Every differentiable operation records its parents and a
vector-Jacobian closure; ``backward`` replays the tape in reverse creation
order, which keeps gradient accumulation deterministic.

Feature maps have one memory order.  ``conv2d``, ``conv_transpose2d`` and
``bilinear_resize`` take a B,C,H,W input in any memory order, and their output
and input gradient are channel-last views: channels innermost in memory, as
``tokens_to_map`` gives them, so a map becomes tokens without a copy.
``layer_norm`` reads its input as (rows, C), and its means are GEMVs.
``softmax`` flushes probabilities below ``np.finfo(dtype).tiny`` to zero, so
no later GEMM reads a subnormal float, which runs many times slower.

Layout conventions: image-like data is B x C x H x W, token sequences are
B x N x C.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A setting that cannot work (an empty conv output, a batch size below 1)."""


class GraphError(RuntimeError):
    """Misuse of the autodiff tape (non-scalar backward, double backward)."""


_GELU_C = 0.044715
_GELU_S = float(np.sqrt(2.0 / np.pi))

ATTENTION_TILE = 1024  # query rows per tile of the attention core

_grad_enabled = True
_nan_check = False


@contextmanager
def no_grad():
    """Disable tape construction inside the block (inference / init)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def nan_check():
    """Raise if any op inside the block produces a NaN/Inf output."""
    global _nan_check
    prev = _nan_check
    _nan_check = True
    try:
        yield
    finally:
        _nan_check = prev


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return np.ascontiguousarray(arr)


class Tensor:
    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        """A leaf: ``data`` is converted to a float array and made C-contiguous."""
        self._init(_as_array(data, dtype), bool(requires_grad), (), None)

    def _init(self, data: np.ndarray, requires_grad: bool, parents: tuple,
              vjp: Optional[Callable]):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._vjp = vjp
        self._nid = next(Tensor._ids)
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


def _records(parents: Sequence[Tensor]) -> bool:
    """True when an op on ``parents`` is recorded on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op output without copying it; it keeps numpy's layout and may
    be a view of a parent's data."""
    if _nan_check and not np.isfinite(data).all():
        raise FloatingPointError("non-finite values produced by an operation")
    out = Tensor.__new__(Tensor)
    data = np.asarray(data)  # ufuncs on 0-d arrays return numpy scalars
    if _records(parents):
        out._init(data, True, tuple(parents), vjp)
    else:
        out._init(data, False, (), None)
    return out


def _ensure(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss: Tensor):
    """Accumulate into ``grad`` of every leaf reachable from ``loss``.

    Leaves are the tensors with no VJP: parameters and gradcheck inputs.
    Intermediate nodes keep ``grad`` None, and each intermediate gradient is
    freed once its VJP has run.  Parents are created before their children,
    so descending creation order is a topological order; accumulation follows
    it, so repeated runs are bit-identical.
    """
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise GraphError("backward called twice on the same graph without a new forward pass")
    if not loss.requires_grad:
        raise GraphError("loss does not require grad; nothing to differentiate")

    nodes: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._nid in nodes:
            continue
        nodes[node._nid] = node
        stack.extend(p for p in node._parents if p.requires_grad)

    grads: dict[int, np.ndarray] = {loss._nid: np.ones_like(loss.data)}
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        g = grads.pop(nid, None)
        if g is None:
            continue
        if node._vjp is None:
            # a VJP may hand the same buffer to several parents: copy it
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            if p._nid in grads:
                grads[p._nid] = grads[p._nid] + pg
            else:
                grads[p._nid] = pg
    loss._backward_done = True


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _node(out, (a, b), vjp)


def texp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def tsqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function that never evaluates exp of a positive argument."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_array(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Evaluated in place on two buffers, from products only: numpy's generic
    ``pow`` (``x ** 3``) is far slower on float32.
    """
    x = a.data
    t = x * x                                     # u = s*x*(1 + c*x^2), then tanh(u)
    t *= _GELU_S * _GELU_C
    t += _GELU_S
    t *= x
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def vjp(g):
        # d/dx = 0.5*(1 + t) + 0.5*x*(1 - t^2)*s*(1 + 3c*x^2)
        d = x * x
        d *= 1.5 * _GELU_C * _GELU_S
        d += 0.5 * _GELU_S
        d *= x
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        d *= sech2
        d += 0.5 * t
        d += 0.5
        d *= g
        return (d,)

    return _node(out, (a,), vjp)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for {a.shape}")
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    # a subnormal probability would slow every later GEMM that reads it
    out[out < np.finfo(out.dtype).tiny] = 0

    def vjp(g):
        gs = g * out
        gs -= out * gs.sum(axis=axis, keepdims=True)
        return (gs,)

    return _node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops

def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    out = a.data.reshape(shape)
    return _node(out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def _is_basic_index(key) -> bool:
    """True for keys made only of slices, ints, ``Ellipsis`` and ``None``:
    such a key selects every element at most once, so its VJP can assign."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def getitem(a: Tensor, key) -> Tensor:
    out = a.data[key]
    basic = _is_basic_index(key)

    def vjp(g):
        ga = np.zeros_like(a.data)
        if basic:
            ga[key] = g
        else:  # integer-array keys may repeat an element
            np.add.at(ga, key, g)
        return (ga,)

    return _node(out, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_ensure(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(parts), vjp)


def pad_bottom_right(a: Tensor, ph: int, pw: int) -> Tensor:
    """Zero-pad a B,C,H,W map at the high ends of H and W (divisibility
    alignment); the output is a channel-last view."""
    if ph == 0 and pw == 0:
        return a
    b, c, h, w = a.shape
    out = _zeros_map((b, c, h + ph, w + pw), a.data.dtype)
    out[:, :, :h, :w] = a.data

    def vjp(g):
        return (g[:, :, :h, :w],)

    return _node(out, (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(np.asarray(out), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _ensure(a)
    b = _ensure(b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return ga, gb

    return _node(out, (a, b), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              bias: Optional[Tensor] = None) -> Tensor:
    """``softmax(q @ k^T * scale + bias, axis=-1) @ v`` as one tape node.

    q: (..., N, d), k: (..., M, d), v: (..., M, dv); ``bias`` broadcasts
    against the (..., N, M) scores.  Rows are independent, so the queries run
    in tiles of ``ATTENTION_TILE`` rows (Rabe & Staats 2021,
    arXiv:2112.05682), each writing its rows of one preallocated output.  A
    tile's scores are scaled, biased and normalized in place, in the order
    of the composite ``matmul * scale + bias -> softmax``, so both give the
    same floats.  A bias is sliced by rows only where its row axis has
    extent N.  Under ``no_grad`` every tile reuses one (..., tile, M) score
    buffer, so the scores never take more than one tile of memory.  On the
    tape each tile fills its rows of a full (..., N, M) probability buffer P,
    which the VJP reads through the closed form
    ``dS = P*dP - P*rowsum(P*dP)`` with ``dP = g v^T``.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention shapes differ: q {q.shape}, k {k.shape}, v {v.shape}")
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    scale = q.data.dtype.type(scale)  # a float64 scale would promote f32 scores
    n, m = q.shape[-2], k.shape[-2]
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    dtype = np.result_type(q.data, k.data)
    keep = _records(parents)
    p = np.empty(lead + (n if keep else min(n, ATTENTION_TILE), m), dtype=dtype)
    out = np.empty(np.broadcast_shapes(lead, v.shape[:-2]) + (n, v.shape[-1]),
                   dtype=np.result_type(dtype, v.data))
    kt = k.data.swapaxes(-1, -2)
    bias_rows = bias is not None and bias.ndim >= 2 and bias.shape[-2] == n
    for r0 in range(0, n, ATTENTION_TILE):
        rows = slice(r0, min(r0 + ATTENTION_TILE, n))
        s = p[..., rows, :] if keep else p[..., :rows.stop - r0, :]
        np.matmul(q.data[..., rows, :], kt, out=s)
        s *= scale
        if bias is not None:
            s += bias.data[..., rows, :] if bias_rows else bias.data
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        np.matmul(s, v.data, out=out[..., rows, :])

    def vjp(g):
        ds = np.matmul(g, v.data.swapaxes(-1, -2))
        ds *= p
        ds -= p * ds.sum(axis=-1, keepdims=True)
        gbias = None
        if bias is not None:
            gbias = _unbroadcast(ds, bias.shape)
            if gbias is ds:  # ds is scaled in place below
                gbias = ds.copy()
        ds *= scale
        gq = _unbroadcast(np.matmul(ds, k.data), q.shape)
        gk = _unbroadcast(np.matmul(q.data.swapaxes(-1, -2), ds).swapaxes(-1, -2), k.shape)
        gv = _unbroadcast(np.matmul(p.swapaxes(-1, -2), g), v.shape)
        return gq, gk, gv, gbias

    return _node(out, parents, vjp)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis, ``x @ w (+ b)``, as one tape node.

    The weight gradient is one 2-D GEMM over the rows of every leading axis.
    """
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear expects last dim {w.shape[0]}, got {x.shape}")
    out = np.matmul(x.data, w.data)
    if b is not None:
        out += b.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = np.matmul(g, w.data.T)
        gw = np.matmul(x.data.reshape(-1, x.shape[-1]).T, g2)
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1,
               eps: float = 1e-6) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then affine.

    gamma/beta hold one value per position of ``axis`` in a shape of their
    own, such as (C,) or (1,C,1,1).  The input is read as (rows, C) with
    ``axis`` last, a free view for token sequences and channel-last maps;
    every mean over C is a GEMV with a ``1/C`` vector, and every sum over
    rows one with a ones vector.  One tape node; the VJP is the closed form
    ``gx = rstd * (gh - mean(gh) - xn * mean(gh * xn))`` with ``gh = g * gamma``.
    """
    gamma = _ensure(gamma, like=x)
    beta = _ensure(beta, like=x)
    ax = axis % x.ndim
    order = (*range(ax), *range(ax + 1, x.ndim), ax)  # ``axis`` last
    back = (*range(ax), x.ndim - 1, *range(ax, x.ndim - 1))
    xm = x.data.transpose(order)
    c = xm.shape[-1]
    inv_c = np.full(c, 1.0 / c, dtype=x.data.dtype)
    x2 = xm.reshape(-1, c)
    xn = x2 - (x2 @ inv_c)[:, None]
    rstd = (1.0 / np.sqrt((xn * xn) @ inv_c + eps))[:, None]
    xn *= rstd
    out = xn * gamma.data.reshape(c)
    out += beta.data.reshape(c)

    def vjp(g):
        g2 = g.transpose(order).reshape(-1, c)
        gx = g2 * gamma.data.reshape(c)           # gh, turned into gx in place
        tmp = gx * xn
        np.multiply(xn, (tmp @ inv_c)[:, None], out=tmp)
        gx -= (gx @ inv_c)[:, None]
        gx -= tmp
        gx *= rstd
        ones = np.ones(len(g2), dtype=g2.dtype)
        ggamma = ones @ np.multiply(g2, xn, out=tmp)
        return (gx.reshape(xm.shape).transpose(back), ggamma.reshape(gamma.shape),
                (ones @ g2).reshape(beta.shape))

    return _node(out.reshape(xm.shape).transpose(back), (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# convolution family

def _conv_out_extent(h: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (h + 2 * pad - dil * (k - 1) - 1) // stride + 1


def _zeros_map(shape: tuple, dtype) -> np.ndarray:
    """Zeroed B,C,H,W array stored channel-last."""
    b, c, h, w = shape
    return np.zeros((b, h, w, c), dtype).transpose(0, 3, 1, 2)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, dil: int,
            ho: int, wo: int) -> np.ndarray:
    """Channel-last windows (B,Ho,Wo,kh,kw,C) of a B,C,H,W input.  A 1x1
    unpadded kernel's windows are the input's pixels, a free view of a
    channel-last input; any other kernel copies one slice per tap."""
    xl = x.transpose(0, 2, 3, 1)
    b, h, w, c = xl.shape
    if kh == kw == 1 and pad == 0:
        return xl[:, ::stride, ::stride].reshape(b, ho, wo, 1, 1, c)
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = xl
    cols = np.empty((b, ho, wo, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xp[:, i * dil: i * dil + stride * ho: stride,
                                     j * dil: j * dil + stride * wo: stride]
    return cols


def _col2im(gcols: np.ndarray, xshape: tuple, stride: int, pad: int,
            dil: int) -> np.ndarray:
    """Scatter-add channel-last window gradients (B,Ho,Wo,kh,kw,C) back onto
    a B,C,H,W input, returned as a view of a channel-last buffer: the adjoint
    of :func:`_im2col`."""
    b, c, h, w = xshape
    _, ho, wo, kh, kw, _ = gcols.shape
    if kh == kw == 1 and pad == 0 and stride == 1:
        return gcols.reshape(b, h, w, c).transpose(0, 3, 1, 2)
    gx = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i * dil: i * dil + stride * ho: stride,
               j * dil: j * dil + stride * wo: stride] += gcols[:, :, :, i, j]
    return gx[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1,
           padding: int = 0, dilation: int = 1, groups: int = 1) -> Tensor:
    """2D cross-correlation. x: B,Cin,H,W; w: Cout,Cin/groups,Kh,Kw.

    Stride-1 depthwise convs run as kh*kw shifted multiply-adds; every other
    conv is one (grouped) GEMM over channel-last im2col windows.  The output
    and the input gradient are channel-last views.  Both VJPs are closures of
    this function, so a profiler that names a VJP by its ``__qualname__``
    charges both to ``conv2d``.
    """
    bsz, cin, h, wdt = x.shape
    cout, cin_g, kh, kw = w.shape
    if cin % groups or cout % groups:
        raise ShapeError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ShapeError(f"kernel expects {cin_g} in-channels per group, input has {cin // groups}")
    ho = _conv_out_extent(h, kh, stride, padding, dilation)
    wo = _conv_out_extent(wdt, kw, stride, padding, dilation)
    if ho < 1 or wo < 1:
        raise ConfigError(f"conv2d output extent {ho}x{wo} is empty for input {h}x{wdt}")
    parents = (x, w) if b is None else (x, w, b)

    if groups == cin == cout and stride == 1:
        # Rows of the padded input are laid end to end, so each tap is one
        # contiguous shifted slice; output columns past ``wo`` are wrapped
        # garbage and are cropped.  One spare row keeps the last tap in bounds.
        # A pixel is C floats, and the tap weights are tiled along a row.
        hp, wp = h + 2 * padding, wdt + 2 * padding
        n = ho * wp
        taps = [i * dilation * wp + j * dilation for i in range(kh) for j in range(kw)]
        wt = np.tile(w.data.reshape(cout, kh * kw).T, (1, wp))

        def window(m, off):
            return m.transpose(0, 2, 3, 1).reshape(bsz, -1)[:, off * cin:(off + n) * cin] \
                .reshape(bsz, ho, wp * cin)

        xp = _zeros_map((bsz, cin, hp + 1, wp), x.data.dtype)
        xp[:, :, padding:padding + h, padding:padding + wdt] = x.data
        acc = _zeros_map((bsz, cout, ho, wp), x.data.dtype)
        rows = window(acc, 0)
        for t, off in enumerate(taps):
            rows += window(xp, off) * wt[t]
        out = acc[..., :wo]
        if b is not None:
            out = out + b.data.reshape(1, cout, 1, 1)

        def vjp_depthwise(g):
            gp = _zeros_map(acc.shape, g.dtype)
            gp[..., :wo] = g
            grows = window(gp, 0)
            gxp = _zeros_map(xp.shape, g.dtype)
            gw = np.empty((cout, kh * kw), dtype=w.data.dtype)
            for t, off in enumerate(taps):
                gx_rows = window(gxp, off)
                gx_rows += grows * wt[t]
                gw[:, t] = np.einsum("bhk,bhk->k", grows, window(xp, off)) \
                    .reshape(wp, cin).sum(axis=0)
            gx = gxp[:, :, padding:padding + h, padding:padding + wdt]
            if b is None:
                return gx, gw.reshape(w.shape)
            return gx, gw.reshape(w.shape), g.sum(axis=(0, 2, 3))

        return _node(out, parents, vjp_depthwise)

    cg, og = cin // groups, cout // groups
    rows = bsz * ho * wo
    cols = _im2col(x.data, kh, kw, stride, padding, dilation, ho, wo)
    # (groups, B*Ho*Wo, kh*kw*Cg); a free view when groups == 1
    cols_m = cols.reshape(rows, kh * kw, groups, cg).transpose(2, 0, 1, 3) \
        .reshape(groups, rows, kh * kw * cg)
    w_m = w.data.reshape(groups, og, cg, kh, kw).transpose(0, 1, 3, 4, 2) \
        .reshape(groups, og, kh * kw * cg)
    out_m = np.matmul(cols_m, w_m.swapaxes(1, 2)).transpose(1, 0, 2).reshape(rows, cout)
    if b is not None:
        out_m += b.data
    out = out_m.reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2)

    def vjp(g):
        g_rows = g.transpose(0, 2, 3, 1).reshape(rows, cout)
        g_m = g_rows.reshape(rows, groups, og).transpose(1, 0, 2)   # g, BHW, og
        gw = np.matmul(g_m.swapaxes(1, 2), cols_m)                 # g, og, kh*kw*Cg
        gw = gw.reshape(groups, og, kh, kw, cg).transpose(0, 1, 4, 2, 3).reshape(w.shape)
        gcols = np.matmul(g_m, w_m).reshape(groups, rows, kh * kw, cg).transpose(1, 2, 0, 3)
        gcols = gcols.reshape(bsz, ho, wo, kh, kw, cin)
        gx = _col2im(gcols, x.shape, stride, padding, dilation)
        if b is None:
            return gx, gw
        return gx, gw, g_rows.sum(axis=0)

    return _node(out, parents, vjp)


def conv_transpose2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Transposed 2D convolution with stride = kernel and no padding.
    x: B,Cin,H,W; w: Cin,Cout,Kh,Kw; output B,Cout,H*Kh,W*Kw.  The windows do
    not overlap, so it is one GEMM and a depth-to-space copy that keeps
    channels innermost (sub-pixel convolution, Shi et al. 2016,
    arXiv:1609.05158).  The output and the input gradient are channel-last
    views."""
    bsz, cin, h, wdt = x.shape
    cin_w, cout, kh, kw = w.shape
    if cin_w != cin:
        raise ShapeError(f"conv_transpose2d expects {cin_w} in-channels, got {cin}")
    rows = bsz * h * wdt
    x_m = x.data.transpose(0, 2, 3, 1).reshape(rows, cin)
    w_m = w.data.transpose(0, 2, 3, 1).reshape(cin, kh * kw * cout)
    out_m = (x_m @ w_m).reshape(bsz, h, wdt, kh, kw, cout)
    if b is not None:
        out_m += b.data
    out = out_m.transpose(0, 1, 3, 2, 4, 5).reshape(bsz, h * kh, wdt * kw, cout) \
        .transpose(0, 3, 1, 2)
    parents = (x, w) if b is None else (x, w, b)

    def vjp(g):
        g_m = g.transpose(0, 2, 3, 1).reshape(bsz, h, kh, wdt, kw, cout) \
            .transpose(0, 1, 3, 2, 4, 5).reshape(rows, kh * kw * cout)
        gx = (g_m @ w_m.T).reshape(bsz, h, wdt, cin).transpose(0, 3, 1, 2)
        gw = (x_m.T @ g_m).reshape(cin, kh, kw, cout).transpose(0, 3, 1, 2)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _node(out, parents, vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: B,C,H,W -> B,C,1,1."""
    return tmean(x, axis=(2, 3), keepdims=True)


# ---------------------------------------------------------------------------
# resizing

def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """(n_out, n_in) bilinear interpolation matrix of one axis: each row
    lerps the two inputs beside its align_corners=False source point."""
    if n_out < 1:
        raise ConfigError(f"bilinear resize target extent {n_out} is not positive")
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = (src - i0).astype(dtype)
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    m[rows, np.clip(i0, 0, n_in - 1)] = 1 - frac
    # at a clamped border both columns are one: its weights still sum to 1
    m[rows, np.clip(i0 + 1, 0, n_in - 1)] += frac
    return m


def bilinear_resize(x: Tensor, h2: int, w2: int) -> Tensor:
    """Differentiable bilinear resize of a B,C,H,W map to B,C,h2,w2, H then W,
    over channel-last rows; the output and the input gradient are
    channel-last views."""
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize expects a B,C,H,W map, got shape {x.shape}")
    b, c, h, w = x.shape
    rh = _resize_matrix(h, h2, x.data.dtype)
    rw = _resize_matrix(w, w2, x.data.dtype)
    rows = (rh @ x.data.transpose(0, 2, 3, 1).reshape(b, h, w * c)).reshape(b * h2, w, c)
    out = (rw @ rows).reshape(b, h2, w2, c).transpose(0, 3, 1, 2)

    def vjp(g):
        g_rows = (rh.T @ g.transpose(0, 2, 3, 1).reshape(b, h2, w2 * c)).reshape(b * h, w2, c)
        return ((rw.T @ g_rows).reshape(b, h, w, c).transpose(0, 3, 1, 2),)

    return _node(out, (x,), vjp)

"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
verification).  A leaf -- a ``Tensor(...)`` built from user data or a
parameter -- holds a C-contiguous array.  An op output keeps the array numpy
returned, without a copy: ``rearrange``, the one layout op, and basic-key
``getitem`` give views of their input wherever numpy can, and elementwise ops
keep its memory order, so token and map layouts switch at no cost.  Because
an op output may share memory with its inputs, only leaves may be written in
place.  Inside ``reuse`` (the gradcheck's finite-difference forwards) an op
called again on the same arguments returns the output it recorded in the
first forward, shared by every later forward: a second reason no op output
is written, and the forwards must be pure functions of their arguments.
Every differentiable operation records its parents and a
vector-Jacobian closure; ``backward`` replays the tape in reverse creation
order, which keeps gradient accumulation deterministic.

Feature maps have one memory order.  ``conv2d``, ``conv_transpose2d`` and
``bilinear_resize`` take a B,C,H,W input in any memory order, and their output
and input gradient are channel-last views: channels innermost in memory, as
``tokens_to_map`` gives them, so a map becomes tokens without a copy;
``global_avg_pool``'s input gradient is one too.  Conv weights are stored
with output channels last, in the order their GEMMs read them, so no call
copies one: ``conv2d`` takes (k,k,Cin/groups,Cout) and ``conv_transpose2d``
(Cin,k,k,Cout).  ``conv2d`` reads its kind from the weight's shape: a
stride-1 depthwise conv for a (k,k,1,C) weight on C > 1 channels, whose taps
are one strided view of the padded map summed in ``BLOCK``-sized blocks, and
a dense conv for any other, one GEMM whose input gradient is
``_phase_gemm``.  ``conv_transpose2d`` is one GEMM and a depth-to-space copy.
Both conv ops require a bias and a square kernel, and nothing in them
scatters.  ``layer_norm`` reads its input as (rows, C), and its means are
GEMVs.  So is every VJP sum over the rows of a channel-last map or a token
array (bias, gamma/beta and gate gradients), with a cached ones vector.
``softmax`` normalizes the last axis and flushes probabilities below
``np.finfo(dtype).tiny`` to zero, so no later GEMM reads a subnormal float,
which runs many times slower.

Layout conventions: image-like data is B x C x H x W, token sequences are
B x N x C.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
_LOG2E = float(np.log2(np.e))
# Elements per block of a blocked elementwise chain (AdamW, GELU, the
# depthwise tap products): a block's operands (256 KB each in f32) stay in
# cache across the passes over it.
BLOCK = 65536
LAYER_NORM_EPS = 1e-6

_grad_enabled = True
_nan_check = False
_reuse: Optional["_Record"] = None  # the record of an open ``reuse`` block


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


@contextmanager
def reuse():
    """Serve repeated forwards from the first one.

    Yields ``forward``: ``forward(fn, *args)`` returns ``fn(*args)``.  The
    first forward records every tape-op call, with its arguments and output;
    it may run on the tape, since an op computes the same floats with or
    without it, so the forward a gradcheck differentiates is its record.
    In each later forward, the call at the same position returns the recorded
    output when it is the same op on the same arguments, and computes
    otherwise.  An argument is the same when it is the very object of the
    recording (every ``Tensor`` and array), or an equal plain value: int,
    float, bool, str, slice, None, numpy float scalar, or a tuple or list of
    these.  So a forward that passes a fresh tensor in place of one input
    recomputes only the calls that tensor reaches.  A served output is shared
    by every forward, so ``fn`` must be a pure function of its arguments.
    The record is removed when the block ends, raising or not.

    Each public op that makes a tape node enters through the record: its
    first statement tests the global ``_reuse`` and, while a block is open,
    hands the op and all of its parameters to it.
    """
    global _reuse
    prev, _reuse = _reuse, _Record()
    try:
        yield _reuse.forward
    finally:
        _reuse = prev


class _Record:
    """The tape-op calls of :func:`reuse`'s first forward."""
    __slots__ = ("calls", "pos")

    def __init__(self):
        self.calls: list[tuple] = []  # (op, args, output)
        self.pos: Optional[int] = None  # the next call's position; None while recording

    def forward(self, fn: Callable, *args):
        if self.calls:
            self.pos = 0
        return fn(*args)

    def call(self, op: Callable, *args):
        """``op(*args)``, or the output recorded for the call at this position."""
        global _reuse
        pos = self.pos
        if pos is not None:
            self.pos = pos + 1
            if pos < len(self.calls):
                rop, rargs, out = self.calls[pos]
                if rop is op and _same(rargs, args):
                    return out
        _reuse = None  # the op runs its own body
        try:
            out = op(*args)
        finally:
            _reuse = self
        if pos is None:
            self.calls.append((op, args, out))
        return out


_PLAIN = frozenset((int, float, bool, str, np.float32, np.float64))


def _same(a, b) -> bool:
    """True when ``b`` is the same op argument as ``a`` in :func:`reuse`'s
    sense.  Arrays compare by identity only: ``np.array([1]) == np.array([[1]])``
    is truthy, yet the two keys select different shapes."""
    if a is b:
        return True
    t = type(a)
    if t is not type(b):
        return False
    if t is tuple or t is list:  # identity of every item first, in C
        return len(a) == len(b) and (all(map(operator.is_, a, b)) or all(map(_same, a, b)))
    if t is slice:
        return _same((a.start, a.stop, a.step), (b.start, b.stop, b.step))
    return t in _PLAIN and a == b


class Tensor:
    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        """A leaf: ``data`` is converted to a float array and made C-contiguous."""
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self._init(np.ascontiguousarray(arr), bool(requires_grad), (), None)

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

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
    """Sum a broadcast gradient back down to ``shape``.  A channel-last B,C,H,W
    gradient reduced to a spatial gate (B,1,H,W) or a channel gate (B,C,1,1)
    is summed by a GEMV over its rows; any other reduction is a numpy sum."""
    if grad.shape == shape:
        return grad
    rows = grad.transpose(0, 2, 3, 1) if grad.ndim == len(shape) == 4 else None
    if rows is not None and rows.flags.c_contiguous:
        b, c, h, w = grad.shape
        if shape == (b, 1, h, w):
            return (rows.reshape(-1, c) @ _ones(c, grad.dtype)).reshape(shape)
        if shape == (b, c, 1, 1):
            return (_ones(h * w, grad.dtype) @ rows.reshape(b, h * w, c)).reshape(shape)
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
    if _reuse is not None:
        return _reuse.call(add, a, b)
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    if _reuse is not None:
        return _reuse.call(mul, a, b)
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data * b.data

    def vjp(g):  # an operand that needs no gradient (a constant) gets none
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    if _reuse is not None:
        return _reuse.call(div, a, b)
    a = _ensure(a)
    b = _ensure(b, like=a)
    out = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _node(out, (a, b), vjp)


def texp(a: Tensor) -> Tensor:
    if _reuse is not None:
        return _reuse.call(texp, a)
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    if _reuse is not None:
        return _reuse.call(tanh, a)
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function that never evaluates exp of a positive argument."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    if _reuse is not None:
        return _reuse.call(sigmoid, a)
    out = sigmoid_array(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Evaluated in place from products only: numpy's generic ``pow``
    (``x ** 3``) is far slower on float32.  The chain runs block by block of
    ``BLOCK`` elements over flat memory-order views of the input and the
    output, so each block's passes stay in cache (numexpr's method,
    https://github.com/pydata/numexpr), and a small map's ufuncs run on one
    flat run rather than on a 4-D view.  ``tanh`` lands in one block-sized
    scratch under ``no_grad`` and in a full buffer on the tape, where the VJP
    reads it.  Every operation is elementwise, so blocking changes no float.
    """
    if _reuse is not None:
        return _reuse.call(gelu, a)
    x = a.data
    out = np.empty_like(x)
    n = x.size
    keep = _records((a,))
    t = np.empty_like(x) if keep else np.empty(min(n, BLOCK), x.dtype)
    xf, of, tf = (v.ravel(order="K") for v in (x, out, t))
    for lo in range(0, n, BLOCK):
        xb, ob = xf[lo:lo + BLOCK], of[lo:lo + BLOCK]
        tb = tf[lo:lo + BLOCK] if keep else tf[:len(xb)]
        np.multiply(xb, xb, out=tb)               # u = s*x*(1 + c*x^2), then tanh(u)
        tb *= _GELU_S * _GELU_C
        tb += _GELU_S
        tb *= xb
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)
        ob *= xb
        ob *= 0.5

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


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    if _reuse is not None:
        return _reuse.call(softmax, a)
    out = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    # a subnormal probability would slow every later GEMM that reads it
    out[out < np.finfo(out.dtype).tiny] = 0

    def vjp(g):
        gs = g * out
        gs -= out * gs.sum(axis=-1, keepdims=True)
        return (gs,)

    return _node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops

def rearrange(a: Tensor, shape, axes=None, split=None) -> Tensor:
    """The one layout op: reshape to ``split``, permute by ``axes`` (each when
    given), reshape to ``shape``; a view of ``a`` wherever numpy can give one.
    The VJP runs the inverse chain back to ``a.shape``."""
    if _reuse is not None:
        return _reuse.call(rearrange, a, shape, axes, split)
    x = a.data if split is None else a.data.reshape(split)
    x = x if axes is None else x.transpose(axes)
    old, mid = a.shape, x.shape

    def vjp(g):  # the inverse permutation is an argsort, in plain Python
        g = g.reshape(mid)
        g = g if axes is None else g.transpose(sorted(range(len(axes)), key=axes.__getitem__))
        return (g.reshape(old),)

    return _node(x.reshape(shape), (a,), vjp)


def _is_basic_index(key) -> bool:
    """True for keys made only of slices, ints, ``Ellipsis`` and ``None``:
    such a key selects every element at most once, so its VJP can assign."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def getitem(a: Tensor, key) -> Tensor:
    if _reuse is not None:
        return _reuse.call(getitem, a, key)
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
    if _reuse is not None:
        return _reuse.call(concat, parts, axis)
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
    if _reuse is not None:
        return _reuse.call(pad_bottom_right, a, ph, pw)
    if ph == 0 and pw == 0:
        return a
    h, w = a.shape[2:]
    out = _padded(a.data, 0, h + ph, w + pw).transpose(0, 3, 1, 2)

    def vjp(g):
        return (g[:, :, :h, :w],)

    return _node(out, (a,), vjp)


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, a 0-d output."""
    if _reuse is not None:
        return _reuse.call(tsum, a)
    return _node(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.broadcast_to(g, a.shape).copy(),))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if _reuse is not None:
        return _reuse.call(matmul, a, b)
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

    q is (L..., N, d), k (L..., M, d) and v (L..., M, dv), one leading shape L
    for all three; a ``bias`` ends in (N, M) and broadcasts over L only.  Any
    other shape raises ``ShapeError``.  Scores and output take q's dtype.
    Rows are independent, so the queries run in tiles of ``ATTENTION_TILE``
    rows (Rabe & Staats 2021, arXiv:2112.05682), each writing its rows of one
    preallocated output.

    Scores are kept in log2 units, as in FlashAttention-2 (Dao 2023,
    arXiv:2307.08691): a tile scales its queries (tile x d, not its tile x M
    scores) by ``scale * log2(e)``, adds a ``log2(e)``-scaled copy of the
    bias made once per call, and exponentiates with ``exp2``.  By
    Cauchy-Schwarz no score exceeds, in magnitude, ``B = |scale| log2(e)
    max_i ||q_i|| max_j ||k_j|| + log2(e) max|bias|``, computed once per call.
    When ``B`` is below half the dtype's exponent range (``finfo.maxexp //
    2``: 64 for f32, 512 for f64) every ``2^s`` lies in [2^-B, 2^B], so no
    entry of E overflows or is subnormal, a row sum stays finite, and the row
    max is skipped; otherwise (a NaN or inf ``B`` included) each row is
    shifted by its max first.  So ``exp2`` is the one elementwise pass over
    a tile's scores E.  The ``E @ [v | 1]`` GEMM gives the output rows and, in
    its last column, E's row sums, which divide the rows after the GEMM: the
    deferred normalization of FlashAttention (Dao et al. 2022,
    arXiv:2205.14135).  The floats therefore differ from the composite
    ``matmul * scale + bias -> softmax -> matmul`` in the last bits.  Under
    ``no_grad`` every tile reuses one (..., tile, M) score buffer, so the
    scores never take more than one tile of memory, and E is never
    normalized.  On the tape each tile fills its rows of a full (..., N, M)
    buffer and divides them by the same sums into the probabilities P.  The
    VJP is ``dS = P * (dP - D)`` with ``dP = g v^T`` and ``D = rowsum(g *
    out)``, which equals ``rowsum(P * dP)``.
    """
    if _reuse is not None:
        return _reuse.call(attention, q, k, v, scale, bias)
    lead = q.shape[:-2]
    if (q.ndim < 2 or v.ndim != q.ndim or v.shape[:-2] != lead
            or k.shape != lead + (v.shape[-2], q.shape[-1]) or bias is not None and (
                bias.shape[-2:] != (q.shape[-2], v.shape[-2]) or bias.ndim > q.ndim
                or any(e not in (1, f) for e, f in zip(bias.shape[:-2][::-1], lead[::-1])))):
        raise ShapeError(f"attention shapes differ: q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"bias {getattr(bias, 'shape', None)}")
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    dt = q.data.dtype.type  # a float64 scale would promote f32 scores
    scale, qscale = dt(scale), dt(float(scale) * _LOG2E)
    n, m, dv = q.shape[-2], k.shape[-2], v.shape[-1]
    tile = min(n, ATTENTION_TILE)
    keep = _records(parents)
    with np.errstate(over="ignore"):  # an inf bound takes the shift
        bound = abs(float(qscale)) * math.sqrt(_max_sq_norm(q.data) * _max_sq_norm(k.data))
        if bias is not None:
            bias_log2 = bias.data * bias.data.dtype.type(_LOG2E)
            bound += float(np.abs(bias_log2).max(initial=0))
    shift = not bound < np.finfo(q.dtype).maxexp // 2
    p = np.empty(lead + (n if keep else tile, m), dtype=q.dtype)
    v1 = np.empty(v.shape[:-1] + (dv + 1,), dtype=v.data.dtype)  # [v | 1]
    v1[..., :dv] = v.data
    v1[..., dv] = 1
    out = np.empty(lead + (n, dv), dtype=q.dtype)
    kt = k.data.swapaxes(-1, -2)
    for r0 in range(0, n, ATTENTION_TILE):
        rows = slice(r0, min(r0 + ATTENTION_TILE, n))
        h = rows.stop - r0
        s = p[..., rows, :] if keep else p[..., :h, :]
        np.matmul(q.data[..., rows, :] * qscale, kt, out=s)
        if bias is not None:
            s += bias_log2[..., rows, :]
        if shift:
            s -= s.max(axis=-1, keepdims=True)
        np.exp2(s, out=s)
        ev = np.matmul(s, v1)
        total = ev[..., dv:]
        np.divide(ev[..., :dv], total, out=out[..., rows, :])
        if keep:
            s /= total

    def vjp(g):
        ds = np.matmul(g, v.data.swapaxes(-1, -2))
        ds -= (g * out).sum(axis=-1, keepdims=True)
        ds *= p
        gbias = None
        if bias is not None:
            gbias = _unbroadcast(ds, bias.shape)
            if gbias is ds:  # ds is scaled in place below
                gbias = ds.copy()
        ds *= scale
        gq = np.matmul(ds, k.data)
        gk = np.matmul(q.data.swapaxes(-1, -2), ds).swapaxes(-1, -2)
        return gq, gk, np.matmul(p.swapaxes(-1, -2), g), gbias

    return _node(out, parents, vjp)


def _max_sq_norm(x: np.ndarray) -> float:
    """The largest squared norm of a row of ``x`` (0 for no rows): the row
    sums of squares are one GEMV."""
    d = x.shape[-1]
    return float((np.square(x).reshape(-1, d) @ _ones(d, x.dtype)).max(initial=0))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis, ``x @ w (+ b)``, as one tape node.

    The weight gradient is one 2-D GEMM over the rows of every leading axis.
    """
    if _reuse is not None:
        return _reuse.call(linear, x, w, b)
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
        return gx, gw, _ones(len(g2), g2.dtype) @ g2

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, vjp)


@functools.lru_cache(maxsize=None)
def _mean_vector(c: int, dtype: np.dtype) -> np.ndarray:
    """The read-only ``1/c`` vector whose GEMV is a mean over ``c`` values."""
    v = np.full(c, 1.0 / c, dtype=dtype)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=None)
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """The read-only ones vector whose GEMV sums ``n`` rows: numpy's axis
    reductions are slow over many rows of a few floats."""
    v = np.ones(n, dtype=dtype)
    v.flags.writeable = False
    return v


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then affine;
    ``LAYER_NORM_EPS`` is added to the variance.

    gamma/beta hold one value per position of ``axis`` in a shape of their
    own, such as (C,) or (1,C,1,1).  The input is read as (rows, C) with
    ``axis`` last, a free view for token sequences and channel-last maps;
    every mean over C is a GEMV with a ``1/C`` vector, and every sum over
    rows one with a ones vector.  One tape node; the VJP is the closed form
    ``gx = rstd * (gh - mean(gh) - xn * mean(gh * xn))`` with ``gh = g * gamma``.
    """
    if _reuse is not None:
        return _reuse.call(layer_norm, x, gamma, beta, axis)
    gamma = _ensure(gamma, like=x)
    beta = _ensure(beta, like=x)
    ax = axis % x.ndim
    order = (*range(ax), *range(ax + 1, x.ndim), ax)  # ``axis`` last
    back = (*range(ax), x.ndim - 1, *range(ax, x.ndim - 1))
    xm = x.data.transpose(order)
    c = xm.shape[-1]
    inv_c = _mean_vector(c, x.data.dtype)
    x2 = xm.reshape(-1, c)
    xn = x2 - (x2 @ inv_c)[:, None]
    rstd = (1.0 / np.sqrt((xn * xn) @ inv_c + LAYER_NORM_EPS))[:, None]
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
        ones = _ones(len(g2), g2.dtype)
        ggamma = ones @ np.multiply(g2, xn, out=tmp)
        return (gx.reshape(xm.shape).transpose(back), ggamma.reshape(gamma.shape),
                (ones @ g2).reshape(beta.shape))

    return _node(out.reshape(xm.shape).transpose(back), (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# convolution family

def _conv_out_extent(h: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (h + 2 * pad - dil * (k - 1) - 1) // stride + 1


def _padded(x: np.ndarray, pad: int, hp: int = 0, wp: int = 0) -> np.ndarray:
    """Channel-last zero map (B,hp,wp,C), or (B,H+2p,W+2p,C) for hp = wp = 0,
    holding a B,C,H,W input at offset (pad, pad); what falls outside is cropped."""
    b, c, h, w = x.shape
    hp, wp, lo = hp or h + 2 * pad, wp or w + 2 * pad, max(pad, 0)
    xp = np.zeros((b, hp, wp, c), dtype=x.dtype)
    xp[:, lo:pad + h, lo:pad + w] = x.transpose(0, 2, 3, 1)[:, lo - pad:hp - pad, lo - pad:wp - pad]
    return xp


def _taps(xp: np.ndarray, k: int, ho: int, wo: int, dil: int) -> np.ndarray:
    """Every stride-1 tap of a padded channel-last (B,Hp,Wp,C) map as one
    (k,k,B,Ho,Wo*C) view: tap (i, j) of output row (b, r) is the run of Wo*C
    floats at padded row r + i*dil, column j*dil."""
    s0, s1, s2, s3 = xp.strides
    # np.ndarray checks that the taps lie inside ``xp``'s buffer
    return np.ndarray((k, k, xp.shape[0], ho, wo * xp.shape[3]), xp.dtype, xp, 0,
                      (s1 * dil, s2 * dil, s0, s1, s3))


def _depthwise_taps(xp: np.ndarray, w: np.ndarray, ho: int, wo: int, dil: int) -> np.ndarray:
    """Stride-1 depthwise correlation of a padded channel-last map with a
    (k,k,1,C) kernel, into a contiguous (B,Ho,Wo,C) buffer.  Per block of
    output rows, one multiply of the ``_taps`` view by the tap weights, tiled
    along a row, into a scratch of at most ``BLOCK`` elements (one row's taps
    when they alone take more), then one sum over the two tap axes, in
    row-major tap order from zero: the floats of a multiply-add per tap."""
    bsz, c, k = xp.shape[0], w.shape[-1], w.shape[0]
    taps = _taps(xp, k, ho, wo, dil)
    wt = np.tile(w.reshape(k, k, 1, 1, c), wo)
    acc = np.empty((bsz, ho, wo, c), xp.dtype)
    acc_rows = acc.reshape(bsz, ho, wo * c)
    rows = max(1, BLOCK // (k * k * wo * c))
    nb, nr = max(1, rows // ho), min(rows, ho)  # whole maps, or rows of one map, per block
    scratch = np.empty(k * k * nb * nr * wo * c, xp.dtype)
    for b0 in range(0, bsz, nb):
        for r0 in range(0, ho, nr):
            blk = taps[:, :, b0:b0 + nb, r0:r0 + nr]
            prod = np.multiply(blk, wt, out=scratch[:blk.size].reshape(blk.shape))
            np.add.reduce(prod, axis=(0, 1), out=acc_rows[b0:b0 + nb, r0:r0 + nr])
    return acc


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, dil: int,
            ho: int, wo: int) -> np.ndarray:
    """Channel-last windows (B,Ho,Wo,k,k,C) of a B,C,H,W input padded by
    ``pad`` at the top-left, and at the bottom-right to what the windows read.
    Unpadded 1x1 windows are the input's pixels, a free view of a channel-last
    input; any other kernel copies every window at once from a strided view of
    the padded map (a window row of k*C floats is one run when ``dil`` is 1)."""
    b, c, h, w = x.shape
    hp, wp = ((n - 1) * stride + (k - 1) * dil + 1 for n in (ho, wo))
    if k == 1 and pad == 0 and hp <= h and wp <= w:
        return x.transpose(0, 2, 3, 1)[:, :hp:stride, :wp:stride].reshape(b, ho, wo, 1, 1, c)
    xp = _padded(x, pad, hp, wp)
    s0, s1, s2, s3 = xp.strides
    # np.ndarray checks that the windows lie inside ``xp``'s buffer
    return np.ndarray((b, ho, wo, k, k, c), x.dtype, xp, 0,
                      (s0, s1 * stride, s2 * stride, s1 * dil, s2 * dil, s3)).copy()


def _phase_gemm(g: np.ndarray, w: np.ndarray, s: int, pad: int, dil: int,
                h: int, wdt: int) -> np.ndarray:
    """``conv2d``'s input gradient: the adjoint of ``conv2d(., w, s, pad,
    dil)`` with a (k,k,Cin,Cout) w, on g (B,Cout,Ho,Wo) as a channel-last
    B,Cin,h,wdt view.  Tap i lands on phase (i*dil - pad) mod s at upstream
    offset floor((i*dil - pad)/s): one GEMM of ``_im2col`` windows with a
    matrix holding each tap once, then a depth-to-space copy.  The taps of
    one phase are evenly spaced in the kernel and in the windows, so the
    matrix takes one strided write per non-empty phase of the two axes."""
    bsz, (k, _, cin, cout) = g.shape[0], w.shape
    step = dil // s if dil % s == 0 else 1
    q0 = -pad // s
    nm = (((k - 1) * dil - pad) // s - q0) // step + 1  # window extent
    period = s // math.gcd(s, dil)  # taps between two of one phase
    du = period * dil // s // step  # windows between the same two
    spans = []  # per phase: its taps and the upstream offsets, in windows, they land on
    for i in range(min(period, k)):
        q, ph = divmod(i * dil - pad, s)
        u = (q - q0) // step
        spans.append((ph, slice(i, k, period), slice(u, u + (k - 1 - i) // period * du + 1, du)))
    w_m = np.zeros((nm, nm, cout, s, s, cin), w.dtype)
    rev = w_m[::-1, ::-1]  # w_m's windows run from the last upstream offset back
    for (pi, ti, ui), (pj, tj, uj) in itertools.product(spans, repeat=2):
        rev[ui, uj, :, pi, pj] = w[ti, tj].transpose(0, 1, 3, 2)
    mh, mw = -(-h // s), -(-wdt // s)
    cols = _im2col(g, nm, 1, ((k - 1) * dil - pad) // s, step, mh, mw)
    out = cols.reshape(bsz * mh * mw, -1) @ w_m.reshape(-1, s * s * cin)
    out = out.reshape(bsz, mh, mw, s, s, cin).transpose(0, 1, 3, 2, 4, 5)
    return out.reshape(bsz, mh * s, mw * s, cin)[:, :h, :wdt].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           dilation: int = 1) -> Tensor:
    """2D cross-correlation plus a per-channel bias.  x: B,Cin,H,W; b: Cout.

    The weight is stored (k,k,Cin/groups,Cout), output channels last, so it
    is the matrix its GEMM reads and no call copies it.  Its shape names the
    kind, and its kernel is square (ConfigError otherwise).  A (k,k,1,C)
    weight on C > 1 channels is a depthwise conv, stride 1 only (ConfigError
    otherwise): ``_depthwise_taps``, one multiply and one tap sum per
    ``BLOCK``-sized block of the padded map's ``_taps`` view.  Any other
    weight is dense, (k,k,Cin,Cout) with the input's Cin (ShapeError
    otherwise): one GEMM of im2col windows with the weight as a (k*k*Cin,
    Cout) view, whose input gradient at any stride is one gather by phase,
    ``_phase_gemm`` (Dumoulin & Visin, arXiv:1603.07285).  A depthwise conv's
    is the same tap kernel over the upstream gradient padded by
    dilation*(k-1) - padding, with the flipped kernel ``w[::-1, ::-1]``.  An
    input that needs no gradient gets none.  The output and the input
    gradient are channel-last views.  Both VJPs are closures of this
    function, so a profiler that names a VJP by its ``__qualname__`` charges
    both to ``conv2d``.
    """
    if _reuse is not None:
        return _reuse.call(conv2d, x, w, b, stride, padding, dilation)
    bsz, cin, h, wdt = x.shape
    k, kw, cin_w, cout = w.shape
    if k != kw:
        raise ConfigError(f"conv2d takes square kernels only, got {k}x{kw}")
    depthwise = cin_w == 1 and cout == cin > 1
    if depthwise and stride != 1:
        raise ConfigError(f"depthwise conv2d runs at stride 1 only, got stride {stride}")
    if not depthwise and cin_w != cin:
        raise ShapeError(f"kernel {w.shape} expects {cin_w} in-channels, input has {cin}")
    ho = _conv_out_extent(h, k, stride, padding, dilation)
    wo = _conv_out_extent(wdt, k, stride, padding, dilation)
    if ho < 1 or wo < 1:
        raise ConfigError(f"conv2d output extent {ho}x{wo} is empty for input {h}x{wdt}")
    pg = dilation * (k - 1) - padding  # the upstream gradient's pad at stride 1

    if depthwise:
        xp = _padded(x.data, padding)
        acc = _depthwise_taps(xp, w.data, ho, wo, dilation)
        acc += b.data
        out = acc.transpose(0, 3, 1, 2)

        def vjp_depthwise(g):
            gx = None
            if x.requires_grad:
                gx = _depthwise_taps(_padded(g, pg), w.data[::-1, ::-1], h, wdt,
                                     dilation).transpose(0, 3, 1, 2)
            grows = g.transpose(0, 2, 3, 1).reshape(bsz, ho, wo * cout)
            taps = _taps(xp, k, ho, wo, dilation)
            gw = np.empty((k, k, cout), dtype=w.data.dtype)
            for i, j in itertools.product(range(k), range(k)):
                gw[i, j] = np.einsum("bhk,bhk->k", grows, taps[i, j]).reshape(wo, cin).sum(axis=0)
            gb = _ones(bsz * ho * wo, g.dtype) @ grows.reshape(-1, cout)
            return gx, gw.reshape(w.shape), gb

        return _node(out, (x, w, b), vjp_depthwise)

    rows = bsz * ho * wo
    cols = _im2col(x.data, k, stride, padding, dilation, ho, wo).reshape(rows, -1)
    out_m = cols @ w.data.reshape(-1, cout)
    out_m += b.data
    out = out_m.reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2)

    def vjp(g):
        g_rows = g.transpose(0, 2, 3, 1).reshape(rows, cout)
        gx = (_phase_gemm(g, w.data, stride, padding, dilation, h, wdt)
              if x.requires_grad else None)
        return gx, (cols.T @ g_rows).reshape(w.shape), _ones(rows, g.dtype) @ g_rows

    return _node(out, (x, w, b), vjp)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Transposed 2D convolution with stride = kernel and no padding, plus a
    per-channel bias.  x: B,Cin,H,W; w: (Cin,k,k,Cout), square as
    ``conv2d``'s (ConfigError otherwise), so its (Cin, k*k*Cout) matrix is a
    view; b: Cout; output B,Cout,H*k,W*k.  One GEMM of the channel-last
    pixels with that matrix, then one depth-to-space copy into a
    (B,H,k,W,k,Cout) buffer that keeps channels innermost (sub-pixel
    convolution, Shi et al. 2016, arXiv:1609.05158), then the bias.  The
    output and the input gradient are channel-last views."""
    if _reuse is not None:
        return _reuse.call(conv_transpose2d, x, w, b)
    bsz, cin, h, wdt = x.shape
    cin_w, k, kw, cout = w.shape
    if k != kw:
        raise ConfigError(f"conv_transpose2d takes square kernels only, got {k}x{kw}")
    if cin_w != cin:
        raise ShapeError(f"conv_transpose2d expects {cin_w} in-channels, got {cin}")
    rows = bsz * h * wdt
    x_m = x.data.transpose(0, 2, 3, 1).reshape(rows, cin)
    w_m = w.data.reshape(cin, k * k * cout)
    out = (x_m @ w_m).reshape(bsz, h, wdt, k, k, cout).transpose(0, 1, 3, 2, 4, 5)
    out = out.reshape(bsz, h * k, wdt * k, cout)
    out += b.data

    def vjp(g):
        g_m = g.transpose(0, 2, 3, 1).reshape(bsz, h, k, wdt, k, cout) \
            .transpose(0, 1, 3, 2, 4, 5).reshape(rows, k * k * cout)
        gx = (g_m @ w_m.T).reshape(bsz, h, wdt, cin).transpose(0, 3, 1, 2)
        gw = (x_m.T @ g_m).reshape(w.shape)
        return gx, gw, _ones(rows * k * k, g.dtype) @ g_m.reshape(-1, cout)

    return _node(out.transpose(0, 3, 1, 2), (x, w, b), vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: B,C,H,W -> B,C,1,1, as one tape node; the
    input gradient is a channel-last view."""
    if _reuse is not None:
        return _reuse.call(global_avg_pool, x)
    b, c, h, w = x.shape
    scale = x.data.dtype.type(1.0 / (h * w))
    out = x.data.sum(axis=(2, 3), keepdims=True)
    out *= scale
    return _node(out, (x,), lambda g: (np.broadcast_to(
        (g * scale).reshape(b, 1, 1, c), (b, h, w, c)).copy().transpose(0, 3, 1, 2),))


# ---------------------------------------------------------------------------
# resizing

@functools.lru_cache(maxsize=None)
def _resize_matrix(n_in: int, n_out: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (n_out, n_in) bilinear interpolation matrix of one axis: each
    row lerps the two inputs beside its align_corners=False source point."""
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
    m.flags.writeable = False
    return m


def bilinear_resize(x: Tensor, h2: int, w2: int) -> Tensor:
    """Differentiable bilinear resize of a B,C,H,W map to B,C,h2,w2, H then W,
    over channel-last rows; the output and the input gradient are
    channel-last views."""
    if _reuse is not None:
        return _reuse.call(bilinear_resize, x, h2, w2)
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

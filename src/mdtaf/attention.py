"""Multi-dimension transformer block.

Branches over a token sequence B,N,C at spatial size H x W:

* ESA: token self-attention with keys/values spatially reduced by a factor R
  via reshape(N/R, C*R) + linear(C*R -> C).
* SSA: windowed multi-head attention with a learnable relative position bias.
* CSA: attention over the channel axis with a learnable per-head temperature.

SSA and CSA share one interaction path after the core: the merged attention
output and a 3x3 depthwise-conv local branch gate each other through a spatial
and a channel gate (roles swapped between SSA and CSA), projected onto the
residual.

Block output: MLP applied to Y_E + 0.6 * Y_S + 0.4 * Y_C (fixed weights).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (conv, init_conv, init_linear, init_token_norm, linear,
                     map_to_tokens, token_norm, tokens_to_map)
from .params import Initializer, ParamStore
from .tensor import ConfigError, ShapeError, Tensor

LAMBDA_SPATIAL = 0.6
LAMBDA_CHANNEL = 0.4
ALPHA_MIN = 1e-4


@dataclass(frozen=True)
class AttentionConfig:
    channels: int
    heads: int
    reduction: int = 1
    window: int = 8
    r1: int = 8
    r2: int = 8

    def __post_init__(self):
        for name in ("channels", "heads", "reduction", "window", "r1", "r2"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} {getattr(self, name)} is not positive")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.channels % self.r1 or self.channels % self.r2:
            raise ConfigError(f"channels {self.channels} not divisible by gate ratios "
                              f"r1={self.r1}, r2={self.r2}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


@dataclass(frozen=True)
class BlockConfig:
    attn: AttentionConfig
    mlp_ratio: int = 4
    msa: bool = True


# ---------------------------------------------------------------------------
# window rearrangement

def window_partition(x: Tensor, w: int, h: int, wd: int, heads: int = 1) -> Tensor:
    """Row-major B,N,C tokens of an h x wd map -> (B*h/w*wd/w), heads, w*w, C/heads
    in one node: the head split windows :func:`tensor.attention` reads, row-major."""
    b, n, c = x.shape
    if n != h * wd:
        raise ShapeError(f"token count {n} != {h}x{wd}")
    if h % w or wd % w:
        raise ConfigError(f"window size {w} does not divide spatial extent {h}x{wd}")
    return T.rearrange(x, (b * (h // w) * (wd // w), heads, w * w, c // heads),
                       axes=(0, 1, 3, 5, 2, 4, 6),
                       split=(b, h // w, w, wd // w, w, heads, c // heads))


def window_merge(x: Tensor, w: int, h: int, wd: int) -> Tensor:
    """Exact inverse of :func:`window_partition`, back to B,N,C tokens in one node."""
    _, heads, _, d = x.shape  # -1: the batch, the window count over windows per map
    return T.rearrange(x, (-1, h * wd, heads * d), axes=(0, 1, 4, 2, 5, 3, 6),
                       split=(-1, h // w, wd // w, heads, w, w, d))


@functools.lru_cache(maxsize=None)
def relative_position_index(w: int) -> np.ndarray:
    """(w^2, w^2) indices into a (2w-1)^2 relative-offset bias table.

    A constant of the window size, so it is built once per size and shared
    read-only.
    """
    coords = np.stack(np.meshgrid(np.arange(w), np.arange(w), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, 2)
    rel = coords[:, None, :] - coords[None, :, :] + (w - 1)
    idx = rel[..., 0] * (2 * w - 1) + rel[..., 1]
    idx.flags.writeable = False
    return idx


# ---------------------------------------------------------------------------
# heads

def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, n, c = x.shape
    return T.rearrange(x, (b, heads, n, c // heads), axes=(0, 2, 1, 3),
                       split=(b, n, heads, c // heads))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, n, d = x.shape
    return T.rearrange(x, (b, n, h * d), axes=(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# efficient self-attention

def init_esa(store: ParamStore, init: Initializer, prefix: str, cfg: AttentionConfig):
    # The key path has no bias: it would add one constant to every score of a
    # query, which the softmax removes (Namazifar et al., "Role of Bias Terms
    # in Dot-Product Attention", ICASSP 2023).  A query bias b moves score j by
    # b.k_j and a value bias shifts the output, so those stay.
    c, r = cfg.channels, cfg.reduction
    for name in ("wq", "wk", "wv", "proj"):
        init_linear(store, init, f"{prefix}.{name}", c, c, bias=name != "wk")
    init_linear(store, init, f"{prefix}.kr", c * r, c, bias=False)
    init_linear(store, init, f"{prefix}.vr", c * r, c)


def efficient_self_attention(x: Tensor, cfg: AttentionConfig, params: ParamStore,
                             prefix: str, residual: Tensor | None = None) -> Tensor:
    b, n, c = x.shape
    r = cfg.reduction
    if n % r:
        raise ConfigError(f"token count {n} not divisible by ESA reduction {r}")
    if residual is None:
        residual = x

    q = linear(params, f"{prefix}.wq", x)
    k = linear(params, f"{prefix}.wk", x)
    v = linear(params, f"{prefix}.wv", x)
    # spatial reduction: N x C -> N/R x (C*R) -> N/R x C
    k = linear(params, f"{prefix}.kr", T.rearrange(k, (b, n // r, c * r)))
    v = linear(params, f"{prefix}.vr", T.rearrange(v, (b, n // r, c * r)))

    qh, kh, vh = (_split_heads(t, cfg.heads) for t in (q, k, v))
    y = _merge_heads(T.attention(qh, kh, vh, 1.0 / np.sqrt(cfg.head_dim)))
    return linear(params, f"{prefix}.proj", y) + residual


# ---------------------------------------------------------------------------
# interaction gates

def init_interact_spatial(store: ParamStore, init: Initializer, prefix: str,
                          c: int, r1: int):
    init_conv(store, init, f"{prefix}.sp1", c, c // r1, 1)
    init_conv(store, init, f"{prefix}.sp2", c // r1, 1, 1)


def interact_spatial(x1: Tensor, x2: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """x1 gated by a per-pixel map derived from x2 (one channel, broadcast)."""
    if x1.shape != x2.shape:
        raise ShapeError(f"interact_spatial shape mismatch: {x1.shape} vs {x2.shape}")
    g = T.gelu(conv(params, f"{prefix}.sp1", x2))
    g = T.sigmoid(conv(params, f"{prefix}.sp2", g))
    return x1 * g


def init_interact_channel(store: ParamStore, init: Initializer, prefix: str,
                          c: int, r2: int):
    init_conv(store, init, f"{prefix}.ch1", c, c // r2, 1)
    init_conv(store, init, f"{prefix}.ch2", c // r2, c, 1)


def interact_channel(x1: Tensor, x2: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """x1 gated by a per-channel vector derived from pooled x2."""
    if x1.shape != x2.shape:
        raise ShapeError(f"interact_channel shape mismatch: {x1.shape} vs {x2.shape}")
    g = T.gelu(conv(params, f"{prefix}.ch1", T.global_avg_pool(x2)))
    g = T.sigmoid(conv(params, f"{prefix}.ch2", g))
    return x1 * g


# ---------------------------------------------------------------------------
# the branch shared by SSA and CSA around their attention cores

def _init_interaction_branch(store: ParamStore, init: Initializer, prefix: str,
                             cfg: AttentionConfig, core_name: str, core: np.ndarray):
    """q/k/v, the core's one parameter, merge, local conv, gates, merge_out."""
    c = cfg.channels
    for name in ("wq", "wk", "wv"):
        init_linear(store, init, f"{prefix}.{name}", c, c, bias=False)
    store.add(f"{prefix}.{core_name}", core)
    init_linear(store, init, f"{prefix}.merge", c, c, bias=False)
    init_conv(store, init, f"{prefix}.local", c, c, 3, groups=c)
    init_interact_spatial(store, init, f"{prefix}.gate_s", c, cfg.r1)
    init_interact_channel(store, init, f"{prefix}.gate_c", c, cfg.r2)
    init_linear(store, init, f"{prefix}.merge_out", c, c, bias=False)


def _interact_and_merge(y: Tensor, x: Tensor, h: int, w: int, params: ParamStore,
                        prefix: str, attn_gate: str, residual: Tensor | None) -> Tensor:
    """Merge the attention output ``y``; gate its map by ``attn_gate`` of the
    local branch of ``x`` and the local branch by the other gate of the map;
    project the sum and add the residual (``x`` by default)."""
    gates = {"gate_s": interact_spatial, "gate_c": interact_channel}
    local_gate = "gate_c" if attn_gate == "gate_s" else "gate_s"
    y = linear(params, f"{prefix}.merge", y)
    local = T.gelu(conv(params, f"{prefix}.local", tokens_to_map(x, h, w), padding=1))
    y_map = tokens_to_map(y, h, w)
    fused = gates[attn_gate](y_map, local, params, f"{prefix}.{attn_gate}") \
        + gates[local_gate](local, y_map, params, f"{prefix}.{local_gate}")
    out = linear(params, f"{prefix}.merge_out", map_to_tokens(fused))
    return out + (x if residual is None else residual)


# ---------------------------------------------------------------------------
# spatial self-attention

def init_ssa(store: ParamStore, init: Initializer, prefix: str, cfg: AttentionConfig):
    _init_interaction_branch(store, init, prefix, cfg, "rel_pos_bias",
                             init.zeros(((2 * cfg.window - 1) ** 2, cfg.heads)))


def spatial_self_attention(x: Tensor, h: int, w: int, cfg: AttentionConfig,
                           params: ParamStore, prefix: str,
                           residual: Tensor | None = None) -> Tensor:
    """Multi-head attention within ``cfg.window`` windows plus a learnable
    relative-position bias per head (the Swin form); the window layout is one
    node each way and the bias one gather of its table."""
    win, heads = cfg.window, cfg.heads

    q, k, v = (linear(params, f"{prefix}.{name}", x) for name in ("wq", "wk", "wv"))
    qw, kw, vw = (window_partition(t, win, h, w, heads) for t in (q, k, v))

    # (heads, w*w, w*w): entry [g, i, j] is table[index[i, j], g]
    bias = T.getitem(params[f"{prefix}.rel_pos_bias"],
                     (relative_position_index(win), np.arange(heads)[:, None, None]))
    yw = T.attention(qw, kw, vw, 1.0 / np.sqrt(cfg.head_dim), bias)
    # passed unnamed, so the windowed output is freed once it is merged
    return _interact_and_merge(window_merge(yw, win, h, w), x, h, w, params, prefix,
                               "gate_c", residual)


# ---------------------------------------------------------------------------
# channel self-attention

def init_csa(store: ParamStore, init: Initializer, prefix: str, cfg: AttentionConfig):
    _init_interaction_branch(store, init, prefix, cfg, "alpha", init.ones((cfg.heads,)))


def channel_self_attention(x: Tensor, h: int, w: int, cfg: AttentionConfig,
                           params: ParamStore, prefix: str,
                           residual: Tensor | None = None) -> Tensor:
    b, n, _ = x.shape
    # q straight to its (b, heads, d, n) Gram form; its linear still runs first
    qt = T.rearrange(linear(params, f"{prefix}.wq", x), (b, cfg.heads, cfg.head_dim, n),
                     axes=(0, 2, 3, 1), split=(b, n, cfg.heads, cfg.head_dim))
    kh = _split_heads(linear(params, f"{prefix}.wk", x), cfg.heads)
    vh = _split_heads(linear(params, f"{prefix}.wv", x), cfg.heads)

    alpha = T.rearrange(params[f"{prefix}.alpha"], (1, cfg.heads, 1, 1))
    # (d x d) Gram attention over channels, softmax along the last channel axis
    gram = T.matmul(qt, kh) / alpha
    attn = T.softmax(gram)
    y = _merge_heads(T.matmul(vh, attn))
    return _interact_and_merge(y, x, h, w, params, prefix, "gate_s", residual)


# ---------------------------------------------------------------------------
# full block

def combine_branches(y_esa: Tensor, y_ssa: Tensor, y_csa: Tensor) -> Tensor:
    """Fixed-weight fusion feeding the MLP: Y_E + 0.6*Y_S + 0.4*Y_C."""
    return y_esa + LAMBDA_SPATIAL * y_ssa + LAMBDA_CHANNEL * y_csa


def init_mdt_block(store: ParamStore, init: Initializer, prefix: str, cfg: BlockConfig):
    c = cfg.attn.channels
    init_token_norm(store, init, f"{prefix}.norm1", c)
    init_esa(store, init, f"{prefix}.esa", cfg.attn)
    if cfg.msa:
        init_ssa(store, init, f"{prefix}.ssa", cfg.attn)
        init_csa(store, init, f"{prefix}.csa", cfg.attn)
    init_token_norm(store, init, f"{prefix}.norm2", c)
    init_linear(store, init, f"{prefix}.mlp.fc1", c, c * cfg.mlp_ratio)
    init_linear(store, init, f"{prefix}.mlp.fc2", c * cfg.mlp_ratio, c)


def mdt_block(x: Tensor, h: int, w: int, cfg: BlockConfig, params: ParamStore,
              prefix: str) -> Tensor:
    """Pre-norm block: branch residuals add the raw input, so zeroed
    projections collapse the whole block to MLP(norm(2x)) + 2x."""
    xn = token_norm(params, f"{prefix}.norm1", x)
    y_e = efficient_self_attention(xn, cfg.attn, params, f"{prefix}.esa", residual=x)
    if cfg.msa:
        y_s = spatial_self_attention(xn, h, w, cfg.attn, params, f"{prefix}.ssa", residual=x)
        y_c = channel_self_attention(xn, h, w, cfg.attn, params, f"{prefix}.csa", residual=x)
        z = combine_branches(y_e, y_s, y_c)
    else:
        z = y_e
    m = linear(params, f"{prefix}.mlp.fc1", token_norm(params, f"{prefix}.norm2", z))
    m = linear(params, f"{prefix}.mlp.fc2", T.gelu(m))
    return m + z

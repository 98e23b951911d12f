"""Overlap patch embedding with a parallel attention-based filtering branch.

The embedding branch is a strided convolution producing coarse features F1.
The filtering branch runs at the same output resolution and produces a
single-channel sigmoid gate A that multiplies every channel of F1.  The
branch pipeline: 1x1 entry conv to 40 channels -> depthwise 3x3 conv ->
three dilated convs over channel slices 8/16/16 (dilations 1/2/3) ->
two regularizing 3x3 convs -> small hourglass encoder-decoder ->
1x1 compression to one channel -> sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .layers import (channel_norm, conv, deconv, init_channel_norm, init_conv,
                     init_deconv, map_to_tokens)
from .params import Initializer, ParamStore
from .tensor import ConfigError, ShapeError, Tensor

FILTER_CHANNELS = 40
FILTER_SPLITS = (8, 16, 16)
FILTER_DILATIONS = (1, 2, 3)
HOURGLASS_CHANNELS = 64


@dataclass(frozen=True)
class PatchEmbedConfig:
    kernel: int
    stride: int
    padding: int
    in_channels: int
    out_channels: int

    @staticmethod
    def stage1(in_channels: int, out_channels: int) -> "PatchEmbedConfig":
        return PatchEmbedConfig(7, 4, 3, in_channels, out_channels)

    @staticmethod
    def later_stage(in_channels: int, out_channels: int) -> "PatchEmbedConfig":
        return PatchEmbedConfig(3, 2, 1, in_channels, out_channels)


def init_patch_embed(store: ParamStore, init: Initializer, prefix: str,
                     cfg: PatchEmbedConfig, filtering: bool = True):
    init_conv(store, init, f"{prefix}.proj", cfg.in_channels, cfg.out_channels, cfg.kernel)
    init_channel_norm(store, init, f"{prefix}.norm", cfg.out_channels)
    if filtering:
        init_filter_branch(store, init, f"{prefix}.filter", cfg.in_channels)


def init_filter_branch(store: ParamStore, init: Initializer, prefix: str, in_channels: int):
    fc, hc = FILTER_CHANNELS, HOURGLASS_CHANNELS
    init_conv(store, init, f"{prefix}.entry", in_channels, fc, 1)
    init_channel_norm(store, init, f"{prefix}.entry_norm", fc)
    init_conv(store, init, f"{prefix}.gwc", fc, fc, 3, groups=fc)
    init_channel_norm(store, init, f"{prefix}.gwc_norm", fc)
    for lvl, width in enumerate(FILTER_SPLITS, start=1):
        init_conv(store, init, f"{prefix}.pyramid{lvl}", width, width, 3)
        init_channel_norm(store, init, f"{prefix}.pyramid{lvl}_norm", width)
    for i in (1, 2):
        init_conv(store, init, f"{prefix}.reg{i}", fc, fc, 3)
        init_channel_norm(store, init, f"{prefix}.reg{i}_norm", fc)
    init_conv(store, init, f"{prefix}.hg.down1", fc, hc, 3)
    init_channel_norm(store, init, f"{prefix}.hg.down1_norm", hc)
    init_conv(store, init, f"{prefix}.hg.down2", hc, hc, 3)
    init_channel_norm(store, init, f"{prefix}.hg.down2_norm", hc)
    init_deconv(store, init, f"{prefix}.hg.up1", hc, hc, 2)
    init_channel_norm(store, init, f"{prefix}.hg.up1_norm", hc)
    init_deconv(store, init, f"{prefix}.hg.up2", hc, fc, 2)
    init_conv(store, init, f"{prefix}.compress", fc, 1, 1)


def overlap_patch_embed(x: Tensor, cfg: PatchEmbedConfig, params: ParamStore,
                        prefix: str) -> Tensor:
    """Strided embedding conv + channel layer norm, giving coarse features F1."""
    f1 = conv(params, f"{prefix}.proj", x, stride=cfg.stride, padding=cfg.padding)
    return channel_norm(params, f"{prefix}.norm", f1)


def dilated_pyramid(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Three dilated convs over the 8/16/16 channel slices, re-concatenated."""
    if x.shape[1] != FILTER_CHANNELS:
        raise ShapeError(f"dilated_pyramid expects {FILTER_CHANNELS} channels, got {x.shape[1]}")
    outs = []
    lo = 0
    for lvl, (width, dil) in enumerate(zip(FILTER_SPLITS, FILTER_DILATIONS), start=1):
        piece = x[:, lo:lo + width]
        y = conv(params, f"{prefix}.pyramid{lvl}", piece, padding=dil, dilation=dil)
        y = T.gelu(channel_norm(params, f"{prefix}.pyramid{lvl}_norm", y))
        outs.append(y)
        lo += width
    return T.concat(outs, axis=1)


def hourglass2d(v: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Two stride-2 down convs, two transposed convs up, additive skips.

    Requires the spatial extent to be divisible by 4; callers pad beforehand.
    """
    _, c, h, w = v.shape
    if h % 4 or w % 4:
        raise ConfigError(f"hourglass2d needs spatial extents divisible by 4, got {h}x{w}")
    d1 = conv(params, f"{prefix}.down1", v, stride=2, padding=1)
    d1 = T.gelu(channel_norm(params, f"{prefix}.down1_norm", d1))
    d2 = conv(params, f"{prefix}.down2", d1, stride=2, padding=1)
    d2 = T.gelu(channel_norm(params, f"{prefix}.down2_norm", d2))
    u1 = deconv(params, f"{prefix}.up1", d2)
    u1 = T.gelu(channel_norm(params, f"{prefix}.up1_norm", u1)) + d1
    return deconv(params, f"{prefix}.up2", u1)


def attention_weights(x: Tensor, cfg: PatchEmbedConfig, params: ParamStore,
                      prefix: str) -> Tensor:
    """Single-channel gate A in (0,1) at the embedding's output resolution."""
    xr = conv(params, f"{prefix}.entry", x, stride=cfg.stride)
    xr = T.gelu(channel_norm(params, f"{prefix}.entry_norm", xr))
    xg = conv(params, f"{prefix}.gwc", xr, padding=1)
    xg = T.gelu(channel_norm(params, f"{prefix}.gwc_norm", xg))
    v = dilated_pyramid(xg, params, prefix)
    for i in (1, 2):
        v = conv(params, f"{prefix}.reg{i}", v, padding=1)
        v = T.gelu(channel_norm(params, f"{prefix}.reg{i}_norm", v))
    h, w = v.shape[2], v.shape[3]
    ph, pw = (-h) % 4, (-w) % 4
    v = T.pad_bottom_right(v, ph, pw)
    v = hourglass2d(v, params, f"{prefix}.hg")
    if ph or pw:
        v = v[:, :, :h, :w]
    a = conv(params, f"{prefix}.compress", v)
    return T.sigmoid(a)


def filtered_embed(x: Tensor, cfg: PatchEmbedConfig, params: ParamStore,
                   prefix: str, filtering: bool = True):
    """Gated patch tokens: returns (tokens B,N,Cout, h, w) at stride S.

    With ``filtering=False`` the gate branch is bypassed entirely (the "PE"
    ablation) and the plain embedding is tokenized.
    """
    f1 = overlap_patch_embed(x, cfg, params, prefix)
    if filtering:
        a = attention_weights(x, cfg, params, f"{prefix}.filter")
        f1 = f1 * a  # one-channel gate broadcast across all channels
    h, w = f1.shape[2], f1.shape[3]
    return map_to_tokens(f1), h, w

"""Four-stage encoder + all-MLP decoder assembly, parameter init, checkpoints.

Stages downsample by [4, 2, 2, 2] (feature strides 4/8/16/32).  Each stage is
a filtered patch embedding followed by a stack of multi-dimension transformer
blocks.  The decoder projects every stage to a shared width, resizes to
stride-4 resolution, fuses, and predicts per-pixel logits at input size.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, BlockConfig, init_mdt_block, mdt_block
from .filter_embed import PatchEmbedConfig, filtered_embed, init_patch_embed
from .layers import init_linear, linear, map_to_tokens, tokens_to_map
from .params import Initializer, ParamStore
from .tensor import ShapeError, Tensor

CHECKPOINT_MAGIC = b"MDTAF"
CHECKPOINT_VERSION = b"001"


@dataclass(frozen=True)
class ModelConfig:
    input_channels: int = 3
    stage_channels: tuple = (64, 128, 320, 512)
    stage_depths: tuple = (2, 2, 2, 2)
    heads: tuple = (1, 2, 5, 8)
    esa_reduction: tuple = (8, 4, 2, 1)
    window: tuple = (8, 8, 8, 8)
    r1: int = 8
    r2: int = 8
    mlp_ratio: int = 4
    decoder_dim: int = 256
    num_classes: int = 1
    filtering: bool = True
    msa: bool = True

    def embed_config(self, stage: int) -> PatchEmbedConfig:
        cin = self.input_channels if stage == 0 else self.stage_channels[stage - 1]
        cout = self.stage_channels[stage]
        if stage == 0:
            return PatchEmbedConfig.stage1(cin, cout)
        return PatchEmbedConfig.later_stage(cin, cout)

    def block_config(self, stage: int) -> BlockConfig:
        attn = AttentionConfig(channels=self.stage_channels[stage],
                               heads=self.heads[stage],
                               reduction=self.esa_reduction[stage],
                               window=self.window[stage],
                               r1=self.r1, r2=self.r2)
        return BlockConfig(attn=attn, mlp_ratio=self.mlp_ratio, msa=self.msa)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Inverse of ``to_dict`` for a checkpoint's config.  A missing or
        unknown key raises :class:`CheckpointCorruptError`.  ``eq17_literal``,
        a removed block variant without the MLP residual, is accepted while
        false, because checkpoints written before its removal hold it."""
        if not isinstance(d, dict):
            raise CheckpointCorruptError(f"checkpoint config is a {type(d).__name__}, not an object")
        d = dict(d)
        if d.pop("eq17_literal", False) is not False:
            raise CheckpointCorruptError("checkpoint config sets eq17_literal, a removed block variant")
        fields = {f.name for f in dataclasses.fields(ModelConfig)}
        bad = sorted(set(d) ^ fields)
        if bad:
            what = "lacks" if bad[0] in fields else "has unknown"
            raise CheckpointCorruptError(f"checkpoint config {what} key {bad[0]!r}")
        tup = {"stage_channels", "stage_depths", "heads", "esa_reduction", "window"}
        for k in sorted(tup):
            if not isinstance(d[k], (list, tuple)):
                raise CheckpointCorruptError(f"checkpoint config key {k!r} is not a list")
        kw = {k: (tuple(v) if k in tup else v) for k, v in d.items()}
        return ModelConfig(**kw)


def default_config(**overrides) -> ModelConfig:
    return dataclasses.replace(ModelConfig(), **overrides)


def desk_config(**overrides) -> ModelConfig:
    """CPU-minutes preset: every mechanism intact, channels/depths shrunk.

    Not a published configuration; exists so training and verification run
    on a desk machine.
    """
    cfg = ModelConfig(input_channels=1,
                      stage_channels=(16, 32, 40, 64),
                      stage_depths=(1, 1, 1, 1),
                      heads=(1, 2, 5, 8),
                      esa_reduction=(4, 4, 2, 1),
                      window=(8, 4, 2, 2),
                      decoder_dim=64)
    return dataclasses.replace(cfg, **overrides)


def tiny_config(**overrides) -> ModelConfig:
    """Smallest config that exercises every code path; used for grad checks."""
    cfg = ModelConfig(input_channels=1,
                      stage_channels=(8, 16, 20, 32),
                      stage_depths=(1, 1, 1, 1),
                      heads=(1, 2, 5, 8),
                      esa_reduction=(2, 1, 1, 1),
                      window=(2, 2, 1, 1),
                      r1=4, r2=4, mlp_ratio=2,
                      decoder_dim=16)
    return dataclasses.replace(cfg, **overrides)


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamStore:
    """Deterministic store: truncated normal(0, 0.02) weights, zero biases,
    zero position-bias tables, per-head temperatures at 1.0."""
    store = ParamStore()
    _init_into(store, Initializer(seed), cfg)
    return store


def _init_into(store, init, cfg: ModelConfig):
    """Add every parameter of ``cfg`` to ``store``, in order, with values from ``init``."""
    for i in range(4):
        prefix = f"stage{i + 1}"
        init_patch_embed(store, init, f"{prefix}.embed", cfg.embed_config(i),
                         filtering=cfg.filtering)
        bcfg = cfg.block_config(i)
        for j in range(cfg.stage_depths[i]):
            init_mdt_block(store, init, f"{prefix}.block{j + 1}", bcfg)
    for i in range(4):
        init_linear(store, init, f"decoder.proj{i + 1}", cfg.stage_channels[i], cfg.decoder_dim)
    init_linear(store, init, "decoder.fuse", 4 * cfg.decoder_dim, cfg.decoder_dim)
    init_linear(store, init, "decoder.head", cfg.decoder_dim, cfg.num_classes)


class _ShapeRecorder:
    """Stands in for both the store and the initializer of :func:`_init_into`:
    it records each parameter's name and shape and allocates nothing."""

    def __init__(self):
        self.shapes: dict = {}

    def add(self, name: str, shape: tuple):
        self.shapes[name] = shape

    def trunc_normal(self, shape: tuple) -> tuple:
        return tuple(shape)

    zeros = ones = trunc_normal


def _run_stage(x: Tensor, stage: int, cfg: ModelConfig, params: ParamStore) -> Tensor:
    prefix = f"stage{stage + 1}"
    tokens, h, w = filtered_embed(x, cfg.embed_config(stage), params,
                                  f"{prefix}.embed", filtering=cfg.filtering)
    bcfg = cfg.block_config(stage)
    win = bcfg.attn.window
    ph, pw = (-h) % win, (-w) % win
    hp, wp = h + ph, w + pw
    if ph or pw:
        # align to the window grid for the block stack, crop back after
        tokens = map_to_tokens(T.pad_bottom_right(tokens_to_map(tokens, h, w), ph, pw))
    for j in range(cfg.stage_depths[stage]):
        tokens = mdt_block(tokens, hp, wp, bcfg, params, f"{prefix}.block{j + 1}")
    fmap = tokens_to_map(tokens, hp, wp)
    if ph or pw:
        fmap = fmap[:, :, :h, :w]
    return fmap


def encoder_forward(image: Tensor, cfg: ModelConfig, params: ParamStore) -> list:
    """Features at strides 4/8/16/32 with the configured stage channels."""
    if image.shape[1] != cfg.input_channels:
        raise ShapeError(f"expected {cfg.input_channels} input channels, got {image.shape[1]}")
    features = []
    x = image
    for i in range(4):
        x = _run_stage(x, i, cfg, params)
        features.append(x)
    return features


def mlp_decoder(features: list, cfg: ModelConfig, params: ParamStore,
                out_hw: tuple | None = None) -> Tensor:
    """Fuse the four stage features into logits at ``out_hw`` resolution.

    SegFormer's all-MLP head (Xie et al. 2021, arXiv:2105.15203) projects each
    stage to ``decoder_dim`` D, resizes it to stride 4, concatenates the four
    maps and fuses them with one linear layer.  The fuse layer mixes channels
    and the resize mixes pixels, so the two commute: here each stage meets
    its own D rows W_i of the fuse weight before its resize, and the four
    results are summed, ``gelu(sum_i resize_i(proj_i(f_i) @ W_i) + b)``.  That
    equals the concat form in real arithmetic; the concat is never built, and
    the fuse GEMMs of stages 2-4 run at their own, lower resolution.
    """
    if len(features) != 4:
        raise ShapeError(f"decoder expects 4 stage features, got {len(features)}")
    h1, w1 = features[0].shape[2], features[0].shape[3]
    if out_hw is None:
        out_hw = (4 * h1, 4 * w1)
    d = cfg.decoder_dim
    fuse_w = params["decoder.fuse.weight"]
    fused = None
    for i, f in enumerate(features):
        t = linear(params, f"decoder.proj{i + 1}", map_to_tokens(f))
        # the fuse bias rides on stage 1, which needs no resize
        bias = params["decoder.fuse.bias"] if i == 0 else None
        t = T.linear(t, fuse_w[i * d:(i + 1) * d], bias)
        m = tokens_to_map(t, f.shape[2], f.shape[3])
        if (f.shape[2], f.shape[3]) != (h1, w1):
            m = T.bilinear_resize(m, h1, w1)
        fused = m if fused is None else fused + m
    fused = T.gelu(map_to_tokens(fused))
    logits = linear(params, "decoder.head", fused)
    logits = tokens_to_map(logits, h1, w1)
    if (h1, w1) != tuple(out_hw):
        logits = T.bilinear_resize(logits, out_hw[0], out_hw[1])
    return logits


def pad_to_multiple(image: Tensor, multiple: int = 32) -> Tensor:
    """Reflect-pad H and W at their high ends up to the next multiple: one
    gather on the tape, whether or not the image is tracked."""
    h, w = image.shape[2], image.shape[3]
    ph, pw = (-h) % multiple, (-w) % multiple
    if ph == 0 and pw == 0:
        return image
    rows = np.pad(np.arange(h), (0, ph), mode="reflect")
    cols = np.pad(np.arange(w), (0, pw), mode="reflect")
    return T.getitem(image, (slice(None), slice(None), rows[:, None], cols))


def model_forward(image: Tensor, cfg: ModelConfig, params: ParamStore) -> Tensor:
    """Full segmentation forward: logits with the input's spatial shape."""
    h, w = image.shape[2], image.shape[3]
    padded = pad_to_multiple(image)
    features = encoder_forward(padded, cfg, params)
    logits = mlp_decoder(features, cfg, params,
                         out_hw=(padded.shape[2], padded.shape[3]))
    if (logits.shape[2], logits.shape[3]) != (h, w):
        logits = logits[:, :, :h, :w]
    return logits


# ---------------------------------------------------------------------------
# checkpoint serialization

class CheckpointError(Exception):
    """Base class for checkpoint I/O failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


def save_checkpoint(params: ParamStore, cfg: ModelConfig, path: str):
    """Binary format: magic "MDTAF001", u64-length-prefixed JSON config,
    u64 tensor count, then per tensor: u64-prefixed name, u64 rank, u64
    extents, raw little-endian f32 data."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + CHECKPOINT_VERSION)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(struct.pack("<Q", len(params)))
        for name, t in params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<Q", len(nb)))
            f.write(nb)
            f.write(struct.pack("<Q", t.ndim))
            for ext in t.shape:
                f.write(struct.pack("<Q", ext))
            f.write(t.data.astype("<f4", copy=False).tobytes())


def _read_exact(f, n: int, what: str, end: int) -> bytes:
    """Read ``n`` bytes; ``end`` is the file size, checked before reading so
    that a corrupt length never becomes a huge allocation."""
    if n > end - f.tell():
        raise CheckpointCorruptError(f"truncated checkpoint while reading {what}")
    return f.read(n)


def _read_count(f, what: str, end: int, unit: int = 1) -> int:
    """Read a u64 count of items that take at least ``unit`` bytes each and
    check that they fit in the bytes left."""
    (n,) = struct.unpack("<Q", _read_exact(f, 8, what, end))
    left = end - f.tell()
    if n * unit > left:
        raise CheckpointCorruptError(f"{what} {n} does not fit in the {left} bytes left")
    return n


def load_checkpoint(path: str):
    """Load (params, cfg).  The stored tensor names and shapes must be the
    ones the stored config describes, else :class:`CheckpointShapeError`."""
    try:
        f = open(path, "rb")
    except FileNotFoundError as e:
        raise CheckpointError(f"checkpoint not found: {path}") from e
    with f:
        end = os.fstat(f.fileno()).st_size
        magic = _read_exact(f, 5, "magic", end)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version = _read_exact(f, 3, "version", end)
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(f"unsupported checkpoint version {version!r}")
        blob_len = _read_count(f, "config length", end)
        try:
            blob = json.loads(_read_exact(f, blob_len, "config", end))
        except ValueError as e:  # bad JSON or bad UTF-8
            raise CheckpointCorruptError(f"checkpoint config is not JSON: {e}") from e
        cfg = ModelConfig.from_dict(blob)
        want = _ShapeRecorder()
        try:
            _init_into(want, want, cfg)
        except (ValueError, TypeError, LookupError, ArithmeticError) as e:
            raise CheckpointCorruptError(f"checkpoint config describes no model: {e}") from e
        # every tensor needs at least its name length and its rank
        count = _read_count(f, "tensor count", end, unit=16)
        store = ParamStore()
        for _ in range(count):
            nlen = _read_count(f, "name length", end)
            try:
                name = _read_exact(f, nlen, "name", end).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointCorruptError(f"tensor name is not UTF-8: {e}") from e
            if name in store:
                raise CheckpointCorruptError(f"duplicate tensor name {name!r}")
            rank = _read_count(f, "rank", end, unit=8)
            shape = tuple(_read_count(f, "extent", end) for _ in range(rank))
            raw = _read_exact(f, 4 * math.prod(shape), f"data of {name}", end)
            store.add(name, np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
        if f.read(1):
            raise CheckpointCorruptError("trailing bytes after last tensor")

    if store.names() != list(want.shapes):
        differ = sorted(set(want.shapes) ^ set(store.names()))
        raise CheckpointShapeError(f"parameter names differ from config: {differ[:5]}")
    for name, shape in want.shapes.items():
        if store[name].shape != shape:
            raise CheckpointShapeError(
                f"tensor {name}: checkpoint shape {store[name].shape}, "
                f"config expects {shape}")
    return store, cfg

"""Synthetic segmentation data with a controllable signal-to-noise ratio,
plus a generic loader for image/mask directories.

Files are binary PPM (P6, color) / PGM (P5, gray), maxval 255 -- parseable
anywhere without a decoder dependency.  A JSON-lines manifest ties images to
masks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tensor, bilinear_resize

FG_FRACTION_BOUNDS = (0.05, 0.40)
# Smallest image side per mask family: below it, a 300-draw probe accepted
# fewer than half of the masks, and at sides 0-1 none can meet the bounds.
MIN_SIZE = {"ellipses": 2, "blobs": 2, "lungs": 4}
MAX_DRAWS = 1000  # mask draws per sample before giving up


class DataError(Exception):
    """Malformed or inconsistent dataset files, or a sample that cannot be drawn."""


class SpecError(ValueError):
    """A :class:`SynthSpec` asks for data its mask family cannot produce."""


@dataclass
class SegSample:
    id: str
    image: np.ndarray  # C,H,W float32 in [0,1]
    mask: np.ndarray   # 1,H,W float32 in {0,1}


@dataclass(frozen=True)
class SynthSpec:
    size: int = 64
    count: int = 8
    family: str = "ellipses"  # ellipses | blobs | lungs
    fg_mean: float = 0.75
    bg_mean: float = 0.35
    noise_sigma: float = 0.15
    blur_radius: int = 1
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in MIN_SIZE:
            raise SpecError(f"unknown shape family {self.family!r}")
        if self.size < MIN_SIZE[self.family]:
            raise SpecError(f"size {self.size} is below {MIN_SIZE[self.family]}, the "
                            f"smallest at which {self.family} masks meet the foreground "
                            f"bounds {FG_FRACTION_BOUNDS}")
        if self.channels not in (1, 3):
            raise SpecError(f"channels {self.channels} is not 1 (PGM) or 3 (PPM)")
        if self.count < 1:
            raise SpecError(f"count {self.count} is not positive")
        for name in ("fg_mean", "bg_mean"):
            if not 0 <= getattr(self, name) <= 1:  # NaN fails too
                raise SpecError(f"{name} {getattr(self, name)} is outside [0, 1], "
                                f"the range a PNM pixel stores")
        if not self.noise_sigma >= 0:
            raise SpecError(f"noise_sigma {self.noise_sigma} is negative")
        if self.blur_radius < 0:
            raise SpecError(f"blur_radius {self.blur_radius} is negative")

    @property
    def snr(self) -> Optional[float]:
        if self.noise_sigma == 0:
            return None
        return abs(self.fg_mean - self.bg_mean) / self.noise_sigma


# ---------------------------------------------------------------------------
# PGM / PPM I/O

def write_pnm(path: str, arr: np.ndarray):
    """arr: uint8 H,W (P5) or H,W,3 (P6)."""
    if arr.dtype != np.uint8:
        raise DataError(f"write_pnm expects uint8, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise DataError(f"write_pnm expects HxW or HxWx3, got {arr.shape}")
    h, w = arr.shape[0], arr.shape[1]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(arr.tobytes())


def _read_token(f, path: str) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise DataError(f"{path}: truncated header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_int(f, path: str, what: str) -> int:
    """A header field: a decimal number of at most 9 digits."""
    tok = _read_token(f, path)
    if not tok.isdigit() or len(tok) > 9:
        raise DataError(f"{path}: {what} {tok[:16]!r} is not a number below 10^9")
    return int(tok)


def read_pnm(path: str) -> np.ndarray:
    """Returns uint8 H,W (from P5) or H,W,3 (from P6)."""
    try:
        f = open(path, "rb")
    except FileNotFoundError as e:
        raise DataError(f"missing file: {path}") from e
    with f:
        end = os.fstat(f.fileno()).st_size
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise DataError(f"{path}: bad magic {magic!r}, expected P5 or P6")
        w = _read_int(f, path, "width")
        h = _read_int(f, path, "height")
        maxval = _read_int(f, path, "maxval")
        if w < 1 or h < 1:
            raise DataError(f"{path}: empty image {w}x{h}")
        if maxval != 255:
            raise DataError(f"{path}: unsupported maxval {maxval}")
        ch = 3 if magic == b"P6" else 1
        n = w * h * ch
        if n > end - f.tell():
            raise DataError(f"{path}: truncated pixel data, {w}x{h}x{ch} bytes "
                            f"but {end - f.tell()} left")
        raw = f.read(n)
        arr = np.frombuffer(raw, dtype=np.uint8)
        return arr.reshape(h, w, 3) if ch == 3 else arr.reshape(h, w)


# ---------------------------------------------------------------------------
# mask families

def _ellipse_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
        ry, rx = rng.uniform(0.10 * size, 0.24 * size, size=2)
        theta = rng.uniform(0, np.pi)
        dy, dx = yy - cy, xx - cx
        u = dy * np.cos(theta) + dx * np.sin(theta)
        v = -dy * np.sin(theta) + dx * np.cos(theta)
        mask |= (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
    return mask


def _blob_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    field = rng.standard_normal((size, size))
    field = _box_blur(field, max(1, size // 16))
    frac = rng.uniform(0.08, 0.35)
    return field >= np.quantile(field, 1.0 - frac)


def _lung_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for cx0 in (0.32, 0.68):
        cy = rng.uniform(0.45, 0.55) * size
        cx = (cx0 + rng.uniform(-0.03, 0.03)) * size
        ry = rng.uniform(0.22, 0.30) * size
        rx = rng.uniform(0.10, 0.15) * size
        mask |= ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return mask


_FAMILIES = {"ellipses": _ellipse_mask, "blobs": _blob_mask, "lungs": _lung_mask}


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return img
    k = 2 * radius + 1
    pad = np.pad(img, radius, mode="edge")
    cs = np.cumsum(np.cumsum(np.pad(pad, ((1, 0), (1, 0))), axis=0), axis=1)
    h, w = img.shape
    out = (cs[k:k + h, k:k + w] - cs[0:h, k:k + w]
           - cs[k:k + h, 0:w] + cs[0:h, 0:w]) / (k * k)
    return out


def _render_sample(spec: SynthSpec, index: int) -> SegSample:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    family = _FAMILIES[spec.family]
    lo, hi = FG_FRACTION_BOUNDS
    for _ in range(MAX_DRAWS):
        mask = family(spec.size, rng)
        if lo <= mask.mean() <= hi:
            break
    else:
        raise DataError(f"sample {index}: no {spec.family} mask of size {spec.size} met "
                        f"the foreground bounds {FG_FRACTION_BOUNDS} in {MAX_DRAWS} draws")
    base = spec.bg_mean + (spec.fg_mean - spec.bg_mean) * mask.astype(np.float64)
    base = _box_blur(base, spec.blur_radius)
    chans = []
    for _ in range(spec.channels):
        img = base + rng.standard_normal(base.shape) * spec.noise_sigma
        chans.append(np.clip(img, 0.0, 1.0))
    image = np.stack(chans).astype(np.float32)
    return SegSample(id=f"sample_{index:05d}", image=image,
                     mask=mask[None].astype(np.float32))


def generate_samples(spec: SynthSpec) -> list:
    """In-memory generation; a pure function of (spec, seed)."""
    return [_render_sample(spec, i) for i in range(spec.count)]


def generate_dataset(spec: SynthSpec, out_dir: str) -> list:
    """Write images, masks and a JSON-lines manifest; returns manifest records."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for sample in generate_samples(spec):
        ext = "ppm" if spec.channels == 3 else "pgm"
        image_path = f"{sample.id}.{ext}"
        mask_path = f"{sample.id}_mask.pgm"
        img8 = np.round(sample.image * 255.0).astype(np.uint8)
        if spec.channels == 3:
            write_pnm(os.path.join(out_dir, image_path), img8.transpose(1, 2, 0))
        else:
            write_pnm(os.path.join(out_dir, image_path), img8[0])
        write_pnm(os.path.join(out_dir, mask_path),
                  (sample.mask[0] * 255).astype(np.uint8))
        records.append({"id": sample.id, "image_path": image_path,
                        "mask_path": mask_path, "snr": spec.snr})
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return records


def _nearest_resize(mask: np.ndarray, size: int) -> np.ndarray:
    h, w = mask.shape
    ii = np.minimum((np.arange(size) + 0.5) * h / size, h - 1).astype(np.int64)
    jj = np.minimum((np.arange(size) + 0.5) * w / size, w - 1).astype(np.int64)
    return mask[np.ix_(ii, jj)]


def load_image(path: str) -> np.ndarray:
    """PNM file -> C,H,W float32 in [0,1]."""
    arr = read_pnm(path)
    if arr.ndim == 2:
        arr = arr[None]
    else:
        arr = arr.transpose(2, 0, 1)
    return (arr.astype(np.float32) / 255.0)


def load_dataset(data_dir: str, size: Optional[int] = None) -> list:
    """Read a manifest directory into SegSamples.

    Images are normalized to [0,1]; masks binarized at 128.  Optional resize:
    bilinear for images, nearest for masks (keeps masks binary).
    """
    manifest = os.path.join(data_dir, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise DataError(f"no manifest.jsonl in {data_dir}")
    samples = []
    with open(manifest) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{manifest}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError as e:
                raise DataError(f"{where}: not JSON: {e}") from e
            if not isinstance(rec, dict):
                raise DataError(f"{where}: record is a {type(rec).__name__}, not a JSON object")
            for key in ("id", "image_path", "mask_path"):
                if not isinstance(rec.get(key), str):
                    raise DataError(f"{where}: record needs a string {key!r}")
            sid = rec["id"]
            image = load_image(os.path.join(data_dir, rec["image_path"]))
            mask8 = read_pnm(os.path.join(data_dir, rec["mask_path"]))
            if mask8.ndim != 2:
                raise DataError(f"sample {sid}: mask must be grayscale")
            if image.shape[1:] != mask8.shape:
                raise DataError(f"sample {sid}: image {image.shape[1:]} vs "
                                f"mask {mask8.shape} size mismatch")
            mask = (mask8 >= 128).astype(np.float32)[None]
            if size is not None and image.shape[1:] != (size, size):
                image = bilinear_resize(Tensor(image[None]), size, size).data[0]
                mask = _nearest_resize(mask[0], size)[None]
            samples.append(SegSample(id=sid, image=image, mask=mask))
    return samples

"""Synthetic data generator and PNM I/O tests."""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtaf import data as D
from mdtaf.data import (FG_FRACTION_BOUNDS, DataError, SpecError, SynthSpec,
                        generate_dataset, generate_samples, load_dataset,
                        load_image, read_pnm, write_pnm)


# ---------------------------------------------------------------------------
# PNM round trips

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2 ** 31 - 1),
       st.booleans())
def test_pnm_roundtrip(h, w, seed, color):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if color else (h, w)
    arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pnm")
        write_pnm(path, arr)
        assert np.array_equal(read_pnm(path), arr)


def test_pnm_header_comments_are_skipped(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
    assert np.array_equal(read_pnm(path), np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_pnm_errors_name_the_file(tmp_path):
    missing = str(tmp_path / "nope.pgm")
    with pytest.raises(DataError, match="nope.pgm"):
        read_pnm(missing)
    bad = str(tmp_path / "bad.pgm")
    Path(bad).write_bytes(b"P3\n1 1\n255\n\x00")
    with pytest.raises(DataError, match="magic"):
        read_pnm(bad)
    trunc = str(tmp_path / "short.pgm")
    Path(trunc).write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        read_pnm(trunc)


@pytest.mark.parametrize("header,message", [
    (b"P5\nfour 4\n255\n", "width b'four' is not a number"),
    (b"P5\n4 4\n2.5e2\n", "maxval"),
    (b"P5\n4 -4\n255\n", "height b'-4' is not a number"),
    (b"P5\n0 4\n255\n", "empty image 0x4"),
    (b"P6\n100000 100000\n255\n", "truncated pixel data"),
], ids=["word-width", "float-maxval", "negative-height", "zero-width", "oversized"])
def test_pnm_header_errors_are_typed(tmp_path, header, message):
    path = str(tmp_path / "h.pnm")
    Path(path).write_bytes(header + b"\x00" * 48)
    with pytest.raises(DataError, match=message) as err:
        read_pnm(path)
    assert "h.pnm" in str(err.value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pnm_fuzz_raises_only_data_errors(data):
    color = data.draw(st.booleans(), label="color")
    arr = np.arange(3 * 4 * (3 if color else 1), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pnm")
        write_pnm(path, arr.reshape((3, 4, 3) if color else (3, 4)))
        blob = bytearray(Path(path).read_bytes())
        cut = data.draw(st.integers(0, len(blob)), label="length")
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=4), label="flips")
        for at, mask in flips:
            blob[at] ^= mask
        Path(path).write_bytes(bytes(blob[:cut]))
        try:
            read_pnm(path)
        except DataError:
            pass


def test_write_pnm_rejects_non_uint8(tmp_path):
    with pytest.raises(DataError):
        write_pnm(str(tmp_path / "x.pgm"), np.zeros((2, 2), dtype=np.float32))


# ---------------------------------------------------------------------------
# generator properties

@pytest.mark.parametrize("family", ["ellipses", "blobs", "lungs"])
def test_samples_have_bounded_foreground(family):
    spec = SynthSpec(size=32, count=6, family=family, seed=1)
    for s in generate_samples(spec):
        frac = s.mask.mean()
        assert FG_FRACTION_BOUNDS[0] <= frac <= FG_FRACTION_BOUNDS[1]
        assert set(np.unique(s.mask)) <= {0.0, 1.0}
        assert s.image.shape == (1, 32, 32)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_generation_is_per_index_deterministic():
    a = generate_samples(SynthSpec(size=16, count=3, seed=5))
    b = generate_samples(SynthSpec(size=16, count=5, seed=5))
    # sample i depends only on (seed, i), not on count
    for i in range(3):
        assert np.array_equal(a[i].image, b[i].image)
        assert np.array_equal(a[i].mask, b[i].mask)
    c = generate_samples(SynthSpec(size=16, count=3, seed=6))
    assert not np.array_equal(a[0].image, c[0].image)


def test_snr_formula():
    assert SynthSpec(fg_mean=0.75, bg_mean=0.35, noise_sigma=0.2).snr == pytest.approx(2.0)
    assert SynthSpec(noise_sigma=0.0).snr is None


@pytest.mark.parametrize("channels", [0, 2, 4])
def test_channels_a_pnm_cannot_hold_are_rejected(channels):
    with pytest.raises(SpecError, match=f"channels {channels}"):
        SynthSpec(channels=channels)


@pytest.mark.parametrize("kwargs,message", [({"count": 0}, "count 0"), ({"count": -1}, "count -1"),
                                            ({"noise_sigma": -1.0}, "noise_sigma -1"),
                                            ({"blur_radius": -2}, "blur_radius -2")])
def test_spec_values_that_cannot_work_are_rejected(kwargs, message):
    with pytest.raises(SpecError, match=message):
        SynthSpec(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, 1.5])
@pytest.mark.parametrize("field", ["fg_mean", "bg_mean"])
def test_means_a_pnm_pixel_cannot_store_are_rejected(field, value):
    # a NaN mean used to write all-black images and print snr=nan
    with pytest.raises(SpecError, match=f"{field} {value}"):
        SynthSpec(**{field: value})


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        generate_samples(SynthSpec(family="squares", count=1))


@pytest.mark.parametrize("family", ["ellipses", "blobs", "lungs"])
def test_sizes_below_the_family_minimum_are_rejected(family):
    for size in range(D.MIN_SIZE[family]):
        with pytest.raises(SpecError, match=f"size {size}"):
            SynthSpec(size=size, family=family)
    # the smallest accepted size draws its masks within the limit
    assert len(generate_samples(SynthSpec(size=D.MIN_SIZE[family], count=3,
                                          family=family))) == 3


def test_mask_draws_are_bounded(monkeypatch):
    draws = []

    def never_in_bounds(size, rng):
        draws.append(size)
        return np.zeros((size, size), dtype=bool)

    monkeypatch.setitem(D._FAMILIES, "ellipses", never_in_bounds)
    with pytest.raises(DataError, match=f"{D.MAX_DRAWS} draws"):
        D._render_sample(SynthSpec(size=8), 0)
    assert len(draws) == D.MAX_DRAWS


def test_rgb_spec_produces_three_channels():
    s = generate_samples(SynthSpec(size=16, count=1, channels=3))[0]
    assert s.image.shape == (3, 16, 16)


# ---------------------------------------------------------------------------
# on-disk datasets

def test_generate_and_load_dataset_roundtrip(tmp_path):
    out = str(tmp_path / "ds")
    spec = SynthSpec(size=32, count=3, seed=2)
    records = generate_dataset(spec, out)
    assert len(records) == 3
    manifest = [json.loads(l) for l in Path(out, "manifest.jsonl").read_text().splitlines()]
    assert manifest == records
    assert all(r["snr"] == spec.snr for r in records)
    ds = load_dataset(out)
    assert len(ds) == 3
    for s, mem in zip(ds, generate_samples(spec)):
        assert s.image.shape == (1, 32, 32)
        # 8-bit quantization loses at most half a level
        assert np.abs(s.image - mem.image).max() <= 0.5 / 255 + 1e-6
        assert np.array_equal(s.mask, mem.mask)


def test_load_dataset_resize_keeps_masks_binary(tmp_path):
    out = str(tmp_path / "ds")
    generate_dataset(SynthSpec(size=32, count=2, seed=3), out)
    ds = load_dataset(out, size=20)
    for s in ds:
        assert s.image.shape == (1, 20, 20)
        assert s.mask.shape == (1, 20, 20)
        assert set(np.unique(s.mask)) <= {0.0, 1.0}


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_dataset(str(tmp_path))


def test_load_image_normalizes(tmp_path):
    path = str(tmp_path / "g.pgm")
    write_pnm(path, np.array([[0, 255]], dtype=np.uint8))
    img = load_image(path)
    assert img.shape == (1, 1, 2)
    assert img.min() == 0.0 and img.max() == 1.0

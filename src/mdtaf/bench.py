"""Latency / FLOP / memory benchmarking of the attention variants.

FLOP estimates are closed-form multiply-add counts (x2), which is what the
O(N^2) vs O(N^2/R) complexity claim is about; wall time is a best-of-3
forward measurement; peak memory is the tracemalloc peak of one more
forward, run apart from the timed ones so that tracing does not slow them.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np

from .attention import (AttentionConfig, channel_self_attention,
                        efficient_self_attention, init_csa, init_esa,
                        init_ssa, spatial_self_attention)
from .params import Initializer, ParamStore
from .tensor import ConfigError, Tensor, no_grad


def flops_dense(n: int, c: int) -> float:
    return 8.0 * n * c * c + 4.0 * n * n * c


def flops_esa(n: int, c: int, r: int) -> float:
    # qkv + out projections, two C*R->C reductions, attention at N x N/R
    return 8.0 * n * c * c + 4.0 * n * c * c + 4.0 * n * (n / r) * c


def flops_ssa(n: int, c: int, w: int) -> float:
    # window attention is N x w^2 instead of N x N
    return 8.0 * n * c * c + 4.0 * n * w * w * c


def flops_csa(n: int, c: int, heads: int) -> float:
    # Gram step and value application are linear in N at fixed C
    d = c // heads
    return 8.0 * n * c * c + 4.0 * n * c * d


def _time(fn) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _peak_mb(fn) -> float:
    """Peak of the memory ``fn`` allocates, in MB of 2^20 bytes, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_attention(kinds, sizes, channels: int = 64, heads: int = 2,
                    reduction: int = 8, window: int = 8):
    """Return CSV-ready rows: {kind, N, C, R_or_w, flops_estimate, wall_ms, peak_mb}."""
    def esa(x, side, cfg, store):
        return efficient_self_attention(x, cfg, store, "a")

    def ssa(x, side, cfg, store):
        return spatial_self_attention(x, side, side, cfg, store, "a")

    def csa(x, side, cfg, store):
        return channel_self_attention(x, side, side, cfg, store, "a")

    # kind -> (init, forward, flops(N), R_or_w, ESA reduction, multiple of
    # the square side, or None for a kind that needs no spatial grid)
    table = {
        "dense": (init_esa, esa, lambda n: flops_dense(n, channels), 1, 1, None),
        "esa": (init_esa, esa, lambda n: flops_esa(n, channels, reduction),
                reduction, reduction, None),
        "ssa": (init_ssa, ssa, lambda n: flops_ssa(n, channels, window), window, 1, window),
        "csa": (init_csa, csa, lambda n: flops_csa(n, channels, heads), heads, 1, 1),
    }
    for flag, values in (("--kinds", kinds), ("--sizes", sizes)):
        if not values:
            raise ConfigError(f"{flag}: the list is empty")
    rows, forwards, bad = [], [], []
    rng = np.random.default_rng(0)
    for n in sizes:
        if n < 1:
            raise ConfigError(f"--sizes: size {n} is not positive")
        x = Tensor(rng.normal(size=(1, n, channels)).astype(np.float32))
        for kind in kinds:
            if kind not in table:
                raise ConfigError(f"--kinds: unknown attention kind {kind!r}")
            init, forward, flops, rknob, r, multiple = table[kind]
            # the config checks every count first: the grid check divides by the window
            cfg = AttentionConfig(channels, heads, reduction=r, window=window, r1=8, r2=8)
            side = int(round(np.sqrt(n)))  # grid side; ignored by the token kinds
            if multiple is not None and (side * side != n or side % multiple):
                bad.append(f"{kind} needs square N with side divisible by {multiple}, got N={n}")
            elif n % r:
                bad.append(f"{kind} needs N divisible by its reduction {r}, got N={n}")
            store = ParamStore()
            init(store, Initializer(0), "a", cfg)
            forwards.append(functools.partial(forward, x, side, cfg, store))
            rows.append({"kind": kind, "N": n, "C": channels, "R_or_w": rknob,
                         "flops_estimate": flops(n)})
    if bad:  # one error names every size a kind cannot run
        raise ConfigError("--sizes: " + "; ".join(bad))
    with no_grad():  # no row is timed before every input is checked
        for row, fwd in zip(rows, forwards):
            row.update(wall_ms=_time(fwd), peak_mb=_peak_mb(fwd))
    return rows

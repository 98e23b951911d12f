"""Central finite-difference verification of reverse-mode gradients.

The checker is the independent oracle for every differentiable operation:
it never reuses the analytic path it is checking, only repeated forward
evaluations in float64.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import GraphError, Tensor, backward, no_grad

EPS = 1e-5  # central-difference step


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
               max_coords: Optional[int] = None,
               rng: Optional[np.random.Generator] = None,
               min_grad: float = 0.0) -> float:
    """Return the max relative error between analytic and numeric gradients.

    ``fn`` must be scalar-valued.  Inputs are promoted to float64; finite
    differences in float32 are too noisy to be meaningful.  When
    ``max_coords`` is given, a seeded random subset of coordinates per input
    is probed instead of every coordinate (needed for whole-model checks).
    ``min_grad`` skips coordinates whose analytic gradient is below the
    resolution of central differences; near-zero pairs otherwise report a
    spurious error of fd-noise over the denominator floor.
    """
    inputs = [t.astype(np.float64) for t in inputs]
    for t in inputs:
        t.requires_grad = True

    out = fn(*inputs)
    if out.size != 1:
        raise GraphError(f"grad_check requires a scalar-valued fn, got {out.shape}")
    backward(out)

    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for t in inputs:
        flat = t.data.reshape(-1)
        if not np.shares_memory(flat, t.data):
            # a copy: perturbing it would leave every finite difference 0
            raise GraphError(f"grad_check input of shape {t.shape} is not contiguous")
        gflat = np.zeros_like(flat) if t.grad is None else t.grad.reshape(-1)
        coords = np.arange(flat.size)
        if min_grad > 0.0:
            coords = coords[np.abs(gflat) >= min_grad]
            if coords.size == 0:
                continue
        if max_coords is not None and coords.size > max_coords:
            coords = rng.choice(coords, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + EPS
                f_plus = fn(*inputs).data.item()
                flat[i] = orig - EPS
                f_minus = fn(*inputs).data.item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * EPS)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
    return worst


def grad_check_params(loss_fn: Callable[[dict], Tensor], store, **kw) -> float:
    """:func:`grad_check` over every tensor of a ``ParamStore``.

    ``loss_fn`` receives a plain name -> tensor dict of the float64 copies;
    the model only indexes its parameters by name, so the dict stands in for
    the store.  Keyword arguments go to :func:`grad_check`.
    """
    names = store.names()
    return grad_check(lambda *tensors: loss_fn(dict(zip(names, tensors))),
                      list(store.tensors()), **kw)

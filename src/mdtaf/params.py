"""Named, ordered parameter storage with deterministic initialization."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Ordered map from hierarchical names to learnable tensors.

    Insertion order is the iteration order, which makes initialization and
    optimizer traversal deterministic for a given config + seed.

    The optimizer packs the store on its first call to :meth:`flat`: the
    parameters are copied, in order, into one C-contiguous buffer, and each
    tensor's ``data`` becomes a C-contiguous view of its slice.  The values
    do not change, and writes through either name reach the other.  A packed
    store takes no new parameters.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat: np.ndarray | None = None

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if self._flat is not None:
            raise RuntimeError(f"cannot add {name}: the store is packed")
        if name in self._params:
            raise KeyError(f"duplicate parameter name: {name}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def param_count(self) -> int:
        return sum(t.size for t in self._params.values())

    def flat(self) -> np.ndarray:
        """Every parameter as one flat buffer, packing the store on first call."""
        if self._flat is None:
            tensors = list(self._params.values())
            dtypes = {t.dtype for t in tensors}
            if len(dtypes) > 1:
                raise TypeError(f"cannot pack parameters of several dtypes: "
                                f"{sorted(map(str, dtypes))}")
            self._flat = np.concatenate([t.data for t in tensors], axis=None)
            offset = 0
            for t in tensors:
                t.data = self._flat[offset:offset + t.size].reshape(t.shape)
                offset += t.size
        return self._flat

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data.astype(dtype))
        return out


class Initializer:
    """Seeded weight initializer: truncated normal weights, zero biases."""

    std = 0.02

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def trunc_normal(self, shape) -> np.ndarray:
        """N(0, std) resampled until every draw lies within +/- 2 std."""
        out = self.rng.normal(0.0, self.std, size=shape)
        bad = np.abs(out) > 2.0 * self.std
        while bad.any():
            out[bad] = self.rng.normal(0.0, self.std, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * self.std
        return out.astype(np.float32)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.float32)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=np.float32)

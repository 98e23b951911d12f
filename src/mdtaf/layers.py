"""Small parameterized layer helpers shared by the embedding and attention code.

Each ``init_*`` registers parameters under a hierarchical name prefix; the
matching forward helper looks them up by the same prefix.
"""

from __future__ import annotations

from . import tensor as T
from .params import Initializer, ParamStore
from .tensor import Tensor


def init_conv(store: ParamStore, init: Initializer, name: str,
              cin: int, cout: int, k: int, groups: int = 1):
    store.add(f"{name}.weight", init.trunc_normal((cout, cin // groups, k, k)))
    store.add(f"{name}.bias", init.zeros((cout,)))


def conv(params: ParamStore, name: str, x: Tensor, stride: int = 1,
         padding: int = 0, dilation: int = 1, groups: int = 1) -> Tensor:
    return T.conv2d(x, params[f"{name}.weight"], params[f"{name}.bias"], stride=stride,
                    padding=padding, dilation=dilation, groups=groups)


def init_deconv(store: ParamStore, init: Initializer, name: str,
                cin: int, cout: int, k: int):
    store.add(f"{name}.weight", init.trunc_normal((cin, cout, k, k)))
    store.add(f"{name}.bias", init.zeros((cout,)))


def deconv(params: ParamStore, name: str, x: Tensor) -> Tensor:
    return T.conv_transpose2d(x, params[f"{name}.weight"], params[f"{name}.bias"])


def init_linear(store: ParamStore, init: Initializer, name: str,
                din: int, dout: int, bias: bool = True):
    store.add(f"{name}.weight", init.trunc_normal((din, dout)))
    if bias:
        store.add(f"{name}.bias", init.zeros((dout,)))


def linear(params: ParamStore, name: str, x: Tensor) -> Tensor:
    b = params[f"{name}.bias"] if f"{name}.bias" in params else None
    return T.linear(x, params[f"{name}.weight"], b)


def init_channel_norm(store: ParamStore, init: Initializer, name: str, c: int):
    store.add(f"{name}.gamma", init.ones((1, c, 1, 1)))
    store.add(f"{name}.beta", init.zeros((1, c, 1, 1)))


def channel_norm(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Layer normalization over the channel axis of a B,C,H,W map."""
    return T.layer_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"], axis=1)


def init_token_norm(store: ParamStore, init: Initializer, name: str, c: int):
    store.add(f"{name}.gamma", init.ones((c,)))
    store.add(f"{name}.beta", init.zeros((c,)))


def token_norm(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Layer normalization over the channel (last) axis of a B,N,C sequence."""
    return T.layer_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"], axis=-1)


def tokens_to_map(x: Tensor, h: int, w: int) -> Tensor:
    """B,N,C tokens -> B,C,H,W map (row-major token order)."""
    b, n, c = x.shape
    return T.transpose(T.reshape(x, (b, h, w, c)), (0, 3, 1, 2))


def map_to_tokens(x: Tensor) -> Tensor:
    """B,C,H,W map -> B,N,C tokens (row-major spatial order)."""
    b, c, h, w = x.shape
    return T.reshape(T.transpose(x, (0, 2, 3, 1)), (b, h * w, c))

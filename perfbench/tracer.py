"""Span tracer that wraps mdtaf functions by replacing module attributes.

Callers look the wrapped functions up through module attributes (``T.conv2d``,
a module-global ``mdt_block`` in ``mdtaf.model``, ``_node`` in ``mdtaf.train``),
so swapping the attribute is enough to see every call.  ``install`` swaps the
wrappers in and ``uninstall`` puts every original back; nothing under ``src/``
changes.

Spans live on two tracks so that nesting stays meaningful:

* the *layer* track holds one root span per timed operation (named ``op``),
  the model layers, the train/optimizer calls, ``backward`` and the setup
  calls;
* the *tape* track holds the forward tape ops (``tensor.fwd.<op>``) and the
  vector-Jacobian closures (``tensor.vjp.<op>``), which run inside layers.

A span's parent is the innermost open span of its own track, and its self time
is its duration minus the durations of its children, so on each track the self
times of an operation's spans add up to the operation's duration.  Spans stay
in memory (five integer arrays) and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYER, TAPE = 0, 1

# (module, attribute, span name) for functions traced on the layer track.
LAYER_PATCHES = (
    ("mdtaf.model", "model_forward", "model.forward"),
    ("mdtaf.model", "filtered_embed", "filter_embed.filtered_embed"),
    ("mdtaf.filter_embed", "overlap_patch_embed", "filter_embed.overlap_patch_embed"),
    ("mdtaf.filter_embed", "attention_weights", "filter_embed.attention_weights"),
    ("mdtaf.model", "mdt_block", "attention.block"),
    ("mdtaf.attention", "efficient_self_attention", "attention.esa"),
    ("mdtaf.attention", "spatial_self_attention", "attention.ssa"),
    ("mdtaf.attention", "channel_self_attention", "attention.csa"),
    ("mdtaf.model", "mlp_decoder", "model.decoder"),
    ("mdtaf.tensor", "backward", "tensor.backward"),
    ("mdtaf.gradcheck", "backward", "tensor.backward"),
    ("mdtaf.train", "bce_loss", "train.bce_loss"),
    ("mdtaf.train", "adamw_step", "train.adamw"),
    ("mdtaf.model", "init_params", "model.init_params"),
    ("mdtaf.model", "save_checkpoint", "model.save_checkpoint"),
    ("mdtaf.model", "load_checkpoint", "model.load_checkpoint"),
    ("mdtaf.data", "generate_dataset", "data.generate_dataset"),
    ("mdtaf.data", "load_dataset", "data.load_dataset"),
)

# Forward tape ops traced on the tape track as ``tensor.fwd.<op>``.
FWD_OPS = ("conv2d", "conv_transpose2d", "matmul", "gelu", "layer_norm",
           "softmax", "bilinear_resize")

# Every module that binds the tape's node constructor by name.
NODE_MODULES = ("mdtaf.tensor", "mdtaf.train")


def vjp_op_name(vjp) -> str:
    """``conv2d.<locals>.vjp`` -> ``conv2d``; ``texp.<locals>.<lambda>`` -> ``texp``."""
    return vjp.__qualname__.split(".<locals>")[0]


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._vjp_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stacks = ([], [])
        self.op_index = -1
        self._op_span = -1
        self.nodes = 0
        self.nodes_per_op: dict[int, int] = {}
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, track: int) -> int:
        stack = self._stacks[track]
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_index)
        self.end.append(0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, track: int):
        self.end[idx] = self.clock()
        self._stacks[track].pop()

    def begin_op(self, index: int):
        """Open the root span of one timed operation."""
        self.op_index = index
        self.nodes = 0
        self._op_span = self.open(self.intern("op"), LAYER)

    def end_op(self):
        self.close(self._op_span, LAYER)
        self.nodes_per_op[self.op_index] = self.nodes
        self.op_index = -1

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, track: int):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid, track)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, track)

        return traced

    def _vjp_id(self, vjp) -> int:
        qual = vjp.__qualname__
        nid = self._vjp_ids.get(qual)
        if nid is None:
            nid = self._vjp_ids[qual] = self.intern(f"tensor.vjp.{vjp_op_name(vjp)}")
        return nid

    def _node_wrapper(self, node):
        @functools.wraps(node)
        def traced_node(data, parents, vjp):
            self.nodes += 1
            nid = self._vjp_id(vjp)

            def timed_vjp(g):
                idx = self.open(nid, TAPE)
                try:
                    return vjp(g)
                finally:
                    self.close(idx, TAPE)

            return node(data, parents, timed_vjp)

        return traced_node

    def patches(self):
        """Yield (module, attribute, wrapper factory) for every traced function."""
        for mod, attr, name in LAYER_PATCHES:
            yield mod, attr, functools.partial(self._span_wrapper, name=name, track=LAYER)
        for op in FWD_OPS:
            yield "mdtaf.tensor", op, functools.partial(
                self._span_wrapper, name=f"tensor.fwd.{op}", track=TAPE)
        for mod in NODE_MODULES:
            yield mod, "_node", self._node_wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, make in self.patches():
            mod = sys.modules[mod_name]
            original = getattr(mod, attr)  # AttributeError if the program renamed it
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        # copies, so the arrays can still grow afterwards
        return {key: np.array(buf, dtype=np.int64) for key, buf in (
            ("name_id", self.name_id), ("start_ns", self.start), ("end_ns", self.end),
            ("parent", self.parent), ("op", self.op))}

    def self_times_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its same-track children."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def totals_ms(self, ops) -> dict:
        """Summed self time per span name, in ms, over spans of the given ops
        (op index -1 selects the set-up, outside any operation)."""
        a = self.arrays()
        mask = np.isin(a["op"], np.asarray(list(ops), dtype=np.int64))
        ids = a["name_id"][mask]
        sums = np.bincount(ids, weights=self.self_times_ns()[mask], minlength=len(self.names))
        seen = np.bincount(ids, minlength=len(self.names))
        return {name: float(sums[i]) / 1e6 for i, name in enumerate(self.names) if seen[i]}

    def op_ms(self) -> dict:
        """Duration of each traced operation's root span, in ms, by op index."""
        a = self.arrays()
        roots = np.flatnonzero(a["name_id"] == self._name_ids.get("op", -1))
        return {int(a["op"][i]): (a["end_ns"][i] - a["start_ns"][i]) / 1e6 for i in roots}

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

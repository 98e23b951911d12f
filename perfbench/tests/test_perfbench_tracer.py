import sys

import numpy as np
import pytest

from perfbench import tracer as tracing
from perfbench import workloads


@pytest.fixture(scope="module")
def mdtaf():
    return workloads.load_mdtaf()


def patched_attributes():
    return [(mod, attr) for mod, attr, _ in tracing.Tracer().patches()]


def originals():
    return {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr in patched_attributes()}


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_on_the_same_track():
    # op [0,100] > a [10,50] > b [20,30];  op > c [60,70];  tape span t [12,48] inside a
    t = tracing.Tracer(clock=FakeClock([0, 10, 12, 20, 30, 48, 50, 60, 70, 100]))
    t.begin_op(0)                                    # 0
    a = t.open(t.intern("a"), tracing.LAYER)         # 10
    x = t.open(t.intern("t"), tracing.TAPE)          # 12
    b = t.open(t.intern("b"), tracing.LAYER)         # 20
    t.close(b, tracing.LAYER)                        # 30
    t.close(x, tracing.TAPE)                         # 48
    t.close(a, tracing.LAYER)                        # 50
    c = t.open(t.intern("c"), tracing.LAYER)         # 60
    t.close(c, tracing.LAYER)                        # 70
    t.end_op()                                       # 100
    totals = t.totals_ms([0])
    ns = {k: v * 1e6 for k, v in totals.items()}
    assert ns == pytest.approx({"op": 50, "a": 30, "b": 10, "c": 10, "t": 36})
    # the layer track's self times add up to the operation's duration
    assert sum(v for k, v in ns.items() if k != "t") == pytest.approx(100)
    assert t.op_ms() == pytest.approx({0: 100e-6})


def test_setup_spans_are_kept_apart_from_operations():
    t = tracing.Tracer(clock=FakeClock([0, 5, 10, 20, 30]))
    s = t.open(t.intern("setup"), tracing.LAYER)
    t.close(s, tracing.LAYER)
    t.begin_op(3)
    t.end_op()
    assert t.totals_ms([-1]) == pytest.approx({"setup": 5e-6})
    assert t.totals_ms([3]) == pytest.approx({"op": 10e-6})


def test_vjp_names_come_from_the_closure_qualname(mdtaf):
    T = mdtaf.tensor
    a = T.Tensor(np.ones((2, 2)), requires_grad=True)
    assert tracing.vjp_op_name(T.matmul(a, a)._vjp) == "matmul"
    assert tracing.vjp_op_name(T.texp(a)._vjp) == "texp"


def test_install_then_uninstall_restores_every_attribute(mdtaf):
    before = originals()
    t = tracing.Tracer()
    t.install()
    assert all(getattr(sys.modules[m], a) is not before[(m, a)] for m, a in before)
    with pytest.raises(RuntimeError):
        t.install()
    t.uninstall()
    assert originals() == before
    assert all(getattr(sys.modules[m], a) is before[(m, a)] for m, a in before)


class TinyTrain(workloads.Workload):
    """One forward/backward of the tiny model per operation."""

    def setup(self):
        m = self.m
        self.cfg = m.model.tiny_config()
        self.params = m.model.init_params(self.cfg, seed=0)
        self.x = m.tensor.Tensor(np.random.default_rng(0).normal(size=(1, 1, 32, 32))
                                 .astype(np.float32))
        self.y = m.tensor.Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32))

    def op(self, i):
        self.params.zero_grad()
        loss = self.m.train.bce_loss(self.m.model.model_forward(self.x, self.cfg, self.params),
                                     self.y)
        loss.backward()
        return loss.item()

    def check(self, i, out):
        return None


def test_traced_loop_restores_functions_and_accounts_for_op_time(mdtaf):
    before = originals()
    w = TinyTrain(mdtaf, 0, "")
    w.setup()
    t = tracing.Tracer()
    records, _ = workloads.run_loop(w, 0.0, t)
    assert [r.traced for r in records] == [False, True]
    assert originals() == before  # the untraced operations time the original functions

    traced = [r.index for r in records if r.traced]
    totals = t.totals_ms(traced)
    for name in ("model.forward", "filter_embed.attention_weights", "attention.esa",
                 "attention.block", "model.decoder", "tensor.backward", "train.bce_loss",
                 "tensor.fwd.conv2d", "tensor.vjp.conv2d", "tensor.vjp.bce_loss"):
        assert totals[name] > 0, name
    assert t.nodes_per_op[traced[0]] > 100
    op_ms = t.op_ms()[traced[0]]
    layer = sum(v for k, v in totals.items()
                if not k.startswith(("tensor.fwd.", "tensor.vjp.")))
    assert layer == pytest.approx(op_ms, rel=1e-9)
    assert totals["op"] >= 0

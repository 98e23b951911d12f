"""Finite-difference forwards under ``tensor.reuse``: what they recompute,
what they serve, and that the served losses are the ones a fresh forward
gives."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import mdtaf
from mdtaf import tensor as T
from mdtaf import verify
from mdtaf.gradcheck import grad_check, grad_check_params
from mdtaf.model import init_params, model_forward, tiny_config
from mdtaf.tensor import Tensor, no_grad

TOL = 1e-4


def test_a_forward_perturbing_one_input_recomputes_only_what_it_reaches(monkeypatch):
    node = T._node
    nodes = []
    monkeypatch.setattr(T, "_node", lambda *a: nodes.append(1) or node(*a))
    calls = []  # per forward: its second argument and the nodes it made

    def fn(a, b):
        n0 = len(nodes)
        out = T.tsum(T.tanh(a) * T.tanh(b))
        calls.append((b, len(nodes) - n0))
        return out

    rng = np.random.default_rng(0)
    assert grad_check(fn, [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=3))]) < TOL
    assert [n for _, n in calls] == [4] + [3] * 18  # analytic and recording, 18 differences
    # tanh(a) is served while b is perturbed, tanh(b) while a is
    b = calls[0][0]
    assert sum(x is not b for x, _ in calls[1:]) == 6


def test_reused_losses_equal_fresh_forwards_bitwise(monkeypatch):
    calls = []  # (loss_fn, parameters, loss bytes) per forward

    def recording(loss_fn, store, **kw):
        def fn(p):
            out = loss_fn(p)
            calls.append((loss_fn, p, out.data.tobytes()))
            return out
        return grad_check_params(fn, store, **kw)

    monkeypatch.setattr(verify, "grad_check_params", recording)
    assert verify.check_gradients_block(0)[0]
    fd = calls[1:]
    assert len(fd) >= 40
    with no_grad():
        for loss_fn, p, loss in fd[::len(fd) // 20]:
            assert loss_fn(p).data.tobytes() == loss


def test_reuse_serves_a_call_only_on_the_same_arguments():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    key = np.array([0, 2])

    def fn(row, rows, flag):
        return [T.getitem(x, key), T.getitem(x, np.array([0, 2])), T.getitem(x, rows),
                T.rearrange(x, (x.shape[1], x.shape[0])), x * np.float64(0.5),
                T.getitem(x, flag), T.getitem(x, slice(0, row))]

    with T.reuse() as forward:
        first = forward(fn, 1, np.array([1]), 1)
        again = forward(fn, 1, np.array([[1]]), True)
    # the same key object, equal plain values and an equal float scalar are
    # served; a key made anew, one of another shape and True for 1 are not
    assert [b is a for a, b in zip(first, again)] == [True, False, False, True, True, False, True]
    assert again[2].shape == (1, 1, 4) and again[5].shape == (1, 3, 4)
    assert np.array_equal(again[1].data, first[1].data)


@pytest.mark.parametrize("size", [32, 40])  # 40 is reflect-padded to 64
def test_a_repeated_model_forward_is_served_whole(monkeypatch, size):
    # an op argument that a forward builds anew on every call (an index
    # array, say) would make every op downstream of it recompute in every
    # finite-difference forward
    cfg = tiny_config()
    params = init_params(cfg, 0).astype(np.float64)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, size, size)))
    node = T._node
    nodes = []
    monkeypatch.setattr(T, "_node", lambda *a: nodes.append(1) or node(*a))
    with no_grad(), T.reuse() as forward:
        first = forward(model_forward, x, cfg, params)
        recorded = len(nodes)
        again = forward(model_forward, x, cfg, params)
    assert recorded > 500 and len(nodes) == recorded and again is first


def test_grad_check_leaves_nothing_installed():
    x = Tensor(np.ones(3))
    grad_check(lambda x: T.tsum(x * x), [x])
    assert T._reuse is None
    installed = []

    def fn(x):
        installed.append(T._reuse is not None)
        if len(installed) == 2:  # the first finite-difference forward
            raise RuntimeError("fn failed")
        return T.tsum(x * x)

    with pytest.raises(RuntimeError, match="fn failed"):
        grad_check(fn, [x])
    assert installed == [True, True]
    assert T._reuse is None


def test_every_tape_op_enters_through_the_record_with_all_its_parameters():
    # a parameter left out of the entry check would be ignored when a call
    # is matched against the record, and a differing value served
    ops = [f for name, f in vars(T).items()
           if inspect.isfunction(f) and f.__module__ == T.__name__ and name[0] != "_"
           and "_node(" in inspect.getsource(f)]
    assert len(ops) == 21
    assert [f.__name__ for f in ops
            if f"_reuse.call({f.__name__}, {', '.join(inspect.signature(f).parameters)})"
            not in inspect.getsource(f)] == []
    # an op outside tensor.py is computed in every forward, never recorded
    others = [m.name for m in pkgutil.iter_modules(mdtaf.__path__) if m.name != "tensor"]
    assert len(others) == 11
    assert [m for m in others
            if "_reuse" in inspect.getsource(importlib.import_module(f"mdtaf.{m}"))] == []

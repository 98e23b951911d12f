"""Loss, optimizer, schedule, metric, and training-loop tests.

Optimizer steps are checked against hand-evaluated AdamW arithmetic; the BCE
loss against closed-form values and finite differences.
"""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mdtaf.attention import ALPHA_MIN
from mdtaf.data import SegSample
from mdtaf.gradcheck import grad_check
from mdtaf.model import desk_config, init_params, load_checkpoint, model_forward, tiny_config
from mdtaf.params import ParamStore
from mdtaf.tensor import ConfigError, ShapeError, Tensor
from mdtaf.train import (Metrics, OptimizerState, TrainConfig, TrainingDiverged,
                         accuracy, adamw_step, bce_loss, cosine_lr, dice_score,
                         evaluate, predict_mask, train)


# ---------------------------------------------------------------------------
# BCE loss

def test_bce_uniform_logits_is_ln2():
    logits = Tensor(np.zeros((2, 1, 4, 4)))
    targets = Tensor((np.arange(32).reshape(2, 1, 4, 4) % 2).astype(np.float64))
    assert abs(bce_loss(logits, targets).item() - math.log(2.0)) < 1e-9


def test_bce_known_value():
    # single pixel, logit ln(3), target 1: loss = -log sigmoid(ln 3) = ln(4/3)
    loss = bce_loss(Tensor(np.array([[math.log(3.0)]])), Tensor(np.array([[1.0]])))
    assert abs(loss.item() - math.log(4.0 / 3.0)) < 1e-9


def test_bce_is_stable_at_extreme_logits():
    loss = bce_loss(Tensor(np.array([[-1e4, 1e4]])), Tensor(np.array([[0.0, 1.0]])))
    assert math.isfinite(loss.item()) and loss.item() < 1e-9


def test_bce_gradient_matches_sigmoid_minus_target():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = (rng.uniform(size=(3, 4)) > 0.5).astype(np.float64)
    loss = bce_loss(x, Tensor(y))
    loss.backward()
    want = (1.0 / (1.0 + np.exp(-x.data)) - y) / x.size
    assert np.abs(x.grad - want).max() < 1e-12
    x2 = Tensor(rng.normal(size=(3, 4)))
    assert grad_check(lambda t: bce_loss(t, Tensor(y)), [x2]) < 1e-6


def test_bce_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        bce_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError):
        bce_loss(Tensor(np.zeros((2, 2))), Tensor(np.full((2, 2), 0.5)))


# ---------------------------------------------------------------------------
# schedule

def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 1e-4, 1e-6) == 1e-4
    assert cosine_lr(100, 100, 1e-4, 1e-6) == 1e-6
    mid = cosine_lr(50, 100, 1e-4, 1e-6)
    assert abs(mid - 5.05e-5) < 1e-12


def test_cosine_schedule_is_monotone_decreasing():
    vals = [cosine_lr(s, 20, 1e-3, 1e-5) for s in range(21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cosine_schedule_rejects_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 1e-4, 1e-6)


# ---------------------------------------------------------------------------
# AdamW

def _one_param_store(value, name="w"):
    store = ParamStore()
    t = store.add(name, np.array([value]))
    return store, t


def test_adamw_first_step_matches_hand_calculation():
    # with wd=0 the first update is exactly -lr * sign-ish g/(|g|+eps)
    store, t = _one_param_store(1.0)
    t.grad = np.array([0.5])
    state = OptimizerState(weight_decay=0.0)
    adamw_step(store, state, lr=0.1)
    g = 0.5
    m_hat, v_hat = g, g * g  # bias correction cancels at t=1
    want = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(t.data[0] - want) < 1e-12


def test_adamw_weight_decay_is_decoupled():
    store, t = _one_param_store(2.0)
    t.grad = np.array([0.0])
    state = OptimizerState(weight_decay=0.1)
    adamw_step(store, state, lr=0.5)
    # zero gradient: only the decay acts, multiplicatively, before the moment
    assert abs(t.data[0] - 2.0 * (1.0 - 0.5 * 0.1)) < 1e-12


def test_adamw_second_step_tracks_moments():
    store, t = _one_param_store(0.0)
    state = OptimizerState(weight_decay=0.0)
    m = v = 0.0
    x = 0.0
    for step, g in enumerate((0.3, -0.2), start=1):
        t.grad = np.array([g])
        adamw_step(store, state, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.01 * (m / (1 - 0.9 ** step)) / (
            math.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    assert abs(t.data[0] - x) < 1e-12


def test_adamw_clamps_alpha_parameters():
    store, t = _one_param_store(1e-3, name="csa.alpha")
    t.grad = np.array([10.0])
    adamw_step(store, OptimizerState(weight_decay=0.0), lr=0.5)
    assert t.data[0] == ALPHA_MIN


def test_adamw_zero_lr_with_zero_decay_is_a_noop():
    store, t = _one_param_store(1.5)
    t.grad = np.array([2.0])
    adamw_step(store, OptimizerState(weight_decay=0.0), lr=0.0)
    assert t.data[0] == 1.5


def test_adamw_requires_gradients():
    store, t = _one_param_store(1.0)
    with pytest.raises(ValueError):
        adamw_step(store, OptimizerState(), lr=0.1)


def _adamw_per_tensor(arrays, grads, m, v, step, lr, weight_decay=1e-2):
    """The per-tensor AdamW loop, the reference for the blocked update."""
    c1 = 1.0 - 0.9 ** step
    c2 = 1.0 - 0.999 ** step
    for name, p in arrays.items():
        g = grads[name]
        if name not in m:
            m[name] = np.zeros_like(p)
            v[name] = np.zeros_like(p)
        p *= 1.0 - lr * weight_decay
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * g * g
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + 1e-8)
        if name.endswith(".alpha"):
            np.maximum(p, ALPHA_MIN, out=p)


def test_blocked_adamw_matches_per_tensor_loop_bytewise():
    rng = np.random.default_rng(0)
    shapes = {"a.w": (40, 40, 3, 3), "b.w": (300, 200), "blk.csa.alpha": (5,),
              "c.b": (7, 11), "d.w": (64,)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(scale=0.1, size=shape).astype(np.float32))
    store["blk.csa.alpha"].data[:] = [ALPHA_MIN / 2, 1e-3, 2e-3, 5e-3, 1e-2]
    # the 65,536-element block boundary falls inside b.w
    assert store["a.w"].size < 65536 < store["a.w"].size + store["b.w"].size
    ref = {name: t.data.copy() for name, t in store.items()}
    m, v = {}, {}
    state = OptimizerState()
    for step, lr in enumerate((3e-2, 2e-2, 1e-2), start=1):
        grads = {name: rng.normal(size=t.shape).astype(np.float32) for name, t in store.items()}
        grads["blk.csa.alpha"][:] = 50.0  # drives every temperature below ALPHA_MIN
        for name, t in store.items():
            t.grad = grads[name]
        adamw_step(store, state, lr)
        _adamw_per_tensor(ref, grads, m, v, step, lr)
        for name, t in store.items():
            assert t.data.tobytes() == ref[name].tobytes(), (step, name)
    assert np.all(store["blk.csa.alpha"].data == ALPHA_MIN)
    flat = store.flat()
    assert flat.size == sum(t.size for t in store.tensors())
    for t in store.tensors():
        assert t.data.flags.c_contiguous and t.data.base is flat


def test_param_store_refuses_new_parameters_once_packed():
    store = ParamStore()
    store.add("w", np.ones((2, 3), np.float32))
    flat = store.flat()
    assert store.flat() is flat
    with pytest.raises(RuntimeError):
        store.add("x", np.ones(1, np.float32))
    assert store.names() == ["w"]


def test_param_store_with_mixed_dtypes_cannot_pack():
    store = ParamStore()
    store.add("a", np.ones(3, np.float32)).grad = np.ones(3, np.float32)
    store.add("b", np.ones(3, np.float64)).grad = np.ones(3)
    with pytest.raises(TypeError):
        adamw_step(store, OptimizerState(), lr=0.1)


def test_adamw_step_allocates_less_than_a_quarter_of_the_parameters():
    # the update runs in place over cache-sized blocks; a whole-buffer
    # expression would allocate temporaries as large as the parameters
    cfg = desk_config()
    store = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    images = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
    masks = Tensor((rng.random((1, 1, 32, 32)) > 0.5).astype(np.float32))
    bce_loss(model_forward(images, cfg, store), masks).backward()
    state = OptimizerState()
    adamw_step(store, state, lr=1e-4)
    tracemalloc.start()
    try:
        adamw_step(store, state, lr=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < store.flat().nbytes / 4


# ---------------------------------------------------------------------------
# metrics

def test_dice_identity_and_disjoint():
    a = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    assert dice_score(a, a) > 1.0 - 1e-6
    b = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    assert dice_score(a, b) < 1e-5


def test_dice_known_value():
    # 1 TP, 1 FP, 1 FN -> 2/(2+1+1) = 0.5
    pred = np.array([1, 1, 0, 0], dtype=np.uint8)
    target = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert abs(dice_score(pred, target) - 0.5) < 1e-6


def test_dice_empty_masks_score_one():
    z = np.zeros((4, 4), dtype=np.uint8)
    assert dice_score(z, z) > 1.0 - 1e-6


def test_accuracy_and_threshold():
    logits = np.array([[-2.0, 0.5], [3.0, -0.1]])
    pred = predict_mask(logits)
    assert np.array_equal(pred, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert abs(accuracy(pred, np.array([[0, 1], [0, 0]], dtype=np.uint8)) - 0.75) < 1e-9


# ---------------------------------------------------------------------------
# loop behavior on a toy dataset

def _toy_dataset(n=4, size=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        mask = np.zeros((1, size, size), dtype=np.float32)
        mask[0, : size // 2] = 1.0
        img = mask + rng.normal(0, 0.2, size=(1, size, size)).astype(np.float32)
        out.append(SegSample(id=f"t{i}", image=img, mask=mask))
    return out


def test_train_runs_and_reports_history(tmp_path):
    ds = _toy_dataset()
    cfg = tiny_config()
    hist_path = str(tmp_path / "hist.jsonl")
    tcfg = TrainConfig(epochs=1, batch_size=2, max_steps=3, seed=0, eval_interval=2,
                       history_path=hist_path,
                       checkpoint_path=str(tmp_path / "m.ckpt"))
    params, history = train(cfg, tcfg, ds)
    steps = [h for h in history if "lr" in h]
    assert len(steps) == 3
    assert all(set(h) == {"step", "lr", "loss", "grad_norm", "param_norm"} for h in steps)
    assert all(math.isfinite(h[k]) and h[k] > 0
               for h in steps for k in ("loss", "grad_norm", "param_norm"))
    evals = [h for h in history if "dice" in h]
    assert [h["step"] for h in evals] == [2, 3] and evals[-1] is history[-1]
    assert all(set(h) == {"step", "acc", "dice", "loss"} and math.isfinite(h["loss"])
               for h in evals)
    with open(hist_path) as f:
        recs = [json.loads(l) for l in f]
    assert recs == history
    assert (tmp_path / "m.ckpt").exists()


def test_best_checkpoint_comes_only_from_an_evaluation_before_the_last_step(tmp_path):
    # with no evaluation before the last step, .best would repeat the last
    # checkpoint: none is written, and one an earlier run left is removed
    ds, cfg = _toy_dataset(), tiny_config()
    ckpt, best = tmp_path / "m.ckpt", tmp_path / "m.ckpt.best"
    best.write_bytes(b"from an earlier run")
    train(cfg, TrainConfig(batch_size=2, max_steps=2, checkpoint_path=str(ckpt)), ds)
    assert ckpt.exists() and not best.exists()
    # the best of every evaluation, the final one included
    tcfg = TrainConfig(batch_size=2, max_steps=4, lr_max=1e-3, eval_interval=1,
                       checkpoint_path=str(ckpt))
    _, history = train(cfg, tcfg, ds)
    dices = [h["dice"] for h in history if "dice" in h]
    params, best_cfg = load_checkpoint(str(best))
    assert best_cfg == cfg
    assert evaluate(cfg, params, ds, batch_size=2).dice == max(dices) > dices[-1]


def test_the_last_step_is_evaluated_once():
    _, history = train(tiny_config(), TrainConfig(batch_size=2, max_steps=4, eval_interval=2),
                       _toy_dataset())
    assert [h["step"] for h in history if "dice" in h] == [2, 4]


def test_train_is_seed_deterministic():
    ds = _toy_dataset()
    cfg = tiny_config()
    tcfg = TrainConfig(epochs=1, batch_size=2, max_steps=3, seed=1)
    p1, h1 = train(cfg, tcfg, ds)
    p2, h2 = train(cfg, tcfg, ds)
    assert h1 == h2
    assert all(np.array_equal(p1[n].data, p2[n].data) for n in p1.names())


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(tiny_config(), TrainConfig(max_steps=1), [])


@pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -1}, {"epochs": 0},
                                    {"lr_min": 1e-3, "lr_max": 1e-4},
                                    {"lr_max": 0.0, "lr_min": 0.0},
                                    {"lr_max": -1.0, "lr_min": -2.0}, {"lr_min": -1e-6},
                                    {"max_steps": 0}, {"max_steps": -1},
                                    {"eval_interval": -1}])
def test_train_config_rejects_settings_that_cannot_work(kwargs):
    # a negative batch size used to make the training loop draw no batch, forever
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"weight_decay": math.nan}, {"weight_decay": -0.1},
                                    {"weight_decay": math.inf}, {"lr_max": math.inf},
                                    {"lr_max": math.inf, "lr_min": math.inf}],
                         ids=["decay_nan", "decay_negative", "decay_inf", "lr_max_inf",
                              "both_rates_inf"])
def test_train_config_rejects_a_bad_weight_decay_and_infinite_rates(kwargs):
    # each used to train: a NaN decay turns every parameter into NaN
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def test_train_stops_before_saving_non_finite_parameters(tmp_path):
    # a finite but huge rate moves the f32 parameters to ~1e38 in one step:
    # the loss was finite, but the parameter norm overflows
    ckpt = tmp_path / "m.ckpt"
    tcfg = TrainConfig(batch_size=4, max_steps=1, lr_max=1e38, lr_min=0.0,
                       checkpoint_path=str(ckpt))
    with pytest.raises(TrainingDiverged, match="param_norm at step 0"):
        train(tiny_config(), tcfg, _toy_dataset())
    assert not ckpt.exists() and not (tmp_path / "m.ckpt.best").exists()


def test_train_stops_on_a_non_finite_gradient_norm(tmp_path, monkeypatch):
    def adamw_with_inf_grad(params, state, lr):
        adamw_step(params, state, lr)
        state.grad[0] = np.inf

    monkeypatch.setattr(sys.modules["mdtaf.train"], "adamw_step", adamw_with_inf_grad)
    ckpt = tmp_path / "m.ckpt"
    tcfg = TrainConfig(batch_size=4, max_steps=2, checkpoint_path=str(ckpt))
    with pytest.raises(TrainingDiverged, match="grad_norm at step 0"):
        train(tiny_config(), tcfg, _toy_dataset())
    assert not ckpt.exists()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_non_positive_batch_size(batch_size):
    cfg = tiny_config()
    from mdtaf.model import init_params
    with pytest.raises(ConfigError, match="batch size"):
        evaluate(cfg, init_params(cfg, seed=0), _toy_dataset(n=3), batch_size=batch_size)


def test_train_raises_on_divergence():
    ds = _toy_dataset()
    cfg = tiny_config()
    # an absurd learning rate reliably produces a non-finite loss quickly
    tcfg = TrainConfig(epochs=1, batch_size=4, max_steps=40, seed=0,
                       lr_max=1e6, lr_min=1e6)
    with pytest.raises(TrainingDiverged):
        train(cfg, tcfg, ds)


def test_a_diverging_run_keeps_its_history(tmp_path):
    # the loss turns non-finite at step 1; step 0's record and no checkpoint remain
    hist, ckpt = tmp_path / "h.jsonl", tmp_path / "m.ckpt"
    tcfg = TrainConfig(batch_size=4, max_steps=40, seed=0, lr_max=1e6, lr_min=1e6,
                       history_path=str(hist), checkpoint_path=str(ckpt))
    with pytest.raises(TrainingDiverged):
        train(tiny_config(), tcfg, _toy_dataset())
    records = [json.loads(line) for line in hist.read_text().splitlines()]
    assert records[0]["step"] == 0 and {"loss", "grad_norm", "param_norm"} <= set(records[0])
    assert all(math.isfinite(v) for rec in records for v in rec.values())
    assert not ckpt.exists() and not (tmp_path / "m.ckpt.best").exists()


def test_evaluate_returns_macro_averages():
    ds = _toy_dataset(n=3)
    cfg = tiny_config()
    from mdtaf.model import init_params
    m = evaluate(cfg, init_params(cfg, seed=0), ds, batch_size=2)
    assert isinstance(m, Metrics)
    assert m.count == 3
    assert 0.0 <= m.accuracy <= 1.0 and 0.0 <= m.dice <= 1.0
    assert math.isfinite(m.loss)

"""Loss, AdamW, cosine schedule, Acc/DSC metrics, and the train/eval loops."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .attention import ALPHA_MIN
from .data import DataError
from .model import ModelConfig, init_params, model_forward, save_checkpoint
from .params import ParamStore
from .tensor import BLOCK, ConfigError, ShapeError, Tensor, no_grad, sigmoid_array
from .tensor import _node  # loss primitive shares the tape machinery

DICE_EPS = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """A step gave a non-finite loss, gradient norm or parameter norm."""


def bce_loss(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean per-pixel sigmoid binary cross-entropy, log-sum-exp stable form."""
    if logits.shape != targets.shape:
        raise ShapeError(f"bce_loss shapes differ: {logits.shape} vs {targets.shape}")
    y = targets.data
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("bce_loss targets must be binary {0,1}")
    x = logits.data
    n = x.size
    elem = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out = np.asarray(elem.sum() / n)

    def vjp(g):
        return (g * (sigmoid_array(x) - y) / n, None)

    return _node(out, (logits, targets), vjp)


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """lr_min + 0.5*(lr_max-lr_min)*(1 + cos(pi*step/total_steps))."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class OptimizerState:
    """AdamW weight decay and state.  ``m``, ``v`` and ``grad`` are flat
    arrays laid out like :meth:`ParamStore.flat`, allocated on the first
    step; ``grad`` holds the last step's gathered gradient."""
    weight_decay: float = 1e-2
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None


def adamw_step(params: ParamStore, state: OptimizerState, lr: float):
    """One AdamW update: decoupled weight decay, bias-corrected moments.

    The gradients are gathered into one flat buffer and the update runs over
    the packed parameters in blocks of ``tensor.BLOCK`` elements, in place,
    so each pass over a block stays in cache.  Each element sees the operations
    of the per-tensor form in the same order, so the result is the same.
    """
    flat = params.flat()
    grads, alphas = [], []
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name} has no gradient")
        grads.append(p.grad)
        if name.endswith(".alpha"):
            alphas.append(p.data)
    if state.m is None:
        state.m, state.v, state.grad = (np.zeros_like(flat) for _ in range(3))
    np.concatenate(grads, axis=None, out=state.grad)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    decay = 1.0 - lr * state.weight_decay
    n = flat.size
    a_buf = np.empty(min(n, BLOCK), flat.dtype)
    b_buf = np.empty_like(a_buf)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        p, g, m, v = flat[lo:hi], state.grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = a_buf[:hi - lo], b_buf[:hi - lo]
        # p = p*decay - lr*(m/c1) / (sqrt(v/c2) + eps), after the moment updates
        p *= decay
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        a *= g
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a
    for data in alphas:
        np.maximum(data, ALPHA_MIN, out=data)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    accuracy: float
    dice: float
    loss: float
    count: int


def _check_binary_pair(pred: np.ndarray, target: np.ndarray):
    if pred.shape != target.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {target.shape}")


def dice_score(pred: np.ndarray, target: np.ndarray) -> float:
    """DSC = (2 TP + eps) / (2 TP + FP + FN + eps) over binary masks."""
    _check_binary_pair(pred, target)
    tp = float(np.sum((pred == 1) & (target == 1)))
    fp = float(np.sum((pred == 1) & (target == 0)))
    fn = float(np.sum((pred == 0) & (target == 1)))
    return (2.0 * tp + DICE_EPS) / (2.0 * tp + fp + fn + DICE_EPS)


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    _check_binary_pair(pred, target)
    return float(np.mean(pred == target))


def predict_mask(logits: np.ndarray) -> np.ndarray:
    """Threshold sigmoid(logits) at 0.5, i.e. logits > 0."""
    return (logits > 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# loops

@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 8
    lr_max: float = 1e-4
    lr_min: float = 1e-6
    weight_decay: float = 1e-2
    seed: int = 0
    eval_interval: int = 0  # 0 = only at the end
    max_steps: Optional[int] = None
    checkpoint_path: Optional[str] = None
    history_path: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.lr_max < math.inf:
            raise ConfigError(f"lr_max {self.lr_max} is not positive and finite")
        if not self.lr_min >= 0:
            raise ConfigError(f"lr_min {self.lr_min} is negative")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay {self.weight_decay} is negative or not finite")
        if self.lr_min > self.lr_max:  # so lr_min is finite too
            raise ConfigError("lr_min must be <= lr_max")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps {self.max_steps} is not positive")
        if self.eval_interval < 0:
            raise ConfigError(f"eval_interval {self.eval_interval} is negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch size {self.batch_size} is not positive")
        for name in ("checkpoint_path", "history_path"):
            path = getattr(self, name)
            if path is None:
                continue
            if os.path.isdir(path):
                raise ConfigError(f"{name} {path} is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"{name} {path}: no directory "
                                  f"{os.path.dirname(path)} to write it in")
        # train also writes the best checkpoint beside the last one
        best = self.checkpoint_path and self.checkpoint_path + ".best"
        if best and os.path.isdir(best):
            raise ConfigError(f"checkpoint_path {self.checkpoint_path}: "
                              f"its best checkpoint {best} is a directory")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def _stack_batch(dataset, idx) -> tuple:
    first = dataset[idx[0]]
    for i in idx[1:]:
        if dataset[i].image.shape != first.image.shape:
            raise DataError(f"samples {first.id} {first.image.shape} and {dataset[i].id} "
                            f"{dataset[i].image.shape} differ in size and cannot share a "
                            f"batch; resize every image to one size (--resize) or use "
                            f"batch size 1")
    images = np.stack([dataset[i].image for i in idx]).astype(np.float32)
    masks = np.stack([dataset[i].mask for i in idx]).astype(np.float32)
    return Tensor(images), Tensor(masks)


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: Sequence):
    """Train from ``init_params(model_cfg, train_cfg.seed)``; returns (params, history).

    History is a list of dicts: {"step", "lr", "loss", "grad_norm",
    "param_norm"} per step, the norms taken over every parameter's gradient
    and, after the update, over every parameter; and {"step", "acc", "dice",
    "loss"} per evaluation, each a mean over the whole dataset.  Fully
    deterministic given seeds.  The last parameters go to the checkpoint
    path, if any, and the best-dice evaluation's, the final one included, to
    ``<path>.best`` when one ran before the last step; else it is removed.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    params = init_params(model_cfg, seed=train_cfg.seed)
    opt = OptimizerState(weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed)

    steps_per_epoch = math.ceil(len(dataset) / train_cfg.batch_size)
    total_steps = train_cfg.max_steps or train_cfg.epochs * steps_per_epoch
    denom = max(total_steps - 1, 1)

    history: list[dict] = []

    def write_history():  # also on divergence: the records show what grew
        if train_cfg.history_path:
            with open(train_cfg.history_path, "w") as f:
                f.writelines(json.dumps(rec) + "\n" for rec in history)

    best = train_cfg.checkpoint_path and train_cfg.checkpoint_path + ".best"
    best_dice = -1.0  # below 0 until an evaluation runs before the last step
    step = 0
    while step < total_steps:
        for idx in _batches(len(dataset), train_cfg.batch_size, rng):
            lr = cosine_lr(step, denom, train_cfg.lr_max, train_cfg.lr_min)
            images, masks = _stack_batch(dataset, idx)
            params.zero_grad()
            logits = model_forward(images, model_cfg, params)
            loss = bce_loss(logits, masks)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                write_history()
                raise TrainingDiverged(f"non-finite loss at step {step}")
            loss.backward()
            adamw_step(params, opt, lr)
            norms = {"grad_norm": float(np.linalg.norm(opt.grad)),
                     "param_norm": float(np.linalg.norm(params.flat()))}
            for name, value in norms.items():
                if not math.isfinite(value):
                    write_history()
                    raise TrainingDiverged(f"non-finite {name} at step {step}")
            history.append({"step": step, "lr": lr, "loss": loss_val, **norms})
            step += 1
            last = step == total_steps
            if last or train_cfg.eval_interval and step % train_cfg.eval_interval == 0:
                m = evaluate(model_cfg, params, dataset, batch_size=train_cfg.batch_size)
                history.append({"step": step, "acc": m.accuracy, "dice": m.dice, "loss": m.loss})
                if best and m.dice > best_dice and (not last or best_dice >= 0):
                    best_dice = m.dice
                    save_checkpoint(params, model_cfg, best)
                elif best and last and best_dice < 0 and os.path.lexists(best):
                    os.remove(best)  # it would repeat the last checkpoint
            if last:
                break

    if train_cfg.checkpoint_path:
        save_checkpoint(params, model_cfg, train_cfg.checkpoint_path)
    write_history()
    return params, history


def evaluate(model_cfg: ModelConfig, params: ParamStore, dataset: Sequence,
             batch_size: int = 8) -> Metrics:
    """Mean per-sample metrics over the dataset; parameters untouched."""
    if batch_size < 1:
        raise ConfigError(f"batch size {batch_size} is not positive")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    accs, dices, losses = [], [], []
    with no_grad():
        for i in range(0, len(dataset), batch_size):
            idx = range(i, min(i + batch_size, len(dataset)))
            images, masks = _stack_batch(dataset, idx)
            logits = model_forward(images, model_cfg, params)
            losses.append(bce_loss(logits, masks).item() * len(idx))
            pred = predict_mask(logits.data)
            for j in range(len(idx)):
                accs.append(accuracy(pred[j], masks.data[j].astype(np.uint8)))
                dices.append(dice_score(pred[j], masks.data[j].astype(np.uint8)))
    n = len(dataset)
    return Metrics(accuracy=float(np.mean(accs)), dice=float(np.mean(dices)),
                   loss=float(sum(losses) / n), count=n)


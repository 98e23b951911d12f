"""Loss, AdamW, cosine schedule, Acc/DSC metrics, and the train/eval loops."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .attention import ALPHA_MIN
from .model import ModelConfig, model_forward, save_checkpoint
from .params import ParamStore
from .tensor import ConfigError, ShapeError, Tensor, no_grad, sigmoid_array
from .tensor import _node  # loss primitive shares the tape machinery

DICE_EPS = 1e-6


class TrainingDiverged(RuntimeError):
    pass


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: ParamStore, state: OptimizerState, lr: float):
    """One AdamW update: decoupled weight decay, bias-corrected moments."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {name} has no gradient")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        p.data *= 1.0 - lr * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if name.endswith(".alpha"):
            np.maximum(p.data, ALPHA_MIN, out=p.data)


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
        if not self.lr_max > 0:
            raise ConfigError(f"lr_max {self.lr_max} is not positive")
        if not self.lr_min >= 0:
            raise ConfigError(f"lr_min {self.lr_min} is negative")
        if self.lr_min > self.lr_max:
            raise ConfigError("lr_min must be <= lr_max")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps {self.max_steps} is not positive")
        if self.eval_interval < 0:
            raise ConfigError(f"eval_interval {self.eval_interval} is negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch size {self.batch_size} is not positive")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def _stack_batch(dataset, idx) -> tuple:
    images = np.stack([dataset[i].image for i in idx]).astype(np.float32)
    masks = np.stack([dataset[i].mask for i in idx]).astype(np.float32)
    return Tensor(images), Tensor(masks)


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: Sequence,
          params: Optional[ParamStore] = None):
    """Run the training loop; returns (params, history).

    History is a list of dicts: {"step", "lr", "loss"} per step and
    {"step", "acc", "dice", "loss"} per evaluation, each a mean over the whole
    dataset.  Fully deterministic given seeds.
    """
    from .model import init_params  # local import avoids a cycle at module load

    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if params is None:
        params = init_params(model_cfg, seed=train_cfg.seed)
    opt = OptimizerState(weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed)

    steps_per_epoch = math.ceil(len(dataset) / train_cfg.batch_size)
    total_steps = train_cfg.max_steps or train_cfg.epochs * steps_per_epoch
    denom = max(total_steps - 1, 1)

    history: list[dict] = []
    best_dice = -1.0
    step = 0
    done = False
    while not done:
        for idx in _batches(len(dataset), train_cfg.batch_size, rng):
            lr = cosine_lr(step, denom, train_cfg.lr_max, train_cfg.lr_min)
            images, masks = _stack_batch(dataset, idx)
            params.zero_grad()
            logits = model_forward(images, model_cfg, params)
            loss = bce_loss(logits, masks)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(f"non-finite loss at step {step}")
            loss.backward()
            adamw_step(params, opt, lr)
            history.append({"step": step, "lr": lr, "loss": loss_val})
            step += 1
            if train_cfg.eval_interval and step % train_cfg.eval_interval == 0:
                m = evaluate(model_cfg, params, dataset, batch_size=train_cfg.batch_size)
                history.append({"step": step, "acc": m.accuracy, "dice": m.dice, "loss": m.loss})
                if m.dice > best_dice and train_cfg.checkpoint_path:
                    best_dice = m.dice
                    save_checkpoint(params, model_cfg, train_cfg.checkpoint_path + ".best")
            if step >= total_steps:
                done = True
                break

    m = evaluate(model_cfg, params, dataset, batch_size=train_cfg.batch_size)
    history.append({"step": step, "acc": m.accuracy, "dice": m.dice, "loss": m.loss})
    if train_cfg.checkpoint_path:
        save_checkpoint(params, model_cfg, train_cfg.checkpoint_path)
        if m.dice > best_dice:
            save_checkpoint(params, model_cfg, train_cfg.checkpoint_path + ".best")
    if train_cfg.history_path:
        with open(train_cfg.history_path, "w") as f:
            for rec in history:
                f.write(json.dumps(rec) + "\n")
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


def evaluate_checkpoint(path: str, dataset: Sequence, batch_size: int = 8) -> Metrics:
    from .model import load_checkpoint

    params, cfg = load_checkpoint(path)
    return evaluate(cfg, params, dataset, batch_size=batch_size)

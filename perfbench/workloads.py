"""The benchmark's three closed-loop workloads and the loop that drives them.

A workload is built from a seed, sets itself up (everything before the first
timed operation, warm-up included) and then runs one operation at a time: the
loop waits for each result before it starts the next, as a training loop,
``mdtaf infer`` and a verifier do.  ``check`` is the correctness gate of one
operation; it returns a failure reason, or None when the output is correct.

mdtaf functions are looked up through their modules at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

MODULES = ("tensor", "filter_embed", "attention", "model", "train", "data", "gradcheck")


def load_mdtaf() -> SimpleNamespace:
    """The mdtaf modules by name.  ``import mdtaf.train as m`` would bind the
    ``train`` function that ``mdtaf/__init__.py`` re-exports, not the module."""
    return SimpleNamespace(**{m: importlib.import_module(f"mdtaf.{m}") for m in MODULES})


@dataclass
class OpRecord:
    index: int
    start: float  # perf_counter seconds
    ms: float
    traced: bool
    failure: str | None


def run_loop(workload, seconds: float, tracer=None, calibrator=None) -> tuple[list, float]:
    """Run operations back to back until ``seconds`` have passed and the
    workload may stop; returns the records and the loop's wall time in s.

    With a tracer, odd operations run traced and even ones untraced, so both
    see the same drift of the machine.  With a calibrator, its kernel is timed
    before every operation and after the last.  An operation that raises
    counts as failed; the loop goes on.
    """
    records: list[OpRecord] = []
    t_loop = time.perf_counter()
    i = 0
    while True:
        if calibrator is not None:
            calibrator.sample()
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op(i)
        out, failure = None, None
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as e:  # a failing operation is counted, not fatal
            failure = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        if failure is None:
            failure = workload.check(i, out)
        records.append(OpRecord(i, t0, (t1 - t0) * 1e3, traced, failure))
        i += 1
        if (time.perf_counter() - t_loop >= seconds and workload.may_stop(i)
                and (tracer is None or i >= 2)):
            if calibrator is not None:
                calibrator.sample()
            return records, time.perf_counter() - t_loop


def close_to(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


class Workload:
    """Shared defaults: the timed unit is the whole operation."""

    name = ""
    unit = "op"            # what op_ms_p50 times, in words
    items = "ops"          # what items_per_s counts, in words
    printed_names = ("op_ms", "items_per_s")  # op_ms_p50 and items_per_s, as printed
    items_per_op = 1
    CALIBRATION_REPEATS = 3  # kernel runs per calibration sample, about 4 ms each

    def __init__(self, mdtaf: SimpleNamespace, seed: int, workdir: str,
                 reference=None, tolerance: dict | None = None, calibrator=None):
        self.m = mdtaf
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.tolerance = tolerance or {}
        self.calibrator = calibrator

    def may_stop(self, next_index: int) -> bool:
        return True

    def unit_samples(self, records) -> list:
        """(start in s, duration in ms) of every timed unit of the operations."""
        return [(r.start, r.ms) for r in records]

    def item_count(self, records) -> int:
        return self.items_per_op * len(records)


class DeskTrain(Workload):
    """Desk preset, 8 low-SNR 64x64 ellipse samples, batch 8, AdamW on the
    cosine schedule.  Training restarts from the initial parameters every
    BLOCK_STEPS steps, so every block's last loss can be checked against the
    loss recorded for the seed."""

    name = "desk_train"
    unit = "train step"
    items = "training samples"
    printed_names = ("step_ms", "samples_per_s")
    BATCH = 8
    SIZE = 64
    NOISE_SIGMA = 0.15
    LR_MAX = 3e-4
    LR_MIN = 1e-6
    BLOCK_STEPS = 8
    WARMUP_STEPS = 2
    items_per_op = BATCH

    def setup(self):
        self.load()
        for i in range(self.WARMUP_STEPS):
            self.op(i)

    def load(self):
        """Data written and read back, model initialized: set-up without warm-up."""
        m = self.m
        data_dir = tempfile.mkdtemp(prefix="desk-data-", dir=self.workdir)
        try:
            spec = m.data.SynthSpec(size=self.SIZE, count=self.BATCH, seed=self.seed,
                                    noise_sigma=self.NOISE_SIGMA)
            m.data.generate_dataset(spec, data_dir)
            samples = m.data.load_dataset(data_dir)
        finally:
            shutil.rmtree(data_dir)
        self.images = m.tensor.Tensor(np.stack([s.image for s in samples]))
        self.masks = m.tensor.Tensor(np.stack([s.mask for s in samples]))
        self.cfg = m.model.desk_config()
        self.params = m.model.init_params(self.cfg, seed=self.seed)
        self.initial = {name: t.data.copy() for name, t in self.params.items()}
        self.first_loss = None

    def op(self, i: int) -> float:
        """One train step; the first step of a block restores the initial state."""
        m = self.m
        step = i % self.BLOCK_STEPS
        if step == 0:
            for name, t in self.params.items():
                t.data[...] = self.initial[name]
            self.opt = m.train.OptimizerState()
        lr = m.train.cosine_lr(step, self.BLOCK_STEPS - 1, self.LR_MAX, self.LR_MIN)
        self.params.zero_grad()
        logits = m.model.model_forward(self.images, self.cfg, self.params)
        loss = m.train.bce_loss(logits, self.masks)
        value = loss.item()
        loss.backward()
        m.train.adamw_step(self.params, self.opt, lr)
        return value

    def check(self, i: int, loss: float) -> str | None:
        step = i % self.BLOCK_STEPS
        if not math.isfinite(loss):
            return f"step {i}: non-finite loss {loss}"
        if step == 0:
            self.first_loss = loss
        if step != self.BLOCK_STEPS - 1:
            return None
        if self.first_loss is None or not loss < self.first_loss:
            return f"step {i}: loss {loss:.6f} did not fall below the block's first loss"
        if self.reference is not None and not close_to(
                loss, self.reference, self.tolerance["final_loss_rtol"]):
            return (f"step {i}: final loss {loss!r} differs from the reference "
                    f"{self.reference!r} by more than rtol {self.tolerance['final_loss_rtol']}")
        return None

    def may_stop(self, next_index: int) -> bool:
        return next_index % self.BLOCK_STEPS == 0

    def final_loss(self) -> float:
        """Loss at the last step of one block: the value the reference records."""
        for i in range(self.BLOCK_STEPS):
            loss = self.op(i)
        return loss


# Fixed pixels of the 512x512 logits compared against the recorded reference.
FINGERPRINT_PIXELS = np.sort(np.random.default_rng(2405).choice(512 * 512, 64, replace=False))


def fingerprint(logits: np.ndarray) -> list:
    """Mean of the logits, then the logits at FINGERPRINT_PIXELS."""
    flat = logits.reshape(-1).astype(np.float64)
    return [float(flat.mean())] + [float(v) for v in flat[FINGERPRINT_PIXELS]]


class PaperInfer(Workload):
    """Paper preset (3 channels, 22.8 M parameters) saved and reloaded as a
    checkpoint, then no_grad inference on one 512x512 image at a time,
    alternating between POOL synthetic images."""

    name = "paper_infer"
    unit = "512x512 image"
    items = "images"
    printed_names = ("image_ms", "images_per_s")
    SIZE = 512
    POOL = 2
    CALIBRATION_REPEATS = 15  # still about 1 % of a 6 s image

    def setup(self):
        self.load()
        self.op(0)  # warm-up

    def load(self):
        """Checkpoint saved and reloaded, inputs generated: set-up without warm-up."""
        m = self.m
        cfg = m.model.default_config()
        params = m.model.init_params(cfg, seed=self.seed)
        fd, path = tempfile.mkstemp(prefix="paper-", suffix=".ckpt", dir=self.workdir)
        os.close(fd)
        try:
            m.model.save_checkpoint(params, cfg, path)
            del params
            self.params, self.cfg = m.model.load_checkpoint(path)
        finally:
            os.remove(path)
        spec = m.data.SynthSpec(size=self.SIZE, count=self.POOL, channels=3, seed=self.seed)
        self.inputs = [s.image[None] for s in m.data.generate_samples(spec)]
        self.seen = [None] * self.POOL

    def op(self, i: int) -> np.ndarray:
        m = self.m
        with m.tensor.no_grad():
            image = m.tensor.Tensor(self.inputs[i % self.POOL])
            return m.model.model_forward(image, self.cfg, self.params).data

    def check(self, i: int, logits: np.ndarray) -> str | None:
        shape = (1, 1, self.SIZE, self.SIZE)
        if logits.shape != shape:
            return f"image {i}: logits shape {logits.shape}, expected {shape}"
        if not np.isfinite(logits).all():
            return f"image {i}: non-finite logits"
        slot = i % self.POOL
        got = fingerprint(logits)
        if self.reference is not None:
            want, source = self.reference[slot], "the reference"
        else:
            # no reference recorded for this seed: repeats must reproduce the first output
            if self.seen[slot] is None:
                self.seen[slot] = got
            want, source = self.seen[slot], "the first output for this image"
        atol = self.tolerance["logits_atol"]
        bad = [k for k, (a, b) in enumerate(zip(got, want)) if not close_to(a, b, 0.0, atol)]
        if bad:
            k = bad[0]
            return (f"image {i}: fingerprint entry {k} is {got[k]!r}, {source} has "
                    f"{want[k]!r} (atol {atol})")
        return None


class VerifyGradcheck(Workload):
    """Whole-model finite-difference gradcheck: tiny preset in float64 at
    32x32, parameters randomized from the seed, one probed coordinate per
    tensor, as ``mdtaf gradcheck --module model`` runs it.  The timed unit is
    one finite-difference forward; an operation is one whole check."""

    name = "verify_gradcheck"
    unit = "finite-difference forward"
    items = "finite-difference forwards"
    printed_names = ("fd_eval_ms", "fd_evals_per_s")
    SIZE = 32
    SCALE = 0.1
    MIN_GRAD = 1e-6
    MAX_REL_ERR = 1e-3  # the repository's composite threshold
    CALIBRATE_EVERY = 25  # finite-difference forwards between calibration samples

    def setup(self):
        m = self.m
        self.cfg = m.model.tiny_config()
        store = m.model.init_params(self.cfg, seed=self.seed).astype(np.float64)
        rng = np.random.default_rng(self.seed)
        # O(0.1) values: gradients at the 0.02 init are below what central
        # differences resolve
        for name, t in store.items():
            t.data[:] = rng.normal(scale=self.SCALE, size=t.shape)
            if name.endswith(".alpha"):
                t.data[:] = np.abs(t.data) + 0.5
        self.names = store.names()
        self.tensors = list(store.tensors())
        self.x = m.tensor.Tensor(rng.normal(size=(1, 1, self.SIZE, self.SIZE)))
        self.y = m.tensor.Tensor((rng.random((1, 1, self.SIZE, self.SIZE)) > 0.7)
                                 .astype(np.float64))
        self.fd_samples: dict[int, list] = {}  # op index -> [(start s, ms)]
        self.analytic_ms: dict[int, float] = {}
        self.loss(*self.tensors).backward()  # warm-up: one forward and backward

    def loss(self, *tensors):
        # a plain dict is a parameter store to the model: it only indexes by name
        params = dict(zip(self.names, tensors))
        return self.m.train.bce_loss(self.m.model.model_forward(self.x, self.cfg, params),
                                     self.y)

    def op(self, i: int) -> float:
        samples = []

        def fn(*tensors):
            if self.calibrator is not None and samples and len(samples) % self.CALIBRATE_EVERY == 0:
                self.calibrator.sample()
            t0 = time.perf_counter()
            out = self.loss(*tensors)
            samples.append((t0, (time.perf_counter() - t0) * 1e3))
            return out

        t_check = time.perf_counter()
        err = self.m.gradcheck.grad_check(fn, self.tensors, max_coords=1,
                                          min_grad=self.MIN_GRAD,
                                          rng=np.random.default_rng(self.seed))
        # the first call is the analytic pass; every later one a finite difference
        end = samples[1][0] if len(samples) > 1 else time.perf_counter()
        self.analytic_ms[i] = (end - t_check) * 1e3
        self.fd_samples[i] = samples[1:]
        return err

    def check(self, i: int, err: float) -> str | None:
        if not err < self.MAX_REL_ERR:
            return f"check {i}: max relative error {err!r} is not below {self.MAX_REL_ERR}"
        if not self.fd_samples[i]:
            return f"check {i}: no finite-difference forward ran"
        return None

    def unit_samples(self, records) -> list:
        return [sample for r in records for sample in self.fd_samples.get(r.index, [])]

    def item_count(self, records) -> int:
        return len(self.unit_samples(records))


WORKLOADS = {w.name: w for w in (DeskTrain, PaperInfer, VerifyGradcheck)}

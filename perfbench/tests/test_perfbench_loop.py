import os
import shutil
import subprocess
import sys

import numpy as np

from perfbench import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Flaky(workloads.Workload):
    """Operation 2 raises and operation 4 returns a wrong output."""

    def op(self, i):
        if i == 2:
            raise FloatingPointError("injected")
        return -1 if i == 4 else i

    def check(self, i, out):
        return None if out == i else f"op {i}: got {out}"

    def may_stop(self, next_index):
        return next_index >= 10


def test_injected_failures_are_counted_against_attempts():
    records, wall = workloads.run_loop(Flaky(None, 0, ""), 0.0)
    assert len(records) == 10 and wall >= 0
    failed = [r.index for r in records if r.failure is not None]
    assert failed == [2, 4]
    assert "FloatingPointError: injected" in records[2].failure


def test_injected_nan_loss_fails_a_desk_train_step(monkeypatch, tmp_path):
    m = workloads.load_mdtaf()
    w = workloads.DeskTrain(m, 0, str(tmp_path), reference=None,
                            tolerance={"final_loss_rtol": 1e-4})
    w.setup()
    real = m.train.bce_loss
    calls = []

    def nan_once(logits, targets):
        loss = real(logits, targets)
        calls.append(1)
        if len(calls) == 3:
            loss.data[...] = np.nan
        return loss

    monkeypatch.setattr(m.train, "bce_loss", nan_once)
    records, _ = workloads.run_loop(w, 0.0)
    assert len(records) == workloads.DeskTrain.BLOCK_STEPS
    assert [r.index for r in records if r.failure is not None] == [2]
    assert "non-finite loss" in records[2].failure


def test_wrong_reference_fails_the_last_step_of_a_block(tmp_path):
    w = workloads.DeskTrain(workloads.load_mdtaf(), 0, str(tmp_path), reference=0.5,
                            tolerance={"final_loss_rtol": 1e-4})
    w.setup()
    records, _ = workloads.run_loop(w, 0.0)
    assert [r.index for r in records if r.failure is not None] == [7]


def test_run_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test of the scripts under ``scripts/``: each runs once at a small
size, so a signature change in ``train`` or ``TrainConfig`` that breaks a
script fails here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args,lines", [
    ("ablation_table.py", ["--steps", "1", "--count", "2", "--size", "32"], 5),
    ("calibrate_learning_check.py", ["--steps", "1"], 2),
])
def test_script_runs_at_a_small_size(script, args, lines):
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == lines, proc.stdout

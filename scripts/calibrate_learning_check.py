#!/usr/bin/env python3
"""Calibration run behind the learning-check thresholds.

Sweeps peak learning rates on the exact setup the acceptance test uses
(8 low-SNR 64x64 samples, desk preset, 500 steps, seed 0) and reports the
final loss and training dice for each, so the pinned thresholds
(dice >= 0.95, loss < 0.05 at lr_max 3e-4) stay auditable.  The learning
check reads the loss of the last history record, which is the final
evaluation over the whole dataset; the loss of the last train step is printed
beside it.

Result of the recorded 2026-10-18 run (2-vCPU Intel Xeon VM, numpy 2.4.6,
OpenBLAS 0.3.31 with one BLAS thread, about 80 s per learning rate):
    lr_max 1e-4: last step loss 0.0533, final eval loss 0.0533, dice 0.9530
                 (misses the loss bound)
    lr_max 3e-4: last step loss 0.0191, final eval loss 0.0191, dice 0.9840
                 (clears both bounds)
"""

import argparse

from mdtaf.data import SynthSpec, generate_samples
from mdtaf.model import desk_config
from mdtaf.train import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lrs", default="1e-4,3e-4")
    ap.add_argument("--steps", type=int, default=500)
    args = ap.parse_args()

    ds = generate_samples(SynthSpec(size=64, count=8, seed=0,
                                    noise_sigma=0.15))
    for lr in (float(v) for v in args.lrs.split(",")):
        tcfg = TrainConfig(batch_size=8, max_steps=args.steps, seed=0,
                           lr_max=lr, lr_min=1e-6)
        _, history = train(desk_config(), tcfg, ds)
        step_loss = [h["loss"] for h in history if "lr" in h][-1]
        final = history[-1]
        print(f"lr_max {lr:.0e}: last step loss {step_loss:.4f}, "
              f"final eval loss {final['loss']:.4f}, dice {final['dice']:.4f}")


if __name__ == "__main__":
    main()

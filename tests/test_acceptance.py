"""Release gate: one test per acceptance criterion, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (run with -s to see them) and
asserts the same condition.  Criteria 6 and 7 train real desk-scale models,
so this file dominates suite runtime; budget is minutes, not seconds.
"""

import math
import time

import numpy as np

from mdtaf import verify as V
from mdtaf.attention import combine_branches
from mdtaf.bench import bench_attention
from mdtaf.data import SynthSpec, generate_samples
from mdtaf.gradcheck import grad_check_params
from mdtaf.model import (default_config, desk_config, encoder_forward,
                         init_params, model_forward)
from mdtaf.params import ParamStore
from mdtaf.tensor import Tensor, no_grad
from mdtaf.train import TrainConfig, bce_loss, cosine_lr, train


def _gate(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] acceptance/{criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _low_snr_dataset(count=8, size=64, seed=0):
    # snr = |0.75 - 0.35| / 0.15 = 2.67, the generator's low-contrast regime
    return generate_samples(SynthSpec(size=size, count=count, seed=seed,
                                      noise_sigma=0.15))


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    ok_ops, detail_ops = V.check_gradients_ops()
    ok_blk, detail_blk = V.check_gradients_block()

    # full desk-config model in f64, one probed coordinate per tensor
    cfg = desk_config()
    store = init_params(cfg, seed=0).astype(np.float64)
    V._randomize(store, np.random.default_rng(0), scale=0.1)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(1, 1, 32, 32)))
    y = Tensor((rng.uniform(size=(1, 1, 32, 32)) > 0.5).astype(np.float64))
    err = grad_check_params(lambda p: bce_loss(model_forward(x, cfg, p), y), store,
                            max_coords=1, min_grad=1e-6, rng=np.random.default_rng(0))
    wall = time.monotonic() - t0
    ok = ok_ops and ok_blk and err < 1e-3 and wall < 300.0
    _gate("gradient-suite", ok,
          f"ops({detail_ops}) block({detail_blk}) model {err:.2e} in {wall:.0f}s")


def test_criterion_2_oracle_equivalence():
    checks = [V.check_esa_oracle(), V.check_ssa_oracle(), V.check_csa_oracle()]
    detail = "; ".join(d for _, d in checks)
    _gate("oracle-equivalence", all(ok for ok, _ in checks), detail)


def test_criterion_3_structural_invariants():
    ok_win, d_win = V.check_window_roundtrip()
    ok_gate, d_gate = V.check_filter_gate()

    # SSA locality: a single perturbed pixel leaves other windows untouched
    from mdtaf.attention import (AttentionConfig, init_ssa,
                                 spatial_self_attention)
    from mdtaf.params import Initializer
    cfg = AttentionConfig(channels=8, heads=2, reduction=1, window=4,
                          r1=4, r2=4)
    store = ParamStore()
    init_ssa(store, Initializer(0), "ssa", cfg)
    store["ssa.merge.weight"].data[:] = np.eye(8)
    store["ssa.merge_out.weight"].data[:] = np.eye(8)
    for nm, val in (("gate_c.ch1.weight", 0), ("gate_c.ch2.weight", 0),
                    ("gate_c.ch2.bias", 40.0), ("gate_s.sp1.weight", 0),
                    ("gate_s.sp2.weight", 0), ("gate_s.sp2.bias", -40.0)):
        store[f"ssa.{nm}"].data[:] = val
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 64, 8)).astype(np.float32)
    xp = x.copy()
    xp[0, 0] += 1.0
    with no_grad():
        y0 = spatial_self_attention(Tensor(x), 8, 8, cfg, store, "ssa").data
        y1 = spatial_self_attention(Tensor(xp), 8, 8, cfg, store, "ssa").data
    inside = np.zeros((8, 8), dtype=bool)
    inside[:4, :4] = True
    local = np.array_equal(y0[0, ~inside.reshape(-1)], y1[0, ~inside.reshape(-1)])

    # CSA equivariance is folded into the oracle check; assert it separately
    ok_csa, d_csa = V.check_csa_oracle()
    ok = ok_win and ok_gate and local and ok_csa
    _gate("structural-invariants", ok,
          f"window({d_win}) gate({d_gate}) ssa-local({local}) csa({d_csa})")


def test_criterion_4_shape_contract_512():
    cfg = default_config(input_channels=1)
    params = init_params(cfg, seed=0)
    x = Tensor(np.random.default_rng(0)
               .normal(size=(1, 1, 512, 512)).astype(np.float32))
    with no_grad():
        feats = encoder_forward(x, cfg, params)
        logits = model_forward(x, cfg, params)
    shapes = [f.shape for f in feats]
    want = [(1, 64, 128, 128), (1, 128, 64, 64), (1, 320, 32, 32),
            (1, 512, 16, 16)]
    ok = shapes == want and logits.shape == (1, 1, 512, 512)
    _gate("shape-contract-512", ok, f"{shapes} -> {logits.shape}")


def test_criterion_5_analytic_values():
    ln2 = bce_loss(Tensor(np.zeros((4, 4))),
                   Tensor((np.arange(16).reshape(4, 4) % 2).astype(np.float64)))
    ok_bce = abs(ln2.item() - math.log(2.0)) < 1e-9
    ok_sched = (cosine_lr(0, 100, 1e-4, 1e-6) == 1e-4
                and cosine_lr(100, 100, 1e-4, 1e-6) == 1e-6)
    ones = Tensor(np.ones((2, 4, 4)))
    ok_stub = (combine_branches(ones, ones, ones).data == 2.0).all()
    _gate("analytic-values", ok_bce and ok_sched and ok_stub,
          f"bce-ln2 {ok_bce}, schedule {ok_sched}, lambda-stub {ok_stub}")


def test_criterion_6_learning_check():
    # calibrated 2026-08: lr_max 3e-4 reaches loss 0.018 / dice 0.985 at step
    # 500; the default lr_max 1e-4 stalls at loss 0.053 and misses the bound
    t0 = time.monotonic()
    ds = _low_snr_dataset()
    cfg = desk_config()
    tcfg = TrainConfig(batch_size=8, max_steps=500, seed=0,
                       lr_max=3e-4, lr_min=1e-6)
    _, history = train(cfg, tcfg, ds)
    final_loss = [h["loss"] for h in history if "loss" in h][-1]
    final_dice = [h["dice"] for h in history if "dice" in h][-1]
    wall = time.monotonic() - t0
    ok = final_dice >= 0.95 and final_loss < 0.05 and wall < 900.0
    _gate("learning-check", ok,
          f"dice {final_dice:.4f}, loss {final_loss:.4f}, {wall:.0f}s")


def test_criterion_7_ablation_lattice():
    ds = _low_snr_dataset(count=4, size=32)
    results = {}
    for filtering in (True, False):
        for msa in (True, False):
            cfg = desk_config(filtering=filtering, msa=msa)
            tcfg = TrainConfig(batch_size=4, max_steps=50, seed=0, lr_max=3e-4)
            params, history = train(cfg, tcfg, ds)
            losses = [h["loss"] for h in history if "loss" in h]
            with no_grad():
                out = model_forward(
                    Tensor(ds[0].image[None]), cfg, params).data.copy()
            results[(filtering, msa)] = (params.param_count(), losses, out)
    finite = all(np.isfinite(l).all() for _, l, _ in
                 (results[k] for k in results))
    counts = {results[k][0] for k in results}
    outs = [results[k][2] for k in results]
    distinct = all(np.abs(outs[i] - outs[j]).max() > 1e-8
                   for i in range(4) for j in range(i + 1, 4))
    ok = finite and len(counts) == 4 and distinct
    _gate("ablation-lattice", ok,
          f"finite {finite}, param counts {sorted(counts)}, distinct {distinct}")


def test_criterion_8_esa_complexity():
    walls = []
    for r in (1, 2, 4, 8):
        rows = bench_attention(["esa"], [4096], reduction=r)
        walls.append(rows[0]["wall_ms"])
    monotone = all(a > b for a, b in zip(walls, walls[1:]))
    _gate("esa-complexity", monotone,
          "R 1/2/4/8 -> " + "/".join(f"{w:.1f}ms" for w in walls))


def test_criterion_9_reproducibility(tmp_path):
    ds = _low_snr_dataset(count=2, size=32)
    cfg = desk_config()
    blobs, traces = [], []
    for run_id in (0, 1):
        path = str(tmp_path / f"run{run_id}.ckpt")
        tcfg = TrainConfig(batch_size=2, max_steps=5, seed=0,
                           checkpoint_path=path)
        _, history = train(cfg, tcfg, ds)
        with open(path, "rb") as f:
            blobs.append(f.read())
        traces.append([h["loss"] for h in history if "loss" in h])
    ok = blobs[0] == blobs[1] and traces[0] == traces[1]
    _gate("reproducibility", ok,
          f"checkpoints identical {blobs[0] == blobs[1]}, "
          f"traces identical {traces[0] == traces[1]}")

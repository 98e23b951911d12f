"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/`` next
to this directory, and nothing else is.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with ``--trace 1``
it has the per-layer metrics of a traced run.  Times are at a reference machine
speed (see ``calibration.py``).  Every line before it is for people: the
machine, each metric under its workload-specific name with unit, sample count
and raw value, and the correctness verdict.  The exit code is 0 when every
operation passed its correctness gate, 1 when one failed and 2 when the
program's sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread setting for every run, set before numpy loads.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)
sys.path[:0] = [SRC, ROOT]

from perfbench import calibration, stats, tracer as tracing, workloads  # noqa: E402

DEFAULT_SEED = 0
HELDOUT_SEED = 1  # confirm a claim made on DEFAULT_SEED on this one
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms_p50", "ms"),
              ("items_per_s", "1/s"))

# Per-layer metrics of the traced run, each a mean per operation (per set-up
# for the set-up calls).  A layer a workload never calls reads 0.
PER_LAYER = (
    ("filter_embed.attention_weights_ms", "ms"),
    ("filter_embed.overlap_patch_embed_ms", "ms"),
    ("filter_embed.filtered_embed_ms", "ms"),
    ("attention.esa_ms", "ms"),
    ("attention.ssa_ms", "ms"),
    ("attention.csa_ms", "ms"),
    ("attention.block_self_ms", "ms"),
    ("model.decoder_ms", "ms"),
    ("model.forward_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    *((f"tensor.vjp_ms.{op}", "ms") for op in (
        "conv2d", "conv_transpose2d", "matmul", "gelu", "bilinear_resize", "getitem",
        "mul", "add")),
    ("train.bce_loss_ms", "ms"),
    ("train.adamw_ms", "ms"),
    *((f"tensor.fwd_ms.{op}", "ms") for op in (
        "conv2d", "conv_transpose2d", "matmul", "gelu", "layer_norm", "softmax",
        "bilinear_resize")),
    ("tensor.nodes_per_op", "count"),
    ("gradcheck.fd_evals", "count"),
    ("gradcheck.analytic_ms", "ms"),
    ("model.init_params_ms", "ms"),
    ("model.save_checkpoint_ms", "ms"),
    ("model.load_checkpoint_ms", "ms"),
    ("data.generate_dataset_ms", "ms"),
    ("data.load_dataset_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

SETUP_SPANS = ("model.init_params", "model.save_checkpoint", "model.load_checkpoint",
               "data.generate_dataset", "data.load_dataset")


def layer_metric_name(span: str) -> str:
    """Span name -> per-layer metric name."""
    if span == "op":
        return "trace.remainder_ms"  # the operation's own time outside every layer span
    if span == "attention.block":
        return "attention.block_self_ms"
    for kind in ("fwd", "vjp"):
        prefix = f"tensor.{kind}."
        if span.startswith(prefix):
            return f"tensor.{kind}_ms.{span[len(prefix):]}"
    return f"{span}_ms"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the loop of operations runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run that reports per-layer metrics")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": NPROC, "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ[BLAS_THREAD_VARS[0]]}


# ---------------------------------------------------------------------------
# reporting

def show(name: str, value, unit: str, n=None, note: str = ""):
    count = "" if n is None else f"n={n}"
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<38} {text:>14} {unit:<8} {count:<8} {note}".rstrip())


def normalized(cal, samples) -> list:
    """Unit times at the reference speed, in ms."""
    return [ms * cal.factor(start, start + ms / 1e3) for start, ms in samples]


def report_end_to_end(w, records, failed, cal, loop, setups, import_s):
    """loop: (start, wall s, calibration s) of the loop; setups: (start, s) of each set-up."""
    samples = w.unit_samples(records)
    raw = [ms for _, ms in samples]
    norm = normalized(cal, samples)
    summary = stats.timing_summary(norm)
    items = w.item_count(records)
    loop_start, loop_wall, loop_cal_s = loop
    busy_s = loop_wall - loop_cal_s
    # timed units at their own speed; the rest of the loop at its median speed
    busy_norm_s = (sum(norm) + (busy_s * 1e3 - sum(raw)) * cal.run_factor(loop_start)) / 1e3
    items_per_s = items / busy_norm_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [cal.factor(t, t + d) for t, d in setups]
    setup_total = (import_s * factors[0]
                   + statistics.median(d * f for (_, d), f in zip(setups, factors)))
    op_name, items_name = w.printed_names
    print(f"calibration: kernel median {statistics.median(cal.kernel_ms):.3f} ms over "
          f"{len(cal.kernel_ms)} samples; times below are at the reference speed "
          f"({calibration.REF_KERNEL_MS} ms kernel), raw ones in the notes")
    print(f"end-to-end metrics (timed unit: {w.unit}; items: {w.items}):")
    show("setup_s", setup_total, "s", len(setups),
         f"imports + median of {len(setups)} set-ups; raw imports {import_s:.3f} s, "
         f"set-ups {', '.join(f'{d:.3f}' for _, d in setups)} s")
    show("peak_rss_mb", peak_rss_mb, "MB")
    show("failed_frac", failed / len(records), "ops", len(records), f"{failed} failed")
    show(f"{op_name}_p50", summary["p50"], "ms", summary["n"],
         f"raw {statistics.median(raw):.6g} ms")
    if summary["tail_q"] is None:
        show(f"{op_name}_tail", "n/a", "ms", summary["n"],
             f"fewer than {stats.MIN_BEYOND} samples beyond any percentile")
    else:
        q = summary["tail_q"]
        show(f"{op_name}_{stats.percentile_label(q)}", summary["tail"], "ms", summary["n"],
             f"raw {stats.percentile(raw, q):.6g} ms; highest percentile with >= "
             f"{stats.MIN_BEYOND} samples beyond it")
    show(items_name, items_per_s, "1/s", items,
         f"raw {items / busy_s:.6g} 1/s over {busy_s:.2f} s of loop without calibration")
    if w.name == "verify_gradcheck":
        show("check_s", statistics.median(r.ms for r in records) / 1e3, "s", len(records),
             "raw median of one whole-model check, calibration samples included")
    return {"setup_s": setup_total, "peak_rss_mb": peak_rss_mb,
            "op_ms_p50": summary["p50"], "items_per_s": items_per_s}


def report_per_layer(w, records, tracer, cal):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    factor = cal.run_factor()
    per_op = tracer.totals_ms(r.index for r in traced)
    per_setup = tracer.totals_ms([-1])
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for span, ms in per_op.items():
        if span not in SETUP_SPANS:
            metrics[layer_metric_name(span)] = ms / len(traced)
    for span in SETUP_SPANS:
        metrics[layer_metric_name(span)] = per_setup.get(span, 0.0)
    metrics["trace.op_ms"] = statistics.fmean(tracer.op_ms().values())
    if w.name == "verify_gradcheck":
        metrics["gradcheck.analytic_ms"] = statistics.fmean(
            w.analytic_ms[r.index] for r in traced)
    listed = dict(PER_LAYER)
    metrics = {name: ms * factor if listed.get(name, "ms") == "ms" else ms
               for name, ms in metrics.items()}
    metrics["tensor.nodes_per_op"] = statistics.fmean(
        tracer.nodes_per_op[r.index] for r in traced)
    if w.name == "verify_gradcheck":
        metrics["gradcheck.fd_evals"] = statistics.fmean(
            len(w.fd_samples[r.index]) for r in traced)
    traced_p50 = statistics.median(normalized(cal, w.unit_samples(traced)))
    untraced_p50 = statistics.median(normalized(cal, w.unit_samples(untraced)))
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0

    layer_sum = sum(metrics[layer_metric_name(span)] for span in per_op
                    if not span.startswith(("tensor.fwd.", "tensor.vjp.")))
    print(f"per-layer self times, mean per operation over {len(traced)} traced "
          f"operations ({len(untraced)} untraced), at the reference speed "
          f"(factor {factor:.4f} on raw times):")
    for name, unit in PER_LAYER:
        show(name, metrics[name], unit)
    for name in sorted(layer_metric_name(s) for s in per_op):
        if name not in listed:
            show(name, metrics[name], "ms", note="(not a listed metric)")
    print(f"  layer track: self times incl. remainder {layer_sum:.3f} ms = traced op time "
          f"{metrics['trace.op_ms']:.3f} ms (remainder {metrics['trace.remainder_ms']:.3f} ms, "
          f"non-negative: {metrics['trace.remainder_ms'] >= 0})")
    print(f"  overhead: traced median {traced_p50:.3f} ms / untraced median "
          f"{untraced_p50:.3f} ms of one {w.unit}")
    return {name: metrics[name] for name in listed}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mdtaf", "__init__.py")):
        print(f"perfbench: no mdtaf sources under {SRC}", file=sys.stderr)
        return 2
    mdtaf = workloads.load_mdtaf()
    if not os.path.abspath(mdtaf.model.__file__).startswith(SRC + os.sep):
        print(f"perfbench: mdtaf was imported from {mdtaf.model.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    with open(os.path.join(BENCH_DIR, "references.json")) as f:
        refs = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    reference = refs[args.workload]["seeds"].get(str(args.seed))
    tolerance = refs[args.workload]["tolerance"]
    machine = machine_record()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (default seed {DEFAULT_SEED}, held-out seed {HELDOUT_SEED})")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("reference: " + ("recorded for this seed" if reference is not None else
                           "none recorded for this seed; invariant checks only"))

    cal = calibration.Calibrator(repeats=cls.CALIBRATION_REPEATS)
    tracer = tracing.Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        w = cls(mdtaf, args.seed, OUT_DIR, reference, tolerance, calibrator=cal)
        cal.sample()
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            w.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setups.append((t0, time.perf_counter() - t0))

    spent_before = cal.spent_s
    loop_start = time.perf_counter()
    records, wall_s = workloads.run_loop(w, args.seconds, tracer, cal)
    loop = (loop_start, wall_s, cal.spent_s - spent_before)
    failed = sum(r.failure is not None for r in records)
    for r in records:
        if r.failure is not None:
            print(f"FAILED: {r.failure}")

    if tracer:
        metrics = report_per_layer(w, records, tracer, cal)
        units = dict(PER_LAYER)
        tracer.save(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.npz"))
    else:
        metrics = report_end_to_end(w, records, failed, cal, loop, setups, import_s)
        units = dict(END_TO_END)
    correct = failed == 0
    print(f"correct: {correct} ({failed} of {len(records)} operations failed)")

    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, setups_s=[d for _, d in setups],
                  op_ms=[r.ms for r in records], units=w.unit_samples(records),
                  kernel=list(zip(cal.starts, cal.kernel_ms)))
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

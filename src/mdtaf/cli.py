"""Command-line entry point.

Subcommands: gen-data, train, eval, infer, gradcheck, verify, bench.
Exit codes: 0 success, 1 validation failure (threshold exceeded / checks
failed), 2 usage error.  A JSON config file, one object with flat dotted
keys (e.g. "train.lr-max"), pre-sets flags of the command being run; the
last dotted segment names the flag, explicit flags win, and a key that
names no flag of the command, or a value its flag could not have parsed
(a string for a number, a non-bool for a switch, a value outside the
choices), is a usage error.  MDTAF_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as D
from . import model as M
from .train import (TrainConfig, evaluate_checkpoint, predict_mask,
                    train as run_training)
from .bench import bench_attention
from .tensor import ConfigError, Tensor, no_grad


def _default_seed() -> int:
    return int(os.environ.get("MDTAF_SEED", "0"))


def _build_parser():
    """The top-level parser and its sub-parsers by command name."""
    p = argparse.ArgumentParser(prog="mdtaf", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="JSON config file with flat dotted keys")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic segmentation dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=8)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--family", choices=("ellipses", "blobs", "lungs"), default="ellipses")
    g.add_argument("--fg-mean", type=float, default=0.75)
    g.add_argument("--bg-mean", type=float, default=0.35)
    g.add_argument("--noise-sigma", type=float, default=0.15)
    g.add_argument("--blur-radius", type=int, default=1)
    g.add_argument("--channels", type=int, default=1)
    g.add_argument("--seed", type=int, default=None)

    t = sub.add_parser("train", help="train on an image/mask directory")
    t.add_argument("--data", required=True)
    t.add_argument("--preset", choices=("desk", "paper"), default="desk")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--steps", type=int, default=None, help="cap on total steps")
    t.add_argument("--batch-size", type=int, default=8)
    t.add_argument("--lr-max", type=float, default=1e-4)
    t.add_argument("--lr-min", type=float, default=1e-6)
    t.add_argument("--weight-decay", type=float, default=1e-2)
    t.add_argument("--eval-interval", type=int, default=0)
    t.add_argument("--resize", type=int, default=None)
    t.add_argument("--checkpoint", default="mdtaf.ckpt")
    t.add_argument("--history", default=None)
    t.add_argument("--no-filtering", action="store_true", help="PE ablation")
    t.add_argument("--no-msa", action="store_true", help="ESA-only ablation")
    t.add_argument("--seed", type=int, default=None)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--resize", type=int, default=None)
    e.add_argument("--batch-size", type=int, default=8)

    i = sub.add_parser("infer", help="segment a single image")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--image", required=True)
    i.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gc.add_argument("--module", choices=("ops", "block", "model"), default="ops")
    gc.add_argument("--seed", type=int, default=None)

    sub.add_parser("verify", help="run the full invariant suite")

    b = sub.add_parser("bench", help="attention latency / FLOP / memory table (CSV)")
    b.add_argument("--kinds", default="dense,esa,ssa,csa")
    b.add_argument("--sizes", default="1024,4096")
    b.add_argument("--channels", type=int, default=64)
    b.add_argument("--reduction", type=int, default=8)
    b.add_argument("--window", type=int, default=8)
    b.add_argument("--heads", type=int, default=2)
    b.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return p, sub.choices


def _fits(action: argparse.Action, value) -> bool:
    """True when a JSON value is one the flag of ``action`` could have parsed."""
    if action.nargs == 0:  # store_true
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.choices is not None and value not in action.choices:
        return False
    kinds = {int: int, float: (int, float), None: str}[action.type]
    return isinstance(value, kinds)


def _apply_config_file(args: argparse.Namespace, command: argparse.ArgumentParser):
    """Dotted keys in the JSON file become defaults of ``command``'s flags, so
    that parsing the arguments again keeps explicit flags first.

    Raises ValueError for a file that is not one JSON object, for a key that
    names no flag of ``args.command`` and for a value that its flag could not
    have parsed.
    """
    if not args.config:
        return
    with open(args.config) as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        raise ValueError(f"expected a JSON object, got {type(overrides).__name__}")
    flags = {a.dest: a for a in command._actions if a.dest in vars(args)}
    for key, value in overrides.items():
        attr = key.split(".")[-1].replace("-", "_")
        if attr not in flags:
            raise ValueError(f"key {key!r} names no flag of {args.command!r}")
        if not _fits(flags[attr], value):
            raise ValueError(f"key {key!r}: {value!r} is not a valid value of "
                             f"--{attr.replace('_', '-')}")
        command.set_defaults(**{attr: value})


def _print_resolved(args: argparse.Namespace):
    shown = {k: v for k, v in vars(args).items() if k != "command"}
    print(f"resolved config ({args.command}): {json.dumps(shown, sort_keys=True, default=str)}")


def _model_cfg(args, in_channels: int) -> M.ModelConfig:
    base = M.desk_config() if args.preset == "desk" else M.default_config()
    return dataclasses.replace(base, input_channels=in_channels,
                               filtering=not args.no_filtering,
                               msa=not args.no_msa)


def cmd_gen_data(args) -> int:
    spec = D.SynthSpec(size=args.size, count=args.count, family=args.family,
                       fg_mean=args.fg_mean, bg_mean=args.bg_mean,
                       noise_sigma=args.noise_sigma, blur_radius=args.blur_radius,
                       channels=args.channels, seed=args.seed)
    records = D.generate_dataset(spec, args.out)
    print(f"wrote {len(records)} samples to {args.out} (snr={spec.snr})")
    return 0


def cmd_train(args) -> int:
    dataset = D.load_dataset(args.data, size=args.resize)
    if not dataset:
        print("error: empty dataset", file=sys.stderr)
        return 1
    cfg = _model_cfg(args, dataset[0].image.shape[0])
    epochs = args.epochs if args.epochs is not None else (1 if args.steps else 100)
    tcfg = TrainConfig(epochs=epochs, batch_size=args.batch_size,
                          lr_max=args.lr_max, lr_min=args.lr_min,
                          weight_decay=args.weight_decay, seed=args.seed,
                          eval_interval=args.eval_interval, max_steps=args.steps,
                          checkpoint_path=args.checkpoint, history_path=args.history)
    _, history = run_training(cfg, tcfg, dataset)
    final = history[-1]
    print(f"final: acc={final['acc']:.4f} dice={final['dice']:.4f} "
          f"(checkpoint: {args.checkpoint})")
    return 0


def cmd_eval(args) -> int:
    dataset = D.load_dataset(args.data, size=args.resize)
    m = evaluate_checkpoint(args.checkpoint, dataset, batch_size=args.batch_size)
    print(f"acc={m.accuracy:.4f} dice={m.dice:.4f} loss={m.loss:.4f} n={m.count}")
    return 0


def cmd_infer(args) -> int:
    params, cfg = M.load_checkpoint(args.checkpoint)
    image = D.load_image(args.image)
    if image.shape[0] != cfg.input_channels:
        print(f"error: checkpoint expects {cfg.input_channels} channels, "
              f"image has {image.shape[0]}", file=sys.stderr)
        return 1
    with no_grad():
        logits = M.model_forward(Tensor(image[None]), cfg, params)
    mask = predict_mask(logits.data)[0, 0] * 255
    D.write_pnm(args.out, mask.astype(np.uint8))
    print(f"wrote mask {mask.shape} to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import verify as V
    checks = {"ops": V.check_gradients_ops, "block": V.check_gradients_block,
              "model": V.check_gradients_model}
    ok, detail = checks[args.module](seed=args.seed)
    print(f"gradcheck {args.module}: {detail}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .verify import run_all
    return 0 if run_all() else 1


def cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = bench_attention(kinds, sizes, channels=args.channels,
                           heads=args.heads, reduction=args.reduction,
                           window=args.window)
    lines = ["kind,N,C,R_or_w,flops_estimate,wall_ms,peak_mb"]
    for r in rows:
        lines.append(f"{r['kind']},{r['N']},{r['C']},{r['R_or_w']},"
                     f"{r['flops_estimate']:.0f},{r['wall_ms']:.3f},{r['peak_mb']:.3f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {"gen-data": cmd_gen_data, "train": cmd_train, "eval": cmd_eval,
             "infer": cmd_infer, "gradcheck": cmd_gradcheck,
             "verify": cmd_verify, "bench": cmd_bench}


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        _apply_config_file(args, commands[args.command])
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error reading config file: {e}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    _print_resolved(args)
    try:
        return _COMMANDS[args.command](args)
    except (D.DataError, M.CheckpointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        # a flag value that cannot work is a usage error
        return 2 if isinstance(e, (D.SpecError, ConfigError)) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

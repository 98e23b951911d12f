"""Record the per-seed reference outputs that the correctness gates compare against.

    python3 perfbench/record_references.py --workload desk_train --seeds 0-31

For ``desk_train`` the reference is the loss at the last step of one training
block; for ``paper_infer`` it is the fingerprint (mean and 64 fixed pixels) of
the logits of each pooled image.  ``verify_gradcheck`` needs none: its gate is
the finite-difference bound itself.  References are recorded with the same
code path the benchmark times, from the program as it stands; a later change
to the program must reproduce them within the tolerances in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCES = os.path.join(BENCH_DIR, "references.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("desk_train", "paper_infer"))
    p.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,1,7")
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)  # the benchmark's own setting
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads
    from perfbench.spread import parse_seeds

    m = workloads.load_mdtaf()
    workdir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(workdir, exist_ok=True)
    with open(REFERENCES) as f:
        refs = json.load(f)
    seeds = refs[args.workload]["seeds"]
    for seed in parse_seeds(args.seeds):
        w = workloads.WORKLOADS[args.workload](m, seed, workdir)
        w.load()
        if args.workload == "desk_train":
            seeds[str(seed)] = w.final_loss()
        else:
            seeds[str(seed)] = [workloads.fingerprint(w.op(i)) for i in range(w.POOL)]
        print(f"seed {seed}: {seeds[str(seed)] if args.workload == 'desk_train' else 'ok'}",
              flush=True)
        with open(REFERENCES, "w") as f:
            json.dump(refs, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

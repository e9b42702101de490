"""Record the final-eval goldens of the train workloads into goldens.json.

    python3 e2ebench/record_goldens.py [--seeds 0-20]

Run it from the root of a source checkout of the commit whose outputs are the
reference (the parent of a change under test), never of the change itself.
For every train workload and every seed it generates the workload's dataset,
runs one `train` command and keeps the final-eval fields `train` prints and
the logits of the policy it writes.
The benchmark checks each request against the golden of its seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDENS = BENCH_DIR / "goldens.json"


def parse_seeds(text: str) -> list[int]:
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="seed list, e.g. 0-20 or 1,3,7-9")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    goldens: dict[str, dict[str, dict]] = {}
    work = BENCH_DIR / "out" / "goldens"
    for spec in workloads.TRAIN_SPECS:
        seeds = sorted(set(parse_seeds(args.seeds)) | {spec.default_seed})
        goldens[spec.name] = {}
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = workloads.TrainWorkload(spec, work, seed, goldens={})
            workload.setup_in_process()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = workloads.cli.main(workload.argv())
            if code != 0:
                print(f"error: {spec.name} seed {seed}: train exited {code}", file=sys.stderr)
                return 1
            goldens[spec.name][str(seed)] = {
                "eval": workloads.parse_report(out.getvalue()),
                "logits": workloads.policy_logits(workload.out_dir),
            }
            print(spec.name, seed, goldens[spec.name][str(seed)]["eval"], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

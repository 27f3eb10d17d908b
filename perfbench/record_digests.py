"""Records the decision digests the suite workloads check against.

Run from the repository root::

    python3 perfbench/record_digests.py --seeds 0-24 [--seconds 20]

For every run seed and suite workload this makes one run (with the
``--seconds`` of ``BENCHMARK.json``), checks every pass against an
independent engine configuration, and stores each pass's per-benchmark
digests in ``perfbench/digests.json`` under the pass's generator seed.
A change that alters merge decisions or generated modules must re-record
them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-24")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    work_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    with open(worker.DIGESTS_PATH) as handle:
        table = json.load(handle)
    for seed in seed_range(args.seeds):
        env = run.pinned_env(root, build_dir, seed)
        for workload in worker.SUITES:
            output = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--work-dir", work_dir,
                 "--record"],
                env=env, stdout=subprocess.PIPE, text=True, check=True)
            out = json.loads(output.stdout.strip().splitlines()[-1])
            if out["failed"]:
                print(f"{workload} seed {seed}: decisions differ from the "
                      f"reference engine: {out['mismatched']}",
                      file=sys.stderr)
                return 1
            table.setdefault(workload, {}).update(out["digests"])
            print(f"{workload} seed {seed}: passes {out['pass_seeds']} "
                  f"recorded", flush=True)
        with open(worker.DIGESTS_PATH, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The merge pipeline's benchmark: one command for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spec-paper --seed 1 --seconds 20 --trace 0

Workloads: ``spec-paper``, ``spec-product``, ``daemon-edits`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` makes a traced run and reports the per-layer
metrics.  Every process the run starts gets its generator seed and its
``PYTHONHASHSEED`` from ``--seed``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are scaled to a reference host speed (``hostspeed.py``); the run
record keeps the measured ones.

Build outputs (the native alignment kernel) and run records go to
``$CARGO_TARGET_DIR`` (default ``.bench_build``) inside the checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spec-paper", "spec-product", "daemon-edits")
#: Whole run, build excluded; the worker is stopped past it.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 600.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "size_reduction_pct": "%",
    "runtime_overhead_pct": "%", "update_p50_ms": "ms",
    "update_tail_ms": "ms", "request_p50_ms": "ms", "request_tail_ms": "ms",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s", "workloads.functions": "count",
    "workloads.hashseed_dependent": "count",
    "passes.run_s": "s",
    "baselines.identical_s": "s", "baselines.soa_s": "s",
    "engine.fingerprint_s": "s", "engine.search_s": "s",
    "engine.linearize_s": "s", "engine.align_s": "s",
    "engine.cache_key_s": "s", "engine.kernel_s": "s",
    "engine.codegen_s": "s", "engine.profitability_s": "s",
    "engine.commit_s": "s", "engine.other_s": "s",
    "engine.candidates_evaluated": "count",
    "engine.profitable_ratio": "ratio", "engine.align_cells": "count",
    "engine.cache_hit_rate": "ratio", "engine.cache_bytes": "bytes",
    "scheduler.replans": "count", "scheduler.wasted_ratio": "ratio",
    "session.update_s": "s", "session.plan_reuse_ratio": "ratio",
    "session.functions_replanned": "count",
    "ir.verify_s": "s", "ir.print_s": "s",
    "targets.cost_s": "s", "frontend.compile_s": "s",
    "service.handle_s": "s", "service.decode_s": "s", "service.wire_s": "s",
    "service.response_bytes": "bytes", "service.memo_hit_ratio": "ratio",
    "evaluation.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio", "trace.coverage_ratio": "ratio",
    "trace.unattributed_s": "s",
    "xcheck.fingerprint_gap_pct": "%", "xcheck.search_gap_pct": "%",
    "xcheck.linearize_gap_pct": "%", "xcheck.align_gap_pct": "%",
    "xcheck.codegen_gap_pct": "%", "xcheck.profitability_gap_pct": "%",
    "xcheck.commit_gap_pct": "%", "xcheck.legacy_gap_pct": "%",
}

#: Configuration knobs the program reads from the environment; the
#: benchmark pins every one of them by removing it.
PROGRAM_ENV_PREFIX = "REPRO_"


def pinned_env(root: str, build_dir: str, seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(PROGRAM_ENV_PREFIX)}
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "PYTHONHASHSEED": str(seed % (1 << 32)),
        "PYTHONPATH": os.path.join(root, "src"),
        "REPRO_NATIVE_BUILD_DIR": os.path.join(build_dir, "native"),
        "TMPDIR": tmp,
    })
    return env


def run_group(command: list, env: dict, timeout: float, **kwargs):
    """Run ``command`` in its own process group; on timeout the whole group
    (the worker and any daemon it started) is killed and waited for."""
    process = subprocess.Popen(command, env=env, start_new_session=True,
                               **kwargs)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, stdout


def build(env: dict) -> bool:
    """Compile the native alignment kernel (once per checkout); False when
    the machine has no C compiler and ``auto`` falls back to NumPy."""
    code, stdout = run_group(
        [sys.executable, "-c",
         "from repro.core.native import native_available;"
         "print(native_available())"],
        env, BUILD_LIMIT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError("the repro package does not import")
    return stdout.strip() == "True"


def report(out: dict, trace: int) -> dict:
    """Print every metric by name with unit and sample count; return the
    metrics in the result-line shape."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        entry = out["metrics"][name]
        if trace:
            value, samples, note = entry, None, ""
        else:
            value, _, samples, note = entry
        metrics[name] = {"value": value, "unit": unit}
        detail = f" (n={samples}{', ' + note if note else ''})" if samples else ""
        print(f"  {name} = {value:.6g} {unit}{detail}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    work_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    env = pinned_env(root, build_dir, args.seed)

    native = build(env)
    start = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    code, stdout = run_group(command, env, RUN_LIMIT_S,
                             stdout=subprocess.PIPE, text=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: the {args.workload} run failed (exit {code})",
              file=sys.stderr)
        return 1
    out = json.loads(lines[-1])
    out["native_kernel_built"] = native
    out["run_seconds"] = time.monotonic() - start
    record = os.path.join(
        work_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump(out, handle, indent=1)

    seeds = out["seeds"]
    print(f"perfbench: workload={args.workload} generator seed="
          f"{seeds['generator']} PYTHONHASHSEED={seeds['PYTHONHASHSEED']} "
          f"cpus={out['cpus']} python={out['python']}")
    print(f"perfbench: config {json.dumps(out['config'], sort_keys=True)}")
    if "speed" in out:
        print(f"perfbench: host speed factors (reference probe time / "
              f"measured; times are scaled by them) "
              f"{json.dumps(out['speed'])}")
    print(f"perfbench: decisions checked by {out['check']}: "
          f"{out['attempted']} operations, {out['failed']} failed")
    print(f"perfbench: workloads.hashseed_dependent = "
          f"{out['hashseed_dependent']} (modules generated with "
          f"hash(config.name) change with PYTHONHASHSEED)")
    metrics = report(out, args.trace)
    problems = out.get("trace_problems", [])
    if args.trace:
        print(f"perfbench: layer self times sum to "
              f"{out['metrics']['trace.coverage_ratio']:.4f} of the traced "
              f"wall; tracing overhead "
              f"{out['metrics']['trace.overhead_ratio']:.3f}x; "
              f"{out['spans_dropped']} spans past the in-memory cap")
        for problem in problems:
            print(f"perfbench: TRACE CHECK FAILED: {problem}")
        print("perfbench: engine stage seconds, outside-in spans vs the "
              "engine's own stage_stats (legacy: stage_times vs stage_stats)")
        for stage, row in out["xcheck"].items():
            print(f"  {stage:14s} outside {row['outside_s']:.4f} s  inside "
                  f"{row['inside_s']:.4f} s  gap {row['gap_pct']:+.2f}%")
        print(f"perfbench: chrome trace {out['chrome_trace']}")
    print(f"perfbench: record {record}")
    print(json.dumps({"correct": out["failed"] == 0 and not problems,
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

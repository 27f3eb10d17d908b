"""Per-stage and scheduler microbenchmarks of the staged MergeEngine.

Part one (``BENCH_engine.json``) runs the same deterministic module
population through the seed-equivalent configuration (linear candidate scan
+ predicate-based alignment) and the engine defaults (indexed candidate
search + integer-key alignment kernel), checks that
every configuration reaches identical merge decisions, and emits the
per-stage timings so future PRs have a perf trajectory.

Part two (``BENCH_scheduler.json``) benchmarks the plan/commit scheduler:
the seed rebuild-per-commit protocol versus the incremental call-graph
commit path, serially and with the thread-pool planner at several ``jobs``
settings, recording wall clocks, the commit-stage share, and the scheduler's
conflict/requeue/stale rates.  All configurations must reach bit-identical
merge decisions.

Part three (``BENCH_alignment.json``) compares the alignment kernels -
predicate-based python, integer-keyed, and (when their backends are present)
the vectorized NumPy and native C kernels - across three workload sizes
(small / medium / large function bodies), reporting per-kernel
alignment-stage seconds, the requested DP area (n*m per aligned pair -
kernel-independent by construction; cache hits compute none of it) and the
content-addressed alignment cache's hit rate.  Decisions must again be
bit-identical.

The same file also carries a ``persistence`` section: the cold-vs-warm
comparison of the persisted alignment cache (``alignment_cache_path=`` /
``REPRO_ALIGN_CACHE``).  A first run populates a snapshot, a second
identical run warm-starts from it; the section records both runs' hit
rates, the warm run's cross-run hit count and the alignment-stage seconds
saved.  Decisions must be bit-identical cold and warm.

Run directly (the CI smoke job does)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.01 python benchmarks/bench_engine_stages.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_stages.py -q

Part four (``BENCH_parallel.json``) benchmarks the plan executors - serial,
thread pool, and the out-of-process alignment offload - at jobs in
{1, 2, 4, 8} on the medium and large alignment workloads with the
pure-Python kernels pinned (the configuration where the thread executor is
GIL-bound and only the process offload can buy alignment wall-clock),
breaking out the offload's dispatch/IPC overhead (offload wall minus
ideally-parallel worker DP time).  A second section compares fixed against
adaptive batch sizing on a high-conflict workload (wasted plans per merge).
All configurations must reach bit-identical merge decisions.

Knobs: ``REPRO_BENCH_SCALE`` scales the function population (default 0.01;
the scheduler bench uses ``REPRO_BENCH_SCHED_SCALE``, default 4x that),
``REPRO_BENCH_REPEATS`` the repetitions per configuration (default 3, best
run wins), ``REPRO_BENCH_OUT`` / ``REPRO_BENCH_SCHED_OUT`` /
``REPRO_BENCH_ALIGN_OUT`` / ``REPRO_BENCH_PAR_OUT`` the output paths.
"""

import json
import os
import random
import sys
import time

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import (FunctionMergingPass, native_available,  # noqa: E402
                        numpy_available)
from repro.core.engine.align_cache import unpack_ops  # noqa: E402
from repro.ir.module import Module  # noqa: E402
from repro.workloads import FamilySpec, FunctionSpec, make_family  # noqa: E402

def _env_number(name: str, default, convert=float):
    """Parse a numeric env knob, falling back to the default on garbage
    (same behaviour as benchmarks/conftest.py)."""
    try:
        return convert(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_SCALE = _env_number("REPRO_BENCH_SCALE", 0.01)
BENCH_REPEATS = _env_number("REPRO_BENCH_REPEATS", 3, int)
BENCH_OUT = os.environ.get("REPRO_BENCH_OUT", "BENCH_engine.json")
SCHED_SCALE = _env_number("REPRO_BENCH_SCHED_SCALE", BENCH_SCALE * 4)
SCHED_OUT = os.environ.get("REPRO_BENCH_SCHED_OUT", "BENCH_scheduler.json")
ALIGN_OUT = os.environ.get("REPRO_BENCH_ALIGN_OUT", "BENCH_alignment.json")
PAR_OUT = os.environ.get("REPRO_BENCH_PAR_OUT", "BENCH_parallel.json")
#: The executor sweep covers 17 configurations x 2 sizes, so it defaults to
#: a single repetition; raise for quieter numbers.
PAR_REPEATS = _env_number("REPRO_BENCH_PAR_REPEATS", 1, int)

#: Configurations compared by the benchmark.  "seed" reproduces the
#: pre-engine implementation's strategies; "engine" is the default pipeline.
#: Each config pins its alignment_kernel explicitly so an ambient
#: REPRO_ALIGN_KERNEL (e.g. the CI numpy matrix leg) cannot silently
#: override the strategy being measured.
CONFIGS = {
    "seed": dict(searcher="linear", keyed_alignment=False,
                 alignment_kernel="needleman-wunsch"),
    "engine": dict(searcher="indexed", keyed_alignment=True,
                   alignment_kernel="needleman-wunsch"),
}


def build_population(scale: float = BENCH_SCALE) -> Module:
    """Deterministic module population; ~5 functions per family."""
    module = Module("bench_engine")
    rng = random.Random(1234)
    families = max(2, int(round(600 * scale)))
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + index % 3,
            instructions_per_block=6 + (index % 4) * 2,
            call_ratio=0.2, memory_ratio=0.2,
            returns_float=bool(index % 5 == 1),
            seed=100 + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=2, partial=1), rng)
    return module


def _decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


def _cache_summary(report) -> dict:
    """Alignment-cache counters of one run (zeros when the cache is off)."""
    stats = report.scheduler_stats
    hits = stats.get("align_cache_hits", 0)
    misses = stats.get("align_cache_misses", 0)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
        "bytes": stats.get("align_cache_bytes", 0),
    }


def run_config(name: str, scale: float, repeats: int) -> dict:
    """Best-of-``repeats`` stage timings for one configuration."""
    kwargs = CONFIGS[name]
    best = None
    for _ in range(max(1, repeats)):
        module = build_population(scale)
        fmsa = FunctionMergingPass(exploration_threshold=2, **kwargs)
        start = time.perf_counter()
        report = fmsa.run(module)
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_seconds"]:
            best = {
                "wall_seconds": wall,
                "kernel": fmsa.engine.alignment.algorithm,
                "align_cache": _cache_summary(report),
                "stage_times": dict(report.stage_times),
                "stage_stats": report.stage_stats,
                "merges": report.merge_count,
                "candidates_evaluated": report.candidates_evaluated,
                "decisions": _decisions(report),
            }
    return best


def run_bench(scale: float = BENCH_SCALE, repeats: int = BENCH_REPEATS) -> dict:
    module = build_population(scale)
    function_count = len(list(module.defined_functions()))

    results = {name: run_config(name, scale, repeats) for name in CONFIGS}

    reference = results["seed"]["decisions"]
    for name, result in results.items():
        if result["decisions"] != reference:
            raise AssertionError(
                f"configuration {name!r} changed merge decisions: "
                f"{result['decisions']} != {reference}")

    def hot_seconds(result):
        times = result["stage_times"]
        return times.get("ranking", 0.0) + times.get("alignment", 0.0)

    seed_times = results["seed"]["stage_times"]
    engine_times = results["engine"]["stage_times"]
    speedup = {
        stage: (seed_times.get(stage, 0.0) / engine_times[stage]
                if engine_times.get(stage) else None)
        for stage in seed_times
    }
    hot_engine = hot_seconds(results["engine"])
    payload = {
        "benchmark": "engine_stages",
        "scale": scale,
        "repeats": repeats,
        "functions": function_count,
        "merges": results["seed"]["merges"],
        "configs": {name: {k: v for k, v in result.items() if k != "decisions"}
                    for name, result in results.items()},
        "stage_speedup_seed_vs_engine": speedup,
        "hot_stage_speedup": (hot_seconds(results["seed"]) / hot_engine
                              if hot_engine else None),
        "wall_speedup": (results["seed"]["wall_seconds"]
                         / results["engine"]["wall_seconds"]),
    }
    return payload


def emit(payload: dict, path: str = BENCH_OUT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    hot = payload["hot_stage_speedup"]
    print(f"engine stage bench: {payload['functions']} functions, "
          f"{payload['merges']} merges")
    for stage, ratio in sorted(payload["stage_speedup_seed_vs_engine"].items()):
        if ratio is not None:
            print(f"  {stage:<15} {ratio:5.2f}x")
    for name, config in sorted(payload["configs"].items()):
        cache = config["align_cache"]
        print(f"  {name:<15} kernel={config['kernel']} "
              f"cache hit-rate {cache['hit_rate']:.0%} "
              f"({cache['hits']}/{cache['hits'] + cache['misses']})")
    print(f"  ranking+alignment speedup: {hot:.2f}x, "
          f"wall: {payload['wall_speedup']:.2f}x -> {path}")


def test_engine_stage_bench():
    """Pytest entry point: identical decisions plus a perf tripwire."""
    payload = run_bench()
    emit(payload)
    assert payload["merges"] >= 1
    # the keyed kernel and indexed searcher should comfortably beat the
    # seed path; keep the tripwire loose to tolerate CI noise
    assert payload["hot_stage_speedup"] > 1.2


# ---------------------------------------------------------------------------
# Plan/commit scheduler benchmark (BENCH_scheduler.json)
# ---------------------------------------------------------------------------

#: Scheduler configurations.  "rebuild-serial" is the seed commit protocol
#: (full call-graph rebuilds around every merge); the rest use the
#: incremental commit path with increasing planner parallelism.
SCHED_CONFIGS = {
    "rebuild-serial": dict(jobs=1, incremental_callgraph=False),
    "incremental-serial": dict(jobs=1),
    "jobs2": dict(jobs=2),
    "jobs4": dict(jobs=4),
}


def run_scheduler_config(name: str, scale: float, repeats: int) -> dict:
    """Best-of-``repeats`` wall clock + commit stats for one configuration."""
    kwargs = SCHED_CONFIGS[name]
    best = None
    for _ in range(max(1, repeats)):
        module = build_population(scale)
        function_count = len(module.defined_functions())
        start = time.perf_counter()
        report = FunctionMergingPass(exploration_threshold=2, **kwargs).run(module)
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_seconds"]:
            commit_stats = report.stage_stats.get("commit", {})
            best = {
                "wall_seconds": wall,
                "commit_seconds": report.stage_times.get("updating_calls", 0.0),
                "commit_rebuilds": commit_stats.get("rebuilds", 0.0),
                "functions": function_count,
                "merges": report.merge_count,
                "stale_entries": report.stale_entries,
                "scheduler": report.scheduler_stats,
                "decisions": _decisions(report),
            }
    return best


def run_scheduler_bench(scale: float = SCHED_SCALE,
                        repeats: int = BENCH_REPEATS) -> dict:
    results = {name: run_scheduler_config(name, scale, repeats)
               for name in SCHED_CONFIGS}
    function_count = results["rebuild-serial"]["functions"]

    reference = results["rebuild-serial"]["decisions"]
    for name, result in results.items():
        if result["decisions"] != reference:
            raise AssertionError(
                f"scheduler configuration {name!r} changed merge decisions: "
                f"{result['decisions']} != {reference}")

    rebuild = results["rebuild-serial"]
    payload = {
        "benchmark": "merge_scheduler",
        "scale": scale,
        "repeats": repeats,
        "functions": function_count,
        "merges": rebuild["merges"],
        "configs": {name: {k: v for k, v in result.items() if k != "decisions"}
                    for name, result in results.items()},
        "commit_stage_speedup": (
            rebuild["commit_seconds"]
            / results["incremental-serial"]["commit_seconds"]
            if results["incremental-serial"]["commit_seconds"] else None),
        "wall_speedup_vs_rebuild": {
            name: rebuild["wall_seconds"] / result["wall_seconds"]
            for name, result in results.items()},
        "conflict_rate": {
            name: (result["scheduler"].get("conflicts", 0)
                   / max(1, result["scheduler"].get("planned", 1)))
            for name, result in results.items()},
    }
    return payload


def emit_scheduler(payload: dict, path: str = SCHED_OUT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"scheduler bench: {payload['functions']} functions, "
          f"{payload['merges']} merges")
    for name, ratio in sorted(payload["wall_speedup_vs_rebuild"].items()):
        conflicts = payload["configs"][name]["scheduler"].get("conflicts", 0)
        replans = payload["configs"][name]["scheduler"].get("replans", 0)
        print(f"  {name:<20} wall {ratio:5.2f}x vs rebuild-serial "
              f"(conflicts {conflicts}, replans {replans})")
    print(f"  commit-stage speedup (incremental vs rebuild): "
          f"{payload['commit_stage_speedup']:.2f}x -> {path}")


def test_scheduler_bench():
    """Pytest entry point: bit-identical decisions across schedulers, the
    commit stage no longer dominated by rebuild(), and no wall-clock
    regression from the batched planner."""
    payload = run_scheduler_bench()
    emit_scheduler(payload)
    assert payload["merges"] >= 1
    # incremental maintenance must clearly beat rebuild-per-commit
    assert payload["commit_stage_speedup"] > 1.3
    # the incremental commit path must win on wall clock, serial or batched
    assert payload["wall_speedup_vs_rebuild"]["incremental-serial"] > 1.0
    assert payload["wall_speedup_vs_rebuild"]["jobs2"] > 1.0


# ---------------------------------------------------------------------------
# Alignment-kernel comparison (BENCH_alignment.json)
# ---------------------------------------------------------------------------

#: Kernel configurations: predicate-based python (the seed aligner), then
#: one keyed kernel per available tier (pure, NumPy, native C).  All must
#: reach identical merge decisions.
ALIGN_CONFIGS = {
    "python": dict(keyed_alignment=False,
                   alignment_kernel="needleman-wunsch"),
    "keyed": dict(alignment_kernel="needleman-wunsch"),
}
if numpy_available():
    ALIGN_CONFIGS["numpy"] = dict(alignment_kernel="nw-numpy")
if native_available():
    ALIGN_CONFIGS["native"] = dict(alignment_kernel="nw-native")

#: Workload sizes: function-body shapes from small (the engine-bench shape)
#: to large (hundreds of linearized entries, where the DP dominates).
ALIGN_SIZES = {
    "small": dict(families=40, num_blocks=3, instructions_per_block=8),
    "medium": dict(families=16, num_blocks=3, instructions_per_block=24),
    "large": dict(families=6, num_blocks=4, instructions_per_block=56),
}


def build_alignment_population(size: str, scale: float) -> Module:
    """Deterministic population of one size class, scaled like the rest of
    the benches (``scale`` is relative to the default 0.01)."""
    shape = ALIGN_SIZES[size]
    module = Module(f"bench_align_{size}")
    rng = random.Random(4321)
    families = max(2, int(round(shape["families"] * scale / 0.01)))
    for index in range(families):
        spec = FunctionSpec(
            f"{size}{index}",
            num_blocks=shape["num_blocks"],
            instructions_per_block=shape["instructions_per_block"],
            call_ratio=0.15, memory_ratio=0.2,
            returns_float=bool(index % 5 == 1),
            seed=500 + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=2, partial=1), rng)
    return module


def run_alignment_config(name: str, size: str, scale: float,
                         repeats: int) -> dict:
    kwargs = ALIGN_CONFIGS[name]
    best = None
    for _ in range(max(1, repeats)):
        module = build_alignment_population(size, scale)
        function_count = len(list(module.defined_functions()))
        fmsa = FunctionMergingPass(exploration_threshold=2, **kwargs)
        start = time.perf_counter()
        report = fmsa.run(module)
        wall = time.perf_counter() - start
        align_stats = report.stage_stats.get("align", {})
        if best is None or wall < best["wall_seconds"]:
            best = {
                "wall_seconds": wall,
                "functions": function_count,
                "kernel": fmsa.engine.alignment.algorithm,
                "keyed": bool(kwargs.get("keyed_alignment", True)),
                "alignment_seconds": report.stage_times.get("alignment", 0.0),
                # full n*m area of every requested pair, cache hits
                # included - a workload-size measure, not cells computed
                "requested_cells": align_stats.get("cells", 0.0),
                "alignments": align_stats.get("calls", 0.0),
                "align_cache": _cache_summary(report),
                "merges": report.merge_count,
                "decisions": _decisions(report),
            }
    return best


def run_persistence_bench(scale: float = BENCH_SCALE) -> dict:
    """Cold-vs-warm persisted-cache comparison on the medium workload.

    Runs the default engine twice over identical module populations sharing
    one snapshot path: the first (cold) run saves every alignment shape it
    computes, the second (warm) run loads them back and should satisfy
    essentially every alignment from the snapshot (>= 90% is the ISSUE's
    acceptance bar; identical populations reach 100%).
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "align_cache.json")
        runs = {}
        for label in ("cold", "warm"):
            module = build_alignment_population("medium", scale)
            fmsa = FunctionMergingPass(exploration_threshold=2,
                                       alignment_kernel="needleman-wunsch",
                                       alignment_cache_path=path)
            start = time.perf_counter()
            report = fmsa.run(module)
            wall = time.perf_counter() - start
            stats = report.scheduler_stats
            runs[label] = {
                "wall_seconds": wall,
                "alignment_seconds": report.stage_times.get("alignment", 0.0),
                "align_cache": _cache_summary(report),
                "cross_run_hits": stats.get("align_cache_cross_run_hits", 0),
                "snapshot_entries": stats.get("align_cache_entries", 0),
                "merges": report.merge_count,
                "decisions": _decisions(report),
            }
        snapshot_bytes = os.path.getsize(path)
        # v3 snapshots store each distinct op string once, run-length
        # packed; compare against the v2-style inline encoding to report
        # what the table saves
        with open(path) as handle:
            snapshot = json.load(handle)
        ops_table = snapshot.get("ops", [])
        packed_bytes = sum(len(item) for item in ops_table)
        inline_bytes = sum(len(unpack_ops(ops_table[row[3]]))
                           for row in snapshot.get("entries", []))

    if runs["warm"]["decisions"] != runs["cold"]["decisions"]:
        raise AssertionError(
            "warm persisted-cache run changed merge decisions")
    cold_align = runs["cold"]["alignment_seconds"]
    warm_align = runs["warm"]["alignment_seconds"]
    return {
        "runs": {label: {k: v for k, v in run.items() if k != "decisions"}
                 for label, run in runs.items()},
        "snapshot_bytes": snapshot_bytes,
        "snapshot_ops_bytes_packed": packed_bytes,
        "snapshot_ops_bytes_saved": inline_bytes - packed_bytes,
        "warm_hit_rate": runs["warm"]["align_cache"]["hit_rate"],
        "warm_cross_run_hits": runs["warm"]["cross_run_hits"],
        "alignment_speedup_warm_vs_cold": (cold_align / warm_align
                                           if warm_align else None),
    }


def run_alignment_bench(scale: float = BENCH_SCALE,
                        repeats: int = BENCH_REPEATS) -> dict:
    sizes = {}
    for size in ALIGN_SIZES:
        results = {name: run_alignment_config(name, size, scale, repeats)
                   for name in ALIGN_CONFIGS}
        reference = results["python"]["decisions"]
        for name, result in results.items():
            if result["decisions"] != reference:
                raise AssertionError(
                    f"alignment kernel {name!r} changed merge decisions on "
                    f"the {size} workload")
        python_seconds = results["python"]["alignment_seconds"]
        sizes[size] = {
            "functions": results["python"]["functions"],
            "configs": {name: {k: v for k, v in result.items()
                               if k != "decisions"}
                        for name, result in results.items()},
            "alignment_speedup_vs_python": {
                name: (python_seconds / result["alignment_seconds"]
                       if result["alignment_seconds"] else None)
                for name, result in results.items()},
        }
    fastest = ALIGN_CONFIGS.keys() - {"python"}
    best_name, best_ratio = None, None
    for name in fastest:
        ratio = sizes["large"]["alignment_speedup_vs_python"][name]
        if ratio is not None and (best_ratio is None or ratio > best_ratio):
            best_name, best_ratio = name, ratio
    native_vs_numpy = None
    if "native" in ALIGN_CONFIGS and "numpy" in ALIGN_CONFIGS:
        numpy_seconds = \
            sizes["large"]["configs"]["numpy"]["alignment_seconds"]
        native_seconds = \
            sizes["large"]["configs"]["native"]["alignment_seconds"]
        if native_seconds:
            native_vs_numpy = numpy_seconds / native_seconds
    return {
        "benchmark": "alignment_kernels",
        "scale": scale,
        "repeats": repeats,
        "numpy_available": numpy_available(),
        "native_available": native_available(),
        "sizes": sizes,
        "best_kernel_on_large": best_name,
        "alignment_stage_speedup": best_ratio,
        "native_speedup_vs_numpy_on_large": native_vs_numpy,
        "persistence": run_persistence_bench(scale),
    }


def emit_alignment(payload: dict, path: str = ALIGN_OUT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"alignment kernel bench (numpy={payload['numpy_available']})")
    for size, data in payload["sizes"].items():
        print(f"  [{size}] {data['functions']} functions")
        for name, ratio in sorted(data["alignment_speedup_vs_python"].items()):
            config = data["configs"][name]
            cache = config["align_cache"]
            shown = f"{ratio:5.2f}x" if ratio is not None else "  n/a"
            print(f"    {name:<13} kernel={config['kernel']:<17} "
                  f"align {shown} vs python, cache hit-rate "
                  f"{cache['hit_rate']:.0%}")
    persistence = payload["persistence"]
    speedup = persistence["alignment_speedup_warm_vs_cold"]
    print(f"  persisted cache: warm hit-rate {persistence['warm_hit_rate']:.0%} "
          f"({persistence['warm_cross_run_hits']} cross-run hits, "
          f"snapshot {persistence['snapshot_bytes']} bytes), "
          f"align stage {speedup:.2f}x vs cold"
          if speedup is not None else
          "  persisted cache: warm run skipped the alignment stage entirely")
    saved = persistence.get("snapshot_ops_bytes_saved")
    if saved is not None:
        print(f"  snapshot ops table: {persistence['snapshot_ops_bytes_packed']}"
              f" bytes packed (saves {saved} vs inline op strings)")
    native_ratio = payload.get("native_speedup_vs_numpy_on_large")
    if native_ratio is not None:
        print(f"  native vs numpy on large: {native_ratio:.2f}x")
    print(f"  best large-workload kernel: {payload['best_kernel_on_large']} "
          f"({payload['alignment_stage_speedup']:.2f}x) -> {path}")


def test_alignment_kernel_bench():
    """Pytest entry point: identical decisions across kernels, cache hit
    rate reported, the fast path at least 3x the predicate aligner on the
    large workload, and the persisted cache's warm run hitting >= 90% (the
    ISSUEs' acceptance tripwires)."""
    payload = run_alignment_bench()
    emit_alignment(payload)
    for size in payload["sizes"].values():
        for config in size["configs"].values():
            assert "hit_rate" in config["align_cache"]
    assert payload["alignment_stage_speedup"] > 3.0
    if payload["native_available"] and payload["numpy_available"]:
        # the PR 6 acceptance tripwire: the C kernel at least 2x the
        # vectorized NumPy backend on the large workload
        assert payload["native_speedup_vs_numpy_on_large"] >= 2.0, \
            (f"native kernel only "
             f"{payload['native_speedup_vs_numpy_on_large']:.2f}x numpy")
    persistence = payload["persistence"]
    assert persistence["warm_hit_rate"] >= 0.9
    assert persistence["warm_cross_run_hits"] > 0
    assert persistence["runs"]["cold"]["cross_run_hits"] == 0
    assert persistence["snapshot_ops_bytes_saved"] >= 0


# ---------------------------------------------------------------------------
# Plan-executor / alignment-offload comparison (BENCH_parallel.json)
# ---------------------------------------------------------------------------

#: Executor sweep.  Every config pins the pure-Python NW kernel: that is the
#: configuration in which thread-pool planning is GIL-bound, so any
#: alignment-stage wall-clock win must come from the process offload.
PARALLEL_JOBS = (1, 2, 4, 8)

#: Workload sizes for the executor sweep (the alignment-bench shapes whose
#: DPs are big enough for dispatch overhead to amortize).
PARALLEL_SIZES = ("medium", "large")


def run_parallel_config(executor: str, jobs: int, size: str, scale: float,
                        repeats: int, worker_kernel: str = "auto") -> dict:
    best = None
    for _ in range(max(1, repeats)):
        module = build_alignment_population(size, scale)
        fmsa = FunctionMergingPass(
            exploration_threshold=2, executor=executor, jobs=jobs,
            alignment_kernel="needleman-wunsch")
        start = time.perf_counter()
        if worker_kernel == "auto":
            report = fmsa.run(module)
        else:
            # pin the offload workers' kernel (isolates the parallelism win
            # from the workers' NumPy win on NumPy-equipped hosts)
            from repro.core.engine import ProcessExecutor
            engine = fmsa.engine
            scheduler = engine.make_scheduler(
                executor=ProcessExecutor(jobs, kernel=worker_kernel))
            try:
                report = engine.run(module, scheduler=scheduler)
            finally:
                scheduler.close()
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_seconds"]:
            stats = report.scheduler_stats
            offload_wall = stats.get("offload_wall_seconds", 0.0)
            worker_seconds = stats.get("offload_worker_seconds", 0.0)
            best = {
                "wall_seconds": wall,
                # calling-thread wall clock of the planning phase: the only
                # number comparable across executors (per-stage seconds sum
                # busy time over planner threads, which inflates the thread
                # executor's alignment stat with GIL wait time)
                "plan_wall_seconds": stats.get("plan_wall_seconds", 0.0),
                "alignment_stage_seconds": report.stage_times.get(
                    "alignment", 0.0),
                "offload_tasks": stats.get("offload_tasks", 0),
                "offload_rounds": stats.get("offload_rounds", 0),
                "offload_wall_seconds": offload_wall,
                "offload_worker_seconds": worker_seconds,
                # wall time the offload spent not running DPs at ideal
                # parallelism: pickling, queueing, result IPC, stragglers
                "dispatch_overhead_seconds": max(
                    0.0, offload_wall - worker_seconds / max(1, jobs)),
                "merges": report.merge_count,
                "decisions": _decisions(report),
            }
    return best


def run_adaptive_bench(scale: float, repeats: int) -> dict:
    """Fixed vs adaptive batch sizing on a high-conflict configuration:
    a clone-heavy population several batches deep, planned in large fixed
    batches, so every commit conflicts the rest of its batch and fixed
    batching replans (wastes) maximally while the adaptive controller gets
    rounds to react in."""
    results = {}
    for label, adaptive in (("fixed", False), ("adaptive", True)):
        best = None
        for _ in range(max(1, repeats)):
            module = build_population(scale * 4)
            start = time.perf_counter()
            report = FunctionMergingPass(
                exploration_threshold=2, jobs=4, batch_size=64,
                adaptive_batch=adaptive).run(module)
            wall = time.perf_counter() - start
            if best is None or wall < best["wall_seconds"]:
                stats = report.scheduler_stats
                merges = max(1, report.merge_count)
                best = {
                    "wall_seconds": wall,
                    "merges": report.merge_count,
                    "conflicts": stats["conflicts"],
                    "replans": stats["replans"],
                    "wasted_evaluations": stats["wasted_evaluations"],
                    "wasted_plans_per_merge": stats["replans"] / merges,
                    "batch_size_trace": stats["batch_size_trace"],
                    "decisions": _decisions(report),
                }
        results[label] = best
    if results["adaptive"]["decisions"] != results["fixed"]["decisions"]:
        raise AssertionError("adaptive batching changed merge decisions")
    return {
        label: {k: v for k, v in result.items() if k != "decisions"}
        for label, result in results.items()
    }


def run_parallel_bench(scale: float = BENCH_SCALE,
                       repeats: int = PAR_REPEATS) -> dict:
    sizes = {}
    for size in PARALLEL_SIZES:
        configs = {"serial": run_parallel_config("serial", 1, size, scale,
                                                 repeats)}
        for executor in ("thread", "process"):
            for jobs in PARALLEL_JOBS:
                configs[f"{executor}-j{jobs}"] = run_parallel_config(
                    executor, jobs, size, scale, repeats)
        for jobs in PARALLEL_JOBS:
            configs[f"process-pure-j{jobs}"] = run_parallel_config(
                "process", jobs, size, scale, repeats, worker_kernel="pure")
        reference = configs["serial"]["decisions"]
        for name, result in configs.items():
            if result["decisions"] != reference:
                raise AssertionError(
                    f"executor configuration {name!r} changed merge "
                    f"decisions on the {size} workload")
        # alignment-stage *wall clock* per config, estimated as the planning
        # wall minus the non-alignment planning work, calibrated on the
        # serial run (where stage seconds are true wall): every config does
        # the same ranking/linearize/codegen work on the calling thread, so
        # the difference in planning wall is the difference in align wall
        serial = configs["serial"]
        nonalign_wall = max(0.0, serial["plan_wall_seconds"]
                            - serial["alignment_stage_seconds"])
        for result in configs.values():
            result["alignment_wall_seconds"] = max(
                1e-9, result["plan_wall_seconds"] - nonalign_wall)
        align_speedup_vs_thread = {}
        pure_align_speedup_vs_thread = {}
        wall_speedup_vs_thread = {}
        for jobs in PARALLEL_JOBS:
            thread = configs[f"thread-j{jobs}"]
            process = configs[f"process-j{jobs}"]
            pure = configs[f"process-pure-j{jobs}"]
            align_speedup_vs_thread[f"j{jobs}"] = (
                thread["alignment_wall_seconds"]
                / process["alignment_wall_seconds"])
            pure_align_speedup_vs_thread[f"j{jobs}"] = (
                thread["alignment_wall_seconds"]
                / pure["alignment_wall_seconds"])
            wall_speedup_vs_thread[f"j{jobs}"] = (
                thread["wall_seconds"] / process["wall_seconds"]
                if process["wall_seconds"] else None)
        sizes[size] = {
            "configs": {name: {k: v for k, v in result.items()
                               if k != "decisions"}
                        for name, result in configs.items()},
            "alignment_speedup_process_vs_thread": align_speedup_vs_thread,
            "alignment_speedup_pure_workers_vs_thread":
                pure_align_speedup_vs_thread,
            "wall_speedup_process_vs_thread": wall_speedup_vs_thread,
        }
    return {
        "benchmark": "parallel_planning",
        "scale": scale,
        "repeats": repeats,
        "cpus": os.cpu_count(),
        "kernel": "needleman-wunsch (pure python, pinned)",
        "sizes": sizes,
        "adaptive_batching": run_adaptive_bench(scale, repeats),
    }


def emit_parallel(payload: dict, path: str = PAR_OUT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"parallel planning bench ({payload['cpus']} cpus, "
          f"pure-python kernels)")
    for size, data in payload["sizes"].items():
        print(f"  [{size}]")
        for jobs_label, ratio in sorted(
                data["alignment_speedup_process_vs_thread"].items()):
            process = data["configs"][f"process-{jobs_label}"]
            pure = data["alignment_speedup_pure_workers_vs_thread"][jobs_label]
            shown = f"{ratio:5.2f}x" if ratio is not None else "  n/a"
            print(f"    process vs thread {jobs_label:<3} align {shown} "
                  f"(pure workers {pure:5.2f}x, dispatch overhead "
                  f"{process['dispatch_overhead_seconds'] * 1000:.0f}ms over "
                  f"{process['offload_tasks']} tasks)")
    adaptive = payload["adaptive_batching"]
    print(f"  adaptive batching: {adaptive['adaptive']['replans']} replans "
          f"({adaptive['adaptive']['wasted_plans_per_merge']:.2f}/merge) vs "
          f"fixed {adaptive['fixed']['replans']} "
          f"({adaptive['fixed']['wasted_plans_per_merge']:.2f}/merge) "
          f"-> {path}")


def test_parallel_bench():
    """Pytest entry point: identical decisions across every executor x jobs
    x size, adaptive batching wasting no more plans than fixed, and - on
    hardware with enough cores for the comparison to be meaningful - the
    ISSUE's >= 2x alignment-stage bar for the process offload at jobs=4 on
    the large workload."""
    payload = run_parallel_bench()
    emit_parallel(payload)
    adaptive = payload["adaptive_batching"]
    assert adaptive["adaptive"]["replans"] <= adaptive["fixed"]["replans"]
    assert adaptive["adaptive"]["batch_size_trace"]
    large = payload["sizes"]["large"]
    assert large["configs"]["process-j4"]["offload_tasks"] > 0
    speedup = large["alignment_speedup_process_vs_thread"]["j4"]
    assert speedup is not None
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, \
            f"process offload only {speedup:.2f}x the thread executor"


if __name__ == "__main__":
    emit(run_bench())
    emit_scheduler(run_scheduler_bench())
    emit_alignment(run_alignment_bench())
    emit_parallel(run_parallel_bench())

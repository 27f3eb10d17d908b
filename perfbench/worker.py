"""One benchmark run, in a process whose ``PYTHONHASHSEED`` ``run.py`` pinned.

``run.py`` starts this file with the workload's environment and reads the
single JSON line it prints.  The same file serves as the set-up probe
(``--probe``): a fresh process that imports the pipeline, builds the merge
pass of the workload, prints ``ready`` and then the digest of one generated
module, which the hash-seed check compares across two hash seeds.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import edits  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

TARGET = "x86-64"
SUITE_SCALE = 0.01
SUITE_CAP = 24

#: Engine configuration and nominal pass time (2-CPU machine, reference
#: speed) per suite.
SUITES = {
    # the paper's own implementation: linear scans, predicate aligner
    "spec-paper": {"threshold": 1, "searcher": "linear",
                   "keyed_alignment": False, "alignment_kernel": None,
                   "nominal_pass_s": 9.0},
    # the product engine: indexed search, keyed DP on the fastest kernel,
    # cold alignment cache
    "spec-product": {"threshold": 10, "searcher": "indexed",
                     "keyed_alignment": True, "alignment_kernel": "auto",
                     "nominal_pass_s": 10.0},
}

#: An independent engine configuration per suite, used to check decisions
#: for a seed that has no stored digest: decisions must not depend on it.
REFERENCE_ENGINE = {
    "spec-paper": {"searcher": "indexed", "keyed_alignment": True,
                   "alignment_kernel": "auto"},
    "spec-product": {"searcher": "linear", "keyed_alignment": True,
                     "alignment_kernel": "auto"},
}

#: The module the hash-seed check builds twice.
HASH_PROBE_BENCHMARK = "400.perlbench"
SETUP_REPEATS = 5
#: A daemon set-up boots the daemon and opens every session: fewer repeats.
DAEMON_SETUP_REPEATS = 3
#: Nominal seconds per daemon-edits request (2-CPU machine); with
#: ``--seconds`` it fixes how many requests a run sends.
NOMINAL_REQUEST_S = 0.28
#: Fewest requests a daemon-edits run sends: one memo repeat at least.
MIN_REQUESTS = edits.COMPILE_EVERY * edits.REPEAT_EVERY * edits.SESSIONS
DIGESTS_PATH = os.path.join(HERE, "digests.json")
#: Pass ``i`` of a suite run with seed ``s`` generates its modules with
#: seed ``s * PASS_SEED_STRIDE + i``.
PASS_SEED_STRIDE = 100
#: Fewest passes of a suite run: each pass is a different set of modules,
#: and the run's figures average over them.
MIN_PASSES = 2
#: The CPUs the run may use.  The measurement runs on one of them - the
#: daemon and its client too, which take turns - so the host-speed probes
#: time the CPU the program runs on; the checks afterwards use them all.
CPUS = sorted(os.sched_getaffinity(0))
#: Host-speed probes around each set-up, and after each daemon response.
SETUP_PROBES = 100

#: The layer self times of a traced run must sum to the traced wall within
#: this share.
COVERAGE_TOLERANCE = 0.05
_SUITE_SPANS = (
    "workloads.build", "passes.run", "baselines.identical", "baselines.soa",
    "engine.run", "engine.fingerprint", "engine.search", "engine.linearize",
    "engine.align", "engine.kernel", "engine.codegen", "engine.profitability",
    "engine.commit", "engine.commit_apply", "ir.verify", "ir.print",
    "targets.cost", "evaluation.compile_module", "evaluation.evaluate_suite")
#: Spans each workload's traced run must record at least once: the layers
#: the README says it runs.  A wrapper that stops firing fails the run.
EXPECTED_SPANS = {
    "spec-paper": _SUITE_SPANS,
    "spec-product": _SUITE_SPANS + ("engine.cache_key",),
    "daemon-edits": (
        "workloads.build", "passes.run", "baselines.identical", "engine.run",
        "engine.fingerprint", "engine.search", "engine.linearize",
        "engine.align", "engine.cache_key", "engine.kernel", "engine.codegen",
        "engine.profitability", "engine.commit", "engine.commit_apply",
        "ir.verify", "ir.print", "targets.cost", "evaluation.compile_module",
        "frontend.compile", "session.update", "service.handle",
        "service.decode", "service.wire", "service.http", "client.request"),
}


# -- small helpers ----------------------------------------------------------

def quantile(ordered: list, p: float, steps: int = 16) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of sorted samples:
    a mean of all of them, weighted by the Beta(p(n+1), (1-p)(n+1))
    density over each one's rank interval.  A single order statistic jumps
    when noise swaps two samples across a gap between clusters - the suite
    modules' merge times have such gaps - and this estimate does not."""
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    width = 1.0 / (n * steps)
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(x)
                            + (b - 1) * math.log1p(-x))
                   for x in (rank / n + (k + 0.5) * width for k in range(steps)))
               for rank in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def latency_summary(seconds: list) -> dict:
    """Median and tail in ms.  The tail is the highest percentile with at
    least ten samples beyond it.  Both are Harrell-Davis estimates."""
    ordered = sorted(seconds)
    n = len(ordered)
    tail_p = max(1, n - 10) / n
    return {"p50_ms": quantile(ordered, 0.5) * 1000.0,
            "tail_ms": quantile(ordered, tail_p) * 1000.0,
            "tail_percentile": round(100.0 * tail_p, 1),
            "samples": n}


def module_digest(module) -> str:
    from repro.ir.printer import module_to_str
    return hashlib.sha256(module_to_str(module).encode()).hexdigest()[:16]


def spawn_probe(workload: str, seed: int, hashseed: int) -> tuple:
    """Start a fresh probe process; returns (seconds until ready, digest)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe", workload,
         "--seed", str(seed)], env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = process.stdout.readline().strip()
        ready_seconds = time.perf_counter() - start
        digest = process.stdout.readline().strip()
        process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if ready != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
    return ready_seconds, digest


def probe_main(workload: str, seed: int) -> int:
    from repro.core.pass_ import FunctionMergingPass
    from repro.evaluation import experiments  # noqa: F401
    from repro.targets import get_target
    from repro.workloads.spec2006 import build_spec_benchmark
    config = SUITES.get(workload)
    if config is not None:
        FunctionMergingPass(
            target=get_target(TARGET),
            exploration_threshold=config["threshold"],
            searcher=config["searcher"],
            keyed_alignment=config["keyed_alignment"],
            alignment_kernel=config["alignment_kernel"])
    print("ready", flush=True)
    generated = build_spec_benchmark(HASH_PROBE_BENCHMARK, scale=SUITE_SCALE,
                                     cap=SUITE_CAP, seed=seed)
    print(module_digest(generated.module), flush=True)
    return 0


def calibrated(calibration, start_one):
    """Run ``start_one()``, which returns (seconds, result), between two
    bursts of host-speed probes."""
    calibration.probe(SETUP_PROBES // 2)
    seconds, result = start_one()
    calibration.probe(SETUP_PROBES // 2)
    return seconds, result


def setup_and_hash_probes(workload: str, seed: int, hashseed: int,
                          repeats: int) -> tuple:
    """Set-up times of ``repeats`` fresh processes, the host-speed factor
    of the set-up stretch, and whether one module differs when only the
    hash seed differs (1) or not (0).  The first probe runs under the run's
    hash seed, the second under another one."""
    times, digests = [], []
    calibration = hostspeed.Calibration()
    other = (hashseed + 1) % (1 << 32)
    for index in range(max(2, repeats)):
        hashseed_of = other if index == 1 else hashseed
        seconds, digest = calibrated(
            calibration, lambda: spawn_probe(workload, seed, hashseed_of))
        times.append(seconds)
        digests.append(digest)
    return (times[:repeats], calibration.factor(),
            int(digests[0] != digests[1]))


def per_layer(layer_self: dict, xcheck: dict, ledger: dict,
              traced_wall: float, untraced_wall: float, unattributed: float,
              hash_dependent: int, memo_hit_ratio: float) -> dict:
    """The per-layer metrics from one traced run (values, no units)."""
    metrics = dict(layer_self)
    evaluated = ledger["candidates_evaluated"]
    decided = ledger["profitable"] + ledger["unprofitable"]
    cached = ledger["cache_hits"] + ledger["cache_computed"]
    planned = ledger["functions_replanned"] + ledger["plans_reused"]
    metrics.update({
        "workloads.functions": ledger["functions_built"],
        "workloads.hashseed_dependent": hash_dependent,
        "engine.candidates_evaluated": evaluated,
        "engine.profitable_ratio": ledger["profitable"] / decided if decided else 0.0,
        "engine.align_cells": ledger["align_cells"],
        "engine.cache_hit_rate": ledger["cache_hits"] / cached if cached else 0.0,
        "engine.cache_bytes": ledger["cache_bytes"],
        "scheduler.replans": ledger["replans"],
        "scheduler.wasted_ratio": (ledger["wasted_evaluations"] / evaluated
                                   if evaluated else 0.0),
        "session.plan_reuse_ratio": ledger["plans_reused"] / planned if planned else 0.0,
        "session.functions_replanned": ledger["functions_replanned"],
        "service.response_bytes": (ledger["response_bytes"] / ledger["responses"]
                                   if ledger["responses"] else 0.0),
        "service.memo_hit_ratio": memo_hit_ratio,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.coverage_ratio": sum(layer_self.values()) / traced_wall,
        "trace.unattributed_s": unattributed,
    })
    for name, row in xcheck.items():
        metrics[f"xcheck.{name}_gap_pct"] = row["gap_pct"]
    return metrics


def trace_problems(workload: str, calls: dict, metrics: dict) -> list:
    """Why a traced run cannot be trusted; empty when it can."""
    problems = [f"span {span} recorded no call"
                for span in EXPECTED_SPANS[workload] if not calls.get(span)]
    coverage = metrics["trace.coverage_ratio"]
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"layer self times sum to {coverage:.4f} of the "
                        f"traced wall, outside 1 +- {COVERAGE_TOLERANCE}")
    return problems


def cross_check(incl_s: dict, ledger: dict) -> dict:
    """Per engine stage: the outside-in inclusive span seconds beside the
    seconds the engine reports itself, and the gap in % of the latter.
    ``legacy`` compares the ``stage_times`` buckets with the stage seconds
    that feed them."""
    def row(outside, inside):
        return {"outside_s": outside, "inside_s": inside,
                "gap_pct": 100.0 * (outside - inside) / inside if inside > 0 else 0.0}

    table = {stage.split("-")[-1]: row(incl_s.get(span, 0.0),
                                       ledger["stage_seconds"].get(stage, 0.0))
             for stage, span in tracing.STAGE_SPANS.items()}
    table["legacy"] = row(ledger["legacy_bucket_s"], ledger["legacy_stage_s"])
    return table


def write_chrome_trace(path: str, parts: list) -> None:
    """``parts``: (events, pid, process name) per process."""
    events = []
    for raw, pid, name in parts:
        events.extend(tracing.chrome_events(raw, pid, name))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- the suite workloads ----------------------------------------------------

def suite_settings(workload: str, seed: int):
    from repro.evaluation.experiments import EvaluationSettings
    config = SUITES[workload]
    return EvaluationSettings(
        suite="spec", scale=SUITE_SCALE, cap=SUITE_CAP,
        thresholds=(config["threshold"],), targets=(TARGET,), seed=seed,
        searcher=config["searcher"],
        keyed_alignment=config["keyed_alignment"],
        alignment_kernel=config["alignment_kernel"])


def decision_rows(result) -> list:
    keys = result.merge_report.decision_keys() if result.merge_report else []
    return json.loads(json.dumps([result.size_after, keys]))


def run_pass(experiments, settings, tracer=None) -> dict:
    """One ``evaluate_suite`` over the whole suite, every compile timed.

    Untraced, a host-speed probe runs after each ``compile_module`` call;
    the pass wall is the sum of the units - one benchmark under one
    technique: its module built, then compiled - and leaves the probes
    out."""
    units, latencies = [], []
    calibration = hostspeed.Calibration() if tracer is None else None
    compile_module = experiments.compile_module
    mark = [0.0]

    def timed_compile(*args, **kwargs):
        start = time.perf_counter()
        try:
            return compile_module(*args, **kwargs)
        finally:
            end = time.perf_counter()
            latencies.append(end - start)
            units.append(end - mark[0])
            if calibration is not None:
                calibration.probe()
            mark[0] = time.perf_counter()

    experiments.compile_module = timed_compile
    try:
        start = mark[0] = time.perf_counter()
        if tracer is not None:
            evaluation = tracer.timed("bench.pass", experiments.evaluate_suite,
                                      settings)
        else:
            evaluation = experiments.evaluate_suite(settings)
        wall = time.perf_counter() - start
    finally:
        experiments.compile_module = compile_module
    if calibration is not None:
        wall = sum(units)

    fmsa = evaluation.configurations[-1]
    digests, fmsa_rows = {}, {}
    for benchmark in evaluation.benchmarks:
        rows = [[technique] + decision_rows(
                    evaluation.result(benchmark, TARGET, technique))
                for technique in evaluation.configurations]
        digests[benchmark] = hashlib.sha256(
            json.dumps(rows).encode()).hexdigest()[:16]
        fmsa_rows[benchmark] = decision_rows(
            evaluation.result(benchmark, TARGET, fmsa))
    overheads = [100.0 * (evaluation.result(b, TARGET, fmsa).normalized_runtime - 1.0)
                 for b in evaluation.benchmarks]
    return {
        "seed": settings.seed,
        "wall": wall,
        "speed": calibration.factor() if calibration is not None else 1.0,
        "requests": latencies,
        "updates": [evaluation.result(b, TARGET, fmsa).merge_time
                    for b in evaluation.benchmarks],
        "digests": digests,
        "fmsa_rows": fmsa_rows,
        "size_reduction_pct": evaluation.mean_reduction(TARGET, fmsa),
        "runtime_overhead_pct": statistics.fmean(overheads),
        "compiles": len(evaluation.results),
        "techniques": len(evaluation.configurations),
    }


def reference_row(workload: str, seed: int, benchmark: str) -> list:
    """FMSA decisions of one benchmark under ``REFERENCE_ENGINE``."""
    from repro.evaluation.pipeline import compile_module
    from repro.workloads.spec2006 import build_spec_benchmark
    generated = build_spec_benchmark(benchmark, scale=SUITE_SCALE,
                                     cap=SUITE_CAP, seed=seed)
    return decision_rows(compile_module(
        generated.module, "fmsa", benchmark=benchmark, target=TARGET,
        threshold=SUITES[workload]["threshold"], **REFERENCE_ENGINE[workload]))


def check_map(fn, tasks: list) -> list:
    """``[fn(*task) for task in tasks]`` on every CPU.  Only the checks use
    it, after the measurement is over; forked workers keep the run's hash
    seed, and all of them have ended when it returns."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if len(tasks) < 2:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(len(tasks), len(CPUS)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=os.sched_setaffinity,
                             initargs=(0, CPUS)) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def call(fn, args: tuple):
    return fn(*args)


def reference_rows(workload: str, seeds: list, benchmarks: list) -> dict:
    """{seed: {benchmark: FMSA decisions under ``REFERENCE_ENGINE``}}."""
    tasks = [(workload, seed, benchmark) for seed in seeds
             for benchmark in benchmarks]
    table = {seed: {} for seed in seeds}
    for (_, seed, benchmark), row in zip(tasks, check_map(reference_row, tasks)):
        table[seed][benchmark] = row
    return table


def check_suite(workload: str, passes: list, use_stored: bool = True) -> tuple:
    """(failed compiles, how the decisions were checked, mismatches).

    A pass whose generator seed has stored digests must match them; any
    other pass (every pass when ``use_stored`` is False) must agree with an
    independent engine configuration."""
    stored = {}
    if use_stored:
        with open(DIGESTS_PATH) as handle:
            stored = json.load(handle).get(workload, {})
    failed, methods, mismatched = 0, set(), []
    unknown = sorted({record["seed"] for record in passes
                      if str(record["seed"]) not in stored})
    references = reference_rows(workload, unknown,
                                sorted(passes[0]["fmsa_rows"]))
    for record in passes:
        seed = record["seed"]
        expected = stored.get(str(seed))
        if expected is not None:
            methods.add("stored digests")
            bad = [b for b, digest in record["digests"].items()
                   if expected.get(b) != digest]
        else:
            methods.add("reference engine "
                        + json.dumps(REFERENCE_ENGINE[workload]))
            bad = [b for b, rows in record["fmsa_rows"].items()
                   if rows != references[seed][b]]
        failed += record["techniques"] * len(bad)
        mismatched += [f"{seed}/{benchmark}" for benchmark in bad]
    return failed, " + ".join(sorted(methods)), mismatched


def run_suite_workload(args, hashseed: int) -> dict:
    from repro.evaluation import experiments
    from repro.core.engine.stages import resolve_alignment_kernel
    config = SUITES[args.workload]
    out = {"config": {key: value for key, value in config.items()
                      if key != "nominal_pass_s"}}
    out["config"]["kernel"] = resolve_alignment_kernel(
        config["alignment_kernel"], "needleman-wunsch")
    count = max(MIN_PASSES, round(args.seconds / config["nominal_pass_s"]))
    seeds = [args.seed * PASS_SEED_STRIDE + index for index in range(count)]
    setup_times, setup_speed, hash_dependent = setup_and_hash_probes(
        args.workload, seeds[0], hashseed,
        SETUP_REPEATS if not args.trace else 0)

    if not args.trace:
        passes = [run_pass(experiments, suite_settings(args.workload, seed))
                  for seed in seeds]
    else:
        # the traced pass repeats the untraced one's inputs
        settings = suite_settings(args.workload, seeds[0])
        untraced = run_pass(experiments, settings)
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            traced = run_pass(experiments, settings, tracer)
        finally:
            installation.undo()
        passes = [untraced, traced]
    # read before the checks: a reference-engine check compiles in-process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, method, mismatched = check_suite(args.workload, passes,
                                             use_stored=not args.record)
    attempted = sum(record["compiles"] for record in passes)
    out.update({"attempted": attempted, "failed": failed,
                "check": method, "mismatched": mismatched,
                "pass_seeds": [record["seed"] for record in passes],
                "digests": {record["seed"]: record["digests"]
                            for record in passes},
                "hashseed_dependent": hash_dependent})
    if not args.trace:
        # every time of a pass scaled by the host speed of that pass
        out["measured"] = {"setup_s": setup_times,
                           "pass_wall_s": [r["wall"] for r in passes]}
        out["speed"] = {"setup": setup_speed,
                        "passes": [r["speed"] for r in passes]}
        modules = sum(len(record["digests"]) for record in passes)
        out["metrics"] = end_to_end(
            [t * setup_speed for t in setup_times],
            [r["wall"] * r["speed"] for r in passes], peak_rss_mb,
            attempted, failed,
            statistics.fmean(r["size_reduction_pct"] for r in passes),
            statistics.fmean(r["runtime_overhead_pct"] for r in passes),
            modules,
            latency_summary([t * r["speed"] for r in passes for t in r["updates"]]),
            latency_summary([t * r["speed"] for r in passes for t in r["requests"]]))
        return out

    snapshot = tracer.snapshot()
    out["xcheck"] = cross_check(snapshot["incl_s"], snapshot["ledger"])
    out["metrics"] = per_layer(
        tracing.layer_self_times(snapshot["self_s"]), out["xcheck"],
        snapshot["ledger"],
        traced["wall"], untraced["wall"],
        snapshot["self_s"].get("bench.pass", 0.0), hash_dependent, 0.0)
    out["trace_problems"] = trace_problems(args.workload, snapshot["calls"],
                                           out["metrics"])
    out["trace_parts"] = [(snapshot["events"], os.getpid(), "benchmark")]
    out["spans_dropped"] = snapshot["dropped"]
    return out


def end_to_end(setup_times, walls, peak_rss_mb, attempted, failed,
               size_reduction, runtime_overhead, size_samples,
               updates, requests) -> dict:
    """The end-to-end metrics as {name: (value, unit, samples, note)}; the
    times are scaled to the reference host speed already."""
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times), ""),
        "wall_s": (statistics.fmean(walls), "s", len(walls), ""),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, ""),
        "success_rate": (1.0 - failed / attempted, "ratio", attempted, ""),
        "size_reduction_pct": (size_reduction, "%", size_samples, ""),
        "runtime_overhead_pct": (runtime_overhead, "%", size_samples, ""),
        "update_p50_ms": (updates["p50_ms"], "ms", updates["samples"], "p50"),
        "update_tail_ms": (updates["tail_ms"], "ms", updates["samples"],
                           f"p{updates['tail_percentile']}"),
        "request_p50_ms": (requests["p50_ms"], "ms", requests["samples"], "p50"),
        "request_tail_ms": (requests["tail_ms"], "ms", requests["samples"],
                            f"p{requests['tail_percentile']}"),
    }


# -- the daemon-edits workload ----------------------------------------------

class Daemon:
    """One ``repro.service`` daemon started through ``daemon_launcher.py``."""

    def __init__(self, work_dir: str, tag: str, trace: bool = False):
        self.result_path = os.path.join(work_dir, f"daemon-{tag}.json")
        for suffix in ("", ".armed", ".disarmed"):
            if os.path.exists(self.result_path + suffix):
                os.remove(self.result_path + suffix)
        command = [sys.executable, os.path.join(HERE, "daemon_launcher.py"),
                   "--result", self.result_path]
        if trace:
            command.append("--trace")
        # the daemon's default configuration with its job count pinned to
        # what it picks on a 2-CPU machine (cores - 1 = 1: serial)
        command += ["--", "--port", "0", "--jobs", "1"]
        self.log_path = os.path.join(work_dir, f"daemon-{tag}.log")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stdout=self._log,
                                        stderr=subprocess.STDOUT, text=True)
        self.address = self._wait_for_address()

    def _wait_for_address(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if "listening on" in line:
                        return line.split("listening on", 1)[1].split()[0]
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("the daemon did not start")

    def _signal_and_wait(self, signum, suffix: str) -> None:
        self.process.send_signal(signum)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.result_path + suffix):
            if time.monotonic() > deadline:
                raise RuntimeError(f"the daemon did not acknowledge {suffix}")
            time.sleep(0.001)

    def arm(self) -> None:
        self._signal_and_wait(signal.SIGUSR1, ".armed")

    def disarm(self) -> None:
        self._signal_and_wait(signal.SIGUSR2, ".disarmed")

    def stop(self) -> dict:
        """Stop the daemon and return what its launcher wrote at exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        if not os.path.exists(self.result_path):
            return {}
        with open(self.result_path) as handle:
            return json.load(handle)


def open_sessions(client, workload) -> list:
    """Health, then each session's open and set-up update."""
    from repro.service.client import ServiceError
    deadline = time.monotonic() + 60.0
    while True:
        try:
            if client.health().get("ok"):
                break
        except (ServiceError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("the daemon never became healthy")
        time.sleep(0.01)
    sids = []
    for script in workload.scripts:
        sids.append(client.open_session(script.session_payload)["session"])
        client.session_update(sids[-1], script.seed_edits())
    return sids


def boot(work_dir: str, tag: str, seed: int, trace: bool = False) -> tuple:
    from repro.service.client import ServiceClient
    workload = edits.Workload(seed)
    daemon = Daemon(work_dir, tag, trace)
    client = ServiceClient(daemon.address, timeout=120.0)
    try:
        sids = open_sessions(client, workload)
    except BaseException:
        client.close()
        daemon.stop()
        raise
    return daemon, client, workload, sids


def drive(client, workload, sids: list, count: int, tracer=None) -> dict:
    """The closed loop: one request at a time, each timed on the client.

    Untraced, a host-speed probe runs after each response, before the next
    request; the loop's wall leaves the probes out."""
    from repro.service.client import ServiceError
    record = {"updates": [], "requests": [], "errors": 0, "log": [],
              "edits": [[] for _ in sids]}
    calibration = hostspeed.Calibration() if tracer is None else None
    request = client._request
    if tracer is not None:
        client._request = tracer.wrap("client.request", request)
    start = time.perf_counter()
    try:
        for session, kind, body in workload.requests(count):
            sent = time.perf_counter()
            try:
                if kind == "update":
                    record["edits"][session].extend(body)
                    response = client.session_update(sids[session], body)
                else:
                    response = client.compile_module(body)
            except (ServiceError, OSError) as error:
                record["errors"] += 1
                record["log"].append((session, kind, body, repr(error)))
                continue
            elapsed = time.perf_counter() - sent
            record["updates" if kind == "update" else "requests"].append(elapsed)
            record["log"].append((session, kind, body, response))
            if calibration is not None:
                calibration.probe()
    finally:
        record["wall"] = time.perf_counter() - start
        client._request = request
    if calibration is not None:
        record["wall"] -= sum(calibration.samples)
        record["speed"] = calibration.factor()
    return record


def cold_compile(body: dict) -> tuple:
    """(decisions, normalised runtime) of an in-process cold compile."""
    from repro.evaluation.pipeline import compile_module
    from repro.service.protocol import build_module, jsonable_decisions
    result = compile_module(build_module(body), "fmsa", target=TARGET)
    return (jsonable_decisions(result.merge_report.decision_keys()),
            result.normalized_runtime)


def cold_session(seed: int, session: int, applied: list) -> list:
    """Decisions of a cold ``FunctionMergingPass`` over one session's module
    after its set-up update and every edit in ``applied``."""
    from repro.core.engine.session import apply_edit
    from repro.core.pass_ import FunctionMergingPass
    from repro.passes.dce import DeadCodeElimination
    from repro.passes.simplify_cfg import SimplifyCFG
    from repro.service.protocol import (build_edits, build_module,
                                        jsonable_decisions)
    from repro.targets import get_target
    script = edits.Workload(seed).scripts[session]
    module = build_module(script.session_payload)
    DeadCodeElimination().run(module)
    SimplifyCFG().run(module)
    for edit in build_edits(script.seed_edits() + applied):
        apply_edit(module, edit)
    report = FunctionMergingPass(target=get_target(TARGET),
                                 exploration_threshold=1).run(module)
    return jsonable_decisions(report.decision_keys())


def check_daemon(seed: int, record: dict) -> dict:
    """Compare the daemon's decisions with in-process cold runs, and derive
    the size and runtime figures of its compile responses."""
    compiles = [(body, response) for _, kind, body, response in record["log"]
                if kind == "compile" and isinstance(response, dict)]
    last_update = {}
    for session, kind, _, response in record["log"]:
        if kind == "update" and isinstance(response, dict):
            last_update[session] = response
    distinct = {json.dumps(body, sort_keys=True): body for body, _ in compiles}
    tasks = [(cold_compile, (body,)) for body in distinct.values()]
    tasks += [(cold_session, (seed, session, record["edits"][session]))
              for session in sorted(last_update)]
    results = check_map(call, tasks)
    references = dict(zip(distinct, results))
    failed = sum(last_update[session]["decisions"] != decisions
                 for session, decisions in zip(sorted(last_update),
                                               results[len(distinct):]))
    reductions, overheads, memo_hits = [], [], 0
    for body, response in compiles:
        decisions, runtime = references[json.dumps(body, sort_keys=True)]
        if response.get("decisions") != decisions:
            failed += 1
        reductions.append(response["reduction_percent"])
        overheads.append(100.0 * (runtime - 1.0))
        memo_hits += bool(response.get("result_cache_hit"))
    return {"failed": failed + record["errors"],
            "size_reduction_pct": statistics.fmean(reductions) if reductions else 0.0,
            "runtime_overhead_pct": statistics.fmean(overheads) if overheads else 0.0,
            "memo_hit_ratio": memo_hits / len(compiles) if compiles else 0.0,
            "compiles": len(compiles), "distinct_compiles": len(references)}


def run_daemon_workload(args, hashseed: int, work_dir: str) -> dict:
    count = max(MIN_REQUESTS, round(args.seconds / NOMINAL_REQUEST_S))
    out = {"config": {"daemon": "repro.service defaults, --jobs 1",
                      "session_module": edits.SESSION_BENCHMARK,
                      "sessions": edits.SESSIONS,
                      "requests": count, "kernel": "needleman-wunsch (keyed)"}}
    _, _, hash_dependent = setup_and_hash_probes(args.workload, args.seed,
                                                 hashseed, 0)
    setup_times = []
    setup_calibration = hostspeed.Calibration()
    daemon = client = None

    def timed_boot(tag):
        start = time.perf_counter()
        booted = boot(work_dir, tag, args.seed)
        return time.perf_counter() - start, booted

    try:
        repeats = DAEMON_SETUP_REPEATS if not args.trace else 1
        for index in range(repeats):
            seconds, (daemon, client, workload, sids) = calibrated(
                setup_calibration, lambda: timed_boot(f"setup{index}"))
            setup_times.append(seconds)
            if index < repeats - 1:
                client.close()
                daemon.stop()
        record = drive(client, workload, sids, count)
        client.close()
        client = None
        stopped = daemon.stop()
        daemon = None

        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            daemon, client, workload, sids = boot(work_dir, "traced", args.seed,
                                               trace=True)
            daemon.arm()
            traced = tracer.timed("bench.loop", drive, client, workload,
                                  sids, count, tracer)
            daemon.disarm()
            client.close()
            client = None
            traced_daemon = daemon.stop()
            daemon = None
    finally:
        if client is not None:
            client.close()
        if daemon is not None:
            daemon.stop()

    records = [record] + ([traced] if traced is not None else [])
    checks = [check_daemon(args.seed, item) for item in records]
    attempted = sum(len(item["log"]) for item in records)
    failed = sum(check["failed"] for check in checks)
    out.update({"attempted": attempted, "failed": failed,
                "check": "in-process cold runs",
                "distinct_compiles": checks[0]["distinct_compiles"],
                "hashseed_dependent": hash_dependent})
    if not args.trace:
        if "maxrss_kb" not in stopped:
            raise RuntimeError("the daemon launcher wrote no peak RSS")
        first = checks[0]
        speed, setup_speed = record["speed"], setup_calibration.factor()
        out["measured"] = {"setup_s": setup_times, "wall_s": record["wall"]}
        out["speed"] = {"setup": setup_speed, "loop": speed}
        out["metrics"] = end_to_end(
            [t * setup_speed for t in setup_times],
            [record["wall"] * speed], stopped["maxrss_kb"] / 1024.0,
            attempted, failed, first["size_reduction_pct"],
            first["runtime_overhead_pct"], first["compiles"],
            latency_summary([t * speed for t in record["updates"]]),
            latency_summary([t * speed for t in record["requests"]]))
        return out

    server = traced_daemon.get("trace")
    if not server:
        raise RuntimeError("the traced daemon wrote no spans")
    client_snapshot = tracer.snapshot()
    layer_self = tracing.layer_self_times(server["self_s"])
    # client-side JSON and transport: the client's request time that the
    # daemon's HTTP handler did not see
    client_s = client_snapshot["incl_s"].get("client.request", 0.0)
    layer_self["service.wire_s"] += client_s - server["incl_s"].get("service.http", 0.0)
    wall = traced["wall"]
    out["xcheck"] = cross_check(server["incl_s"], server["ledger"])
    out["metrics"] = per_layer(
        layer_self, out["xcheck"], server["ledger"], wall, record["wall"],
        wall - client_s, hash_dependent, checks[-1]["memo_hit_ratio"])
    out["trace_problems"] = trace_problems(
        args.workload, {**server["calls"], **client_snapshot["calls"]},
        out["metrics"])
    out["trace_parts"] = [(client_snapshot["events"], os.getpid(), "load generator"),
                          (server["events"], traced_daemon["pid"], "daemon")]
    out["spans_dropped"] = client_snapshot["dropped"] + server["dropped"]
    return out


# -- entry point ------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", default=None)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--record", action="store_true",
                        help="check every pass against the reference engine, "
                             "ignoring stored digests (record_digests.py)")
    args = parser.parse_args()
    if args.probe is not None:
        return probe_main(args.probe, args.seed)

    hashseed = int(os.environ["PYTHONHASHSEED"])
    os.sched_setaffinity(0, {CPUS[-1]})
    if args.workload in SUITES:
        out = run_suite_workload(args, hashseed)
    else:
        out = run_daemon_workload(args, hashseed, args.work_dir)
    out["seeds"] = {"generator": args.seed, "PYTHONHASHSEED": hashseed}
    out["cpus"] = os.cpu_count()
    out["measured_on_cpu"] = CPUS[-1]
    out["python"] = sys.version.split()[0]
    parts = out.pop("trace_parts", None)
    if parts is not None:
        path = os.path.join(args.work_dir,
                            f"{args.workload}-seed{args.seed}.trace.json")
        write_chrome_trace(path, parts)
        out["chrome_trace"] = path
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing for the benchmark: spans around each layer's public calls.

Nothing under ``src/`` is changed.  :func:`install` replaces the public
functions and methods at each layer boundary with timing wrappers, and
the returned :class:`Installation` puts the originals back.  Every wrapper records one span:
its name, start, end and the thread it ran on.  A span's *self time* is its
duration minus the time of the spans nested in it on the same thread, so the
self times of all spans add up to the wall time of the outermost one.

Spans are aggregated by name while they happen and, up to a cap, kept in
memory as raw events; :func:`chrome_events` turns those into Chrome
trace-event JSON (open it in ``chrome://tracing`` or Perfetto).

The wrappers also feed a small ledger of engine counters read from the
objects the engine returns (``MergeReport``, ``SessionUpdateReport`` and the
engine's own stage statistics), so the per-layer counts come from the same
calls as the per-layer times.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: Span name -> per-layer metric its *self time* is reported under.
LAYER_OF_SPAN = {
    "workloads.build": "workloads.build_s",
    "passes.run": "passes.run_s",
    "baselines.identical": "baselines.identical_s",
    "baselines.soa": "baselines.soa_s",
    "engine.run": "engine.other_s",
    "engine.fingerprint": "engine.fingerprint_s",
    "engine.search": "engine.search_s",
    "engine.linearize": "engine.linearize_s",
    "engine.align": "engine.align_s",
    "engine.cache_key": "engine.cache_key_s",
    "engine.kernel": "engine.kernel_s",
    "engine.codegen": "engine.codegen_s",
    "engine.profitability": "engine.profitability_s",
    "engine.commit": "engine.commit_s",
    "engine.commit_apply": "engine.commit_s",
    "session.update": "session.update_s",
    "ir.verify": "ir.verify_s",
    "ir.print": "ir.print_s",
    "targets.cost": "targets.cost_s",
    "frontend.compile": "frontend.compile_s",
    "service.handle": "service.handle_s",
    "service.decode": "service.decode_s",
    "service.wire": "service.wire_s",
    "service.http": "service.wire_s",
    "evaluation.compile_module": "evaluation.self_s",
    "evaluation.evaluate_suite": "evaluation.self_s",
    "evaluation.open_session": "evaluation.self_s",
}

#: Engine stage (``MergeReport.stage_stats`` key) -> span whose *inclusive*
#: time covers the same calls, for the outside-in cross-check.
STAGE_SPANS = {
    "fingerprint": "engine.fingerprint",
    "candidate-search": "engine.search",
    "linearize": "engine.linearize",
    "align": "engine.align",
    "codegen": "engine.codegen",
    "profitability": "engine.profitability",
    "commit": "engine.commit_apply",
}

#: Stages whose seconds feed a legacy ``MergeReport.stage_times`` bucket.
LEGACY_STAGES = ("fingerprint", "candidate-search", "linearize", "align",
                 "codegen", "profitability", "commit")


class Tracer:
    """In-memory span recorder; thread-safe, one nesting stack per thread.

    ``recording`` gates everything: while it is False the wrappers still
    run their call but record nothing (the daemon launcher arms it only for
    the timed window).
    """

    def __init__(self, max_events: int = 200_000):
        self.max_events = max_events
        self.recording = True
        self.events = []
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.ledger = EngineLedger()
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.events = []
            self.dropped = 0
            self.self_s.clear()
            self.incl_s.clear()
            self.calls.clear()
            self.ledger = EngineLedger()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float,
                self_time: float) -> None:
        tid = threading.get_ident()
        with self._lock:
            self.self_s[name] += self_time
            self.incl_s[name] += end - start
            self.calls[name] += 1
            if len(self.events) < self.max_events:
                self.events.append((name, start, end, tid))
            else:
                self.dropped += 1

    def timed(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``name``."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            self._record(name, start, end, end - start - children[0])

    def wrap(self, name: str, fn, after=None):
        """A wrapper of ``fn`` that records a span per call; ``after`` is
        called as ``after(result, args)`` when the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.timed(name, fn, *args, **kwargs)
            if after is not None and tracer.recording:
                after(result, args)
            return result

        return traced

    def snapshot(self) -> dict:
        """Everything recorded so far as plain JSON data."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "events": [list(event) for event in self.events],
                "dropped": self.dropped,
                "ledger": self.ledger.as_dict(),
            }


def layer_self_times(self_s: dict) -> dict:
    """Self seconds per span name -> per per-layer metric (every layer
    present, 0 when it did not run)."""
    totals = {metric: 0.0 for metric in set(LAYER_OF_SPAN.values())}
    for name, seconds in self_s.items():
        metric = LAYER_OF_SPAN.get(name)
        if metric is not None:
            totals[metric] += seconds
    return totals


def chrome_events(events, pid: int, process_name: str) -> list:
    """Chrome trace-event ("X" complete events, microseconds) for raw
    ``(name, start, end, tid)`` spans of one process."""
    out = [{"name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": process_name}}]
    for name, start, end, tid in events:
        out.append({"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "pid": pid, "tid": tid})
    return out


class EngineLedger:
    """Engine counters summed over the runs and updates seen while tracing,
    plus the engine's own stage seconds for the cross-check."""

    def __init__(self):
        self.runs = 0
        self.candidates_evaluated = 0
        self.profitable = 0
        self.unprofitable = 0
        self.align_cells = 0
        self.cache_hits = 0
        self.cache_computed = 0
        self.cache_bytes = 0
        self.replans = 0
        self.wasted_evaluations = 0
        self.functions_replanned = 0
        self.plans_reused = 0
        self.functions_built = 0
        self.responses = 0
        self.response_bytes = 0
        self.stage_seconds = defaultdict(float)
        #: Engine runs only: legacy ``stage_times`` total vs the summed
        #: seconds of the stages that feed it.
        self.legacy_bucket_s = 0.0
        self.legacy_stage_s = 0.0
        self._lock = threading.Lock()

    def note_functions(self, count: int) -> None:
        with self._lock:
            self.functions_built += count

    def note_response(self, size: int) -> None:
        with self._lock:
            self.responses += 1
            self.response_bytes += size

    def _add_stage_stats(self, stage_stats: dict) -> None:
        for stage, stats in stage_stats.items():
            self.stage_seconds[stage] += stats.get("seconds", 0.0)
        profitability = stage_stats.get("profitability", {})
        self.profitable += int(profitability.get("profitable", 0))
        self.unprofitable += int(profitability.get("unprofitable", 0))
        align = stage_stats.get("align", {})
        self.align_cells += int(align.get("cells", 0))
        self.cache_hits += int(align.get("cache_hits", 0))
        self.cache_computed += int(align.get("keyed", 0))

    def _add_scheduler(self, stats: dict) -> None:
        self.replans += int(stats.get("replans", 0))
        self.wasted_evaluations += int(stats.get("wasted_evaluations", 0))

    def _note_cache(self, engine) -> None:
        cache = getattr(engine, "align_cache", None)
        if cache is not None and engine.alignment.uses_cache:
            self.cache_bytes = max(self.cache_bytes,
                                   int(cache.stats_dict()["align_cache_bytes"]))

    def after_engine_run(self, report, args) -> None:
        engine = args[0]
        with self._lock:
            self.runs += 1
            self.candidates_evaluated += report.candidates_evaluated
            self._add_stage_stats(report.stage_stats)
            self._add_scheduler(report.scheduler_stats)
            self._note_cache(engine)
            self.legacy_bucket_s += sum(report.stage_times.values())
            self.legacy_stage_s += sum(
                report.stage_stats.get(stage, {}).get("seconds", 0.0)
                for stage in LEGACY_STAGES)

    def after_session_update(self, update, args) -> None:
        session = args[0]
        with self._lock:
            self.runs += 1
            self.candidates_evaluated += update.candidates_evaluated
            self.functions_replanned += update.functions_replanned
            self.plans_reused += update.plans_reused
            self._add_stage_stats(session.engine.stage_stats())
            self._add_scheduler(update.scheduler_stats)
            self._note_cache(session.engine)

    def as_dict(self) -> dict:
        with self._lock:
            data = {key: value for key, value in vars(self).items()
                    if not key.startswith("_")}
            data["stage_seconds"] = dict(self.stage_seconds)
            return data


# -- installing the wrappers ------------------------------------------------

def _function_targets():
    """(module, attribute, span, call sites) for module-level functions.
    Each is replaced in its defining module and in every ``repro`` module
    that imported it by name, or only in the listed call-site modules."""
    return [
        ("repro.workloads.spec2006", "build_spec_benchmark", "workloads.build",
         None),
        ("repro.workloads.mibench", "build_mibench_benchmark",
         "workloads.build", None),
        ("repro.evaluation.pipeline", "compile_module",
         "evaluation.compile_module", None),
        ("repro.evaluation.pipeline", "open_compile_session",
         "evaluation.open_session", None),
        ("repro.evaluation.experiments", "evaluate_suite",
         "evaluation.evaluate_suite", None),
        # the backend emulation of the pipeline
        ("repro.ir.verifier", "verify_module", "ir.verify",
         ["repro.evaluation.pipeline"]),
        ("repro.ir.printer", "function_to_str", "ir.print",
         ["repro.evaluation.pipeline"]),
        ("repro.frontend.lowering", "compile_source", "frontend.compile",
         None),
        ("repro.service.protocol", "build_module", "service.decode", None),
        ("repro.service.protocol", "build_edits", "service.decode", None),
        ("repro.service.protocol", "parse_request", "service.wire", None),
        ("repro.service.protocol", "dump_response", "service.wire", None),
        # the predicate-based aligner the paper-pinned engine runs
        ("repro.core.alignment", "align", "engine.kernel",
         ["repro.core.engine.stages"]),
    ]


def _method_targets():
    """(class, method, span) for methods; set on the class itself, so a
    subclass method that was inherited is shadowed and later removed."""
    from repro.baselines.identical import IdenticalFunctionMergingPass
    from repro.baselines.soa import StructuralFunctionMergingPass
    from repro.core.engine import engine as engine_mod
    from repro.core.engine import stages
    from repro.core.engine.session import MergeSession
    from repro.core.linearizer import LinearizedFunction
    from repro.passes.dce import DeadCodeElimination, DeadFunctionElimination
    from repro.passes.simplify_cfg import SimplifyCFG
    from repro.service.daemon import MergeDaemon
    from repro.targets.cost_model import TargetCostModel

    targets = [
        (DeadCodeElimination, "run", "passes.run"),
        (DeadFunctionElimination, "run", "passes.run"),
        (SimplifyCFG, "run", "passes.run"),
        (IdenticalFunctionMergingPass, "run", "baselines.identical"),
        (StructuralFunctionMergingPass, "run", "baselines.soa"),
        (engine_mod.MergeEngine, "run", "engine.run"),
        (engine_mod.MergeEngine, "commit_plan", "engine.commit"),
        (stages.CandidateSearchStage, "query", "engine.search"),
        (stages.LinearizeStage, "get", "engine.linearize"),
        (stages.AlignmentStage, "align_pair", "engine.align"),
        (LinearizedFunction, "canonical_digest", "engine.cache_key"),
        (stages.CodegenStage, "generate", "engine.codegen"),
        (stages.ProfitabilityStage, "evaluate", "engine.profitability"),
        (stages.CommitStage, "apply", "engine.commit_apply"),
        (TargetCostModel, "module_cost", "targets.cost"),
        (MergeSession, "update", "session.update"),
        (MergeDaemon, "handle", "service.handle"),
    ]
    for method in ("add_functions", "add_function", "add_merged",
                   "restore_function", "remove_function",
                   "refresh_profit_bounds"):
        targets.append((stages.FingerprintStage, method, "engine.fingerprint"))
    return targets


class Installation:
    """The wrappers :func:`install` put in place; :meth:`undo` removes them."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, value) -> None:
        if isinstance(owner, type):
            had_own = name in owner.__dict__
            old = owner.__dict__.get(name)
        else:
            had_own, old = True, getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append((owner, name, had_own, old))

    def replace_item(self, mapping, key, value) -> None:
        self._undo.append((mapping, key, None, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, name, had_own, old = self._undo.pop()
            if had_own is None:
                owner[name] = old
            elif had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary; returns the handle that removes them.

    Raises ``RuntimeError`` when a target can no longer be wrapped (a
    function that no module binds any more, a method that is gone), so a
    renamed boundary fails the traced run instead of reading 0."""
    # import every module that binds a wrapped function by name first
    import repro.evaluation.experiments  # noqa: F401
    from repro.core.engine import stages
    from repro.service import daemon as daemon_mod

    installation = Installation()
    for module_name, attr, span, sites in _function_targets():
        original = getattr(sys.modules[module_name], attr)
        after = None
        if span == "workloads.build":
            def after(generated, args):
                tracer.ledger.note_functions(sum(
                    1 for _ in generated.module.defined_functions()))
        elif attr == "dump_response":
            def after(body, args):
                tracer.ledger.note_response(len(body))
        wrapped = tracer.wrap(span, original, after=after)
        if sites is None:
            holders = [name for name in list(sys.modules)
                       if (name == "repro" or name.startswith("repro."))
                       and getattr(sys.modules[name], attr, None) is original]
        else:
            holders = [name for name in sites
                       if getattr(sys.modules[name], attr, None) is original]
            if len(holders) != len(sites):
                raise RuntimeError(f"tracing: {attr} is no longer bound in "
                                   f"{sorted(set(sites) - set(holders))}")
        if not holders:
            raise RuntimeError(f"tracing: {module_name}.{attr} is bound in "
                               f"no repro module; its span would read 0")
        for name in holders:
            installation.replace(sys.modules[name], attr, wrapped)

    from repro.core.engine.engine import MergeEngine
    from repro.core.engine.session import MergeSession
    hooks = {(MergeEngine, "run"): "after_engine_run",
             (MergeSession, "update"): "after_session_update"}
    for owner, method, span in _method_targets():
        hook = hooks.get((owner, method))
        after = None
        if hook is not None:
            # looked up per call: reset() swaps in a fresh ledger
            def after(result, args, hook=hook):
                getattr(tracer.ledger, hook)(result, args)
        installation.replace(owner, method,
                             tracer.wrap(span, getattr(owner, method), after))

    # keyed DP kernels are dispatched through a class-level table
    kernels = stages.AlignmentStage.KEYED_KERNELS
    if not kernels:
        raise RuntimeError("tracing: AlignmentStage.KEYED_KERNELS is empty")
    for key in list(kernels):
        installation.replace_item(kernels, key,
                                  tracer.wrap("engine.kernel", kernels[key]))

    # the daemon builds its HTTP handler class per instance: wrap the verbs
    # of every class the factory returns (socket I/O + HTTP framing)
    make_handler = daemon_mod._make_handler

    def traced_make_handler(daemon):
        handler = make_handler(daemon)
        for verb in ("do_GET", "do_POST"):
            setattr(handler, verb,
                    tracer.wrap("service.http", getattr(handler, verb)))
        return handler

    installation.replace(daemon_mod, "_make_handler", traced_make_handler)
    return installation

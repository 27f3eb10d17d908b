"""Out-of-process alignment offload: the DP as a pure-data service.

The Needleman-Wunsch DP is the planning phase's dominant cost, and it is
*pure*: given two equivalence-key sequences and a scoring scheme, every
keyed kernel deterministically produces one alignment shape (op string +
score).  Nothing else of the pipeline crosses this boundary - candidate
search, codegen, profitability and commit all need live IR and stay in the
main process.  That purity is what makes a process pool viable where a
process pool for whole *plans* is not (plans hold live references into the
module's IR objects and cannot cross a pickle boundary).

The unit of work is an :class:`AlignmentTask`: the two sequences encoded as
**canonical equivalence-key bytes** (:func:`~repro.core.equivalence
.encode_equivalence_key` per entry, via
:meth:`~repro.core.linearizer.LinearizedFunction.canonical_key_bytes`) plus
the scoring triple.  Canonical bytes - not interner ids - so a task is
self-contained and interner-independent: the worker re-interns them with
:func:`~repro.core.equivalence.decode_canonical_keys` (never-equivalent
markers get fresh negative ids, exactly like the live interner) and runs
the keyed kernel of its choice.  Every keyed kernel is bit-identical, so
**each worker picks its own**: the native C kernel when the ``_nw_native``
extension is importable (or buildable) in the worker process, the
vectorized NumPy kernel when NumPy is, the pure-Python kernel otherwise
(overridable per executor for tests and benchmarks).

Before dispatch, tasks sharing one left sequence are **packed** into a
single :class:`AlignmentTaskGroup` carrying ``keys1`` once: clone families
align many candidates against the same leader, so per round the duplicated
left-sequence bytes - typically half of every task's payload - cross the
pickle boundary once instead of once per pair.  The savings are accounted
in the executor's ``offload_bytes_saved`` counter (surfaced as a scheduler
stat).  Packing only deduplicates transport; each pair is still decoded
and solved independently, in dispatch order, so results are byte-for-byte
what per-task dispatch would produce.

:class:`ProcessExecutor` plugs this into the scheduler's ``PlanExecutor``
seam.  Its :meth:`ProcessExecutor.map` - the *finish-plan* step - runs in
the calling process (plans cannot be pickled); only
:meth:`ProcessExecutor.run_tasks` fans out, dispatching tasks in chunks
onto a ``concurrent.futures.ProcessPoolExecutor``.  Chunks are sized to
roughly ``4 x jobs`` per batch so idle workers keep pulling work off the
shared queue (work stealing by queue discipline) instead of one straggler
chunk serializing the tail.  A failed or killed worker surfaces as
:class:`TaskFailure` naming the first failed task's index, which the
scheduler maps back to the worklist entry that requested it.

Results flow into the content-addressed alignment cache in the main
process; the finish-plan step then re-runs the normal (unchanged) planning
pipeline, whose alignment lookups all hit.  Decisions are therefore
bit-identical to the serial engine by construction - the offload is a
cache-warming prefetch, never a second code path for deciding anything.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...resilience import (ResilienceError, RetryPolicy, degradation_event,
                           fault_triggered)
from ..alignment import ScoringScheme
from ..equivalence import decode_canonical_keys
from ..tiers import TIERS, best_tier
from .scheduler import PlanExecutor

#: Worker kernel modes accepted by :class:`ProcessExecutor` /
#: :func:`_init_worker`.  ``"auto"`` is the production setting (the fastest
#: tier the worker can run); each tier's ``worker`` name (``"native"``,
#: ``"numpy"``, ``"pure"``) pins that tier, used by tests and benchmarks to
#: exercise a specific leg deterministically.
WORKER_KERNELS = ("auto",) + tuple(tier.worker for tier in TIERS)


@dataclass(frozen=True)
class AlignmentTask:
    """One alignment DP as picklable pure data.

    ``keys1`` / ``keys2`` are the pair's canonical per-entry equivalence-key
    encodings (interner-independent bytes; see the module docstring),
    ``scoring`` the ``(match, mismatch, gap)`` triple.  Carries everything a
    worker needs and nothing it must share with the main process.
    """

    keys1: Tuple[bytes, ...]
    keys2: Tuple[bytes, ...]
    scoring: Tuple[int, int, int]


@dataclass(frozen=True)
class AlignmentTaskGroup:
    """A packed batch of tasks sharing one left sequence (see the module
    docstring): ``keys1`` and ``scoring`` once, one ``keys2`` per pair.
    Solved pairwise in order; equivalent to the corresponding
    :class:`AlignmentTask` list, only cheaper to pickle."""

    keys1: Tuple[bytes, ...]
    keys2_list: Tuple[Tuple[bytes, ...], ...]
    scoring: Tuple[int, int, int]


@dataclass(frozen=True)
class TaskResult:
    """An alignment shape computed by a worker."""

    ops: str
    score: int


class TaskFailure(RuntimeError):
    """A worker failed (raised, or died) while solving one task chunk.

    ``task_index`` is the index (into the dispatched task list) of the
    first task of the first failed chunk - with a crashed worker the pool
    cannot say more precisely which task was being solved, but the index is
    enough for the scheduler to attribute the failure to a worklist entry.
    """

    def __init__(self, task_index: int, cause: BaseException):
        super().__init__(f"alignment task {task_index} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.task_index = task_index
        self.__cause__ = cause


# -- worker side ---------------------------------------------------------------

#: Per-worker solver, resolved once by :func:`_init_worker` (or lazily on
#: the first task when the pool was built without an initializer).
_worker_solver = None


def _resolve_solver(kernel: str = "auto"):
    """Pick this process's task solver: the fastest available tier for
    ``"auto"``, or exactly the pinned tier (raising when a pinned tier is
    unavailable in this process - the failure surfaces as a
    :class:`TaskFailure` on the dispatching side)."""
    if kernel not in WORKER_KERNELS:
        raise ValueError(f"unknown offload worker kernel {kernel!r}; "
                         f"available: {WORKER_KERNELS}")
    if kernel == "auto":
        return best_tier().solve
    tier = next(tier for tier in TIERS if tier.worker == kernel)
    tier.require(tier.kernel)  # pinned: fail loudly, not silently
    return tier.solve


def _init_worker(kernel: str) -> None:
    """Pool initializer: resolve the kernel once per worker process."""
    global _worker_solver
    _worker_solver = _resolve_solver(kernel)


def solve_alignment_task(task: AlignmentTask) -> TaskResult:
    """Solve one task in this process (workers and tests call this)."""
    global _worker_solver
    if _worker_solver is None:
        _worker_solver = _resolve_solver()
    keys1, keys2 = decode_canonical_keys(task.keys1, task.keys2)
    ops, score = _worker_solver(keys1, keys2, ScoringScheme(*task.scoring))
    return TaskResult(ops, score)


def _solve_chunk(tasks: List[AlignmentTask]) -> Tuple[List[TaskResult], float]:
    """Worker entry: solve one chunk, reporting its in-worker DP seconds
    (the dispatch/IPC overhead benchmark subtracts these from the offload
    wall clock)."""
    start = time.perf_counter()
    results = [solve_alignment_task(task) for task in tasks]
    return results, time.perf_counter() - start


def solve_alignment_group(group: AlignmentTaskGroup) -> List[TaskResult]:
    """Solve one packed group in this process: one result per ``keys2``,
    in order.  Each pair decodes and solves independently - exactly what
    the unpacked :class:`AlignmentTask` list would produce."""
    global _worker_solver
    if _worker_solver is None:
        _worker_solver = _resolve_solver()
    scoring = ScoringScheme(*group.scoring)
    results: List[TaskResult] = []
    for keys2 in group.keys2_list:
        keys1, keys2 = decode_canonical_keys(group.keys1, keys2)
        ops, score = _worker_solver(keys1, keys2, scoring)
        results.append(TaskResult(ops, score))
    return results


def _solve_group_chunk(groups: List[AlignmentTaskGroup],
                       inject: Optional[str] = None
                       ) -> Tuple[List[TaskResult], float]:
    """Worker entry for packed dispatch: flat results in group order.

    ``inject`` carries a fault *instruction* decided on the dispatching
    side (see :class:`ProcessExecutor`): the worker obeys rather than
    consulting the fault plan itself, so one process owns the deterministic
    trigger stream.  ``"crash"`` dies like a SIGKILL'd worker, ``"hang"``
    stalls far past any sane deadline, ``"corrupt"`` returns a result whose
    alignment shape cannot have come from the DP.
    """
    if inject == "crash":
        os._exit(3)
    if inject == "hang":
        time.sleep(3600.0)
    start = time.perf_counter()
    results: List[TaskResult] = []
    for group in groups:
        results.extend(solve_alignment_group(group))
    if inject == "corrupt" and results:
        results[0] = TaskResult(ops="m" * (len(results[0].ops) + 2),
                                score=results[0].score)
    return results, time.perf_counter() - start


# -- executor side -------------------------------------------------------------

def _valid_result_shape(task: AlignmentTask, result) -> bool:
    """Cheap structural validation of one worker result: the op string must
    be over the ``m``/``l``/``r`` alphabet and consume exactly both key
    sequences.  Catches a corrupted (or corrupt-injected) result before it
    poisons the alignment cache."""
    if not isinstance(result, TaskResult) or not isinstance(result.ops, str):
        return False
    consumed1 = consumed2 = 0
    for op in result.ops:
        if op == "m":
            consumed1 += 1
            consumed2 += 1
        elif op == "l":
            consumed1 += 1
        elif op == "r":
            consumed2 += 1
        else:
            return False
    return (consumed1 == len(task.keys1)
            and consumed2 == len(task.keys2))


class _AttemptFailure(Exception):
    """Internal: one failed dispatch attempt, attributed to a fault site.

    ``site`` doubles as a failure *category* - real failures land on the
    same site names the injector uses (a genuinely hung worker is
    ``offload.worker_hang`` exactly like an injected one), so retry
    accounting and the typed-abort contract treat both identically.
    ``kind`` drives pool teardown: crashed and hung pools must be rebuilt
    (hung workers additionally SIGKILL'd), a corrupt result leaves the pool
    healthy.
    """

    def __init__(self, site: str, task_index: int, cause: BaseException,
                 kind: str):
        super().__init__(f"{site}: {type(cause).__name__}: {cause}")
        self.site = site
        self.task_index = task_index
        self.cause = cause
        self.kind = kind


class ProcessExecutor(PlanExecutor):
    """Plan executor that offloads alignment tasks to a process pool.

    Planning itself (``map``) runs serially in the calling process - plans
    hold live IR references - so with this executor the scheduler's batch
    pipeline is *hydrate -> align (offloaded) -> finish-plan*: the DP work
    crosses the process boundary as :class:`AlignmentTask` pure data and
    everything else stays put.  ``kernel`` selects the workers' solver
    (``"auto"``: native C when the worker can load the extension, NumPy
    when it can import it, pure Python otherwise).

    Worker processes are spawned lazily by the pool on first dispatch, so
    building the executor is cheap and a run whose alignments all hit the
    cache never forks at all.
    """

    offloads_alignment = True

    #: Target chunks per worker and dispatch round: enough slack for the
    #: pool's queue to rebalance (work stealing), few enough that per-chunk
    #: IPC stays amortized.
    CHUNKS_PER_JOB = 4

    def __init__(self, jobs: int, kernel: str = "auto",
                 keep_alive: bool = False,
                 retry_policy: Optional[RetryPolicy] = None):
        if kernel not in WORKER_KERNELS:
            raise ValueError(f"unknown offload worker kernel {kernel!r}; "
                             f"available: {WORKER_KERNELS}")
        self.jobs = max(1, int(jobs))
        self.kernel = kernel
        #: When True the executor survives :meth:`release` (the end-of-run
        #: teardown), so back-to-back engine runs in one process reuse the
        #: same worker pool; only an explicit :meth:`close` shuts it down.
        self.keep_alive = bool(keep_alive)
        #: How dispatch failures are retried / deadlined / degraded.  The
        #: default policy is single-attempt with no fallback, preserving
        #: the historical ``TaskFailure`` contract exactly.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Cumulative left-sequence bytes that task packing kept off the
        #: pickle boundary (see the module docstring); surfaced in the
        #: scheduler's ``offload_bytes_saved`` stat.
        self.offload_bytes_saved = 0
        #: Resilience accounting, copied into scheduler stats per batch.
        self.offload_retries = 0
        self.offload_pool_recycles = 0
        self.offload_deadline_timeouts = 0
        self.offload_inprocess_fallbacks = 0
        #: Graceful-degradation transitions (``degradation_event`` dicts).
        self.degradations: List[dict] = []
        self._pool: Optional[ProcessPoolExecutor] = self._build_pool()

    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   initializer=_init_worker,
                                   initargs=(self.kernel,))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._build_pool()
        return self._pool

    def _teardown_pool(self, kill: bool = False) -> None:
        """Discard the current pool after a failed attempt.  ``kill``
        SIGKILLs the workers first - a hung worker never honours a
        cooperative shutdown, and ``shutdown(wait=True)`` on a pool with a
        sleeping worker would turn a detected hang back into a real one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for pid in list(getattr(pool, "_processes", {}) or {}):
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
        pool.shutdown(wait=False, cancel_futures=True)
        self.offload_pool_recycles += 1

    def worker_pids(self) -> List[int]:
        """PIDs of the pool's live worker processes (spawning one worker if
        none exists yet).  Observability for keep-alive reuse tests and the
        merge daemon's stats - with ``keep_alive=True``, consecutive runs
        must report overlapping PID sets."""
        pool = self._ensure_pool()
        pool.submit(os.getpid).result()  # force at least one worker
        return sorted(pool._processes.keys())

    def map(self, fn, names):
        # finish-plan: main process, serially (the offload already paid the
        # parallelizable cost; what remains needs live IR)
        return [fn(name) for name in names]

    def run_tasks(self, tasks: Sequence[AlignmentTask]
                  ) -> Tuple[List[TaskResult], float]:
        """Solve ``tasks`` on the pool; returns ``(results, worker_seconds)``
        with results in task order and the summed in-worker DP time.

        Failure handling follows :attr:`retry_policy`: each attempt is
        bounded by the per-task deadline (a hung worker surfaces as a
        detected timeout, not an infinite wait), a failed attempt tears the
        pool down and retries on fresh workers after deterministic backoff,
        and an exhausted budget either degrades to solving in-process
        (``fallback_inprocess`` - bit-identical, the tasks are pure) or
        raises: :class:`~repro.resilience.ResilienceError` naming the
        failure site under a resilient policy, the legacy
        :class:`TaskFailure` under the default single-attempt policy.
        """
        if not tasks:
            return [], 0.0
        # pack pairs sharing one left sequence: keys1 crosses the pickle
        # boundary once per (left, scoring) family instead of once per pair
        families: dict = {}
        for index, task in enumerate(tasks):
            families.setdefault((task.keys1, task.scoring), []).append(index)
        groups: List[AlignmentTaskGroup] = []
        order: List[List[int]] = []
        for (keys1, scoring), indices in families.items():
            groups.append(AlignmentTaskGroup(
                keys1=keys1,
                keys2_list=tuple(tasks[i].keys2 for i in indices),
                scoring=scoring))
            order.append(indices)
            if len(indices) > 1:
                self.offload_bytes_saved += ((len(indices) - 1)
                                             * sum(map(len, keys1)))
        policy = self.retry_policy
        attempts = max(1, policy.max_attempts)
        failure: Optional[_AttemptFailure] = None
        for attempt in range(1, attempts + 1):
            try:
                return self._run_tasks_once(tasks, groups, order)
            except _AttemptFailure as error:
                failure = error
                # a hung pool must always be torn down (killed) - even on
                # the last attempt a cooperative shutdown would block on
                # the sleeping worker.  A crashed pool is only discarded
                # when another attempt needs fresh workers; on final
                # failure it stays, shut down by the caller's close()
                # path, inspectably broken.
                if error.kind == "hang" or (error.kind == "crash"
                                            and attempt < attempts):
                    self._teardown_pool(kill=error.kind == "hang")
                if attempt < attempts:
                    self.offload_retries += 1
                    delay = policy.backoff_delay(attempt)
                    if delay > 0.0:
                        time.sleep(delay)
        # retry budget exhausted
        if policy.fallback_inprocess:
            self.offload_inprocess_fallbacks += 1
            self.degradations.append(degradation_event(
                "offload", "process-pool", "in-process", failure.site))
            start = time.perf_counter()
            results = [solve_alignment_task(task) for task in tasks]
            return results, time.perf_counter() - start
        if policy.resilient:
            raise ResilienceError(
                failure.site,
                f"offload retry budget exhausted after {attempts} "
                f"attempt(s) at {failure.site}: "
                f"{type(failure.cause).__name__}: {failure.cause}",
                task_index=failure.task_index) from failure.cause
        raise TaskFailure(failure.task_index, failure.cause)

    def _run_tasks_once(self, tasks: Sequence[AlignmentTask],
                        groups: List[AlignmentTaskGroup],
                        order: List[List[int]]
                        ) -> Tuple[List[TaskResult], float]:
        """One dispatch attempt; raises :class:`_AttemptFailure` on any
        worker crash, deadline overrun, or corrupt result shape."""
        pool = self._ensure_pool()
        chunk_size = max(1, -(-len(groups) // (self.jobs * self.CHUNKS_PER_JOB)))
        chunks = [groups[i:i + chunk_size]
                  for i in range(0, len(groups), chunk_size)]
        chunk_orders = [order[i:i + chunk_size]
                        for i in range(0, len(order), chunk_size)]
        futures = []
        for index, chunk in enumerate(chunks):
            # fault triggers are consulted on the dispatching side (one
            # deterministic stream) and shipped as an instruction
            inject = None
            if fault_triggered("offload.worker_crash"):
                inject = "crash"
            elif fault_triggered("offload.worker_hang"):
                inject = "hang"
            elif fault_triggered("offload.result_corrupt"):
                inject = "corrupt"
            try:
                futures.append(pool.submit(_solve_group_chunk, chunk, inject))
            except BaseException as error:  # pool already broken/shut down
                for pending in futures:
                    pending.cancel()
                raise _AttemptFailure("offload.worker_crash",
                                      chunk_orders[index][0][0], error,
                                      "crash")
        deadline = self.retry_policy.task_deadline
        started = time.monotonic()
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        worker_seconds = 0.0
        for index, future in enumerate(futures):
            first_index = chunk_orders[index][0][0]
            try:
                if deadline is None:
                    chunk_results, seconds = future.result()
                else:
                    remaining = deadline - (time.monotonic() - started)
                    if remaining <= 0.0:
                        raise FuturesTimeout(
                            f"offload deadline of {deadline:.3f}s exhausted")
                    chunk_results, seconds = future.result(timeout=remaining)
            except (FuturesTimeout, TimeoutError) as error:
                for pending in futures[index:]:
                    pending.cancel()
                self.offload_deadline_timeouts += 1
                raise _AttemptFailure("offload.worker_hang", first_index,
                                      error, "hang")
            except BaseException as error:  # BrokenProcessPool included
                # abort immediately: cancel queued chunks rather than
                # draining a batch's worth of DPs whose results the
                # (failing) scheduler will throw away anyway
                for pending in futures[index + 1:]:
                    pending.cancel()
                raise _AttemptFailure("offload.worker_crash", first_index,
                                      error, "crash")
            pos = 0
            for indices in chunk_orders[index]:
                for original in indices:
                    result = chunk_results[pos]
                    if not _valid_result_shape(tasks[original], result):
                        for pending in futures[index + 1:]:
                            pending.cancel()
                        raise _AttemptFailure(
                            "offload.result_corrupt", original,
                            ValueError("worker returned a malformed "
                                       "alignment shape"), "corrupt")
                    results[original] = result
                    pos += 1
            worker_seconds += seconds
        return results, worker_seconds

    def close(self) -> None:
        # the shut-down pool object stays inspectable (tests and stats
        # probe it); only a failed-attempt teardown discards it so the
        # next attempt rebuilds fresh workers
        if self._pool is not None:
            self._pool.shutdown()
        self.closed = True

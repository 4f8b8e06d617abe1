"""Sharded parallel execution of scenario batches.

:class:`~repro.simulation.compiled.ScenarioSuite` runs scenarios serially;
for the large generated batteries of :mod:`repro.scenarios.generators` the
batch itself becomes the bottleneck.  Scenario runs are embarrassingly
parallel -- the compiled schedule is immutable after compilation and every
run carries its own state -- so this module shards a batch across a
:mod:`concurrent.futures` pool:

* **process pool** (default): each task carries the pickled *model*
  (compiled step closures are deliberately never pickled -- they are
  nested functions and unpicklable by design), and scenarios stream to
  workers one by one (or in chunks) with results streaming back as they
  complete;
* **thread pool**: no pickling, so models with opaque Python callables
  work; each worker thread still compiles its own schedule so no mutable
  compile-time cache is shared across threads;
* **serial**: an inline executor that runs the whole batch as one task in
  the calling thread, under the caller's own telemetry session.

All three run one task function -- :func:`_worker_task`, given the
campaign's :class:`_TaskSpec` and one chunk of scenarios -- and one
dispatch loop in :func:`run_sharded`.

**Warm pools.**  Thread and process pools are shared: one per
``(executor, size)``, created at first use and kept until the
interpreter exits (``concurrent.futures`` joins their workers then), so
a campaign does not pay for starting and stopping a pool.  Each worker
keeps its last few compiled simulators (:data:`SIMULATOR_CACHE_SIZE`),
keyed by the model, ``check_types`` and ``backend``.  A process pool
keys the model by the digest of its pickle, so an unchanged model
compiles once per worker process however many campaigns run it, and a
model changed after a campaign compiles afresh; a thread pool keys it
per campaign, so its workers compile once per campaign.  A pool broken
by a crashed worker is dropped from the registry, so the next campaign
forks a fresh one.  A pool's workers keep the environment the process
had when the pool was first used (``REPRO_NATIVE_CACHE``, say); results
do not depend on it, because the shared-object cache is
content-addressed.

Per-scenario **error isolation**: a failing scenario (bad stimulus, type
violation, diverging model) yields a :class:`ScenarioResult` carrying the
error instead of poisoning the batch.  Traces are returned in scenario
order and are tick-for-tick identical to a serial
:meth:`~repro.simulation.compiled.ScenarioSuite.run_all` on the same batch
(the differential test in ``tests/test_scenario_runner.py`` enforces this).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import (BrokenExecutor, Executor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                as_completed)
from dataclasses import dataclass
from multiprocessing.util import Finalize
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..core.components import Component
from ..core.errors import SimulationError
from ..obs.context import Telemetry, maybe_span
from ..obs.context import active as _obs_active
from ..obs.context import session as _obs_session
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..simulation.compiled import CompiledSimulator
from ..simulation.trace import SimulationTrace
from .generators import Scenario

#: Result callback invoked as scenarios complete (streaming consumption).
ResultCallback = Callable[["ScenarioResult"], None]


@dataclass
class ScenarioResult:
    """Outcome of one scenario: a trace or an isolated error."""

    name: str
    trace: Optional[SimulationTrace] = None
    error: Optional[str] = None
    duration: float = 0.0
    worker: str = ""
    mode_paths: Optional[Dict[str, List[Any]]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# --------------------------------------------------------------------------
# scenario execution shared by every executor kind
# --------------------------------------------------------------------------

_ERROR_KIND = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _error_kind(error: Optional[str]) -> str:
    """The exception type name leading an isolated error string."""
    match = _ERROR_KIND.match(error or "")
    return match.group(0) if match else "Unknown"


def _record_scenario(registry: MetricsRegistry, result: ScenarioResult,
                     ticks: int) -> None:
    """Scenario counters: the executor-invariant telemetry projection.

    ``runner.scenario.*`` counters depend only on the batch (which
    scenarios ran, with what outcome) -- never on sharding, executor kind
    or chunking -- so serial, thread and process runs agree exactly
    (``MetricsRegistry.counter_values("runner.scenario.")``).  The duration
    histogram is timing and therefore outside that projection.  Failures
    are additionally counted by exception type
    (``runner.scenario.error.<ExcName>``), so failure roll-ups survive
    registry merges, not just :class:`~repro.scenarios.report.BatchReport`.
    """
    registry.counter("runner.scenario.total").inc()
    registry.counter(
        "runner.scenario.ok" if result.ok else "runner.scenario.failed").inc()
    if not result.ok:
        registry.counter(
            f"runner.scenario.error.{_error_kind(result.error)}").inc()
    registry.counter("runner.scenario.ticks").inc(ticks)
    registry.histogram("runner.scenario.duration_s").observe(result.duration)


def _emit_scenario_event(events: EventLog, result: ScenarioResult,
                         ticks: int, bundle: Optional[str] = None) -> None:
    """One ``scenario_finished`` / ``scenario_error`` event per result.

    Event data mirrors the counter projection: name, outcome and tick
    count are batch facts (executor-invariant); worker, duration and the
    post-mortem bundle path are volatile and scrubbed by
    :func:`~repro.obs.events.normalized_stream`.
    """
    if result.ok:
        events.emit("scenario_finished", name=result.name, ticks=ticks,
                    worker=result.worker, duration_s=result.duration)
        return
    data: Dict[str, Any] = {"name": result.name, "ticks": ticks,
                            "error": result.error,
                            "exc": _error_kind(result.error),
                            "worker": result.worker,
                            "duration_s": result.duration}
    if bundle is not None:
        data["bundle"] = bundle
    events.emit("scenario_error", **data)


def _dump_postmortem(telemetry: Telemetry, simulator: CompiledSimulator,
                     scenario: Scenario,
                     result: ScenarioResult) -> Optional[str]:
    """Write a flight-recorder post-mortem bundle for a failed scenario.

    Only fires when the session has flight recording on AND the failing
    simulator's flat program ran through a recording step (flat backend,
    or the wrapped flat program of a native schedule); the bundle path is
    collected on the session (``telemetry.bundles``) and returned for the
    scenario_error event.
    """
    if not telemetry.flight_recording:
        return None
    schedule = simulator.schedule
    recorder = telemetry.recorders.get(id(getattr(schedule, "flat",
                                                  schedule)))
    if recorder is None \
            or (recorder.failure is None and not recorder.snapshots):
        return None
    path = recorder.dump_bundle(
        telemetry.resolved_postmortem_dir(), scenario=scenario.name,
        error=result.error or "", stimuli=scenario.stimuli,
        span_path=telemetry.tracer.active_path(),
        registry=telemetry.registry)
    telemetry.bundles.append(path)
    return path


def execute_scenario(simulator: CompiledSimulator, scenario: Scenario,
                     collect_modes: bool = False,
                     worker: str = "local") -> ScenarioResult:
    """Run one scenario against a compiled simulator with error isolation.

    With *collect_modes* the result carries the run's mode histories: the
    active mode of every MTD and STD after each tick it was active (same
    paths and values as
    :func:`~repro.simulation.engine.active_mode_paths` on a nested state
    tree), which every compiled run records on its trace
    (``trace.mode_paths``, decoded from the run's readout columns, so
    collecting them costs the run nothing); a model without machines has
    empty histories.  Either way the scenario runs through
    :meth:`~repro.simulation.compiled.CompiledSimulator.run`, so a traced
    campaign opens one ``run`` span per scenario.

    The calling thread's telemetry session (:func:`repro.obs.active`), if
    any, receives the ``runner.scenario.*`` counters and the
    ``scenario_finished`` / ``scenario_error`` campaign event.  Sessions
    are per thread, so in a pool worker that is the task's worker-local
    session.
    """
    start = time.perf_counter()
    try:
        trace = simulator.run(scenario.stimuli, scenario.ticks)
        result = ScenarioResult(scenario.name, trace=trace,
                                duration=time.perf_counter() - start,
                                worker=worker, mode_paths=trace.mode_paths
                                if collect_modes else None)
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        error = f"{type(exc).__name__}: {exc}" if str(exc) else detail
        result = ScenarioResult(scenario.name, error=error,
                                duration=time.perf_counter() - start,
                                worker=worker)
    telemetry = _obs_active()
    if telemetry is not None:
        bundle = None if result.ok \
            else _dump_postmortem(telemetry, simulator, scenario, result)
        _record_scenario(telemetry.registry, result, scenario.ticks)
        if telemetry.events is not None:
            _emit_scenario_event(telemetry.events, result, scenario.ticks,
                                 bundle)
    return result


def execute_batch(simulator: CompiledSimulator, scenarios: Sequence[Scenario],
                  collect_modes: bool = False,
                  worker: str = "local") -> List[ScenarioResult]:
    """Run a list of scenarios against one compiled simulator.

    Each scenario runs through :func:`execute_scenario` -- with a native
    schedule (``backend="native"`` or its alias ``"batch"``) one C call
    per scenario -- so every executor runs every task through this one
    entry point with per-scenario results, telemetry and events.
    """
    return [execute_scenario(simulator, scenario, collect_modes, worker)
            for scenario in scenarios]


# --------------------------------------------------------------------------
# the worker protocol: one task function for every executor (module level:
# process pools pickle it by reference)
# --------------------------------------------------------------------------

class _ShardOutcome:
    """What an observed pool task returns: its results plus the
    worker-local telemetry to merge into the caller's session on receipt
    -- the metrics registry, the buffered campaign events (resequenced
    into the caller's :class:`~repro.obs.events.EventLog`), the span trees
    (adopted into the caller's tracer, tagged with the worker identity),
    the op profiles (merged by label) and any post-mortem bundle paths.

    Pool workers never see the caller's session -- sessions are per
    thread, and a process has its own -- so each observed task records
    into a fresh worker-local one, and the order-insensitive folds
    (:meth:`~MetricsRegistry.merge`, event resequencing +
    :func:`~repro.obs.events.normalized_stream`,
    :meth:`~repro.obs.profile.OpProfile.merge`) make the aggregates
    independent of sharding and completion order.
    """

    __slots__ = ("results", "worker", "registry", "events", "spans",
                 "profiles", "bundles")

    def __init__(self, results: List[ScenarioResult], worker: str,
                 telemetry: Telemetry):
        self.results = results
        self.worker = worker
        self.registry = telemetry.registry
        self.events = telemetry.events.events \
            if telemetry.events is not None else []
        self.spans = telemetry.tracer.roots
        self.profiles = list(telemetry.profiles.values())
        self.bundles = telemetry.bundles


class _TaskSpec(NamedTuple):
    """The campaign settings every task carries.

    *model* is the pickled component for a process pool and the component
    itself otherwise, so threads keep serving unpicklable models.  *key*
    names the model in the worker's simulator cache: the digest of the
    pickle for a process pool, a fresh object per campaign for a thread
    pool, and ``None`` (no cache: compile per task) for a serial run.
    *config* holds the settings of the caller's telemetry session for an
    observed pool, and is ``None`` for an unobserved pool and for serial
    runs: tasks then run under the worker thread's own session, which is
    none in a pool worker and the caller's in a serial run.
    """

    executor: str
    key: Any
    model: Any
    check_types: bool
    collect_modes: bool
    backend: str
    config: Optional[Dict[str, Any]]


#: Compiled simulators each worker keeps, least recently used dropped
#: first.
SIMULATOR_CACHE_SIZE = 4

#: The calling thread's simulator cache: a pool thread's or a pool
#: process's.
_WORKER = threading.local()


def _simulator(spec: _TaskSpec) -> CompiledSimulator:
    """This worker's simulator for *spec*: cached, or compiled here, in
    the task's session, so ``compile.simulators`` counts it where it
    happens."""
    cache: Optional[OrderedDict] = None
    if spec.key is not None:
        cache = getattr(_WORKER, "cache", None)
        if cache is None:
            cache = _WORKER.cache = OrderedDict()
        key = (spec.key, spec.check_types, spec.backend)
        simulator = cache.get(key)
        if simulator is not None:
            cache.move_to_end(key)
            return simulator
    model = pickle.loads(spec.model) if spec.executor == "process" \
        else spec.model
    simulator = CompiledSimulator(model, check_types=spec.check_types,
                                  backend=spec.backend)
    if cache is not None:
        cache[key] = simulator
        if len(cache) > SIMULATOR_CACHE_SIZE:
            cache.popitem(last=False)
    return simulator


def _worker_name(executor: str) -> str:
    if executor == "process":
        return f"pid-{os.getpid()}"
    if executor == "thread":
        return threading.current_thread().name
    return "local"


def _worker_task(spec: _TaskSpec, chunk: List[Scenario]) -> Any:
    """Run one task -- a list of scenarios -- on this worker's simulator.

    Without a *config* (see :class:`_TaskSpec`) the task returns its
    results.  Otherwise it runs inside a worker-local telemetry session
    built from the caller's settings, so every instrumentation site fires
    -- a compile on a cache miss, the ``run`` spans and the native loop's
    ``native.*`` counters included -- into one registry, tracer and event
    log, shipped back in a :class:`_ShardOutcome`.  The task is wrapped in
    a ``runner.worker_task`` span carrying the worker identity, which
    :meth:`~repro.obs.tracing.Tracer.to_chrome_trace` maps to a distinct
    Perfetto track per worker.
    """
    worker = _worker_name(spec.executor)
    config = spec.config
    if config is None:
        return execute_batch(_simulator(spec), chunk, spec.collect_modes,
                             worker)
    with _obs_session(**dict(config, events=EventLog() if config["events"]
                             else None)) as telemetry:
        with telemetry.tracer.span("runner.worker_task", worker=worker):
            results = execute_batch(_simulator(spec), chunk,
                                    spec.collect_modes, worker)
    return _ShardOutcome(results, worker, telemetry)


class _InlineExecutor(Executor):
    """The serial executor: runs each task at its submit, in the calling
    thread."""

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - isolated like a pool's
            future.set_exception(exc)
        return future


def _adopt(parent: Optional[Telemetry], outcome: Any) -> List[ScenarioResult]:
    """Merge what one task shipped into the caller's session *parent*
    (set whenever an outcome arrives: only observed pools ship one);
    returns the task's results."""
    if not isinstance(outcome, _ShardOutcome):
        return outcome
    parent.registry.merge(outcome.registry)
    if parent.events is not None:
        parent.events.adopt_all(outcome.events, worker=outcome.worker)
    for span in outcome.spans:
        span.attributes.setdefault("worker", outcome.worker)
        parent.tracer.adopt(span)
    named = parent.named_profiles()
    for profile in outcome.profiles:
        if profile.label in named:
            named[profile.label].merge(profile)
        else:
            parent.profiles[profile.label] = named[profile.label] = profile
    parent.bundles.extend(outcome.bundles)
    return outcome.results


# --------------------------------------------------------------------------
# the sharded runner
# --------------------------------------------------------------------------

_EXECUTORS = ("process", "thread", "serial")


def _validate_batch(scenarios: Sequence[Scenario]) -> List[Scenario]:
    batch = list(scenarios)
    seen = set()
    for scenario in batch:
        if not isinstance(scenario, Scenario):
            raise SimulationError(
                f"expected a Scenario, got {type(scenario).__name__}; build "
                "batches from repro.scenarios.Scenario records")
        if scenario.name in seen:
            raise SimulationError(
                f"scenario batch has a duplicate scenario {scenario.name!r}")
        seen.add(scenario.name)
    return batch


def _pickle_model(component: Component) -> bytes:
    try:
        return pickle.dumps(component)
    except Exception as exc:  # noqa: BLE001 - report the real cause
        raise SimulationError(
            f"model {component.name!r} cannot be shipped to worker processes "
            f"({type(exc).__name__}: {exc}); models with opaque Python "
            "callables are process-shard-incompatible -- use "
            "executor='thread' or executor='serial' instead") from exc


#: The warm pools, one per ``(executor, size)``.
_POOLS: Dict[Tuple[str, int], Executor] = {}
_POOLS_LOCK = threading.Lock()
_INLINE = _InlineExecutor()


def _shared_pool(executor: str, size: int) -> Executor:
    """The pool for ``(executor, size)``, created at first use and never
    shut down: ``concurrent.futures`` joins its workers when the
    interpreter exits.  A serial run gets the inline executor."""
    if executor == "serial":
        return _INLINE
    with _POOLS_LOCK:
        pool = _POOLS.get((executor, size))
        if pool is None:
            if executor == "process":
                pool = ProcessPoolExecutor(max_workers=size)
                # a multiprocessing child joins its children on the way
                # out, before the concurrent.futures exit hook would stop
                # this pool's workers: stop them first, and before the
                # call queue's own finalizer (priority 10) closes it
                Finalize(pool, pool.shutdown, exitpriority=20)
            else:
                pool = ThreadPoolExecutor(max_workers=size)
            _POOLS[executor, size] = pool
        return pool


def _discard_pool(executor: str, size: int, pool: Executor) -> None:
    """Drop a broken *pool*, so the next campaign starts a fresh one."""
    with _POOLS_LOCK:
        if _POOLS.get((executor, size)) is pool:
            del _POOLS[executor, size]
    pool.shutdown(wait=False)


def _submit(executor: str, size: int, spec: _TaskSpec,
            task: List[Scenario]) -> Tuple[Future, Executor]:
    """Submit one task to the shared pool; returns its future and the pool
    that runs it.  A pool that broke while idle is replaced first."""
    pool = _shared_pool(executor, size)
    try:
        return pool.submit(_worker_task, spec, task), pool
    except BrokenExecutor:
        _discard_pool(executor, size, pool)
        pool = _shared_pool(executor, size)
        return pool.submit(_worker_task, spec, task), pool


def _forget_pools() -> None:
    """A forked child owns none of its parent's pools."""
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def run_sharded(component: Component, scenarios: Sequence[Scenario], *,
                max_workers: Optional[int] = None, executor: str = "process",
                check_types: bool = False, collect_modes: bool = False,
                chunk_size: Optional[int] = None,
                on_result: Optional[ResultCallback] = None,
                backend: str = "auto") -> List[ScenarioResult]:
    """Run a scenario batch sharded across a worker pool.

    Results are returned in scenario order regardless of completion order;
    ``on_result`` observes them in completion order for streaming
    consumption.  Each pool task is a list of scenarios: one scenario per
    task by default, or ``chunk_size`` contiguous scenarios to amortize
    inter-process transfer for very large batches of cheap scenarios.

    Pools are warm (module docstring): the campaign runs on the shared
    pool of ``max_workers`` workers (default: one per CPU), created by
    the first campaign that asks for that executor and size and kept
    until the interpreter exits; spans and events report
    ``min(max_workers, len(batch))`` workers.  Every task carries the
    model, and a worker compiles it only when its simulator cache misses:
    a process worker once per model, ``check_types`` and ``backend``
    across campaigns, a thread worker once per campaign, a serial run
    once per call.  A compile failure is isolated like any failing task.

    *backend* selects the worker simulators' schedule backend (forwarded
    to :class:`~repro.simulation.compiled.CompiledSimulator`).  With
    ``backend="native"`` every worker drives the compiled C tick loop,
    one C call per scenario; the content-addressed shared-object cache
    makes a worker's compile a cache hit, and compiler-less hosts
    degrade to ``"flat"``.  ``backend="batch"`` is an alias of
    ``"native"``: it compiles and dispatches exactly the same way.
    With the default ``backend="auto"`` every simulator -- the serial
    one, each thread's, each worker's -- is tiered: it starts on the
    flat program and may switch to the native C loop between two of its
    scenarios (:class:`~repro.simulation.compiled.CompiledSimulator`),
    with identical results.  A process pool forks only once no
    promotion of this process is in flight.

    Under the caller's telemetry session (:func:`repro.obs.session`) a
    serial run records straight into it.  Pool workers, threads and
    processes alike, record each task into a worker-local session with
    the caller's settings (events, ``profile_ops``, flight recording) and
    ship it back; the caller's session then holds one
    ``runner.run_sharded`` root with one ``runner.worker_task`` span per
    task, the merged counters and events, and one op profile per program
    label, under every executor.
    """
    if executor not in _EXECUTORS:
        raise SimulationError(
            f"unknown executor {executor!r} (choose from {_EXECUTORS})")
    batch = _validate_batch(scenarios)
    if not batch:
        return []
    if not component.has_behavior():
        raise SimulationError(
            f"component {component.name!r} has no executable behaviour and "
            "cannot be simulated (FAA components may be structure-only)")
    if chunk_size is not None and chunk_size < 1:
        raise SimulationError("chunk_size must be >= 1")
    if max_workers is not None and max_workers < 1:
        raise SimulationError("max_workers must be >= 1")

    parent = _obs_active()
    events = parent.events if parent is not None else None
    if events is not None:
        events.emit("campaign_started", component=component.name,
                    scenarios=len(batch), executor=executor,
                    backend=backend, collect_modes=collect_modes)

    config: Optional[Dict[str, Any]] = None
    if parent is not None and executor != "serial":
        config = {"events": parent.events is not None,
                  "profile_ops": parent.profile_ops,
                  "flight_recording": parent.flight_recording,
                  "ring_ticks": parent.ring_ticks,
                  "postmortem_dir": parent.postmortem_dir}
    size = 1 if executor == "serial" else max_workers or os.cpu_count() or 1
    workers = min(size, len(batch))
    if executor == "process":
        model: Any = _pickle_model(component)
        key: Any = hashlib.blake2b(model, digest_size=16).digest()
    else:
        model, key = component, None if executor == "serial" else object()
    spec = _TaskSpec(executor, key, model, check_types, collect_modes,
                     backend, config)
    chunk = len(batch) if executor == "serial" else chunk_size or 1
    tasks = [batch[index:index + chunk]
             for index in range(0, len(batch), chunk)]

    by_name: Dict[str, ScenarioResult] = {}
    futures: Dict[Future, Tuple[List[Scenario], Executor]] = {}
    with maybe_span("runner.run_sharded", scenarios=len(batch),
                    executor=executor, backend=backend, workers=workers):
        try:
            for shard_index, task in enumerate(tasks):
                if events is not None:
                    events.emit("shard_dispatched", shard=shard_index,
                                scenarios=len(task), executor=executor)
                future, pool = _submit(executor, size, spec, task)
                futures[future] = (task, pool)
            for future in as_completed(futures):
                error = future.exception()
                if error is None:
                    completed = _adopt(parent, future.result())
                else:
                    # the task itself failed (e.g. unpicklable stimuli,
                    # broken pool): isolate it to the scenarios of this task
                    task, pool = futures[future]
                    if isinstance(error, BrokenExecutor):
                        _discard_pool(executor, size, pool)
                    completed = [
                        ScenarioResult(scenario.name,
                                       error=f"{type(error).__name__}: "
                                             f"{error}")
                        for scenario in task]
                    if events is not None:
                        for result in completed:
                            _emit_scenario_event(events, result, 0)
                for result in completed:
                    by_name[result.name] = result
                    if on_result is not None:
                        on_result(result)
        except BaseException:
            # leave no task of this campaign queued on the shared pool
            for future in futures:
                future.cancel()
            raise
    if events is not None:
        ok = sum(1 for result in by_name.values() if result.ok)
        events.emit("campaign_finished", scenarios=len(by_name),
                    ok=ok, failed=len(by_name) - ok, executor=executor)
    return [by_name[scenario.name] for scenario in batch]

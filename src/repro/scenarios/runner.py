"""Sharded parallel execution of scenario batches.

:class:`~repro.simulation.compiled.ScenarioSuite` runs scenarios serially;
for the large generated batteries of :mod:`repro.scenarios.generators` the
batch itself becomes the bottleneck.  Scenario runs are embarrassingly
parallel -- the compiled schedule is immutable after compilation and every
run carries its own state -- so this module shards a batch across a
:mod:`concurrent.futures` pool:

* **process pool** (default): the *model* is pickled once into every worker
  (compiled step closures are deliberately never pickled -- they are nested
  functions and unpicklable by design), each worker compiles the schedule
  exactly once in its initializer, and scenarios stream to workers one by
  one (or in chunks) with results streaming back as they complete;
* **thread pool**: no pickling, so models with opaque Python callables
  work; each worker thread still compiles its own schedule so no mutable
  compile-time cache is shared across threads;
* **serial**: an inline executor that runs the whole batch as one task in
  the calling thread, under the caller's own telemetry session.

All three run one worker protocol -- :func:`_worker_initializer` compiles
a worker's simulator once, :func:`_worker_task` runs one task -- and one
dispatch loop in :func:`run_sharded`.

Per-scenario **error isolation**: a failing scenario (bad stimulus, type
violation, diverging model) yields a :class:`ScenarioResult` carrying the
error instead of poisoning the batch.  Traces are returned in scenario
order and are tick-for-tick identical to a serial
:meth:`~repro.simulation.compiled.ScenarioSuite.run_all` on the same batch
(the differential test in ``tests/test_scenario_runner.py`` enforces this).
"""

from __future__ import annotations

import os
import pickle
import re
import threading
import time
import traceback
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, as_completed)
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
# the worker protocol: one initializer and one task function for every
# executor (module level: process pools pickle them by reference)
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


#: The calling thread's worker state, set by :func:`_worker_initializer`:
#: a pool thread's, a pool process's, or the serial caller's.
_WORKER = threading.local()


def _worker_initializer(executor: str, model: Any, check_types: bool,
                        collect_modes: bool, backend: str,
                        config: Optional[Dict[str, Any]]) -> None:
    """Compile this worker's simulator, once per worker.

    *model* is the pickled component for a process pool and the component
    itself otherwise, so threads keep serving unpicklable models.
    *config* holds the settings of the caller's telemetry session for an
    observed pool, and is ``None`` for an unobserved pool and for serial
    runs: tasks then run under the worker thread's own session, which is
    none in a pool worker and the caller's in a serial run.  An observed
    pool worker compiles into a worker-local registry, shipped with its
    first task.
    """
    if executor == "process":
        model = pickle.loads(model)
        _WORKER.name = f"pid-{os.getpid()}"
    elif executor == "thread":
        _WORKER.name = threading.current_thread().name
    else:
        _WORKER.name = "local"
    _WORKER.collect_modes = collect_modes
    _WORKER.config = config
    with _obs_session() if config is not None else nullcontext() as setup:
        _WORKER.simulator = CompiledSimulator(model, check_types=check_types,
                                              backend=backend)
    _WORKER.setup = setup.registry if setup is not None else None


def _worker_task(chunk: List[Scenario]) -> Any:
    """Run one task -- a list of scenarios -- on this worker's simulator.

    Without a *config* (see :func:`_worker_initializer`) the task returns
    its results.  Otherwise it runs inside a worker-local telemetry
    session built from the caller's settings, so every instrumentation
    site fires -- the ``run`` spans and the native loop's ``native.*``
    counters included -- into one registry, tracer and event log, shipped
    back in a :class:`_ShardOutcome`.  The task is wrapped in a
    ``runner.worker_task`` span carrying the worker identity, which
    :meth:`~repro.obs.tracing.Tracer.to_chrome_trace` maps to a distinct
    Perfetto track per worker.
    """
    simulator, worker = _WORKER.simulator, _WORKER.name
    config = _WORKER.config
    if config is None:
        return execute_batch(simulator, chunk, _WORKER.collect_modes, worker)
    with _obs_session(**dict(config, events=EventLog() if config["events"]
                             else None)) as telemetry:
        if _WORKER.setup is not None:
            telemetry.registry.merge(_WORKER.setup)
            _WORKER.setup = None
        with telemetry.tracer.span("runner.worker_task", worker=worker):
            results = execute_batch(simulator, chunk, _WORKER.collect_modes,
                                    worker)
    return _ShardOutcome(results, worker, telemetry)


class _InlineExecutor(Executor):
    """The serial executor: runs the initializer at the first submit and
    each task at its submit, in the calling thread, and restores that
    thread's worker state at shutdown."""

    def __init__(self, initializer: Callable[..., None],
                 initargs: Tuple[Any, ...]):
        self._start: Optional[Tuple[Any, Any]] = (initializer, initargs)
        self._saved = dict(vars(_WORKER))

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> Future:
        if self._start is not None:
            (initializer, initargs), self._start = self._start, None
            initializer(*initargs)
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - isolated like a pool's
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        vars(_WORKER).clear()
        vars(_WORKER).update(self._saved)


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
    *max_workers* defaults to one worker per CPU, capped at the batch
    size.

    *backend* selects the worker simulators' schedule backend (forwarded
    to :class:`~repro.simulation.compiled.CompiledSimulator`).  With
    ``backend="native"`` every worker drives the compiled C tick loop,
    one C call per scenario; the content-addressed shared-object cache
    makes the per-worker recompile a cache hit, and compiler-less hosts
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
    model = _pickle_model(component) if executor == "process" else component
    initargs = (executor, model, check_types, collect_modes, backend, config)
    pool: Executor
    if executor == "serial":
        workers = 1
        pool = _InlineExecutor(_worker_initializer, initargs)
        tasks = [batch]
    else:
        workers = min(max_workers or os.cpu_count() or 1, len(batch))
        pool_class = ProcessPoolExecutor if executor == "process" \
            else ThreadPoolExecutor
        pool = pool_class(max_workers=workers,
                          initializer=_worker_initializer, initargs=initargs)
        size = chunk_size or 1
        tasks = [batch[index:index + size]
                 for index in range(0, len(batch), size)]

    by_name: Dict[str, ScenarioResult] = {}
    with pool, maybe_span("runner.run_sharded", scenarios=len(batch),
                          executor=executor, backend=backend,
                          workers=workers):
        futures: Dict[Any, List[Scenario]] = {}
        for shard_index, task in enumerate(tasks):
            if events is not None:
                events.emit("shard_dispatched", shard=shard_index,
                            scenarios=len(task), executor=executor)
            futures[pool.submit(_worker_task, task)] = task
        for future in as_completed(futures):
            error = future.exception()
            if error is None:
                completed = _adopt(parent, future.result())
            else:
                # the task itself failed (e.g. unpicklable stimuli, broken
                # pool): isolate it to the scenarios of this task
                completed = [
                    ScenarioResult(scenario.name,
                                   error=f"{type(error).__name__}: {error}")
                    for scenario in futures[future]]
                if events is not None:
                    for result in completed:
                        _emit_scenario_event(events, result, 0)
            for result in completed:
                by_name[result.name] = result
                if on_result is not None:
                    on_result(result)
    if events is not None:
        ok = sum(1 for result in by_name.values() if result.ok)
        events.emit("campaign_finished", scenarios=len(by_name),
                    ok=ok, failed=len(by_name) - ok, executor=executor)
    return [by_name[scenario.name] for scenario in batch]

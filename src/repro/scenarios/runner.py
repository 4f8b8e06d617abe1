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
* **thread pool**: no pickling; each worker thread still compiles its own
  schedule so no mutable compile-time cache is shared across threads;
* **serial**: the in-process fallback with the identical result protocol.

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
from concurrent.futures import (Executor, ProcessPoolExecutor,
                                ThreadPoolExecutor, as_completed)
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence)

from ..core.components import Component
from ..core.errors import SimulationError
from ..obs.context import active as _obs_active
from ..obs.context import current_events, current_registry, maybe_span
from ..obs.context import session as _obs_session
from ..obs.events import CampaignEvent, EventLog
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


def shard_scenarios(scenarios: Sequence[Scenario],
                    shards: int) -> List[List[Scenario]]:
    """Partition a batch into *shards* contiguous, near-equal shards.

    Shards are contiguous index ranges, so neighbouring grid points (which
    tend to have similar cost) land in the same shard; every scenario
    appears in exactly one shard and empty shards are dropped.
    """
    if shards < 1:
        raise SimulationError("shard count must be >= 1")
    total = len(scenarios)
    shards = min(shards, total) if total else 0
    partition: List[List[Scenario]] = []
    start = 0
    for index in range(shards):
        size = total // shards + (1 if index < total % shards else 0)
        partition.append(list(scenarios[start:start + size]))
        start += size
    return partition


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


def _dump_postmortem(simulator: CompiledSimulator, scenario: Scenario,
                     result: ScenarioResult) -> Optional[str]:
    """Write a flight-recorder post-mortem bundle for a failed scenario.

    Only fires when the active telemetry session has flight recording on
    AND the failing simulator's flat program ran through a recording step
    (flat backend, or the wrapped flat program of a native schedule); the
    bundle path is collected on the session (``telemetry.bundles``) and
    returned for the scenario_error event.
    """
    telemetry = _obs_active()
    if telemetry is None or not telemetry.flight_recording:
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
                     worker: str = "local",
                     registry: Optional[MetricsRegistry] = None,
                     events: Optional[EventLog] = None) -> ScenarioResult:
    """Run one scenario against a compiled simulator with error isolation.

    With *collect_modes* the active mode of every MTD and STD is recorded
    after each tick through the schedule's ``mode_paths`` (same paths and
    values as :func:`~repro.simulation.engine.active_mode_paths` on a
    nested state tree).  Flat and native schedules read only the leaves of
    their compiled
    :attr:`~repro.simulation.schedule_ir.FlatSchedule.mode_plan`; when a
    schedule reports no ``needs_mode_observation`` (a model without
    machines) the scenario runs exactly like an unobserved one, with empty
    histories.  Nested schedules walk the whole state tree.  Either way
    the scenario runs through
    :meth:`~repro.simulation.compiled.CompiledSimulator.run`, so a traced
    campaign opens one ``run`` span per scenario.

    *registry* receives ``runner.scenario.*`` telemetry and *events* the
    ``scenario_finished`` / ``scenario_error`` campaign events; when
    ``None`` the ambient ones (:func:`repro.obs.current_registry` /
    :func:`repro.obs.current_events`) are consulted once -- worker pools
    pass explicit worker-local instances instead, because the ambient
    ones are not shared safely across threads.
    """
    if registry is None:
        registry = current_registry()
    if events is None:
        events = current_events()
    start = time.perf_counter()
    try:
        schedule = simulator.schedule
        if collect_modes and schedule.needs_mode_observation:
            extract_modes = schedule.mode_paths
            histories: Dict[str, List[Any]] = {}

            def observe(state: Any) -> None:
                for path, mode in extract_modes(state).items():
                    histories.setdefault(path, []).append(mode)

            trace = simulator.run(scenario.stimuli, scenario.ticks,
                                  observe=observe)
            mode_paths: Optional[Dict[str, List[Any]]] = histories
        else:
            trace = simulator.run(scenario.stimuli, scenario.ticks)
            mode_paths = {} if collect_modes else None
        result = ScenarioResult(scenario.name, trace=trace,
                                duration=time.perf_counter() - start,
                                worker=worker, mode_paths=mode_paths)
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        error = f"{type(exc).__name__}: {exc}" if str(exc) else detail
        result = ScenarioResult(scenario.name, error=error,
                                duration=time.perf_counter() - start,
                                worker=worker)
    bundle = None if result.ok \
        else _dump_postmortem(simulator, scenario, result)
    if registry is not None:
        _record_scenario(registry, result, scenario.ticks)
    if events is not None:
        _emit_scenario_event(events, result, scenario.ticks, bundle)
    return result


def execute_batch(simulator: CompiledSimulator, scenarios: Sequence[Scenario],
                  collect_modes: bool = False,
                  worker: str = "local",
                  registry: Optional[MetricsRegistry] = None,
                  events: Optional[EventLog] = None
                  ) -> List[ScenarioResult]:
    """Run a whole shard of scenarios against one compiled simulator.

    Each scenario runs through :func:`execute_scenario` -- with a native
    schedule (``backend="native"`` or ``"batch"``) one C call per
    scenario -- so every executor dispatches chunks through this one
    entry point with per-scenario results, telemetry and events.
    """
    if registry is None:
        registry = current_registry()
    if events is None:
        events = current_events()
    return [execute_scenario(simulator, scenario, collect_modes, worker,
                             registry=registry, events=events)
            for scenario in scenarios]


# --------------------------------------------------------------------------
# process-pool workers (module level: must be picklable by reference)
# --------------------------------------------------------------------------

class _ShardOutcome:
    """Worker return envelope when telemetry is on: results plus the
    worker-local telemetry to merge into the parent on receipt -- the
    metrics registry, the buffered campaign events (resequenced into the
    parent's :class:`~repro.obs.events.EventLog`), the worker's span trees
    (adopted into the parent tracer, tagged with the worker identity) and
    any post-mortem bundle paths the worker dumped.

    Workers never talk to the parent's (ambient) telemetry directly --
    process workers can't see it, thread workers could but would race on
    it -- so each task builds fresh worker-local instruments, and the
    order-insensitive folds (:meth:`~MetricsRegistry.merge`, event
    resequencing + :func:`~repro.obs.events.normalized_stream`) make the
    aggregates independent of sharding and completion order.
    """

    __slots__ = ("results", "registry", "events", "spans", "worker",
                 "bundles")

    def __init__(self, results: List[ScenarioResult],
                 registry: MetricsRegistry,
                 events: Sequence[CampaignEvent] = (),
                 spans: Sequence[Any] = (), worker: str = "",
                 bundles: Sequence[str] = ()):
        self.results = results
        self.registry = registry
        self.events = list(events)
        self.spans = list(spans)
        self.worker = worker
        self.bundles = list(bundles)


_PROCESS_WORKER: Dict[str, Any] = {}


def _process_initializer(payload: bytes, check_types: bool,
                         collect_modes: bool,
                         backend: str = "auto",
                         observe: bool = False,
                         obs_config: Optional[Dict[str, Any]] = None) -> None:
    component = pickle.loads(payload)
    if observe:
        # the compile records into a worker-local registry, shipped back
        # with the worker's first task
        with _obs_session() as setup:
            simulator = CompiledSimulator(component, check_types=check_types,
                                          backend=backend)
        _PROCESS_WORKER["setup_registry"] = setup.registry
    else:
        simulator = CompiledSimulator(component, check_types=check_types,
                                      backend=backend)
    _PROCESS_WORKER["simulator"] = simulator
    _PROCESS_WORKER["collect_modes"] = collect_modes
    _PROCESS_WORKER["observe"] = observe
    _PROCESS_WORKER["obs_config"] = obs_config or {}


def _observed_process_task(run: Callable[..., Any],
                           argument: Any) -> _ShardOutcome:
    """Run one observed task inside a worker-local telemetry session.

    The session makes the worker's AMBIENT telemetry the worker-local one
    for the duration of the task, so every instrumentation site fires --
    including the native loop's ``native.*`` counters and the ``run``
    spans, which an explicit registry alone would miss -- and everything
    lands in the one registry/tracer/event-log shipped back in the
    envelope.  The task is wrapped in a ``runner.worker_task`` span
    carrying the worker identity, which
    :meth:`~repro.obs.tracing.Tracer.to_chrome_trace` maps to a distinct
    Perfetto track per worker.
    """
    worker = f"pid-{os.getpid()}"
    config = _PROCESS_WORKER["obs_config"]
    log = EventLog() if config.get("events") else None
    with _obs_session(events=log,
                      flight_recording=config.get("flight_recording", False),
                      ring_ticks=config.get("ring_ticks", 16),
                      postmortem_dir=config.get("postmortem_dir")
                      ) as telemetry:
        setup = _PROCESS_WORKER.pop("setup_registry", None)
        if setup is not None:
            telemetry.registry.merge(setup)
        with telemetry.tracer.span("runner.worker_task", worker=worker):
            out = run(_PROCESS_WORKER["simulator"], argument,
                      _PROCESS_WORKER["collect_modes"], worker=worker,
                      registry=telemetry.registry, events=log)
    results = out if isinstance(out, list) else [out]
    return _ShardOutcome(results, telemetry.registry,
                         events=log.events if log is not None else (),
                         spans=telemetry.tracer.roots, worker=worker,
                         bundles=telemetry.bundles)


def _process_run_one(scenario: Scenario) -> Any:
    if not _PROCESS_WORKER.get("observe"):
        return execute_scenario(_PROCESS_WORKER["simulator"], scenario,
                                _PROCESS_WORKER["collect_modes"],
                                worker=f"pid-{os.getpid()}")
    return _observed_process_task(execute_scenario, scenario)


def _process_run_chunk(chunk: List[Scenario]) -> Any:
    if not _PROCESS_WORKER.get("observe"):
        return execute_batch(_PROCESS_WORKER["simulator"], chunk,
                             _PROCESS_WORKER["collect_modes"],
                             worker=f"pid-{os.getpid()}")
    return _observed_process_task(execute_batch, chunk)


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
    consumption.  ``chunk_size`` groups scenarios per task to amortize
    inter-process transfer for very large batches of cheap scenarios.

    *backend* selects the worker simulators' schedule backend (forwarded
    to :class:`~repro.simulation.compiled.CompiledSimulator`).  With
    ``backend="native"`` or ``"batch"`` every worker drives the compiled
    C tick loop, one C call per scenario; the content-addressed
    shared-object cache makes the per-worker recompile a cache hit, and
    compiler-less hosts degrade to ``"flat"``.  ``backend="batch"``
    additionally dispatches one :func:`shard_scenarios` shard per pool
    worker by default instead of one task per scenario (``chunk_size``
    still overrides the grouping) -- traces, error strings and result
    order stay byte-identical to the per-scenario path.
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

    parent_telemetry = _obs_active()
    parent_registry = current_registry()
    parent_events = current_events()
    observe = parent_registry is not None
    obs_config: Optional[Dict[str, Any]] = None
    if parent_telemetry is not None:
        obs_config = {
            "events": parent_telemetry.events is not None,
            "flight_recording": parent_telemetry.flight_recording,
            "ring_ticks": parent_telemetry.ring_ticks,
            "postmortem_dir": parent_telemetry.postmortem_dir,
        }
    if parent_events is not None:
        parent_events.emit("campaign_started", component=component.name,
                           scenarios=len(batch), executor=executor,
                           backend=backend, collect_modes=collect_modes)

    if executor == "serial":
        with maybe_span("runner.run_sharded", scenarios=len(batch),
                        executor=executor, backend=backend):
            if parent_events is not None:
                parent_events.emit("shard_dispatched", shard=0,
                                   scenarios=len(batch), executor=executor)
            simulator = CompiledSimulator(component, check_types=check_types,
                                          backend=backend)
            results = execute_batch(simulator, batch, collect_modes,
                                    registry=parent_registry,
                                    events=parent_events)
        if parent_events is not None:
            ok = sum(1 for result in results if result.ok)
            parent_events.emit("campaign_finished", scenarios=len(results),
                               ok=ok, failed=len(results) - ok,
                               executor=executor)
        if on_result is not None:
            for result in results:
                on_result(result)
        return results

    workers = max_workers or min(len(batch), os.cpu_count() or 1)
    workers = max(1, min(workers, len(batch)))
    batched = backend == "batch"

    if executor == "process":
        payload = _pickle_model(component)
        pool: Executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_process_initializer,
            initargs=(payload, check_types, collect_modes, backend, observe,
                      obs_config))
        run_one: Callable[[Scenario], Any] = _process_run_one
        run_chunk: Callable[[List[Scenario]], Any] = _process_run_chunk
    else:  # thread pool: per-thread compilation, no pickling
        local = threading.local()
        compile_lock = threading.Lock()

        def _thread_initializer() -> None:
            # the compile records into the caller's ambient telemetry,
            # which is not synchronized: one thread compiles at a time
            with compile_lock:
                local.simulator = CompiledSimulator(component,
                                                    check_types=check_types,
                                                    backend=backend)

        # thread workers mirror the process protocol: fresh per-task
        # registry and event buffer rather than the shared ambient ones,
        # which are not synchronized and would race under concurrent
        # appends/increments
        buffer_events = parent_events is not None

        def run_one(scenario: Scenario) -> Any:
            worker = threading.current_thread().name
            if not observe:
                return execute_scenario(
                    local.simulator, scenario, collect_modes, worker=worker)
            registry = MetricsRegistry()
            log = EventLog() if buffer_events else None
            result = execute_scenario(
                local.simulator, scenario, collect_modes,
                worker=worker, registry=registry, events=log)
            return _ShardOutcome([result], registry,
                                 events=log.events if log is not None
                                 else (), worker=worker)

        def run_chunk(chunk: List[Scenario]) -> Any:
            worker = threading.current_thread().name
            if not observe:
                return execute_batch(
                    local.simulator, chunk, collect_modes, worker=worker)
            registry = MetricsRegistry()
            log = EventLog() if buffer_events else None
            results = execute_batch(
                local.simulator, chunk, collect_modes,
                worker=worker, registry=registry, events=log)
            return _ShardOutcome(results, registry,
                                 events=log.events if log is not None
                                 else (), worker=worker)

        pool = ThreadPoolExecutor(max_workers=workers,
                                  initializer=_thread_initializer)

    by_name: Dict[str, ScenarioResult] = {}
    with pool, maybe_span("runner.run_sharded", scenarios=len(batch),
                          executor=executor, backend=backend,
                          workers=workers):
        if chunk_size is None and batched:
            # whole shards as single tasks: one contiguous near-equal
            # shard per worker (shard_scenarios drops empty shards, so
            # workers > len(batch) degenerates to singleton shards)
            tasks = shard_scenarios(batch, workers)
            chunked = True
        elif chunk_size is None:
            tasks = [[scenario] for scenario in batch]
            chunked = False
        else:
            tasks = [batch[index:index + chunk_size]
                     for index in range(0, len(batch), chunk_size)]
            chunked = True
        futures: Dict[Any, List[Scenario]] = {}
        for shard_index, task in enumerate(tasks):
            if parent_events is not None:
                parent_events.emit("shard_dispatched", shard=shard_index,
                                   scenarios=len(task), executor=executor)
            future = pool.submit(run_chunk, task) if chunked \
                else pool.submit(run_one, task[0])
            futures[future] = task
        for future in as_completed(futures):
            submitted = futures[future]
            error = future.exception()
            if error is not None:
                # the task itself failed (e.g. unpicklable stimuli, broken
                # pool): isolate it to the scenarios of this task
                completed: Iterable[ScenarioResult] = [
                    ScenarioResult(scenario.name,
                                   error=f"{type(error).__name__}: {error}")
                    for scenario in submitted]
                if parent_events is not None:
                    for result in completed:
                        _emit_scenario_event(parent_events, result, 0)
            else:
                outcome = future.result()
                if isinstance(outcome, _ShardOutcome):
                    if parent_registry is not None:
                        parent_registry.merge(outcome.registry)
                    if parent_events is not None:
                        parent_events.adopt_all(outcome.events,
                                                worker=outcome.worker)
                    if parent_telemetry is not None:
                        for span in outcome.spans:
                            span.attributes.setdefault("worker",
                                                       outcome.worker)
                            parent_telemetry.tracer.adopt(span)
                        parent_telemetry.bundles.extend(outcome.bundles)
                    outcome = outcome.results
                completed = outcome if isinstance(outcome, list) else [outcome]
            for result in completed:
                by_name[result.name] = result
                if on_result is not None:
                    on_result(result)
    if parent_events is not None:
        ok = sum(1 for result in by_name.values() if result.ok)
        parent_events.emit("campaign_finished", scenarios=len(by_name),
                           ok=ok, failed=len(by_name) - ok,
                           executor=executor)
    return [by_name[scenario.name] for scenario in batch]

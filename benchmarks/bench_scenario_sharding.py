"""[P3] Sharded scenario batches vs serial ScenarioSuite.

Not a paper figure: quantifies the scenario-sharding axis of the scenarios
subsystem (:mod:`repro.scenarios`) on a clustered, rate-gated CCD workload.
A 32-scenario batch of seeded random-walk stimuli is run

* serially through :meth:`ScenarioSuite.run_all` (one shared compiled
  schedule), and
* sharded across a 4-worker process pool via :func:`run_sharded`, one task
  per scenario (the model is pickled once per worker; each worker compiles
  its own schedule).

The wall-clock speed-up of an untraced pooled run is printed but not
gated: the serial batch takes about as long as starting the pool, so on a
small host the ratio measures the host.  The acceptance gates are on
deterministic counts that :mod:`repro.obs` records for a second, traced
pooled run: one task per scenario (``shard_dispatched`` events and
``runner.worker_task`` spans) and one schedule compile per worker that
ran a task (``compile.simulators``, counted where the compile happens),
so 32 tasks on 4 workers pay at most 4 compiles.  Process and thread
pools run one worker protocol, so both count gates run on both.  A
chunked run (``chunk_size=8``) on a batch that does not divide evenly
checks that the pool receives exactly the ``chunk_size`` slices, one
task each, and a
``backend="batch"`` run checks that the alias dispatches one task per
scenario like ``"native"``.  Traces are byte-identical to the serial run
throughout.
Per-worker compile amortization is measured separately: the pool pays
``workers`` compilations where a naive per-scenario pool would pay
``len(batch)``.

Process-pool benchmarks (and the process half of the parametrized gates)
carry the ``parallel`` marker so constrained sandboxes can deselect them
with ``-m "not parallel"``.
"""

import os
import time

import pytest

from repro import obs
from repro.core.components import ExpressionComponent
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.obs.events import EventLog
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import (CompiledSimulator, ScenarioSuite,
                              build_gated_ccd, first_difference)
from repro.transformations.clustering import cluster_by_clock

from _bench_utils import report

WORKERS = 4
BATCH_SIZE = 32
TICKS = 250


def _chain_dfd(length: int) -> DataFlowDiagram:
    """The banded-rate chain of bench_compiled_engine (clusterable CCD)."""
    dfd = DataFlowDiagram(f"Chain{length}")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(length):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        block.annotate("rate", 1 if index < length // 2 else 10)
        dfd.add_subcomponent(block)
        if previous is None:
            dfd.connect("u", f"B{index}.in1")
        else:
            dfd.connect(f"{previous}.out", f"B{index}.in1")
        previous = f"B{index}"
    delay = UnitDelay("Z")
    delay.annotate("rate", 10)
    dfd.add_subcomponent(delay)
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "y")
    return dfd


def _gated_ccd_workload(length: int = 60):
    ccd, _ = cluster_by_clock(_chain_dfd(length))
    return build_gated_ccd(ccd)


def _batch(count: int = BATCH_SIZE, ticks: int = TICKS):
    return [Scenario(f"s{index}",
                     {"u": RandomWalk(seed=index, start=float(index),
                                      step=2.0)},
                     ticks=ticks) for index in range(count)]


def _counted_pool_run(gated, batch, executor="process", **options):
    """One pooled run inside a telemetry session: the results plus the
    counts the gates read (scenarios per ``shard_dispatched`` event,
    ``runner.worker_task`` spans, workers that ran a task, compiles)."""
    events = EventLog()
    with obs.session(events=events) as telemetry:
        results = run_sharded(gated, batch, executor=executor,
                              max_workers=WORKERS, **options)
    for result in results:
        assert result.ok, (result.name, result.error)
    dispatched = [event.data["scenarios"] for event in events.events
                  if event.type == "shard_dispatched"]
    tasks = sum(1 for span in telemetry.tracer.walk()
                if span.name == "runner.worker_task")
    workers = {result.worker for result in results}
    compiles = telemetry.registry.counter("compile.simulators").value
    return results, dispatched, tasks, workers, compiles


#: Both pooled executors run one worker protocol, so both pass the gates.
POOLED = [pytest.param("process", marks=pytest.mark.parallel), "thread"]


@pytest.mark.parametrize("executor", POOLED)
def test_p3_sharded_vs_serial_ccd_batch(executor):
    """Acceptance gate on counts: one task per scenario, one compile per
    worker however many tasks it ran; byte-identical traces."""
    gated = _gated_ccd_workload()
    batch = _batch()

    suite = ScenarioSuite(gated)
    for scenario in batch:
        suite.add(scenario.name, scenario.stimuli, scenario.ticks)

    start = time.perf_counter()
    serial_traces = suite.run_all()
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    timed = run_sharded(gated, batch, executor=executor,
                        max_workers=WORKERS)
    t_sharded = time.perf_counter() - start

    results, dispatched, tasks, workers, compiles = \
        _counted_pool_run(gated, batch, executor)
    for result in timed + results:
        assert result.ok, (result.name, result.error)
        assert first_difference(serial_traces[result.name],
                                result.trace) is None

    report("P3", f"{BATCH_SIZE} scenarios x {TICKS} ticks on gated CCD, "
                 f"{executor} pool: "
                 f"{tasks} tasks on {len(workers)} workers, {compiles} "
                 f"compiles; serial {t_serial:.3f}s, pooled (untraced) "
                 f"{t_sharded:.3f}s -> {t_serial / t_sharded:.2f}x, not "
                 f"gated ({os.cpu_count()} CPUs)")
    assert dispatched == [1] * BATCH_SIZE
    assert tasks == BATCH_SIZE
    assert compiles == len(workers) <= WORKERS


@pytest.mark.parametrize("executor", POOLED)
def test_p3_pool_dispatches_one_chunk_per_task(executor):
    """``chunk_size`` is the only dispatch knob: on a batch that does not
    divide evenly the pool receives the ``chunk_size`` slices, one task
    each, and ``backend="batch"`` (an alias of ``"native"``) dispatches
    one task per scenario like every other backend."""
    gated = _gated_ccd_workload()
    batch = _batch(BATCH_SIZE - 2, ticks=60)
    simulator = CompiledSimulator(gated)
    reference = [simulator.run(scenario.stimuli, scenario.ticks)
                 for scenario in batch]

    for options in ({"chunk_size": 8}, {"backend": "batch"}):
        results, dispatched, tasks, workers, compiles = \
            _counted_pool_run(gated, batch, executor, **options)
        for result, expected in zip(results, reference):
            assert first_difference(expected, result.trace) is None
        report("P3", f"{executor} pool with {options}: {len(batch)} "
                     f"scenarios as "
                     f"tasks of {dispatched} in {tasks} "
                     f"runner.worker_task spans on {len(workers)} "
                     f"workers, {compiles} compiles")
        if "chunk_size" in options:
            assert dispatched == [8, 8, 8, 6]
        else:
            assert dispatched == [1] * len(batch)
        assert tasks == len(dispatched)
        assert compiles == len(workers) <= WORKERS


@pytest.mark.parallel
def test_p3_per_worker_compile_amortization():
    """Workers compile once each: batch cost amortizes the compile."""
    gated = _gated_ccd_workload()
    batch = _batch(BATCH_SIZE, ticks=60)

    start = time.perf_counter()
    simulator = CompiledSimulator(gated)
    t_compile = time.perf_counter() - start

    start = time.perf_counter()
    results = run_sharded(gated, batch, executor="process",
                          max_workers=WORKERS,
                          chunk_size=BATCH_SIZE // WORKERS)
    t_sharded = time.perf_counter() - start
    assert all(result.ok for result in results)

    serial_reference = {scenario.name: simulator.run(scenario.stimuli,
                                                     scenario.ticks)
                        for scenario in batch}
    for result in results:
        assert first_difference(serial_reference[result.name],
                                result.trace) is None

    pool_compiles = WORKERS * t_compile
    naive_compiles = BATCH_SIZE * t_compile
    report("P3", f"schedule compile {t_compile * 1000:.1f}ms: sharded pool "
                 f"pays {WORKERS}x ({pool_compiles * 1000:.0f}ms) vs "
                 f"{BATCH_SIZE}x ({naive_compiles * 1000:.0f}ms) for a "
                 f"compile-per-scenario pool; batch wall-clock "
                 f"{t_sharded:.3f}s")
    assert pool_compiles < naive_compiles

"""[P3] Sharded scenario batches vs serial ScenarioSuite (wall-clock).

Not a paper figure: quantifies the scenario-sharding axis of the scenarios
subsystem (:mod:`repro.scenarios`) on a clustered, rate-gated CCD workload.
A 32-scenario batch of seeded random-walk stimuli is run

* serially through :meth:`ScenarioSuite.run_all` (one shared compiled
  schedule), and
* sharded across a 4-worker process pool via :func:`run_sharded` (the model
  is pickled once per worker; each worker compiles its own schedule).

The acceptance gate is a >= 1.5x wall-clock speedup with 4 workers on a
host with at least 4 CPUs, with traces byte-identical to the serial run.
Fewer CPUs cap the usable parallelism at ``min(WORKERS, cpu_count)``, so
the required speedup scales linearly with it, from 1.0x at one CPU to 1.5x
at four (1.17x on a 2-CPU host); single-CPU hosts skip the gate.  Per-worker
compile amortization is measured separately: the pool pays ``workers``
compilations where a naive per-scenario pool would pay ``len(batch)``.

Process-pool benchmarks carry the ``parallel`` marker so constrained
sandboxes can deselect them with ``-m "not parallel"``.
"""

import os
import time

import pytest

from repro.core.components import ExpressionComponent
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import (RandomWalk, Scenario, run_sharded,
                             shard_scenarios)
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


def test_p3_shard_partitioning_is_balanced():
    batch = _batch(BATCH_SIZE, ticks=1)
    shards = shard_scenarios(batch, WORKERS)
    assert len(shards) == WORKERS
    sizes = [len(shard) for shard in shards]
    assert sum(sizes) == BATCH_SIZE
    assert max(sizes) - min(sizes) <= 1
    report("P3", f"{BATCH_SIZE} scenarios over {WORKERS} shards: "
                 f"sizes {sizes}")


@pytest.mark.parallel
def test_p3_sharded_vs_serial_ccd_batch():
    """Acceptance gate: >= 1.5x with 4 workers on >= 4 CPUs (scaled to the
    usable CPUs below that), byte-identical traces."""
    gated = _gated_ccd_workload()
    batch = _batch()

    suite = ScenarioSuite(gated)
    for scenario in batch:
        suite.add(scenario.name, scenario.stimuli, scenario.ticks)

    start = time.perf_counter()
    serial_traces = suite.run_all()
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    results = run_sharded(gated, batch, executor="process",
                          max_workers=WORKERS)
    t_sharded = time.perf_counter() - start

    for result in results:
        assert result.ok, (result.name, result.error)
        assert first_difference(serial_traces[result.name],
                                result.trace) is None

    speedup = t_serial / t_sharded
    cpus = os.cpu_count() or 1
    report("P3", f"{BATCH_SIZE} scenarios x {TICKS} ticks on gated CCD: "
                 f"serial {t_serial:.3f}s, {WORKERS} workers "
                 f"{t_sharded:.3f}s -> {speedup:.2f}x ({cpus} CPUs)")
    if cpus < 2:
        pytest.skip(f"single-CPU host ({cpus} CPU): traces verified "
                    "byte-identical, speedup gate needs a multi-core host")
    usable = min(WORKERS, cpus)
    required = 1.0 + 0.5 * (usable - 1) / (WORKERS - 1)
    assert speedup >= required, (
        f"sharded batch only {speedup:.2f}x faster with {WORKERS} workers "
        f"on {cpus} CPUs (required {required:.2f}x)")


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

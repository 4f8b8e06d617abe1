"""[P7] Batch backend vs per-scenario flat engine (battery gate).

Not a paper figure: quantifies the speedup of running a large scenario
battery through ``backend="batch"`` -- the native C tick loop of
:mod:`repro.simulation.native`, one C call per scenario, driven by the
sharded runner -- over running the same battery one scenario at a time
through the flat schedule.  The workload is an expression-heavy model (a
chain of expression blocks, all lowered to C) crossed with a large
battery (>= 256 scenarios): per scenario the flat engine pays the full
per-tick driver overhead (stimulus draw, environment dicts, op dispatch,
trace bookkeeping), while the batch backend pays Python only once per
scenario for marshalling the input and output planes.

The gate is **semantic first**: every batch trace must serialize
byte-identically (:func:`repro.io.trace_to_json`) to the per-scenario flat
trace, and a sample of scenarios is additionally checked byte-for-byte
against the reference interpreter.  Only then is the >= 3x speedup
asserted.  Median tick rates land in ``BENCH_batch_ir.json`` for the CI
artifact trail (mirroring ``BENCH_flatten.json``).  Compiler-less hosts
skip cleanly (``native_available``): there ``"batch"`` degrades to flat.

:func:`test_p7_batch_count_gate` gates on deterministic counts instead of
wall-clock, so it holds on any host with a compiler: one C entry per
scenario, no Python re-entries, and the battery runs without NumPy
loaded.  It runs in the gating CI job.
"""

import sys

import pytest

from repro import obs
from repro.core.components import ExpressionComponent
from repro.io import trace_to_json
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import Scenario, run_sharded
from repro.simulation import CompiledSimulator, Simulator, native_available

from _bench_utils import report, time_best, time_median, write_bench_json

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="the batch backend needs a C compiler (cc/gcc/clang or $CC)")

#: Workload shape: battery size, horizon and expression-chain width.
SCENARIOS = 512
TICKS = 100
WIDTH = 4
_SOURCES = ("a + b * 2", "(a - b) % 97", "a * 3 - b", "a + b * 2")


def expression_chain(width: int = WIDTH) -> DataFlowDiagram:
    """A width-long chain of two-input expression blocks.

    Every block reads the boundary input (``b``) and its predecessor
    (``a``), so the whole per-tick program is expression ops over the slot
    environment, every one of them lowered to C.
    """
    dfd = DataFlowDiagram("ExprChain")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(width):
        block = ExpressionComponent(f"E{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        dfd.add_subcomponent(block)
        dfd.connect("u", f"E{index}.b")
        dfd.connect("u" if previous is None else f"{previous}.out",
                    f"E{index}.a")
        previous = f"E{index}"
    dfd.connect(f"{previous}.out", "y")
    return dfd


def battery(scenarios: int = SCENARIOS, ticks: int = TICKS):
    return [Scenario(f"sweep{index}",
                     {"u": [(index * 7 + tick) % 23 for tick in range(ticks)]},
                     ticks) for index in range(scenarios)]


def run_batch(model, items):
    return run_sharded(model, items, executor="serial", backend="batch")


def test_p7_batch_count_gate():
    """Counts, not wall-clock: one C call per scenario, no trampoline
    re-entry, byte-identical traces, and no NumPy in the process."""
    model = expression_chain()
    items = battery()
    flat = CompiledSimulator(model, backend="flat")
    with obs.session() as telemetry:
        results = run_batch(model, items)
    for scenario, result in zip(items, results):
        assert result.ok, (scenario.name, result.error)
        assert trace_to_json(result.trace) == trace_to_json(
            flat.run(scenario.stimuli, scenario.ticks)), scenario.name
    counters = telemetry.registry.counter_values("native.")
    assert counters["native.runs"] == SCENARIOS, "one C entry per scenario"
    assert counters["native.ticks"] == SCENARIOS * TICKS
    assert counters["native.trampolines"] == 0, "every op lowered to C"
    assert telemetry.registry.counter_values("batch.") == {}
    assert "numpy" not in sys.modules
    report("P7", f"batch count gate: {SCENARIOS} scenarios -> "
                 f"{counters['native.runs']:.0f} C entries, "
                 f"{counters['native.trampolines']:.0f} trampolines")


def test_p7_batch_ir_vs_per_scenario_flat_gate():
    """Acceptance gate: batch backend >= 3x per-scenario flat, traces
    byte-identical (flat everywhere, interpreter on a sample)."""
    model = expression_chain()
    items = battery()
    flat = CompiledSimulator(model, backend="flat")

    def run_flat():
        return [flat.run(scenario.stimuli, scenario.ticks)
                for scenario in items]

    # semantic gate first: byte-identical serialized traces, all scenarios
    flat_traces = run_flat()
    results = run_batch(model, items)
    assert all(result.ok for result in results)
    for scenario, expected, result in zip(items, flat_traces, results):
        assert trace_to_json(expected) == trace_to_json(result.trace), \
            scenario.name
    # ... and against the reference interpreter on a spread sample
    interpreter = Simulator(model)
    for index in range(0, len(items), len(items) // 16):
        scenario = items[index]
        assert trace_to_json(interpreter.run(scenario.stimuli,
                                             scenario.ticks)) \
            == trace_to_json(results[index].trace)

    timings = {
        "flat_per_scenario": time_median(run_flat, repeats=3),
        "batch": time_median(lambda: run_batch(model, items), repeats=3),
    }
    # best-of for the gate itself (repo convention for speedup gates: keeps
    # one descheduled run on a shared CI box from flipping the assertion)
    best_flat = time_best(run_flat)
    best_batch = time_best(lambda: run_batch(model, items))
    speedup = best_flat / best_batch
    total_ticks = sum(scenario.ticks for scenario in items)
    path = write_bench_json("batch_ir", {
        "workload": {
            "model": model.name,
            "scenarios": SCENARIOS,
            "ticks_per_scenario": TICKS,
            "expression_blocks": WIDTH,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
        },
        "median_seconds": timings,
        "best_seconds": {"flat_per_scenario": best_flat, "batch": best_batch},
        "scenario_ticks_per_second": {
            engine: total_ticks / seconds
            for engine, seconds in timings.items()},
        "speedup": {
            "batch_vs_flat_best": speedup,
            "batch_vs_flat_median":
                timings["flat_per_scenario"] / timings["batch"],
        },
        "gate": {"batch_vs_flat_min": 3.0, "basis": "best-of"},
    })

    report("P7", "\n".join([
        f"{SCENARIOS}-scenario battery x {TICKS} ticks, "
        f"{WIDTH} expression blocks:",
        f"  flat per-scenario: {timings['flat_per_scenario']:.3f}s "
        f"({total_ticks / timings['flat_per_scenario']:,.0f} scenario-ticks/s)",
        f"  batch backend:     {timings['batch']:.3f}s "
        f"({total_ticks / timings['batch']:,.0f} scenario-ticks/s)",
        f"  batch vs flat {speedup:.2f}x (best-of) -> {path}"]))

    assert speedup >= 3.0, (
        f"batch backend only {speedup:.2f}x faster than per-scenario flat "
        f"(gate: 3x)")

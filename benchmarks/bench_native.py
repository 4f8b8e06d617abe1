"""[P8] Native C tick loop vs flat interpreter (gated-controller gate).

Not a paper figure: quantifies the speedup of lowering the flat schedule
IR to one compiled C tick loop (:mod:`repro.simulation.native`) over
interpreting the same op program in Python, on the workload the native
backend exists for -- an expression-heavy gated controller.  A wide chain
of integer expression blocks feeds a clock-gated inner chain and a
delayed feedback tap, so the measured path carries lowered expression
ops, lowered gate branches AND the per-tick trampoline re-entry for the
unit-delay leaf (the fallback machinery is on the clock, not benched
around).

The gate is **semantic first**: the native trace must serialize
byte-identically (:func:`repro.io.trace_to_json`) to the flat trace and
to the reference interpreter before the >= 2x best-of speedup is
asserted.  Median tick rates land in ``BENCH_native.json`` for the CI
artifact trail (mirroring ``BENCH_flatten.json``), together with the
horizon ratio: a whole run in one C call (``CompiledSimulator.run``)
against the same run stepped tick by tick through ``schedule.step``.
Compiler-less hosts skip cleanly (``native_available``).

:func:`test_p8_native_count_gate` gates on deterministic counts instead
of wall-clock, so it holds on any host: one C entry per run, Python
re-entries equal to the executions of the program's fallback ops (the
unit-delay leaf and its correction barrier, counted on the flat engine's
op profile), byte-identical traces.  It runs in the gating CI job.
"""

import pytest

from repro import obs
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, native_available)
from repro.simulation.engine import run_stepped

from _bench_utils import report, time_best, time_median, write_bench_json

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native backend needs a C compiler (cc/gcc/clang or $CC)")

#: Workload shape: expression-chain width per section and horizon.
WIDTH = 16
TICKS = 2000
_SOURCES = ("a + b * 2", "(a - b) % 97", "a * 3 - b",
            "if a > b then a - b else b - a",
            "min(a, b) + max(a, b)", "abs(a - b) + 1")


def _chain(dfd: DataFlowDiagram, prefix: str, source: str,
           width: int) -> str:
    """Chain *width* two-input expression blocks; returns the last port."""
    previous = source
    for index in range(width):
        block = ExpressionComponent(f"{prefix}{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"{prefix}{index}.a")
        dfd.connect("u", f"{prefix}{index}.b")
        previous = f"{prefix}{index}.out"
    return previous


def gated_expression_controller(width: int = WIDTH) -> DataFlowDiagram:
    """An expression-heavy controller with a gated core and a delay tap.

    A width-long preconditioning chain feeds a clock-gated inner chain
    (``every(2)``, so the lowered gate branch is taken on half the ticks),
    whose result is mixed with a unit-delay feedback tap and reduced
    modulo a prime so the integer plane never leaves int64 (no emitter
    bails -- the only per-tick Python re-entry is the delay leaf itself).
    """
    dfd = DataFlowDiagram("NativeController")
    dfd.add_input("u")
    dfd.add_output("y")

    pre_out = _chain(dfd, "P", "u", width)

    core = DataFlowDiagram("Core")
    core.add_input("u")
    core.add_input("v")
    core.add_output("y")
    previous = "v"
    for index in range(width):
        block = ExpressionComponent(f"C{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        core.add_subcomponent(block)
        core.connect(previous, f"C{index}.a")
        core.connect("u", f"C{index}.b")
        previous = f"C{index}.out"
    core.connect(previous, "y")
    gated = ClockGatedComponent(core, every(2), name="GatedCore")
    dfd.add_subcomponent(gated)
    dfd.connect("u", "GatedCore.u")
    dfd.connect(pre_out, "GatedCore.v")

    post = ExpressionComponent("Post", {"out": "(in1 + in2 * 3) % 100003"})
    post.declare_interface_from_expressions()
    tap = UnitDelay("Z", initial=0)
    dfd.add(post, tap)
    dfd.connect("GatedCore.y", "Post.in1")
    dfd.connect("Z.out", "Post.in2")
    dfd.connect("Post.out", "Z.in1")  # feedback through the delay
    dfd.connect("Post.out", "y")
    return dfd


def _stimuli(ticks: int):
    return {"u": [(tick * 7) % 23 + 1 for tick in range(ticks)]}


#: Horizon and repetitions of the count gate.
COUNT_TICKS = 400
COUNT_RUNS = 3


def test_p8_native_count_gate():
    """Count gate: one C entry per run, one trampoline per fallback-op
    execution, traces byte-identical to flat and to the interpreter."""
    model = gated_expression_controller(WIDTH)
    stimuli = _stimuli(COUNT_TICKS)
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    fallback_ops = native.schedule.lowered.fallback_ops
    assert fallback_ops, "the workload must exercise the trampoline"

    # how often the flat engine executes the ops native replays in Python
    with obs.session(profile_ops=True) as flat_telemetry:
        flat_trace = flat.run(stimuli, COUNT_TICKS)
    (profile,) = flat_telemetry.profiles.values()
    executions = sum(profile.counts[index] for index in fallback_ops)

    with obs.session() as telemetry:
        traces = [native.run(stimuli, COUNT_TICKS)
                  for _ in range(COUNT_RUNS)]
    counters = telemetry.registry.counter_values("native.")
    expected = trace_to_json(flat_trace)
    assert all(trace_to_json(trace) == expected for trace in traces)
    assert trace_to_json(Simulator(model).run(stimuli, COUNT_TICKS)) \
        == expected
    assert counters["native.runs"] == COUNT_RUNS, "one C entry per run"
    assert counters["native.ticks"] == COUNT_RUNS * COUNT_TICKS
    assert counters["native.trampolines"] == COUNT_RUNS * executions, (
        "Python re-entries must equal the fallback ops' executions")
    report("P8", f"count gate: {COUNT_RUNS} runs x {COUNT_TICKS} ticks -> "
                 f"{counters['native.runs']:.0f} C entries, "
                 f"{counters['native.trampolines'] / counters['native.ticks']:.2f}"
                 f" trampolines per tick ({len(fallback_ops)} fallback ops)")


def test_p8_native_vs_flat_gate():
    """Acceptance gate: native >= 2x flat best-of, traces byte-identical."""
    model = gated_expression_controller(WIDTH)
    stimuli = _stimuli(TICKS)

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    assert flat.schedule.kind == "flat"
    assert native.schedule.kind == "native"
    # the workload really is expression-dominated with a live gate and a
    # per-tick trampoline leaf (the unit delay)
    lowered = native.schedule.lowered
    assert len(lowered.lowered_ops) >= 2 * WIDTH
    assert lowered.gate_indexes

    # semantic gate first: byte-identical serialized traces, all engines
    flat_trace = flat.run(stimuli, TICKS)
    native_trace = native.run(stimuli, TICKS)
    assert trace_to_json(native_trace) == trace_to_json(flat_trace)
    # ... and against the reference interpreter on a shorter horizon
    reference_trace = interpreter.run(stimuli, 300)
    assert trace_to_json(reference_trace) \
        == trace_to_json(native.run(stimuli, 300))

    schedule = native.schedule

    def native_stepped():
        return run_stepped(model, schedule.step, stimuli, TICKS, False,
                           initial_state=schedule.initial_state())

    timings = {
        "flat": time_median(lambda: flat.run(stimuli, TICKS), repeats=3),
        "native": time_median(lambda: native.run(stimuli, TICKS), repeats=3),
        "native_stepped": time_median(native_stepped, repeats=3),
    }
    tick_rates = {engine: TICKS / seconds
                  for engine, seconds in timings.items()}
    # best-of for the gate itself (repo convention for speedup gates: keeps
    # one descheduled run on a shared CI box from flipping the assertion)
    best_flat = time_best(lambda: flat.run(stimuli, TICKS))
    best_native = time_best(lambda: native.run(stimuli, TICKS))
    speedup = best_flat / best_native

    path = write_bench_json("native", {
        "workload": {
            "model": model.name,
            "width": WIDTH,
            "ticks": TICKS,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
            "lowered_ops": len(lowered.lowered_ops),
            "fallback_ops": len(lowered.fallback_ops),
        },
        "median_seconds": timings,
        "best_seconds": {"flat": best_flat, "native": best_native},
        "ticks_per_second": tick_rates,
        "speedup": {
            "native_vs_flat_best": speedup,
            "native_vs_flat_median": timings["flat"] / timings["native"],
            # one C call per horizon vs one C call per tick
            "native_run_vs_step_median":
                timings["native_stepped"] / timings["native"],
        },
        "gate": {"native_vs_flat_min": 2.0, "basis": "best-of"},
    })

    report("P8", "\n".join(
        [f"gated expression controller, width {WIDTH}, {TICKS} ticks "
         f"(median tick rates):"]
        + [f"  {engine:>6}: {timings[engine]:.3f}s "
           f"({tick_rates[engine]:,.0f} ticks/s)"
           for engine in ("flat", "native", "native_stepped")]
        + [f"  native vs flat {speedup:.2f}x (best-of), "
           f"{len(lowered.lowered_ops)} lowered / "
           f"{len(lowered.fallback_ops)} fallback ops -> {path}"]))

    assert speedup >= 2.0, (
        f"native step function only {speedup:.2f}x faster than the flat "
        f"interpreter (gate: 2x)")

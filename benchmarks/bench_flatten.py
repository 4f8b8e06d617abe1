"""[P6] Flat schedule IR vs the reference interpreter (deep-hierarchy gate).

Not a paper figure: quantifies the speedup of cross-hierarchy flattening
(:mod:`repro.simulation.schedule_ir`, the only compiler for composites)
over the tree-walking reference interpreter on the workload the flattener
exists for -- a deeply nested composite hierarchy (>= 4 levels) with
clock-gated subtrees, expression blocks on the feedthrough path and a
delayed feedback tap per level (so gating predicates, slot copies *and*
correction barriers are all on the measured path).  The acceptance gate
requires the flat IR to be at least 20x faster than the interpreter, as
the median of interleaved (flat, interpreter) run-pair ratios, while
producing a tick-for-tick identical trace.  On a 2-CPU host 33 measured
pairs read 45x-121x (medians 67x-81x), so the bound leaves headroom for a
slow runner.

The median tick rates per engine and the median speedup are additionally
written to ``BENCH_flatten.json`` (via :func:`_bench_utils.write_bench_json`);
CI uploads the file as an artifact so the performance trajectory of the
simulation engines is tracked across PRs.
"""

from repro.core.clocks import every
from repro.core.components import CompositeComponent, ExpressionComponent
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, first_difference)

from _bench_utils import median_paired_ratio, report, write_bench_json

#: Workload shape: nesting depth and simulation horizon of the gate.
DEPTH = 6
TICKS = 500

#: Interleaved (flat, interpreter) run pairs behind the gated median.
PAIRS = 11

#: Minimum median speedup of the flat IR over the interpreter.
GATE = 20.0


def deep_gated_controller(depth: int = DEPTH) -> DataFlowDiagram:
    """A depth-level controller cascade, each level gating the next.

    Level ``d`` preconditions its input (expression block), hands it to a
    rate-gated copy of level ``d-1`` (``every(2)``, the LA-level cluster
    view), postprocesses the result against a delayed feedback tap (unit
    delay fed by the level's own output -- a live correction-barrier
    entry), and exports the sum.  The innermost level is a plain expression
    chain.  Every level therefore exercises slot copies, a gating
    predicate, an expression op and a correction barrier.
    """
    def level(d: int) -> DataFlowDiagram:
        dfd = DataFlowDiagram(f"L{d}")
        dfd.add_input("u")
        dfd.add_output("y")
        pre = ExpressionComponent("Pre", {"out": "in1 + 1"})
        pre.declare_interface_from_expressions()
        post = ExpressionComponent("Post", {"out": "in1 * 2 + in2"})
        post.declare_interface_from_expressions()
        tap = UnitDelay("Z", initial=0)
        dfd.add(pre, post, tap)
        dfd.connect("u", "Pre.in1")
        if d > 0:
            gated = ClockGatedComponent(level(d - 1), every(2),
                                        name=f"Gated{d - 1}")
            dfd.add_subcomponent(gated)
            dfd.connect("Pre.out", f"Gated{d - 1}.u")
            dfd.connect(f"Gated{d - 1}.y", "Post.in1")
        else:
            dfd.connect("Pre.out", "Post.in1")
        dfd.connect("Post.out", "Z.in1")  # feedback through the delay
        dfd.connect("Z.out", "Post.in2")
        dfd.connect("Post.out", "y")
        return dfd
    return level(depth)


def _count_nodes(model):
    """Composites and clock gates of *model*'s hierarchy, walked through
    every composite and gate."""
    composites = gates = 0
    stack = [model]
    while stack:
        node = stack.pop()
        if isinstance(node, ClockGatedComponent):
            gates += 1
            stack.append(node.inner)
        elif isinstance(node, CompositeComponent):
            composites += 1
            stack.extend(node.subcomponents())
    return composites, gates


def test_p6_flat_ir_vs_interpreter_gate():
    """Acceptance gate: flat IR >= 20x the interpreter (median of paired
    ratios), traces identical."""
    model = deep_gated_controller(DEPTH)
    stimuli = {"u": [1.0] * TICKS}

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    assert flat.schedule.kind == "flat"
    # the workload really is a >= 4-level composite nest with gated subtrees
    composites, gates = _count_nodes(model)
    assert composites >= 4
    assert gates >= 4

    # trace equivalence on the gated deep-nesting workload (the flat run
    # doubles as the warm-up of the timed pairs)
    reference_trace = interpreter.run(stimuli, TICKS)
    assert first_difference(reference_trace, flat.run(stimuli, TICKS)) is None

    speedup, flat_s, interpreter_s = median_paired_ratio(
        lambda: flat.run(stimuli, TICKS),
        lambda: interpreter.run(stimuli, TICKS), PAIRS)
    timings = {"interpreter": interpreter_s, "flat": flat_s}
    tick_rates = {engine: TICKS / seconds
                  for engine, seconds in timings.items()}

    path = write_bench_json("flatten", {
        "workload": {
            "model": model.name,
            "depth": DEPTH,
            "ticks": TICKS,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
            "flat_leaves": len(flat.schedule.leaves),
        },
        "median_seconds": timings,
        "ticks_per_second": tick_rates,
        "speedup": {"flat_vs_interpreter_median": speedup},
        "gate": {"flat_vs_interpreter_min": GATE,
                 "basis": f"median of {PAIRS} interleaved pair ratios"},
    })

    report("P6", "\n".join(
        [f"deep gated controller, depth {DEPTH}, {TICKS} ticks "
         f"(median of {PAIRS} interleaved pairs):"]
        + [f"  {engine:>11}: {timings[engine]:.3f}s "
           f"({tick_rates[engine]:,.0f} ticks/s)"
           for engine in ("interpreter", "flat")]
        + [f"  flat vs interpreter {speedup:.1f}x -> {path}"]))

    assert speedup >= GATE, (
        f"flat IR only {speedup:.1f}x faster than the interpreter "
        f"(gate: {GATE:.0f}x)")

"""Flat schedule IR: backend selection, naming contract, deep hierarchies,
gating predicates, correction barriers and mode observability.

The differential suites in ``tests/test_compiled_equivalence.py`` and the
golden traces already run on the flat path (it is what
:func:`repro.simulation.compile_component` returns for every root);
this module pins the *contracts* of the new layer: which roots
flatten, that ``ops_summary`` names every op of the program by its
hierarchical path, that compilation is iterative (5000-level regression), that clock-gated
subtrees hold state and suppress emissions across skip ticks exactly like
the interpreter, and that correction regions and their barriers appear
exactly where the semantics require them.
"""

import random
import sys
import threading

import pytest

from repro import obs
from repro.core.components import ExpressionComponent
from repro.core.clocks import EventClock, PatternCache, every
from repro.core.errors import ExpressionEvalError, TypeCheckError
from repro.core.types import FloatType, IntType
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import Gain, UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.std import StateTransitionDiagram
from repro.scenarios import Scenario, run_sharded
from repro.simulation.engine import active_mode_paths
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              FlatSchedule, FlatState, ScenarioSuite,
                              Simulator, build_gated_ccd, compile_component,
                              compile_flat, first_difference,
                              is_flattenable, native_available)
from repro.simulation.engine import run_stepped
from repro.simulation.native import NativeSchedule
from repro.simulation.schedule_ir import (OP_COPY, OP_CORRECT, OP_EXPR,
                                          OP_GATE)


def assert_engines_agree(component, stimuli, ticks):
    reference = Simulator(component).run(stimuli, ticks)
    flat_sim = CompiledSimulator(component, backend="flat")
    assert isinstance(flat_sim.schedule, FlatSchedule)
    flat = flat_sim.run(stimuli, ticks)
    difference = first_difference(reference, flat)
    assert difference is None, (
        f"flat engine diverges on {component.name!r}: {difference}")
    assert reference.mode_history == flat.mode_history
    return reference, flat


# -- models --------------------------------------------------------------------


def accumulator_in_composite():
    """Feedback-through-delay accumulator nested one level down."""
    inner = DataFlowDiagram("Inner")
    inner.add_input("u")
    inner.add_output("y")
    add = ExpressionComponent("ADD", {"out": "a + b"})
    add.declare_interface_from_expressions()
    delay = UnitDelay("Z", initial=0)
    inner.add(add, delay)
    inner.connect("u", "ADD.a")
    inner.connect("Z.out", "ADD.b")
    inner.connect("ADD.out", "Z.in1")
    inner.connect("ADD.out", "y")

    outer = DataFlowDiagram("Outer")
    outer.add_input("u")
    outer.add_output("y")
    gain = Gain("G", 2.0)
    outer.add(inner, gain)
    outer.connect("u", "Inner.u")
    outer.connect("Inner.y", "G.in1")
    outer.connect("G.out", "y")
    return outer


def modes_mtd(name="Modes"):
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("x")
    mtd.add_output("out")
    mtd.add_output("mode")
    low = ExpressionComponent("LowB", {"out": "x * 1"})
    low.declare_interface_from_expressions()
    high = ExpressionComponent("HighB", {"out": "x * 10"})
    high.declare_interface_from_expressions()
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", high)
    mtd.add_transition("Low", "High", "x > 2")
    mtd.add_transition("High", "Low", "x < 1")
    return mtd


def gated_mtd_system(clock, direct=False):
    """An MTD under a clock gate inside a flattenable hierarchy.

    ``direct=False`` gates a composite that *contains* the MTD (the gate
    becomes a flat-IR gating predicate over hoisted leaf ops);
    ``direct=True`` gates the MTD itself (the gate is a region around the
    MTD's mode controller and ``select`` regions).  Both must match the
    interpreter tick for tick.
    """
    if direct:
        gated = ClockGatedComponent(modes_mtd(), clock, name="Plant")
    else:
        plant = DataFlowDiagram("PlantCore")
        plant.add_input("x")
        plant.add_output("out")
        plant.add_output("mode")
        scale = Gain("Scale", 1.0)
        plant.add(scale, modes_mtd())
        plant.connect("x", "Scale.in1")
        plant.connect("Scale.out", "Modes.x")
        plant.connect("Modes.out", "out")
        plant.connect("Modes.mode", "mode")
        gated = ClockGatedComponent(plant, clock, name="Plant")

    system = DataFlowDiagram("Sys")
    system.add_input("x")
    system.add_output("out")
    system.add_output("mode")
    pre = ExpressionComponent("Pre", {"out": "in1 + 0"})
    pre.declare_interface_from_expressions()
    system.add(pre, gated)
    system.connect("x", "Pre.in1")
    system.connect("Pre.out", "Plant.x")
    system.connect("Plant.out", "out")
    system.connect("Plant.mode", "mode")
    return system


# -- backend selection ---------------------------------------------------------


class TracingSTD(StateTransitionDiagram):
    def react(self, inputs, state, tick):
        return super().react(inputs, state, tick)


class TracingDFD(DataFlowDiagram):
    def react(self, inputs, state, tick):
        return super().react(inputs, state, tick)


def toggle_std(cls=StateTransitionDiagram):
    std = cls("Toggle")
    std.add_input("x")
    std.add_output("state")
    std.add_state("A", initial=True)
    std.add_state("B")
    std.add_transition("A", "B", "x > 0")
    std.add_transition("B", "A", "x <= 0")
    return std


def traced_gain_dfd():
    model = TracingDFD("Custom")
    model.add_input("u")
    model.add_output("y")
    model.add_subcomponent(Gain("G", 3.0))
    model.connect("u", "G.in1")
    model.connect("G.out", "y")
    return model


#: Every kind of root, and the ``ops_summary()`` line naming the kind of
#: the leaf its flat program runs: hoisted roots name their leaves by
#: path, a bare leaf root is a one-op program.
COMPILED_ROOTS = {
    "composite": (accumulator_in_composite,
                  "   7       run  Outer/G [atomic]"),
    "gate": (lambda: ClockGatedComponent(accumulator_in_composite(),
                                         every(2)),
             "   8       run  Outer_gated/Outer/G [atomic]"),
    "mtd": (modes_mtd, "   0       run  Modes [mtd]"),
    "gated_mtd": (lambda: ClockGatedComponent(modes_mtd(), every(2)),
                  "   1       run  Modes_gated/Modes [mtd]"),
    "std": (toggle_std, "   0       run  Toggle [std]"),
    "atomic": (lambda: Gain("G", 3.0), "   0       run  G [atomic]"),
    "custom_react_std": (lambda: toggle_std(TracingSTD),
                         "   0       run  Toggle [atomic]"),
    "custom_react_dfd": (traced_gain_dfd, "   0       run  Custom [atomic]"),
}


@pytest.mark.parametrize("root", sorted(COMPILED_ROOTS))
def test_compile_component_returns_the_flat_program(root):
    """One compile contract: every root with behaviour compiles to its
    flat program, lint-gated or not."""
    build, leaf_line = COMPILED_ROOTS[root]
    model = build()
    schedule = compile_component(model)
    assert isinstance(schedule, FlatSchedule)
    assert leaf_line in schedule.ops_summary()
    assert schedule.ops_summary() == compile_flat(model).ops_summary()
    verified = compile_component(model, verify=True)
    assert isinstance(verified, FlatSchedule)
    assert verified.ops_summary() == schedule.ops_summary()
    assert is_flattenable(model) == (len(schedule.program) > 1)


def test_custom_react_composite_is_not_flattened():
    model = traced_gain_dfd()
    assert not is_flattenable(model)
    reference = Simulator(model).run({"u": [1, 2, 3]}, 3)
    compiled = CompiledSimulator(model).run({"u": [1, 2, 3]}, 3)
    assert first_difference(reference, compiled) is None


# -- the IR view: ops_summary names every op by hierarchical path -------------


def test_linear_steps_pin_exact_format():
    """The linear program's steps as :meth:`ops_summary` renders them:
    right-aligned index and kind, two spaces, the op's label (a leaf's
    hierarchical path and compilation kind) -- the format debug tooling
    greps for.  No boundary-output copy repeats a pair that its
    producer's propagation already ran (``ADD.out -> y`` in ``Inner``,
    ``G.out -> y`` in ``Outer``)."""
    schedule = compile_flat(accumulator_in_composite())
    assert schedule.ops_summary() == [
        "   0      copy  copy (1 pair)",
        "   1      copy  copy (1 pair)",
        "   2      copy  copy (1 pair)",
        "   3       run  Outer/Inner/Z [atomic]",
        "   4      expr  Outer/Inner/ADD [expr]",
        "   5   correct  correction barrier (ops 2..3)",
        "   6      copy  copy (1 pair)",
        "   7       run  Outer/G [atomic]",
    ]


#: ``ops_summary()`` of ``gated_mtd_system(every(3), direct)``, keyed by
#: *direct*: the gate region holds the plant's ops; the MTD is its mode
#: controller's ``run``, one ``select`` region per mode behaviour and the
#: copy of the mode port.
GATED_MTD_OPS = {
    False: ["   0      copy  copy (1 pair)",
            "   1      expr  Sys/Pre [expr]",
            "   2      gate  gate -> 12",
            "   3      copy  copy (1 pair)",
            "   4       run  Sys/Plant/PlantCore/Scale [atomic]",
            "   5       run  Sys/Plant/PlantCore/Modes [mtd]",
            "   6    select  select -> 8",
            "   7      expr  Sys/Plant/PlantCore/Modes/Low/LowB [expr]",
            "   8    select  select -> 10",
            "   9      expr  Sys/Plant/PlantCore/Modes/High/HighB [expr]",
            "  10      copy  copy (1 pair)",
            "  11      copy  copy (2 pairs)",
            "  12      copy  copy (2 pairs)"],
    True: ["   0      copy  copy (1 pair)",
           "   1      expr  Sys/Pre [expr]",
           "   2      gate  gate -> 9",
           "   3       run  Sys/Plant/Modes [mtd]",
           "   4    select  select -> 6",
           "   5      expr  Sys/Plant/Modes/Low/LowB [expr]",
           "   6    select  select -> 8",
           "   7      expr  Sys/Plant/Modes/High/HighB [expr]",
           "   8      copy  copy (1 pair)",
           "   9      copy  copy (2 pairs)"],
}


@pytest.mark.parametrize("direct", [False, True])
def test_gated_mtd_system_ops_summary_pins_the_program(direct):
    flat = compile_flat(gated_mtd_system(every(3), direct=direct))
    assert flat.ops_summary() == GATED_MTD_OPS[direct]


def test_gated_ccd_ops_summary_pins_the_program(engine_ccd):
    """The gated Fig. 7 CCD: one hoisted gate region per cluster."""
    root = "SimplifiedEngineController_gated"
    idle, monitoring, sensors, fuel = (
        f"{root}/{cluster}/{cluster}" for cluster in
        ("IdleSpeed", "Monitoring", "SensorProcessing", "FuelAndIgnition"))
    flat = compile_flat(build_gated_ccd(engine_ccd))
    assert flat.ops_summary() == [
        "   0      copy  copy (5 pairs)",
        "   1      gate  gate -> 4",
        "   2      copy  copy (2 pairs)",
        f"   3      expr  {idle}/IdleController [expr]",
        "   4      copy  copy (1 pair)",
        "   5      gate  gate -> 8",
        "   6      copy  copy (1 pair)",
        f"   7      expr  {monitoring}/Plausibility [expr]",
        "   8      copy  copy (1 pair)",
        "   9      gate  gate -> 13",
        "  10      copy  copy (3 pairs)",
        f"  11      expr  {sensors}/AirMass [expr]",
        f"  12       run  {sensors}/SpeedFilter [atomic]",
        "  13      copy  copy (2 pairs)",
        "  14      gate  gate -> 19",
        "  15      copy  copy (5 pairs)",
        f"  16       run  {fuel}/EnableLatch [atomic]",
        f"  17      expr  {fuel}/Ignition [expr]",
        f"  18      expr  {fuel}/Injection [expr]",
        "  19      copy  copy (2 pairs)",
    ]


# -- deep hierarchies (satellite: iterative compile, 5000 levels) --------------


def _deep_chain(depth):
    block = ExpressionComponent("B", {"out": "in1 + 1"})
    block.declare_interface_from_expressions()
    current, name = block, "B"
    in_port, out_port = "in1", "out"
    for level in range(depth):
        dfd = DataFlowDiagram(f"L{level}")
        dfd.add_input("u")
        dfd.add_output("y")
        dfd.add_subcomponent(current)
        dfd.connect("u", f"{name}.{in_port}")
        dfd.connect(f"{name}.{out_port}", "y")
        current, name = dfd, f"L{level}"
        in_port, out_port = "u", "y"
    return current


def test_deep_hierarchy_5000_levels_compiles_and_runs():
    """Regression: compile_component on a 5000-level composite must neither
    hit the Python recursion limit (the flattener, ``structure_token``,
    ``has_behavior`` and the dependency analysis are all iterative) nor
    need a recursive ``initial_state()`` walk at run time."""
    model = _deep_chain(5000)
    simulator = CompiledSimulator(model)
    assert isinstance(simulator.schedule, FlatSchedule)
    trace = simulator.run({"u": [1.0, 2.0, 3.0]}, 3)
    assert trace.output("y").values() == [2.0, 3.0, 4.0]


def _deep_gated_chain(depth):
    block = ExpressionComponent("B", {"out": "in1 + 1"})
    block.declare_interface_from_expressions()
    base = DataFlowDiagram("L0")
    base.add_input("u")
    base.add_output("y")
    base.add_subcomponent(block)
    base.connect("u", "B.in1")
    base.connect("B.out", "y")
    current = base
    for level in range(1, depth):
        child = ClockGatedComponent(current, every(2), name=f"G{level}")
        dfd = DataFlowDiagram(f"L{level}")
        dfd.add_input("u")
        dfd.add_output("y")
        dfd.add_subcomponent(child)
        dfd.connect("u", f"G{level}.u")
        dfd.connect(f"G{level}.y", "y")
        current = dfd
    return current


def test_deep_gated_chain_compiles_and_runs():
    """Regression: alternating composite/clock-gate nesting (the flat IR's
    own target workload shape) must also compile and run iteratively --
    has_behavior, structure_token and the dependency analysis unwrap
    transparent gate wrappers instead of recursing through them."""
    simulator = CompiledSimulator(_deep_gated_chain(1200))
    schedule = simulator.schedule
    assert isinstance(schedule, FlatSchedule)
    # every gate became a predicate, with no correction region
    assert {op[0] for op in schedule.program} == {OP_GATE, OP_EXPR, OP_COPY}
    trace = simulator.run({"u": [1.0, 1.0, 2.0, 2.0]}, 4)
    # aligned every(2) gates: active (passthrough + 1) on even ticks only
    assert trace.output("y").values() == [2.0, ABSENT, 3.0, ABSENT]


def test_deep_gated_chain_runs_through_generated_step_variants():
    """1199 nested gate regions: the per-tick step and the observed horizon
    loop (op-profiled and flight-recording in one variant) keep every op
    at a fixed indentation (one flag per gate, each op guarded by its
    innermost flag), so they compile and agree with the default loop."""
    model = _deep_gated_chain(1200)
    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule
    stimuli = {"u": [1.0, 1.0, 2.0, 2.0]}
    expected = [2.0, ABSENT, 3.0, ABSENT]
    stepped_trace = run_stepped(model, schedule.step, stimuli, 4, False,
                                initial_state=schedule.initial_state())
    assert stepped_trace.output("y").values() == expected
    assert simulator.run(stimuli, 4).output("y").values() == expected
    with obs.session(profile_ops=True, flight_recording=True,
                     ring_ticks=2) as telemetry:
        trace = simulator.run(stimuli, 4)
    assert trace.output("y").values() == expected
    profile, = telemetry.profiles.values()
    recorder, = telemetry.recorders.values()
    assert profile.ticks == 4
    checks, skips = profile.gate_stats()
    # every gate is evaluated on even ticks; on odd ticks the outermost
    # gate is silent and skips all the others
    assert (checks, skips) == (2 * 1199 + 2, 2)
    assert [tick for tick, _ in recorder.snapshots] == [2, 3]


def test_deep_hierarchy_well_past_default_recursion_limit_round_trips():
    """~1200 levels (past the default 1000-frame limit) with two runs
    sharing one schedule: FlatState round-trips across runs."""
    model = _deep_chain(1200)
    simulator = CompiledSimulator(model)
    first = simulator.run({"u": [0.0] * 4}, 4)
    second = simulator.run({"u": [0.0] * 4}, 4)
    assert first.output("y").values() == second.output("y").values() == [1.0] * 4


# -- gated subtrees (satellite: state holding / emission suppression) ----------


@pytest.mark.parametrize("direct", [False, True])
def test_gated_mtd_holds_state_and_suppresses_emissions(direct):
    """A clock-gated MTD must react only at gate ticks, keep its mode frozen
    across skip ticks and emit nothing in between -- identically in the
    interpreter and the flat engine."""
    active_ticks = [0, 3, 4, 9]
    model = gated_mtd_system(EventClock(active_ticks), direct=direct)
    ticks = 12
    stimuli = {"x": [5.0] * 4 + [0.0] * 8}  # High at t0, back Low at t9
    reference, flat = assert_engines_agree(model, stimuli, ticks)

    mode = flat.output("mode")
    out = flat.output("out")
    for tick in range(ticks):
        if tick in active_ticks:
            assert mode[tick] is not ABSENT, tick
        else:  # silent tick: all gated outputs suppressed
            assert mode[tick] is ABSENT, tick
            assert out[tick] is ABSENT, tick
    # t0 fires Low->High (x=5); the mode is then *held* over the skipped
    # ticks 1-2 and still High at t3/t4 although x alone would not re-fire;
    # x=0 from t4 on flips it back at the next active tick.
    assert mode[0] == "High"
    assert mode[3] == "High"
    assert out[4] == 0.0 * 10
    assert mode[9] == "Low"


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("direct", [False, True])
def test_gated_mtd_differential_seeded(seed, direct):
    rng = random.Random(7000 + seed)
    kind = rng.choice(["periodic", "event"])
    if kind == "periodic":
        period = rng.choice([2, 3, 5])
        clock = every(period, phase=rng.randrange(period))
    else:
        clock = EventClock(sorted(rng.sample(range(40), rng.randint(2, 14))))
    model = gated_mtd_system(clock, direct=direct)
    ticks = rng.randint(15, 40)
    stimuli = {"x": Stream([ABSENT if rng.random() < 0.2
                            else rng.randint(-4, 6) for _ in range(ticks)])}
    assert_engines_agree(model, stimuli, ticks)


def test_gating_predicate_is_a_flat_op_for_gated_composites():
    flat = compile_flat(gated_mtd_system(every(2), direct=False))
    summary = "\n".join(flat.ops_summary())
    assert "gate" in summary          # flattened gated composite -> GATE op
    assert "[mtd]" in summary         # the MTD's hoisted mode controller

    flat_direct = compile_flat(gated_mtd_system(every(2), direct=True))
    summary = "\n".join(flat_direct.ops_summary())
    assert "gate" in summary          # gated MTD -> GATE op around it
    assert "Sys/Plant/Modes [mtd]" in summary


# -- correction regions and barriers -------------------------------------------


def test_correction_barrier_preserved_in_flat_program():
    model = accumulator_in_composite()
    flat = compile_flat(model)
    summary = "\n".join(flat.ops_summary())
    assert "correction barrier (ops 2..3)" in summary
    reference, _ = assert_engines_agree(model, {"u": [1] * 5}, 5)
    assert reference.output("y").values() == [2, 4, 6, 8, 10]


def test_late_produced_composite_is_a_correction_region():
    """A non-feedthrough composite fed by a later-scheduled producer is
    hoisted like any other, as a region the correction barrier re-runs:
    the copy of the input it saw, then its ops, whose leaves are leaves of
    the parent's program."""
    child = DataFlowDiagram("Child")
    child.add_input("u")
    child.add_output("y")
    delay = UnitDelay("Z", initial=0)
    child.add_subcomponent(delay)
    child.connect("u", "Z.in1")
    child.connect("Z.out", "y")

    parent = DataFlowDiagram("Parent")
    parent.add_input("u")
    parent.add_output("y")
    add = ExpressionComponent("A", {"out": "u0 + fb"})
    add.declare_interface_from_expressions()
    parent.add(add, child)
    parent.connect("u", "A.u0")
    parent.connect("Child.y", "A.fb")   # Child evaluated before A...
    parent.connect("A.out", "Child.u")  # ...but fed by A: late producer
    parent.connect("A.out", "y")

    flat = compile_flat(parent)
    assert [leaf.component for leaf in flat.leaves] == [delay, add]
    assert flat.ops_summary() == [
        "   0      copy  copy (1 pair)",
        "   1      copy  copy (1 pair)",
        "   2      copy  copy (1 pair)",
        "   3       run  Parent/Child/Z [atomic]",
        "   4      copy  copy (1 pair)",
        "   5      expr  Parent/A [expr]",
        "   6   correct  correction barrier (ops 1..3)"]
    # ops 1..3 re-run leaf 0 over no buffers; op 1 copies what it saw
    u, seen = flat.slot_names.index("Parent/Child.u"), \
        flat.slot_names.index("Parent/Child.u#seen")
    assert flat.program[6][1] == ((1, 4, (0, 1), (0, 0), ((u, seen),)),)
    assert flat.program[1] == (OP_COPY, ((u, seen),))
    reference, _ = assert_engines_agree(parent, {"u": [1] * 5}, 5)
    assert reference.output("y").values() == [1, 2, 3, 4, 5]


def test_non_feedthrough_composite_without_late_producer_is_flattened():
    """Without a late producer the correction provably never fires, so the
    delay-only composite can be hoisted instead of falling back."""
    child = DataFlowDiagram("Child")
    child.add_input("u")
    child.add_output("y")
    delay = UnitDelay("Z", initial=0)
    child.add_subcomponent(delay)
    child.connect("u", "Z.in1")
    child.connect("Z.out", "y")

    parent = DataFlowDiagram("Parent")
    parent.add_input("u")
    parent.add_output("y")
    pre = ExpressionComponent("A", {"out": "in1 * 2"})
    pre.declare_interface_from_expressions()
    parent.add(pre, child)
    parent.connect("u", "A.in1")
    parent.connect("A.out", "Child.u")
    parent.connect("Child.y", "y")

    flat = compile_flat(parent)
    assert all(op[0] != OP_CORRECT for op in flat.program)
    # the child's delay is an op of the parent's program
    assert "   3       run  Parent/Child/Z [atomic]" in flat.ops_summary()
    reference, _ = assert_engines_agree(parent, {"u": [1, 2, 3, 4]}, 4)
    assert reference.output("y").values() == [0, 2, 4, 6]


def tracked_chain(depth):
    """*depth* nested correction regions.  At level *n* the composite ``C``
    (level *n - 1*; a unit delay at the bottom) runs before ``A``, which
    feeds its ``u``; the delay ``D`` stores the level's own ``u`` and
    ``S`` adds ``D``'s value to ``C``'s.  ``A`` is gated to tick *n*, so
    at tick *n* one barrier re-runs level *n - 1*, and only there does a
    ``D`` store a present value -- a re-run per tick, not two per level
    and tick."""
    current = DataFlowDiagram("L0")
    current.add_input("u")
    current.add_output("y")
    current.add_subcomponent(UnitDelay("D", initial=0))
    current.connect("u", "D.in1")
    current.connect("D.out", "y")
    for level in range(1, depth + 1):
        current.name = "C"
        adder = ExpressionComponent("Add", {"out": "v0 + fb"})
        adder.declare_interface_from_expressions()
        total = ExpressionComponent("S", {"out": "d + c"})
        total.declare_interface_from_expressions()
        parent = DataFlowDiagram(f"L{level}")
        parent.add_input("u")
        parent.add_input("v")
        parent.add_output("y")
        parent.add(current, ClockGatedComponent(adder, EventClock([level]),
                                                name="A"),
                   UnitDelay("D", initial=0), total)
        if "v" in current.input_names():
            parent.connect("v", "C.v")
        parent.connect("v", "A.v0")
        parent.connect("C.y", "A.fb")   # C runs before A ...
        parent.connect("A.out", "C.u")  # ... but A feeds it
        parent.connect("u", "D.in1")
        parent.connect("D.out", "S.d")
        parent.connect("C.y", "S.c")
        parent.connect("S.out", "y")
        current = parent
    return current


def test_deep_chain_of_correction_regions_matches_the_interpreter():
    """30 correction regions nested in one linear program: each region
    holds the next one and its barrier, whose re-run calls the inner
    region's re-run.  Every backend matches the interpreter."""
    model = tracked_chain(30)
    flat = compile_flat(model)
    barriers = [(index, op[1]) for index, op in enumerate(flat.program)
                if op[0] == OP_CORRECT]
    assert len(barriers) == 30
    for (inner, (entry,)), (_outer, (outer_entry,)) in zip(barriers,
                                                           barriers[1:]):
        assert outer_entry[0] < entry[0] and inner < outer_entry[1]
    stimuli = {"u": [1.0] * 34, "v": [float(tick) for tick in range(34)]}
    expected = outcome(lambda: Simulator(model).run(stimuli, 34))
    assert len(set(expected[2]["y"])) > 20
    for simulator in compiled_simulators(model):
        assert outcome(lambda: simulator.run(stimuli, 34)) == expected, \
            simulator.backend


# -- state representation and mode observability -------------------------------


def compiled_simulators(model):
    """The model on ``flat``, and -- with a C compiler -- ``native`` and
    promoted ``auto``."""
    simulators = [CompiledSimulator(model, backend="flat")]
    if native_available():
        simulators.append(CompiledSimulator(model, backend="native"))
        promoted = CompiledSimulator(model, backend="auto")
        promoted._promote_now(force=True)  # noqa: SLF001 - test hook
        simulators.append(promoted)
    return simulators


def assert_mode_paths_track_reference(model, steps):
    """Run the interpreter and every compiled backend over the per-tick
    inputs *steps*: the histories a compiled run decodes
    (``trace.mode_paths``) must equal the walker on the reference state
    after every tick, gathered per path.  Returns the flat schedule and
    the walker's per-tick paths."""
    reference_state, observed, histories = None, [], {}
    for tick, inputs in enumerate(steps):
        _, reference_state = model.react(inputs, reference_state, tick)
        paths = active_mode_paths(model, reference_state)
        observed.append(paths)
        for path, mode in paths.items():
            histories.setdefault(path, []).append(mode)
    stimuli = {name: [inputs.get(name, ABSENT) for inputs in steps]
               for name in model.input_names()}
    simulators = compiled_simulators(model)
    for simulator in simulators:
        trace = simulator.run(stimuli, len(steps))
        assert trace.mode_paths == histories, simulator.backend
    return simulators[0].schedule, observed


def planned_paths(flat):
    return [flat.leaves[index].mode_path for index, _slot in flat.readout_spec]


GATED_MTD_STIMULI = [{"x": value} for value in
                     [5.0, 0.0, 3.0, 0.5, ABSENT, 2.5, 0.0, 4.0]]


def test_mode_paths_matches_reference_state_walk():
    model = gated_mtd_system(every(2), direct=False)
    flat, _ = assert_mode_paths_track_reference(model, GATED_MTD_STIMULI)
    assert planned_paths(flat) == ["Sys/Plant/Modes"]


def test_mode_paths_matches_reference_state_walk_bare_mtd():
    model = gated_mtd_system(every(2), direct=True)
    flat, _ = assert_mode_paths_track_reference(model, GATED_MTD_STIMULI)
    assert planned_paths(flat) == ["Sys/Plant"]


def chain_ccd(blocks):
    """The rate-banded expression chain clustered into a gated CCD (the
    campaign benchmark's machine-free workload shape)."""
    from repro.transformations.clustering import cluster_by_clock
    dfd = DataFlowDiagram(f"Chain{blocks}")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = "u"
    for index in range(blocks):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        block.annotate("rate", 1 if index < blocks // 2 else 10)
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"B{index}.in1")
        previous = f"B{index}.out"
    delay = UnitDelay("Z")
    delay.annotate("rate", 10)
    dfd.add_subcomponent(delay)
    dfd.connect(previous, "Z.in1")
    dfd.connect(previous, "y")
    ccd, _ = cluster_by_clock(dfd)
    return build_gated_ccd(ccd)


def std_in_mode_mtd():
    """An MTD whose ``High`` mode runs an STD: the STD's path exists only
    while the MTD is in ``High``."""
    seq = StateTransitionDiagram("Seq")
    seq.add_input("x")
    seq.add_output("out")
    seq.add_state("Idle", emissions={"out": "x"})
    seq.add_state("Busy", emissions={"out": "x * 2"})
    seq.add_transition("Idle", "Busy", "x > 4")
    seq.add_transition("Busy", "Idle", "x < 3")
    mtd = ModeTransitionDiagram("Modes")
    mtd.add_input("x")
    mtd.add_output("out")
    low = ExpressionComponent("LowB", {"out": "x * 1"})
    low.declare_interface_from_expressions()
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", seq)
    mtd.add_transition("Low", "High", "x > 2")
    mtd.add_transition("High", "Low", "x < 1")
    system = DataFlowDiagram("Sys")
    system.add_input("x")
    system.add_output("out")
    system.add_subcomponent(mtd)
    system.connect("x", "Modes.x")
    system.connect("Modes.out", "out")
    return system


def std_in_tracked_composite():
    """An STD inside ``Child``, a correction region: the composite is
    non-feedthrough (the STD reads the delayed value) and fed by the
    later-scheduled ``A``."""
    seq = StateTransitionDiagram("Seq")
    seq.add_input("x")
    seq.add_output("out")
    seq.add_state("Calm", emissions={"out": "0"})
    seq.add_state("Hot", emissions={"out": "1"})
    seq.add_transition("Calm", "Hot", "x > 3")
    seq.add_transition("Hot", "Calm", "x < 2")
    child = DataFlowDiagram("Child")
    child.add_input("u")
    child.add_output("y")
    child.add_output("s")
    child.add(UnitDelay("Z", initial=0), seq)
    child.connect("u", "Z.in1")
    child.connect("Z.out", "y")
    child.connect("Z.out", "Seq.x")
    child.connect("Seq.out", "s")

    parent = DataFlowDiagram("Parent")
    parent.add_input("u")
    parent.add_output("y")
    parent.add_output("s")
    add = ExpressionComponent("A", {"out": "u0 + fb"})
    add.declare_interface_from_expressions()
    parent.add(add, child)
    parent.connect("u", "A.u0")
    parent.connect("Child.y", "A.fb")
    parent.connect("A.out", "Child.u")
    parent.connect("A.out", "y")
    parent.connect("Child.s", "s")
    return parent


def test_machine_free_schedule_has_an_empty_mode_plan():
    model = chain_ccd(60)
    flat, observed = assert_mode_paths_track_reference(
        model, [{"u": float(tick)} for tick in range(12)])
    assert len(flat.leaves) == 61
    assert flat.readout_spec == ()
    assert observed == [{}] * 12
    result, = run_sharded(model, [Scenario("walk", {"u": [1.0] * 12}, 12)],
                          executor="serial", collect_modes=True)
    assert result.ok and result.mode_paths == {}


def test_mode_plan_walks_std_inside_mtd_mode():
    model = std_in_mode_mtd()
    flat, observed = assert_mode_paths_track_reference(
        model, [{"x": value} for value in [0, 3, 5, 5, 3.5, 2, 0.5, 0, 6]])
    # the STD is hoisted into the High region: a leaf of the plan, read
    # only while its controller is in High
    assert planned_paths(flat) == ["Sys/Modes", "Sys/Modes/High"]
    assert "Sys/Modes/High" in set().union(*observed)


def test_mode_plan_walks_machine_inside_correction_region():
    model = std_in_tracked_composite()
    flat, observed = assert_mode_paths_track_reference(
        model, [{"u": value} for value in [1, 1, 1, 1, -4, -4, 1, 1]])
    assert "   7   correct  correction barrier (ops 1..4)" \
        in flat.ops_summary()
    assert planned_paths(flat) == ["Parent/Child/Seq"]
    assert {paths["Parent/Child/Seq"] for paths in observed} \
        == {"Calm", "Hot"}


def test_mode_paths_appear_and_disappear_with_the_active_mode():
    model = std_in_mode_mtd()
    values = [0, 3, 5, 5, 0.5, 0, 3, 6]
    _, observed = assert_mode_paths_track_reference(
        model, [{"x": value} for value in values])
    present = ["Sys/Modes/High" in paths for paths in observed]
    assert present == [False, True, True, True, False, False, True, True]
    scenario = [Scenario("switch", {"x": values}, len(values))]
    histories = run_sharded(model, scenario, executor="serial",
                            collect_modes=True, backend="flat")[0].mode_paths
    # the interpreter walk, tick by tick
    state, expected = None, {}
    for tick, value in enumerate(values):
        _, state = model.react({"x": value}, state, tick)
        for path, mode in active_mode_paths(model, state).items():
            expected.setdefault(path, []).append(mode)
    assert histories == expected
    assert len(histories["Sys/Modes"]) == len(values)
    assert len(histories["Sys/Modes/High"]) == sum(present)


def test_sharded_collect_modes_observes_flat_states():
    model = gated_mtd_system(every(2), direct=False)
    stimuli = {"x": [5.0, 0.0, 3.0, 0.0, 0.0, 2.8, 0.0, 4.0]}
    results = run_sharded(model, [Scenario("sweep", stimuli, 8)],
                          executor="serial", collect_modes=True)
    assert results[0].ok
    histories = results[0].mode_paths
    assert set(histories) == {"Sys/Plant/Modes"}
    # per-tick history equals the reference engine's state walk
    state, expected = None, []
    for tick in range(8):
        _, state = model.react({"x": stimuli["x"][tick]}, state, tick)
        expected.append(active_mode_paths(model, state)["Sys/Plant/Modes"])
    assert histories["Sys/Plant/Modes"] == expected


# -- acceptance: suite verification on the deep gated workload -----------------


def _deep_gated_controller(depth):
    """The bench_flatten workload shape (kept in sync by construction)."""
    def level(d):
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
        dfd.connect("Post.out", "Z.in1")
        dfd.connect("Z.out", "Post.in2")
        dfd.connect("Post.out", "y")
        return dfd
    return level(depth)


def test_scenario_suite_verifies_deep_gated_workload():
    model = _deep_gated_controller(4)
    suite = ScenarioSuite(model)
    assert isinstance(suite.simulator.schedule, FlatSchedule)
    suite.add("steady", {"u": [1.0] * 40}, ticks=40)
    suite.add("ramp", {"u": [0.5 * tick for tick in range(30)]}, ticks=30)
    suite.add("gaps", {"u": Stream([1.0, ABSENT] * 15)}, ticks=30)
    differences = suite.verify_against_reference()
    assert all(diff is None for diff in differences.values()), differences


# -- introspection alignment (pinned for the static verifier and profiler) --


def _introspection_models():
    from repro.casestudy.engine_control import build_engine_ccd
    from repro.casestudy.momentum import build_momentum_controller
    return [build_momentum_controller(), build_engine_ccd(),
            build_gated_ccd(build_engine_ccd()), _deep_gated_controller(3)]


def test_op_labels_align_with_program_and_summary():
    from repro.simulation.schedule_ir import _OP_NAMES
    for model in _introspection_models():
        schedule = compile_flat(model)
        labels = schedule.op_labels()
        summary = schedule.ops_summary()
        assert len(labels) == len(schedule.program) == len(summary)
        for op, (kind, label), line in zip(schedule.program, labels,
                                           summary):
            assert kind == _OP_NAMES[op[0]]
            assert label
            # the summary line for the same op names the same leaf/detail
            assert line.endswith(f" {kind}  {label}")


def test_slot_names_cover_every_slot_and_match_specs():
    for model in _introspection_models():
        schedule = compile_flat(model)
        assert len(schedule.slot_names) == schedule.n_slots
        for name, slot in schedule.input_spec + schedule.output_spec:
            assert schedule.slot_names[slot].endswith(f".{name}"), (
                model.name, name, slot, schedule.slot_names[slot])


# -- whole-horizon runs ---------------------------------------------------------
#
# ``CompiledSimulator.run`` drives a flat schedule through one generated
# horizon loop; ``run_stepped`` over ``schedule.step`` is the per-tick path
# it replaces, and every outcome -- trace, value types, error type,
# message and the error that wins -- must be the stepped one.


def precedence_model():
    """``y = 100 / (10 - x)`` typed ``float[0..50]`` on ``x: int[0..20]``:
    ``x = 10`` is a step error, ``y`` above 50 an output type failure and
    ``x`` above 20 an input type failure."""
    dfd = DataFlowDiagram("Precedence")
    dfd.add_input("x", IntType(0, 20))
    dfd.add_output("y", FloatType(0.0, 50.0))
    block = ExpressionComponent("D", {"out": "100 / (10 - a)"})
    block.add_input("a")
    block.add_output("out")
    dfd.add(block, UnitDelay("Z", initial=0))
    dfd.connect("x", "D.a")
    dfd.connect("D.out", "Z.in1")
    dfd.connect("D.out", "y")
    return dfd


def sink_model():
    """A root without outputs: its input feeds a delay nobody reads."""
    dfd = DataFlowDiagram("Sink")
    dfd.add_input("u")
    dfd.add(UnitDelay("Z", initial=0))
    dfd.connect("u", "Z.in1")
    return dfd


def delayed_feedback():
    """A running sum fed back over a delayed channel (a buffer, not a
    leaf state, carries it across ticks)."""
    dfd = DataFlowDiagram("DelayedSum")
    dfd.add_input("u")
    dfd.add_output("y")
    add = ExpressionComponent("ADD", {"out": "a + b"})
    add.declare_interface_from_expressions()
    dfd.add(add)
    dfd.connect("u", "ADD.a")
    dfd.connect("ADD.out", "ADD.b", delayed=True, initial_value=0)
    dfd.connect("ADD.out", "y")
    return dfd


def raising_at(values, tick):
    """A callable stimulus failing when asked for *tick*."""
    def stimulus(at):
        if at == tick:
            raise ValueError(f"stimulus exhausted at {at}")
        return values[at]
    return stimulus


def outcome(run):
    """What a run leaves: the typed trace, or the error's type and text."""
    try:
        trace = run()
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)
    def typed(streams):
        return {port: [(type(value), value) for value in stream]
                for port, stream in streams.items()}
    return (trace.ticks, typed(trace.inputs), typed(trace.outputs),
            trace.mode_history)


def stepped(simulator, stimuli, ticks, observe=None):
    """The per-tick reference: ``run_stepped`` over ``schedule.step``,
    handing *observe* the state after every tick."""
    schedule = simulator.schedule
    step = schedule.step
    if observe is not None:
        def step(inputs, state, tick, inner=schedule.step):
            outputs, state = inner(inputs, state, tick)
            observe(state)
            return outputs, state
    return run_stepped(simulator.component, step, stimuli, ticks,
                       simulator.check_types,
                       initial_state=schedule.initial_state())


def failing_horizon(run):
    """The smallest horizon ``run(ticks)`` raises at."""
    horizon = 0
    while True:
        try:
            run(horizon)
        except Exception:  # noqa: BLE001 - probing for the first failure
            return horizon
        horizon += 1


def assert_horizon_matches_stepped(simulator, stimuli, ticks):
    assert simulator.schedule.kind == "flat"
    horizon = outcome(lambda: simulator.run(stimuli, ticks))
    assert horizon == outcome(lambda: stepped(simulator, stimuli, ticks))
    return horizon


HORIZON_ERROR_CASES = {
    # division by zero at tick 3, stimulus failure at tick 6
    "step_error": ({"x": raising_at([1, 2, 3, 10, 4, 5, 6, 7], 6)},
                   ExpressionEvalError),
    # y = 100 / (10 - 9) = 100 > 50 at tick 1 beats the error at tick 4
    "output_check_before_step": ({"x": Stream([1, 9, 2, 3, 10, 4])},
                                 TypeCheckError),
    # x = 25 is outside int[0..20] at tick 5, after five healthy ticks
    "deferred_input_check": ({"x": Stream([1, 2, 3, 4, 5, 25, 6, 7])},
                             TypeCheckError),
    # a stimulus draw failing at tick 4 is raised after ticks 0..3 ran
    "deferred_stimulus": ({"x": raising_at([1, 2, 3, 4, 5, 6], 4)},
                          ValueError),
}


@pytest.mark.parametrize("case", sorted(HORIZON_ERROR_CASES))
def test_horizon_raises_the_stepped_error(case):
    stimuli, expected = HORIZON_ERROR_CASES[case]
    simulator = CompiledSimulator(precedence_model(), check_types=True,
                                  backend="flat")
    result = assert_horizon_matches_stepped(simulator, stimuli, 8)
    assert result[0] is expected


def test_horizon_step_error_ends_the_run_at_the_failing_tick():
    simulator = CompiledSimulator(precedence_model(), backend="flat")
    stimuli = {"x": Stream([1, 2, 3, 10, 4])}
    with pytest.raises(ExpressionEvalError):
        simulator.run(stimuli, 5)
    with pytest.raises(ExpressionEvalError):
        stepped(simulator, stimuli, 5)
    # x = 10 divides by zero at tick 3: ticks 0..2 run clean
    assert failing_horizon(lambda ticks: simulator.run(stimuli, ticks)) \
        == failing_horizon(lambda ticks: stepped(simulator, stimuli, ticks)) \
        == 4


def test_horizon_of_zero_ticks_records_nothing():
    simulator = CompiledSimulator(precedence_model(), backend="flat")
    trace = simulator.run({"x": [1, 2]}, 0)
    assert (trace.ticks, trace.inputs, trace.outputs) == (0, {}, {})
    assert (trace.mode_paths, trace.mode_history) == ({}, [])
    assert_horizon_matches_stepped(simulator, {"x": [1, 2]}, 0)


def test_horizon_of_a_root_without_outputs():
    simulator = CompiledSimulator(sink_model(), backend="flat")
    assert simulator.schedule.output_spec == ()
    _ticks, inputs, outputs, _modes = assert_horizon_matches_stepped(
        simulator, {"u": [1, 2.5, ABSENT, 4]}, 6)
    assert outputs == {}
    assert [value for _type, value in inputs["u"]] \
        == [1, 2.5, ABSENT, 4, ABSENT, ABSENT]


@pytest.mark.parametrize("model", [
    lambda: gated_mtd_system(every(2), direct=False),
    lambda: _deep_gated_chain(6),
    accumulator_in_composite,
    delayed_feedback,
], ids=["gated_mtd", "nested_gates", "correction_barrier", "delayed"])
def test_horizon_runs_gated_correction_and_buffered_programs(model):
    component = model()
    simulator = CompiledSimulator(component, backend="flat")
    summary = "\n".join(simulator.schedule.ops_summary())
    assert any(kind in summary for kind in ("gate", "correct", "buf_"))
    rng = random.Random(7)
    stimuli = {name: [rng.choice([ABSENT, 0.0, 0.5, 2.0, 3.5])
                      for _ in range(30)]
               for name in component.input_names()}
    assert_horizon_matches_stepped(simulator, stimuli, 30)
    reference = Simulator(component).run(stimuli, 30)
    assert first_difference(reference, simulator.run(stimuli, 30)) is None


def test_horizon_readouts_match_every_tick_state():
    """The horizon loop's readout column of the gated MTD's controller
    holds its state after each tick it ran and ABSENT on each tick its
    gate skipped; decoded, it is the history of the stepped states."""
    model = gated_mtd_system(every(2), direct=False)
    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule
    stimuli = {"x": [5.0, 0.0, 3.0, 0.0, 0.0, 2.8, 0.0, 4.0, 1.0]}
    reference = []
    stepped(simulator, stimuli, 9, observe=reference.append)
    assert all(type(state) is FlatState for state in reference)
    (index, _slot), = schedule.readout_spec
    completed, error, columns = schedule._enter_horizon(  # noqa: SLF001
        [stimuli["x"]], 9)
    assert (completed, error) == (9, None)
    readout = columns[len(schedule.output_spec)]
    assert readout == [state.leaf_states[index] if tick % 2 == 0 else ABSENT
                       for tick, state in enumerate(reference)]
    trace = simulator.run(stimuli, 9)
    assert trace.mode_paths == {"Sys/Plant/Modes": [
        state.leaf_states[index]["mode"] for state in reference]}


def test_gated_horizon_reads_its_gates_from_the_cached_plane(monkeypatch):
    """The gate predicates run once per tick of the longest horizon so
    far: later horizon runs read the cached gate plane, traces unchanged."""
    calls = []
    at = PatternCache.at

    def counting(self, tick):
        calls.append(tick)
        return at(self, tick)

    monkeypatch.setattr(PatternCache, "at", counting)
    model = chain_ccd(60)
    simulator = CompiledSimulator(model, backend="flat")
    stimuli = {"u": [float(tick % 7) for tick in range(40)]}
    traces = [simulator.run(stimuli, 40)]
    assert len(calls) == 40 * len(simulator.schedule.gate_predicates)
    calls.clear()
    traces += [simulator.run(stimuli, 40), simulator.run(stimuli, 25)]
    assert calls == []
    reference = Simulator(model)
    for trace in traces:
        assert first_difference(reference.run(stimuli, trace.ticks),
                                trace) is None


def test_horizon_loop_is_generated_on_first_run_and_kept():
    simulator = CompiledSimulator(precedence_model(), backend="flat")
    schedule = simulator.schedule
    assert schedule._horizon is None  # noqa: SLF001 - lazy by contract
    simulator.run({"x": [1, 2]}, 2)
    horizon = schedule._horizon  # noqa: SLF001
    assert horizon is not None
    simulator.run({"x": [3]}, 1)
    assert schedule._horizon is horizon  # noqa: SLF001


def test_threads_racing_to_generate_the_horizon_agree():
    model = gated_mtd_system(every(2), direct=False)
    stimuli = {"x": [5.0, 0.0, 3.0, 0.0, 0.0, 2.8, 0.0, 4.0]}
    expected = outcome(lambda: Simulator(model).run(stimuli, 8))
    simulator = CompiledSimulator(model, backend="flat")
    results, barrier = [], threading.Barrier(6)

    def worker():
        barrier.wait(timeout=60)
        for _ in range(20):
            results.append(outcome(lambda: simulator.run(stimuli, 8)))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 120
    assert all(result == expected for result in results)


@pytest.fixture()
def step_forbidden(monkeypatch):
    """Every flat schedule built from here on raises when stepped, and so
    does every native schedule."""
    built = []
    original = FlatSchedule.__init__

    def step(inputs, state, tick):
        raise AssertionError("the per-tick step ran")

    def forbidding_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.step = step
        built.append(self)

    monkeypatch.setattr(FlatSchedule, "__init__", forbidding_init)
    monkeypatch.setattr(NativeSchedule, "step",
                        lambda self, inputs, state, tick: step(inputs, state,
                                                                tick))
    return built


def test_default_flat_campaign_never_steps_per_tick(step_forbidden):
    model = gated_mtd_system(every(2), direct=False)
    scenarios = [Scenario(f"s{index}", {"x": [float(index), 3.0, 0.0]}, 6)
                 for index in range(4)]
    results = run_sharded(model, scenarios, executor="serial",
                          collect_modes=True, backend="flat")
    assert step_forbidden and all(result.ok for result in results)
    assert all(len(result.trace.outputs["out"]) == 6 for result in results)
    assert all(result.mode_paths for result in results)


def test_default_campaign_never_generates_a_per_tick_step(monkeypatch):
    """The per-tick step is generated on first access, and a default
    campaign never asks for it: only horizon loops are generated."""
    from repro.simulation import op_emit
    generated = []
    original = op_emit.flat_step

    def recording(flat, *args, **kwargs):
        generated.append(kwargs.get("horizon", False))
        return original(flat, *args, **kwargs)

    monkeypatch.setattr(op_emit, "flat_step", recording)
    model = gated_mtd_system(every(2), direct=False)
    # a name no other test's model has: rebuilt models share cache keys
    model.name = "NoPerTickStep"
    scenarios = [Scenario(f"s{index}", {"x": [float(index), 3.0, 0.0]}, 6)
                 for index in range(4)]
    results = run_sharded(model, scenarios, executor="serial",
                          collect_modes=True)
    assert all(result.ok for result in results)
    assert generated == [True]
    schedule = compile_flat(model)
    assert generated == [True]
    assert schedule.step is schedule.step
    assert generated == [True, False]


def test_spans_only_session_stays_on_the_horizon(step_forbidden):
    model = accumulator_in_composite()
    simulator = CompiledSimulator(model, backend="flat")
    with obs.session() as telemetry:
        trace = simulator.run({"u": [1] * 5}, 5)
    assert trace.output("y").values() == [2, 4, 6, 8, 10]
    assert [span.name for span in telemetry.tracer.roots] == ["run"]


def test_profiled_session_takes_the_horizon_loop(step_forbidden):
    simulator = CompiledSimulator(accumulator_in_composite(), backend="flat")
    with obs.session(profile_ops=True) as telemetry:
        trace = simulator.run({"u": [1] * 5}, 5)
    assert trace.output("y").values() == [2, 4, 6, 8, 10]
    profile, = telemetry.profiles.values()
    assert profile.ticks == 5
    # the session's observed loop ran, not the default one
    assert simulator.schedule._horizon is None  # noqa: SLF001


OBSERVING_SESSIONS = {"profile": {"profile_ops": True},
                      "record": {"flight_recording": True},
                      "both": {"profile_ops": True,
                               "flight_recording": True}}


@pytest.mark.parametrize("backend", ["flat", "native", "auto"])
@pytest.mark.parametrize("session", sorted(OBSERVING_SESSIONS))
def test_observed_runs_never_step_per_tick(step_forbidden, backend, session,
                                           tmp_path):
    """Op profiling and flight recording run the observed variant of the
    horizon loop on every backend (a native or promoted simulator on its
    wrapped flat program), never a per-tick step."""
    if backend != "flat" and not native_available():
        pytest.skip("no C compiler")
    model = gated_mtd_system(every(2), direct=False)
    stimuli = {"x": [5.0, 0.0, 3.0, 0.0, 0.0, 2.8, 0.0, 4.0]}
    expected = outcome(lambda: Simulator(model).run(stimuli, 8))
    simulator = CompiledSimulator(model, backend=backend)
    if backend == "auto":
        simulator._promote_now(force=True)  # noqa: SLF001 - test hook
        simulator.run(stimuli, 8)
        assert simulator._native is not None  # noqa: SLF001
    assert step_forbidden
    config = OBSERVING_SESSIONS[session]
    with obs.session(postmortem_dir=str(tmp_path), ring_ticks=3,
                     **config) as telemetry:
        traces = [simulator.run(stimuli, 8) for _ in range(2)]
    assert all(outcome(lambda: trace) == expected for trace in traces)
    assert "native.runs" not in telemetry.registry.counter_values("")
    if "profile_ops" in config:
        profile, = telemetry.profiles.values()
        assert profile.ticks == 16
    if "flight_recording" in config:
        recorder, = telemetry.recorders.values()
        assert [tick for tick, _ in recorder.snapshots] == [5, 6, 7]


@pytest.mark.parametrize("case", sorted(HORIZON_ERROR_CASES))
def test_observed_loop_covers_exactly_the_stepped_ticks(case):
    """Profiled and recorded, a type-checked run raises the stepped error
    and observes exactly the ticks a stepped run executes: an output
    type failure at tick o stops the loop after tick o."""
    stimuli, expected = HORIZON_ERROR_CASES[case]
    simulator = CompiledSimulator(precedence_model(), check_types=True,
                                  backend="flat")
    executed = []
    reference = outcome(lambda: stepped(simulator, stimuli, 8,
                                        observe=executed.append))
    with obs.session(profile_ops=True, flight_recording=True,
                     ring_ticks=16) as telemetry:
        observed = outcome(lambda: simulator.run(stimuli, 8))
    assert observed == reference and observed[0] is expected
    profile, = telemetry.profiles.values()
    recorder, = telemetry.recorders.values()
    assert profile.ticks == len(executed)
    assert [tick for tick, _ in recorder.snapshots] \
        == list(range(len(executed)))

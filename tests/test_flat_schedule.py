"""Flat schedule IR: backend selection, naming contract, deep hierarchies,
gating predicates, correction barriers and mode observability.

The differential suites in ``tests/test_compiled_equivalence.py`` and the
golden traces already run on the flat path (it is what
:func:`repro.simulation.compile_component` now produces for flattenable
roots); this module pins the *contracts* of the new layer: which roots
flatten, that ``linear_steps``/``describe`` keep the nested naming format,
that compilation is iterative (5000-level regression), that clock-gated
subtrees hold state and suppress emissions across skip ticks exactly like
the interpreter, and that the nested fallback and correction barrier
appear exactly where the semantics require them.
"""

import random

import pytest

from repro.core.components import ExpressionComponent
from repro.core.clocks import EventClock, every
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import Gain, UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              FlatSchedule, FlatState, ScenarioSuite,
                              Simulator, build_gated_ccd, compile_component,
                              compile_flat, compile_nested, first_difference,
                              is_flattenable)


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
    ``direct=True`` gates the MTD itself (the whole wrapper stays a nested
    ``gated`` leaf).  Both must match the interpreter tick for tick.
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


def test_compile_component_selects_flat_for_flattenable_roots():
    model = accumulator_in_composite()
    assert is_flattenable(model)
    assert isinstance(compile_component(model), FlatSchedule)

    gated = ClockGatedComponent(accumulator_in_composite(), every(2))
    assert is_flattenable(gated)
    assert isinstance(compile_component(gated), FlatSchedule)

    mtd = modes_mtd()
    assert not is_flattenable(mtd)
    assert compile_component(mtd).kind == "mtd"

    gated_mtd = ClockGatedComponent(modes_mtd(), every(2))
    assert not is_flattenable(gated_mtd)
    assert compile_component(gated_mtd).kind == "gated"


def test_custom_react_composite_is_not_flattened():
    class TracingDFD(DataFlowDiagram):
        def react(self, inputs, state, tick):
            return super().react(inputs, state, tick)

    model = TracingDFD("Custom")
    model.add_input("u")
    model.add_output("y")
    gain = Gain("G", 3.0)
    model.add_subcomponent(gain)
    model.connect("u", "G.in1")
    model.connect("G.out", "y")
    assert not is_flattenable(model)
    assert compile_component(model).kind == "atomic"
    reference = Simulator(model).run({"u": [1, 2, 3]}, 3)
    compiled = CompiledSimulator(model).run({"u": [1, 2, 3]}, 3)
    assert first_difference(reference, compiled) is None


def test_compile_flat_rejects_unflattenable_roots():
    from repro.core.errors import SimulationError
    with pytest.raises(SimulationError, match="not flattenable"):
        compile_flat(modes_mtd())
    with pytest.raises(SimulationError, match="unknown schedule backend"):
        CompiledSimulator(accumulator_in_composite(), backend="turbo")


# -- naming contract (satellite: linear_steps/describe stay stable) ------------


def test_linear_steps_pin_exact_format():
    schedule = compile_flat(accumulator_in_composite())
    assert schedule.linear_steps() == [
        ("Outer", "composite"),
        ("Outer/Inner", "composite"),
        ("Outer/Inner/Z", "atomic"),
        ("Outer/Inner/ADD", "atomic"),
        ("Outer/G", "atomic"),
    ]
    assert schedule.linear_steps("Top") == [
        ("Top/Outer", "composite"),
        ("Top/Outer/Inner", "composite"),
        ("Top/Outer/Inner/Z", "atomic"),
        ("Top/Outer/Inner/ADD", "atomic"),
        ("Top/Outer/G", "atomic"),
    ]
    # describe() pins the exact rendering: right-aligned kind, two spaces,
    # hierarchical path -- the format debug tooling greps for.
    assert schedule.describe() == (
        " composite  Outer\n"
        " composite  Outer/Inner\n"
        "    atomic  Outer/Inner/Z\n"
        "    atomic  Outer/Inner/ADD\n"
        "    atomic  Outer/G")


@pytest.mark.parametrize("direct", [False, True])
def test_linear_steps_match_nested_engine_exactly(direct):
    model = gated_mtd_system(every(3), direct=direct)
    flat = compile_flat(model)
    nested = compile_nested(model)
    assert flat.linear_steps() == nested.linear_steps()
    assert flat.describe() == nested.describe()


def test_linear_steps_match_nested_engine_on_gated_ccd(engine_ccd):
    gated = build_gated_ccd(engine_ccd)
    flat = compile_flat(gated)
    assert flat.linear_steps() == compile_nested(gated).linear_steps()


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
    assert schedule.fallback_paths == []   # every gate became a predicate
    trace = simulator.run({"u": [1.0, 1.0, 2.0, 2.0]}, 4)
    # aligned every(2) gates: active (passthrough + 1) on even ticks only
    assert trace.output("y").values() == [2.0, ABSENT, 3.0, ABSENT]


def test_deep_gated_chain_runs_through_generated_step_variants():
    """1199 nested gate regions: the generated profiled and flight-recording
    steps keep every op at a fixed indentation (one flag per gate, each op
    guarded by its innermost flag), so they compile and agree with the
    default step."""
    from repro.obs.profile import OpProfile
    from repro.obs.recorder import FlightRecorder
    from repro.simulation.engine import run_stepped

    model = _deep_gated_chain(1200)
    schedule = compile_flat(model)
    stimuli = {"u": [1.0, 1.0, 2.0, 2.0]}
    profile = OpProfile("chain", schedule.op_labels())
    recorder = FlightRecorder(schedule, capacity=2)
    for step in (schedule.step, schedule.instrumented_step(profile),
                 schedule.recording_step(recorder)):
        trace = run_stepped(model, step, stimuli, 4, False,
                            initial_state=schedule.initial_state())
        assert trace.output("y").values() == [2.0, ABSENT, 3.0, ABSENT]
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
    assert "[mtd]" in summary         # the MTD inside it is a hoisted leaf
    assert flat.fallback_paths == []

    flat_direct = compile_flat(gated_mtd_system(every(2), direct=True))
    summary = "\n".join(flat_direct.ops_summary())
    assert "gate" not in summary      # gated MTD stays one nested leaf
    assert "[nested]" in summary
    assert flat_direct.fallback_paths == ["Sys/Plant"]


# -- correction barriers and nested fallback -----------------------------------


def test_correction_barrier_preserved_in_flat_program():
    model = accumulator_in_composite()
    flat = compile_flat(model)
    summary = "\n".join(flat.ops_summary())
    assert "correct" in summary
    assert "(correction-tracked)" in summary
    reference, _ = assert_engines_agree(model, {"u": [1] * 5}, 5)
    assert reference.output("y").values() == [2, 4, 6, 8, 10]


def test_late_produced_composite_falls_back_to_nested():
    """A non-feedthrough composite fed by a later-scheduled producer must
    stay a nested leaf so the correction barrier can re-run it atomically."""
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
    assert flat.fallback_paths == ["Parent/Child"]
    # the naming contract holds even for fallback subtrees
    assert flat.linear_steps() == compile_nested(parent).linear_steps()
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
    assert flat.fallback_paths == []
    assert ("Parent/Child", "composite") in flat.linear_steps()
    reference, _ = assert_engines_agree(parent, {"u": [1, 2, 3, 4]}, 4)
    assert reference.output("y").values() == [0, 2, 4, 6]


# -- state representation and mode observability -------------------------------


def test_flat_step_accepts_nested_initial_state():
    model = accumulator_in_composite()
    flat = compile_flat(model)
    inputs = {"u": 1}
    from_nested = flat.step(inputs, model.initial_state(), 0)
    from_flat = flat.step(inputs, flat.initial_state(), 0)
    from_none = flat.step(inputs, None, 0)
    assert from_nested[0] == from_flat[0] == from_none[0]
    assert isinstance(from_nested[1], FlatState)


def test_mode_paths_matches_reference_state_walk():
    from repro.scenarios.report import active_mode_paths
    model = gated_mtd_system(every(2), direct=False)
    flat = compile_flat(model)
    reference_state, flat_state = None, flat.initial_state()
    stimuli = [5.0, 0.0, 3.0, 0.5, ABSENT, 2.5, 0.0, 4.0]
    for tick, value in enumerate(stimuli):
        inputs = {"x": value}
        _, reference_state = model.react(inputs, reference_state, tick)
        _, flat_state = flat.step(inputs, flat_state, tick)
        assert flat.mode_paths(flat_state) == \
            active_mode_paths(model, reference_state), tick


def test_sharded_collect_modes_observes_flat_states():
    from repro.scenarios import Scenario, run_sharded
    model = gated_mtd_system(every(2), direct=False)
    stimuli = {"x": [5.0, 0.0, 3.0, 0.0, 0.0, 2.8, 0.0, 4.0]}
    results = run_sharded(model, [Scenario("sweep", stimuli, 8)],
                          executor="serial", collect_modes=True)
    assert results[0].ok
    histories = results[0].mode_paths
    assert set(histories) == {"Sys/Plant/Modes"}
    # per-tick history equals the reference engine's state walk
    from repro.scenarios.report import active_mode_paths
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
        for op, (kind, label, nested), line in zip(schedule.program,
                                                   labels, summary):
            assert kind == _OP_NAMES[op[0]]
            assert label
            # the summary line for the same op names the same leaf/detail
            assert f" {kind} " in f" {line} " or kind in line
            if nested:
                assert "[nested]" in label


def test_describe_matches_linear_steps():
    for model in _introspection_models():
        schedule = compile_flat(model)
        lines = schedule.describe().splitlines()
        steps = schedule.linear_steps()
        assert len(lines) == len(steps)
        for line, (path, kind) in zip(lines, steps):
            assert path in line and kind in line


def test_slot_names_cover_every_slot_and_match_specs():
    for model in _introspection_models():
        schedule = compile_flat(model)
        assert len(schedule.slot_names) == schedule.n_slots
        for name, slot in schedule.input_spec + schedule.output_spec:
            assert schedule.slot_names[slot].endswith(f".{name}"), (
                model.name, name, slot, schedule.slot_names[slot])

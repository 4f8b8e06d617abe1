"""Differential tests: the compiled engine is trace-equivalent to the interpreter.

Randomized component diagrams (DFD/SSD topologies with delayed and
instantaneous channels, nested composites, feedback through delays,
multirate CCDs, mode-transition diagrams, periodic/sampled/event gating) are
executed by both the reference :class:`~repro.simulation.engine.Simulator`
and the :class:`~repro.simulation.compiled.CompiledSimulator`; traces must
be tick-for-tick identical, including ``mode_history``.

All generators are seeded (``random.Random(seed)``) so failures reproduce
deterministically; re-run a failing case with its seed from the test id.
"""

import random

import pytest

from repro.core.clocks import EventClock, SampledClock, every
from repro.core.components import ExpressionComponent, FunctionComponent
from repro.core.types import FloatType
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import Add, Gain, Hold, UnitDelay
from repro.notations.ccd import Cluster, ClusterCommunicationDiagram
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.ssd import SSDComponent
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              ScenarioSuite, Simulator, first_difference,
                              simulate, simulate_ccd, simulate_ccd_compiled,
                              simulate_compiled, streams_equal)

FAST_SEEDS = range(6)
SLOW_SEEDS = range(6, 30)


def assert_engines_agree(component, stimuli, ticks, check_types=False):
    """Run both engines and fail with the first differing (signal, tick)."""
    reference = Simulator(component, check_types=check_types).run(stimuli, ticks)
    compiled = CompiledSimulator(component, check_types=check_types).run(
        stimuli, ticks)
    difference = first_difference(reference, compiled)
    assert difference is None, (
        f"engines diverge on {component.name!r}: {difference}")
    # inputs and presence bookkeeping must match too, not just outputs
    assert sorted(reference.inputs) == sorted(compiled.inputs)
    for name, stream in reference.inputs.items():
        assert streams_equal(stream, compiled.inputs[name]), name
    assert reference.mode_history == compiled.mode_history
    assert reference.ticks == compiled.ticks
    return reference, compiled


# -- randomized model generators -------------------------------------------------


def random_dataflow(rng, name="R", depth=0, delayed_default=False):
    """A random (possibly hierarchical) composite with feedback via delays."""
    diagram_class = SSDComponent if delayed_default else DataFlowDiagram
    dfd = diagram_class(name)
    n_inputs = rng.randint(1, 3)
    for index in range(n_inputs):
        dfd.add_input(f"u{index}")
    sources = [f"u{index}" for index in range(n_inputs)]

    # optional feedback: a delay whose input is wired up at the end
    feedback_delay = None
    if rng.random() < 0.5:
        feedback_delay = UnitDelay("FB", initial=rng.randint(-2, 2))
        dfd.add_subcomponent(feedback_delay)
        sources.append("FB.out")

    n_blocks = rng.randint(2, 6)
    for index in range(n_blocks):
        kind = rng.choice(["expr", "expr", "gain", "delay", "add", "hold",
                           "nested" if depth < 2 else "expr"])
        block_name = f"N{depth}_{index}"
        if kind == "expr":
            arity = min(len(sources), rng.randint(1, 2))
            chosen = rng.sample(sources, arity)
            variables = [f"x{i}" for i in range(arity)]
            expression = " + ".join(
                f"{rng.randint(1, 3)} * {var}" for var in variables)
            block = ExpressionComponent(block_name, {"out": expression})
            block.declare_interface_from_expressions()
            dfd.add_subcomponent(block)
            for var, source in zip(variables, chosen):
                dfd.connect(source, f"{block_name}.{var}",
                            delayed=_maybe_delay(rng),
                            initial_value=rng.randint(0, 3))
        elif kind == "gain":
            block = Gain(block_name, rng.choice([2, 0.5, -1, 3]))
            dfd.add_subcomponent(block)
            dfd.connect(rng.choice(sources), f"{block_name}.in1",
                        delayed=_maybe_delay(rng),
                        initial_value=rng.randint(0, 3))
        elif kind == "delay":
            block = UnitDelay(block_name, initial=rng.randint(-1, 1))
            dfd.add_subcomponent(block)
            dfd.connect(rng.choice(sources), f"{block_name}.in1")
        elif kind == "add":
            block = Add(block_name, n_inputs=2)
            dfd.add_subcomponent(block)
            for port in ("in1", "in2"):
                dfd.connect(rng.choice(sources), f"{block_name}.{port}",
                            delayed=_maybe_delay(rng),
                            initial_value=rng.randint(0, 3))
        elif kind == "hold":
            block = Hold(block_name, initial=rng.randint(0, 2))
            dfd.add_subcomponent(block)
            dfd.connect(rng.choice(sources), f"{block_name}.in1")
        else:  # nested composite
            block = random_dataflow(rng, name=block_name, depth=depth + 1,
                                    delayed_default=rng.random() < 0.3)
            dfd.add_subcomponent(block)
            for port in block.input_names():
                dfd.connect(rng.choice(sources), f"{block_name}.{port}",
                            delayed=_maybe_delay(rng),
                            initial_value=rng.randint(0, 3))
        sources.extend(f"{block_name}.{port}" for port in block.output_names())

    if feedback_delay is not None:
        candidates = [s for s in sources if s.endswith(".out")
                      and not s.startswith("FB.")]
        dfd.connect(rng.choice(candidates) if candidates else "u0", "FB.in1")

    n_outputs = rng.randint(1, 2)
    block_sources = [s for s in sources if "." in s]
    for index in range(n_outputs):
        dfd.add_output(f"y{index}")
        dfd.connect(rng.choice(block_sources or sources), f"y{index}",
                    delayed=_maybe_delay(rng), initial_value=rng.randint(0, 3))
    return dfd


def _maybe_delay(rng):
    return True if rng.random() < 0.25 else None


def random_stimuli(rng, component, ticks):
    """Per-input random streams with random absence gaps."""
    stimuli = {}
    for name in component.input_names():
        values = [ABSENT if rng.random() < 0.2 else rng.randint(-5, 5)
                  for _ in range(ticks)]
        stimuli[name] = Stream(values)
    return stimuli


def random_ccd(rng, name="RandCCD"):
    """A pipeline CCD of clusters with random harmonic rates."""
    ccd = ClusterCommunicationDiagram(name)
    ccd.add_input("u", FloatType(-1e6, 1e6), every(1))
    n_clusters = rng.randint(2, 4)
    previous = None
    for index in range(n_clusters):
        rate = every(rng.choice([1, 2, 4]))
        cluster = Cluster(f"C{index}", rate=rate)
        cluster.add_input("in1", FloatType(-1e6, 1e6), rate)
        cluster.add_output("out", FloatType(-1e6, 1e6), rate)
        inner = ExpressionComponent(
            "F", {"out": f"in1 * {rng.randint(1, 3)} + {rng.randint(0, 2)}"})
        inner.declare_interface_from_expressions()
        cluster.add_subcomponent(inner)
        cluster.connect("in1", "F.in1")
        cluster.connect("F.out", "out")
        ccd.add_cluster(cluster)
        if previous is None:
            ccd.connect("u", f"C{index}.in1")
        else:
            # inter-cluster channels; some carry a unit delay (rate transition)
            ccd.connect(f"{previous}.out", f"C{index}.in1",
                        delayed=rng.random() < 0.5,
                        initial_value=float(rng.randint(0, 3)))
        previous = f"C{index}"
    ccd.add_output("y", FloatType(-1e6, 1e6), ccd.cluster(previous).rate)
    ccd.connect(f"{previous}.out", "y")
    return ccd


def random_mtd(rng, name="RandMTD"):
    """A small random mode-transition diagram over one numeric input."""
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("x")
    mtd.add_output("out")
    mtd.add_output("mode")
    n_modes = rng.randint(2, 3)
    for index in range(n_modes):
        behavior = None
        if rng.random() < 0.8:
            behavior = ExpressionComponent(
                f"B{index}", {"out": f"x * {index + 1}"})
            behavior.declare_interface_from_expressions()
        mtd.add_mode(f"M{index}", behavior)
    for index in range(n_modes):
        target = rng.randrange(n_modes)
        threshold = rng.randint(-2, 2)
        mtd.add_transition(f"M{index}", f"M{target}",
                           f"x > {threshold}", priority=rng.randint(0, 2))
        if rng.random() < 0.5:
            mtd.add_transition(f"M{index}", f"M{rng.randrange(n_modes)}",
                               f"x < {threshold - 2}",
                               priority=rng.randint(0, 2))
    return mtd


def random_gate_clock(rng):
    kind = rng.choice(["periodic", "event", "sampled"])
    if kind == "periodic":
        period = rng.choice([1, 2, 3, 5])
        return every(period, phase=rng.randrange(period))
    if kind == "event":
        ticks = sorted(rng.sample(range(40), rng.randint(1, 12)))
        return EventClock(ticks)
    period = rng.choice([1, 2])
    return SampledClock(every(period), lambda tick: tick % 7 < 3,
                        description="tick%7<3")


# -- differential properties ---------------------------------------------------


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_dataflow_equivalence(seed):
    rng = random.Random(seed)
    component = random_dataflow(rng, name=f"R{seed}")
    ticks = rng.randint(5, 40)
    assert_engines_agree(component, random_stimuli(rng, component, ticks), ticks)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_dataflow_equivalence_extended(seed):
    rng = random.Random(seed)
    component = random_dataflow(rng, name=f"R{seed}")
    ticks = rng.randint(30, 120)
    assert_engines_agree(component, random_stimuli(rng, component, ticks), ticks)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_ccd_equivalence(seed):
    rng = random.Random(1000 + seed)
    ccd = random_ccd(rng, name=f"RandCCD{seed}")
    ticks = rng.randint(8, 40)
    stimuli = {"u": [float(rng.randint(-5, 5)) for _ in range(ticks)]}
    reference = simulate_ccd(ccd, stimuli, ticks=ticks)
    compiled = simulate_ccd_compiled(ccd, stimuli, ticks=ticks)
    assert first_difference(reference, compiled) is None


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_ccd_equivalence_extended(seed):
    rng = random.Random(1000 + seed)
    ccd = random_ccd(rng, name=f"RandCCD{seed}")
    ticks = rng.randint(40, 160)
    stimuli = {"u": [float(rng.randint(-5, 5)) for _ in range(ticks)]}
    reference = simulate_ccd(ccd, stimuli, ticks=ticks)
    compiled = simulate_ccd_compiled(ccd, stimuli, ticks=ticks)
    assert first_difference(reference, compiled) is None


@pytest.mark.parametrize("seed", range(12))
def test_random_mtd_equivalence_including_mode_history(seed):
    rng = random.Random(2000 + seed)
    mtd = random_mtd(rng, name=f"RandMTD{seed}")
    ticks = 30
    stimuli = random_stimuli(rng, mtd, ticks)
    reference, compiled = assert_engines_agree(mtd, stimuli, ticks)
    assert len(reference.mode_history) == ticks


@pytest.mark.parametrize("seed", range(8))
def test_random_gated_equivalence(seed):
    rng = random.Random(3000 + seed)
    inner = random_dataflow(rng, name=f"Inner{seed}")
    gated = ClockGatedComponent(inner, random_gate_clock(rng))
    ticks = rng.randint(10, 50)
    assert_engines_agree(gated, random_stimuli(rng, gated, ticks), ticks)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_equivalence_with_type_checking(seed):
    rng = random.Random(4000 + seed)
    block = ExpressionComponent("F", {"out": "in1 + in2"})
    block.add_input("in1", FloatType(-100.0, 100.0))
    block.add_input("in2", FloatType(-100.0, 100.0))
    block.add_output("out", FloatType(-1000.0, 1000.0))
    ticks = 20
    stimuli = {"in1": [float(rng.randint(-50, 50)) for _ in range(ticks)],
               "in2": [float(rng.randint(-50, 50)) for _ in range(ticks)]}
    assert_engines_agree(block, stimuli, ticks, check_types=True)


# -- targeted structural cases -------------------------------------------------


def test_delayed_boundary_output_channel():
    """A delayed channel straight into a boundary output reads last tick."""
    dfd = DataFlowDiagram("DelayedBoundary")
    dfd.add_input("u")
    dfd.add_output("y")
    gain = Gain("G", 2.0)
    dfd.add_subcomponent(gain)
    dfd.connect("u", "G.in1")
    dfd.connect("G.out", "y", delayed=True, initial_value=99)
    assert_engines_agree(dfd, {"u": [1, 2, 3, 4]}, 4)


def test_undriven_inputs_and_unconnected_outputs():
    dfd = DataFlowDiagram("Sparse")
    dfd.add_input("u")
    dfd.add_output("y")
    add = Add("A", n_inputs=2)  # in2 never driven
    dfd.add_subcomponent(add)
    dfd.connect("u", "A.in1")
    dfd.connect("A.out", "y")
    lonely = Gain("L", 3.0)  # entirely unconnected block
    dfd.add_subcomponent(lonely)
    assert_engines_agree(dfd, {"u": [1, ABSENT, 3]}, 3)


def test_ssd_delayed_semantics_by_default():
    ssd = SSDComponent("S")
    ssd.add_input("u")
    ssd.add_output("y")
    a = Gain("A", 1.0)
    b = Gain("B", 10.0)
    ssd.add(a, b)
    ssd.connect("u", "A.in1")
    ssd.connect("A.out", "B.in1")  # delayed by SSD default
    ssd.connect("B.out", "y")
    reference, _ = assert_engines_agree(ssd, {"u": [1, 2, 3]}, 3)
    assert reference.output("y").values() == [ABSENT, 10.0, 20.0]


def test_feedback_loop_through_delay_state_correction():
    """The delay's state-correction pass must behave identically."""
    dfd = DataFlowDiagram("Accumulator")
    dfd.add_input("u")
    dfd.add_output("y")
    add = ExpressionComponent("ADD", {"out": "a + b"})
    add.declare_interface_from_expressions()
    delay = UnitDelay("Z", initial=0)
    dfd.add(add, delay)
    dfd.connect("u", "ADD.a")
    dfd.connect("Z.out", "ADD.b")
    dfd.connect("ADD.out", "Z.in1")
    dfd.connect("ADD.out", "y")
    reference, _ = assert_engines_agree(dfd, {"u": [1] * 5}, 5)
    assert reference.output("y").values() == [1, 2, 3, 4, 5]


def test_function_component_equivalence():
    def logic(env):
        value = env.get("in1")
        return {"out": value * 2 if value is not ABSENT else ABSENT}

    block = FunctionComponent("F", logic, inputs=["in1"], outputs=["out"])
    assert_engines_agree(block, {"in1": [1, ABSENT, 3]}, 3)


# -- scenario suite ------------------------------------------------------------


def test_scenario_suite_batches_share_one_schedule(door_lock_control):
    from repro.casestudy import crash_scenario
    suite = ScenarioSuite(door_lock_control)
    suite.add("crash", crash_scenario(8), ticks=8)
    suite.add("idle", {}, ticks=6)
    suite.add("storm", {
        "CRSH": [False, True] * 5,
        "T4S": [True, False] * 5,
        "FZG_V": [0.0, 12.0] * 5,
        "V_SPEED": [0.0, 9.0] * 5,
    }, ticks=10)
    traces = suite.run_all()
    assert set(traces) == {"crash", "idle", "storm"}
    assert traces["crash"].ticks == 8
    differences = suite.verify_against_reference()
    assert all(diff is None for diff in differences.values()), differences


def test_scenario_suite_rejects_duplicate_names(door_lock_control):
    from repro.core.errors import SimulationError
    suite = ScenarioSuite(door_lock_control)
    suite.add("a", {}, 1)
    with pytest.raises(SimulationError):
        suite.add("a", {}, 2)


def test_compiled_schedule_is_flat_and_inspectable(engine_ccd):
    from repro.simulation import build_gated_ccd, compile_component
    schedule = compile_component(build_gated_ccd(engine_ccd))
    assert schedule.kind == "flat"
    summary = schedule.ops_summary()
    assert len(summary) == len(schedule.program)
    kinds = [line.split()[1] for line in summary]
    # one gate region per cluster, every cluster hoisted
    assert kinds.count("gate") == len(engine_ccd.subcomponents())
    assert "correct" not in kinds


# -- compiled STDs -------------------------------------------------------------


def random_std(rng, name="RandSTD"):
    """A small random state-transition diagram with variables and emissions."""
    from repro.notations.std import StateTransitionDiagram
    std = StateTransitionDiagram(name)
    std.add_input("x")
    std.add_output("out")
    std.add_output("state")
    std.add_variable("count", rng.randint(-2, 2))
    n_states = rng.randint(2, 4)
    for index in range(n_states):
        emissions = {}
        if rng.random() < 0.7:
            emissions["out"] = f"x * {index + 1} + count"
        std.add_state(f"S{index}", emissions=emissions)
    for index in range(n_states):
        for _ in range(rng.randint(1, 3)):
            actions = {}
            if rng.random() < 0.5:
                actions["count"] = f"count + {rng.randint(1, 2)}"
            if rng.random() < 0.3:
                actions["out"] = f"0 - x"
            std.add_transition(f"S{index}", f"S{rng.randrange(n_states)}",
                               f"x > {rng.randint(-3, 3)}",
                               actions=actions, priority=rng.randint(0, 2))
    return std


def test_compiled_std_kind_registered(crank_sequencer_std):
    from repro.simulation import compile_flat
    assert compile_flat(crank_sequencer_std).ops_summary() == [
        "   0       run  CrankSequencer [std]"]


def test_crank_sequencer_full_start_cycle(crank_sequencer_std):
    """Engine-control case study: prime, crank, run, key-off -- both engines."""
    ticks = 12
    stimuli = {
        "key": [False] + [True] * 9 + [False, False],
        "n": [ABSENT, ABSENT, 150.0, 300.0, 650.0, 900.0, 2200.0, 2200.0,
              2000.0, 1500.0, 400.0, 0.0],
    }
    reference, _ = assert_engines_agree(crank_sequencer_std, stimuli, ticks)
    assert reference.output("state").values() == [
        "Rest", "Priming", "Cranking", "Cranking", "Cranking", "Running",
        "Running", "Running", "Running", "Running", "Rest", "Rest"]
    # the spin-up action overrides the Cranking state emission on entry
    assert reference.output("fuel_pump")[2] == "spin-up"
    assert reference.output("fuel_pump")[3] == "deliver"


def test_crank_sequencer_abort_paths(crank_sequencer_std):
    """Key released mid-prime and mid-crank; attempt counter exhaustion."""
    ticks = 50
    stimuli = {
        "key": [True] * ticks,
        "n": [ABSENT] + [100.0] * (ticks - 1),  # never fires -> counter runs out
    }
    reference, _ = assert_engines_agree(crank_sequencer_std, stimuli, ticks)
    assert "Rest" in reference.output("state").values()[3:]

    stimuli = {"key": [True, True, False, False], "n": [ABSENT] * 4}
    reference, _ = assert_engines_agree(crank_sequencer_std, stimuli, 4)
    assert reference.output("state").values() == ["Priming", "Priming",
                                                 "Rest", "Rest"]


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_std_equivalence(seed):
    rng = random.Random(5000 + seed)
    std = random_std(rng, name=f"RandSTD{seed}")
    ticks = rng.randint(10, 40)
    assert_engines_agree(std, random_stimuli(rng, std, ticks), ticks)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_std_equivalence_extended(seed):
    rng = random.Random(5000 + seed)
    std = random_std(rng, name=f"RandSTD{seed}")
    ticks = rng.randint(40, 150)
    assert_engines_agree(std, random_stimuli(rng, std, ticks), ticks)


def test_std_nested_in_dataflow(crank_sequencer_std):
    """An STD compiled inside a composite schedule."""
    dfd = DataFlowDiagram("StarterControl")
    dfd.add_input("key")
    dfd.add_input("n_raw")
    dfd.add_output("pump")
    scale = Gain("Scale", 1.0)
    dfd.add(scale, crank_sequencer_std)
    dfd.connect("key", "CrankSequencer.key")
    dfd.connect("n_raw", "Scale.in1")
    dfd.connect("Scale.out", "CrankSequencer.n")
    dfd.connect("CrankSequencer.fuel_pump", "pump")
    ticks = 10
    stimuli = {"key": [True] * ticks,
               "n_raw": [ABSENT, 100.0, 400.0, 800.0, 1200.0, 1200.0,
                         1000.0, 30.0, ABSENT, ABSENT]}
    assert_engines_agree(dfd, stimuli, ticks)


def test_std_as_mtd_mode_behavior(crank_sequencer_std):
    """STD compiled as the subordinate behaviour of an MTD mode."""
    mtd = ModeTransitionDiagram("StartSupervisor")
    mtd.add_input("key")
    mtd.add_input("n")
    mtd.add_output("fuel_pump")
    mtd.add_output("state")
    mtd.add_output("mode")
    mtd.add_mode("Active", crank_sequencer_std, initial=True)
    mtd.add_mode("Lockout")
    mtd.add_transition("Active", "Lockout", "n > 3000")
    mtd.add_transition("Lockout", "Active", "n < 500")
    ticks = 14
    stimuli = {"key": [True] * ticks,
               "n": [ABSENT, 200.0, 900.0, 2000.0, 3500.0, 3500.0, 400.0,
                     600.0, 900.0, 1200.0, 3200.0, 200.0, 800.0, 900.0]}
    reference, _ = assert_engines_agree(mtd, stimuli, ticks)
    assert "Lockout" in reference.mode_history


def test_std_subclass_with_custom_react_falls_back_to_atomic():
    from repro.notations.std import StateTransitionDiagram
    from repro.simulation import compile_component

    class TracingSTD(StateTransitionDiagram):
        def react(self, inputs, state, tick):
            return super().react(inputs, state, tick)

    std = TracingSTD("Custom")
    std.add_input("x")
    std.add_output("state")
    std.add_state("A", initial=True)
    std.add_state("B")
    std.add_transition("A", "B", "x > 0")
    assert compile_component(std).ops_summary() == [
        "   0       run  Custom [atomic]"]
    assert_engines_agree(std, {"x": [0, 1, 2]}, 3)


def test_scenario_suite_verifies_std_and_expression_models(
        crank_sequencer_std, engine_modes_mtd):
    """Acceptance: verify_against_reference reports no differences for
    STD-bearing and expression-heavy models."""
    suite = ScenarioSuite(crank_sequencer_std)
    suite.add("start", {"key": [True] * 8,
                        "n": [ABSENT, 100.0, 400.0, 900.0, 1500.0, 1500.0,
                              1200.0, 0.0]}, ticks=8)
    suite.add("flicker", {"key": [True, False] * 5,
                          "n": [200.0] * 10}, ticks=10)
    differences = suite.verify_against_reference()
    assert all(diff is None for diff in differences.values()), differences

    rng = random.Random(77)
    expression_heavy = random_dataflow(rng, name="ExprHeavy")
    suite = ScenarioSuite(expression_heavy)
    for index in range(3):
        suite.add(f"s{index}",
                  random_stimuli(rng, expression_heavy, 25), ticks=25)
    differences = suite.verify_against_reference()
    assert all(diff is None for diff in differences.values()), differences

    suite = ScenarioSuite(engine_modes_mtd)
    suite.add("sweep", {"n": [0.0, 300.0, 900.0, 2000.0, 4000.0, 3500.0,
                              1000.0, 0.0],
                        "ped": [0.0, 0.0, 10.0, 50.0, 90.0, 0.0, 0.0, 0.0],
                        "t_eng": 60.0}, ticks=8)
    differences = suite.verify_against_reference()
    assert all(diff is None for diff in differences.values()), differences

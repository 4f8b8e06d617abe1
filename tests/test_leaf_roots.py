"""Every root compiles to one flat program.

A bare STD, atomic or custom-``react`` root is a one-op program (its one
leaf is the root), a bare MTD root its mode controller's ``run`` op plus
one ``select`` region per mode behaviour (the controller's leaf is the
root), and a clock gate around any leaf is a ``gate`` region, so
:class:`~repro.simulation.CompiledSimulator` runs every root on the flat
engine (or its native lowering) through one horizon shell.
This module pins that against the reference interpreter:

* every case-study root on ``flat``, ``native`` and tiered ``auto``
  (promoted at once), with and without type checks: values, value types,
  ``mode_history``, ``collect_modes`` histories, and the error type,
  message and tick;
* gates around an MTD, an STD and a custom-``react`` leaf: as the root,
  hoisted into a composite, hoisted as a correction region, and as an
  MTD mode behaviour -- traces, ``mode_paths`` and the ``ops_summary()``
  of the program;
* telemetry on leaf roots: op profiles and flight-recorder bundles.
"""

import random

import pytest

from repro import obs
from repro.casestudy import (build_closed_loop, build_comfort_closing,
                             build_crank_sequencer_std,
                             build_door_lock_control, build_engine_ccd,
                             build_engine_modes_mtd, build_momentum_controller,
                             build_reengineered_fda)
from repro.core.clocks import EventClock, every
from repro.core.components import Component, ExpressionComponent
from repro.core.types import BoolType, EnumType, FloatType, IntType
from repro.core.values import ABSENT, Stream
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.std import StateTransitionDiagram
from repro.obs import read_bundle
from repro.scenarios import (ModeSequence, RandomWalk, Scenario,
                             execute_scenario, run_sharded)
from repro.simulation.engine import active_mode_paths
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, build_gated_ccd,
                              compile_flat, is_flattenable,
                              native_available)
from repro.simulation.engine import run_stepped
from repro.simulation.schedule_ir import (OP_COPY, OP_CORRECT, OP_EXPR,
                                          OP_GATE, OP_RUN, OP_SELECT)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def outcome(run):
    """What a run leaves: the typed trace, or the error's type and text."""
    try:
        trace = run()
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)

    def typed(streams):
        return [(port, [(type(value), value) for value in stream])
                for port, stream in streams.items()]
    return (trace.ticks, typed(trace.inputs), typed(trace.outputs),
            trace.mode_history)


def reference_modes(component, stimuli, ticks, check_types=False):
    """The interpreter's ``collect_modes`` histories: the state walk after
    every tick of a stepped reference run (``None`` when it raises)."""
    histories = {}

    def step(inputs, state, tick):
        outputs, state = component.react(inputs, state, tick)
        for path, mode in active_mode_paths(component, state).items():
            histories.setdefault(path, []).append(mode)
        return outputs, state
    try:
        run_stepped(component, step, stimuli, ticks, check_types)
    except Exception:  # noqa: BLE001 - failing runs report no histories
        return None
    return histories


def assert_matches_interpreter(simulator, battery):
    """Every scenario: the same outcome as the interpreter, and the same
    ``collect_modes`` histories when it completes."""
    component = simulator.component
    reference = Simulator(component, check_types=simulator.check_types)
    for scenario in battery:
        expected = outcome(lambda: reference.run(scenario.stimuli,
                                                 scenario.ticks))
        actual = outcome(lambda: simulator.run(scenario.stimuli,
                                               scenario.ticks))
        assert actual == expected, scenario.name
        result = execute_scenario(simulator, scenario, collect_modes=True)
        assert result.mode_paths == reference_modes(
            component, scenario.stimuli, scenario.ticks,
            simulator.check_types), scenario.name


# -- every case-study root on every backend ------------------------------------


CASE_STUDY_ROOTS = {
    "engine_ccd": lambda: build_gated_ccd(build_engine_ccd()),
    "engine_modes": build_engine_modes_mtd,
    "crank_sequencer": build_crank_sequencer_std,
    "door_lock": build_door_lock_control,
    "comfort_closing": build_comfort_closing,
    "momentum": build_momentum_controller,
    "closed_loop": build_closed_loop,
    "reengineered_fda": build_reengineered_fda,
}


def port_stimulus(port, rng, widen=False):
    """A seeded stimulus over *port*'s declared range; *widen* lets it
    leave the range (type errors under ``check_types``)."""
    kind = port.port_type
    if isinstance(kind, EnumType):
        pool = list(kind.literals)
    elif isinstance(kind, BoolType):
        pool = [False, True]
    elif isinstance(kind, IntType) and kind.low is not None \
            and kind.high is not None:
        pool = list(range(kind.low, kind.high + 1 + widen))
    else:
        pool = None
    if pool is not None:
        return ModeSequence([(rng.choice(pool), rng.randint(1, 6))
                             for _ in range(rng.randint(3, 9))])
    low, high = -50.0, 50.0
    if isinstance(kind, FloatType) and kind.low is not None \
            and kind.high is not None:
        low, high = float(kind.low), float(kind.high)
    span = high - low
    if widen:
        low, high = low - span / 4, high + span / 4
    return RandomWalk(rng.randrange(1 << 30), start=rng.uniform(low, high),
                      step=span / 6, low=low, high=high)


def raising_at(tick, value):
    def stimulus(at):
        if at == tick:
            raise ValueError(f"stimulus exhausted at tick {at}")
        return value
    return stimulus


def case_study_battery(root, seed=0):
    rng = random.Random(f"{root.name}/{seed}")
    ports = root.input_ports()
    battery = [Scenario(f"walk{index}",
                        {port.name: port_stimulus(port, rng, widen=index == 2)
                         for port in ports}, ticks=40)
               for index in range(4)]
    stimuli = {port.name: port_stimulus(port, rng) for port in ports}
    first = ports[0]
    if isinstance(first.port_type, (FloatType, IntType)) \
            and not isinstance(first.port_type, BoolType):
        stimuli[first.name] = raising_at(23, first.port_type.default())
        battery.append(Scenario("raising", stimuli, ticks=40))
    return battery


BACKENDS = ["flat", "native", "auto"]


@pytest.mark.parametrize("check_types", [False, True],
                         ids=["unchecked", "checked"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASE_STUDY_ROOTS))
def test_case_study_root_runs_flat_and_matches_the_interpreter(
        name, backend, check_types):
    if backend == "native" and not native_available():
        pytest.skip("backend='native' needs a C compiler")
    root = CASE_STUDY_ROOTS[name]()
    simulator = CompiledSimulator(root, check_types=check_types,
                                  backend=backend)
    assert simulator.schedule.kind == ("native" if backend == "native"
                                       else "flat")
    if backend == "auto" and native_available():
        simulator._promote_now(force=True)
    battery = case_study_battery(root)
    assert_matches_interpreter(simulator, battery)
    if backend == "auto" and native_available():
        assert simulator._native is not None, "the promotion switched"
    if name in ("engine_modes", "door_lock"):
        assert any(outcome(lambda: simulator.run(s.stimuli, s.ticks))[3]
                   for s in battery), "an MTD root records mode_history"


@pytest.mark.parametrize("name", sorted(CASE_STUDY_ROOTS))
def test_case_study_root_compiles_to_one_flat_program(name):
    root = CASE_STUDY_ROOTS[name]()
    flat = compile_flat(root)
    if not is_flattenable(root):
        assert len(flat.program) == 1 and len(flat.leaves) == 1
        assert flat.leaves[0].component is root
        assert flat.leaves[0].path == root.name
    assert all(op[0] != OP_CORRECT for op in flat.program)


# -- gates around leaves ---------------------------------------------------------


class HeldModes(ModeTransitionDiagram):
    """An MTD declared non-feedthrough: a loop through it is causal, and a
    later producer of its input makes it a correction region."""

    def instantaneous_dependencies(self):
        return {name: set() for name in self.output_names()}


class HeldSequencer(StateTransitionDiagram):
    """An STD declared non-feedthrough (see :class:`HeldModes`)."""

    def instantaneous_dependencies(self):
        return {name: set() for name in self.output_names()}


class Tally(Component):
    """A custom ``react`` whose dict state carries a ``"mode"``: it counts
    the ticks with ``x > 2``, emits the count before this tick and raises
    on a negative ``x``.  *held* declares it non-feedthrough (it is)."""

    def __init__(self, name="Tally", held=False):
        super().__init__(name)
        self.held = held
        self.add_input("x")
        self.add_output("out")

    def initial_state(self):
        return {"mode": "even", "count": 0}

    def react(self, inputs, state, tick):
        if state is None:
            state = self.initial_state()
        x = inputs.get("x", ABSENT)
        if x is not ABSENT and x < 0:
            raise ValueError(f"negative input {x} at tick {tick}")
        count = state["count"] + (x is not ABSENT and x > 2)
        return ({"out": state["count"]},
                {"mode": "odd" if count % 2 else "even", "count": count})

    def instantaneous_dependencies(self):
        if self.held:
            return {"out": set()}
        return super().instantaneous_dependencies()


def modes_leaf(held=False, kind=None):
    mtd = (kind or (HeldModes if held else ModeTransitionDiagram))("Modes")
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


def sequencer_leaf(held=False):
    std = (HeldSequencer if held else StateTransitionDiagram)("Seq")
    std.add_input("x")
    std.add_output("out")
    std.add_output("state")
    std.add_variable("n", 0)
    std.add_state("Idle", initial=True, emissions={"out": "n"})
    std.add_state("Busy", emissions={"out": "n * 2"})
    std.add_transition("Idle", "Busy", "x > 4", actions={"n": "n + 1"})
    std.add_transition("Busy", "Idle", "x < 3")
    return std


def tally_leaf(held=False):
    return Tally(held=held)


LEAVES = {"mtd": modes_leaf, "std": sequencer_leaf, "react": tally_leaf}


def gated(leaf, clock):
    return ClockGatedComponent(leaf, clock, name="G")


def gated_root(make_leaf, clock):
    return gated(make_leaf(), clock)


def hoisted_system(make_leaf, clock):
    """``Pre`` feeds the gated leaf: no later producer, so the gate is a
    hoisted region of the parent's program."""
    system = DataFlowDiagram("Sys")
    system.add_input("x")
    system.add_output("out")
    pre = ExpressionComponent("Pre", {"out": "in1 + 0"})
    pre.declare_interface_from_expressions()
    system.add(pre, gated(make_leaf(), clock))
    system.connect("x", "Pre.in1")
    system.connect("Pre.out", "G.x")
    system.connect("G.out", "out")
    return system


def late_producer_system(make_leaf, clock):
    """The gated leaf (non-feedthrough) feeds ``A``, which feeds it back:
    ``A`` is a later producer, so the gate is a correction region."""
    system = DataFlowDiagram("Loop")
    system.add_input("u")
    system.add_output("y")
    system.add_output("g")
    add = ExpressionComponent(
        "A", {"out": "u0 + (if present(fb) then fb else 0)"})
    add.declare_interface_from_expressions()
    system.add(add, gated(make_leaf(held=True), clock))
    system.connect("u", "A.u0")
    system.connect("G.out", "A.fb")
    system.connect("A.out", "G.x")
    system.connect("A.out", "y")
    system.connect("G.out", "g")
    return system


def behaviour_host(make_leaf, clock):
    """An MTD whose ``Busy`` mode runs the gated leaf."""
    leaf = make_leaf()
    host = ModeTransitionDiagram("Host")
    host.add_input("x")
    host.add_input("go")
    for name in leaf.output_names():
        host.add_output(name)
    idle = ExpressionComponent("IdleB", {"out": "x * 0"})
    idle.declare_interface_from_expressions()
    host.add_mode("Idle", idle, initial=True)
    host.add_mode("Busy", gated(leaf, clock))
    host.add_transition("Idle", "Busy", "go > 0")
    host.add_transition("Busy", "Idle", "go < 0")
    return host


CONTEXTS = {"root": gated_root, "hoisted": hoisted_system,
            "late_producer": late_producer_system,
            "behaviour": behaviour_host}


def gated_leaf_stimuli(model, ticks, seed):
    rng = random.Random(seed)
    stimuli = {}
    for name in model.input_names():
        if name == "go":
            stimuli[name] = Stream([rng.choice([-1, 0, 1])
                                    for _ in range(ticks)])
        else:
            stimuli[name] = Stream([ABSENT if rng.random() < 0.15
                                    else rng.randint(0, 6)
                                    for _ in range(ticks)])
    return stimuli


def gated_leaf_battery(model, seed):
    batch = [Scenario(f"s{index}", gated_leaf_stimuli(model, 30,
                                                      seed * 10 + index), 30)
             for index in range(3)]
    # a negative input raises in the custom react leaf (nowhere else)
    negative = gated_leaf_stimuli(model, 30, seed)
    first = model.input_names()[0]
    negative[first] = Stream(list(negative[first])[:17] + [-1] * 13)
    return batch + [Scenario("negative", negative, 30)]


CLOCKS = {"every2": lambda: every(2, phase=1),
          "events": lambda: EventClock([0, 1, 4, 5, 6, 11, 17, 18, 25])}


@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("context", sorted(CONTEXTS))
@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_gated_leaf_matches_the_interpreter(leaf, context, clock):
    model = CONTEXTS[context](LEAVES[leaf], CLOCKS[clock]())
    for backend in ("flat", "auto") + (("native",) if native_available()
                                       else ()):
        simulator = CompiledSimulator(model, backend=backend)
        assert_matches_interpreter(simulator, gated_leaf_battery(model, 3))


def compiled_simulators(model):
    """The model on ``flat``, and -- with a C compiler -- ``native`` and
    promoted ``auto``."""
    simulators = [CompiledSimulator(model, backend="flat")]
    if native_available():
        simulators.append(CompiledSimulator(model, backend="native"))
        promoted = CompiledSimulator(model, backend="auto")
        promoted._promote_now(force=True)
        simulators.append(promoted)
    return simulators


@pytest.mark.parametrize("context", sorted(CONTEXTS))
@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_gated_leaf_mode_paths_track_the_reference_state(leaf, context):
    """The histories every compiled backend decodes from its readout
    columns equal the walker on the interpreter's state after every
    tick."""
    model = CONTEXTS[context](LEAVES[leaf], every(3))
    stimuli = gated_leaf_stimuli(model, 24, 11)
    expected = reference_modes(model, stimuli, 24)
    for simulator in compiled_simulators(model):
        assert simulator.run(stimuli, 24).mode_paths == expected, \
            simulator.backend
    if leaf != "react":
        assert expected, "the machine's path was observed"


class CountingModes(ModeTransitionDiagram):
    """An MTD subclass with a custom ``react`` (it counts its reactions):
    a leaf, whose mode histories come from walking its own state."""

    def react(self, inputs, state, tick):
        outputs, state = super().react(inputs, state, tick)
        return outputs, dict(state, reactions=state.get("reactions", 0) + 1)


def correction_tracked_std():
    """An STD fed by a later producer: its ``run`` op is a correction
    region, which the barrier re-runs with the final input."""
    system = DataFlowDiagram("Loop")
    system.add_input("u")
    system.add_output("y")
    add = ExpressionComponent(
        "A", {"out": "u0 + (if present(fb) then fb else 0)"})
    add.declare_interface_from_expressions()
    system.add(add, sequencer_leaf(held=True))
    system.connect("u", "A.u0")
    system.connect("Seq.out", "A.fb")
    system.connect("A.out", "Seq.x")
    system.connect("A.out", "y")
    return system


#: Machines in every place a mode history is decoded from.
HISTORY_CASES = {
    "alternate_ticks_gate": lambda: hoisted_system(modes_leaf, every(2)),
    "std_in_inactive_select": lambda: behaviour_host(sequencer_leaf,
                                                     every(1)),
    "correction_tracked_std": correction_tracked_std,
    "tracked_gate_region": lambda: late_producer_system(sequencer_leaf,
                                                        every(2)),
    "custom_react_mtd": lambda: hoisted_system(
        lambda: modes_leaf(kind=CountingModes), every(1)),
    "mode_carrying_atomic_root": Tally,
}


@pytest.mark.parametrize("case", sorted(HISTORY_CASES))
def test_mode_histories_match_the_interpreter_walk(case):
    model = HISTORY_CASES[case]()
    summary = "\n".join(compile_flat(model).ops_summary())
    assert {"alternate_ticks_gate": "gate",
            "std_in_inactive_select": "select",
            "correction_tracked_std": "   4   correct  correction barrier "
                                      "(ops 1..2)",
            "tracked_gate_region": "   6   correct  correction barrier "
                                   "(ops 1..3)",
            "custom_react_mtd": "Sys/G/Modes [atomic]",
            "mode_carrying_atomic_root": "Tally [atomic]"}[case] in summary
    reference = Simulator(model)
    for seed in range(3):
        stimuli = gated_leaf_stimuli(model, 24, seed)
        expected = reference_modes(model, stimuli, 24)
        mode_history = reference.run(stimuli, 24).mode_history
        assert expected or mode_history, case
        for simulator in compiled_simulators(model):
            trace = simulator.run(stimuli, 24)
            assert trace.mode_paths == expected, (case, simulator.backend)
            assert trace.mode_history == mode_history, (case,
                                                        simulator.backend)
    if case == "std_in_inactive_select":
        history = expected["Host/Busy"]
        assert 0 < len(history) < 24, "the STD was skipped while Idle"


def _gated_ops(machine, kind):
    """The ``ops_summary()`` of a gate around the leaf *machine* of *kind*
    as a root, and in the contexts that hoist it."""
    host = ["   0       run  Host [mtd]",
            "   1    select  select -> 3",
            "   2      expr  Host/Idle/IdleB [expr]"]
    if kind == "mtd":  # the gate's region holds the whole hoisted MTD
        return {
            "root": ["   0      gate  gate -> 7",
                     "   1       run  G/Modes [mtd]",
                     "   2    select  select -> 4",
                     "   3      expr  G/Modes/Low/LowB [expr]",
                     "   4    select  select -> 6",
                     "   5      expr  G/Modes/High/HighB [expr]",
                     "   6      copy  copy (1 pair)"],
            "hoisted": ["   0      copy  copy (1 pair)",
                        "   1      expr  Sys/Pre [expr]",
                        "   2      gate  gate -> 9",
                        "   3       run  Sys/G/Modes [mtd]",
                        "   4    select  select -> 6",
                        "   5      expr  Sys/G/Modes/Low/LowB [expr]",
                        "   6    select  select -> 8",
                        "   7      expr  Sys/G/Modes/High/HighB [expr]",
                        "   8      copy  copy (1 pair)",
                        "   9      copy  copy (1 pair)"],
            "late_producer": [
                "   0      copy  copy (1 pair)",
                "   1      copy  copy (1 pair)",
                "   2      gate  gate -> 9",
                "   3       run  Loop/G/Modes [mtd]",
                "   4    select  select -> 6",
                "   5      expr  Loop/G/Modes/Low/LowB [expr]",
                "   6    select  select -> 8",
                "   7      expr  Loop/G/Modes/High/HighB [expr]",
                "   8      copy  copy (1 pair)",
                "   9      copy  copy (2 pairs)",
                "  10      expr  Loop/A [expr]",
                "  11   correct  correction barrier (ops 1..8)",
                "  12      copy  copy (1 pair)"],
            "behaviour": host + [
                "   3    select  select -> 11",
                "   4      gate  gate -> 11",
                "   5       run  Host/Busy/G/Modes [mtd]",
                "   6    select  select -> 8",
                "   7      expr  Host/Busy/G/Modes/Low/LowB [expr]",
                "   8    select  select -> 10",
                "   9      expr  Host/Busy/G/Modes/High/HighB [expr]",
                "  10      copy  copy (1 pair)",
                "  11      copy  copy (1 pair)"],
        }
    return {
        "root": ["   0      gate  gate -> 2",
                 f"   1       run  G/{machine} [{kind}]"],
        "hoisted": ["   0      copy  copy (1 pair)",
                    "   1      expr  Sys/Pre [expr]",
                    "   2      gate  gate -> 4",
                    f"   3       run  Sys/G/{machine} [{kind}]",
                    "   4      copy  copy (1 pair)"],
        "late_producer": ["   0      copy  copy (1 pair)",
                          "   1      copy  copy (1 pair)",
                          "   2      gate  gate -> 4",
                          f"   3       run  Loop/G/{machine} [{kind}]",
                          "   4      copy  copy (2 pairs)",
                          "   5      expr  Loop/A [expr]",
                          "   6   correct  correction barrier (ops 1..3)",
                          "   7      copy  copy (1 pair)"],
        "behaviour": host + ["   3    select  select -> 6",
                             "   4      gate  gate -> 6",
                             f"   5       run  Host/Busy/G/{machine} "
                             f"[{kind}]"],
    }


#: ``ops_summary()`` of every gated-leaf model, keyed by (leaf, context).
GATED_LEAF_OPS = {
    (leaf, context): ops
    for leaf, machine, kind in [("mtd", "Modes", "mtd"),
                                ("std", "Seq", "std"),
                                ("react", "Tally", "atomic")]
    for context, ops in _gated_ops(machine, kind).items()}


@pytest.mark.parametrize("context", sorted(CONTEXTS))
@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_gated_leaf_keeps_its_linear_steps(leaf, context):
    """The linear program of every gated-leaf model, as
    :meth:`~repro.simulation.FlatSchedule.ops_summary` renders it; a
    gate that is an MTD's mode behaviour is hoisted into the host's
    ``Busy`` region, behind the host's mode controller."""
    model = CONTEXTS[context](LEAVES[leaf], every(2))
    schedule = CompiledSimulator(model).schedule
    assert schedule.ops_summary() == GATED_LEAF_OPS[leaf, context]
    if context == "behaviour":
        controller = schedule.leaves[0]
        assert controller.component is model
        assert controller.run_kind == "mtd"
        assert [leaf.modes for leaf in schedule.leaves[1:3]] \
            == [((0, "Idle"),), ((0, "Busy"),)]


@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_gate_around_a_leaf_is_a_region_unless_correction_tracked(leaf):
    """A gated leaf is a ``gate`` region in every context; a late producer
    makes that region a correction region too."""
    make_leaf = LEAVES[leaf]
    model = gated_root(make_leaf, every(2))
    root = compile_flat(model)
    # an MTD adds its two select regions and its mode port's copy
    mtd_ops = [OP_SELECT, OP_EXPR] * 2 + [OP_COPY] if leaf == "mtd" else []
    assert [op[0] for op in root.program] == [OP_GATE, OP_RUN] + mtd_ops
    assert root.program[0][2] == len(root.program)
    assert root.leaves[0].component is model.inner

    hoisted = compile_flat(hoisted_system(make_leaf, every(2)))
    assert "gate" in "\n".join(hoisted.ops_summary())
    assert all(op[0] != OP_CORRECT for op in hoisted.program)

    late = compile_flat(late_producer_system(make_leaf, every(2)))
    barrier, = [op for op in late.program if op[0] == OP_CORRECT]
    (start, end, _leaves, _buffers, _seen), = barrier[1]
    # the region: the copy of the input G saw, then G's gate region
    assert [op[0] for op in late.program[start:start + 2]] \
        == [OP_COPY, OP_GATE]
    assert late.program[start + 1][2] == end


# -- composite mode behaviours ----------------------------------------------------


def composite_behaviour_host():
    """An MTD whose ``Busy`` mode runs a DFD -- an STD plus an accumulator
    over a delayed self-loop -- and first becomes active after tick 0."""
    work = DataFlowDiagram("Work")
    work.add_input("x")
    work.add_output("out")
    work.add_output("state")
    accumulate = ExpressionComponent("Acc", {"out": "a + b"})
    accumulate.declare_interface_from_expressions()
    work.add(sequencer_leaf(), accumulate)
    work.connect("x", "Seq.x")
    work.connect("Seq.out", "Acc.a")
    work.connect("Acc.out", "Acc.b", delayed=True, initial_value=0)
    work.connect("Acc.out", "out")
    work.connect("Seq.state", "state")

    host = ModeTransitionDiagram("Host")
    host.add_input("x")
    host.add_input("go")
    host.add_output("out")
    host.add_output("state")
    host.add_output("mode")
    idle = ExpressionComponent("IdleB", {"out": "x * 0"})
    idle.declare_interface_from_expressions()
    host.add_mode("Idle", idle, initial=True)
    host.add_mode("Busy", work)
    host.add_transition("Idle", "Busy", "go > 0")
    host.add_transition("Busy", "Idle", "go < 0")
    return host


COMPOSITE_BEHAVIOUR_GO = [0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_composite_mode_behaviour_entered_after_tick_0(backend):
    """The behaviour is hoisted into the host's ``Busy`` region: entered
    at tick 3, left at tick 7 and re-entered at tick 10 with its state
    (STD variable, delayed buffer) carried over by the skipped region."""
    if backend == "native" and not native_available():
        pytest.skip("backend='native' needs a C compiler")
    model = composite_behaviour_host()
    simulator = CompiledSimulator(model, backend=backend)
    if backend == "auto" and native_available():
        simulator._promote_now(force=True)
    ticks = len(COMPOSITE_BEHAVIOUR_GO)
    scripted = Scenario("scripted", {"x": [5, 6, 7, 6, 2, 6, 5, 1, 0, 0,
                                           6, 1, 6, 6],
                                     "go": COMPOSITE_BEHAVIOUR_GO}, ticks)
    battery = [scripted] + [Scenario(f"random{seed}",
                                     gated_leaf_stimuli(model, 30, seed), 30)
                            for seed in range(3)]
    assert_matches_interpreter(simulator, battery)
    if backend == "auto" and native_available():
        assert simulator._native is not None, "the promotion switched"

    assert simulator.schedule.initial_state().leaf_states[0] \
        == {"mode": "Idle"}
    schedule = compile_flat(model)
    assert [(leaf.path, leaf.modes) for leaf in schedule.leaves] == [
        ("Host", ()), ("Host/Idle/IdleB", ((0, "Idle"),)),
        ("Host/Busy/Work/Seq", ((0, "Busy"),)),
        ("Host/Busy/Work/Acc", ((0, "Busy"),))]
    assert len(schedule.buffer_initials) == 1
    trace = simulator.run(scripted.stimuli, ticks)
    assert trace.mode_history == ["Idle"] * 3 + ["Busy"] * 4 \
        + ["Idle"] * 3 + ["Busy"] * 4
    histories = execute_scenario(simulator, scripted,
                                 collect_modes=True).mode_paths
    # the STD's path is read only while Busy is active: ticks 3-6, 10-13
    assert histories["Host/Busy/Seq"] == ["Busy", "Idle", "Busy", "Busy",
                                          "Busy", "Idle", "Busy", "Busy"]


# -- the trace records exactly the declared ports ---------------------------------


class LateKey(Component):
    """Emits ``out`` at every tick and the declared ``late`` only from
    tick 1 on."""

    def __init__(self):
        super().__init__("Late")
        self.add_input("x")
        self.add_output("out")
        self.add_output("late")

    def react(self, inputs, state, tick):
        outputs = {"out": inputs["x"]}
        if tick >= 1:
            outputs["late"] = 7
        return outputs, state


def undeclared_key_block():
    """``extra`` is computed but is no declared port."""
    block = ExpressionComponent("E", {"out": "x", "extra": "x + 1"})
    block.add_input("x")
    block.add_output("out")
    return block


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_engine_records_exactly_the_declared_outputs(backend):
    if backend == "native" and not native_available():
        pytest.skip("backend='native' needs a C compiler")
    expected = {"E": {"out": [1, 2, 3]},
                "Late": {"out": [1, 2, 3], "late": [ABSENT, 7, 7]}}
    for root in (undeclared_key_block(), LateKey()):
        simulator = CompiledSimulator(root, backend=backend)
        if backend == "auto" and native_available():
            simulator._promote_now(force=True)
        scenario = Scenario("ramp", {"x": [1, 2, 3]}, 3)
        assert_matches_interpreter(simulator, [scenario])
        for trace in (Simulator(root).run(scenario.stimuli, 3),
                      simulator.run(scenario.stimuli, 3)):
            assert {name: stream.values()
                    for name, stream in trace.outputs.items()} \
                == expected[root.name]


# -- telemetry on leaf roots -----------------------------------------------------


def test_profiled_mtd_root_keeps_its_mode_history():
    root = build_engine_modes_mtd()
    battery = case_study_battery(root)
    reference = Simulator(root)
    with obs.session(profile_ops=True) as telemetry:
        simulator = CompiledSimulator(root, backend="flat")
        traces = [simulator.run(s.stimuli, s.ticks) for s in battery[:2]]
    (profile,) = telemetry.profiles.values()
    assert profile.label == f"{root.name}[flat]"
    # the mode controller, one select region per mode, the mode port
    assert profile.op_kinds == ("run",) + ("select", "expr") * 6 + ("copy",)
    assert profile.counts[0] == profile.counts[-1] == 80
    assert sum(profile.counts[2:-1:2]) == 80  # one behaviour per tick
    # every select is checked each tick and skipped in all other modes
    assert profile.gate_stats() == (6 * 80, 5 * 80)
    assert profile.ticks == 80
    for scenario, trace in zip(battery, traces):
        expected = reference.run(scenario.stimuli, scenario.ticks)
        assert trace.mode_history == expected.mode_history
        assert len(set(trace.mode_history)) > 1
        assert outcome(lambda: trace) == outcome(lambda: expected)


def test_recorded_custom_react_root_dumps_a_bundle_naming_op_0(tmp_path):
    root = Tally()
    batch = [Scenario("calm", {"x": [3, 1, 4]}, 3),
             Scenario("boom", {"x": [3, 1, 4, 5, -2, 6]}, 6)]
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(root, batch, executor="serial")
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False]
    assert results[1].error == "ValueError: negative input -2 at tick 4"
    assert results[0].trace.mode_history == \
        Simulator(root).run({"x": [3, 1, 4]}, 3).mode_history
    (path,) = bundles
    failing = read_bundle(path)["failing"]
    assert (failing["tick"], failing["op_index"], failing["op_kind"]) \
        == (4, 0, "run")
    assert failing["op_label"] == "Tally [atomic]"
    assert failing["inputs"] == {"x": -2}

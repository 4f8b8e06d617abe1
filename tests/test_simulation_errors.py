"""Error-path coverage for both simulation engines, plus the clock-pattern
regression guard for rate gating.

The reference interpreter and the compiled engine must reject the same
malformed usages with the same exception type (unknown stimulus ports,
negative tick counts, behaviour-less components, type-check violations) so
they really are interchangeable.
"""

import pytest

from repro.core.clocks import PeriodicClock, every
from repro.core.components import (Component, CompositeComponent,
                                   ExpressionComponent)
from repro.core.errors import ModelError, SimulationError, TypeCheckError
from repro.core.types import FloatType
from repro.notations.blocks import Gain
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, simulate)

ENGINE_CLASSES = [Simulator, CompiledSimulator]


def _identity_block(name="F"):
    block = ExpressionComponent(name, {"out": "in1"})
    block.declare_interface_from_expressions()
    return block


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
class TestCommonErrorPaths:
    def test_unknown_stimulus_port_rejected(self, engine_class):
        simulator = engine_class(_identity_block())
        with pytest.raises(SimulationError, match="unknown input ports"):
            simulator.run({"nope": [1]}, ticks=1)

    def test_several_unknown_ports_all_reported(self, engine_class):
        simulator = engine_class(_identity_block())
        with pytest.raises(SimulationError, match=r"\['a', 'b'\]"):
            simulator.run({"a": 1, "b": 2}, ticks=1)

    def test_negative_ticks_rejected(self, engine_class):
        simulator = engine_class(_identity_block())
        with pytest.raises(SimulationError, match="non-negative"):
            simulator.run({}, ticks=-1)

    def test_zero_ticks_is_legal_and_empty(self, engine_class):
        trace = engine_class(_identity_block()).run({}, ticks=0)
        assert trace.ticks == 0
        assert trace.outputs == {}

    def test_boolean_ticks_rejected(self, engine_class):
        # bool is an int subclass: ticks=True used to slip through as one
        # tick; every entry point now agrees with ScenarioSuite.add
        simulator = engine_class(_identity_block())
        with pytest.raises(SimulationError, match="integer number of ticks"):
            simulator.run({}, ticks=True)
        with pytest.raises(SimulationError, match="integer number of ticks"):
            simulator.run({}, ticks=False)

    def test_fractional_ticks_rejected(self, engine_class):
        simulator = engine_class(_identity_block())
        with pytest.raises(SimulationError, match="integer number of ticks"):
            simulator.run({}, ticks=2.5)

    def test_component_without_behavior_rejected(self, engine_class):
        stub = Component("S")
        with pytest.raises(SimulationError, match="no executable behaviour"):
            engine_class(stub)

    def test_composite_with_behaviorless_sub_rejected(self, engine_class):
        dfd = DataFlowDiagram("D")
        dfd.add_subcomponent(Component("Stub"))
        with pytest.raises(SimulationError, match="no executable behaviour"):
            engine_class(dfd)

    def test_input_type_check_failure(self, engine_class):
        block = ExpressionComponent("F", {"out": "in1"})
        block.add_input("in1", FloatType(0.0, 10.0))
        block.add_output("out", FloatType(0.0, 10.0))
        simulator = engine_class(block, check_types=True)
        with pytest.raises(TypeCheckError):
            simulator.run({"in1": [99.0]}, ticks=1)

    def test_output_type_check_failure(self, engine_class):
        block = ExpressionComponent("F", {"out": "in1 * 100"})
        block.add_input("in1", FloatType(0.0, 10.0))
        block.add_output("out", FloatType(0.0, 10.0))
        simulator = engine_class(block, check_types=True)
        with pytest.raises(TypeCheckError):
            simulator.run({"in1": [5.0]}, ticks=1)

    def test_type_checking_passes_in_range(self, engine_class):
        block = ExpressionComponent("F", {"out": "in1"})
        block.add_input("in1", FloatType(0.0, 10.0))
        block.add_output("out", FloatType(0.0, 10.0))
        trace = engine_class(block, check_types=True).run({"in1": [5.0]},
                                                          ticks=1)
        assert trace.output("out").values() == [5.0]

    def test_absent_values_skip_type_checks(self, engine_class):
        block = _identity_block()
        block.port("in1").port_type = FloatType(0.0, 1.0)
        trace = engine_class(block, check_types=True).run({}, ticks=2)
        assert trace.output("out").presence_count() == 0


def test_mtd_without_modes_rejected_by_both_engines():
    mtd = ModeTransitionDiagram("Empty")
    mtd.add_input("x")
    mtd.add_output("out")
    # an MTD without modes has no behaviour; both engines refuse up front
    with pytest.raises(SimulationError, match="no executable behaviour"):
        Simulator(mtd)
    with pytest.raises(SimulationError, match="no executable behaviour"):
        CompiledSimulator(mtd)
    # bypassing the simulator front door, the mode controller's own guard
    # fires (an MTD is hoisted, not refused as a leaf)
    from repro.simulation import compile_component
    with pytest.raises(ModelError, match="MTD 'Empty' has no modes"):
        compile_component(mtd)


def _bad_action_std():
    from repro.notations.std import StateTransitionDiagram
    std = StateTransitionDiagram("Bad")
    std.add_input("x")
    std.add_output("out")
    std.add_state("A", initial=True)
    std.add_state("B")
    # `mystery` is neither a local variable nor an output port; react()
    # only notices when the transition actually fires
    std.add_transition("A", "B", "x > 0", actions={"mystery": "x"})
    return std


@pytest.mark.parametrize("engine_class", [Simulator, CompiledSimulator])
def test_std_invalid_action_target_raises_in_both_engines(engine_class):
    simulator = engine_class(_bad_action_std())
    # the guard never fires: the broken action is latent, no error
    trace = simulator.run({"x": [-1, -2]}, ticks=2)
    assert trace.ticks == 2
    # firing the transition surfaces the identical ModelError in both engines
    simulator = engine_class(_bad_action_std())
    with pytest.raises(ModelError,
                       match="action target 'mystery' of STD 'Bad' is "
                             "neither a local variable nor an output port"):
        simulator.run({"x": [-1, 5]}, ticks=2)


def test_std_without_states_rejected_by_both_engines():
    from repro.notations.std import StateTransitionDiagram
    std = StateTransitionDiagram("EmptySTD")
    std.add_input("x")
    std.add_output("out")
    # an STD without states has no behaviour; both engines refuse up front
    with pytest.raises(SimulationError, match="no executable behaviour"):
        Simulator(std)
    with pytest.raises(SimulationError, match="no executable behaviour"):
        CompiledSimulator(std)
    # bypassing the simulator front door, the flattener refuses the leaf
    from repro.simulation import compile_component
    with pytest.raises(SimulationError,
                       match="component 'EmptySTD' has no executable "
                             "behaviour"):
        compile_component(std)


class TestClockPatternRegression:
    """The O(ticks^2) clock-pattern recomputation must not come back."""

    class _CountingClock(PeriodicClock):
        def __init__(self, period):
            super().__init__(period)
            self.pattern_calls = 0

        def pattern(self, length):
            self.pattern_calls += 1
            return super().pattern(length)

    def test_gated_interpreter_does_not_call_pattern_per_tick(self):
        clock = self._CountingClock(2)
        gated = ClockGatedComponent(Gain("G", 2.0), clock)
        ticks = 500
        trace = simulate(gated, {"in1": [1.0] * ticks}, ticks=ticks)
        assert trace.output("out").presence_count() == ticks // 2
        # geometric growth: O(log ticks) pattern constructions, not O(ticks)
        assert clock.pattern_calls <= 10, clock.pattern_calls

    def test_gated_compiled_does_not_call_pattern_per_tick(self):
        clock = self._CountingClock(2)
        gated = ClockGatedComponent(Gain("G", 2.0), clock)
        ticks = 500
        simulator = CompiledSimulator(gated)
        simulator.run({"in1": [1.0] * ticks}, ticks=ticks)
        first_run_calls = clock.pattern_calls
        assert first_run_calls <= 10, first_run_calls
        # the compiled schedule shares its pattern cache across runs
        simulator.run({"in1": [1.0] * ticks}, ticks=ticks)
        assert clock.pattern_calls == first_run_calls

    def test_gated_state_keeps_pattern_cache_between_ticks(self):
        clock = self._CountingClock(3)
        gated = ClockGatedComponent(Gain("G", 1.0), clock)
        state = gated.initial_state()
        assert state["pattern_cache"] is None
        outputs, state = gated.react({"in1": 1.0}, state, 0)
        cache = state["pattern_cache"]
        assert cache is not None and cache.clock is clock
        _, state = gated.react({"in1": 1.0}, state, 1)
        assert state["pattern_cache"] is cache

    def test_gating_still_correct_after_caching(self):
        gated = ClockGatedComponent(Gain("G", 2.0), every(2))
        trace = simulate(gated, {"in1": [1, 2, 3, 4]}, ticks=4)
        from repro.core.values import ABSENT
        assert trace.output("out").values() == [2, ABSENT, 6, ABSENT]

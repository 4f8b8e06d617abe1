"""The compiled simulation engine: compile once, run many.

The reference :class:`~repro.simulation.engine.Simulator` is a tree-walking
interpreter: every tick of every composite re-derives the topological
evaluation order, the instantaneous-dependency information and the channel
routing from the model structure.  That is the right reference semantics --
simple, always in sync with the model -- but it makes simulation the
bottleneck of FAA/FDA validation (paper Sec. 3.1), where one functional
concept is exercised against many scenarios.

This module splits execution into two phases.

**Compile** (:func:`compile_component`): flattenable hierarchies -- default
composites, optionally wrapped in clock gates -- are lowered onto the flat
schedule IR of :mod:`repro.simulation.schedule_ir` (one global step program
over slot-based environments); everything else takes the **nested** path
(:func:`compile_nested`), where the hierarchy is walked *once* and
translated into a tree of small step closures with every schedule decision
precomputed:

* each composite becomes a linear step list (its sub-components in the
  cached :class:`~repro.core.components.ExecutionPlan` order) with
  prebuilt instantaneous-propagation lists, delayed-channel seed/commit
  lists and boundary collection lists -- no per-tick graph analysis;
* each :class:`~repro.simulation.engine.ClockGatedComponent` gets an
  incrementally materialized clock pattern
  (:meth:`~repro.core.clocks.Clock.cached`) shared across runs;
* each mode-transition diagram gets per-mode transition tables (guards
  lowered to closures via :mod:`repro.core.expr_compile`) and compiled
  mode behaviours;
* each state-transition diagram gets per-state sorted transition tables
  with compiled guards, actions and emissions;
* each expression block gets its output expressions lowered to closures;
* every other component (function/stateful blocks...) is already a single
  ``react`` call and is executed directly.

**Run** (:class:`CompiledSimulator` / :class:`ScenarioSuite`): the compiled
schedule is a pure function of ``(inputs, state, tick)`` and can therefore
be reused across any number of simulation runs.  :class:`ScenarioSuite`
exploits this for scenario sweeps: one compile, many stimulus sets, with
:meth:`ScenarioSuite.verify_against_reference` as the built-in differential
check against the interpreter.

The schedule is compiled from a snapshot of the model: structural changes
made to the model after compilation are not picked up (recompile instead).
Observable behaviour -- traces, including ``mode_history`` -- is
tick-for-tick identical to the reference engine; the differential suite in
``tests/test_compiled_equivalence.py`` and the golden traces in
``tests/test_golden_traces.py`` enforce this.
"""

from __future__ import annotations

import warnings
from typing import (Any, Callable, Dict, List, Mapping, Optional, Tuple)

from ..core.components import (Component, CompositeComponent,
                               ExpressionComponent)
from ..core.errors import ModelError, SimulationError
from ..core.values import ABSENT, is_present
from ..obs.context import active as _obs_active
from ..obs.context import current_registry, maybe_span
from ..notations.ccd import ClusterCommunicationDiagram
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram
from .engine import (ClockGatedComponent, Simulator, StimulusSpec,
                     active_mode_paths, build_gated_ccd, run_stepped)
from .trace import SimulationTrace, first_difference

#: A compiled step: ``(inputs, state, tick) -> (outputs, next_state)``.
StepFunction = Callable[[Mapping[str, Any], Any, int], Tuple[Dict[str, Any], Any]]


class CompiledSchedule:
    """A component compiled into an executable schedule.

    ``step`` is the executable form; ``kind`` names the compilation strategy
    (``"composite"``, ``"gated"``, ``"mtd"``, ``"std"`` or ``"atomic"``) and
    ``children`` holds the compiled sub-schedules, so tests and tools can
    inspect what the compiler produced.
    """

    __slots__ = ("component", "kind", "step", "children")

    def __init__(self, component: Component, kind: str, step: StepFunction,
                 children: Optional[List[Tuple[str, "CompiledSchedule"]]] = None):
        self.component = component
        self.kind = kind
        self.step = step
        self.children = children or []

    def initial_state(self) -> Any:
        return self.component.initial_state()

    #: A nested schedule has no mode plan: observing modes always walks
    #: the whole state tree (:meth:`mode_paths`).
    needs_mode_observation = True

    def mode_paths(self, state: Any) -> Dict[str, Any]:
        """Active mode/state of every MTD and STD, keyed by hierarchical
        path (:func:`~repro.simulation.engine.active_mode_paths`)."""
        return active_mode_paths(self.component, state)

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        """The flattened schedule: ``(hierarchical path, kind)`` per node."""
        path = f"{prefix}/{self.component.name}" if prefix else self.component.name
        steps = [(path, self.kind)]
        for _, child in self.children:
            steps.extend(child.linear_steps(path))
        return steps

    def describe(self) -> str:
        """Human-readable rendering of the flattened schedule."""
        return "\n".join(f"{kind:>10}  {path}"
                         for path, kind in self.linear_steps())

    def __repr__(self) -> str:
        return (f"CompiledSchedule({self.component.name!r}, kind={self.kind!r}, "
                f"steps={len(self.linear_steps())})")


def compile_component(component: Component, verify: bool = False):
    """Compile *component* into a reusable execution schedule.

    Composite hierarchies (and clock-gated wrappers around them) with the
    default synchronous ``react`` compile to the flat schedule IR
    (:class:`~repro.simulation.schedule_ir.FlatSchedule`): one global,
    topologically ordered step program over slot-based environments, with
    gating predicates and correction barriers preserving the nested
    semantics exactly.  Everything else -- MTDs, STDs, atomic blocks,
    subclasses with a custom ``react`` -- compiles on the nested path
    (:func:`compile_nested`), which is also the per-subtree fallback the
    flattener embeds for unflattenable children.  Both schedule kinds share
    the ``(inputs, state, tick) -> (outputs, state)`` step contract and the
    ``linear_steps()`` / ``describe()`` naming contract.

    With ``verify=True`` the static-analysis engine
    (:mod:`repro.analysis.lint`) runs first -- model-level lint of the
    hierarchy plus, on the flat path, IR dataflow verification of the
    compiled program -- and any error finding raises
    :class:`~repro.core.errors.ValidationError` before a schedule is
    returned.
    """
    from .schedule_ir import compile_flat, is_flattenable
    if verify:
        from ..analysis.lint import lint_component, lint_flat_schedule
        lint_component(component).raise_on_errors()
    if is_flattenable(component):
        schedule = compile_flat(component)
        if verify:
            lint_flat_schedule(schedule).raise_on_errors()
        return schedule
    with maybe_span("compile.nested", component=component.name):
        return compile_nested(component)


def compile_nested(component: Component) -> CompiledSchedule:
    """Compile *component* into the nested (per-composite closure) schedule.

    This is the PR-4 compiled engine: each composite is one step closure
    over its sub-schedules.  It remains the reference compiled semantics --
    the flat IR is differentially tested against it -- the fallback for
    components the flattener cannot hoist, and the baseline the
    ``benchmarks/bench_flatten.py`` speedup gate measures against.
    """
    if isinstance(component, CompositeComponent) \
            and type(component).react is CompositeComponent.react:
        return _compile_composite(component)
    if isinstance(component, ClockGatedComponent) \
            and type(component).react is ClockGatedComponent.react:
        return _compile_gated(component)
    if isinstance(component, ModeTransitionDiagram) \
            and type(component).react is ModeTransitionDiagram.react:
        return _compile_mtd(component)
    if isinstance(component, StateTransitionDiagram) \
            and type(component).react is StateTransitionDiagram.react:
        return _compile_std(component)
    if isinstance(component, ExpressionComponent) \
            and type(component).react is ExpressionComponent.react:
        return _compile_expression(component)
    return _compile_atomic(component)


def _compile_atomic(component: Component) -> CompiledSchedule:
    """A component with its own ``react`` is already a single step."""
    return CompiledSchedule(component, "atomic", component.react)


def _compile_expression(component: ExpressionComponent) -> CompiledSchedule:
    """Specialized atomic step for expression blocks.

    The reference ``react`` copies the inputs into a fresh environment dict
    every tick; the evaluator never mutates its environment, and the input
    dicts built by the surrounding compiled composite (or simulator loop)
    are fresh per tick, so evaluating against *inputs* directly is
    observationally identical and saves one dict copy per block per tick.
    On top of that, the output expressions are lowered to closures
    (:mod:`repro.core.expr_compile`), removing the per-tick AST walk.
    """
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    items = tuple((name, compiler(expression))
                  for name, expression in component.output_expressions.items())

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        return {name: compiled(inputs) for name, compiled in items}, state

    return CompiledSchedule(component, "atomic", step)


def _compile_composite(component: CompositeComponent) -> CompiledSchedule:
    """Flatten one composite into a linear step list over its plan."""
    plan = component.execution_plan()
    children = [(entry.name, compile_nested(component.subcomponent(entry.name)))
                for entry in plan.entries]
    steps = {name: schedule.step for name, schedule in children}
    for entry in plan.entries:
        sub = component.subcomponent(entry.name)
        if not sub.has_behavior():
            raise SimulationError(
                f"sub-component {entry.name!r} of {component.name!r} has no "
                f"executable behaviour")

    def _input_keys(entry):
        # Pre-allocate the (sub, port) lookup keys once per schedule instead
        # of building a tuple per port per tick on the hot path.
        return tuple((port_name, (entry.name, port_name))
                     for port_name in entry.input_names)

    entries = tuple((entry.name, steps[entry.name], _input_keys(entry),
                     entry.propagate) for entry in plan.entries)
    corrections = tuple((entry.name, steps[entry.name], _input_keys(entry))
                        for entry in plan.correction_entries())
    track_corrections = bool(corrections)
    boundary_propagate = plan.boundary_propagate
    delayed_seed = plan.delayed_seed
    delayed_commit = plan.delayed_commit
    boundary_outputs = plan.boundary_outputs
    output_names = tuple(component.output_names())
    initial_state = component.initial_state

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = initial_state()
        sub_states: Dict[str, Any] = dict(state["subs"])
        delayed_buffers: Dict[str, Any] = dict(state["delayed"])

        port_values: Dict[Tuple[Optional[str], str], Any] = {}
        for name, value in inputs.items():
            port_values[(None, name)] = value
        for channel_name, dst_key, initial_value in delayed_seed:
            port_values[dst_key] = delayed_buffers.get(channel_name,
                                                       initial_value)
        for src_key, dst_key in boundary_propagate:
            if src_key in port_values:
                port_values[dst_key] = port_values[src_key]

        seen_inputs: Dict[str, Dict[str, Any]] = {}
        for sub_name, sub_step, input_keys, propagate in entries:
            sub_inputs = {port_name: port_values.get(key, ABSENT)
                          for port_name, key in input_keys}
            outputs, new_state = sub_step(sub_inputs,
                                          sub_states.get(sub_name), tick)
            if track_corrections:
                seen_inputs[sub_name] = sub_inputs
            sub_states[sub_name] = new_state
            for port_name, value in outputs.items():
                port_values[(sub_name, port_name)] = value
            for src_key, dst_key in propagate:
                if src_key in port_values:
                    port_values[dst_key] = port_values[src_key]

        # State-correction pass: a non-feedthrough sub-component evaluated
        # before its producers saw stale inputs in its state update; re-run
        # it from the original state with the final values (its outputs
        # cannot change, mirroring the reference interpreter).
        for sub_name, sub_step, input_keys in corrections:
            final_inputs = {port_name: port_values.get(key, ABSENT)
                            for port_name, key in input_keys}
            if final_inputs != seen_inputs[sub_name]:
                _, corrected_state = sub_step(
                    final_inputs, state["subs"].get(sub_name), tick)
                sub_states[sub_name] = corrected_state

        boundary: Dict[str, Any] = {name: ABSENT for name in output_names}
        for port_name, is_delayed, channel_name, initial_value, src_key \
                in boundary_outputs:
            if is_delayed:
                boundary[port_name] = delayed_buffers.get(channel_name,
                                                          initial_value)
            else:
                boundary[port_name] = port_values.get(src_key, ABSENT)

        for channel_name, src_key in delayed_commit:
            delayed_buffers[channel_name] = port_values.get(src_key, ABSENT)

        return boundary, {"subs": sub_states, "delayed": delayed_buffers}

    return CompiledSchedule(component, "composite", step, children)


def _compile_gated(component: ClockGatedComponent) -> CompiledSchedule:
    """Gate a compiled inner schedule by a cached clock pattern."""
    inner = compile_nested(component.inner)
    inner_step = inner.step
    pattern = component.clock.cached()
    output_names = tuple(component.output_names())
    initial_state = component.initial_state

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = initial_state()
        if not pattern.at(tick):
            return {name: ABSENT for name in output_names}, state
        inner_outputs, inner_state = inner_step(inputs, state["inner"], tick)
        return dict(inner_outputs), {"inner": inner_state,
                                     "pattern_cache": state.get("pattern_cache")}

    return CompiledSchedule(component, "gated", step,
                            [(component.inner.name, inner)])


def _compile_mtd(component: ModeTransitionDiagram) -> CompiledSchedule:
    """Precompute per-mode transition tables and compile mode behaviours.

    Guards are lowered to closures and evaluated against the per-tick input
    dict directly: the reference ``react`` builds ``environment =
    dict(inputs)`` each tick, but the evaluator never mutates its
    environment and the input dicts are fresh per tick (see
    :func:`_compile_expression`), so the copy is pure overhead.
    """
    if not component.modes():
        raise ModelError(f"MTD {component.name!r} has no modes")
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    children: List[Tuple[str, CompiledSchedule]] = []
    behaviors: Dict[str, Optional[Tuple[StepFunction, Tuple[str, ...]]]] = {}
    for mode in component.modes():
        if mode.behavior is None:
            behaviors[mode.name] = None
            continue
        compiled = compile_nested(mode.behavior)
        children.append((mode.name, compiled))
        behaviors[mode.name] = (compiled.step,
                                tuple(mode.behavior.input_names()))
    transition_table = {
        mode.name: tuple((compiler(t.guard), t.target, t.describe())
                         for t in component.transitions_from(mode.name))
        for mode in component.modes()}
    output_names = tuple(component.output_names())
    mode_port = (component.MODE_PORT if component.MODE_PORT in output_names
                 else None)
    initial_mode = component.initial_mode
    initial_state = component.initial_state

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = initial_state()
        current = state["mode"] or initial_mode
        mode_states = dict(state["mode_states"])

        fired_description = None
        for guard, target, description in transition_table[current]:
            value = guard(inputs)
            if is_present(value) and bool(value):
                fired_description = description
                current = target
                break

        outputs: Dict[str, Any] = {name: ABSENT for name in output_names}
        behavior = behaviors[current]
        if behavior is not None:
            behavior_step, behavior_inputs = behavior
            sub_inputs = {name: inputs.get(name, ABSENT)
                          for name in behavior_inputs}
            mode_outputs, new_mode_state = behavior_step(
                sub_inputs, mode_states.get(current), tick)
            mode_states[current] = new_mode_state
            outputs.update(mode_outputs)
        if mode_port is not None:
            outputs[mode_port] = current

        return outputs, {"mode": current, "mode_states": mode_states,
                         "last_transition": fired_description}

    return CompiledSchedule(component, "mtd", step, children)


#: Action-target classification for compiled STD transitions.
_ASSIGN_VARIABLE, _ASSIGN_OUTPUT, _ASSIGN_INVALID = 0, 1, 2


def _compile_std(component: StateTransitionDiagram) -> CompiledSchedule:
    """Precompute per-state sorted transition tables with compiled guards,
    actions and emissions.

    Tick-for-tick identical to :meth:`StateTransitionDiagram.react`,
    including the invalid-action-target :class:`ModelError` path (classified
    at compile time, raised when the offending transition fires) and the
    ``state``-port emission precedence (explicit actions beat state
    emissions beat the automatic state-name emission).
    """
    if not component.states():
        raise ModelError(f"STD {component.name!r} has no states")
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    component_name = component.name
    output_names = tuple(component.output_names())
    output_set = frozenset(output_names)
    variable_names = frozenset(component.variables())
    has_variables = bool(variable_names)
    state_port = (component.STATE_PORT if component.STATE_PORT in output_set
                  else None)

    transition_table: Dict[str, Tuple[Any, ...]] = {}
    emission_table: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
    for std_state in component.states():
        rows = []
        for transition in component.transitions_from(std_state.name):
            actions = []
            for target_name, expression in transition.actions.items():
                if target_name in variable_names:
                    kind = _ASSIGN_VARIABLE
                elif target_name in output_set:
                    kind = _ASSIGN_OUTPUT
                else:
                    kind = _ASSIGN_INVALID
                actions.append((kind, target_name, compiler(expression)))
            rows.append((compiler(transition.guard), transition.target,
                         tuple(actions)))
        transition_table[std_state.name] = tuple(rows)
        # react() skips emissions to non-output names; filter at compile time
        emission_table[std_state.name] = tuple(
            (port_name, compiler(expression))
            for port_name, expression in std_state.emissions.items()
            if port_name in output_set)

    initial_state_name = component.initial_state_name
    initial_state = component.initial_state

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = initial_state()
        current = state["state"] or initial_state_name
        variables = state["vars"]
        if has_variables:
            variables = dict(variables)
            environment = dict(variables)
            environment.update(inputs)
        else:
            # No local variables: guards/actions/emissions see the inputs
            # only, and the (empty) vars dict is never mutated.
            environment = inputs
        outputs: Dict[str, Any] = {name: ABSENT for name in output_names}

        fired = None
        for guard, target, actions in transition_table[current]:
            value = guard(environment)
            if is_present(value) and bool(value):
                fired = (target, actions)
                break

        variables_changed = False
        if fired is not None:
            target, actions = fired
            for kind, target_name, compiled in actions:
                result = compiled(environment)
                if kind == _ASSIGN_VARIABLE:
                    variables[target_name] = result
                    variables_changed = True
                elif kind == _ASSIGN_OUTPUT:
                    outputs[target_name] = result
                else:
                    raise ModelError(
                        f"action target {target_name!r} of STD "
                        f"{component_name!r} is neither a local variable nor "
                        "an output port")
            current = target

        if variables_changed:
            emission_environment = dict(variables)
            emission_environment.update(inputs)
        else:
            emission_environment = environment
        for port_name, compiled in emission_table[current]:
            if outputs[port_name] is ABSENT:
                outputs[port_name] = compiled(emission_environment)

        if state_port is not None and outputs[state_port] is ABSENT:
            outputs[state_port] = current

        return outputs, {"state": current, "vars": variables}

    return CompiledSchedule(component, "std", step)


def _observed(step: StepFunction,
              observe: Callable[[Any], None]) -> StepFunction:
    """*step*, calling *observe* with the new state after every tick."""
    def observed_step(inputs: Mapping[str, Any], state: Any,
                      tick: int) -> Tuple[Dict[str, Any], Any]:
        outputs, new_state = step(inputs, state, tick)
        observe(new_state)
        return outputs, new_state
    return observed_step


#: Schedule backends accepted by :class:`CompiledSimulator` (sorted).
_BACKENDS = ("auto", "batch", "flat", "native", "nested")

#: Counter of the :class:`CompiledSimulator` compiles, one per constructed
#: simulator, recorded while observability is on.
COMPILE_COUNTER = "compile.simulators"


class CompiledSimulator:
    """Drop-in replacement for :class:`Simulator` backed by a compiled schedule.

    The schedule is built once in the constructor; :meth:`run` may be called
    any number of times with different stimuli, which is what makes scenario
    sweeps cheap.  Semantics, including every error path, match the
    reference engine.

    *backend* selects the compilation strategy: ``"auto"`` (default) uses
    the flat schedule IR whenever the component is flattenable and the
    nested path otherwise; ``"flat"`` / ``"nested"`` force one of the two
    (``"flat"`` raises :class:`SimulationError` for unflattenable roots).
    ``"native"`` compiles the flat program to a C tick loop driven through
    ctypes (:mod:`repro.simulation.native`, requires a flattenable root
    and a C compiler) and runs each scenario's whole horizon in one C
    call; hosts without a compiler degrade to the flat interpreter with a
    ``RuntimeWarning``.  ``"batch"`` compiles exactly like ``"native"``;
    it differs only in how :func:`repro.scenarios.runner.run_sharded`
    dispatches a battery (one :func:`~repro.scenarios.runner.shard_scenarios`
    shard per worker instead of one task per scenario).
    """

    def __init__(self, component: Component, check_types: bool = False,
                 backend: str = "auto"):
        if backend not in _BACKENDS:
            raise SimulationError(
                f"unknown schedule backend {backend!r} "
                f"(choose from {_BACKENDS})")
        if not component.has_behavior():
            raise SimulationError(
                f"component {component.name!r} has no executable behaviour and "
                "cannot be simulated (FAA components may be structure-only)")
        self.component = component
        self.check_types = check_types
        self.backend = backend
        with maybe_span("compile.component", component=component.name,
                        backend=backend) as span:
            if backend == "auto":
                self.schedule = compile_component(component)
            elif backend == "flat":
                from .schedule_ir import compile_flat
                self.schedule = compile_flat(component)
            elif backend in ("batch", "native"):
                from .schedule_ir import compile_flat
                from .native import compile_native, native_available
                flat_schedule = compile_flat(component)
                if native_available():
                    self.schedule = compile_native(flat_schedule)
                else:
                    warnings.warn(
                        f"backend {backend!r} requires a C compiler (cc/gcc/"
                        "clang); falling back to the flat interpreter",
                        RuntimeWarning, stacklevel=2)
                    self.schedule = flat_schedule
            else:
                self.schedule = compile_nested(component)
            if span is not None:
                span.attributes["kind"] = self.schedule.kind
        registry = current_registry()
        if registry is not None:
            registry.counter(COMPILE_COUNTER).inc()

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10,
            observe: Optional[Callable[[Any], None]] = None
            ) -> SimulationTrace:
        """Simulate for *ticks* ticks and return the recorded trace.

        *observe*, when given, is called with the schedule's state after
        every tick (the sharded runner's mode observation).  Native
        schedules run the whole horizon in one C call
        (:meth:`~repro.simulation.native.NativeSchedule.run`), observed or
        not.

        With observability enabled (:mod:`repro.obs`) the run, observed or
        not, is wrapped in a ``run`` span, and -- when the session asked
        for ``profile_ops`` or ``flight_recording`` and the schedule is a
        flat program -- executed through a swapped-in step variant
        (op-profiling or flight-recording; recording wins when both are
        on).  Op profiles and forensics need the per-tick Python step, so
        under either flag a native schedule runs its wrapped
        :attr:`~repro.simulation.native.NativeSchedule.flat` program's
        step variant instead of the C loop; spans-only sessions stay in
        C.  The default path is untouched: ``schedule.step`` is the same
        closure whether or not :mod:`repro.obs` was ever enabled.
        """
        telemetry = _obs_active()
        schedule = self.schedule
        if schedule.kind == "native" and telemetry is not None \
                and (telemetry.flight_recording or telemetry.profile_ops):
            schedule = schedule.flat
        with maybe_span("run", component=self.component.name,
                        backend=self.backend, ticks=ticks,
                        kind=schedule.kind):
            if schedule.kind == "native":
                return schedule.run(stimuli, ticks, self.check_types,
                                    observe)
            step = schedule.step
            if telemetry is not None:
                step = telemetry.step_for(schedule) or step
            if observe is not None:
                step = _observed(step, observe)
            return run_stepped(self.component, step, stimuli, ticks,
                               self.check_types,
                               initial_state=schedule.initial_state())


def simulate_compiled(component: Component,
                      stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                      ticks: int = 10,
                      check_types: bool = False) -> SimulationTrace:
    """Convenience wrapper: compile *component*, run once, return the trace."""
    return CompiledSimulator(component, check_types=check_types).run(stimuli,
                                                                     ticks)


def compile_ccd(ccd: ClusterCommunicationDiagram,
                check_types: bool = False) -> CompiledSimulator:
    """Compile the gated execution view of a CCD (cluster-rate gating)."""
    return CompiledSimulator(build_gated_ccd(ccd), check_types=check_types)


def simulate_ccd_compiled(ccd: ClusterCommunicationDiagram,
                          stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                          ticks: int = 20,
                          check_types: bool = False) -> SimulationTrace:
    """Compiled counterpart of :func:`~repro.simulation.engine.simulate_ccd`."""
    return compile_ccd(ccd, check_types=check_types).run(stimuli, ticks)


class ScenarioSuite:
    """A batch of scenarios sharing one compiled schedule.

    This is the scenario-diversity axis of validation: sweep engine-mode
    sequences, event storms or randomized stimulus sets against the same
    model while paying the compilation cost once.

    *backend* is forwarded to :class:`CompiledSimulator`: with
    ``backend="native"`` or ``"batch"`` each scenario of :meth:`run_all`
    is one call into the compiled C tick loop.
    """

    def __init__(self, component: Component, check_types: bool = False,
                 backend: str = "auto"):
        self.simulator = CompiledSimulator(component, check_types=check_types,
                                           backend=backend)
        self._scenarios: List[Tuple[str, Optional[Mapping[str, StimulusSpec]],
                                    int]] = []

    def add(self, name: str,
            stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10) -> "ScenarioSuite":
        """Register a scenario; returns ``self`` for chaining."""
        if any(existing == name for existing, _, _ in self._scenarios):
            raise SimulationError(
                f"scenario suite already has a scenario {name!r}")
        if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks <= 0:
            raise SimulationError(
                f"scenario {name!r} must run for a positive integer number "
                f"of ticks, got {ticks!r}")
        self._scenarios.append((name, stimuli, ticks))
        return self

    def names(self) -> List[str]:
        return [name for name, _, _ in self._scenarios]

    def scenarios(self) -> List[Any]:
        """The registered scenarios as :class:`repro.scenarios.Scenario`
        records (the batch format of the sharded runner)."""
        from ..scenarios.generators import Scenario
        return [Scenario(name, dict(stimuli or {}), ticks)
                for name, stimuli, ticks in self._scenarios]

    def __len__(self) -> int:
        return len(self._scenarios)

    def run_all(self) -> Dict[str, SimulationTrace]:
        """Run every scenario against the compiled schedule, in
        registration order; the first failing scenario raises its
        original exception."""
        return {name: self.simulator.run(stimuli, ticks)
                for name, stimuli, ticks in self._scenarios}

    def run_parallel(self, max_workers: Optional[int] = None,
                     executor: str = "process") -> Dict[str, SimulationTrace]:
        """Shard the batch across a worker pool (same traces as
        :meth:`run_all`, in the same order).

        Delegates to :func:`repro.scenarios.runner.run_sharded`: worker
        processes receive the pickled *model* and recompile the schedule
        once each, so stimuli must be picklable for ``executor="process"``
        (the generators of :mod:`repro.scenarios.generators` are).  A
        failing scenario raises :class:`SimulationError` here, mirroring
        :meth:`run_all`'s behaviour of propagating the first error.
        """
        from ..scenarios.runner import run_sharded
        results = run_sharded(self.simulator.component, self.scenarios(),
                              max_workers=max_workers, executor=executor,
                              check_types=self.simulator.check_types,
                              backend=self.simulator.backend)
        traces: Dict[str, SimulationTrace] = {}
        for result in results:
            if result.error is not None:
                raise SimulationError(
                    f"scenario {result.name!r} failed during sharded run: "
                    f"{result.error}")
            traces[result.name] = result.trace
        return traces

    def verify_against_reference(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Differential check: compiled vs interpreter, per scenario.

        Returns the :func:`~repro.simulation.trace.first_difference` result
        for every scenario -- ``None`` everywhere means the engines agree
        tick-for-tick on all scenarios.
        """
        reference = Simulator(self.simulator.component,
                              check_types=self.simulator.check_types)
        differences: Dict[str, Optional[Dict[str, Any]]] = {}
        for name, stimuli, ticks in self._scenarios:
            compiled_trace = self.simulator.run(stimuli, ticks)
            reference_trace = reference.run(stimuli, ticks)
            difference = first_difference(reference_trace, compiled_trace)
            if difference is None \
                    and reference_trace.mode_history != compiled_trace.mode_history:
                difference = {"signal": "mode_history", "tick": None,
                              "first": reference_trace.mode_history,
                              "second": compiled_trace.mode_history}
            differences[name] = difference
        return differences

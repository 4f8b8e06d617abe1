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
over slot-based environments).  Everything else is a *leaf*, compiled once
by :func:`compile_nested` into a step closure with every schedule decision
precomputed:

* each :class:`~repro.simulation.engine.ClockGatedComponent` around a leaf
  gets an incrementally materialized clock pattern
  (:meth:`~repro.core.clocks.Clock.cached`) shared across runs;
* each mode-transition diagram gets per-mode transition tables (guards
  compiled to generated Python functions via
  :mod:`repro.core.expr_compile`) and mode
  behaviours compiled by :func:`compile_component` (a composite behaviour
  is a flat program of its own);
* each state-transition diagram gets per-state sorted transition tables
  with compiled guards, actions and emissions;
* each expression block gets its output expressions compiled the same
  way (inside a flat program, a pure expression block is no leaf at all:
  its ``expr`` op inlines the expressions' source into the step);
* every other component (function/stateful blocks, subclasses with a
  custom ``react``...) is already a single ``react`` call and is executed
  directly.

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

import threading
import warnings
from typing import (Any, Callable, Dict, List, Mapping, Optional, Tuple)

from ..core.components import Component, ExpressionComponent
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
    """A leaf component compiled into an executable schedule.

    ``step`` is the executable form; ``kind`` names the compilation strategy
    (``"gated"``, ``"mtd"``, ``"std"`` or ``"atomic"``) and ``children``
    holds the compiled sub-schedules (a gate's inner schedule, an MTD's
    mode behaviours), so tests and tools can inspect what the compiler
    produced.
    """

    __slots__ = ("component", "kind", "step", "children")

    def __init__(self, component: Component, kind: str, step: StepFunction,
                 children: Optional[List[Tuple[str, Any]]] = None):
        self.component = component
        self.kind = kind
        self.step = step
        self.children = children or []

    def initial_state(self) -> Any:
        return self.component.initial_state()

    #: A leaf schedule has no mode plan: observing modes always walks its
    #: state (:meth:`mode_paths`).
    needs_mode_observation = True

    def mode_paths(self, state: Any, path: Optional[str] = None,
                   out: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Active mode/state of every MTD and STD, keyed by hierarchical
        path (the paths of :func:`~repro.simulation.engine.active_mode_paths`)
        and collected into *out*.

        Gates and MTDs recurse through their compiled children, so a mode
        behaviour holding a flat program's state is read by that program;
        every other leaf runs ``react`` and is walked by
        :func:`~repro.simulation.engine.active_mode_paths`.
        """
        if out is None:
            out = {}
        if path is None:
            path = self.component.name
        if self.kind not in ("gated", "mtd") or not isinstance(state, Mapping):
            return active_mode_paths(self.component, state, path, out)
        if self.kind == "gated":
            return self.children[0][1].mode_paths(state.get("inner"), path,
                                                  out)
        current = state.get("mode") or self.component.initial_mode
        out[path] = current
        for mode_name, behavior in self.children:
            if mode_name == current:
                mode_states = state.get("mode_states") or {}
                behavior.mode_paths(mode_states.get(current),
                                    f"{path}/{current}", out)
        return out

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
    gating predicates and correction barriers preserving the interpreter's
    semantics exactly.  Everything else -- MTDs, STDs, atomic blocks,
    gates around them, subclasses with a custom ``react`` -- is a leaf
    compiled by :func:`compile_nested`.  Both schedule kinds share the
    ``(inputs, state, tick) -> (outputs, state)`` step contract and the
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
    """Compile the leaf *component* into a step closure.

    The leaf compiler of the flat program and of unflattenable roots:
    clock gates around leaves, MTDs, STDs and expression blocks get
    specialized steps; anything else -- composites included, which
    :func:`compile_component` flattens instead -- runs its own ``react``.
    """
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
    On top of that, the output expressions are compiled to generated
    Python functions (:mod:`repro.core.expr_compile`), removing the
    per-tick AST walk.
    """
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    items = tuple((name, compiler(expression))
                  for name, expression in component.output_expressions.items())

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        return {name: compiled(inputs) for name, compiled in items}, state

    return CompiledSchedule(component, "atomic", step)


def _compile_gated(component: ClockGatedComponent) -> CompiledSchedule:
    """Gate a compiled inner schedule by a cached clock pattern."""
    inner = compile_component(component.inner)
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

    Guards are compiled to generated Python functions
    (:mod:`repro.core.expr_compile`) and evaluated against the per-tick input
    dict directly: the reference ``react`` builds ``environment =
    dict(inputs)`` each tick, but the evaluator never mutates its
    environment and the input dicts are fresh per tick (see
    :func:`_compile_expression`), so the copy is pure overhead.
    """
    if not component.modes():
        raise ModelError(f"MTD {component.name!r} has no modes")
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    children: List[Tuple[str, Any]] = []
    behaviors: Dict[str, Optional[Tuple[StepFunction, Tuple[str, ...]]]] = {}
    for mode in component.modes():
        if mode.behavior is None:
            behaviors[mode.name] = None
            continue
        compiled = compile_component(mode.behavior)
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
_BACKENDS = ("auto", "batch", "flat", "native")

#: Counter of the :class:`CompiledSimulator` compiles, one per constructed
#: simulator, recorded while observability is on.
COMPILE_COUNTER = "compile.simulators"

#: Counters of tiered ``auto``: switches to the native C loop, and
#: promotions the compiler (or the ``ir_verify`` gate) failed.
PROMOTION_COUNTER = "compile.native_promotions"
PROMOTION_FAILURE_COUNTER = "compile.native_promotion_failures"

#: Serializes the tiering state changes of simulators shared by threads.
_TIER_LOCK = threading.Lock()


class CompiledSimulator:
    """Drop-in replacement for :class:`Simulator` backed by a compiled schedule.

    The schedule is built once in the constructor; :meth:`run` may be called
    any number of times with different stimuli, which is what makes scenario
    sweeps cheap.  Semantics, including every error path, match the
    reference engine.

    *backend* selects the compilation strategy: ``"auto"`` (default) uses
    the flat schedule IR whenever the component is flattenable and the
    leaf compiler (:func:`compile_nested`) otherwise; ``"flat"`` forces
    the flat IR (and raises :class:`SimulationError` for unflattenable
    roots).
    ``"native"`` compiles the flat program to a C tick loop driven through
    ctypes (:mod:`repro.simulation.native`, requires a flattenable root
    and a C compiler) and runs each scenario's whole horizon in one C
    call; hosts without a compiler degrade to the flat interpreter with a
    ``RuntimeWarning``.  ``"batch"`` is an alias of ``"native"``; spans
    and events still carry the name the caller passed.

    ``"auto"`` is tiered (:mod:`repro.simulation.native.tiering`): a flat
    simulator runs its first scenarios at once on the flat program, its
    second :meth:`run` starts a background lowering to C when the host
    has a compiler and the program passes the static cost check, and the
    first :meth:`run` after that lowering finished switches to the native
    C loop (``compile.native_promotions``; a failed compile leaves it on
    flat and counts ``compile.native_promotion_failures``).  A simulator
    that is only constructed, or run once, starts no thread.
    :attr:`schedule` stays the flat schedule the constructor built;
    :meth:`join_promotion` waits for an in-flight lowering.
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
            else:  # "native" and its alias "batch"
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
            if span is not None:
                span.attributes["kind"] = self.schedule.kind
        registry = current_registry()
        if registry is not None:
            registry.counter(COMPILE_COUNTER).inc()
        #: tiered ``auto``: runs so far, the in-flight promotion and the
        #: native schedule it produced
        self._tiering = backend == "auto" and self.schedule.kind == "flat"
        self._runs = 0
        self._promotion: Any = None
        self._native: Any = None

    def _tier_up(self) -> None:
        """Advance tiered ``auto`` at a scenario boundary: start the
        promotion on the second run, switch once it is done."""
        with _TIER_LOCK:
            promotion = self._promotion
            if promotion is None:
                self._runs += 1
                if self._runs == 2:
                    from .native.tiering import start_promotion
                    self._promotion = start_promotion(self.schedule)
                    self._tiering = self._promotion is not None
                return
            if not promotion.done:
                return
            self._tiering = False
            self._promotion = None
            self._native = promotion.native
        if promotion.native is not None:
            counter = PROMOTION_COUNTER
        elif promotion.error is not None:
            counter = PROMOTION_FAILURE_COUNTER
        else:  # the post-lowering cost check declined
            return
        registry = current_registry()
        if registry is not None:
            registry.counter(counter).inc()

    def join_promotion(self, timeout: Optional[float] = None) -> bool:
        """Wait for an in-flight promotion to the native C loop (the next
        :meth:`run` switches); returns whether none is still running."""
        promotion = self._promotion
        return promotion is None or promotion.join(timeout)

    def _promote_now(self, force: bool = False) -> None:
        """Lower and load synchronously, so the next :meth:`run` switches
        (a test hook; *force* skips the post-lowering cost check)."""
        from .native.tiering import Promotion
        promotion = Promotion(self.schedule, force)
        promotion.work()
        with _TIER_LOCK:
            self._promotion = promotion
            self._tiering = True

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

        Tiered ``auto`` (see the class docstring) switches here, between
        runs, and a promoted simulator runs like a native one.
        """
        if self._tiering:
            self._tier_up()
        telemetry = _obs_active()
        schedule = self._native or self.schedule
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
    ``backend="native"`` (or its alias ``"batch"``) each scenario of
    :meth:`run_all` is one call into the compiled C tick loop.
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

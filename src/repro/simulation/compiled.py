"""The compiled simulation engine: compile once, run many.

The reference :class:`~repro.simulation.engine.Simulator` is a tree-walking
interpreter: every tick of every composite re-derives the topological
evaluation order, the instantaneous-dependency information and the channel
routing from the model structure.  That is the right reference semantics --
simple, always in sync with the model -- but it makes simulation the
bottleneck of FAA/FDA validation (paper Sec. 3.1), where one functional
concept is exercised against many scenarios.

This module splits execution into two phases.

**Compile** (:func:`~repro.simulation.schedule_ir.compile_flat`): every
root -- composites, clock gates and MTDs hoisted, in any nesting, down to
their leaves -- is lowered onto the flat schedule IR of
:mod:`repro.simulation.schedule_ir` (one global step program over
slot-based environments); a bare leaf root is a one-op program.  Each
*leaf* is compiled once by :func:`compile_component` into a step closure
with every schedule decision precomputed:

* each mode-transition diagram is split as in the paper's Sec. 3.3: its
  mode controller (:func:`compile_mode_controller`, per-mode transition
  tables with guards compiled to generated Python functions via
  :mod:`repro.core.expr_compile`) is a leaf, and each mode behaviour is
  hoisted into a ``select`` region of the same program;
* each state-transition diagram gets per-state sorted transition tables
  with compiled guards, actions and emissions;
* a pure expression block is no leaf at all: its ``expr`` op inlines the
  expressions' source into the step;
* every other component (function/stateful blocks, subclasses with a
  custom ``react``...) is already a single ``react`` call and is executed
  directly.

**Run** (:class:`CompiledSimulator` / :class:`ScenarioSuite`): the compiled
schedule is a pure function of ``(inputs, state, tick)`` and can therefore
be reused across any number of simulation runs.  Its state is its own: a
run starts from the schedule's ``initial_state()`` (a flat program's
:class:`~repro.simulation.schedule_ir.FlatState`), never from the
interpreter's nested ``component.initial_state()``.  Every schedule a
simulator runs is flat or native, and runs a scenario's whole horizon at
once through one shell, :func:`~repro.simulation.engine.run_horizon`:
every stimulus is drawn into columns first, then one generated Python
tick loop (flat) or one C call (native) runs all ticks, and the output
type checks and the trace follow from the columns.  Only under
``profile_ops`` or ``flight_recording`` does a flat program step tick by
tick through :func:`~repro.simulation.engine.run_stepped`.
:class:`ScenarioSuite` exploits reuse for scenario sweeps: one compile,
many stimulus sets, with :meth:`ScenarioSuite.verify_against_reference`
as the built-in differential check against the interpreter.

Mode coverage is data a run produces, not a callback: every leaf that
carries an MTD or STD writes its new state into a readout slot, the
horizon loops return those slots as columns beside the outputs, and one
decoder turns them into the trace's mode histories after the run
(:meth:`~repro.simulation.schedule_ir.FlatSchedule.decode_modes`).

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

from ..core.components import Component
from ..core.errors import ModelError, SimulationError
from ..core.values import ABSENT, is_present
from ..obs.context import active as _obs_active
from ..obs.context import current_registry, maybe_span
from ..notations.ccd import ClusterCommunicationDiagram
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram
from .engine import Simulator, StimulusSpec, build_gated_ccd, run_stepped
from .trace import SimulationTrace, first_difference

#: A compiled step: ``(inputs, state, tick) -> (outputs, next_state)``.
StepFunction = Callable[[Mapping[str, Any], Any, int], Tuple[Dict[str, Any], Any]]


class CompiledSchedule:
    """A leaf component compiled into an executable step.

    ``step`` is the executable form, over the state :meth:`initial_state`
    starts; ``kind`` names the compilation strategy (``"mtd"`` for an
    MTD's mode controller, ``"std"`` or ``"atomic"``), so tests and tools
    can inspect what the compiler produced.
    """

    __slots__ = ("component", "kind", "step", "_initial")

    def __init__(self, component: Component, kind: str, step: StepFunction,
                 initial: Optional[Callable[[], Any]] = None):
        self.component = component
        self.kind = kind
        self.step = step
        self._initial = initial or component.initial_state

    def initial_state(self) -> Any:
        """The state :attr:`step` starts from: the component's own, except
        that a mode controller's is ``{"mode": initial mode}``."""
        return self._initial()

    def __repr__(self) -> str:
        return f"CompiledSchedule({self.component.name!r}, kind={self.kind!r})"


def compile_component(component: Component, verify: bool = False):
    """Compile *component* into a reusable execution schedule.

    Composites, clock gates and MTDs with their default ``react`` compile
    to the flat schedule IR
    (:class:`~repro.simulation.schedule_ir.FlatSchedule`): one global,
    topologically ordered step program over slot-based environments, with
    gating predicates, mode ``select`` regions and correction barriers
    preserving the interpreter's semantics exactly.  Every other component
    is a leaf :class:`CompiledSchedule`: an STD gets per-state transition
    tables, anything else -- atomic blocks, subclasses with a custom
    ``react`` -- runs its own ``react``.  Both schedule kinds share the
    ``(inputs, state, tick) -> (outputs, state)`` step contract, each over
    the state its own ``initial_state()`` starts.  This is the dispatch of
    the flattener's ``run`` ops; :class:`CompiledSimulator` compiles every
    root flat (:func:`~repro.simulation.schedule_ir.compile_flat`).

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
        if isinstance(component, StateTransitionDiagram) \
                and type(component).react is StateTransitionDiagram.react:
            return _compile_std(component)
        return CompiledSchedule(component, "atomic", component.react)


def compile_mode_controller(component: ModeTransitionDiagram
                            ) -> CompiledSchedule:
    """The mode controller of an MTD (paper Sec. 3.3): per-mode transition
    tables with guards compiled to generated Python functions
    (:mod:`repro.core.expr_compile`).

    Its step emits the active mode's name (``#mode``) and its position in
    ``modes()`` (``#index``, the condition of the flattener's ``select``
    regions) over the state ``{"mode": name}``.  Guards are evaluated
    against the per-tick input dict directly: the reference ``react``
    copies it first, but the evaluator never mutates its environment.
    """
    if not component.modes():
        raise ModelError(f"MTD {component.name!r} has no modes")
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    results = {mode.name: ({"#mode": mode.name, "#index": position},
                           {"mode": mode.name})
               for position, mode in enumerate(component.modes())}
    transition_table = {
        mode.name: tuple((compiler(t.guard), results[t.target])
                         for t in component.transitions_from(mode.name))
        for mode in component.modes()}
    initial_mode = component.initial_mode

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        current = state["mode"]
        for guard, result in transition_table[current]:
            value = guard(inputs)
            if is_present(value) and bool(value):
                return result
        return results[current]

    return CompiledSchedule(component, "mtd", step,
                            lambda: {"mode": initial_mode})


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

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
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

    Every root with behaviour compiles to one flat program
    (:func:`~repro.simulation.schedule_ir.compile_flat`; a bare MTD, STD
    or atomic root is a one-op program).  *backend* selects how it runs:
    ``"flat"`` in generated Python; ``"native"`` lowered to a C tick loop
    driven through ctypes (:mod:`repro.simulation.native`, requires a C
    compiler) that runs each scenario's whole horizon in one C call --
    hosts without a compiler degrade to the flat interpreter with a
    ``RuntimeWarning``; ``"batch"`` is an alias of ``"native"`` (spans and
    events still carry the name the caller passed); ``"auto"`` (default)
    is flat at once, then tiered.

    ``"auto"`` is tiered (:mod:`repro.simulation.native.tiering`): a
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
        from .schedule_ir import compile_flat
        with maybe_span("compile.component", component=component.name,
                        backend=backend) as span:
            flat_schedule = self.schedule = compile_flat(component)
            if backend in ("native", "batch"):
                from .native import compile_native, native_available
                if native_available():
                    self.schedule = compile_native(flat_schedule)
                else:
                    warnings.warn(
                        f"backend {backend!r} requires a C compiler (cc/gcc/"
                        "clang); falling back to the flat interpreter",
                        RuntimeWarning, stacklevel=2)
            if span is not None:
                span.attributes["kind"] = self.schedule.kind
        registry = current_registry()
        if registry is not None:
            registry.counter(COMPILE_COUNTER).inc()
        #: tiered ``auto``: runs so far, the in-flight promotion and the
        #: native schedule it produced
        self._tiering = backend == "auto"
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
            ticks: int = 10) -> SimulationTrace:
        """Simulate for *ticks* ticks and return the recorded trace.

        The whole horizon runs at once through
        :func:`~repro.simulation.engine.run_horizon`: a flat schedule in
        one generated tick loop
        (:meth:`~repro.simulation.schedule_ir.FlatSchedule.run`), a native
        one in one C call
        (:meth:`~repro.simulation.native.NativeSchedule.run`).  Either
        way the trace carries the run's mode histories, decoded from the
        readout columns after the run
        (:meth:`~repro.simulation.schedule_ir.FlatSchedule.decode_modes`):
        ``trace.mode_paths``, and ``trace.mode_history`` for a bare-leaf
        root whose state carries a ``"mode"``, as
        :func:`~repro.simulation.engine.run_stepped` records it.

        With observability enabled (:mod:`repro.obs`) the run is wrapped
        in a ``run`` span, and -- when the session asked for
        ``profile_ops`` or ``flight_recording`` -- executed tick by tick
        through the flat program's swapped-in step variant (op-profiling
        or flight-recording; recording wins when both are on), whose
        per-tick leaf states are decoded the same way.  Op profiles and
        forensics need the per-tick Python step, so under either flag a
        native schedule runs its wrapped
        :attr:`~repro.simulation.native.NativeSchedule.flat` program's
        step variant instead of the C loop; spans-only sessions keep the
        horizon loops.  The default path is untouched: it runs the same
        generated code whether or not :mod:`repro.obs` was ever enabled.

        Tiered ``auto`` (see the class docstring) switches here, between
        runs, and a promoted simulator runs like a native one.
        """
        if self._tiering:
            self._tier_up()
        telemetry = _obs_active()
        schedule = self._native or self.schedule
        swapped = telemetry is not None \
            and (telemetry.flight_recording or telemetry.profile_ops)
        if swapped and schedule.kind == "native":
            schedule = schedule.flat
        with maybe_span("run", component=self.component.name,
                        backend=self.backend, ticks=ticks,
                        kind=schedule.kind):
            if not swapped:
                return schedule.run(stimuli, ticks, self.check_types)
            step = telemetry.step_for(schedule)
            states: List[List[Any]] = []

            def stepping(inputs: Mapping[str, Any], state: Any,
                         tick: int) -> Tuple[Dict[str, Any], Any]:
                outputs, state = step(inputs, state, tick)
                states.append(state.leaf_states)
                return outputs, state

            trace = run_stepped(self.component, stepping, stimuli, ticks,
                                self.check_types,
                                initial_state=schedule.initial_state())
        schedule.decode_modes(trace, [
            [leaf_states[index] for leaf_states in states]
            for index, _slot in schedule.readout_spec])
        return trace


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

        Delegates to :func:`repro.scenarios.runner.run_sharded`, on its
        shared warm pool: each task carries the pickled *model*, and a
        worker process compiles the schedule on its first task of the
        model and reuses it for later tasks and suites, so stimuli must
        be picklable for ``executor="process"`` (the generators of
        :mod:`repro.scenarios.generators` are).  A
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

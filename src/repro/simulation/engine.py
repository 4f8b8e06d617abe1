"""The synchronous simulation engine.

Model simulation is one of the means the FAA/FDA levels offer for validating
functional concepts (paper Sec. 3.1).  The engine executes any component --
atomic block, DFD, SSD, MTD, STD, cluster or CCD -- against input stimuli on
the global discrete time base and records a :class:`SimulationTrace`.

Stimuli are given per input port as

* a :class:`~repro.core.values.Stream` (explicit per-tick values),
* a plain sequence (treated as present at every tick),
* a scalar (constant, present at every tick),
* a callable ``tick -> value`` for programmatic stimuli, or
* a stimulus generator (any object with a ``materialize(ticks)`` method,
  e.g. from :mod:`repro.scenarios.generators`), which is materialized once
  for the simulation horizon so the per-tick hot path is a list index.

Rate gating: a :class:`ClockGatedComponent` wrapper restricts a component's
reaction to the ticks of an abstract clock -- the LA-level view in which a
cluster of rate ``every(n, true)`` only exchanges messages every *n*-th tick.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Union

from ..core.clocks import Clock
from ..core.components import (Component, CompositeComponent,
                               register_transparent_wrapper)
from ..core.errors import SimulationError
from ..core.types import check_value
from ..core.values import ABSENT, Stream, is_absent
from ..notations.ccd import Cluster, ClusterCommunicationDiagram
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram
from .trace import SimulationTrace

StimulusSpec = Union[Stream, Sequence[Any], Callable[[int], Any], int, float, bool, str]


def normalize_stimulus(spec: StimulusSpec, ticks: int) -> Callable[[int], Any]:
    """Turn any accepted stimulus specification into a ``tick -> value`` map.

    Sequences (and materialized generators) shorter than the simulation
    horizon are absent beyond their end.  Generator materialization is the
    normalization shared by both engines: reference and compiled runs see
    the exact same per-tick values for the same generator.
    """
    if isinstance(spec, Stream):
        values = spec.values()
        return lambda tick: values[tick] if 0 <= tick < len(values) else ABSENT
    materialize = getattr(spec, "materialize", None)
    if materialize is not None and not isinstance(spec, (list, tuple)):
        values = list(materialize(ticks))
        return lambda tick: values[tick] if 0 <= tick < len(values) else ABSENT
    if callable(spec):
        return spec  # type: ignore[return-value]
    if isinstance(spec, (list, tuple)):
        values = list(spec)
        return lambda tick: values[tick] if 0 <= tick < len(values) else ABSENT
    # scalar constant
    return lambda tick: spec


def prepare_feeds(component: Component,
                  stimuli: Optional[Mapping[str, StimulusSpec]],
                  ticks: int) -> "tuple[tuple[str, Optional[Callable[[int], Any]]], ...]":
    """Validate *ticks*/*stimuli* against *component* and normalize feeds.

    The entry validation of :func:`run_stepped`, shared with the native
    tick loop (:mod:`repro.simulation.native`) so every engine rejects bad
    tick counts and unknown stimulus ports with identical messages and
    materializes generators identically.  Returns one
    ``(port name, tick -> value | None)`` pair per input port, in
    ``input_names()`` order.
    """
    # bool is an int subclass: ticks=True would silently mean one tick, so
    # reject it the way ScenarioSuite.add does -- every entry point (run,
    # run_stepped, compiled runs, scenario batches) agrees on validation.
    if isinstance(ticks, bool) or not isinstance(ticks, int):
        raise SimulationError(
            f"tick count must be an integer number of ticks, got {ticks!r}")
    if ticks < 0:
        raise SimulationError("tick count must be non-negative")
    stimuli = dict(stimuli or {})
    input_names = component.input_names()
    unknown = set(stimuli) - set(input_names)
    if unknown:
        raise SimulationError(
            f"stimuli refer to unknown input ports {sorted(unknown)} of "
            f"component {component.name!r}")
    generators = {name: normalize_stimulus(spec, ticks)
                  for name, spec in stimuli.items()}
    return tuple((name, generators.get(name)) for name in input_names)


class Prefill:
    """The stimuli of one run, drawn for the whole horizon before it runs.

    ``columns[i]`` holds the values of the i-th input port (``input_names``
    order) for ticks ``[0, runnable)``.  ``runnable`` is the horizon, or
    the tick *p* at which a draw or an input type check failed; that
    failure is ``deferred``: in :func:`run_stepped` order the draws of
    tick *p* come after the step (and output checks) of tick *p - 1*, so
    the engine runs ticks ``[0, p)`` first and an error there wins.
    """

    __slots__ = ("columns", "runnable", "deferred")

    def __init__(self, columns: "list[list[Any]]", runnable: int,
                 deferred: Optional[BaseException]):
        self.columns = columns
        self.runnable = runnable
        self.deferred = deferred


def prefill_stimuli(component: Component,
                    feeds: "tuple[tuple[str, Optional[Callable[[int], Any]]], ...]",
                    ticks: int, check_types: bool) -> Prefill:
    """Draw every feed (from :func:`prepare_feeds`) for *ticks* ticks.

    The draw is tick-major and port-inner, with the input type checks of
    :func:`run_stepped` in place: the exact draw sequence of a stepped
    run, so shared generator instances see the serial draw order and the
    first failing ``(tick, port)`` is the same.  The horizon-at-once
    native tick loop (:mod:`repro.simulation.native`) calls this instead
    of drawing per tick.
    """
    columns: "list[list[Any]]" = [[] for _ in feeds]
    tick = 0
    try:
        for tick in range(ticks):
            for (name, generator), column in zip(feeds, columns):
                value = generator(tick) if generator is not None else ABSENT
                if check_types and not is_absent(value):
                    check_value(value, component.port(name).port_type,
                                context=f"{component.name}.{name}@t{tick}")
                column.append(value)
    except Exception as exc:  # noqa: BLE001 - deferred to its tick
        for column in columns:
            del column[tick:]
        return Prefill(columns, tick, exc)
    return Prefill(columns, ticks, None)


def check_outputs(component: Component, outputs: Mapping[str, Any],
                  tick: int) -> None:
    """The output type checks of one tick (``check_types=True`` runs)."""
    for name, value in outputs.items():
        if component.has_port(name) and not is_absent(value):
            check_value(value, component.port(name).port_type,
                        context=f"{component.name}.{name}@t{tick}")


def run_stepped(component: Component,
                step: Callable[[Mapping[str, Any], Any, int],
                               "tuple[Dict[str, Any], Any]"],
                stimuli: Optional[Mapping[str, StimulusSpec]],
                ticks: int, check_types: bool,
                initial_state: Any = None) -> SimulationTrace:
    """The driver loop shared by the reference and the compiled engine.

    Validates the stimuli against *component*'s interface, then repeatedly
    applies *step* -- ``component.react`` for the interpreter, a compiled
    schedule for :class:`~repro.simulation.compiled.CompiledSimulator` --
    recording a trace (and mode history for mode-carrying states).  Keeping
    one loop guarantees both engines agree on stimulus handling, type
    checking and trace bookkeeping by construction.

    *initial_state* overrides ``component.initial_state()`` as the state
    fed to the first step.  Compiled schedules pass their own
    representation here (the flat engine's slot-based state); this also
    keeps very deep hierarchies runnable, where the recursive
    ``initial_state()`` walk would hit the Python recursion limit.
    """
    feeds = prepare_feeds(component, stimuli, ticks)

    trace = SimulationTrace(component.name)
    state = component.initial_state() if initial_state is None else initial_state
    for tick in range(ticks):
        inputs: Dict[str, Any] = {}
        for name, generator in feeds:
            value = generator(tick) if generator is not None else ABSENT
            if check_types and not is_absent(value):
                check_value(value, component.port(name).port_type,
                            context=f"{component.name}.{name}@t{tick}")
            inputs[name] = value
        outputs, state = step(inputs, state, tick)
        if check_types:
            check_outputs(component, outputs, tick)
        trace.record_tick(inputs, outputs)
        if isinstance(state, dict) and "mode" in state:
            trace.mode_history.append(state["mode"])
    return trace


def active_mode_paths(component: Component, state: Any,
                      path: Optional[str] = None,
                      out: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Extract the active mode/state of every MTD and STD from a state tree.

    Both engines use the same state shapes (``{"subs": ...}`` for
    composites, ``{"inner": ...}`` for clock-gated wrappers, ``{"mode":
    ...}`` / ``{"state": ...}`` for MTDs/STDs), so the walker works on
    reference and compiled states alike.  Paths match
    :func:`repro.analysis.mode_analysis.machine_inventory`.
    """
    if out is None:
        out = {}
    if path is None:
        path = component.name
    if state is None or not isinstance(state, Mapping):
        return out
    inner = getattr(component, "inner", None)
    if isinstance(inner, Component) and "inner" in state:
        active_mode_paths(inner, state["inner"], path, out)
        return out
    if isinstance(component, ModeTransitionDiagram):
        current = state.get("mode") or component.initial_mode
        out[path] = current
        mode = component.mode(current)
        if mode.behavior is not None:
            mode_states = state.get("mode_states") or {}
            active_mode_paths(mode.behavior, mode_states.get(current),
                              f"{path}/{current}", out)
    elif isinstance(component, StateTransitionDiagram):
        out[path] = state.get("state") or component.initial_state_name
    elif isinstance(component, CompositeComponent):
        subs = state.get("subs") or {}
        for sub in component.subcomponents():
            active_mode_paths(sub, subs.get(sub.name), f"{path}/{sub.name}", out)
    return out


class Simulator:
    """Runs a component over a finite number of ticks of the base clock."""

    def __init__(self, component: Component, check_types: bool = False):
        if not component.has_behavior():
            raise SimulationError(
                f"component {component.name!r} has no executable behaviour and "
                "cannot be simulated (FAA components may be structure-only)")
        self.component = component
        self.check_types = check_types

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10) -> SimulationTrace:
        """Simulate for *ticks* ticks and return the recorded trace."""
        return run_stepped(self.component, self.component.react, stimuli,
                           ticks, self.check_types)


def simulate(component: Component,
             stimuli: Optional[Mapping[str, StimulusSpec]] = None,
             ticks: int = 10, check_types: bool = False) -> SimulationTrace:
    """Convenience wrapper: simulate *component* and return the trace."""
    return Simulator(component, check_types=check_types).run(stimuli, ticks)


class ClockGatedComponent(Component):
    """Restricts a component's reactions to the ticks of an abstract clock.

    At present ticks of the gate clock the wrapped component reacts normally;
    at all other ticks it is not activated, its outputs are absent and its
    state is unchanged.  This is the LA-level execution view of a cluster
    with an explicit rate.
    """

    def __init__(self, inner: Component, clock: Clock,
                 name: Optional[str] = None):
        super().__init__(name or f"{inner.name}_gated",
                         description=f"{inner.name} gated by {clock.expression()}")
        self.inner = inner
        self.clock = clock
        for port in inner.input_ports():
            self.add_input(port.name, port.port_type, clock, port.description)
        for port in inner.output_ports():
            self.add_output(port.name, port.port_type, clock, port.description)

    def has_behavior(self) -> bool:
        return self.inner.has_behavior()

    def initial_state(self) -> Any:
        return {"inner": self.inner.initial_state(), "pattern_cache": None}

    def react(self, inputs, state, tick):
        if state is None:
            state = self.initial_state()
        # The presence pattern is materialized incrementally and kept in the
        # state's pattern_cache slot, so an n-tick simulation queries the
        # clock O(log n) times instead of rebuilding pattern(tick + 1) per
        # tick (which made gated simulation O(ticks^2)).
        cache = state.get("pattern_cache")
        if getattr(cache, "clock", None) is not self.clock:
            cache = self.clock.cached()
        if not cache.at(tick):
            outputs = {name: ABSENT for name in self.output_names()}
            return outputs, {"inner": state["inner"], "pattern_cache": cache}
        inner_outputs, inner_state = self.inner.react(inputs, state["inner"], tick)
        return dict(inner_outputs), {"inner": inner_state,
                                     "pattern_cache": cache}

    def instantaneous_dependencies(self):
        return self.inner.instantaneous_dependencies()

    def structure_token(self):
        # The wrapped component lives in self.inner, not in _subcomponents;
        # recurse so enclosing composites' cached plans see its mutations.
        return (self._structure_version, self.inner.structure_token())


# The gate forwards the hierarchy queries 1:1 to the wrapped component
# (mirrored ports, has_behavior/instantaneous_dependencies delegation,
# (version, inner token) structure tokens); registering it lets the
# iterative worklist walks in repro.core.components unwrap gated nesting
# instead of recursing through it, keeping arbitrarily deep
# composite/gate chains compilable under the Python recursion limit.
register_transparent_wrapper(ClockGatedComponent, "inner")


def build_gated_ccd(ccd: ClusterCommunicationDiagram
                    ) -> ClusterCommunicationDiagram:
    """Build the gated execution view of a CCD (shared by both engines).

    A gated copy of the diagram is built so that each cluster only reacts at
    the ticks of its rate clock; the structure (channels, boundary ports) is
    preserved.  The original CCD is not modified.
    """
    gated = ClusterCommunicationDiagram(f"{ccd.name}_gated", ccd.description)
    for port in ccd.input_ports():
        gated.add_input(port.name, port.port_type, port.clock, port.description)
    for port in ccd.output_ports():
        gated.add_output(port.name, port.port_type, port.clock, port.description)

    wrappers: Dict[str, ClockGatedComponent] = {}
    for component in ccd.subcomponents():
        if isinstance(component, Cluster):
            wrapper = ClockGatedComponent(component, component.rate,
                                          name=component.name)
        else:  # non-cluster elements run on the base clock
            wrapper = ClockGatedComponent(component, component.port(
                component.input_names()[0]).clock if component.input_names()
                else ccd.port(ccd.input_names()[0]).clock, name=component.name)
        wrappers[component.name] = wrapper
        # bypass add_cluster type restriction: wrappers stand in for clusters
        super(ClusterCommunicationDiagram, gated).add_subcomponent(wrapper)

    for channel in ccd.channels():
        gated.connect(
            channel.source.port if channel.source.is_boundary()
            else f"{channel.source.component}.{channel.source.port}",
            channel.destination.port if channel.destination.is_boundary()
            else f"{channel.destination.component}.{channel.destination.port}",
            name=channel.name, delayed=channel.delayed,
            initial_value=channel.initial_value)

    return gated


def simulate_ccd(ccd: ClusterCommunicationDiagram,
                 stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                 ticks: int = 20, check_types: bool = False) -> SimulationTrace:
    """Simulate a CCD with every cluster gated by its explicit rate clock."""
    return simulate(build_gated_ccd(ccd), stimuli, ticks, check_types)

"""The synchronous simulation engine.

Model simulation is one of the means the FAA/FDA levels offer for validating
functional concepts (paper Sec. 3.1).  The engine executes any component --
atomic block, DFD, SSD, MTD, STD, cluster or CCD -- against input stimuli on
the global discrete time base and records a :class:`SimulationTrace`.

Stimuli are given per input port as

* a :class:`~repro.core.values.Stream` (explicit per-tick values),
* a plain sequence (treated as present at every tick),
* a scalar (constant, present at every tick),
* a stimulus generator (any object with a ``materialize(ticks)`` method,
  e.g. from :mod:`repro.scenarios.generators`), or
* a callable ``tick -> value`` for programmatic stimuli.

Columns are the stimulus protocol: :func:`prepare_feeds` turns every
specification but a plain callable into one column of exactly *ticks*
values -- a generator materialized once for the horizon, a stream or
sequence cut or padded with absence, a scalar repeated -- and
:func:`prefill_stimuli` type-checks each column in one pass: the port
type finds the column's first rejected value itself
(:meth:`~repro.core.types.Type.first_rejected`).  Plain callables are the
per-tick path: they are called tick by tick, in tick-major, port-inner
order, exactly as a stepped run calls them.

Rate gating: a :class:`ClockGatedComponent` wrapper restricts a component's
reaction to the ticks of an abstract clock -- the LA-level view in which a
cluster of rate ``every(n, true)`` only exchanges messages every *n*-th tick.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Union)

from ..core.clocks import Clock
from ..core.components import (Component, CompositeComponent,
                               register_transparent_wrapper)
from ..core.errors import SimulationError
from ..core.types import check_value
from ..core.values import ABSENT, Stream, fit_column
from ..notations.ccd import Cluster, ClusterCommunicationDiagram
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram
from .trace import SimulationTrace

StimulusSpec = Union[Stream, Sequence[Any], Callable[[int], Any], int, float, bool, str]


#: One input port's feed: a column of exactly *ticks* values, or a plain
#: callable ``tick -> value`` drawn tick by tick.
Feed = Union[List[Any], Callable[[int], Any]]


def _feed(spec: StimulusSpec, ticks: int) -> Feed:
    """The feed of one stimulus specification over *ticks* ticks: always a
    new list, so no trace column aliases a generator's cache or the
    caller's sequence."""
    if isinstance(spec, Stream):
        return fit_column(spec, ticks)
    materialize = getattr(spec, "materialize", None)
    if materialize is not None and not isinstance(spec, (list, tuple)):
        return fit_column(materialize(ticks), ticks)
    if callable(spec):
        return spec  # type: ignore[return-value]
    if isinstance(spec, (list, tuple)):
        return fit_column(spec, ticks)
    return [spec] * ticks  # scalar constant


def normalize_stimulus(spec: StimulusSpec, ticks: int) -> Callable[[int], Any]:
    """Turn any accepted stimulus specification into a ``tick -> value`` map.

    The per-tick view over the feed :func:`prepare_feeds` builds: a plain
    callable is returned as it is; any other specification is its column
    (generators materialized once for the horizon, sequences absent
    beyond their end), absent outside ``[0, ticks)``.
    """
    feed = _feed(spec, ticks)
    if not isinstance(feed, list):
        return feed
    return lambda tick: feed[tick] if 0 <= tick < ticks else ABSENT


def prepare_feeds(component: Component,
                  stimuli: Optional[Mapping[str, StimulusSpec]],
                  ticks: int) -> "tuple[tuple[str, Feed], ...]":
    """Validate *ticks*/*stimuli* against *component* and build the feeds.

    The entry validation of :func:`run_stepped`, shared with
    :func:`run_horizon` so every engine rejects bad
    tick counts and unknown stimulus ports with identical messages and
    materializes generators identically.  Returns one ``(port name,
    feed)`` pair per input port, in ``input_names()`` order: a column of
    exactly *ticks* values (all absent for an unstimulated port), or a
    plain callable.
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
    feeds = {name: _feed(spec, ticks) for name, spec in stimuli.items()}
    return tuple((name, feeds[name] if name in feeds else [ABSENT] * ticks)
                 for name in input_names)


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


def _first_rejected(component: Component,
                    columns: "Sequence[tuple[int, str, List[Any]]]",
                    horizon: int) -> "tuple[int, int, Optional[Exception]]":
    """The first present value of ``(port index, port name, column)``
    columns of *horizon* values that its port's type rejects, tick-major
    and port-inner: ``(tick, port index, the error check_value raises on
    it)``, or ``(horizon, -1, None)`` when every value type-checks."""
    tick, port, error = horizon, -1, None
    for index, name, column in columns:
        rejected = component.port(name).port_type.first_rejected(column)
        if rejected < tick:
            tick, port, value, where = rejected, index, column[rejected], name
    if port >= 0:
        try:
            check_value(value, component.port(where).port_type,
                        context=f"{component.name}.{where}@t{tick}")
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            error = exc
    return tick, port, error


def prefill_stimuli(component: Component,
                    feeds: "tuple[tuple[str, Feed], ...]",
                    ticks: int, check_types: bool) -> Prefill:
    """Draw every feed (from :func:`prepare_feeds`) for *ticks* ticks.

    Columns are type-checked one column at a time.  Plain callables are
    called tick-major and port-inner with the input type checks of
    :func:`run_stepped` in place, and only up to the first rejected column
    value.  The deferred failure is the one a stepped run meets first: the
    minimum, in tick-major, port-inner order, over the columns' first
    rejected values and the callables' first raising draw or rejected
    value.  :func:`run_horizon` calls this instead of drawing per tick.
    """
    columns: "list[list[Any]]" = [feed if isinstance(feed, list) else []
                                  for _name, feed in feeds]
    runnable, port, deferred = ticks, -1, None
    if check_types:
        runnable, port, deferred = _first_rejected(
            component, [(index, name, feed)
                        for index, (name, feed) in enumerate(feeds)
                        if isinstance(feed, list)], ticks)
    calls = [(index, name, feed, component.port(name).port_type)
             for index, (name, feed) in enumerate(feeds)
             if not isinstance(feed, list)]
    if calls:
        tick = 0
        try:
            for tick in range(min(runnable + 1, ticks)):
                for index, name, feed, port_type in calls:
                    if tick == runnable and index > port:
                        break
                    value = feed(tick)
                    if check_types and value is not ABSENT:
                        check_value(value, port_type,
                                    context=f"{component.name}.{name}@t{tick}")
                    columns[index].append(value)
        except Exception as exc:  # noqa: BLE001 - deferred to its tick
            runnable, deferred = tick, exc
    if runnable < ticks:
        for column in columns:
            del column[runnable:]
    return Prefill(columns, runnable, deferred)


#: ``enter(columns, runnable) -> (ticks done, error, columns)``: one
#: engine's run of ticks ``[0, runnable)`` for :func:`run_horizon`.
HorizonEntry = Callable[["list[list[Any]]", int],
                        "tuple[int, Optional[BaseException], list[list[Any]]]"]


def run_horizon(component: Component, output_names: Sequence[str],
                enter: HorizonEntry,
                stimuli: Optional[Mapping[str, StimulusSpec]], ticks: int,
                check_types: bool
                ) -> "tuple[SimulationTrace, list[list[Any]]]":
    """The whole-horizon run shared by the flat and the native engine.

    Draws every stimulus first (:func:`prepare_feeds`,
    :func:`prefill_stimuli`), then has *enter* run the runnable ticks in
    one go: it gets the input columns (``input_names()`` order) and the
    runnable tick count, and returns the ticks that ran to their end, the
    error that stopped it (or ``None``) and one column per *output_names*
    entry, followed by the engine's readout columns.  The output type
    checks then run over the completed ticks.  The first error is raised
    in :func:`run_stepped` order: an output check failing at tick *o*,
    then an error of *enter* at tick *s > o*, then a stimulus draw or
    input check failing at tick *p > s* -- the same exception object.
    Returns :func:`run_stepped`'s trace, built over the columns
    themselves, and the readout columns.
    """
    feeds = prepare_feeds(component, stimuli, ticks)
    prefill = prefill_stimuli(component, feeds, ticks, check_types)
    completed, error, outputs = enter(prefill.columns, prefill.runnable)
    if check_types:
        _tick, _port, failing = _first_rejected(
            component, [(index, name, column) for index, (name, column)
                        in enumerate(zip(output_names, outputs))], completed)
        if failing is not None:
            raise failing
    if error is not None:
        raise error
    if prefill.deferred is not None:
        raise prefill.deferred
    trace = SimulationTrace(component.name)
    trace.ticks = ticks
    if ticks:
        for name, column in zip(component.input_names(), prefill.columns):
            trace.inputs[name] = Stream._adopt(column)  # noqa: SLF001
        for name, column in zip(output_names, outputs):
            trace.outputs[name] = Stream._adopt(column)  # noqa: SLF001
    return trace, outputs[len(output_names):]


def run_stepped(component: Component,
                step: Callable[[Mapping[str, Any], Any, int],
                               "tuple[Dict[str, Any], Any]"],
                stimuli: Optional[Mapping[str, StimulusSpec]],
                ticks: int, check_types: bool,
                initial_state: Any = None) -> SimulationTrace:
    """The driver loop shared by the reference and the compiled engine.

    Validates the stimuli against *component*'s interface, then repeatedly
    applies *step* -- ``component.react`` for the interpreter, a compiled
    schedule's per-tick ``step`` for callers that pin the per-tick path
    (compiled simulators never do: they run whole horizons through
    :func:`run_horizon`) -- recording a trace (and mode history for
    mode-carrying states).  The trace holds
    exactly the declared boundary ports, one value per tick each: a
    declared output the step leaves out of its outputs is recorded
    absent, and a key the component does not declare is neither
    type-checked nor recorded -- the trace :func:`run_horizon` builds from
    its output columns.

    *initial_state* overrides ``component.initial_state()`` as the state
    fed to the first step.  A compiled step runs only from its schedule's
    own state, so its callers pass ``schedule.initial_state()`` here (the
    flat engine's slot-based state); this also keeps very deep
    hierarchies runnable, where the recursive ``initial_state()`` walk
    would hit the Python recursion limit.
    """
    feeds = prepare_feeds(component, stimuli, ticks)

    trace = SimulationTrace(component.name)
    output_names = component.output_names()
    # port types hoisted out of the tick loop; columns are read by index
    reads = [(name, feed.__getitem__ if isinstance(feed, list) else feed,
              component.port(name).port_type) for name, feed in feeds]
    writes = [(name, component.port(name).port_type)
              for name in output_names]
    state = component.initial_state() if initial_state is None else initial_state
    for tick in range(ticks):
        inputs: Dict[str, Any] = {}
        for name, read, port_type in reads:
            value = read(tick)
            if check_types and value is not ABSENT:
                check_value(value, port_type,
                            context=f"{component.name}.{name}@t{tick}")
            inputs[name] = value
        outputs, state = step(inputs, state, tick)
        outputs = {name: outputs.get(name, ABSENT) for name in output_names}
        if check_types:
            for name, port_type in writes:
                value = outputs[name]
                if value is not ABSENT:
                    check_value(value, port_type,
                                context=f"{component.name}.{name}@t{tick}")
        trace.record_tick(inputs, outputs)
        if isinstance(state, dict) and "mode" in state:
            trace.mode_history.append(state["mode"])
    return trace


def active_mode_paths(component: Component, state: Any,
                      path: Optional[str] = None,
                      out: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Extract the active mode/state of every MTD and STD from a state tree.

    The walker reads the interpreter's state shapes (``{"subs": ...}`` for
    composites, ``{"inner": ...}`` for clock-gated wrappers, ``{"mode":
    ..., "mode_states": ...}`` / ``{"state": ...}`` for MTDs/STDs).  It is
    the oracle of the compiled engines' mode histories
    (:meth:`~repro.simulation.schedule_ir.FlatSchedule.decode_modes`),
    which also walk a custom-``react`` leaf's own state with it.  Paths
    match :func:`repro.analysis.mode_analysis.machine_inventory`.
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

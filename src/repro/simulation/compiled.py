"""The compiled simulation engine: compile once, run many.

The reference :class:`~repro.simulation.engine.Simulator` is a tree-walking
interpreter: every tick of every composite re-derives the topological
evaluation order, the instantaneous-dependency information and the channel
routing from the model structure.  That is the right reference semantics --
simple, always in sync with the model -- but it makes simulation the
bottleneck of FAA/FDA validation (paper Sec. 3.1), where one functional
concept is exercised against many scenarios.

This module splits execution into two phases.

**Compile** (:func:`~repro.simulation.schedule_ir.compile_flat`, also
reached as :func:`compile_component`): every root -- composites, clock
gates and MTDs hoisted, in any nesting, down to their leaves -- is lowered
onto the flat schedule IR of :mod:`repro.simulation.schedule_ir` (one
global step program over slot-based environments); a bare leaf root is a
one-op program.  The flattener compiles every leaf itself, with every
schedule decision precomputed:

* each mode-transition diagram is split as in the paper's Sec. 3.3: its
  mode controller (per-mode transition tables with guards compiled to
  generated Python functions via :mod:`repro.core.expr_compile`) is a
  leaf, and each mode behaviour is hoisted into a ``select`` region of the
  same program;
* each state-transition diagram gets per-state sorted transition tables
  with compiled guards, actions and emissions;
* a pure expression block is no leaf step at all: its ``expr`` op inlines
  the expressions' source into the step;
* every other component (function/stateful blocks, subclasses with a
  custom ``react``...) is already a single ``react`` call and is executed
  directly;
* a non-feedthrough entry that a later producer feeds is a correction
  region of the same program, which its composite's barrier re-runs
  with the final inputs: there is no nested program.

**Run** (:class:`CompiledSimulator` / :class:`ScenarioSuite`): the compiled
schedule is a pure function of ``(inputs, state, tick)`` and can therefore
be reused across any number of simulation runs.  Its state is its own: a
run starts from the schedule's ``initial_state()`` (a flat program's
:class:`~repro.simulation.schedule_ir.FlatState`), never from the
interpreter's nested ``component.initial_state()``.  Every schedule a
simulator runs is flat or native -- the default ``backend="auto"`` runs
its first scenario flat and lowers, loads and switches to native in the
calling thread on its second -- and runs a scenario's whole horizon at
once through one shell, :func:`~repro.simulation.engine.run_horizon`:
every stimulus is drawn into columns first, then one generated Python
tick loop (flat) or one C call (native) runs all ticks, and the output
type checks and the trace follow from the columns.  Under ``profile_ops``
or ``flight_recording`` the flat loop is an observed variant generated
from the same templates; no compiled run steps tick by tick.
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
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.components import Component
from ..core.errors import SimulationError
from ..obs.context import active as _obs_active
from ..obs.context import current_registry, maybe_span
from ..notations.ccd import ClusterCommunicationDiagram
from .engine import Simulator, StimulusSpec, build_gated_ccd
from .schedule_ir import FlatSchedule, compile_flat
from .trace import SimulationTrace, first_difference


def compile_component(component: Component,
                      verify: bool = False) -> FlatSchedule:
    """Compile *component* into its flat program (:func:`compile_flat`).

    Every root with behaviour compiles to one
    :class:`~repro.simulation.schedule_ir.FlatSchedule`: a composite, gate
    or MTD hierarchy into its hoisted program, a bare STD, atomic block or
    custom-``react`` component into a one-op program.

    With ``verify=True`` the static-analysis engine
    (:mod:`repro.analysis.lint`) runs too -- model-level lint of the
    hierarchy first, then IR dataflow verification of the compiled
    program -- and any error finding raises
    :class:`~repro.core.errors.ValidationError` before a schedule is
    returned.
    """
    if verify:
        from ..analysis.lint import lint_component, lint_flat_schedule
        lint_component(component).raise_on_errors()
    schedule = compile_flat(component)
    if verify:
        lint_flat_schedule(schedule).raise_on_errors()
    return schedule


#: Schedule backends accepted by :class:`CompiledSimulator` (sorted).
_BACKENDS = ("auto", "batch", "flat", "native")

#: Counter of the :class:`CompiledSimulator` compiles, one per constructed
#: simulator, recorded while observability is on.
COMPILE_COUNTER = "compile.simulators"

#: Counters of tiered ``auto``: promotions to the native C loop, and
#: promotions the compiler (or the ``ir_verify`` gate) failed.
PROMOTION_COUNTER = "compile.native_promotions"
PROMOTION_FAILURE_COUNTER = "compile.native_promotion_failures"

#: Serializes the run counts of simulators shared by threads (never held
#: across a promotion).
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

    ``"auto"`` is tiered: a simulator runs its first scenario on the flat
    program, and its second :meth:`run` promotes it in the calling
    thread (:func:`~repro.simulation.native.schedule.promote`: the build
    of ``"native"`` plus a cost check between lowering and loading), then
    runs that scenario and every later one on the native C loop
    (``compile.native_promotions``, plus the ``compile.native`` span and
    counters of the native compile).  Without a compiler, or when the
    cost check declines, no C compiler runs and the simulator stays flat
    for good; so does a failed compile, which counts
    ``compile.native_promotion_failures``.  No thread is started.
    :attr:`schedule` stays the flat schedule the constructor built.  The
    tiering state belongs to the simulator, so it persists across
    campaigns: the sharded runner
    (:func:`~repro.scenarios.runner.run_sharded`) caches one simulator
    per model per thread or process, whose first campaign pays for the
    promotion and whose later campaigns run the C loop.
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
        #: tiered ``auto``: runs so far, and the native schedule promoted to
        self._tiering = backend == "auto"
        self._runs = 0
        self._native: Any = None

    def _tier_up(self) -> None:
        """Count a run of tiered ``auto``; the second one promotes.  Of
        threads sharing the simulator, exactly one promotes, while the
        others keep running flat."""
        with _TIER_LOCK:
            self._runs += 1
            if self._runs < 2 or not self._tiering:
                return
            self._tiering = False
        self._promote_now()

    def _promote_now(self, force: bool = False) -> None:
        """Promote to the native C loop in this thread, ending tiering
        (also a test hook; *force* skips the cost check)."""
        from .native.schedule import promote
        self._tiering = False
        try:
            self._native = promote(self.schedule, force)
        except Exception:  # noqa: BLE001 - counted; the simulator stays flat
            counter = PROMOTION_FAILURE_COUNTER
        else:
            if self._native is None:  # no compiler, or the check declined
                return
            counter = PROMOTION_COUNTER
        registry = current_registry()
        if registry is not None:
            registry.counter(counter).inc()

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
        root whose state carries a ``"mode"``, as the reference
        :class:`~repro.simulation.engine.Simulator` records it.

        With observability enabled (:mod:`repro.obs`) the run is wrapped
        in a ``run`` span.  A session with ``profile_ops`` or
        ``flight_recording`` runs the same horizon shell on an observed
        variant of the flat loop
        (:meth:`~repro.obs.context.Telemetry.observed_horizon`: the op
        profile and the flight recorder are written into the generated
        loop), so a native schedule runs its wrapped
        :attr:`~repro.simulation.native.NativeSchedule.flat` program
        there; spans-only sessions keep the C loop.  The default path is
        untouched: it runs the same generated code whether or not
        :mod:`repro.obs` was ever enabled.

        Tiered ``auto`` (see the class docstring) promotes here, before
        its second scenario runs, and a promoted simulator runs like a
        native one.
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
            return schedule.run(stimuli, ticks, self.check_types)


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
        shared warm pool: each task carries the model's pickle and one
        cache key, the digest of that pickle plus ``check_types`` and
        ``backend``, so each worker thread or process compiles a private
        copy of the model once, on its first task of it, and reuses that
        simulator for later tasks and suites.
        The pool compiles its own simulators: this suite's
        :attr:`simulator` runs only :meth:`run_all`.  Stimuli must be
        picklable for ``executor="process"`` (the generators of
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

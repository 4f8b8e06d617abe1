"""The batch IR backend: one vectorized sweep per scenario battery.

The flat schedule (:mod:`repro.simulation.schedule_ir`) runs one scenario
per call: a linear op program over a flat slot environment, one Python
value per slot.  Scenario batteries run that program S times per tick --
yet the program, the slots and the tick structure are identical across
scenarios; only the values differ.  This module widens each slot to a
**lane row**: the per-tick environment becomes a ``(slot, scenario)``
NumPy object array, and the whole battery advances through each tick with
ONE pass over the op program.

Op lowering (1:1 with the flat program, so gate jump targets carry over;
the tick itself is straight-line source generated from the flat engine's
per-op templates by :func:`repro.simulation.op_emit.batch_sweep`, with
lane-plane spellings only where the substrate differs):

* ``expr``      -- expression closures are recompiled into lane-masked
  ufunc chains (:mod:`repro.core.expr_batch`): one kernel call evaluates a
  node for every active scenario, with ABSENT threaded through the object
  lanes and short-circuit/conditional masks restricting evaluation to
  exactly the lanes the scalar engine would evaluate;
* ``copy`` / ``buf_read`` / ``buf_write`` -- slot copies become whole-row
  assignments;
* ``gate``      -- clock predicates depend on the tick only, so a silent
  clock skips the region for every lane at once;
* ``run`` / ``correct`` -- nested-fallback leaves (MTDs, STDs, atomic
  blocks, unflattenable composites) and correction barriers keep their
  per-scenario step closures and loop over the active lanes only.

**Active masks.**  Scenarios of unequal length share one sweep: a lane is
active while ``tick < its horizon``; finished and failed lanes simply drop
out of the mask.  Lane state (leaf states, delayed buffers, slot rows) is
strictly per-lane -- nothing is ever read across the scenario axis.

**Error parity without batch poisoning.**  The vectorized kernels promise
to raise whenever any active lane would raise under the scalar engine
(and to compute bit-identical values when none would).  On any raise the
sweep discards the half-done vectorized tick and re-runs that one tick
per active lane through ``FlatSchedule.step`` -- the scalar closures --
from the tick-start state.  Lanes that raise there record the *exact*
scalar exception (same type, message and tick) and leave the battery;
surviving lanes continue vectorized at the next tick.  Stimulus
validation runs through :func:`repro.simulation.engine.prepare_feeds`,
the same helper :func:`~repro.simulation.engine.run_stepped` uses, so
rejection messages are identical by construction.

Stimulus callables are materialized for the full horizon up front (one
draw sequence per lane, in lane order).  Deterministic ``tick -> value``
functions -- the de-facto contract of the sharded runner, which already
re-materializes generators per worker -- observe no difference.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.expr_batch import compile_batch_expression
from ..core.types import check_value
from ..core.values import ABSENT, Stream, is_absent
from ..obs.context import active as _obs_active
from ..obs.context import maybe_span
from .engine import StimulusSpec, active_mode_paths, prepare_feeds
from .op_emit import batch_sweep
from .schedule_ir import OP_EXPR, FlatSchedule, FlatState
from .trace import SimulationTrace

#: One battery item: ``(name, stimuli, ticks)``.
BatteryItem = Tuple[str, Optional[Mapping[str, StimulusSpec]], int]


class LaneOutcome:
    """Per-scenario outcome of a batched sweep.

    Either a trace (success) or an error: *error* is formatted exactly like
    the sharded runner's :class:`~repro.scenarios.runner.ScenarioResult`
    error strings, and *exception* carries the original exception object so
    single-run entry points can re-raise it unchanged.  *mode_paths* is
    populated when the sweep ran with ``collect_modes=True``.
    """

    __slots__ = ("name", "trace", "error", "exception", "mode_paths")

    def __init__(self, name: str, trace: Optional[SimulationTrace] = None,
                 error: Optional[str] = None,
                 exception: Optional[BaseException] = None,
                 mode_paths: Optional[Dict[str, List[Any]]] = None):
        self.name = name
        self.trace = trace
        self.error = error
        self.exception = exception
        self.mode_paths = mode_paths

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"error={self.error!r}"
        return f"LaneOutcome({self.name!r}, {status})"


def _capture(exc: BaseException) -> Tuple[str, BaseException]:
    """Format a lane failure exactly like ``execute_scenario`` (call from
    inside the ``except`` block so the traceback is still current)."""
    detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
    error = f"{type(exc).__name__}: {exc}" if str(exc) else detail
    return error, exc


def _absent_plane(rows: int, lanes: int) -> np.ndarray:
    plane = np.empty((rows, lanes), dtype=object)
    plane.fill(ABSENT)
    return plane


class BatchSchedule:
    """A :class:`~repro.simulation.schedule_ir.FlatSchedule` widened to
    execute whole scenario batteries as single vectorized sweeps."""

    kind = "batch"

    def __init__(self, flat: FlatSchedule):
        self.flat = flat
        self.component = flat.component
        with maybe_span("compile.batch_lower",
                        component=flat.component.name,
                        ops=len(flat.program)):
            self._program = self._lower(flat)
            #: one vectorized tick over the active lanes (generated; any
            #: exception leaves the planes half-written and the sweep
            #: re-runs the tick through the scalar path)
            self._sweep = batch_sweep(self._program)

    def op_labels(self) -> List[Tuple[str, str, bool]]:
        """Op descriptors for :class:`repro.obs.profile.OpProfile` -- the
        batch program is index-identical to the flat one."""
        return self.flat.op_labels()

    # -- lowering ----------------------------------------------------------

    @staticmethod
    def _lower(flat: FlatSchedule) -> Tuple[Tuple[Any, ...], ...]:
        """Replace scalar expression closures with lane-masked batch kernels.

        The op list stays index-identical to ``flat.program`` (only the
        ``expr`` item closures change), so ``gate`` jump targets need no
        relocation.  Batch kernels are recompiled from the expression
        blocks' ASTs -- the flat program stores compiled scalar closures,
        which carry no AST to translate.
        """
        program: List[Tuple[Any, ...]] = []
        for op in flat.program:
            if op[0] != OP_EXPR:
                program.append(op)
                continue
            _, leaf_index, in_spec, items, post = op
            block = flat.leaves[leaf_index].component
            functions = block._evaluator.functions  # noqa: SLF001
            batch_items = tuple(
                (slot, compile_batch_expression(expression, functions))
                for (slot, _scalar), (_name, expression)
                in zip(items, block.output_expressions.items()))
            program.append((OP_EXPR, leaf_index, in_spec, batch_items, post))
        return tuple(program)

    # -- single-run entry point --------------------------------------------

    def run_one(self, stimuli: Optional[Mapping[str, StimulusSpec]],
                ticks: int, check_types: bool = False) -> SimulationTrace:
        """Run one scenario as a one-lane battery.

        Raises the original exception on failure -- the same exception, with
        the same message, that the scalar engines raise for this scenario.
        """
        outcome = self.run_battery((("scenario", stimuli, ticks),),
                                   check_types=check_types)[0]
        if outcome.exception is not None:
            raise outcome.exception
        return outcome.trace

    # -- the battery sweep -------------------------------------------------

    def run_battery(self, items: Sequence[BatteryItem],
                    check_types: bool = False,
                    collect_modes: bool = False) -> List[LaneOutcome]:
        """Execute a whole battery as one op-program sweep.

        Returns one :class:`LaneOutcome` per item, in battery order.  Every
        trace, error message, failure tick and mode history is identical to
        running the items one by one through the scalar engines.

        With observability enabled (:mod:`repro.obs`) the sweep is wrapped
        in a ``batch.sweep`` span, sweep-level counters (lanes, vectorized
        ticks, scalar-fallback activity, duration) land in the active
        registry, and -- under ``profile_ops`` -- the op program runs
        through a generated profiled variant feeding an op-level
        :class:`~repro.obs.profile.OpProfile`.  Disabled, the sweep binds
        the uninstrumented generated tick once and pays nothing per tick.
        """
        telemetry = _obs_active()
        if telemetry is None:
            return self._run_battery(items, check_types, collect_modes, None)
        with telemetry.tracer.span("batch.sweep",
                                   component=self.component.name,
                                   lanes=len(items)):
            return self._run_battery(items, check_types, collect_modes,
                                     telemetry)

    def _run_battery(self, items: Sequence[BatteryItem], check_types: bool,
                     collect_modes: bool,
                     telemetry: Optional[Any]) -> List[LaneOutcome]:
        flat = self.flat
        component = self.component
        lanes = len(items)
        if lanes == 0:
            return []

        errors: List[Optional[str]] = [None] * lanes
        exceptions: List[Optional[BaseException]] = [None] * lanes
        #: prefill failures deferred to their tick (a step error on an
        #: earlier tick must win, exactly as in the scalar draw/step order)
        pending: List[Optional[Tuple[str, BaseException]]] = [None] * lanes
        requested = [0] * lanes
        horizons = np.zeros(lanes, dtype=np.int64)
        feeds_by_lane: List[Optional[Tuple[Any, ...]]] = [None] * lanes

        for index, (_name, stimuli, ticks) in enumerate(items):
            try:
                feeds_by_lane[index] = prepare_feeds(component, stimuli, ticks)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[index], exceptions[index] = _capture(exc)
            else:
                requested[index] = ticks
                horizons[index] = ticks

        input_names = component.input_names()
        input_spec = flat._input_spec  # noqa: SLF001 - same-package IR access
        output_spec = flat._output_spec  # noqa: SLF001
        n_scratch = flat._scratch_count  # noqa: SLF001
        horizon = int(horizons.max())

        in_rows = {name: _absent_plane(horizon, lanes) for name in input_names}
        out_rows = {name: _absent_plane(horizon, lanes)
                    for name, _slot in output_spec}

        # prefill the input planes lane by lane, tick-major and port-inner:
        # the exact draw (and type-check) sequence of run_stepped, so shared
        # generator instances see the serial draw order and the first
        # failing (tick, port) matches.  The failure is *pending* until the
        # sweep reaches its tick: the lane still runs the ticks before it.
        for index in range(lanes):
            feeds = feeds_by_lane[index]
            if feeds is None:
                continue
            tick = 0
            try:
                for tick in range(requested[index]):
                    for name, generator in feeds:
                        value = generator(tick) if generator is not None \
                            else ABSENT
                        if check_types and not is_absent(value):
                            check_value(
                                value, component.port(name).port_type,
                                context=f"{component.name}.{name}@t{tick}")
                        in_rows[name][tick, index] = value
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                pending[index] = _capture(exc)
                horizons[index] = tick

        leaves = flat.leaves
        n_buffers = len(flat.buffer_specs)
        states: List[List[Any]] = [
            [leaf.component.initial_state() for _ in range(lanes)]
            for leaf in leaves]
        buffers = np.empty((n_buffers, lanes), dtype=object)
        for buffer_index, spec in enumerate(flat.buffer_specs):
            row = buffers[buffer_index]
            for lane in range(lanes):
                row[lane] = spec[0]

        values = np.empty((flat.n_slots, lanes), dtype=object)
        live = np.array([error is None for error in errors], dtype=bool)
        histories: Optional[List[Dict[str, List[Any]]]] = \
            [{} for _ in range(lanes)] if collect_modes else None
        # only the leaves of the mode plan are read, per lane; a
        # machine-free battery observes nothing
        observed_leaves = [leaves[index] for index in flat.mode_plan] \
            if collect_modes and flat.needs_mode_observation else []

        # telemetry: bound ONCE per sweep -- the disabled path binds the
        # uninstrumented generated tick and never consults the context again
        profile = telemetry.profile_for(self) if telemetry is not None \
            else None
        registry = telemetry.registry if telemetry is not None else None
        run_program = self._sweep if profile is None \
            else batch_sweep(self._program, profile)
        vector_ticks = 0
        scalar_fallback_ticks = 0
        scalar_fallback_events = 0
        sweep_started = time.perf_counter() if registry is not None else 0.0

        for tick in range(horizon):
            active = live & (tick < horizons)
            if not active.any():
                continue
            indices = np.nonzero(active)[0].tolist()
            values.fill(ABSENT)
            for name, slot in input_spec:
                values[slot] = in_rows[name][tick]
            next_states = [row[:] for row in states]
            next_buffers = buffers.copy()
            scratch: List[Any] = [None] * n_scratch
            try:
                run_program(values, active, indices, tick, states,
                            next_states, buffers, next_buffers, scratch)
            except Exception:  # noqa: BLE001 - some lane needs the scalar path
                scalar_fallback_events += 1
                scalar_fallback_ticks += len(indices)
                if profile is not None:
                    profile.scalar_fallback_ticks += len(indices)
                self._scalar_tick(tick, indices, in_rows, out_rows, states,
                                  next_states, buffers, next_buffers,
                                  input_names, output_spec, live, errors,
                                  exceptions, n_buffers)
            else:
                vector_ticks += 1
                for name, slot in output_spec:
                    out_rows[name][tick] = values[slot]
            if observed_leaves:
                for index in indices:
                    if not live[index]:
                        continue
                    observed: Dict[str, Any] = {}
                    for leaf in observed_leaves:
                        active_mode_paths(leaf.component,
                                          next_states[leaf.index][index],
                                          leaf.mode_path, observed)
                    history = histories[index]
                    for path, mode in observed.items():
                        history.setdefault(path, []).append(mode)
            if check_types:
                for index in indices:
                    if not live[index]:
                        continue
                    try:
                        for name, _slot in output_spec:
                            value = out_rows[name][tick, index]
                            if component.has_port(name) \
                                    and not is_absent(value):
                                check_value(
                                    value, component.port(name).port_type,
                                    context=f"{component.name}.{name}@t{tick}")
                    except Exception as exc:  # noqa: BLE001
                        errors[index], exceptions[index] = _capture(exc)
                        live[index] = False
            states = next_states
            buffers = next_buffers

        if registry is not None:
            registry.counter("batch.sweeps").inc()
            registry.counter("batch.lanes").inc(lanes)
            registry.counter("batch.vector_ticks").inc(vector_ticks)
            if scalar_fallback_events:
                registry.counter("batch.scalar_fallback_events").inc(
                    scalar_fallback_events)
                registry.counter("batch.scalar_fallback_ticks").inc(
                    scalar_fallback_ticks)
            registry.histogram("batch.sweep.duration_s").observe(
                time.perf_counter() - sweep_started)

        outcomes: List[LaneOutcome] = []
        for index, (name, _stimuli, _ticks) in enumerate(items):
            if errors[index] is None and pending[index] is not None:
                errors[index], exceptions[index] = pending[index]
            if errors[index] is not None:
                outcomes.append(LaneOutcome(name, error=errors[index],
                                            exception=exceptions[index]))
                continue
            trace = SimulationTrace(component.name)
            ticks = requested[index]
            trace.ticks = ticks
            if ticks:
                for port_name in input_names:
                    trace.inputs[port_name] = Stream(
                        in_rows[port_name][:ticks, index].tolist())
                for port_name, _slot in output_spec:
                    trace.outputs[port_name] = Stream(
                        out_rows[port_name][:ticks, index].tolist())
            outcomes.append(LaneOutcome(
                name, trace=trace,
                mode_paths=histories[index] if histories is not None
                else None))
        return outcomes

    # -- the scalar fallback tick -------------------------------------------

    def _scalar_tick(self, tick: int, indices: List[int],
                     in_rows: Dict[str, np.ndarray],
                     out_rows: Dict[str, np.ndarray],
                     states: List[List[Any]], next_states: List[List[Any]],
                     buffers: np.ndarray, next_buffers: np.ndarray,
                     input_names: Sequence[str],
                     output_spec: Tuple[Tuple[str, int], ...], live: np.ndarray,
                     errors: List[Optional[str]],
                     exceptions: List[Optional[BaseException]],
                     n_buffers: int) -> None:
        """Re-run one tick per active lane through the scalar flat step.

        Runs from the tick-start state (``states``/``buffers`` are never
        touched by the aborted vectorized attempt), so each lane reproduces
        exactly what the scalar engine computes at this tick: identical
        outputs and next states for healthy lanes, the identical exception
        -- type, message, tick -- for failing ones, which leave the sweep
        without disturbing their neighbours.
        """
        step = self.flat.step
        n_leaves = len(states)
        for lane in indices:
            inputs = {name: in_rows[name][tick, lane] for name in input_names}
            lane_state = FlatState(
                [states[leaf][lane] for leaf in range(n_leaves)],
                [buffers[buffer_index, lane]
                 for buffer_index in range(n_buffers)])
            try:
                outputs, new_state = step(inputs, lane_state, tick)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[lane], exceptions[lane] = _capture(exc)
                live[lane] = False
                continue
            for leaf in range(n_leaves):
                next_states[leaf][lane] = new_state.leaf_states[leaf]
            for buffer_index in range(n_buffers):
                next_buffers[buffer_index, lane] = \
                    new_state.buffers[buffer_index]
            for name, _slot in output_spec:
                out_rows[name][tick, lane] = outputs[name]

    def __repr__(self) -> str:
        return (f"BatchSchedule({self.component.name!r}, "
                f"ops={len(self._program)}, slots={self.flat.n_slots})")


def compile_batch(component: Any) -> BatchSchedule:
    """Compile *component* into a :class:`BatchSchedule` (via the flat IR).

    Raises :class:`~repro.core.errors.SimulationError` for unflattenable
    roots, exactly like :func:`~repro.simulation.schedule_ir.compile_flat`.
    """
    from .schedule_ir import compile_flat
    return BatchSchedule(compile_flat(component))

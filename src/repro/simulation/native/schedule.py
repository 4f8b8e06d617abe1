"""The native schedule: a compiled C tick loop behind ``run`` and ``step``.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  The one C entry
point, ``repro_run``, runs a whole horizon of ticks; :meth:`NativeSchedule.run`
drives a scenario through it in one call, and :attr:`NativeSchedule.step`
keeps the ``(inputs, state, tick) -> (outputs, state)`` contract of the
flat engine -- :class:`~repro.simulation.schedule_ir.FlatState` in and out,
nested dict states converted on entry -- as a one-tick call of the same
loop, so :func:`~repro.simulation.engine.run_stepped` callers keep working.

**The tick protocol.**  Python marshals the boundary once per call, not
once per tick, into one tagged plane per call (slots, delayed buffers,
input rows, output rows -- the layout :mod:`.emit` documents):

* inputs are drawn for the whole horizon by
  :func:`~repro.simulation.engine.prefill_stimuli` (the draw order and
  input type checks of ``run_stepped``) and encoded tick-major and
  port-inner -- a column of only exact ``float`` values, or only exact
  ``int`` values within int64, in one strided slice assignment per plane,
  any other column value by value;
* gate predicates -- functions of the tick only -- are evaluated into a
  ``ticks x gates`` bitmap, cached per schedule and extended when a
  longer horizon asks for it;
* the initial delayed buffers seed the next-buffer cells; C rolls
  previous / next buffers itself at every tick boundary;
* the C loop runs every tick and writes the output rows, which are
  decoded into the same :class:`~repro.simulation.trace.SimulationTrace`
  ``run_stepped`` records.

Values without a native representation (out-of-int64 integers, enum
members, structs, any non-exact-typed object) travel as
:data:`~repro.ascet.c_expr.TAG_OBJ` with the int payload indexing an
object table that lives for the whole call, so C can *move* them
(copies, delayed buffers, across ticks) even though only Python can
*compute* with them.  The plane, the object table and the leaf-state
roll belong to one call: concurrent runs of one schedule share nothing
mutable (``ctypes`` releases the GIL while C runs).

**The trampoline.**  Ops the emitter routed to the fallback path -- and
lowered expression blocks whose run-time values escape exact int64/double
replication -- re-enter Python through one ``ctypes`` callback carrying
the op index and the tick; the replay functions are generated from the
flat engine's own per-op templates
(:func:`repro.simulation.op_emit.native_replays`, spelling slot access
``load`` / ``store`` / ``copy`` on the tagged plane), so they run the
same leaf step functions and the same generated expression source with
the same semantics.  Leaf states roll lazily: the first replay of a new
tick makes the last tick's next states the previous ones -- ticks without
a replay leave leaf states untouched, so nothing is lost.  Observed runs
(the sharded runner's mode observation) get one more re-entry at every
tick end, handing the state after the tick to the observer.

**Errors.**  A replay (or observer) that raises stores the exception and
returns nonzero; the C loop stops at that tick and the exception is
re-raised unchanged.  :meth:`NativeSchedule.run` keeps the first error in
``run_stepped`` order: an output type check failing at tick *o* beats a
step error at *s > o*, which beats a stimulus or input type failure at
*p > s* (C only runs the ticks ``[0, p)`` before it) -- same exception
object, type, message and tick as the flat backend.

:class:`NativeSchedule` deliberately does **not** offer ``op_labels`` /
``instrumented_step`` / ``recording_step``: op-level profiling and flight
recording are variants of the generated *Python* step, so under
``profile_ops`` or ``flight_recording``
:meth:`repro.simulation.compiled.CompiledSimulator.run` runs the wrapped
:attr:`NativeSchedule.flat` program's step variant instead of the C loop.
Untraced and spans-only runs stay in C and report the ``native.runs`` /
``native.ticks`` / ``native.trampolines`` counters.
"""

from __future__ import annotations

import ctypes
import threading
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ...core.values import ABSENT, Stream
from ...obs.context import active as _obs_active
from ...obs.context import current_registry, maybe_span
from ..engine import (StimulusSpec, check_outputs, prefill_stimuli,
                      prepare_feeds)
from ..op_emit import native_replays
from ..schedule_ir import FlatSchedule, FlatState
from ..trace import SimulationTrace
from .emit import LoweredProgram, lower_program
from .toolchain import (EMITTER_VERSION, NativeLoweringError,
                        find_compiler, load_shared_object)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_U8 = ctypes.c_ubyte
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double

_TRAMP_TYPE = ctypes.CFUNCTYPE(_I64, _I64, _I64)

#: ``repro_run(t0, ticks, tag, iv, fv, gates, tramp, observe)``
_ARGTYPES = [_I64, _I64, ctypes.POINTER(_U8), ctypes.POINTER(_I64),
             ctypes.POINTER(_F64), ctypes.c_char_p, _TRAMP_TYPE, _I64]


def _tagged_plane(size: int, objects: List[Any]) -> Tuple[Any, ...]:
    """A fresh all-ABSENT tagged plane of *size* cells plus its accessors.

    Returns ``(tag, iv, fv, load, store, copy)``; ``TAG_OBJ`` payloads
    index *objects*.  The replays call the accessors for every slot an op
    touches, so they are closures over the arrays, spelled out inline.
    """
    tag = (_U8 * size)()
    iv = (_I64 * size)()
    fv = (_F64 * size)()

    def store(index: int, value: Any) -> None:
        kind = type(value)
        if value is ABSENT:
            tag[index] = 0
        elif kind is bool:
            tag[index] = 3
            iv[index] = 1 if value else 0
        elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
            tag[index] = 1
            iv[index] = value
        elif kind is float:
            tag[index] = 2
            fv[index] = value
        else:
            # exact-type dispatch on purpose: subclasses (IntEnum, ...)
            # must round-trip identically, so they ride the object table
            tag[index] = 4
            iv[index] = len(objects)
            objects.append(value)

    def load(index: int) -> Any:
        code = tag[index]
        if code == 0:
            return ABSENT
        if code == 1:
            return iv[index]
        if code == 2:
            return fv[index]
        if code == 3:
            return iv[index] != 0
        return objects[iv[index]]

    def copy(src: int, dst: int) -> None:
        tag[dst] = tag[src]
        iv[dst] = iv[src]
        fv[dst] = fv[src]

    return tag, iv, fv, load, store, copy


def _encode_column(tag: Any, iv: Any, fv: Any,
                   store: Callable[[int, Any], None], start: int, step: int,
                   values: Sequence[Any]) -> None:
    """Write one input column into every *step*-th cell from *start* on.

    A column of only exact ``float`` values, or only exact ``int`` values
    within int64, is written with one extended-slice assignment per plane;
    any other column (ABSENT gaps, ``bool``, enums, big ints, mixed types)
    goes through *store* value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        cells = slice(start, start + len(values) * step, step)
        tag[cells] = b"\x02" * len(values)
        fv[cells] = values
    elif kinds == {int} and _INT64_MIN <= min(values) \
            and max(values) <= _INT64_MAX:
        cells = slice(start, start + len(values) * step, step)
        tag[cells] = b"\x01" * len(values)
        iv[cells] = values
    else:
        for tick, value in enumerate(values):
            if value is not ABSENT:
                store(start + tick * step, value)


def _decode_columns(tag: Any, iv: Any, fv: Any, objects: List[Any],
                    start: int, width: int, rows: int) -> List[List[Any]]:
    """*rows* rows of *width* cells from cell *start* on, as one value
    list per column."""
    end = start + rows * width
    tags, ints, floats = tag[start:end], iv[start:end], fv[start:end]
    return [[ABSENT if code == 0 else i if code == 1 else f if code == 2
             else i != 0 if code == 3 else objects[i]
             for code, i, f in zip(tags[column::width], ints[column::width],
                                   floats[column::width])]
            for column in range(width)]


class _Entry(NamedTuple):
    """What one C call leaves behind."""

    completed: int                 # ticks that ran to their end
    error: Optional[BaseException]  # the replay/observer error that stopped it
    outputs: List[List[Any]]       # per output_spec entry, completed ticks
    leaf_states: List[Any]         # leaf states after the last completed tick
    buffers: List[Any]             # delayed buffers after the last tick run


class NativeSchedule:
    """A flat schedule executing through a compiled C tick loop.

    Introspection (``linear_steps`` / ``describe`` / ``ops_summary`` /
    ``needs_mode_observation`` / ``mode_paths`` and the boundary specs)
    delegates to the wrapped :attr:`flat` schedule: the native backend
    changes the execution substrate, not the program.
    """

    kind = "native"

    def __init__(self, flat: FlatSchedule, so_path: str,
                 lowered: LoweredProgram, lib: ctypes.CDLL):
        self.flat = flat
        self.component = flat.component
        self.so_path = so_path
        self.lowered = lowered
        #: total trampoline re-entries (fallback ops + run-time bails),
        #: added once per call under a lock (runs may be concurrent)
        self.trampoline_calls = 0
        self._calls_lock = threading.Lock()

        self._lib = lib
        self._fn = lib.repro_run
        self._fn.restype = _I64
        self._fn.argtypes = _ARGTYPES
        self._replay = native_replays(flat.program)
        self._gate_predicates = tuple(flat.program[index][1]
                                      for index in lowered.gate_indexes)
        #: tick-major gate bitmap of the longest horizon asked for so far
        self._gate_plane = b""

    # -- the C entry -------------------------------------------------------

    def _gates(self, t0: int, ticks: int) -> bytes:
        """The gate bitmap of ticks ``[t0, t0 + ticks)``.

        Horizons from tick 0 share one cached plane (gate predicates are
        functions of the tick only); replacing it with a longer one is a
        single reference store, so concurrent runs may race on the cache
        but never see a torn plane.
        """
        predicates = self._gate_predicates
        if not predicates:
            return b""
        if t0:
            return bytes(1 if predicate(tick) else 0
                         for tick in range(t0, t0 + ticks)
                         for predicate in predicates)
        plane = self._gate_plane
        known = len(plane) // len(predicates)
        if known < ticks:
            plane += bytes(1 if predicate(tick) else 0
                           for tick in range(known, ticks)
                           for predicate in predicates)
            self._gate_plane = plane
        return plane

    def _enter(self, t0: int, ticks: int, columns: Sequence[Sequence[Any]],
               state: FlatState,
               observe: Optional[Callable[[Any], None]]) -> _Entry:
        """Run ticks ``[t0, t0 + ticks)`` in one C call.

        *columns* holds one value sequence per ``input_spec`` entry;
        *state* is the state before tick *t0*.  Every plane, the object
        table and the leaf-state roll are private to this call.
        """
        flat = self.flat
        n_buffers = len(flat.buffer_specs)
        n_inputs = len(columns)
        n_outputs = len(flat.output_spec)
        n_scratch = flat._scratch_count  # noqa: SLF001
        # the plane layout of the emitted C (see .emit): slots, previous
        # buffers, next buffers, input rows, output rows
        next_base = flat.n_slots + n_buffers
        in_base = next_base + n_buffers
        out_base = in_base + ticks * n_inputs
        objects: List[Any] = []
        tag, iv, fv, load, store, copy = _tagged_plane(
            out_base + ticks * n_outputs, objects)
        for index, value in enumerate(state.buffers):
            store(next_base + index, value)
        for column, values in enumerate(columns):
            _encode_column(tag, iv, fv, store, in_base + column, n_inputs,
                           values)

        def next_buffers() -> List[Any]:
            return [load(next_base + index) for index in range(n_buffers)]

        replay = self._replay
        ps = state.leaf_states
        ns = ps[:]
        sc: List[Any] = [None] * n_scratch
        current = t0
        calls = 0
        error: Optional[BaseException] = None
        stopped = t0 + ticks

        def trampoline(op: int, tick: int) -> int:
            nonlocal ps, ns, sc, current, calls, error, stopped
            try:
                if op < 0:
                    observe(FlatState(ns, next_buffers()))
                    return 0
                if tick != current:
                    # the first replay of a new tick rolls the leaf states
                    ps = ns
                    ns = ps[:]
                    sc = [None] * n_scratch
                    current = tick
                calls += 1
                replay[op](ps, ns, sc, tick, load, store, copy)
                return 0
            except BaseException as exc:  # noqa: BLE001 - re-raised by caller
                error = exc
                stopped = tick
                return 1

        tramp = _TRAMP_TYPE(trampoline)
        failed = self._fn(t0, ticks, tag, iv, fv, self._gates(t0, ticks),
                          tramp, observe is not None)
        if failed and error is None:  # pragma: no cover - defensive
            error = NativeLoweringError(
                f"native run failed (code {failed}) without a pending "
                "Python exception")
        completed = stopped - t0
        with self._calls_lock:
            self.trampoline_calls += calls
        registry = current_registry()
        if registry is not None:
            registry.counter("native.runs").inc()
            registry.counter("native.ticks").inc(completed)
            registry.counter("native.trampolines").inc(calls)
        return _Entry(completed, error,
                      _decode_columns(tag, iv, fv, objects, out_base,
                                      n_outputs, completed),
                      ns, next_buffers())

    # -- whole horizons ----------------------------------------------------

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]], ticks: int,
            check_types: bool = False,
            observe: Optional[Callable[[Any], None]] = None
            ) -> SimulationTrace:
        """Simulate *ticks* ticks in one C call; the trace of
        :func:`~repro.simulation.engine.run_stepped` over :attr:`step`.

        *observe*, when given, is called with the state after every tick
        (from inside the C loop, before the output type checks run over
        the decoded rows, so an observer may see the ticks after an output
        type failure that ends the run).  Raises the first error in
        ``run_stepped`` order (see the module docstring), the same
        exception object the step raised.
        """
        component = self.component
        feeds = prepare_feeds(component, stimuli, ticks)
        prefill = prefill_stimuli(component, feeds, ticks, check_types)
        # prefill columns follow input_names(), the input_spec order
        entry = self._enter(0, prefill.runnable, prefill.columns,
                            self.flat.initial_state(), observe)
        names = [name for name, _slot in self.flat.output_spec]
        if check_types:
            for tick in range(entry.completed):
                check_outputs(component, {
                    name: column[tick]
                    for name, column in zip(names, entry.outputs)}, tick)
        if entry.error is not None:
            raise entry.error
        if prefill.deferred is not None:
            raise prefill.deferred
        trace = SimulationTrace(component.name)
        trace.ticks = ticks
        if ticks:
            for name, column in zip(component.input_names(),
                                    prefill.columns):
                trace.inputs[name] = Stream(column)
            for name, column in zip(names, entry.outputs):
                trace.outputs[name] = Stream(column)
        return trace

    # -- one tick ----------------------------------------------------------

    def step(self, inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        """One tick through the same C loop (the ``run_stepped`` contract)."""
        if type(state) is not FlatState:
            state = self.flat._convert_state(state)  # noqa: SLF001
        entry = self._enter(tick, 1, [(inputs.get(name, ABSENT),)
                                      for name, _slot in self.flat.input_spec],
                            state, None)
        if entry.error is not None:
            raise entry.error
        outputs = {name: column[0] for (name, _slot), column
                   in zip(self.flat.output_spec, entry.outputs)}
        return outputs, FlatState(entry.leaf_states, entry.buffers)

    # -- delegation to the wrapped flat schedule ---------------------------

    @property
    def input_spec(self) -> Tuple[Tuple[str, int], ...]:
        return self.flat.input_spec

    @property
    def output_spec(self) -> Tuple[Tuple[str, int], ...]:
        return self.flat.output_spec

    @property
    def program(self) -> Tuple[Tuple[Any, ...], ...]:
        return self.flat.program

    @property
    def fallback_paths(self) -> List[str]:
        return self.flat.fallback_paths

    def initial_state(self) -> FlatState:
        return self.flat.initial_state()

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        return self.flat.linear_steps(prefix)

    def describe(self) -> str:
        return self.flat.describe()

    def ops_summary(self) -> List[str]:
        return self.flat.ops_summary()

    @property
    def needs_mode_observation(self) -> bool:
        return self.flat.needs_mode_observation

    def mode_paths(self, state: Any) -> Dict[str, Any]:
        return self.flat.mode_paths(state)

    def __repr__(self) -> str:
        return (f"NativeSchedule({self.component.name!r}, "
                f"ops={len(self.flat.program)}, "
                f"lowered={len(self.lowered.lowered_ops)}, "
                f"fallback={len(self.lowered.fallback_ops)})")


def check_lowerable(schedule: FlatSchedule) -> None:
    """Refuse a schedule the C backend must not compile.

    Raises :class:`NativeLoweringError` when the schedule's
    :func:`~repro.analysis.lint.ir_verify.lint_flat_schedule` report
    carries errors -- the C fast path keeps slot accesses unguarded on
    exactly the write-before-read / gate-structure facts the verifier
    proves, so an unverified program must not reach the compiler -- or
    when no C compiler is available.
    """
    # lazy import: analysis.lint imports the schedule IR for its verifier
    from ...analysis.lint.ir_verify import lint_flat_schedule
    report = lint_flat_schedule(schedule)
    errors = report.errors()
    if errors:
        details = "\n".join(finding.describe() for finding in errors)
        raise NativeLoweringError(
            f"native lowering refused: ir_verify report for "
            f"{schedule.component.name!r} is not clean:\n{details}")
    if find_compiler() is None:
        raise NativeLoweringError(
            "no C compiler available (set $CC or install cc/gcc/clang); "
            "use backend='flat' or backend='auto' instead")


def compile_native(schedule: Any,
                   cache_directory: Optional[str] = None) -> NativeSchedule:
    """Compile a flat schedule (or a flattenable component) to native code.

    The lowering is gated by :func:`check_lowerable`: an unclean
    ``ir_verify`` report or a host without a C compiler raise
    :class:`NativeLoweringError`
    (:class:`~repro.simulation.compiled.CompiledSimulator` checks
    :func:`~.toolchain.native_available` first and degrades to ``"flat"``
    instead of calling this).  The compile records a ``compile.native``
    span and the ``native.compile.*`` / ``native.ops.*`` counters.
    """
    if not isinstance(schedule, FlatSchedule):
        from ..schedule_ir import compile_flat
        schedule = compile_flat(schedule)
    check_lowerable(schedule)
    telemetry = _obs_active()
    registry = telemetry.registry if telemetry is not None else None
    with maybe_span("compile.native", component=schedule.component.name,
                    ops=len(schedule.program)) as span:
        lowered = lower_program(schedule, EMITTER_VERSION)
        lib, so_path, cache_hit = load_shared_object(lowered.source,
                                                     cache_directory)
        native = NativeSchedule(schedule, so_path, lowered, lib)
        if span is not None:
            span.attributes.update(lowered_ops=len(lowered.lowered_ops),
                                   fallback_ops=len(lowered.fallback_ops),
                                   cache_hit=cache_hit)
    if registry is not None:
        registry.counter("native.compile.total").inc()
        registry.counter("native.compile.cache_hits" if cache_hit
                         else "native.compile.cache_misses").inc()
        registry.counter("native.ops.lowered").inc(
            len(lowered.lowered_ops))
        registry.counter("native.ops.fallback").inc(
            len(lowered.fallback_ops))
    return native

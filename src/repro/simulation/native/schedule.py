"""The native schedule: a compiled C tick loop behind ``run`` and ``step``.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  The one C entry
point, ``repro_run``, runs a whole horizon of ticks; :meth:`NativeSchedule.run`
drives a scenario through it in one call, and :attr:`NativeSchedule.step`
keeps the ``(inputs, state, tick) -> (outputs, state)`` contract of the
flat engine -- :class:`~repro.simulation.schedule_ir.FlatState` in and out,
starting from :meth:`NativeSchedule.initial_state` -- as a one-tick call
of the same loop, so :func:`~repro.simulation.engine.run_stepped` callers
keep working.
Every root with behaviour compiles to a flat program, so every root has a
native schedule: a bare MTD, STD or atomic root is one fallback ``run``
op, replayed through the trampoline (below) at every tick.

**The tick protocol.**  Python marshals the boundary once per call, not
once per tick, into one tagged plane per call (slots, delayed buffers,
input rows, output rows -- the layout :mod:`.emit` documents):

* inputs are drawn for the whole horizon by
  :func:`~repro.simulation.engine.prefill_stimuli` (the draw order and
  input type checks of ``run_stepped``) and encoded tick-major and
  port-inner -- a column of only exact ``float`` values, or only exact
  ``int`` values within int64, in one strided slice assignment per plane,
  any other column value by value;
* gate predicates -- functions of the tick only -- are evaluated into the
  ``ticks x gates`` plane the flat horizon loop reads too
  (:meth:`~repro.simulation.schedule_ir.FlatSchedule.gates`, cached per
  flat program and extended when a longer horizon asks for it);
* the initial delayed buffers seed the next-buffer cells; C rolls
  previous / next buffers itself at every tick boundary;
* the C loop runs every tick and writes the output rows -- the outputs,
  then the readout slots the machine leaves' replays wrote their states
  into -- which are decoded into the same
  :class:`~repro.simulation.trace.SimulationTrace` ``run_stepped``
  records, with the mode histories of
  :meth:`~repro.simulation.schedule_ir.FlatSchedule.decode_modes`.

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
the same semantics.  A correction barrier's replay re-runs its region
through the flat engine's re-run function.  Leaf states roll lazily: the
first replay of a new tick makes the last tick's next states the previous
ones -- ticks without a replay leave leaf states untouched, so nothing is
lost.  Mode histories cost no re-entry: they leave C as output rows.

**Errors.**  A replay that raises stores the exception and
returns nonzero; the C loop stops at that tick and the exception is
re-raised unchanged.  :meth:`NativeSchedule.run` runs through the
horizon shell it shares with the flat engine
(:func:`~repro.simulation.engine.run_horizon`), which keeps the first
error in ``run_stepped`` order: an output type check failing at tick *o*
beats a step error at *s > o*, which beats a stimulus or input type
failure at *p > s* (C only runs the ticks ``[0, p)`` before it) -- same
exception object, type, message and tick as the flat backend.

:class:`NativeSchedule` deliberately does **not** offer ``op_labels``:
op-level profiling and flight recording are variants of the generated
*Python* horizon loop, so under ``profile_ops`` or ``flight_recording``
:meth:`repro.simulation.compiled.CompiledSimulator.run` runs the wrapped
:attr:`NativeSchedule.flat` program's observed loop instead of the C loop.
Untraced and spans-only runs stay in C and report the ``native.runs`` /
``native.ticks`` / ``native.trampolines`` counters.
"""

from __future__ import annotations

import ctypes
import threading
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ...core.values import ABSENT
from ...obs.context import active as _obs_active
from ...obs.context import current_registry
from ..engine import StimulusSpec, run_horizon
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

#: ``repro_run(t0, ticks, tag, iv, fv, gates, tramp)``
_ARGTYPES = [_I64, _I64, ctypes.POINTER(_U8), ctypes.POINTER(_I64),
             ctypes.POINTER(_F64), ctypes.c_char_p, _TRAMP_TYPE]


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
    error: Optional[BaseException]  # the replay error that stopped it
    outputs: List[List[Any]]       # per output_spec, then readout_spec
                                   # entry: the completed ticks
    leaf_states: List[Any]         # leaf states after the last completed tick
    buffers: List[Any]             # delayed buffers after the last tick run


class NativeSchedule:
    """A flat schedule executing through a compiled C tick loop.

    Introspection (``ops_summary`` and the boundary specs) delegates to
    the wrapped :attr:`flat` schedule: the native backend changes the
    execution substrate, not the program.
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
        self._replay = native_replays(flat)

    # -- the C entry -------------------------------------------------------

    def _enter(self, t0: int, ticks: int, columns: Sequence[Sequence[Any]],
               state: FlatState) -> _Entry:
        """Run ticks ``[t0, t0 + ticks)`` in one C call.

        *columns* holds one value sequence per ``input_spec`` entry;
        *state* is the state before tick *t0*.  Every plane, the object
        table and the leaf-state roll are private to this call.
        """
        flat = self.flat
        n_buffers = len(flat.buffer_initials)
        n_inputs = len(columns)
        n_outputs = len(flat.output_spec) + len(flat.readout_spec)
        # the plane layout of the emitted C (see .emit): slots, previous
        # buffers, next buffers, input rows, output rows (outputs, then
        # readouts)
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

        replay = self._replay
        ps = state.leaf_states
        ns = ps[:]
        current = t0
        calls = 0
        error: Optional[BaseException] = None
        stopped = t0 + ticks

        def trampoline(op: int, tick: int) -> int:
            nonlocal ps, ns, current, calls, error, stopped
            try:
                if tick != current:
                    # the first replay of a new tick rolls the leaf states
                    ps = ns
                    ns = ps[:]
                    current = tick
                calls += 1
                replay[op](ps, ns, tick, load, store, copy)
                return 0
            except BaseException as exc:  # noqa: BLE001 - re-raised by caller
                error = exc
                stopped = tick
                return 1

        tramp = _TRAMP_TYPE(trampoline)
        failed = self._fn(t0, ticks, tag, iv, fv, flat.gates(t0, ticks),
                          tramp)
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
                      ns, [load(next_base + index)
                           for index in range(n_buffers)])

    # -- whole horizons ----------------------------------------------------

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]], ticks: int,
            check_types: bool = False) -> SimulationTrace:
        """Simulate *ticks* ticks in one C call; the trace of
        :func:`~repro.simulation.engine.run_stepped` over :attr:`step`,
        with the mode histories the wrapped flat program decodes from the
        readout rows
        (:meth:`~repro.simulation.schedule_ir.FlatSchedule.decode_modes`).

        Driven by :func:`~repro.simulation.engine.run_horizon`, like the
        flat engine: the first error is raised in ``run_stepped`` order
        (see the module docstring), the same exception object the step
        raised.
        """
        flat = self.flat
        trace, readouts = run_horizon(
            self.component, flat._output_names,  # noqa: SLF001
            self._enter_horizon, stimuli, ticks, check_types)
        flat.decode_modes(trace, readouts)
        return trace

    def _enter_horizon(self, columns: List[List[Any]], runnable: int
                       ) -> Tuple[int, Optional[BaseException],
                                  List[List[Any]]]:
        entry = self._enter(0, runnable, columns, self.flat.initial_state())
        return entry.completed, entry.error, entry.outputs

    # -- one tick ----------------------------------------------------------

    def step(self, inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        """One tick through the same C loop (the ``run_stepped`` contract)."""
        entry = self._enter(tick, 1, [(inputs.get(name, ABSENT),)
                                      for name, _slot in self.flat.input_spec],
                            state)
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

    def initial_state(self) -> FlatState:
        return self.flat.initial_state()

    def ops_summary(self) -> List[str]:
        return self.flat.ops_summary()

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
    """Compile a flat schedule (or any component, flattened first) to
    native code.

    The lowering is gated by :func:`check_lowerable`: an unclean
    ``ir_verify`` report or a host without a C compiler raise
    :class:`NativeLoweringError`
    (:class:`~repro.simulation.compiled.CompiledSimulator` checks
    :func:`~.toolchain.native_available` first and degrades to ``"flat"``
    instead of calling this).  A compile that loads records a
    ``compile.native`` span and the ``native.compile.*`` /
    ``native.ops.*`` counters.
    """
    if not isinstance(schedule, FlatSchedule):
        from ..schedule_ir import compile_flat
        schedule = compile_flat(schedule)
    return _build(schedule, cache_directory)


#: Fallback-to-lowered cost bound of tiered ``auto`` (:func:`worth_loading`).
PROMOTION_RATIO = 10


def worth_loading(lowered: LoweredProgram) -> bool:
    """Tiered ``auto``'s cost check: promotion only pays when most of the
    program runs in C, so it promotes only when ``fallback ops x
    PROMOTION_RATIO <= lowered ops`` in the emitter's routing (``run``
    ops and correction barriers always trampoline)."""
    return (len(lowered.fallback_ops) * PROMOTION_RATIO
            <= len(lowered.lowered_ops))


def promote(flat: FlatSchedule,
            force: bool = False) -> Optional[NativeSchedule]:
    """Tiered ``auto``'s promotion of *flat*, in the calling thread.

    The build of :func:`compile_native` with :func:`worth_loading`
    between lowering and loading (*force* skips it).  Returns ``None``
    -- having invoked no C compiler and recorded nothing -- when the host
    has no compiler or the check declines; a failing build raises.
    """
    if find_compiler() is None:
        return None
    return _build(flat, check=not force)


def _build(flat: FlatSchedule, cache_directory: Optional[str] = None,
           check: bool = False) -> Optional[NativeSchedule]:
    """The one build path: :func:`check_lowerable`, lower, the cost check
    when *check* is set, load.  Only a loaded program records its
    ``compile.native`` span (lowering and load) and counters."""
    check_lowerable(flat)
    telemetry = _obs_active()
    started = telemetry.tracer.now() if telemetry is not None else 0.0
    lowered = lower_program(flat, EMITTER_VERSION)
    if check and not worth_loading(lowered):
        return None
    lib, so_path, cache_hit = load_shared_object(lowered.source,
                                                 cache_directory)
    native = NativeSchedule(flat, so_path, lowered, lib)
    if telemetry is not None:
        telemetry.tracer.record(
            "compile.native", started, component=flat.component.name,
            ops=len(flat.program), lowered_ops=len(lowered.lowered_ops),
            fallback_ops=len(lowered.fallback_ops), cache_hit=cache_hit)
        registry = telemetry.registry
        registry.counter("native.compile.total").inc()
        registry.counter("native.compile.cache_hits" if cache_hit
                         else "native.compile.cache_misses").inc()
        registry.counter("native.ops.lowered").inc(
            len(lowered.lowered_ops))
        registry.counter("native.ops.fallback").inc(
            len(lowered.fallback_ops))
    return native

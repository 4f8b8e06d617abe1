"""The native schedule: a compiled C step function behind ``run_stepped``.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  Its :attr:`step`
keeps the exact ``(inputs, state, tick) -> (outputs, state)`` contract of
the flat engine -- :class:`~repro.simulation.schedule_ir.FlatState` in and
out, nested dict states converted on entry -- so it is a drop-in fifth
backend for :func:`~repro.simulation.engine.run_stepped` and
:class:`~repro.simulation.compiled.CompiledSimulator`.

**The tick protocol.**  Python marshals the boundary each tick: the tag
plane is ``memset`` to all-ABSENT (ABSENT is tag 0 by construction),
inputs are scattered into their slots, the previous delayed buffers are
stored into the ``pb*`` planes and ``memmove``-seeded into ``nb*`` (so
unwritten buffers carry over, exactly like the flat engine's
``next_buffers = prev_buffers[:]``), gate predicates -- functions of the
tick only -- are pre-evaluated into a byte array, and the C function runs
the whole op program in one call.  Values without a native representation
(nested leaf states aside: out-of-int64 integers, enum members, structs,
any non-exact-typed object) travel as :data:`~repro.ascet.c_expr.TAG_OBJ`
with the int payload indexing a per-tick object table, so C can *move*
them (copies, buffers) even though only Python can *compute* with them.

**The trampoline.**  Ops the emitter routed to the fallback path -- and
lowered expression blocks whose run-time values escape exact int64/double
replication -- re-enter Python through one ``ctypes`` callback carrying
the op index; the replay functions are generated from the flat engine's
own per-op templates (:func:`repro.simulation.op_emit.native_replays`,
spelling slot access ``load`` / ``store`` / ``copy`` on the tagged plane),
so they call the same nested step functions and compiled expression
closures with the same semantics.  A replay that raises stores the
exception and returns nonzero; the C function unwinds immediately and
:attr:`step` re-raises it unchanged, which is what makes error-path
behaviour (exception type, message, tick) identical to the flat backend
by construction.

:class:`NativeSchedule` deliberately does **not** offer ``op_labels`` /
``instrumented_step`` / ``recording_step``: op-level profiling and flight
recording are variants of the generated *Python* step, so
:meth:`repro.obs.context.Telemetry.step_for` finds nothing to swap and
observability degrades gracefully to spans and counters.
"""

from __future__ import annotations

import ctypes
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.values import ABSENT
from ...obs.context import active as _obs_active
from ...obs.context import maybe_span
from ..op_emit import native_replays
from ..schedule_ir import FlatSchedule, FlatState
from .emit import LoweredProgram, lower_program
from .toolchain import (EMITTER_VERSION, NativeLoweringError,
                        find_compiler, load_shared_object)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_TRAMP_TYPE = ctypes.CFUNCTYPE(ctypes.c_longlong, ctypes.c_longlong)

_ARGTYPES = [ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_longlong),
             ctypes.POINTER(ctypes.c_double),
             ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_longlong),
             ctypes.POINTER(ctypes.c_double),
             ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_longlong),
             ctypes.POINTER(ctypes.c_double),
             ctypes.POINTER(ctypes.c_ubyte), _TRAMP_TYPE]


class NativeSchedule:
    """A flat schedule executing through a compiled C step function.

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
        #: total trampoline re-entries (fallback ops + run-time bails);
        #: plain attribute, no observability branch on the hot path.
        self.trampoline_calls = 0

        n_slots = flat.n_slots
        n_buffers = len(flat.buffer_specs)
        self._tag = (ctypes.c_ubyte * n_slots)()
        self._iv = (ctypes.c_longlong * n_slots)()
        self._fv = (ctypes.c_double * n_slots)()
        self._pbt = (ctypes.c_ubyte * n_buffers)()
        self._pbi = (ctypes.c_longlong * n_buffers)()
        self._pbf = (ctypes.c_double * n_buffers)()
        self._nbt = (ctypes.c_ubyte * n_buffers)()
        self._nbi = (ctypes.c_longlong * n_buffers)()
        self._nbf = (ctypes.c_double * n_buffers)()
        self._gate = (ctypes.c_ubyte * len(lowered.gate_indexes))()

        self._lib = lib
        self._fn = self._lib.repro_step
        self._fn.restype = ctypes.c_longlong
        self._fn.argtypes = _ARGTYPES

        # per-tick context the replay closures read
        self._objtable: List[Any] = []
        self._prev_states: List[Any] = []
        self._next_states: List[Any] = []
        self._scratch: List[Any] = []
        self._tick = 0
        self._pending: Optional[BaseException] = None

        self._replay = native_replays(flat.program, self._load, self._store,
                                      self._copy_slot)
        self._tramp = _TRAMP_TYPE(self._trampoline)  # kept alive on self
        self.step = self._make_step()

    # -- tagged-plane marshalling ------------------------------------------

    def _store(self, slot: int, value: Any) -> None:
        kind = type(value)
        if value is ABSENT:
            self._tag[slot] = 0
        elif kind is bool:
            self._tag[slot] = 3
            self._iv[slot] = 1 if value else 0
        elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
            self._tag[slot] = 1
            self._iv[slot] = value
        elif kind is float:
            self._tag[slot] = 2
            self._fv[slot] = value
        else:
            # exact-type dispatch on purpose: subclasses (IntEnum, ...)
            # must round-trip identically, so they ride the object table
            objtable = self._objtable
            self._tag[slot] = 4
            self._iv[slot] = len(objtable)
            objtable.append(value)

    def _load(self, slot: int) -> Any:
        tag = self._tag[slot]
        if tag == 0:
            return ABSENT
        if tag == 1:
            return self._iv[slot]
        if tag == 2:
            return self._fv[slot]
        if tag == 3:
            return self._iv[slot] != 0
        return self._objtable[self._iv[slot]]

    def _copy_slot(self, src: int, dst: int) -> None:
        self._tag[dst] = self._tag[src]
        self._iv[dst] = self._iv[src]
        self._fv[dst] = self._fv[src]

    def _store_prev_buffer(self, index: int, value: Any) -> None:
        kind = type(value)
        if value is ABSENT:
            self._pbt[index] = 0
        elif kind is bool:
            self._pbt[index] = 3
            self._pbi[index] = 1 if value else 0
        elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
            self._pbt[index] = 1
            self._pbi[index] = value
        elif kind is float:
            self._pbt[index] = 2
            self._pbf[index] = value
        else:
            objtable = self._objtable
            self._pbt[index] = 4
            self._pbi[index] = len(objtable)
            objtable.append(value)

    def _load_next_buffer(self, index: int) -> Any:
        tag = self._nbt[index]
        if tag == 0:
            return ABSENT
        if tag == 1:
            return self._nbi[index]
        if tag == 2:
            return self._nbf[index]
        if tag == 3:
            return self._nbi[index] != 0
        return self._objtable[self._nbi[index]]

    # -- the trampoline ----------------------------------------------------

    def _trampoline(self, op_index: int) -> int:
        self.trampoline_calls += 1
        try:
            self._replay[op_index](self._prev_states, self._next_states,
                                   self._scratch, self._tick)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised by step
            self._pending = exc
            return 1

    # -- the step function -------------------------------------------------

    def _make_step(self):
        flat = self.flat
        input_spec = flat.input_spec
        output_spec = flat.output_spec
        n_buffers = len(flat.buffer_specs)
        n_scratch = flat._scratch_count  # noqa: SLF001
        convert = flat._convert_state  # noqa: SLF001
        absent = ABSENT
        gates = [(index, flat.program[op_index][1])
                 for index, op_index in enumerate(self.lowered.gate_indexes)]
        tag, gate = self._tag, self._gate
        pbt, pbi, pbf = self._pbt, self._pbi, self._pbf
        nbt, nbi, nbf = self._nbt, self._nbi, self._nbf
        iv, fv = self._iv, self._fv
        tag_bytes = ctypes.sizeof(tag)
        pbt_bytes = ctypes.sizeof(pbt)
        pbi_bytes = ctypes.sizeof(pbi)
        pbf_bytes = ctypes.sizeof(pbf)
        memset = ctypes.memset
        memmove = ctypes.memmove
        fn = self._fn
        tramp = self._tramp
        store = self._store
        load = self._load
        store_buffer = self._store_prev_buffer
        load_buffer = self._load_next_buffer

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if type(state) is not FlatState:
                state = convert(state)
            prev_buffers = state.buffers
            self._prev_states = prev_states = state.leaf_states
            self._next_states = next_states = prev_states[:]
            self._scratch = [None] * n_scratch if n_scratch else []
            self._tick = tick
            self._objtable.clear()
            memset(tag, 0, tag_bytes)
            for name, slot in input_spec:
                value = inputs.get(name, absent)
                if value is not absent:
                    store(slot, value)
            for index in range(n_buffers):
                store_buffer(index, prev_buffers[index])
            memmove(nbt, pbt, pbt_bytes)
            memmove(nbi, pbi, pbi_bytes)
            memmove(nbf, pbf, pbf_bytes)
            for index, predicate in gates:
                gate[index] = 1 if predicate(tick) else 0
            failed = fn(tag, iv, fv, pbt, pbi, pbf, nbt, nbi, nbf, gate,
                        tramp)
            if failed:
                pending = self._pending
                self._pending = None
                if pending is None:  # pragma: no cover - defensive
                    raise NativeLoweringError(
                        f"native step failed at op {failed - 1} without a "
                        "pending Python exception")
                raise pending
            outputs = {name: load(slot) for name, slot in output_spec}
            next_buffers = [load_buffer(index) for index in range(n_buffers)]
            return outputs, FlatState(next_states, next_buffers)

        return step

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


def compile_native(schedule: Any,
                   cache_directory: Optional[str] = None) -> NativeSchedule:
    """Compile a flat schedule (or a flattenable component) to native code.

    The lowering is gated on a clean static-verifier report: a schedule
    whose :func:`~repro.analysis.lint.ir_verify.lint_flat_schedule` report
    carries errors is refused with :class:`NativeLoweringError` -- the
    C fast path keeps slot accesses unguarded on exactly the write-before-
    read / gate-structure facts the verifier proves, so an unverified
    program must not reach the compiler.  Also raises
    :class:`NativeLoweringError` when no C compiler is available
    (:class:`~repro.simulation.compiled.CompiledSimulator` checks
    :func:`~.toolchain.native_available` first and degrades to ``"flat"``
    instead of calling this).
    """
    if not isinstance(schedule, FlatSchedule):
        from ..schedule_ir import compile_flat
        schedule = compile_flat(schedule)
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

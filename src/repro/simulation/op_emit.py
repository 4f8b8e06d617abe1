"""Generated execution variants of the flat op program.

One definition of op semantics: every opcode of a
:class:`~repro.simulation.schedule_ir.FlatSchedule` program has one body
template here, and every way the program is executed is straight-line
Python source written from those templates and exec-compiled once per
schedule -- the deployed system as one generated program (paper Sec. 2.4),
produced from the model the way ASCET-SD produces code (Sec. 3.4).  Two
value substrates spell slot access differently:

* ``flat``   -- the per-tick ``values`` list ``v``: the default
  :attr:`FlatSchedule.step` and its op-profiling and flight-recording
  variants (:func:`flat_step`);
* ``native`` -- the tagged slot plane of :mod:`repro.simulation.native`,
  spelled ``load(slot)`` / ``store(slot, x)`` / ``copy(src, dst)``: one
  replay function per op the C code can trampoline (:func:`native_replays`).

**Expressions.**  An ``expr`` op inlines the generated source of each
output expression (:class:`~repro.core.expr_compile.ExpressionSource`),
its reads spelled in the substrate's slot access, inside a ``try`` whose
handler re-evaluates the expression with the reference interpreter on the
same inputs -- which raises the interpreter's exact error.  Subexpressions
too deep to inline become module-level helper functions of the generated
source.

Op profiling and flight recording are emitter parameters, not twin loops:
profiling times and counts every executed op and counts gate skips and
correction re-runs; recording sets ``index = k`` before each op inside one
``try`` and hands the partial slot list to the recorder on a raise.

**Gates.**  A gate op sets one flag ``g<k> = p<k>(tick)``, itself guarded by
the flag of its enclosing gate, and every op runs under the flag of its
innermost enclosing gate at depth 1 -- so arbitrarily deep gate nesting (a
1200-level gated chain) never reaches CPython's indentation limit.  A
program whose gate regions do not nest forward (only a doctored one: the
flattener never emits it and ``ir_verify`` reports it as
``ir-gate-structure``) compiles to a step that raises
:class:`~repro.core.errors.SimulationError`.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.expr_compile import ExpressionSource, SourceScope
from .schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_CORRECT,
                          OP_EXPR, OP_GATE, OP_RUN, FlatState)

#: Slot spelling of one substrate: ``(read(slot), write(slot, x), copy(src,
#: dst))`` as source-text builders, plus the name through which generated
#: expression helpers read slots.
_Slots = Tuple[Callable[..., str], Callable[..., str], Callable[..., str],
               str]

_LIST: _Slots = (lambda slot: f"v[{slot}]",
                 lambda slot, x: f"v[{slot}] = {x}",
                 lambda src, dst: f"v[{dst}] = v[{src}]", "v")
_TAGGED: _Slots = (lambda slot: f"load({slot})",
                   lambda slot, x: f"store({slot}, {x})",
                   lambda src, dst: f"copy({src}, {dst})", "load")


def _env(in_spec: Sequence[Tuple[str, int]],
         read: Callable[[int], str]) -> str:
    return "{" + ", ".join(f"{name!r}: {read(slot)}"
                           for name, slot in in_spec) + "}"


def _block(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _expr_lines(in_spec: Sequence[Tuple[str, int]],
                items: Sequence[Tuple[int, ExpressionSource]], slots: _Slots,
                scope: SourceScope) -> List[str]:
    """An ``expr`` op's items, each evaluated by its inline source and, when
    that raises, by the interpreter on the same inputs."""
    read, write = slots[0], slots[1]
    slot_of = dict(in_spec)

    def value(name: str) -> Optional[str]:
        slot = slot_of.get(name)
        return None if slot is None else read(slot)

    def present(name: str) -> str:
        slot = slot_of.get(name)
        return "False" if slot is None else f"{read(slot)} is not A"

    lines = []
    for slot, source in items:
        def assign(x: str, slot: int = slot) -> str:
            return write(slot, x) if slot >= 0 else x
        interpret = scope.bind(source.interpret, "x")
        env = _env(in_spec, read)
        text = source.render(value, present, scope)
        lines += ([assign(f"{interpret}({env})")] if text is None else
                  ["try:", "    " + assign(text), "except Exception as error:",
                   "    " + assign(f"{interpret}({env}, error)")])
    return lines


def _op_lines(k: int, op: Tuple[Any, ...], slots: _Slots, profiled: bool,
              scope: SourceScope) -> List[str]:
    """The body of op *k*; the objects it calls are bound into *scope*."""
    read, write, copy = slots[:3]
    bound = scope.bound
    code = op[0]
    if code == OP_COPY:
        return [copy(src, dst) for src, dst in op[1]]
    if code == OP_BUF_READ:
        return [write(dst, f"pb[{index}]") for index, dst in op[1]]
    if code == OP_BUF_WRITE:
        return [f"nb[{index}] = {read(src)}" for src, index in op[1]]
    if code == OP_GATE:
        bound[f"p{k}"] = op[1]
        return [f"g{k} = p{k}(tick)"] + (
            [f"if not g{k}: S[{k}] += 1"] if profiled else [])
    if code == OP_CORRECT:
        count = ["P.correction_reruns += 1"] if profiled else []
        lines = []
        for j, (si, leaf, fn, in_spec) in enumerate(op[1]):
            bound[f"c{k}_{j}"] = fn
            lines += [f"fin = {_env(in_spec, read)}", f"if fin != sc[{si}]:"]
            lines += _block(
                [f"_, ns[{leaf}] = c{k}_{j}(fin, ps[{leaf}], tick)"] + count)
        return lines
    if code == OP_EXPR:
        _, _leaf, in_spec, items, post = op
        return (_expr_lines(in_spec, items, slots, scope)
                + [copy(src, dst) for src, dst in post])
    _, leaf, fn, in_spec, out_spec, post, si = op  # OP_RUN
    bound[f"f{k}"] = fn
    lines = [f"sub = {_env(in_spec, read)}",
             f"out, ns[{leaf}] = f{k}(sub, ps[{leaf}], tick)"]
    lines += [write(slot, f"out.get({name!r}, A)") for name, slot in out_spec]
    if si >= 0:
        lines.append(f"sc[{si}] = sub")
    return lines + [copy(src, dst) for src, dst in post]


def _gate_guards(program: Sequence[Tuple[Any, ...]]
                 ) -> Optional[List[Optional[str]]]:
    """The flag of each op's innermost enclosing gate (``None`` at top
    level), or ``None`` when the gate regions do not nest forward."""
    n_ops = len(program)
    guards: List[Optional[str]] = []
    open_gates: List[Tuple[str, int]] = []  # (flag, jump target)
    for k, op in enumerate(program):
        while open_gates and open_gates[-1][1] <= k:
            open_gates.pop()
        guards.append(open_gates[-1][0] if open_gates else None)
        if op[0] == OP_GATE:
            target = min(op[2], n_ops)
            if target <= k or (open_gates and target > open_gates[-1][1]):
                return None
            open_gates.append((f"g{k}", target))
    return guards


def _program_lines(program: Sequence[Tuple[Any, ...]], slots: _Slots,
                   profiled: bool, recording: bool,
                   scope: SourceScope) -> List[str]:
    """The whole op program as depth-1 guarded straight-line source."""
    guards = _gate_guards(program)
    if guards is None:
        scope.bound["SimulationError"] = SimulationError
        return ['raise SimulationError("flat program gate regions do not '
                'nest forward")']
    # a nested gate's flag must read false when its parent region is skipped
    lines = [f"g{k} = False" for k, op in enumerate(program)
             if op[0] == OP_GATE and guards[k] is not None]
    open_guard = None
    for k, op in enumerate(program):
        body = _op_lines(k, op, slots, profiled, scope)
        if profiled:
            body = ["t = clock()"] + body + [f"T[{k}] += clock() - t",
                                             f"C[{k}] += 1"]
        if recording:
            body = [f"index = {k}"] + body
        guard = guards[k]
        if guard is None:
            lines += body
        else:
            if guard != open_guard:
                lines.append(f"if {guard}:")
            lines += _block(body or ["pass"])
        open_guard = guard
    return lines


def _profiling(profile: Any, clock: Callable[[], float],
               bound: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Bind *profile*'s counters into *bound*; returns the tick-timer lines
    opening and closing the generated function (none without a profile)."""
    if profile is None:
        return [], []
    bound.update(P=profile, T=profile.times, C=profile.counts,
                 S=profile.gate_skips, clock=clock)
    return (["t_tick = clock()"],
            ["P.ticks += 1", "P.total_time_s += clock() - t_tick"])


@functools.lru_cache(maxsize=256)
def _code(source: str, filename: str) -> Any:
    """The code object of generated *source*, compiled once per process.

    Code objects are immutable and every ``exec`` runs one in a fresh
    namespace of bound objects, so recompiling a model (a fresh simulator
    per campaign) reuses the bytecode of its identical generated source.
    """
    return compile(source, filename, "exec")


def _define(name: str, params: str, body: List[str], scope: SourceScope,
            filename: str) -> Callable[..., Any]:
    source = "\n".join(scope.defs + [f"def {name}({params}):"]
                       + _block(body or ["pass"]))
    exec(_code(source, filename), scope.bound)  # noqa: S102 - generated
    return scope.bound[name]


def flat_step(flat: Any, profile: Any = None, recorder: Any = None,
              clock: Callable[[], float] = time.perf_counter
              ) -> Callable[..., Any]:
    """The ``(inputs, state, tick) -> (outputs, state)`` step of *flat*.

    With *profile* (an :class:`~repro.obs.profile.OpProfile`) every
    executed op is timed and counted; with *recorder* (a
    :class:`~repro.obs.recorder.FlightRecorder`) tick 0 resets the ring,
    every completed tick is snapshotted and a raising op is recorded with
    its index and the partial slot list before the exception propagates.
    """
    scope = SourceScope({"FlatState": FlatState,
                         "convert": flat._convert_state},  # noqa: SLF001
                        _LIST[3])
    bound = scope.bound
    head, tail = _profiling(profile, clock, bound)
    if recorder is not None:
        bound.update(begin_run=recorder.begin_run,
                     record_tick=recorder.record_tick,
                     record_failure=recorder.record_failure)
        head += ["if tick == 0:", "    begin_run()"]
        tail.insert(0, "record_tick(tick, v)")
    head += ["if type(state) is not FlatState:", "    state = convert(state)",
             "ps = state.leaf_states", "pb = state.buffers", "ns = ps[:]",
             "nb = pb[:]", f"v = [A] * {flat.n_slots}"]
    head += [f"v[{slot}] = inputs.get({name!r}, A)"
             for name, slot in flat.input_spec]
    n_scratch = flat._scratch_count  # noqa: SLF001
    if n_scratch:
        head.append(f"sc = [None] * {n_scratch}")
    ops = _program_lines(flat.program, _LIST, profile is not None,
                         recorder is not None, scope)
    if recorder is not None:
        ops = (["index = 0", "try:"] + _block(ops or ["pass"])
               + ["except Exception as exc:",
                  "    record_failure(tick, index, v, inputs, exc)",
                  "    raise"])
    outputs = ", ".join(f"{name!r}: v[{slot}]"
                        for name, slot in flat.output_spec)
    tail.append(f"return {{{outputs}}}, FlatState(ns, nb)")
    return _define("step", "inputs, state, tick", head + ops + tail, scope,
                   f"<flat step {flat.component.name}>")


def native_replays(program: Sequence[Tuple[Any, ...]]
                   ) -> List[Optional[Callable[..., None]]]:
    """Per-op replay functions ``(ps, ns, sc, tick, load, store, copy)``.

    ``run`` / ``expr`` / ``correct`` ops get one function each, executing
    the op through the *load* / *store* / *copy* accessors of the tagged
    slot plane it is called with (one plane per native call, so replays
    share no state between concurrent runs); the other opcodes always run
    in C and get ``None``.
    """
    scope = SourceScope({}, _TAGGED[3])
    lines: List[str] = []
    for k, op in enumerate(program):
        if op[0] in (OP_RUN, OP_EXPR, OP_CORRECT):
            lines.append(f"def r{k}(ps, ns, sc, tick, load, store, copy):")
            lines += _block(_op_lines(k, op, _TAGGED, False, scope)
                            or ["pass"])
    source = "\n".join(scope.defs + lines)
    exec(_code(source, "<native replay>"), scope.bound)  # noqa: S102
    return [scope.bound.get(f"r{k}") for k in range(len(program))]

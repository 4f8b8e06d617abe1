"""Generated execution variants of the flat op program.

One definition of op semantics: every opcode of a
:class:`~repro.simulation.schedule_ir.FlatSchedule` program has one body
template here, and every way the program is executed is straight-line
Python source written from those templates and exec-compiled once per
schedule -- the deployed system as one generated program (paper Sec. 2.4),
produced from the model the way ASCET-SD produces code (Sec. 3.4).  Two
value substrates spell slot access differently:

* ``flat``   -- the per-tick ``values`` list ``v``: the per-tick
  :attr:`FlatSchedule.step`, and the whole-horizon loop behind
  :meth:`FlatSchedule.run`, which runs every tick of a scenario in one
  call, with its op-profiling and flight-recording variant (all from
  :func:`flat_step`);
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

The horizon loop, op profiling and flight recording are emitter
parameters, not twin loops: the horizon variant wraps the per-tick body
in a ``for tick`` loop that reads input slots from prefilled columns and
gate flags from the schedule's cached gate plane, appends output and
readout slots to their columns, rolls the leaf states and delayed
buffers and returns the first exception with its tick instead of raising
it.  Only that loop is observed: profiling times and counts every
executed op and counts gate skips and correction re-runs; recording
snapshots every completed tick, sets ``index = k`` before each op inside
one ``try`` per tick and hands the partial slot list and the tick's
inputs to the recorder on a raise.

**Readouts.**  The ``run`` template of a leaf in the schedule's
``readout_spec`` also writes the leaf's new state into its readout slot,
in both substrates, so the horizon loop and the native C loop carry mode
histories out as columns.

**Correction regions.**  A ``correct`` op compares each entry's final
inputs with the copy of the inputs its region saw and, when they differ,
calls the region's re-run (:func:`region_reruns`): one more function per
region, generated from the same templates, whose own barriers call the
re-runs of the regions inside it.  The barrier then writes back the
region's readout slots.

**Regions.**  A gate op sets one flag ``g<k> = p<k>(tick)`` (in the
horizon loop, ``g<k> = gp[gt + column]`` from the gate plane) and a select
op one flag ``g<k> = v[slot] == position`` (its mode controller wrote the
active mode's position into ``slot``), each guarded by the flag of its
enclosing region, and every op runs under the flag of its innermost
enclosing region at depth 1 -- so arbitrarily deep nesting (a 1200-level
gated chain) never reaches CPython's indentation limit.  A
program whose regions do not nest forward (only a doctored one: the
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
from ..core.values import ABSENT
from .schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_CORRECT,
                          OP_EXPR, OP_GATE, OP_RUN, OP_SELECT, REGION_OPS,
                          FlatState)

#: Slot spelling of one substrate: ``(read(slot), write(slot, x), copy(src,
#: dst))`` as source-text builders, plus the name through which generated
#: expression helpers read slots and the previous and next delayed buffers
#: a region re-run is handed.
_Slots = Tuple[Callable[..., str], Callable[..., str], Callable[..., str],
               str, str]

_LIST: _Slots = (lambda slot: f"v[{slot}]",
                 lambda slot, x: f"v[{slot}] = {x}",
                 lambda src, dst: f"v[{dst}] = v[{src}]", "v", "pb, nb")


def _env(in_spec: Sequence[Tuple[str, int]],
         read: Callable[[int], str]) -> str:
    return "{" + ", ".join(f"{name!r}: {read(slot)}"
                           for name, slot in in_spec) + "}"


def _tuple(slots: Sequence[int], read: Callable[[int], str]) -> str:
    return "(" + "".join(f"{read(slot)}, " for slot in slots) + ")"


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
              scope: SourceScope, readout: Dict[int, int],
              plane: Optional[Dict[int, int]] = None) -> List[str]:
    """The body of op *k*; the objects it calls are bound into *scope*.

    A leaf in *readout* also writes its new state into its readout slot;
    with *plane* (gate op index -> gate plane column) a gate reads its
    flag from the plane row ``gp[gt:]`` instead of calling its predicate.
    """
    read, write, copy = slots[:3]
    bound = scope.bound
    code = op[0]
    if code == OP_COPY:
        return [copy(src, dst) for src, dst in op[1]]
    if code == OP_BUF_READ:
        return [write(dst, f"pb[{index}]") for index, dst in op[1]]
    if code == OP_BUF_WRITE:
        return [f"nb[{index}] = {read(src)}" for src, index in op[1]]
    if code in REGION_OPS:
        if code == OP_SELECT:  # the mode controller wrote the index slot
            flag = f"{read(op[1][0])} == {op[1][1]}"
        elif plane is not None:
            flag = f"gp[gt + {plane[k]}]"
        else:
            bound[f"p{k}"] = op[1]
            flag = f"p{k}(tick)"
        return [f"g{k} = {flag}"] + (
            [f"if not g{k}: S[{k}] += 1"] if profiled else [])
    if code == OP_CORRECT:  # calls the region re-runs of region_reruns
        count = ["P.correction_reruns += 1"] if profiled else []
        lines = []
        for j, (_start, _end, _leaves, buffers, seen) in enumerate(op[1]):
            final, entry = zip(*seen)
            views = slots[4] if buffers[0] < buffers[1] else "None, None"
            lines += [f"fin = {_tuple(final, read)}",
                      f"if fin != {_tuple(entry, read)}:",
                      f"    for r, x in x{k}_{j}(fin, ps, ns, {views}, tick):",
                      f"        {write('r', 'x')}"] + _block(count)
        return lines
    if code == OP_EXPR:
        _, _leaf, in_spec, items, post = op
        return (_expr_lines(in_spec, items, slots, scope)
                + [copy(src, dst) for src, dst in post])
    _, leaf, fn, in_spec, out_spec, post = op  # OP_RUN
    bound[f"f{k}"] = fn
    lines = [f"sub = {_env(in_spec, read)}",
             f"out, ns[{leaf}] = f{k}(sub, ps[{leaf}], tick)"]
    if leaf in readout:
        lines.append(write(readout[leaf], f"ns[{leaf}]"))
    lines += [write(slot, f"out.get({name!r}, A)") for name, slot in out_spec]
    return lines + [copy(src, dst) for src, dst in post]


def _gate_guards(program: Sequence[Tuple[Any, ...]], start: int, end: int
                 ) -> Optional[List[Optional[str]]]:
    """The flag of each op's innermost enclosing region among the ops
    ``[start, end)`` (``None`` outside every region), or ``None`` when the
    regions do not nest forward inside that range."""
    guards: List[Optional[str]] = []
    # (flag, jump target); the range itself is the outermost region
    open_gates: List[Tuple[Optional[str], int]] = [(None, end)]
    for k in range(start, end):
        while open_gates[-1][1] <= k:
            open_gates.pop()
        guards.append(open_gates[-1][0])
        op = program[k]
        if op[0] in REGION_OPS:
            target = min(op[2], len(program))
            if target <= k or target > open_gates[-1][1]:
                return None
            open_gates.append((f"g{k}", target))
    return guards


def _program_lines(program: Sequence[Tuple[Any, ...]], slots: _Slots,
                   profiled: bool, recording: bool, scope: SourceScope,
                   readout: Dict[int, int],
                   plane: Optional[Dict[int, int]] = None,
                   start: int = 0, end: Optional[int] = None) -> List[str]:
    """The ops ``[start, end)`` of the program (all of them by default)
    as depth-1 guarded straight-line source."""
    end = len(program) if end is None else end
    guards = _gate_guards(program, start, end)
    if guards is None:
        scope.bound["SimulationError"] = SimulationError
        return ['raise SimulationError("flat program gate regions do not '
                'nest forward")']
    span = range(start, end)
    # a nested gate's flag must read false when its parent region is skipped
    lines = [f"g{k} = False" for k, guard in zip(span, guards)
             if program[k][0] in REGION_OPS and guard is not None]
    open_guard = None
    for k, guard in zip(span, guards):
        op = program[k]
        body = _op_lines(k, op, slots, profiled, scope, readout, plane)
        if profiled:
            body = ["t = clock()"] + body + [f"T[{k}] += clock() - t",
                                             f"C[{k}] += 1"]
        if recording:
            body = [f"index = {k}"] + body
        if guard is None:
            lines += body
        else:
            if guard != open_guard:
                lines.append(f"if {guard}:")
            lines += _block(body or ["pass"])
        open_guard = guard
    return lines


def _profiling(profile: Any, bound: Dict[str, Any]
               ) -> Tuple[List[str], List[str]]:
    """Bind *profile*'s counters into *bound*; returns the tick-timer lines
    opening and closing each tick (none without a profile)."""
    if profile is None:
        return [], []
    bound.update(P=profile, T=profile.times, C=profile.counts,
                 S=profile.gate_skips, clock=time.perf_counter)
    return (["t_tick = clock()"],
            ["P.ticks += 1", "P.total_time_s += clock() - t_tick"])


@functools.lru_cache(maxsize=256)
def _code(source: str, filename: str) -> Any:
    """The code object of generated *source*, compiled once per process.

    Code objects are immutable and every ``exec`` runs one in a fresh
    namespace of bound objects, so recompiling a model reuses the
    bytecode of its identical generated source: the sharded runner
    compiles each model once per thread or process, and every further
    simulator of the model (another thread's, a rebuilt model's) shares
    its code objects.
    """
    return compile(source, filename, "exec")


def _define(name: str, params: str, body: List[str], scope: SourceScope,
            filename: str) -> Callable[..., Any]:
    source = "\n".join(scope.defs + [f"def {name}({params}):"]
                       + _block(body or ["pass"]))
    exec(_code(source, filename), scope.bound)  # noqa: S102 - generated
    return scope.bound[name]


def flat_step(flat: Any, profile: Any = None, recorder: Any = None,
              horizon: bool = False) -> Callable[..., Any]:
    """The ``(inputs, state, tick) -> (outputs, state)`` step of *flat*,
    over the :class:`FlatState` that starts as ``flat.initial_state()``.

    With *horizon* the result is instead the whole-horizon loop
    ``run(columns, runnable, state, outs, gp) -> (ticks done, error)``:
    ticks ``[0, runnable)`` from *state*, reading input slot values from
    *columns* (one value list per input port, in ``input_names()``
    order) and gate flags from the gate plane *gp* (``flat.gates(0,
    runnable)``), appending every output slot and then every readout slot
    to its list in *outs* (``output_spec``, then ``readout_spec`` order)
    and rolling leaf states and delayed buffers itself.  The first
    exception stops the loop and is returned with the tick it was raised
    at, the number of ticks that ran to completion.

    Only the horizon loop takes *profile* and *recorder*.  With *profile*
    (an :class:`~repro.obs.profile.OpProfile`) every executed op is timed
    and counted; with *recorder* (a
    :class:`~repro.obs.recorder.FlightRecorder`, whose ring
    :meth:`FlatSchedule.run` resets) the loop snapshots every completed
    tick and records a raising op
    with its index, the partial slot list and the tick's inputs before
    the exception stops the loop.  Either makes it an observed loop,
    which takes one more argument, *check*: when true, it stops after the
    first tick whose outputs their port types reject, so it observes
    exactly the ticks a type-checked stepped run executes.
    """
    scope = SourceScope({"FlatState": FlatState}, _LIST[3])
    bound = scope.bound
    head, tail = _profiling(profile, bound)
    observed = profile is not None or recorder is not None
    readout = dict(flat.readout_spec)
    gathered = flat.output_spec + flat.readout_spec  # (key, slot) pairs
    plane = None
    if horizon:
        # columns follow input_names(), the input_spec order
        entry = ([f"i{index} = columns[{index}]"
                  for index in range(len(flat.input_spec))]
                 + [f"o{index} = outs[{index}].append"
                    for index in range(len(gathered))]
                 + ["ps = state.leaf_states", "pb = state.buffers"])
        reads = [f"v[{slot}] = i{index}[tick]"
                 for index, (_name, slot) in enumerate(flat.input_spec)]
        gates = [k for k, op in enumerate(flat.program) if op[0] == OP_GATE]
        plane = {k: column for column, k in enumerate(gates)}
        if gates:
            reads.append(f"gt = tick * {len(gates)}")
    else:
        head += ["ps = state.leaf_states", "pb = state.buffers"]
        reads = [f"v[{slot}] = inputs.get({name!r}, A)"
                 for name, slot in flat.input_spec]
    head += ["ns = ps[:]", "nb = pb[:]", f"v = [A] * {flat.n_slots}"] + reads
    bound.update(flat.reruns)
    ops = _program_lines(flat.program, _LIST, profile is not None,
                         recorder is not None, scope, readout, plane)
    if recorder is not None:
        bound.update(record_tick=recorder.record_tick,
                     record_failure=recorder.record_failure)
        tail.insert(0, "record_tick(tick, v)")
        inputs = "{" + ", ".join(f"{name!r}: i{index}[tick]" for index, (
            name, _slot) in enumerate(flat.input_spec)) + "}"
        ops = (["index = 0", "try:"] + _block(ops or ["pass"])
               + ["except Exception as exc:",
                  f"    record_failure(tick, index, v, {inputs}, exc)",
                  "    raise"])
    if not horizon:
        outputs = ", ".join(f"{name!r}: v[{slot}]"
                            for name, slot in flat.output_spec)
        tail.append(f"return {{{outputs}}}, FlatState(ns, nb)")
        return _define("step", "inputs, state, tick", head + ops + tail,
                       scope, f"<flat step {flat.component.name}>")
    tail += [f"o{index}(v[{slot}])"
             for index, (_name, slot) in enumerate(gathered)]
    tail += ["ps = ns", "pb = nb"]
    params = "columns, runnable, state, outs, gp"
    if observed and flat.output_spec:
        # r<k>((x,)) is 0 exactly when output k's port type rejects x
        component = flat.component
        bound.update((f"r{index}", component.port(name).port_type
                      .first_rejected)
                     for index, (name, _slot) in enumerate(flat.output_spec))
        accepted = " and ".join(f"r{index}((v[{slot}],))" for index, (
            _name, slot) in enumerate(flat.output_spec))
        tail += [f"if check and not ({accepted}):",
                 "    return tick + 1, None"]
    if observed:
        params += ", check"
    loop = ["for tick in range(runnable):"] + _block(head + ops + tail)
    body = (entry + ["tick = 0", "try:"] + _block(loop)
            + ["except BaseException as exc:",
               "    return tick, exc", "return runnable, None"])
    return _define("run", params, body, scope,
                   f"<flat horizon {flat.component.name}>")


def region_reruns(flat: Any) -> Dict[str, Callable[..., Tuple[Any, ...]]]:
    """The re-run of every correction region of *flat*, by the name
    ``x<k>_<j>`` the barrier at op *k* calls for its entry *j*.

    ``x(fin, ps, ns, pb, nb, tick) -> readouts`` re-runs the region as the
    interpreter's second pass re-runs a component: it resets the region's
    next leaf states and delayed buffers from the tick-start ones, runs
    the region's ops (the templates of every loop, unobserved, gates
    calling their predicates) over a fresh all-ABSENT slot list holding
    only the final inputs *fin*, discards that run's outputs and returns
    the region's ``(readout slot, value)`` pairs.  A region inside it keeps
    its own barrier, which calls that region's re-run.  *pb* and *nb* are
    anything indexable by buffer: the flat loops' lists, or the native
    plane's buffer cells.
    """
    scope = SourceScope({"Fresh": _Fresh}, _LIST[3])
    readout = dict(flat.readout_spec)
    lines: List[str] = []
    for k, op in enumerate(flat.program):
        for j, (start, end, (l0, l1), (b0, b1), seen) in enumerate(
                op[1] if op[0] == OP_CORRECT else ()):
            lines += [f"def x{k}_{j}(fin, ps, ns, pb, nb, tick):"] + _block(
                [f"ns[{l0}:{l1}] = ps[{l0}:{l1}]"]
                + [f"for b in range({b0}, {b1}): nb[b] = pb[b]"] * (b0 < b1)
                + [f"v = Fresh(zip({tuple(slot for slot, _ in seen)}, fin))"]
                + _program_lines(flat.program, _LIST, False, False, scope,
                                 readout, None, start, end)
                + ["return " + _tuple([slot for leaf, slot in readout.items()
                                       if l0 <= leaf < l1],
                                      lambda slot: f"({slot}, v[{slot}])")])
    exec(_code("\n".join(scope.defs + lines),  # noqa: S102 - generated
               f"<flat reruns {flat.component.name}>"), scope.bound)
    return {name: value for name, value in scope.bound.items()
            if name.startswith("x")}


class _Fresh(dict):
    """A region re-run's slot list: a slot reads ABSENT until written, and
    a re-run costs what its region touches, not the program's size."""

    def __missing__(self, slot: int) -> Any:
        return ABSENT


class _Cells:
    """The delayed-buffer cells of a tagged slot plane from *base* on,
    indexed by buffer like the flat loops' buffer lists: what a region
    re-run reads and resets on native."""

    def __init__(self, base: int, load: Callable[[int], Any],
                 store: Callable[[int, Any], None]):
        self.base, self.load, self.store = base, load, store

    def __getitem__(self, index: int) -> Any:
        return self.load(self.base + index)

    def __setitem__(self, index: int, value: Any) -> None:
        self.store(self.base + index, value)


def native_replays(flat: Any) -> List[Optional[Callable[..., None]]]:
    """Per-op replay functions ``(ps, ns, tick, load, store, copy)`` of
    *flat*'s program.

    ``run`` / ``expr`` / ``correct`` ops get one function each, executing
    the op through the *load* / *store* / *copy* accessors of the tagged
    slot plane it is called with (one plane per native call, so replays
    share no state between concurrent runs); a barrier's replay also
    views the plane's previous and next delayed buffers (the layout of
    :mod:`repro.simulation.native.emit`) for its region re-runs.  The
    other opcodes always run in C and get ``None``.
    """
    tagged: _Slots = (lambda slot: f"load({slot})",
                      lambda slot, x: f"store({slot}, {x})",
                      lambda src, dst: f"copy({src}, {dst})", "load",
                      f"Cells({flat.n_slots}, load, store), Cells("
                      f"{flat.n_slots + len(flat.buffer_initials)}, load, "
                      "store)")
    scope = SourceScope(dict(flat.reruns, Cells=_Cells), tagged[3])
    readout = dict(flat.readout_spec)
    lines: List[str] = []
    for k, op in enumerate(flat.program):
        if op[0] in (OP_RUN, OP_EXPR, OP_CORRECT):
            lines.append(f"def r{k}(ps, ns, tick, load, store, copy):")
            lines += _block(_op_lines(k, op, tagged, False, scope, readout)
                            or ["pass"])
    source = "\n".join(scope.defs + lines)
    exec(_code(source, "<native replay>"), scope.bound)  # noqa: S102
    return [scope.bound.get(f"r{k}") for k in range(len(flat.program))]

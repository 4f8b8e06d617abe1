"""Lowering a flat schedule's op program to one C tick loop.

The whole flat program becomes a single translation unit exporting one
entry point that runs a whole horizon of ticks:

.. code-block:: c

    long long repro_run(long long t0, long long ticks, unsigned char *tag,
                        long long *iv, double *fv, const unsigned char *gates,
                        repro_tramp_fn tramp);

``tag`` / ``iv`` / ``fv`` are one tagged plane (value tag, int64 payload,
double payload per cell; the :data:`~repro.ascet.c_expr.TAG_OBJ` payload
indexes a Python object table that lives for the whole call, so opaque
values still *move* natively -- across ticks too, through the delayed
buffers).  With ``S`` slots, ``B`` delayed buffers, ``I`` inputs and
``O`` outputs plus readouts the plane holds, in this order: the slots,
the previous buffers, the next buffers, ``ticks x I`` input rows and
``ticks x O`` output rows (rows tick-major, columns in ``input_spec``
order, and ``output_spec`` then ``readout_spec`` order).  Per tick ``k``
of ``[0, ticks)`` (absolute tick ``t0 + k``) the loop

1. rolls the delayed buffers: the last tick's next buffers become this
   tick's previous ones and stay the seed of the next ones, so unwritten
   buffers carry over exactly like the flat engine's
   ``next_buffers = prev_buffers[:]`` (the caller seeds the next buffers
   before the call);
2. clears the slots to all-ABSENT (ABSENT is tag 0) and scatters input
   row ``k`` into the input slots;
3. runs the op program, reading its gate flags from row ``k`` of the
   ``gates`` plane (``ticks x gates``, the flat program's
   :meth:`~repro.simulation.schedule_ir.FlatSchedule.gates` -- clock
   patterns depend on the tick only);
4. gathers the output slots, then the readout slots (the states the
   machine leaves' replays wrote, ABSENT where a region was skipped),
   into output row ``k``.

Steps 1-4 are one ``static`` function, ``repro_tick``, optimized like
any straight-line step; the loop around it is a few index moves per tick
and is compiled unoptimized, because optimizing a loop costs the compiler
more than it saves at run time (cold compiles stay as fast as a single
step's).  The unit includes no system header either -- parsing them
dominates a small program's compile -- so ``fabs`` / ``NAN`` /
``INFINITY`` map to compiler builtins.  ``tramp(op, tick)`` is the ctypes
callback through which any op the emitter did not (or at run time
cannot) lower exactly is replayed through the flat engine's generated
Python source for that op.

Lowering decisions per op:

* ``copy`` / ``buf_read`` / ``buf_write`` / ``gate`` / ``select`` --
  always native (tag-triple moves, a table jump, and a tag/payload test
  of the mode controller's index slot with a jump);
* ``expr`` -- native when every item expression passes
  :func:`~repro.ascet.c_expr.lowerable_expression` *and* the lint
  interval×kind lattice proves no enum/struct value flows through it
  (:func:`repro.analysis.lint.expr_check.check_expression`); the emitted
  block still guards every arithmetic step (overflow, int-exactness,
  opaque operands, error paths) and bails to the trampoline whenever
  exact Python semantics cannot be replicated in int64/double;
* ``run`` / ``correct`` -- always the trampoline (MTD/STD/atomic leaves
  and the correction barrier, whose replay re-runs its region in Python,
  live on Python state); a correction region's own ops lower like any
  others.

The emitted fast path is compute-then-commit: an expression block writes
slots only after every item evaluated cleanly, so a bail-out replays the
whole op from unmodified inputs.  The return value is ``0`` once every
tick ran, or ``op_index + 1`` as soon as an op replay reports a pending
Python exception; the loop stops at that tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from ...ascet.c_expr import TaggedEmitter, lowerable_expression
from ..schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_EXPR,
                           OP_SELECT, REGION_OPS, FlatSchedule)

_HEADER = """\
/* generated by repro.simulation.native (emitter v{version}) -- do not edit */
/* no system headers: parsing them is most of a small program's compile */
#define fabs __builtin_fabs
#define NAN __builtin_nanf("")
#define INFINITY __builtin_inff()

typedef long long (*repro_tramp_fn)(long long, long long);

/* one tick: 0, or op_index + 1 when a replay raised */
static __attribute__((noinline))
long long repro_tick(long long at, const unsigned char *gate, long long in,
                     long long out, unsigned char *tag, long long *iv,
                     double *fv, repro_tramp_fn tramp)
{{
"""

_RUN = """\
/* the loop is a few moves per tick around repro_tick: not worth the
   compile time of optimizing it */
__attribute__((optimize("O0")))
long long repro_run(long long t0, long long ticks, unsigned char *tag,
                    long long *iv, double *fv, const unsigned char *gates,
                    repro_tramp_fn tramp)
{{
    const long long out = {inputs} + ticks * {n_inputs};
    for (long long tick = 0; tick < ticks; ++tick) {{
        long long failed = repro_tick(
            t0 + tick, gates + tick * {n_gates}, {inputs} + tick * {n_inputs},
            out + tick * {n_outputs}, tag, iv, fv, tramp);
        if (failed) return failed;
    }}
    return 0LL;
}}
"""


@dataclass
class LoweredProgram:
    """The C lowering of one flat program.

    ``lowered_ops`` are the op indexes emitted as native expression blocks
    (they may still bail to the trampoline at run time); ``fallback_ops``
    are the indexes lowered as unconditional trampoline calls (``run`` /
    ``correct`` / non-lowerable ``expr``); ``gate_indexes`` maps the k-th
    column of the C ``gates`` plane to its op index (the order of
    :attr:`~repro.simulation.schedule_ir.FlatSchedule.gate_predicates`).
    """

    source: str
    lowered_ops: List[int] = field(default_factory=list)
    fallback_ops: List[int] = field(default_factory=list)
    gate_indexes: List[int] = field(default_factory=list)


def _expr_abstract_kinds(leaf: Any) -> Any:
    """Join of the lattice kinds of every item expression of *leaf*.

    Imported lazily: :mod:`repro.analysis.lint` imports the schedule IR
    for its verifier, so a module-level import here would be circular.
    """
    from ...analysis.lint.expr_check import (check_expression,
                                             environment_of_ports)
    component = leaf.component
    environment = environment_of_ports(component)
    kinds = set()
    clean = True
    for out_name, expression in component.output_expressions.items():
        value, findings = check_expression(
            expression, environment, f"{component.name}.{out_name}",
            component._evaluator.functions)  # noqa: SLF001
        kinds |= value.kinds
        if any(finding.severity == "error" for finding in findings):
            clean = False
    return kinds, clean


def _expr_is_lowerable(op: Tuple[Any, ...], leaf: Any) -> bool:
    """Static routing decision for one ``expr`` op."""
    component = leaf.component
    expressions = list(component.output_expressions.values())
    if len(expressions) != len(op[3]):
        return False
    input_names = {name for name, _slot in op[2]}
    functions = component._evaluator.functions  # noqa: SLF001
    if not all(lowerable_expression(expression, input_names, functions)
               for expression in expressions):
        return False
    kinds, clean = _expr_abstract_kinds(leaf)
    # enum/struct-kind values are Python objects on the tagged plane; the
    # lattice proving one can flow through this block routes the whole op
    # to the Python replay statically rather than bailing every tick.
    return clean and not (kinds & {"enum", "struct"})


def _tramp_call(index: int, lines: List[str]) -> None:
    lines.append(f"    if (tramp({index}LL, at)) return {index + 1}LL;")


def _emit_expr_block(index: int, op: Tuple[Any, ...], leaf: Any,
                     lines: List[str]) -> None:
    in_spec = op[2]
    items = op[3]
    post = op[4]
    expressions = list(leaf.component.output_expressions.values())
    lines.append("    {")
    inputs = {}
    for j, (name, slot) in enumerate(in_spec):
        prefix = f"v{j}"
        inputs[name] = prefix
        lines.append(f"        unsigned char {prefix}_t = tag[{slot}]; "
                     f"long long {prefix}_i = iv[{slot}]; "
                     f"double {prefix}_f = fv[{slot}];")
    emitter = TaggedEmitter(inputs, bail_label=f"L{index}_py")
    results = [emitter.emit(expression) for expression in expressions]
    lines.extend(f"        {decl}" for decl in emitter.decls)
    lines.extend(f"        {line}" for line in emitter.lines)
    for (slot, _source), prefix in zip(items, results):
        if slot >= 0:
            lines.append(f"        tag[{slot}] = {prefix}_t; "
                         f"iv[{slot}] = {prefix}_i; "
                         f"fv[{slot}] = {prefix}_f;")
    lines += ["        " + _move(dst, src) for src, dst in post]
    lines.append(f"        goto L{index}_done;")
    lines.append(f"    }}")
    lines.append(f"L{index}_py: ;")
    _tramp_call(index, lines)
    lines.append(f"L{index}_done: ;")


def _move(dst: Any, src: Any) -> str:
    """One tagged-plane cell copy (cells are C index expressions)."""
    return (f"tag[{dst}] = tag[{src}]; iv[{dst}] = iv[{src}]; "
            f"fv[{dst}] = fv[{src}];")


def _tick_prologue(flat: FlatSchedule) -> List[str]:
    """Roll the buffers, clear the slots, scatter the input row."""
    slots, n_buffers = flat.n_slots, len(flat.buffer_initials)
    lines = []
    if n_buffers:  # the last tick's next buffers are this tick's previous
        nxt = slots + n_buffers
        lines += [f"    __builtin_memcpy(tag + {slots}, tag + {nxt}, "
                  f"{n_buffers});",
                  f"    __builtin_memcpy(iv + {slots}, iv + {nxt}, "
                  f"{n_buffers} * sizeof(long long));",
                  f"    __builtin_memcpy(fv + {slots}, fv + {nxt}, "
                  f"{n_buffers} * sizeof(double));"]
    lines.append(f"    __builtin_memset(tag, 0, {slots});")
    lines += ["    " + _move(slot, f"in + {column}")
              for column, (_name, slot) in enumerate(flat.input_spec)]
    return lines


def _tick_epilogue(flat: FlatSchedule) -> List[str]:
    """Gather the output row: the outputs, then the readouts."""
    gathered = flat.output_spec + flat.readout_spec  # (key, slot) pairs
    return (["Lend: ;"]
            + ["    " + _move(f"out + {column}", slot)
               for column, (_key, slot) in enumerate(gathered)]
            + ["    return 0;", "}"])


def lower_program(flat: FlatSchedule, emitter_version: int) -> LoweredProgram:
    """Lower *flat*'s op program into one C translation unit."""
    program = flat.program
    lowered = LoweredProgram(source="")
    body: List[str] = []
    prev_base = flat.n_slots                     # first previous buffer
    next_base = prev_base + len(flat.buffer_initials)  # first next buffer

    for index, (op, (kind, label)) in enumerate(
            zip(program, flat.op_labels())):
        code = op[0]
        comment = f"{kind}: {label}".replace("*/", "* /")
        body.append(f"L{index}: ;  /* {comment} */")
        if code == OP_COPY:
            body += ["    " + _move(dst, src) for src, dst in op[1]]
        elif code == OP_BUF_READ:
            body += ["    " + _move(dst, prev_base + buf)
                     for buf, dst in op[1]]
        elif code == OP_BUF_WRITE:
            body += ["    " + _move(next_base + buf, src)
                     for src, buf in op[1]]
        elif code in REGION_OPS:
            target = op[2]
            label = "Lend" if target >= len(program) else f"L{target}"
            if code == OP_SELECT:  # an int index: tag 1, payload position
                slot, position = op[1]
                test = f"(tag[{slot}] == 1 && iv[{slot}] == {position}LL)"
            else:
                test = f"gate[{len(lowered.gate_indexes)}]"
                lowered.gate_indexes.append(index)
            body.append(f"    if (!{test}) goto {label};")
        elif code == OP_EXPR and _expr_is_lowerable(op, flat.leaves[op[1]]):
            lowered.lowered_ops.append(index)
            _emit_expr_block(index, op, flat.leaves[op[1]], body)
        else:  # run / correct / non-lowerable expr
            lowered.fallback_ops.append(index)
            _tramp_call(index, body)

    lines = [_HEADER.format(version=emitter_version)]
    lines += _tick_prologue(flat) + body + _tick_epilogue(flat)
    lines.append(_RUN.format(n_gates=len(lowered.gate_indexes),
                             inputs=next_base + len(flat.buffer_initials),
                             n_inputs=len(flat.input_spec),
                             n_outputs=len(flat.output_spec
                                           + flat.readout_spec)))
    lowered.source = "\n".join(lines)
    return lowered

"""Lowering a flat schedule's op program to one C step function.

The whole flat program becomes a single translation unit exporting

.. code-block:: c

    long long repro_step(unsigned char *tag, long long *iv, double *fv,
                         const unsigned char *pbt, const long long *pbi,
                         const double *pbf,
                         unsigned char *nbt, long long *nbi, double *nbf,
                         const unsigned char *gate, repro_tramp_fn tramp);

operating on the same fixed slot plane the flat interpreter uses, encoded
as three parallel arrays (tag / int64 payload / double payload; the
:data:`~repro.ascet.c_expr.TAG_OBJ` payload indexes a per-tick Python
object table, so opaque values still *copy* natively).  ``pb*``/``nb*``
are the previous/next delayed-buffer planes, ``gate[]`` holds the gate
predicates pre-evaluated for the tick (clock patterns depend on the tick
only), and ``tramp`` is the ctypes callback through which any op the
emitter did not (or at run time cannot) lower exactly is replayed through
the original Python closures.

Lowering decisions per op:

* ``copy`` / ``buf_read`` / ``buf_write`` / ``gate`` -- always native
  (tag-triple moves and a table jump);
* ``expr`` -- native when every item expression passes
  :func:`~repro.ascet.c_expr.lowerable_expression` *and* the lint
  interval×kind lattice proves no enum/struct value flows through it
  (:func:`repro.analysis.lint.expr_check.check_expression`); the emitted
  block still guards every arithmetic step (overflow, int-exactness,
  opaque operands, error paths) and bails to the trampoline whenever
  exact Python semantics cannot be replicated in int64/double;
* ``run`` / ``correct`` -- always the trampoline (nested/MTD/STD
  fallback leaves and the correction barrier live on Python state).

The emitted fast path is compute-then-commit: an expression block writes
slots only after every item evaluated cleanly, so a bail-out replays the
whole op from unmodified inputs.  The return value is ``0`` on success or
``op_index + 1`` when the trampoline reported a pending Python exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from ...ascet.c_expr import TaggedEmitter, lowerable_expression
from ..schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_EXPR,
                           OP_GATE, FlatSchedule)

_HEADER = """\
/* generated by repro.simulation.native (emitter v{version}) -- do not edit */
#include <math.h>

typedef long long (*repro_tramp_fn)(long long);

long long repro_step(unsigned char *tag, long long *iv, double *fv,
                     const unsigned char *pbt, const long long *pbi,
                     const double *pbf,
                     unsigned char *nbt, long long *nbi, double *nbf,
                     const unsigned char *gate, repro_tramp_fn tramp)
{{
"""


@dataclass
class LoweredProgram:
    """The C lowering of one flat program.

    ``lowered_ops`` are the op indexes emitted as native expression blocks
    (they may still bail to the trampoline at run time); ``fallback_ops``
    are the indexes lowered as unconditional trampoline calls (``run`` /
    ``correct`` / non-lowerable ``expr``); ``gate_indexes`` maps the k-th
    entry of the C ``gate[]`` array to its op index.
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
    # to the closure path statically rather than bailing every tick.
    return clean and not (kinds & {"enum", "struct"})


def _tramp_call(index: int, lines: List[str]) -> None:
    lines.append(f"    if (tramp({index}LL)) return {index + 1}LL;")


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
    for (slot, _closure), prefix in zip(items, results):
        if slot >= 0:
            lines.append(f"        tag[{slot}] = {prefix}_t; "
                         f"iv[{slot}] = {prefix}_i; "
                         f"fv[{slot}] = {prefix}_f;")
    for src, dst in post:
        lines.append(f"        tag[{dst}] = tag[{src}]; "
                     f"iv[{dst}] = iv[{src}]; fv[{dst}] = fv[{src}];")
    lines.append(f"        goto L{index}_done;")
    lines.append(f"    }}")
    lines.append(f"L{index}_py: ;")
    _tramp_call(index, lines)
    lines.append(f"L{index}_done: ;")


def lower_program(flat: FlatSchedule, emitter_version: int) -> LoweredProgram:
    """Lower *flat*'s op program into one C translation unit."""
    program = flat.program
    lowered = LoweredProgram(source="")
    lines: List[str] = [_HEADER.format(version=emitter_version)]

    for index, (op, (kind, label, _nested)) in enumerate(
            zip(program, flat.op_labels())):
        code = op[0]
        comment = f"{kind}: {label}".replace("*/", "* /")
        lines.append(f"L{index}: ;  /* {comment} */")
        if code == OP_COPY:
            for src, dst in op[1]:
                lines.append(f"    tag[{dst}] = tag[{src}]; "
                             f"iv[{dst}] = iv[{src}]; fv[{dst}] = fv[{src}];")
        elif code == OP_BUF_READ:
            for buf, dst in op[1]:
                lines.append(f"    tag[{dst}] = pbt[{buf}]; "
                             f"iv[{dst}] = pbi[{buf}]; fv[{dst}] = pbf[{buf}];")
        elif code == OP_BUF_WRITE:
            for src, buf in op[1]:
                lines.append(f"    nbt[{buf}] = tag[{src}]; "
                             f"nbi[{buf}] = iv[{src}]; nbf[{buf}] = fv[{src}];")
        elif code == OP_GATE:
            gate_index = len(lowered.gate_indexes)
            lowered.gate_indexes.append(index)
            target = op[2]
            label = "Lend" if target >= len(program) else f"L{target}"
            lines.append(f"    if (!gate[{gate_index}]) goto {label};")
        elif code == OP_EXPR and _expr_is_lowerable(op, flat.leaves[op[1]]):
            lowered.lowered_ops.append(index)
            _emit_expr_block(index, op, flat.leaves[op[1]], lines)
        else:  # run / correct / non-lowerable expr
            lowered.fallback_ops.append(index)
            _tramp_call(index, lines)

    lines.append("Lend: ;")
    lines.append("    return 0;")
    lines.append("}")
    lowered.source = "\n".join(lines) + "\n"
    return lowered


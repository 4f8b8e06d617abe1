"""Lane-masked batch compilation of base-language ASTs over NumPy rows.

The scalar compiler (:mod:`repro.core.expr_compile`) lowers an AST to a
closure ``environment -> value`` evaluated once per tick per scenario.
This module lowers the *same* AST to a closure
``(environment, mask) -> row`` that evaluates one tick of a whole scenario
battery at once: the environment maps names to ``(S,)`` object ndarrays
(one lane per scenario), *mask* is a boolean ``(S,)`` array selecting the
lanes to evaluate, and the result is an ``(S,)`` object ndarray.

**Why object dtype.**  Lanes hold ordinary Python objects -- unbounded
ints, genuine bools, floats, strings and the :data:`~repro.core.values.ABSENT`
singleton -- and the kernels are :func:`numpy.frompyfunc` liftings of the
exact per-element operations of the scalar engine.  This sidesteps the
classic scalar-vs-array divergences by construction: no int64 wraparound
(Python ints stay Python ints), no NumPy true-division replacing the base
language's int-exact division, no ``numpy.bool_`` leaking into traces.
``+``, ``-``, ``*`` and ``%`` on rows without an absent lane skip the
per-element Python call: NumPy's object-dtype loops for ``add``,
``subtract``, ``multiply`` and ``remainder`` apply the same C number
protocol as the Python operators, so values and types are unchanged.

**Lane discipline.**  Out-of-mask lanes are never evaluated: binary/call
kernels are applied through fancy indexing on the mask, ``and``/``or``
evaluate their right operand only on lanes whose left operand is present
and truthy/falsy (the short-circuit rule, vectorized), and conditionals
evaluate each branch only on the lanes its condition selects.  A lane that
would not raise under the scalar engine therefore cannot raise here; the
values of out-of-mask lanes in a returned row are unspecified.

**Error discipline.**  A compiled batch expression raises *whenever any
masked lane would raise* under the scalar engine (the kernels run the same
per-element code, so this holds by construction).  It makes no promise
about *which* lane's error surfaces or about exception chaining: the batch
backend treats any raise as "this tick needs the scalar path" and re-runs
the tick per lane through the scalar closures, which reproduces the exact
per-scenario exception, message and tick (see
:mod:`repro.simulation.batch_ir`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from .errors import ExpressionEvalError
from .expr_eval import _ARITHMETIC_OPS, BUILTIN_FUNCTIONS
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .values import ABSENT

#: A compiled batch expression: ``(environment, mask) -> row``.
BatchExpression = Callable[[Mapping[str, np.ndarray], np.ndarray], np.ndarray]

_PRESENT = np.frompyfunc(lambda value: value is not ABSENT, 1, 1)
_BOOL = np.frompyfunc(bool, 1, 1)


def _absent_row(size: int) -> np.ndarray:
    row = np.empty(size, dtype=object)
    row.fill(ABSENT)
    return row


def _present_on(row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask & is_present(row)`` as a boolean array (never raises)."""
    return _PRESENT(row).astype(bool) & mask


def _truthy_on(row: np.ndarray, mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Truthiness of *row* on *mask* lanes only.

    Returns ``(bools, truthy)``: *bools* is an object row of genuine Python
    bools on the masked lanes (``False`` elsewhere), *truthy* the boolean
    mask of lanes that are masked and truthy.  ``bool()`` is called only on
    masked lanes -- exotic values on other lanes cannot raise spuriously.
    """
    if mask.all():
        bools = _BOOL(row)
        return bools, bools.astype(bool)
    out = np.empty(len(mask), dtype=object)
    out.fill(False)
    if mask.any():
        out[mask] = _BOOL(row[mask])
    return out, out.astype(bool)


def _lift_unary(operation: Callable[[Any], Any]) -> Callable:
    def kernel(value: Any) -> Any:
        if value is ABSENT:
            return ABSENT
        return operation(value)
    return np.frompyfunc(kernel, 1, 1)


def _lift_binary(operation: Callable[[Any, Any], Any]) -> Callable:
    def kernel(a: Any, b: Any) -> Any:
        if a is ABSENT or b is ABSENT:
            return ABSENT
        return operation(a, b)
    return np.frompyfunc(kernel, 2, 1)


def _divide(a: Any, b: Any) -> Any:
    # int-exact division, as in ExpressionEvaluator._evaluate_binary; the
    # zero-divisor raise only needs to *happen* (the scalar fallback
    # re-derives the exact ExpressionEvalError message per lane)
    if b == 0:
        raise ZeroDivisionError
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


_NEGATE_KERNEL = _lift_unary(lambda value: -value)
_NOT_KERNEL = _lift_unary(lambda value: not value)
_DIVIDE_KERNEL = _lift_binary(_divide)
_BINARY_KERNELS = {name: _lift_binary(operation)
                   for name, operation in _ARITHMETIC_OPS.items()}
_BINARY_KERNELS["/"] = _DIVIDE_KERNEL
#: Object-dtype ufuncs computing exactly ``a <op> b`` per lane.
_BINARY_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply,
                  "%": np.remainder}


def _apply(kernel: Callable, ufunc: Optional[Callable],
           rows: Sequence[np.ndarray]) -> np.ndarray:
    # ``in`` tests identity first, so a row holding ABSENT always takes the
    # absence-aware kernel
    if ufunc is not None and not any(ABSENT in row.tolist() for row in rows):
        return ufunc(*rows)
    return kernel(*rows)


def _apply_masked(kernel: Callable, mask: np.ndarray, *rows: np.ndarray,
                  ufunc: Optional[Callable] = None) -> np.ndarray:
    """Apply an n-ary kernel (or its *ufunc* twin on absent-free rows) on
    the masked lanes only."""
    if mask.all():
        return _apply(kernel, ufunc, rows)
    out = _absent_row(len(mask))
    if mask.any():
        out[mask] = _apply(kernel, ufunc, [row[mask] for row in rows])
    return out


def compile_batch_expression(expression: Expression,
                             functions: Optional[Mapping[str, Callable[..., Any]]]
                             = None) -> BatchExpression:
    """Lower *expression* to a lane-masked closure ``(env, mask) -> row``.

    *functions* extends (and may override) the built-in function table,
    exactly like :func:`repro.core.expr_compile.compile_expression`.
    """
    table: Dict[str, Callable[..., Any]] = dict(BUILTIN_FUNCTIONS)
    if functions:
        table.update(functions)
    return _compile(expression, table)


def _compile(expression: Expression,
             functions: Mapping[str, Callable[..., Any]]) -> BatchExpression:
    if isinstance(expression, Literal):
        value = expression.value

        def run_literal(environment, mask):
            row = np.empty(len(mask), dtype=object)
            row.fill(value)
            return row
        return run_literal

    if isinstance(expression, Variable):
        name = expression.name
        message = (f"unknown name {name!r} in expression "
                   f"{expression.to_source()}")

        def run_variable(environment, mask):
            row = environment.get(name)
            if row is None:
                # only an evaluated lane may observe the unknown name
                if mask.any():
                    raise ExpressionEvalError(message)
                return _absent_row(len(mask))
            return row
        return run_variable

    if isinstance(expression, Present):
        channel = expression.channel

        def run_present(environment, mask):
            row = environment.get(channel)
            if row is None:
                out = np.empty(len(mask), dtype=object)
                out.fill(False)
                return out
            return _PRESENT(row)
        return run_present

    if isinstance(expression, UnaryOp):
        return _compile_unary(expression, functions)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, functions)

    if isinstance(expression, Conditional):
        condition = _compile(expression.condition, functions)
        then_branch = _compile(expression.then_branch, functions)
        else_branch = _compile(expression.else_branch, functions)

        def run_conditional(environment, mask):
            value = condition(environment, mask)
            chosen = _present_on(value, mask)
            _, then_mask = _truthy_on(value, chosen)
            else_mask = chosen & ~then_mask
            out = _absent_row(len(mask))
            if then_mask.any():
                row = then_branch(environment, then_mask)
                out[then_mask] = row[then_mask]
            if else_mask.any():
                row = else_branch(environment, else_mask)
                out[else_mask] = row[else_mask]
            return out
        return run_conditional

    if isinstance(expression, Call):
        return _compile_call(expression, functions)

    raise ExpressionEvalError(f"unsupported expression node {expression!r}")


def _compile_unary(expression: UnaryOp,
                   functions: Mapping[str, Callable[..., Any]]
                   ) -> BatchExpression:
    operand = _compile(expression.operand, functions)

    if expression.op == "-":
        def run_negate(environment, mask):
            return _apply_masked(_NEGATE_KERNEL, mask,
                                 operand(environment, mask))
        return run_negate

    if expression.op == "not":
        def run_not(environment, mask):
            return _apply_masked(_NOT_KERNEL, mask, operand(environment, mask))
        return run_not

    message = f"unknown unary operator {expression.op!r}"

    def run_unknown_unary(environment, mask):
        value = operand(environment, mask)
        if _present_on(value, mask).any():
            raise ExpressionEvalError(message)
        return _absent_row(len(mask))
    return run_unknown_unary


def _compile_binary(expression: BinaryOp,
                    functions: Mapping[str, Callable[..., Any]]
                    ) -> BatchExpression:
    left = _compile(expression.left, functions)
    right = _compile(expression.right, functions)
    op_name = expression.op

    if op_name in ("and", "or"):
        is_or = op_name == "or"

        def run_short_circuit(environment, mask):
            # vectorized short-circuit: a lane settles on its left operand
            # (or -> True when truthy, and -> False when falsy); only the
            # remaining present lanes ever evaluate the right operand
            a = left(environment, mask)
            present_a = _present_on(a, mask)
            _, truthy_a = _truthy_on(a, present_a)
            out = _absent_row(len(mask))
            if is_or:
                out[truthy_a] = True
                right_mask = present_a & ~truthy_a
            else:
                out[present_a & ~truthy_a] = False
                right_mask = truthy_a
            if right_mask.any():
                b = right(environment, right_mask)
                present_b = _present_on(b, right_mask)
                bools_b, _ = _truthy_on(b, present_b)
                out[present_b] = bools_b[present_b]
            return out
        return run_short_circuit

    kernel = _BINARY_KERNELS.get(op_name)
    if kernel is None:
        # unknown operator: both operands still evaluate first, so absence
        # wins on every lane before the lookup failure surfaces
        message = f"unknown binary operator {op_name!r}"

        def run_unknown_binary(environment, mask):
            a = left(environment, mask)
            b = right(environment, mask)
            if (_present_on(a, mask) & _present_on(b, mask)).any():
                raise ExpressionEvalError(message)
            return _absent_row(len(mask))
        return run_unknown_binary

    ufunc = _BINARY_UFUNCS.get(op_name)

    def run_binary(environment, mask):
        return _apply_masked(kernel, mask, left(environment, mask),
                             right(environment, mask), ufunc=ufunc)
    return run_binary


def _compile_call(expression: Call,
                  functions: Mapping[str, Callable[..., Any]]
                  ) -> BatchExpression:
    function_name = expression.function
    function = functions.get(function_name)
    if function is None:
        # the scalar engines look the function up before evaluating any
        # argument, so an unknown function beats argument errors
        message = f"unknown function {function_name!r}"

        def run_unknown_function(environment, mask):
            if mask.any():
                raise ExpressionEvalError(message)
            return _absent_row(len(mask))
        return run_unknown_function

    arguments = tuple(_compile(arg, functions) for arg in expression.arguments)
    arity = len(arguments)

    if arity == 0:
        def run_call_niladic(environment, mask):
            # one call per evaluated lane, matching per-scenario call counts
            out = _absent_row(len(mask))
            for index in np.nonzero(mask)[0]:
                out[index] = function()
            return out
        return run_call_niladic

    def call_kernel(*values: Any) -> Any:
        if any(value is ABSENT for value in values):
            return ABSENT
        return function(*values)
    kernel = np.frompyfunc(call_kernel, arity, 1)

    def run_call(environment, mask):
        rows = [argument(environment, mask) for argument in arguments]
        return _apply_masked(kernel, mask, *rows)
    return run_call

"""Evaluator for the AutoMoDe base language.

Expressions are evaluated against an *environment* mapping channel/port
names to the values present at the current tick (possibly
:data:`~repro.core.values.ABSENT`).  Evaluation follows the synchronous
convention: an arithmetic or comparison operation whose operand is absent
yields an absent result, whereas ``present(ch)`` turns absence into an
ordinary boolean so that event-triggered behaviour can be expressed.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional

from .errors import ExpressionEvalError
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .expr_parser import parse_expression
from .values import ABSENT, is_absent, is_present


def _limit(value, low, high):
    """Clamp *value* into [low, high] (the LIMIT block primitive)."""
    return max(low, min(high, value))


def _interpolate(x, x0, y0, x1, y1):
    """Linear interpolation primitive used by lookup-table style blocks."""
    if x1 == x0:
        return y0
    alpha = (x - x0) / (x1 - x0)
    return y0 + alpha * (y1 - y0)


def _sign(x):
    """Sign primitive: -1, 0 or 1 (named so evaluators stay picklable)."""
    return (x > 0) - (x < 0)


#: Built-in functions callable from base-language expressions.
BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "min": min,
    "max": max,
    "limit": _limit,
    "interpolate": _interpolate,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "sign": _sign,
}


_ARITHMETIC_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ExpressionEvaluator:
    """Evaluates base-language ASTs against per-tick environments."""

    def __init__(self, functions: Optional[Mapping[str, Callable[..., Any]]] = None):
        self.functions: Dict[str, Callable[..., Any]] = dict(BUILTIN_FUNCTIONS)
        if functions:
            self.functions.update(functions)

    # Only non-builtin functions travel when an evaluator is pickled (the
    # sharded scenario runner ships whole models to worker processes);
    # builtins are reattached on load, so models using only the base
    # vocabulary never depend on their picklability.
    def __getstate__(self) -> Dict[str, Any]:
        custom = {name: function for name, function in self.functions.items()
                  if BUILTIN_FUNCTIONS.get(name) is not function}
        return {"custom_functions": custom}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.functions = dict(BUILTIN_FUNCTIONS)
        self.functions.update(state.get("custom_functions", {}))

    def compile(self, expression: Expression) -> Callable[[Mapping[str, Any]], Any]:
        """Compile *expression* using this evaluator's functions.

        The returned function ``environment -> value`` runs generated
        Python source that reproduces :meth:`evaluate` exactly (see
        :mod:`repro.core.expr_compile`); it captures resolved function
        objects, so it is a per-process artefact -- recompile after
        pickling rather than shipping compiled functions.
        """
        from .expr_compile import compile_expression
        return compile_expression(expression, self.functions)

    def evaluate(self, expression: Expression, environment: Mapping[str, Any]) -> Any:
        """Evaluate *expression*; absent operands make the result absent."""
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, Variable):
            if expression.name not in environment:
                raise ExpressionEvalError(
                    f"unknown name {expression.name!r} in expression "
                    f"{expression.to_source()}")
            return environment[expression.name]
        if isinstance(expression, Present):
            return is_present(environment.get(expression.channel, ABSENT))
        if isinstance(expression, UnaryOp):
            return self._evaluate_unary(expression, environment)
        if isinstance(expression, BinaryOp):
            return self._evaluate_binary(expression, environment)
        if isinstance(expression, Conditional):
            condition = self.evaluate(expression.condition, environment)
            if is_absent(condition):
                return ABSENT
            branch = expression.then_branch if condition else expression.else_branch
            return self.evaluate(branch, environment)
        if isinstance(expression, Call):
            return self._evaluate_call(expression, environment)
        raise ExpressionEvalError(f"unsupported expression node {expression!r}")

    # -- helpers -------------------------------------------------------------
    def _evaluate_unary(self, expression: UnaryOp, environment: Mapping[str, Any]) -> Any:
        operand = self.evaluate(expression.operand, environment)
        if is_absent(operand):
            return ABSENT
        if expression.op == "-":
            return -operand
        if expression.op == "not":
            return not operand
        raise ExpressionEvalError(f"unknown unary operator {expression.op!r}")

    def _evaluate_binary(self, expression: BinaryOp, environment: Mapping[str, Any]) -> Any:
        if expression.op == "and":
            left = self.evaluate(expression.left, environment)
            if is_absent(left):
                return ABSENT
            if not left:
                return False
            right = self.evaluate(expression.right, environment)
            return ABSENT if is_absent(right) else bool(right)
        if expression.op == "or":
            left = self.evaluate(expression.left, environment)
            if is_absent(left):
                return ABSENT
            if left:
                return True
            right = self.evaluate(expression.right, environment)
            return ABSENT if is_absent(right) else bool(right)

        left = self.evaluate(expression.left, environment)
        right = self.evaluate(expression.right, environment)
        if is_absent(left) or is_absent(right):
            return ABSENT
        if expression.op == "/":
            if right == 0:
                raise ExpressionEvalError(
                    f"division by zero in {expression.to_source()}")
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return left / right
        try:
            op = _ARITHMETIC_OPS[expression.op]
        except KeyError as exc:
            raise ExpressionEvalError(
                f"unknown binary operator {expression.op!r}") from exc
        try:
            return op(left, right)
        except TypeError as exc:
            raise ExpressionEvalError(
                f"cannot apply {expression.op!r} to {left!r} and {right!r}") from exc

    def _evaluate_call(self, expression: Call, environment: Mapping[str, Any]) -> Any:
        try:
            function = self.functions[expression.function]
        except KeyError as exc:
            raise ExpressionEvalError(
                f"unknown function {expression.function!r}") from exc
        arguments = [self.evaluate(arg, environment) for arg in expression.arguments]
        if any(is_absent(arg) for arg in arguments):
            return ABSENT
        try:
            return function(*arguments)
        except Exception as exc:  # noqa: BLE001 - surface as evaluation error
            raise ExpressionEvalError(
                f"error calling {expression.function}: {exc}") from exc


_DEFAULT_EVALUATOR = ExpressionEvaluator()


def evaluate(expression, environment: Mapping[str, Any]) -> Any:
    """Convenience wrapper: evaluate an AST or source string."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    return _DEFAULT_EVALUATOR.evaluate(expression, environment)

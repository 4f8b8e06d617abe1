"""Abstract interpretation of base-language expressions.

Expressions are analysed over an **interval x type x ABSENT** lattice: an
:class:`AbstractValue` tracks which abstract kinds a value may have
(boolean / numeric / enumeration / struct), numeric bounds when the port
types provide them, whether the value may be :data:`~repro.core.values.ABSENT`
at run time, and a constant when the expression is closed.  The transfer
functions mirror :class:`~repro.core.expr_eval.ExpressionEvaluator`
exactly -- including ABSENT propagation and short-circuit ``and``/``or``
-- so every claim ("this divisor may be zero", "this guard is constant")
is a statement about the real runtime semantics.

Rules discharged here:

* ``expr-unknown-name`` -- a variable not bound in the context environment
  (the static counterpart of the evaluator's ``unknown name`` error, which
  is exactly the failure class the IR verifier promises compiled schedules
  never hit);
* ``expr-unknown-function`` -- a call the evaluator's function table does
  not define;
* ``expr-div-by-zero`` -- a divisor that is provably zero (error) or whose
  bounded interval contains zero (warning); unbounded divisors are not
  flagged (too weak a claim to act on);
* ``expr-type-mismatch`` -- operators whose operand kinds cannot combine
  (arithmetic on enumerations, ordering enums against numbers);
* ``expr-output-type`` / ``expr-undeclared-output`` -- expression
  components whose inferred output kind contradicts the declared port
  type, or which define expressions for undeclared ports;
* ``expr-constant-guard`` -- reported by the machine layer from the
  constness this module computes (interval reasoning proves guards like
  ``speed < -5`` constant-false for ``speed: float[0..300]``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.components import Component, ExpressionComponent
from ...core.expr_eval import BUILTIN_FUNCTIONS
from ...core.expressions import (BinaryOp, Call, Conditional, Expression,
                                 Literal, Present, UnaryOp, Variable)
from ...core.types import (AnyType, BoolType, EnumType, FloatType, IntType,
                           StructType, Type)
from ...core.validation import Finding, Severity
from .registry import rule_finding

#: Sentinel: "no constant known" (any value incl. None may be a constant).
_NO_CONST = object()

_ALL_KINDS = frozenset({"bool", "num", "enum", "struct"})
_NUMERIC = frozenset({"bool", "num"})


@dataclass(frozen=True)
class AbstractValue:
    """One point of the interval x type x ABSENT lattice.

    ``kinds`` is the set of abstract kinds the (present) value may have;
    ``low``/``high`` bound numeric values when known; ``may_absent`` is
    True when the value can be ABSENT at run time; ``const`` is the value
    the expression always evaluates to *when present* (``_NO_CONST`` when
    unknown).
    """

    kinds: frozenset = _ALL_KINDS
    low: Optional[float] = None
    high: Optional[float] = None
    may_absent: bool = False
    const: Any = _NO_CONST

    @property
    def is_top(self) -> bool:
        return self.kinds == _ALL_KINDS

    def join(self, other: "AbstractValue") -> "AbstractValue":
        low = None if self.low is None or other.low is None \
            else min(self.low, other.low)
        high = None if self.high is None or other.high is None \
            else max(self.high, other.high)
        const = self.const if (self.const is not _NO_CONST
                               and other.const is not _NO_CONST
                               and self.const == other.const) else _NO_CONST
        return AbstractValue(self.kinds | other.kinds, low, high,
                             self.may_absent or other.may_absent, const)


TOP = AbstractValue(may_absent=True)
BOOL_VALUE = AbstractValue(kinds=frozenset({"bool"}), low=0, high=1)
NUM_VALUE = AbstractValue(kinds=frozenset({"num"}))


def abstract_of_type(port_type: Type,
                     may_absent: bool = True) -> AbstractValue:
    """The abstract value of a port of the given declared type."""
    if isinstance(port_type, BoolType):
        return replace(BOOL_VALUE, may_absent=may_absent)
    if isinstance(port_type, (IntType, FloatType)):
        return AbstractValue(kinds=frozenset({"num"}), low=port_type.low,
                             high=port_type.high, may_absent=may_absent)
    if isinstance(port_type, EnumType):
        return AbstractValue(kinds=frozenset({"enum"}),
                             may_absent=may_absent)
    if isinstance(port_type, StructType):
        return AbstractValue(kinds=frozenset({"struct"}),
                             may_absent=may_absent)
    return replace(TOP, may_absent=may_absent)


def abstract_of_value(value: Any,
                      may_absent: bool = False) -> AbstractValue:
    """The abstract value of a concrete constant (e.g. an STD variable)."""
    if isinstance(value, bool):
        return AbstractValue(kinds=frozenset({"bool"}), low=int(value),
                             high=int(value), may_absent=may_absent,
                             const=value)
    if isinstance(value, (int, float)):
        return AbstractValue(kinds=frozenset({"num"}), low=value,
                             high=value, may_absent=may_absent, const=value)
    if isinstance(value, str):
        return AbstractValue(kinds=frozenset({"enum"}),
                             may_absent=may_absent, const=value)
    if isinstance(value, dict):
        return AbstractValue(kinds=frozenset({"struct"}),
                             may_absent=may_absent)
    return replace(TOP, may_absent=may_absent)


def environment_of_ports(component: Component) -> Dict[str, AbstractValue]:
    """Input environment of a component: declared types, possibly absent."""
    return {port.name: abstract_of_type(port.port_type, may_absent=True)
            for port in component.input_ports()}


class _Analyzer:
    """One abstract-interpretation pass over a single expression."""

    def __init__(self, env: Mapping[str, AbstractValue],
                 functions: Optional[Mapping[str, Any]], element: str):
        self.env = env
        self.functions = functions if functions is not None \
            else BUILTIN_FUNCTIONS
        self.element = element
        self.findings: List[Finding] = []

    # -- helpers -----------------------------------------------------------

    def _warn(self, rule_id: str, message: str, **location: Any) -> None:
        self.findings.append(rule_finding(rule_id, message, self.element,
                                          **location))

    def _error(self, rule_id: str, message: str, **location: Any) -> None:
        self.findings.append(rule_finding(rule_id, message, self.element,
                                          severity=Severity.ERROR,
                                          **location))

    # -- the transfer functions --------------------------------------------

    def visit(self, expression: Expression) -> AbstractValue:
        if isinstance(expression, Literal):
            return abstract_of_value(expression.value)
        if isinstance(expression, Variable):
            value = self.env.get(expression.name)
            if value is None:
                self._error(
                    "expr-unknown-name",
                    f"expression {expression.to_source()} reads "
                    f"{expression.name!r} which is not bound in this "
                    f"context (known: {sorted(self.env)})",
                    name=expression.name)
                return TOP
            return value
        if isinstance(expression, Present):
            # present() turns absence into an ordinary boolean
            return BOOL_VALUE
        if isinstance(expression, UnaryOp):
            return self._visit_unary(expression)
        if isinstance(expression, BinaryOp):
            return self._visit_binary(expression)
        if isinstance(expression, Conditional):
            condition = self.visit(expression.condition)
            then_value = self.visit(expression.then_branch)
            else_value = self.visit(expression.else_branch)
            if condition.const is True:
                result = then_value
            elif condition.const is False:
                result = else_value
            else:
                result = then_value.join(else_value)
            if condition.may_absent:
                result = replace(result, may_absent=True,
                                 const=result.const)
            return result
        if isinstance(expression, Call):
            return self._visit_call(expression)
        return TOP

    def _visit_unary(self, expression: UnaryOp) -> AbstractValue:
        operand = self.visit(expression.operand)
        if expression.op == "-":
            if not operand.is_top and not (operand.kinds & _NUMERIC):
                self._warn(
                    "expr-type-mismatch",
                    f"unary '-' applied to a non-numeric operand in "
                    f"{expression.to_source()}")
            low = None if operand.high is None else -operand.high
            high = None if operand.low is None else -operand.low
            const = _NO_CONST
            if operand.const is not _NO_CONST \
                    and isinstance(operand.const, (int, float)):
                const = -operand.const
            return AbstractValue(frozenset({"num"}), low, high,
                                 operand.may_absent, const)
        if expression.op == "not":
            const = _NO_CONST
            if operand.const is not _NO_CONST:
                const = not operand.const
            return AbstractValue(frozenset({"bool"}), 0, 1,
                                 operand.may_absent, const)
        return replace(TOP, may_absent=operand.may_absent)

    def _visit_binary(self, expression: BinaryOp) -> AbstractValue:
        op = expression.op
        if op in ("and", "or"):
            left = self.visit(expression.left)
            right = self.visit(expression.right)
            const = _NO_CONST
            if left.const is not _NO_CONST:
                if op == "and" and not left.const:
                    const = False
                elif op == "or" and left.const:
                    const = True
                elif right.const is not _NO_CONST:
                    const = bool(right.const) if op == "and" \
                        else bool(right.const)
            may_absent = left.may_absent or right.may_absent
            return AbstractValue(frozenset({"bool"}), 0, 1, may_absent,
                                 const)

        left = self.visit(expression.left)
        right = self.visit(expression.right)
        may_absent = left.may_absent or right.may_absent

        if op == "/":
            return self._visit_division(expression, left, right, may_absent)
        if op in ("+", "-", "*", "%"):
            for side, name in ((left, "left"), (right, "right")):
                if not side.is_top and not (side.kinds & _NUMERIC):
                    self._warn(
                        "expr-type-mismatch",
                        f"arithmetic {op!r} applied to a non-numeric "
                        f"{name} operand in {expression.to_source()}")
            low, high = _arith_bounds(op, left, right)
            const = _const_binary(op, left, right)
            return AbstractValue(frozenset({"num"}), low, high, may_absent,
                                 const)
        if op in ("<", "<=", ">", ">="):
            if not _orderable(left, right):
                self._warn(
                    "expr-type-mismatch",
                    f"ordering {op!r} between incomparable operand types "
                    f"in {expression.to_source()} (raises at evaluation "
                    f"time when both operands are present)")
            const = _const_binary(op, left, right)
            if const is _NO_CONST:
                const = _interval_comparison(op, left, right)
            return AbstractValue(frozenset({"bool"}), 0, 1, may_absent,
                                 const)
        if op in ("==", "!="):
            const = _const_binary(op, left, right)
            if const is _NO_CONST and not (left.kinds & right.kinds):
                # disjoint kinds: equality is decided without an error
                const = (op == "!=")
            return AbstractValue(frozenset({"bool"}), 0, 1, may_absent,
                                 const)
        return replace(TOP, may_absent=may_absent)

    def _visit_division(self, expression: BinaryOp, left: AbstractValue,
                        right: AbstractValue,
                        may_absent: bool) -> AbstractValue:
        if right.const is not _NO_CONST \
                and isinstance(right.const, (int, float)) \
                and right.const == 0:
            self._error(
                "expr-div-by-zero",
                f"division by zero: the divisor of "
                f"{expression.to_source()} is constant 0",
                divisor=repr(right.const))
        elif right.const is _NO_CONST and right.low is not None \
                and right.high is not None and right.low <= 0 <= right.high:
            self._warn(
                "expr-div-by-zero",
                f"possible division by zero in {expression.to_source()}: "
                f"the divisor ranges over [{right.low}..{right.high}] "
                f"which contains 0",
                low=right.low, high=right.high)
        for side, name in ((left, "left"), (right, "right")):
            if not side.is_top and not (side.kinds & _NUMERIC):
                self._warn(
                    "expr-type-mismatch",
                    f"division applied to a non-numeric {name} operand "
                    f"in {expression.to_source()}")
        const = _NO_CONST
        if left.const is not _NO_CONST and right.const is not _NO_CONST \
                and isinstance(right.const, (int, float)) \
                and right.const != 0:
            try:
                const = _const_eval("/", left.const, right.const)
            except Exception:  # noqa: BLE001 - stay abstract on failure
                const = _NO_CONST
        return AbstractValue(frozenset({"num"}), None, None, may_absent,
                             const)

    def _visit_call(self, expression: Call) -> AbstractValue:
        arguments = [self.visit(arg) for arg in expression.arguments]
        may_absent = any(arg.may_absent for arg in arguments)
        function = self.functions.get(expression.function)
        if function is None:
            self._error(
                "expr-unknown-function",
                f"call of unknown function {expression.function!r} in "
                f"{expression.to_source()} (known: "
                f"{sorted(self.functions)})",
                function=expression.function)
            return replace(TOP, may_absent=may_absent)
        if all(arg.const is not _NO_CONST for arg in arguments):
            try:
                value = function(*[arg.const for arg in arguments])
            except Exception:  # noqa: BLE001 - stay abstract on failure
                pass
            else:
                return replace(abstract_of_value(value),
                               may_absent=may_absent)
        kinds = frozenset({"num"}) if expression.function != "present" \
            else frozenset({"bool"})
        low = high = None
        if expression.function == "abs":
            low = 0
        elif expression.function in ("min", "max") and arguments:
            lows = [arg.low for arg in arguments]
            highs = [arg.high for arg in arguments]
            if all(bound is not None for bound in lows):
                low = min(lows) if expression.function == "min" \
                    else max(lows)
            if all(bound is not None for bound in highs):
                high = min(highs) if expression.function == "min" \
                    else max(highs)
        return AbstractValue(kinds, low, high, may_absent, _NO_CONST)


def _orderable(left: AbstractValue, right: AbstractValue) -> bool:
    if (left.kinds & _NUMERIC) and (right.kinds & _NUMERIC):
        return True
    return bool("enum" in left.kinds and "enum" in right.kinds)


def _arith_bounds(op: str, left: AbstractValue,
                  right: AbstractValue) -> Tuple[Optional[float],
                                                 Optional[float]]:
    ll, lh, rl, rh = left.low, left.high, right.low, right.high
    if op == "+":
        low = None if ll is None or rl is None else ll + rl
        high = None if lh is None or rh is None else lh + rh
        return low, high
    if op == "-":
        low = None if ll is None or rh is None else ll - rh
        high = None if lh is None or rl is None else lh - rl
        return low, high
    if op == "*":
        if None in (ll, lh, rl, rh):
            return None, None
        products = [ll * rl, ll * rh, lh * rl, lh * rh]
        return min(products), max(products)
    return None, None  # '%': bounds omitted (sign semantics are subtle)


def _const_eval(op: str, left: Any, right: Any) -> Any:
    from ...core.expr_eval import _ARITHMETIC_OPS
    if op == "/":
        if isinstance(left, int) and isinstance(right, int) \
                and left % right == 0:
            return left // right
        return left / right
    return _ARITHMETIC_OPS[op](left, right)


def _const_binary(op: str, left: AbstractValue,
                  right: AbstractValue) -> Any:
    if left.const is _NO_CONST or right.const is _NO_CONST:
        return _NO_CONST
    try:
        return _const_eval(op, left.const, right.const)
    except Exception:  # noqa: BLE001 - stay abstract on failure
        return _NO_CONST


def _interval_comparison(op: str, left: AbstractValue,
                         right: AbstractValue) -> Any:
    """Decide a comparison from the operand intervals, when possible."""
    ll, lh, rl, rh = left.low, left.high, right.low, right.high
    if op == "<":
        if lh is not None and rl is not None and lh < rl:
            return True
        if ll is not None and rh is not None and ll >= rh:
            return False
    elif op == "<=":
        if lh is not None and rl is not None and lh <= rl:
            return True
        if ll is not None and rh is not None and ll > rh:
            return False
    elif op == ">":
        if ll is not None and rh is not None and ll > rh:
            return True
        if lh is not None and rl is not None and lh <= rl:
            return False
    elif op == ">=":
        if ll is not None and rh is not None and ll >= rh:
            return True
        if lh is not None and rl is not None and lh < rl:
            return False
    return _NO_CONST


def check_expression(expression: Expression,
                     env: Mapping[str, AbstractValue],
                     element: str,
                     functions: Optional[Mapping[str, Any]] = None
                     ) -> Tuple[AbstractValue, List[Finding]]:
    """Analyse one expression; returns its abstract value and findings."""
    analyzer = _Analyzer(env, functions, element)
    value = analyzer.visit(expression)
    return value, analyzer.findings


def lint_expression_component(component: ExpressionComponent,
                              path: Optional[str] = None) -> List[Finding]:
    """All expression-layer findings of one expression component."""
    path = path or component.name
    env = environment_of_ports(component)
    functions = component._evaluator.functions  # noqa: SLF001
    findings: List[Finding] = []
    declared = set(component.output_names())
    for name, expression in component.output_expressions.items():
        element = f"{path}.{name}"
        value, expr_findings = check_expression(expression, env, element,
                                                functions)
        findings.extend(expr_findings)
        if name not in declared:
            findings.append(rule_finding(
                "expr-undeclared-output",
                f"expression for {name!r} has no matching declared output "
                f"port on {component.name!r} (it is evaluated every tick "
                f"but its value is dropped)",
                element, suggestion=f"declare an output port {name!r} or "
                                    f"remove the expression"))
            continue
        port_type = component.port(name).port_type
        if not _kind_compatible(value, port_type):
            findings.append(rule_finding(
                "expr-output-type",
                f"expression for output {name!r} has inferred kind(s) "
                f"{sorted(value.kinds)} incompatible with the declared "
                f"port type {port_type!r}",
                element, kinds=sorted(value.kinds),
                declared=repr(port_type)))
    return findings


def _kind_compatible(value: AbstractValue, port_type: Type) -> bool:
    if value.is_top or isinstance(port_type, (AnyType, StructType)):
        return True
    if isinstance(port_type, BoolType):
        return "bool" in value.kinds
    if isinstance(port_type, (IntType, FloatType)):
        return bool(value.kinds & _NUMERIC)
    if isinstance(port_type, EnumType):
        return "enum" in value.kinds
    return True

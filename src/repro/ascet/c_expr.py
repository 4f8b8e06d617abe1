"""Expression-to-C translation shared by the OA generator and native backend.

Two consumers, two fidelity levels:

* :func:`expression_to_c` -- the ASCET-SD project generator's translation
  (:mod:`repro.ascet.codegen`): one base-language expression becomes one C
  expression over implementation-typed signals.  This is deliberately the
  *deployed-semantics* view of the paper's Sec. 3.4 pipeline: float32
  arithmetic, no ABSENT, enum literals as symbolic constants.

* :class:`TaggedEmitter` -- the native simulation backend's translation
  (:mod:`repro.simulation.native`): one expression becomes a C *statement
  sequence* over tagged values (ABSENT / int64 / double / bool / opaque
  object), replicating the Python evaluator semantics (the generated
  source of :mod:`repro.core.expr_compile`) **exactly** -- ABSENT propagation,
  short-circuit ``and``/``or`` returning genuine bools, int-exact
  division, Python's sign-of-divisor modulo -- or bailing out to a
  caller-supplied label whenever exact replication in int64/double is not
  possible (overflow, mixed int/float comparisons beyond 2^53, opaque
  operands, error paths that must raise the interpreter's exceptions).
  The bail-out contract is what makes the native backend safe: the C fast
  path either produces the Python-identical result or jumps to a label
  where the caller re-runs the op through its generated Python source.

:func:`lowerable_expression` is the static half of that contract: it
accepts exactly the expression shapes :class:`TaggedEmitter` can emit.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import CodeGenError
from ..core.expr_eval import BUILTIN_FUNCTIONS
from ..core.expressions import (BinaryOp, Call, Conditional, Expression,
                                Literal, Present, UnaryOp, Variable)
from ..core.impl_types import (BOOL8, FixedPointType, ImplementationType,
                               ImplEnumType, MachineIntType)
from ..core.types import BoolType, EnumType, FloatType, IntType, Type

# --------------------------------------------------------------------------
# deployed-semantics translation (ASCET-SD generator)
# --------------------------------------------------------------------------

_C_OPERATORS = {"and": "&&", "or": "||", "==": "==", "!=": "!=", "<": "<",
                "<=": "<=", ">": ">", ">=": ">=", "+": "+", "-": "-",
                "*": "*", "/": "/", "%": "%"}

_C_FUNCTIONS = {"abs": "automode_abs", "min": "automode_min",
                "max": "automode_max", "limit": "automode_limit",
                "sqrt": "sqrtf", "floor": "floorf", "ceil": "ceilf",
                "round": "roundf", "sign": "automode_sign",
                "interpolate": "automode_interp"}


def expression_to_c(expression: Expression) -> str:
    """Translate a base-language expression to C source."""
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return f"E_{value.upper()}"
        if isinstance(value, float):
            return f"{value!r}f"
        return repr(value)
    if isinstance(expression, Variable):
        return expression.name
    if isinstance(expression, Present):
        return f"msg_present({expression.channel})"
    if isinstance(expression, UnaryOp):
        operand = expression_to_c(expression.operand)
        if expression.op == "not":
            return f"(!{operand})"
        return f"({expression.op}{operand})"
    if isinstance(expression, BinaryOp):
        try:
            operator = _C_OPERATORS[expression.op]
        except KeyError as exc:
            raise CodeGenError(f"no C operator for {expression.op!r}") from exc
        return (f"({expression_to_c(expression.left)} {operator} "
                f"{expression_to_c(expression.right)})")
    if isinstance(expression, Conditional):
        return (f"({expression_to_c(expression.condition)} ? "
                f"{expression_to_c(expression.then_branch)} : "
                f"{expression_to_c(expression.else_branch)})")
    if isinstance(expression, Call):
        function = _C_FUNCTIONS.get(expression.function, expression.function)
        arguments = ", ".join(expression_to_c(arg) for arg in expression.arguments)
        return f"{function}({arguments})"
    raise CodeGenError(f"cannot translate expression node {expression!r}")


def c_type_of(impl_type: Optional[ImplementationType], abstract: Type) -> str:
    """Pick the C type name for a signal."""
    if isinstance(impl_type, MachineIntType):
        prefix = "sint" if impl_type.signed else "uint"
        return f"{prefix}{impl_type.bits}"
    if isinstance(impl_type, FixedPointType):
        return f"sint{impl_type.bits}"
    if isinstance(impl_type, ImplEnumType):
        return f"uint{impl_type.bits}"
    if impl_type is BOOL8 or isinstance(abstract, BoolType):
        return "boolean"
    if isinstance(abstract, IntType):
        return "sint32"
    if isinstance(abstract, (FloatType,)):
        return "float32"
    if isinstance(abstract, EnumType):
        return "uint8"
    return "float32"


# --------------------------------------------------------------------------
# exact-semantics tagged translation (native simulation backend)
# --------------------------------------------------------------------------

#: Value tags of the native backend's slot plane.  ABSENT is 0 so one
#: ``memset`` re-establishes the all-absent tick invariant the IR verifier's
#: ``ir-may-skip-read`` codegen obligation requires.
TAG_ABSENT, TAG_INT, TAG_FLOAT, TAG_BOOL, TAG_OBJ = 0, 1, 2, 3, 4

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
#: Largest magnitude at which int64 -> double conversion is exact; mixed
#: int/float comparisons beyond it must bail out (Python compares exactly,
#: a converted double would not).
_EXACT_DOUBLE = 2 ** 53

#: C spelling of INT64_MIN (the plain literal overflows in C).
_C_INT64_MIN = "(-9223372036854775807LL - 1LL)"

#: Built-in calls the tagged emitter can lower, with their arities.
LOWERABLE_CALLS: Dict[str, int] = {"abs": 1, "min": 2, "max": 2}

_LOWERABLE_BINARY = frozenset(_C_OPERATORS)
_ORDERINGS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=",
              "==": "==", "!=": "!="}


def lowerable_expression(expression: Expression,
                         input_names: Any,
                         functions: Optional[Mapping[str, Callable[..., Any]]]
                         = None) -> bool:
    """True when :class:`TaggedEmitter` can translate *expression* exactly.

    *input_names* is the set of environment names the surrounding op
    provides (a ``Variable`` outside it would raise ``unknown name`` at run
    time -- only the Python path knows the exact message, so such
    expressions stay on the fallback path).  *functions* is the owning
    evaluator's function table: a lowerable call must resolve to the
    *built-in* ``abs``/``min``/``max`` -- a same-named custom override
    forces the fallback path.
    """
    table: Mapping[str, Callable[..., Any]] = BUILTIN_FUNCTIONS
    if functions:
        merged = dict(BUILTIN_FUNCTIONS)
        merged.update(functions)
        table = merged
    names = set(input_names)

    def check(node: Expression) -> bool:
        if isinstance(node, Literal):
            value = node.value
            if type(value) is bool or type(value) is float:
                return True
            if type(value) is int:
                return _INT64_MIN <= value <= _INT64_MAX
            return False
        if isinstance(node, Variable):
            return node.name in names
        if isinstance(node, Present):
            return True
        if isinstance(node, UnaryOp):
            return node.op in ("-", "not") and check(node.operand)
        if isinstance(node, BinaryOp):
            return (node.op in _LOWERABLE_BINARY and check(node.left)
                    and check(node.right))
        if isinstance(node, Conditional):
            return (check(node.condition) and check(node.then_branch)
                    and check(node.else_branch))
        if isinstance(node, Call):
            arity = LOWERABLE_CALLS.get(node.function)
            if arity is None or len(node.arguments) != arity:
                return False
            if table.get(node.function) is not BUILTIN_FUNCTIONS.get(
                    node.function):
                return False
            return all(check(arg) for arg in node.arguments)
        return False

    return check(expression)


def c_double_literal(value: float) -> str:
    """A C literal reproducing *value* bit-exactly (hex float form)."""
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return value.hex()


class TaggedEmitter:
    """Emit C statements computing expressions over tagged values.

    One emitter serves one op block: *inputs* maps environment names to C
    temp prefixes (``<p>_t`` / ``<p>_i`` / ``<p>_f`` hold tag, int64
    payload and double payload), *bail_label* is the ``goto`` target for
    every run-time situation the C fast path cannot replicate exactly
    (the caller re-runs the whole op through its Python source there,
    so partial results must never have been committed -- the emitter only
    writes temps, never slots).

    :meth:`emit` returns the temp prefix holding the expression's tagged
    result; declarations accumulate in :attr:`decls` and must be placed
    ahead of :attr:`lines` in the enclosing block.
    """

    def __init__(self, inputs: Mapping[str, str], bail_label: str):
        self.inputs = dict(inputs)
        self.bail = bail_label
        self.decls: List[str] = []
        self.lines: List[str] = []
        self._count = 0

    # -- small helpers -----------------------------------------------------

    def _temp(self) -> str:
        prefix = f"t{self._count}"
        self._count += 1
        self.decls.append(f"unsigned char {prefix}_t = 0; "
                          f"long long {prefix}_i = 0; "
                          f"double {prefix}_f = 0.0;")
        return prefix

    @staticmethod
    def _truthy(p: str) -> str:
        # valid for INT/FLOAT/BOOL tags only; callers bail on OBJ first
        return f"({p}_t == 2 ? ({p}_f != 0.0) : ({p}_i != 0))"

    @staticmethod
    def _num(p: str) -> str:
        return f"({p}_t == 2 ? {p}_f : (double){p}_i)"

    @staticmethod
    def _assign(dst: str, src: str) -> str:
        return (f"{dst}_t = {src}_t; {dst}_i = {src}_i; "
                f"{dst}_f = {src}_f;")

    def _sub_block(self, node: Expression) -> Tuple[str, List[str]]:
        """Emit *node* into a detached statement list (lazy evaluation)."""
        saved = self.lines
        self.lines = []
        prefix = self.emit(node)
        block = self.lines
        self.lines = saved
        return prefix, block

    # -- emission ----------------------------------------------------------

    def emit(self, node: Expression) -> str:
        out = self.lines
        bail = self.bail

        if isinstance(node, Literal):
            value = node.value
            r = self._temp()
            if type(value) is bool:
                out.append(f"{r}_t = 3; {r}_i = {1 if value else 0};")
            elif type(value) is int:
                literal = (_C_INT64_MIN if value == _INT64_MIN
                           else f"{value}LL")
                out.append(f"{r}_t = 1; {r}_i = {literal};")
            elif type(value) is float:
                out.append(f"{r}_t = 2; {r}_f = {c_double_literal(value)};")
            else:
                raise CodeGenError(
                    f"cannot lower literal {value!r} to tagged C")
            return r

        if isinstance(node, Variable):
            try:
                return self.inputs[node.name]
            except KeyError:
                raise CodeGenError(
                    f"variable {node.name!r} not in the op environment "
                    "(lowerable_expression should have rejected this)"
                    ) from None

        if isinstance(node, Present):
            r = self._temp()
            source = self.inputs.get(node.channel)
            if source is None:
                # absent channel name: environment.get(...) is ABSENT
                out.append(f"{r}_t = 3; {r}_i = 0;")
            else:
                out.append(f"{r}_t = 3; {r}_i = ({source}_t != 0);")
            return r

        if isinstance(node, UnaryOp):
            x = self.emit(node.operand)
            r = self._temp()
            if node.op == "-":
                out.extend([
                    f"if ({x}_t == 0) {{ {r}_t = 0; }}",
                    f"else if ({x}_t == 4) goto {bail};",
                    f"else if ({x}_t == 2) {{ {r}_t = 2; {r}_f = -{x}_f; }}",
                    f"else {{",
                    f"    if ({x}_i == {_C_INT64_MIN}) goto {bail};",
                    f"    {r}_t = 1; {r}_i = -{x}_i;",
                    f"}}",
                ])
                return r
            if node.op == "not":
                out.extend([
                    f"if ({x}_t == 0) {{ {r}_t = 0; }}",
                    f"else if ({x}_t == 4) goto {bail};",
                    f"else {{ {r}_t = 3; {r}_i = !{self._truthy(x)}; }}",
                ])
                return r
            raise CodeGenError(f"cannot lower unary operator {node.op!r}")

        if isinstance(node, BinaryOp):
            return self._emit_binary(node)

        if isinstance(node, Conditional):
            c = self.emit(node.condition)
            r = self._temp()
            tp, tblock = self._sub_block(node.then_branch)
            ep, eblock = self._sub_block(node.else_branch)
            out.append(f"if ({c}_t == 0) {{ {r}_t = 0; }}")
            out.append(f"else if ({c}_t == 4) goto {bail};")
            out.append(f"else if ({self._truthy(c)}) {{")
            out.extend(f"    {line}" for line in tblock)
            out.append(f"    {self._assign(r, tp)}")
            out.append("} else {")
            out.extend(f"    {line}" for line in eblock)
            out.append(f"    {self._assign(r, ep)}")
            out.append("}")
            return r

        if isinstance(node, Call):
            return self._emit_call(node)

        raise CodeGenError(f"cannot lower expression node {node!r}")

    # -- binary operators --------------------------------------------------

    def _emit_binary(self, node: BinaryOp) -> str:
        out = self.lines
        bail = self.bail
        op = node.op

        if op in ("and", "or"):
            x = self.emit(node.left)
            r = self._temp()
            yp, yblock = self._sub_block(node.right)
            is_and = op == "and"
            short = "0" if is_and else "1"
            test = (f"!{self._truthy(x)}" if is_and else self._truthy(x))
            out.append(f"if ({x}_t == 0) {{ {r}_t = 0; }}")
            out.append(f"else if ({x}_t == 4) goto {bail};")
            out.append(f"else if ({test}) {{ {r}_t = 3; {r}_i = {short}; }}")
            out.append("else {")
            out.extend(f"    {line}" for line in yblock)
            out.append(f"    if ({yp}_t == 0) {{ {r}_t = 0; }}")
            out.append(f"    else if ({yp}_t == 4) goto {bail};")
            out.append(f"    else {{ {r}_t = 3; "
                       f"{r}_i = {self._truthy(yp)}; }}")
            out.append("}")
            return r

        x = self.emit(node.left)
        y = self.emit(node.right)
        r = self._temp()
        header = [
            f"if ({x}_t == 0 || {y}_t == 0) {{ {r}_t = 0; }}",
            f"else if ({x}_t == 4 || {y}_t == 4) goto {bail};",
        ]

        if op in ("+", "-", "*"):
            builtin = {"+": "add", "-": "sub", "*": "mul"}[op]
            out.extend(header)
            out.extend([
                f"else if ({x}_t != 2 && {y}_t != 2) {{",
                f"    long long {r}_o;",
                f"    if (__builtin_{builtin}_overflow({x}_i, {y}_i, "
                f"&{r}_o)) goto {bail};",
                f"    {r}_t = 1; {r}_i = {r}_o;",
                f"}} else {{",
                f"    {r}_t = 2; {r}_f = {self._num(x)} {op} {self._num(y)};",
                f"}}",
            ])
            return r

        if op == "%":
            # Python modulo: sign follows the divisor.  Float operands and
            # a zero divisor (ZeroDivisionError) take the fallback path.
            out.extend(header)
            out.extend([
                f"else if ({x}_t == 2 || {y}_t == 2) goto {bail};",
                f"else {{",
                f"    if ({y}_i == 0) goto {bail};",
                f"    if ({x}_i == {_C_INT64_MIN} && {y}_i == -1LL) "
                f"{{ {r}_t = 1; {r}_i = 0; }}",
                f"    else {{",
                f"        long long {r}_m = {x}_i % {y}_i;",
                f"        if ({r}_m != 0 && (({r}_m < 0) != ({y}_i < 0))) "
                f"{r}_m += {y}_i;",
                f"        {r}_t = 1; {r}_i = {r}_m;",
                f"    }}",
                f"}}",
            ])
            return r

        if op == "/":
            # int-exact division; inexact int/int decays to double only
            # when both operands convert exactly (|v| <= 2^53); a zero
            # divisor raises ExpressionEvalError on the fallback path.
            out.extend(header)
            out.extend([
                f"else if ({x}_t != 2 && {y}_t != 2) {{",
                f"    if ({y}_i == 0) goto {bail};",
                f"    if ({x}_i == {_C_INT64_MIN} && {y}_i == -1LL) "
                f"goto {bail};",
                f"    if ({x}_i % {y}_i == 0) "
                f"{{ {r}_t = 1; {r}_i = {x}_i / {y}_i; }}",
                f"    else {{",
                f"        if ({x}_i > {_EXACT_DOUBLE}LL || "
                f"{x}_i < -{_EXACT_DOUBLE}LL || "
                f"{y}_i > {_EXACT_DOUBLE}LL || "
                f"{y}_i < -{_EXACT_DOUBLE}LL) goto {bail};",
                f"        {r}_t = 2; "
                f"{r}_f = (double){x}_i / (double){y}_i;",
                f"    }}",
                f"}} else {{",
                f"    double {r}_d = {self._num(y)};",
                f"    if ({r}_d == 0.0) goto {bail};",
                f"    {r}_t = 2; {r}_f = {self._num(x)} / {r}_d;",
                f"}}",
            ])
            return r

        if op in _ORDERINGS:
            cop = _ORDERINGS[op]
            out.extend(header)
            out.extend([
                f"else if ({x}_t != 2 && {y}_t != 2) "
                f"{{ {r}_t = 3; {r}_i = ({x}_i {cop} {y}_i); }}",
                f"else if ({x}_t == 2 && {y}_t == 2) "
                f"{{ {r}_t = 3; {r}_i = ({x}_f {cop} {y}_f); }}",
                f"else {{",
                f"    long long {r}_z = ({x}_t == 2) ? {y}_i : {x}_i;",
                f"    if ({r}_z > {_EXACT_DOUBLE}LL || "
                f"{r}_z < -{_EXACT_DOUBLE}LL) goto {bail};",
                f"    {r}_t = 3; "
                f"{r}_i = ({self._num(x)} {cop} {self._num(y)});",
                f"}}",
            ])
            return r

        raise CodeGenError(f"cannot lower binary operator {op!r}")

    # -- built-in calls ----------------------------------------------------

    def _emit_call(self, node: Call) -> str:
        out = self.lines
        bail = self.bail
        name = node.function

        if name == "abs":
            x = self.emit(node.arguments[0])
            r = self._temp()
            out.extend([
                f"if ({x}_t == 0) {{ {r}_t = 0; }}",
                f"else if ({x}_t == 4) goto {bail};",
                f"else if ({x}_t == 2) {{ {r}_t = 2; "
                f"{r}_f = fabs({x}_f); }}",
                f"else {{",
                f"    if ({x}_i == {_C_INT64_MIN}) goto {bail};",
                f"    {r}_t = 1; {r}_i = ({x}_i < 0 ? -{x}_i : {x}_i);",
                f"}}",
            ])
            return r

        if name in ("min", "max"):
            # Python min(a, b) keeps a unless b < a (max: unless b > a) --
            # the winning *operand* is returned with its original type.
            x = self.emit(node.arguments[0])
            y = self.emit(node.arguments[1])
            r = self._temp()
            cop = "<" if name == "min" else ">"
            out.extend([
                f"if ({x}_t == 0 || {y}_t == 0) {{ {r}_t = 0; }}",
                f"else if ({x}_t == 4 || {y}_t == 4) goto {bail};",
                f"else {{",
                f"    int {r}_c;",
                f"    if ({x}_t != 2 && {y}_t != 2) "
                f"{r}_c = ({y}_i {cop} {x}_i);",
                f"    else if ({x}_t == 2 && {y}_t == 2) "
                f"{r}_c = ({y}_f {cop} {x}_f);",
                f"    else {{",
                f"        long long {r}_z = ({x}_t == 2) ? {y}_i : {x}_i;",
                f"        if ({r}_z > {_EXACT_DOUBLE}LL || "
                f"{r}_z < -{_EXACT_DOUBLE}LL) goto {bail};",
                f"        {r}_c = ({self._num(y)} {cop} {self._num(x)});",
                f"    }}",
                f"    if ({r}_c) {{ {self._assign(r, y)} }}",
                f"    else {{ {self._assign(r, x)} }}",
                f"}}",
            ])
            return r

        raise CodeGenError(f"cannot lower call to {name!r}")

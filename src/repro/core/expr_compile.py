"""Base-language expressions as generated Python source.

:class:`~repro.core.expr_eval.ExpressionEvaluator` walks the expression
tree for every evaluation -- one ``isinstance`` dispatch chain per node per
tick.  Guards, actions and output expressions are evaluated thousands of
times against different environments but never change shape, so the walk
is done *once*: one emitter (:class:`ExpressionSource`) turns an AST
into a Python expression over value reads, and every compiled engine
executes that source.

* The flat step (:mod:`repro.simulation.op_emit`) inlines it into the
  generated program, with reads spelled as slot accesses (``v[3]``) --
  no environment dict and no call per node.
* :func:`compile_expression` (and :meth:`ExpressionEvaluator.compile`)
  wraps it in one generated function ``environment -> value`` for the
  flattener's mode-controller and STD transition tables.

The source follows :meth:`ExpressionEvaluator.evaluate` exactly:

* ABSENT propagation: every operand (argument) is evaluated before the
  absence test, so an absent left operand never hides an error on the
  right; ``present(ch)`` turns absence into a boolean,
* short-circuit ``and``/``or`` returning genuine bools,
* int-exact division (``6 / 3 == 2``, an ``int``),
* custom functions bound by name from the function table given at
  compile time (later changes to the table are not seen: recompile).

**Errors.**  The generated source holds no error-message logic.  When it
raises anything at all, the expression is evaluated again by the
reference interpreter on the same inputs, which raises the exact
:class:`~repro.core.errors.ExpressionEvalError` type, message and
``__cause__`` (or returns its value, should the fast source ever raise
where the interpreter does not).  An expression reading a name its
environment lacks, or calling a function the table lacks, always runs on
the interpreter.  One side effect is observable: the custom functions a
raising evaluation had called -- the raising one included -- are called
a second time by the interpreter.  So a stateful or nondeterministic
function that raised on the first call but not on the second turns the
error into a value: the one the interpreter's second evaluation returns.

**Depth.**  CPython rejects source nested beyond 200 parentheses.  A
subexpression taller than :data:`_INLINE_HEIGHT` nodes moves into a
helper function of its own, called in its place, so evaluation order,
laziness and results are unchanged at any depth.

Templates (the source with its reads, functions and constants left as
references) are memoized per live expression object, and the code of
:func:`compile_expression` per source text, in a memo of its own.
Generated functions capture resolved function objects and are
per-process artefacts; models stay picklable because nothing here is
stored on components.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .errors import ExpressionEvalError
from .expr_eval import _ARITHMETIC_OPS, BUILTIN_FUNCTIONS, ExpressionEvaluator
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .values import ABSENT

#: A compiled expression: ``environment -> value``.
CompiledExpression = Callable[[Mapping[str, Any]], Any]

#: Delimiter of the references in a template, ``\x00<kind><index>\x00``:
#: ``v`` variable read, ``p`` presence test, ``f`` function, ``c``
#: constant, ``h`` helper call (indexes into the template's tables).
_REF = "\x00"

#: Height (in nodes) past which a subexpression becomes a helper function;
#: one node nests at most 4 parentheses deep.
_INLINE_HEIGHT = 20

#: Templates memoized per live expression object: ``id -> (weak reference,
#: template)``; an entry leaves with its expression.
_TEMPLATES: Dict[int, Tuple[Any, "_Template"]] = {}

#: Flags of an emitted value ``(text, flags, height)``: ``_ATOM`` source is
#: pure and cheap (a read, a literal, a temporary), so it may be repeated
#: and reordered; ``_ABSENT`` values may be ABSENT; ``_BOOL`` values are a
#: bool (or ABSENT).
_ATOM, _ABSENT, _BOOL = 1, 2, 4

_DIVIDE = ("(_fail() if {1} == 0 else ({0} // {1} if isinstance({0}, int) "
           "and isinstance({1}, int) and {0} % {1} == 0 else {0} / {1}))")
_DIVIDE_BY_INT = ("({0} // {1} if isinstance({0}, int) and {0} % {1} == 0 "
                  "else {0} / {1})")


class _Unsupported(Exception):
    """Raised by generated source where the interpreter raises an error."""


def _fail(*_operands: Any) -> Any:
    raise _Unsupported


class _Emitter:
    """Expression AST -> template source, mirroring ``evaluate``."""

    def __init__(self) -> None:
        self.temps = 0
        self.helpers: List[str] = []
        self.tables: Dict[str, List[Any]] = {"v": [], "p": [], "f": [],
                                             "c": []}
        self._refs: Dict[Tuple[str, str], str] = {}

    def _ref(self, kind: str, key: Any) -> str:
        # names share one reference each; constants (maybe unhashable) not
        ref = self._refs.get((kind, key)) if kind != "c" else None
        if ref is None:
            table = self.tables[kind]
            ref = f"{_REF}{kind}{len(table)}{_REF}"
            table.append(key)
            if kind != "c":
                self._refs[(kind, key)] = ref
        return ref

    def _temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps - 1}"

    def emit(self, node: Expression) -> Tuple[str, int, int]:
        if isinstance(node, Variable):
            return self._ref("v", node.name), _ATOM | _ABSENT, 0
        if isinstance(node, Literal):
            return self._literal(node.value)
        if isinstance(node, BinaryOp):
            value = self._binary(node)
        elif isinstance(node, Call):
            function = self._ref("f", node.function)
            arguments = [self.emit(argument) for argument in node.arguments]
            text, flags, height = self._strict(
                arguments, function + "(" + ", ".join(
                    f"{{{index}}}" for index in range(len(arguments))) + ")")
            # the function itself may return ABSENT, whatever its arguments
            value = text, flags | _ABSENT, height
        elif isinstance(node, Conditional):
            value = self._conditional(node)
        elif isinstance(node, UnaryOp):
            operand = self.emit(node.operand)
            if node.op == "-":
                value = self._strict([operand], "(-{0})")
            elif node.op == "not":
                value = self._strict([operand], "(not {0})", boolean=True)
            else:
                value = self._strict([operand], "_fail({0})")
        elif isinstance(node, Present):
            return f"({self._ref('p', node.channel)})", _ATOM | _BOOL, 0
        else:
            raise ExpressionEvalError(
                f"unsupported expression node {node!r}")
        if value[2] > _INLINE_HEIGHT:
            self.helpers.append(value[0])
            return (f"{_REF}h{len(self.helpers) - 1}{_REF}",
                    value[1] & ~_ATOM, 1)
        return value

    def _literal(self, value: Any) -> Tuple[str, int, int]:
        if value is ABSENT:
            return "A", _ATOM | _ABSENT, 0
        kind = type(value)
        if kind is int or kind is str or kind is bool or value is None \
                or (kind is float and math.isfinite(value)):
            text = repr(value)
            if text[0] == "-":
                text = f"({text})"
        else:  # non-finite floats, enum members, struct values...
            text = self._ref("c", value)
        return text, _ATOM | _BOOL if kind is bool else _ATOM, 0

    def _strict(self, values: List[Tuple[str, int, int]], build: str,
                atoms: bool = False,
                boolean: bool = False) -> Tuple[str, int, int]:
        """*build* (a ``str.format`` template) over the operands, ABSENT if
        any operand is: every operand is evaluated, in order, before the
        absence test.  With *atoms*, *build* repeats its operands, so each
        one that is not an atom is bound to a temporary first."""
        height = 0
        absent = 0
        for value in values:
            absent |= value[1] & _ABSENT
            if value[2] > height:
                height = value[2]
        flags = absent | (_BOOL if boolean else 0)
        if not absent and not atoms:
            return build.format(*[value[0] for value in values]), flags, \
                height + 1
        tests: List[str] = []
        names: List[str] = []
        effects = False  # a test after the first binds (evaluates) an operand
        for text, value_flags, _height in values:
            if value_flags & _ATOM:
                names.append(text)
                if value_flags & _ABSENT:
                    tests.append(f"{text} is A")
            else:
                name = self._temp()
                names.append(name)
                effects = effects or bool(tests)
                tests.append(f"({name} := {text}) is A")
        text = build.format(*names)
        if tests:
            test = (" | ".join([f"({test})" for test in tests]) if effects
                    else " or ".join(tests))
            text = f"(A if {test} else {text})"
        return text, flags, height + 1

    def _bind(self, value: Tuple[str, int, int]) -> Tuple[str, str]:
        """``(first use, later uses)`` of a value read more than once."""
        if value[1] & _ATOM:
            return value[0], value[0]
        name = self._temp()
        return f"({name} := {value[0]})", name

    def _binary(self, node: BinaryOp) -> Tuple[str, int, int]:
        op = node.op
        left = self.emit(node.left)
        right = self.emit(node.right)
        if op == "and" or op == "or":
            if right[1] & _BOOL:
                rhs = right[0]
            elif right[1] & _ABSENT:
                first, name = self._bind(right)
                rhs = f"(A if {first} is A else bool({name}))"
            else:
                rhs = f"bool({right[0]})"
            short = "False if not" if op == "and" else "True if"
            if left[1] & _ABSENT:
                first, name = self._bind(left)
                text = f"(A if {first} is A else ({short} {name} else {rhs}))"
            else:
                text = f"({short} {left[0]} else {rhs})"
            return (text, ((left[1] | right[1]) & _ABSENT) | _BOOL,
                    1 + max(left[2], right[2]))
        if op == "/":
            divisor = node.right.value if isinstance(node.right, Literal) \
                else None
            if type(divisor) not in (bool, int, float):
                return self._strict([left, right], _DIVIDE, atoms=True)
            if divisor == 0:
                return self._strict([left, right], "_fail({0})")
            if isinstance(divisor, int):
                return self._strict([left, right], _DIVIDE_BY_INT,
                                    atoms=True)
            return self._strict([left, right], "({0} / {1})")
        if op not in _ARITHMETIC_OPS:
            return self._strict([left, right], "_fail({0}, {1})")
        return self._strict([left, right], f"({{0}} {op} {{1}})")

    def _conditional(self, node: Conditional) -> Tuple[str, int, int]:
        condition = self.emit(node.condition)
        then = self.emit(node.then_branch)
        other = self.emit(node.else_branch)
        if condition[1] & _ABSENT:
            first, name = self._bind(condition)
            text = (f"(A if {first} is A else "
                    f"({then[0]} if {name} else {other[0]}))")
        else:
            text = f"({then[0]} if {condition[0]} else {other[0]})"
        return (text, ((condition[1] | then[1] | other[1]) & _ABSENT)
                | (then[1] & other[1] & _BOOL),
                1 + max(condition[2], then[2], other[2]))


class _Template:
    """One expression as source with unresolved references."""

    __slots__ = ("text", "helpers", "variables", "presents", "functions",
                 "constants")

    def __init__(self, expression: Expression):
        emitter = _Emitter()
        self.text = emitter.emit(expression)[0]
        self.helpers = tuple(emitter.helpers)
        tables = emitter.tables
        self.variables: Tuple[str, ...] = tuple(tables["v"])
        self.presents: Tuple[str, ...] = tuple(tables["p"])
        self.functions: Tuple[str, ...] = tuple(tables["f"])
        self.constants: Tuple[Any, ...] = tuple(tables["c"])


class _Ref(weakref.ref):
    """A weak reference to an expression, carrying its memo key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    if _TEMPLATES.get(ref.key, (None,))[0] is ref:
        del _TEMPLATES[ref.key]


def _template(expression: Expression) -> _Template:
    """The memoized template of *expression*."""
    entry = _TEMPLATES.get(id(expression))
    if entry is not None and entry[0]() is expression:
        return entry[1]
    template = _Template(expression)
    ref = _Ref(expression, _forget)
    ref.key = id(expression)
    _TEMPLATES[ref.key] = (ref, template)
    return template


def _spell(text: str, resolved: Mapping[str, List[str]]) -> str:
    """Template *text* with every reference replaced by its spelling."""
    parts = text.split(_REF)
    for index in range(1, len(parts), 2):
        ref = parts[index]
        parts[index] = resolved[ref[0]][int(ref[1:])]
    return "".join(parts)


def _detach(error: BaseException, failed: BaseException) -> None:
    """Cut the links from *error*'s chain to *failed*, the fast source's
    exception, so the re-raised error looks as if raised directly."""
    seen = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        if error.__context__ is failed:
            error.__context__ = None
        error = error.__cause__ or error.__context__


class _Interpret:
    """``environment -> value`` through the reference interpreter: the
    error path of generated expression source, which passes the exception
    it raised as *failed*."""

    __slots__ = ("expression", "names", "functions", "evaluate")

    def __init__(self, expression: Expression, names: Tuple[str, ...],
                 functions: Tuple[Any, ...]):
        self.expression = expression
        self.names = names
        self.functions = functions
        self.evaluate: Optional[Callable[..., Any]] = None

    def __call__(self, environment: Mapping[str, Any],
                 failed: Optional[BaseException] = None) -> Any:
        if self.evaluate is None:
            # the table of the functions the expression calls is exactly
            # what the interpreter looks up: a missing one stays unknown
            self.evaluate = ExpressionEvaluator({
                name: function for name, function
                in zip(self.names, self.functions)
                if function is not None}).evaluate
        try:
            return self.evaluate(self.expression, environment)
        except BaseException as error:
            if failed is not None:
                _detach(error, failed)
            raise


class SourceScope:
    """The names one piece of generated source binds.

    *bound* is the namespace the source is executed in; *params* is the
    parameter list of helper functions (and of the calls to them), which
    must hand them the value reads of the enclosing source.  Helper
    definitions accumulate in :attr:`defs`, to be placed at module level.
    """

    def __init__(self, bound: Dict[str, Any], params: str):
        bound.setdefault("A", ABSENT)
        bound["_fail"] = _fail
        self.bound = bound
        self.params = params
        self.defs: List[str] = []
        self._names: Dict[int, str] = {}

    def bind(self, value: Any, prefix: str) -> str:
        """The name *value* is bound to (one name per object)."""
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"_{prefix}{len(self._names)}"
            self.bound[name] = value
        return name

    def helper(self, text: str) -> str:
        """Define a helper returning *text*; returns the call to it."""
        name = f"_h{len(self.defs)}"
        self.defs.append(f"def {name}({self.params}):\n    return {text}")
        return f"{name}({self.params})"


class ExpressionSource:
    """An expression lowered to source, its functions resolved.

    :meth:`render` spells it over the reads of one substrate;
    :attr:`interpret` is its interpreter path, ``environment -> value``.
    Raises :class:`ExpressionEvalError` for a node type the base language
    does not have.
    """

    __slots__ = ("expression", "template", "functions", "_interpret")

    def __init__(self, expression: Expression,
                 functions: Mapping[str, Callable[..., Any]]):
        self.expression = expression
        self.template = _template(expression)
        self.functions = tuple(map(functions.get, self.template.functions))
        self._interpret: Optional[_Interpret] = None

    @property
    def interpret(self) -> _Interpret:
        if self._interpret is None:
            self._interpret = _Interpret(
                self.expression, self.template.functions, self.functions)
        return self._interpret

    def render(self, read: Callable[[str], Optional[str]],
               present: Callable[[str], str],
               scope: SourceScope) -> Optional[str]:
        """The source of the expression's value, or ``None`` when a name
        it reads (``read`` gives ``None``) or calls is unknown.

        ``read(name)`` must spell a pure, non-raising read and
        ``present(name)`` a presence test; both may be repeated.
        """
        template = self.template
        if None in self.functions:
            return None
        reads = [read(name) for name in template.variables]
        if None in reads:
            return None
        resolved = {"v": reads,
                    "p": [present(name) for name in template.presents],
                    "f": [scope.bind(function, "f")
                          for function in self.functions],
                    "c": [scope.bind(value, "c")
                          for value in template.constants],
                    "h": []}
        for helper in template.helpers:
            resolved["h"].append(scope.helper(_spell(helper, resolved)))
        return _spell(template.text, resolved)


@functools.lru_cache(maxsize=1024)
def _code(source: str) -> Any:
    """The code object of one :func:`compile_expression` source; memoized
    per source text, in a memo of its own (not the flat programs' code
    memo)."""
    return compile(source, "<expression>", "exec")


def compile_expression(expression: Expression,
                       functions: Optional[Mapping[str, Callable[..., Any]]]
                       = None) -> CompiledExpression:
    """Compile *expression* to a function ``environment -> value``.

    *functions* extends (and may override) the built-in function table,
    exactly like the :class:`ExpressionEvaluator` constructor argument.
    """
    table: Dict[str, Callable[..., Any]] = dict(BUILTIN_FUNCTIONS)
    if functions:
        table.update(functions)
    source = ExpressionSource(expression, table)
    reads = {name: f"_r{index}"
             for index, name in enumerate(source.template.variables)}

    def present(name: str) -> str:
        read = reads.get(name)
        return (f"e.get({name!r}, A) is not A" if read is None
                else f"{read} is not A")

    scope = SourceScope({}, ", ".join(["e", *reads.values()]))
    text = source.render(reads.get, present, scope)
    if text is None:
        return source.interpret
    interpret = scope.bind(source.interpret, "x")
    lines = scope.defs + ["def _expression(e):", "    try:"]
    lines += [f"        {read} = e[{name!r}]" for name, read in reads.items()]
    lines += [f"        return {text}", "    except Exception as error:",
              f"        return {interpret}(e, error)"]
    exec(_code("\n".join(lines)), scope.bound)  # noqa: S102 - generated
    return scope.bound["_expression"]

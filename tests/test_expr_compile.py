"""Base-language expressions as generated source (repro.core.expr_compile).

The compiled function must be observationally identical to
:meth:`ExpressionEvaluator.evaluate`: same values (including type -- bools
stay bools, int-exact division stays int), same ABSENT propagation, and the
same raised exceptions with the same messages.  The property tests generate
random ASTs -- including deliberately broken ones (unknown names, unknown
functions, type-clashing operands, division by zero) -- and compare both
executions over random mixed present/absent environments.

All generators are seeded; re-run a failing case with the seed in the test
id.
"""

import math
import random

import pytest

from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError
from repro.core.expr_compile import compile_expression
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.expr_parser import parse_expression
from repro.core.expressions import (BinaryOp, Call, Conditional, Literal,
                                    Present, UnaryOp, Variable)
from repro.core.values import ABSENT
from repro.io.json_io import trace_to_json
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import CompiledSimulator, Simulator

FAST_SEEDS = range(10)
SLOW_SEEDS = range(10, 60)

VOCABULARY = ["a", "b", "c", "d"]

#: (function name, arity) pairs the random generator may call.
FUNCTION_POOL = [("abs", 1), ("min", 2), ("max", 2), ("limit", 3),
                 ("sqrt", 1), ("floor", 1), ("ceil", 1), ("round", 1),
                 ("sign", 1), ("interpolate", 5),
                 ("nope", 1)]  # unknown on purpose


def outcome(thunk):
    """Run *thunk* and normalize result vs raised exception for comparison.

    Values are compared together with their concrete type so that ``True``
    never masquerades as ``1`` and int-exact division is checked to really
    return an ``int``.
    """
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - everything must match
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, value)


def assert_same_outcome(expression, environment, evaluator=None):
    evaluator = evaluator or ExpressionEvaluator()
    compiled = evaluator.compile(expression)
    expected = outcome(lambda: evaluator.evaluate(expression, environment))
    actual = outcome(lambda: compiled(environment))
    assert expected == actual, (
        f"{expression.to_source()} over {environment}: "
        f"interpreter {expected} vs compiled {actual}")


# -- random AST / environment generators ------------------------------------


def random_expression(rng, depth=0, max_depth=4):
    if depth >= max_depth or rng.random() < 0.25:
        kind = rng.choice(["literal", "literal", "variable", "variable",
                           "present"])
        if kind == "literal":
            return Literal(rng.choice(
                [rng.randint(-6, 6), rng.randint(0, 3) * 0.5,
                 True, False, "label"]))
        if kind == "variable":
            # occasionally a name outside the vocabulary (unknown-name error)
            name = rng.choice(VOCABULARY + ["ghost"])
            return Variable(name)
        return Present(rng.choice(VOCABULARY))

    kind = rng.choice(["unary", "binary", "binary", "binary", "conditional",
                       "call"])
    if kind == "unary":
        op = rng.choice(["-", "not", "not", "??"])  # ?? = unknown operator
        return UnaryOp(op, random_expression(rng, depth + 1, max_depth))
    if kind == "binary":
        op = rng.choice(["+", "-", "*", "/", "%", "==", "!=", "<", "<=",
                         ">", ">=", "and", "or", "<>"])  # <> = unknown
        return BinaryOp(op,
                        random_expression(rng, depth + 1, max_depth),
                        random_expression(rng, depth + 1, max_depth))
    if kind == "conditional":
        return Conditional(random_expression(rng, depth + 1, max_depth),
                           random_expression(rng, depth + 1, max_depth),
                           random_expression(rng, depth + 1, max_depth))
    name, arity = rng.choice(FUNCTION_POOL)
    return Call(name, tuple(random_expression(rng, depth + 1, max_depth)
                            for _ in range(arity)))


def random_environment(rng):
    environment = {}
    for name in VOCABULARY:
        roll = rng.random()
        if roll < 0.2:
            environment[name] = ABSENT
        elif roll < 0.3:
            pass  # name missing entirely (unknown-name error path)
        elif roll < 0.55:
            environment[name] = rng.randint(-6, 6)
        elif roll < 0.8:
            environment[name] = rng.randint(-8, 8) * 0.25
        elif roll < 0.9:
            environment[name] = rng.choice([True, False])
        else:
            environment[name] = "label"
    return environment


# -- property tests ----------------------------------------------------------


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_ast_closure_equivalence(seed):
    rng = random.Random(seed)
    for _ in range(15):
        expression = random_expression(rng)
        compiled = compile_expression(expression)
        evaluator = ExpressionEvaluator()
        for _ in range(12):
            environment = random_environment(rng)
            expected = outcome(
                lambda: evaluator.evaluate(expression, environment))
            actual = outcome(lambda: compiled(environment))
            assert expected == actual, (
                f"seed {seed}: {expression.to_source()} over {environment}: "
                f"{expected} vs {actual}")


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_ast_closure_equivalence_extended(seed):
    rng = random.Random(seed)
    for _ in range(25):
        expression = random_expression(rng, max_depth=6)
        compiled = compile_expression(expression)
        evaluator = ExpressionEvaluator()
        for _ in range(20):
            environment = random_environment(rng)
            expected = outcome(
                lambda: evaluator.evaluate(expression, environment))
            actual = outcome(lambda: compiled(environment))
            assert expected == actual, (
                f"seed {seed}: {expression.to_source()} over {environment}: "
                f"{expected} vs {actual}")


# -- targeted semantics ------------------------------------------------------


class TestExactSemantics:
    def test_short_circuit_and_returns_bool(self):
        expression = parse_expression("a and b")
        compiled = compile_expression(expression)
        assert compiled({"a": 0, "b": 1}) is False  # left falsy -> False
        assert compiled({"a": 2, "b": 3}) is True   # truthy right -> bool
        assert compiled({"a": 0, "b": ABSENT}) is False  # right not evaluated
        assert compiled({"a": ABSENT, "b": 1}) is ABSENT
        assert compiled({"a": 1, "b": ABSENT}) is ABSENT

    def test_short_circuit_or_returns_bool(self):
        compiled = compile_expression(parse_expression("a or b"))
        assert compiled({"a": 3, "b": ABSENT}) is True  # right not evaluated
        assert compiled({"a": 0, "b": 5}) is True
        assert compiled({"a": 0, "b": 0}) is False
        assert compiled({"a": ABSENT, "b": 1}) is ABSENT
        assert compiled({"a": 0, "b": ABSENT}) is ABSENT

    def test_short_circuit_skips_errors_in_right_operand(self):
        # `ghost` is unbound; short-circuiting must skip it exactly like the
        # interpreter does
        for source in ["a and ghost", "a or ghost"]:
            expression = parse_expression(source)
            assert_same_outcome(expression, {"a": 0})
            assert_same_outcome(expression, {"a": 1})

    def test_int_exact_division(self):
        compiled = compile_expression(parse_expression("a / b"))
        result = compiled({"a": 6, "b": 3})
        assert result == 2 and isinstance(result, int)
        assert compiled({"a": 7, "b": 2}) == 3.5
        assert compiled({"a": 6.0, "b": 3}) == 2.0
        assert isinstance(compiled({"a": 6.0, "b": 3}), float)

    def test_int_exact_division_by_literal(self):
        for source in ["a / 2", "a / -3", "a / 2.0", "a / true", "a / 0",
                       "a / 0.0", "a / false"]:
            expression = parse_expression(source)
            for value in [6, 7, -9, 6.0, True, ABSENT, "label"]:
                assert_same_outcome(expression, {"a": value})
        compiled = compile_expression(parse_expression("a / 2"))
        assert compiled({"a": 6}) == 3 and type(compiled({"a": 6})) is int
        assert compiled({"a": 7}) == 3.5

    def test_division_by_zero_message(self):
        expression = parse_expression("a / (b - b)")
        assert_same_outcome(expression, {"a": 1, "b": 4})
        with pytest.raises(ExpressionEvalError, match="division by zero"):
            compile_expression(expression)({"a": 1, "b": 4})

    def test_absent_propagation_through_every_construct(self):
        environment = {"a": ABSENT, "b": 2}
        for source in ["a + b", "-a", "not a", "if a then 1 else 2",
                       "abs(a)", "min(a, b)", "a < b", "a % b"]:
            compiled = compile_expression(parse_expression(source))
            assert compiled(environment) is ABSENT, source

    def test_present_turns_absence_into_bool(self):
        compiled = compile_expression(parse_expression("present(a)"))
        assert compiled({"a": 0}) is True
        assert compiled({"a": ABSENT}) is False
        assert compiled({}) is False  # missing channel, no unknown-name error

    def test_conditional_branch_laziness(self):
        # only the taken branch is evaluated: the other may reference
        # unbound names, exactly as in the interpreter
        expression = parse_expression("if a > 0 then a else ghost")
        assert compile_expression(expression)({"a": 3}) == 3
        assert_same_outcome(expression, {"a": -1})

    def test_unknown_name_message_matches(self):
        expression = parse_expression("ghost + 1")
        assert_same_outcome(expression, {})
        with pytest.raises(ExpressionEvalError,
                           match="unknown name 'ghost' in expression ghost"):
            compile_expression(expression)({})

    def test_unknown_function_message_and_order(self):
        # unknown function beats argument errors (looked up before args)
        expression = Call("nope", (Variable("ghost"),))
        assert_same_outcome(expression, {})
        with pytest.raises(ExpressionEvalError, match="unknown function 'nope'"):
            compile_expression(expression)({})

    def test_unknown_operator_still_propagates_absence(self):
        # the interpreter evaluates operands before discovering the operator
        # is unknown, so an absent operand wins; mirror both paths
        expression = BinaryOp("<>", Variable("a"), Variable("b"))
        compiled = compile_expression(expression)
        assert compiled({"a": ABSENT, "b": 1}) is ABSENT
        assert_same_outcome(expression, {"a": 1, "b": 2})
        unary = UnaryOp("??", Variable("a"))
        assert compile_expression(unary)({"a": ABSENT}) is ABSENT
        assert_same_outcome(unary, {"a": 1})

    def test_type_clash_message_matches(self):
        expression = parse_expression("a + b")
        assert_same_outcome(expression, {"a": "label", "b": 3})
        with pytest.raises(ExpressionEvalError, match="cannot apply '\\+'"):
            compile_expression(expression)({"a": "label", "b": 3})

    def test_function_error_wrapped_identically(self):
        expression = parse_expression("sqrt(a)")
        assert_same_outcome(expression, {"a": -1})
        with pytest.raises(ExpressionEvalError, match="error calling sqrt"):
            compile_expression(expression)({"a": -1})

    def test_modulo_by_zero_stays_raw_zero_division(self):
        # the interpreter does not wrap ZeroDivisionError; neither may we
        expression = parse_expression("a % b")
        assert_same_outcome(expression, {"a": 5, "b": 0})
        with pytest.raises(ZeroDivisionError):
            compile_expression(expression)({"a": 5, "b": 0})

    def test_builtin_functions_agree(self):
        environment = {"a": -3, "b": 7, "c": 2.5, "d": 1}
        for source in ["abs(a)", "min(a, b)", "max(a, b, c)",
                       "limit(b, 0, 5)", "sqrt(b + 2)", "floor(c)",
                       "ceil(c)", "round(c)", "sign(a)",
                       "interpolate(c, 0, 0, 5, 10)"]:
            assert_same_outcome(parse_expression(source), environment)

    def test_custom_functions_resolved_through_evaluator(self):
        evaluator = ExpressionEvaluator({"double": lambda x: 2 * x,
                                         "sqrt": lambda x: "shadowed"})
        expression = parse_expression("double(a) + 1")
        compiled = evaluator.compile(expression)
        assert compiled({"a": 4}) == 9
        assert_same_outcome(expression, {"a": 4}, evaluator=evaluator)
        # custom table may shadow builtins, exactly like evaluate()
        shadowed = parse_expression("sqrt(a)")
        assert evaluator.compile(shadowed)({"a": 9}) == "shadowed"
        assert_same_outcome(shadowed, {"a": 9}, evaluator=evaluator)

    #: Expressions whose custom ``gone`` call returns ABSENT with no
    #: absent argument: every parent must see the absence.
    ABSENT_CALL_SOURCES = [
        "gone(1) == 1", "not gone(1)", "gone(1) and a", "a and gone(1)",
        "gone(1) or a", "a or gone(1)", "if gone(1) then 1 else 2",
        "-gone(1)", "gone(1) + a", "gone() == 0", "gone(present(a)) < 3",
        "abs(gone(a))", "if a then gone(a) else 2"]

    def test_custom_function_returning_absent(self):
        evaluator = ExpressionEvaluator({"gone": lambda *_: ABSENT})
        for source in self.ABSENT_CALL_SOURCES:
            for a in (True, False, 1, ABSENT):
                assert_same_outcome(parse_expression(source), {"a": a},
                                    evaluator=evaluator)

    def test_custom_function_returning_absent_in_a_flat_step(self):
        evaluator = ExpressionEvaluator({"gone": lambda *_: ABSENT})
        dfd = DataFlowDiagram("Gone")
        dfd.add_input("u")
        block = ExpressionComponent(
            "G", {f"o{index}": source for index, source
                  in enumerate(self.ABSENT_CALL_SOURCES)},
            evaluator=evaluator)
        block.add_input("a")
        dfd.add_subcomponent(block)
        dfd.connect("u", "G.a")
        for index in range(len(self.ABSENT_CALL_SOURCES)):
            block.add_output(f"o{index}")
            dfd.add_output(f"y{index}")
            dfd.connect(f"G.o{index}", f"y{index}")
        stimuli = {"u": [True, False, 1, ABSENT]}
        expected = trace_to_json(Simulator(dfd).run(stimuli, 4))
        actual = CompiledSimulator(dfd, backend="flat").run(stimuli, 4)
        assert trace_to_json(actual) == expected

    def test_compile_snapshots_function_table(self):
        evaluator = ExpressionEvaluator({"f": lambda x: x + 1})
        compiled = evaluator.compile(parse_expression("f(a)"))
        evaluator.functions["f"] = lambda x: x - 1
        assert compiled({"a": 0}) == 1  # snapshot: still the old function
        recompiled = evaluator.compile(parse_expression("f(a)"))
        assert recompiled({"a": 0}) == -1

    def test_unsupported_node_rejected_at_compile_time(self):
        class Alien:
            def __repr__(self):
                return "Alien()"

        with pytest.raises(ExpressionEvalError,
                           match="unsupported expression node"):
            compile_expression(Alien())

    def test_nan_free_float_agreement(self):
        environment = {"a": 0.1, "b": 0.2, "c": 3.0, "d": 7.0}
        for source in ["a + b", "a * b / c", "(a + b) % c",
                       "c / d", "interpolate(a, 0, 0, 1, d)"]:
            evaluator = ExpressionEvaluator()
            expression = parse_expression(source)
            expected = evaluator.evaluate(expression, environment)
            actual = compile_expression(expression)(environment)
            assert math.isclose(expected, actual, rel_tol=0.0, abs_tol=0.0), \
                source  # bit-identical, not merely close

    def test_case_study_guard_sources_agree(self):
        # the guard vocabulary of the Fig.-6 MTD and the crank sequencer
        sources = ["n > 0", "n > 700", "n <= 0", "ped > 5",
                   "ped <= 0 and n > 3000", "not key or crank_ticks > 40",
                   "present(n)", "key"]
        environments = [
            {"n": 900.0, "ped": 0.0, "key": True, "crank_ticks": 3},
            {"n": ABSENT, "ped": ABSENT, "key": False, "crank_ticks": 41},
            {"n": 0.0, "ped": 100.0, "key": True, "crank_ticks": 0},
        ]
        for source in sources:
            for environment in environments:
                assert_same_outcome(parse_expression(source), environment)

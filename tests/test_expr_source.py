"""Expressions as generated source: depth, code reuse and the error path.

* 300-level expressions compile past CPython's 200-parenthesis limit (the
  emitter moves tall subtrees into helper functions) and agree with the
  interpreter as expression blocks on every backend -- native through its
  trampoline replays -- and as MTD guards;
* compiling the same models again adds no miss to the flat programs'
  code-object memo: generated source is deterministic and expression
  code does not evict step code;
* a raising ``expr`` op leaves the same forensics as the closure-based
  compiler did (op index, tick, message, pinned below as literals) and
  raises the interpreter's error, ``__cause__`` included.
"""

import random

import pytest

from repro import obs
from repro.casestudy import (build_closed_loop, build_comfort_closing,
                             build_crank_sequencer_std,
                             build_door_lock_control, build_engine_ccd,
                             build_engine_modes_mtd, build_momentum_controller,
                             build_reengineered_fda)
from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError
from repro.core.expr_compile import compile_expression
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.expr_parser import parse_expression
from repro.core.expressions import (BinaryOp, Conditional, Literal,
                                    Variable)
from repro.core.values import ABSENT
from repro.io.json_io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.obs import EventLog, read_bundle
from repro.scenarios import Scenario, run_sharded
from repro.simulation import (CompiledSimulator, Simulator, build_gated_ccd,
                              compile_component, native_available)
from repro.simulation import op_emit
from repro.transformations import cluster_by_clock
from test_expr_compile import random_expression

DEPTH = 300

#: Stimulus of the deep models: absence, ints, floats and an int past
#: int64, which the native C path cannot hold and replays in Python.
DEEP_STIMULUS = [3, ABSENT, -7, 2.5, 2 ** 70, 150, 299.5, 0]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Observability off and a throwaway native cache for every test."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))
    obs.disable()
    yield
    obs.disable()


def deep_chain():
    """``a + 1 + 1 + ... + 1``: a left-deep ``+`` chain."""
    expression = Variable("a")
    for _ in range(DEPTH):
        expression = BinaryOp("+", expression, Literal(1))
    return expression


def deep_conditional():
    """300 nested ``if/then/else``, nesting through both lazy branches."""
    expression = Variable("a")
    for level in range(DEPTH):
        test = BinaryOp(">", Variable("a"), Literal(level))
        expression = (Conditional(test, expression, Literal(-level))
                      if level % 2 else
                      Conditional(test, Literal(level), expression))
    return expression


DEEP = {"chain": deep_chain, "conditional": deep_conditional}


def expression_block_model(expression):
    dfd = DataFlowDiagram("DeepBlock")
    dfd.add_input("u")
    dfd.add_output("y")
    block = ExpressionComponent("Deep", {"out": expression})
    block.add_input("a")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "Deep.a")
    dfd.connect("Deep.out", "y")
    return dfd


def guard_model(expression):
    """An MTD leaving ``Low`` when the deep expression exceeds 100, as the
    leaf of a DFD (so the flat program runs it through its guard table)."""
    mtd = ModeTransitionDiagram("DeepGuard")
    mtd.add_input("a")
    mtd.add_output("mode")
    mtd.add_mode("Low", initial=True)
    mtd.add_mode("High")
    mtd.add_transition("Low", "High", BinaryOp(">", expression,
                                               Literal(100)))
    mtd.add_transition("High", "Low", BinaryOp("<=", expression,
                                               Literal(100)))
    dfd = DataFlowDiagram("DeepGuardWrap")
    dfd.add_input("u")
    dfd.add_output("mode")
    dfd.add_subcomponent(mtd)
    dfd.connect("u", "DeepGuard.a")
    dfd.connect("DeepGuard.mode", "mode")
    return dfd


def deep_environments():
    return [{"a": value} for value in DEEP_STIMULUS] + [{}]


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_expression_compiles_and_agrees(shape):
    expression = DEEP[shape]()
    evaluator = ExpressionEvaluator()
    compiled = compile_expression(expression)
    for environment in deep_environments():
        try:
            expected = ("value", evaluator.evaluate(expression, environment))
        except ExpressionEvalError as error:
            expected = ("error", str(error))
        try:
            actual = ("value", compiled(environment))
        except ExpressionEvalError as error:
            actual = ("error", str(error))
        assert actual == expected
        assert type(actual[1]) is type(expected[1])


@pytest.mark.parametrize("backend", ["flat", "auto", "native"])
@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_expression_block_matches_interpreter(shape, backend):
    model = expression_block_model(DEEP[shape]())
    stimuli = {"u": list(DEEP_STIMULUS)}
    ticks = len(DEEP_STIMULUS)
    expected = trace_to_json(Simulator(model).run(stimuli, ticks))
    simulator = CompiledSimulator(model, backend=backend)
    with obs.session() as telemetry:
        for _ in range(3):  # auto: the later runs may take the C loop
            assert trace_to_json(simulator.run(stimuli, ticks)) == expected
    if backend == "native" and native_available():
        counters = telemetry.registry.counter_values("native.")
        assert counters["native.runs"] == 3
        assert counters["native.trampolines"] > 0  # the 2**70 tick


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_expression_as_mtd_guard(shape):
    model = guard_model(DEEP[shape]())
    stimuli = {"u": list(DEEP_STIMULUS)}
    ticks = len(DEEP_STIMULUS)
    expected = trace_to_json(Simulator(model).run(stimuli, ticks))
    for backend in ("flat", "auto", "native"):
        actual = CompiledSimulator(model, backend=backend).run(stimuli, ticks)
        assert trace_to_json(actual) == expected


def run_outcome(simulator, stimuli, ticks):
    try:
        return trace_to_json(simulator.run(stimuli, ticks))
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))


@pytest.mark.parametrize("seed", range(6))
def test_random_expression_blocks_match_interpreter(seed):
    """Random ASTs -- broken ones included -- as expression blocks of a flat
    program read slots, not an environment: the block's inputs are ``a``,
    ``b``, ``c``, so ``d`` and ``ghost`` are names without a slot."""
    rng = random.Random(seed)
    pool = [ABSENT, -3, 0, 2, 5, 0.5, -1.25, True, False, "label"]
    for _ in range(10):
        dfd = DataFlowDiagram("Random")
        block = ExpressionComponent("E", {"out": random_expression(rng),
                                          "aux": random_expression(rng)})
        for name in ("a", "b", "c"):
            dfd.add_input(name)
            block.add_input(name)
        block.add_output("out")
        dfd.add_output("y")
        dfd.add_subcomponent(block)
        for name in ("a", "b", "c"):
            dfd.connect(name, f"E.{name}")
        dfd.connect("E.out", "y")
        stimuli = {name: [rng.choice(pool) for _ in range(6)]
                   for name in ("a", "b", "c")}
        expected = run_outcome(Simulator(dfd), stimuli, 6)
        for backend in ("flat", "native"):
            assert run_outcome(CompiledSimulator(dfd, backend=backend),
                               stimuli, 6) == expected


# -- code-object reuse ------------------------------------------------------


def rate_banded_chain(length):
    """``length`` ``in1 + 1`` blocks in two contiguous rate bands and a
    unit delay: clusters into a two-cluster CCD (``gated_ccd60``)."""
    dfd = DataFlowDiagram(f"Chain{length}")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(length):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        block.annotate("rate", 1 if index < length // 2 else 10)
        dfd.add_subcomponent(block)
        dfd.connect("u" if previous is None else f"{previous}.out",
                    f"B{index}.in1")
        previous = f"B{index}"
    delay = UnitDelay("Z")
    delay.annotate("rate", 10)
    dfd.add_subcomponent(delay)
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "y")
    return dfd


def portfolio_roots():
    ccd, _ = cluster_by_clock(rate_banded_chain(60))
    return [build_gated_ccd(build_engine_ccd()), build_engine_modes_mtd(),
            build_crank_sequencer_std(), build_door_lock_control(),
            build_comfort_closing(), build_momentum_controller(),
            build_closed_loop(), build_reengineered_fda(),
            build_gated_ccd(ccd)]


def test_recompiling_adds_no_code_object_miss():
    # fresh models: the second compile must hit on every program
    for roots in (portfolio_roots(), portfolio_roots()):
        before = op_emit._code.cache_info().misses
        for root in roots:
            compile_component(root)
        first = op_emit._code.cache_info().misses - before
    assert first == 0
    assert op_emit._code.cache_info().currsize \
        <= op_emit._code.cache_info().maxsize


# -- the error path ---------------------------------------------------------


def clash_model():
    """``SUM`` clashes (str + int) when ``u`` is ``"label"``; ``DIV``
    divides by zero when ``d`` is 0."""
    dfd = DataFlowDiagram("Clash")
    dfd.add_input("u")
    dfd.add_input("d")
    dfd.add_output("y")
    add = ExpressionComponent("SUM", {"out": "a + 1"})
    add.declare_interface_from_expressions()
    div = ExpressionComponent("DIV", {"out": "s / b"})
    div.declare_interface_from_expressions()
    dfd.add(add, div)
    dfd.connect("u", "SUM.a")
    dfd.connect("SUM.out", "DIV.s")
    dfd.connect("d", "DIV.b")
    dfd.connect("DIV.out", "y")
    return dfd


CLASH_BATTERY = [
    Scenario("clash", {"u": [1, 2, "label", 4], "d": 1}, ticks=4),
    Scenario("zero", {"u": [1, 2, 3, 4, 5], "d": [1, 2, 3, 0, 1]}, ticks=5)]

#: (op index, tick, error, partial slots) of each bundle, captured with
#: the closure-based compiler this replaced.
EXPECTED_FAILURES = {
    "clash": (1, 2, "ExpressionEvalError: cannot apply '+' to 'label' "
                    "and 1",
              {"Clash.d": 1, "Clash.u": "label", "Clash.y": "-",
               "Clash/DIV.b": 1, "Clash/DIV.out": "-", "Clash/DIV.s": "-",
               "Clash/SUM.a": "label", "Clash/SUM.out": "-"}),
    "zero": (2, 3, "ExpressionEvalError: division by zero in (s / b)",
             {"Clash.d": 0, "Clash.u": 4, "Clash.y": "-", "Clash/DIV.b": 0,
              "Clash/DIV.out": "-", "Clash/DIV.s": 5, "Clash/SUM.a": 4,
              "Clash/SUM.out": 5})}


@pytest.mark.parametrize("backend", ["flat", "native"])
def test_raising_expr_op_forensics_are_unchanged(tmp_path, backend):
    model = clash_model()
    with obs.session(events=EventLog(), flight_recording=True,
                     ring_ticks=4, postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, CLASH_BATTERY, executor="serial",
                              backend=backend)
        bundles = [read_bundle(path) for path in telemetry.bundles]
    assert [result.error for result in results] \
        == [EXPECTED_FAILURES[name][2] for name in ("clash", "zero")]
    failures = {bundle["scenario"]: (bundle["failing"]["op_index"],
                                     bundle["failing"]["tick"],
                                     bundle["error"],
                                     bundle["failing"]["partial_slots"])
                for bundle in bundles}
    assert failures == EXPECTED_FAILURES
    assert all(bundle["failing"]["op_kind"] == "expr" for bundle in bundles)


@pytest.mark.parametrize("source, environment", [
    ("a + 1 / b", {"a": "label", "b": 1}),   # type clash: TypeError cause
    ("a + 1 / b", {"a": 1, "b": 0}),         # division by zero: no cause
    ("sqrt(a)", {"a": -1}),                  # function error: ValueError
    ("ghost + a", {"a": 1})])                # unknown name: no cause
def test_raised_error_is_the_interpreters(source, environment):
    expression = parse_expression(source)
    with pytest.raises(ExpressionEvalError) as expected:
        ExpressionEvaluator().evaluate(expression, environment)
    with pytest.raises(ExpressionEvalError) as raised:
        compile_expression(expression)(environment)
    assert str(raised.value) == str(expected.value)
    assert type(raised.value.__cause__) is type(expected.value.__cause__)
    # the source's own exception is not chained onto the error
    assert type(raised.value.__context__) \
        is type(expected.value.__context__)


def test_raising_custom_function_matches_interpreter_in_a_flat_step():
    calls = []

    def fragile(x):
        calls.append(x)
        if x > 2:
            raise ValueError("too big")
        return x * 10

    dfd = DataFlowDiagram("Custom")
    dfd.add_input("u")
    dfd.add_output("y")
    block = ExpressionComponent("F", {"out": "fragile(a) + 1"},
                                evaluator=ExpressionEvaluator(
                                    {"fragile": fragile}))
    block.add_input("a")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "F.a")
    dfd.connect("F.out", "y")
    simulator = CompiledSimulator(dfd, backend="flat")
    assert simulator.run({"u": [1, 2]}, 2).output("y").values() == [11, 21]
    with pytest.raises(ExpressionEvalError) as raised:
        simulator.run({"u": [3]}, 1)
    assert str(raised.value) == "error calling fragile: too big"
    assert type(raised.value.__cause__) is ValueError
    # the raising call runs twice: once in the source, once when the
    # interpreter re-evaluates the expression for its error
    assert calls == [1, 2, 3, 3]

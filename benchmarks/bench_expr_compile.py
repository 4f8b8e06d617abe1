"""[P5] Expressions as generated source vs the AST-walking evaluator.

Not a paper figure: quantifies the compile-once/run-many split at the
expression level (:mod:`repro.core.expr_compile`).  Guards, actions and
output expressions are evaluated thousands of times per scenario search but
never change shape; compiling them to generated Python source (run
through :func:`compile_expression`'s function) removes the per-evaluation
``isinstance`` dispatch walk.  The acceptance gate is >= 2x on an
expression-heavy workload -- a deep base-language expression evaluated over
many mixed present/absent environments -- with identical results.  A
second comparison times the compiled STD tables against the interpreted
``react`` on a transition-heavy state machine.  Both gates take the median
of interleaved run-pair ratios (:func:`_bench_utils.median_paired_ratio`),
so one slow stretch of a shared host cannot decide them.
"""

from repro.core.expr_compile import compile_expression
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.expr_parser import parse_expression
from repro.core.values import ABSENT
from repro.notations.std import StateTransitionDiagram
from repro.simulation import (CompiledSimulator, Simulator, first_difference)

from _bench_utils import median_paired_ratio, report

#: Interleaved run pairs behind each gated median.
PAIRS = 11


#: A deep expression mixing every hot construct: arithmetic, comparisons,
#: short-circuit logic, conditionals, presence tests and function calls.
EXPRESSION_SOURCE = (
    "if present(n) and n > 700 "
    "then limit(base * (1 + ped / 400) + sign(n - 3000) * 0.05 "
    "           + interpolate(t_eng, -40, 1.3, 90, 1.0), 0, 2) "
    "else (if present(ped) or present(t_eng) "
    "      then abs(base - ped / 100) + max(t_eng / 90, 0 - t_eng / 40) "
    "      else base * 0)")


def _environments(count=400):
    environments = []
    for index in range(count):
        environments.append({
            "n": ABSENT if index % 7 == 0 else float(index % 5000),
            "ped": ABSENT if index % 11 == 0 else float(index % 100),
            "t_eng": float(index % 130) - 40.0,
            "base": 1.0 + (index % 4) * 0.1,
        })
    return environments


def test_p5_source_vs_ast_walk_gate():
    """Acceptance gate: generated source >= 2x over the AST walk."""
    expression = parse_expression(EXPRESSION_SOURCE)
    evaluator = ExpressionEvaluator()
    compiled = compile_expression(expression)
    environments = _environments()
    rounds = 40

    expected = [evaluator.evaluate(expression, env) for env in environments]
    actual = [compiled(env) for env in environments]
    assert expected == actual

    def run_interpreter():
        evaluate = evaluator.evaluate
        for _ in range(rounds):
            for env in environments:
                evaluate(expression, env)

    def run_compiled():
        for _ in range(rounds):
            for env in environments:
                compiled(env)

    speedup, t_source, t_walk = median_paired_ratio(
        run_compiled, run_interpreter, PAIRS)
    evaluations = rounds * len(environments)
    report("P5", f"{evaluations} evaluations of a depth-heavy expression "
                 f"(median of {PAIRS} pairs): AST walk {t_walk:.3f}s, "
                 f"generated source {t_source:.3f}s -> {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"generated source only {speedup:.1f}x faster than the AST walk")


def _transition_heavy_std(n_states=6, guards_per_state=10):
    """A state machine whose tick cost is dominated by guard evaluation."""
    std = StateTransitionDiagram("Sequencer")
    std.add_input("x")
    std.add_output("out")
    std.add_output("state")
    std.add_variable("count", 0)
    for index in range(n_states):
        std.add_state(f"S{index}", emissions={"out": f"x * {index + 1} + count"})
    for index in range(n_states):
        for guard_index in range(guards_per_state):
            std.add_transition(
                f"S{index}", f"S{(index + guard_index) % n_states}",
                f"x > {100 + guard_index * 10} and x <= {110 + guard_index * 10}",
                actions={"count": "count + 1"},
                priority=guard_index)
    return std


def test_p5_compiled_std_vs_interpreter():
    """Compiled per-state tables beat the interpreted react tick loop."""
    ticks = 3000
    std = _transition_heavy_std()
    stimuli = {"x": [float((tick * 13) % 200) for tick in range(ticks)]}

    reference = Simulator(std)
    compiled = CompiledSimulator(std)
    assert first_difference(reference.run(stimuli, ticks),
                            compiled.run(stimuli, ticks)) is None

    speedup, t_compiled, t_reference = median_paired_ratio(
        lambda: compiled.run(stimuli, ticks),
        lambda: reference.run(stimuli, ticks), PAIRS)
    report("P5", f"transition-heavy STD, {ticks} ticks (median of {PAIRS} "
                 f"pairs): interpreter {t_reference:.3f}s, compiled "
                 f"{t_compiled:.3f}s -> {speedup:.1f}x")
    assert speedup >= 1.5, (
        f"compiled STD only {speedup:.1f}x faster than the interpreter")

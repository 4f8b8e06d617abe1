"""Direct unit tests of the hierarchical causality analysis
(``repro.simulation.causality``) and its lint-registry promotion.
"""

import pytest

from repro.core.components import ExpressionComponent
from repro.core.errors import CausalityError
from repro.core.validation import Severity
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation.causality import (analyze_causality, assert_causal,
                                        instantaneous_path_exists)


def _expr(name, out_expr, inputs):
    comp = ExpressionComponent(name, {"out": out_expr})
    for port in inputs:
        comp.add_input(port)
    comp.add_output("out")
    return comp


def _loop(delayed=False):
    dfd = DataFlowDiagram("Loop")
    dfd.add_input("x")
    dfd.add_output("out")
    first = _expr("F", "a + b", ["a", "b"])
    second = _expr("G", "c * 2", ["c"])
    dfd.add_subcomponent(first)
    dfd.add_subcomponent(second)
    dfd.connect("x", "F.a")
    dfd.connect("F.out", "G.c")
    dfd.connect("F.out", "out")
    if delayed:
        delay = UnitDelay("Z", initial=0)
        dfd.add_subcomponent(delay)
        dfd.connect("G.out", "Z.in1")
        dfd.connect("Z.out", "F.b")
    else:
        dfd.connect("G.out", "F.b")
    return dfd


def _nested_loop():
    top = DataFlowDiagram("Top")
    top.add_input("x")
    top.add_output("out")
    inner = _loop()
    top.add_subcomponent(inner)
    top.connect("x", "Loop.x")
    top.connect("Loop.out", "out")
    return top


def test_acyclic_model_is_causal():
    analysis = analyze_causality(_loop(delayed=True))
    assert analysis.is_causal
    assert not analysis.cycles()
    assert analysis.composite_count() == 1
    order = analysis.results[0].order
    assert order.index("F") < order.index("G")


def test_instantaneous_loop_is_detected_with_members():
    analysis = analyze_causality(_loop())
    assert not analysis.is_causal
    cycles = analysis.cycles()
    assert len(cycles) == 1
    assert cycles[0].cycle == ["F", "G"]


def test_delay_breaks_the_loop():
    # the same topology is causal once the feedback edge goes through Z
    assert analyze_causality(_loop(delayed=True)).is_causal


def test_nested_composites_are_all_analysed():
    analysis = analyze_causality(_nested_loop())
    assert analysis.composite_count() == 2
    cycles = analysis.cycles()
    assert len(cycles) == 1
    assert cycles[0].component.endswith("Loop")


def test_atomic_root_has_no_results():
    analysis = analyze_causality(_expr("Solo", "a", ["a"]))
    assert analysis.is_causal
    assert analysis.composite_count() == 0


def test_assert_causal_raises_with_cycle_members():
    with pytest.raises(CausalityError, match="F, G"):
        assert_causal(_loop())
    assert assert_causal(_loop(delayed=True)).is_causal


def test_to_report_severities():
    report = analyze_causality(_nested_loop()).to_report()
    errors = [e for e in report.findings if e.severity is Severity.ERROR]
    infos = [e for e in report.findings if e.severity is Severity.INFO]
    assert len(errors) == 1 and errors[0].rule == "causality"
    assert len(infos) == 1  # the causal Top composite still reports its order
    assert errors[0].suggestion


def test_instantaneous_path_exists():
    model = _loop(delayed=True)
    assert instantaneous_path_exists(model, "F", "G")
    # the feedback path G -> F goes through the delay, so no
    # instantaneous dependency runs backwards
    assert not instantaneous_path_exists(model, "G", "F")


def test_lint_registry_promotion():
    report = analyze_causality(_loop()).to_report()
    findings = report.by_rule("causality")
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors and "F" in errors[0].message and "G" in errors[0].message

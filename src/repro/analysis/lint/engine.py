"""The lint engine: one entry point per subject kind, one report out.

* :func:`lint_component` -- model-level analysis of a component hierarchy:
  whole-hierarchy causality, expression abstract interpretation of every
  :class:`ExpressionComponent`, and the machine-level checks of every
  MTD/STD (including mode behaviours and clock-gated inners);
* :func:`~.ir_verify.lint_flat_schedule` -- IR dataflow verification of a
  compiled :class:`~repro.simulation.schedule_ir.FlatSchedule`;
* :func:`lint_model` -- both: the hierarchy *and*, when the model is
  flattenable, the schedule it compiles to;
* :func:`verify_component` -- :func:`lint_model` that raises
  :class:`~repro.core.errors.ValidationError` on any error finding.

Every entry point returns a :class:`~repro.core.validation.ValidationReport`
of :class:`~repro.core.validation.Finding` objects, the one report class the
notation rule sets and the model-level analyses (``analyze_causality``,
``check_well_definedness``, ``analyze_conflicts``) fill too.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ...core.components import (Component, CompositeComponent,
                                ExpressionComponent)
from ...core.errors import SimulationError
from ...core.validation import ValidationReport
from ...notations.mtd import ModeTransitionDiagram
from ...simulation.causality import analyze_causality
from ...simulation.schedule_ir import compile_flat, is_flattenable
from .expr_check import lint_expression_component
from .ir_verify import lint_flat_schedule
from .machine_check import lint_machines


def _walk_components(component: Component,
                     path: Optional[str] = None
                     ) -> Iterator[Tuple[str, Component]]:
    """Every component below (and including) *component*, with paths.

    Unlike ``CompositeComponent.walk`` this descends through clock-gating
    wrappers (their ``inner``) and into MTD mode behaviours, so expression
    components buried anywhere in the hierarchy are linted.
    """
    if path is None:
        path = component.name
    yield path, component
    inner = getattr(component, "inner", None)
    if isinstance(inner, Component):
        yield from _walk_components(inner, path)
        return
    if isinstance(component, ModeTransitionDiagram):
        for mode in component.modes():
            if mode.behavior is not None:
                yield from _walk_components(mode.behavior,
                                            f"{path}/{mode.name}")
    elif isinstance(component, CompositeComponent):
        for sub in component.subcomponents():
            yield from _walk_components(sub, f"{path}/{sub.name}")


def lint_component(component: Component,
                   subject: Optional[str] = None) -> ValidationReport:
    """Model-level lint of a component hierarchy (no compilation needed)."""
    report = ValidationReport(subject or component.name)
    report.extend(analyze_causality(component).cycle_findings())

    for path, sub in _walk_components(component):
        if isinstance(sub, ExpressionComponent):
            report.extend(lint_expression_component(sub, path))

    report.extend(lint_machines(component))
    return report


def lint_model(component: Component) -> ValidationReport:
    """Full lint: the hierarchy plus (when flattenable) its compiled IR."""
    report = lint_component(component)
    if component.has_behavior() and not report.errors() \
            and is_flattenable(component):
        try:
            schedule = compile_flat(component)
        except SimulationError:
            # not compilable as-is (e.g. unsupported leaf): model-level
            # findings still stand, the IR layer simply has no subject
            return report
        report.merge(lint_flat_schedule(
            schedule, subject=f"{report.subject} [flat IR]"))
    return report


def verify_component(component: Component) -> ValidationReport:
    """Lint and raise :class:`ValidationError` on any error finding."""
    report = lint_model(component)
    report.raise_on_errors()
    return report

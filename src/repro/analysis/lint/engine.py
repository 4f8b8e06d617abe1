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
  :class:`~repro.core.errors.ValidationError` on any error finding;
* :func:`lint_well_definedness` / :func:`lint_conflicts` /
  :func:`lint_causality` -- the legacy LA/FAA analyses adopted into the
  unified :class:`Finding` schema (stable rule ids preserved), so every
  analysis in the repository exports through one JSON/SARIF path.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ...core.components import (Component, CompositeComponent,
                                ExpressionComponent)
from ...core.errors import SimulationError
from ...notations.ccd import ClusterCommunicationDiagram
from ...notations.mtd import ModeTransitionDiagram
from ...simulation.causality import analyze_causality
from ...simulation.schedule_ir import compile_flat, is_flattenable
from .expr_check import lint_expression_component
from .findings import Finding, LintReport, findings_from_report
from .ir_verify import lint_flat_schedule
from .machine_check import lint_machines
from .registry import get_rule


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
                   subject: Optional[str] = None) -> LintReport:
    """Model-level lint of a component hierarchy (no compilation needed)."""
    report = LintReport(subject or component.name)

    analysis = analyze_causality(component)
    for result in analysis.cycles():
        rule = get_rule("causality")
        report.add(Finding(
            rule="causality", severity=rule.default_severity,
            message=f"{result.component!r}: instantaneous loop through "
                    f"{', '.join(result.cycle)}",
            element=result.component,
            suggestion="insert a unit delay or an SSD-level (delayed) "
                       "channel into the loop",
            location={"cycle": list(result.cycle)}))

    for path, sub in _walk_components(component):
        if isinstance(sub, ExpressionComponent):
            report.extend(lint_expression_component(sub, path))

    report.extend(lint_machines(component))
    return report


def lint_model(component: Component) -> LintReport:
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


def verify_component(component: Component) -> LintReport:
    """Lint and raise :class:`ValidationError` on any error finding."""
    report = lint_model(component)
    report.raise_on_errors()
    return report


# ---------------------------------------------------------------------------
# Legacy analyses adopted into the unified schema (satellite: one export
# path for check_well_definedness / check_rate_transitions /
# analyze_conflicts / causality, stable rule ids preserved).
# ---------------------------------------------------------------------------


def lint_causality(component: Component) -> LintReport:
    """Whole-hierarchy causality as a :class:`LintReport` (rule
    ``causality``), including the per-composite evaluation-order infos."""
    legacy = analyze_causality(component).to_report()
    report = LintReport(legacy.subject)
    report.extend(findings_from_report(legacy))
    return report


def lint_well_definedness(ccd: ClusterCommunicationDiagram,
                          profile=None) -> LintReport:
    """LA-level CCD well-definedness (rule ``ccd-rate-transition`` plus the
    CCD notation rules) in the unified schema."""
    from ..well_definedness import OSEK_FIXED_PRIORITY, check_well_definedness
    legacy = check_well_definedness(ccd, profile or OSEK_FIXED_PRIORITY)
    report = LintReport(legacy.subject)
    report.extend(findings_from_report(legacy))
    return report


def lint_conflicts(network: CompositeComponent) -> LintReport:
    """FAA conflict analysis (rules ``faa-actuator-conflict`` /
    ``faa-shared-sensor``) in the unified schema."""
    from ..conflicts import analyze_conflicts
    legacy = analyze_conflicts(network).to_report()
    report = LintReport(legacy.subject)
    report.extend(findings_from_report(legacy))
    return report

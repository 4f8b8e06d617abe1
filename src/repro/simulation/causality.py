"""Hierarchical causality analysis (paper Sec. 3.2).

"In the AutoMoDe tool prototype, instantaneous communication primitives are
accompanied by a causality check for detecting instantaneous loops."  The
single-diagram check lives on :class:`CompositeComponent.evaluation_order`;
this module provides the whole-hierarchy analysis: it walks every composite
in a model, collects instantaneous cycles, and produces a report that the
FDA validation and the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..core.components import Component, CompositeComponent
from ..core.errors import CausalityError
from ..core.validation import Finding, Severity, ValidationReport


@dataclass
class CausalityResult:
    """Result of analysing one composite component."""

    component: str
    order: List[str] = field(default_factory=list)
    cycle: List[str] = field(default_factory=list)

    @property
    def is_causal(self) -> bool:
        return not self.cycle


@dataclass
class CausalityAnalysis:
    """Aggregated causality results for a whole component hierarchy."""

    root: str
    results: List[CausalityResult] = field(default_factory=list)

    @property
    def is_causal(self) -> bool:
        return all(result.is_causal for result in self.results)

    def cycles(self) -> List[CausalityResult]:
        return [result for result in self.results if not result.is_causal]

    def composite_count(self) -> int:
        return len(self.results)

    def cycle_findings(self) -> List[Finding]:
        """One ``causality`` error finding per instantaneous loop."""
        return [_cycle_finding(result) for result in self.cycles()]

    def to_report(self) -> ValidationReport:
        """The loops as errors, every causal composite's order as an info."""
        report = ValidationReport(f"causality of {self.root!r}")
        for result in self.results:
            if result.is_causal:
                report.info("causality",
                            f"{result.component!r}: evaluation order "
                            f"{' -> '.join(result.order) if result.order else '(empty)'}",
                            element=result.component)
            else:
                report.add(_cycle_finding(result))
        return report


def _cycle_finding(result: CausalityResult) -> Finding:
    return Finding(
        "causality", Severity.ERROR,
        f"{result.component!r}: instantaneous loop through "
        f"{', '.join(result.cycle)}",
        element=result.component,
        suggestion="insert a unit delay or an SSD-level (delayed) channel "
                   "into the loop",
        location={"cycle": list(result.cycle)})


def analyze_causality(root: Component) -> CausalityAnalysis:
    """Analyse every composite in the hierarchy below *root*."""
    analysis = CausalityAnalysis(root=root.name)
    if not isinstance(root, CompositeComponent):
        return analysis
    for path, component in root.walk():
        if not isinstance(component, CompositeComponent):
            continue
        result = CausalityResult(component=path)
        try:
            result.order = component.evaluation_order()
        except CausalityError:
            result.cycle = _cycle_members(component)
        analysis.results.append(result)
    return analysis


def assert_causal(root: Component) -> CausalityAnalysis:
    """Run the analysis and raise :class:`CausalityError` on any cycle."""
    analysis = analyze_causality(root)
    cycles = analysis.cycles()
    if cycles:
        details = "; ".join(
            f"{result.component}: {', '.join(result.cycle)}" for result in cycles)
        raise CausalityError(f"instantaneous loops detected: {details}")
    return analysis


def _cycle_members(component: CompositeComponent) -> List[str]:
    """Identify the sub-components on instantaneous cycles (Kahn residue)."""
    graph = component.instantaneous_subgraph()
    in_degree: Dict[str, int] = {name: 0 for name in graph}
    for _, targets in graph.items():
        for target in targets:
            in_degree[target] += 1
    ready = [name for name, degree in in_degree.items() if degree == 0]
    removed: Set[str] = set()
    while ready:
        current = ready.pop()
        removed.add(current)
        for target in graph[current]:
            in_degree[target] -= 1
            if in_degree[target] == 0:
                ready.append(target)
    return sorted(name for name in graph if name not in removed)


def instantaneous_path_exists(component: CompositeComponent,
                              source: str, target: str) -> bool:
    """True if an instantaneous dependency path runs from one block to another."""
    graph = component.instantaneous_subgraph()
    frontier = [source]
    visited: Set[str] = set()
    while frontier:
        current = frontier.pop()
        if current == target and current != source or (
                current == target and source != target and current in visited):
            return True
        for successor in graph.get(current, ()):  # type: ignore[arg-type]
            if successor == target:
                return True
            if successor not in visited:
                visited.add(successor)
                frontier.append(successor)
    return False

"""Greedy battery minimization.

A successful search ends with a corpus in which every scenario earned
coverage *at the moment it was absorbed* -- but later scenarios routinely
subsume earlier ones (a drive profile that reaches ``Overrun`` usually
passes through everything a ``Cranking``-only scenario contributed).  This
module re-runs the final corpus once, computes each scenario's absolute
coverage contribution, and keeps a greedy set cover: scenarios are picked
by largest marginal contribution (original order breaking ties) until the
union of the kept scenarios equals the union of the whole corpus, and
everything else is dropped.

The result is the *minimized battery*: the regression suite a validation
team would actually commit, typically a small fraction of the corpus with
identical mode/transition coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from ..core.components import Component
from ..scenarios.generators import Scenario
from ..scenarios.report import BatchReport
from ..scenarios.runner import run_sharded

#: One coverage item owned by a scenario: ("mode"|"transition", path, key).
CoverageItem = Tuple[str, str, Any]


@dataclass
class MinimizationOutcome:
    """The kept/dropped split of one minimization pass."""

    kept: List[Scenario] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)
    evaluations: int = 0
    covered_items: int = 0

    def kept_names(self) -> List[str]:
        return [scenario.name for scenario in self.kept]


def _contribution(report: BatchReport, result: Any) -> Set[CoverageItem]:
    """The declared modes and transitions one result exercised."""
    items: Set[CoverageItem] = set()
    for path, (modes, pairs) in report.visited(result).items():
        coverage = report.coverage[path]
        items.update(("mode", path, mode)
                     for mode in modes.intersection(coverage.declared_modes))
        items.update(("transition", path, pair)
                     for pair in pairs & coverage.declared_transition_pairs())
    return items


def minimize_battery(component: Component, scenarios: Sequence[Scenario],
                     *, executor: str = "serial",
                     max_workers: Optional[int] = None
                     ) -> MinimizationOutcome:
    """Re-run *scenarios* once and drop every one that adds no coverage.

    Greedy maximum-marginal-contribution set cover over the declared
    modes/transitions the battery exercises; deterministic (ties break in
    battery order) and executor-independent, because contributions are
    derived from the traces, which are byte-identical across executors.
    Failed scenarios contribute nothing and are always dropped.
    """
    battery = list(scenarios)
    outcome = MinimizationOutcome()
    if not battery:
        return outcome
    report = BatchReport.for_component(component)
    results = run_sharded(component, battery, executor=executor,
                          max_workers=max_workers, collect_modes=True)
    outcome.evaluations = len(results)
    contributions: List[Set[CoverageItem]] = [
        _contribution(report, result) for result in results]
    target: Set[CoverageItem] = set()
    for items in contributions:
        target |= items
    outcome.covered_items = len(target)

    covered: Set[CoverageItem] = set()
    remaining = list(range(len(battery)))
    kept_indices: List[int] = []
    while covered != target:
        best_index = None
        best_marginal = 0
        for index in remaining:
            marginal = len(contributions[index] - covered)
            if marginal > best_marginal:
                best_index, best_marginal = index, marginal
        if best_index is None:  # nothing adds anything anymore
            break
        kept_indices.append(best_index)
        covered |= contributions[best_index]
        remaining.remove(best_index)

    kept_set = set(kept_indices)
    outcome.kept = [battery[index] for index in sorted(kept_indices)]
    outcome.dropped = [battery[index].name for index in range(len(battery))
                       if index not in kept_set]
    return outcome

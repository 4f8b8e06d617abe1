"""Coverage-gain fitness for the scenario search.

The search does not optimise a scalar objective; it chases the coverage
its :class:`~repro.scenarios.report.BatchReport` has not seen yet: the
declared modes and mode transitions (over every MTD and STD in the
hierarchy) that no evaluated scenario has exercised, plus the numeric value
ranges the boundary ports have seen.  :func:`absorb` folds one result into
that report and returns the :class:`CoverageGain` it contributed *relative
to everything folded before it* -- per-scenario attribution in evaluation
order, so the corpus keeps exactly the scenarios that earned coverage and
culls the rest.

The report is the search's only coverage state: gains, coverage ratios,
the stop check and transition targeting all read it, and observation
semantics are the report's own (:meth:`BatchReport.visited`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..scenarios.report import BatchReport, PortStats

#: One coverage item: ``(machine_path, mode_name)`` or
#: ``(machine_path, (source, target))``.
ModeItem = Tuple[str, str]
TransitionItem = Tuple[str, Tuple[str, str]]


@dataclass(frozen=True)
class CoverageGain:
    """What one scenario added to the search's coverage when absorbed."""

    new_modes: Tuple[ModeItem, ...] = ()
    new_transitions: Tuple[TransitionItem, ...] = ()
    port_novelty: float = 0.0

    def earned(self) -> bool:
        """Did the scenario extend the coverage at all?"""
        return bool(self.new_modes or self.new_transitions
                    or self.port_novelty > 0.0)

    def score(self) -> float:
        """Scalar ranking used to order corpus entries: transitions are the
        search target, modes are stepping stones, port novelty is a
        tie-breaker that keeps range-exploring scenarios alive."""
        return (10.0 * len(self.new_transitions)
                + 4.0 * len(self.new_modes)
                + min(self.port_novelty, 1.0))


def _extent(stats: Optional[PortStats]) -> Tuple[Any, Any]:
    return (None, None) if stats is None else (stats.minimum, stats.maximum)


def absorb(report: BatchReport, result: Any) -> CoverageGain:
    """Fold one result into *report* and return what it added.

    New modes and transitions are the declared ones the result visited
    that the report had not: the report's visited sets are read before and
    after the one fold.  Port novelty is read off each trace port's
    :class:`~repro.scenarios.report.PortStats` range before and after the
    fold too: a port's first numeric range counts one unit, and each side the
    result pushed outward counts its extension relative to the known span
    (floored at 1.0), capped at one unit -- a small, bounded reward that
    keeps scenarios exploring new value territory alive even when they take
    no new transition.  Failed results add nothing.
    """
    seen = {path: (set(coverage.visited_modes),
                   set(coverage.visited_transitions))
            for path, coverage in report.coverage.items()}
    trace = getattr(result, "trace", None)
    pools = () if trace is None else (
        (trace.outputs, report.output_stats),
        (trace.inputs, report.input_stats))
    known = [[_extent(stats.get(name)) for name in streams]
             for streams, stats in pools]
    report.observe_result(result)
    new_modes: List[ModeItem] = []
    new_transitions: List[TransitionItem] = []
    for path, (modes, pairs) in sorted(seen.items()):
        coverage = report.coverage[path]
        new_modes.extend((path, mode) for mode in sorted(
            (coverage.visited_modes - modes).intersection(
                coverage.declared_modes)))
        new_transitions.extend((path, pair) for pair in sorted(
            (coverage.visited_transitions - pairs)
            & coverage.declared_transition_pairs()))
    novelty = 0.0
    for (streams, stats), extents in zip(pools, known):
        for name, (known_low, known_high) in zip(streams, extents):
            low, high = _extent(stats.get(name))
            if low is None:
                continue
            if known_low is None:
                novelty += 1.0
                continue
            span = max(known_high - known_low, 1.0)
            if low < known_low:
                novelty += min((known_low - low) / span, 1.0)
            if high > known_high:
                novelty += min((high - known_high) / span, 1.0)
    return CoverageGain(tuple(new_modes), tuple(new_transitions), novelty)

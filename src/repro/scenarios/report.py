"""Batch aggregation and coverage reporting for scenario runs.

Running hundreds of generated scenarios is only useful if the batch can be
*judged*: did the battery actually exercise the operational modes the model
declares (the paper's central modelling element, Sec. 5), which value ranges
did the boundary ports see, and which scenarios failed?  This module turns a
list of :class:`~repro.scenarios.runner.ScenarioResult` records into a
:class:`BatchReport` with

* **mode coverage** -- for every MTD and STD in the hierarchy (found via
  :func:`repro.analysis.mode_analysis.machine_inventory`), the set of
  modes/states and ``source -> target`` transition pairs exercised across
  the whole batch, against the declared ones,
* **port statistics** -- presence counts and numeric value ranges per
  boundary port across all traces,
* **failure roll-ups** -- per-scenario errors isolated by the sharded
  runner,

plus JSON export (via :mod:`repro.io` for the embedded traces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.mode_analysis import machine_inventory
from ..core.components import Component
from ..core.errors import SimulationError
from ..core.values import ABSENT
from ..io.json_io import trace_to_json_dict


def fold_mode_history(history: Sequence[Any], initial: Optional[Any]
                      ) -> Tuple[Set[Any], Set[Tuple[Any, Any]]]:
    """Fold one per-tick mode history into (visited modes, change pairs).

    Histories record the *post*-step mode of every tick, so a non-empty
    history is seeded with the machine's declared initial mode: the machine
    was in it before tick 0, and a guard firing at tick 0 is a transition
    out of it.  ``None`` entries (ticks without an observation) are
    skipped.  This is the single definition of observation semantics:
    :meth:`BatchReport.visited` folds through it, and batch reporting,
    search fitness and battery minimization all read that.
    """
    modes: Set[Any] = set()
    pairs: Set[Tuple[Any, Any]] = set()
    previous = None
    if history and initial is not None:
        modes.add(initial)
        previous = initial
    for mode in history:
        if mode is None:
            continue
        modes.add(mode)
        if previous is not None and previous != mode:
            pairs.add((previous, mode))
        previous = mode
    return modes, pairs


@dataclass
class ModeCoverage:
    """Coverage of one mode machine (MTD or STD) across a scenario batch."""

    path: str
    kind: str
    declared_modes: List[str]
    declared_transitions: List[Tuple[str, str]]
    initial: Optional[str] = None
    visited_modes: Set[str] = field(default_factory=set)
    visited_transitions: Set[Tuple[str, str]] = field(default_factory=set)

    def merge(self, other: "ModeCoverage") -> None:
        """Fold another machine's observations into this one (same machine)."""
        if other.path != self.path:
            raise SimulationError(
                f"cannot merge coverage of machine {other.path!r} into "
                f"{self.path!r}")
        self.visited_modes |= other.visited_modes
        self.visited_transitions |= other.visited_transitions

    # observed transitions are mode-change pairs; a declared self-loop or a
    # second transition sharing (source, target) cannot be told apart from
    # the state sequence alone, so coverage is over distinct pairs
    def declared_transition_pairs(self) -> Set[Tuple[str, str]]:
        return {pair for pair in self.declared_transitions
                if pair[0] != pair[1]}

    def mode_coverage(self) -> float:
        if not self.declared_modes:
            return 1.0
        covered = self.visited_modes & set(self.declared_modes)
        return len(covered) / len(self.declared_modes)

    def transition_coverage(self) -> float:
        pairs = self.declared_transition_pairs()
        if not pairs:
            return 1.0
        return len(self.visited_transitions & pairs) / len(pairs)

    def unvisited_modes(self) -> List[str]:
        return [mode for mode in self.declared_modes
                if mode not in self.visited_modes]

    def untaken_transitions(self) -> List[Tuple[str, str]]:
        return sorted(self.declared_transition_pairs()
                      - self.visited_transitions)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "kind": self.kind,
            "declared_modes": list(self.declared_modes),
            "visited_modes": sorted(str(m) for m in self.visited_modes),
            "unvisited_modes": self.unvisited_modes(),
            "mode_coverage": self.mode_coverage(),
            "declared_transitions": sorted(self.declared_transition_pairs()),
            "visited_transitions": sorted(self.visited_transitions),
            "untaken_transitions": self.untaken_transitions(),
            "transition_coverage": self.transition_coverage(),
        }


#: The exact types the numeric test of :class:`PortStats` passes at once.
_EXACT_NUMBERS = (float, int)


def _numeric(value: Any) -> bool:
    """Whether *value* widens a numeric range (bools are sampled instead)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class PortStats:
    """Presence and value-range statistics of one port across a batch.

    All folds are order-insensitive: counters add, ranges widen, and the
    non-numeric ``value_sample`` is kept canonical (the ``_SAMPLE_CAP``
    smallest distinct values by string order), so streaming results in
    completion order -- or merging shard reports in any order -- yields the
    same statistics as a single ordered pass.
    """

    port: str
    total_ticks: int = 0
    present_ticks: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    value_sample: List[Any] = field(default_factory=list)
    _SAMPLE_CAP = 12

    def _sample(self, value: Any) -> None:
        if value in self.value_sample:
            return
        self.value_sample.append(value)
        self.value_sample.sort(key=str)
        del self.value_sample[self._SAMPLE_CAP:]

    def observe(self, value: Any) -> None:
        self.observe_column((value,))

    def observe_column(self, values: Sequence[Any]) -> None:
        """Fold one port's per-tick values, in tick order.

        The same left fold as observing value by value: ``min`` / ``max``
        seeded with the previous bound keep the first of equal values and
        pass over NaN exactly as a pairwise fold does, and only non-numeric
        values (bools included) reach the sample -- each run of one
        repeated object once, which is exact since :meth:`_sample` is
        idempotent.
        """
        self.total_ticks += len(values)
        present = [value for value in values if value is not ABSENT]
        self.present_ticks += len(present)
        numbers = [value for value in present
                   if type(value) in _EXACT_NUMBERS or _numeric(value)]
        if numbers:
            if self.minimum is None:
                self.minimum, self.maximum = min(numbers), max(numbers)
            else:
                self.minimum = min(self.minimum, *numbers)
                self.maximum = max(self.maximum, *numbers)
        if len(numbers) == len(present):
            return
        previous: Any = ABSENT
        for value in present:
            if value is not previous and not _numeric(value):
                self._sample(value)
                previous = value

    def merge(self, other: "PortStats") -> None:
        """Fold another batch's statistics of the same port into this one."""
        self.total_ticks += other.total_ticks
        self.present_ticks += other.present_ticks
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            self.minimum = bound if self.minimum is None \
                else min(self.minimum, bound)
            self.maximum = bound if self.maximum is None \
                else max(self.maximum, bound)
        for value in other.value_sample:
            self._sample(value)

    def presence_ratio(self) -> float:
        return self.present_ticks / self.total_ticks if self.total_ticks else 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "port": self.port,
            "total_ticks": self.total_ticks,
            "present_ticks": self.present_ticks,
            "presence_ratio": self.presence_ratio(),
            "min": self.minimum,
            "max": self.maximum,
            "value_sample": [str(v) for v in self.value_sample],
        }


@dataclass
class BatchReport:
    """Aggregated outcome of one scenario batch."""

    component_name: str
    total: int = 0
    succeeded: int = 0
    failed: int = 0
    total_ticks: int = 0
    total_duration: float = 0.0
    failures: Dict[str, str] = field(default_factory=dict)
    scenario_ticks: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, ModeCoverage] = field(default_factory=dict)
    output_stats: Dict[str, PortStats] = field(default_factory=dict)
    input_stats: Dict[str, PortStats] = field(default_factory=dict)

    # -- construction ------------------------------------------------------
    @classmethod
    def for_component(cls, component: Component) -> "BatchReport":
        """An empty report primed with the component's declared machines.

        Results are folded in one at a time with :meth:`observe_result`,
        which is what lets streamed batches and multi-round searches
        aggregate coverage incrementally instead of re-scanning all prior
        traces.
        """
        report = cls(component_name=component.name)
        for info in machine_inventory(component):
            report.coverage[info.path] = ModeCoverage(
                path=info.path, kind=info.kind,
                declared_modes=list(info.modes),
                declared_transitions=list(info.transitions),
                initial=info.initial)
        return report

    @classmethod
    def from_results(cls, component: Component,
                     results: Sequence[Any]) -> "BatchReport":
        """Aggregate :class:`~repro.scenarios.runner.ScenarioResult` records.

        Results only need ``name`` / ``trace`` / ``error`` / ``duration`` /
        ``mode_paths`` attributes, so serial runs and hand-built records
        aggregate the same way as sharded ones.
        """
        report = cls.for_component(component)
        for result in results:
            report.observe_result(result)
        return report

    def observe_result(self, result: Any) -> None:
        """Fold one scenario result into the aggregate."""
        self.total += 1
        self.total_duration += getattr(result, "duration", 0.0) or 0.0
        if getattr(result, "error", None) is not None:
            self.failed += 1
            self.failures[result.name] = result.error
            return
        self.succeeded += 1
        trace = result.trace
        if trace is not None:
            self.scenario_ticks[result.name] = trace.ticks
            self.total_ticks += trace.ticks
            for name, stream in trace.outputs.items():
                stats = self.output_stats.setdefault(name, PortStats(name))
                stats.observe_column(stream)
            for name, stream in trace.inputs.items():
                stats = self.input_stats.setdefault(name, PortStats(name))
                stats.observe_column(stream)
        for path, (modes, pairs) in self.visited(result).items():
            coverage = self.coverage[path]
            coverage.visited_modes |= modes
            coverage.visited_transitions |= pairs

    def visited(self, result: Any) -> Dict[str, Tuple[Set[Any],
                                                      Set[Tuple[Any, Any]]]]:
        """The (modes, change pairs) one result exercised, per declared
        machine, folded with :func:`fold_mode_history`.

        Failed results exercise nothing.  Results carrying per-machine
        ``mode_paths`` histories (``collect_modes=True`` runs) reach every
        declared machine they name; otherwise the root machine's
        ``trace.mode_history`` recorded by the engines still counts.  The
        sets are not clipped to the declared modes and pairs.
        """
        if getattr(result, "error", None) is not None:
            return {}
        mode_paths = getattr(result, "mode_paths", None)
        trace = getattr(result, "trace", None)
        if mode_paths:
            histories = mode_paths
        elif trace is not None and trace.mode_history:
            histories = {self.component_name: trace.mode_history}
        else:
            return {}
        return {path: fold_mode_history(history, self.coverage[path].initial)
                for path, history in histories.items()
                if path in self.coverage}

    def merge(self, other: "BatchReport") -> "BatchReport":
        """Fold another report over the *same* component into this one.

        Counters add up, failures and per-scenario ticks union (scenario
        names are unique across a well-formed multi-round batch), machine
        coverage and port statistics merge element-wise.  Merging shard
        reports is equivalent to one-shot aggregation over all results
        (``tests/test_scenario_report.py`` proves it), which is what lets a
        multi-round search aggregate rounds without re-scanning traces.
        """
        if other.component_name != self.component_name:
            raise SimulationError(
                f"cannot merge a report for {other.component_name!r} into "
                f"one for {self.component_name!r}")
        self.total += other.total
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.total_ticks += other.total_ticks
        self.total_duration += other.total_duration
        self.failures.update(other.failures)
        self.scenario_ticks.update(other.scenario_ticks)
        for path, coverage in other.coverage.items():
            if path in self.coverage:
                self.coverage[path].merge(coverage)
            else:
                self.coverage[path] = ModeCoverage(
                    path=coverage.path, kind=coverage.kind,
                    declared_modes=list(coverage.declared_modes),
                    declared_transitions=list(coverage.declared_transitions),
                    initial=coverage.initial,
                    visited_modes=set(coverage.visited_modes),
                    visited_transitions=set(coverage.visited_transitions))
        for pool_name in ("output_stats", "input_stats"):
            mine: Dict[str, PortStats] = getattr(self, pool_name)
            for name, stats in getattr(other, pool_name).items():
                if name in mine:
                    mine[name].merge(stats)
                else:
                    merged = PortStats(name)
                    merged.merge(stats)
                    mine[name] = merged
        return self

    # -- queries -----------------------------------------------------------
    def overall_mode_coverage(self) -> float:
        declared = sum(len(c.declared_modes) for c in self.coverage.values())
        if not declared:
            return 1.0
        covered = sum(len(c.visited_modes & set(c.declared_modes))
                      for c in self.coverage.values())
        return covered / declared

    def overall_transition_coverage(self) -> float:
        declared = sum(len(c.declared_transition_pairs())
                       for c in self.coverage.values())
        if not declared:
            return 1.0
        covered = sum(len(c.visited_transitions & c.declared_transition_pairs())
                      for c in self.coverage.values())
        return covered / declared

    def untaken_transitions(self) -> List[Tuple[str, Tuple[str, str]]]:
        """Every declared transition no result has taken yet, as
        ``(machine_path, (source, target))`` sorted by path, then pair."""
        return [(path, pair) for path in sorted(self.coverage)
                for pair in self.coverage[path].untaken_transitions()]

    # -- presentation ------------------------------------------------------
    def format_summary(self) -> str:
        lines = [f"scenario batch report for {self.component_name!r}:",
                 f"  scenarios: {self.total} total, {self.succeeded} ok, "
                 f"{self.failed} failed "
                 f"({self.total_ticks} ticks, {self.total_duration:.3f}s)"]
        if self.coverage:
            lines.append(f"  mode coverage: "
                         f"{100.0 * self.overall_mode_coverage():.0f}% modes, "
                         f"{100.0 * self.overall_transition_coverage():.0f}% "
                         f"transitions")
            for path in sorted(self.coverage):
                entry = self.coverage[path]
                lines.append(
                    f"    [{entry.kind}] {path}: "
                    f"{len(entry.visited_modes & set(entry.declared_modes))}"
                    f"/{len(entry.declared_modes)} modes, "
                    f"{len(entry.visited_transitions & entry.declared_transition_pairs())}"
                    f"/{len(entry.declared_transition_pairs())} transitions")
                if entry.unvisited_modes():
                    lines.append("      unvisited: "
                                 + ", ".join(map(str, entry.unvisited_modes())))
        if self.output_stats:
            lines.append("  output ranges:")
            for name in sorted(self.output_stats):
                stats = self.output_stats[name]
                span = (f"[{stats.minimum:g} .. {stats.maximum:g}]"
                        if stats.minimum is not None else "non-numeric")
                lines.append(f"    {name}: present "
                             f"{stats.present_ticks}/{stats.total_ticks} {span}")
        if self.failures:
            lines.append("  failures:")
            for name in sorted(self.failures):
                lines.append(f"    {name}: {self.failures[name]}")
        return "\n".join(lines)

    # -- export ------------------------------------------------------------
    def to_json_dict(self, results: Optional[Sequence[Any]] = None,
                     include_traces: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "component": self.component_name,
            "scenarios": {
                "total": self.total,
                "succeeded": self.succeeded,
                "failed": self.failed,
                "total_ticks": self.total_ticks,
                "total_duration_s": self.total_duration,
                "ticks_per_scenario": dict(self.scenario_ticks),
            },
            "failures": dict(self.failures),
            "coverage": {
                "overall_mode_coverage": self.overall_mode_coverage(),
                "overall_transition_coverage":
                    self.overall_transition_coverage(),
                "machines": [self.coverage[path].to_json_dict()
                             for path in sorted(self.coverage)],
            },
            "ports": {
                "outputs": [self.output_stats[name].to_json_dict()
                            for name in sorted(self.output_stats)],
                "inputs": [self.input_stats[name].to_json_dict()
                           for name in sorted(self.input_stats)],
            },
        }
        if include_traces and results is not None:
            data["traces"] = {
                result.name: trace_to_json_dict(result.trace)
                for result in results if getattr(result, "trace", None) is not None}
        return data

    def to_json(self, results: Optional[Sequence[Any]] = None,
                include_traces: bool = False, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(results, include_traces),
                          indent=indent, sort_keys=True, default=str)

    def save(self, path: str, results: Optional[Sequence[Any]] = None,
             include_traces: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(results, include_traces))

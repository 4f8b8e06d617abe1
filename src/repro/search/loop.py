"""The generational coverage-search driver.

Closes the loop that PR 2 left open: a
:class:`~repro.scenarios.report.BatchReport` *reports* untaken mode
transitions, this module *acts* on them.  Each round

1. evaluates the pending candidate battery through the existing sharded
   executor (:func:`repro.scenarios.runner.run_sharded`, any executor:
   serial, thread or process pool),
2. folds each result once into the cumulative :class:`BatchReport`
   through :func:`repro.search.fitness.absorb`, which attributes the
   coverage it gained to that scenario (no re-scan of prior traces;
   :meth:`BatchReport.merge` aggregates the same way across report
   objects, e.g. shard reports from other hosts),
3. keeps the scenarios that earned coverage in the corpus and breeds the
   next generation from them (typed mutation, segment crossover,
   guard-vocabulary exploration -- :mod:`repro.search.mutation`),

until the untaken-transition list is empty or a round / evaluation /
wall-clock budget runs out.  The finished corpus is greedily minimized
(:mod:`repro.search.minimize`) and everything is summarised in a
:class:`SearchReport` whose JSON export is **deterministic**: for a fixed
seed the corpus, the round trajectory and the exported JSON are
byte-identical across runs and across executors (traces are
executor-independent by the PR 2 guarantee, and every random decision draws
from one seeded ``random.Random``).
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.mode_analysis import machine_inventory
from ..core.components import Component
from ..core.errors import SimulationError
from ..core.expr_eval import ExpressionEvaluator
from ..core.values import is_present
from ..obs.context import current_events, current_registry, maybe_span
from ..scenarios.generators import Scenario
from ..scenarios.report import BatchReport
from ..scenarios.runner import run_sharded
from .fitness import CoverageGain, absorb
from .minimize import minimize_battery
from .mutation import (DEFAULT_MUTATORS, MutationContext, Mutator,
                       append_witness, crossover_scenarios,
                       exploration_scenario, mutate_scenario)


@dataclass
class SearchConfig:
    """Tuning knobs and budgets of one search run."""

    seed: int = 0
    max_rounds: int = 12                    #: round budget (incl. seed round)
    population: int = 16                    #: candidates bred per round
    corpus_cap: int = 24                    #: parent pool size (best-first)
    ticks: int = 40                         #: horizon of bred scenarios
    max_ticks: int = 240                    #: horizon-extension cap
    crossover_rate: float = 0.2
    exploration_rate: float = 0.2           #: fresh guard-vocabulary blood
    executor: str = "serial"
    max_workers: Optional[int] = None
    max_evaluations: Optional[int] = None   #: scenario-execution budget
    wall_clock_budget_s: Optional[float] = None
    max_stale_rounds: Optional[int] = None  #: stop after N gain-free rounds
    stop_on_full_transitions: bool = True
    minimize: bool = True                   #: greedy-minimize the corpus

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise SimulationError("search needs a round budget >= 1")
        if self.population < 1:
            raise SimulationError("search population must be >= 1")
        if self.corpus_cap < 1:
            raise SimulationError("search corpus cap must be >= 1")
        if self.ticks < 1 or self.max_ticks < self.ticks:
            raise SimulationError(
                "search needs 1 <= ticks <= max_ticks "
                f"(got ticks={self.ticks}, max_ticks={self.max_ticks})")
        if not 0.0 <= self.crossover_rate <= 1.0 \
                or not 0.0 <= self.exploration_rate <= 1.0:
            raise SimulationError(
                "crossover/exploration rates must be in [0, 1]")


@dataclass
class CorpusEntry:
    """One scenario that earned coverage, with its attribution."""

    scenario: Scenario
    gain: CoverageGain
    round_index: int


@dataclass
class RoundStats:
    """The coverage trajectory entry of one search round."""

    index: int
    evaluated: int
    failed: int
    earned: int
    new_modes: int
    new_transitions: int
    mode_coverage: float
    transition_coverage: float
    corpus_size: int
    duration_s: float = 0.0  # excluded from the default (deterministic) JSON

    def to_json_dict(self, include_timing: bool = False) -> Dict[str, Any]:
        data = {
            "round": self.index,
            "evaluated": self.evaluated,
            "failed": self.failed,
            "earned": self.earned,
            "new_modes": self.new_modes,
            "new_transitions": self.new_transitions,
            "mode_coverage": self.mode_coverage,
            "transition_coverage": self.transition_coverage,
            "corpus_size": self.corpus_size,
        }
        if include_timing:
            data["duration_s"] = self.duration_s
        return data


def _spec_repr(spec: Any) -> str:
    """A run-stable description of one stimulus specification.

    Default reprs of plain callables (a valid stimulus kind) embed memory
    addresses, which would break the byte-identical JSON guarantee; they
    are scrubbed.
    """
    return re.sub(r"0x[0-9a-fA-F]+", "0x..", repr(spec))


def _scenario_json(scenario: Scenario) -> Dict[str, Any]:
    return {
        "name": scenario.name,
        "ticks": scenario.ticks,
        "stimuli": {port: _spec_repr(scenario.stimuli[port])
                    for port in sorted(scenario.stimuli)},
    }


@dataclass
class SearchReport:
    """Everything one search run produced.

    ``corpus`` is the final (minimized, unless disabled) battery;
    ``batch_report`` aggregates *every* evaluated scenario and is the
    search's coverage state, so the coverage queries read it.
    :meth:`to_json` is deterministic for a fixed seed -- wall-clock
    durations live only on the Python objects.
    """

    component_name: str
    seed: int
    stop_reason: str
    evaluations: int
    rounds: List[RoundStats]
    corpus: List[Scenario]
    dropped: List[str]
    minimized: bool
    batch_report: BatchReport
    duration_s: float = 0.0

    # -- queries -----------------------------------------------------------
    def mode_coverage(self) -> float:
        return self.batch_report.overall_mode_coverage()

    def transition_coverage(self) -> float:
        return self.batch_report.overall_transition_coverage()

    def untaken_transitions(self) -> List[Tuple[str, Tuple[str, str]]]:
        return self.batch_report.untaken_transitions()

    def corpus_names(self) -> List[str]:
        return [scenario.name for scenario in self.corpus]

    # -- presentation ------------------------------------------------------
    def format_summary(self) -> str:
        lines = [f"coverage search on {self.component_name!r}: "
                 f"{self.stop_reason} after {len(self.rounds)} rounds, "
                 f"{self.evaluations} scenario executions "
                 f"({self.duration_s:.3f}s)",
                 f"  coverage: {100.0 * self.mode_coverage():.0f}% modes, "
                 f"{100.0 * self.transition_coverage():.0f}% transitions"]
        for stats in self.rounds:
            lines.append(
                f"    round {stats.index}: {stats.evaluated} evaluated, "
                f"{stats.earned} earned, +{stats.new_transitions} "
                f"transitions -> "
                f"{100.0 * stats.transition_coverage:.0f}% "
                f"({stats.duration_s:.3f}s)")
        untaken = self.untaken_transitions()
        if untaken:
            lines.append("  still untaken:")
            for path, (source, target) in untaken:
                lines.append(f"    {path}: {source} -> {target}")
        corpus_kind = "minimized corpus" if self.minimized else "corpus"
        lines.append(f"  {corpus_kind} ({len(self.corpus)} scenarios, "
                     f"{len(self.dropped)} dropped):")
        for scenario in self.corpus:
            lines.append(f"    {scenario.name} ({scenario.ticks} ticks)")
        return "\n".join(lines)

    # -- export ------------------------------------------------------------
    def to_json_dict(self, include_timing: bool = False) -> Dict[str, Any]:
        """The JSON export.

        Deterministic by default: byte-identical across runs and executors
        for a fixed seed.  ``include_timing=True`` opts into wall-clock
        data -- total and per-round ``duration_s`` -- trading determinism
        for profiling detail.
        """
        data = {
            "component": self.component_name,
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "evaluations": self.evaluations,
            "rounds": [stats.to_json_dict(include_timing)
                       for stats in self.rounds],
            "coverage": {
                "overall_mode_coverage": self.mode_coverage(),
                "overall_transition_coverage": self.transition_coverage(),
                "untaken_transitions": [
                    {"machine": path, "source": source, "target": target}
                    for path, (source, target) in self.untaken_transitions()],
                "machines": [self.batch_report.coverage[path].to_json_dict()
                             for path in sorted(self.batch_report.coverage)],
            },
            "corpus": {
                "minimized": self.minimized,
                "scenarios": [_scenario_json(scenario)
                              for scenario in self.corpus],
                "dropped": list(self.dropped),
            },
        }
        if include_timing:
            data["timing"] = {"total_duration_s": self.duration_s}
        return data

    def to_json(self, indent: int = 2, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), indent=indent,
                          sort_keys=True, default=str)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


class _TransitionTargeter:
    """Directed candidate generation: drive one untaken transition.

    For an untaken ``source -> target`` whose guard ranges over root input
    ports only, and a corpus scenario known to *end* in ``source``, the
    targeter solves the guard over the vocabulary pools (a finite witness
    enumeration, exactly like the global-mode-system product does) and
    appends the witness valuation as a new stimulus phase.  This is the
    model-based test-sequence-generation step: the report names the goal,
    the guard names the inputs, the corpus supplies the prefix that reaches
    the source mode.
    """

    _WITNESS_LIMIT = 4
    _COMBO_CAP = 1024

    def __init__(self, component: Component, context: MutationContext):
        self._evaluator = ExpressionEvaluator()
        self._context = context
        self._root_ports = set(component.input_names())
        self._guards: Dict[Tuple[str, Tuple[str, str]], List[Any]] = {}
        for info in machine_inventory(component):
            for transition in info.component.transitions():
                key = (info.path, (transition.source, transition.target))
                self._guards.setdefault(key, []).append(transition.guard)
        self._witnesses: Dict[Tuple[str, Tuple[str, str]],
                              List[Dict[str, Any]]] = {}

    def witnesses(self, path: str,
                  pair: Tuple[str, str]) -> List[Dict[str, Any]]:
        """Input valuations (over root ports) that satisfy some guard of
        the transition, at most ``_WITNESS_LIMIT`` per guard; cached."""
        key = (path, pair)
        if key in self._witnesses:
            return self._witnesses[key]
        found: List[Dict[str, Any]] = []
        for guard in self._guards.get(key, ()):
            variables = sorted(set(guard.variables()))
            if not variables or not set(variables) <= self._root_ports:
                continue  # constant or non-boundary guard: cannot target
            pools = [self._context.pool(name) for name in variables]
            for index, combination in enumerate(
                    itertools.product(*pools)):
                if index >= self._COMBO_CAP \
                        or len(found) >= self._WITNESS_LIMIT:
                    break
                environment = dict(zip(variables, combination))
                try:
                    value = self._evaluator.evaluate(guard, environment)
                except Exception:  # noqa: BLE001 - witness probing only
                    continue
                if is_present(value) and bool(value):
                    found.append(environment)
        self._witnesses[key] = found
        return found

    def candidates(self, report: BatchReport,
                   visitors: Dict[Tuple[str, str], Scenario],
                   rng: random.Random, round_index: int,
                   limit: int) -> List[Scenario]:
        """One extended scenario per targetable untaken transition."""
        targeted: List[Scenario] = []
        for path, pair in report.untaken_transitions():
            if len(targeted) >= limit:
                break
            parent = visitors.get((path, pair[0]))
            if parent is None:
                continue
            witnesses = self.witnesses(path, pair)
            if not witnesses:
                continue
            witness = witnesses[rng.randrange(len(witnesses))]
            targeted.append(append_witness(
                parent, witness, dwell=rng.randint(2, 4),
                name=f"search-r{round_index}-t{len(targeted)}"))
        return targeted


def _final_modes(result: Any) -> Dict[str, Any]:
    """The last observed mode per machine path of one successful result."""
    finals: Dict[str, Any] = {}
    mode_paths = getattr(result, "mode_paths", None)
    if getattr(result, "error", None) is not None or not mode_paths:
        return finals
    for path, history in mode_paths.items():
        for mode in reversed(history):
            if mode is not None:
                finals[path] = mode
                break
    return finals


def _next_generation(parents: Sequence[Scenario], ports: Sequence[str],
                     rng: random.Random, context: MutationContext,
                     config: SearchConfig, round_index: int,
                     mutators: Sequence[Mutator],
                     count: int) -> List[Scenario]:
    """Breed one round's candidate battery from the parent pool."""
    candidates: List[Scenario] = []
    for index in range(count):
        name = f"search-r{round_index}-c{index}"
        roll = rng.random()
        if len(parents) >= 2 and roll < config.crossover_rate:
            first, second = rng.sample(list(parents), 2)
            candidates.append(crossover_scenarios(first, second, rng, name))
        elif parents and roll < 1.0 - config.exploration_rate:
            parent = rng.choice(list(parents))
            candidates.append(mutate_scenario(parent, rng, context, name,
                                              mutators))
        else:
            candidates.append(exploration_scenario(ports, rng, context,
                                                   name))
    return candidates


def search_coverage(component: Component,
                    seed_battery: Sequence[Scenario] = (),
                    config: Optional[SearchConfig] = None,
                    mutators: Sequence[Mutator] = DEFAULT_MUTATORS
                    ) -> SearchReport:
    """Run the feedback-driven coverage search against *component*.

    ``seed_battery`` is evaluated as round 0 (a deliberately weak battery
    is fine -- the search exists to grow it); when empty, round 0 is a
    fresh exploration battery bred from the guard vocabulary.
    """
    config = config or SearchConfig()
    config.validate()
    ports = component.input_names()
    rng = random.Random(config.seed)
    context = MutationContext.for_component(component,
                                            default_ticks=config.ticks,
                                            max_ticks=config.max_ticks)
    targeter = _TransitionTargeter(component, context)
    visitors: Dict[Tuple[str, str], Scenario] = {}
    batch_report = BatchReport.for_component(component)
    corpus: List[CorpusEntry] = []
    rounds: List[RoundStats] = []
    evaluations = 0
    stale_rounds = 0
    stop_reason = "round-budget"
    started = time.perf_counter()
    deadline = (started + config.wall_clock_budget_s
                if config.wall_clock_budget_s is not None else None)

    pending: List[Scenario] = list(seed_battery)
    if not pending:
        pending = [exploration_scenario(ports, rng, context,
                                        f"search-r0-c{index}")
                   for index in range(config.population)]

    for round_index in range(config.max_rounds):
        if config.max_evaluations is not None:
            headroom = config.max_evaluations - evaluations
            if headroom <= 0:
                stop_reason = "evaluation-budget"
                break
            pending = pending[:headroom]
        round_started = time.perf_counter()
        with maybe_span("search.round", round=round_index,
                        candidates=len(pending)):
            results = run_sharded(component, pending,
                                  executor=config.executor,
                                  max_workers=config.max_workers,
                                  collect_modes=True)
        evaluations += len(results)
        registry = current_registry()
        if registry is not None:
            registry.counter("search.rounds").inc()
            registry.counter("search.evaluations").inc(len(results))
        by_name = {scenario.name: scenario for scenario in pending}
        earned = failed = new_modes = new_transitions = 0
        for result in results:
            if not result.ok:
                failed += 1
            gain = absorb(batch_report, result)
            if gain.earned():
                corpus.append(CorpusEntry(by_name[result.name], gain,
                                          round_index))
                earned += 1
            new_modes += len(gain.new_modes)
            new_transitions += len(gain.new_transitions)
            # remember which scenario *ends* in which mode: the prefixes
            # the transition targeter extends with guard witnesses
            for path, mode in sorted(_final_modes(result).items()):
                visitors.setdefault((path, mode), by_name[result.name])
        stats = RoundStats(
            index=round_index, evaluated=len(results), failed=failed,
            earned=earned, new_modes=new_modes,
            new_transitions=new_transitions,
            mode_coverage=batch_report.overall_mode_coverage(),
            transition_coverage=batch_report.overall_transition_coverage(),
            corpus_size=len(corpus),
            duration_s=time.perf_counter() - round_started)
        rounds.append(stats)
        events = current_events()
        if events is not None:
            # the deterministic projection of the round (timing excluded):
            # byte-equal across executors for a fixed seed, like the report
            events.emit("search_round", **stats.to_json_dict())
        stale_rounds = 0 if (new_modes or new_transitions) \
            else stale_rounds + 1

        if config.stop_on_full_transitions \
                and not batch_report.untaken_transitions():
            stop_reason = "transitions-covered"
            break
        if config.max_evaluations is not None \
                and evaluations >= config.max_evaluations:
            stop_reason = "evaluation-budget"
            break
        if deadline is not None and time.perf_counter() >= deadline:
            stop_reason = "wall-clock-budget"
            break
        if config.max_stale_rounds is not None \
                and stale_rounds >= config.max_stale_rounds:
            stop_reason = "stalled"
            break
        if round_index + 1 >= config.max_rounds:
            stop_reason = "round-budget"
            break
        parents = [entry.scenario for entry in
                   sorted(corpus, key=lambda entry: -entry.gain.score())
                   ][:config.corpus_cap]
        pending = targeter.candidates(batch_report, visitors, rng,
                                      round_index + 1,
                                      limit=config.population)
        pending.extend(_next_generation(
            parents, ports, rng, context, config, round_index + 1, mutators,
            count=config.population - len(pending)))

    final_corpus = [entry.scenario for entry in corpus]
    dropped: List[str] = []
    minimized = False
    if config.minimize and final_corpus:
        outcome = minimize_battery(component, final_corpus,
                                   executor=config.executor,
                                   max_workers=config.max_workers)
        evaluations += outcome.evaluations
        final_corpus = outcome.kept
        dropped = outcome.dropped
        minimized = True

    return SearchReport(
        component_name=component.name, seed=config.seed,
        stop_reason=stop_reason, evaluations=evaluations, rounds=rounds,
        corpus=final_corpus, dropped=dropped, minimized=minimized,
        batch_report=batch_report,
        duration_s=time.perf_counter() - started)

"""Coverage-guided scenario search: feedback-driven exploration.

The self-driving layer above :mod:`repro.scenarios`: where a
:class:`~repro.scenarios.report.BatchReport` merely *reports* the mode
transitions a battery missed, this subsystem mutates and breeds scenarios
until the untaken-transition list is empty (or a budget runs out):

* :mod:`repro.search.mutation` -- typed mutation/crossover operators over
  scenario stimuli and the generator parameter space, driven by one seeded
  ``random.Random``,
* :mod:`repro.search.fitness` -- per-scenario coverage-gain attribution,
  folding each result once into the search's :class:`BatchReport` (its
  only coverage state),
* :mod:`repro.search.loop` -- the generational driver on top of the
  sharded runner, with stopping criteria and a deterministic
  :class:`SearchReport` (JSON export),
* :mod:`repro.search.minimize` -- greedy battery minimization of the final
  corpus.
"""

from .fitness import CoverageGain, absorb
from .loop import (CorpusEntry, RoundStats, SearchConfig, SearchReport,
                   search_coverage)
from .minimize import MinimizationOutcome, minimize_battery
from .mutation import (DEFAULT_MUTATORS, MutationContext, Mutator,
                       PerturbModeSequence, PerturbRamp, PerturbScalar,
                       PerturbSineWave, PerturbSquareWave, PerturbStepChange,
                       ReseedGenerator, RetargetPort, ToggleFaultInjector,
                       crossover_scenarios, exploration_scenario,
                       mutate_scenario)

__all__ = [
    "CorpusEntry", "CoverageGain", "DEFAULT_MUTATORS", "MinimizationOutcome",
    "MutationContext", "Mutator", "PerturbModeSequence", "PerturbRamp",
    "PerturbScalar", "PerturbSineWave", "PerturbSquareWave",
    "PerturbStepChange", "ReseedGenerator", "RetargetPort", "RoundStats",
    "SearchConfig", "SearchReport", "ToggleFaultInjector", "absorb",
    "crossover_scenarios", "exploration_scenario", "minimize_battery",
    "mutate_scenario", "search_coverage",
]

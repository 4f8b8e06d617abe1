"""Scenario generation and sharded batch validation.

The validation subsystem built on top of the simulation engines:

* :mod:`repro.scenarios.generators` -- composable, deterministically-seeded
  stimulus generators (waveforms, random walks, event storms, mode
  sequences, fault injectors) plus cartesian scenario-grid expansion,
* :mod:`repro.scenarios.runner` -- sharded parallel execution of scenario
  batches across process/thread pools with per-scenario error isolation,
* :mod:`repro.scenarios.report` -- batch aggregation: MTD/STD mode and
  transition coverage, port value ranges, failure roll-ups, JSON export.
"""

from typing import Any, Sequence, Tuple

from ..core.components import Component
from ..simulation.engine import active_mode_paths
from .generators import (Constant, Dropout, EventStorm, ModeSequence,
                         OutOfRange, RandomWalk, Ramp, Scenario,
                         SeededGenerator, SineWave, SquareWave, StepChange,
                         StimulusGenerator, StuckAt, UniformNoise,
                         materialize_spec, mode_sequence_sweep, sample_spec,
                         scenario_grid)
from .report import BatchReport, ModeCoverage, PortStats, fold_mode_history
from .runner import (ScenarioResult, execute_batch, execute_scenario,
                     run_sharded)


def run_with_report(component: Component, scenarios: Sequence[Scenario],
                    **kwargs: Any) -> Tuple[Sequence[ScenarioResult],
                                            BatchReport]:
    """Run a batch (sharded) and aggregate it into a :class:`BatchReport`.

    Keyword arguments are forwarded to :func:`run_sharded`; mode
    collection (``collect_modes``) is on by default so the report carries
    hierarchical mode/transition coverage.  Aggregation is incremental: each result is
    folded into the report as it streams back from the pool
    (:meth:`BatchReport.observe_result`), so arbitrarily large batches never
    require a second pass over the traces.
    """
    kwargs.setdefault("collect_modes", True)
    report = BatchReport.for_component(component)
    downstream = kwargs.pop("on_result", None)

    def observe(result: ScenarioResult) -> None:
        report.observe_result(result)
        if downstream is not None:
            downstream(result)

    results = run_sharded(component, scenarios, on_result=observe, **kwargs)
    return results, report


__all__ = [
    "BatchReport", "Constant", "Dropout", "EventStorm", "ModeCoverage",
    "ModeSequence", "OutOfRange", "PortStats", "RandomWalk", "Ramp",
    "Scenario", "ScenarioResult", "SeededGenerator", "SineWave",
    "SquareWave", "StepChange", "StimulusGenerator", "StuckAt",
    "UniformNoise", "active_mode_paths", "execute_batch", "execute_scenario",
    "fold_mode_history", "materialize_spec", "mode_sequence_sweep",
    "run_sharded",
    "run_with_report", "sample_spec", "scenario_grid",
]

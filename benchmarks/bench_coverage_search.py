"""[P4] Coverage-guided search vs exhaustive scenario grid (executions).

Not a paper figure: quantifies the feedback loop of :mod:`repro.search` on
the engine-operation-modes MTD of paper Fig. 6.  Both contenders chase the
same goal -- every declared mode transition taken at least once:

* **search**: :func:`repro.search.search_coverage` from a deliberately weak
  seed battery (never leaves ``Off``), guard-vocabulary mutation plus the
  witness-directed transition targeter;
* **baseline**: the exhaustive open-loop approach PR 2 enables -- a
  :func:`scenario_grid` over all length-3 boundary-value mode sequences for
  ``n`` and ``ped`` (42 875 scenarios), evaluated in deterministic grid
  order until the untaken-transition list empties.

The acceptance gate is that the search reaches 100% transition coverage
with at most **half** the scenario executions the baseline needs; the
baseline is cut off at ``BASELINE_CAP_FACTOR`` times the search's
executions, so a baseline that is still incomplete at the cap fails the
race outright (on this model it needs ~30k executions, the search ~80).
"""

import itertools

from repro.casestudy import build_engine_modes_mtd
from repro.scenarios import (BatchReport, ModeSequence, Scenario,
                             run_sharded, run_with_report, scenario_grid)
from repro.search import SearchConfig, search_coverage

from _bench_utils import report

#: Boundary-value representatives: one value per interval between the
#: guard thresholds of the Fig.-6 MTD (n: 0/50/400/700/1500/3000,
#: ped: 0/2/5/80), plus the out-of-range extremes.
N_VALUES = (-1.0, 25.0, 200.0, 550.0, 1000.0, 2000.0, 3500.0)
PED_VALUES = (-1.0, 1.0, 3.0, 40.0, 90.0)
DWELL = 8
SEARCH_CONFIG = dict(seed=7, max_rounds=12, population=16, minimize=False)
BASELINE_CAP_FACTOR = 50
BASELINE_CHUNK = 100


def _weak_battery():
    return [Scenario("weak", {"n": 0.0, "ped": 0.0, "t_eng": 20.0},
                     ticks=20)]


def _exhaustive_battery():
    """Every length-3 boundary-value sequence per port, cartesian."""
    def sequences(values):
        return [ModeSequence([(a, DWELL), (b, DWELL), (c, DWELL)])
                for a, b, c in itertools.product(values, repeat=3)]
    return scenario_grid("exhaustive",
                         grid={"n": sequences(N_VALUES),
                               "ped": sequences(PED_VALUES)},
                         ticks=3 * DWELL, base={"t_eng": 20.0})


def _baseline_executions_to_full_coverage(mtd, cap):
    """Scenario executions the exhaustive grid needs (cut off at *cap*)."""
    battery = _exhaustive_battery()
    coverage = BatchReport.for_component(mtd)
    executed = 0
    for start in range(0, min(len(battery), cap), BASELINE_CHUNK):
        chunk = battery[start:start + min(BASELINE_CHUNK, cap - start)]
        for result in run_sharded(mtd, chunk, executor="serial",
                                  collect_modes=True):
            executed += 1
            coverage.observe_result(result)
            if not coverage.untaken_transitions():
                return executed, True, len(battery)
    return executed, not coverage.untaken_transitions(), len(battery)


def test_p4_search_beats_exhaustive_grid():
    """Acceptance gate: 100% transitions with <= half the executions."""
    mtd = build_engine_modes_mtd()
    search = search_coverage(mtd, _weak_battery(),
                             SearchConfig(**SEARCH_CONFIG))
    assert search.transition_coverage() == 1.0, (
        f"search stalled at {100 * search.transition_coverage():.0f}% "
        f"({search.stop_reason}); untaken: {search.untaken_transitions()}")

    cap = BASELINE_CAP_FACTOR * search.evaluations
    baseline_evals, baseline_complete, grid_size = \
        _baseline_executions_to_full_coverage(mtd, cap)

    verdict = (f"baseline complete after {baseline_evals}" if baseline_complete
               else f"baseline INCOMPLETE at cap {baseline_evals}")
    report("P4", f"100% transition coverage on Fig.-6 MTD: search "
                 f"{search.evaluations} executions "
                 f"({len(search.rounds)} rounds), exhaustive grid "
                 f"({grid_size} scenarios) {verdict}")

    if baseline_complete:
        assert search.evaluations * 2 <= baseline_evals, (
            f"search needed {search.evaluations} executions, exhaustive "
            f"grid only {baseline_evals}: the feedback loop is not paying "
            "for itself")
    # an incomplete baseline at 50x the search budget fails the race by
    # construction -- nothing further to assert


def test_p4_minimized_battery_is_a_compact_regression_suite():
    """The minimized corpus replays full coverage at a fraction of the
    search's total executions."""
    mtd = build_engine_modes_mtd()
    search = search_coverage(mtd, _weak_battery(),
                             SearchConfig(minimize=True, **{
                                 k: v for k, v in SEARCH_CONFIG.items()
                                 if k != "minimize"}))
    assert search.minimized
    _, replay = run_with_report(mtd, search.corpus, executor="serial")
    assert replay.overall_transition_coverage() == 1.0
    report("P4", f"minimized battery: {len(search.corpus)} scenarios "
                 f"({sum(s.ticks for s in search.corpus)} ticks) replay "
                 f"100% transition coverage; search corpus had "
                 f"{len(search.corpus) + len(search.dropped)} earners")
    assert len(search.corpus) <= 8

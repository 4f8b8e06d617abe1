"""Coverage-gain fitness and the generational search driver."""

import json

import pytest

from repro.core.errors import SimulationError
from repro.core.values import ABSENT
from repro.scenarios import (BatchReport, ModeSequence, Scenario,
                             ScenarioResult, run_sharded, run_with_report)
from repro.search import (SearchConfig, absorb, minimize_battery,
                          search_coverage)
from repro.simulation.trace import SimulationTrace

#: The deliberately weak seed battery of the acceptance scenario: it never
#: leaves Off, so every transition starts untaken.
WEAK_BATTERY = [Scenario("weak", {"n": 0.0, "ped": 0.0, "t_eng": 20.0},
                         ticks=20)]

#: A scripted profile touching every engine operation mode.
FULL_SWEEP = Scenario("full-sweep", {
    "n": ModeSequence([(0.0, 4), (400.0, 4), (900.0, 6), (2000.0, 6),
                       (4000.0, 6), (3500.0, 6), (1000.0, 4), (0.0, 4)]),
    "ped": ModeSequence([(0.0, 14), (30.0, 6), (90.0, 6), (0.0, 10),
                         (0.0, 4)]),
    "t_eng": 60.0}, ticks=40)


# -- coverage frontier: per-scenario gain attribution -----------------------


def test_frontier_attributes_gain_once(engine_modes_mtd):
    report = BatchReport.for_component(engine_modes_mtd)
    assert report.untaken_transitions()
    results = run_sharded(engine_modes_mtd, [FULL_SWEEP], executor="serial",
                          collect_modes=True)
    first = absorb(report, results[0])
    assert first.earned()
    assert ("EngineOperationModes", ("Off", "Cranking")) \
        in first.new_transitions
    assert first.score() > 0.0
    assert report.total == 1
    # absorbing the identical result again earns nothing new
    again = absorb(report, results[0])
    assert again.new_modes == () and again.new_transitions == ()
    assert again.port_novelty == 0.0
    assert not again.earned()


def test_absorb_folds_each_mode_history_once(engine_modes_mtd,
                                             monkeypatch):
    import repro.scenarios.report as report_module
    folds = []
    fold = report_module.fold_mode_history

    def counting_fold(history, initial):
        folds.append(initial)
        return fold(history, initial)

    report = BatchReport.for_component(engine_modes_mtd)
    assert len(report.coverage) == 1
    battery = [FULL_SWEEP] + [
        Scenario(f"weak-{index}", WEAK_BATTERY[0].stimuli, ticks=20)
        for index in range(3)]
    results = run_sharded(engine_modes_mtd, battery, executor="serial",
                          collect_modes=True)
    monkeypatch.setattr(report_module, "fold_mode_history", counting_fold)
    for result in results:
        absorb(report, result)
    # one fold per machine per absorbed result
    assert len(folds) == len(results) * len(report.coverage) == 4
    assert report.total == 4


def test_frontier_ignores_failed_results(engine_modes_mtd):
    report = BatchReport.for_component(engine_modes_mtd)

    def exploding(tick):
        raise RuntimeError("broken stimulus")

    results = run_sharded(engine_modes_mtd,
                          [Scenario("bad", {"n": exploding}, ticks=5)],
                          executor="serial", collect_modes=True)
    assert not absorb(report, results[0]).earned()
    assert report.failed == 1
    assert report.overall_mode_coverage() == 0.0


def _traced(name, outputs=None, inputs=None, error=None):
    """A hand-built result whose trace carries the given port streams."""
    outputs, inputs = outputs or {}, inputs or {}
    trace = SimulationTrace("hand-built")
    ticks = max(map(len, list(outputs.values()) + list(inputs.values())))
    for tick in range(ticks):
        trace.record_tick({port: values[tick]
                           for port, values in inputs.items()},
                          {port: values[tick]
                           for port, values in outputs.items()})
    return ScenarioResult(name, trace=trace, error=error)


def test_port_novelty_counts_a_first_numeric_range_once(engine_modes_mtd):
    report = BatchReport.for_component(engine_modes_mtd)
    first = absorb(report, _traced("first", outputs={"fuel_factor": [0, 2]},
                                   inputs={"n": [5.0, ABSENT]}))
    assert first.port_novelty == 2.0
    assert first.earned() and first.new_transitions == ()
    # a range inside the known one adds nothing
    inside = absorb(report, _traced("inside",
                                    outputs={"fuel_factor": [1, 2]},
                                    inputs={"n": [5.0, 5.0]}))
    assert inside.port_novelty == 0.0


def test_port_novelty_extends_relative_to_the_known_span(engine_modes_mtd):
    report = BatchReport.for_component(engine_modes_mtd)
    absorb(report, _traced("known", outputs={"fuel_factor": [0.0, 4.0]},
                           inputs={"n": [0.0, 0.5]}))
    # fuel_factor's span is 4: one below, two above
    wider = absorb(report, _traced("wider",
                                   outputs={"fuel_factor": [-1.0, 6.0]}))
    assert wider.port_novelty == 0.25 + 0.5
    # n's span 0.5 is floored at 1.0
    floored = absorb(report, _traced("floored", inputs={"n": [0.75]}))
    assert floored.port_novelty == 0.25
    # each side is capped at one unit; fuel_factor now spans [-1, 6]
    capped = absorb(report, _traced("capped",
                                    outputs={"fuel_factor": [-100.0,
                                                             100.0]}))
    assert capped.port_novelty == 2.0


def test_port_novelty_ignores_non_numeric_and_failed_results(
        engine_modes_mtd):
    report = BatchReport.for_component(engine_modes_mtd)
    symbolic = absorb(report, _traced(
        "symbolic", outputs={"mode": ["Off", "Idle"],
                             "fuel_factor": [True, ABSENT]}))
    assert symbolic.port_novelty == 0.0 and not symbolic.earned()
    failed = absorb(report, _traced("failed",
                                    outputs={"fuel_factor": [1.0, 3.0]},
                                    error="RuntimeError: boom"))
    assert failed.port_novelty == 0.0 and not failed.earned()
    # neither committed a range: the first numeric one still counts
    numeric = absorb(report, _traced("numeric",
                                     outputs={"fuel_factor": [1.0, 3.0]}))
    assert numeric.port_novelty == 1.0


# -- the acceptance scenario: weak battery to 100% --------------------------


def test_search_reaches_full_transition_coverage(engine_modes_mtd):
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=7, max_rounds=12,
                                          population=16))
    assert report.stop_reason == "transitions-covered"
    assert report.transition_coverage() == 1.0
    assert report.mode_coverage() == 1.0
    assert report.untaken_transitions() == []
    assert len(report.rounds) <= 12
    # the trajectory is monotone and the batch report agrees
    trajectory = [stats.transition_coverage for stats in report.rounds]
    assert trajectory == sorted(trajectory)
    assert report.batch_report.overall_transition_coverage() == 1.0
    assert report.evaluations >= report.batch_report.total


def test_search_trajectory_is_pinned(engine_modes_mtd):
    # the acceptance search, round by round: any change to gain
    # attribution, coverage accounting or breeding shows up here
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=7, max_rounds=12,
                                          population=16))
    trajectory = [(stats.evaluated, stats.earned, stats.new_modes,
                   stats.new_transitions, stats.transition_coverage)
                  for stats in report.rounds]
    assert trajectory == [
        (1, 1, 1, 0, 0.0),
        (16, 5, 2, 4, 4 / 11),
        (16, 5, 2, 4, 8 / 11),
        (16, 1, 1, 1, 9 / 11),
        (16, 4, 0, 2, 1.0),
    ]
    assert report.corpus_names() == [
        "search-r1-c7", "search-r2-c4", "search-r4-t0", "search-r4-t1"]
    assert report.dropped == [
        "weak", "search-r1-t0", "search-r1-c1", "search-r1-c4",
        "search-r1-c9", "search-r2-t0", "search-r2-c1", "search-r2-c5",
        "search-r2-c7", "search-r3-t0", "search-r4-c2", "search-r4-c10"]


def test_search_minimized_corpus_preserves_coverage(engine_modes_mtd):
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=7, max_rounds=12,
                                          population=16))
    assert report.minimized
    assert report.corpus  # something survived minimization
    # re-running ONLY the minimized battery still exercises everything
    _, replay = run_with_report(engine_modes_mtd, report.corpus,
                                executor="serial")
    assert replay.overall_transition_coverage() == 1.0
    assert replay.overall_mode_coverage() == 1.0
    # minimization actually dropped redundant earners
    assert len(report.dropped) > 0


def test_search_round_budget_stops_the_loop(engine_modes_mtd):
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=1, max_rounds=2, population=4,
                                          minimize=False))
    assert report.stop_reason in ("round-budget", "transitions-covered")
    assert len(report.rounds) <= 2


def test_search_evaluation_budget_is_hard(engine_modes_mtd):
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=1, max_rounds=50,
                                          population=8, max_evaluations=20,
                                          minimize=False))
    assert report.evaluations <= 20
    assert report.stop_reason in ("evaluation-budget",
                                  "transitions-covered")


def test_search_stale_rounds_stop(engine_modes_mtd):
    # population 1 bred from a single frozen scenario stalls quickly
    report = search_coverage(
        engine_modes_mtd,
        [Scenario("idle", {"n": 0.0, "ped": 0.0, "t_eng": 0.0}, ticks=4)],
        SearchConfig(seed=3, max_rounds=40, population=1,
                     max_stale_rounds=3, exploration_rate=0.0,
                     crossover_rate=0.0, minimize=False))
    assert report.stop_reason in ("stalled", "transitions-covered",
                                  "round-budget")
    if report.stop_reason == "stalled":
        tail = report.rounds[-3:]
        assert all(stats.new_modes == 0 and stats.new_transitions == 0
                   for stats in tail)


def test_search_without_seed_battery_explores(engine_modes_mtd):
    report = search_coverage(engine_modes_mtd, (),
                             SearchConfig(seed=5, max_rounds=8,
                                          population=12))
    assert report.rounds[0].evaluated == 12
    assert report.transition_coverage() > 0.5


def test_search_config_validation(engine_modes_mtd):
    for broken in (SearchConfig(max_rounds=0), SearchConfig(population=0),
                   SearchConfig(corpus_cap=0),
                   SearchConfig(ticks=50, max_ticks=10),
                   SearchConfig(crossover_rate=1.5)):
        with pytest.raises(SimulationError):
            search_coverage(engine_modes_mtd, WEAK_BATTERY, broken)


def test_search_report_json_round_trip(engine_modes_mtd, tmp_path):
    report = search_coverage(engine_modes_mtd, WEAK_BATTERY,
                             SearchConfig(seed=7, max_rounds=12,
                                          population=16))
    data = json.loads(report.to_json())
    assert data["component"] == "EngineOperationModes"
    assert data["stop_reason"] == "transitions-covered"
    assert data["coverage"]["overall_transition_coverage"] == 1.0
    assert data["coverage"]["untaken_transitions"] == []
    machines = {entry["path"]: entry
                for entry in data["coverage"]["machines"]}
    assert machines["EngineOperationModes"]["transition_coverage"] == 1.0
    assert len(data["rounds"]) == len(report.rounds)
    assert [entry["name"] for entry in data["corpus"]["scenarios"]] \
        == report.corpus_names()
    # wall-clock timing never leaks into the (deterministic) default
    # export; include_timing=True opts into it explicitly
    assert "duration" not in json.dumps(data)
    timed = json.loads(report.to_json(include_timing=True))
    assert timed["timing"]["total_duration_s"] == report.duration_s
    assert [entry["duration_s"] for entry in timed["rounds"]] \
        == [stats.duration_s for stats in report.rounds]

    target = tmp_path / "search.json"
    report.save(str(target))
    assert json.loads(target.read_text()) == data

    summary = report.format_summary()
    assert "transitions-covered" in summary
    assert "100% transitions" in summary


def test_search_report_json_has_no_memory_addresses(engine_modes_mtd):
    # callables are valid stimuli; their default reprs embed 0x addresses,
    # which the export scrubs to keep the JSON byte-identical across runs
    battery = [Scenario("callable", {"n": lambda tick: 100.0 * tick,
                                     "ped": 10.0, "t_eng": 20.0}, ticks=30)]
    report = search_coverage(engine_modes_mtd, battery,
                             SearchConfig(seed=2, max_rounds=2, population=4,
                                          minimize=False))
    text = report.to_json()
    assert "0x.." in text or "lambda" not in text
    import re
    assert not re.search(r"0x[0-9a-fA-F]{4,}", text)


# -- greedy minimization ----------------------------------------------------


def test_minimize_drops_subsumed_scenarios(engine_modes_mtd):
    cranking_only = Scenario("cranking-only", {
        "n": ModeSequence([(0.0, 3), (500.0, 5)]), "ped": 0.0,
        "t_eng": 20.0}, ticks=8)
    outcome = minimize_battery(engine_modes_mtd,
                               [cranking_only, FULL_SWEEP])
    # the full sweep subsumes the cranking-only prefix scenario
    assert outcome.kept_names() == ["full-sweep"]
    assert outcome.dropped == ["cranking-only"]
    assert outcome.evaluations == 2
    assert outcome.covered_items > 0


def test_minimize_keeps_complementary_scenarios(engine_modes_mtd):
    reaches_idle = Scenario("reaches-idle", {
        "n": ModeSequence([(0.0, 2), (900.0, 6)]), "ped": 0.0,
        "t_eng": 20.0}, ticks=8)
    idle_to_off = Scenario("idle-to-off", {
        "n": ModeSequence([(0.0, 2), (900.0, 4), (10.0, 4)]), "ped": 0.0,
        "t_eng": 20.0}, ticks=10)
    outcome = minimize_battery(engine_modes_mtd, [reaches_idle, idle_to_off])
    # idle_to_off covers everything reaches_idle covers, plus Idle -> Off
    assert outcome.kept_names() == ["idle-to-off"]


def test_minimize_handles_empty_and_failing_batteries(engine_modes_mtd):
    assert minimize_battery(engine_modes_mtd, []).kept == []

    def exploding(tick):
        raise RuntimeError("broken")

    outcome = minimize_battery(
        engine_modes_mtd,
        [Scenario("bad", {"n": exploding}, ticks=4), FULL_SWEEP])
    assert outcome.kept_names() == ["full-sweep"]
    assert "bad" in outcome.dropped

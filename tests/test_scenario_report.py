"""The batch coverage/aggregation layer and trace JSON export."""

import json
from enum import IntEnum

import pytest

from repro.analysis import find_stds, machine_inventory
from repro.core.values import ABSENT
from repro.scenarios import (BatchReport, ModeSequence, Scenario,
                             mode_sequence_sweep, run_with_report)
from repro.io import (trace_from_json, trace_from_json_dict, trace_to_json,
                      trace_to_json_dict)
from repro.simulation import first_difference, simulate


# -- machine inventory (analysis layer) -------------------------------------


def test_machine_inventory_finds_root_mtd(engine_modes_mtd):
    inventory = machine_inventory(engine_modes_mtd)
    assert [info.path for info in inventory] == ["EngineOperationModes"]
    info = inventory[0]
    assert info.kind == "mtd"
    assert info.initial == "Off"
    assert set(info.modes) == {"Off", "Cranking", "Idle", "PartLoad",
                               "FullLoad", "Overrun"}
    assert ("Off", "Cranking") in info.transitions


def test_machine_inventory_recurses_and_sees_through_gating():
    from repro.casestudy import build_engine_ccd
    from repro.simulation import build_gated_ccd
    ccd = build_engine_ccd()
    raw_paths = {info.path for info in machine_inventory(ccd)}
    gated_paths = {info.path.replace(f"{ccd.name}_gated", ccd.name)
                   for info in machine_inventory(build_gated_ccd(ccd))}
    assert raw_paths == gated_paths


def test_find_stds_locates_state_machines():
    from repro.notations.std import StateTransitionDiagram
    from repro.notations.dfd import DataFlowDiagram
    std = StateTransitionDiagram("Gearbox")
    std.add_input("up")
    std.add_state("N", initial=True)
    std.add_state("D")
    std.add_transition("N", "D", "up")
    dfd = DataFlowDiagram("Drivetrain")
    dfd.add_input("up")
    dfd.add_subcomponent(std)
    dfd.connect("up", "Gearbox.up")
    assert [machine.name for machine in find_stds(dfd)] == ["Gearbox"]
    inventory = machine_inventory(dfd)
    assert [(info.path, info.kind) for info in inventory] \
        == [("Drivetrain/Gearbox", "std")]


def test_find_stds_descends_into_mtd_mode_behaviors():
    from repro.notations.mtd import ModeTransitionDiagram
    from repro.notations.std import StateTransitionDiagram
    std = StateTransitionDiagram("Sequencer")
    std.add_input("go")
    std.add_state("S0", initial=True)
    std.add_state("S1")
    std.add_transition("S0", "S1", "go")
    mtd = ModeTransitionDiagram("Controller")
    mtd.add_input("go")
    mtd.add_mode("Run", std, initial=True)
    assert [machine.name for machine in find_stds(mtd)] == ["Sequencer"]
    paths = {(info.path, info.kind) for info in machine_inventory(mtd)}
    assert ("Controller/Run", "std") in paths


# -- coverage aggregation ---------------------------------------------------


def _full_sweep(ticks=40):
    # a scripted profile that touches every engine operation mode
    profile = ModeSequence([(0.0, 4), (400.0, 4), (900.0, 6), (2000.0, 6),
                            (4000.0, 6), (3500.0, 6), (1000.0, 4), (0.0, 4)])
    pedal = ModeSequence([(0.0, 14), (30.0, 6), (90.0, 6), (0.0, 10),
                          (0.0, 4)])
    return Scenario("full-sweep", {"n": profile, "ped": pedal, "t_eng": 60.0},
                    ticks=ticks)


def test_batch_report_coverage_and_port_ranges(engine_modes_mtd):
    results, report = run_with_report(
        engine_modes_mtd, [_full_sweep()], executor="serial")
    assert report.total == 1 and report.failed == 0
    coverage = report.coverage["EngineOperationModes"]
    assert coverage.mode_coverage() == 1.0
    assert coverage.unvisited_modes() == []
    assert ("Off", "Cranking") in coverage.visited_transitions
    assert 0.0 < coverage.transition_coverage() <= 1.0
    stats = report.output_stats["fuel_factor"]
    assert stats.present_ticks == 40
    assert 0.0 <= stats.minimum <= stats.maximum <= 1.5
    summary = report.format_summary()
    assert "mode coverage" in summary
    assert "fuel_factor" in summary


def test_batch_report_rolls_up_failures(engine_modes_mtd):
    def exploding(tick):
        raise RuntimeError("broken stimulus")

    batch = [_full_sweep(),
             Scenario("bad", {"n": exploding}, ticks=10)]
    results, report = run_with_report(engine_modes_mtd, batch,
                                      executor="serial")
    assert report.total == 2
    assert report.succeeded == 1 and report.failed == 1
    assert "bad" in report.failures
    assert "broken stimulus" in report.failures["bad"]
    assert "failures:" in report.format_summary()


def test_batch_report_without_mode_collection_uses_trace_history(
        engine_modes_mtd):
    from repro.scenarios import run_sharded
    batch = [_full_sweep()]
    results = run_sharded(engine_modes_mtd, batch, executor="serial",
                          collect_modes=False)
    assert results[0].mode_paths is None
    report = BatchReport.from_results(engine_modes_mtd, results)
    coverage = report.coverage["EngineOperationModes"]
    assert coverage.mode_coverage() == 1.0


def test_coverage_counts_initial_mode_and_tick0_transition(engine_modes_mtd):
    # n > 0 from tick 0: the MTD leaves its initial mode Off immediately,
    # so the recorded (post-step) history never contains Off -- coverage
    # must still credit the initial mode and the transition out of it
    scenario = Scenario("instant-start", {"n": 800.0, "ped": 0.0,
                                          "t_eng": 60.0}, ticks=5)
    _, report = run_with_report(engine_modes_mtd, [scenario],
                                executor="serial")
    coverage = report.coverage["EngineOperationModes"]
    assert "Off" in coverage.visited_modes
    assert "Off" not in coverage.unvisited_modes()
    assert ("Off", "Cranking") in coverage.visited_transitions
    assert ("Off", "Cranking") not in coverage.untaken_transitions()


def test_mode_sequence_sweep_improves_batch_coverage(engine_modes_mtd):
    narrow = mode_sequence_sweep("idle-only", "n", [(0.0, 100.0)], dwell=5,
                                 ticks=10, base={"ped": 0.0, "t_eng": 50.0})
    _, narrow_report = run_with_report(engine_modes_mtd, narrow,
                                       executor="serial")
    _, broad_report = run_with_report(engine_modes_mtd, [_full_sweep()],
                                      executor="serial")
    assert broad_report.overall_mode_coverage() \
        > narrow_report.overall_mode_coverage()


def test_batch_report_json_export(engine_modes_mtd, tmp_path):
    results, report = run_with_report(engine_modes_mtd, [_full_sweep()],
                                      executor="serial")
    data = json.loads(report.to_json(results, include_traces=True))
    assert data["component"] == "EngineOperationModes"
    assert data["scenarios"]["total"] == 1
    machines = {entry["path"]: entry for entry in
                data["coverage"]["machines"]}
    assert machines["EngineOperationModes"]["mode_coverage"] == 1.0
    assert "full-sweep" in data["traces"]
    restored = trace_from_json_dict(data["traces"]["full-sweep"])
    assert first_difference(results[0].trace, restored) is None

    target = tmp_path / "report.json"
    report.save(str(target))
    assert json.loads(target.read_text())["component"] \
        == "EngineOperationModes"


# -- incremental aggregation / merge ----------------------------------------


def _sweep_shards(ticks=40):
    cold = Scenario("cold-idle", {
        "n": ModeSequence([(0.0, 4), (400.0, 4), (900.0, 12)]),
        "ped": 0.0, "t_eng": -5.0}, ticks=20)
    drive = _full_sweep(ticks)
    failing = Scenario("bad", {"n": _explode}, ticks=5)
    return [cold], [drive, failing]


def _explode(tick):
    raise RuntimeError("broken stimulus")


def test_merge_of_shards_equals_one_shot_aggregation(engine_modes_mtd):
    from repro.scenarios import run_sharded
    shard_a, shard_b = _sweep_shards()
    results_a = run_sharded(engine_modes_mtd, shard_a, executor="serial",
                            collect_modes=True)
    results_b = run_sharded(engine_modes_mtd, shard_b, executor="serial",
                            collect_modes=True)

    one_shot = BatchReport.from_results(engine_modes_mtd,
                                        list(results_a) + list(results_b))
    merged = BatchReport.from_results(engine_modes_mtd, results_a)
    assert merged.merge(BatchReport.from_results(engine_modes_mtd,
                                                 results_b)) is merged

    assert merged.total == one_shot.total == 3
    assert merged.succeeded == one_shot.succeeded
    assert merged.failed == one_shot.failed == 1
    assert merged.failures == one_shot.failures
    assert merged.scenario_ticks == one_shot.scenario_ticks
    assert merged.total_ticks == one_shot.total_ticks
    assert merged.total_duration == pytest.approx(one_shot.total_duration)
    for path in one_shot.coverage:
        assert merged.coverage[path].visited_modes \
            == one_shot.coverage[path].visited_modes
        assert merged.coverage[path].visited_transitions \
            == one_shot.coverage[path].visited_transitions
    for pool in ("output_stats", "input_stats"):
        mine, theirs = getattr(merged, pool), getattr(one_shot, pool)
        assert set(mine) == set(theirs)
        for name in theirs:
            assert mine[name].total_ticks == theirs[name].total_ticks
            assert mine[name].present_ticks == theirs[name].present_ticks
            assert mine[name].minimum == theirs[name].minimum
            assert mine[name].maximum == theirs[name].maximum
    # the JSON export (minus timing) agrees too
    mine, theirs = merged.to_json_dict(), one_shot.to_json_dict()
    mine["scenarios"].pop("total_duration_s")
    theirs["scenarios"].pop("total_duration_s")
    assert mine == theirs


def test_merge_rejects_foreign_components(engine_modes_mtd,
                                          momentum_controller):
    from repro.core.errors import SimulationError
    mine = BatchReport.for_component(engine_modes_mtd)
    theirs = BatchReport.for_component(momentum_controller)
    with pytest.raises(SimulationError):
        mine.merge(theirs)


def test_port_stats_sample_is_order_insensitive():
    from repro.scenarios import PortStats
    # streamed (completion-order) folding must yield the same sample as an
    # ordered pass: the sample is canonical, not first-seen
    values = [f"v{index:02d}" for index in range(20)]
    forward, backward = PortStats("p"), PortStats("p")
    for value in values:
        forward.observe(value)
    for value in reversed(values):
        backward.observe(value)
    assert forward.value_sample == backward.value_sample
    assert len(forward.value_sample) == PortStats._SAMPLE_CAP

    merged = PortStats("p")
    merged.merge(backward)
    merged.merge(forward)
    assert merged.value_sample == forward.value_sample


def _reference_fold(stats, values):
    """The per-value fold ``PortStats.observe_column`` must equal."""
    for value in values:
        stats.total_ticks += 1
        if value is ABSENT:
            continue
        stats.present_ticks += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            stats.minimum = value if stats.minimum is None \
                else min(stats.minimum, value)
            stats.maximum = value if stats.maximum is None \
                else max(stats.maximum, value)
        else:
            stats._sample(value)


class _Level(IntEnum):
    OFF = 0
    ON = 1


_NAN = float("nan")

#: Columns folded one after another into one PortStats, so every case
#: after the first also folds into a non-empty one.
_FOLD_CASES = {
    "absent_runs": [[ABSENT, ABSENT, ABSENT], [ABSENT, 2, ABSENT, ABSENT]],
    "int_float_ties": [[1, 1.0, 2.0, 2, 1], [1.0, 2, 1]],
    "nan_after_bounds": [[3, -1.5, 7], [_NAN, 0.5, _NAN, 9.0, -4]],
    "nan_first": [[_NAN, 1, 2], [0, _NAN]],
    "bools_sampled": [[True, 1, False, True, 0.5], [False, ABSENT, True]],
    "int_enum": [[_Level.ON, 1, _Level.OFF, 0], [0.0, _Level.OFF, 1.0]],
    "many_strings": [[f"s{index % 17:02d}" for index in range(40)],
                     [f"t{index}" for index in range(15, 0, -1)]],
    "consecutive_duplicates": [["a", "a", "a", 1, "a", "b", "b", ABSENT,
                                "b", "a"], ["b", "b", "c", "c"]],
    "mixed": [["x", 2, ABSENT, True, _Level.ON, _NAN, "x", 2.0, "y"],
              [ABSENT, "z", -1, "x", False]],
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_port_stats_column_fold_equals_the_per_value_fold(case):
    from repro.scenarios import PortStats
    column, per_value, reference = (PortStats("p"), PortStats("p"),
                                    PortStats("p"))
    for values in _FOLD_CASES[case]:
        column.observe_column(values)
        for value in values:
            per_value.observe(value)
        _reference_fold(reference, values)
        # repr tells 1 from 1.0, an IntEnum member from its int and shows
        # NaN, which == would not match
        expected = repr(reference.to_json_dict())
        assert repr(column.to_json_dict()) == expected
        assert repr(per_value.to_json_dict()) == expected


def test_run_with_report_aggregates_incrementally(engine_modes_mtd):
    # run_with_report streams results into the report (observe_result);
    # the outcome equals a from_results pass and downstream callbacks
    # still see every result
    seen = []
    results, streamed = run_with_report(engine_modes_mtd, [_full_sweep()],
                                        executor="serial",
                                        on_result=seen.append)
    assert [result.name for result in seen] == ["full-sweep"]
    batch = BatchReport.from_results(engine_modes_mtd, results)
    assert streamed.to_json_dict() == batch.to_json_dict()


# -- trace JSON round trip (io layer) ---------------------------------------


def test_trace_json_round_trip_preserves_absence(engine_modes_mtd):
    trace = simulate(engine_modes_mtd,
                     {"n": [0.0, 500.0, 900.0], "ped": 0.0},
                     ticks=5)  # t_eng left absent entirely
    text = trace_to_json(trace)
    restored = trace_from_json(text)
    assert restored.component_name == trace.component_name
    assert restored.ticks == trace.ticks
    assert restored.mode_history == trace.mode_history
    assert first_difference(trace, restored) is None
    # inputs round-trip too, including absence beyond the short sequence
    assert restored.input("n").values() == trace.input("n").values()
    assert restored.input("n").presence_pattern() \
        == [True, True, True, False, False]


def test_trace_json_distinguishes_absent_from_none():
    from repro.simulation.trace import SimulationTrace
    trace = SimulationTrace("T")
    trace.record_tick({"u": ABSENT}, {"y": None})
    data = trace_to_json_dict(trace)
    assert data["inputs"]["u"]["presence"] == [False]
    assert data["outputs"]["y"]["presence"] == [True]
    restored = trace_from_json_dict(data)
    assert restored.input("u").presence_count() == 0
    assert restored.output("y").values() == [None]


def test_trace_json_rejects_malformed_payloads():
    from repro.core.errors import SerializationError
    with pytest.raises(SerializationError):
        trace_from_json("{not json")
    with pytest.raises(SerializationError):
        trace_from_json_dict({"outputs": {"y": {"values": [1, 2],
                                                "presence": [True]}}})

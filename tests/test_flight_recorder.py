"""The flight recorder: last-K-tick forensics for flat schedules.

Pins the contracts of :mod:`repro.obs.recorder`:

* the recording step is trace-equivalent to the default step on healthy
  runs, and the default ``schedule.step`` closure is structurally
  untouched (same object) whether or not recording was ever enabled;
* a scenario failing inside an op dumps a post-mortem bundle: the exact
  failing tick, op index/kind/label, the partial slot environment with
  ``slot_names``-decoded keys, the trailing ring of slot snapshots, the
  stimuli and the active span path;
* the ring is bounded (``ring_ticks``) and holds exactly the ticks
  preceding the failure;
* bundles **replay**: a fresh recorder over the same stimuli reproduces
  the ring and the failure tick exactly;
* flight recording overrides the native C loop of ``backend="batch"``
  and ``backend="native"`` (forensics needs per-tick slot environments):
  recorded runs take the wrapped flat program's recording step, without
  changing results.
"""

import json
import os

import pytest

from repro import obs
from repro.core.components import ExpressionComponent
from repro.notations.blocks import Gain
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.obs import EventLog, FlightRecorder, read_bundle
from repro.obs.recorder import _render_env
from repro.scenarios import Scenario, run_sharded
from repro.simulation import (CompiledSimulator, FlatSchedule,
                              first_difference)
from repro.simulation.engine import run_stepped


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


def divider_model():
    """A flattenable model whose DIV op raises when input ``d`` hits 0."""
    outer = DataFlowDiagram("Outer")
    outer.add_input("u")
    outer.add_input("d")
    outer.add_output("y")
    div = ExpressionComponent("DIV", {"out": "a / b"})
    div.declare_interface_from_expressions()
    gain = Gain("G", 2.0)
    outer.add(div, gain)
    outer.connect("u", "DIV.a")
    outer.connect("d", "DIV.b")
    outer.connect("DIV.out", "G.in1")
    outer.connect("G.out", "y")
    return outer


def ramp(tick):
    return float(tick)


def zero_at_5(tick):
    return 0.0 if tick == 5 else 1.0 + tick


FAILING_STIMULI = {"u": ramp, "d": zero_at_5}


def forensic_batch(ticks=12):
    return [Scenario("healthy", {"u": 1.0, "d": 2.0}, ticks=ticks),
            Scenario("boom", dict(FAILING_STIMULI), ticks=ticks),
            Scenario("healthy2", {"u": 3.0, "d": 4.0}, ticks=ticks)]


# -- the recording step ----------------------------------------------------


def test_recording_step_is_trace_equivalent_on_healthy_runs():
    model = divider_model()
    simulator = CompiledSimulator(model)
    schedule = simulator.schedule
    default_step = schedule.step
    reference = run_stepped(model, default_step, {"u": ramp, "d": 2.0}, 10,
                            False, initial_state=schedule.initial_state())

    recorder = FlightRecorder(schedule, capacity=4)
    recording = schedule.recording_step(recorder)
    recorded = run_stepped(model, recording, {"u": ramp, "d": 2.0}, 10,
                           False, initial_state=schedule.initial_state())
    assert first_difference(reference, recorded) is None
    # zero overhead when off is STRUCTURAL: the default closure is the
    # same object, recording happened in a separately built variant
    assert schedule.step is default_step
    # healthy run: bounded ring, no failure
    assert recorder.failure is None
    assert [tick for tick, _ in recorder.snapshots] == [6, 7, 8, 9]


def test_ring_clears_between_runs():
    schedule = CompiledSimulator(divider_model()).schedule
    recorder = FlightRecorder(schedule, capacity=4)
    recording = schedule.recording_step(recorder)
    model = divider_model()
    run_stepped(model, recording, {"u": 1.0, "d": 2.0}, 8, False,
                initial_state=schedule.initial_state())
    first_ring = [tick for tick, _ in recorder.snapshots]
    run_stepped(model, recording, {"u": 1.0, "d": 2.0}, 3, False,
                initial_state=schedule.initial_state())
    assert first_ring == [4, 5, 6, 7]
    assert [tick for tick, _ in recorder.snapshots] == [0, 1, 2]


def test_recorder_captures_exact_failure_tick_and_op():
    model = divider_model()
    schedule = CompiledSimulator(model).schedule
    recorder = FlightRecorder(schedule, capacity=4)
    recording = schedule.recording_step(recorder)
    with pytest.raises(Exception, match="division by zero"):
        run_stepped(model, recording, FAILING_STIMULI, 12, False,
                    initial_state=schedule.initial_state())
    failure = recorder.failure
    assert failure is not None
    assert failure["tick"] == 5
    assert "division by zero" in failure["error"]
    kind, label, _ = schedule.op_labels()[failure["op_index"]]
    assert kind == "expr" and "DIV" in label
    # the ring holds exactly the ticks preceding the failure
    assert [tick for tick, _ in recorder.snapshots] == [1, 2, 3, 4]


# -- runner integration: post-mortem bundles --------------------------------


def test_forced_scenario_error_dumps_replayable_bundle(tmp_path):
    model = divider_model()
    with obs.session(events=EventLog(), flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, forensic_batch(), executor="serial")
        bundles = list(telemetry.bundles)
        events = list(telemetry.events.events)
    assert [result.ok for result in results] == [True, False, True]
    assert len(bundles) == 1 and os.path.exists(bundles[0])
    assert os.path.basename(bundles[0]) == "POSTMORTEM_boom.json"

    bundle = read_bundle(bundles[0])
    assert bundle["schema_version"] == 1
    assert bundle["kind"] == "postmortem"
    assert bundle["scenario"] == "boom"
    assert "division by zero" in bundle["error"]
    failing = bundle["failing"]
    assert failing["tick"] == 5
    assert failing["op_kind"] == "expr"
    assert failing["op_label"].endswith("DIV [expr]")
    assert failing["partial_slots"]["Outer/DIV.b"] == 0.0
    assert failing["inputs"] == {"u": 5.0, "d": 0.0}
    assert [snapshot["tick"] for snapshot in bundle["ring"]] == [1, 2, 3, 4]
    assert bundle["ring_capacity"] == 4
    # slot names decode the environment (no anonymous slot<i> keys)
    assert all(not name.startswith("slot")
               for snapshot in bundle["ring"] for name in snapshot["slots"])
    assert "runner.run_sharded" in bundle["span_path"]
    counters = {entry["name"]: entry["value"]
                for entry in bundle["metrics"]["counters"]}
    # the metrics snapshot is taken at dump time, mid-campaign: the
    # failing scenario itself has not been recorded yet, but the
    # preceding healthy one has
    assert counters["runner.scenario.total"] == 1

    # the scenario_error event links to the bundle
    error_event = next(event for event in events
                       if event.type == "scenario_error")
    assert error_event.data["bundle"] == bundles[0]

    # REPLAY: a fresh recorder over the bundled stimuli reproduces the
    # ring and the failure tick exactly
    schedule = CompiledSimulator(model).schedule
    recorder = FlightRecorder(schedule, capacity=4)
    recording = schedule.recording_step(recorder)
    with pytest.raises(Exception, match="division by zero"):
        run_stepped(model, recording, FAILING_STIMULI, 12, False,
                    initial_state=schedule.initial_state())
    replayed = [{"tick": tick,
                 "slots": _render_env(values, schedule.slot_names)}
                for tick, values in recorder.snapshots]
    assert replayed == bundle["ring"]
    assert recorder.failure["tick"] == failing["tick"]
    assert _render_env(recorder.failure["values"],
                       schedule.slot_names) == failing["partial_slots"]


def dividing_mode_mtd():
    """An MTD whose ``Hi`` behaviour ``B`` divides by ``d``."""
    mtd = ModeTransitionDiagram("M")
    mtd.add_input("x")
    mtd.add_input("d")
    mtd.add_output("y")
    mtd.add_output("mode")
    for mode, name, source in (("Lo", "A", "x"), ("Hi", "B", "x / d")):
        block = ExpressionComponent(name, {"y": source})
        block.declare_interface_from_expressions()
        mtd.add_mode(mode, block)
    mtd.add_transition("Lo", "Hi", "x > 2")
    mtd.add_transition("Hi", "Lo", "x < 1")
    return mtd


def test_bundle_names_the_failing_mode_behaviour_op(tmp_path):
    """A mode behaviour is a ``select`` region of the MTD's program, so a
    raise inside it is pinned to the behaviour's own op, with the mode
    controller's output among the partial slots."""
    stimuli = {"x": [0.0, 1.0, 3.0, 3.0, 3.0, 3.0],
               "d": [1.0, 1.0, 1.0, 2.0, 0.0, 1.0]}
    with obs.session(flight_recording=True,
                     postmortem_dir=str(tmp_path)) as telemetry:
        result, = run_sharded(dividing_mode_mtd(),
                              [Scenario("boom", stimuli, 6)],
                              executor="serial")
        bundles = list(telemetry.bundles)
    assert not result.ok and "division by zero" in result.error
    failing = read_bundle(bundles[0])["failing"]
    assert failing["tick"] == 4
    assert (failing["op_kind"], failing["op_label"]) == ("expr",
                                                         "M/Hi/B [expr]")
    assert failing["partial_slots"]["M.#mode"] == "Hi"
    assert failing["inputs"] == {"x": 3.0, "d": 0.0}


def test_recorded_campaign_steps_per_tick_and_keeps_its_bundle(
        tmp_path, monkeypatch):
    """An unrecorded campaign runs each scenario's horizon in one loop; a
    recorded one steps per tick and leaves the same results and bundle."""
    model = divider_model()
    unrecorded = run_sharded(model, forensic_batch(), executor="serial")

    def no_horizon(self, *args):
        raise AssertionError("a recorded run took the horizon loop")

    monkeypatch.setattr(FlatSchedule, "_enter_horizon", no_horizon)
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        recorded = run_sharded(model, forensic_batch(), executor="serial")
        bundles = list(telemetry.bundles)
    assert [result.error for result in recorded] \
        == [result.error for result in unrecorded]
    for mine, theirs in zip(recorded, unrecorded):
        if mine.ok:
            assert first_difference(mine.trace, theirs.trace) is None
    bundle = read_bundle(bundles[0])
    assert bundle["failing"]["tick"] == 5
    assert bundle["failing"]["inputs"] == {"u": 5.0, "d": 0.0}
    assert [snapshot["tick"] for snapshot in bundle["ring"]] == [1, 2, 3, 4]


def test_batch_backend_falls_back_to_recorded_flat_path(tmp_path):
    model = divider_model()
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, forensic_batch(), executor="serial",
                              backend="batch")
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False, True]
    assert "division by zero" in results[1].error
    assert len(bundles) == 1
    assert read_bundle(bundles[0])["failing"]["tick"] == 5
    # results agree with the unrecorded batch run
    reference = run_sharded(model, forensic_batch(), executor="serial",
                            backend="batch")
    for expected, actual in zip(reference, results):
        assert expected.error == actual.error
        if expected.ok:
            assert first_difference(expected.trace, actual.trace) is None


def test_native_backend_falls_back_to_recorded_flat_path(tmp_path):
    model = divider_model()
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, forensic_batch(), executor="serial",
                              backend="native")
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False, True]
    assert "division by zero" in results[1].error
    assert len(bundles) == 1
    assert read_bundle(bundles[0])["failing"]["tick"] == 5
    # results agree with the unrecorded native run
    reference = run_sharded(model, forensic_batch(), executor="serial",
                            backend="native")
    for expected, actual in zip(reference, results):
        assert expected.error == actual.error
        if expected.ok:
            assert first_difference(expected.trace, actual.trace) is None


def test_postmortem_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("OBS_POSTMORTEM_DIR", str(tmp_path / "pm"))
    model = divider_model()
    with obs.session(flight_recording=True, ring_ticks=4) as telemetry:
        run_sharded(model, forensic_batch(), executor="serial")
        bundles = list(telemetry.bundles)
    assert len(bundles) == 1
    assert os.path.dirname(bundles[0]) == str(tmp_path / "pm")
    assert os.path.exists(bundles[0])


def test_no_bundle_without_flight_recording(tmp_path):
    model = divider_model()
    with obs.session(events=EventLog(),
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, forensic_batch(), executor="serial")
        bundles = list(telemetry.bundles)
        events = list(telemetry.events.events)
    assert not results[1].ok
    assert bundles == []
    assert os.listdir(str(tmp_path)) == []
    error_event = next(event for event in events
                       if event.type == "scenario_error")
    assert "bundle" not in error_event.data


def test_default_step_identity_survives_recorded_session():
    model = divider_model()
    simulator = CompiledSimulator(model)
    default_step = simulator.schedule.step
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir="."):
        simulator.run({"u": 1.0, "d": 2.0}, 6)
    assert simulator.schedule.step is default_step


def test_bundle_json_is_deterministic(tmp_path):
    """Two dumps of the same failure are byte-identical artifacts."""
    model = divider_model()
    paths = []
    for index in ("a", "b"):
        directory = str(tmp_path / index)
        with obs.session(flight_recording=True, ring_ticks=4,
                         postmortem_dir=directory) as telemetry:
            run_sharded(model, forensic_batch(), executor="serial")
            paths.extend(telemetry.bundles)
    first, second = (open(path, encoding="utf-8").read() for path in paths)
    # metrics/spans include wall-clock durations; the forensic payload
    # itself (ring, failing op, stimuli) must match exactly
    first_bundle, second_bundle = json.loads(first), json.loads(second)
    for volatile in ("metrics", "span_path"):
        first_bundle.pop(volatile), second_bundle.pop(volatile)
    assert first_bundle == second_bundle

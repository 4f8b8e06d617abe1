"""The flight recorder: last-K-tick forensics for flat schedules.

Pins the contracts of :mod:`repro.obs.recorder`:

* a recorded run takes the observed horizon loop, is trace-equivalent to
  an unrecorded one on healthy runs, and leaves the default horizon loop
  structurally untouched (same object);
* a scenario failing inside an op dumps a post-mortem bundle: the exact
  failing tick, op index/kind/label, the partial slot environment with
  ``slot_names``-decoded keys, the trailing ring of slot snapshots, the
  stimuli and the active span path;
* the ring is bounded (``ring_ticks``), holds exactly the ticks preceding
  the failure, ends at a failing output check like a stepped run, and is
  empty for a scenario that never ran a tick;
* bundles **replay**: a fresh recorder over the same stimuli reproduces
  the ring and the failure tick exactly;
* flight recording overrides the native C loop of ``backend="batch"``
  and ``backend="native"`` (forensics needs per-tick slot environments):
  recorded runs take the wrapped flat program's observed loop, without
  changing results.
"""

import json
import os

import pytest

from repro import obs
from repro.core.components import ExpressionComponent
from repro.core.types import FloatType
from repro.notations.blocks import Gain
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.obs import EventLog, read_bundle
from repro.obs.recorder import _render_env
from repro.scenarios import Scenario, run_sharded
from repro.simulation import (CompiledSimulator, FlatSchedule,
                              first_difference)


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


# -- the recording loop ------------------------------------------------------


def recorded(simulator, stimuli, ticks, ring_ticks=4):
    """Run *simulator* once in a flight-recording session; returns the
    trace (or the raised exception) and the schedule's recorder."""
    with obs.session(flight_recording=True, ring_ticks=ring_ticks) \
            as telemetry:
        try:
            result = simulator.run(stimuli, ticks)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            result = exc
    return result, telemetry.recorders[simulator.schedule]


def test_recorded_run_is_trace_equivalent_on_healthy_runs():
    simulator = CompiledSimulator(divider_model(), backend="flat")
    reference = simulator.run({"u": ramp, "d": 2.0}, 10)
    default_horizon = simulator.schedule._horizon  # noqa: SLF001
    trace, recorder = recorded(simulator, {"u": ramp, "d": 2.0}, 10)
    assert first_difference(reference, trace) is None
    # zero overhead when off is STRUCTURAL: the default loop is the same
    # object, recording happened in a separately built variant
    assert simulator.schedule._horizon is default_horizon  # noqa: SLF001
    # healthy run: bounded ring, no failure
    assert recorder.failure is None
    assert [tick for tick, _ in recorder.snapshots] == [6, 7, 8, 9]


def test_ring_clears_between_runs():
    simulator = CompiledSimulator(divider_model(), backend="flat")
    with obs.session(flight_recording=True, ring_ticks=4) as telemetry:
        simulator.run({"u": 1.0, "d": 2.0}, 8)
        recorder = telemetry.recorders[simulator.schedule]
        first_ring = [tick for tick, _ in recorder.snapshots]
        simulator.run({"u": 1.0, "d": 2.0}, 3)
    assert first_ring == [4, 5, 6, 7]
    assert [tick for tick, _ in recorder.snapshots] == [0, 1, 2]


def test_recorder_captures_exact_failure_tick_and_op():
    simulator = CompiledSimulator(divider_model(), backend="flat")
    error, recorder = recorded(simulator, FAILING_STIMULI, 12)
    assert "division by zero" in str(error)
    failure = recorder.failure
    assert failure is not None
    assert failure["tick"] == 5
    assert "division by zero" in failure["error"]
    assert failure["inputs"] == {"u": 5.0, "d": 0.0}
    kind, label = simulator.schedule.op_labels()[failure["op_index"]]
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
    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule
    error, recorder = recorded(simulator, FAILING_STIMULI, 12)
    assert "division by zero" in str(error)
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


def test_recorded_campaign_takes_the_horizon_loop_and_keeps_its_bundle(
        tmp_path, monkeypatch):
    """Recorded or not, a campaign runs each scenario's horizon in one
    loop and never a per-tick step; recording leaves the same results and
    writes the bundle of the failing scenario."""
    model = divider_model()

    def no_step(self):
        raise AssertionError("a run asked for the per-tick step")

    monkeypatch.setattr(FlatSchedule, "step", property(no_step))
    unrecorded = run_sharded(model, forensic_batch(), executor="serial")
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        recorded_results = run_sharded(model, forensic_batch(),
                                       executor="serial")
        bundles = list(telemetry.bundles)
    assert [result.error for result in recorded_results] \
        == [result.error for result in unrecorded]
    for mine, theirs in zip(recorded_results, unrecorded):
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
    """A recorded session neither replaces the default horizon loop nor
    generates a per-tick step."""
    model = divider_model()
    simulator = CompiledSimulator(model, backend="flat")
    simulator.run({"u": 1.0, "d": 2.0}, 6)
    default_horizon = simulator.schedule._horizon  # noqa: SLF001
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir="."):
        simulator.run({"u": 1.0, "d": 2.0}, 6)
    assert simulator.schedule._horizon is default_horizon  # noqa: SLF001
    assert "step" not in vars(simulator.schedule)


def bounded_model():
    """``y = u / d`` on an input ``u`` and an output ``y`` both typed
    ``float[0..10]``."""
    model = DataFlowDiagram("Bounded")
    model.add_input("u", FloatType(0.0, 10.0))
    model.add_input("d")
    model.add_output("y", FloatType(0.0, 10.0))
    div = ExpressionComponent("DIV", {"out": "a / b"})
    div.declare_interface_from_expressions()
    model.add(div)
    model.connect("u", "DIV.a")
    model.connect("d", "DIV.b")
    model.connect("DIV.out", "y")
    return model


def test_a_scenario_that_never_ran_dumps_no_bundle(tmp_path):
    """A scenario whose first input fails its type check runs no tick, so
    its window is empty: no bundle holds the previous scenario's ticks."""
    batch = [Scenario("healthy", {"u": 1.0, "d": 1.0}, 8),
             Scenario("bad_at_0", {"u": 99.0, "d": 1.0}, 8)]
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(bounded_model(), batch, executor="serial",
                              check_types=True)
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False]
    assert "Bounded.u@t0" in results[1].error
    assert bundles == [] and os.listdir(str(tmp_path)) == []


def test_a_scenario_with_rejected_stimuli_dumps_no_bundle(tmp_path):
    """Stimuli for an unknown port are rejected before any tick runs: the
    ring is reset first, so no bundle carries the previous scenario's
    ticks under the rejected scenario's name."""
    batch = [Scenario("healthy", {"u": 1.0, "d": 2.0}, 8),
             Scenario("typo", {"u": 1.0, "dd": 2.0}, 8)]
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(divider_model(), batch, executor="serial")
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False]
    assert "dd" in results[1].error
    assert bundles == [] and os.listdir(str(tmp_path)) == []


@pytest.mark.parametrize("late_error", [False, True],
                         ids=["output_check", "later_op_error"])
def test_observed_window_ends_at_the_failing_output_check(tmp_path,
                                                          late_error):
    """The output check fails at tick 5 of 27: the ring and the profile
    end there, and an op that would raise at tick 10 is never named."""
    d = [1.0] * 27
    d[5] = 0.05  # y = 20.0
    if late_error:
        d[10] = 0.0
    scenario = Scenario("late", {"u": 1.0, "d": d}, 27)
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        result, = run_sharded(bounded_model(), [scenario],
                              executor="serial", check_types=True)
        bundles = list(telemetry.bundles)
    assert "Bounded.y@t5" in result.error
    bundle = read_bundle(bundles[0])
    assert [snapshot["tick"] for snapshot in bundle["ring"]] == [2, 3, 4, 5]
    assert bundle["failing"] is None
    with obs.session(profile_ops=True) as telemetry:
        run_sharded(bounded_model(), [scenario], executor="serial",
                    check_types=True)
    profile, = telemetry.profiles.values()
    assert profile.ticks == 6


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

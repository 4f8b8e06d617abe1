"""The campaign event log: crash safety, resume, executor invariance.

Pins the contracts of :mod:`repro.obs.events`:

* emits are typed (closed vocabulary) and monotonically sequenced, the
  watermark tracks the last appended event, and ``to_jsonl`` is
  **byte-stable** under a fake clock;
* the JSONL file is crash-safe: a truncated trailing line is skipped
  with a warning on replay, damage anywhere else raises, and
  :meth:`EventLog.resume` continues from the surviving watermark;
* the sharded runner's event stream is executor-invariant after
  :func:`normalized_stream`: serial == thread == process for the same
  batch, worker provenance and completion order notwithstanding;
* the search loop emits one deterministic ``search_round`` per round;
* :class:`CampaignProgress` folds a stream (live tail or full replay)
  into the same progress picture.

Process-pool tests are marked ``parallel``, matching the runner suite.
"""

import json
import warnings

import pytest

from repro import obs
from repro.obs import (CampaignEvent, CampaignProgress, EventLog,
                       EventLogError, MetricsRegistry, normalized_stream,
                       read_events, tail_events)
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.search import SearchConfig, search_coverage


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class FakeClock:
    """A deterministic monotonic clock: 0.0, 0.25, 0.5, ..."""

    def __init__(self, step=0.25):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def exploding(tick):
    """Module-level so process-pool scenarios can pickle it."""
    if tick >= 3:
        raise ValueError("sensor model exploded")
    return 0.0


def engine_batch(count=6, ticks=30, with_failure=True):
    batch = [Scenario(f"drive{index}", {
        "n": RandomWalk(seed=index, start=0.0, step=500.0,
                        low=0.0, high=6000.0),
        "ped": RandomWalk(seed=100 + index, start=0.0, step=25.0,
                          low=0.0, high=100.0),
        "t_eng": 15.0 + 5.0 * index,
    }, ticks=ticks) for index in range(count)]
    if with_failure:
        batch.insert(2, Scenario("boom", {"n": exploding}, ticks=ticks))
    return batch


# -- the write side ---------------------------------------------------------


def test_emit_sequences_and_watermark():
    log = EventLog(clock=FakeClock())
    assert log.watermark == 0
    first = log.emit("campaign_started", component="X", scenarios=2)
    second = log.emit("scenario_finished", name="a", ticks=5)
    assert (first.seq, second.seq) == (1, 2)
    assert log.watermark == 2
    assert [event.type for event in log.events] \
        == ["campaign_started", "scenario_finished"]
    assert first.time == 0.0 and second.time == 0.25


def test_emit_rejects_unknown_event_types():
    log = EventLog()
    with pytest.raises(EventLogError):
        log.emit("scenario_exploded", name="boom")
    assert log.watermark == 0 and log.events == []


def test_to_jsonl_is_byte_stable_under_fake_clock():
    def build():
        log = EventLog(clock=FakeClock())
        log.emit("campaign_started", component="X", scenarios=2,
                 executor="serial")
        log.emit("scenario_finished", name="a", ticks=10, duration_s=0.5)
        log.emit("scenario_error", name="b", ticks=10, exc="ValueError",
                 error="ValueError: boom")
        log.emit("campaign_finished", scenarios=2, ok=1, failed=1)
        return log.to_jsonl()

    first, second = build(), build()
    assert first == second
    records = [json.loads(line) for line in first.splitlines()]
    assert [record["seq"] for record in records] == [1, 2, 3, 4]
    assert all(record["v"] == 1 for record in records)
    # keys are sorted inside each record: the byte-stability mechanism
    for record in records:
        assert list(record) == sorted(record)
        assert list(record["data"]) == sorted(record["data"])


def test_adopt_resequences_and_records_provenance():
    worker_log = EventLog(clock=FakeClock())
    worker_log.emit("scenario_finished", name="a", ticks=5)
    worker_log.emit("scenario_finished", name="b", ticks=5)

    parent = EventLog(clock=FakeClock())
    parent.emit("campaign_started", component="X", scenarios=2)
    parent.adopt_all(worker_log.events, worker="pid-123")
    assert [event.seq for event in parent.events] == [1, 2, 3]
    adopted = parent.events[1:]
    assert all(event.data["worker"] == "pid-123" for event in adopted)
    # the worker's own timestamps survive the merge
    assert [event.time for event in adopted] == [0.0, 0.25]


def test_from_json_dict_rejects_future_schema():
    record = CampaignEvent(1, "campaign_started", 0.0,
                           {"scenarios": 1}).to_json_dict()
    assert CampaignEvent.from_json_dict(record).seq == 1
    record["v"] = 99
    with pytest.raises(EventLogError):
        CampaignEvent.from_json_dict(record)


# -- crash safety -----------------------------------------------------------


def test_read_events_skips_truncated_trailing_line(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(clock=FakeClock(), path=path) as log:
        log.emit("campaign_started", component="X", scenarios=2)
        log.emit("scenario_finished", name="a", ticks=5)
    # a crash mid-append leaves a half-written trailing line
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 3, "type": "campaign_fin')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        events, watermark = read_events(path)
    assert [event.seq for event in events] == [1, 2]
    assert watermark == 2
    assert any("truncated" in str(warning.message).lower()
               for warning in caught)


def test_read_events_raises_on_mid_file_damage(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(clock=FakeClock(), path=path) as log:
        log.emit("campaign_started", component="X", scenarios=2)
        log.emit("scenario_finished", name="a", ticks=5)
    content = open(path, encoding="utf-8").read().splitlines()
    content[0] = content[0][:20]  # a hole in the MIDDLE is lost history
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(content) + "\n")
    with pytest.raises(EventLogError):
        read_events(path)


def test_resume_continues_from_watermark(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(clock=FakeClock(), path=path) as log:
        log.emit("campaign_started", component="X", scenarios=3)
        log.emit("scenario_finished", name="a", ticks=5)

    resumed = EventLog.resume(path, clock=FakeClock())
    assert resumed.watermark == 2
    assert resumed.events == []  # watermark only, not the history
    with resumed:
        resumed.emit("scenario_finished", name="b", ticks=5)
    events, watermark = read_events(path)
    assert [event.seq for event in events] == [1, 2, 3]
    assert watermark == 3


def test_tail_events_sees_every_event_exactly_once(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(clock=FakeClock(), path=path) as log:
        log.emit("campaign_started", component="X", scenarios=2)
        seen = [event.seq for event in tail_events(path, after=0)]
        log.emit("scenario_finished", name="a", ticks=5)
        log.emit("scenario_finished", name="b", ticks=5)
        fresh = tail_events(path, after=max(seen))
    assert seen == [1]
    assert [event.seq for event in fresh] == [2, 3]
    assert tail_events(path, after=3) == []


# -- runner integration: executor invariance --------------------------------


def _campaign_stream(component, executor, **kwargs):
    with obs.session(events=EventLog()) as telemetry:
        run_sharded(component, engine_batch(), executor=executor, **kwargs)
        return list(telemetry.events.events)


def test_serial_campaign_emits_full_lifecycle(engine_modes_mtd):
    events = _campaign_stream(engine_modes_mtd, "serial")
    types = [event.type for event in events]
    assert types[0] == "campaign_started"
    assert types[-1] == "campaign_finished"
    assert types.count("shard_dispatched") == 1
    assert types.count("scenario_finished") == 6
    assert types.count("scenario_error") == 1
    finished = events[-1]
    assert finished.data["ok"] == 6 and finished.data["failed"] == 1
    error = next(event for event in events
                 if event.type == "scenario_error")
    assert error.data["exc"] == "ValueError"
    assert "sensor model exploded" in error.data["error"]
    # sequence numbers are gapless and monotone
    assert [event.seq for event in events] \
        == list(range(1, len(events) + 1))


def test_thread_stream_matches_serial_after_normalization(engine_modes_mtd):
    serial = _campaign_stream(engine_modes_mtd, "serial")
    threaded = _campaign_stream(engine_modes_mtd, "thread", max_workers=3)
    assert normalized_stream(serial) == normalized_stream(threaded)
    # adopted worker events carry provenance before normalization scrubs it
    assert any(event.data.get("worker") for event in threaded
               if event.type == "scenario_finished")


@pytest.mark.parallel
def test_process_stream_matches_serial_after_normalization(engine_modes_mtd):
    serial = _campaign_stream(engine_modes_mtd, "serial")
    processed = _campaign_stream(engine_modes_mtd, "process", max_workers=3)
    assert normalized_stream(serial) == normalized_stream(processed)


def test_batch_backend_stream_matches_per_scenario(engine_modes_mtd):
    from repro.notations.dfd import DataFlowDiagram
    dfd = DataFlowDiagram("EngineSystem")
    dfd.add_subcomponent(engine_modes_mtd)
    for port in ("n", "ped", "t_eng"):
        dfd.add_input(port)
        dfd.connect(port, f"EngineOperationModes.{port}")
    for port in ("fuel_factor", "mode"):
        dfd.add_output(port)
        dfd.connect(f"EngineOperationModes.{port}", port)
    serial = _campaign_stream(dfd, "serial")
    batched = _campaign_stream(dfd, "serial", backend="batch")
    assert normalized_stream(serial) == normalized_stream(batched)


def test_search_loop_emits_one_round_event_per_round(engine_modes_mtd):
    battery = [Scenario("weak", {"n": 0.0, "ped": 0.0, "t_eng": 20.0},
                        ticks=20)]
    with obs.session(events=EventLog()) as telemetry:
        report = search_coverage(engine_modes_mtd, battery,
                                 SearchConfig(seed=7, max_rounds=12,
                                              population=16))
        rounds = [event for event in telemetry.events.events
                  if event.type == "search_round"]
    assert len(rounds) == len(report.rounds)
    assert [event.data["round"] for event in rounds] \
        == [stats.index for stats in report.rounds]
    assert [event.data for event in rounds] \
        == [stats.to_json_dict() for stats in report.rounds]


# -- live progress ----------------------------------------------------------


def test_progress_folds_stream_incrementally(engine_modes_mtd):
    events = _campaign_stream(engine_modes_mtd, "serial")
    replayed = CampaignProgress.from_events(events)
    live = CampaignProgress()
    for event in events:  # tailing one event at a time
        live.observe(event)
    assert (live.finished, live.failed, live.expected, live.watermark) \
        == (replayed.finished, replayed.failed, replayed.expected,
            replayed.watermark)
    assert replayed.finished == 7 and replayed.failed == 1
    assert replayed.expected == 7
    assert replayed.errors_by_kind == {"ValueError": 1}
    assert replayed.campaigns_started == 1
    assert replayed.campaigns_finished == 1


def test_format_progress_renders_bar_failures_and_quantiles():
    log = EventLog(clock=FakeClock())
    log.emit("campaign_started", component="X", scenarios=4)
    log.emit("scenario_finished", name="a", ticks=10)
    log.emit("scenario_error", name="b", ticks=10, exc="ValueError",
             error="ValueError: boom")
    registry = MetricsRegistry()
    for duration in (0.01, 0.02, 0.03):
        registry.histogram("runner.scenario.duration_s").observe(duration)
    registry.counter("runner.scenario.count").inc(3)
    text = CampaignProgress.from_events(log.events).format_progress(
        registry=registry)
    assert "2/4 scenarios (50%)" in text
    assert "1 failed" in text
    assert "ValueError x1" in text
    assert "p50" in text and "p90" in text and "p99" in text
    assert "runner.scenario.count" in text


def test_normalized_stream_scrubs_volatile_keys():
    log = EventLog(clock=FakeClock())
    log.emit("shard_dispatched", shard=0, scenarios=3, executor="thread")
    log.emit("scenario_finished", name="a", ticks=5, worker="pid-1",
             duration_s=0.25)
    normalized = normalized_stream(log.events)
    assert normalized == [
        {"type": "scenario_finished", "data": {"name": "a", "ticks": 5}}]

"""The sharded scenario runner: differential equivalence, isolation, order.

Process-pool tests are marked ``parallel`` so constrained sandboxes can run
the suite with ``-m "not parallel"``; the serial and thread executors keep
the runner covered everywhere.
"""

import pytest

from repro import obs
from repro.core.errors import SimulationError
from repro.io import trace_to_json
from repro.obs.events import EventLog
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import ScenarioSuite, first_difference


def _engine_batch(count=8, ticks=40):
    return [Scenario(f"drive{index}", {
        "n": RandomWalk(seed=index, start=0.0, step=500.0,
                        low=0.0, high=6000.0),
        "ped": RandomWalk(seed=100 + index, start=0.0, step=25.0,
                          low=0.0, high=100.0),
        "t_eng": 15.0 + 5.0 * index,
    }, ticks=ticks) for index in range(count)]


def _assert_same_traces(reference_results, results):
    assert [r.name for r in results] == [r.name for r in reference_results]
    for expected, actual in zip(reference_results, results):
        assert actual.error is None, (actual.name, actual.error)
        assert first_difference(expected.trace, actual.trace) is None
        assert expected.trace.mode_history == actual.trace.mode_history


# -- serial / thread executors (run everywhere) -----------------------------


def test_serial_runner_matches_scenario_suite(engine_modes_mtd):
    batch = _engine_batch()
    suite = ScenarioSuite(engine_modes_mtd)
    for scenario in batch:
        suite.add(scenario.name, scenario.stimuli, scenario.ticks)
    suite_traces = suite.run_all()
    results = run_sharded(engine_modes_mtd, batch, executor="serial")
    for result in results:
        assert result.ok
        assert first_difference(suite_traces[result.name], result.trace) is None
        assert suite_traces[result.name].mode_history \
            == result.trace.mode_history


def test_thread_runner_matches_serial(engine_modes_mtd):
    batch = _engine_batch()
    serial = run_sharded(engine_modes_mtd, batch, executor="serial")
    threaded = run_sharded(engine_modes_mtd, batch, executor="thread",
                           max_workers=4)
    _assert_same_traces(serial, threaded)


def test_thread_runner_with_shared_generator_instance(engine_modes_mtd):
    # one generator object shared by every scenario (scenario_grid's `base`
    # does exactly this): concurrent cache extension must stay identical to
    # the serial draw order
    shared = RandomWalk(seed=42, start=1000.0, step=300.0,
                        low=0.0, high=6000.0)
    batch = [Scenario(f"shared{index}",
                      {"n": shared, "ped": float(index), "t_eng": 40.0},
                      ticks=120) for index in range(8)]
    expected = RandomWalk(seed=42, start=1000.0, step=300.0,
                          low=0.0, high=6000.0).materialize(120)
    threaded = run_sharded(engine_modes_mtd, batch, executor="thread",
                           max_workers=4)
    for result in threaded:
        assert result.ok
        assert result.trace.input("n").values() == expected
    assert len(shared.materialize(120)) == 120


def test_runner_streams_results_via_callback(engine_modes_mtd):
    batch = _engine_batch(5, ticks=10)
    seen = []
    results = run_sharded(engine_modes_mtd, batch, executor="thread",
                          max_workers=2, on_result=seen.append)
    assert sorted(r.name for r in seen) == sorted(r.name for r in results)


def test_runner_isolates_failing_scenarios(engine_modes_mtd):
    def exploding(tick):
        if tick >= 3:
            raise ValueError("sensor model exploded")
        return 0.0

    batch = _engine_batch(4, ticks=20)
    batch.insert(2, Scenario("boom", {"n": exploding}, ticks=20))
    results = run_sharded(engine_modes_mtd, batch, executor="serial")
    assert [r.name for r in results] \
        == ["drive0", "drive1", "boom", "drive2", "drive3"]
    failed = results[2]
    assert not failed.ok and "sensor model exploded" in failed.error
    assert failed.trace is None
    assert all(r.ok for r in results if r.name != "boom")


def test_runner_rejects_bad_batches(engine_modes_mtd):
    with pytest.raises(SimulationError):
        run_sharded(engine_modes_mtd, [("not", "a", "scenario")])
    duplicate = [Scenario("x", {}, 2), Scenario("x", {}, 3)]
    with pytest.raises(SimulationError):
        run_sharded(engine_modes_mtd, duplicate)
    with pytest.raises(SimulationError):
        run_sharded(engine_modes_mtd, [Scenario("ok", {}, 2)],
                    executor="gpu")
    assert run_sharded(engine_modes_mtd, []) == []
    for max_workers in (0, -3):
        with pytest.raises(SimulationError,
                           match="max_workers must be >= 1"):
            run_sharded(engine_modes_mtd, [Scenario("ok", {}, 2)],
                        executor="thread", max_workers=max_workers)


def test_runner_rejects_structure_only_components():
    from repro.core.components import Component
    shell = Component("InterfaceOnly")
    with pytest.raises(SimulationError):
        run_sharded(shell, [Scenario("s", {}, 1)])


def test_unpicklable_model_gets_a_clear_error(engine_modes_mtd):
    from repro.core.components import FunctionComponent
    block = FunctionComponent("Opaque", lambda inputs: {"out": 1.0})
    block.add_input("in1")
    block.add_output("out")
    with pytest.raises(SimulationError, match="thread"):
        run_sharded(block, [Scenario("s", {"in1": 1.0}, 2)],
                    executor="process")
    # threads and serial runs receive the component itself, not a pickle
    for executor in ("thread", "serial"):
        [result] = run_sharded(block, [Scenario("s", {"in1": 1.0}, 2)],
                               executor=executor)
        assert result.ok, (executor, result.error)


def test_collect_modes_observes_hierarchical_machines(engine_modes_mtd):
    batch = _engine_batch(2, ticks=30)
    results = run_sharded(engine_modes_mtd, batch, executor="serial",
                          collect_modes=True)
    for result in results:
        histories = result.mode_paths
        assert "EngineOperationModes" in histories
        assert len(histories["EngineOperationModes"]) == 30
        assert histories["EngineOperationModes"] == \
            result.trace.mode_history


# -- process executor (marked parallel) -------------------------------------


@pytest.mark.parallel
def test_process_runner_traces_identical_to_serial(engine_modes_mtd):
    batch = _engine_batch(8, ticks=50)
    serial = run_sharded(engine_modes_mtd, batch, executor="serial",
                         collect_modes=True)
    sharded = run_sharded(engine_modes_mtd, batch, executor="process",
                          max_workers=2, collect_modes=True)
    _assert_same_traces(serial, sharded)
    for expected, actual in zip(serial, sharded):
        assert expected.mode_paths == actual.mode_paths


@pytest.mark.parallel
def test_process_runner_chunked_submission(engine_modes_mtd):
    batch = _engine_batch(6, ticks=20)
    serial = run_sharded(engine_modes_mtd, batch, executor="serial")
    chunked = run_sharded(engine_modes_mtd, batch, executor="process",
                          max_workers=2, chunk_size=3)
    _assert_same_traces(serial, chunked)


@pytest.mark.parallel
def test_process_runner_isolates_unpicklable_stimuli(engine_modes_mtd):
    batch = _engine_batch(3, ticks=10)
    batch.append(Scenario("lambda", {"n": lambda tick: 0.0}, ticks=10))
    results = run_sharded(engine_modes_mtd, batch, executor="process",
                          max_workers=2)
    by_name = {result.name: result for result in results}
    assert not by_name["lambda"].ok
    assert all(by_name[s.name].ok for s in batch[:3])


@pytest.mark.parallel
def test_scenario_suite_run_parallel_matches_run_all(engine_modes_mtd):
    suite = ScenarioSuite(engine_modes_mtd)
    for scenario in _engine_batch(6, ticks=25):
        suite.add(scenario.name, scenario.stimuli, scenario.ticks)
    serial = suite.run_all()
    parallel = suite.run_parallel(max_workers=2)
    assert list(parallel) == list(serial)
    for name in serial:
        assert first_difference(serial[name], parallel[name]) is None
        assert serial[name].mode_history == parallel[name].mode_history


def test_scenario_suite_run_parallel_thread_fallback(engine_modes_mtd):
    suite = ScenarioSuite(engine_modes_mtd)
    for scenario in _engine_batch(4, ticks=15):
        suite.add(scenario.name, scenario.stimuli, scenario.ticks)
    serial = suite.run_all()
    parallel = suite.run_parallel(max_workers=2, executor="thread")
    assert list(parallel) == list(serial)
    for name in serial:
        assert first_difference(serial[name], parallel[name]) is None


def test_scenario_suite_run_parallel_propagates_failures(engine_modes_mtd):
    def exploding(tick):
        raise RuntimeError("bad stimulus")

    suite = ScenarioSuite(engine_modes_mtd)
    suite.add("boom", {"n": exploding}, ticks=5)
    with pytest.raises(SimulationError, match="boom"):
        suite.run_parallel(executor="thread")


# -- satellite: ScenarioSuite.add tick validation ---------------------------


def test_scenario_suite_add_rejects_non_positive_ticks(engine_modes_mtd):
    suite = ScenarioSuite(engine_modes_mtd)
    with pytest.raises(SimulationError, match="positive integer"):
        suite.add("zero", {}, ticks=0)
    with pytest.raises(SimulationError, match="positive integer"):
        suite.add("negative", {}, ticks=-5)
    with pytest.raises(SimulationError, match="positive integer"):
        suite.add("fractional", {}, ticks=2.5)
    with pytest.raises(SimulationError, match="positive integer"):
        suite.add("boolean", {}, ticks=True)
    suite.add("fine", {}, ticks=1)
    assert suite.names() == ["fine"]


def test_scenario_suite_scenarios_accessor(engine_modes_mtd):
    suite = ScenarioSuite(engine_modes_mtd)
    suite.add("a", {"n": 100.0}, ticks=7)
    scenarios = suite.scenarios()
    assert len(scenarios) == 1
    assert isinstance(scenarios[0], Scenario)
    assert scenarios[0].name == "a"
    assert scenarios[0].ticks == 7
    assert scenarios[0].stimuli == {"n": 100.0}


# -- satellite: batched dispatch (backend="batch") --------------------------


def _flattenable_engine():
    """The engine-mode MTD wrapped in a composite so the root flattens
    (batch backend requirement); the MTD itself stays a nested leaf."""
    from repro.casestudy import build_engine_modes_mtd
    from repro.notations.dfd import DataFlowDiagram

    dfd = DataFlowDiagram("EngineSystem")
    mtd = build_engine_modes_mtd()
    dfd.add_subcomponent(mtd)
    for port in ("n", "ped", "t_eng"):
        dfd.add_input(port)
        dfd.connect(port, f"EngineOperationModes.{port}")
    for port in ("fuel_factor", "mode"):
        dfd.add_output(port)
        dfd.connect(f"EngineOperationModes.{port}", port)
    return dfd


def test_batch_backend_serial_matches_per_scenario(engine_modes_mtd):
    model = _flattenable_engine()
    batch = _engine_batch(8, ticks=30)
    per_scenario = run_sharded(model, batch, executor="serial",
                               collect_modes=True)
    batched = run_sharded(model, batch, executor="serial", backend="batch",
                          collect_modes=True)
    _assert_same_traces(per_scenario, batched)
    for expected, actual in zip(per_scenario, batched):
        assert expected.mode_paths == actual.mode_paths


def test_batch_backend_thread_whole_shard_sweeps():
    model = _flattenable_engine()
    batch = _engine_batch(10, ticks=25)
    serial = run_sharded(model, batch, executor="serial")
    batched = run_sharded(model, batch, executor="thread", backend="batch",
                          max_workers=3)
    _assert_same_traces(serial, batched)
    # more workers than scenarios: order and traces unchanged
    small = run_sharded(model, batch[:2], executor="thread", backend="batch",
                        max_workers=16)
    _assert_same_traces(serial[:2], small)


def _dispatch_and_traces(model, batch, executor, backend):
    events = EventLog()
    with obs.session(events=events):
        results = run_sharded(model, batch, executor=executor,
                              backend=backend, max_workers=3)
    dispatched = [event.data["scenarios"] for event in events.events
                  if event.type == "shard_dispatched"]
    return dispatched, results


@pytest.mark.parametrize("executor", [
    "serial", "thread", pytest.param("process", marks=pytest.mark.parallel)])
def test_batch_backend_dispatches_like_native(executor):
    """``backend="batch"`` is an alias of ``"native"``: the pool receives
    the same tasks and returns the same traces."""
    model = _flattenable_engine()
    batch = _engine_batch(10, ticks=25)
    native_dispatch, native = _dispatch_and_traces(model, batch, executor,
                                                   "native")
    batch_dispatch, batched = _dispatch_and_traces(model, batch, executor,
                                                   "batch")
    assert batch_dispatch == native_dispatch
    if executor != "serial":
        assert batch_dispatch == [1] * len(batch)
    _assert_same_traces(native, batched)
    assert [trace_to_json(r.trace) for r in batched] \
        == [trace_to_json(r.trace) for r in native]


def test_batch_backend_isolates_failing_lane_in_shard():
    def exploding(tick):
        if tick >= 3:
            raise ValueError("sensor model exploded")
        return 0.0

    model = _flattenable_engine()
    batch = _engine_batch(4, ticks=20)
    batch.insert(2, Scenario("boom", {"n": exploding}, ticks=20))
    results = run_sharded(model, batch, executor="serial", backend="batch")
    assert [r.name for r in results] \
        == ["drive0", "drive1", "boom", "drive2", "drive3"]
    failed = results[2]
    assert not failed.ok and "sensor model exploded" in failed.error
    assert failed.trace is None
    assert all(r.ok for r in results if r.name != "boom")
    # identical error string to the per-scenario path
    reference = run_sharded(model, batch, executor="serial")
    assert reference[2].error == failed.error


def test_batch_backend_empty_battery_and_chunk_override():
    model = _flattenable_engine()
    assert run_sharded(model, [], executor="serial", backend="batch") == []
    batch = _engine_batch(7, ticks=10)
    serial = run_sharded(model, batch, executor="serial")
    chunked = run_sharded(model, batch, executor="thread", backend="batch",
                          max_workers=2, chunk_size=3)
    _assert_same_traces(serial, chunked)


def test_execute_batch_falls_back_without_batch_schedule(engine_modes_mtd):
    from repro.scenarios import execute_batch
    from repro.simulation import CompiledSimulator
    simulator = CompiledSimulator(engine_modes_mtd)
    batch = _engine_batch(3, ticks=10)
    results = execute_batch(simulator, batch)
    reference = [r for r in run_sharded(engine_modes_mtd, batch,
                                        executor="serial")]
    _assert_same_traces(reference, results)


@pytest.mark.parallel
def test_batch_backend_process_matches_serial():
    model = _flattenable_engine()
    batch = _engine_batch(8, ticks=30)
    serial = run_sharded(model, batch, executor="serial",
                         collect_modes=True)
    sharded = run_sharded(model, batch, executor="process", backend="batch",
                          max_workers=2, collect_modes=True)
    _assert_same_traces(serial, sharded)
    for expected, actual in zip(serial, sharded):
        assert expected.mode_paths == actual.mode_paths

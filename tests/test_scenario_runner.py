"""The sharded scenario runner: differential equivalence, isolation, order.

Process-pool tests are marked ``parallel`` so constrained sandboxes can run
the suite with ``-m "not parallel"``; the serial and thread executors keep
the runner covered everywhere.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import obs
from repro.casestudy import build_engine_modes_mtd
from repro.core.components import Component
from repro.core.errors import SimulationError
from repro.core.values import ABSENT
from repro.io import trace_to_json
from repro.obs.events import EventLog
from repro.scenarios import RandomWalk, Scenario, run_sharded, runner
from repro.simulation import (ScenarioSuite, first_difference,
                              native_available)

#: The ``src`` directory holding :mod:`repro`, for subprocesses.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


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


# -- warm pools (marked parallel where a process pool runs) -----------------


class Crasher(Component):
    """Passes ``x`` through and ends its own process at tick 3 of a run
    fed a negative ``x``: a worker crash no Python handler can catch.
    Only ever run it in a process pool."""

    def __init__(self, name):
        super().__init__(name)
        self.add_input("x")
        self.add_output("out")

    def react(self, inputs, state, tick):
        x = inputs.get("x", ABSENT)
        if x is not ABSENT and x < 0 and tick >= 3:
            os._exit(3)
        return {"out": x}, state


def _crasher_batch(count, prefix):
    return [Scenario(f"{prefix}{index}",
                     {"x": RandomWalk(seed=index, start=5.0, step=1.0,
                                      low=0.0, high=10.0)}, ticks=12)
            for index in range(count)]


BACKENDS = ["auto", pytest.param("native", marks=pytest.mark.skipif(
    not native_available(), reason="no C compiler on this host"))]


@pytest.mark.parallel
@pytest.mark.parametrize("backend", BACKENDS)
def test_broken_pool_is_replaced_for_the_next_campaign(backend):
    """A worker crash breaks the shared pool; the campaign that saw it
    isolates its failed tasks, and the next campaign on the same
    ``(executor, size)`` runs on a fresh pool with every scenario ok."""
    model = Crasher(f"Crasher_{backend}")
    crashing = _crasher_batch(6, "c")
    crashing.insert(3, Scenario("crash", {"x": -1.0}, ticks=12))
    pool = runner._shared_pool("process", 2)
    first = run_sharded(model, crashing, executor="process", max_workers=2,
                        backend=backend)
    by_name = {result.name: result for result in first}
    assert by_name["crash"].error.startswith("BrokenProcessPool")
    assert runner._POOLS.get(("process", 2)) is not pool

    healthy = _crasher_batch(8, "h")
    serial = run_sharded(model, healthy, executor="serial", backend=backend)
    second = run_sharded(model, healthy, executor="process", max_workers=2,
                         backend=backend)
    assert all(result.ok for result in second), \
        [(result.name, result.error) for result in second]
    _assert_same_traces(serial, second)
    assert not {result.worker for result in first} \
        & {result.worker for result in second}


@pytest.mark.parallel
def test_pool_broken_while_idle_is_replaced_at_submit():
    """A warm pool whose worker dies between campaigns (killed from
    outside) is replaced when the next campaign submits to it."""
    model = build_engine_modes_mtd("IdleBreak")
    batch = _engine_batch(4, ticks=10)
    first = run_sharded(model, batch, executor="process", max_workers=2)
    pool = runner._POOLS["process", 2]
    os.kill(int(first[0].worker[len("pid-"):]), signal.SIGKILL)
    deadline = time.monotonic() + 30
    # the executor's own flag: wait until its manager has seen the death
    while not pool._broken:
        assert time.monotonic() < deadline, "the pool never broke"
        time.sleep(0.01)
    second = run_sharded(model, batch, executor="process", max_workers=2)
    _assert_same_traces(first, second)
    assert runner._POOLS["process", 2] is not pool


@pytest.mark.parametrize("executor", [
    "thread", pytest.param("process", marks=pytest.mark.parallel)])
def test_failed_dispatch_leaves_no_stale_tasks(executor):
    """An ``on_result`` callback that raises ends the campaign with its
    error after cancelling the campaign's pending tasks; the next
    campaign on the same pool returns traces byte-identical to a serial
    run."""
    model = build_engine_modes_mtd(f"StaleTasks_{executor}")
    batch = _engine_batch(12, ticks=40)

    def consumer(result):
        raise RuntimeError(f"consumer failed on {result.name}")

    with pytest.raises(RuntimeError, match="consumer failed"):
        run_sharded(model, batch, executor=executor, max_workers=2,
                    on_result=consumer)
    serial = run_sharded(model, batch, executor="serial")
    again = run_sharded(model, batch, executor=executor, max_workers=2)
    assert [trace_to_json(result.trace) for result in again] \
        == [trace_to_json(result.trace) for result in serial]


def test_failed_dispatch_cancels_pending_tasks():
    """The tasks still queued when ``on_result`` raises never run: only
    the finished task and those already running on the two workers do."""
    model = build_engine_modes_mtd("CancelPending")
    release = threading.Event()
    started = []

    def held(name):
        def stimulus(tick):
            if tick == 0:
                started.append(name)
                if name != "held0":
                    release.wait(30)
            return 1000.0
        return stimulus

    batch = [Scenario(f"held{index}", {"n": held(f"held{index}"),
                                       "ped": 10.0, "t_eng": 50.0}, ticks=5)
             for index in range(12)]

    def consumer(result):
        raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed"):
        run_sharded(model, batch, executor="thread", max_workers=2,
                    on_result=consumer)
    release.set()
    run_sharded(model, _engine_batch(2, ticks=5), executor="thread",
                max_workers=2)
    assert len(started) <= 3, started


def test_concurrent_campaigns_share_one_new_pool():
    """Campaigns started at once from several threads, under a tiny
    switch interval, create one pool for their ``(executor, size)`` and
    each get their own traces."""
    size = 7  # no other test asks for a 7-worker thread pool
    assert ("thread", size) not in runner._POOLS
    model = build_engine_modes_mtd("ConcurrentCampaigns")
    batch = _engine_batch(6, ticks=30)
    serial = run_sharded(model, batch, executor="serial")
    outcomes = {}

    def campaign(index):
        outcomes[index] = run_sharded(model, batch, executor="thread",
                                      max_workers=size)

    callers = [threading.Thread(target=campaign, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert sorted(outcomes) == [0, 1, 2, 3]
    pools = set()
    for results in outcomes.values():
        _assert_same_traces(serial, results)
        pools |= {result.worker.rsplit("_", 1)[0] for result in results}
    assert len(pools) == 1, pools


def _forked_campaign(queue):
    results = run_sharded(build_engine_modes_mtd("ForkedChild"),
                          _engine_batch(4, ticks=10), executor="process",
                          max_workers=2)
    queue.put(([result.ok for result in results],
               sorted({result.worker for result in results})))


@pytest.mark.parallel
def test_forked_child_runs_its_own_pool_and_exits():
    """A process forked after a campaign does not inherit the warm pool
    (its workers belong to the parent): its own campaign starts a pool,
    and it exits with that pool's workers joined."""
    run_sharded(build_engine_modes_mtd("ForkingParent"),
                _engine_batch(4, ticks=10), executor="process",
                max_workers=2)
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_forked_campaign, args=(queue,))
    child.start()
    workers = []
    try:
        oks, workers = queue.get(timeout=60)
        child.join(60)
        assert not child.is_alive(), "the child never exited"
        assert child.exitcode == 0
        assert oks and all(oks)
        for worker in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(int(worker[len("pid-"):]), 0)
    finally:
        if child.is_alive():
            child.kill()
            for worker in workers:
                try:
                    os.kill(int(worker[len("pid-"):]), signal.SIGKILL)
                except ProcessLookupError:
                    pass


_EXIT_SCRIPT = """
from repro.casestudy import build_engine_modes_mtd
from repro.scenarios import Scenario, run_sharded

batch = [Scenario(f"s{index}", {"n": 800.0 * index, "ped": 20.0,
                                "t_eng": 60.0}, ticks=20)
         for index in range(6)]
results = run_sharded(build_engine_modes_mtd(), batch, executor="process",
                      max_workers=2)
assert all(result.ok for result in results)
print(" ".join(sorted({result.worker[len("pid-"):] for result in results})))
"""


@pytest.mark.parallel
def test_warm_pool_workers_exit_with_the_interpreter():
    """A process that ran a process-pool campaign exits on its own, and
    the exit joins the warm pool's workers: none outlives it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT],
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    pids = [int(pid) for pid in completed.stdout.split()]
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

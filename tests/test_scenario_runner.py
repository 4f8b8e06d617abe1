"""The sharded scenario runner: differential equivalence, isolation, order.

Process-pool tests are marked ``parallel`` so constrained sandboxes can run
the suite with ``-m "not parallel"``; the serial and thread executors keep
the runner covered everywhere.
"""

import copy
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import casestudy, obs
from repro.casestudy import build_engine_modes_mtd
from repro.core.components import (Component, ExpressionComponent,
                                   FunctionComponent)
from repro.core.errors import SimulationError
from repro.core.expr_parser import parse_expression
from repro.core.values import ABSENT
from repro.io import trace_to_json
from repro.notations.blocks import Gain
from repro.notations.dfd import DataFlowDiagram
from repro.notations.std import StateTransitionDiagram
from repro.obs.events import EventLog
from repro.scenarios import (RandomWalk, Scenario, run_sharded,
                             run_with_report, runner)
from repro.simulation import (CompiledSimulator, ScenarioSuite,
                              first_difference, native_available)

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


# -- the simulator cache: one compile per model per thread or process -------


def _tiered_model(name, length=24):
    """A chain the tiered ``auto`` backend promotes to native: *length*
    expression blocks, then a Gain (``y``) and a threshold STD
    (``level``), the only two ``run`` ops."""
    dfd = DataFlowDiagram(name)
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("level")
    previous = "u"
    for index in range(length):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"B{index}.in1")
        previous = f"B{index}.out"
    dfd.add_subcomponent(Gain("G", 2.0))
    dfd.connect(previous, "G.in1")
    dfd.connect("G.out", "y")
    std = StateTransitionDiagram("Level")
    std.add_input("a")
    std.add_output("out")
    std.add_state("Low", emissions={"out": "a"})
    std.add_state("High", emissions={"out": "a - 100"})
    std.add_transition("Low", "High", "a > 60")
    std.add_transition("High", "Low", "a < 40")
    dfd.add_subcomponent(std)
    dfd.connect("G.out", "Level.a")
    dfd.connect("Level.out", "level")
    return dfd


def _walk_batch(count=6, ticks=40):
    return [Scenario(f"walk{index}",
                     {"u": RandomWalk(seed=index, start=0.0, step=5.0,
                                      low=-50.0, high=50.0)}, ticks=ticks)
            for index in range(count)]


def _counted_campaign(model, batch, executor, **options):
    """One campaign under a fresh session: its results and counters."""
    with obs.session() as telemetry:
        results = run_sharded(model, batch, executor=executor, **options)
    assert all(result.ok for result in results), \
        [(result.name, result.error) for result in results]
    return results, telemetry.registry.counter_values("")


@pytest.mark.parametrize("executor", [
    "serial", "thread", pytest.param("process", marks=pytest.mark.parallel)])
def test_identical_campaigns_compile_once_per_thread(executor):
    """Three identical campaigns compile the model once per thread or
    process that ran a task of it, and each such simulator promotes to
    native at most once.  Simulators are cached per thread and pools are
    warm, so the model's name is new to every cache."""
    model = _tiered_model(f"CompileOnce_{executor}")
    batch = _walk_batch()
    options = {} if executor == "serial" else {"max_workers": 2}
    workers, compiles, promotions = set(), 0, 0
    for _ in range(3):
        results, counters = _counted_campaign(model, batch, executor,
                                              **options)
        workers |= {result.worker for result in results}
        compiles += counters.get("compile.simulators", 0)
        promotions += counters.get("compile.native_promotions", 0)
    assert compiles == len(workers) <= options.get("max_workers", 1)
    assert promotions <= compiles
    if executor == "serial":
        assert promotions == (1 if native_available() else 0)
        # the promoted simulator runs the whole third campaign in C
        assert counters.get("native.runs", 0) \
            == (len(batch) if native_available() else 0)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_unpicklable_model_compiles_once_per_campaign(executor):
    """A model that cannot be pickled has no content key: every campaign
    compiles it afresh, once per thread that runs a task of it, and a
    thread keeps only its latest campaign's simulator of it."""
    block = FunctionComponent("OpaquePerCampaign",
                              lambda inputs: {"out": inputs["in1"] * 2})
    block.add_input("in1")
    block.add_output("out")
    batch = [Scenario(f"s{index}", {"in1": float(index)}, 3)
             for index in range(4)]
    for _ in range(2):
        results, counters = _counted_campaign(block, batch, executor,
                                              max_workers=2)
        assert counters["compile.simulators"] \
            == len({result.worker for result in results})
        assert [result.trace.output("out").values()[0]
                for result in results] == [0.0, 2.0, 4.0, 6.0]
    if executor == "serial":
        # an earlier campaign's token can never hit again: it is evicted
        tokens = [key for key in runner._WORKER.cache
                  if not isinstance(key[0], bytes)]
        assert len(tokens) == 1


def _add_branch(model):
    extra = ExpressionComponent("Extra", {"out": "in1 * 3"})
    extra.declare_interface_from_expressions()
    model.add_subcomponent(extra)
    model.add_output("z")
    model.connect("u", "Extra.in1")
    model.connect("Extra.out", "z")


def _edit_expression(model):
    model.subcomponent("B3").output_expressions["out"] = \
        parse_expression("in1 + 5")


def _edit_gain(model):
    model.subcomponent("G").factor = 3.0


@pytest.mark.parametrize("edit", [_add_branch, _edit_expression, _edit_gain],
                         ids=["structure", "expression", "parameter"])
def test_a_model_edited_between_campaigns_recompiles(edit):
    """The cache key is the model's content: an edit between two serial
    campaigns -- structural, an expression, a block parameter --
    compiles the edited model, whose results match a cold simulator."""
    model = _tiered_model(f"Edited_{edit.__name__}")
    batch = _walk_batch(3, ticks=30)
    before, counters = _counted_campaign(model, batch, "serial",
                                         backend="flat")
    assert counters["compile.simulators"] == 1
    edit(model)
    after, counters = _counted_campaign(model, batch, "serial",
                                        backend="flat")
    assert counters["compile.simulators"] == 1
    cold = CompiledSimulator(model, backend="flat")
    for scenario, old, new in zip(batch, before, after):
        expected = cold.run(scenario.stimuli, scenario.ticks)
        assert trace_to_json(new.trace) == trace_to_json(expected)
        assert trace_to_json(new.trace) != trace_to_json(old.trace)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_a_cached_simulator_never_runs_an_object_edited_after_its_campaign(
        executor):
    """A cached simulator runs its own copy of the model: editing the
    object a campaign ran leaves the cached simulator as it was, so a
    twin with the original content, which shares its key, gets the
    results of a cold simulator."""
    batch = _walk_batch(3, ticks=30)
    first = _tiered_model(f"EditedAfter_{executor}")
    twin = copy.deepcopy(first)
    _counted_campaign(first, batch, executor, max_workers=1, backend="flat")
    _edit_gain(first)
    results, counters = _counted_campaign(twin, batch, executor,
                                          max_workers=1, backend="flat")
    assert counters.get("compile.simulators", 0) == 0
    cold = CompiledSimulator(twin, backend="flat")
    for scenario, result in zip(batch, results):
        expected = cold.run(scenario.stimuli, scenario.ticks)
        assert trace_to_json(result.trace) == trace_to_json(expected)


@pytest.mark.parametrize("build", [casestudy.build_engine_ccd,
                                   casestudy.build_door_lock_control],
                         ids=["engine_ccd", "door_lock"])
def test_a_rebuilt_model_pickles_alike_and_hits_the_cache(build):
    """Unnamed channels are named after their destination, so a case-study
    model built twice pickles to the same bytes: one cache key, and a
    campaign on the second build compiles nothing."""
    first, second = build(), build()
    assert pickle.dumps(first) == pickle.dumps(second)
    assert runner._model_key(first, "serial")[0] \
        == runner._model_key(second, "serial")[0]
    batch = [Scenario(f"quiet{index}", {}, ticks=5 + index)
             for index in range(3)]
    _counted_campaign(first, batch, "serial", backend="flat")
    _results, counters = _counted_campaign(second, batch, "serial",
                                           backend="flat")
    assert counters.get("compile.simulators", 0) == 0


def _report_campaign(model, batch, backend="auto"):
    """One serial ``run_with_report`` campaign, as bytes: traces, mode
    histories and the report (its wall-clock duration dropped), plus the
    kind of schedule each scenario ran on."""
    with obs.session() as telemetry:
        results, report = run_with_report(model, batch, executor="serial",
                                          backend=backend)
    assert all(result.ok for result in results)
    data = report.to_json_dict()
    del data["scenarios"]["total_duration_s"]
    kinds = [span.attributes["kind"] for span in telemetry.tracer.walk()
             if span.name == "run"]
    return ([trace_to_json(result.trace) for result in results],
            [json.dumps(result.mode_paths, sort_keys=True)
             for result in results],
            json.dumps(data, sort_keys=True)), kinds


def test_cached_and_promoted_campaigns_are_byte_identical_to_a_cold_one():
    """A cold ``backend="flat"`` campaign, the first tiered campaign
    (flat, then promoted on its second scenario) and a second one on the
    cached promoted simulator produce the same traces, mode histories and
    report."""
    model = _tiered_model("CachedIdentity")
    batch = _walk_batch(5, ticks=60)
    cold, cold_kinds = _report_campaign(model, batch, backend="flat")
    first, first_kinds = _report_campaign(model, batch)
    cached, cached_kinds = _report_campaign(model, batch)
    tier = "native" if native_available() else "flat"
    assert cold_kinds == ["flat"] * len(batch)
    assert first_kinds == ["flat"] + [tier] * (len(batch) - 1)
    assert cached_kinds == [tier] * len(batch)
    assert any(paths != "{}" for paths in cold[1])
    assert cold == first == cached


@pytest.mark.parametrize("name", sorted(
    name for name in dir(casestudy) if name.startswith("build_")))
def test_a_models_pickle_depends_only_on_its_content(name):
    """Compiling and running a model leaves its pickle unchanged: the
    execution plans and transition tables a compile caches stay out of
    it, so the runner's cache key survives the first campaign."""
    model = getattr(casestudy, name)()
    if not isinstance(model, Component) or not model.has_behavior():
        pytest.skip(f"{name} builds no simulatable component")
    pristine = pickle.dumps(model)
    simulator = CompiledSimulator(model, backend="flat")
    assert pickle.dumps(model) == pristine
    trace = simulator.run({port.name: port.port_type.default()
                           for port in model.input_ports()}, 3)
    assert trace.ticks == 3
    assert pickle.dumps(model) == pristine


def _forked_serial_then_process(queue):
    model = build_engine_modes_mtd("SerialThenProcess")
    batch = _engine_batch(6, ticks=10)
    run_sharded(model, batch, executor="serial")
    results, counters = _counted_campaign(model, batch, "process",
                                          max_workers=2)
    queue.put((counters.get("compile.simulators", 0),
               sorted({result.worker for result in results})))


@pytest.mark.parallel
def test_process_workers_forked_after_a_serial_campaign_compile_their_own():
    """A pool forked from a thread that holds cached simulators starts
    its workers with empty caches: each worker compiles the model once.
    The campaign runs in a forked child, whose first process campaign
    forks a new pool after its serial one."""
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_forked_serial_then_process,
                            args=(queue,))
    child.start()
    try:
        compiles, workers = queue.get(timeout=60)
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert workers and compiles == len(workers)

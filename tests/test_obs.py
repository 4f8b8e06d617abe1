"""The observability subsystem: metrics, tracing, op profiles, wiring.

Pins the contracts of :mod:`repro.obs`:

* metric folds are order- and shard-insensitive (merge of worker
  registries == one serial registry over the same work);
* tracer exports (span tree and Chrome trace-event JSON) are
  **byte-stable** under a fake clock, and round-trip;
* the instrumented flat step is trace-equivalent to the default step and
  its profile counts are deterministic;
* zero overhead when off is *structural*: the default step closure is the
  same object whether or not observability was ever enabled;
* the sharded runner's ``runner.scenario.*`` counters agree exactly
  across serial / thread / process executors (worker-local registries
  merged in the parent);
* sessions are per thread: pool threads record into worker-local
  sessions, so their spans nest under the caller's ``runner.run_sharded``
  root and op profiles reach the caller under every executor.

Process-pool tests are marked ``parallel``, matching the runner suite.
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.casestudy import build_engine_modes_mtd
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.notations.blocks import Gain, UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.obs import (MetricsRegistry, OpProfile, Tracer, format_profile,
                       span_from_json_dict)
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              first_difference, native_available)


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


# -- models -----------------------------------------------------------------


def gated_accumulator(name="Outer"):
    """A flattenable hierarchy with a clock gate and a delay buffer.  A
    test that counts compiles under a runner names it uniquely: every
    thread caches its simulators by the model's content."""
    inner = DataFlowDiagram("Inner")
    inner.add_input("u")
    inner.add_output("y")
    add = ExpressionComponent("ADD", {"out": "a + b"})
    add.declare_interface_from_expressions()
    delay = UnitDelay("Z", initial=0)
    inner.add(add, delay)
    inner.connect("u", "ADD.a")
    inner.connect("Z.out", "ADD.b")
    inner.connect("ADD.out", "Z.in1")
    inner.connect("ADD.out", "y")
    gated = ClockGatedComponent(inner, every(2), name="Slow")

    outer = DataFlowDiagram(name)
    outer.add_input("u")
    outer.add_output("y")
    gain = Gain("G", 2.0)
    outer.add(gated, gain)
    outer.connect("u", "Slow.u")
    outer.connect("Slow.y", "G.in1")
    outer.connect("G.out", "y")
    return outer


def _engine_batch(count=6, ticks=30):
    return [Scenario(f"drive{index}", {
        "n": RandomWalk(seed=index, start=0.0, step=500.0,
                        low=0.0, high=6000.0),
        "ped": RandomWalk(seed=100 + index, start=0.0, step=25.0,
                          low=0.0, high=100.0),
        "t_eng": 15.0 + 5.0 * index,
    }, ticks=ticks) for index in range(count)]


# -- metrics ----------------------------------------------------------------


def test_counter_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    counter.inc()
    counter.inc(4)
    assert registry.counter("x") is counter
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_fixed_buckets_are_order_insensitive():
    values = [0.00005, 0.005, 0.005, 0.5, 2.0, 100.0]
    first = MetricsRegistry().histogram("d")
    second = MetricsRegistry().histogram("d")
    for value in values:
        first.observe(value)
    for value in reversed(values):
        second.observe(value)
    assert first.counts == second.counts
    assert first.count == len(values)
    assert first.sum == pytest.approx(second.sum)
    assert (first.min, first.max) == (0.00005, 100.0)
    assert first.counts[-1] == 1  # the overflow bucket caught 100.0


def test_registry_merge_equals_serial_and_is_order_insensitive():
    def record(registry, values):
        for value in values:
            registry.counter("runs").inc()
            registry.histogram("d").observe(value)
            registry.gauge("peak").set(value)

    serial = MetricsRegistry()
    record(serial, [0.1, 0.2, 0.3, 0.4])
    shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
    record(shard_a, [0.1, 0.2])
    record(shard_b, [0.3, 0.4])

    ab = MetricsRegistry().merge(shard_a).merge(shard_b)
    ba = MetricsRegistry().merge(shard_b).merge(shard_a)
    assert ab.to_json() == ba.to_json() == serial.to_json()
    assert ab.gauge("peak").value == 0.4  # gauges keep the max


def test_registry_json_round_trip_and_counter_projection():
    registry = MetricsRegistry()
    registry.counter("runner.scenario.total").inc(3)
    registry.counter("batch.sweeps").inc()
    registry.gauge("g").set(7.0)
    registry.histogram("d").observe(0.05)
    rebuilt = MetricsRegistry.from_json_dict(
        json.loads(registry.to_json()))
    assert rebuilt.to_json() == registry.to_json()
    assert registry.counter_values("runner.scenario.") \
        == {"runner.scenario.total": 3}
    assert "runner.scenario.total = 3" in registry.format_summary()


def test_histogram_merge_rejects_different_bounds():
    from repro.obs import Histogram
    with pytest.raises(ValueError):
        Histogram("a", (1.0, 2.0)).merge(Histogram("a", (1.0, 3.0)))


def test_histogram_quantiles_interpolate_monotonically():
    registry = MetricsRegistry()
    histogram = registry.histogram("d")
    for value in (0.001, 0.002, 0.003, 0.004, 0.2, 0.9):
        histogram.observe(value)
    p0, p50, p90, p100 = registry.histogram_quantiles(
        "d", (0.0, 0.5, 0.9, 1.0))
    assert p0 == 0.001 and p100 == 0.9  # clamped to observed extremes
    assert p0 <= p50 <= p90 <= p100  # monotone in q
    with pytest.raises(ValueError):
        registry.histogram_quantiles("d", (1.5,))


def test_histogram_quantiles_missing_or_empty_are_none():
    registry = MetricsRegistry()
    assert registry.histogram_quantiles("missing", (0.5, 0.9)) \
        == [None, None]
    registry.histogram("empty")
    assert registry.histogram_quantiles("empty", (0.5,)) == [None]


def test_format_metrics_renders_tables_with_prefix_filter():
    from repro.obs import format_metrics
    registry = MetricsRegistry()
    registry.counter("runner.scenario.total").inc(3)
    registry.gauge("peak").set(4.5)
    registry.histogram("runner.scenario.duration_s").observe(0.05)
    text = format_metrics(registry)
    assert "runner.scenario.total" in text and "3" in text
    assert "peak" in text and "(gauge)" in text
    assert "p50" in text and "p99" in text
    filtered = format_metrics(registry, prefix="runner.")
    assert "peak" not in filtered
    assert "runner.scenario.total" in filtered
    assert format_metrics(MetricsRegistry()).strip() == "(no instruments)"


# -- tracing ----------------------------------------------------------------


def _fake_trace():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("compile", component="M") as span:
        span.attributes["ops"] = 12
        with tracer.span("flatten"):
            pass
    with tracer.span("run", ticks=100):
        pass
    return tracer


def test_tracer_exports_are_byte_stable_under_fake_clock():
    first, second = _fake_trace(), _fake_trace()
    assert first.to_json() == second.to_json()
    assert first.to_chrome_json() == second.to_chrome_json()

    roots = [span.name for span in first.roots]
    assert roots == ["compile", "run"]
    compile_span = first.roots[0]
    assert [child.name for child in compile_span.children] == ["flatten"]
    assert compile_span.duration() > 0


def test_span_tree_round_trips_through_json():
    tracer = _fake_trace()
    data = json.loads(tracer.to_json())
    rebuilt = Tracer(clock=FakeClock())
    for entry in data["spans"]:
        rebuilt.adopt(span_from_json_dict(entry))
    assert rebuilt.to_json() == tracer.to_json()


def test_chrome_trace_shape():
    trace = _fake_trace().to_chrome_trace()
    events = trace["traceEvents"]
    assert events[0]["ph"] == "M"  # process_name metadata
    complete = [event for event in events if event["ph"] == "X"]
    assert [event["name"] for event in complete] \
        == ["compile", "flatten", "run"]
    for event in complete:
        assert isinstance(event["ts"], int)
        assert isinstance(event["dur"], int)
        assert event["dur"] >= 0
    assert min(event["ts"] for event in complete) == 0  # epoch-relative
    assert complete[0]["args"]["ops"] == 12


def test_chrome_trace_worker_spans_get_their_own_tracks():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("runner.run_sharded", scenarios=4):
        pass
    worker = Tracer(clock=FakeClock())
    with worker.span("runner.worker_task", worker="pid-7"):
        with worker.span("run"):
            pass
    for root in worker.roots:
        tracer.adopt(root)

    events = tracer.to_chrome_trace()["traceEvents"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert any(event["name"] == "thread_name"
               and event["args"]["name"] == "worker pid-7"
               for event in metadata)
    by_name = {event["name"]: event for event in events
               if event["ph"] == "X"}
    assert by_name["runner.run_sharded"]["tid"] == 0
    assert by_name["runner.worker_task"]["tid"] == 1
    # the worker tid is inherited by the whole adopted subtree
    assert by_name["run"]["tid"] == 1


def test_span_records_errors():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    span = tracer.roots[0]
    assert span.end is not None
    assert span.attributes["error"] == "RuntimeError: nope"


# -- the op-level flat profiler ----------------------------------------------


def test_instrumented_flat_step_is_trace_equivalent():
    model = gated_accumulator()
    stimuli = {"u": [float(value) for value in range(20)]}

    reference = CompiledSimulator(model, backend="flat").run(stimuli, 20)
    with obs.session(profile_ops=True) as telemetry:
        simulator = CompiledSimulator(model, backend="flat")
        observed = simulator.run(stimuli, 20)
    assert first_difference(reference, observed) is None

    (profile,) = telemetry.profiles.values()
    assert profile.ticks == 20
    assert profile.total_time_s > 0
    assert 0 < profile.op_time_s() <= profile.total_time_s
    # every op position was visited a deterministic number of times
    assert all(count <= 20 for count in profile.counts)
    checks, skips = profile.gate_stats()
    assert checks == 20  # one gate op, evaluated every tick
    assert skips == 10   # every(2) silences every other tick
    assert max(profile.counts) == 20
    rendered = format_profile(profile)
    assert "op profile:" in rendered and "gates:" in rendered


def test_default_step_is_untouched_by_enable_disable():
    simulator = CompiledSimulator(gated_accumulator(), backend="flat")
    stimuli = {"u": [1.0] * 8}
    simulator.run(stimuli, 8)
    original_horizon = simulator.schedule._horizon  # noqa: SLF001
    original_step = simulator.schedule.step
    with obs.session(profile_ops=True):
        simulator.run(stimuli, 8)
    assert simulator.schedule._horizon is original_horizon  # noqa: SLF001
    assert simulator.schedule.step is original_step
    assert obs.active() is None
    trace = simulator.run(stimuli, 8)
    assert trace.ticks == 8


def offset_model(k):
    """One expression block: ``y = u + k``."""
    model = DataFlowDiagram(f"Offset{k}")
    model.add_input("u")
    model.add_output("y")
    block = ExpressionComponent("ADD", {"out": f"u + {k}"})
    block.declare_interface_from_expressions()
    model.add(block)
    model.connect("u", "ADD.u")
    model.connect("ADD.out", "y")
    return model


def test_profiled_session_never_runs_a_dropped_schedules_program():
    """Profiles and observed loops are keyed by the schedule itself: a
    schedule compiled after another was dropped may get its memory
    address, but never its observed loop."""
    with obs.session(profile_ops=True) as telemetry:
        for k in range(200):
            trace = CompiledSimulator(offset_model(k),
                                      backend="flat").run({"u": [1]}, 1)
            assert trace.output("y").values() == [1 + k], k
    assert len(telemetry.profiles) == 200
    assert all(profile.ticks == 1 for profile in telemetry.profiles.values())


def test_sessions_are_per_thread():
    """A session records only its own thread: another thread starts with
    observability off, and its own session never reaches the caller's."""
    seen = {}

    def other_thread():
        seen["before"] = obs.active()
        with obs.session() as own:
            CompiledSimulator(gated_accumulator(), backend="flat")
        seen["own"] = own.registry.counter("compile.simulators").value
        seen["after"] = obs.active()

    with obs.session() as telemetry:
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(60)
        assert obs.active() is telemetry
    assert seen == {"before": None, "own": 1, "after": None}
    assert telemetry.registry.counter_values("compile.") == {}


def test_compile_spans_and_plan_cache_counters():
    with obs.session() as telemetry:
        CompiledSimulator(gated_accumulator(), backend="flat")
    names = [span.name for span in telemetry.tracer.walk()]
    assert names[0] == "compile.component"
    assert "compile.flatten" in names
    counters = telemetry.registry.counter_values("compile.plan_cache.")
    assert sum(counters.values()) > 0


def test_gate_stats_count_select_checks_with_their_skips():
    """``select`` regions are checked like gates: a profile counts their
    evaluations beside the skips it sums over every op."""
    labels = [("run", "M [mtd]"), ("select", "s"),
              ("expr", "e"), ("gate", "g")]
    profile = OpProfile("m[flat]", labels)
    profile.counts[:] = [5, 5, 2, 5]
    profile.gate_skips[1] = 3
    profile.gate_skips[3] = 1
    assert profile.gate_stats() == (10, 4)
    assert profile.to_json_dict()["gate_checks"] == 10


def test_op_profile_merge_requires_same_shape():
    labels = [("expr", "a"), ("gate", "g")]
    first = OpProfile("m[flat]", labels)
    second = OpProfile("m[flat]", labels)
    first.counts[0] = 3
    second.counts[0] = 4
    second.gate_skips[1] = 2
    first.merge(second)
    assert first.counts[0] == 7
    assert first.gate_skips[1] == 2
    with pytest.raises(ValueError):
        first.merge(OpProfile("other", [("expr", "a")]))


def _flattenable_engine(engine_modes_mtd):
    """The engine-mode MTD wrapped in a composite, hoisted into it as its
    mode controller and one select region per mode."""
    dfd = DataFlowDiagram("EngineSystem")
    dfd.add_subcomponent(engine_modes_mtd)
    for port in ("n", "ped", "t_eng"):
        dfd.add_input(port)
        dfd.connect(port, f"EngineOperationModes.{port}")
    for port in ("fuel_factor", "mode"):
        dfd.add_output(port)
        dfd.connect(f"EngineOperationModes.{port}", port)
    return dfd


def test_batch_sweep_profile_and_counters(engine_modes_mtd):
    """``backend="batch"`` runs each scenario through the native C loop:
    one ``native.runs`` entry per scenario and no sweep counters.  Under
    ``profile_ops`` the runs take the wrapped flat program's profiled
    step instead, with identical traces."""
    model = _flattenable_engine(engine_modes_mtd)
    batch = _engine_batch()
    with obs.session() as counted:
        reference = run_sharded(model, batch, executor="serial",
                                backend="batch")
    with obs.session(profile_ops=True) as telemetry:
        observed = run_sharded(model, batch, executor="serial",
                               backend="batch")
    for expected, actual in zip(reference, observed):
        assert actual.ok
        assert first_difference(expected.trace, actual.trace) is None

    runs = len(batch) if native_available() else 0
    for registry in (counted.registry, telemetry.registry):
        assert registry.counter_values("runner.scenario.") == {
            "runner.scenario.total": len(batch),
            "runner.scenario.ok": len(batch),
            "runner.scenario.ticks": sum(s.ticks for s in batch),
        }
        assert registry.counter_values("batch.") == {}
        assert registry.counter_values("runner.sweep.") == {}
    assert counted.registry.counter_values("native.runs") \
        == ({"native.runs": runs} if runs else {})
    assert telemetry.registry.counter_values("native.runs") == {}
    span_names = [span.name for span in telemetry.tracer.walk()]
    assert "runner.run_sharded" in span_names
    assert "batch.sweep" not in span_names
    assert span_names.count("run") == len(batch)
    profiles = telemetry.named_profiles()
    (profile,) = [profiles[name] for name in profiles if "[flat]" in name]
    assert profile.ticks == sum(s.ticks for s in batch)


# -- executor equivalence of runner telemetry --------------------------------


def _scenario_counters(engine_modes_mtd, executor, **kwargs):
    with obs.session() as telemetry:
        results = run_sharded(engine_modes_mtd, _engine_batch(),
                              executor=executor, **kwargs)
    assert all(result.ok for result in results)
    return telemetry.registry.counter_values("runner.scenario.")


def test_runner_counters_serial_equals_thread(engine_modes_mtd):
    serial = _scenario_counters(engine_modes_mtd, "serial")
    threaded = _scenario_counters(engine_modes_mtd, "thread", max_workers=3)
    chunked = _scenario_counters(engine_modes_mtd, "thread", max_workers=3,
                                 chunk_size=2)
    assert serial == threaded == chunked
    assert serial["runner.scenario.total"] == 6


@pytest.mark.parallel
def test_runner_counters_serial_equals_process(engine_modes_mtd):
    serial = _scenario_counters(engine_modes_mtd, "serial")
    processed = _scenario_counters(engine_modes_mtd, "process",
                                   max_workers=2, chunk_size=2)
    assert serial == processed


def test_runner_counts_errors_by_exception_type(engine_modes_mtd):
    def exploding(tick):
        if tick >= 3:
            raise ValueError("sensor model exploded")
        return 0.0

    batch = _engine_batch(count=3)
    batch.insert(1, Scenario("boom", {"n": exploding}, ticks=20))
    with obs.session() as telemetry:
        results = run_sharded(engine_modes_mtd, batch, executor="serial")
    assert sum(1 for result in results if not result.ok) == 1
    counters = telemetry.registry.counter_values("runner.scenario.")
    assert counters["runner.scenario.failed"] == 1
    assert counters["runner.scenario.error.ValueError"] == 1
    assert counters["runner.scenario.ok"] == 3


@pytest.mark.parametrize("collect_modes", [False, True])
def test_traced_campaign_opens_one_run_span_per_scenario(engine_modes_mtd,
                                                         collect_modes):
    """Observing modes or not, every scenario runs through
    ``CompiledSimulator.run`` and opens its ``run`` span: on a machine-free
    flat model (empty mode plan) and on an MTD root (walked every tick)."""
    walks = [Scenario(f"walk{index}",
                      {"u": RandomWalk(seed=index, start=0.0, step=1.0)},
                      ticks=12) for index in range(3)]
    for model, batch in ((gated_accumulator(), walks),
                         (engine_modes_mtd, _engine_batch(count=3, ticks=12))):
        with obs.session() as telemetry:
            results = run_sharded(model, batch, executor="serial",
                                  collect_modes=collect_modes)
        assert all(result.ok for result in results)
        runs = [(span.attributes["component"], span.attributes["ticks"])
                for span in telemetry.tracer.walk() if span.name == "run"]
        assert runs == [(model.name, 12)] * len(batch), model.name


def test_compiles_are_counted_where_they_happen():
    """``compile.simulators`` counts every ``CompiledSimulator`` built:
    once for a serial campaign, once per pool thread however many tasks
    it runs.  Simulators are cached per thread across campaigns, so the
    model's name is new to the caller's and the pool threads' caches."""
    model = build_engine_modes_mtd("CountedWhereTheyHappen")
    with obs.session() as telemetry:
        CompiledSimulator(model)
        CompiledSimulator(model, backend="auto")
    assert telemetry.registry.counter("compile.simulators").value == 2

    batch = _engine_batch(count=8, ticks=5)
    for executor, workers in (("serial", 1), ("thread", 2)):
        with obs.session() as telemetry:
            results = run_sharded(model, batch, executor=executor,
                                  max_workers=workers)
        assert all(result.ok for result in results)
        compiles = telemetry.registry.counter("compile.simulators").value
        assert len({result.worker for result in results}) <= compiles \
            <= workers < len(batch), executor


@pytest.mark.parallel
def test_process_workers_ship_their_compile_count():
    """A process worker compiles on its first task of a model, inside
    that task's session; the count reaches the caller with the task.
    Pools are warm, so the model's name is new to every pool worker."""
    model = build_engine_modes_mtd("ShipsCompileCount")
    batch = _engine_batch(count=8, ticks=5)
    with obs.session() as telemetry:
        results = run_sharded(model, batch, executor="process",
                              max_workers=2)
    assert all(result.ok for result in results)
    workers = {result.worker for result in results}
    assert telemetry.registry.counter("compile.simulators").value \
        == len(workers)


def _walks(count, ticks):
    return [Scenario(f"walk{index}",
                     {"u": RandomWalk(seed=index, start=0.0, step=1.0)},
                     ticks=ticks) for index in range(count)]


@pytest.mark.parametrize("backend", [
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler on this host")),
    "auto", "flat"])
def test_thread_pool_telemetry_nests_under_the_caller(backend):
    """Sessions are per thread: thread workers record each task into a
    worker-local session that the caller merges, so the caller's tracer
    has one root, every ``run`` span sits in a ``runner.worker_task``
    span of the worker that ran it, and no count is lost or doubled, even
    under a tiny switch interval."""
    batch = _walks(16, ticks=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with obs.session() as telemetry:
            results = run_sharded(gated_accumulator("NestsUnderCaller"),
                                  batch, executor="thread", max_workers=2,
                                  backend=backend)
    finally:
        sys.setswitchinterval(interval)
    assert all(result.ok for result in results)
    assert [root.name for root in telemetry.tracer.roots] \
        == ["runner.run_sharded"]
    tasks = [span for span in telemetry.tracer.roots[0].children
             if span.name == "runner.worker_task"]
    assert len(tasks) == len(batch)
    assert [sum(1 for span in task.walk() if span.name == "run")
            for task in tasks] == [1] * len(batch)
    assert sum(1 for span in telemetry.tracer.walk()
               if span.name == "run") == len(batch)
    workers = {result.worker for result in results}
    assert {task.attributes["worker"] for task in tasks} == workers
    registry = telemetry.registry
    if backend == "native":
        assert registry.counter("native.runs").value == len(batch)
    assert registry.counter("compile.simulators").value == len(workers)
    assert registry.counter("runner.scenario.total").value == len(batch)


@pytest.mark.parametrize("executor", [
    "serial", "thread",
    pytest.param("process", marks=pytest.mark.parallel)])
def test_op_profiles_reach_the_caller_under_every_executor(executor):
    """``profile_ops`` works under every executor: pool workers ship their
    profiles and the caller merges them by label into one profile."""
    with obs.session(profile_ops=True) as telemetry:
        results = run_sharded(gated_accumulator(), _walks(6, ticks=250),
                              executor=executor, max_workers=2,
                              backend="flat")
    assert all(result.ok for result in results)
    profiles = list(telemetry.profiles.values())
    assert len(profiles) == 1
    assert profiles[0].ticks == 6 * 250
    assert list(telemetry.named_profiles().values()) == profiles


def test_runner_records_nothing_when_disabled(engine_modes_mtd):
    results = run_sharded(engine_modes_mtd, _engine_batch(count=2),
                          executor="serial")
    assert all(result.ok for result in results)
    assert obs.current_registry() is None


# -- search loop telemetry ----------------------------------------------------


def test_search_rounds_feed_registry_and_spans(engine_modes_mtd):
    from repro.search import SearchConfig, search_coverage
    with obs.session() as telemetry:
        report = search_coverage(engine_modes_mtd,
                                 config=SearchConfig(seed=3, max_rounds=2,
                                                     population=4,
                                                     minimize=False))
    registry = telemetry.registry
    assert registry.counter("search.rounds").value == len(report.rounds)
    assert registry.counter("search.evaluations").value == report.evaluations
    round_spans = [span for span in telemetry.tracer.walk()
                   if span.name == "search.round"]
    assert len(round_spans) == len(report.rounds)
    assert all(span.children for span in round_spans)  # runner span nested
    assert all(stats.duration_s > 0 for stats in report.rounds)

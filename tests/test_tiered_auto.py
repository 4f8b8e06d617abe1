"""Tiered ``backend="auto"``: flat at once, native from the second run.

A flat ``auto`` simulator's second run lowers its program to C, checks
the cost of the lowered program and loads it, in the calling thread,
when the host has a compiler; that run and every later one then take
the native C loop.  These tests pin the switch (counters, spans, traces,
the schedule the simulator exposes), the one cost check, and what never
happens: no C compiler invoked without a compiler, for a simulator only
built or run once, or for a program the check declines; no thread
started; no lock shared between simulators held across a compile.
"""

import sys
import threading

import pytest

from repro import obs
from repro.casestudy import build_comfort_closing, build_engine_modes_mtd
from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import (CompiledSimulator, Simulator, compile_flat,
                              first_difference, native_available)
from repro.simulation.native import (EMITTER_VERSION, NativeLoweringError,
                                     lower_program)
from repro.simulation.native import schedule as native_schedule

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")

#: Bound on every wait on another thread (a cold compile takes well under).
JOIN_S = 120


@pytest.fixture(autouse=True, scope="module")
def _module_cache(tmp_path_factory):
    """One throwaway shared-object cache for the module (cold once)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE",
                     str(tmp_path_factory.mktemp("native-cache")))
        yield


def _chain(length=12, delays=0, name="TierChain"):
    """A chain of expression blocks, optionally closed by unit delays (one
    ``run`` op each)."""
    dfd = DataFlowDiagram(name)
    dfd.add_input("u")
    dfd.add_output("y")
    previous = "u"
    for index in range(length):
        block = ExpressionComponent(f"B{index}",
                                    {"out": f"in1 * 2 - {index}"})
        block.declare_interface_from_expressions()
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"B{index}.in1")
        previous = f"B{index}.out"
    for index in range(delays):
        delay = UnitDelay(f"Z{index}")
        dfd.add_subcomponent(delay)
        dfd.connect(previous, f"Z{index}.in1")
    dfd.connect(previous, "y")
    return dfd


def _stimuli(index, ticks=30):
    return {"u": [float(index + tick % 5) for tick in range(ticks)]}


def _corrected(regions=2, name="Corrected"):
    """Lowerable ``expr`` ops only, plus late-fed composites: each child
    is an ``expr`` op behind a delayed channel, fed by the parent's adder
    that reads it, so the parent's one correction barrier (always
    trampolined) re-runs every child."""
    parent = DataFlowDiagram(name)
    parent.add_input("u")
    parent.add_output("y")
    previous = "u"
    for index in range(regions):
        child = DataFlowDiagram(f"C{index}")
        child.add_input("u")
        child.add_output("y")
        block = ExpressionComponent("B", {"out": "in1 * 2"})
        block.declare_interface_from_expressions()
        child.add_subcomponent(block)
        child.connect("u", "B.in1", delayed=True, initial_value=0.0)
        child.connect("B.out", "y")
        add = ExpressionComponent(f"A{index}", {"out": "u0 + fb"})
        add.declare_interface_from_expressions()
        parent.add(add, child)
        parent.connect(previous, f"A{index}.u0")
        parent.connect(f"C{index}.y", f"A{index}.fb")
        parent.connect(f"A{index}.out", f"C{index}.u")
        previous = f"A{index}.out"
    parent.connect(previous, "y")
    return parent


def _worth_loading(component):
    flat = compile_flat(component)
    return native_schedule.worth_loading(lower_program(flat, EMITTER_VERSION))


# -- the cost check ------------------------------------------------------------


def _with_text_block(dfd):
    """*dfd* plus an expression block with string literals: an ``expr`` op
    the emitter's syntactic test sends to the trampoline."""
    block = ExpressionComponent(
        "Text", {"out": "if in1 > 0 then 'on' else 'off'"})
    block.declare_interface_from_expressions()
    dfd.add_subcomponent(block)
    dfd.connect("u", "Text.in1")
    return dfd


def test_cost_check_counts_run_against_expr_ops():
    assert _worth_loading(_chain(10, delays=1))
    assert not _worth_loading(_chain(10, delays=2))
    assert _worth_loading(_chain(0))


def test_cost_check_counts_unlowerable_expr_ops_as_fallback():
    # 1 run + 1 text op against 10 lowerable ops: 20 > 10
    assert not _worth_loading(_with_text_block(_chain(10, delays=1)))
    # ... against 20 lowerable ops: 20 <= 20
    assert _worth_loading(_with_text_block(_chain(20, delays=1)))
    # comfort_closing: one expr op, string literals only
    assert not _worth_loading(build_comfort_closing())
    # a machine root: its mode controller's run op and no lowered op
    assert not _worth_loading(build_engine_modes_mtd())


def test_cost_check_counts_correction_barriers_as_fallback():
    """Four lowered ``expr`` ops and not one ``run`` op, but one barrier:
    10 > 4."""
    lowered = lower_program(compile_flat(_corrected()), EMITTER_VERSION)
    assert (len(lowered.lowered_ops), len(lowered.fallback_ops)) == (4, 1)
    assert not native_schedule.worth_loading(lowered)


# -- the switch ------------------------------------------------------------------


@requires_cc
def test_second_run_promotes_and_later_runs_enter_c_once_each():
    model = _chain()
    reference = CompiledSimulator(model, backend="flat")
    threads = threading.active_count()
    with obs.session() as telemetry:
        simulator = CompiledSimulator(model)
        traces = [simulator.run(_stimuli(index), 30) for index in range(6)]
    assert threading.active_count() == threads
    counters = telemetry.registry.counter_values("")
    assert counters["compile.native_promotions"] == 1
    assert counters["native.runs"] == 5
    assert counters["compile.simulators"] == 1
    # the promotion records what a native compile records, in the session
    assert counters["native.compile.total"] == 1
    assert counters["native.ops.lowered"] == 12
    (span,) = [span for span in telemetry.tracer.walk()
               if span.name == "compile.native"]
    assert (span.attributes["lowered_ops"], span.attributes["fallback_ops"]) \
        == (12, 0)
    assert span.duration() > 0
    run_kinds = [span.attributes["kind"] for span in telemetry.tracer.walk()
                 if span.name == "run"]
    assert run_kinds == ["flat"] + ["native"] * 5
    # the simulator keeps exposing the flat schedule it compiled
    assert simulator.schedule.kind == "flat"
    for index, trace in enumerate(traces):
        assert first_difference(reference.run(_stimuli(index), 30),
                                trace) is None


@requires_cc
def test_profiled_runs_of_a_promoted_simulator_take_the_flat_step():
    model = _chain()
    simulator = CompiledSimulator(model)
    simulator._promote_now()
    simulator.run(_stimuli(0), 30)
    with obs.session(profile_ops=True) as telemetry:
        simulator.run(_stimuli(1), 30)
    assert "native.runs" not in telemetry.registry.counter_values("")
    (profile,) = telemetry.profiles.values()
    assert profile.ticks == 30


@requires_cc
def test_a_failing_compiler_leaves_the_simulator_on_flat(monkeypatch):
    def broken(*args, **kwargs):
        raise NativeLoweringError("stubbed compiler failure")

    monkeypatch.setattr(native_schedule, "load_shared_object", broken)
    with obs.session() as telemetry:
        simulator = CompiledSimulator(_chain())
        for index in range(4):
            simulator.run(_stimuli(index), 30)
    counters = telemetry.registry.counter_values("")
    # a failed promotion records its failure and nothing else
    assert {name: value for name, value in counters.items()
            if name.startswith(("native.", "compile.native"))} \
        == {"compile.native_promotion_failures": 1}
    assert "compile.native" not in {span.name
                                    for span in telemetry.tracer.walk()}


@pytest.mark.parametrize("backend", ["flat",
                                     pytest.param("native", marks=requires_cc)])
def test_only_auto_tiers(backend):
    simulator = CompiledSimulator(_chain(), backend=backend)
    for index in range(3):
        simulator.run(_stimuli(index), 10)
    assert simulator._native is None


@requires_cc
def test_a_simulator_shared_by_threads_promotes_once(monkeypatch):
    """Eight threads race on one simulator's tier state under a tiny
    switch interval: exactly one native program is built, and every
    trace -- flat or native, before or after the switch -- matches
    flat."""
    builds = []
    build = native_schedule._build

    def counted(flat, *args, **kwargs):
        builds.append(flat)
        return build(flat, *args, **kwargs)

    monkeypatch.setattr(native_schedule, "_build", counted)
    model = _chain(name="Shared")
    flat = CompiledSimulator(model, backend="flat")
    reference = [flat.run(_stimuli(index), 30) for index in range(6)]
    simulator = CompiledSimulator(model)
    diverged = []

    def worker():
        for index in range(6):
            trace = simulator.run(_stimuli(index), 30)
            if first_difference(reference[index], trace) is not None:
                diverged.append(index)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert not diverged


@requires_cc
def test_no_shared_lock_is_held_across_a_compile(monkeypatch):
    """Simulator A's promotion is held inside the loader until B, in
    another thread, has run four scenarios, its own promotion
    included."""
    release, entered = threading.Event(), threading.Event()
    load_shared_object = native_schedule.load_shared_object
    holder = threading.current_thread()

    def held(*args, **kwargs):
        if threading.current_thread() is holder:
            entered.set()
            assert release.wait(JOIN_S), "B never finished"
        return load_shared_object(*args, **kwargs)

    monkeypatch.setattr(native_schedule, "load_shared_object", held)
    finished = []

    def run_b():
        try:
            assert entered.wait(JOIN_S)
            with obs.session() as telemetry:
                simulator = CompiledSimulator(_chain(name="LockFreeB"))
                for index in range(4):
                    simulator.run(_stimuli(index), 10)
            finished.append(telemetry.registry.counter_values("").get(
                "compile.native_promotions"))
        finally:
            release.set()

    other = threading.Thread(target=run_b)
    other.start()
    simulator_a = CompiledSimulator(_chain(name="LockFreeA"))
    simulator_a.run(_stimuli(0), 10)
    simulator_a.run(_stimuli(1), 10)
    other.join(JOIN_S)
    assert not other.is_alive()
    assert finished == [1]
    assert simulator_a._native is not None


# -- what a simulator never does -------------------------------------------------


def _assert_stays_flat_without_compiling(simulator, monkeypatch):
    """Four runs on the flat program: no load or compile of a shared
    object, and no thread started."""
    loads = []
    monkeypatch.setattr(native_schedule, "load_shared_object",
                        lambda *args, **kwargs: loads.append(args))
    before = threading.active_count()
    with obs.session() as telemetry:
        for index in range(4):
            simulator.run(_stimuli(index), 10)
            assert threading.active_count() == before
    assert loads == [] and simulator._native is None
    spans = list(telemetry.tracer.walk())
    assert {span.attributes["kind"] for span in spans
            if span.name == "run"} == {"flat"}
    assert "compile.native" not in {span.name for span in spans}
    counters = telemetry.registry.counter_values("")
    assert not any(name.startswith(("native.", "compile.native"))
                   for name in counters), counters


def test_no_compiler_stays_flat_and_never_compiles(monkeypatch):
    monkeypatch.setattr(native_schedule, "find_compiler", lambda: None)
    _assert_stays_flat_without_compiling(CompiledSimulator(_chain()),
                                         monkeypatch)


def test_constructed_or_once_run_simulators_never_compile(monkeypatch):
    loads = []
    monkeypatch.setattr(native_schedule, "load_shared_object",
                        lambda *args, **kwargs: loads.append(args))
    before = threading.active_count()
    CompiledSimulator(_chain())
    simulator = CompiledSimulator(_chain())
    simulator.run(_stimuli(0), 10)
    assert threading.active_count() == before
    assert loads == [] and simulator._native is None


def test_declined_programs_stay_flat_and_never_compile(monkeypatch):
    """Eleven ``run`` ops against twelve ``expr`` ops."""
    _assert_stays_flat_without_compiling(
        CompiledSimulator(_chain(delays=11)), monkeypatch)


def test_correction_barriers_keep_a_program_flat(monkeypatch):
    """The barrier of :func:`_corrected` pushes its fallback count over
    the ratio: it stays flat on every run, and its traces match the
    interpreter's."""
    model = _corrected()
    _assert_stays_flat_without_compiling(CompiledSimulator(model),
                                         monkeypatch)
    assert first_difference(Simulator(model).run(_stimuli(0), 10),
                            CompiledSimulator(model).run(_stimuli(0), 10)) \
        is None


def test_run_errors_still_advance_the_tiers():
    """A failing scenario counts as a run: tiering is per scenario
    boundary, not per successful trace."""
    simulator = CompiledSimulator(_chain())
    with pytest.raises(ExpressionEvalError):
        simulator.run({"u": ["not a number"] * 3}, 3)
    simulator.run(_stimuli(0), 10)
    assert simulator._runs == 2


@pytest.mark.parallel
def test_serial_campaign_then_process_pool_completes():
    """A serial campaign that promoted its simulator, then a process pool
    forked right after it, agree scenario for scenario."""
    model = _chain(length=16, name="ForkRace")
    batch = [Scenario(f"s{index}", {"u": RandomWalk(seed=index, step=1.0)},
                      ticks=40) for index in range(6)]
    serial = run_sharded(model, batch, executor="serial")
    pooled = run_sharded(model, batch, executor="process", max_workers=2)
    assert all(result.ok for result in serial + pooled)
    for first, second in zip(serial, pooled):
        assert first_difference(first.trace, second.trace) is None

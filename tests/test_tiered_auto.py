"""Tiered ``backend="auto"``: flat at once, native from a scenario boundary.

A flat ``auto`` simulator starts a background lowering to C on its second
run when the host has a compiler and the program passes the static cost
check, and switches to the native C loop at the first run after the
lowering finished.  These tests pin the switch (counters, traces, the
schedule the simulator exposes) and the thread lifecycle: no thread
without a compiler, for a simulator that is only built or run once, or
for a program the cost check declines; no thread outliving its work or
keeping a simulator alive; no fork while a promotion is in flight.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.casestudy import build_comfort_closing, build_engine_modes_mtd
from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import (CompiledSimulator, compile_flat,
                              first_difference, native_available)
from repro.simulation.native import NativeLoweringError, tiering
from repro.simulation.native.tiering import join_promotions

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")

#: Bound on every wait for a promotion (a cold compile takes well under).
JOIN_S = 120


@pytest.fixture(autouse=True, scope="module")
def _module_cache(tmp_path_factory):
    """One throwaway shared-object cache for the module (cold once)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE",
                     str(tmp_path_factory.mktemp("native-cache")))
        yield
    join_promotions(timeout=JOIN_S)


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


def _promotion_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith(tiering.THREAD_PREFIX)]


# -- the static cost check -----------------------------------------------------


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
    assert tiering.worth_lowering(compile_flat(_chain(10, delays=1)))
    assert not tiering.worth_lowering(compile_flat(_chain(10, delays=2)))
    assert tiering.worth_lowering(compile_flat(_chain(0)))


def test_cost_check_counts_unlowerable_expr_ops_as_fallback(monkeypatch):
    # 1 run + 1 text op against 10 lowerable ops: 20 > 10
    assert not tiering.worth_lowering(
        compile_flat(_with_text_block(_chain(10, delays=1))))
    # ... against 20 lowerable ops: 20 <= 20
    assert tiering.worth_lowering(
        compile_flat(_with_text_block(_chain(20, delays=1))))
    # comfort_closing: one expr op, string literals only
    assert not tiering.worth_lowering(compile_flat(build_comfort_closing()))
    # the run ops decide first: a machine root checks no expression
    checked = []
    monkeypatch.setattr(tiering, "expr_syntax_lowerable",
                        lambda op, leaf: checked.append(op) or True)
    assert not tiering.worth_lowering(compile_flat(build_engine_modes_mtd()))
    assert not tiering.worth_lowering(
        compile_flat(_with_text_block(_chain(5, delays=1))))
    assert checked == []


# -- the switch ------------------------------------------------------------------


@requires_cc
def test_second_run_promotes_and_later_runs_enter_c_once_each():
    model = _chain()
    reference = CompiledSimulator(model, backend="flat")
    with obs.session() as telemetry:
        simulator = CompiledSimulator(model)
        traces = [simulator.run(_stimuli(0), 30), simulator.run(_stimuli(1),
                                                                30)]
        assert simulator.join_promotion(JOIN_S)
        traces += [simulator.run(_stimuli(index), 30)
                   for index in range(2, 6)]
    counters = telemetry.registry.counter_values("")
    assert counters["compile.native_promotions"] == 1
    assert counters["native.runs"] == 4
    assert counters["compile.simulators"] == 1
    # the background thread recorded nothing into the global telemetry
    assert "native.compile.total" not in counters
    assert "compile.native" not in {span.name
                                    for span in telemetry.tracer.walk()}
    run_kinds = [span.attributes["kind"] for span in telemetry.tracer.walk()
                 if span.name == "run"]
    assert run_kinds == ["flat", "flat"] + ["native"] * 4
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

    monkeypatch.setattr(tiering, "load_shared_object", broken)
    with obs.session() as telemetry:
        simulator = CompiledSimulator(_chain())
        simulator.run(_stimuli(0), 30)
        simulator.run(_stimuli(1), 30)
        assert simulator.join_promotion(JOIN_S)
        simulator.run(_stimuli(2), 30)
        simulator.run(_stimuli(3), 30)
    counters = telemetry.registry.counter_values("")
    assert counters["compile.native_promotion_failures"] == 1
    assert "compile.native_promotions" not in counters
    assert "native.runs" not in counters


@pytest.mark.parametrize("backend", ["flat",
                                     pytest.param("native", marks=requires_cc)])
def test_only_auto_tiers(backend):
    simulator = CompiledSimulator(_chain(), backend=backend)
    for index in range(3):
        simulator.run(_stimuli(index), 10)
    assert simulator._promotion is None and simulator._native is None


@requires_cc
def test_a_simulator_shared_by_threads_promotes_once(monkeypatch):
    """Eight threads race on one simulator's tier state under a tiny
    switch interval: exactly one promotion starts, and every trace --
    flat or native, before or after the switch -- matches flat."""
    starts = []
    start_promotion = tiering.start_promotion

    def counted(flat):
        starts.append(flat)
        return start_promotion(flat)

    monkeypatch.setattr(tiering, "start_promotion", counted)
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
    assert simulator.join_promotion(JOIN_S)
    assert len(starts) == 1
    assert not diverged


# -- thread lifecycle ------------------------------------------------------------


def _assert_runs_start_no_thread(simulator):
    before = threading.active_count()
    for index in range(4):
        simulator.run(_stimuli(index), 10)
        # a started promotion stays on the simulator until a later run
        assert simulator._promotion is None, f"run {index + 1} started one"
        assert threading.active_count() == before
    assert simulator._native is None


def test_no_compiler_no_thread(monkeypatch):
    join_promotions(timeout=JOIN_S)
    monkeypatch.setattr(tiering, "find_compiler", lambda: None)
    _assert_runs_start_no_thread(CompiledSimulator(_chain()))


def test_constructed_or_once_run_simulators_start_no_thread():
    join_promotions(timeout=JOIN_S)
    before = threading.active_count()
    CompiledSimulator(_chain())
    CompiledSimulator(_chain()).run(_stimuli(0), 10)
    assert threading.active_count() == before
    assert not _promotion_threads()


def test_declined_programs_start_no_thread():
    """Eleven ``run`` ops against twelve ``expr`` ops: declined before
    any lowering."""
    join_promotions(timeout=JOIN_S)
    _assert_runs_start_no_thread(CompiledSimulator(_chain(delays=11)))


@requires_cc
def test_a_dropped_simulator_is_collected_and_its_thread_ends(monkeypatch):
    """The promotion thread holds the flat program, not the simulator: a
    simulator dropped mid-promotion is collected while the thread still
    runs, and the thread ends once its work is done."""
    join_promotions(timeout=JOIN_S)
    release = threading.Event()
    load_shared_object = tiering.load_shared_object

    def held(*args, **kwargs):
        assert release.wait(JOIN_S)
        return load_shared_object(*args, **kwargs)

    monkeypatch.setattr(tiering, "load_shared_object", held)
    simulator = CompiledSimulator(_chain(length=14, name="Dropped"))
    simulator.run(_stimuli(0), 10)
    simulator.run(_stimuli(1), 10)
    assert simulator._promotion is not None
    ref = weakref.ref(simulator)
    del simulator
    gc.collect()
    try:
        assert _promotion_threads(), "the promotion finished too early"
        assert ref() is None
    finally:
        release.set()
        join_promotions(timeout=JOIN_S)
    assert not _promotion_threads()


def test_run_errors_still_advance_the_tiers():
    """A failing scenario counts as a run: tiering is per scenario
    boundary, not per successful trace."""
    simulator = CompiledSimulator(_chain())
    with pytest.raises(ExpressionEvalError):
        simulator.run({"u": ["not a number"] * 3}, 3)
    simulator.run(_stimuli(0), 10)
    assert simulator._runs == 2
    simulator.join_promotion(JOIN_S)


@pytest.mark.parallel
def test_serial_campaign_then_process_pool_completes():
    """A serial campaign leaves a promotion in flight; a process pool
    created right after it forks only once the promotion is done."""
    model = _chain(length=16, name="ForkRace")
    batch = [Scenario(f"s{index}", {"u": RandomWalk(seed=index, step=1.0)},
                      ticks=40) for index in range(6)]
    serial = run_sharded(model, batch, executor="serial")
    pooled = run_sharded(model, batch, executor="process", max_workers=2)
    assert all(result.ok for result in serial + pooled)
    for first, second in zip(serial, pooled):
        assert first_difference(first.trace, second.trace) is None

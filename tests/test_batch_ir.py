"""The batch backend: trace identity, error parity, isolation.

``backend="batch"`` compiles the native C tick loop exactly like
``backend="native"`` (the flat interpreter on hosts without a compiler);
the sharded runner dispatches its batteries one shard per worker, and
each scenario of a shard is one C call.  This module pins, through the
public entry points (:class:`CompiledSimulator`, :class:`ScenarioSuite`
and :func:`run_sharded`), that a battery run this way is observationally
identical to running each scenario through the scalar engines: identical
traces (value *and* type), identical error messages at identical ticks,
per-scenario isolation instead of batch poisoning, and no leakage across
the scenarios of mixed batteries.  It also keeps the regressions the
differential fuzz once flushed out of the vectorized backend this one
replaced (int-exact division, unbounded ints, short-circuit laziness,
ABSENT propagation), now compared against the interpreter.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.components import ExpressionComponent
from repro.core.clocks import every
from repro.core.errors import ExpressionEvalError, SimulationError
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import Gain, UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.scenarios import Scenario, run_sharded
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              ScenarioSuite, Simulator, first_difference,
                              native_available)
from repro.simulation.native import reset_toolchain_cache
from repro.core.types import INT


# -- models --------------------------------------------------------------------


def expression_pipeline():
    """Two chained expression blocks plus a delayed feedback loop."""
    dfd = DataFlowDiagram("Pipe")
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("acc")
    pre = ExpressionComponent("Pre", {"out": "u * 2 + 1"})
    pre.declare_interface_from_expressions()
    post = ExpressionComponent(
        "Post", {"out": "if in1 > 10 then in1 - 10 else in1"})
    post.declare_interface_from_expressions()
    add = ExpressionComponent("Add", {"out": "a + b"})
    add.declare_interface_from_expressions()
    delay = UnitDelay("Z", initial=0)
    dfd.add(pre, post, add, delay)
    dfd.connect("u", "Pre.u")
    dfd.connect("Pre.out", "Post.in1")
    dfd.connect("Post.out", "y")
    dfd.connect("Post.out", "Add.a")
    dfd.connect("Z.out", "Add.b")
    dfd.connect("Add.out", "Z.in1")
    dfd.connect("Add.out", "acc")
    return dfd


def modes_mtd(name="Modes"):
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("x")
    mtd.add_output("out")
    mtd.add_output("mode")
    low = ExpressionComponent("LowB", {"out": "x * 1"})
    low.declare_interface_from_expressions()
    high = ExpressionComponent("HighB", {"out": "x * 10"})
    high.declare_interface_from_expressions()
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", high)
    mtd.add_transition("Low", "High", "x > 2")
    mtd.add_transition("High", "Low", "x < 1")
    return mtd


def mtd_in_composite():
    """An MTD leaf inside a flattenable root: the per-lane ``run`` op."""
    dfd = DataFlowDiagram("Sys")
    dfd.add_input("x")
    dfd.add_output("out")
    dfd.add_output("mode")
    scale = Gain("Scale", 1.0)
    dfd.add(scale, modes_mtd())
    dfd.connect("x", "Scale.in1")
    dfd.connect("Scale.out", "Modes.x")
    dfd.connect("Modes.out", "out")
    dfd.connect("Modes.mode", "mode")
    return dfd


def gated_system(n=3):
    """A clock-gated subtree: the flat-IR gate predicate over lanes."""
    plant = DataFlowDiagram("Plant")
    plant.add_input("x")
    plant.add_output("y")
    twice = ExpressionComponent("Twice", {"out": "x + x"})
    twice.declare_interface_from_expressions()
    plant.add_subcomponent(twice)
    plant.connect("x", "Twice.x")
    plant.connect("Twice.out", "y")
    gated = ClockGatedComponent(plant, every(n), name="Plant")
    sys = DataFlowDiagram("Gated")
    sys.add_input("x")
    sys.add_output("y")
    sys.add_subcomponent(gated)
    sys.connect("x", "Plant.x")
    sys.connect("Plant.y", "y")
    return sys


def divider():
    dfd = DataFlowDiagram("Div")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("q")
    quot = ExpressionComponent("Quot", {"out": "a / b"})
    quot.declare_interface_from_expressions()
    dfd.add_subcomponent(quot)
    dfd.connect("a", "Quot.a")
    dfd.connect("b", "Quot.b")
    dfd.connect("Quot.out", "q")
    return dfd


def assert_trace_identical(reference, batch):
    """Strict equality: same streams, same *types* per value."""
    assert first_difference(reference, batch) is None
    for port, stream in reference.outputs.items():
        got = batch.outputs[port].values()
        expected = stream.values()
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected], port


def run_battery(model, items, **kwargs):
    """Run ``(name, stimuli, ticks)`` *items* as one serial batch-backend
    campaign; one :class:`ScenarioResult` per item, in order."""
    return run_sharded(model, [Scenario(name, dict(stimuli or {}), ticks)
                               for name, stimuli, ticks in items],
                       executor="serial", backend="batch", **kwargs)


def expected_kind():
    return "native" if native_available() else "flat"


# -- trace identity ------------------------------------------------------------


@pytest.mark.parametrize("build", [expression_pipeline, mtd_in_composite,
                                   lambda: gated_system(3)])
def test_battery_traces_identical_to_interpreter(build):
    model = build()
    port = model.input_names()[0]
    items = [(f"s{i}", {port: [i, i + 2, 7 * i, 0, -i]}, 5) for i in range(9)]
    reference = Simulator(model)
    results = run_battery(model, items)
    assert [r.name for r in results] == [f"s{i}" for i in range(9)]
    for (name, stimuli, ticks), result in zip(items, results):
        assert result.ok, (name, result.error)
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)


def test_compiled_simulator_batch_backend_single_run():
    model = expression_pipeline()
    sim = CompiledSimulator(model, backend="batch")
    assert sim.schedule.kind == expected_kind()
    stimuli = {"u": [1, 2, 3, 4]}
    assert_trace_identical(Simulator(model).run(stimuli, 4),
                           sim.run(stimuli, 4))


def test_batch_backend_rejects_unflattenable_roots():
    with pytest.raises(SimulationError, match="not flattenable"):
        CompiledSimulator(modes_mtd(), backend="batch")
    with pytest.raises(SimulationError, match="not flattenable"):
        ScenarioSuite(modes_mtd(), backend="batch")


def test_batch_backend_degrades_to_flat_without_compiler(monkeypatch):
    model = expression_pipeline()
    monkeypatch.setenv("CC", "/nonexistent/compiler")
    monkeypatch.setenv("PATH", "/nonexistent")
    reset_toolchain_cache()
    try:
        with pytest.warns(RuntimeWarning, match="'batch' requires a C "
                                                "compiler"):
            simulator = CompiledSimulator(model, backend="batch")
        assert simulator.schedule.kind == "flat"
        stimuli = {"u": [1, 2, 3]}
        assert_trace_identical(Simulator(model).run(stimuli, 3),
                               simulator.run(stimuli, 3))
    finally:
        monkeypatch.undo()
        reset_toolchain_cache()


def test_scenario_suite_batch_matches_auto():
    model = expression_pipeline()
    batch_suite = ScenarioSuite(model, backend="batch")
    auto_suite = ScenarioSuite(model)
    for index in range(6):
        stimuli = {"u": [index, index * 3, -index]}
        batch_suite.add(f"s{index}", stimuli, 3 + index % 2)
        auto_suite.add(f"s{index}", stimuli, 3 + index % 2)
    batch_traces = batch_suite.run_all()
    auto_traces = auto_suite.run_all()
    assert list(batch_traces) == list(auto_traces)
    for name in batch_traces:
        assert_trace_identical(auto_traces[name], batch_traces[name])


# -- mixed batteries -----------------------------------------------------------


def test_mixed_horizons_and_partial_stimuli_no_lane_leakage():
    model = expression_pipeline()
    items = [
        ("long", {"u": list(range(12))}, 12),
        ("short", {"u": [100, 200]}, 2),
        ("nostim", None, 5),                      # all-ABSENT inputs
        ("partial", {"u": [1]}, 6),               # stimulus ends early
        ("absent_holes", {"u": Stream([1, ABSENT, 3, ABSENT])}, 4),
    ]
    reference = Simulator(model)
    results = run_battery(model, items)
    for (name, stimuli, ticks), result in zip(items, results):
        assert result.ok, (name, result.error)
        expected = reference.run(stimuli, ticks)
        assert result.trace.ticks == ticks
        assert_trace_identical(expected, result.trace)
        for port, stream in expected.inputs.items():
            assert result.trace.inputs[port].values() == stream.values()


def test_zero_tick_scenarios_in_a_battery():
    model = expression_pipeline()
    sim = CompiledSimulator(model, backend="batch")
    empty = sim.run({"u": [1, 2]}, 0)
    assert empty.ticks == 0
    assert empty.outputs == {}
    assert_trace_identical(Simulator(model).run({"u": [5, 6]}, 2),
                           sim.run({"u": [5, 6]}, 2))


def test_empty_battery_returns_empty_list():
    model = expression_pipeline()
    assert run_battery(model, []) == []
    assert ScenarioSuite(model, backend="batch").run_all() == {}


# -- error parity and isolation ------------------------------------------------


def test_division_error_identical_message_tick_and_isolation():
    model = divider()
    items = [
        ("fine", {"a": [10, 9], "b": [2, 3]}, 2),
        ("boom", {"a": [8, 7, 6], "b": [4, 0, 1]}, 3),  # dies at tick 1
        ("also_fine", {"a": [12], "b": [5]}, 1),
    ]
    scalar = CompiledSimulator(model, backend="flat")
    with pytest.raises(ExpressionEvalError) as scalar_error:
        scalar.run(items[1][1], items[1][2])
    with pytest.raises(ExpressionEvalError) as batch_error:
        CompiledSimulator(model, backend="batch").run(items[1][1],
                                                      items[1][2])
    assert str(batch_error.value) == str(scalar_error.value)
    results = run_battery(model, items)

    boom = results[1]
    assert not boom.ok
    assert boom.error == (f"{type(scalar_error.value).__name__}: "
                          f"{scalar_error.value}")

    # neighbours keep their full traces: no batch poisoning
    assert results[0].ok and results[2].ok
    assert results[0].trace.outputs["q"].values() == [5, 3]
    assert results[2].trace.outputs["q"].values() == [2.4]


def test_run_one_reraises_the_original_exception():
    model = divider()
    sim = CompiledSimulator(model, backend="batch")
    scalar = CompiledSimulator(model, backend="flat")
    stimuli = {"a": [1], "b": [0]}
    with pytest.raises(ExpressionEvalError) as expected:
        scalar.run(stimuli, 1)
    with pytest.raises(ExpressionEvalError) as got:
        sim.run(stimuli, 1)
    assert str(got.value) == str(expected.value)


def test_unknown_name_error_parity():
    dfd = DataFlowDiagram("Free")
    dfd.add_input("u")
    dfd.add_output("y")
    block = ExpressionComponent("B", {"out": "u + ghost"})
    block.add_input("u")
    block.add_output("y")
    block.output_expressions["y"] = block.output_expressions.pop("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.y", "y")
    scalar = CompiledSimulator(dfd, backend="flat")
    with pytest.raises(ExpressionEvalError) as expected:
        scalar.run({"u": [1]}, 1)
    with pytest.raises(ExpressionEvalError) as got:
        CompiledSimulator(dfd, backend="batch").run({"u": [1]}, 1)
    assert str(got.value) == str(expected.value)


def test_stimulus_validation_messages_identical():
    model = expression_pipeline()
    batch = CompiledSimulator(model, backend="batch")
    scalar = CompiledSimulator(model, backend="flat")
    for stimuli, ticks in [({"u": [1]}, True), ({"u": [1]}, -1),
                           ({"bogus": [1]}, 3)]:
        with pytest.raises(SimulationError) as expected:
            scalar.run(stimuli, ticks)
        with pytest.raises(SimulationError) as got:
            batch.run(stimuli, ticks)
        assert str(got.value) == str(expected.value)
    # a rejected scenario leaves the rest of the battery untouched
    rejected, good = run_battery(model, [("s", {"bogus": [1]}, 3),
                                         ("ok", {"u": [2]}, 1)])
    assert rejected.error == f"SimulationError: {expected.value}"
    assert good.ok


def test_failing_stimulus_callable_matches_scalar_tick():
    """A generator that explodes mid-run fails at the same tick, and a
    *model* error on an earlier tick still wins (scalar draw order)."""
    def explode_at(when):
        def generator(tick):
            if tick >= when:
                raise RuntimeError(f"sensor dropout at {tick}")
            return tick + 1
        return generator

    model = expression_pipeline()
    scalar = CompiledSimulator(model, backend="flat")
    with pytest.raises(RuntimeError) as expected:
        scalar.run({"u": explode_at(3)}, 6)
    with pytest.raises(RuntimeError) as got:
        CompiledSimulator(model, backend="batch").run(
            {"u": explode_at(3)}, 6)
    assert str(got.value) == str(expected.value)
    assert type(got.value) is type(expected.value)

    # model error at tick 1 beats a stimulus error at tick 4
    div = divider()

    def b_values(tick):
        if tick >= 4:
            raise RuntimeError("late dropout")
        return [3, 0, 3, 3][tick]

    stimuli = {"a": [1, 1, 1, 1, 1], "b": b_values}
    scalar_div = CompiledSimulator(div, backend="flat")
    with pytest.raises(ExpressionEvalError) as div_error:
        scalar_div.run(stimuli, 5)
    with pytest.raises(ExpressionEvalError) as got:
        CompiledSimulator(div, backend="batch").run(stimuli, 5)
    assert str(got.value) == str(div_error.value)


def test_check_types_parity_both_directions():
    dfd = DataFlowDiagram("Typed")
    dfd.add_input("u", INT)
    dfd.add_output("y", INT)
    block = ExpressionComponent("B", {"out": "u / 2"})
    block.add_input("u")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.out", "y")

    scalar = CompiledSimulator(dfd, check_types=True, backend="flat")
    batch = CompiledSimulator(dfd, check_types=True, backend="batch")

    # input violation at tick 1
    with pytest.raises(Exception) as expected:
        scalar.run({"u": [2, "oops", 4]}, 3)
    with pytest.raises(Exception) as got:
        batch.run({"u": [2, "oops", 4]}, 3)
    assert str(got.value) == str(expected.value)
    assert "@t1" in str(got.value)

    # output violation: u=3 -> y=1.5 violates INT at tick 1
    with pytest.raises(Exception) as expected:
        scalar.run({"u": [2, 3]}, 2)
    with pytest.raises(Exception) as got:
        batch.run({"u": [2, 3]}, 2)
    assert str(got.value) == str(expected.value)

    # clean battery type-checks clean
    (result,) = run_battery(dfd, [("s", {"u": [2, 4]}, 2)],
                            check_types=True)
    assert result.ok
    assert result.trace.outputs["y"].values() == [1, 2]


# -- pinned regressions (differential-fuzz finds) ------------------------------


def test_int_exact_division_stays_int_across_lanes():
    """The base language is int-exact: every scenario must preserve the
    interpreter's result *type*, not decay to true division."""
    model = divider()
    items = [("exact", {"a": [10, 9, -8], "b": [2, 3, 4]}, 3),
             ("inexact", {"a": [10, 7], "b": [4, 2]}, 2)]
    results = run_battery(model, items)
    reference = Simulator(model)
    for (name, stimuli, ticks), result in zip(items, results):
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)
    exact = results[0].trace.outputs["q"].values()
    assert exact == [5, 3, -2]
    assert all(type(v) is int for v in exact)
    inexact = results[1].trace.outputs["q"].values()
    assert inexact == [2.5, 3.5]
    assert all(type(v) is float for v in inexact)


def test_unbounded_ints_do_not_overflow():
    """int64 arithmetic would wrap at 2**63; results must not."""
    dfd = DataFlowDiagram("Big")
    dfd.add_input("u")
    dfd.add_output("y")
    cube = ExpressionComponent("Cube", {"out": "u * u * u"})
    cube.declare_interface_from_expressions()
    dfd.add_subcomponent(cube)
    dfd.connect("u", "Cube.u")
    dfd.connect("Cube.out", "y")
    huge = 2 ** 80
    items = [("big", {"u": [huge, -huge]}, 2), ("small", {"u": [3]}, 1),
             ("edge", {"u": [2 ** 21, 2 ** 22]}, 2)]  # 2**66 leaves int64
    results = run_battery(dfd, items)
    reference = Simulator(dfd)
    for (name, stimuli, ticks), result in zip(items, results):
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)
    assert results[0].trace.outputs["y"].values() == [huge ** 3, -(huge ** 3)]
    assert results[1].trace.outputs["y"].values() == [27]
    assert results[2].trace.outputs["y"].values() == [2 ** 63, 2 ** 66]


def _binary_block(source):
    dfd = DataFlowDiagram("Binary")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("y")
    block = ExpressionComponent("B", {"out": source})
    block.add_input("a")
    block.add_input("b")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("a", "B.a")
    dfd.connect("b", "B.b")
    dfd.connect("B.out", "y")
    return dfd


@pytest.mark.parametrize("source", ["a + b", "a - b", "a * b", "a % b",
                                    "(a + b) * (a - b) % 7"])
def test_arithmetic_on_absent_free_rows_matches_scalar_types(source):
    """ABSENT-free columns take the native plane's bulk encoding; every
    tick must still carry the interpreter's value *and* type (bool
    arithmetic, big ints, floats, strings), with or without an absent
    tick in the column."""
    model = _binary_block(source)
    a = [True, 2 ** 80, -7, 7.5, False, 3, -2.25, 9]
    b = [True, 3, 2, -2, 5, 1.5, 4, -4]
    items = [("mixed", {"a": a, "b": b}, len(b)),
             ("holes", {"a": Stream(a[:3] + [ABSENT] + a[4:]), "b": b},
              len(b)),
             ("ints", {"a": [3, -7, 9, 2 ** 40], "b": [2, 5, -4, 3]}, 4),
             ("floats", {"a": [7.5, -2.25, 0.5], "b": [-2.0, 4.0, 1.5]}, 3),
             ("bools", {"a": [True, False], "b": [True, True]}, 2)]
    reference = Simulator(model)
    results = run_battery(model, items)
    for (name, stimuli, ticks), result in zip(items, results):
        assert result.ok, (source, name, result.error)
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)
    if source == "a + b":
        words = CompiledSimulator(model, backend="batch").run(
            {"a": ["ab", "c"], "b": ["x", "yz"]}, 2)
        assert words.outputs["y"].values() == ["abx", "cyz"]


def test_short_circuit_does_not_evaluate_poisoned_right_operand():
    """``a and (1 / b)`` with a false: the interpreter never divides, so a
    scenario with b == 0 must not fail through eager evaluation."""
    dfd = DataFlowDiagram("Lazy")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("y")
    guard = ExpressionComponent("Guard", {"out": "a and (1 / b)"})
    guard.declare_interface_from_expressions()
    dfd.add_subcomponent(guard)
    dfd.connect("a", "Guard.a")
    dfd.connect("b", "Guard.b")
    dfd.connect("Guard.out", "y")
    items = [("safe", {"a": [False, False], "b": [0, 0]}, 2),
             ("divides", {"a": [True], "b": [4]}, 1)]
    reference = Simulator(dfd)
    results = run_battery(dfd, items)
    for (name, stimuli, ticks), result in zip(items, results):
        assert result.ok, (name, result.error)
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)
    # and a genuinely-dividing zero scenario still fails with the
    # interpreter's message
    (bad,) = run_battery(dfd, [("boom", {"a": [True], "b": [0]}, 1)])
    assert not bad.ok
    with pytest.raises(ExpressionEvalError) as expected:
        reference.run({"a": [True], "b": [0]}, 1)
    assert bad.error == f"ExpressionEvalError: {expected.value}"


def test_absent_propagation_matches_interpreter():
    dfd = DataFlowDiagram("Holes")
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("seen")
    block = ExpressionComponent(
        "B", {"out": "u + 1", "flag": "present(u)"})
    block.add_input("u")
    block.add_output("out")
    block.add_output("flag")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.out", "y")
    dfd.connect("B.flag", "seen")
    stimuli = {"u": Stream([1, ABSENT, 3, ABSENT, 5])}
    expected = Simulator(dfd).run(stimuli, 5)
    trace = CompiledSimulator(dfd, backend="batch").run(stimuli, 5)
    assert_trace_identical(expected, trace)
    assert trace.outputs["y"].values()[1] is ABSENT
    assert trace.outputs["seen"].values() == [True, False, True, False, True]


# -- mode observability --------------------------------------------------------


def test_collect_modes_matches_scalar_histories():
    model = mtd_in_composite()
    items = [("calm", {"x": [1, 1, 1, 1]}, 4),
             ("spike", {"x": [1, 5, 5, 0]}, 4)]
    results = run_battery(model, items, collect_modes=True)
    for (name, stimuli, ticks), result in zip(items, results):
        assert result.ok
        assert result.mode_paths is not None
        expected = Simulator(model).run(stimuli, ticks)
        # the MTD publishes its mode on a port: histories must agree with it
        path, = result.mode_paths
        assert result.mode_paths[path] == expected.outputs["mode"].values()


def test_stateful_leaf_states_stay_per_lane():
    """The UnitDelay accumulator feedback: scenario states must never mix."""
    model = expression_pipeline()
    items = [(f"s{i}", {"u": [i] * 6}, 6) for i in range(5)]
    reference = Simulator(model)
    results = run_battery(model, items)
    for (name, stimuli, ticks), result in zip(items, results):
        assert_trace_identical(reference.run(stimuli, ticks), result.trace)


# -- no third-party runtime dependency -----------------------------------------


def test_batch_campaign_runs_without_numpy():
    """A ``backend="batch"`` campaign with a coverage report runs in a
    process where ``import numpy`` fails."""
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises
        from repro.casestudy import build_engine_modes_mtd
        from repro.notations.dfd import DataFlowDiagram
        from repro.scenarios import RandomWalk, Scenario, run_with_report

        system = DataFlowDiagram("EngineSystem")
        system.add_subcomponent(build_engine_modes_mtd())
        for port in ("n", "ped", "t_eng"):
            system.add_input(port)
            system.connect(port, f"EngineOperationModes.{port}")
        system.add_output("mode")
        system.connect("EngineOperationModes.mode", "mode")
        battery = [Scenario(f"drive{index}", {
            "n": RandomWalk(seed=index, start=0.0, step=500.0,
                            low=0.0, high=6000.0),
            "ped": 20.0, "t_eng": 40.0}, ticks=30) for index in range(4)]
        results, report = run_with_report(system, battery,
                                          executor="serial", backend="batch")
        assert all(result.ok for result in results)
        assert report.succeeded == 4
        print("ok", report.total_ticks)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["ok", "120"]

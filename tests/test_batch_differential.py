"""Differential fuzz: interpreter vs flat vs native vs batch.

Random flattenable models (expression blocks with randomized base-language
source, delayed feedback, clock-gated subtrees, MTD leaves) crossed with
random batteries (unequal tick counts, missing stimuli, ABSENT-laced
streams, huge integers, zero divisors) must agree across all the
execution backends: identical traces -- value AND Python type, so an
int-exact division that decays to true division or an int64 wraparound
is a failure even when ``==`` would hide it -- and identical error
strings on failing scenarios.  The native C backend joins only when the
host has a compiler (``native_available``), through both of its entry
points: whole horizons (``CompiledSimulator.run``) and the per-tick
``schedule.step`` under ``run_stepped``.  The batch arm runs each battery
as one serial ``run_sharded(..., backend="batch")`` campaign (the native
C loop, or flat without a compiler).  A tiered ``auto`` arm switches one
simulator from flat to native partway through a battery.

Every generation step draws from one seeded ``random.Random``, so a
reported seed reproduces the exact divergence.  The regressions this fuzz
historically flushed out are pinned individually in ``test_batch_ir.py``.
"""

import random

import pytest

from repro.core.components import ExpressionComponent
from repro.core.clocks import every
from repro.core.types import IntType
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.std import StateTransitionDiagram
from repro import obs
from repro.scenarios import Scenario, execute_scenario, run_sharded
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              NativeLoweringError, Simulator, compile_flat,
                              native_available)
from repro.simulation.schedule_ir import OP_CORRECT
from repro.simulation.native import schedule as native_schedule
from repro.simulation.engine import active_mode_paths, run_stepped

_HAS_NATIVE = native_available()

# -- random model generation ---------------------------------------------------

_LEAF_SOURCES = [
    "a + b",
    "a - b * 2",
    "(a + 1) * (b + 1)",
    "a / b",                                   # zero divisors, int-exactness
    "a % (b + 7)",
    "if a > b then a - b else b - a",
    "a and (100 / (b + 1))",                   # lazy right operand
    "(a < b) or (a == b)",
    "not (a > 0)",
    "present(a) and present(b)",
    "if present(a) then a else 0 - 1",
    "min(a, b) + max(a, b)",
    "abs(a - b)",
    "a * a * a",                               # overflow probe with big ints
    "(a + b) * 1000000000000",                 # grows past int64 quickly
]


def _expression_block(rng, name):
    source = rng.choice(_LEAF_SOURCES)
    block = ExpressionComponent(name, {"out": source})
    block.add_input("a")
    block.add_input("b")
    block.add_output("out")
    return block


def _mtd_block(rng, name):
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    threshold = rng.randint(0, 5)
    low = ExpressionComponent(f"{name}Low", {"out": "a + b"})
    low.add_input("a")
    low.add_input("b")
    low.add_output("out")
    high = ExpressionComponent(f"{name}High", {"out": "a * 2"})
    high.add_input("a")
    high.add_output("out")
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", high)
    mtd.add_transition("Low", "High", f"a > {threshold}")
    mtd.add_transition("High", "Low", f"a <= {threshold}")
    return mtd


def _build_model(rng, index):
    """A two-input, one-output flattenable composite with 2-4 random leaves
    chained in sequence, optionally a delayed feedback and a gated stage."""
    dfd = DataFlowDiagram(f"Fuzz{index}")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")

    stages = []
    n_stages = rng.randint(2, 4)
    for stage_index in range(n_stages):
        name = f"S{stage_index}"
        kind = rng.random()
        if kind < 0.2:
            stage = _mtd_block(rng, name)
        elif kind < 0.35:
            inner = DataFlowDiagram(f"{name}Core")
            inner.add_input("a")
            inner.add_input("b")
            inner.add_output("out")
            leaf = _expression_block(rng, f"{name}Leaf")
            inner.add_subcomponent(leaf)
            inner.connect("a", f"{name}Leaf.a")
            inner.connect("b", f"{name}Leaf.b")
            inner.connect(f"{name}Leaf.out", "out")
            stage = ClockGatedComponent(inner, every(rng.randint(2, 3)),
                                        name=name)
        else:
            stage = _expression_block(rng, name)
        dfd.add_subcomponent(stage)
        stages.append((name, stage))

    delay = UnitDelay("Z", initial=rng.randint(0, 3))
    dfd.add_subcomponent(delay)

    # chain: x feeds every a; b is the previous stage (or y for the first);
    # the delay replays the final value into the last stage's b-side mix
    previous = None
    for name, stage in stages:
        dfd.connect("x", f"{name}.a")
        if "b" in stage.input_names():
            dfd.connect("y" if previous is None else f"{previous}.out",
                        f"{name}.b")
        previous = name
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "out")
    return dfd


# -- random battery generation -------------------------------------------------


def _stimulus(rng, ticks):
    kind = rng.random()
    if kind < 0.15:
        return None  # port left unstimulated
    values = []
    for _ in range(rng.randint(max(1, ticks - 2), ticks + 1)):
        draw = rng.random()
        if draw < 0.15:
            values.append(ABSENT)
        elif draw < 0.25:
            values.append(0)
        elif draw < 0.35:
            values.append(rng.randint(2 ** 62, 2 ** 70))  # int64 killers
        elif draw < 0.5:
            values.append(round(rng.uniform(-5.0, 5.0), 2))
        else:
            values.append(rng.randint(-6, 6))
    return Stream(values)


def _battery(rng, model, size, max_ticks=7):
    items = []
    for index in range(size):
        ticks = rng.randint(1, max_ticks)
        stimuli = {}
        for port in model.input_names():
            spec = _stimulus(rng, ticks)
            if spec is not None:
                stimuli[port] = spec
        items.append((f"case{index}", stimuli, ticks))
    return items


# -- the differential loop -----------------------------------------------------


def _scalar_outcome(runner, stimuli, ticks):
    """(trace, None) on success, (None, error string) on failure."""
    try:
        return runner(stimuli, ticks), None
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return None, f"{type(exc).__name__}: {exc}"


def _typed_streams(trace):
    return {port: [(type(v), v) for v in stream.values()]
            for port, stream in trace.outputs.items()}


@pytest.mark.parametrize("seed", range(8))
def test_four_backends_agree_on_random_models_and_batteries(seed):
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    outcomes = run_sharded(model, [Scenario(name, stimuli, ticks)
                                   for name, stimuli, ticks in battery],
                           executor="serial", backend="batch")
    runners = [("flat", flat.run)]
    if _HAS_NATIVE:
        native = CompiledSimulator(model, backend="native")
        schedule = native.schedule

        def native_stepped(stimuli, ticks):
            # the per-tick entry point: one C call per tick
            return run_stepped(model, schedule.step, stimuli, ticks, False,
                               initial_state=schedule.initial_state())

        runners += [("native", native.run),
                    ("native-step", native_stepped)]

    for (name, stimuli, ticks), outcome in zip(battery, outcomes):
        expected_trace, expected_error = _scalar_outcome(
            interpreter.run, stimuli, ticks)
        for label, runner in runners:
            trace, error = _scalar_outcome(runner, stimuli, ticks)
            assert error == expected_error, (seed, name, label)
            if expected_trace is not None:
                assert _typed_streams(trace) == \
                    _typed_streams(expected_trace), (seed, name, label)

        if expected_error is not None:
            assert not outcome.ok, (seed, name, "batch succeeded",
                                    expected_error)
            assert outcome.error == expected_error, (seed, name, "batch")
        else:
            assert outcome.ok, (seed, name, outcome.error)
            assert _typed_streams(outcome.trace) == \
                _typed_streams(expected_trace), (seed, name, "batch")
            assert expected_trace.mode_history == \
                outcome.trace.mode_history, (seed, name)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_four_backend_fuzz_extended(seed):
    test_four_backends_agree_on_random_models_and_batteries(seed)


# -- mode histories ------------------------------------------------------------


def _interpreter_modes(model, scenario, check_types=False):
    """``(error, mode histories, typed streams)`` of one interpreter run:
    the histories :func:`active_mode_paths` walks over ``model.react``'s
    own states after every tick -- the record a ``collect_modes=True``
    scenario result carries."""
    histories = {}

    def observed(inputs, state, tick):
        outputs, state = model.react(inputs, state, tick)
        for path, mode in active_mode_paths(model, state).items():
            histories.setdefault(path, []).append(mode)
        return outputs, state

    try:
        trace = run_stepped(model, observed, scenario.stimuli,
                            scenario.ticks, check_types)
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return f"{type(exc).__name__}: {exc}", None, None
    return None, histories, _typed_streams(trace)


@pytest.mark.parametrize("seed", range(8))
def test_mode_histories_agree_across_backends(seed):
    """``collect_modes=True`` campaigns record, on every backend, the
    per-tick mode histories the interpreter's own states walk to: flat,
    native and batch read the leaves their mode plan names."""
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
               in _battery(rng, model, size=rng.randint(3, 8))]
    expected = [_interpreter_modes(model, scenario) for scenario in battery]
    for backend in ["flat", "batch"] + (["native"] if _HAS_NATIVE else []):
        results = run_sharded(model, battery, executor="serial",
                              collect_modes=True, backend=backend)
        assert [(result.error, result.mode_paths,
                 _typed_streams(result.trace) if result.ok else None)
                for result in results] == expected, (seed, backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_mode_histories_fuzz_extended(seed):
    test_mode_histories_agree_across_backends(seed)


# -- tiered auto ---------------------------------------------------------------


def _failing_load(*args, **kwargs):
    raise NativeLoweringError("stubbed compiler failure")


@pytest.mark.skipif(not _HAS_NATIVE, reason="no C compiler: auto never tiers")
@pytest.mark.parametrize("promotion", ["loads", "fails"])
@pytest.mark.parametrize("check_types", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_tiered_auto_switch_mid_battery_matches_interpreter(
        seed, check_types, promotion, monkeypatch):
    """An ``auto`` simulator promoted before scenario *k* (a test hook,
    forced past the cost check; a patched check declines the second run's
    own promotion) reproduces the interpreter on every scenario before
    and after the switch: typed traces, error strings -- type, message and
    tick -- and ``collect_modes`` histories.  With ``check_types`` the
    output port is an int range, so output type errors land at random
    ticks; a failing compiler leaves the simulator on flat."""
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
               in _battery(rng, model, size=rng.randint(3, 8))]
    switch = random.Random(9800 + seed).randrange(len(battery))
    if check_types:
        model.port("out").port_type = IntType(-1000, 1000)
    monkeypatch.setattr(native_schedule, "worth_loading", lambda lowered: False)
    if promotion == "fails":
        monkeypatch.setattr(native_schedule, "load_shared_object",
                            _failing_load)
    expected = [_interpreter_modes(model, scenario, check_types)
                for scenario in battery]

    simulator = CompiledSimulator(model, check_types=check_types)
    outcomes = []
    with obs.session() as telemetry:
        for index, scenario in enumerate(battery):
            if index == switch:
                simulator._promote_now(force=True)
            result = execute_scenario(simulator, scenario,
                                      collect_modes=True)
            outcomes.append((result.error, result.mode_paths,
                             _typed_streams(result.trace) if result.ok
                             else None))
    for index, (got, want) in enumerate(zip(outcomes, expected)):
        assert got == want, (seed, battery[index].name, switch, promotion)
    counters = telemetry.registry.counter_values("compile.native_")
    promoted = promotion == "loads"
    assert counters == {"compile.native_promotions" if promoted
                        else "compile.native_promotion_failures": 1}
    assert telemetry.registry.counter("native.runs").value \
        == (len(battery) - switch if promoted else 0)
    assert simulator.schedule.kind == "flat"


# -- composites that run as one step -------------------------------------------


def _std_block(rng, name):
    """A threshold STD over ``a`` with a transition counter ``n``."""
    low = rng.randint(-3, 2)
    high = low + rng.randint(1, 4)
    std = StateTransitionDiagram(name)
    std.add_input("a")
    std.add_output("out")
    std.add_variable("n", 0)
    std.add_state("Calm", emissions={"out": "a + n"})
    std.add_state("Hot", emissions={
        "out": rng.choice(["a * 2", "a - n", "100 / (a - n)"])})
    std.add_transition("Calm", "Hot", f"a > {high}", actions={"n": "n + 1"})
    std.add_transition("Hot", "Calm", f"a < {low}")
    return std


def _behavior_dfd(rng, name, with_std):
    """A mode behaviour DFD ``(a, b) -> out``: a random expression block,
    optionally followed by an STD."""
    dfd = DataFlowDiagram(name)
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("out")
    leaf = _expression_block(rng, f"{name}E")
    dfd.add_subcomponent(leaf)
    dfd.connect("a", f"{name}E.a")
    dfd.connect("b", f"{name}E.b")
    if with_std:
        std = _std_block(rng, f"{name}Seq")
        dfd.add_subcomponent(std)
        dfd.connect(f"{name}E.out", f"{name}Seq.a")
        dfd.connect(f"{name}Seq.out", "out")
    else:
        dfd.connect(f"{name}E.out", "out")
    return dfd


def _switching_core(rng, name):
    """A core whose re-run takes another path than its first run.

    Its first run sees ``u`` absent (``A`` feeds it later): the guards of
    the MTD ``CM`` stay silent and the block ``CR`` (``100 / (a - k)``)
    cannot raise.  The re-run sees the final ``u``: ``CM`` may switch
    between ``Idle`` and ``Busy``, a mode behaviour with an internal
    delayed channel, and ``CR`` may raise.  ``CM`` reaches ``s`` over a
    delayed channel, so the core stays non-feedthrough.
    """
    threshold = rng.randint(-2, 2)
    modes = ModeTransitionDiagram("CM")
    modes.add_input("a")
    modes.add_input("b")
    modes.add_output("out")
    modes.add_mode("Idle", _expression_block(rng, "CIdle"), initial=True)
    modes.add_mode("Busy", _loop_dfd(rng, "CBusy"))
    modes.add_transition("Idle", "Busy", f"present(a) and a != {threshold}")
    modes.add_transition("Busy", "Idle", f"a <= {threshold}")
    raiser = ExpressionComponent("CR", {"out": f"100 / (a - "
                                               f"{rng.randint(-3, 3)})"})
    raiser.add_input("a")
    raiser.add_output("out")
    core = DataFlowDiagram(name)
    core.add_input("u")
    core.add_output("y")
    core.add_output("s")
    core.add_subcomponent(UnitDelay("Z", initial=rng.randint(0, 3)))
    core.add(raiser, modes)
    core.connect("u", "Z.in1")
    core.connect("Z.out", "y")
    core.connect("u", "CR.a")
    core.connect("u", "CM.a")
    core.connect("CR.out", "CM.b")
    core.connect("CM.out", "s", delayed=True, initial_value=0)
    return core


def _build_one_step_model(rng, index, switching=False):
    """Both composite shapes that compile to a correction region.

    ``M`` is an MTD whose mode behaviours are DFDs, at least one holding
    an STD.  ``C`` is a non-feedthrough composite (its output comes from a
    delay, optionally under a clock gate) that is scheduled before ``A``
    although ``A`` feeds it: a late-produced composite, which the
    correction barrier re-runs.  With *switching*, ``C``'s core is a
    :func:`_switching_core`.
    """
    mtd = ModeTransitionDiagram("M")
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    mtd.add_output("mode")
    std_in_low = rng.random() < 0.5
    mtd.add_mode("Low", _behavior_dfd(rng, "Low", std_in_low), initial=True)
    mtd.add_mode("High", _behavior_dfd(rng, "High", True))
    threshold = rng.randint(-2, 4)
    mtd.add_transition("Low", "High", f"a > {threshold}")
    mtd.add_transition("High", "Low", f"a <= {threshold}")

    gated = rng.random() < 0.4
    if switching:
        core = _switching_core(rng, "CCore" if gated else "C")
    else:
        core = DataFlowDiagram("CCore" if gated else "C")
        core.add_input("u")
        core.add_output("y")
        core.add_output("s")
        core.add_subcomponent(UnitDelay("Z", initial=rng.randint(0, 3)))
        core.add_subcomponent(_expression_block(rng, "CE"))
        core.add_subcomponent(_std_block(rng, "CSeq"))
        core.connect("u", "Z.in1")
        core.connect("Z.out", "CE.a")
        core.connect("Z.out", "CE.b")
        core.connect("Z.out", "CSeq.a")
        core.connect("CE.out", "y")
        core.connect("CSeq.out", "s")
    child = (ClockGatedComponent(core, every(rng.randint(2, 3)), name="C")
             if gated else core)

    dfd = DataFlowDiagram(f"OneStep{index}")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    dfd.add_output("mode")
    dfd.add_output("s")
    mix = _expression_block(rng, "A")
    dfd.add(mtd, child, mix)
    dfd.connect("x", "M.a")
    dfd.connect("y", "M.b")
    dfd.connect("M.out", "A.a")
    dfd.connect("C.y", "A.b")     # C runs before A ...
    dfd.connect("A.out", "C.u")   # ... but A feeds it: a late producer
    dfd.connect("A.out", "out")
    dfd.connect("M.mode", "mode")
    dfd.connect("C.s", "s")
    return dfd


@pytest.mark.parametrize("seed", range(12))
def test_one_step_composites_agree_with_interpreter(seed):
    """Late-produced composites compile to correction regions and
    composite MTD mode behaviours to ``select`` regions of the root's
    program; ``auto``, ``flat``, ``native`` and
    ``batch`` must reproduce the interpreter's typed traces, error strings
    and ``collect_modes`` histories on them."""
    rng = random.Random(9500 + seed)
    model = _build_one_step_model(rng, seed)
    battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
               in _battery(rng, model, size=rng.randint(3, 6), max_ticks=14)]

    flat = compile_flat(model)
    leaves = {leaf.component.name: leaf for leaf in flat.leaves}
    # C's leaves are leaves of the root's program, in C's one region
    barrier, = [op for op in flat.program if op[0] == OP_CORRECT]
    (_start, _end, (first, end), _buffers, _seen), = barrier[1]
    assert [leaf.component.name for leaf in flat.leaves[first:end]] \
        == ["Z", "CE", "CSeq"]
    controller = leaves["M"]
    assert controller.run_kind == "mtd"
    assert {leaf.modes for leaf in flat.leaves
            if leaf.path.startswith(f"{model.name}/M/")} \
        == {((controller.index, "Low"),), ((controller.index, "High"),)}

    expected = [_interpreter_modes(model, scenario) for scenario in battery]
    for backend in ["auto", "flat", "batch"] + (["native"] if _HAS_NATIVE
                                                else []):
        simulator = CompiledSimulator(model, backend=backend)
        for scenario, (error, _modes, streams) in zip(battery, expected):
            trace, got_error = _scalar_outcome(simulator.run, scenario.stimuli,
                                               scenario.ticks)
            got = _typed_streams(trace) if trace is not None else None
            assert (got_error, got) == (error, streams), (
                seed, scenario.name, backend)
        results = run_sharded(model, battery, executor="serial",
                              collect_modes=True, backend=backend)
        assert [(result.error, result.mode_paths,
                 _typed_streams(result.trace) if result.ok else None)
                for result in results] == expected, (seed, backend)


@pytest.mark.parametrize("seed", range(8))
def test_one_step_rerun_taking_another_path_agrees_with_interpreter(seed):
    """``C``'s re-run takes another path than its first run
    (:func:`_switching_core`): it switches mode, runs the other mode's
    delayed channel and may raise where the first run could not.  ``flat``,
    ``native`` and promoted ``auto`` reproduce the interpreter's typed
    traces, errors with the tick they end the run at, and ``collect_modes``
    histories."""
    rng = random.Random(9750 + seed)
    model = _build_one_step_model(rng, seed, switching=True)
    battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
               in _battery(rng, model, size=5, max_ticks=14)]
    expected = [(_interpreter_mtd_outcome(model, scenario),
                 _interpreter_modes(model, scenario)[1])
                for scenario in battery]
    # the first run sees u absent, so it neither leaves Idle nor raises in
    # CR: a Busy tick was switched by a re-run, CR's error raised by one
    assert any("Busy" in histories.get(f"{model.name}/C/CM", ())
               if histories else "100 / (a - " in outcome[0]
               for outcome, histories in expected), seed
    for backend in ["flat"] + (["native", "auto"] if _HAS_NATIVE else []):
        simulator = CompiledSimulator(model, backend=backend)
        if backend == "auto":
            simulator._promote_now(force=True)  # noqa: SLF001 - test hook
        for scenario, (outcome, histories) in zip(battery, expected):
            got = _ticked_outcome(lambda ticks: simulator.run(
                scenario.stimuli, ticks), scenario.ticks)
            label = (seed, backend, scenario.name)
            assert got == outcome, label
            result = execute_scenario(simulator, scenario,
                                      collect_modes=True)
            assert result.mode_paths == histories, label
        if backend == "auto":
            assert simulator._native is not None  # noqa: SLF001


# -- generated loop variants ---------------------------------------------------


def _stepped_outcome(model, step, stimuli, ticks, initial_state=None):
    """(typed streams, error string, ticks completed) of one stepped run:
    the completed-tick count pins the failing tick of an error."""
    completed = []

    def counted(inputs, state, tick):
        result = step(inputs, state, tick)
        completed.append(tick)
        return result

    try:
        trace = run_stepped(model, counted, stimuli, ticks, False,
                            initial_state=initial_state)
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return None, f"{type(exc).__name__}: {exc}", len(completed)
    return _typed_streams(trace), None, len(completed)


def _lane_outcome(outcome):
    return ((_typed_streams(outcome.trace) if outcome.ok else None),
            outcome.error)


#: The observing sessions: each runs the observed variant of the horizon
#: loop, profiled, recording, or both in one variant.
_OBSERVING = (("profiled", {"profile_ops": True}),
              ("recording", {"flight_recording": True}),
              ("both", {"profile_ops": True, "flight_recording": True}))


def _observed_ticks(telemetry, profiled_before):
    """The ticks the last run of the observing session *telemetry* ran to
    their end, by each of its instruments, and the recorded failing tick
    (or ``None``)."""
    counts, failing = [], None
    if telemetry.profile_ops:
        counts.append(sum(profile.ticks for profile
                          in telemetry.profiles.values()) - profiled_before)
    if telemetry.flight_recording:
        recorder, = telemetry.recorders.values()
        counts.append(len(recorder.snapshots))
        if recorder.failure is not None:
            failing = recorder.failure["tick"]
    return counts, failing


@pytest.mark.parametrize("seed", range(8))
def test_generated_step_variants_agree_with_interpreter(seed):
    """The op-profiled and flight-recording variants of the horizon loop
    are generated from the default program, and profiled batch-backend
    runs take the profiled flat loop; each must reproduce the
    interpreter's typed trace, or its error type, message and tick, and
    observe exactly the ticks the interpreter completed."""
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    expected = {name: _stepped_outcome(model, model.react, stimuli, ticks)
                for name, stimuli, ticks in battery}
    simulator = CompiledSimulator(model, backend="flat")
    for label, config in _OBSERVING:
        with obs.session(**config) as telemetry:
            for name, stimuli, ticks in battery:
                before = sum(profile.ticks for profile
                             in telemetry.profiles.values())
                trace, error = _scalar_outcome(simulator.run, stimuli, ticks)
                got = (_typed_streams(trace) if trace is not None else None,
                       error)
                assert got == expected[name][:2], (seed, name, label)
                completed = expected[name][2]
                counts, failing = _observed_ticks(telemetry, before)
                assert counts == [completed] * len(counts), (seed, name,
                                                             label)
                assert failing in (None, completed), (seed, name, label)

    # profiled batch-backend runs: full horizons as one campaign, then
    # each failing scenario cut just before and just after the
    # interpreter's failing tick
    failing = [(name, stimuli, expected[name][2])
               for name, stimuli, _ticks in battery
               if expected[name][1] is not None]
    cut = [(f"{name}@{completed}", stimuli, completed)
           for name, stimuli, completed in failing] + \
          [(f"{name}@{completed + 1}", stimuli, completed + 1)
           for name, stimuli, completed in failing]
    with obs.session(profile_ops=True) as telemetry:
        outcomes = run_sharded(model, [Scenario(name, stimuli, ticks)
                                       for name, stimuli, ticks in battery],
                               executor="serial", backend="batch")
        batch = CompiledSimulator(model, backend="batch")
        cut_outcomes = [_scalar_outcome(batch.run, stimuli, ticks)
                        for _name, stimuli, ticks in cut]
    assert telemetry.profiles, "the profiled step did not run"
    for (name, _stimuli, _ticks), outcome in zip(battery, outcomes):
        assert _lane_outcome(outcome) == expected[name][:2], (seed, name)
    interpreter = Simulator(model)
    for (name, stimuli, ticks), (trace, error) in zip(cut, cut_outcomes):
        reference = _scalar_outcome(interpreter.run, stimuli, ticks)
        assert (_typed_streams(trace) if trace is not None else None,
                error) == (
            _typed_streams(reference[0]) if reference[0] is not None
            else None, reference[1]), (seed, name)


# -- lint-clean property -------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_models_are_lint_clean_and_never_hit_unknown_names(seed):
    """The static verifier accepts every generator output, and its central
    promise holds on the same battery the differential loop uses: a
    lint-clean model never fails with the evaluator's ``unknown name``
    error (the runtime counterpart of ``expr-unknown-name`` /
    ``ir-read-before-write``)."""
    from repro.analysis.lint import lint_model

    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    report = lint_model(model)
    assert not report.errors(), report.describe()

    flat = CompiledSimulator(model, backend="flat")
    for name, stimuli, ticks in battery:
        _trace, error = _scalar_outcome(flat.run, stimuli, ticks)
        if error is not None:
            assert "unknown name" not in error, (seed, name, error)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_generated_step_variants_fuzz_extended(seed):
    test_generated_step_variants_agree_with_interpreter(seed)


# -- random MTDs: mode controllers and select regions --------------------------


#: Guard templates over ``a`` and ``b``; the last one divides by zero
#: when ``a`` hits the threshold.
_GUARDS = ["a > {t}", "b < {t}", "a == {t} or b == {t}",
           "present(b) and b > {t}", "100 / (a - {t}) > 3"]

_BEHAVIOURS = ["expr", "std", "loop", "mtd", "empty"]


def _loop_dfd(rng, name):
    """A mode behaviour ``(a, b) -> out`` whose expression block reads its
    own output over a delayed self-loop, optionally through an STD."""
    dfd = DataFlowDiagram(name)
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("out")
    leaf = _expression_block(rng, f"{name}E")
    dfd.add_subcomponent(leaf)
    dfd.connect("a", f"{name}E.a")
    dfd.connect(f"{name}E.out", f"{name}E.b", delayed=True,
                initial_value=rng.randint(0, 3))
    if rng.random() < 0.5:
        dfd.add_subcomponent(_std_block(rng, f"{name}Seq"))
        dfd.connect(f"{name}E.out", f"{name}Seq.a")
        dfd.connect(f"{name}Seq.out", "out")
    else:
        dfd.connect(f"{name}E.out", "out")
    return dfd


def _mode_behaviour(rng, name, kind, with_mode, depth):
    if kind == "std":
        return _std_block(rng, name)
    if kind == "loop":
        return _loop_dfd(rng, name)
    if kind == "mtd" and depth == 0:
        return _random_mtd(rng, name, depth + 1, with_mode)
    if kind == "empty":
        return None
    block = _expression_block(rng, name)
    if with_mode:  # a behaviour declaring the port the MTD's mode wins
        block.output_expressions["mode"] = block.output_expressions["out"]
        block.add_output("mode")
    return block


def _random_mtd(rng, name, depth=0, with_mode=None):
    """An MTD ``(a, b) -> out [, mode]`` with 2-4 modes whose behaviours
    are drawn from :data:`_BEHAVIOURS`, one of them declaring ``mode``
    when the MTD does, and 1-2 prioritized guarded transitions per mode."""
    if with_mode is None:
        with_mode = rng.random() < 0.7
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    if with_mode:
        mtd.add_output("mode")
    names = [f"{name}M{index}" for index in range(rng.randint(2, 4))]
    kinds = rng.sample(_BEHAVIOURS, len(names))
    moded = rng.randrange(len(names)) if with_mode else None
    if moded is not None:
        kinds[moded] = "expr"
    for index, (mode, kind) in enumerate(zip(names, kinds)):
        # a nested MTD may declare ``mode`` too
        declares_mode = index == moded or (kind == "mtd" and with_mode
                                           and rng.random() < 0.5)
        mtd.add_mode(mode, _mode_behaviour(rng, f"{mode}B", kind,
                                           declares_mode, depth))
    for source in names:
        for _ in range(rng.randint(1, 2)):
            guard = rng.choice(_GUARDS).format(t=rng.randint(-2, 4))
            mtd.add_transition(source, rng.choice(names), guard,
                               priority=rng.randint(0, 2))
    return mtd


def _mtd_context(rng, mtd, context):
    """*mtd* as the root, hoisted into a DFD that feeds its output back
    over a delayed channel, or behind a clock gate."""
    if context == "gated":
        return ClockGatedComponent(mtd, every(rng.randint(2, 3),
                                              phase=rng.randint(0, 1)),
                                   name="G")
    if context == "root":
        return mtd
    dfd = DataFlowDiagram("Host")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    pre = _expression_block(rng, "Pre")
    dfd.add(pre, mtd)
    dfd.connect("x", "Pre.a")
    dfd.connect("y", "Pre.b")
    dfd.connect("Pre.out", f"{mtd.name}.a")
    dfd.connect(f"{mtd.name}.out", f"{mtd.name}.b", delayed=True,
                initial_value=0)
    dfd.connect(f"{mtd.name}.out", "out")
    if "mode" in mtd.output_names():
        dfd.add_output("mode")
        dfd.connect(f"{mtd.name}.mode", "mode")
    return dfd


def _ticked_outcome(run, ticks):
    """``(error, the smallest horizon that raises, typed streams and
    mode_history)`` of ``run(ticks)``, where ``run(horizon)`` simulates
    the first *horizon* ticks of one scenario."""
    try:
        trace = run(ticks)
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return f"{type(exc).__name__}: {exc}", _failing_horizon(run), None
    return None, None, (_typed_streams(trace), trace.mode_history)


def _failing_horizon(run):
    """The smallest horizon ``run`` raises at: the tick the error ends a
    run at, plus one."""
    horizon = 0
    while True:
        try:
            run(horizon)
        except Exception:  # noqa: BLE001 - probing for the first failure
            return horizon
        horizon += 1


def _interpreter_mtd_outcome(model, scenario):
    return _ticked_outcome(
        lambda ticks: run_stepped(model, model.react, scenario.stimuli,
                                  ticks, False), scenario.ticks)


@pytest.mark.parametrize("seed", range(4))
def test_random_mtds_agree_with_interpreter(seed):
    """Random MTDs -- expression, STD, self-looped composite, nested MTD
    and empty mode behaviours, one also declaring ``mode`` -- as the root,
    hoisted into a DFD and behind a clock gate: ``flat``, ``native`` and
    promoted ``auto`` reproduce the interpreter's typed traces,
    ``mode_history``, errors with the tick they end the run at, and
    ``collect_modes`` histories."""
    rng = random.Random(9900 + seed)
    for context in ("root", "hoisted", "gated"):
        model = _mtd_context(rng, _random_mtd(rng, "M"), context)
        battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
                   in _battery(rng, model, size=4, max_ticks=16)]
        expected = [(_interpreter_mtd_outcome(model, scenario),
                     _interpreter_modes(model, scenario)[1])
                    for scenario in battery]
        for backend in ["flat"] + (["native", "auto"] if _HAS_NATIVE
                                   else []):
            simulator = CompiledSimulator(model, backend=backend)
            if backend == "auto":
                simulator._promote_now(force=True)
            for scenario, (outcome, histories) in zip(battery, expected):
                got = _ticked_outcome(lambda ticks: simulator.run(
                    scenario.stimuli, ticks), scenario.ticks)
                label = (seed, context, backend, scenario.name)
                assert got == outcome, label
                result = execute_scenario(simulator, scenario,
                                          collect_modes=True)
                assert result.mode_paths == histories, label
            if backend == "auto":
                assert simulator._native is not None, label


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 30))
def test_random_mtd_fuzz_extended(seed):
    test_random_mtds_agree_with_interpreter(seed)

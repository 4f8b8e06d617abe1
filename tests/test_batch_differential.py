"""Differential fuzz: interpreter vs nested vs flat vs native vs batch.

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
C loop, or flat without a compiler).

Every generation step draws from one seeded ``random.Random``, so a
reported seed reproduces the exact divergence.  The regressions this fuzz
historically flushed out are pinned individually in ``test_batch_ir.py``.
"""

import random

import pytest

from repro.core.components import ExpressionComponent
from repro.core.clocks import every
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro import obs
from repro.obs.profile import OpProfile
from repro.obs.recorder import FlightRecorder
from repro.scenarios import Scenario, run_sharded
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, compile_flat, native_available)
from repro.simulation.engine import run_stepped

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


def _battery(rng, model, size):
    items = []
    for index in range(size):
        ticks = rng.randint(1, 7)
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
    nested = CompiledSimulator(model, backend="nested")
    flat = CompiledSimulator(model, backend="flat")
    outcomes = run_sharded(model, [Scenario(name, stimuli, ticks)
                                   for name, stimuli, ticks in battery],
                           executor="serial", backend="batch")
    runners = [("nested", nested.run), ("flat", flat.run)]
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


@pytest.mark.parametrize("seed", range(8))
def test_mode_histories_agree_across_backends(seed):
    """``collect_modes=True`` campaigns record identical per-tick mode
    histories on every backend: nested walks the whole state tree; flat,
    native and batch read the leaves their mode plan names."""
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = [Scenario(name, stimuli, ticks) for name, stimuli, ticks
               in _battery(rng, model, size=rng.randint(3, 8))]
    backends = ["nested", "flat", "batch"] + (["native"] if _HAS_NATIVE
                                              else [])
    outcomes = {}
    for backend in backends:
        results = run_sharded(model, battery, executor="serial",
                              collect_modes=True, backend=backend)
        outcomes[backend] = [
            (result.error, result.mode_paths,
             _typed_streams(result.trace) if result.ok else None)
            for result in results]
    for backend in backends[1:]:
        assert outcomes[backend] == outcomes["nested"], (seed, backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_mode_histories_fuzz_extended(seed):
    test_mode_histories_agree_across_backends(seed)


# -- generated step variants ---------------------------------------------------


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


@pytest.mark.parametrize("seed", range(8))
def test_generated_step_variants_agree_with_interpreter(seed):
    """The op-profiled and flight-recording flat steps are generated
    variants of the default program, and profiled batch-backend runs take
    the profiled step; each must reproduce the interpreter's typed trace,
    or its error type, message and tick."""
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    schedule = compile_flat(model)
    profile = OpProfile("fuzz", schedule.op_labels())
    recorder = FlightRecorder(schedule)
    variants = [("instrumented", schedule.instrumented_step(profile)),
                ("recording", schedule.recording_step(recorder))]
    expected = {}
    for name, stimuli, ticks in battery:
        expected[name] = _stepped_outcome(model, model.react, stimuli, ticks)
        for label, step in variants:
            recorder.begin_run()
            got = _stepped_outcome(model, step, stimuli, ticks,
                                   initial_state=schedule.initial_state())
            assert got == expected[name], (seed, name, label)
            if label == "recording" and recorder.failure is not None:
                assert recorder.failure["tick"] == got[2], (seed, name)

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

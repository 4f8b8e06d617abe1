"""Differential and hygiene tests for the native C backend.

The native backend's promise is byte-identical observable behaviour to the
flat interpreter -- same ``trace_to_json`` output across the case-study
portfolio, same exception type/message/tick on error paths -- obtained
from a compiled C tick loop.  Everything that needs a C compiler is
skipped cleanly (``native_available``) on compiler-less hosts; the static
pieces (cache keys, eviction, the ir_verify refusal gate, backend
validation) run everywhere.
"""

import os
import sys
import threading
from enum import Enum, IntEnum

import pytest

from repro import obs
from repro.casestudy import (acceleration_scenario, build_closed_loop,
                             build_door_lock_control, build_engine_ccd,
                             build_reengineered_fda, crash_scenario,
                             driving_scenario)
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.core.errors import (ExpressionEvalError, SimulationError,
                               TypeCheckError)
from repro.core.types import FloatType, IntType
from repro.core.values import ABSENT, Stream
from repro.io.json_io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              NativeLoweringError, Simulator, build_gated_ccd,
                              compile_flat, compile_native, native_available)
from repro.simulation.native import (EMITTER_VERSION, cache_key, evict_stale,
                                     lower_program, reset_toolchain_cache)
from repro.simulation.schedule_ir import OP_GATE

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test compiles into its own throwaway shared-object cache."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))


# -- helpers -------------------------------------------------------------------


def _wrapped(component):
    """A flattenable pass-through composite around an unflattenable root,
    so MTD/SSD case studies exercise the run-op trampoline path."""
    dfd = DataFlowDiagram(f"{component.name}Wrap")
    for name in component.input_names():
        dfd.add_input(name)
    for name in component.output_names():
        dfd.add_output(name)
    dfd.add_subcomponent(component)
    for name in component.input_names():
        dfd.connect(name, f"{component.name}.{name}")
    for name in component.output_names():
        dfd.connect(f"{component.name}.{name}", name)
    return dfd


def _filtered(scenario, component):
    return {name: values for name, values in scenario.items()
            if name in component.input_names()}


def _expression_heavy_model():
    dfd = DataFlowDiagram("NativeProbe")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    e1 = ExpressionComponent("E1", {"out": "a + b * 2"})
    e2 = ExpressionComponent("E2",
                             {"out": "if a > b then a / (b + 1) else "
                                     "min(a, b)"})
    e3 = ExpressionComponent("E3", {"out": "abs(a - b) % (b + 7)"})
    for block in (e1, e2, e3):
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
    inner = DataFlowDiagram("GCore")
    inner.add_input("a")
    inner.add_input("b")
    inner.add_output("out")
    inner.add_subcomponent(e3)
    inner.connect("a", "E3.a")
    inner.connect("b", "E3.b")
    inner.connect("E3.out", "out")
    gated = ClockGatedComponent(inner, every(2), name="G")
    delay = UnitDelay("Z", initial=1)
    for sub in (e1, e2, gated, delay):
        dfd.add_subcomponent(sub)
    dfd.connect("x", "E1.a")
    dfd.connect("y", "E1.b")
    dfd.connect("x", "E2.a")
    dfd.connect("E1.out", "E2.b")
    dfd.connect("x", "G.a")
    dfd.connect("E2.out", "G.b")
    dfd.connect("E2.out", "Z.in1")
    dfd.connect("E2.out", "out")
    return dfd


def _outcome(runner, stimuli, ticks):
    try:
        return runner(stimuli, ticks), None
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return None, f"{type(exc).__name__}: {exc}"


# -- portfolio byte-identity ---------------------------------------------------


_PORTFOLIO = [
    ("engine_ccd", lambda: build_gated_ccd(build_engine_ccd()),
     lambda c: _filtered(driving_scenario(120), c), 120),
    ("door_lock", lambda: _wrapped(build_door_lock_control()),
     lambda c: _filtered(crash_scenario(8), c), 8),
    ("reengineered_fda", lambda: _wrapped(build_reengineered_fda()),
     lambda c: _filtered(driving_scenario(120), c), 120),
    ("momentum", lambda: build_closed_loop(),
     lambda c: _filtered(acceleration_scenario(60), c), 60),
]


@requires_cc
@pytest.mark.parametrize("name,build,stimuli_of,ticks",
                         _PORTFOLIO, ids=[c[0] for c in _PORTFOLIO])
def test_native_traces_byte_identical_to_flat_on_portfolio(
        name, build, stimuli_of, ticks):
    component = build()
    stimuli = stimuli_of(component)
    flat = CompiledSimulator(component, backend="flat")
    native = CompiledSimulator(component, backend="native")
    assert native.schedule.kind == "native"
    flat_trace = flat.run(stimuli, ticks)
    native_trace = native.run(stimuli, ticks)
    assert trace_to_json(native_trace) == trace_to_json(flat_trace)
    assert native_trace.mode_history == flat_trace.mode_history


@requires_cc
def test_native_error_paths_match_flat_exactly():
    model = _expression_heavy_model()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    batteries = [
        # ABSENT laces, huge ints, float mixes
        ({"x": Stream([1, 2, 3, 1000, ABSENT, -5, 2 ** 70, 0.5]),
          "y": Stream([4, 0, ABSENT, 2, 7, -1, 3, 2.5])}, 8),
        # division by zero in E2 (b + 1 == 0)
        ({"x": Stream([5, 5]), "y": Stream([1, -3])}, 2),
        # int64 boundary arithmetic
        ({"x": Stream([2 ** 62, -2 ** 62, 2 ** 63 - 1]),
          "y": Stream([2 ** 62, 5, 1])}, 3),
        # modulo error path: b + 7 == 0 inside the gated region
        ({"x": Stream([1, 1]), "y": Stream([-9, -9])}, 2),
    ]
    for stimuli, ticks in batteries:
        flat_trace, flat_error = _outcome(flat.run, stimuli, ticks)
        native_trace, native_error = _outcome(native.run, stimuli, ticks)
        assert native_error == flat_error
        if flat_trace is not None:
            assert trace_to_json(native_trace) == trace_to_json(flat_trace)


@requires_cc
def test_native_value_types_are_exact():
    """int stays int, bool stays bool, floats are bit-exact -- the tagged
    plane must not decay Python's numeric tower."""
    model = _expression_heavy_model()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    stimuli = {"x": Stream([4, 6, True, 0.1, 9]),
               "y": Stream([2, 4, False, 0.2, 3])}
    flat_trace = flat.run(stimuli, 5)
    native_trace = native.run(stimuli, 5)
    for port, stream in flat_trace.outputs.items():
        expected = [(type(v), v) for v in stream.values()]
        got = [(type(v), v) for v in native_trace.outputs[port].values()]
        assert got == expected, port


# -- verification gate ---------------------------------------------------------


def test_native_lowering_refuses_unverified_schedule():
    """A schedule whose ir_verify report carries errors must be refused
    with a typed error before any C is emitted."""
    model = _expression_heavy_model()
    flat = compile_flat(model)
    # doctor the program: point the gate's jump target backwards, which
    # the static verifier reports as ir-gate-structure (an error)
    doctored = []
    for op in flat.program:
        if op[0] == OP_GATE:
            op = (OP_GATE, op[1], 0)
        doctored.append(op)
    flat.program = tuple(doctored)
    with pytest.raises(NativeLoweringError) as exc_info:
        compile_native(flat)
    assert "ir_verify report" in str(exc_info.value)
    assert "not clean" in str(exc_info.value)


# -- backend table and graceful degradation ------------------------------------


def test_backend_validation_lists_sorted_backends_including_native():
    model = _expression_heavy_model()
    with pytest.raises(SimulationError) as exc_info:
        CompiledSimulator(model, backend="turbo")
    assert ("choose from ('auto', 'batch', 'flat', 'native', 'nested')"
            in str(exc_info.value))


def test_native_backend_degrades_to_flat_without_compiler(monkeypatch):
    model = _expression_heavy_model()
    monkeypatch.setenv("CC", "/nonexistent/compiler")
    monkeypatch.setenv("PATH", "/nonexistent")
    reset_toolchain_cache()
    try:
        assert not native_available()
        with pytest.warns(RuntimeWarning, match="requires a C compiler"):
            simulator = CompiledSimulator(model, backend="native")
        assert simulator.schedule.kind == "flat"
        with pytest.raises(NativeLoweringError, match="no C compiler"):
            compile_native(model)
    finally:
        reset_toolchain_cache()
    # the monkeypatched environment is restored by the fixture; make sure
    # later tests re-probe instead of seeing the poisoned cache
    monkeypatch.undo()
    reset_toolchain_cache()


# -- cache hygiene -------------------------------------------------------------


def test_cache_key_is_deterministic_and_version_prefixed():
    model = _expression_heavy_model()
    source_a = lower_program(compile_flat(model), EMITTER_VERSION).source
    source_b = lower_program(compile_flat(model), EMITTER_VERSION).source
    assert source_a == source_b
    assert cache_key(source_a, "cc") == cache_key(source_b, "cc")
    assert cache_key(source_a, "cc").startswith(f"nv{EMITTER_VERSION}-")
    assert cache_key(source_a + "\n/* x */", "cc") != cache_key(source_a,
                                                                "cc")


def test_evict_stale_drops_old_versions_and_trims(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    stale = directory / "nv0-deadbeef.so"
    stale.write_bytes(b"old")
    (directory / "nv0-deadbeef.c").write_text("/* old */")
    fresh = []
    for index in range(4):
        path = directory / f"nv{EMITTER_VERSION}-{index:040d}.so"
        path.write_bytes(b"obj")
        os.utime(path, (1000 + index, 1000 + index))
        fresh.append(path)
    removed = evict_stale(keep=2, directory=str(directory))
    assert str(stale) in removed
    assert not stale.exists()
    assert not (directory / "nv0-deadbeef.c").exists()
    survivors = sorted(p.name for p in directory.iterdir())
    # the two newest current-version entries survive
    assert survivors == [f"nv{EMITTER_VERSION}-{2:040d}.so",
                         f"nv{EMITTER_VERSION}-{3:040d}.so"]


@requires_cc
def test_compiled_object_cache_hits_on_recompile():
    from repro.simulation.native import ensure_shared_object
    model = _expression_heavy_model()
    source = lower_program(compile_flat(model), EMITTER_VERSION).source
    path_first, hit_first = ensure_shared_object(source)
    path_again, hit_again = ensure_shared_object(source)
    assert path_first == path_again
    assert not hit_first
    assert hit_again
    assert os.path.exists(path_first)


@requires_cc
def test_native_info_reports_compiler_and_cache():
    from repro.simulation.native import native_info
    info = native_info()
    assert info["available"]
    assert info["compiler"]
    assert info["emitter_version"] == EMITTER_VERSION
    assert info["cache_dir"] == os.environ["REPRO_NATIVE_CACHE"]


@requires_cc
def test_native_cli_info_runs():
    from repro.simulation.native.__main__ import main
    assert main(["--info"]) == 0
    assert main(["--evict"]) == 0


# -- fallback coverage ---------------------------------------------------------


@requires_cc
def test_trampoline_covers_nested_fallback_and_exact_escapes():
    """Atomic leaves always trampoline; huge-int arithmetic bails at run
    time; the lowered fast path never fires the trampoline on plain
    small-int traffic through expression blocks only."""
    model = _expression_heavy_model()
    native = CompiledSimulator(model, backend="native")
    schedule = native.schedule
    assert schedule.lowered.lowered_ops  # expression blocks lowered
    assert schedule.lowered.fallback_ops  # the UnitDelay run op

    before = schedule.trampoline_calls
    native.run({"x": Stream([1, 2, 3, 4]), "y": Stream([4, 3, 2, 1])}, 4)
    small_int_calls = schedule.trampoline_calls - before
    # one UnitDelay replay per tick, nothing else
    assert small_int_calls == 4

    before = schedule.trampoline_calls
    native.run({"x": Stream([2 ** 70]), "y": Stream([2 ** 70])}, 1)
    assert schedule.trampoline_calls - before > 1  # run-time bails fired


# -- toolchain fault injection -------------------------------------------------


def _fake_compiler(monkeypatch, toolchain):
    """Pretend a compiler exists without ever invoking one."""
    monkeypatch.setattr(toolchain, "find_compiler", lambda: "/usr/bin/cc")
    monkeypatch.setattr(toolchain, "compiler_banner",
                        lambda compiler: "fake cc 1.0")


def test_failed_source_write_leaves_no_partial_file_on_the_shared_path(
        monkeypatch, tmp_path):
    """A writer dying mid-write (disk full) must not leave a truncated
    ``.c`` where a racing worker's compiler could pick it up."""
    from repro.simulation.native import toolchain
    _fake_compiler(monkeypatch, toolchain)

    class _DiskFull:
        def __init__(self, path):
            self._handle = open(path, "w", encoding="utf-8")

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

        def write(self, text):
            self._handle.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(toolchain, "open",
                        lambda path, *args, **kwargs: _DiskFull(path),
                        raising=False)
    directory = tmp_path / "cache"
    with pytest.raises(NativeLoweringError,
                       match="cannot write C source .*No space left"):
        toolchain.ensure_shared_object("int x;\n", str(directory))
    assert list(directory.iterdir()) == []


def test_hung_compiler_times_out_with_typed_error(monkeypatch, tmp_path):
    import subprocess

    from repro.simulation.native import toolchain
    _fake_compiler(monkeypatch, toolchain)
    seen = {}

    def hung(command, **kwargs):
        seen["timeout"] = kwargs.get("timeout")
        raise subprocess.TimeoutExpired(command, kwargs.get("timeout"))

    monkeypatch.setattr(toolchain.subprocess, "run", hung)
    directory = tmp_path / "cache"
    with pytest.raises(NativeLoweringError,
                       match=r"C compilation timed out after \d+s"):
        toolchain.ensure_shared_object("int x;\n", str(directory))
    assert seen["timeout"] == toolchain.COMPILE_TIMEOUT_S
    assert not [name for name in os.listdir(directory)
                if name.endswith(".so") or ".tmp" in name]


@requires_cc
def test_truncated_cache_entry_is_dropped_and_rebuilt(monkeypatch):
    from repro.simulation.native import ensure_shared_object, toolchain
    model = _expression_heavy_model()
    source = lower_program(compile_flat(model), EMITTER_VERSION).source
    so_path, _hit = ensure_shared_object(source)
    with open(so_path, "r+b") as handle:
        handle.truncate(64)  # a torn entry left behind by a crashed worker
    stimuli = {"x": Stream([1, 2, 3]), "y": Stream([3, 2, 1])}
    native = CompiledSimulator(model, backend="native")
    assert native.schedule.so_path == so_path
    assert os.path.getsize(so_path) > 64
    assert trace_to_json(native.run(stimuli, 3)) == trace_to_json(
        CompiledSimulator(model, backend="flat").run(stimuli, 3))

    def unloadable(path):
        raise OSError(f"{path}: invalid ELF header")

    # an object that still cannot be loaded after the one rebuild is a
    # typed error, not a raw OSError
    monkeypatch.setattr(toolchain.ctypes, "CDLL", unloadable)
    with pytest.raises(NativeLoweringError,
                       match="cannot load native object .*invalid ELF header"):
        compile_native(model)


# -- the horizon entry point ---------------------------------------------------


def _counted_chain():
    """Gated expression chain with a delay leaf: lowered ops, a live gate
    and trampolines every tick, the shape the reentrancy test needs."""
    dfd = DataFlowDiagram("NativeThreads")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = "u"
    for index in range(8):
        block = ExpressionComponent(f"E{index}",
                                    {"out": "(a * 3 + b) % 1009"})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"E{index}.a")
        dfd.connect("u", f"E{index}.b")
        previous = f"E{index}.out"
    core = DataFlowDiagram("Core")
    core.add_input("a")
    core.add_output("out")
    tail = ExpressionComponent("T", {"out": "a * 2 - 1"})
    tail.add_input("a")
    tail.add_output("out")
    core.add_subcomponent(tail)
    core.connect("a", "T.a")
    core.connect("T.out", "out")
    gated = ClockGatedComponent(core, every(3), name="G")
    delay = UnitDelay("Z", initial=0)
    mix = ExpressionComponent("M", {"out": "a + b"})
    mix.add_input("a")
    mix.add_input("b")
    mix.add_output("out")
    dfd.add(gated, delay, mix)
    dfd.connect(previous, "G.a")
    dfd.connect(previous, "M.a")
    dfd.connect("Z.out", "M.b")
    dfd.connect("M.out", "Z.in1")
    dfd.connect("M.out", "y")
    return dfd


def _walk(seed, ticks):
    return Stream([(seed * 31 + tick * 7) % 97 - 40 for tick in range(ticks)])


@requires_cc
def test_one_native_simulator_is_reentrant_across_threads():
    """ctypes releases the GIL while C runs, so four threads sharing one
    simulator really run it concurrently; every trace must match the
    serial run of the same scenario."""
    model = _counted_chain()
    native = CompiledSimulator(model, backend="native")
    ticks = 300
    scenarios = [{"u": _walk(seed, ticks)} for seed in range(40)]
    expected = [trace_to_json(native.run(stimuli, ticks))
                for stimuli in scenarios]
    assert len(set(expected)) == len(expected)  # scenarios really differ
    mismatches = []
    errors = []

    def worker(offset):
        try:
            for round_index in range(2):
                for index in range(offset, len(scenarios), 4):
                    got = trace_to_json(native.run(scenarios[index], ticks))
                    if got != expected[index]:
                        mismatches.append((offset, round_index, index))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(offset,))
               for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches, f"{len(mismatches)} of 80 traces diverged"


def _precedence_model():
    """``y = 100 / (10 - x)`` typed ``float[0..50]`` on ``x: int[0..20]``:
    ``x = 10`` is a step error (division by zero), ``y`` above 50 an
    output type failure and ``x`` above 20 an input type failure."""
    dfd = DataFlowDiagram("Precedence")
    dfd.add_input("x", IntType(0, 20))
    dfd.add_output("y", FloatType(0.0, 50.0))
    block = ExpressionComponent("D", {"out": "100 / (10 - a)"})
    block.add_input("a")
    block.add_output("out")
    delay = UnitDelay("Z", initial=0)
    dfd.add(block, delay)
    dfd.connect("x", "D.a")
    dfd.connect("D.out", "Z.in1")
    dfd.connect("D.out", "y")
    return dfd


def _raising_at(values, tick):
    """A callable stimulus failing when asked for *tick*."""
    def stimulus(at):
        if at == tick:
            raise ValueError(f"stimulus exhausted at {at}")
        return values[at]
    return stimulus


@requires_cc
@pytest.mark.parametrize("case", ["step_before_stimulus",
                                  "output_check_before_step",
                                  "input_check_before_step",
                                  "stimulus_before_step"])
def test_first_error_in_stepped_order_wins(case):
    """The horizon runs every draw before C starts and checks outputs
    after it stops; the error raised must still be the first one
    ``run_stepped`` meets -- same type, message and tick as flat."""
    model = _precedence_model()
    base = [1, 2, 3, 4, 5, 6, 7, 8]
    if case == "step_before_stimulus":
        # division by zero at tick 3, stimulus failure at tick 6
        stimuli = {"x": _raising_at(base[:3] + [10] + base[4:], 6)}
        expected = ExpressionEvalError
    elif case == "output_check_before_step":
        # y = 100 / (10 - 9) = 100 > 50 at tick 1, division by zero at 4
        stimuli = {"x": Stream([1, 9, 2, 3, 10, 4, 5, 6])}
        expected = TypeCheckError
    elif case == "input_check_before_step":
        # x = 25 is outside int[0..20] at tick 2, before the step error at 4
        stimuli = {"x": Stream([1, 2, 25, 3, 10, 4, 5, 6])}
        expected = TypeCheckError
    else:
        # stimulus failure at tick 2 stops the run before tick 4's error
        stimuli = {"x": _raising_at([1, 2, 3, 4, 10, 5, 6, 7], 2)}
        expected = ValueError
    flat = CompiledSimulator(model, check_types=True, backend="flat")
    native = CompiledSimulator(model, check_types=True, backend="native")
    with pytest.raises(expected) as flat_error:
        flat.run(stimuli, 8)
    with pytest.raises(expected) as native_error:
        native.run(stimuli, 8)
    assert str(native_error.value) == str(flat_error.value)


@requires_cc
def test_step_error_stops_the_loop_and_reraises_the_replay_exception():
    model = _precedence_model()
    native = CompiledSimulator(model, backend="native")
    observed = []
    with pytest.raises(ExpressionEvalError) as error:
        native.schedule.run({"x": Stream([1, 10, 2])}, 3,
                            observe=observed.append)
    # the tick-end observation saw tick 0 only: tick 1 raised mid-tick
    assert len(observed) == 1
    assert "division by zero" in str(error.value)
    # the object the replay raised, not a copy: its traceback runs
    # through the generated replay function
    frames = []
    tb = error.value.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_filename)
        tb = tb.tb_next
    assert "<native replay>" in frames


def _delayed_passthrough():
    """``y`` is ``u`` through two delayed channels (two buffer planes
    cells), so values must survive buffer rolls across ticks."""
    dfd = DataFlowDiagram("DelayedCarry")
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("raw")
    first = ExpressionComponent("P", {"out": "a"})
    first.add_input("a")
    first.add_output("out")
    second = ExpressionComponent("Q", {"out": "a"})
    second.add_input("a")
    second.add_output("out")
    dfd.add(first, second)
    dfd.connect("u", "P.a")
    dfd.connect("P.out", "Q.a", delayed=True, initial_value=0)
    dfd.connect("Q.out", "y", delayed=True, initial_value=-1)
    dfd.connect("u", "raw")
    return dfd


@requires_cc
def test_objects_and_huge_ints_ride_delayed_buffers_across_ticks():
    class Gear(Enum):
        LOW = 1
        HIGH = 2

    model = _delayed_passthrough()
    values = [Gear.LOW, 2 ** 70, ABSENT, Gear.HIGH, -2 ** 65, 3, True, 0.5]
    stimuli = {"u": Stream(values)}
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    assert native.schedule.kind == "native"
    assert len(native.schedule.flat.buffer_specs) == 2

    def typed(trace):
        return {port: [(type(v), v) for v in stream.values()]
                for port, stream in trace.outputs.items()}

    native_trace = native.run(stimuli, 10)
    assert typed(native_trace) == typed(flat.run(stimuli, 10))
    assert typed(native_trace) == typed(Simulator(model).run(stimuli, 10))
    got = native_trace.outputs["y"].values()
    assert got[2] is Gear.LOW and got[5] is Gear.HIGH
    assert type(got[3]) is int and got[3] == 2 ** 70


class _Gear(Enum):
    LOW = 1
    HIGH = 2


class _Level(IntEnum):
    OFF = 0
    ON = 1


#: Input column shapes of the plane encoding: exact floats and in-range
#: ints take the bulk slice path, everything else the per-value store.
_COLUMN_SHAPES = {
    "float": [0.5, -1.25, 3.0, 1e300, -0.0, 7.0],
    "int": [0, 1, -7, 2 ** 63 - 1, -(2 ** 63), 42],
    "absent_gaps": Stream([1.5, ABSENT, 2.5, ABSENT, 4.0, 5.5]),
    "bool": [True, False, True, True, False, False],
    "enum": [_Gear.LOW, _Gear.HIGH, _Level.ON, _Level.OFF, _Gear.LOW,
             _Level.ON],
    "int_outside_int64": [2 ** 63, -(2 ** 63) - 1, 5, 2 ** 70, -3, 0],
    "mixed": [1, 2.5, True, 3, _Gear.HIGH, -4.0],
}


def _two_port_carry():
    """Two inputs, so columns interleave in the input rows; ``u`` also
    rides two delayed channels (see :func:`_delayed_passthrough`)."""
    dfd = _delayed_passthrough()
    dfd.add_input("w")
    dfd.add_output("w_raw")
    dfd.connect("w", "w_raw")
    return dfd


@requires_cc
@pytest.mark.parametrize("shape", sorted(_COLUMN_SHAPES))
def test_input_column_shapes_encode_byte_identical_to_flat(shape):
    model = _two_port_carry()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    assert native.schedule.kind == "native"
    column = _COLUMN_SHAPES[shape]
    partner = [float(tick) for tick in range(6)]

    def typed(trace):
        return {port: [(type(v), v) for v in stream.values()]
                for port, stream in sorted(trace.outputs.items())}

    for stimuli in ({"u": column}, {"u": column, "w": partner},
                    {"u": partner, "w": column}):
        got, want = native.run(stimuli, 6), flat.run(stimuli, 6)
        assert typed(got) == typed(want), (shape, sorted(stimuli))
        if shape not in ("enum", "mixed"):  # enum members are not JSON
            assert trace_to_json(got) == trace_to_json(want), shape


@requires_cc
def test_zero_ticks_and_short_stimuli_match_flat():
    model = _counted_chain()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    for stimuli, ticks in [({"u": Stream([1, 2, 3])}, 0),
                           ({}, 0),
                           ({"u": Stream([4, 5])}, 9),
                           ({"u": [6]}, 4),
                           ({}, 5)]:
        assert trace_to_json(native.run(stimuli, ticks)) == \
            trace_to_json(flat.run(stimuli, ticks)), (stimuli, ticks)


@requires_cc
def test_native_counters_count_c_entries_ticks_and_trampolines():
    model = _counted_chain()
    native = CompiledSimulator(model, backend="native")
    schedule = native.schedule
    before = schedule.trampoline_calls
    with obs.session() as telemetry:
        native.run({"u": _walk(1, 30)}, 30)
        native.run({"u": _walk(2, 12)}, 12)
    counters = telemetry.registry.counter_values("native.")
    assert counters["native.runs"] == 2
    assert counters["native.ticks"] == 42
    # the fallback ops are the unit delay and the correction barrier that
    # re-runs it, both every tick; small ints never bail
    assert len(schedule.lowered.fallback_ops) == 2
    assert counters["native.trampolines"] == 84
    assert schedule.trampoline_calls - before == 84


@requires_cc
def test_generated_object_exports_exactly_one_entry_point():
    native = CompiledSimulator(_counted_chain(), backend="native").schedule
    lines = native.lowered.source.splitlines()
    definitions = [(index, line.split("(")[0]) for index, line
                   in enumerate(lines) if line.startswith("long long ")]
    exported = [name for index, name in definitions
                if not lines[index - 1].startswith("static ")]
    assert exported == ["long long repro_run"]
    assert native._lib.repro_run  # noqa: SLF001
    with pytest.raises(AttributeError):
        native._lib.repro_tick  # noqa: SLF001, B018 - static, not exported

"""Columnar stimuli: generator columns, per-type column checks, error order.

Columns are the stimulus protocol: every generator builds its history for a
horizon in one loop (``materialize``), the engines feed each input port from
such a column and type-check it one column at a time, and plain callables
stay a per-tick stimulus.  These tests pin that the column view is exactly
the per-tick view -- values, draw sequences, call sequences, the first
failing ``(tick, port)`` and its error -- on every backend.
"""

import math
import pickle
import random
import sys
import threading

import pytest

from repro.core.components import ExpressionComponent
from repro.core.errors import TypeCheckError
from repro.core.types import (AnyType, BoolType, EnumType, FloatType, IntType,
                              check_value)
from repro.core.values import ABSENT, Stream, fit_column
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import (Constant, Dropout, EventStorm, ModeSequence,
                             OutOfRange, RandomWalk, Ramp, Scenario, SineWave,
                             SquareWave, StepChange, StuckAt, UniformNoise,
                             materialize_spec, run_sharded, sample_spec)
from repro.simulation import CompiledSimulator, Simulator, native_available

TICKS = 37


def _tenth(tick):
    """A plain (picklable) callable stimulus."""
    return tick / 10.0


def _walk():
    return RandomWalk(seed=9, start=1.0, step=0.5, low=0, high=2)


#: One factory per generator class and per nested wrapper chain, each over
#: lists, streams, scalars, plain callables and generators.
SPECS = {
    "constant": lambda: Constant(7),
    "ramp": lambda: Ramp(start=10.0, slope=2.0, low=11, high=16.0),
    "step": lambda: StepChange(at=3, before=0.0, after=5.0),
    "square": lambda: SquareWave(period=4, low=0, high=1, duty=0.25,
                                 phase=1),
    "sine": lambda: SineWave(amplitude=2.0, period=7.0, offset=1.0,
                             phase=0.5),
    "modes_hold": lambda: ModeSequence([("Off", 3), ("Idle", 5)]),
    "modes_absent": lambda: ModeSequence([("Off", 3), ("Idle", 5)],
                                         hold_last=False),
    "noise": lambda: UniformNoise(seed=4, low=-1.0, high=1.0),
    "walk_clamped": _walk,
    "walk_free": lambda: RandomWalk(seed=21, start=0.0, step=2.0),
    "storm": lambda: EventStorm(seed=3, rate=0.4, values=("a", "b", "c")),
    "storm_quiet": lambda: EventStorm(seed=8, rate=0.6, values=(1, 2),
                                      quiet=0),
    "stuck_list": lambda: StuckAt([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], value=9.0,
                                  from_tick=2, until=4),
    "stuck_callable": lambda: StuckAt(_tenth, value=-1.0, from_tick=5,
                                      until=9),
    "stuck_forever": lambda: StuckAt(_walk(), value=0.5, from_tick=30),
    "dropout_stream": lambda: Dropout(Stream([1, ABSENT, 3, 4]), seed=2,
                                      probability=0.3),
    "dropout_scalar": lambda: Dropout(4.5, seed=6, probability=0.5),
    "dropout_callable": lambda: Dropout(_tenth, seed=1, probability=0.4),
    "spike_tuple": lambda: OutOfRange((0.5, 0.25), [1, 3, 99], 1e9),
    "spike_walk": lambda: OutOfRange(_walk(), [0, 7, 36], 50.0),
    "nested": lambda: StuckAt(
        Dropout(OutOfRange(_walk(), [2, 5, 11], 99.0), seed=3,
                probability=0.3),
        value=-1.0, from_tick=4, until=9),
    "nested_callable": lambda: Dropout(
        OutOfRange(StuckAt(_tenth, value=7.0, from_tick=3, until=6),
                   [10], 1e9),
        seed=5, probability=0.2),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_materialize_equals_sampling_in_either_order(name):
    make = SPECS[name]
    sampled_first = make()
    expected = [sampled_first.sample(tick) for tick in range(TICKS)]
    assert sampled_first.materialize(TICKS) == expected

    materialized_first = make()
    assert materialized_first.materialize(TICKS) == expected
    assert [materialized_first.sample(tick)
            for tick in range(TICKS)] == expected

    # a short column, then samples beyond it, then the full column
    interleaved = make()
    assert interleaved.materialize(5) == expected[:5]
    assert interleaved.sample(TICKS - 1) == expected[-1]
    assert interleaved.materialize(TICKS) == expected
    assert interleaved.materialize(0) == []

    clone = pickle.loads(pickle.dumps(materialized_first))
    assert clone.materialize(TICKS) == expected
    assert materialize_spec(make(), TICKS) == expected

    # every column is a new list: mutating one changes no later column
    column = materialized_first.materialize(TICKS)
    column[0] = "mutated"
    column.append("appended")
    assert materialized_first.materialize(TICKS + 1)[:TICKS] == expected


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_instance_shared_by_a_threaded_batch(name):
    echo = ExpressionComponent("Echo", {"out": "in1"})
    echo.declare_interface_from_expressions()
    shared = SPECS[name]()
    expected = [SPECS[name]().sample(tick) for tick in range(TICKS)]
    batch = [Scenario(f"s{index}", {"in1": shared}, ticks=TICKS)
             for index in range(8)]
    results = run_sharded(echo, batch, executor="thread", max_workers=2)
    for result in results:
        assert result.ok, result.error
        assert result.trace.input("in1").values() == expected
        assert result.trace.output("out").values() == expected


def test_concurrent_samples_and_columns_keep_the_serial_history():
    """Eight threads (more than the host's cores) race ``sample`` against
    ``materialize`` of different lengths on one shared instance, with a
    very short switch interval; every read must be the serial history."""
    make = SPECS["nested"]
    expected = make().materialize(400)
    shared = make()
    wrong, errors = [], []

    def reader(offset):
        try:
            for round_index in range(40):
                ticks = (offset * 37 + round_index * 11) % 400 + 1
                if (offset + round_index) % 2:
                    got = shared.materialize(ticks)
                else:
                    got = [shared.sample(tick) for tick in range(ticks)]
                if got != expected[:ticks]:
                    wrong.append((offset, round_index))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(offset,))
               for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong


@pytest.mark.parametrize("spec", [
    [1, 2], (1, 2), Stream([1, ABSENT, 3]), [], 3.5, "Idle", _tenth,
    _walk(), StuckAt([1, 2, 3], value=0, from_tick=1)],
    ids=["list", "tuple", "stream", "empty", "scalar", "string", "callable",
         "generator", "wrapper"])
def test_materialize_spec_is_the_column_of_sample_spec(spec):
    for ticks in (0, 1, 2, 6):
        assert materialize_spec(spec, ticks) \
            == [sample_spec(spec, tick) for tick in range(ticks)]


def test_fit_column_cuts_or_pads_into_a_new_list():
    values = [1, 2, 3]
    assert fit_column(values, 2) == [1, 2]
    padded = fit_column(values, 5)
    assert padded == [1, 2, 3, ABSENT, ABSENT]
    padded[0] = 99
    assert values == [1, 2, 3]
    assert fit_column(Stream([4, ABSENT]), 3) == [4, ABSENT, ABSENT]


def test_seeded_columns_replay_the_per_tick_draws():
    """The column loops keep the per-tick draw definitions bit for bit:
    ``rng.uniform`` per walk step and noise value, two draws per storm
    tick, one per dropout tick."""
    rng = random.Random(9)
    value, walk = 1.0, []
    for _ in range(60):
        value = min(2, max(0, value + rng.uniform(-0.5, 0.5)))
        walk.append(value)
    assert _walk().materialize(60) == walk

    rng = random.Random(4)
    assert UniformNoise(seed=4, low=-1.0, high=1.0).materialize(60) \
        == [rng.uniform(-1.0, 1.0) for _ in range(60)]

    rng, storm = random.Random(3), []
    for _ in range(60):
        present = rng.random() < 0.4
        index = rng.randrange(3)
        storm.append(("a", "b", "c")[index] if present else ABSENT)
    assert SPECS["storm"]().materialize(60) == storm

    rng = random.Random(5)
    dropped = [rng.random() < 0.3 for _ in range(60)]
    inner = [float(tick) for tick in range(60)]
    assert Dropout(inner, seed=5, probability=0.3).materialize(60) \
        == [ABSENT if drop else value for drop, value in zip(dropped, inner)]


def test_injectors_call_a_plain_callable_only_where_sampling_does():
    calls = []

    def sensor(tick):
        calls.append(tick)
        return float(tick)

    stuck = StuckAt(sensor, value=-1.0, from_tick=2, until=5)
    assert stuck.materialize(8) == [0.0, 1.0, -1.0, -1.0, -1.0, 5.0, 6.0,
                                    7.0]
    assert calls == [0, 1, 5, 6, 7]
    del calls[:]
    nested = OutOfRange(StuckAt(sensor, value=0.0, from_tick=0, until=3),
                        [4], 1e9)
    assert nested.materialize(6) == [0.0, 0.0, 0.0, 3.0, 1e9, 5.0]
    assert calls == [3, 5]


# -- per-type column checks ---------------------------------------------------

_VALUES = [0.0, 5.5, 10.0, 10.5, -0.1, -1.5, 2.5, float("nan"), math.inf,
           -math.inf, 3, True, 10 ** 400, "a", "z", ABSENT, None]


@pytest.mark.parametrize("port_type", [
    FloatType(), FloatType(0.0, 10.0), FloatType(0, 10), FloatType(low=-1.5),
    FloatType(high=float("nan")), IntType(0, 5), BoolType(),
    EnumType("E", ["a", "b"]), AnyType()], ids=repr)
def test_first_rejected_is_the_first_value_check_value_rejects(port_type):
    rng = random.Random(repr(port_type))
    floats = [value for value in _VALUES if type(value) is float]
    columns = [[rng.choice(_VALUES) for _ in range(rng.randrange(13))]
               for _ in range(300)]
    columns += [[rng.choice(floats) for _ in range(rng.randrange(1, 13))]
                for _ in range(300)]
    columns += [[rng.uniform(0.0, 10.0) for _ in range(20)],
                [ABSENT, 1.0, ABSENT], [ABSENT] * 4, []]
    for column in columns:
        expected = len(column)
        for tick, value in enumerate(column):
            try:
                check_value(value, port_type)
            except Exception:  # noqa: BLE001 - the reference rejection
                expected = tick
                break
        assert port_type.first_rejected(column) == expected, column


# -- the first failing (tick, port) on every backend -------------------------

_BACKENDS = ["flat", "auto"] + (["native"] if native_available() else [])


def _sum_model(first="a", second="b"):
    """``y = a + b`` with ``a, b: float[0..10]`` and ``y: float[0..15]``,
    the inputs declared in the order *first*, *second*."""
    dfd = DataFlowDiagram("Sum")
    for name in (first, second):
        dfd.add_input(name, FloatType(0.0, 10.0))
    dfd.add_output("y", FloatType(0.0, 15.0))
    block = ExpressionComponent("S", {"out": "u + v"})
    block.add_input("u")
    block.add_input("v")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("a", "S.u")
    dfd.connect("b", "S.v")
    dfd.connect("S.out", "y")
    return dfd


def _values(**failures):
    """Eight in-range ticks with the given ``tick=value`` overrides."""
    column = [1.0] * 8
    for tick, value in failures.items():
        column[int(tick[1:])] = value
    return column


def _logging(values, raise_at=None):
    """A plain callable stimulus recording the ticks it is asked for."""
    calls = []

    def stimulus(tick):
        calls.append(tick)
        if tick == raise_at:
            raise ValueError(f"sensor lost at tick {tick}")
        return values[tick]
    return stimulus, calls


def _spiking_walk(tick):
    """A generator port failing its input check (only) at *tick*."""
    return OutOfRange(RandomWalk(seed=4, start=5.0, step=0.5, low=0.0,
                                 high=10.0), [tick], 50.0)


#: case -> (input order, stimuli factory); a factory returns the stimuli
#: and the call log of its plain callable (or None).
ORDER_CASES = {
    # b fails at tick 3 before a at tick 5, although b is the later port
    "later_port_earlier_tick": (("a", "b"), lambda: (
        {"a": _values(t5=11.0), "b": Stream(_values(t3=12.0))}, None)),
    # both fail at tick 4: the port first in input order wins
    "same_tick": (("b", "a"), lambda: (
        {"a": _values(t4=11.0), "b": _values(t4=-1.0)}, None)),
    # y = 18 > 15 at tick 2 beats the deferred input failure at tick 5
    "output_before_input": (("a", "b"), lambda: (
        {"a": _values(t2=9.0, t5=11.0), "b": _values(t2=9.0)}, None)),
    # the input failure at tick 2 stops the run before y fails at tick 3
    "input_before_output": (("a", "b"), lambda: (
        {"a": _values(t2=11.0, t3=9.0), "b": _values(t3=9.0)}, None)),
}


def _callable_after_generator(first):
    def make():
        stimulus, calls = _logging(_values(), raise_at=6)
        return {"a": _spiking_walk(3), "b": stimulus}, calls
    return (first, "b" if first == "a" else "a"), make


def _callable_before_generator():
    stimulus, calls = _logging(_values(), raise_at=2)
    return {"a": _spiking_walk(5), "b": stimulus}, calls


# a plain callable raising at tick 6 beside a generator port failing at 3:
# the callable is asked for ticks up to 3 only, through the failing port
ORDER_CASES["callable_after_generator"] = _callable_after_generator("a")
ORDER_CASES["callable_first_after_generator"] = _callable_after_generator("b")
ORDER_CASES["callable_before_generator"] = (("a", "b"),
                                            _callable_before_generator)


def _outcome(simulator, make):
    stimuli, calls = make()
    with pytest.raises(Exception) as error:
        simulator.run(stimuli, 8)
    return type(error.value), str(error.value), calls


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_first_failure_matches_the_interpreter(case, backend):
    order, make = ORDER_CASES[case]
    model = _sum_model(*order)
    expected = _outcome(Simulator(model, check_types=True), make)
    simulator = CompiledSimulator(model, check_types=True, backend=backend)
    for _ in range(3):  # later runs of a tiered simulator included
        assert _outcome(simulator, make) == expected
    assert expected[0] in (TypeCheckError, ValueError)


@pytest.mark.parametrize("backend", ["interpreter", "flat", "native",
                                     "auto"])
def test_a_huge_int_input_fails_its_type_check_not_float(backend):
    """An int beyond any double, fed to a ``float[0..10]`` port, is
    rejected with the interpreter's TypeCheckError naming port and tick
    (``float()`` of it would raise OverflowError), on every engine."""
    if backend in ("native", "auto") and not native_available():
        pytest.skip(f"backend={backend!r} needs a C compiler to lower")
    model = _sum_model()
    if backend == "interpreter":
        simulator = Simulator(model, check_types=True)
    else:
        simulator = CompiledSimulator(model, check_types=True,
                                      backend=backend)
        if backend == "auto":
            simulator._promote_now(force=True)
    with pytest.raises(TypeCheckError) as error:
        simulator.run({"a": _values(t3=10 ** 400), "b": _values()}, 8)
    assert str(error.value).endswith(" on Sum.a@t3")
    if backend == "auto":
        assert simulator._native is not None


@pytest.mark.parametrize("case, asked", [
    ("callable_after_generator", [0, 1, 2]),
    ("callable_first_after_generator", [0, 1, 2, 3]),
    ("callable_before_generator", [0, 1, 2])])
def test_callables_are_drawn_tick_major_up_to_the_first_failure(case, asked):
    order, make = ORDER_CASES[case]
    model = _sum_model(*order)
    for simulator in (Simulator(model, check_types=True),
                      CompiledSimulator(model, check_types=True,
                                        backend="flat")):
        assert _outcome(simulator, make)[2] == asked


# -- trace columns own their values ------------------------------------------

@pytest.mark.parametrize("backend", ["interpreter"] + _BACKENDS)
@pytest.mark.parametrize("make", [_walk, lambda: Dropout(_walk(), seed=2),
                                  lambda: [0.5, 1.5, 2.5],
                                  lambda: Stream([0.5, ABSENT, 2.5])],
                         ids=["walk", "dropout", "list", "stream"])
def test_mutating_a_trace_input_changes_no_later_run(backend, make):
    echo = ExpressionComponent("Echo", {"out": "in1"})
    echo.declare_interface_from_expressions()
    simulator = (Simulator(echo) if backend == "interpreter"
                 else CompiledSimulator(echo, backend=backend))
    spec = make()
    expected = materialize_spec(make(), 30)
    first = simulator.run({"in1": spec}, ticks=20)
    column = first.inputs["in1"]
    column._values[0] = "mutated"  # noqa: SLF001 - the adopted list
    column.append("appended")
    later = simulator.run({"in1": spec}, ticks=30)
    assert later.input("in1").values() == expected
    assert materialize_spec(spec, 30) == expected

"""Composable, deterministically-seeded stimulus generators.

The FAA/FDA validation story of the paper rests on exercising a functional
concept against *many* stimulus histories (Sec. 3.1).  Hand-writing per-tick
value lists does not scale to the scenario batteries that automated
validation needs, so this module provides a small DSL of stimulus
generators that

* plug directly into both simulation engines -- every generator is a valid
  :data:`~repro.simulation.engine.StimulusSpec`.  Columns are the
  protocol: :meth:`StimulusGenerator.materialize` builds a generator's
  whole history for a horizon in one loop, and the engines feed each
  input port from such a column
  (:func:`~repro.simulation.engine.prepare_feeds`).  ``sample(tick)`` (and
  calling the generator) is the per-tick view of the same history,
* are **deterministic**: randomized generators draw from one
  ``random.Random(seed)`` stream with a fixed number of draws per tick, so
  the same generator always produces the same history -- re-runs,
  differential checks against the reference engine and sharded parallel
  execution all see identical stimuli, whether a history is sampled or
  materialized first,
* are **picklable**: transient caches are dropped on pickling and rebuilt
  from the seed, which is what lets the sharded runner ship scenario
  batches to worker processes (pickle the spec, not the values),
* **compose**: fault injectors (stuck-at, dropout, out-of-range) wrap any
  other stimulus specification, including plain lists and scalars, and
  build their column from the inner one (:func:`materialize_spec`).  A
  plain callable -- no generator -- stays a per-tick stimulus: it is
  called tick by tick, and only at the ticks its injectors let through.

Scenario batteries are assembled from :class:`Scenario` records; the
:func:`scenario_grid` and :func:`mode_sequence_sweep` helpers expand
cartesian parameter grids and mode-sequence sweeps into such batteries.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.values import ABSENT, Stream, fit_column


def _window_bound(label: str, value: Any) -> int:
    """Validate one fault-injector window bound: a non-negative integer.

    Injector windows that never fire (negative ticks, float bounds that
    never equal an integer tick) would silently turn the injector into a
    no-op; the coverage-search mutators rely on injector windows actually
    firing, so malformed bounds are rejected at construction time.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise SimulationError(
            f"fault-injector {label} must be an integer tick, "
            f"got {value!r}")
    if value < 0:
        raise SimulationError(
            f"fault-injector {label} must be >= 0, got {value!r}")
    return value


def sample_spec(spec: Any, tick: int) -> Any:
    """Sample any stimulus specification at one tick.

    Mirrors the per-tick semantics of
    :func:`~repro.simulation.engine.normalize_stimulus`: streams and
    sequences are indexed (absent beyond their end), callables are applied,
    scalars are constant.  Fault injectors use this to wrap arbitrary inner
    specifications.
    """
    if isinstance(spec, Stream):
        return spec[tick] if 0 <= tick < len(spec) else ABSENT
    if isinstance(spec, (list, tuple)):
        return spec[tick] if 0 <= tick < len(spec) else ABSENT
    if callable(spec):
        return spec(tick)
    return spec


def materialize_spec(spec: Any, ticks: int) -> List[Any]:
    """The column of any stimulus specification over ``0 .. ticks-1``.

    The column view of :func:`sample_spec` -- ``materialize_spec(spec, n)
    == [sample_spec(spec, t) for t in range(n)]`` -- and always a new
    list: streams and sequences are cut or padded with absence,
    generators build their column in one loop, plain callables are called
    tick by tick and scalars are repeated.
    """
    if isinstance(spec, (Stream, list, tuple)):
        return fit_column(spec, ticks)
    if isinstance(spec, StimulusGenerator):
        return spec.materialize(ticks)
    if callable(spec):
        return [spec(tick) for tick in range(ticks)]
    return [spec] * ticks


def _columnar(spec: Any) -> bool:
    """Whether a fault injector may build its column from *spec*'s.

    Not when a plain callable is at the bottom of the injector chain: the
    column would call it at ticks that :meth:`~StimulusGenerator.sample`
    never asks for (inside a stuck-at window, at a dropped tick), so such
    an injector samples tick by tick.
    """
    while isinstance(spec, (StuckAt, Dropout, OutOfRange)):
        spec = spec.inner
    return isinstance(spec, StimulusGenerator) or not callable(spec)


class StimulusGenerator:
    """Base class of the generator DSL.

    A generator is a deterministic map ``tick -> value``.  Sub-classes
    implement :meth:`sample`; :meth:`materialize`, which is all the
    engines call, builds the column from it in one loop.  Generators whose
    ``sample`` is not a cheap formula override it: seeded ones read their
    draw cache, mode sequences expand their segments, and fault injectors
    transform their inner column.
    """

    def sample(self, tick: int) -> Any:
        raise NotImplementedError

    def __call__(self, tick: int) -> Any:
        return self.sample(tick)

    def materialize(self, ticks: int) -> List[Any]:
        """The explicit per-tick history over ``0 .. ticks-1``: a new list
        of *ticks* values, equal to sampling every tick."""
        return [self.sample(tick) for tick in range(ticks)]

    def __repr__(self) -> str:
        public = {key: value for key, value in vars(self).items()
                  if not key.startswith("_")}
        args = ", ".join(f"{key}={value!r}" for key, value in public.items())
        return f"{type(self).__name__}({args})"


class SeededGenerator(StimulusGenerator):
    """A generator drawing from one seeded pseudo-random stream.

    Draws happen in tick order with a *fixed* number of draws per tick
    (sub-classes guarantee this in :meth:`_draws`), and every drawn tick is
    cached, so querying any tick twice -- or re-running the generator after
    a pickle round-trip -- yields identical values, and :meth:`sample` and
    :meth:`materialize` read the same history in either order.  Cache
    extension is locked: one generator instance may be shared by many
    scenarios of a thread-sharded batch (e.g. via the ``base`` stimuli of a
    scenario grid), and concurrent extension would otherwise interleave
    draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._reset()

    def _reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._cache: List[Any] = []
        self._lock = threading.Lock()

    def _draws(self, rng: random.Random, count: int) -> List[Any]:
        """Draw the values of the next *count* ticks, in tick order, with
        the same fixed number of draws per tick."""
        raise NotImplementedError

    def _drawn(self, ticks: int) -> List[Any]:
        """The cache itself, drawn through at least tick ``ticks - 1``."""
        cache = self._cache
        if len(cache) < ticks:
            with self._lock:
                if len(cache) < ticks:
                    cache.extend(self._draws(self._rng, ticks - len(cache)))
        return cache

    def sample(self, tick: int) -> Any:
        if tick < 0:
            raise SimulationError("stimulus generators are defined for ticks >= 0")
        return self._drawn(tick + 1)[tick]

    def materialize(self, ticks: int) -> List[Any]:
        return self._drawn(ticks)[:ticks]

    # transient RNG/cache state is rebuilt from the seed after unpickling,
    # so a shipped generator replays exactly the same history
    def __getstate__(self) -> Dict[str, Any]:
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset()


# --------------------------------------------------------------------------
# deterministic waveform generators
# --------------------------------------------------------------------------

class Constant(StimulusGenerator):
    """The same value at every tick (useful as a wrappable inner spec)."""

    def __init__(self, value: Any):
        self.value = value

    def sample(self, tick: int) -> Any:
        return self.value


class Ramp(StimulusGenerator):
    """``start + slope * tick``, optionally clamped to ``[low, high]``."""

    def __init__(self, start: float = 0.0, slope: float = 1.0,
                 low: Optional[float] = None, high: Optional[float] = None):
        self.start = start
        self.slope = slope
        self.low = low
        self.high = high

    def sample(self, tick: int) -> Any:
        value = self.start + self.slope * tick
        if self.low is not None:
            value = max(self.low, value)
        if self.high is not None:
            value = min(self.high, value)
        return value


class StepChange(StimulusGenerator):
    """*before* until ``at`` (exclusive), *after* from then on."""

    def __init__(self, at: int, before: Any = 0.0, after: Any = 1.0):
        self.at = at
        self.before = before
        self.after = after

    def sample(self, tick: int) -> Any:
        return self.after if tick >= self.at else self.before


class SquareWave(StimulusGenerator):
    """A square wave with the given period, levels and duty cycle."""

    def __init__(self, period: int, low: Any = 0.0, high: Any = 1.0,
                 duty: float = 0.5, phase: int = 0):
        if period < 1:
            raise SimulationError("square wave period must be >= 1")
        if not 0.0 <= duty <= 1.0:
            raise SimulationError("square wave duty cycle must be in [0, 1]")
        self.period = period
        self.low = low
        self.high = high
        self.duty = duty
        self.phase = phase

    def sample(self, tick: int) -> Any:
        position = (tick + self.phase) % self.period
        return self.high if position < self.duty * self.period else self.low


class SineWave(StimulusGenerator):
    """``offset + amplitude * sin(2*pi*(tick + phase) / period)``."""

    def __init__(self, amplitude: float = 1.0, period: float = 20.0,
                 offset: float = 0.0, phase: float = 0.0):
        if period <= 0:
            raise SimulationError("sine wave period must be positive")
        self.amplitude = amplitude
        self.period = period
        self.offset = offset
        self.phase = phase

    def sample(self, tick: int) -> Any:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * (tick + self.phase) / self.period)


class ModeSequence(StimulusGenerator):
    """A piecewise-constant value history from ``(value, duration)`` segments.

    This is the mode-sequence stimulus of operational-mode validation: drive
    an input through a scripted sequence of phases (e.g. ``Off``, then
    ``Cranking`` for 10 ticks, then ``Idle``).  After the last segment the
    final value is held (``hold_last=True``) or the signal goes absent.
    """

    def __init__(self, segments: Sequence[Tuple[Any, int]],
                 hold_last: bool = True):
        if not segments:
            raise SimulationError("a mode sequence needs at least one segment")
        for value, duration in segments:
            if int(duration) < 1:
                raise SimulationError(
                    f"mode-sequence segment ({value!r}, {duration!r}) must "
                    "last at least one tick")
        self.segments = [(value, int(duration)) for value, duration in segments]
        self.hold_last = hold_last

    def sample(self, tick: int) -> Any:
        position = tick
        for value, duration in self.segments:
            if position < duration:
                return value
            position -= duration
        return self.segments[-1][0] if self.hold_last else ABSENT

    def materialize(self, ticks: int) -> List[Any]:
        column: List[Any] = []
        for value, duration in self.segments:
            if len(column) >= ticks:
                break
            column.extend([value] * duration)
        tail = self.segments[-1][0] if self.hold_last else ABSENT
        column.extend([tail] * (ticks - len(column)))
        del column[ticks:]
        return column

    def total_ticks(self) -> int:
        """The combined duration of all segments."""
        return sum(duration for _, duration in self.segments)


# --------------------------------------------------------------------------
# seeded random generators
# --------------------------------------------------------------------------

class UniformNoise(SeededGenerator):
    """Independent per-tick draws from ``uniform(low, high)``."""

    def __init__(self, seed: int, low: float = 0.0, high: float = 1.0):
        self.low = low
        self.high = high
        super().__init__(seed)

    def _draws(self, rng: random.Random, count: int) -> List[Any]:
        return [rng.uniform(self.low, self.high) for _ in range(count)]


class RandomWalk(SeededGenerator):
    """A seeded random walk with bounded step size and optional clamping."""

    def __init__(self, seed: int, start: float = 0.0, step: float = 1.0,
                 low: Optional[float] = None, high: Optional[float] = None):
        self.start = start
        self.step = step
        self.low = low
        self.high = high
        super().__init__(seed)

    def _reset(self) -> None:
        super()._reset()
        self._value = self.start

    def _draws(self, rng: random.Random, count: int) -> List[Any]:
        # each step is rng.uniform(-step, step), i.e. -step + 2step * random;
        # the clamps are max(low, value) and min(high, value) spelled out
        low, high, random_ = self.low, self.high, rng.random
        first = -self.step
        width = self.step - first
        value = self._value
        column: List[Any] = []
        append = column.append
        for _ in range(count):
            value = value + (first + width * random_())
            if low is not None and not value > low:
                value = low
            if high is not None and not value < high:
                value = high
            append(value)
        self._value = value
        return column


class EventStorm(SeededGenerator):
    """A sporadic event stream: each tick carries an event with probability
    ``rate``, drawn uniformly from ``values``; other ticks carry ``quiet``
    (by default the absence value, i.e. no message at all).

    With ``rate`` close to 1 this is the "event storm" stress stimulus for
    event-triggered clusters and mode logic.
    """

    def __init__(self, seed: int, rate: float = 0.5,
                 values: Sequence[Any] = (True,), quiet: Any = ABSENT):
        if not 0.0 <= rate <= 1.0:
            raise SimulationError("event rate must be in [0, 1]")
        if not values:
            raise SimulationError("an event storm needs a non-empty value pool")
        self.rate = rate
        self.values = tuple(values)
        self.quiet = quiet
        super().__init__(seed)

    def _draws(self, rng: random.Random, count: int) -> List[Any]:
        column: List[Any] = []
        for _ in range(count):
            # always consume exactly two draws per tick so the stream
            # stays aligned
            present = rng.random() < self.rate
            index = rng.randrange(len(self.values))
            column.append(self.values[index] if present else self.quiet)
        return column


# --------------------------------------------------------------------------
# fault injectors (wrap any stimulus specification)
# --------------------------------------------------------------------------

class StuckAt(StimulusGenerator):
    """Sensor stuck-at fault: *value* inside ``[from_tick, until)``, the
    wrapped specification everywhere else."""

    def __init__(self, inner: Any, value: Any, from_tick: int = 0,
                 until: Optional[int] = None):
        self.inner = inner
        self.value = value
        self.from_tick = _window_bound("from_tick", from_tick)
        if until is not None:
            _window_bound("until", until)
            if until <= from_tick:
                raise SimulationError(
                    f"stuck-at window [{from_tick}, {until}) is empty: "
                    "until must be greater than from_tick")
        self.until = until

    def sample(self, tick: int) -> Any:
        if tick >= self.from_tick and (self.until is None or tick < self.until):
            return self.value
        return sample_spec(self.inner, tick)

    def materialize(self, ticks: int) -> List[Any]:
        if not _columnar(self.inner):
            return super().materialize(ticks)
        column = materialize_spec(self.inner, ticks)
        stop = ticks if self.until is None else min(self.until, ticks)
        start = min(self.from_tick, stop)
        column[start:stop] = [self.value] * (stop - start)
        return column


class Dropout(SeededGenerator):
    """Message-loss fault: each tick of the wrapped specification is
    dropped (absent) with probability ``probability``."""

    def __init__(self, inner: Any, seed: int, probability: float = 0.1):
        if not 0.0 <= probability <= 1.0:
            raise SimulationError("dropout probability must be in [0, 1]")
        self.inner = inner
        self.probability = probability
        super().__init__(seed)

    def _draws(self, rng: random.Random, count: int) -> List[Any]:
        random_, probability = rng.random, self.probability
        return [random_() < probability for _ in range(count)]

    def sample(self, tick: int) -> Any:
        dropped = super().sample(tick)
        return ABSENT if dropped else sample_spec(self.inner, tick)

    def materialize(self, ticks: int) -> List[Any]:
        if not _columnar(self.inner):
            return StimulusGenerator.materialize(self, ticks)
        dropped = self._drawn(ticks)
        return [ABSENT if drop else value
                for drop, value in zip(dropped,
                                       materialize_spec(self.inner, ticks))]


class OutOfRange(StimulusGenerator):
    """Out-of-range spikes: *value* at the listed ticks, the wrapped
    specification everywhere else."""

    def __init__(self, inner: Any, at_ticks: Sequence[int], value: Any):
        self.inner = inner
        ticks = list(at_ticks)
        if not ticks:
            raise SimulationError(
                "an out-of-range injector needs at least one spike tick "
                "(an empty at_ticks list would be a silent no-op)")
        self.at_ticks = frozenset(_window_bound("at_ticks entry", tick)
                                  for tick in ticks)
        self.value = value

    def sample(self, tick: int) -> Any:
        if tick in self.at_ticks:
            return self.value
        return sample_spec(self.inner, tick)

    def materialize(self, ticks: int) -> List[Any]:
        if not _columnar(self.inner):
            return super().materialize(ticks)
        column = materialize_spec(self.inner, ticks)
        for tick in self.at_ticks:
            if tick < ticks:
                column[tick] = self.value
        return column


# --------------------------------------------------------------------------
# scenarios and batch expansion helpers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One named stimulus set: the unit of batch scenario execution."""

    name: str
    stimuli: Mapping[str, Any] = field(default_factory=dict)
    ticks: int = 10

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("a scenario needs a non-empty name")
        if not isinstance(self.ticks, int) or isinstance(self.ticks, bool) \
                or self.ticks <= 0:
            raise SimulationError(
                f"scenario {self.name!r} must run for a positive integer "
                f"number of ticks, got {self.ticks!r}")


def _value_label(value: Any) -> str:
    if isinstance(value, StimulusGenerator):
        return repr(value) if len(repr(value)) <= 32 else type(value).__name__
    if isinstance(value, (int, float, bool, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{len(value)}]"
    return type(value).__name__


def scenario_grid(name: str, grid: Mapping[str, Sequence[Any]], ticks: int,
                  base: Optional[Mapping[str, Any]] = None) -> List[Scenario]:
    """Expand a cartesian parameter grid into a scenario battery.

    ``grid`` maps input-port names to candidate stimulus specifications; one
    scenario is produced per combination (in deterministic insertion order),
    layered over the shared ``base`` stimuli.  Scenario names embed the
    combination so failures in a batch report are self-describing.
    """
    if not grid:
        raise SimulationError("a scenario grid needs at least one axis")
    axes = list(grid)
    pools = [list(grid[axis]) for axis in axes]
    for axis, pool in zip(axes, pools):
        if not pool:
            raise SimulationError(f"scenario grid axis {axis!r} is empty")
    scenarios: List[Scenario] = []
    seen: Dict[str, int] = {}
    for combination in itertools.product(*pools):
        label = ",".join(f"{axis}={_value_label(value)}"
                         for axis, value in zip(axes, combination))
        scenario_name = f"{name}[{label}]"
        if scenario_name in seen:
            seen[scenario_name] += 1
            scenario_name = f"{scenario_name}@{seen[scenario_name]}"
        else:
            seen[scenario_name] = 0
        stimuli = dict(base or {})
        stimuli.update(zip(axes, combination))
        scenarios.append(Scenario(scenario_name, stimuli, ticks))
    return scenarios


def mode_sequence_sweep(name: str, port: str,
                        sequences: Sequence[Sequence[Any]], dwell: int,
                        ticks: int,
                        base: Optional[Mapping[str, Any]] = None
                        ) -> List[Scenario]:
    """One scenario per value sequence, driving *port* through the sequence
    with *dwell* ticks per value (the mode-sequence sweep of operational-mode
    validation)."""
    if dwell < 1:
        raise SimulationError("mode-sequence dwell time must be >= 1 tick")
    scenarios = []
    for index, sequence in enumerate(sequences):
        stimuli = dict(base or {})
        stimuli[port] = ModeSequence([(value, dwell) for value in sequence])
        label = "-".join(str(value) for value in sequence)
        scenarios.append(Scenario(f"{name}[{index}:{label}]", stimuli, ticks))
    return scenarios

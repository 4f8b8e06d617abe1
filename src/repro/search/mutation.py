"""Typed mutation and crossover operators over scenario stimuli.

The search explores the stimulus space through the *generator parameter
space*, not raw value lists: every operator inspects the concrete
:class:`~repro.scenarios.generators.StimulusGenerator` type it is handed
and produces a new, structurally valid generator of the same family
(perturbed :class:`Ramp` slopes, rescaled :class:`SquareWave` periods,
spliced :class:`ModeSequence` segments, re-seeded
:class:`SeededGenerator` streams, toggled fault injectors) or retargets the
port with a fresh guard-vocabulary mode sequence.

Every draw comes from one explicit ``random.Random`` handed in by the
caller, so a search run is a pure function of its seed: the same seed
produces byte-identical mutation decisions, scenario names and stimuli
reprs on every host and executor.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.mode_analysis import guard_vocabulary
from ..core.components import Component
from ..core.errors import SimulationError
from ..core.values import ABSENT
from ..scenarios.generators import (Constant, Dropout, ModeSequence,
                                    OutOfRange, Ramp, Scenario,
                                    SeededGenerator, SineWave, SquareWave,
                                    StepChange, StuckAt, materialize_spec)

#: Seed space for re-seeding operators (well inside C-long range so pickled
#: generators behave identically everywhere).
_SEED_SPACE = 1 << 30

#: Fallback value pool for ports no guard ever mentions.
_DEFAULT_POOL: Tuple[Any, ...] = (0.0, 1.0)


@dataclass
class MutationContext:
    """Shared knowledge the operators mutate against.

    ``value_pools`` maps input-port names to interesting stimulus values --
    typically the guard boundary vocabulary of the model
    (:func:`repro.analysis.mode_analysis.guard_vocabulary`), which is what
    steers mutations toward untaken guard outcomes.  ``max_ticks`` caps
    horizon extension so mutated scenarios stay cheap to evaluate.
    """

    value_pools: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    default_ticks: int = 40
    max_ticks: int = 240

    @classmethod
    def for_component(cls, component: Component, default_ticks: int = 40,
                      max_ticks: int = 240) -> "MutationContext":
        return cls(value_pools=guard_vocabulary(component),
                   default_ticks=default_ticks, max_ticks=max_ticks)

    def pool(self, port: str) -> List[Any]:
        values = list(self.value_pools.get(port, ()))
        return values if values else list(_DEFAULT_POOL)


class Mutator:
    """One typed stimulus operator: test applicability, then rewrite."""

    name = "mutator"

    def applies(self, spec: Any) -> bool:
        raise NotImplementedError

    def mutate(self, spec: Any, rng: random.Random, context: MutationContext,
               port: str) -> Any:
        raise NotImplementedError


class PerturbRamp(Mutator):
    """Scale a ramp's slope and re-anchor its start in the value pool."""

    name = "perturb-ramp"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, Ramp)

    def mutate(self, spec: Ramp, rng: random.Random,
               context: MutationContext, port: str) -> Ramp:
        factor = rng.choice((-2.0, -0.5, 0.25, 0.5, 2.0, 4.0))
        start = spec.start
        if rng.random() < 0.5:
            anchor = rng.choice(context.pool(port))
            if isinstance(anchor, (int, float)) \
                    and not isinstance(anchor, bool):
                start = float(anchor)
        slope = spec.slope * factor if spec.slope else factor
        return Ramp(start=start, slope=slope, low=spec.low, high=spec.high)


class PerturbSquareWave(Mutator):
    """Rescale a square wave's period and jitter its duty cycle/phase."""

    name = "perturb-square-wave"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, SquareWave)

    def mutate(self, spec: SquareWave, rng: random.Random,
               context: MutationContext, port: str) -> SquareWave:
        period = max(1, int(spec.period * rng.choice((0.5, 2.0, 3.0))))
        duty = min(1.0, max(0.0, spec.duty + rng.choice((-0.25, 0.0, 0.25))))
        phase = rng.randrange(period)
        return SquareWave(period=period, low=spec.low, high=spec.high,
                          duty=duty, phase=phase)


class PerturbStepChange(Mutator):
    """Move a step change's switch tick and re-draw its levels."""

    name = "perturb-step"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, StepChange)

    def mutate(self, spec: StepChange, rng: random.Random,
               context: MutationContext, port: str) -> StepChange:
        pool = context.pool(port)
        at = rng.randrange(max(2, context.default_ticks))
        before = spec.before if rng.random() < 0.5 else rng.choice(pool)
        after = spec.after if rng.random() < 0.5 else rng.choice(pool)
        return StepChange(at=at, before=before, after=after)


class PerturbModeSequence(Mutator):
    """Re-time, re-value, extend, shrink or shuffle a mode sequence."""

    name = "perturb-mode-sequence"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, ModeSequence)

    def mutate(self, spec: ModeSequence, rng: random.Random,
               context: MutationContext, port: str) -> ModeSequence:
        segments = list(spec.segments)
        pool = context.pool(port)
        operation = rng.choice(("retime", "revalue", "append", "drop",
                                "swap"))
        index = rng.randrange(len(segments))
        if operation == "retime":
            value, _ = segments[index]
            segments[index] = (value, rng.randint(1, 8))
        elif operation == "revalue":
            _, duration = segments[index]
            segments[index] = (rng.choice(pool), duration)
        elif operation == "append":
            segments.append((rng.choice(pool), rng.randint(1, 8)))
        elif operation == "drop" and len(segments) > 1:
            segments.pop(index)
        else:  # swap (or drop on a single-segment sequence)
            other = rng.randrange(len(segments))
            segments[index], segments[other] = (segments[other],
                                                segments[index])
        return ModeSequence(segments, hold_last=spec.hold_last)


class ReseedGenerator(Mutator):
    """Re-seed any seeded generator, keeping all other parameters.

    The clone copies the generator's public parameters (including wrapped
    inner specifications) and rebuilds the RNG stream from the new seed, so
    the result is the same *kind* of stimulus exploring a different sample
    path.
    """

    name = "reseed"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, SeededGenerator)

    def mutate(self, spec: SeededGenerator, rng: random.Random,
               context: MutationContext, port: str) -> SeededGenerator:
        clone = copy.copy(spec)
        clone.seed = rng.randrange(_SEED_SPACE)
        clone._reset()
        return clone


class ToggleFaultInjector(Mutator):
    """Wrap a healthy stimulus in a fault injector, or heal a faulty one.

    Injector windows are drawn inside the scenario horizon, so (thanks to
    the constructor validation in :mod:`repro.scenarios.generators`) every
    injected fault actually fires.
    """

    name = "toggle-fault"

    def applies(self, spec: Any) -> bool:
        return True

    def mutate(self, spec: Any, rng: random.Random,
               context: MutationContext, port: str) -> Any:
        if isinstance(spec, (StuckAt, OutOfRange, Dropout)):
            return spec.inner  # heal: unwrap the injected fault
        horizon = max(4, context.default_ticks)
        kind = rng.choice(("stuck", "dropout", "spikes"))
        if kind == "stuck":
            from_tick = rng.randrange(horizon // 2)
            until = from_tick + rng.randint(1, horizon // 2)
            return StuckAt(spec, value=rng.choice(context.pool(port)),
                           from_tick=from_tick, until=until)
        if kind == "dropout":
            return Dropout(spec, seed=rng.randrange(_SEED_SPACE),
                           probability=rng.choice((0.05, 0.1, 0.25)))
        count = rng.randint(1, 3)
        at_ticks = sorted(rng.sample(range(horizon), count))
        return OutOfRange(spec, at_ticks=at_ticks,
                          value=rng.choice((1e9, -1e9)))


class RetargetPort(Mutator):
    """Replace any stimulus with a fresh guard-vocabulary mode sequence.

    This is the exploration workhorse: a piecewise-constant walk over the
    guard boundary values of the port, which is exactly the stimulus shape
    that drives threshold-guarded mode logic through new transitions.
    """

    name = "retarget"

    def applies(self, spec: Any) -> bool:
        return True

    def mutate(self, spec: Any, rng: random.Random,
               context: MutationContext, port: str) -> ModeSequence:
        pool = context.pool(port)
        segments = [(rng.choice(pool), rng.randint(1, 8))
                    for _ in range(rng.randint(2, 5))]
        return ModeSequence(segments)


class PerturbScalar(Mutator):
    """Replace a constant stimulus with another pool value."""

    name = "perturb-scalar"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, Constant) or (
            isinstance(spec, (int, float)) and not isinstance(spec, bool))

    def mutate(self, spec: Any, rng: random.Random,
               context: MutationContext, port: str) -> Any:
        value = rng.choice(context.pool(port))
        return Constant(value) if isinstance(spec, Constant) else value


class PerturbSineWave(Mutator):
    """Rescale a sine wave's amplitude/period and shift its offset."""

    name = "perturb-sine"

    def applies(self, spec: Any) -> bool:
        return isinstance(spec, SineWave)

    def mutate(self, spec: SineWave, rng: random.Random,
               context: MutationContext, port: str) -> SineWave:
        return SineWave(amplitude=spec.amplitude * rng.choice((0.5, 2.0)),
                        period=max(2.0, spec.period * rng.choice((0.5, 2.0))),
                        offset=spec.offset + rng.choice((-1.0, 0.0, 1.0)),
                        phase=spec.phase)


#: The default operator registry, in fixed order (determinism relies on a
#: stable registry: ``rng.choice`` over it must see the same candidates in
#: the same order on every run).
DEFAULT_MUTATORS: Tuple[Mutator, ...] = (
    PerturbRamp(), PerturbSquareWave(), PerturbStepChange(),
    PerturbModeSequence(), PerturbSineWave(), ReseedGenerator(),
    ToggleFaultInjector(), RetargetPort(), PerturbScalar(),
)


def mutate_scenario(scenario: Scenario, rng: random.Random,
                    context: MutationContext, name: str,
                    mutators: Sequence[Mutator] = DEFAULT_MUTATORS
                    ) -> Scenario:
    """Derive a new scenario by mutating 1-2 stimuli (and maybe the horizon).

    Ports are drawn from the sorted stimulus keys so the mutation sequence
    depends only on the RNG state, never on dict iteration order.  The
    operators see the *scenario's* horizon as ``default_ticks``, so
    injector windows and step ticks always land inside the ticks that
    actually run.
    """
    if not scenario.stimuli:
        raise SimulationError(
            f"cannot mutate scenario {scenario.name!r}: it has no stimuli")
    context = replace(context, default_ticks=scenario.ticks)
    stimuli: Dict[str, Any] = dict(scenario.stimuli)
    ports = sorted(stimuli)
    count = min(len(ports), rng.randint(1, 2))
    for port in rng.sample(ports, count):
        spec = stimuli[port]
        applicable = [mutator for mutator in mutators
                      if mutator.applies(spec)]
        if not applicable:
            continue
        mutator = rng.choice(applicable)
        stimuli[port] = mutator.mutate(spec, rng, context, port)
    ticks = scenario.ticks
    if rng.random() < 0.25:
        ticks = min(context.max_ticks, ticks + rng.choice((8, 16, 32)))
    return Scenario(name, stimuli, ticks)


def crossover_scenarios(first: Scenario, second: Scenario,
                        rng: random.Random, name: str) -> Scenario:
    """Recombine two scenarios port-wise, splicing mode sequences.

    Each port takes its stimulus from one parent; when both parents carry a
    :class:`ModeSequence` on the same port there is a chance the child gets
    a spliced sequence (a prefix of one parent's segments followed by a
    suffix of the other's) -- the segment-level crossover that chains two
    partially-successful drive profiles into one.
    """
    stimuli: Dict[str, Any] = {}
    for port in sorted(set(first.stimuli) | set(second.stimuli)):
        in_first, in_second = port in first.stimuli, port in second.stimuli
        if in_first and in_second:
            left, right = first.stimuli[port], second.stimuli[port]
            if isinstance(left, ModeSequence) \
                    and isinstance(right, ModeSequence) \
                    and rng.random() < 0.5:
                cut_left = rng.randint(1, len(left.segments))
                cut_right = rng.randrange(len(right.segments))
                stimuli[port] = ModeSequence(
                    list(left.segments[:cut_left])
                    + list(right.segments[cut_right:]),
                    hold_last=right.hold_last)
            else:
                stimuli[port] = left if rng.random() < 0.5 else right
        else:
            stimuli[port] = first.stimuli[port] if in_first \
                else second.stimuli[port]
    ticks = max(first.ticks, second.ticks) if rng.random() < 0.5 \
        else min(first.ticks, second.ticks)
    return Scenario(name, stimuli, ticks)


def exploration_scenario(ports: Sequence[str], rng: random.Random,
                         context: MutationContext, name: str) -> Scenario:
    """A fresh scenario: one guard-vocabulary mode sequence per input port."""
    if not ports:
        raise SimulationError(
            "cannot build an exploration scenario for a component without "
            "input ports")
    retarget = RetargetPort()
    stimuli = {port: retarget.mutate(None, rng, context, port)
               for port in sorted(ports)}
    return Scenario(name, stimuli, context.default_ticks)


def _as_mode_sequence(spec: Any, ticks: int) -> ModeSequence:
    """Rewrite any stimulus as an equivalent piecewise-constant sequence.

    Mode sequences keep their segments; everything else is materialized
    over the scenario horizon and run-length compressed.  This is what lets the
    targeted extension *append* to an arbitrary stimulus.
    """
    if isinstance(spec, ModeSequence):
        return ModeSequence(list(spec.segments), hold_last=spec.hold_last)
    if isinstance(spec, Constant):
        return ModeSequence([(spec.value, max(1, ticks))])
    segments: List[Tuple[Any, int]] = []
    for value in materialize_spec(spec, max(1, ticks)):
        if segments and segments[-1][0] == value:
            segments[-1] = (value, segments[-1][1] + 1)
        else:
            segments.append((value, 1))
    return ModeSequence(segments)


def append_witness(parent: Scenario, witness: Mapping[str, Any],
                   dwell: int, name: str,
                   max_ticks: Optional[int] = None) -> Scenario:
    """Extend *parent* with a guard-witness phase: the directed mutation.

    The parent's stimuli are replayed unchanged for its whole horizon
    (including trailing absence: a ``hold_last=False`` tail stays absent,
    and a witness port the parent never drove stays absent for the whole
    prefix), then every port named by *witness* holds its witness value for
    *dwell* ticks.  Run against a parent that ends in a transition's source
    mode, the extension drives exactly that guard true -- the feedback step
    that turns coverage reporting into coverage search.
    """
    if dwell < 1:
        raise SimulationError("witness dwell must be >= 1 tick")
    stimuli: Dict[str, Any] = dict(parent.stimuli)
    for port in sorted(witness):
        if port in stimuli:
            sequence = _as_mode_sequence(stimuli[port], parent.ticks)
            # clip to the parent horizon: segments beyond it were never
            # simulated, and leaving them in would push the witness phase
            # past the child's tick range (it would silently never fire)
            segments: List[Tuple[Any, int]] = []
            remaining = parent.ticks
            for value, duration in sequence.segments:
                if remaining <= 0:
                    break
                segments.append((value, min(duration, remaining)))
                remaining -= duration
            if remaining > 0:
                if sequence.hold_last:  # the held tail becomes explicit
                    value = segments[-1][0]
                    segments[-1] = (value, segments[-1][1] + remaining)
                else:  # a non-holding sequence went absent: keep it absent
                    segments.append((ABSENT, remaining))
        else:  # the parent never drove this port: absent until the witness
            segments = [(ABSENT, max(1, parent.ticks))]
        segments.append((witness[port], dwell))
        stimuli[port] = ModeSequence(segments)
    ticks = parent.ticks + dwell
    if max_ticks is not None:
        ticks = min(ticks, max_ticks)
    return Scenario(name, stimuli, max(ticks, 1))

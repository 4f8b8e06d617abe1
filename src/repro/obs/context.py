"""The ambient telemetry context: one switch, zero overhead when off.

Instrumentation sites across the engine stack (compile phases, the
sharded runner, the native loop, the search loop) consult ONE module
global through :func:`active` / :func:`current_registry` /
:func:`maybe_span`.  While observability is disabled (the default) every
such probe is a single global read returning ``None`` -- and, crucially,
no probe sits on a per-tick or per-op path: hot loops are instrumented by
**swapping in** an instrumented step variant when telemetry is enabled
(:meth:`~repro.simulation.schedule_ir.FlatSchedule.instrumented_step`,
generated from the same per-op templates with profiling on), never by
branching inside the default one.  The default step functions are the
uninstrumented generated variants;
``benchmarks/bench_obs_overhead.py`` gates the residual overhead of the
disabled probes at <= 5% and asserts the step object identity.

Usage::

    from repro import obs

    telemetry = obs.enable(profile_ops=True)
    simulator = CompiledSimulator(model, backend="flat")   # compile spans
    simulator.run(stimuli, ticks=1000)                     # op-level profile
    obs.disable()

    print(telemetry.registry.format_summary())
    for profile in telemetry.profiles.values():
        print(obs.format_profile(profile))
    telemetry.tracer.save_chrome_trace("trace.json")       # -> Perfetto

or scoped, restoring the previous state::

    with obs.session(profile_ops=True) as telemetry:
        ...

The context is process-global and intentionally simple: pool workers do
NOT inherit it -- the sharded runner forwards an enable flag and ships
worker-local registries back for merging (the cross-process aggregation
path), so no instrument is ever written from two processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry
from .profile import OpProfile
from .tracing import Tracer


class Telemetry:
    """One enabled observability session: registry + tracer + op profiles
    + (optionally) a campaign event log and flight recording.

    ``profiles`` maps a schedule identity to its :class:`OpProfile`;
    profiles are created lazily by :meth:`profile_for` the first time an
    instrumentable schedule runs while ``profile_ops`` is set, and the
    instrumented step closures are cached per schedule so repeated runs
    keep accumulating into one profile.

    ``events`` is an optional :class:`~repro.obs.events.EventLog` the
    campaign layers (sharded runner, coverage search) emit into; ``None``
    (the default) means no event stream is recorded.  With
    ``flight_recording`` set, flat schedules run on a swapped-in
    :meth:`~repro.simulation.schedule_ir.FlatSchedule.recording_step`
    keeping the last ``ring_ticks`` slot snapshots per schedule
    (:attr:`recorders`); on scenario error the runner dumps a post-mortem
    bundle under ``postmortem_dir`` (default: ``$OBS_POSTMORTEM_DIR`` or
    the working directory) and appends its path to :attr:`bundles`.
    """

    __slots__ = ("registry", "tracer", "profile_ops", "profiles", "_steps",
                 "events", "flight_recording", "ring_ticks",
                 "postmortem_dir", "recorders", "_recording_steps",
                 "bundles")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 profile_ops: bool = False,
                 events: Optional[Any] = None,
                 flight_recording: bool = False,
                 ring_ticks: int = 16,
                 postmortem_dir: Optional[str] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.profile_ops = profile_ops
        self.profiles: Dict[int, OpProfile] = {}
        self._steps: Dict[int, Any] = {}
        self.events = events
        self.flight_recording = flight_recording
        self.ring_ticks = ring_ticks
        self.postmortem_dir = postmortem_dir
        self.recorders: Dict[int, Any] = {}
        self._recording_steps: Dict[int, Any] = {}
        self.bundles: list = []

    def profile_for(self, schedule: Any) -> Optional[OpProfile]:
        """The (lazily created) op profile of *schedule*, or ``None``.

        Returns ``None`` when op profiling is off or the schedule does not
        expose an op program (``op_labels()``): nested-only schedules run
        unprofiled, they are already observable through spans and metrics.
        """
        if not self.profile_ops:
            return None
        labels = getattr(schedule, "op_labels", None)
        if labels is None:
            return None
        key = id(schedule)
        profile = self.profiles.get(key)
        if profile is None:
            label = getattr(getattr(schedule, "component", None), "name",
                            type(schedule).__name__)
            profile = OpProfile(f"{label}[{getattr(schedule, 'kind', '?')}]",
                                labels())
            self.profiles[key] = profile
        return profile

    def instrumented_step(self, schedule: Any) -> Optional[Any]:
        """A cached instrumented step for *schedule*, or ``None`` when op
        profiling does not apply (callers then use ``schedule.step``)."""
        profile = self.profile_for(schedule)
        if profile is None or not hasattr(schedule, "instrumented_step"):
            return None
        key = id(schedule)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = schedule.instrumented_step(profile)
        return step

    def recorder_for(self, schedule: Any) -> Optional[Any]:
        """The (lazily created) flight recorder of *schedule*, or ``None``.

        Returns ``None`` when flight recording is off or the schedule has
        no ``recording_step`` (nested schedules run unrecorded: forensics
        lives on the flat program, which native schedules wrap).
        """
        if not self.flight_recording \
                or not hasattr(schedule, "recording_step"):
            return None
        key = id(schedule)
        recorder = self.recorders.get(key)
        if recorder is None:
            from .recorder import FlightRecorder
            recorder = FlightRecorder(schedule, capacity=self.ring_ticks)
            self.recorders[key] = recorder
        return recorder

    def recording_step(self, schedule: Any) -> Optional[Any]:
        """A cached flight-recording step for *schedule*, or ``None``."""
        recorder = self.recorder_for(schedule)
        if recorder is None:
            return None
        key = id(schedule)
        step = self._recording_steps.get(key)
        if step is None:
            step = self._recording_steps[key] \
                = schedule.recording_step(recorder)
        return step

    def step_for(self, schedule: Any) -> Optional[Any]:
        """The step variant this session swaps in for *schedule*.

        Flight recording takes precedence over op profiling (forensics
        beats timing when both are requested; the recording step has no
        profile hooks).  ``None`` means run the default closure.
        """
        step = self.recording_step(schedule)
        if step is not None:
            return step
        return self.instrumented_step(schedule)

    def resolved_postmortem_dir(self) -> str:
        """Where post-mortem bundles land for this session."""
        if self.postmortem_dir is not None:
            return self.postmortem_dir
        import os
        return os.environ.get("OBS_POSTMORTEM_DIR", ".")

    def named_profiles(self) -> Dict[str, OpProfile]:
        """Profiles keyed by their human label (stable across processes)."""
        return {profile.label: profile for profile in self.profiles.values()}

    def __repr__(self) -> str:
        return (f"Telemetry(profile_ops={self.profile_ops}, "
                f"profiles={len(self.profiles)}, "
                f"events={'on' if self.events is not None else 'off'}, "
                f"flight_recording={self.flight_recording})")


#: THE switch: ``None`` means observability is off everywhere.
_ACTIVE: Optional[Telemetry] = None


def enable(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None,
           profile_ops: bool = False,
           events: Optional[Any] = None,
           flight_recording: bool = False,
           ring_ticks: int = 16,
           postmortem_dir: Optional[str] = None) -> Telemetry:
    """Install (and return) a fresh telemetry session as the active one."""
    global _ACTIVE
    _ACTIVE = Telemetry(registry, tracer, profile_ops, events=events,
                        flight_recording=flight_recording,
                        ring_ticks=ring_ticks,
                        postmortem_dir=postmortem_dir)
    return _ACTIVE


def disable() -> Optional[Telemetry]:
    """Switch observability off; returns the session that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def is_enabled() -> bool:
    return _ACTIVE is not None


def active() -> Optional[Telemetry]:
    """The active telemetry session, or ``None`` (the common fast path)."""
    return _ACTIVE


def current_registry() -> Optional[MetricsRegistry]:
    telemetry = _ACTIVE
    return telemetry.registry if telemetry is not None else None


def current_tracer() -> Optional[Tracer]:
    telemetry = _ACTIVE
    return telemetry.tracer if telemetry is not None else None


def current_events() -> Optional[Any]:
    """The active session's campaign event log, or ``None``.

    ``None`` both when observability is off and when the session was
    enabled without an event log -- callers emit only when this returns a
    log, so the disabled cost stays one global read.
    """
    telemetry = _ACTIVE
    return telemetry.events if telemetry is not None else None


class _NullSpan:
    """Shared no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def maybe_span(name: str, **attributes: Any) -> Any:
    """A tracer span when observability is on, a shared no-op otherwise.

    The ``with maybe_span(...) as span:`` body must tolerate ``span is
    None`` (the disabled case).  Cost when disabled: one global read and
    one call -- which is why this helper only appears on compile-, run-
    and sweep-level paths, never per tick.
    """
    telemetry = _ACTIVE
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.tracer.span(name, **attributes)


@contextmanager
def session(registry: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None,
            profile_ops: bool = False,
            events: Optional[Any] = None,
            flight_recording: bool = False,
            ring_ticks: int = 16,
            postmortem_dir: Optional[str] = None) -> Iterator[Telemetry]:
    """Scoped :func:`enable` that restores the previous state on exit."""
    global _ACTIVE
    previous = _ACTIVE
    telemetry = Telemetry(registry, tracer, profile_ops, events=events,
                          flight_recording=flight_recording,
                          ring_ticks=ring_ticks,
                          postmortem_dir=postmortem_dir)
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous

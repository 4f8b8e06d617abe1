"""The ambient telemetry context: per-thread switch, zero overhead when off.

Instrumentation sites across the engine stack (compile phases, the
sharded runner, the native loop, the search loop) consult the calling
thread's session through :func:`active` / :func:`current_registry` /
:func:`maybe_span`.  While observability is disabled (the default) every
such probe is a single attribute read returning ``None`` -- and, crucially,
no probe sits on a per-tick or per-op path: hot loops are instrumented by
running an observed variant of the horizon loop when a session asks for
op profiles or flight recording (:meth:`Telemetry.observed_horizon`,
generated from the same per-op templates with the probes written in),
never by branching inside the default one.  The default horizon loops
are the uninstrumented generated variants;
``benchmarks/bench_obs_overhead.py`` asserts the default loop's object
identity across sessions and tracks the residual cost of the disabled
probes against the ceiling of 5%.

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

The context is per thread: :func:`enable` / :func:`session` switch on
telemetry for the calling thread only, and a new thread starts with none.
So a session records what its own thread runs and nothing from other
threads.  Pool workers -- threads and processes alike -- never see the
caller's session: the sharded runner forwards the session's settings,
each worker task records into a worker-local session, and the runner
merges what the task ships back, so no instrument is ever written from
two threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry
from .profile import OpProfile
from .tracing import Tracer


class Telemetry:
    """One enabled observability session: registry + tracer + op profiles
    + (optionally) a campaign event log and flight recording.

    With ``profile_ops`` or ``flight_recording`` set, every flat program
    run in the session runs on its observed horizon loop
    (:meth:`observed_horizon`), generated once per schedule with the
    schedule's :class:`OpProfile` (:attr:`profiles`) and flight recorder
    (:attr:`recorders`) written in; both are kept for the session, so
    repeated runs keep accumulating into one profile.  All three caches
    are keyed by the schedule itself and so keep it alive for the
    session: a schedule made later never inherits a dead one's entries.
    Profiles shipped back by pool workers are merged into the profile of
    the same label, or kept under their label.

    ``events`` is an optional :class:`~repro.obs.events.EventLog` the
    campaign layers (sharded runner, coverage search) emit into; ``None``
    (the default) means no event stream is recorded.  A flight recorder
    keeps the last ``ring_ticks`` slot snapshots of its schedule's run;
    on scenario error the runner dumps a post-mortem bundle under
    ``postmortem_dir`` (default: ``$OBS_POSTMORTEM_DIR`` or the working
    directory) and appends its path to :attr:`bundles`.
    """

    __slots__ = ("registry", "tracer", "profile_ops", "profiles", "events",
                 "flight_recording", "ring_ticks", "postmortem_dir",
                 "recorders", "_horizons", "bundles")

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
        self.profiles: Dict[Any, OpProfile] = {}
        self.events = events
        self.flight_recording = flight_recording
        self.ring_ticks = ring_ticks
        self.postmortem_dir = postmortem_dir
        self.recorders: Dict[Any, Any] = {}
        self._horizons: Dict[Any, Any] = {}
        self.bundles: list = []

    def observed_horizon(self, schedule: Any) -> Optional[Any]:
        """The horizon loop this session runs the flat *schedule* on, or
        ``None`` when the session observes no ops (the schedule then
        runs its default loop).

        Generated on first use by :func:`repro.simulation.op_emit.flat_step`
        from the same per-op templates as the default loop, with the
        schedule's op profile (under ``profile_ops``, over its
        ``op_labels()``) and flight recorder (under ``flight_recording``)
        written in -- one variant when both are on.  The default loop is
        never touched, which is the whole zero-overhead-when-off
        mechanism.
        """
        horizon = self._horizons.get(schedule)
        if horizon is None and (self.profile_ops or self.flight_recording):
            from ..simulation.op_emit import flat_step
            profile = recorder = None
            if self.profile_ops:
                profile = self.profiles[schedule] = OpProfile(
                    f"{schedule.component.name}[{schedule.kind}]",
                    schedule.op_labels())
            if self.flight_recording:
                from .recorder import FlightRecorder
                recorder = self.recorders[schedule] = FlightRecorder(
                    schedule, capacity=self.ring_ticks)
            horizon = self._horizons[schedule] = flat_step(
                schedule, profile, recorder, horizon=True)
        return horizon

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


class _Switch(threading.local):
    """The per-thread switch: ``telemetry`` is the calling thread's session,
    or ``None`` (the class default, so every new thread starts off)."""

    telemetry: Optional[Telemetry] = None


_ACTIVE = _Switch()


def enable(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None,
           profile_ops: bool = False,
           events: Optional[Any] = None,
           flight_recording: bool = False,
           ring_ticks: int = 16,
           postmortem_dir: Optional[str] = None) -> Telemetry:
    """Install (and return) a fresh telemetry session as the calling
    thread's active one."""
    telemetry = _ACTIVE.telemetry = Telemetry(
        registry, tracer, profile_ops, events=events,
        flight_recording=flight_recording, ring_ticks=ring_ticks,
        postmortem_dir=postmortem_dir)
    return telemetry


def disable() -> Optional[Telemetry]:
    """Switch observability off for the calling thread; returns the session
    that was active."""
    previous = _ACTIVE.telemetry
    _ACTIVE.telemetry = None
    return previous


def is_enabled() -> bool:
    return _ACTIVE.telemetry is not None


def active() -> Optional[Telemetry]:
    """The calling thread's telemetry session, or ``None`` (the common
    fast path)."""
    return _ACTIVE.telemetry


def current_registry() -> Optional[MetricsRegistry]:
    telemetry = _ACTIVE.telemetry
    return telemetry.registry if telemetry is not None else None


def current_tracer() -> Optional[Tracer]:
    telemetry = _ACTIVE.telemetry
    return telemetry.tracer if telemetry is not None else None


def current_events() -> Optional[Any]:
    """The active session's campaign event log, or ``None``.

    ``None`` both when observability is off and when the session was
    enabled without an event log -- callers emit only when this returns a
    log, so the disabled cost stays one attribute read.
    """
    telemetry = _ACTIVE.telemetry
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
    None`` (the disabled case).  Cost when disabled: one attribute read
    and one call -- which is why this helper only appears on compile-, run-
    and sweep-level paths, never per tick.
    """
    telemetry = _ACTIVE.telemetry
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
    """Scoped :func:`enable` that restores the calling thread's previous
    state on exit."""
    previous = _ACTIVE.telemetry
    telemetry = _ACTIVE.telemetry = Telemetry(
        registry, tracer, profile_ops, events=events,
        flight_recording=flight_recording, ring_ticks=ring_ticks,
        postmortem_dir=postmortem_dir)
    try:
        yield telemetry
    finally:
        _ACTIVE.telemetry = previous

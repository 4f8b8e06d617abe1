"""``repro.obs``: zero-overhead-when-off telemetry for the engine stack.

The in-process primitives and one switch:

* :class:`MetricsRegistry` -- counters, gauges and deterministic
  fixed-bucket histograms with order-insensitive :meth:`~MetricsRegistry.merge`
  (the cross-process aggregation contract of the sharded runner); quantile
  estimates via :meth:`~MetricsRegistry.histogram_quantiles`, tables via
  :func:`format_metrics`;
* :class:`Tracer` -- nested spans over an injectable clock, exported as a
  span-tree JSON or Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``; worker-tagged spans get their own tracks);
* :class:`OpProfile` -- op-level attribution of flat-IR step programs
  (per-op counts/times, gate skip rates, correction re-runs and
  nested-fallback activity), rendered by
  :func:`format_profile` / :func:`format_backend_comparison`;
* :func:`enable` / :func:`disable` / :func:`session` -- the process-global
  switch.  While off (the default), the engines run their untouched step
  closures and every probe is one global read; see
  :mod:`repro.obs.context` for the contract and
  ``benchmarks/bench_obs_overhead.py`` for the gate.

And the campaign flight-recorder layer on top:

* :class:`EventLog` -- typed, schema-versioned, crash-safe campaign events
  with monotonic sequence numbers and a watermark; replay/tail readers
  (:func:`read_events` / :func:`tail_events`), the executor-invariant
  :func:`normalized_stream` projection, and :class:`CampaignProgress`
  for live progress rendering;
* :class:`FlightRecorder` -- last-K-tick slot snapshots of flat schedules
  via a swapped-in recording step; post-mortem bundles on scenario error
  (``obs.enable(flight_recording=True)``);
* :mod:`repro.obs.regress` -- bench-regression tracking over
  ``BENCH_*.json`` artifacts (``python -m repro.obs.regress --check``).
"""

from .context import (Telemetry, active, current_events, current_registry,
                      current_tracer, disable, enable, is_enabled,
                      maybe_span, session)
from .events import (EVENT_TYPES, CampaignEvent, CampaignProgress, EventLog,
                     EventLogError, normalized_stream, read_events,
                     tail_events)
from .metrics import (DURATION_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, format_metrics)
from .profile import OpProfile, format_backend_comparison, format_profile
from .recorder import FlightRecorder, read_bundle
from .tracing import Span, Tracer, span_from_json_dict

__all__ = [
    "CampaignEvent", "CampaignProgress", "Counter", "DURATION_BUCKETS",
    "EVENT_TYPES", "EventLog", "EventLogError", "FlightRecorder", "Gauge",
    "Histogram", "MetricsRegistry", "OpProfile", "Span", "Telemetry",
    "Tracer", "active", "current_events", "current_registry",
    "current_tracer", "disable", "enable", "format_backend_comparison",
    "format_metrics", "format_profile", "is_enabled", "maybe_span",
    "normalized_stream", "read_bundle", "read_events", "session",
    "span_from_json_dict", "tail_events",
]

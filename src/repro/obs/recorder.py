"""Failure forensics: a flight recorder over the flat slot environment.

When a scenario dies at tick 40 231 of a 10M-scenario campaign, the error
string ("division by zero in 'ratio'") is the *what*; the forensics
question is the *state*: which values sat in which slots for the last few
ticks, which op was executing, what the stimulus looked like.  The
:class:`FlightRecorder` answers it with a bounded ring buffer of the last
K tick slot-environment snapshots, captured by the flat program's
**observed** horizon loop
(:meth:`~repro.obs.context.Telemetry.observed_horizon`) -- a variant
generated on demand by :mod:`repro.simulation.op_emit` from the same
per-op templates as the default loop, with the op index tracked inside
one ``try`` per tick and the recorder hooks written in, beside the op
profiler's timers when both are on.  The run being recorded is the run
that happens: the same loop over the same columns, no per-tick step.
The default loop is never touched and the overhead-when-off bench
asserts its identity, so recording costs nothing until a telemetry
session asks for it (``obs.enable(flight_recording=True)``).

On scenario error the runner dumps a **post-mortem bundle**: a JSON
artifact holding the ring contents with slot names decoded from the
flattener's slot table, the failing op (index + ``op_labels`` label), the
partial slot environment at the moment of the raise, the stimulus, the
active span path and a metrics snapshot.  Snapshots are plain copies of
the slot list, so re-running the scenario against a fresh recorder
reproduces them exactly up to the failing tick -- the replay property the
forensics tests pin.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Version stamped into every post-mortem bundle.
BUNDLE_SCHEMA_VERSION = 1

#: Default ring capacity: how many trailing ticks a bundle replays.
DEFAULT_RING_TICKS = 16

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _render_value(value: Any) -> Any:
    """A JSON-safe rendering of one slot value.

    JSON scalars pass through; everything else (including the ABSENT
    sentinel) becomes a deterministic ``repr`` with object addresses
    scrubbed, so bundles from replayed runs compare byte-equal.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return _ADDRESS.sub("", repr(value))


def _render_env(values: List[Any], names: Tuple[str, ...]) -> Dict[str, Any]:
    """One slot environment as ``{decoded slot name: rendered value}``."""
    return {(names[slot] if slot < len(names) else f"slot{slot}"):
            _render_value(value) for slot, value in enumerate(values)}


class FlightRecorder:
    """Ring buffer of the last K tick snapshots of one flat schedule.

    One recorder per schedule per telemetry session (made by
    :meth:`~repro.obs.context.Telemetry.observed_horizon`); every run of
    the schedule clears the ring before it checks its stimuli, so within
    a battery each scenario's forensics window is its own -- a scenario
    that fails before its first tick leaves it empty.
    """

    __slots__ = ("schedule", "capacity", "snapshots", "failure")

    def __init__(self, schedule: Any, capacity: int = DEFAULT_RING_TICKS):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.schedule = schedule
        self.capacity = capacity
        #: (tick, copy of the slot list at end of tick), oldest first.
        self.snapshots: Deque[Tuple[int, List[Any]]] = deque(maxlen=capacity)
        #: Set by the observed loop when an op raises; see
        #: :meth:`record_failure`.
        self.failure: Optional[Dict[str, Any]] = None

    # -- hooks called by the run and its observed loop ---------------------

    def begin_run(self) -> None:
        """A new scenario starts: the window belongs to it (called by
        :meth:`~repro.simulation.schedule_ir.FlatSchedule.run`)."""
        self.snapshots.clear()
        self.failure = None

    def record_tick(self, tick: int, values: List[Any]) -> None:
        self.snapshots.append((tick, list(values)))

    def record_failure(self, tick: int, op_index: int, values: List[Any],
                       inputs: Any, exc: BaseException) -> None:
        self.failure = {
            "tick": tick,
            "op_index": op_index,
            "values": list(values),
            "inputs": dict(inputs),
            "error": f"{type(exc).__name__}: {exc}",
        }

    # -- the post-mortem bundle --------------------------------------------

    def bundle(self, scenario: str = "", error: str = "",
               stimuli: Any = None, span_path: Optional[List[str]] = None,
               registry: Any = None) -> Dict[str, Any]:
        """The JSON-safe post-mortem bundle of the current window."""
        schedule = self.schedule
        names: Tuple[str, ...] = tuple(
            getattr(schedule, "slot_names", ()) or ())
        failing: Optional[Dict[str, Any]] = None
        if self.failure is not None:
            op_index = self.failure["op_index"]
            labels = schedule.op_labels()
            kind, label = (labels[op_index] if 0 <= op_index < len(labels)
                           else ("?", f"op {op_index}"))
            failing = {
                "tick": self.failure["tick"],
                "op_index": op_index,
                "op_kind": kind,
                "op_label": label,
                "error": self.failure["error"],
                "partial_slots": _render_env(self.failure["values"], names),
                "inputs": {key: _render_value(value) for key, value
                           in sorted(self.failure["inputs"].items())},
            }
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "kind": "postmortem",
            "component": getattr(
                getattr(schedule, "component", None), "name", "?"),
            "scenario": scenario,
            "error": error,
            "ring_capacity": self.capacity,
            "ring": [{"tick": tick, "slots": _render_env(values, names)}
                     for tick, values in self.snapshots],
            "failing": failing,
            "stimuli": {key: _render_value(value) for key, value
                        in sorted(dict(stimuli or {}).items())},
            "span_path": list(span_path or []),
            "metrics": registry.to_json_dict() if registry is not None
            else {},
        }

    def dump_bundle(self, directory: str, scenario: str = "",
                    error: str = "", stimuli: Any = None,
                    span_path: Optional[List[str]] = None,
                    registry: Any = None) -> str:
        """Write the bundle as ``POSTMORTEM_<scenario>.json``; returns path.

        The file name is deterministic (scenario names are unique within a
        battery), so a re-run overwrites its own bundle instead of
        accumulating stale ones.
        """
        os.makedirs(directory, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", scenario) or "scenario"
        path = os.path.join(directory, f"POSTMORTEM_{safe}.json")
        payload = self.bundle(scenario=scenario, error=error,
                              stimuli=stimuli, span_path=span_path,
                              registry=registry)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def __repr__(self) -> str:
        return (f"FlightRecorder({getattr(self.schedule, 'component', None)!r}"
                f", ticks={len(self.snapshots)}/{self.capacity}, "
                f"failed={self.failure is not None})")


def read_bundle(path: str) -> Dict[str, Any]:
    """Load a post-mortem bundle written by :meth:`FlightRecorder.dump_bundle`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)

"""Simulation traces: recorded streams per port, plus trace tables.

Fig. 1 of the paper shows the observation format of the operational model:
per channel and per tick either a value or "-" for absence.  The
:class:`SimulationTrace` records exactly this for all boundary ports of the
simulated component, and :meth:`SimulationTrace.format_table` renders the
tick/value table used by the Fig.-1 benchmark and by EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.errors import SimulationError
from ..core.values import ABSENT, Stream, is_absent, is_present


class SimulationTrace:
    """Recorded input and output streams of one simulation run.

    Every engine records exactly the simulated component's declared
    boundary ports -- ``input_names()`` and ``output_names()`` -- with one
    value per tick each (:data:`~repro.core.values.ABSENT` where a port
    carries no message), so every stream is as long as the trace.

    ``mode_history`` holds the root's ``"mode"`` after every tick when
    the root's state carries one.  The compiled engines also record
    ``mode_paths``: per MTD and STD path, its active mode or state at
    every tick it was active, as
    :func:`~repro.simulation.engine.active_mode_paths` walks them (the
    interpreter leaves it ``None``).
    """

    def __init__(self, component_name: str):
        self.component_name = component_name
        self.inputs: Dict[str, Stream] = {}
        self.outputs: Dict[str, Stream] = {}
        self.mode_history: List[Any] = []
        self.mode_paths: Optional[Dict[str, List[Any]]] = None
        self.ticks = 0

    # -- recording -----------------------------------------------------------
    def record_tick(self, inputs: Mapping[str, Any],
                    outputs: Mapping[str, Any]) -> None:
        """Append the observations of one tick."""
        for name, value in inputs.items():
            self.inputs.setdefault(name, Stream()).append(value)
        for name, value in outputs.items():
            self.outputs.setdefault(name, Stream()).append(value)
        self.ticks += 1

    # -- access ----------------------------------------------------------------
    def output(self, name: str) -> Stream:
        try:
            return self.outputs[name]
        except KeyError as exc:
            raise SimulationError(
                f"trace of {self.component_name!r} has no output {name!r} "
                f"(available: {sorted(self.outputs)})") from exc

    def input(self, name: str) -> Stream:
        try:
            return self.inputs[name]
        except KeyError as exc:
            raise SimulationError(
                f"trace of {self.component_name!r} has no input {name!r}") from exc

    def signal(self, name: str) -> Stream:
        """Look up a signal among outputs first, then inputs."""
        if name in self.outputs:
            return self.outputs[name]
        if name in self.inputs:
            return self.inputs[name]
        raise SimulationError(
            f"trace of {self.component_name!r} has no signal {name!r}")

    def signal_names(self) -> List[str]:
        return sorted(set(self.inputs) | set(self.outputs))

    # -- presentation --------------------------------------------------------------
    def as_rows(self, signals: Optional[Sequence[str]] = None) -> List[List[Any]]:
        """Rows ``[signal, v(0), v(1), ...]`` for the requested signals."""
        names = list(signals) if signals is not None else self.signal_names()
        rows = []
        for name in names:
            stream = self.signal(name)
            rows.append([name] + stream.values())
        return rows

    def format_table(self, signals: Optional[Sequence[str]] = None,
                     start: int = 0, end: Optional[int] = None) -> str:
        """Render a Fig.-1-style tick/value table as text."""
        end = self.ticks if end is None else min(end, self.ticks)
        names = list(signals) if signals is not None else self.signal_names()
        header = ["signal"] + [f"t+{tick}" if tick else "t"
                               for tick in range(0, end - start)]
        rows = [header]
        for name in names:
            stream = self.signal(name)
            row = [name]
            for tick in range(start, end):
                value = stream[tick] if tick < len(stream) else ABSENT
                row.append("-" if is_absent(value) else _fmt(value))
            rows.append(row)
        widths = [max(len(str(row[col])) for row in rows)
                  for col in range(len(header))]
        lines = []
        for row in rows:
            cells = [str(cell).rjust(widths[index])
                     for index, cell in enumerate(row)]
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"SimulationTrace({self.component_name!r}, ticks={self.ticks}, "
                f"signals={self.signal_names()})")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def streams_equal(first: Stream, second: Stream,
                  tolerance: float = 0.0) -> bool:
    """Tick-wise equality of two streams, with a numeric tolerance.

    Presence must match exactly; present numeric values may differ by up to
    *tolerance*; other values must be equal.
    """
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if is_absent(a) != is_absent(b):
            return False
        if is_absent(a):
            continue
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            if abs(a - b) > tolerance:
                return False
        elif a != b:
            return False
    return True


def traces_equivalent(first: SimulationTrace, second: SimulationTrace,
                      signals: Optional[Iterable[str]] = None,
                      tolerance: float = 0.0) -> bool:
    """True if both traces agree on the given output signals.

    Used to validate refactorings and the MTD-to-dataflow transformation:
    "semantically equivalent" models produce equal traces on shared stimuli.
    """
    names = list(signals) if signals is not None else sorted(first.outputs)
    for name in names:
        if name not in second.outputs:
            return False
        if not streams_equal(first.output(name), second.output(name), tolerance):
            return False
    return True


def first_difference(first: SimulationTrace, second: SimulationTrace,
                     signals: Optional[Iterable[str]] = None
                     ) -> Optional[Dict[str, Any]]:
    """Locate the first differing (signal, tick) pair, or None if equivalent."""
    names = list(signals) if signals is not None else sorted(first.outputs)
    for name in names:
        stream_a = first.output(name)
        stream_b = second.outputs.get(name, Stream())
        length = max(len(stream_a), len(stream_b))
        for tick in range(length):
            a = stream_a[tick] if tick < len(stream_a) else ABSENT
            b = stream_b[tick] if tick < len(stream_b) else ABSENT
            same_presence = is_absent(a) == is_absent(b)
            if not same_presence or (is_present(a) and a != b):
                return {"signal": name, "tick": tick, "first": a, "second": b}
    return None

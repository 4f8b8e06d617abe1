"""Message values and the absence ("tick") value of the operational model.

The AutoMoDe operational model (paper Sec. 2) is message based and
time synchronous: at every tick of the global discrete time base a channel
either carries an explicit value or the distinguished "-" value indicating
the absence of a message.  This module provides

* :data:`ABSENT` -- the singleton absence value,
* :func:`is_present` / :func:`is_absent` -- presence predicates,
* :class:`Stream` -- a finite recorded stream of possibly-absent messages,
  the unit of observation used by traces, clocks and equivalence checks,
* :func:`fit_column` -- a value history cut or padded to a horizon.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence


class _Absent:
    """Singleton type of the absence value (the paper's "-" / tick)."""

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "-"

    def __bool__(self) -> bool:
        return False

    def __copy__(self) -> "_Absent":
        return self

    def __deepcopy__(self, memo: dict) -> "_Absent":
        return self

    def __reduce__(self):
        return (_Absent, ())


#: The absence value.  A channel carrying ``ABSENT`` at a tick transports no
#: message at that tick.
ABSENT = _Absent()


def is_present(value: Any) -> bool:
    """Return ``True`` iff *value* is an actual message (not ``ABSENT``)."""
    return value is not ABSENT


def is_absent(value: Any) -> bool:
    """Return ``True`` iff *value* is the absence value."""
    return value is ABSENT


def fit_column(values: Iterable[Any], ticks: int) -> List[Any]:
    """A new list of exactly *ticks* values: the first *ticks* of
    *values*, absent beyond their end."""
    column = list(islice(values, ticks))
    column.extend(repeat(ABSENT, ticks - len(column)))
    return column


def present_or(value: Any, default: Any) -> Any:
    """Return *value* if present, otherwise *default*.

    This is the behaviour of the ``default`` operator commonly paired with
    ``when`` in synchronous languages.
    """
    return value if is_present(value) else default


class Stream:
    """A finite stream of messages observed on one channel.

    A stream records, for each tick ``0..n-1`` of the global time base, the
    value carried by a channel at that tick (possibly :data:`ABSENT`).  It is
    the basic object of the operational semantics: simulation traces are
    per-channel streams, clocks are presence patterns of streams, and model
    equivalence is stream equality.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Iterable[Any]] = None):
        self._values: List[Any] = list(values) if values is not None else []

    # -- construction -----------------------------------------------------
    @classmethod
    def _adopt(cls, values: List[Any]) -> "Stream":
        """A stream over the list *values* itself, not a copy: for an
        engine handing over a column it owns and no longer touches."""
        stream = cls.__new__(cls)
        stream._values = values
        return stream

    @classmethod
    def present(cls, values: Iterable[Any]) -> "Stream":
        """Build a stream in which every tick carries a message."""
        return cls(values)

    @classmethod
    def absent(cls, length: int) -> "Stream":
        """Build a stream of *length* ticks carrying no message at all."""
        return cls([ABSENT] * length)

    @classmethod
    def periodic(cls, values: Iterable[Any], period: int,
                 phase: int = 0, length: Optional[int] = None) -> "Stream":
        """Spread *values* on every ``period``-th tick starting at *phase*.

        All other ticks are absent.  If *length* is ``None`` the stream ends
        right after the last value.
        """
        if period < 1:
            raise ValueError("period must be >= 1")
        vals = list(values)
        total = length if length is not None else phase + period * len(vals)
        out = [ABSENT] * total
        for index, value in enumerate(vals):
            tick = phase + index * period
            if tick < total:
                out[tick] = value
        return cls(out)

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Stream(self._values[index])
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Stream):
            return self._values == other._values
        if isinstance(other, (list, tuple)):
            return self._values == list(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - streams are not hashable
        raise TypeError("Stream objects are mutable and unhashable")

    def __repr__(self) -> str:
        shown = ", ".join(repr(v) for v in self._values[:12])
        suffix = ", ..." if len(self._values) > 12 else ""
        return f"Stream([{shown}{suffix}])"

    # -- mutation ----------------------------------------------------------
    def append(self, value: Any) -> None:
        """Record the value carried at the next tick."""
        self._values.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        """Record several consecutive ticks."""
        self._values.extend(values)

    # -- observation -------------------------------------------------------
    def values(self) -> List[Any]:
        """Return the raw list of per-tick values (including ``ABSENT``)."""
        return list(self._values)

    def present_values(self) -> List[Any]:
        """Return only the actually transported messages, in tick order."""
        return [v for v in self._values if is_present(v)]

    def presence_pattern(self) -> List[bool]:
        """Return the boolean presence pattern (the stream's clock)."""
        return [is_present(v) for v in self._values]

    def presence_count(self) -> int:
        """Number of ticks at which a message is present."""
        return sum(1 for v in self._values if is_present(v))

    def last_present(self, default: Any = ABSENT) -> Any:
        """Return the most recent message, or *default* if there is none."""
        for value in reversed(self._values):
            if is_present(value):
                return value
        return default

    # -- stream operators (paper Sec. 2) ------------------------------------
    def delayed(self, initial: Any = ABSENT, amount: int = 1) -> "Stream":
        """Return this stream delayed by *amount* ticks.

        The first *amount* ticks of the result carry *initial*; this is the
        unit delay introduced by SSD channel composition (Sec. 3.1) when
        ``amount`` is 1.
        """
        if amount < 0:
            raise ValueError("delay amount must be non-negative")
        if amount == 0:
            return Stream(self._values)
        prefix = [initial] * amount
        return Stream((prefix + self._values)[: len(self._values)])

    def when(self, clock_pattern: Sequence[bool]) -> "Stream":
        """Sample this stream by a boolean clock (the ``when`` operator).

        At ticks where *clock_pattern* is ``True`` the original value is kept,
        at all other ticks the result is absent.  The pattern is truncated or
        treated as ``False`` beyond its length.
        """
        out = []
        for index, value in enumerate(self._values):
            keep = index < len(clock_pattern) and bool(clock_pattern[index])
            out.append(value if keep else ABSENT)
        return Stream(out)

    def hold(self, initial: Any = ABSENT) -> "Stream":
        """Sample-and-hold: replace absences by the last present value."""
        out = []
        last = initial
        for value in self._values:
            if is_present(value):
                last = value
            out.append(last)
        return Stream(out)

    def map(self, func: Callable[[Any], Any]) -> "Stream":
        """Apply *func* to present values; absences are propagated."""
        return Stream([func(v) if is_present(v) else ABSENT for v in self._values])

    def zip_with(self, other: "Stream", func: Callable[[Any, Any], Any],
                 strict_presence: bool = True) -> "Stream":
        """Combine two streams tick-wise.

        With ``strict_presence`` the result is absent whenever either operand
        is absent (the usual synchronous product); otherwise *func* receives
        ``ABSENT`` values unchanged.
        """
        length = max(len(self), len(other))
        out = []
        for tick in range(length):
            a = self._values[tick] if tick < len(self) else ABSENT
            b = other._values[tick] if tick < len(other) else ABSENT
            if strict_presence and (is_absent(a) or is_absent(b)):
                out.append(ABSENT)
            else:
                out.append(func(a, b))
        return Stream(out)


def every(n: int, length: int, phase: int = 0) -> List[bool]:
    """The paper's ``every(n, true)`` macro as a finite presence pattern.

    Returns a boolean pattern of *length* ticks that is ``True`` on every
    ``n``-th tick of the base clock, starting at tick *phase*.
    """
    if n < 1:
        raise ValueError("every(n, true) requires n >= 1")
    if length < 0:
        raise ValueError("length must be non-negative")
    return [(tick >= phase and (tick - phase) % n == 0) for tick in range(length)]

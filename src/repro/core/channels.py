"""Channels: directed message connections between ports.

Channels are the "logical channels" of the operational model (paper Sec. 2).
A channel connects exactly one source port to one destination port and, per
tick, transports either a message or the absence value.

Two communication semantics exist in AutoMoDe:

* **delayed** -- SSD-level channels introduce a unit message delay
  ("each SSD-level channel introduces a message delay", Sec. 3.1); the value
  read at tick *t* is the value written at tick *t-1*,
* **instantaneous** -- DFD-level channels forward the value within the same
  tick ("the default semantics of DFD communication is instantaneous",
  Sec. 3.2); instantaneous cycles are rejected by the causality check.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .errors import ModelError
from .values import ABSENT


class ChannelEnd:
    """One endpoint of a channel: a component/port pair.

    ``component`` is ``None`` when the endpoint refers to a port of the
    *enclosing* composite component (a boundary connection).
    """

    __slots__ = ("component", "port")

    def __init__(self, component: Optional[str], port: str):
        self.component = component
        self.port = port

    @property
    def key(self) -> Tuple[Optional[str], str]:
        return (self.component, self.port)

    def is_boundary(self) -> bool:
        """True if the endpoint is a port of the enclosing composite."""
        return self.component is None

    def __repr__(self) -> str:
        if self.component is None:
            return f"self.{self.port}"
        return f"{self.component}.{self.port}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChannelEnd) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


class Channel:
    """A directed connection from a source endpoint to a destination endpoint.

    An unnamed channel is named after its destination (``ch:A.in1``), which
    a diagram drives with one channel at most: two builds of one model
    name their channels alike, so they pickle to the same bytes.
    """

    def __init__(self, source: ChannelEnd, destination: ChannelEnd,
                 name: Optional[str] = None, delayed: bool = False,
                 initial_value: Any = ABSENT):
        self.source = source
        self.destination = destination
        self.name = name or f"ch:{destination!r}"
        self.delayed = delayed
        self.initial_value = initial_value

    def describe(self) -> str:
        kind = "delayed" if self.delayed else "instantaneous"
        return f"{self.name}: {self.source!r} -> {self.destination!r} [{kind}]"

    def __repr__(self) -> str:
        return f"Channel({self.describe()})"


def connect(source_component: Optional[str], source_port: str,
            destination_component: Optional[str], destination_port: str,
            name: Optional[str] = None, delayed: bool = False,
            initial_value: Any = ABSENT) -> Channel:
    """Construct a channel between two (component, port) endpoints.

    Use ``None`` for the component to refer to a boundary port of the
    enclosing composite.  A channel may not connect a boundary input directly
    to a boundary output of the same kind of endpoint in a direction that
    makes no sense; structural validation happens when the channel is added
    to a composite component.
    """
    source = ChannelEnd(source_component, source_port)
    destination = ChannelEnd(destination_component, destination_port)
    if source == destination:
        raise ModelError(f"channel would connect {source!r} to itself")
    return Channel(source, destination, name=name, delayed=delayed,
                   initial_value=initial_value)

"""Abstract (platform independent) type system of the FAA/FDA levels.

On the abstract levels (FAA, FDA) AutoMoDe ports carry *abstract* types such
as ``int``, ``float``, ``bool`` or problem-specific enumerations; concrete
encodings are only chosen during refinement to the LA level (paper Sec. 3.3),
see :mod:`repro.core.impl_types`.

The module implements:

* the abstract type lattice (:class:`Type` and concrete subclasses),
* membership tests (:meth:`Type.contains`, per value, and
  :meth:`Type.first_rejected`, per value column),
* assignability / subtyping (:func:`is_assignable`),
* least-upper-bound computation used by the DFD type inference
  (:func:`unify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Tuple

from .errors import TypeCheckError
from .values import ABSENT, is_absent


class Type:
    """Base class of all abstract AutoMoDe types."""

    name: str = "any"

    def contains(self, value: Any) -> bool:
        """Return True if *value* is a legal message of this type."""
        raise NotImplementedError

    def first_rejected(self, column: Sequence[Any]) -> int:
        """The first tick of *column* whose present value :func:`check_value`
        rejects -- one that fails :meth:`contains` or makes it raise --
        or ``len(column)`` when none does.

        The column form of :meth:`contains`; a type that overrides it
        with a faster whole-column test must agree with :meth:`contains`.
        """
        contains = self.contains
        tick = 0
        try:
            for tick, value in enumerate(column):
                if value is not ABSENT and not contains(value):
                    return tick
        except Exception:  # noqa: BLE001 - check_value raises it again
            return tick
        return len(column)

    def default(self) -> Any:
        """A canonical default value of the type (used for delay initials)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, repr(self)))


class AnyType(Type):
    """Top of the lattice; used for dynamically typed DFD ports."""

    name = "any"

    def contains(self, value: Any) -> bool:
        return True

    def first_rejected(self, column: Sequence[Any]) -> int:
        return len(column)

    def default(self) -> Any:
        return 0


class BoolType(Type):
    """Boolean messages (also the type of clock expressions)."""

    name = "bool"

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def default(self) -> Any:
        return False


class IntType(Type):
    """Unbounded abstract integers, optionally range restricted."""

    def __init__(self, low: Optional[int] = None, high: Optional[int] = None):
        self.low = low
        self.high = high

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.low is None and self.high is None:
            return "int"
        return f"int[{self.low}..{self.high}]"

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def default(self) -> Any:
        if self.low is not None and self.low > 0:
            return self.low
        if self.high is not None and self.high < 0:
            return self.high
        return 0


class FloatType(Type):
    """Abstract real-valued messages (physical quantities)."""

    def __init__(self, low: Optional[float] = None, high: Optional[float] = None):
        self.low = low
        self.high = high

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.low is None and self.high is None:
            return "float"
        return f"float[{self.low}..{self.high}]"

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        # only a float can be NaN; float() of a huge int would overflow
        if isinstance(value, float) and math.isnan(value):
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def first_rejected(self, column: Sequence[Any]) -> int:
        # an all-float column is accepted from its sum, minimum and maximum
        # in C: a NaN makes the sum NaN, and exact floats are never bools
        present = column
        kinds = set(map(type, column))
        if type(ABSENT) in kinds:
            kinds.discard(type(ABSENT))
            present = [value for value in column if value is not ABSENT]
        if not present:
            return len(column)
        if kinds == {float}:
            total = sum(present)
            if total == total \
                    and (self.low is None or self.low <= min(present)) \
                    and (self.high is None or max(present) <= self.high):
                return len(column)
        return super().first_rejected(column)

    def default(self) -> Any:
        if self.low is not None and self.low > 0:
            return float(self.low)
        if self.high is not None and self.high < 0:
            return float(self.high)
        return 0.0


class EnumType(Type):
    """Problem-specific enumeration (e.g. LockStatus, CrashStatus)."""

    def __init__(self, name: str, literals: Sequence[str]):
        if not literals:
            raise TypeCheckError(f"enumeration {name!r} needs at least one literal")
        if len(set(literals)) != len(literals):
            raise TypeCheckError(f"enumeration {name!r} has duplicate literals")
        self._name = name
        self.literals: Tuple[str, ...] = tuple(literals)

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._name

    def contains(self, value: Any) -> bool:
        return isinstance(value, str) and value in self.literals

    def default(self) -> Any:
        return self.literals[0]

    def ordinal(self, literal: str) -> int:
        """Integer encoding of *literal* (used by implementation mapping)."""
        try:
            return self.literals.index(literal)
        except ValueError as exc:
            raise TypeCheckError(
                f"{literal!r} is not a literal of enumeration {self._name!r}"
            ) from exc

    def __repr__(self) -> str:
        return f"enum {self._name}{{{', '.join(self.literals)}}}"


class StructType(Type):
    """Record of named, typed fields (composite signals, frames)."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, Type]]):
        self._name = name
        self.fields: Tuple[Tuple[str, Type], ...] = tuple(fields)
        names = [f for f, _ in self.fields]
        if len(set(names)) != len(names):
            raise TypeCheckError(f"struct {name!r} has duplicate field names")

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._name

    def field_type(self, field_name: str) -> Type:
        for fname, ftype in self.fields:
            if fname == field_name:
                return ftype
        raise TypeCheckError(f"struct {self._name!r} has no field {field_name!r}")

    def contains(self, value: Any) -> bool:
        if not isinstance(value, dict):
            return False
        if set(value.keys()) != {fname for fname, _ in self.fields}:
            return False
        return all(ftype.contains(value[fname]) for fname, ftype in self.fields)

    def default(self) -> Any:
        return {fname: ftype.default() for fname, ftype in self.fields}

    def __repr__(self) -> str:
        inner = ", ".join(f"{fname}: {ftype!r}" for fname, ftype in self.fields)
        return f"struct {self._name}{{{inner}}}"


#: Shared singletons for the unparameterised types.
ANY = AnyType()
BOOL = BoolType()
INT = IntType()
FLOAT = FloatType()


def is_assignable(source: Type, target: Type) -> bool:
    """Return True if a message of type *source* may flow into *target*.

    The relation is the natural subtyping on the abstract lattice:
    everything is assignable to ``any``; ``bool`` and range-restricted
    integers are assignable to wider integers; integers are assignable to
    floats; enums and structs are assignable only to equal types (or ``any``).
    """
    if isinstance(target, AnyType):
        return True
    if isinstance(source, AnyType):
        # A dynamically typed output may feed anything; checked at runtime.
        return True
    if isinstance(source, BoolType):
        return isinstance(target, BoolType)
    if isinstance(source, IntType):
        if isinstance(target, FloatType):
            return _range_within(source.low, source.high, target.low, target.high)
        if isinstance(target, IntType):
            return _range_within(source.low, source.high, target.low, target.high)
        return False
    if isinstance(source, FloatType):
        return isinstance(target, FloatType) and _range_within(
            source.low, source.high, target.low, target.high)
    if isinstance(source, EnumType):
        return isinstance(target, EnumType) and source == target
    if isinstance(source, StructType):
        return isinstance(target, StructType) and source == target
    return False


def _range_within(src_low, src_high, dst_low, dst_high) -> bool:
    """True if [src_low, src_high] is inside [dst_low, dst_high] (None = inf)."""
    if dst_low is not None and (src_low is None or src_low < dst_low):
        return False
    if dst_high is not None and (src_high is None or src_high > dst_high):
        return False
    return True


def unify(first: Type, second: Type) -> Type:
    """Least upper bound of two abstract types.

    Used by the DFD type inference: the type of a dynamically typed port is
    the unification of the types flowing into it.  Raises
    :class:`TypeCheckError` if the types have no common supertype other than
    ``any`` being required on one side.
    """
    if first == second:
        return first
    if isinstance(first, AnyType):
        return second
    if isinstance(second, AnyType):
        return first
    if isinstance(first, BoolType) and isinstance(second, BoolType):
        return BOOL
    numeric = (IntType, FloatType)
    if isinstance(first, numeric) and isinstance(second, numeric):
        low = _merge_bound(first.low, second.low, min)
        high = _merge_bound(first.high, second.high, max)
        if isinstance(first, FloatType) or isinstance(second, FloatType):
            return FloatType(low, high)
        return IntType(low, high)
    raise TypeCheckError(f"cannot unify types {first!r} and {second!r}")


def _merge_bound(a, b, pick):
    if a is None or b is None:
        return None
    return pick(a, b)


def check_value(value: Any, expected: Type, context: str = "") -> None:
    """Raise :class:`TypeCheckError` if *value* is present and ill-typed."""
    if is_absent(value):
        return
    if not expected.contains(value):
        where = f" on {context}" if context else ""
        raise TypeCheckError(
            f"value {value!r} is not a member of type {expected!r}{where}")


def infer_type(value: Any) -> Type:
    """Infer the most specific abstract type of a concrete message value."""
    if is_absent(value):
        return ANY
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return IntType(value, value)
    if isinstance(value, float):
        return FloatType(value, value)
    if isinstance(value, str):
        return EnumType("anonymous", [value])
    if isinstance(value, dict):
        return StructType("anonymous",
                          [(k, infer_type(v)) for k, v in sorted(value.items())])
    raise TypeCheckError(f"cannot infer an AutoMoDe type for value {value!r}")


@dataclass
class TypeEnvironment:
    """Named type definitions shared by a model (enums, structs, aliases)."""

    definitions: dict = field(default_factory=dict)

    def define(self, name: str, typ: Type) -> Type:
        if name in self.definitions:
            raise TypeCheckError(f"type {name!r} is already defined")
        self.definitions[name] = typ
        return typ

    def lookup(self, name: str) -> Type:
        try:
            return self.definitions[name]
        except KeyError as exc:
            raise TypeCheckError(f"unknown type {name!r}") from exc

    def define_enum(self, name: str, literals: Iterable[str]) -> EnumType:
        return self.define(name, EnumType(name, list(literals)))  # type: ignore[return-value]

    def names(self):
        return sorted(self.definitions)

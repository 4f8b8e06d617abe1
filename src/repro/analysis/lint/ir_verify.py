"""Static dataflow verification of flat-schedule op programs.

The :class:`~repro.simulation.schedule_ir.FlatSchedule` IR is the substrate
every compiled execution shares (the flat backend runs it directly; the
native backend emits C from it).  At that level "the model
is well-formed" becomes concrete dataflow obligations over the slot
environment, and this module discharges them *statically*, by abstract
interpretation of the op program:

* every slot is proven written-before-read under **every** gate/clock
  configuration -- gate regions are analysed as *may-skip*, so a slot
  assigned only inside a gated region is at best *maybe-written* after the
  join (``ir-read-before-write`` / ``ir-never-written``);
* reads that may observe an absent slot because a gate skipped its writer
  are collected as the codegen proof obligation "these slots must be
  ABSENT-initialized" (``ir-may-skip-read``, one aggregated info finding
  -- absence is *legal* in this semantics, the obligation is on code
  generators, not on models);
* dead stores (``ir-dead-store``), same-tick write-write conflicts
  (``ir-write-write``), malformed gate jumps and gate regions that cross
  instead of nesting (``ir-gate-structure``) and
  gate regions whose clock provably never fires (``ir-unreachable-op``);
* correction barriers: every scratch-tracked run op must be covered by a
  matching barrier entry and vice versa, and untracked non-feedthrough
  leaves must not have late producers writing their inputs
  (``ir-correction-unmatched`` / ``ir-correction-missing`` /
  ``ir-correction-dead``);

The verifier never executes a tick and never calls a step closure; it
reads only the program tuples, the specs and the leaves' static metadata.
Compiler-produced schedules are expected to verify clean (the mutation
self-tests in ``tests/test_lint_ir.py`` doctor programs to prove each rule
actually fires).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ...core.clocks import EventClock
from ...core.validation import Severity
from ...simulation.schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY,
                                       OP_CORRECT, OP_EXPR, OP_GATE, OP_RUN,
                                       FlatSchedule)
from .findings import Finding, LintReport
from .registry import get_rule

# Abstract slot states of the dataflow lattice.
_UNWRITTEN, _MAYBE, _WRITTEN = 0, 1, 2


def _finding(rule_id: str, message: str, element: str = "",
             suggestion: str = "",
             severity: Optional[Severity] = None,
             **location: Any) -> Finding:
    rule = get_rule(rule_id)
    if severity is None:
        severity = rule.default_severity if rule else Severity.WARNING
    return Finding(rule=rule_id, severity=severity, message=message,
                   element=element, suggestion=suggestion,
                   location={k: v for k, v in location.items()
                             if v is not None})


def _op_events(op: Tuple[Any, ...],
               index: int = 0) -> List[Tuple[str, int, Any]]:
    """The ordered slot events of one op: ``(kind, slot, origin)``.

    Mirrors the execution order of the generated ``FlatSchedule.step``
    exactly: run/expr ops read their input spec, write their outputs, then run
    their post-propagation copies pair by pair; copy ops interleave reads
    and writes pair by pair (fused chains are order-dependent).

    Write events carry an *origin*: ``("new", token)`` for a freshly
    computed value, ``("copy", src)`` for a forwarded one.  The dataflow
    pass resolves copy origins transitively -- the flattener routinely
    forwards one produced value to the same slot twice (post-propagation
    pairs plus boundary copies), which is redundant, not a conflict, and
    must not trip ``ir-write-write``.
    """
    code = op[0]
    events: List[Tuple[str, int, Any]] = []
    if code == OP_RUN:
        _, _leaf, _fn, in_spec, out_spec, post, _si = op
        # a correction-tracked run reads provisional (possibly still
        # absent) inputs by design: the barrier re-runs it with the final
        # values, so these reads are exempt from write-before-read ("cr")
        read_kind = "cr" if _si >= 0 else "r"
        events.extend((read_kind, slot, None) for _name, slot in in_spec)
        events.extend(("w", slot, ("new", (index, name)))
                      for name, slot in out_spec)
        for src, dst in post:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_EXPR:
        _, _leaf, in_spec, items, post = op
        events.extend(("r", slot, None) for _name, slot in in_spec)
        events.extend(("w", slot, ("new", (index, slot)))
                      for slot, _source in items if slot >= 0)
        for src, dst in post:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_COPY:
        for src, dst in op[1]:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_BUF_READ:
        events.extend(("w", dst, ("new", (index, "buf", buf)))
                      for buf, dst in op[1])
    elif code == OP_BUF_WRITE:
        events.extend(("r", src, None) for src, _index in op[1])
    elif code == OP_CORRECT:
        for _si, _leaf, _fn, in_spec in op[1]:
            events.extend(("r", slot, None) for _name, slot in in_spec)
    return events


def _gate_clock(predicate: Any) -> Any:
    """Recover the abstract clock behind a gate predicate, if possible.

    Compiler-produced gates store ``PatternCache.at`` bound methods, whose
    ``__self__.clock`` is the original :class:`~repro.core.clocks.Clock`.
    Hand-built predicates return ``None`` (no reachability claims made).
    """
    cache = getattr(predicate, "__self__", None)
    return getattr(cache, "clock", None)


def _clock_never_fires(clock: Any) -> bool:
    """True only when the gate clock *provably* never fires.

    Decidable cases: an empty :class:`EventClock` (no ticks at all) and a
    periodic clock with no present tick across two hyperperiods (defensive
    -- current periodic clock classes always fire).  Data-dependent
    predicates are never flagged.
    """
    if clock is None:
        return False
    if isinstance(clock, EventClock):
        return not clock.ticks
    if clock.is_periodic() and clock.period:
        horizon = clock.phase + 2 * clock.period
        return not any(clock.at(tick) for tick in range(horizon))
    return False


def _slot_name(schedule: FlatSchedule, slot: int) -> str:
    names = schedule.slot_names
    if 0 <= slot < len(names):
        return names[slot]
    return f"slot#{slot}"


def lint_flat_schedule(schedule: FlatSchedule,
                       subject: Optional[str] = None) -> LintReport:
    """Run every IR dataflow rule over *schedule* and report findings."""
    report = LintReport(subject or
                        f"flat schedule of {schedule.component.name!r}")
    program = schedule.program
    n_ops = len(program)
    input_slots = {slot for _name, slot in schedule.input_spec}
    output_slots = [slot for _name, slot in schedule.output_spec]

    # -- global write/read maps (gates ignored: may-execute) ---------------
    writes_by_slot: Dict[int, List[int]] = {}
    reads_by_slot: Dict[int, List[int]] = {}
    for index, op in enumerate(program):
        for kind, slot, _origin in _op_events(op, index):
            target = writes_by_slot if kind == "w" else reads_by_slot
            target.setdefault(slot, []).append(index)  # "r" and "cr" read
    for slot in output_slots:
        reads_by_slot.setdefault(slot, []).append(n_ops)

    # -- gate structure + unreachable regions ------------------------------
    # region_stack entries: (join target, snapshot of slot states)
    bad_gates: Set[int] = set()
    open_gates: List[Tuple[int, int]] = []  # (gate op, jump target)
    for index, op in enumerate(program):
        while open_gates and open_gates[-1][1] <= index:
            open_gates.pop()
        if op[0] != OP_GATE:
            continue
        target = op[2]
        if not index < target <= n_ops:
            bad_gates.add(index)
            report.add(_finding(
                "ir-gate-structure",
                f"gate at op {index} jumps to {target}, outside the legal "
                f"range ({index + 1}..{n_ops})",
                element=f"op {index}", op=index, target=target))
            continue
        if open_gates and target > open_gates[-1][1]:
            outer, outer_target = open_gates[-1]
            bad_gates.add(index)
            report.add(_finding(
                "ir-gate-structure",
                f"gate at op {index} jumps to {target}, past the end "
                f"({outer_target}) of the region of the enclosing gate at "
                f"op {outer}: gate regions must nest",
                element=f"op {index}", op=index, target=target,
                enclosing=outer))
            continue
        open_gates.append((index, target))
        clock = _gate_clock(op[1])
        if _clock_never_fires(clock):
            report.add(_finding(
                "ir-unreachable-op",
                f"ops {index + 1}..{target - 1} are unreachable: gate "
                f"clock {clock.expression()} never fires",
                element=f"op {index}",
                suggestion="remove the gated subtree or give its clock "
                           "at least one present tick",
                op=index, region=[index + 1, target - 1]))

    # -- abstract interpretation of the slot environment -------------------
    states = [_UNWRITTEN] * schedule.n_slots
    #: provenance of each slot's current value; distinct origins in a
    #: same-tick overwrite are a conflict, equal ones redundant forwarding
    origins: List[Any] = [None] * schedule.n_slots
    for name, slot in schedule.input_spec:
        states[slot] = _WRITTEN
        origins[slot] = ("input", name)
    read_since_write = [True] * schedule.n_slots
    last_write_op = [-1] * schedule.n_slots
    region_stack: List[Tuple[int, List[int], List[Any]]] = []

    read_before_write: Dict[int, int] = {}   # slot -> first offending op
    never_written: Dict[int, int] = {}
    maybe_absent: Dict[int, int] = {}
    write_write: Dict[int, Tuple[int, int]] = {}  # slot -> (op, earlier op)

    def join_regions(index: int) -> None:
        while region_stack and region_stack[-1][0] == index:
            _target, snapshot, origin_snapshot = region_stack.pop()
            for slot in range(schedule.n_slots):
                if states[slot] != snapshot[slot]:
                    states[slot] = _MAYBE
                    origins[slot] = ("join", index, slot)
                elif origins[slot] != origin_snapshot[slot]:
                    origins[slot] = ("join", index, slot)

    for index in range(n_ops):
        join_regions(index)
        op = program[index]
        if op[0] == OP_GATE:
            if index not in bad_gates:
                region_stack.append((op[2], states[:], origins[:]))
            continue
        for kind, slot, origin in _op_events(op, index):
            if kind in ("r", "cr"):
                state = states[slot]
                if kind == "r" and state == _UNWRITTEN:
                    if writes_by_slot.get(slot):
                        read_before_write.setdefault(slot, index)
                    else:
                        never_written.setdefault(slot, index)
                elif kind == "r" and state == _MAYBE:
                    maybe_absent.setdefault(slot, index)
                read_since_write[slot] = True
            else:
                if origin[0] == "copy":
                    src = origin[1]
                    origin = origins[src] if origins[src] is not None \
                        else ("slot", src)
                if states[slot] == _WRITTEN \
                        and not read_since_write[slot] \
                        and origin != origins[slot]:
                    write_write.setdefault(slot,
                                           (index, last_write_op[slot]))
                states[slot] = _WRITTEN
                origins[slot] = origin
                read_since_write[slot] = False
                last_write_op[slot] = index
    join_regions(n_ops)
    for slot in output_slots:
        if states[slot] == _UNWRITTEN and not writes_by_slot.get(slot) \
                and slot not in input_slots:
            never_written.setdefault(slot, n_ops)

    for slot, index in sorted(read_before_write.items()):
        report.add(_finding(
            "ir-read-before-write",
            f"op {index} reads slot {slot} ({_slot_name(schedule, slot)}) "
            f"before its first writer, op {min(writes_by_slot[slot])}, "
            f"has run",
            element=_slot_name(schedule, slot),
            suggestion="the program is not topologically ordered; "
                       "recompile the schedule",
            op=index, slot=slot, first_writer=min(writes_by_slot[slot])))
    for slot, index in sorted(never_written.items()):
        where = ("the boundary output spec" if index == n_ops
                 else f"op {index}")
        report.add(_finding(
            "ir-never-written",
            f"{where} reads slot {slot} ({_slot_name(schedule, slot)}) "
            f"which no op and no boundary input ever writes: the value is "
            f"always absent",
            element=_slot_name(schedule, slot),
            suggestion="connect the port or drop it from the model",
            op=None if index == n_ops else index, slot=slot))
    for slot, (index, earlier) in sorted(write_write.items()):
        report.add(_finding(
            "ir-write-write",
            f"op {index} overwrites slot {slot} "
            f"({_slot_name(schedule, slot)}) already written by op "
            f"{earlier} in the same tick with no read in between",
            element=_slot_name(schedule, slot), op=index, slot=slot,
            earlier_writer=earlier))
    if maybe_absent:
        sample = [(_slot_name(schedule, slot), slot)
                  for slot in sorted(maybe_absent)[:8]]
        report.add(_finding(
            "ir-may-skip-read",
            f"{len(maybe_absent)} slot(s) are read after a gate region "
            f"that may skip their writer; generated code must initialize "
            f"every slot to ABSENT each tick "
            f"(e.g. {', '.join(name for name, _ in sample)})",
            element=report.subject,
            slots=sorted(maybe_absent), sample=sample))

    # -- dead stores (slot granularity, may-read over-approximated) --------
    for slot in sorted(writes_by_slot):
        if not reads_by_slot.get(slot):
            report.add(_finding(
                "ir-dead-store",
                f"slot {slot} ({_slot_name(schedule, slot)}) is written by "
                f"op(s) {writes_by_slot[slot]} but never read: the computed "
                f"value is unused",
                element=_slot_name(schedule, slot),
                slot=slot, writers=writes_by_slot[slot]))

    # -- correction barriers -----------------------------------------------
    report.extend(_check_corrections(schedule, writes_by_slot))
    return report


def _check_corrections(schedule: FlatSchedule,
                       writes_by_slot: Dict[int, List[int]]) -> List[Finding]:
    """Verify correction-barrier coverage against the late-producer sets."""
    findings: List[Finding] = []
    program = schedule.program
    tracked: Dict[int, Tuple[int, int, Tuple[Tuple[str, int], ...]]] = {}
    covered: Set[int] = set()

    for index, op in enumerate(program):
        if op[0] == OP_RUN and op[6] >= 0:
            tracked[op[6]] = (index, op[1], op[3])

    def leaf_label(leaf_index: int) -> str:
        leaf = schedule.leaves[leaf_index]
        return f"{leaf.steps_prefix}/{leaf.component.name}"

    for index, op in enumerate(program):
        if op[0] != OP_CORRECT:
            continue
        for si, leaf_index, _fn, in_spec in op[1]:
            run = tracked.get(si)
            if run is None or run[0] > index or run[1] != leaf_index \
                    or run[2] != in_spec:
                reason = ("no run op tracks scratch slot "
                          f"{si}" if run is None else
                          "the tracked run op runs after the barrier"
                          if run[0] > index else
                          "the tracked run op is a different leaf"
                          if run[1] != leaf_index else
                          "the barrier re-reads a different input spec "
                          "than the run op consumed")
                findings.append(_finding(
                    "ir-correction-unmatched",
                    f"correction entry for leaf "
                    f"{leaf_label(leaf_index)} at op {index}: {reason}",
                    element=leaf_label(leaf_index),
                    op=index, scratch=si))
                continue
            covered.add(si)
            run_index = run[0]
            live = any(any(run_index < w < index
                           for w in writes_by_slot.get(slot, ()))
                       for _name, slot in in_spec)
            if not live:
                findings.append(_finding(
                    "ir-correction-dead",
                    f"correction entry for leaf {leaf_label(leaf_index)} "
                    f"at op {index} is vacuous: no op between the run "
                    f"(op {run_index}) and the barrier writes any of its "
                    f"input slots",
                    element=leaf_label(leaf_index),
                    op=index, scratch=si, run=run_index))

    for si, (run_index, leaf_index, _in_spec) in sorted(tracked.items()):
        if si not in covered:
            findings.append(_finding(
                "ir-correction-missing",
                f"run op {run_index} (leaf {leaf_label(leaf_index)}) "
                f"tracks scratch slot {si} but no correction barrier "
                f"covers it: late input changes are silently dropped",
                element=leaf_label(leaf_index),
                op=run_index, scratch=si))

    # untracked non-feedthrough leaves with late producers
    for index, op in enumerate(program):
        if op[0] != OP_RUN or op[6] >= 0:
            continue
        leaf = schedule.leaves[op[1]]
        deps = leaf.component.instantaneous_dependencies()
        if any(deps.values()):
            continue  # feedthrough leaves re-read nothing from tick-start
        late = sorted({w for _name, slot in op[3]
                       for w in writes_by_slot.get(slot, ()) if w > index})
        if late:
            findings.append(_finding(
                "ir-correction-missing",
                f"non-feedthrough leaf {leaf_label(op[1])} (run op {index}) "
                f"has late producers (op(s) {late}) writing its input "
                f"slots but is not correction-tracked: its state update "
                f"saw stale inputs",
                element=leaf_label(op[1]),
                op=index, late_writers=late))
    return findings

"""The flat-schedule IR: one global step program over slot-based environments.

AutoMoDe's operational-architecture level is a *flattened* network of
communicating blocks scheduled as one global cluster plan (paper Sec. 2.4):
the hierarchical DFD/SSD description is a design artefact, while the
deployed system executes a single linear schedule.  The reference
interpreter (:mod:`repro.simulation.engine`) mirrors the *hierarchy* at run
time -- every :class:`~repro.core.components.CompositeComponent` re-derives
its plan and re-marshals a dict environment at each boundary, every tick.
This module mirrors the *deployment* instead: the whole hierarchy is
compiled once into a :class:`FlatSchedule`, a linear program of opcodes
over a flat slot environment.  It is the only compiler: every root and
every leaf is compiled here.

**Slot-based environments.**  Every port of every component occurrence in
the hierarchy is assigned a fixed integer slot.  A tick allocates one flat
``values`` list (all :data:`~repro.core.values.ABSENT`), scatters the
boundary inputs into their slots and runs the program; channels are integer
slot copies instead of ``(component, port)`` dict keys, and each leaf's
input environment is built exactly once from its slots -- no per-composite
dict construction, key translation or input re-filtering.

**The program.**  Eight opcodes cover the full semantics of the
interpreter's composites, clock gates and mode-transition diagrams:

* ``run``   -- execute one leaf step (gather inputs from slots, call the
  leaf's compiled step, scatter outputs to slots, forward its
  instantaneous channels); an MTD's mode controller is one;
* ``expr``  -- evaluate an expression block's output expressions straight
  into its output slots, their generated source
  (:class:`~repro.core.expr_compile.ExpressionSource`) inlined into the
  step;
* ``copy``  -- instantaneous channel propagation (boundary forwarding and
  boundary-output collection) as slot-to-slot copies;
* ``buf_read`` / ``buf_write`` -- delayed channels: seed destination slots
  from the previous tick's buffers / commit this tick's source values;
* ``gate``  -- the gating predicate of a flattened
  :class:`~repro.simulation.engine.ClockGatedComponent` subtree: when the
  clock is silent at this tick, jump over the subtree's ops (outputs stay
  absent, leaf states and buffers are carried over unchanged);
* ``select`` -- the region of one MTD mode behaviour (paper Sec. 3.3),
  laid out like ``gate``: ``[OP_SELECT, (index_slot, position), target]``
  jumps over the behaviour's ops unless the mode controller wrote the
  mode's *position* in ``modes()`` into *index_slot* this tick;
* ``correct`` -- the per-composite correction barrier over its *regions*:
  a non-feedthrough entry a later producer feeds runs as an ordinary
  region of ops that starts with a copy of the inputs it saw; when the
  final inputs differ, the barrier re-runs the region from its tick-start
  state with the final values, mirroring the reference interpreter's
  second pass.

**Execution.**  The program is not interpreted by an opcode loop: the
step function is straight-line Python source generated from one body
template per opcode (:mod:`repro.simulation.op_emit`) and exec-compiled
once per schedule.  The whole-horizon loop behind
:meth:`FlatSchedule.run`, its observed variant (op profiling and flight
recording, :meth:`~repro.obs.context.Telemetry.observed_horizon`) and
the native backend's trampoline replays are generated from the same
templates, and so is one re-run function per correction region; the
per-tick step is generated only when a ``run_stepped`` caller asks for
it.

**State.**  Run-time state is a :class:`FlatState`: one flat list of leaf
states plus one flat list of delayed-channel buffers.  A compiled program
starts only from :meth:`FlatSchedule.initial_state`, and the step is an
``(inputs, state, tick) -> (outputs, state)`` function over that state
alone: :func:`~repro.simulation.engine.run_stepped` callers pass it as
``initial_state``.  A leaf's state is the one its step runs over -- a mode
controller's is ``{"mode": name}``, and a mode behaviour's leaves are
leaves of the same program -- so the interpreter's nested dict states
never reach a compiled program.

**Mode histories.**  Every leaf that carries an MTD or STD -- a mode
controller, an STD, a custom-``react`` leaf with a machine inside -- and
a bare MTD or atomic root has a readout slot
(:attr:`FlatSchedule.readout_spec`): its ``run`` op writes the leaf's new
state there, and a correction barrier copies back the readout slots of
the region it re-ran.  The horizon
loops return the readout slots as columns beside the outputs, ABSENT on
the ticks the leaf's region was skipped, and
:meth:`FlatSchedule.decode_modes` turns them into the trace's mode
histories after the run: the paths and values of
:func:`~repro.simulation.engine.active_mode_paths`, without a per-tick
observer.

**Leaves.**  The flattener compiles every leaf itself, into one op: a
pure expression block into an ``expr`` op, every other leaf into a ``run``
op over a step it builds -- an MTD's mode controller and an STD get
per-mode / per-state transition tables with guards, actions and emissions
compiled to generated Python functions (:mod:`repro.core.expr_compile`),
and an atomic block or a component with a custom ``react`` (an MTD or
STD subclass with one included) runs its own ``react``.  A clock gate
around a leaf is a ``gate`` region like any other, and every root
compiles, a bare leaf root to a one-op program.  There is no nested
program: a composite, gate or MTD that a later producer feeds is hoisted
like any other, as a correction region of the one linear program (a
tracked STD or atomic leaf is a one-op region).

Compilation is **iterative** (an explicit stack of emission generators plus
the worklist helpers of :mod:`repro.core.components`), so hierarchies
thousands of levels deep compile and run without hitting the Python
recursion limit -- depths the recursive engines cannot even build an
initial state for.
"""

from __future__ import annotations

import functools
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from ..core.components import (Component, CompositeComponent,
                               ExpressionComponent,
                               subtree_structure_tokens)
from ..core.errors import ModelError, SimulationError
from ..core.expr_compile import ExpressionSource
from ..core.values import ABSENT, is_present
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram
from ..obs.context import active as _obs_active
from ..obs.context import maybe_span
from .engine import (ClockGatedComponent, StimulusSpec, active_mode_paths,
                     run_horizon)
from .trace import SimulationTrace

#: A leaf step: ``(inputs, state, tick) -> (outputs, next_state)``.
StepFunction = Callable[[Mapping[str, Any], Any, int], Tuple[Dict[str, Any], Any]]

#: Opcodes of the flat program (tuple-encoded; see :mod:`.op_emit`).
(OP_RUN, OP_EXPR, OP_COPY, OP_BUF_READ, OP_BUF_WRITE, OP_GATE,
 OP_CORRECT, OP_SELECT) = range(8)

_OP_NAMES = {OP_RUN: "run", OP_EXPR: "expr", OP_COPY: "copy",
             OP_BUF_READ: "buf_read", OP_BUF_WRITE: "buf_write",
             OP_GATE: "gate", OP_CORRECT: "correct", OP_SELECT: "select"}

#: The region opcodes: ``[code, condition, jump target]``.
REGION_OPS = (OP_GATE, OP_SELECT)


class FlatState:
    """Run-time state of a flat program: leaf states + delayed buffers.

    Positional: ``leaf_states[i]`` belongs to the i-th leaf of the
    schedule, ``buffers[j]`` to the j-th delayed channel.  Instances are
    treated as immutable by the step function (each tick returns a new
    one), which is what keeps the correction barrier's access to the
    tick-start state trivially correct.
    """

    __slots__ = ("leaf_states", "buffers")

    def __init__(self, leaf_states: List[Any], buffers: List[Any]):
        self.leaf_states = leaf_states
        self.buffers = buffers

    def __repr__(self) -> str:
        return (f"FlatState(leaves={len(self.leaf_states)}, "
                f"buffers={len(self.buffers)})")


class _Leaf:
    """One leaf of the flat program and the step its ``run`` op calls.

    ``step`` is the leaf's ``(inputs, state, tick) -> (outputs, state)``
    step over the state ``initial_state()`` starts: an MTD's mode
    controller, an STD's transition tables or a component's own
    ``react``.  A pure expression block has no step (``None``): its
    ``expr`` op evaluates it inline.  ``modes`` holds the ``(controller
    leaf, mode name)`` of every enclosing ``select`` region."""

    __slots__ = ("index", "component", "run_kind", "step", "initial_state",
                 "path", "mode_path", "modes")

    def __init__(self, index: int, component: Component, run_kind: str,
                 step: Optional[StepFunction],
                 initial_state: Callable[[], Any],
                 path: str, mode_path: str,
                 modes: Tuple[Tuple[int, str], ...]):
        self.index = index
        self.component = component
        self.run_kind = run_kind
        self.step = step
        self.initial_state = initial_state
        self.path = path
        self.mode_path = mode_path
        self.modes = modes


def is_flattenable(component: Component) -> bool:
    """True if the flattener hoists *component* into its parent's program.

    Hoisted nodes are composites, clock gates (a ``gate`` region around
    whatever they wrap) and MTDs (a mode controller plus one ``select``
    region per mode behaviour) with their default ``react``.  Everything
    else -- STDs, atomic blocks, subclasses with a custom ``react`` -- is a
    leaf, one ``expr`` or ``run`` op (see :func:`compile_flat`).
    """
    if isinstance(component, ClockGatedComponent):
        return type(component).react is ClockGatedComponent.react
    if isinstance(component, ModeTransitionDiagram):
        return type(component).react is ModeTransitionDiagram.react
    return (isinstance(component, CompositeComponent)
            and type(component).react is CompositeComponent.react)


def _is_expression_block(component: Component) -> bool:
    """True for a pure expression block: one inline ``expr`` op."""
    return (isinstance(component, ExpressionComponent)
            and type(component).react is ExpressionComponent.react)


def _mode_controller_step(mtd: ModeTransitionDiagram) -> StepFunction:
    """The step of an MTD's mode controller (paper Sec. 3.3): per-mode
    transition tables with guards compiled to generated Python functions
    (:mod:`repro.core.expr_compile`).

    It emits the active mode's name (``#mode``) and its position in
    ``modes()`` (``#index``, the condition of the ``select`` regions) over
    the state ``{"mode": name}``.  Guards are evaluated against the
    per-tick input dict directly: the reference ``react`` copies it first,
    but the evaluator never mutates its environment.
    """
    if not mtd.modes():
        raise ModelError(f"MTD {mtd.name!r} has no modes")
    compiler = mtd._evaluator.compile  # noqa: SLF001 - same evaluator
    results = {mode.name: ({"#mode": mode.name, "#index": position},
                           {"mode": mode.name})
               for position, mode in enumerate(mtd.modes())}
    transition_table = {
        mode.name: tuple((compiler(t.guard), results[t.target])
                         for t in mtd.transitions_from(mode.name))
        for mode in mtd.modes()}

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        current = state["mode"]
        for guard, result in transition_table[current]:
            value = guard(inputs)
            if is_present(value) and bool(value):
                return result
        return results[current]

    return step


#: Action-target classification for compiled STD transitions.
_ASSIGN_VARIABLE, _ASSIGN_OUTPUT, _ASSIGN_INVALID = 0, 1, 2


def _std_step(std: StateTransitionDiagram) -> StepFunction:
    """The step of an STD: per-state sorted transition tables with
    compiled guards, actions and emissions, over the STD's own state.

    Tick-for-tick identical to :meth:`StateTransitionDiagram.react`,
    including the invalid-action-target :class:`ModelError` path (classified
    at compile time, raised when the offending transition fires) and the
    ``state``-port emission precedence (explicit actions beat state
    emissions beat the automatic state-name emission).
    """
    compiler = std._evaluator.compile  # noqa: SLF001 - same evaluator
    std_name = std.name
    output_names = tuple(std.output_names())
    output_set = frozenset(output_names)
    variable_names = frozenset(std.variables())
    has_variables = bool(variable_names)
    state_port = std.STATE_PORT if std.STATE_PORT in output_set else None

    transition_table: Dict[str, Tuple[Any, ...]] = {}
    emission_table: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
    for std_state in std.states():
        rows = []
        for transition in std.transitions_from(std_state.name):
            actions = []
            for target_name, expression in transition.actions.items():
                if target_name in variable_names:
                    kind = _ASSIGN_VARIABLE
                elif target_name in output_set:
                    kind = _ASSIGN_OUTPUT
                else:
                    kind = _ASSIGN_INVALID
                actions.append((kind, target_name, compiler(expression)))
            rows.append((compiler(transition.guard), transition.target,
                         tuple(actions)))
        transition_table[std_state.name] = tuple(rows)
        # react() skips emissions to non-output names; filter at compile time
        emission_table[std_state.name] = tuple(
            (port_name, compiler(expression))
            for port_name, expression in std_state.emissions.items()
            if port_name in output_set)

    initial_state_name = std.initial_state_name

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        current = state["state"] or initial_state_name
        variables = state["vars"]
        if has_variables:
            variables = dict(variables)
            environment = dict(variables)
            environment.update(inputs)
        else:
            # No local variables: guards/actions/emissions see the inputs
            # only, and the (empty) vars dict is never mutated.
            environment = inputs
        outputs: Dict[str, Any] = {name: ABSENT for name in output_names}

        fired = None
        for guard, target, actions in transition_table[current]:
            value = guard(environment)
            if is_present(value) and bool(value):
                fired = (target, actions)
                break

        variables_changed = False
        if fired is not None:
            target, actions = fired
            for kind, target_name, compiled in actions:
                result = compiled(environment)
                if kind == _ASSIGN_VARIABLE:
                    variables[target_name] = result
                    variables_changed = True
                elif kind == _ASSIGN_OUTPUT:
                    outputs[target_name] = result
                else:
                    raise ModelError(
                        f"action target {target_name!r} of STD "
                        f"{std_name!r} is neither a local variable nor "
                        "an output port")
            current = target

        if variables_changed:
            emission_environment = dict(variables)
            emission_environment.update(inputs)
        else:
            emission_environment = environment
        for port_name, compiled in emission_table[current]:
            if outputs[port_name] is ABSENT:
                outputs[port_name] = compiled(emission_environment)

        if state_port is not None and outputs[state_port] is ABSENT:
            outputs[state_port] = current

        return outputs, {"state": current, "vars": variables}

    return step


class _Flattener:
    """One compile pass: hierarchy -> (ops, slots, leaves, buffers).

    Emission is driven by an explicit stack of generators (one per
    composite/gated node being flattened), so compilation of arbitrarily
    deep hierarchies never recurses in Python.  A single structure-token
    map and instantaneous-dependency cache are shared across every
    execution-plan build of the pass, keeping the whole compile O(n).
    """

    def __init__(self, root: Component):
        self.root = root
        self.n_slots = 0
        self.slot_names: List[str] = []
        self.ops: List[List[Any]] = []
        self.leaves: List[_Leaf] = []
        #: per delayed channel: its initial value
        self.buffer_initials: List[Any] = []
        #: ``(controller leaf, mode name)`` of the open ``select`` regions
        self._modes: List[Tuple[int, str]] = []
        self._deps_cache: Dict[int, Any] = {}
        self._tokens: Dict[int, Any] = {}

    # -- slot allocation ---------------------------------------------------

    def _new_slot(self, label: str) -> int:
        slot = self.n_slots
        self.n_slots += 1
        self.slot_names.append(label)
        return slot

    def _port_slots(self, component: Component,
                    prefix: str) -> Dict[str, int]:
        return {port.name: self._new_slot(f"{prefix}.{port.name}")
                for port in component.ports()}

    # -- emission ----------------------------------------------------------

    def flatten(self) -> "FlatSchedule":
        root = self.root
        in_slots = {name: self._new_slot(f"{root.name}.{name}")
                    for name in root.input_names()}
        out_slots = {name: self._new_slot(f"{root.name}.{name}")
                     for name in root.output_names()}
        stack: List[Iterator[Any]] = [self._emit_node(
            root, in_slots, out_slots, "", root.name)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
            else:
                stack.append(child)
        program = tuple(tuple(op) for op in self.ops)
        input_spec = tuple((name, in_slots[name])
                           for name in root.input_names())
        output_spec = tuple((name, out_slots[name])
                            for name in root.output_names())
        # a leaf carrying an MTD or STD (the traversal of active_mode_paths)
        # and a bare root, whose state may carry trace.mode_history's "mode"
        from ..analysis.mode_analysis import machine_inventory
        readout_spec = tuple(
            (leaf.index, self._new_slot(f"{leaf.path}.#state"))
            for leaf in self.leaves if machine_inventory(leaf.component)
            or (leaf.component is root and leaf.step is not None))
        return FlatSchedule(root, program, self.n_slots, input_spec,
                            output_spec, self.leaves, self.buffer_initials,
                            tuple(self.slot_names), readout_spec)

    def _emit_node(self, component: Component, in_slots: Dict[str, int],
                   out_slots: Dict[str, int], prefix: str, mode_path: str
                   ) -> Iterator[Any]:
        """Emit ops for one node: a gated wrapper, an MTD, a composite or
        a leaf.

        The wrapper's boundary ports *are* the inner component's (same
        names, forwarded 1:1), so gating aliases the slots instead of
        copying: when the gate clock is silent the region is jumped over
        and the (shared) output slots simply stay absent.  An MTD's mode
        behaviours alias its slots the same way.
        """
        path = f"{prefix}/{component.name}" if prefix else component.name
        if not is_flattenable(component):
            self._emit_leaf(component, in_slots, out_slots, prefix, mode_path)
        elif isinstance(component, ClockGatedComponent):
            pattern = component.clock.cached()
            gate = [OP_GATE, pattern.at, -1]
            self.ops.append(gate)
            yield self._emit_node(component.inner, in_slots, out_slots,
                                  path, mode_path)
            gate[2] = len(self.ops)  # jump target: first op after the region
        elif isinstance(component, ModeTransitionDiagram):
            yield self._emit_mtd(component, in_slots, out_slots, path,
                                 mode_path)
        else:
            yield self._emit_composite(component, in_slots, out_slots,
                                       path, mode_path)

    def _new_leaf(self, component: Component, run_kind: str, path: str,
                  mode_path: str, step: Optional[StepFunction] = None,
                  initial_state: Optional[Callable[[], Any]] = None) -> _Leaf:
        leaf = _Leaf(len(self.leaves), component, run_kind, step,
                     initial_state or component.initial_state, path,
                     mode_path, tuple(self._modes))
        self.leaves.append(leaf)
        return leaf

    def _emit_mtd(self, mtd: ModeTransitionDiagram, in_slots: Dict[str, int],
                  out_slots: Dict[str, int], path: str, mode_path: str
                  ) -> Iterator[Any]:
        """The paper's Sec. 3.3 split of an MTD, done at compile time: its
        mode controller (one ``run`` op writing the mode name and its
        position in ``modes()``), one ``select`` region per mode behaviour,
        hoisted into the MTD's own slots, then the mode port, which wins
        over a behaviour's own ``mode`` output as in ``react``."""
        initial_mode = mtd.initial_mode
        leaf = self._new_leaf(mtd, "mtd", path, mode_path,
                              _mode_controller_step(mtd),
                              lambda: {"mode": initial_mode})
        index_slot = self._new_slot(f"{path}.#index")
        out_spec: Tuple[Tuple[str, int], ...] = (("#index", index_slot),)
        mode_port = out_slots.get(mtd.MODE_PORT)
        if mode_port is not None:
            mode_slot = self._new_slot(f"{path}.#mode")
            out_spec += (("#mode", mode_slot),)
        in_spec = tuple((name, in_slots[name]) for name in mtd.input_names())
        self.ops.append([OP_RUN, leaf.index, leaf.step, in_spec, out_spec,
                         ()])
        for position, mode in enumerate(mtd.modes()):
            if mode.behavior is None:
                continue
            select = [OP_SELECT, (index_slot, position), -1]
            self.ops.append(select)
            self._modes.append((leaf.index, mode.name))
            yield self._emit_node(mode.behavior, in_slots, out_slots,
                                  f"{path}/{mode.name}",
                                  f"{mode_path}/{mode.name}")
            self._modes.pop()
            select[2] = len(self.ops)
        if mode_port is not None:
            self.ops.append([OP_COPY, ((mode_slot, mode_port),)])

    def _emit_leaf(self, component: Component, in_slots: Dict[str, int],
                   out_slots: Dict[str, int], prefix: str, mode_path: str,
                   propagate: Tuple[Tuple[int, int], ...] = ()) -> None:
        """Emit one leaf as one ``expr`` op (a pure expression block) or
        ``run`` op, whose step is an STD's transition tables or any other
        component's own ``react``."""
        path = f"{prefix}/{component.name}" if prefix else component.name
        if not component.has_behavior():
            raise SimulationError(
                f"component {path!r} has no executable behaviour")
        in_spec = tuple((name, in_slots[name])
                        for name in component.input_names())
        if _is_expression_block(component):
            # pure expression block: its expressions' source is inlined
            # into the step, evaluated straight into the slots.  No leaf
            # schedule, no step call, no output dict, and no correction
            # tracking -- the state is a passthrough and a non-feedthrough
            # expression reads none of the inputs a late producer could
            # change, so the interpreter's compare-and-rerun is observably
            # a no-op for it.
            leaf = self._new_leaf(component, "expr", path, mode_path)
            functions = component._evaluator.functions  # noqa: SLF001
            # expressions for undeclared ports are still evaluated (the
            # interpreter does, and evaluation may raise) but their
            # values have no slot to land in
            items = tuple((out_slots.get(name, -1),
                           ExpressionSource(expression, functions))
                          for name, expression
                          in component.output_expressions.items())
            self.ops.append([OP_EXPR, leaf.index, in_spec, items, propagate])
            return
        if isinstance(component, StateTransitionDiagram) \
                and type(component).react is StateTransitionDiagram.react:
            leaf = self._new_leaf(component, "std", path, mode_path,
                                  _std_step(component))
        else:
            leaf = self._new_leaf(component, "atomic", path, mode_path,
                                  component.react)
        out_spec = tuple((name, out_slots[name])
                         for name in component.output_names())
        self.ops.append([OP_RUN, leaf.index, leaf.step, in_spec, out_spec,
                         propagate])

    def _emit_composite(self, composite: CompositeComponent,
                        in_slots: Dict[str, int], out_slots: Dict[str, int],
                        path: str, mode_path: str) -> Iterator[Any]:
        token = self._tokens.get(id(composite))
        if token is None:
            self._tokens.update(subtree_structure_tokens(composite))
            token = self._tokens[id(composite)]
        plan = composite.execution_plan(_token=token,
                                        _deps_cache=self._deps_cache)

        port_slots: Dict[str, Dict[str, int]] = {}
        subs: Dict[str, Component] = {}
        for entry in plan.entries:
            sub = composite.subcomponent(entry.name)
            subs[entry.name] = sub
            port_slots[entry.name] = self._port_slots(
                sub, f"{path}/{entry.name}")

        def slot_of(key: Tuple[Optional[str], str]) -> int:
            comp, port = key
            if comp is None:
                slot = in_slots.get(port)
                return out_slots[port] if slot is None else slot
            return port_slots[comp][port]

        # delayed channels: allocate buffers, seed destination slots
        buf_index: Dict[str, int] = {}
        seed_pairs = []
        for channel_name, dst_key, initial in plan.delayed_seed:
            buf_index[channel_name] = index = len(self.buffer_initials)
            self.buffer_initials.append(initial)
            seed_pairs.append((index, slot_of(dst_key)))
        if seed_pairs:
            self.ops.append([OP_BUF_READ, tuple(seed_pairs)])

        # instantaneous boundary-input forwarding
        boundary_pairs = tuple((slot_of(src), slot_of(dst))
                               for src, dst in plan.boundary_propagate)
        if boundary_pairs:
            self.ops.append([OP_COPY, boundary_pairs])

        # Which entries can still receive input values *after* they ran?
        # Only then can the tick-start state update have seen stale inputs,
        # i.e. only then is the correction barrier live.  An entry whose
        # producers all precede it in plan order always sees final inputs,
        # so the interpreter's compare-and-rerun provably never fires for
        # it: such entries need no correction region.
        n_entries = len(plan.entries)
        has_late_producer = [False] * n_entries
        suffix_writes: set = set()
        for index in range(n_entries - 1, -1, -1):
            entry = plan.entries[index]
            suffix_writes |= {dst[0] for _, dst in entry.propagate
                              if dst[0] is not None}
            has_late_producer[index] = entry.name in suffix_writes

        # sub-components in plan order.  A tracked entry (a late producer
        # feeds it, and it has no feedthrough; a pure expression block
        # reads nothing a late producer could change) is a region: a copy
        # of the inputs it saw, then its ops, which the barrier re-runs.
        regions = []
        #: copy pairs the untracked entries' propagation already ran
        forwarded: set = set()
        for index, entry in enumerate(plan.entries):
            sub = subs[entry.name]
            propagate = tuple((slot_of(src), slot_of(dst))
                              for src, dst in entry.propagate)
            slots = port_slots[entry.name]
            sub_in = {name: slots[name] for name in sub.input_names()}
            sub_out = {name: slots[name] for name in sub.output_names()}
            sub_mode = f"{mode_path}/{entry.name}"
            tracked = not entry.has_feedthrough \
                and has_late_producer[index] and not _is_expression_block(sub)
            if tracked:
                seen = tuple((slot, self._new_slot(
                    f"{path}/{entry.name}.{name}#seen"))
                    for name, slot in sub_in.items())
                start, leaves = len(self.ops), len(self.leaves)
                buffers = len(self.buffer_initials)
                self.ops.append([OP_COPY, seen])
            else:
                forwarded.update(propagate)
            hoisted = is_flattenable(sub)
            if hoisted:
                yield self._emit_node(sub, sub_in, sub_out, path, sub_mode)
            else:
                self._emit_leaf(sub, sub_in, sub_out, path, sub_mode,
                                propagate)
            if tracked:
                regions.append((start, len(self.ops),
                                (leaves, len(self.leaves)),
                                (buffers, len(self.buffer_initials)), seen))
            if hoisted and propagate:
                self.ops.append([OP_COPY, propagate])

        # correction barrier for this composite's regions
        if regions:
            self.ops.append([OP_CORRECT, tuple(regions)])

        # boundary-output collection, then delayed commits.  A pair an
        # untracked entry's propagation already ran is not repeated: only
        # its producer writes the source, the barrier writes no slot but
        # readouts, and nothing else targets a boundary output.
        out_copy, out_buf = [], []
        for port_name, is_delayed, channel_name, _initial, src_key \
                in plan.boundary_outputs:
            if is_delayed:
                out_buf.append((buf_index[channel_name], out_slots[port_name]))
            else:
                pair = (slot_of(src_key), out_slots[port_name])
                if pair not in forwarded:
                    out_copy.append(pair)
        if out_copy:
            self.ops.append([OP_COPY, tuple(out_copy)])
        if out_buf:
            self.ops.append([OP_BUF_READ, tuple(out_buf)])
        commit_pairs = tuple((slot_of(src_key), buf_index[channel_name])
                             for channel_name, src_key in plan.delayed_commit)
        if commit_pairs:
            self.ops.append([OP_BUF_WRITE, commit_pairs])


class FlatSchedule:
    """A component hierarchy compiled into one linear slot program.

    ``step`` has the leaf steps' ``(inputs, state, tick) -> (outputs,
    state)`` signature over a :class:`FlatState` that starts as
    :meth:`initial_state`.  The IR is inspectable through
    :meth:`ops_summary` (one line per op, named by hierarchical path) and
    :meth:`op_labels`.

    A ``correct`` op is ``[OP_CORRECT, entries]``, one entry per region
    it may re-run: ``(start, end, (first leaf, end leaf), (first buffer,
    end buffer), seen)``.  Ops ``[start, end)`` are the region; op
    *start* is the copy ``seen`` of the ``(input slot, shadow slot)``
    pairs it read, and the region's leaves and delayed buffers are the
    two index ranges.
    """

    kind = "flat"

    def __init__(self, component: Component, program: Tuple[Tuple[Any, ...], ...],
                 n_slots: int, input_spec: Tuple[Tuple[str, int], ...],
                 output_spec: Tuple[Tuple[str, int], ...],
                 leaves: List[_Leaf], buffer_initials: List[Any],
                 slot_names: Tuple[str, ...] = (),
                 readout_spec: Tuple[Tuple[int, int], ...] = ()):
        self.component = component
        self.program = program
        self.n_slots = n_slots
        self.leaves = leaves
        #: the initial value of every delayed-channel buffer
        self.buffer_initials = buffer_initials
        #: hierarchical ``path.port`` label per slot (forensics decoding)
        self.slot_names = slot_names
        #: ``(leaf index, slot)`` of every leaf whose ``run`` op (and
        #: region re-run) writes its new state into a readout slot, in
        #: leaf order: the leaves carrying an MTD or STD, and a bare root
        #: (see :meth:`decode_modes`)
        self.readout_spec = readout_spec
        self._input_spec = input_spec
        self._output_spec = output_spec
        #: the gate predicates, in program order (the gate plane's columns)
        self.gate_predicates = tuple(op[1] for op in program
                                     if op[0] == OP_GATE)
        #: tick-major gate plane of the longest horizon asked for so far
        self._gate_plane = b""
        #: the generated horizon loop, made by the first :meth:`run`
        self._horizon: Optional[Any] = None
        self._output_names = [name for name, _slot in output_spec]

    @functools.cached_property
    def step(self) -> Any:
        """The per-tick ``(inputs, state, tick) -> (outputs, state)`` step,
        generated on first access: :meth:`run` never calls it, only
        :func:`~repro.simulation.engine.run_stepped` callers do."""
        from .op_emit import flat_step
        return flat_step(self)

    @functools.cached_property
    def reruns(self) -> Dict[str, Callable[..., Tuple[Any, ...]]]:
        """The re-run of every correction region, by the name its barrier
        calls (:func:`~repro.simulation.op_emit.region_reruns`)."""
        from .op_emit import region_reruns
        return region_reruns(self)

    # -- boundary specs ----------------------------------------------------

    @property
    def input_spec(self) -> Tuple[Tuple[str, int], ...]:
        """``(port_name, slot)`` pairs scattered from the inputs each tick
        (public for IR passes and the static verifier)."""
        return self._input_spec

    @property
    def output_spec(self) -> Tuple[Tuple[str, int], ...]:
        """``(port_name, slot)`` pairs gathered into the outputs each tick
        (public for IR passes and the static verifier)."""
        return self._output_spec

    # -- state -------------------------------------------------------------

    def initial_state(self) -> FlatState:
        """The flat initial state (built iteratively: deep-hierarchy safe)."""
        return FlatState([leaf.initial_state() for leaf in self.leaves],
                         list(self.buffer_initials))

    # -- whole horizons ----------------------------------------------------

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]], ticks: int,
            check_types: bool = False) -> SimulationTrace:
        """Simulate *ticks* ticks through one generated horizon loop; the
        trace of :func:`~repro.simulation.engine.run_stepped` over
        :attr:`step`, driven by
        :func:`~repro.simulation.engine.run_horizon` like the native
        engine (same error order), with the mode histories
        :meth:`decode_modes` reads from the readout columns.

        The loop is generated on the first call and kept on the schedule.
        Two threads racing to generate it both build the same function
        from the same source and code object; the last store wins, which
        is benign.  Under a telemetry session with ``profile_ops`` or
        ``flight_recording`` the run takes the session's observed variant
        of the loop instead
        (:meth:`~repro.obs.context.Telemetry.observed_horizon`), which
        stops after the first tick whose outputs fail their type check,
        as a stepped run does.  The session's flight recorder is reset
        before the stimuli are checked, so a run they reject leaves an
        empty window, not the previous run's ticks.
        """
        enter = self._enter_horizon
        telemetry = _obs_active()
        observed = None if telemetry is None \
            else telemetry.observed_horizon(self)
        if observed is not None:
            recorder = telemetry.recorders.get(self)
            if recorder is not None:
                recorder.begin_run()

            def enter(columns: List[List[Any]], runnable: int
                      ) -> Tuple[int, Optional[BaseException],
                                 List[List[Any]]]:
                return self._enter(observed, columns, runnable, check_types)
        trace, readouts = run_horizon(self.component, self._output_names,
                                      enter, stimuli, ticks, check_types)
        self.decode_modes(trace, readouts)
        return trace

    def _enter_horizon(self, columns: List[List[Any]], runnable: int
                       ) -> Tuple[int, Optional[BaseException],
                                  List[List[Any]]]:
        horizon = self._horizon
        if horizon is None:
            from .op_emit import flat_step
            horizon = self._horizon = flat_step(self, horizon=True)
        return self._enter(horizon, columns, runnable)

    def _enter(self, horizon: Any, columns: List[List[Any]], runnable: int,
               *check: bool) -> Tuple[int, Optional[BaseException],
                                      List[List[Any]]]:
        """Run *horizon* over ticks ``[0, runnable)`` into fresh output
        and readout columns (*check* is an observed loop's flag)."""
        outputs: List[List[Any]] = [
            [] for _ in range(len(self._output_spec) + len(self.readout_spec))]
        completed, error = horizon(columns, runnable, self.initial_state(),
                                   outputs, self.gates(0, runnable), *check)
        return completed, error, outputs

    def gates(self, t0: int, ticks: int) -> bytes:
        """The gate plane of ticks ``[t0, t0 + ticks)``: one byte per tick
        and gate (:attr:`gate_predicates` order), tick-major, 1 where the
        gate's clock is present.

        Horizons from tick 0 share one cached plane (gate predicates are
        functions of the tick only); replacing it with a longer one is a
        single reference store, so concurrent runs may race on the cache
        but never see a torn plane.
        """
        predicates = self.gate_predicates
        if not predicates:
            return b""
        if t0:
            return bytes(1 if predicate(tick) else 0
                         for tick in range(t0, t0 + ticks)
                         for predicate in predicates)
        plane = self._gate_plane
        known = len(plane) // len(predicates)
        if known < ticks:
            plane += bytes(1 if predicate(tick) else 0
                           for tick in range(known, ticks)
                           for predicate in predicates)
            self._gate_plane = plane
        return plane

    # -- mode histories ----------------------------------------------------

    def decode_modes(self, trace: SimulationTrace,
                     columns: List[List[Any]]) -> None:
        """Record the mode histories of a run into *trace*.

        *columns* holds one column per :attr:`readout_spec` leaf: the
        leaf's state after every tick, :data:`~repro.core.values.ABSENT`
        where its region was skipped (the state carries over from the tick
        before, or from the leaf's initial state).  ``trace.mode_paths``
        gets the ``collect_modes`` histories, and a bare root whose state
        carries a ``"mode"`` gets ``trace.mode_history``, as
        :func:`~repro.simulation.engine.run_stepped` records it.
        """
        states = []
        for (index, _slot), column in zip(self.readout_spec, columns):
            state = self.leaves[index].initial_state()
            carried = []
            for value in column:
                if value is not ABSENT:
                    state = value
                carried.append(state)
            states.append(carried)
        trace.mode_paths = self._histories(states)
        if states and self.leaves[0].component is self.component:
            trace.mode_history = [state["mode"] for state in states[0]
                                  if isinstance(state, dict)
                                  and "mode" in state]

    def _histories(self, states: List[List[Any]]) -> Dict[str, List[Any]]:
        """Per machine path, its mode or state at every tick it was active
        -- what :func:`~repro.simulation.engine.active_mode_paths` walks
        to after every tick -- in leaf order, from the per-tick leaf
        *states* of the :attr:`readout_spec` leaves.

        A leaf is active while every enclosing mode controller is in the
        leaf's mode.  Mode controllers and STDs are read directly, any
        other leaf (a custom ``react``) by the walk.
        """
        out: Dict[str, List[Any]] = {}
        column_of = {index: column for (index, _slot), column
                     in zip(self.readout_spec, states)}
        for index, column in column_of.items():
            leaf = self.leaves[index]
            live = range(len(column))
            for controller, mode in leaf.modes:
                modes = column_of[controller]
                live = [tick for tick in live if modes[tick]["mode"] == mode]
            if not live:
                continue
            base = leaf.mode_path
            if leaf.run_kind == "mtd":
                out[base] = [column[tick]["mode"] for tick in live]
            elif leaf.run_kind == "std":
                initial = leaf.component.initial_state_name
                out[base] = [column[tick]["state"] or initial
                             for tick in live]
            else:
                for tick in live:
                    for key, mode in active_mode_paths(
                            leaf.component, column[tick], base).items():
                        out.setdefault(key, []).append(mode)
        return out

    # -- instrumentation ---------------------------------------------------

    def op_labels(self) -> List[Tuple[str, str]]:
        """Per-op ``(kind name, human label)`` descriptors, as
        :meth:`ops_summary` shows them (for
        :class:`repro.obs.profile.OpProfile` and the flight recorder)."""
        labels: List[Tuple[str, str]] = []
        for op in self.program:
            code = op[0]
            kind = _OP_NAMES[code]
            if code in (OP_RUN, OP_EXPR):
                leaf = self.leaves[op[1]]
                label = f"{leaf.path} [{leaf.run_kind}]"
            elif code in REGION_OPS:
                label = f"{kind} -> {op[2]}"
            elif code == OP_CORRECT:
                label = "correction barrier (ops " + ", ".join(
                    f"{entry[0]}..{entry[1] - 1}" for entry in op[1]) + ")"
            else:
                pairs = len(op[1])
                label = f"{kind} ({pairs} pair{'s' if pairs != 1 else ''})"
            labels.append((kind, label))
        return labels

    # -- introspection -----------------------------------------------------

    def ops_summary(self) -> List[str]:
        """One line per op of the flat program (the IR view): index, kind
        and the :meth:`op_labels` label.

        ``run`` and ``expr`` ops name the leaf's hierarchical path and
        compilation kind, ``gate`` and ``select`` ops show their jump
        target and a correction barrier the op ranges it may re-run.
        """
        return [f"{index:>4} {kind:>9}  {label}"
                for index, (kind, label) in enumerate(self.op_labels())]

    def __repr__(self) -> str:
        return (f"FlatSchedule({self.component.name!r}, "
                f"ops={len(self.program)}, slots={self.n_slots}, "
                f"leaves={len(self.leaves)})")


def compile_flat(component: Component) -> FlatSchedule:
    """Compile *component* into a :class:`FlatSchedule`.

    Every root with behaviour compiles: a composite, gate or MTD hierarchy
    into its hoisted program, a bare leaf (an STD, atomic block or custom
    ``react``) into a one-op program whose leaf state is the root's.
    Raises :class:`SimulationError` for a component without behaviour.
    """
    with maybe_span("compile.flatten", component=component.name) as span:
        schedule = _Flattener(component).flatten()
        if span is not None:
            span.attributes.update(ops=len(schedule.program),
                                   slots=schedule.n_slots,
                                   leaves=len(schedule.leaves))
    return schedule

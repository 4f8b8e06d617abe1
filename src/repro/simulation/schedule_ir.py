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
over a flat slot environment.  It is the only compiler for composites.

**Slot-based environments.**  Every port of every component occurrence in
the hierarchy is assigned a fixed integer slot.  A tick allocates one flat
``values`` list (all :data:`~repro.core.values.ABSENT`), scatters the
boundary inputs into their slots and runs the program; channels are integer
slot copies instead of ``(component, port)`` dict keys, and each leaf's
input environment is built exactly once from its slots -- no per-composite
dict construction, key translation or input re-filtering.

**The program.**  Seven opcodes cover the full semantics of the
interpreter's composites and clock gates:

* ``run``   -- execute one leaf step (gather inputs from slots, call the
  leaf's compiled step, scatter outputs to slots, forward its
  instantaneous channels);
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
* ``correct`` -- the per-composite correction barrier: non-feedthrough
  entries whose inputs changed after they ran are re-stepped from their
  tick-start state with the final values, mirroring the reference
  interpreter's second pass.

**Execution.**  The program is not interpreted by an opcode loop: the
step function is straight-line Python source generated from one body
template per opcode (:mod:`repro.simulation.op_emit`) and exec-compiled
once per schedule.  The op-profiling
(:meth:`FlatSchedule.instrumented_step`) and flight-recording
(:meth:`FlatSchedule.recording_step`) variants and the native backend's
trampoline replays are generated from the same templates.

**State.**  Run-time state is a :class:`FlatState`: one flat list of leaf
states plus one flat list of delayed-channel buffers.  The step also
accepts the nested dict state produced by ``component.initial_state()``
(converted on entry), so it remains a drop-in
``(inputs, state, tick) -> (outputs, state)`` step function for
:func:`~repro.simulation.engine.run_stepped`.

**Fallbacks.**  Leaves -- MTDs, STDs, atomic blocks, clock gates around
them and components with a custom ``react`` -- are compiled by the leaf
compiler (:func:`~repro.simulation.compiled.compile_nested`) and embedded
as single ``run`` ops.  A non-feedthrough composite fed by a later
producer must stay a single step, so the correction barrier can re-run it
atomically: it becomes a ``run`` op whose step is its own flat program
(:func:`compile_flat`).  :meth:`FlatSchedule.ops_summary` labels every
composite or gate that stays a single step ``nested``, and
:attr:`FlatSchedule.fallback_paths` lists them.

Compilation is **iterative** (an explicit stack of emission generators plus
the worklist helpers of :mod:`repro.core.components`), so hierarchies
thousands of levels deep compile and run without hitting the Python
recursion limit -- depths the recursive engines cannot even build an
initial state for.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.components import (Component, CompositeComponent,
                               ExpressionComponent,
                               subtree_structure_tokens)
from ..core.errors import SimulationError
from ..core.expr_compile import ExpressionSource
from ..obs.context import maybe_span
from .engine import ClockGatedComponent, active_mode_paths

#: Opcodes of the flat program (tuple-encoded; see :mod:`.op_emit`).
(OP_RUN, OP_EXPR, OP_COPY, OP_BUF_READ, OP_BUF_WRITE, OP_GATE,
 OP_CORRECT) = range(7)

_OP_NAMES = {OP_RUN: "run", OP_EXPR: "expr", OP_COPY: "copy",
             OP_BUF_READ: "buf_read", OP_BUF_WRITE: "buf_write",
             OP_GATE: "gate", OP_CORRECT: "correct"}


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
    """One leaf step of the flat program: a leaf-compiled
    :class:`~repro.simulation.compiled.CompiledSchedule`, the
    :class:`FlatSchedule` of a composite that stays a single step, or no
    schedule at all (``None``) for a pure expression block, which its
    ``expr`` op evaluates inline."""

    __slots__ = ("index", "component", "schedule", "run_kind", "state_path",
                 "steps_prefix", "mode_path")

    def __init__(self, index: int, component: Component, schedule: Any,
                 run_kind: str, state_path: Tuple[str, ...],
                 steps_prefix: str, mode_path: str):
        self.index = index
        self.component = component
        self.schedule = schedule
        self.run_kind = run_kind
        self.state_path = state_path
        self.steps_prefix = steps_prefix
        self.mode_path = mode_path


def is_flattenable(component: Component) -> bool:
    """True if *component* roots a hierarchy the flattener can hoist.

    Flattenable roots are composites with the default synchronous ``react``
    and clock-gated wrappers (with the default ``react``) around such
    composites, in any nesting.  Everything else -- MTDs, STDs, atomic
    blocks, subclasses with a custom ``react`` -- is compiled by the leaf
    compiler (:func:`~repro.simulation.compiled.compile_nested`).
    """
    while isinstance(component, ClockGatedComponent) \
            and type(component).react is ClockGatedComponent.react:
        component = component.inner
    return (isinstance(component, CompositeComponent)
            and type(component).react is CompositeComponent.react)


def _dig(state: Any, path: Tuple[str, ...]) -> Any:
    """Navigate a nested engine state dict along *path* (None-tolerant)."""
    current = state
    for key in path:
        if not isinstance(current, Mapping):
            return None
        current = current.get(key)
    return current


def _mode_plan(leaves: List[_Leaf]) -> Tuple[int, ...]:
    """Compile mode observation: the index of every leaf whose
    :func:`~repro.analysis.mode_analysis.machine_inventory` is non-empty.

    Only these leaves can contribute a path to
    :func:`~repro.simulation.engine.active_mode_paths`, which follows the
    same traversal; machine-free leaves are never read.
    """
    from ..analysis.mode_analysis import machine_inventory
    return tuple(leaf.index for leaf in leaves
                 if machine_inventory(leaf.component))


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
        #: per delayed channel: (initial value, owner state path, channel name)
        self.buffer_specs: List[Tuple[Any, Tuple[str, ...], str]] = []
        self.scratch_count = 0
        self.fallback_paths: List[str] = []
        self._linear: List[Tuple[str, str]] = []
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
            root, in_slots, out_slots, (), root.name, root.name)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
            else:
                stack.append(child)
        program = tuple(tuple(op) for op in self._merge_copies(self.ops))
        input_spec = tuple((name, in_slots[name])
                           for name in root.input_names())
        output_spec = tuple((name, out_slots[name])
                            for name in root.output_names())
        return FlatSchedule(root, program, self.n_slots, input_spec,
                            output_spec, self.leaves, self.buffer_specs,
                            self.scratch_count, self._linear,
                            self.fallback_paths, tuple(self.slot_names))

    def _merge_copies(self, ops: List[List[Any]]) -> List[List[Any]]:
        """Peephole pass: fuse adjacent ``copy`` ops into one.

        Boundary-output collection of a flattened child followed by the
        parent's channel propagation emits back-to-back copy ops; copies
        execute strictly in order, so fusing the pair lists is behaviour-
        preserving and saves one dispatch per composite boundary per tick.
        Gate jump targets are recomputed from op identity.
        """
        merged: List[List[Any]] = []
        gates = [op for op in ops if op[0] == OP_GATE]
        gate_targets = {gate[2] for gate in gates}
        targets: Dict[int, Any] = {}  # original op index -> op at that index
        for index, op in enumerate(ops):
            targets[index] = op
            if op[0] == OP_COPY and merged and merged[-1][0] == OP_COPY \
                    and index not in gate_targets:
                merged[-1][1] = merged[-1][1] + op[1]
                targets[index] = merged[-1]
                continue
            merged.append(op)
        targets[len(ops)] = None  # jump past the end
        positions = {id(op): index for index, op in enumerate(merged)}
        for gate in gates:
            target_op = targets[gate[2]]
            gate[2] = (len(merged) if target_op is None
                       else positions[id(target_op)])
        return merged

    def _emit_node(self, component: Component, in_slots: Dict[str, int],
                   out_slots: Dict[str, int], state_path: Tuple[str, ...],
                   steps_path: str, mode_path: str) -> Iterator[Any]:
        """Emit ops for a flattenable node (gated wrapper chain or composite).

        The wrapper's boundary ports *are* the inner component's (same
        names, forwarded 1:1), so gating aliases the slots instead of
        copying: when the gate clock is silent the region is jumped over
        and the (shared) output slots simply stay absent.
        """
        if isinstance(component, ClockGatedComponent):
            self._linear.append((steps_path, "gated"))
            pattern = component.clock.cached()
            gate = [OP_GATE, pattern.at, -1]
            self.ops.append(gate)
            inner = component.inner
            yield self._emit_node(inner, in_slots, out_slots,
                                  state_path + ("inner",),
                                  f"{steps_path}/{inner.name}", mode_path)
            gate[2] = len(self.ops)  # jump target: first op after the region
        else:
            yield self._emit_composite(component, in_slots, out_slots,
                                       state_path, steps_path, mode_path)

    def _emit_composite(self, composite: CompositeComponent,
                        in_slots: Dict[str, int], out_slots: Dict[str, int],
                        state_path: Tuple[str, ...], steps_path: str,
                        mode_path: str) -> Iterator[Any]:
        from .compiled import compile_component

        self._linear.append((steps_path, "composite"))
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
                sub, f"{steps_path}/{entry.name}")

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
            buf_index[channel_name] = index = len(self.buffer_specs)
            self.buffer_specs.append((initial, state_path, channel_name))
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
        # it: such entries need no correction tracking, and non-feedthrough
        # composites among them can be hoisted instead of running as one
        # step.
        n_entries = len(plan.entries)
        has_late_producer = [False] * n_entries
        suffix_writes: set = set()
        for index in range(n_entries - 1, -1, -1):
            entry = plan.entries[index]
            suffix_writes |= {dst[0] for _, dst in entry.propagate
                              if dst[0] is not None}
            has_late_producer[index] = entry.name in suffix_writes

        # sub-components in plan order
        corrections = []
        for index, entry in enumerate(plan.entries):
            sub = subs[entry.name]
            propagate = tuple((slot_of(src), slot_of(dst))
                              for src, dst in entry.propagate)
            if is_flattenable(sub) \
                    and (entry.has_feedthrough or not has_late_producer[index]):
                slots = port_slots[entry.name]
                yield self._emit_node(
                    sub,
                    {name: slots[name] for name in sub.input_names()},
                    {name: slots[name] for name in sub.output_names()},
                    state_path + ("subs", entry.name),
                    f"{steps_path}/{entry.name}", f"{mode_path}/{entry.name}")
                if propagate:
                    self.ops.append([OP_COPY, propagate])
                continue
            # leaf: run one compiled step as one op.  Non-feedthrough
            # composites with live late producers are not hoisted: they run
            # as a flat program of their own, so the correction barrier can
            # re-run them atomically from their tick-start state, exactly
            # like the reference interpreter's second pass.  (Flattened
            # children are not behaviour-checked here: their own sections
            # check their entries, keeping the whole compile O(n) in
            # hierarchy size.)
            if not sub.has_behavior():
                raise SimulationError(
                    f"sub-component {entry.name!r} of {composite.name!r} has "
                    f"no executable behaviour")
            slots = port_slots[entry.name]
            in_spec = tuple((name, slots[name]) for name in entry.input_names)
            leaf_args = (state_path + ("subs", entry.name), steps_path,
                         f"{mode_path}/{entry.name}")
            if isinstance(sub, ExpressionComponent) \
                    and type(sub).react is ExpressionComponent.react:
                # pure expression block: its expressions' source is inlined
                # into the step, evaluated straight into the slots.  No leaf
                # schedule, no step call, no output dict, and no correction
                # tracking -- the state is a passthrough and a
                # non-feedthrough expression reads none of the inputs a late
                # producer could change, so the interpreter's
                # compare-and-rerun is observably a no-op for it.
                leaf = _Leaf(len(self.leaves), sub, None, "expr", *leaf_args)
                self.leaves.append(leaf)
                self._linear.append((f"{steps_path}/{sub.name}", "atomic"))
                functions = sub._evaluator.functions  # noqa: SLF001
                # expressions for undeclared ports are still evaluated (the
                # interpreter does, and evaluation may raise) but their
                # values have no slot to land in
                items = tuple((slots.get(name, -1),
                               ExpressionSource(expression, functions))
                              for name, expression
                              in sub.output_expressions.items())
                self.ops.append([OP_EXPR, leaf.index, in_spec, items,
                                 propagate])
                continue
            schedule = compile_component(sub)
            run_kind = schedule.kind
            if isinstance(sub, (CompositeComponent, ClockGatedComponent)):
                run_kind = "nested"
                self.fallback_paths.append(f"{steps_path}/{entry.name}")
            leaf = _Leaf(len(self.leaves), sub, schedule, run_kind,
                         *leaf_args)
            self.leaves.append(leaf)
            self._linear.extend(schedule.linear_steps(steps_path))
            out_spec = tuple((name, slots[name])
                             for name in sub.output_names())
            scratch = -1
            if not entry.has_feedthrough and has_late_producer[index]:
                scratch = self.scratch_count
                self.scratch_count += 1
                corrections.append((scratch, leaf.index, schedule.step,
                                    in_spec))
            self.ops.append([OP_RUN, leaf.index, schedule.step, in_spec,
                             out_spec, propagate, scratch])

        # correction barrier for this composite's non-feedthrough entries
        if corrections:
            self.ops.append([OP_CORRECT, tuple(corrections)])

        # boundary-output collection, then delayed commits
        out_copy, out_buf = [], []
        for port_name, is_delayed, channel_name, _initial, src_key \
                in plan.boundary_outputs:
            if is_delayed:
                out_buf.append((buf_index[channel_name], out_slots[port_name]))
            else:
                out_copy.append((slot_of(src_key), out_slots[port_name]))
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

    Drop-in replacement for a leaf's
    :class:`~repro.simulation.compiled.CompiledSchedule`: ``step`` has the
    same ``(inputs, state, tick) -> (outputs, state)`` signature (state as
    :class:`FlatState`, with nested dict states converted on entry), and
    :meth:`linear_steps` / :meth:`describe` keep the hierarchical-path
    naming contract of ``CompiledSchedule.linear_steps`` exactly, so debug
    output and path-keyed reports are stable across engines.  The IR itself
    is inspectable through :meth:`ops_summary`.
    """

    kind = "flat"

    def __init__(self, component: Component, program: Tuple[Tuple[Any, ...], ...],
                 n_slots: int, input_spec: Tuple[Tuple[str, int], ...],
                 output_spec: Tuple[Tuple[str, int], ...],
                 leaves: List[_Leaf],
                 buffer_specs: List[Tuple[Any, Tuple[str, ...], str]],
                 scratch_count: int, linear: List[Tuple[str, str]],
                 fallback_paths: List[str],
                 slot_names: Tuple[str, ...] = ()):
        self.component = component
        self.program = program
        self.n_slots = n_slots
        self.leaves = leaves
        self.buffer_specs = buffer_specs
        self.fallback_paths = fallback_paths
        #: hierarchical ``path.port`` label per slot (forensics decoding)
        self.slot_names = slot_names
        self._input_spec = input_spec
        self._output_spec = output_spec
        self._scratch_count = scratch_count
        self._linear = linear
        #: indices of the leaves carrying an MTD or STD, in leaf order
        #: (see :meth:`mode_paths`); empty for machine-free models
        self.mode_plan = _mode_plan(leaves)
        from .op_emit import flat_step
        self.step = flat_step(self)

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
        return FlatState([leaf.component.initial_state()
                          if leaf.schedule is None
                          else leaf.schedule.initial_state()
                          for leaf in self.leaves],
                         [spec[0] for spec in self.buffer_specs])

    def _convert_state(self, state: Any) -> FlatState:
        """Adopt a nested engine state dict (or ``None``) as a FlatState."""
        if state is None:
            return self.initial_state()
        leaf_states = [_dig(state, leaf.state_path) for leaf in self.leaves]
        buffers = []
        for initial, state_path, channel_name in self.buffer_specs:
            delayed = _dig(state, state_path + ("delayed",))
            buffers.append(delayed.get(channel_name, initial)
                           if isinstance(delayed, Mapping) else initial)
        return FlatState(leaf_states, buffers)

    # -- instrumentation ---------------------------------------------------

    def op_labels(self) -> List[Tuple[str, str, bool]]:
        """Per-op descriptors for :class:`repro.obs.profile.OpProfile`:
        ``(kind name, human label, runs-on-nested-fallback)``.

        Labels match :meth:`ops_summary`; the nested flag marks ``run`` ops
        whose leaf is a composite or gate kept as one step (see
        :attr:`fallback_paths`), so profiles can report fallback activity
        without re-deriving it.
        """
        labels: List[Tuple[str, str, bool]] = []
        for op in self.program:
            code = op[0]
            kind = _OP_NAMES[code]
            nested = False
            if code in (OP_RUN, OP_EXPR):
                leaf = self.leaves[op[1]]
                label = (f"{leaf.steps_prefix}/{leaf.component.name} "
                         f"[{leaf.run_kind}]")
                nested = leaf.run_kind == "nested"
            elif code == OP_GATE:
                label = f"gate -> {op[2]}"
            elif code == OP_CORRECT:
                label = f"correction barrier ({len(op[1])})"
            else:
                pairs = len(op[1])
                label = f"{kind} ({pairs} pair{'s' if pairs != 1 else ''})"
            labels.append((kind, label, nested))
        return labels

    def instrumented_step(self, profile: Any,
                          clock: Any = time.perf_counter):
        """A variant of :attr:`step` recording into *profile*: per executed
        op its count and wall time, per gate its skips, per correction
        barrier its re-runs, per tick the total step time.

        Generated from the same per-op templates as :attr:`step`
        (:mod:`repro.simulation.op_emit`), which is left untouched --
        swapping the step function in and out is the whole
        zero-overhead-when-off mechanism.
        """
        from .op_emit import flat_step
        return flat_step(self, profile=profile, clock=clock)

    def recording_step(self, recorder: Any):
        """A flight-recording variant of :attr:`step` feeding *recorder*.

        Generated from the same per-op templates as :attr:`step`: tick 0
        resets the recorder's window (a new scenario owns it), every
        completed tick is snapshotted into the ring, and when an op raises
        the failing tick, op index, partial slot environment and inputs are
        recorded before the exception propagates unchanged.
        """
        from .op_emit import flat_step
        return flat_step(self, recorder=recorder)

    # -- introspection -----------------------------------------------------

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        """The flattened schedule: ``(hierarchical path, kind)`` per node.

        The same ``(path, kind)`` format as
        :meth:`~repro.simulation.compiled.CompiledSchedule.linear_steps`:
        a composite is ``"composite"`` and a gate ``"gated"``, hoisted or
        kept as one step, so path-keyed debug output is engine-independent
        (pinned in ``tests/test_flat_schedule.py``).
        """
        if not prefix:
            return list(self._linear)
        return [(f"{prefix}/{path}", kind) for path, kind in self._linear]

    def describe(self) -> str:
        """Human-readable rendering of the flattened schedule."""
        return "\n".join(f"{kind:>10}  {path}"
                         for path, kind in self.linear_steps())

    def ops_summary(self) -> List[str]:
        """One line per op of the flat program (the IR view): index, kind
        and the :meth:`op_labels` label.

        ``run`` ops name the leaf's hierarchical path and compilation kind
        (``nested`` marks composites and gates kept as one step) and are
        marked ``(correction-tracked)`` when a barrier may re-run them;
        ``gate`` ops show their jump target.
        """
        lines = []
        for index, (op, (kind, label, _nested)) in enumerate(
                zip(self.program, self.op_labels())):
            if op[0] == OP_RUN and op[6] >= 0:
                label += " (correction-tracked)"
            lines.append(f"{index:>4} {kind:>9}  {label}")
        return lines

    @property
    def needs_mode_observation(self) -> bool:
        """Whether a run must observe modes per tick: only when
        :attr:`mode_plan` names a leaf.  An empty plan means the model has
        no MTD or STD, so :meth:`mode_paths` is ``{}`` on every tick."""
        return bool(self.mode_plan)

    def mode_paths(self, state: Any, path: Optional[str] = None,
                   out: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Active mode/state of every MTD and STD, keyed by hierarchical path
        and collected into *out*.

        The flat-engine counterpart of
        :func:`repro.simulation.engine.active_mode_paths`: identical paths
        and values, read positionally from the flat state -- and only from
        the leaves :attr:`mode_plan` names, so a machine-free schedule
        reads nothing.  Each named leaf is read by its own schedule; with
        *path* the paths are rebased from this root's name onto *path*
        (a flat program running as a leaf or mode behaviour).
        """
        if out is None:
            out = {}
        if type(state) is not FlatState:
            return active_mode_paths(self.component, state, path, out)
        leaves = self.leaves
        leaf_states = state.leaf_states
        cut = len(self.component.name)
        for index in self.mode_plan:
            leaf = leaves[index]
            leaf.schedule.mode_paths(
                leaf_states[index],
                leaf.mode_path if path is None else path + leaf.mode_path[cut:],
                out)
        return out

    def __repr__(self) -> str:
        return (f"FlatSchedule({self.component.name!r}, "
                f"ops={len(self.program)}, slots={self.n_slots}, "
                f"leaves={len(self.leaves)})")


def compile_flat(component: Component) -> FlatSchedule:
    """Compile *component* into a :class:`FlatSchedule`.

    Raises :class:`SimulationError` if the root is not flattenable (use
    :func:`~repro.simulation.compiled.compile_component`, which compiles
    unflattenable roots as leaves).
    """
    if not is_flattenable(component):
        raise SimulationError(
            f"component {component.name!r} ({type(component).__name__}) is "
            "not flattenable: the flat schedule IR requires a composite "
            "hierarchy (or clock-gated composite) with the default "
            "synchronous react")
    with maybe_span("compile.flatten", component=component.name) as span:
        schedule = _Flattener(component).flatten()
        if span is not None:
            span.attributes.update(ops=len(schedule.program),
                                   slots=schedule.n_slots,
                                   leaves=len(schedule.leaves),
                                   fallbacks=len(schedule.fallback_paths))
    return schedule

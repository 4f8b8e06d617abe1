"""Global mode analysis (paper Sec. 5).

"The different modes in MTDs can be used in order to determine a global mode
transition system which is then correct by construction."  This module
builds that global mode transition system as the synchronous product of all
MTDs found in a component hierarchy:

* a global mode is a tuple of local modes (one per MTD),
* a global transition exists when, for some combination of local transitions
  (or local stuttering), the conjunction of guards is satisfiable on at least
  one input valuation drawn from a finite test vocabulary.

Because guards range over unbounded value domains, exact satisfiability is
undecidable in general; the product here is computed relative to a finite
*scenario vocabulary* of input valuations (explicitly supplied or sampled
from the guards' constants), which is both sound for the models in this
repository and mirrors what a tool prototype validating against simulation
scenarios would do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Set, Tuple, Union)

from ..core.components import Component, CompositeComponent
from ..core.expr_eval import ExpressionEvaluator
from ..core.expressions import BinaryOp, Literal, walk
from ..core.values import ABSENT, is_present
from ..notations.mtd import ModeTransitionDiagram
from ..notations.std import StateTransitionDiagram


GlobalMode = Tuple[str, ...]


@dataclass
class GlobalTransition:
    """One transition of the global mode transition system."""

    source: GlobalMode
    target: GlobalMode
    witnesses: List[Dict[str, Any]] = field(default_factory=list)

    def describe(self) -> str:
        return f"{'/'.join(self.source)} -> {'/'.join(self.target)}"


@dataclass
class GlobalModeSystem:
    """The product automaton over all component MTDs."""

    mtd_names: List[str]
    initial: GlobalMode
    modes: Set[GlobalMode] = field(default_factory=set)
    transitions: List[GlobalTransition] = field(default_factory=list)

    def mode_count(self) -> int:
        return len(self.modes)

    def transition_count(self) -> int:
        return len(self.transitions)

    def reachable_from_initial(self) -> Set[GlobalMode]:
        adjacency: Dict[GlobalMode, Set[GlobalMode]] = {}
        for transition in self.transitions:
            adjacency.setdefault(transition.source, set()).add(transition.target)
        reachable = {self.initial}
        frontier = [self.initial]
        while frontier:
            current = frontier.pop()
            for successor in adjacency.get(current, ()):  # type: ignore[arg-type]
                if successor not in reachable:
                    reachable.add(successor)
                    frontier.append(successor)
        return reachable

    def unreachable_modes(self) -> Set[GlobalMode]:
        return self.modes - self.reachable_from_initial()

    def describe(self) -> str:
        lines = [f"global mode transition system over {', '.join(self.mtd_names)}:",
                 f"  initial: {'/'.join(self.initial)}",
                 f"  modes ({self.mode_count()}):"]
        for mode in sorted(self.modes):
            marker = "*" if mode == self.initial else " "
            lines.append(f"   {marker} {'/'.join(mode)}")
        lines.append(f"  transitions ({self.transition_count()}):")
        for transition in self.transitions:
            lines.append(f"    {transition.describe()}")
        return "\n".join(lines)


def find_mtds(root: Component) -> List[ModeTransitionDiagram]:
    """All MTDs in the hierarchy below *root* (including *root* itself)."""
    mtds: List[ModeTransitionDiagram] = []
    if isinstance(root, ModeTransitionDiagram):
        mtds.append(root)
    if isinstance(root, CompositeComponent):
        for _, component in root.walk():
            if isinstance(component, ModeTransitionDiagram) and component not in mtds:
                mtds.append(component)
    return mtds


def find_stds(root: Component) -> List[StateTransitionDiagram]:
    """All STDs in the hierarchy below *root* (including *root* itself).

    Derived from :func:`machine_inventory` so STDs nested as MTD mode
    behaviours or behind clock-gating wrappers are found too (plain
    ``walk()`` only descends composites).
    """
    stds: List[StateTransitionDiagram] = []
    for info in machine_inventory(root):
        if info.kind == "std" and info.component not in stds:
            stds.append(info.component)
    return stds


@dataclass
class MachineInfo:
    """One mode machine (MTD or STD) located in a component hierarchy.

    ``path`` is the hierarchical location (``root/sub/...``; clock-gating
    wrappers are transparent, MTD mode behaviours contribute the mode name
    as a path segment), which is what scenario coverage keys on.
    """

    path: str
    kind: str  # "mtd" | "std"
    component: Component
    modes: List[str]
    initial: Optional[str]
    transitions: List[Tuple[str, str]]


def machine_inventory(root: Component,
                      path: Optional[str] = None) -> List[MachineInfo]:
    """Inventory every MTD and STD below *root* with hierarchical paths.

    Complements :func:`find_mtds` (which flattens and loses location): the
    scenario coverage layer needs stable per-machine paths to attribute
    observed mode histories to the declared machines.
    """
    if path is None:
        path = root.name
    inner = getattr(root, "inner", None)
    if isinstance(inner, Component):  # clock-gating wrappers are transparent
        return machine_inventory(inner, path)
    infos: List[MachineInfo] = []
    if isinstance(root, ModeTransitionDiagram):
        infos.append(MachineInfo(
            path=path, kind="mtd", component=root,
            modes=root.mode_names(), initial=root.initial_mode,
            transitions=[(t.source, t.target) for t in root.transitions()]))
        for mode in root.modes():
            if mode.behavior is not None:
                infos.extend(machine_inventory(mode.behavior,
                                               f"{path}/{mode.name}"))
    elif isinstance(root, StateTransitionDiagram):
        infos.append(MachineInfo(
            path=path, kind="std", component=root,
            modes=root.state_names(), initial=root.initial_state_name,
            transitions=[(t.source, t.target) for t in root.transitions()]))
    elif isinstance(root, CompositeComponent):
        for sub in root.subcomponents():
            infos.extend(machine_inventory(sub, f"{path}/{sub.name}"))
    return infos


def _guard_constants(machine: Union[ModeTransitionDiagram,
                                    StateTransitionDiagram],
                     names: Optional[Iterable[str]] = None
                     ) -> Dict[str, Set[Any]]:
    """Sample values per name from the constants appearing in guards.

    *names* are the guard names sampled, by default the machine's inputs.
    For every comparison ``x <op> c`` the values ``c - 1``, ``c`` and ``c + 1``
    are added for numeric constants, plus the constant itself for booleans and
    enumeration literals.  This vocabulary is sufficient to distinguish all
    guard outcomes for the threshold-style guards used in automotive mode
    logic.
    """
    if names is None:
        names = machine.input_names()
    vocabulary: Dict[str, Set[Any]] = {name: set() for name in names}
    for transition in machine.transitions():
        for node in walk(transition.guard):
            if isinstance(node, BinaryOp):
                sides = [(node.left, node.right), (node.right, node.left)]
                for variable_side, literal_side in sides:
                    if hasattr(variable_side, "name") and isinstance(literal_side, Literal):
                        name = variable_side.name  # type: ignore[attr-defined]
                        if name not in vocabulary:
                            continue
                        value = literal_side.value
                        if isinstance(value, bool) or isinstance(value, str):
                            vocabulary[name].add(value)
                        elif isinstance(value, (int, float)):
                            vocabulary[name].update({value - 1, value, value + 1})
    for name, values in vocabulary.items():
        if not values:
            values.update({True, False, 0, 1})
        if any(isinstance(v, bool) for v in values):
            values.update({True, False})
    return vocabulary


def guard_vocabulary(root: Component) -> Dict[str, List[Any]]:
    """Boundary-value vocabulary per input name over *all* machines below
    *root*.

    Merges the guard-constant sampling of every MTD **and** STD found by
    :func:`machine_inventory` (not just the MTDs the global product uses):
    for each input read by some guard the values just below, at and just
    above every comparison constant.  This is the value pool a
    coverage-guided scenario search mutates stimuli from -- threshold-style
    automotive mode logic is fully distinguished by exactly these values.

    Inputs whose guards mention numeric constants drop the boolean filler
    values; inputs without any guard constants keep the generic
    ``{False, True, 0, 1}`` pool.
    """
    merged: Dict[str, Set[Any]] = {}
    for info in machine_inventory(root):
        machine = info.component
        if not isinstance(machine, (ModeTransitionDiagram,
                                    StateTransitionDiagram)):
            continue
        for name, values in _guard_constants(machine).items():
            merged.setdefault(name, set()).update(values)
    vocabulary: Dict[str, List[Any]] = {}
    for name, values in merged.items():
        numeric = {value for value in values
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        chosen = numeric if numeric else values
        vocabulary[name] = sorted(chosen, key=repr)
    return vocabulary


def _merge_vocabularies(mtds: Iterable[ModeTransitionDiagram]) -> Dict[str, List[Any]]:
    merged: Dict[str, Set[Any]] = {}
    for mtd in mtds:
        for name, values in _guard_constants(mtd).items():
            merged.setdefault(name, set()).update(values)
    return {name: sorted(values, key=repr) for name, values in merged.items()}


def _scenario_valuations(vocabulary: Mapping[str, List[Any]],
                         limit: int = 4096) -> List[Dict[str, Any]]:
    """Cartesian scenarios over the vocabulary, capped at *limit* entries."""
    names = sorted(vocabulary)
    if not names:
        return [{}]
    pools = [vocabulary[name] for name in names]
    scenarios: List[Dict[str, Any]] = []
    for combination in itertools.product(*pools):
        scenarios.append(dict(zip(names, combination)))
        if len(scenarios) >= limit:
            break
    return scenarios


def build_global_mode_system(root: Component,
                             scenarios: Optional[List[Dict[str, Any]]] = None,
                             scenario_limit: int = 4096) -> GlobalModeSystem:
    """Build the global mode transition system of all MTDs below *root*."""
    mtds = find_mtds(root)
    if not mtds:
        return GlobalModeSystem(mtd_names=[], initial=(), modes={()})
    evaluator = ExpressionEvaluator()
    if scenarios is None:
        scenarios = _scenario_valuations(_merge_vocabularies(mtds), scenario_limit)

    initial: GlobalMode = tuple(mtd.initial_mode or "" for mtd in mtds)
    system = GlobalModeSystem(mtd_names=[mtd.name for mtd in mtds], initial=initial)
    system.modes.add(initial)

    transition_index: Dict[Tuple[GlobalMode, GlobalMode], GlobalTransition] = {}
    frontier: List[GlobalMode] = [initial]
    explored: Set[GlobalMode] = set()

    while frontier:
        current = frontier.pop()
        if current in explored:
            continue
        explored.add(current)
        for scenario in scenarios:
            successor: List[str] = []
            for index, mtd in enumerate(mtds):
                local_mode = current[index]
                next_mode = local_mode
                for transition in mtd.transitions_from(local_mode):
                    environment = {name: scenario.get(name, ABSENT)
                                   for name in mtd.input_names()}
                    value = evaluator.evaluate(transition.guard, environment)
                    if is_present(value) and bool(value):
                        next_mode = transition.target
                        break
                successor.append(next_mode)
            target: GlobalMode = tuple(successor)
            if target == current:
                continue
            system.modes.add(target)
            key = (current, target)
            if key not in transition_index:
                entry = GlobalTransition(source=current, target=target)
                transition_index[key] = entry
                system.transitions.append(entry)
            if len(transition_index[key].witnesses) < 3:
                transition_index[key].witnesses.append(dict(scenario))
            if target not in explored:
                frontier.append(target)
    return system


def mode_explicitness_summary(root: Component) -> Dict[str, Any]:
    """Summary used by the case-study benchmark: how explicit are the modes."""
    mtds = find_mtds(root)
    total_modes = sum(len(mtd.modes()) for mtd in mtds)
    total_transitions = sum(len(mtd.transitions()) for mtd in mtds)
    return {
        "mtd_count": len(mtds),
        "explicit_modes": total_modes,
        "mode_transitions": total_transitions,
        "mtd_names": [mtd.name for mtd in mtds],
    }

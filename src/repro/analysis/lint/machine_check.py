"""Machine-level lint: MTD / STD reachability, determinism and guards.

Complements the notation ``validate()`` rule sets: where
``mtd-determinism`` / ``std-determinism`` only catch *textually identical*
guards, ``machine-guard-overlap`` decides **satisfiability** -- two
same-priority transitions from one state are flagged when a single input
valuation (drawn from the boundary-value vocabulary of
:mod:`repro.analysis.mode_analysis`) makes both guards true with different
targets, i.e. the model's determinism rests solely on transition insertion
order.  Guards, actions and emissions are additionally run through the
expression abstract interpreter, which discharges ``expr-unknown-name`` /
``expr-div-by-zero`` inside machines and proves guards constant
(``expr-constant-guard``: a constant-false guard is a dead transition; a
constant-true guard is only flagged when it shadows another transition).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

from ...core.components import Component
from ...core.errors import ExpressionEvalError
from ...core.validation import Finding
from ...core.values import ABSENT, is_present
from ...notations.mtd import ModeTransitionDiagram
from ...notations.std import StateTransitionDiagram
from ..mode_analysis import (_guard_constants, _scenario_valuations,
                             machine_inventory)
from .expr_check import (_NO_CONST, AbstractValue, abstract_of_type,
                         abstract_of_value, check_expression)
from .registry import rule_finding

Machine = Union[ModeTransitionDiagram, StateTransitionDiagram]

#: Cap on the valuations tried per machine for overlap satisfiability.
_OVERLAP_VALUATION_LIMIT = 512


def _machine_environment(machine: Machine) -> Dict[str, AbstractValue]:
    """The abstract environment machine expressions are evaluated in.

    Inputs carry their declared types and may be absent; STD local
    variables carry only the *kind* of their initial value -- the value
    itself changes at run time, so keeping the constant or bounds would
    manufacture false "constant guard" proofs.
    """
    env: Dict[str, AbstractValue] = {}
    if isinstance(machine, StateTransitionDiagram):
        for name, initial in machine.variables().items():
            env[name] = replace(abstract_of_value(initial), low=None,
                                high=None, const=_NO_CONST)
    for port in machine.input_ports():
        env[port.name] = abstract_of_type(port.port_type, may_absent=True)
    return env


def _vocabulary(machine: Machine) -> Dict[str, List[Any]]:
    """Boundary-value pools per guard name: the inputs *and* the STD
    variables, so STD guards over local variables get valuations too."""
    names: Set[str] = set(machine.input_names())
    if isinstance(machine, StateTransitionDiagram):
        names |= set(machine.variables())
    return {name: sorted(values, key=repr)
            for name, values in _guard_constants(machine, names).items()}


def _guard_names(machine: Machine) -> List[str]:
    """The names a guard's environment binds: the inputs, then the STD
    variables that are not also inputs."""
    names = list(machine.input_names())
    if isinstance(machine, StateTransitionDiagram):
        inputs = set(names)
        names += [name for name in machine.variables() if name not in inputs]
    return names


def _guard_fires(guard: Callable[[Mapping[str, Any]], Any],
                 environment: Mapping[str, Any]) -> bool:
    try:
        value = guard(environment)
    except ExpressionEvalError:
        return False
    return is_present(value) and bool(value)


def _check_unreachable(machine: Machine, path: str) -> List[Finding]:
    if isinstance(machine, ModeTransitionDiagram):
        kind, names, initial = "mode", machine.mode_names(), \
            machine.initial_mode
        reachable = machine.reachable_modes()
    else:
        kind, names, initial = "state", machine.state_names(), \
            machine.initial_state_name
        reachable = machine.reachable_states()
    findings = []
    for name in names:
        if name not in reachable:
            findings.append(rule_finding(
                "machine-unreachable",
                f"{kind} {name!r} of {machine.name!r} is unreachable from "
                f"the initial {kind} {initial!r}",
                f"{path}:{name}", kind=kind, initial=initial,
                suggestion=f"add a transition path to {name!r} or remove "
                           f"the {kind}"))
    return findings


def _check_guard_overlap(machine: Machine, path: str) -> List[Finding]:
    by_source: Dict[str, List[Any]] = {}
    for transition in machine.transitions():
        by_source.setdefault(transition.source, []).append(transition)
    pairs = [(source, first, second)
             for source, outgoing in by_source.items()
             for first, second in itertools.combinations(outgoing, 2)
             if first.priority == second.priority
             and first.target != second.target]
    if not pairs:
        return []
    valuations = _scenario_valuations(_vocabulary(machine),
                                      _OVERLAP_VALUATION_LIMIT)
    names = _guard_names(machine)
    environments = [{name: valuation.get(name, ABSENT) for name in names}
                    for valuation in valuations]
    # each transition's guard is compiled once (the generated source
    # reproduces the interpreter exactly) and run at most once per valuation
    fired: Dict[int, Tuple[Callable[[Mapping[str, Any]], Any],
                           List[Optional[bool]]]] = {}

    def fires(transition: Any, at: int) -> bool:
        entry = fired.get(id(transition))
        if entry is None:
            entry = fired[id(transition)] = (
                machine._evaluator.compile(transition.guard),  # noqa: SLF001
                [None] * len(environments))
        guard, row = entry
        if row[at] is None:
            row[at] = _guard_fires(guard, environments[at])
        return bool(row[at])

    findings: List[Finding] = []
    for source, first, second in pairs:
        witness = next((valuation for at, valuation in enumerate(valuations)
                        if fires(first, at) and fires(second, at)), None)
        if witness is not None:
            findings.append(rule_finding(
                "machine-guard-overlap",
                f"transitions {first.describe()} and {second.describe()} "
                f"from {source!r} have equal priority {first.priority} and "
                f"are both satisfied by {witness!r}: which one fires is "
                f"decided only by insertion order",
                f"{path}:{source}",
                witness={k: repr(v) for k, v in witness.items()},
                priority=first.priority,
                suggestion="give the transitions distinct priorities or "
                           "make their guards mutually exclusive"))
    return findings


def _check_expressions(machine: Machine, path: str) -> List[Finding]:
    env = _machine_environment(machine)
    functions = machine._evaluator.functions  # noqa: SLF001
    findings: List[Finding] = []
    for transition in machine.transitions():
        element = f"{path}:{transition.source}->{transition.target}"
        value, guard_findings = check_expression(
            transition.guard, env, element, functions)
        findings.extend(guard_findings)
        if value.const is False:
            findings.append(rule_finding(
                "expr-constant-guard",
                f"guard {transition.guard.to_source()} of transition "
                f"{transition.describe()} is constant false: the "
                f"transition can never fire",
                element, const=False,
                suggestion="remove the dead transition or fix the guard"))
        elif value.const is True and not value.may_absent \
                and _shadows_another(machine, transition):
            findings.append(rule_finding(
                "expr-constant-guard",
                f"guard {transition.guard.to_source()} of transition "
                f"{transition.describe()} is constant true and shadows "
                f"every lower-priority transition from "
                f"{transition.source!r}",
                element, const=True,
                suggestion="guard the transition or remove the shadowed "
                           "ones"))
        for name, expression in getattr(transition, "actions",
                                        {}).items():
            _, action_findings = check_expression(
                expression, env, f"{element}/{name}", functions)
            findings.extend(action_findings)
    if isinstance(machine, StateTransitionDiagram):
        for state in machine.states():
            for name, expression in state.emissions.items():
                _, emission_findings = check_expression(
                    expression, env, f"{path}:{state.name}/{name}",
                    functions)
                findings.extend(emission_findings)
    return findings


def _shadows_another(machine: Machine, transition: Any) -> bool:
    """True if a lower-ranked transition leaves the same source state."""
    outgoing: Sequence[Any] = machine.transitions_from(transition.source)
    ranked = list(outgoing)
    if transition not in ranked:
        return False
    return ranked.index(transition) < len(ranked) - 1


def lint_machine(machine: Machine,
                 path: Optional[str] = None) -> List[Finding]:
    """All machine-layer findings of one MTD or STD."""
    path = path or machine.name
    findings = _check_unreachable(machine, path)
    findings.extend(_check_guard_overlap(machine, path))
    findings.extend(_check_expressions(machine, path))
    return findings


def lint_machines(root: Component) -> List[Finding]:
    """Machine-layer findings of every MTD/STD below *root*.

    Uses :func:`~repro.analysis.mode_analysis.machine_inventory`, so
    machines nested as MTD mode behaviours or behind clock-gating wrappers
    are found, each anchored to its hierarchical path.
    """
    findings: List[Finding] = []
    for info in machine_inventory(root):
        machine = info.component
        if isinstance(machine, (ModeTransitionDiagram,
                                StateTransitionDiagram)):
            findings.extend(lint_machine(machine, info.path))
    return findings

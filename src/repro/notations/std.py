"""State Transition Diagrams (STD) -- paper Sec. 3.2.

STDs are extended finite state machines similar to the popular Statecharts
notation, "but with some syntactic restrictions for excluding certain
semantic ambiguities allowed by some standard Statecharts dialects".  The
restrictions adopted here are:

* **flat state space** -- no hierarchical or orthogonal states,
* **no inter-level transitions** (trivially, because states are flat),
* **deterministic firing** -- transitions leaving a state are totally ordered
  by an explicit priority; at most one fires per tick,
* **no instantaneous self-triggering** -- a transition fires on the messages
  of the current tick only, never on outputs produced in the same tick.

A transition carries a guard (base-language expression over input ports and
local variables) and a list of actions: assignments to output ports or local
variables, all evaluated against the *pre*-state environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..core.components import Component
from ..core.errors import ModelError, UnknownElementError
from ..core.expr_eval import ExpressionEvaluator
from ..core.expr_parser import parse_expression
from ..core.expressions import Expression
from ..core.validation import RuleSet, ValidationReport
from ..core.values import ABSENT, is_present


@dataclass
class STDState:
    """A (flat) control state of an STD."""

    name: str
    description: str = ""
    #: output-port assignments applied at every tick spent in this state
    emissions: Dict[str, Expression] = field(default_factory=dict)


@dataclass
class STDTransition:
    """A guarded, prioritised transition with assignment actions."""

    source: str
    target: str
    guard: Expression
    actions: Dict[str, Expression] = field(default_factory=dict)
    priority: int = 0
    description: str = ""

    def describe(self) -> str:
        acts = ", ".join(f"{k} := {v.to_source()}" for k, v in self.actions.items())
        suffix = f" / {acts}" if acts else ""
        return f"{self.source} --[{self.guard.to_source()}]{suffix}--> {self.target}"


class StateTransitionDiagram(Component):
    """An extended finite state machine with the AutoMoDe restrictions."""

    notation = "STD"
    STATE_PORT = "state"

    def __init__(self, name: str, description: str = "",
                 evaluator: Optional[ExpressionEvaluator] = None):
        super().__init__(name, description)
        self._states: Dict[str, STDState] = {}
        self._transitions: List[STDTransition] = []
        #: per-state sorted outgoing transitions, invalidated by add_transition
        self._outgoing_cache: Dict[str, Tuple[STDTransition, ...]] = {}
        self._initial_state: Optional[str] = None
        self._variables: Dict[str, Any] = {}
        self._evaluator = evaluator or ExpressionEvaluator()

    # The sorted outgoing tables are derived state, left out of a pickle
    # (see ``CompositeComponent.__getstate__``).
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_outgoing_cache"] = {}
        return state

    # -- construction -----------------------------------------------------------
    def add_state(self, name: str, initial: bool = False, description: str = "",
                  emissions: Optional[Mapping[str, Any]] = None) -> STDState:
        """Declare a control state; the first one becomes the initial state."""
        if name in self._states:
            raise ModelError(f"STD {self.name!r} already has a state {name!r}")
        parsed_emissions: Dict[str, Expression] = {}
        for port_name, expr in (emissions or {}).items():
            parsed_emissions[port_name] = self._parse(expr)
        state = STDState(name, description, parsed_emissions)
        self._states[name] = state
        if initial or self._initial_state is None:
            self._initial_state = name
        return state

    def add_variable(self, name: str, initial: Any) -> None:
        """Declare a local (extended-state) variable with an initial value."""
        if name in self._variables:
            raise ModelError(f"STD {self.name!r} already has a variable {name!r}")
        self._variables[name] = initial

    def add_transition(self, source: str, target: str, guard: Any,
                       actions: Optional[Mapping[str, Any]] = None,
                       priority: int = 0, description: str = "") -> STDTransition:
        for state_name in (source, target):
            if state_name not in self._states:
                raise UnknownElementError(
                    f"STD {self.name!r} has no state {state_name!r}")
        parsed_actions = {name: self._parse(expr)
                          for name, expr in (actions or {}).items()}
        transition = STDTransition(source, target, self._parse(guard),
                                   parsed_actions, priority, description)
        self._transitions.append(transition)
        self._outgoing_cache.pop(source, None)
        return transition

    @staticmethod
    def _parse(expression: Any) -> Expression:
        if isinstance(expression, str):
            return parse_expression(expression)
        if isinstance(expression, Expression):
            return expression
        raise ModelError("guards and actions must be base-language expressions")

    # -- queries ------------------------------------------------------------------
    @property
    def initial_state_name(self) -> Optional[str]:
        return self._initial_state

    def set_initial_state(self, name: str) -> None:
        if name not in self._states:
            raise UnknownElementError(f"STD {self.name!r} has no state {name!r}")
        self._initial_state = name

    def states(self) -> List[STDState]:
        return list(self._states.values())

    def state_names(self) -> List[str]:
        return list(self._states.keys())

    def variables(self) -> Dict[str, Any]:
        return dict(self._variables)

    def transitions(self) -> List[STDTransition]:
        return list(self._transitions)

    def transitions_from(self, state_name: str) -> List[STDTransition]:
        return list(self._outgoing(state_name))

    def _outgoing(self, state_name: str) -> Tuple[STDTransition, ...]:
        """Sorted outgoing transitions, cached so ``react`` stops re-filtering
        and re-sorting the full transition list every tick."""
        cached = self._outgoing_cache.get(state_name)
        if cached is None:
            outgoing = [t for t in self._transitions if t.source == state_name]
            outgoing.sort(key=lambda t: -t.priority)
            cached = tuple(outgoing)
            self._outgoing_cache[state_name] = cached
        return cached

    def reachable_states(self) -> Set[str]:
        if self._initial_state is None:
            return set()
        reachable = {self._initial_state}
        frontier = [self._initial_state]
        while frontier:
            current = frontier.pop()
            for transition in self._transitions:
                if transition.source == current and transition.target not in reachable:
                    reachable.add(transition.target)
                    frontier.append(transition.target)
        return reachable

    # -- behaviour -------------------------------------------------------------------
    def has_behavior(self) -> bool:
        return bool(self._states)

    def initial_state(self) -> Any:
        return {"state": self._initial_state, "vars": dict(self._variables)}

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        if not self._states:
            raise ModelError(f"STD {self.name!r} has no states")
        if state is None:
            state = self.initial_state()
        current = state["state"] or self._initial_state
        variables = dict(state["vars"])

        environment: Dict[str, Any] = dict(variables)
        environment.update(inputs)
        outputs: Dict[str, Any] = {name: ABSENT for name in self.output_names()}

        fired: Optional[STDTransition] = None
        for transition in self._outgoing(current):
            value = self._evaluator.evaluate(transition.guard, environment)
            if is_present(value) and bool(value):
                fired = transition
                break

        if fired is not None:
            for name, expression in fired.actions.items():
                result = self._evaluator.evaluate(expression, environment)
                if name in self._variables:
                    variables[name] = result
                elif name in self.output_names():
                    outputs[name] = result
                else:
                    raise ModelError(
                        f"action target {name!r} of STD {self.name!r} is neither "
                        "a local variable nor an output port")
            current = fired.target

        # State emissions of the (possibly new) state, not overriding
        # explicit transition actions.
        emission_env = dict(variables)
        emission_env.update(inputs)
        for name, expression in self._states[current].emissions.items():
            if name in self.output_names() and outputs.get(name, ABSENT) is ABSENT:
                outputs[name] = self._evaluator.evaluate(expression, emission_env)

        if self.STATE_PORT in self.output_names() and outputs.get(
                self.STATE_PORT, ABSENT) is ABSENT:
            outputs[self.STATE_PORT] = current

        return outputs, {"state": current, "vars": variables}

    # -- validation -----------------------------------------------------------------
    def validate(self) -> ValidationReport:
        """Check the STD restrictions and well-formedness rules."""
        return STD_RULES.apply(self, subject=f"STD {self.name!r}")


STD_RULES = RuleSet("std")


@STD_RULES.rule("std-nonempty")
def _rule_nonempty(std: StateTransitionDiagram, report: ValidationReport) -> None:
    if not std.states():
        report.error("std-nonempty", "the STD declares no states", element=std.name)


@STD_RULES.rule("std-guard-names")
def _rule_guard_names(std: StateTransitionDiagram, report: ValidationReport) -> None:
    """Guards/actions may only use input ports and declared local variables."""
    known = set(std.input_names()) | set(std.variables())
    for transition in std.transitions():
        used = set(transition.guard.variables())
        for expression in transition.actions.values():
            used |= set(expression.variables())
        unknown = used - known
        if unknown:
            report.error("std-guard-names",
                         f"transition {transition.describe()} uses unknown "
                         f"names {sorted(unknown)}",
                         element=f"{transition.source}->{transition.target}")


@STD_RULES.rule("std-action-targets")
def _rule_action_targets(std: StateTransitionDiagram, report: ValidationReport) -> None:
    targets = set(std.output_names()) | set(std.variables())
    for transition in std.transitions():
        for name in transition.actions:
            if name not in targets:
                report.error("std-action-targets",
                             f"action assigns to {name!r} which is neither an "
                             "output port nor a local variable",
                             element=f"{transition.source}->{transition.target}")


@STD_RULES.rule("std-determinism")
def _rule_determinism(std: StateTransitionDiagram, report: ValidationReport) -> None:
    """Equal-priority transitions from the same state must not share a guard."""
    seen: Dict[Tuple[str, int, str], str] = {}
    for transition in std.transitions():
        key = (transition.source, transition.priority, transition.guard.to_source())
        if key in seen and seen[key] != transition.target:
            report.error("std-determinism",
                         f"ambiguous transitions from state {transition.source!r} "
                         f"with guard {transition.guard.to_source()}",
                         element=transition.source)
        seen[key] = transition.target


@STD_RULES.rule("std-reachability")
def _rule_reachability(std: StateTransitionDiagram, report: ValidationReport) -> None:
    reachable = std.reachable_states()
    for state in std.states():
        if state.name not in reachable:
            report.warning("std-reachability",
                           f"state {state.name!r} is unreachable from "
                           f"{std.initial_state_name!r}",
                           element=state.name)

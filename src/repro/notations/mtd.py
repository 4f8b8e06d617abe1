"""Mode Transition Diagrams (MTD) -- paper Sec. 3.2, Figs. 6 and 8.

MTDs represent explicit system modes and alternate behaviours with respect
to modes.  They consist of *modes* and *transitions* between modes;
transitions are triggered by certain combinations of messages arriving at
the MTD's component, and the behaviour of the component within a mode is
defined by a subordinate DFD or SSD associated with the mode (comparable to
the composition of FSMs and concurrency models in *charts).

The case study (Sec. 5) shows MTDs capturing and encapsulating *implicit*
operation modes of ASCET models -- e.g. the ``ThrottleRateOfChange``
component with its ``FuelEnabled`` and ``CrankingOverrun`` modes (Fig. 8) --
instead of burying them in If-Then-Else control flow.
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
class Mode:
    """One operational mode: a name plus an optional subordinate behaviour."""

    name: str
    behavior: Optional[Component] = None
    description: str = ""

    def has_behavior(self) -> bool:
        return self.behavior is not None and self.behavior.has_behavior()


@dataclass
class ModeTransition:
    """A transition between two modes, triggered by a guard over the inputs."""

    source: str
    target: str
    guard: Expression
    priority: int = 0
    description: str = ""

    def describe(self) -> str:
        return (f"{self.source} --[{self.guard.to_source()}]--> {self.target}"
                + (f"  ({self.description})" if self.description else ""))


class ModeTransitionDiagram(Component):
    """A component whose behaviour is organised into explicit modes.

    The diagram owns the component interface; every mode behaviour must use
    a subset of that interface (same port names).  At each tick, transitions
    leaving the current mode are evaluated against the arriving messages; if
    one fires, the mode changes *before* the step's behaviour executes
    (strong preemption), then the behaviour of the active mode computes the
    outputs.  If the diagram declares an output port named ``mode`` it emits
    the active mode's name there every tick.
    """

    notation = "MTD"
    MODE_PORT = "mode"

    def __init__(self, name: str, description: str = "",
                 evaluator: Optional[ExpressionEvaluator] = None):
        super().__init__(name, description)
        self._modes: Dict[str, Mode] = {}
        self._transitions: List[ModeTransition] = []
        #: per-mode sorted outgoing transitions, invalidated by add_transition
        self._outgoing_cache: Dict[str, Tuple[ModeTransition, ...]] = {}
        self._initial_mode: Optional[str] = None
        self._evaluator = evaluator or ExpressionEvaluator()

    # The sorted outgoing tables are derived state, left out of a pickle
    # (see ``CompositeComponent.__getstate__``).
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_outgoing_cache"] = {}
        return state

    # -- construction ------------------------------------------------------------
    def add_mode(self, name: str, behavior: Optional[Component] = None,
                 initial: bool = False, description: str = "") -> Mode:
        """Declare a mode; the first mode added becomes the initial mode."""
        if name in self._modes:
            raise ModelError(f"MTD {self.name!r} already has a mode {name!r}")
        if behavior is not None:
            self._check_behavior_interface(name, behavior)
        mode = Mode(name, behavior, description)
        self._modes[name] = mode
        if initial or self._initial_mode is None:
            self._initial_mode = name
        return mode

    def set_initial_mode(self, name: str) -> None:
        if name not in self._modes:
            raise UnknownElementError(f"MTD {self.name!r} has no mode {name!r}")
        self._initial_mode = name

    def add_transition(self, source: str, target: str, guard: Any,
                       priority: int = 0, description: str = "") -> ModeTransition:
        """Add a transition; *guard* is a base-language expression (or source)."""
        for mode_name in (source, target):
            if mode_name not in self._modes:
                raise UnknownElementError(
                    f"MTD {self.name!r} has no mode {mode_name!r}")
        if isinstance(guard, str):
            guard = parse_expression(guard)
        if not isinstance(guard, Expression):
            raise ModelError("transition guard must be an expression")
        transition = ModeTransition(source, target, guard, priority, description)
        self._transitions.append(transition)
        self._outgoing_cache.pop(source, None)
        return transition

    def _check_behavior_interface(self, mode_name: str, behavior: Component) -> None:
        unknown_inputs = set(behavior.input_names()) - set(self.input_names())
        if unknown_inputs:
            raise ModelError(
                f"behaviour of mode {mode_name!r} reads ports "
                f"{sorted(unknown_inputs)} that MTD {self.name!r} does not declare")
        known_outputs = set(self.output_names())
        unknown_outputs = set(behavior.output_names()) - known_outputs
        if unknown_outputs:
            raise ModelError(
                f"behaviour of mode {mode_name!r} writes ports "
                f"{sorted(unknown_outputs)} that MTD {self.name!r} does not declare")

    # -- queries -------------------------------------------------------------------
    @property
    def initial_mode(self) -> Optional[str]:
        return self._initial_mode

    def modes(self) -> List[Mode]:
        return list(self._modes.values())

    def mode_names(self) -> List[str]:
        return list(self._modes.keys())

    def mode(self, name: str) -> Mode:
        try:
            return self._modes[name]
        except KeyError as exc:
            raise UnknownElementError(
                f"MTD {self.name!r} has no mode {name!r}") from exc

    def transitions(self) -> List[ModeTransition]:
        return list(self._transitions)

    def transitions_from(self, mode_name: str) -> List[ModeTransition]:
        """Transitions leaving *mode_name*, ordered by descending priority."""
        return list(self._outgoing(mode_name))

    def _outgoing(self, mode_name: str) -> Tuple[ModeTransition, ...]:
        """Sorted outgoing transitions, cached so ``react`` stops re-filtering
        and re-sorting the full transition list every tick."""
        cached = self._outgoing_cache.get(mode_name)
        if cached is None:
            outgoing = [t for t in self._transitions if t.source == mode_name]
            outgoing.sort(key=lambda t: -t.priority)
            cached = tuple(outgoing)
            self._outgoing_cache[mode_name] = cached
        return cached

    def reachable_modes(self) -> Set[str]:
        """Modes reachable from the initial mode along transitions."""
        if self._initial_mode is None:
            return set()
        reachable = {self._initial_mode}
        frontier = [self._initial_mode]
        while frontier:
            current = frontier.pop()
            for transition in self._transitions:
                if transition.source == current and transition.target not in reachable:
                    reachable.add(transition.target)
                    frontier.append(transition.target)
        return reachable

    def guard_variables(self) -> Set[str]:
        """All input names referenced by any transition guard."""
        names: Set[str] = set()
        for transition in self._transitions:
            names |= set(transition.guard.variables())
        return names

    # -- behaviour -------------------------------------------------------------------
    def has_behavior(self) -> bool:
        return bool(self._modes) and all(
            mode.behavior is None or mode.behavior.has_behavior()
            for mode in self._modes.values())

    def initial_state(self) -> Any:
        mode_states = {
            name: (mode.behavior.initial_state() if mode.behavior is not None else None)
            for name, mode in self._modes.items()
        }
        return {"mode": self._initial_mode, "mode_states": mode_states,
                "last_transition": None}

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        if not self._modes:
            raise ModelError(f"MTD {self.name!r} has no modes")
        if state is None:
            state = self.initial_state()
        current = state["mode"] or self._initial_mode
        mode_states = dict(state["mode_states"])

        fired = None
        environment = dict(inputs)
        for transition in self._outgoing(current):
            value = self._evaluator.evaluate(transition.guard, environment)
            if is_present(value) and bool(value):
                fired = transition
                current = transition.target
                break

        mode = self._modes[current]
        outputs: Dict[str, Any] = {name: ABSENT for name in self.output_names()}
        if mode.behavior is not None:
            behavior_inputs = {name: inputs.get(name, ABSENT)
                               for name in mode.behavior.input_names()}
            mode_outputs, new_mode_state = mode.behavior.react(
                behavior_inputs, mode_states.get(current), tick)
            mode_states[current] = new_mode_state
            outputs.update(mode_outputs)
        if self.MODE_PORT in self.output_names():
            outputs[self.MODE_PORT] = current

        next_state = {"mode": current, "mode_states": mode_states,
                      "last_transition": fired.describe() if fired else None}
        return outputs, next_state

    # -- validation ---------------------------------------------------------------------
    def validate(self) -> ValidationReport:
        """Check the MTD well-formedness rules."""
        return MTD_RULES.apply(self, subject=f"MTD {self.name!r}")

    def __repr__(self) -> str:
        return (f"ModeTransitionDiagram({self.name}, modes={self.mode_names()}, "
                f"initial={self._initial_mode!r})")


MTD_RULES = RuleSet("mtd")


@MTD_RULES.rule("mtd-nonempty")
def _rule_nonempty(mtd: ModeTransitionDiagram, report: ValidationReport) -> None:
    if not mtd.modes():
        report.error("mtd-nonempty", "the MTD declares no modes", element=mtd.name)
    if mtd.initial_mode is None:
        report.error("mtd-nonempty", "the MTD has no initial mode", element=mtd.name)


@MTD_RULES.rule("mtd-guard-inputs")
def _rule_guard_inputs(mtd: ModeTransitionDiagram, report: ValidationReport) -> None:
    """Guards may only refer to messages arriving at the MTD's component."""
    inputs = set(mtd.input_names())
    for transition in mtd.transitions():
        unknown = set(transition.guard.variables()) - inputs
        if unknown:
            report.error(
                "mtd-guard-inputs",
                f"transition {transition.describe()} refers to unknown "
                f"inputs {sorted(unknown)}",
                element=f"{transition.source}->{transition.target}")


@MTD_RULES.rule("mtd-reachability")
def _rule_reachability(mtd: ModeTransitionDiagram, report: ValidationReport) -> None:
    """Modes that cannot be reached from the initial mode are suspicious."""
    reachable = mtd.reachable_modes()
    for mode in mtd.modes():
        if mode.name not in reachable:
            report.warning("mtd-reachability",
                           f"mode {mode.name!r} is unreachable from the "
                           f"initial mode {mtd.initial_mode!r}",
                           element=mode.name)


@MTD_RULES.rule("mtd-determinism")
def _rule_determinism(mtd: ModeTransitionDiagram, report: ValidationReport) -> None:
    """Transitions from one mode with equal priority and guards conflict."""
    seen: Dict[Tuple[str, int, str], ModeTransition] = {}
    for transition in mtd.transitions():
        key = (transition.source, transition.priority, transition.guard.to_source())
        if key in seen and seen[key].target != transition.target:
            report.error(
                "mtd-determinism",
                f"transitions from {transition.source!r} with guard "
                f"{transition.guard.to_source()} lead to both "
                f"{seen[key].target!r} and {transition.target!r}",
                element=transition.source)
        seen[key] = transition


@MTD_RULES.rule("mtd-behavior")
def _rule_behavior(mtd: ModeTransitionDiagram, report: ValidationReport) -> None:
    """Modes without behaviour are flagged (allowed during early design)."""
    for mode in mtd.modes():
        if mode.behavior is None:
            report.info("mtd-behavior",
                        f"mode {mode.name!r} has no subordinate behaviour yet",
                        element=mode.name)

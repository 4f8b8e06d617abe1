"""The rule registry: every static-analysis rule id, in one place.

Rule ids are **stable identifiers**: they appear in JSON exports, SARIF
logs, CI gates and user suppressions, so they are registered centrally
with a layer, a default severity and a one-line summary.  Adding a rule
means registering it here; reusing an id raises.

Layers:

* ``ir``      -- dataflow verification over :class:`FlatSchedule` programs
* ``expr``    -- abstract interpretation of base-language expressions
* ``machine`` -- MTD/STD machine-level checks
* ``model``   -- hierarchy/model-level analyses (causality, conflicts,
  rate transitions, cross-level consistency, notation well-formedness)

The ``model`` layer registers the ids of the model-level analyses
(``causality``, ``ccd-rate-transition``, ``faa-actuator-conflict``...),
which report into the same :class:`~repro.core.validation.ValidationReport`
as this engine, so their findings export to SARIF with full rule metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ...core.errors import ValidationError
from ...core.validation import Finding, Severity


@dataclass(frozen=True)
class LintRule:
    """Metadata of one registered rule."""

    rule_id: str
    layer: str
    default_severity: Severity
    summary: str


_RULES: Dict[str, LintRule] = {}

_LAYERS = ("ir", "expr", "machine", "model")


def register(rule_id: str, layer: str, default_severity: Severity,
             summary: str) -> LintRule:
    """Register a rule id; duplicate ids and unknown layers raise."""
    if layer not in _LAYERS:
        raise ValidationError(f"unknown lint layer {layer!r} for rule "
                              f"{rule_id!r} (expected one of {_LAYERS})")
    if rule_id in _RULES:
        raise ValidationError(f"lint rule {rule_id!r} is already registered")
    rule = LintRule(rule_id, layer, default_severity, summary)
    _RULES[rule_id] = rule
    return rule


def get_rule(rule_id: str) -> Optional[LintRule]:
    return _RULES.get(rule_id)


def rule_finding(rule_id: str, message: str, element: str = "", *,
                 severity: Optional[Severity] = None, suggestion: str = "",
                 **location: Any) -> Finding:
    """A finding of *rule_id* at the rule's default severity (unless
    *severity* is given); ``None`` location values are dropped."""
    if severity is None:
        rule = get_rule(rule_id)
        severity = rule.default_severity if rule else Severity.WARNING
    return Finding(rule=rule_id, severity=severity, message=message,
                   element=element, suggestion=suggestion,
                   location={k: v for k, v in location.items()
                             if v is not None})


def all_rules(layer: Optional[str] = None) -> List[LintRule]:
    rules = sorted(_RULES.values(), key=lambda rule: rule.rule_id)
    if layer is None:
        return rules
    return [rule for rule in rules if rule.layer == layer]


def rule_ids(layer: Optional[str] = None) -> List[str]:
    return [rule.rule_id for rule in all_rules(layer)]


# --------------------------------------------------------------------------
# IR dataflow verification (repro.analysis.lint.ir_verify)
# --------------------------------------------------------------------------

register("ir-read-before-write", "ir", Severity.ERROR,
         "an op reads a slot before the op that writes it has run")
register("ir-never-written", "ir", Severity.WARNING,
         "an op reads a slot no op and no boundary input ever writes")
register("ir-may-skip-read", "ir", Severity.INFO,
         "reads that may observe an absent slot when a gate clock is "
         "silent (the codegen ABSENT-initialization obligation)")
register("ir-dead-store", "ir", Severity.INFO,
         "a slot is written but never read afterwards")
register("ir-write-write", "ir", Severity.WARNING,
         "a slot is written twice in one tick with no intervening read")
register("ir-gate-structure", "ir", Severity.ERROR,
         "a gate op has a malformed jump target or its region crosses "
         "the enclosing gate's")
register("ir-unreachable-op", "ir", Severity.WARNING,
         "ops inside a gate region whose clock provably never fires")
register("ir-correction-unmatched", "ir", Severity.ERROR,
         "a correction-barrier entry does not name a region it can re-run "
         "before the barrier")
register("ir-correction-missing", "ir", Severity.ERROR,
         "an op reads inputs a later op overwrites, but no correction "
         "region re-runs it")
register("ir-correction-dead", "ir", Severity.INFO,
         "a correction-barrier entry whose inputs no later op can change "
         "(the compare-and-rerun is provably a no-op)")

# --------------------------------------------------------------------------
# Expression abstract interpretation (repro.analysis.lint.expr_check)
# --------------------------------------------------------------------------

register("expr-unknown-name", "expr", Severity.ERROR,
         "an expression reads a name that is not bound in its context")
register("expr-unknown-function", "expr", Severity.ERROR,
         "an expression calls a function the evaluator does not define")
register("expr-div-by-zero", "expr", Severity.WARNING,
         "a division whose divisor may be zero (error when provably zero)")
register("expr-type-mismatch", "expr", Severity.WARNING,
         "an operator applied to operands of incompatible abstract types")
register("expr-output-type", "expr", Severity.WARNING,
         "an output expression's inferred type is incompatible with the "
         "declared port type")
register("expr-undeclared-output", "expr", Severity.WARNING,
         "an expression component defines an expression for a port it "
         "does not declare")
register("expr-constant-guard", "expr", Severity.WARNING,
         "a transition guard is constant (dead transition or "
         "unconditionally shadowing one)")

# --------------------------------------------------------------------------
# Machine-level checks (repro.analysis.lint.machine_check)
# --------------------------------------------------------------------------

register("machine-unreachable", "machine", Severity.WARNING,
         "an MTD mode / STD state is unreachable from the initial one")
register("machine-guard-overlap", "machine", Severity.WARNING,
         "two same-priority transitions from one state are simultaneously "
         "satisfiable with different targets (resolved only by insertion "
         "order)")

# --------------------------------------------------------------------------
# Model-level analyses (causality, LA well-definedness, FAA conflicts,
# cross-level consistency).
# --------------------------------------------------------------------------

register("causality", "model", Severity.ERROR,
         "instantaneous-loop (causality) analysis of every composite")
register("ccd-rate-transition", "model", Severity.WARNING,
         "LA/CCD rate transitions need delays under the target profile")
register("faa-actuator-conflict", "model", Severity.WARNING,
         "multiple FAA functions drive one actuator without a coordinator")
register("faa-shared-sensor", "model", Severity.INFO,
         "an FAA sensor is shared by several functions")
register("faa-fda-coverage", "model", Severity.ERROR,
         "every FAA function must be realized by some FDA component")
register("fda-la-allocation", "model", Severity.ERROR,
         "every FDA component must be allocated to exactly one cluster")
register("interface-refinement", "model", Severity.ERROR,
         "refined components must preserve the abstract interface")
register("la-ta-deployment", "model", Severity.ERROR,
         "every cluster must be deployed to exactly one ECU")

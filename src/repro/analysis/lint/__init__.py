"""``repro.analysis.lint`` -- the static-analysis engine.

Prove schedules safe before a single tick runs: IR dataflow verification
over :class:`~repro.simulation.schedule_ir.FlatSchedule` programs,
interval x type x ABSENT abstract interpretation of base-language
expressions and machine-level MTD/STD checks.  They report
:class:`~repro.core.validation.Finding` objects with stable rule ids into a
:class:`~repro.core.validation.ValidationReport`, the report every other
check in the repository fills too; this package adds the rule registry,
SARIF 2.1.0 export and a ``python -m repro.analysis.lint`` CLI.
"""

from .engine import lint_component, lint_model, verify_component
from .expr_check import (AbstractValue, abstract_of_type, abstract_of_value,
                         check_expression, environment_of_ports,
                         lint_expression_component)
from .findings import to_sarif
from .ir_verify import lint_flat_schedule
from .machine_check import lint_machine, lint_machines
from .registry import LintRule, all_rules, get_rule, register, rule_ids

__all__ = [
    "AbstractValue",
    "LintRule",
    "abstract_of_type",
    "abstract_of_value",
    "all_rules",
    "check_expression",
    "environment_of_ports",
    "get_rule",
    "lint_component",
    "lint_expression_component",
    "lint_flat_schedule",
    "lint_machine",
    "lint_machines",
    "lint_model",
    "register",
    "rule_ids",
    "to_sarif",
    "verify_component",
]

"""``repro.analysis.lint`` -- the unified static-analysis engine.

Prove schedules safe before a single tick runs: IR dataflow verification
over :class:`~repro.simulation.schedule_ir.FlatSchedule` programs,
interval x type x ABSENT abstract interpretation of base-language
expressions, machine-level MTD/STD checks, and the legacy model-level
analyses -- all reporting through one :class:`Finding` schema with stable
rule ids, JSON and SARIF 2.1.0 export, and a ``python -m
repro.analysis.lint`` CLI.
"""

from .engine import (lint_causality, lint_component, lint_conflicts,
                     lint_model, lint_well_definedness,
                     verify_component)
from .expr_check import (AbstractValue, abstract_of_type, abstract_of_value,
                         check_expression, environment_of_ports,
                         lint_expression_component)
from .findings import (FINDING_SCHEMA_VERSION, Finding, LintReport,
                       findings_from_report, to_sarif)
from .ir_verify import lint_flat_schedule
from .machine_check import lint_machine, lint_machines
from .registry import LintRule, all_rules, get_rule, register, rule_ids

__all__ = [
    "FINDING_SCHEMA_VERSION",
    "AbstractValue",
    "Finding",
    "LintReport",
    "LintRule",
    "abstract_of_type",
    "abstract_of_value",
    "all_rules",
    "check_expression",
    "environment_of_ports",
    "findings_from_report",
    "get_rule",
    "lint_causality",
    "lint_component",
    "lint_conflicts",
    "lint_expression_component",
    "lint_flat_schedule",
    "lint_machine",
    "lint_machines",
    "lint_model",
    "lint_well_definedness",
    "register",
    "rule_ids",
    "to_sarif",
    "verify_component",
]

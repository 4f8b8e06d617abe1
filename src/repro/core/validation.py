"""The one finding schema shared by every check in the repository.

Each notation (SSD, DFD, MTD, STD, CCD) and each abstraction level defines
well-formedness rules; the FAA conflict rules, the LA-level
well-definedness conditions, causality, transformation applicability and
the static-analysis engine (:mod:`repro.analysis.lint`) check further
properties.  All of them report :class:`Finding` objects -- a stable rule
id, a severity, a message and a machine-readable location -- into a
:class:`ValidationReport`, which decides whether a model is acceptable and
exports its findings as JSON (SARIF export lives with the rule registry in
:mod:`repro.analysis.lint`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from .errors import ValidationError

#: Schema version of the JSON export (bump on incompatible shape changes).
FINDING_SCHEMA_VERSION = 1


class Severity(enum.Enum):
    """How serious a validation finding is."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass
class Finding:
    """One finding of a check.

    ``rule`` is a stable rule id, ``subject`` the report it was found
    under, ``element`` the model element (hierarchical path, slot name,
    transition...) it is anchored to, and ``location`` an optional
    machine-readable dict (op index, slot index, witness valuation...)
    whose keys are rule-specific but stable per rule.
    """

    rule: str
    severity: Severity
    message: str
    subject: str = ""
    element: str = ""
    suggestion: str = ""
    location: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        hint = f" -- suggestion: {self.suggestion}" if self.suggestion else ""
        return f"{self.severity}: ({self.rule}){where} {self.message}{hint}"

    def to_json_dict(self) -> Dict[str, Any]:
        """The stable JSON shape of one finding."""
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "element": self.element,
        }
        if self.suggestion:
            out["suggestion"] = self.suggestion
        if self.location:
            out["location"] = dict(self.location)
        return out


class ValidationReport:
    """All findings produced by checking one subject (model or schedule).

    A finding added without a subject takes the report's; a finding merged
    in from another report keeps the subject it was found under.
    """

    def __init__(self, subject: str,
                 findings: Optional[Iterable[Finding]] = None):
        self.subject = subject
        self.findings: List[Finding] = []
        self.extend(findings or ())

    # -- building ----------------------------------------------------------

    def add(self, finding: Finding) -> Finding:
        if not finding.subject:
            finding.subject = self.subject
        self.findings.append(finding)
        return finding

    def info(self, rule: str, message: str, element: str = "",
             suggestion: str = "") -> Finding:
        return self.add(Finding(rule, Severity.INFO, message,
                                element=element, suggestion=suggestion))

    def warning(self, rule: str, message: str, element: str = "",
                suggestion: str = "") -> Finding:
        return self.add(Finding(rule, Severity.WARNING, message,
                                element=element, suggestion=suggestion))

    def error(self, rule: str, message: str, element: str = "",
              suggestion: str = "") -> Finding:
        return self.add(Finding(rule, Severity.ERROR, message,
                                element=element, suggestion=suggestion))

    def extend(self, findings: Iterable[Finding]) -> None:
        for finding in findings:
            self.add(finding)

    def merge(self, other: "ValidationReport") -> None:
        self.extend(other.findings)

    # -- queries -----------------------------------------------------------

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def infos(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.INFO]

    def is_valid(self) -> bool:
        """True if no error-level finding was reported."""
        return not self.errors()

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def raise_on_errors(self) -> None:
        """Raise :class:`ValidationError` summarising all errors, if any."""
        errors = self.errors()
        if errors:
            details = "; ".join(finding.describe() for finding in errors)
            raise ValidationError(
                f"{self.subject}: {len(errors)} validation error(s): {details}")

    def summary(self) -> str:
        return (f"{self.subject}: {len(self.errors())} error(s), "
                f"{len(self.warnings())} warning(s), "
                f"{len(self.infos())} info(s)")

    def describe(self) -> str:
        lines = [self.summary()]
        lines.extend("  " + finding.describe() for finding in self.findings)
        return "\n".join(lines)

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": FINDING_SCHEMA_VERSION,
            "subject": self.subject,
            "counts": {"error": len(self.errors()),
                       "warning": len(self.warnings()),
                       "info": len(self.infos())},
            "findings": [finding.to_json_dict()
                         for finding in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True,
                          default=repr)

    def __repr__(self) -> str:
        return (f"ValidationReport({self.subject!r}, "
                f"findings={len(self.findings)})")


#: Signature of a validation rule: takes the model, appends to the report.
Rule = Callable[[object, ValidationReport], None]


class RuleSet:
    """A named collection of validation rules applied together."""

    def __init__(self, name: str):
        self.name = name
        self._rules: List[tuple] = []

    def rule(self, rule_id: str) -> Callable[[Rule], Rule]:
        """Decorator registering a rule function under *rule_id*."""
        def decorator(func: Rule) -> Rule:
            self.add(rule_id, func)
            return func
        return decorator

    def add(self, rule_id: str, func: Rule) -> None:
        if any(existing_id == rule_id for existing_id, _ in self._rules):
            raise ValidationError(
                f"rule set {self.name!r} already has a rule {rule_id!r}")
        self._rules.append((rule_id, func))

    def rule_ids(self) -> List[str]:
        return [rule_id for rule_id, _ in self._rules]

    def apply(self, model: object, subject: Optional[str] = None,
              report: Optional[ValidationReport] = None) -> ValidationReport:
        """Run every rule of the set against *model*."""
        if report is None:
            report = ValidationReport(subject or getattr(model, "name", str(model)))
        for _, func in self._rules:
            func(model, report)
        return report

    def __len__(self) -> int:
        return len(self._rules)

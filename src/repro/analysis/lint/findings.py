"""SARIF 2.1.0 export of :class:`~repro.core.validation.ValidationReport`s.

Every check in this repository -- the notation ``validate()`` rule sets,
the level validators, causality, the CCD well-definedness conditions, FAA
conflict detection, and this engine's IR, expression and machine rules --
reports :class:`~repro.core.validation.Finding` objects into a
``ValidationReport``.  :func:`to_sarif` exports any number of such reports
as one SARIF log (the interchange format CI code-scanning UIs ingest),
with rule metadata from :mod:`repro.analysis.lint.registry`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from ...core.validation import Severity, ValidationReport
from .registry import get_rule

#: SARIF level per severity (SARIF has no separate "info" failure level).
_SARIF_LEVELS = {Severity.INFO: "note", Severity.WARNING: "warning",
                 Severity.ERROR: "error"}


def to_sarif(reports: Iterable[ValidationReport],
             tool_version: str = "1.0.0") -> Dict[str, Any]:
    """Export one or more reports as a SARIF 2.1.0 log (one run).

    Rule metadata comes from the registry; unregistered rule ids (the
    notation rule sets' ids, custom rules added by downstream users) still
    export with a minimal descriptor, so the log always validates.
    """
    reports = list(reports)
    rule_ids: List[str] = []
    for report in reports:
        for finding in report.findings:
            if finding.rule not in rule_ids:
                rule_ids.append(finding.rule)
    rule_index = {rule_id: index for index, rule_id in enumerate(rule_ids)}
    descriptors = []
    for rule_id in rule_ids:
        rule = get_rule(rule_id)
        descriptor: Dict[str, Any] = {"id": rule_id}
        if rule is not None:
            descriptor["shortDescription"] = {"text": rule.summary}
            descriptor["defaultConfiguration"] = {
                "level": _SARIF_LEVELS[rule.default_severity]}
            descriptor["properties"] = {"layer": rule.layer}
        descriptors.append(descriptor)
    results = []
    for report in reports:
        for finding in report.findings:
            message = finding.message
            if finding.suggestion:
                message += f" (suggestion: {finding.suggestion})"
            result: Dict[str, Any] = {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": _SARIF_LEVELS[finding.severity],
                "message": {"text": message},
                "locations": [{
                    "logicalLocations": [{
                        "fullyQualifiedName":
                            finding.element or finding.subject,
                    }],
                }],
                "properties": {"subject": finding.subject},
            }
            if finding.location:
                result["properties"]["location"] = {
                    key: value for key, value in finding.location.items()}
            results.append(result)
    return {
        "version": "2.1.0",
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri":
                    "https://example.invalid/repro/analysis/lint",
                "version": tool_version,
                "rules": descriptors,
            }},
            "results": results,
        }],
    }

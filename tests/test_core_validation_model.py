"""Tests for the validation framework and the coherent model container."""

import pytest

from repro.core.errors import ModelError, UnknownElementError, ValidationError
from repro.core.model import (AbstractionLevel, AutoModeModel, LEVEL_ORDER,
                              is_more_abstract)
from repro.core.validation import (Finding, RuleSet, Severity,
                                   ValidationReport)


class TestValidationReport:
    def test_add_and_query(self):
        report = ValidationReport("subject")
        report.error("r1", "broken", element="x")
        report.warning("r2", "odd")
        report.info("r3", "fyi")
        assert len(report.errors()) == 1
        assert len(report.warnings()) == 1
        assert len(report.infos()) == 1
        assert not report.is_valid()
        assert report.by_rule("r1")[0].message == "broken"
        assert "1 error" in report.summary()
        assert "broken" in report.describe()

    def test_valid_report(self):
        report = ValidationReport("subject")
        report.info("ok", "all fine")
        assert report.is_valid()
        report.raise_on_errors()  # must not raise

    def test_raise_on_errors(self):
        report = ValidationReport("subject")
        report.error("bad", "nope", suggestion="fix it")
        with pytest.raises(ValidationError):
            report.raise_on_errors()

    def test_issue_describe_contains_suggestion(self):
        finding = Finding("rule", Severity.WARNING, "msg", element="elem",
                          suggestion="try this")
        text = finding.describe()
        assert "rule" in text and "elem" in text and "try this" in text

    def test_extend_and_merge(self):
        first = ValidationReport("a")
        first.error("r", "x")
        second = ValidationReport("b")
        second.warning("r", "y")
        merged = ValidationReport("both")
        merged.merge(first)
        merged.merge(second)
        assert len(merged.findings) == 2
        assert merged.subject == "both"
        # a merged finding keeps the subject it was found under
        assert [f.subject for f in merged.findings] == ["a", "b"]
        merged.extend([Finding("r", Severity.INFO, "z")])
        assert merged.findings[-1].subject == "both"


class TestRuleSet:
    def test_rules_applied_in_order(self):
        rules = RuleSet("demo")
        calls = []

        @rules.rule("first")
        def _first(model, report):
            calls.append("first")

        @rules.rule("second")
        def _second(model, report):
            calls.append("second")
            report.info("second", "ran")

        report = rules.apply(object(), subject="thing")
        assert calls == ["first", "second"]
        assert len(report.infos()) == 1
        assert len(rules) == 2
        assert rules.rule_ids() == ["first", "second"]

    def test_duplicate_rule_id_rejected(self):
        rules = RuleSet("demo")
        rules.add("x", lambda model, report: None)
        with pytest.raises(ValidationError):
            rules.add("x", lambda model, report: None)


class TestAbstractionLevels:
    def test_level_order(self):
        assert LEVEL_ORDER[0] is AbstractionLevel.FAA
        assert LEVEL_ORDER[-1] is AbstractionLevel.OA

    def test_is_more_abstract(self):
        assert is_more_abstract(AbstractionLevel.FAA, AbstractionLevel.LA)
        assert not is_more_abstract(AbstractionLevel.OA, AbstractionLevel.FDA)

    def test_str_contains_both_names(self):
        assert "FDA" in str(AbstractionLevel.FDA)
        assert "Functional Design" in str(AbstractionLevel.FDA)


class TestAutoModeModel:
    def test_level_management(self):
        model = AutoModeModel("Engine", "demo")
        model.set_level(AbstractionLevel.FAA, object())
        model.set_level(AbstractionLevel.LA, object())
        assert model.has_level(AbstractionLevel.FAA)
        assert not model.has_level(AbstractionLevel.FDA)
        assert model.defined_levels() == [AbstractionLevel.FAA,
                                          AbstractionLevel.LA]
        assert model.most_concrete_level() is AbstractionLevel.LA
        with pytest.raises(UnknownElementError):
            model.level(AbstractionLevel.OA)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            AutoModeModel("")

    def test_history_recording(self):
        model = AutoModeModel("Engine")
        model.record("white-box-reengineering", "reengineering",
                     AbstractionLevel.OA, AbstractionLevel.FDA, modules=6)
        model.record("clustering", "refinement",
                     AbstractionLevel.FDA, AbstractionLevel.LA)
        assert len(model.history) == 2
        assert len(model.history_of_kind("refinement")) == 1
        assert model.history[0].details["modules"] == 6
        assert "OA -> FDA" in model.history[0].describe()

    def test_describe_lists_levels_and_history(self):
        model = AutoModeModel("Engine")
        model.set_level(AbstractionLevel.FDA, AutoModeModel("inner"))
        model.record("step", "refactoring")
        text = model.describe()
        assert "[x] FDA" in text
        assert "[ ] OA" in text
        assert "step" in text
        assert "FDA" in repr(model)

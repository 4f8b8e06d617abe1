"""Unified reporting: rule registry, Finding/ValidationReport JSON schema,
SARIF export of every report producer and the ``python -m
repro.analysis.lint`` CLI end to end.
"""

import json

import pytest

from repro.analysis.conflicts import analyze_conflicts
from repro.analysis.consistency import (check_faa_fda_coverage,
                                        check_fda_la_allocation,
                                        check_interface_refinement,
                                        check_la_ta_deployment)
from repro.analysis.lint import (all_rules, get_rule, lint_component,
                                 lint_flat_schedule, lint_model, register,
                                 rule_ids, to_sarif, verify_component)
from repro.analysis.lint.__main__ import main as lint_main
from repro.analysis.well_definedness import check_well_definedness
from repro.casestudy.door_lock import build_door_lock_faa
from repro.casestudy.engine_control import (build_crank_sequencer_std,
                                            build_engine_ccd,
                                            build_engine_modes_mtd)
from repro.casestudy.momentum import (build_closed_loop,
                                      build_momentum_controller)
from repro.casestudy.reengineered import build_reengineered_fda
from repro.core.components import ExpressionComponent
from repro.core.errors import ValidationError
from repro.core.validation import (FINDING_SCHEMA_VERSION, Finding, Severity,
                                   ValidationReport)
from repro.levels.faa import FunctionalAnalysisArchitecture
from repro.levels.fda import FunctionalDesignArchitecture
from repro.levels.la import LogicalArchitecture
from repro.levels.oa import OperationalArchitecture
from repro.levels.ta import TechnicalArchitectureLevel
from repro.notations.dfd import DataFlowDiagram
from repro.simulation.causality import analyze_causality
from repro.simulation.compiled import compile_component
from repro.simulation.schedule_ir import compile_flat
from repro.transformations.deployment import ClusterDeployment, deploy
from repro.transformations.mtd_to_dataflow import MtdToDataflowTransformation


def _loop_model():
    """Two instantaneous components in a cycle: not causal."""
    dfd = DataFlowDiagram("Loop")
    dfd.add_input("x")
    dfd.add_output("out")
    first = ExpressionComponent("F", {"out": "a + b"})
    first.add_input("a")
    first.add_input("b")
    first.add_output("out")
    second = ExpressionComponent("G", {"out": "c * 2"})
    second.add_input("c")
    second.add_output("out")
    dfd.add_subcomponent(first)
    dfd.add_subcomponent(second)
    dfd.connect("x", "F.a")
    dfd.connect("G.out", "F.b")
    dfd.connect("F.out", "G.c")
    dfd.connect("F.out", "out")
    return dfd


# -- registry ----------------------------------------------------------------


def test_rule_ids_are_unique_and_resolvable():
    ids = rule_ids()
    assert len(ids) == len(set(ids))
    for rule_id in ids:
        rule = get_rule(rule_id)
        assert rule.rule_id == rule_id
        assert rule.layer in ("ir", "expr", "machine", "model")
        assert rule.summary


def test_registry_rejects_duplicate_registration():
    existing = all_rules()[0]
    with pytest.raises(ValidationError):
        register(existing.rule_id, existing.layer,
                 existing.default_severity, existing.summary)


def test_registry_covers_all_layers():
    layers = {rule.layer for rule in all_rules()}
    assert layers == {"ir", "expr", "machine", "model"}


# -- finding / report JSON ---------------------------------------------------


def test_finding_json_shape():
    finding = Finding("ir-dead-store", Severity.INFO, "slot 3 never read",
                      subject="m", element="m.op[2]",
                      suggestion="drop it", location={"slot": 3})
    payload = finding.to_json_dict()
    assert payload["rule"] == "ir-dead-store"
    assert payload["severity"] == "info"
    assert payload["location"] == {"slot": 3}
    assert "slot 3 never read" in finding.describe()


def test_report_counts_and_json_roundtrip():
    report = ValidationReport("demo")
    report.add(Finding("ir-dead-store", Severity.INFO, "a"))
    report.add(Finding("ir-write-write", Severity.WARNING, "b"))
    report.add(Finding("ir-read-before-write", Severity.ERROR, "c"))
    assert len(report.errors()) == 1
    assert len(report.warnings()) == 1
    assert len(report.infos()) == 1
    assert not report.is_valid()
    # warnings and infos alone leave a report valid
    assert ValidationReport("demo",
                            report.warnings() + report.infos()).is_valid()
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == FINDING_SCHEMA_VERSION
    assert payload["subject"] == "demo"
    assert payload["counts"] == {"error": 1, "warning": 1, "info": 1}
    assert len(payload["findings"]) == 3


def test_raise_on_errors():
    report = ValidationReport("demo")
    report.add(Finding("causality", Severity.ERROR, "loop through F, G"))
    with pytest.raises(ValidationError, match="loop through F, G"):
        report.raise_on_errors()
    ValidationReport("clean").raise_on_errors()  # no error -> no raise


# -- every report producer exports through one schema -----------------------


def _engine_deployment(ccd):
    return deploy(ccd, ["ECU_Engine", "ECU_Body"],
                  allocation={"SensorProcessing": "ECU_Engine",
                              "FuelAndIgnition": "ECU_Engine",
                              "IdleSpeed": "ECU_Body",
                              "Monitoring": "ECU_Body"})


def _report_producers():
    """Every check that reports, run on the case-study models."""
    faa, fda, ccd = (build_door_lock_faa(), build_reengineered_fda(),
                     build_engine_ccd())
    deployment = _engine_deployment(ccd)
    ta = TechnicalArchitectureLevel("EngineTA", deployment)
    mtd = build_engine_modes_mtd()
    return {
        "ssd rules": lambda: faa.validate(),
        "dfd rules": lambda: build_momentum_controller().validate(),
        "mtd rules": lambda: mtd.validate(),
        "std rules": lambda: build_crank_sequencer_std().validate(),
        "ccd rules": lambda: ccd.validate(),
        "faa level": lambda: FunctionalAnalysisArchitecture(
            "DoorLock", faa).validate(),
        "fda level": lambda: FunctionalDesignArchitecture(
            "Engine", fda).validate(),
        "la level": lambda: LogicalArchitecture("EngineLA", ccd).validate(),
        "ta level": lambda: ta.validate(),
        "oa level": lambda: OperationalArchitecture(
            "EngineOA", ccd, deployment).validate(),
        "causality": lambda: analyze_causality(fda).to_report(),
        "conflicts": lambda: analyze_conflicts(faa).to_report(),
        "well-definedness": lambda: check_well_definedness(ccd),
        "faa/fda coverage": lambda: check_faa_fda_coverage(faa, fda),
        "fda/la allocation": lambda: check_fda_la_allocation(fda, ccd),
        "interface refinement": lambda: check_interface_refinement(
            mtd, build_engine_modes_mtd()),
        "la/ta deployment": lambda: check_la_ta_deployment(
            ccd, ta.task_of_cluster()),
        "mtd-to-dataflow applicability": lambda:
            MtdToDataflowTransformation().check_applicable(ccd),
        "deployment applicability": lambda:
            ClusterDeployment().check_applicable(ccd),
        "lint_component": lambda: lint_component(_loop_model()),
        "lint_model": lambda: lint_model(mtd),
        "lint_flat_schedule": lambda: lint_flat_schedule(
            compile_flat(build_closed_loop())),
        "verify_component": lambda: verify_component(
            build_momentum_controller()),
    }


def test_every_report_producer_exports_json_and_sarif():
    exported = 0
    for name, produce in _report_producers().items():
        report = produce()
        assert isinstance(report, ValidationReport), name
        payload = json.loads(json.dumps(report.to_json_dict(), default=repr))
        assert payload["schema_version"] == FINDING_SCHEMA_VERSION, name
        assert len(payload["findings"]) == len(report.findings), name
        assert all(finding["subject"] for finding in payload["findings"]), name
        results = to_sarif([report])["runs"][0]["results"]
        assert [result["ruleId"] for result in results] == \
            [finding.rule for finding in report.findings], name
        assert [result["properties"]["subject"] for result in results] == \
            [finding.subject for finding in report.findings], name
        exported += len(results)
    assert exported > 0


def test_well_definedness_findings_keep_the_renamed_subject():
    report = check_well_definedness(build_engine_ccd())
    assert report.subject.startswith("well-definedness of CCD")
    assert {finding.subject for finding in report.findings} == \
        {report.subject}


def test_causality_analysis_flags_instantaneous_loop():
    report = analyze_causality(_loop_model()).to_report()
    findings = report.by_rule("causality")
    assert findings and findings[0].severity is Severity.ERROR


def test_lint_component_takes_the_causality_analysis_error_findings():
    model = _loop_model()
    linted = lint_component(model).by_rule("causality")
    analysed = analyze_causality(model).to_report().errors()
    assert [(f.message, f.element, f.suggestion, f.location)
            for f in linted] == \
        [(f.message, f.element, f.suggestion, f.location) for f in analysed]
    assert linted[0].location == {"cycle": ["F", "G"]}


def test_well_definedness_reports_deliberate_missing_delay():
    # engine-ccd ships one repairable rate transition by design
    report = check_well_definedness(build_engine_ccd())
    assert report.by_rule("ccd-rate-transition")


def test_conflict_analysis_uses_registered_faa_rules():
    report = analyze_conflicts(build_door_lock_faa()).to_report()
    # the door-lock FAA has a known actuator conflict (both functions drive
    # the door locks); it must surface under the registered rule id
    conflicts = report.by_rule("faa-actuator-conflict")
    assert conflicts and all(f.rule in rule_ids() for f in conflicts)


# -- SARIF -------------------------------------------------------------------


def test_sarif_export_shape():
    report = ValidationReport("demo")
    report.add(Finding("ir-dead-store", Severity.INFO, "a",
                       element="demo.op[1]"))
    report.add(Finding("causality", Severity.ERROR, "loop"))
    sarif = to_sarif([report])
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    described = {rule["id"] for rule in driver["rules"]}
    assert {"ir-dead-store", "causality"} <= described
    levels = {result["ruleId"]: result["level"] for result in run["results"]}
    assert levels == {"ir-dead-store": "note", "causality": "error"}
    for result in run["results"]:
        assert result["ruleIndex"] == \
            [r["id"] for r in driver["rules"]].index(result["ruleId"])


def test_sarif_handles_unregistered_legacy_rule_ids():
    report = ValidationReport("demo")
    report.add(Finding("ccd-clusters-only", Severity.WARNING, "legacy"))
    sarif = to_sarif([report])
    driver = sarif["runs"][0]["tool"]["driver"]
    assert any(rule["id"] == "ccd-clusters-only" for rule in driver["rules"])


# -- verify wiring -----------------------------------------------------------


def test_verify_component_raises_on_causality_loop():
    with pytest.raises(ValidationError, match="causality"):
        verify_component(_loop_model())


def test_verify_component_passes_clean_model():
    report = verify_component(build_momentum_controller())
    assert not report.errors()


def test_compile_component_verify_flag():
    with pytest.raises(ValidationError):
        compile_component(_loop_model(), verify=True)
    simulator = compile_component(build_momentum_controller(), verify=True)
    assert simulator is not None


# -- CLI ---------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "ir-read-before-write" in out
    assert "machine-guard-overlap" in out


def test_cli_list_targets(capsys):
    assert lint_main(["--list-targets"]) == 0
    assert "engine-ccd" in capsys.readouterr().out


def test_cli_unknown_target_errors():
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["no-such-model"])
    assert excinfo.value.code == 2


def test_cli_all_builtins_are_error_free(tmp_path, capsys):
    json_path = tmp_path / "lint.json"
    sarif_path = tmp_path / "lint.sarif"
    code = lint_main(["--all", "-q", "--json", str(json_path),
                      "--sarif", str(sarif_path)])
    assert code == 0
    assert "ok:" in capsys.readouterr().out
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == FINDING_SCHEMA_VERSION
    assert len(payload["reports"]) == 9
    for report in payload["reports"]:
        assert report["counts"]["error"] == 0
    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_cli_example_file_with_defect_fails(tmp_path, capsys):
    example = tmp_path / "broken.py"
    example.write_text(
        "from repro.core.components import ExpressionComponent\n"
        "from repro.notations.dfd import DataFlowDiagram\n"
        "\n"
        "def build_loop():\n"
        "    dfd = DataFlowDiagram('Loop')\n"
        "    dfd.add_input('x')\n"
        "    dfd.add_output('out')\n"
        "    f = ExpressionComponent('F', {'out': 'a + b'})\n"
        "    f.add_input('a'); f.add_input('b'); f.add_output('out')\n"
        "    g = ExpressionComponent('G', {'out': 'c * 2'})\n"
        "    g.add_input('c'); g.add_output('out')\n"
        "    dfd.add_subcomponent(f); dfd.add_subcomponent(g)\n"
        "    dfd.connect('x', 'F.a'); dfd.connect('G.out', 'F.b')\n"
        "    dfd.connect('F.out', 'G.c'); dfd.connect('F.out', 'out')\n"
        "    return dfd\n")
    code = lint_main(["--example", str(example)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err
    assert "causality" in captured.out


def test_cli_well_definedness_opt_in(capsys):
    assert lint_main(["engine-ccd", "-q"]) == 0
    capsys.readouterr()
    # the deliberate missing delay is only reported when opted in; the
    # finding is rate-transition severity error under the OSEK profile
    code = lint_main(["engine-ccd", "-q", "--well-definedness"])
    assert code == 1

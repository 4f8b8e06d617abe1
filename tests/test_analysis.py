"""Tests for the analysis package: conflicts, metrics, modes, well-definedness,
cross-level consistency."""

import pytest

from repro.analysis.conflicts import analyze_conflicts, suggest_coordinator_name
from repro.analysis.consistency import (check_faa_fda_coverage,
                                        check_fda_la_allocation,
                                        check_interface_refinement,
                                        check_la_ta_deployment)
from repro.analysis.metrics import (compare_metrics, format_comparison,
                                    measure_component)
from repro.analysis.mode_analysis import (build_global_mode_system, find_mtds,
                                          mode_explicitness_summary)
from repro.analysis.well_definedness import (OSEK_FIXED_PRIORITY,
                                             TIME_TRIGGERED,
                                             check_rate_transitions,
                                             check_well_definedness,
                                             missing_delays,
                                             repair_rate_transitions)
from repro.core.clocks import every
from repro.core.components import Component, ExpressionComponent
from repro.core.impl_types import INT16
from repro.core.types import BOOL, FLOAT, FloatType
from repro.notations.ccd import Cluster, ClusterCommunicationDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.ssd import SSDComponent


class TestConflictAnalysis:
    def test_door_lock_conflict_found(self, door_lock_faa):
        analysis = analyze_conflicts(door_lock_faa)
        assert analysis.has_conflicts()
        assert set(analysis.conflicting_actuators()) == {"DoorLock1", "DoorLock2"}
        conflict = analysis.conflicts[0]
        assert "coordinating functionality" in conflict.suggestion()
        assert suggest_coordinator_name(conflict).endswith("Coordinator")

    def test_report_carries_warnings_and_shared_sensors(self, door_lock_faa):
        control = door_lock_faa.subcomponent("DoorLockControl")
        comfort = door_lock_faa.subcomponent("ComfortClosing")
        control.annotate("sensors", ["CrashSensor"])
        comfort.annotate("sensors", ["CrashSensor"])
        report = analyze_conflicts(door_lock_faa).to_report()
        assert report.by_rule("faa-actuator-conflict")
        assert report.by_rule("faa-shared-sensor")
        assert report.is_valid()  # conflicts are warnings, not errors

    def test_no_conflict_without_sharing(self):
        ssd = SSDComponent("Net")
        first = Component("F1").annotate("actuators", ["Throttle"])
        second = Component("F2").annotate("actuators", ["Brake"])
        ssd.add(first, second)
        analysis = analyze_conflicts(ssd)
        assert not analysis.has_conflicts()
        assert analysis.actuator_usage == {"Brake": ["F2"], "Throttle": ["F1"]}

    def test_structural_actuator_usage(self):
        ssd = SSDComponent("Net")
        func_a = ExpressionComponent("A", {"cmd": "1"})
        func_a.add_output("cmd", FLOAT)
        func_b = ExpressionComponent("B", {"cmd": "2"})
        func_b.add_output("cmd", FLOAT)
        actuator = Component("Valve").annotate("role", "actuator")
        actuator.add_input("u", FLOAT)
        actuator.add_input("v", FLOAT)
        ssd.add(func_a, func_b, actuator)
        ssd.connect("A.cmd", "Valve.u")
        ssd.connect("B.cmd", "Valve.v")
        analysis = analyze_conflicts(ssd)
        assert analysis.conflicting_actuators() == ["Valve"]


class TestMetrics:
    def test_measure_counts_structures(self, reengineered_fda):
        metrics = measure_component(reengineered_fda)
        assert metrics.components > 5
        assert metrics.mtd_count == 4
        assert metrics.explicit_modes == 8
        assert metrics.channels > 0
        assert metrics.ports > 10
        as_dict = metrics.as_dict()
        assert as_dict["mtd_count"] == 4
        assert "explicit modes" in metrics.describe()

    def test_if_then_else_counted_in_expressions(self):
        block = ExpressionComponent("F", {"y": "if a then 1 else 2"})
        block.declare_interface_from_expressions()
        metrics = measure_component(block)
        assert metrics.if_then_else_operators == 1
        assert metrics.expression_operators >= 1

    def test_boolean_outputs_counted_as_flags(self):
        component = Component("Flags")
        component.add_output("b_one", BOOL)
        component.add_output("b_two", BOOL)
        component.add_output("value", FLOAT)
        metrics = measure_component(component)
        assert metrics.boolean_outputs == 2

    def test_compare_and_format(self):
        first = measure_component(Component("A"))
        second_component = Component("B")
        second_component.add_output("x", BOOL)
        second = measure_component(second_component)
        rows = compare_metrics(first, second)
        assert rows["boolean_outputs"]["delta"] == 1
        table = format_comparison(first, second, "ascet", "automode")
        assert "ascet" in table and "automode" in table


class TestGlobalModeSystem:
    def test_product_of_case_study_mtds(self, reengineered_fda):
        mtds = find_mtds(reengineered_fda)
        assert len(mtds) == 4
        system = build_global_mode_system(reengineered_fda, scenario_limit=512)
        assert system.mode_count() >= 2
        assert system.transition_count() >= 1
        assert system.initial in system.modes
        assert len(system.reachable_from_initial()) == system.mode_count() or \
            system.unreachable_modes() == system.modes - system.reachable_from_initial()
        text = system.describe()
        assert "global mode transition system" in text

    def test_single_mtd_product_matches_local_modes(self, engine_modes_mtd):
        system = build_global_mode_system(engine_modes_mtd, scenario_limit=2048)
        local = set(engine_modes_mtd.mode_names())
        global_modes = {mode[0] for mode in system.modes}
        assert global_modes <= local
        assert len(global_modes) >= 4  # most modes are reachable

    def test_component_without_mtds(self):
        system = build_global_mode_system(Component("Plain"))
        assert system.mode_count() == 1
        assert system.transition_count() == 0

    def test_explicitness_summary(self, reengineered_fda):
        summary = mode_explicitness_summary(reengineered_fda)
        assert summary["mtd_count"] == 4
        assert summary["explicit_modes"] == 8
        assert len(summary["mtd_names"]) == 4


class TestWellDefinedness:
    def test_engine_ccd_has_one_missing_delay(self, engine_ccd):
        violations = missing_delays(engine_ccd)
        assert len(violations) == 1
        findings = check_rate_transitions(engine_ccd)
        bad = [finding for finding in findings if not finding.is_well_defined]
        assert len(bad) == 1
        assert bad[0].source == "Monitoring"
        assert bad[0].destination == "FuelAndIgnition"
        assert bad[0].direction == "slow-to-fast"
        assert "MISSING DELAY" in bad[0].describe()

    def test_fast_to_slow_needs_no_delay_under_osek(self, engine_ccd):
        findings = check_rate_transitions(engine_ccd, OSEK_FIXED_PRIORITY)
        fast_to_slow = [finding for finding in findings
                        if finding.direction == "fast-to-slow"]
        assert all(finding.is_well_defined for finding in fast_to_slow)

    def test_time_triggered_profile_is_stricter(self, engine_ccd):
        osek_missing = len(missing_delays(engine_ccd, OSEK_FIXED_PRIORITY))
        tt_missing = len(missing_delays(engine_ccd, TIME_TRIGGERED))
        assert tt_missing > osek_missing

    def test_report_and_repair(self, engine_ccd):
        report = check_well_definedness(engine_ccd)
        assert not report.is_valid()
        repaired = repair_rate_transitions(engine_ccd)
        assert len(repaired) == 1
        assert check_well_definedness(engine_ccd).is_valid()
        assert missing_delays(engine_ccd) == []


def _tiny_ccd_with_members():
    ccd = ClusterCommunicationDiagram("LA")
    cluster = Cluster("C1", rate=every(1))
    cluster.annotations["members"] = ["CompA", "CompB"]
    ccd.add_cluster(cluster)
    return ccd


class TestConsistency:
    def test_faa_fda_coverage(self):
        faa = SSDComponent("FAA")
        faa.add(Component("CentralLocking"), Component("CrashUnlock"))
        fda = SSDComponent("FDA")
        realizer = Component("LockingSw").annotate("realizes", "CentralLocking")
        fda.add_subcomponent(realizer)
        report = check_faa_fda_coverage(faa, fda)
        assert not report.is_valid()
        missing = [issue for issue in report.errors()]
        assert missing[0].element == "CrashUnlock"

    def test_fda_la_allocation(self):
        fda = SSDComponent("FDA")
        fda.add(Component("CompA"), Component("CompB"), Component("CompC"))
        ccd = _tiny_ccd_with_members()
        report = check_fda_la_allocation(fda, ccd)
        assert not report.is_valid()
        unallocated = {issue.element for issue in report.errors()}
        assert unallocated == {"CompC"}

    def test_double_allocation_is_error(self):
        fda = SSDComponent("FDA")
        fda.add_subcomponent(Component("CompA"))
        ccd = _tiny_ccd_with_members()
        second = Cluster("C2", rate=every(1))
        second.annotations["members"] = ["CompA"]
        ccd.add_cluster(second)
        report = check_fda_la_allocation(fda, ccd)
        assert any("several clusters" in issue.message for issue in report.errors())

    def test_interface_refinement(self):
        abstract = Component("A")
        abstract.add_input("n", FloatType(0.0, 8000.0))
        abstract.add_output("y", FLOAT)
        concrete = Component("A_impl")
        concrete.add_input("n", INT16)
        concrete.add_output("y", FLOAT)
        report = check_interface_refinement(abstract, concrete)
        assert report.is_valid()
        # missing port
        incomplete = Component("A_bad")
        incomplete.add_input("n", INT16)
        report = check_interface_refinement(abstract, incomplete)
        assert not report.is_valid()

    def test_la_ta_deployment(self):
        ccd = _tiny_ccd_with_members()
        ok = check_la_ta_deployment(ccd, {"C1": "ECU1_T1"})
        assert ok.is_valid()
        bad = check_la_ta_deployment(ccd, {})
        assert not bad.is_valid()


class TestConsistencyFailurePaths:
    """Failure modes of the cross-level checks beyond the happy paths:
    direction flips, non-assignable refinements, and their promotion into
    the unified lint finding schema."""

    def test_refinement_direction_flip_is_error(self):
        abstract = Component("A")
        abstract.add_input("n", FLOAT)
        flipped = Component("A_impl")
        flipped.add_output("n", FLOAT)
        report = check_interface_refinement(abstract, flipped)
        assert not report.is_valid()
        assert any("direction" in issue.message for issue in report.errors())

    def test_refinement_incompatible_abstract_types_is_error(self):
        abstract = Component("A")
        abstract.add_output("y", FLOAT)
        narrowed = Component("A_impl")
        narrowed.add_output("y", BOOL)
        report = check_interface_refinement(abstract, narrowed)
        assert not report.is_valid()
        assert any("not" in issue.message and "assignable" in issue.message
                   for issue in report.errors())

    def test_empty_ccd_leaves_every_component_unallocated(self):
        fda = SSDComponent("FDA")
        fda.add(Component("CompA"), Component("CompB"))
        ccd = ClusterCommunicationDiagram("LA")
        report = check_fda_la_allocation(fda, ccd)
        unallocated = {issue.element for issue in report.errors()}
        assert unallocated == {"CompA", "CompB"}

    def test_consistency_failures_surface_with_registered_rule_ids(self):
        from repro.analysis.lint import rule_ids
        fda = SSDComponent("FDA")
        fda.add_subcomponent(Component("CompA"))
        report = check_fda_la_allocation(fda, ClusterCommunicationDiagram("LA"))
        errors = [f for f in report.findings if f.severity.value == "error"]
        assert errors and all(f.rule == "fda-la-allocation" for f in errors)
        assert all(f.subject == report.subject for f in errors)
        assert "fda-la-allocation" in rule_ids()
        assert "interface-refinement" in rule_ids()

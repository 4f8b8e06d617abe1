"""Analyses over AutoMoDe models.

* :mod:`repro.analysis.conflicts` -- FAA rule-based actuator conflict detection
* :mod:`repro.analysis.metrics` -- model complexity metrics (case study)
* :mod:`repro.analysis.mode_analysis` -- global mode transition system
* :mod:`repro.analysis.well_definedness` -- LA/CCD target-specific conditions
* :mod:`repro.analysis.consistency` -- cross-level consistency checks
* :mod:`repro.analysis.lint` -- the static-analysis engine
  (IR dataflow verification, expression abstract interpretation,
  machine-level checks, JSON/SARIF export)
"""

from .conflicts import (ActuatorConflict, ConflictAnalysis, analyze_conflicts,
                        suggest_coordinator_name)
from .lint import (lint_component, lint_flat_schedule, lint_model,
                   to_sarif, verify_component)
from .consistency import (check_faa_fda_coverage, check_fda_la_allocation,
                          check_interface_refinement, check_la_ta_deployment)
from .metrics import (ModelMetrics, compare_metrics, format_comparison,
                      measure_component)
from .mode_analysis import (GlobalModeSystem, GlobalTransition, MachineInfo,
                            build_global_mode_system, find_mtds, find_stds,
                            guard_vocabulary, machine_inventory,
                            mode_explicitness_summary)
from .well_definedness import (OSEK_FIXED_PRIORITY, PROFILES, TIME_TRIGGERED,
                               RateTransitionFinding, TargetProfile,
                               check_rate_transitions, check_well_definedness,
                               missing_delays, repair_rate_transitions)

__all__ = [
    "lint_component", "lint_flat_schedule", "lint_model", "to_sarif",
    "verify_component",
    "ActuatorConflict", "ConflictAnalysis", "GlobalModeSystem",
    "GlobalTransition", "MachineInfo", "ModelMetrics", "OSEK_FIXED_PRIORITY",
    "PROFILES", "RateTransitionFinding", "TIME_TRIGGERED", "TargetProfile",
    "analyze_conflicts", "build_global_mode_system", "check_faa_fda_coverage",
    "check_fda_la_allocation", "check_interface_refinement",
    "check_la_ta_deployment", "check_rate_transitions",
    "check_well_definedness", "compare_metrics", "find_mtds", "find_stds",
    "format_comparison", "guard_vocabulary", "machine_inventory",
    "measure_component",
    "missing_delays", "mode_explicitness_summary", "repair_rate_transitions",
    "suggest_coordinator_name",
]

"""Functional Analysis Architecture (FAA) -- paper Sec. 3.1.

The FAA is the most abstract layer of AutoMoDe: a system-level view of the
vehicle functionalities to be implemented in hardware or software, targeted
at function developers and customers.  An FAA description is typically
complete with respect to the considered functionalities and their
dependencies; implementation details and qualitative requirements are not
considered.  Its two analysis instruments are *rules* (conflict detection,
:mod:`repro.analysis.conflicts`) and *simulation* of prototypical behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..analysis.conflicts import ConflictAnalysis, analyze_conflicts
from ..core.components import Component
from ..core.errors import ModelError
from ..core.validation import ValidationReport
from ..notations.ssd import SSDComponent
from ..simulation.engine import simulate
from ..simulation.trace import SimulationTrace


class FunctionalAnalysisArchitecture:
    """The FAA level: a functional network plus its analysis instruments."""

    level_name = "FAA"

    def __init__(self, name: str, network: SSDComponent, description: str = ""):
        if not isinstance(network, SSDComponent):
            raise ModelError("the FAA functional network must be an SSD")
        self.name = name
        self.network = network
        self.description = description

    # -- structure ---------------------------------------------------------------
    def vehicle_functions(self) -> List[Component]:
        """Functionalities (everything that is not a sensor or actuator)."""
        return [component for component in self.network.subcomponents()
                if component.annotations.get("role") not in ("sensor", "actuator")]

    def sensors(self) -> List[Component]:
        return [component for component in self.network.subcomponents()
                if component.annotations.get("role") == "sensor"]

    def actuators(self) -> List[Component]:
        return [component for component in self.network.subcomponents()
                if component.annotations.get("role") == "actuator"]

    def functional_dependencies(self) -> List[Dict[str, str]]:
        """Sender/receiver pairs of the functional network."""
        dependencies = []
        for channel in self.network.internal_channels():
            dependencies.append({
                "from": channel.source.component or self.network.name,
                "to": channel.destination.component or self.network.name,
                "signal": channel.source.port,
            })
        return dependencies

    # -- analysis -----------------------------------------------------------------
    def conflict_analysis(self) -> ConflictAnalysis:
        """Run the rule-based actuator-conflict analysis (Sec. 3.1)."""
        return analyze_conflicts(self.network)

    def validate(self) -> ValidationReport:
        """Structural SSD validation (behaviour may be unspecified) + rules."""
        report = ValidationReport(f"FAA {self.name!r}")
        report.merge(self.network.validate(require_behavior=False))
        report.merge(self.conflict_analysis().to_report())
        return report

    def simulate_prototype(self, stimuli: Optional[Mapping] = None,
                           ticks: int = 20) -> SimulationTrace:
        """Simulate the prototypical behavioural descriptions of the network.

        Components without behaviour make the network non-executable; in that
        case a :class:`~repro.core.errors.SimulationError` is raised, which is
        itself a useful FAA-level finding (the functional concept cannot yet
        be validated by simulation).
        """
        return simulate(self.network, stimuli, ticks)

    def describe(self) -> str:
        functions = ", ".join(component.name for component in self.vehicle_functions())
        return (f"FAA {self.name!r}: {len(self.vehicle_functions())} vehicle "
                f"function(s) [{functions}], {len(self.sensors())} sensor(s), "
                f"{len(self.actuators())} actuator(s), "
                f"{len(self.network.internal_channels())} dependencies")

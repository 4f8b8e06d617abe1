"""Functional Design Architecture (FDA) -- paper Sec. 3.2.

"The FDA is a structurally as well as behaviorally complete description of
the software part in terms of actual software components that can be
instantiated in later phases of the development process."  FDA components
are formed to satisfy qualitative requirements (portability, performance,
maintainability, reuse); atomic components must have a well-defined
behaviour given by a DFD, an MTD, an STD or an expression.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..analysis.mode_analysis import mode_explicitness_summary
from ..core.components import Component
from ..core.errors import ModelError
from ..core.validation import ValidationReport
from ..notations.dfd import DataFlowDiagram
from ..notations.mtd import ModeTransitionDiagram
from ..notations.ssd import SSDComponent
from ..notations.std import StateTransitionDiagram
from ..simulation.causality import analyze_causality
from ..simulation.engine import simulate
from ..simulation.trace import SimulationTrace


class FunctionalDesignArchitecture:
    """The FDA level: the behaviourally complete software architecture."""

    level_name = "FDA"

    def __init__(self, name: str, architecture: SSDComponent,
                 description: str = ""):
        if not isinstance(architecture, SSDComponent):
            raise ModelError("the FDA coarse-grained decomposition must be an SSD")
        self.name = name
        self.architecture = architecture
        self.description = description
        #: qualitative requirements driving the component decomposition
        self.requirements: Dict[str, str] = {}

    # -- structure ----------------------------------------------------------------
    def software_components(self) -> List[Component]:
        return self.architecture.subcomponents()

    def add_requirement(self, name: str, rationale: str) -> None:
        """Document a qualitative requirement (portability, reuse...)."""
        self.requirements[name] = rationale

    def components_by_notation(self) -> Dict[str, List[str]]:
        """Group component names by the behavioural notation that defines them."""
        groups: Dict[str, List[str]] = {"SSD": [], "DFD": [], "MTD": [],
                                        "STD": [], "other": []}
        for component in self.software_components():
            if isinstance(component, ModeTransitionDiagram):
                groups["MTD"].append(component.name)
            elif isinstance(component, StateTransitionDiagram):
                groups["STD"].append(component.name)
            elif isinstance(component, DataFlowDiagram):
                groups["DFD"].append(component.name)
            elif isinstance(component, SSDComponent):
                groups["SSD"].append(component.name)
            else:
                groups["other"].append(component.name)
        return groups

    # -- analysis ------------------------------------------------------------------
    def validate(self) -> ValidationReport:
        """Full FDA validation: structure, behavioural completeness, causality."""
        report = ValidationReport(f"FDA {self.name!r}")
        report.merge(self.architecture.validate(require_behavior=True))
        report.merge(analyze_causality(self.architecture).to_report())
        for component in self.software_components():
            if isinstance(component, (DataFlowDiagram, ModeTransitionDiagram,
                                      StateTransitionDiagram)):
                report.merge(component.validate())
        return report

    def is_behaviorally_complete(self) -> bool:
        return self.architecture.has_behavior()

    def mode_summary(self) -> Dict[str, object]:
        """How much of the design uses explicit modes (case-study metric)."""
        return mode_explicitness_summary(self.architecture)

    def simulate(self, stimuli: Optional[Mapping] = None,
                 ticks: int = 20) -> SimulationTrace:
        return simulate(self.architecture, stimuli, ticks)

    def describe(self) -> str:
        groups = self.components_by_notation()
        parts = [f"{len(names)} {notation}" for notation, names in groups.items()
                 if names]
        return (f"FDA {self.name!r}: {len(self.software_components())} software "
                f"component(s) ({', '.join(parts)}), behaviourally complete: "
                f"{self.is_behaviorally_complete()}")

"""CCD well-definedness conditions (paper Sec. 3.3).

"For CCDs, well-definedness conditions can be specified that may depend on
the characteristics of a given Technical Architecture.  As an example,
consider an OSEK-conformant operating system as a target platform, with
inter-task communication using data integrity mechanisms and fixed-priority,
preemptive scheduling.  In this framework, communication from 'slower-rate'
clusters to a 'faster-rate' cluster necessitates the introduction of at
least one delay operator in the direction of data flow.  On the other hand,
communication in the opposite direction ... does not require introduction of
delays."

This module implements exactly that: a pluggable set of target-specific
condition profiles, with the OSEK fixed-priority preemptive profile as the
paper's reference example, plus a time-triggered profile for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.validation import ValidationReport
from ..notations.ccd import CCD_RULES, ClusterCommunicationDiagram


@dataclass
class TargetProfile:
    """Well-definedness conditions associated with one class of targets."""

    name: str
    description: str
    #: does a slow-to-fast rate transition require a delay operator?
    slow_to_fast_needs_delay: bool
    #: does a fast-to-slow rate transition require a delay operator?
    fast_to_slow_needs_delay: bool
    #: does same-rate cross-cluster communication require a delay operator?
    same_rate_needs_delay: bool = False


#: The paper's reference target: OSEK with data-integrity inter-task
#: communication and fixed-priority preemptive scheduling.
OSEK_FIXED_PRIORITY = TargetProfile(
    name="osek-fixed-priority",
    description=("OSEK-conformant OS, inter-task communication with data "
                 "integrity mechanisms, fixed-priority preemptive scheduling"),
    slow_to_fast_needs_delay=True,
    fast_to_slow_needs_delay=False,
)

#: A strictly time-triggered target where every cross-cluster exchange is
#: buffered at the slot boundary (both directions need delays).
TIME_TRIGGERED = TargetProfile(
    name="time-triggered",
    description="statically scheduled time-triggered target; all "
                "cross-cluster communication buffered at slot boundaries",
    slow_to_fast_needs_delay=True,
    fast_to_slow_needs_delay=True,
    same_rate_needs_delay=True,
)

PROFILES: Dict[str, TargetProfile] = {
    OSEK_FIXED_PRIORITY.name: OSEK_FIXED_PRIORITY,
    TIME_TRIGGERED.name: TIME_TRIGGERED,
}


@dataclass
class RateTransitionFinding:
    """Assessment of one inter-cluster channel against a target profile."""

    channel: str
    source: str
    destination: str
    direction: str
    source_period: int
    destination_period: int
    needs_delay: bool
    has_delay: bool

    @property
    def is_well_defined(self) -> bool:
        return self.has_delay or not self.needs_delay

    def describe(self) -> str:
        status = "ok" if self.is_well_defined else "MISSING DELAY"
        return (f"{self.channel}: {self.source}({self.source_period}) -> "
                f"{self.destination}({self.destination_period}) "
                f"[{self.direction}] {status}")


def check_rate_transitions(ccd: ClusterCommunicationDiagram,
                           profile: TargetProfile = OSEK_FIXED_PRIORITY
                           ) -> List[RateTransitionFinding]:
    """Evaluate every inter-cluster channel against the profile's rules."""
    findings: List[RateTransitionFinding] = []
    for entry in ccd.rate_transitions():
        direction = entry["direction"]
        if direction == "slow-to-fast":
            needs_delay = profile.slow_to_fast_needs_delay
        elif direction == "fast-to-slow":
            needs_delay = profile.fast_to_slow_needs_delay
        else:
            needs_delay = profile.same_rate_needs_delay
        findings.append(RateTransitionFinding(
            channel=entry["channel"].name,
            source=entry["source"],
            destination=entry["destination"],
            direction=direction,
            source_period=entry["source_period"],
            destination_period=entry["destination_period"],
            needs_delay=needs_delay,
            has_delay=entry["delayed"],
        ))
    return findings


def check_well_definedness(ccd: ClusterCommunicationDiagram,
                           profile: TargetProfile = OSEK_FIXED_PRIORITY
                           ) -> ValidationReport:
    """Full LA-level well-definedness check: structure + rate transitions."""
    report = CCD_RULES.apply(ccd, report=ValidationReport(
        f"well-definedness of CCD {ccd.name!r} for target {profile.name!r}"))
    for finding in check_rate_transitions(ccd, profile):
        if finding.is_well_defined:
            report.info("ccd-rate-transition", finding.describe(),
                        element=finding.channel)
        else:
            report.error(
                "ccd-rate-transition",
                f"{finding.describe()}: the {profile.name} target requires at "
                "least one delay operator in the direction of data flow",
                element=finding.channel,
                suggestion="mark the channel as delayed (insert a delay "
                           "operator) between the clusters")
    return report


def missing_delays(ccd: ClusterCommunicationDiagram,
                   profile: TargetProfile = OSEK_FIXED_PRIORITY) -> List[str]:
    """Names of channels that violate the profile's delay requirements."""
    return [finding.channel for finding in check_rate_transitions(ccd, profile)
            if not finding.is_well_defined]


def repair_rate_transitions(ccd: ClusterCommunicationDiagram,
                            profile: TargetProfile = OSEK_FIXED_PRIORITY
                            ) -> List[str]:
    """Insert the required delays in place and return the repaired channels.

    This is the obvious countermeasure a tool would offer next to the check;
    it mutates the channels' ``delayed`` flag (the modelling-level view of
    inserting a delay operator).
    """
    repaired: List[str] = []
    violating = set(missing_delays(ccd, profile))
    for channel in ccd.channels():
        if channel.name in violating:
            channel.delayed = True
            repaired.append(channel.name)
    return repaired

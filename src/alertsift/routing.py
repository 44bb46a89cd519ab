"""Deterministic alert-to-specialist routing.

Maps a candidate alert plus its provenance profile to a nonempty set of
specialist domains. The table is fixed in code, not configurable, so a
given dataset always routes identically. Reads go through the projected
view; a field absent from the projection never fires a routing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from .assembly import SpecialistView, project_for_specialists
from .model import (
    AccelLevel,
    AgentDomain,
    AlertType,
    CandidateAlert,
    DeviceStatus,
    InvariantViolation,
    SelfReportedActivity,
)

__all__ = [
    "RoutingDecision",
    "in_nocturnal_window",
    "route",
    "routed_via_last_resort",
]

PHYSIOLOGICAL_TYPES = frozenset({AlertType.LOW_SPO2, AlertType.HIGH_HR, AlertType.LOW_HR})

# Statuses that positively identify a signal-quality problem and give the
# probe-integrity domain ownership of the alert.
ARTEFACT_STATUSES = frozenset(
    {DeviceStatus.MOTION_ARTEFACT, DeviceStatus.PROBE_COVER, DeviceStatus.SYSTEM_FLAG}
)

# Statuses too coarse to route on with confidence.
AMBIGUOUS_STATUSES = frozenset({DeviceStatus.SYSTEM_FLAG, DeviceStatus.THRESHOLD_MARGINAL})

MOTION_REPORTS = frozenset({SelfReportedActivity.WALKING, SelfReportedActivity.EXERCISING})

NOCTURNAL_START_HOUR = 22
NOCTURNAL_END_HOUR = 6


def in_nocturnal_window(ts: datetime) -> bool:
    """True for timestamps in [22:00, 06:00), half-open at both edges."""
    return ts.hour >= NOCTURNAL_START_HOUR or ts.hour < NOCTURNAL_END_HOUR


@dataclass(frozen=True)
class RoutingDecision:
    """Where an alert goes, and whether the routing context was sufficient."""

    targets: frozenset[AgentDomain]
    ambiguity_flag: bool

    def __post_init__(self) -> None:
        if not self.targets:
            raise InvariantViolation("every alert must reach at least one specialist")


def route(alert: CandidateAlert, view: SpecialistView) -> RoutingDecision:
    """Compute the routed specialist set for one alert.

    ``view`` is the specialist projection of the alert's record, the same
    one detection read; routing never sees an inferred field.

    Routing table:
      * signal_quality with an artefact-class status -> probe_integrity
      * motion evidence (accelerometer or self-report) alongside any
        physiological type -> activity_integrity
      * high_hr -> tachycardia; low_hr -> bradycardia
      * low_spo2 in a documented-COPD patient -> copd
      * any physiological type inside the nocturnal window -> nocturnal
      * last resort, when no rule fires (e.g. low_spo2 with neither COPD
        context nor artefact evidence): probe_integrity takes the alert as
        a signal-quality hypothesis.

    The ambiguity flag is raised for system_flag and threshold_marginal
    statuses, which do not carry enough provenance granularity to route
    with confidence.
    """
    types = alert.alert_types
    status = view.value("device_status")
    accel = view.value("accel_level")
    self_activity = view.value("self_reported_activity")
    copd = view.value("copd_documented", default=False)

    targets: set[AgentDomain] = set()
    physiological = bool(types & PHYSIOLOGICAL_TYPES)

    if AlertType.SIGNAL_QUALITY in types and status in ARTEFACT_STATUSES:
        targets.add(AgentDomain.PROBE_INTEGRITY)
    motion_evidence = (accel is not None and accel is not AccelLevel.STILL) or (
        self_activity in MOTION_REPORTS
    )
    if physiological and motion_evidence:
        targets.add(AgentDomain.ACTIVITY_INTEGRITY)
    if AlertType.HIGH_HR in types:
        targets.add(AgentDomain.TACHYCARDIA)
    if AlertType.LOW_HR in types:
        targets.add(AgentDomain.BRADYCARDIA)
    if AlertType.LOW_SPO2 in types and copd is True:
        targets.add(AgentDomain.COPD)
    if physiological and in_nocturnal_window(view.timestamp):
        targets.add(AgentDomain.NOCTURNAL)
    if not targets:
        targets.add(AgentDomain.PROBE_INTEGRITY)

    return RoutingDecision(
        targets=frozenset(targets),
        ambiguity_flag=status in AMBIGUOUS_STATUSES,
    )


def routed_via_last_resort(alert: CandidateAlert, decision: RoutingDecision) -> bool:
    """True when probe_integrity holds the alert only as the fallback target.

    In that situation no specialist has positive provenance context for the
    alert (no artefact-class status earned the probe route), which is what
    separates clear domain ownership from a hypothesis of last resort.
    """
    if decision.targets != frozenset({AgentDomain.PROBE_INTEGRITY}):
        return False
    view = project_for_specialists(alert.record_ref)
    status = view.value("device_status")
    earned = AlertType.SIGNAL_QUALITY in alert.alert_types and status in ARTEFACT_STATUSES
    return not earned

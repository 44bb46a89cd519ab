"""Deterministic alert-to-specialist routing.

Maps an alert, the type set ``detect`` found, plus its view's provenance
profile to a nonempty set of specialist domains. The table is fixed in code, not configurable, so a
given dataset always routes identically. Reads go through the projected
view; a field absent from the projection never fires a routing rule.

A routing decision is a shared immutable value: the table can only produce
a small fixed set of (targets, ambiguity) pairs, so ``route`` builds each
decision once and returns the same object for every alert that routes the
same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import datetime

# project_for_specialists is bound here as well as in evaluate: the traced
# bench (perfbench/tracing.py) wraps the projection at both bindings.
from .assembly import SpecialistView, project_for_specialists  # noqa: F401
from .model import (
    AccelLevel,
    AgentDomain,
    AlertType,
    DOMAIN_ORDER,
    DeviceStatus,
    InvariantViolation,
    SelfReportedActivity,
)

__all__ = [
    "RoutingDecision",
    "in_nocturnal_window",
    "route",
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
    """Where an alert goes, and whether the routing context was sufficient.

    ``domains`` is the targets in ``DOMAIN_ORDER``, the order in which the
    specialists run and their claims are checked; it is derived once, here.
    """

    targets: frozenset[AgentDomain]
    ambiguity_flag: bool
    domains: tuple[AgentDomain, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.targets:
            raise InvariantViolation("every alert must reach at least one specialist")
        domains = tuple(d for d in DOMAIN_ORDER if d in self.targets)
        object.__setattr__(self, "domains", domains)


@functools.lru_cache(maxsize=None)
def _decision(domains: tuple[AgentDomain, ...], ambiguity_flag: bool) -> RoutingDecision:
    # At most 2**6 target sets times two flags, so the cache stays small.
    return RoutingDecision(frozenset(domains), ambiguity_flag)


_SIGNAL_QUALITY = AlertType.SIGNAL_QUALITY
_LOW_SPO2 = AlertType.LOW_SPO2
_HIGH_HR = AlertType.HIGH_HR
_LOW_HR = AlertType.LOW_HR
_STILL = AccelLevel.STILL
_PROBE_INTEGRITY = AgentDomain.PROBE_INTEGRITY
_ACTIVITY_INTEGRITY = AgentDomain.ACTIVITY_INTEGRITY
_TACHYCARDIA = AgentDomain.TACHYCARDIA
_BRADYCARDIA = AgentDomain.BRADYCARDIA
_COPD = AgentDomain.COPD
_NOCTURNAL = AgentDomain.NOCTURNAL


def route(alert_types: frozenset[AlertType], view: SpecialistView) -> RoutingDecision:
    """Compute the routed specialist set for one alert.

    ``alert_types`` is what ``detect`` found on ``view``, the specialist
    projection of the alert's record; routing never sees an inferred field.

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

    The rules run in ``DOMAIN_ORDER``, so the domains they add are already
    in that order; the shared decision for them is looked up, not built.
    """
    status = view.value("device_status")
    accel = view.value("accel_level")
    self_activity = view.value("self_reported_activity")
    copd = view.value("copd_documented", default=False)

    domains: list[AgentDomain] = []
    physiological = not PHYSIOLOGICAL_TYPES.isdisjoint(alert_types)

    if _SIGNAL_QUALITY in alert_types and status in ARTEFACT_STATUSES:
        domains.append(_PROBE_INTEGRITY)
    motion_evidence = (accel is not None and accel is not _STILL) or (
        self_activity in MOTION_REPORTS
    )
    if physiological and motion_evidence:
        domains.append(_ACTIVITY_INTEGRITY)
    if _HIGH_HR in alert_types:
        domains.append(_TACHYCARDIA)
    if _LOW_HR in alert_types:
        domains.append(_BRADYCARDIA)
    if _LOW_SPO2 in alert_types and copd is True:
        domains.append(_COPD)
    if physiological and in_nocturnal_window(view.timestamp):
        domains.append(_NOCTURNAL)
    if not domains:
        domains.append(_PROBE_INTEGRITY)

    return _decision(tuple(domains), status in AMBIGUOUS_STATUSES)

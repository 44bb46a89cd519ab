"""The six deterministic specialist evaluators.

Each evaluator is a pure, guardrail-bounded rule table from (routed alert
types, specialist input view) to a claim; of the type set only the
nocturnal rule reads anything. Hard clinical bounds dominate context:
for example no combination of context fields can suppress an SpO2 reading
below the COPD floor. Specialists may return indeterminate; turning that
into a binary verdict is the aggregation layer's job, not theirs.

Numeric rule parameters live in SpecialistConfig so every bound is
auditable and tunable in one place.

A rule states only a claim's recommendation and rationale codes: a
definitive claim gets ``high_confidence``, and an indeterminate one
``low_confidence``, which no verdict weighs. A claim is a shared immutable
value. The rules can only produce a small fixed set of (domain,
recommendation, confidence, codes) combinations, so each is built and
validated once and the same AgentClaim is returned whenever a rule reaches
it again. Every Enum member a rule compares with or names is bound once at
module level, as ``routing`` and ``meta`` bind theirs, so no rule looks a
member up on its class per alert.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .assembly import SpecialistView
from .model import (
    AccelLevel,
    AgentClaim,
    AgentDomain,
    AlertType,
    DeviceStatus,
    InvariantViolation,
    Position,
    Recommendation,
    SelfReportedActivity,
)
from .routing import MOTION_REPORTS, RoutingDecision, in_nocturnal_window

__all__ = [
    "SpecialistConfig",
    "evaluate_activity_integrity",
    "evaluate_bradycardia",
    "evaluate_copd",
    "evaluate_nocturnal",
    "evaluate_probe_integrity",
    "evaluate_tachycardia",
]

DEFAULT_NOCTURNAL_BASELINE_SPO2 = 96.0


@dataclass(frozen=True)
class SpecialistConfig:
    copd_acceptable_spo2: float = 86.0
    hr_activity_allowance: float = 20.0
    nocturnal_dip_allowance: float = 3.0
    bradycardia_personal_floor: float = 40.0
    high_confidence: float = 0.9
    low_confidence: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_confidence < self.high_confidence <= 1.0:
            raise InvariantViolation("require 0 <= low_confidence < high_confidence <= 1")


# Every member a rule reads, bound once, as routing and meta bind theirs:
# reading an Enum member off its class costs about 0.1 us.
_SUPPRESS = Recommendation.SUPPRESS
_ESCALATE = Recommendation.ESCALATE
_INDETERMINATE = Recommendation.INDETERMINATE
_PROBE_INTEGRITY = AgentDomain.PROBE_INTEGRITY
_ACTIVITY_INTEGRITY = AgentDomain.ACTIVITY_INTEGRITY
_TACHYCARDIA = AgentDomain.TACHYCARDIA
_BRADYCARDIA = AgentDomain.BRADYCARDIA
_COPD = AgentDomain.COPD
_NOCTURNAL = AgentDomain.NOCTURNAL
_OK = DeviceStatus.OK
_SYSTEM_FLAG = DeviceStatus.SYSTEM_FLAG
_ARTEFACT_EVIDENCE = (DeviceStatus.MOTION_ARTEFACT, DeviceStatus.PROBE_COVER)
_ALERT_STATUSES = (DeviceStatus.THRESHOLD_MARGINAL, DeviceStatus.DUPLICATE_ALERT)
_STILL = AccelLevel.STILL
_SUPINE = Position.SUPINE
_RESTING = SelfReportedActivity.RESTING
_LOW_SPO2 = AlertType.LOW_SPO2


# typed: 1 == 1.0, but a config holding either must get back a claim holding
# exactly that number, which the decision log writes as "1" or "1.0".
@functools.lru_cache(maxsize=None, typed=True)
def _interned_claim(
    domain: AgentDomain,
    recommendation: Recommendation,
    confidence: float,
    *codes: str,
) -> AgentClaim:
    return AgentClaim(domain, recommendation, confidence, codes)


def _claim(
    domain: AgentDomain, recommendation: Recommendation, cfg: SpecialistConfig, *codes: str
) -> AgentClaim:
    """The shared claim, at the confidence its recommendation carries."""
    confidence = cfg.low_confidence if recommendation is _INDETERMINATE else cfg.high_confidence
    return _interned_claim(domain, recommendation, confidence, *codes)


def evaluate_probe_integrity(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Suppress on positive artefact evidence, stay indeterminate otherwise.

    motion_artefact / probe_cover are direct artefact evidence; system_flag
    carries no artefact classification; an ok status means the probe route
    was a hypothesis with nothing behind it; threshold_marginal and
    duplicate_alert describe the alert, not the probe.
    """
    domain = _PROBE_INTEGRITY
    status = view.value("device_status")
    if status in _ARTEFACT_EVIDENCE:
        return _claim(domain, _SUPPRESS, cfg, "artefact_flagged")
    if status is _SYSTEM_FLAG:
        return _claim(domain, _INDETERMINATE, cfg, "system_flag_no_context")
    if status in _ALERT_STATUSES:
        return _claim(domain, _INDETERMINATE, cfg, "ambiguous_device_status")
    return _claim(domain, _INDETERMINATE, cfg, "no_artefact_evidence")


def evaluate_activity_integrity(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Reconcile accelerometer motion with the patient's own account.

    Corroborated or uncontradicted motion explains the anomaly; a still
    accelerometer with a claimed walk is a contradiction worth review; and
    with no motion story at all (still and resting, or motion the patient
    explicitly denies) the anomaly has no benign activity explanation.
    """
    domain = _ACTIVITY_INTEGRITY
    accel = view.value("accel_level")
    reported = view.value("self_reported_activity")
    if accel is None:
        return _claim(domain, _INDETERMINATE, cfg, "missing_accelerometer")
    moving = accel is not _STILL
    if moving and (reported in MOTION_REPORTS or reported is None):
        code = "motion_corroborated" if reported in MOTION_REPORTS else "motion_uncontradicted"
        return _claim(domain, _SUPPRESS, cfg, code)
    if not moving and reported in MOTION_REPORTS:
        return _claim(domain, _INDETERMINATE, cfg, "activity_contradiction")
    if moving and reported is _RESTING:
        return _claim(domain, _ESCALATE, cfg, "activity_denied_by_patient")
    return _claim(domain, _ESCALATE, cfg, "no_activity_explanation")


def evaluate_tachycardia(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Suppress high HR explained by motion, baseline allowance, or a
    non-clean device status; an isolated high reading escalates."""
    domain = _TACHYCARDIA
    hr = view.value("hr")
    if hr is None:
        return _claim(domain, _INDETERMINATE, cfg, "missing_heart_rate")
    accel = view.value("accel_level")
    if accel is not None and accel is not _STILL:
        return _claim(domain, _SUPPRESS, cfg, "activity_context")
    baseline = view.value("baseline_hr")
    if baseline is not None and hr <= baseline + cfg.hr_activity_allowance:
        return _claim(domain, _SUPPRESS, cfg, "within_baseline_allowance")
    status = view.value("device_status")
    if status is not None and status is not _OK:
        return _claim(domain, _SUPPRESS, cfg, "device_status_context")
    return _claim(domain, _ESCALATE, cfg, "isolated_high_hr")


def evaluate_bradycardia(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Suppress low HR above the personal floor when rate-limiting
    medication or the nocturnal window explains it; everything else,
    including any reading below the floor, escalates."""
    domain = _BRADYCARDIA
    hr = view.value("hr")
    if hr is None:
        return _claim(domain, _INDETERMINATE, cfg, "missing_heart_rate")
    if hr < cfg.bradycardia_personal_floor:
        return _claim(domain, _ESCALATE, cfg, "below_personal_floor")
    codes = []
    if view.value("rate_limiting_medication", default=False) is True:
        codes.append("medication_context")
    if in_nocturnal_window(view.timestamp):
        codes.append("nocturnal_context")
    if codes:
        return _claim(domain, _SUPPRESS, cfg, *codes)
    return _claim(domain, _ESCALATE, cfg, "unexplained_bradycardia")


def evaluate_copd(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Judge low SpO2 against the patient's own floor.

    The floor is the higher of the global acceptable bound and two points
    below the documented baseline, so neither a generous baseline nor a
    missing one can pull the guardrail under the hard bound.
    """
    domain = _COPD
    spo2 = view.value("spo2")
    if spo2 is None:
        return _claim(domain, _INDETERMINATE, cfg, "missing_spo2")
    if view.value("copd_documented", default=False) is not True:
        return _claim(domain, _INDETERMINATE, cfg, "copd_not_documented")
    floor = cfg.copd_acceptable_spo2
    baseline = view.value("baseline_spo2")
    if baseline is not None:
        floor = max(floor, baseline - 2.0)
    if spo2 >= floor:
        return _claim(domain, _SUPPRESS, cfg, "within_copd_baseline")
    return _claim(domain, _ESCALATE, cfg, "below_copd_floor")


def evaluate_nocturnal(
    alert_types: frozenset[AlertType], view: SpecialistView, cfg: SpecialistConfig
) -> AgentClaim:
    """Suppress the classic sleep pattern: supine, still, and any SpO2 dip
    within the allowance of baseline (96.0 assumed when the EHR has none).
    Outside the window or with any condition unmet the agent has nothing
    definitive to say."""
    domain = _NOCTURNAL
    if not in_nocturnal_window(view.timestamp):
        return _claim(domain, _INDETERMINATE, cfg, "outside_nocturnal_window")
    if view.value("position") is not _SUPINE:
        return _claim(domain, _INDETERMINATE, cfg, "position_not_supine")
    if view.value("accel_level") is not _STILL:
        return _claim(domain, _INDETERMINATE, cfg, "motion_during_sleep")
    if _LOW_SPO2 in alert_types:
        spo2 = view.value("spo2")
        baseline = view.value("baseline_spo2", default=DEFAULT_NOCTURNAL_BASELINE_SPO2)
        if spo2 is None or baseline - spo2 > cfg.nocturnal_dip_allowance:
            return _claim(domain, _INDETERMINATE, cfg, "dip_exceeds_allowance")
    return _claim(domain, _SUPPRESS, cfg, "nocturnal_pattern_consistent")


_EVALUATORS = {
    _PROBE_INTEGRITY: evaluate_probe_integrity,
    _ACTIVITY_INTEGRITY: evaluate_activity_integrity,
    _TACHYCARDIA: evaluate_tachycardia,
    _BRADYCARDIA: evaluate_bradycardia,
    _COPD: evaluate_copd,
    _NOCTURNAL: evaluate_nocturnal,
}


def claims_for(
    alert_types: frozenset[AlertType],
    view: SpecialistView,
    routing: RoutingDecision,
    cfg: SpecialistConfig,
) -> tuple[AgentClaim, ...]:
    """Evaluate every routed specialist, ordered by domain enumeration.

    The fixed order, ``routing.domains``, makes claim sequences
    deterministic; ``resolve`` rejects any claim sequence that does not
    match it.
    """
    return tuple([_EVALUATORS[domain](alert_types, view, cfg) for domain in routing.domains])

"""Final conflict resolution: weighted claim aggregation with debounce.

Every claims input yields a binary verdict; the system never answers
"indeterminate". Resolution order: replay a recent identical decision
(debounce), adopt a lone definitive specialist, otherwise weigh suppress
confidence against escalate confidence, and default to escalation whenever
the margin between them is too small to call. Indeterminate claims carry
no weight on either side, which is exactly why low-context alerts fall
through to the conservative default.

History is scoped per patient. Epochs for one patient must resolve in
timestamp order; distinct patients are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping

from .model import (
    AgentClaim,
    AgentDomain,
    AlertType,
    CandidateAlert,
    DOMAIN_ORDER,
    DeviceStatus,
    InvariantViolation,
    Recommendation,
    ResolutionPath,
    SystemDecision,
    Verdict,
)
from .routing import RoutingDecision

__all__ = ["DecisionHistory", "EmptyClaims", "MetaConfig", "resolve"]


class EmptyClaims(ValueError):
    """resolve() was called with no claims; routing guarantees at least one."""


@dataclass(frozen=True)
class MetaConfig:
    resolution_margin: float = 0.3
    cooldown_window_minutes: int = 10
    domain_weights: Mapping[AgentDomain, float] = field(
        default_factory=lambda: {domain: 1.0 for domain in AgentDomain}
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.resolution_margin < 1.0:
            raise InvariantViolation("resolution_margin must lie in (0,1)")
        if self.cooldown_window_minutes <= 0:
            raise InvariantViolation("cooldown_window_minutes must be positive")
        if any(w <= 0 for w in self.domain_weights.values()):
            raise InvariantViolation("domain weights must be positive")

    def weight(self, domain: AgentDomain) -> float:
        return self.domain_weights.get(domain, 1.0)


@dataclass(frozen=True)
class _HistoryEntry:
    timestamp: datetime
    alert_types: frozenset[AlertType]
    decision: SystemDecision


class DecisionHistory:
    """Per-patient ordered decision log backing the cooldown window."""

    def __init__(self) -> None:
        self._by_patient: dict[int, list[_HistoryEntry]] = {}

    def record(
        self,
        patient_id: int,
        timestamp: datetime,
        alert_types: frozenset[AlertType],
        decision: SystemDecision,
    ) -> None:
        entries = self._by_patient.setdefault(patient_id, [])
        if entries and timestamp <= entries[-1].timestamp:
            raise InvariantViolation(
                f"decision timestamps must strictly increase per patient "
                f"(patient {patient_id}, got {timestamp} after {entries[-1].timestamp})"
            )
        entries.append(_HistoryEntry(timestamp, alert_types, decision))

    def last_matching(
        self,
        patient_id: int,
        alert_types: frozenset[AlertType],
        now: datetime,
        window_minutes: int,
    ) -> SystemDecision | None:
        """Most recent decision for an identical alert-type set within the window."""
        horizon = now - timedelta(minutes=window_minutes)
        for entry in reversed(self._by_patient.get(patient_id, [])):
            if entry.timestamp < horizon:
                return None
            if entry.alert_types == alert_types:
                return entry.decision
        return None


def resolve(
    claims: tuple[AgentClaim, ...],
    routing: RoutingDecision,
    alert: CandidateAlert,
    history: DecisionHistory,
    cfg: MetaConfig,
) -> SystemDecision:
    """Turn specialist claims into the binary system verdict.

    Steps, in order:
      1. Debounce: an identical alert-type set decided for this patient
         within the cooldown window replays the prior verdict. Two cases
         resolve in full instead. A prior suppression is never replayed
         over a current escalate claim, so a hard guardrail such as the
         COPD floor outranks the debounce. And a duplicate_alert device
         status, as detection saw it in the projection, bypasses the
         debounce; that bypass reproduces the current system's documented
         behaviour for duplicate alerts, and fixing it is a known
         follow-up, not an accident.
      2. A single routed domain with a definitive claim is adopted as-is.
      3. Otherwise suppress and escalate confidences are summed with domain
         weights (indeterminate claims contribute to neither side) and the
         larger side wins only when it leads by the resolution margin.
      4. Inside the margin, including the all-indeterminate case, the
         verdict defaults to escalation.

    The decision is appended to the history before returning. Deterministic
    in (claims, routing, alert, history, cfg), and homogeneous: scaling all
    weights and the margin by one positive factor changes no verdict.
    """
    if not claims:
        raise EmptyClaims("resolve requires at least one claim")
    claimed = [c.domain for c in claims]
    expected = [d for d in DOMAIN_ORDER if d in routing.targets]
    if claimed != expected:
        raise InvariantViolation(
            f"claims must be one per routed target in domain order; got "
            f"{[d.value for d in claimed]}, expected {[d.value for d in expected]}"
        )

    patient_id = alert.record_ref.patient_id
    now = alert.raised_at
    status_tv = alert.triggering_values.get(AlertType.SIGNAL_QUALITY)
    status = status_tv.value if status_tv is not None else None

    def finish(verdict: Verdict, path: ResolutionPath) -> SystemDecision:
        decision = SystemDecision(
            verdict=verdict,
            contributing_claims=claims,
            resolution_path=path,
            decided_at=now,
        )
        history.record(patient_id, now, alert.alert_types, decision)
        return decision

    if status is not DeviceStatus.DUPLICATE_ALERT:
        prior = history.last_matching(
            patient_id, alert.alert_types, now, cfg.cooldown_window_minutes
        )
        escalating = any(c.recommendation is Recommendation.ESCALATE for c in claims)
        if prior is not None and (prior.verdict is Verdict.ESCALATE or not escalating):
            return finish(prior.verdict, ResolutionPath.DEBOUNCED)

    if len(claims) == 1 and claims[0].recommendation is not Recommendation.INDETERMINATE:
        verdict = (
            Verdict.SUPPRESS
            if claims[0].recommendation is Recommendation.SUPPRESS
            else Verdict.ESCALATE
        )
        return finish(verdict, ResolutionPath.SINGLE_DOMAIN)

    def score(side: Recommendation) -> float:
        return sum(cfg.weight(c.domain) * c.confidence for c in claims if c.recommendation is side)

    suppress_score = score(Recommendation.SUPPRESS)
    escalate_score = score(Recommendation.ESCALATE)
    if suppress_score - escalate_score >= cfg.resolution_margin:
        return finish(Verdict.SUPPRESS, ResolutionPath.WEIGHTED_AGGREGATION)
    if escalate_score - suppress_score >= cfg.resolution_margin:
        return finish(Verdict.ESCALATE, ResolutionPath.WEIGHTED_AGGREGATION)
    return finish(Verdict.ESCALATE, ResolutionPath.AMBIGUITY_DEFAULT)

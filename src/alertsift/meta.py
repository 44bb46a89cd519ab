"""Final conflict resolution: weighted claim aggregation with debounce.

Every claims input yields a binary verdict; the system never answers
"indeterminate". Resolution order: replay a recent identical decision
(debounce) when it holds an alarm or the weighing also suppresses, adopt a
lone definitive specialist, otherwise weigh suppress confidence against
escalate confidence, and default to escalation whenever the margin between
them is too small to call. Indeterminate claims carry no weight on either
side, which is exactly why low-context alerts fall through to the
conservative default.

Resolution comes in two parts. ``weigh`` takes the last three steps: it
reads only a cell's claims, its routing decision and the config, so
``evaluate`` weighs each cell once. ``resolve`` takes the debounce, the only
step that reads the epoch, and runs for every alerting epoch.

A history is a plain dict of one patient's latest decision per alert-type
set, held by the walk over that patient's stream (``evaluate``). The walk
sorts the stream and rejects a repeated minute, so it owns the order: the
alerts resolve in strictly increasing time, and the dict keeps only what the
debounce can replay.

The claims and the weighing resolve reads are shared immutable values:
every alert that reaches the same rules gets the same objects. The alert is
its type set; with it resolve takes the epoch's time and whether its status
is duplicate_alert, all an epoch's decision reads of it. The SystemDecision
is the one object resolve builds per alert, and the one kept per decision;
it is a tuple (see ``model.SystemDecision``), which costs less to build and
to hold than a frozen dataclass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping, NamedTuple

from .model import (
    AgentClaim,
    AgentDomain,
    AlertType,
    InvariantViolation,
    Recommendation,
    ResolutionPath,
    SystemDecision,
    Verdict,
)
from .routing import RoutingDecision

__all__ = ["MetaConfig", "Weighing", "resolve", "weigh"]


# The longest cooldown window: the whole minutes in the largest timedelta.
_MAX_COOLDOWN_MINUTES = timedelta.max // timedelta(minutes=1)


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
        if not 0 < self.cooldown_window_minutes <= _MAX_COOLDOWN_MINUTES:
            raise InvariantViolation(
                f"cooldown_window_minutes must lie in [1, {_MAX_COOLDOWN_MINUTES}],"
                f" the minutes a timedelta holds; got {self.cooldown_window_minutes}"
            )
        if any(w <= 0 for w in self.domain_weights.values()):
            raise InvariantViolation("domain weights must be positive")

    def weight(self, domain: AgentDomain) -> float:
        return self.domain_weights.get(domain, 1.0)


@functools.lru_cache(maxsize=None)
def _cooldown(window_minutes: int) -> timedelta:
    return timedelta(minutes=window_minutes)


_SUPPRESS_CLAIM = Recommendation.SUPPRESS
_ESCALATE_CLAIM = Recommendation.ESCALATE
_INDETERMINATE_CLAIM = Recommendation.INDETERMINATE
_SUPPRESS = Verdict.SUPPRESS
_ESCALATE = Verdict.ESCALATE
_DEBOUNCED = ResolutionPath.DEBOUNCED
_SINGLE_DOMAIN = ResolutionPath.SINGLE_DOMAIN
_WEIGHTED_AGGREGATION = ResolutionPath.WEIGHTED_AGGREGATION
_AMBIGUITY_DEFAULT = ResolutionPath.AMBIGUITY_DEFAULT
# SystemDecision checks nothing; tuple.__new__ skips only the NamedTuple's
# generated Python __new__.
_new = tuple.__new__


class Weighing(NamedTuple):
    """A cell's claims weighed: the verdict and path they resolve to when no
    prior is replayed, and whether any claim recommends escalate: with the
    verdict, all the debounce reads of the claims."""

    verdict: Verdict
    path: ResolutionPath
    escalates: bool


def weigh(
    claims: tuple[AgentClaim, ...], routing: RoutingDecision, cfg: MetaConfig
) -> Weighing:
    """Weigh one cell's claims: steps 2 to 4 of the resolution.

    The claims must be one per routed domain, in domain order. Then:
      2. A single routed domain with a definitive claim is adopted as-is.
      3. Otherwise suppress and escalate confidences are summed with domain
         weights (indeterminate claims contribute to neither side) and the
         larger side wins only when it leads by the resolution margin.
      4. Inside the margin, including the all-indeterminate case, the
         verdict defaults to escalation.

    It reads only the claims, the routing decision's domains and ``cfg``'s
    weights and margin, so every epoch of a cell under one config weighs
    alike and ``evaluate`` weighs each cell once. Deterministic, and
    homogeneous: scaling all weights and the margin by one positive factor
    changes no verdict.
    """
    claimed = tuple([c.domain for c in claims])
    if claimed != routing.domains:
        raise InvariantViolation(
            f"claims must be one per routed target in domain order; got "
            f"{[d.value for d in claimed]}, expected {[d.value for d in routing.domains]}"
        )

    escalates = any(c.recommendation is _ESCALATE_CLAIM for c in claims)
    if len(claims) == 1 and claims[0].recommendation is not _INDETERMINATE_CLAIM:
        verdict = _SUPPRESS if claims[0].recommendation is _SUPPRESS_CLAIM else _ESCALATE
        return Weighing(verdict, _SINGLE_DOMAIN, escalates)
    # One pass, each side added left to right in claim order.
    suppress_score = escalate_score = 0.0
    weight = cfg.weight
    for c in claims:
        if c.recommendation is _SUPPRESS_CLAIM:
            suppress_score += weight(c.domain) * c.confidence
        elif c.recommendation is _ESCALATE_CLAIM:
            escalate_score += weight(c.domain) * c.confidence
    if suppress_score - escalate_score >= cfg.resolution_margin:
        return Weighing(_SUPPRESS, _WEIGHTED_AGGREGATION, escalates)
    if escalate_score - suppress_score >= cfg.resolution_margin:
        return Weighing(_ESCALATE, _WEIGHTED_AGGREGATION, escalates)
    return Weighing(_ESCALATE, _AMBIGUITY_DEFAULT, escalates)


def resolve(
    claims: tuple[AgentClaim, ...],
    weighing: Weighing,
    alert_types: frozenset[AlertType],
    now: datetime,
    duplicate_alert: bool,
    history: dict[frozenset[AlertType], SystemDecision],
    cfg: MetaConfig,
) -> SystemDecision:
    """Turn specialist claims, weighed by ``weigh``, into the binary system
    verdict: step 1 of the resolution, then the weighing's verdict.

    It reads only what step 1 needs: the alert's type set, the epoch's time
    ``now``, ``duplicate_alert``, whether the epoch's device status, as
    detection saw it in the projection, is duplicate_alert, and the
    weighing's verdict and whether it found an escalate claim. So an epoch
    whose cell was decided before (``evaluate``) resolves from the cell's
    type set and weighing and its own time and status.

      1. Debounce: an identical alert-type set decided for this patient
         within the cooldown window replays the prior verdict. A prior
         escalation is always replayed: the debounce may hold an alarm
         for the cooldown. A prior suppression is replayed only when the
         weighing also suppresses and no claim recommends escalate, so the
         debounce never hides an alarm, and a hard guardrail such as the
         COPD floor outranks it. A duplicate_alert device status bypasses
         the debounce; that bypass reproduces the current system's
         documented behaviour for duplicate alerts, and fixing it is a
         known follow-up, not an accident.

    Otherwise the verdict and path are the weighing's (steps 2 to 4, see
    ``weigh``). The decision carries ``claims`` and is stored in
    ``history``, the patient's latest decision per alert-type set, before
    returning. Deterministic in its arguments.

    Precondition: ``now`` strictly increases across the calls on one
    history, as the walk over a patient's stream guarantees. Then only a
    set's latest decision can be replayed, since when it lies outside the
    window so does every earlier one.
    """
    verdict, path, escalates = weighing
    if not duplicate_alert:
        prior = history.get(alert_types)
        # Not ``decided_at < now - cooldown``: that subtraction leaves the
        # datetime range near year 1, while a difference of two datetimes
        # always fits in a timedelta.
        if (
            prior is not None
            and now - prior.decided_at <= _cooldown(cfg.cooldown_window_minutes)
            and (prior.verdict is _ESCALATE or verdict is _SUPPRESS and not escalates)
        ):
            verdict, path = prior.verdict, _DEBOUNCED
    decision = history[alert_types] = _new(SystemDecision, (verdict, claims, path, now))
    return decision

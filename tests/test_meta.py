"""Conflict resolution: adoption, weighting, debounce, forced binary verdict."""

from __future__ import annotations

import itertools
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from alertsift.assembly import SpecialistView, project_for_specialists
from alertsift.meta import DecisionHistory, MetaConfig, resolve, weigh
from alertsift.model import (
    DOMAIN_ORDER,
    AgentClaim,
    AgentDomain,
    AlertType,
    DeviceStatus,
    InvariantViolation,
    ProvenanceTag,
    Recommendation,
    ResolutionPath,
    SystemDecision,
    TaggedValue,
    Verdict,
)
from alertsift.routing import RoutingDecision
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import SpecialistConfig, claims_for
from helpers import (
    DAYTIME,
    PATIENT,
    detect_and_route,
    make_context,
    make_epoch,
    make_record,
    make_view,
    reference_resolve,
    resolve_alert,
    retag_field,
    ReferenceHistory,
)

CFG = MetaConfig()


def claim(domain, rec, conf):
    return AgentClaim(domain, rec, conf)


def make_alert(epoch=None, context=None):
    """The alert types detection finds on the epoch's view, and the view."""
    view = make_view(epoch or make_epoch(spo2=90.0), context)
    alert_types = detect(view, SentinelConfig())
    assert alert_types is not None
    return alert_types, view


def routing_for(*domains, ambiguity=False):
    return RoutingDecision(targets=frozenset(domains), ambiguity_flag=ambiguity)


def test_single_definitive_claim_is_adopted():
    alert = make_alert()
    decision = resolve_alert(
        (claim(AgentDomain.COPD, Recommendation.SUPPRESS, 0.9),),
        routing_for(AgentDomain.COPD),
        *alert,
        DecisionHistory(),
        CFG,
    )
    assert decision.verdict is Verdict.SUPPRESS
    assert decision.resolution_path is ResolutionPath.SINGLE_DOMAIN


def test_weighted_suppression_beats_indeterminate():
    # S = 0.9, E = 0, margin 0.3: suppress by aggregation
    alert = make_alert()
    decision = resolve_alert(
        (
            claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),
            claim(AgentDomain.COPD, Recommendation.SUPPRESS, 0.9),
        ),
        routing_for(AgentDomain.PROBE_INTEGRITY, AgentDomain.COPD, ambiguity=True),
        *alert,
        DecisionHistory(),
        CFG,
    )
    assert decision.verdict is Verdict.SUPPRESS
    assert decision.resolution_path is ResolutionPath.WEIGHTED_AGGREGATION


def test_weighted_escalation_beats_indeterminate():
    # E = 0.9, S = 0: escalate by aggregation
    alert = make_alert()
    decision = resolve_alert(
        (
            claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),
            claim(AgentDomain.TACHYCARDIA, Recommendation.ESCALATE, 0.9),
        ),
        routing_for(AgentDomain.PROBE_INTEGRITY, AgentDomain.TACHYCARDIA, ambiguity=True),
        *alert,
        DecisionHistory(),
        CFG,
    )
    assert decision.verdict is Verdict.ESCALATE
    assert decision.resolution_path is ResolutionPath.WEIGHTED_AGGREGATION


def test_tie_and_all_indeterminate_default_to_escalation():
    alert = make_alert()
    tie = resolve_alert(
        (
            claim(AgentDomain.PROBE_INTEGRITY, Recommendation.SUPPRESS, 0.9),
            claim(AgentDomain.ACTIVITY_INTEGRITY, Recommendation.ESCALATE, 0.9),
        ),
        routing_for(AgentDomain.PROBE_INTEGRITY, AgentDomain.ACTIVITY_INTEGRITY),
        *alert,
        DecisionHistory(),
        CFG,
    )
    assert tie.verdict is Verdict.ESCALATE
    assert tie.resolution_path is ResolutionPath.AMBIGUITY_DEFAULT

    lone = resolve_alert(
        (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),),
        routing_for(AgentDomain.PROBE_INTEGRITY),
        *alert,
        DecisionHistory(),
        CFG,
    )
    assert lone.verdict is Verdict.ESCALATE
    assert lone.resolution_path is ResolutionPath.AMBIGUITY_DEFAULT


def test_debounce_replays_prior_verdict():
    epoch1 = make_epoch(spo2=90.0)
    epoch2 = make_epoch(ts=epoch1.timestamp + timedelta(minutes=1), spo2=90.2)
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    first = resolve_alert(claims, routing, *make_alert(epoch1), history, CFG)
    second = resolve_alert(claims, routing, *make_alert(epoch2), history, CFG)
    assert first.resolution_path is ResolutionPath.AMBIGUITY_DEFAULT
    assert second.resolution_path is ResolutionPath.DEBOUNCED
    assert second.verdict is first.verdict


def test_debounce_expires_outside_window():
    epoch1 = make_epoch(spo2=90.0)
    epoch2 = make_epoch(ts=epoch1.timestamp + timedelta(minutes=11), spo2=90.2)
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    resolve_alert(claims, routing, *make_alert(epoch1), history, CFG)
    second = resolve_alert(claims, routing, *make_alert(epoch2), history, CFG)
    assert second.resolution_path is not ResolutionPath.DEBOUNCED


def test_debounce_requires_identical_alert_type_set():
    epoch1 = make_epoch(spo2=90.0)
    epoch2 = make_epoch(ts=epoch1.timestamp + timedelta(minutes=1), spo2=90.0, hr=120.0)
    history = DecisionHistory()
    routing1 = routing_for(AgentDomain.PROBE_INTEGRITY)
    resolve_alert(
        (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),),
        routing1,
        *make_alert(epoch1),
        history,
        CFG,
    )
    decision = resolve_alert(
        (claim(AgentDomain.TACHYCARDIA, Recommendation.ESCALATE, 0.9),),
        routing_for(AgentDomain.TACHYCARDIA),
        *make_alert(epoch2),
        history,
        CFG,
    )
    assert decision.resolution_path is ResolutionPath.SINGLE_DOMAIN


def test_duplicate_alert_status_bypasses_debounce():
    # the documented duplicate-alert behaviour: cooldown logic never kicks in
    base = make_epoch(spo2=90.0, status=DeviceStatus.DUPLICATE_ALERT)
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    for i in range(4):
        epoch = make_epoch(
            ts=base.timestamp + timedelta(minutes=i),
            spo2=90.0,
            status=DeviceStatus.DUPLICATE_ALERT,
        )
        decision = resolve_alert(claims, routing, *make_alert(epoch), history, CFG)
        assert decision.resolution_path is ResolutionPath.AMBIGUITY_DEFAULT
        assert decision.verdict is Verdict.ESCALATE


def test_inferred_duplicate_alert_status_does_not_bypass_debounce():
    # The bypass reads the status detection saw in the projection; an
    # inferred-tagged duplicate_alert never reaches it, so the debounce holds.
    epoch1 = make_epoch(spo2=90.0)
    epoch2 = make_epoch(
        ts=epoch1.timestamp + timedelta(minutes=1), spo2=90.0, status=DeviceStatus.DUPLICATE_ALERT
    )
    record = retag_field(make_record(epoch2), "device_status", ProvenanceTag.INFERRED)
    view2 = project_for_specialists(record)
    types2 = detect(view2, SentinelConfig())
    assert types2 == frozenset({AlertType.LOW_SPO2})
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    resolve_alert(claims, routing, *make_alert(epoch1), history, CFG)
    second = resolve_alert(claims, routing, types2, view2, history, CFG)
    assert second.resolution_path is ResolutionPath.DEBOUNCED


def test_copd_floor_breach_is_not_debounced_into_suppression():
    # A COPD patient with baseline 88 is suppressed at SpO2 87; a minute
    # later SpO2 75 breaches the floor with the same alert-type set.
    context = make_context(copd=True, baseline_spo2=88.0)
    history = DecisionHistory()
    decisions = []
    for minute, spo2 in ((0, 87.0), (1, 75.0)):
        epoch = make_epoch(ts=DAYTIME + timedelta(minutes=minute), spo2=spo2)
        view, types, routing = detect_and_route(epoch, context)
        claims = claims_for(types, view, routing, SpecialistConfig())
        decisions.append(resolve_alert(claims, routing, types, view, history, CFG))
    first, second = decisions
    assert (first.verdict, first.resolution_path) == (Verdict.SUPPRESS, ResolutionPath.SINGLE_DOMAIN)
    assert second.contributing_claims[0].rationale_codes == ("below_copd_floor",)
    assert second.verdict is Verdict.ESCALATE
    assert second.resolution_path is ResolutionPath.SINGLE_DOMAIN


def test_debounce_idempotence_never_flips():
    rng = random.Random(11)
    recs = [Recommendation.SUPPRESS, Recommendation.ESCALATE, Recommendation.INDETERMINATE]
    for _ in range(100):
        epoch1 = make_epoch(spo2=90.0)
        history = DecisionHistory()
        claims = tuple(
            claim(AgentDomain.PROBE_INTEGRITY, rng.choice(recs), round(rng.random(), 2))
            for _ in range(1)
        )
        routing = routing_for(AgentDomain.PROBE_INTEGRITY)
        first = resolve_alert(claims, routing, *make_alert(epoch1), history, CFG)
        for i in range(1, 5):
            epoch = make_epoch(ts=epoch1.timestamp + timedelta(minutes=i), spo2=90.0)
            replay = resolve_alert(claims, routing, *make_alert(epoch), history, CFG)
            assert replay.verdict is first.verdict


def test_empty_claims_raises():
    # Routing gives every alert at least one target, so no claims never
    # matches the routed domains.
    with pytest.raises(
        InvariantViolation,
        match=r"claims must be one per routed target in domain order; got \[\], expected \['copd'\]",
    ):
        resolve_alert((), routing_for(AgentDomain.COPD), *make_alert(), DecisionHistory(), CFG)


def test_claims_must_match_routed_targets():
    with pytest.raises(InvariantViolation):
        resolve_alert(
            (claim(AgentDomain.COPD, Recommendation.SUPPRESS, 0.9),),
            routing_for(AgentDomain.TACHYCARDIA),
            *make_alert(),
            DecisionHistory(),
            CFG,
        )


def test_history_requires_strictly_increasing_timestamps():
    types, view = make_alert()
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.SUPPRESS, 0.9),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    resolve_alert(claims, routing, types, view, history, CFG)
    with pytest.raises(InvariantViolation):
        resolve_alert(claims, routing, types, view, history, CFG)
    # The order check outlives the window: a day later no decision is in the
    # window, and one earlier than the last recorded still fails.
    late = view.timestamp + timedelta(days=1)
    assert history.last_matching(types, late, CFG.cooldown_window_minutes) is None
    earlier = make_alert(make_epoch(ts=view.timestamp - timedelta(minutes=1), spo2=90.0))
    with pytest.raises(InvariantViolation):
        resolve_alert(claims, routing, *earlier, history, CFG)


def test_config_invariants():
    with pytest.raises(InvariantViolation):
        MetaConfig(resolution_margin=0.0)
    with pytest.raises(InvariantViolation):
        MetaConfig(cooldown_window_minutes=0)
    with pytest.raises(InvariantViolation):
        MetaConfig(domain_weights={AgentDomain.COPD: -1.0})


def test_resolve_uses_domain_weights():
    alert = make_alert()
    weights = {d: 1.0 for d in AgentDomain}
    weights[AgentDomain.ACTIVITY_INTEGRITY] = 3.0
    cfg = MetaConfig(domain_weights=weights)
    decision = resolve_alert(
        (
            claim(AgentDomain.PROBE_INTEGRITY, Recommendation.SUPPRESS, 0.9),
            claim(AgentDomain.ACTIVITY_INTEGRITY, Recommendation.ESCALATE, 0.9),
        ),
        routing_for(AgentDomain.PROBE_INTEGRITY, AgentDomain.ACTIVITY_INTEGRITY),
        *alert,
        DecisionHistory(),
        cfg,
    )
    # 2.7 - 0.9 = 1.8 >= 0.3 toward escalation
    assert decision.verdict is Verdict.ESCALATE
    assert decision.resolution_path is ResolutionPath.WEIGHTED_AGGREGATION


_DOMAIN_SETS = st.lists(
    st.sampled_from(DOMAIN_ORDER), min_size=1, max_size=6, unique=True
).map(lambda ds: sorted(ds, key=DOMAIN_ORDER.index))
_TYPE_SETS = st.frozensets(st.sampled_from(list(AlertType)), min_size=1)


def _number(low, high, exact):
    # Dyadic values sum and subtract exactly, so scores land on the margin;
    # two draws in three are one of them.
    return st.one_of(st.sampled_from(exact), st.sampled_from(exact), st.floats(low, high))


@st.composite
def _resolve_runs(draw):
    cfg = MetaConfig(
        resolution_margin=draw(_number(0.01, 0.99, [0.25, 0.5])),
        cooldown_window_minutes=draw(st.integers(1, 15)),
        domain_weights=draw(
            st.dictionaries(st.sampled_from(DOMAIN_ORDER), _number(0.05, 5.0, [1.0, 2.0]))
        ),
    )
    # A few alert-type sets per run, so steps repeat a set and the debounce
    # has something to replay.
    type_pool = draw(st.lists(_TYPE_SETS, min_size=1, max_size=3))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        domains = draw(_DOMAIN_SETS)
        claims = tuple(
            claim(
                domain,
                draw(st.sampled_from(list(Recommendation))),
                draw(_number(0.0, 1.0, [0.0, 0.25, 0.5, 0.75, 1.0])),
            )
            for domain in domains
        )
        # One step in ten routes elsewhere, and must fail the same way.
        routed = draw(_DOMAIN_SETS) if draw(st.integers(0, 9)) == 0 else domains
        steps.append((
            draw(st.integers(1, 12)),
            draw(st.sampled_from(type_pool)),
            draw(st.sampled_from(list(DeviceStatus))),
            claims,
            routing_for(*routed, ambiguity=draw(st.booleans())),
        ))
    return cfg, steps


def _view_at(ts, status):
    """A view at ``ts`` holding only the device status, all resolve reads of
    a view."""
    return SpecialistView(ts, {"device_status": TaggedValue(status, ProvenanceTag.DEVICE_VERIFIED)})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_resolve_runs())
def test_resolve_matches_reference_over_random_histories(run):
    # Property: random claims, weights, margins, windows, alert-type sets and
    # duplicate_alert statuses over one patient's steps; every step's decision
    # (verdict, path, claims, decided_at) or error equals the reference's.
    # Windows of 1-15 minutes and gaps of 1-12 minutes, so the window drops
    # decisions and some land exactly on its horizon.
    cfg, steps = run
    history, reference_history = DecisionHistory(), ReferenceHistory()
    ts = DAYTIME
    for gap, types, status, claims, routing in steps:
        ts += timedelta(minutes=gap)
        view = _view_at(ts, status)
        got = _outcome(resolve_alert, claims, routing, types, view, history, cfg)
        want = _outcome(
            reference_resolve, claims, routing, types, view, reference_history, cfg, PATIENT
        )
        assert got == want


def test_history_holds_at_most_one_decision_per_alert_type_set():
    # A 2,000-minute stream, one alert a minute over three alert-type sets:
    # the history holds each set's latest decision and nothing else,
    # including over runs of duplicate_alert epochs, which never replay.
    cfg = MetaConfig(cooldown_window_minutes=7)
    history = DecisionHistory()
    claims = (claim(AgentDomain.PROBE_INTEGRITY, Recommendation.INDETERMINATE, 0.4),)
    routing = routing_for(AgentDomain.PROBE_INTEGRITY)
    type_sets = (
        frozenset({AlertType.LOW_SPO2}),
        frozenset({AlertType.SIGNAL_QUALITY}),
        frozenset({AlertType.LOW_SPO2, AlertType.SIGNAL_QUALITY}),
    )
    for step in range(2000):
        status = DeviceStatus.DUPLICATE_ALERT if (step // 100) % 2 else DeviceStatus.OK
        types = type_sets[step % 3]
        view = _view_at(DAYTIME + timedelta(minutes=step), status)
        decision = resolve_alert(claims, routing, types, view, history, cfg)
        assert history._latest[types] is decision
        assert len(history._latest) == min(step + 1, len(type_sets))


# Every claim each evaluator can return under the default SpecialistConfig,
# by domain, as (recommendation, rationale codes), read off specialists.py's
# rule tables. With each domain also unrouted, that is 5*7*6*7*5*6 - 1 =
# 44,099 non-empty claim tuples.
_SUP, _ESC, _IND = Recommendation.SUPPRESS, Recommendation.ESCALATE, Recommendation.INDETERMINATE
_DEFAULT_CLAIMS = {
    AgentDomain.PROBE_INTEGRITY: [
        (_SUP, ("artefact_flagged",)),
        (_IND, ("system_flag_no_context",)),
        (_IND, ("ambiguous_device_status",)),
        (_IND, ("no_artefact_evidence",)),
    ],
    AgentDomain.ACTIVITY_INTEGRITY: [
        (_IND, ("missing_accelerometer",)),
        (_SUP, ("motion_corroborated",)),
        (_SUP, ("motion_uncontradicted",)),
        (_IND, ("activity_contradiction",)),
        (_ESC, ("activity_denied_by_patient",)),
        (_ESC, ("no_activity_explanation",)),
    ],
    AgentDomain.TACHYCARDIA: [
        (_IND, ("missing_heart_rate",)),
        (_SUP, ("activity_context",)),
        (_SUP, ("within_baseline_allowance",)),
        (_SUP, ("device_status_context",)),
        (_ESC, ("isolated_high_hr",)),
    ],
    AgentDomain.BRADYCARDIA: [
        (_IND, ("missing_heart_rate",)),
        (_ESC, ("below_personal_floor",)),
        (_SUP, ("medication_context",)),
        (_SUP, ("nocturnal_context",)),
        (_SUP, ("medication_context", "nocturnal_context")),
        (_ESC, ("unexplained_bradycardia",)),
    ],
    AgentDomain.COPD: [
        (_IND, ("missing_spo2",)),
        (_IND, ("copd_not_documented",)),
        (_SUP, ("within_copd_baseline",)),
        (_ESC, ("below_copd_floor",)),
    ],
    AgentDomain.NOCTURNAL: [
        (_IND, ("outside_nocturnal_window",)),
        (_IND, ("position_not_supine",)),
        (_IND, ("motion_during_sleep",)),
        (_IND, ("dip_exceeds_allowance",)),
        (_SUP, ("nocturnal_pattern_consistent",)),
    ],
}


def _every_default_claim_tuple():
    spec = SpecialistConfig()
    options = [
        [None] + [
            AgentClaim(
                domain, rec, spec.low_confidence if rec is _IND else spec.high_confidence, codes
            )
            for rec, codes in _DEFAULT_CLAIMS[domain]
        ]
        for domain in DOMAIN_ORDER
    ]
    for combination in itertools.product(*options):
        claims = tuple(c for c in combination if c is not None)
        if claims:
            yield claims


class _FoundPrior:
    """A history whose every lookup finds ``prior`` (None for no prior) and
    which records nothing, so one instance serves every call. It stands in
    for DecisionHistory and ReferenceHistory alike (their lookups take
    different arguments); the lookup itself is checked over random histories
    in test_resolve_matches_reference_over_random_histories."""

    def __init__(self, prior):
        self.prior = prior

    def last_matching(self, *args):
        return self.prior

    def record(self, *args):
        pass


def test_resolve_over_every_default_claim_tuple_prior_and_duplicate_status():
    # Exhaustive, not sampled: each of the 44,099 claim tuples, with no prior
    # decision or an escalate or suppress decision for the same alert-type
    # set, and with the device status ok or duplicate_alert. That is 264,594
    # inputs; for every one the verdict is binary and equals the reference's,
    # and the debounce rules and the resolution order hold. Scaling every
    # weight and the margin by 2 or by 0.5 changes no verdict. That is
    # checked on each claim tuple with no prior and status ok: a prior and
    # the status decide only whether a prior is replayed, and every other
    # input must resolve as that one does, which the loop asserts.
    types = frozenset({AlertType.LOW_SPO2, AlertType.SIGNAL_QUALITY})
    views = [_view_at(DAYTIME, status) for status in (DeviceStatus.OK, DeviceStatus.DUPLICATE_ALERT)]
    lone = (claim(AgentDomain.COPD, Recommendation.INDETERMINATE, 0.4),)
    earlier = DAYTIME - timedelta(minutes=1)
    histories = [_FoundPrior(None)] + [
        _FoundPrior(SystemDecision(verdict, lone, ResolutionPath.AMBIGUITY_DEFAULT, earlier))
        for verdict in (Verdict.ESCALATE, Verdict.SUPPRESS)
    ]
    scaled_cfgs = [
        MetaConfig(
            resolution_margin=CFG.resolution_margin * factor,
            domain_weights={d: CFG.weight(d) * factor for d in AgentDomain},
        )
        for factor in (2.0, 0.5)
    ]
    routings = {}
    count = 0
    for claims in _every_default_claim_tuple():
        domains = tuple(c.domain for c in claims)
        routing = routings.get(domains) or routings.setdefault(domains, routing_for(*domains))
        suppress, escalate = (
            sum(CFG.weight(c.domain) * c.confidence for c in claims if c.recommendation is side)
            for side in (_SUP, _ESC)
        )
        unreplayed = None
        weighing = weigh(claims, routing, CFG)
        for history in histories:
            prior = history.prior
            for view, duplicate in zip(views, (False, True)):
                count += 1
                decision = resolve(claims, weighing, types, DAYTIME, duplicate, history, CFG)
                verdict, path = decision.verdict, decision.resolution_path
                assert verdict is Verdict.SUPPRESS or verdict is Verdict.ESCALATE
                assert decision == reference_resolve(
                    claims, routing, types, view, history, CFG, PATIENT
                )
                if path is ResolutionPath.DEBOUNCED:
                    # Only a prior is replayed, never past a duplicate_alert
                    # status, and a suppression never over an escalate claim
                    # nor over an escalating weighing (property D).
                    assert view is views[0] and verdict is prior.verdict
                    assert verdict is Verdict.ESCALATE or escalate == 0.0
                    assert verdict is Verdict.ESCALATE or weighing.verdict is Verdict.SUPPRESS
                else:
                    # Anything not replayed resolves as with no prior: a lone
                    # definitive claim is adopted, and inside the margin the
                    # verdict is escalate.
                    if unreplayed is None:
                        unreplayed = decision
                    assert decision == unreplayed
                    if len(claims) == 1 and claims[0].recommendation is not _IND:
                        assert path is ResolutionPath.SINGLE_DOMAIN
                        assert verdict.value == claims[0].recommendation.value
                    elif abs(suppress - escalate) < CFG.resolution_margin:
                        assert verdict is Verdict.ESCALATE
                        assert path is ResolutionPath.AMBIGUITY_DEFAULT
        for cfg in scaled_cfgs:
            weighed = weigh(claims, routing, cfg)
            scaled = resolve(claims, weighed, types, DAYTIME, False, histories[0], cfg)
            assert scaled.verdict is unreplayed.verdict
    assert count == 44_099 * 3 * 2

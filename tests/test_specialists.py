"""Branch coverage for the six rule evaluators plus guardrail sweeps."""

from __future__ import annotations

import itertools
import random
from datetime import datetime, timezone

import pytest
from hypothesis import assume, given, settings, strategies as st

from alertsift.assembly import project_for_specialists
from alertsift.model import (
    AccelLevel,
    AgentDomain,
    DeviceStatus,
    InvariantViolation,
    Position,
    ProvenanceTag,
    Recommendation,
    RiskLevel,
    SelfReportedActivity,
)
from alertsift.routing import RoutingDecision
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import (
    SpecialistConfig,
    claims_for,
    evaluate_activity_integrity,
    evaluate_bradycardia,
    evaluate_copd,
    evaluate_nocturnal,
    evaluate_probe_integrity,
    evaluate_tachycardia,
)
from helpers import DAYTIME, NIGHT, make_context, make_epoch, make_record, make_view, retag_field

CFG = SpecialistConfig()
SCFG = SentinelConfig()


def _alert_view(epoch, context=None):
    view = make_view(epoch, context)
    alert = detect(view, SCFG)
    assert alert is not None
    return alert, view


# --- probe integrity -


def test_probe_integrity_status_table():
    # direct lookup over the five status branches
    expectations = {
        DeviceStatus.MOTION_ARTEFACT: (Recommendation.SUPPRESS, 0.9, "artefact_flagged"),
        DeviceStatus.PROBE_COVER: (Recommendation.SUPPRESS, 0.9, "artefact_flagged"),
        DeviceStatus.SYSTEM_FLAG: (Recommendation.INDETERMINATE, 0.4, "system_flag_no_context"),
        DeviceStatus.THRESHOLD_MARGINAL: (
            Recommendation.INDETERMINATE, 0.4, "ambiguous_device_status",
        ),
        DeviceStatus.DUPLICATE_ALERT: (
            Recommendation.INDETERMINATE, 0.4, "ambiguous_device_status",
        ),
    }
    for status, (rec, conf, code) in expectations.items():
        alert, view = _alert_view(make_epoch(spo2=88.0, status=status))
        claim = evaluate_probe_integrity(alert, view, CFG)
        assert claim.recommendation is rec, status
        assert claim.confidence == conf
        assert code in claim.rationale_codes


def test_probe_integrity_ok_status_is_no_evidence():
    alert, view = _alert_view(make_epoch(spo2=90.0))  # routed via last resort
    claim = evaluate_probe_integrity(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert claim.confidence == 0.4
    assert "no_artefact_evidence" in claim.rationale_codes


# --- activity integrity -


def test_activity_truth_table():
    # oracle: enumerate every (accel, self-report) pair and encode the rule
    for accel, reported in itertools.product(
        list(AccelLevel), list(SelfReportedActivity) + [None]
    ):
        alert, view = _alert_view(make_epoch(spo2=90.0, accel=accel, activity=reported))
        claim = evaluate_activity_integrity(alert, view, CFG)
        moving = accel is not AccelLevel.STILL
        motion_report = reported in (
            SelfReportedActivity.WALKING,
            SelfReportedActivity.EXERCISING,
        )
        if moving and (motion_report or reported is None):
            expected = Recommendation.SUPPRESS
        elif not moving and motion_report:
            expected = Recommendation.INDETERMINATE
        else:
            expected = Recommendation.ESCALATE
        assert claim.recommendation is expected, (accel, reported)


def test_activity_examples():
    alert, view = _alert_view(
        make_epoch(hr=120.0, accel=AccelLevel.VIGOROUS, activity=SelfReportedActivity.EXERCISING)
    )
    assert evaluate_activity_integrity(alert, view, CFG).confidence == 0.9

    alert, view = _alert_view(
        make_epoch(spo2=90.0, accel=AccelLevel.STILL, activity=SelfReportedActivity.WALKING)
    )
    claim = evaluate_activity_integrity(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert claim.confidence == 0.4
    assert "activity_contradiction" in claim.rationale_codes

    alert, view = _alert_view(
        make_epoch(hr=120.0, accel=AccelLevel.STILL, activity=SelfReportedActivity.RESTING)
    )
    claim = evaluate_activity_integrity(alert, view, CFG)
    assert claim.recommendation is Recommendation.ESCALATE
    assert claim.confidence == 0.9
    assert "no_activity_explanation" in claim.rationale_codes


def test_activity_denied_motion_escalates():
    alert, view = _alert_view(
        make_epoch(spo2=89.0, accel=AccelLevel.VIGOROUS, activity=SelfReportedActivity.RESTING)
    )
    claim = evaluate_activity_integrity(alert, view, CFG)
    assert claim.recommendation is Recommendation.ESCALATE
    assert "activity_denied_by_patient" in claim.rationale_codes


# --- tachycardia -


def test_tachycardia_baseline_allowance():
    alert, view = _alert_view(make_epoch(hr=108.0), make_context(baseline_hr=95.0))
    claim = evaluate_tachycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "within_baseline_allowance" in claim.rationale_codes


def test_tachycardia_isolated_high_hr_escalates():
    alert, view = _alert_view(make_epoch(hr=130.0))
    claim = evaluate_tachycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.ESCALATE
    assert claim.rationale_codes == ("isolated_high_hr",)
    assert claim.risk_level is RiskLevel.HIGH


def test_tachycardia_activity_context_suppresses():
    alert, view = _alert_view(make_epoch(hr=130.0, accel=AccelLevel.LIGHT))
    claim = evaluate_tachycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "activity_context" in claim.rationale_codes


def test_tachycardia_device_status_context_suppresses():
    alert, view = _alert_view(make_epoch(hr=130.0, status=DeviceStatus.SYSTEM_FLAG))
    claim = evaluate_tachycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "device_status_context" in claim.rationale_codes


def test_tachycardia_allowance_arithmetic_oracle():
    rng = random.Random(5)
    for _ in range(200):
        baseline = round(rng.uniform(60.0, 110.0), 1)
        hr = round(rng.uniform(100.1, 180.0), 1)
        alert, view = _alert_view(make_epoch(hr=hr), make_context(baseline_hr=baseline))
        claim = evaluate_tachycardia(alert, view, CFG)
        expected = (
            Recommendation.SUPPRESS if hr <= baseline + 20.0 else Recommendation.ESCALATE
        )
        assert claim.recommendation is expected, (hr, baseline)


# --- bradycardia -


def test_bradycardia_medication_suppresses():
    alert, view = _alert_view(make_epoch(hr=46.0), make_context(med=True))
    claim = evaluate_bradycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "medication_context" in claim.rationale_codes


def test_bradycardia_hard_floor_dominates_all_context():
    # quantified sweep: below the personal floor nothing suppresses
    for med in (False, True):
        for ts in (NIGHT, datetime(2022, 6, 15, 13, 0, tzinfo=timezone.utc)):
            alert, view = _alert_view(make_epoch(ts=ts, hr=35.0), make_context(med=med))
            claim = evaluate_bradycardia(alert, view, CFG)
            assert claim.recommendation is Recommendation.ESCALATE
            assert "below_personal_floor" in claim.rationale_codes


def test_bradycardia_nocturnal_context_suppresses():
    alert, view = _alert_view(make_epoch(ts=NIGHT, hr=47.0))
    claim = evaluate_bradycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "nocturnal_context" in claim.rationale_codes


def test_bradycardia_unexplained_escalates():
    alert, view = _alert_view(make_epoch(hr=45.0))
    claim = evaluate_bradycardia(alert, view, CFG)
    assert claim.recommendation is Recommendation.ESCALATE
    assert "unexplained_bradycardia" in claim.rationale_codes


# --- copd -


def test_copd_floor_arithmetic():
    alert, view = _alert_view(
        make_epoch(spo2=89.0), make_context(copd=True, baseline_spo2=90.0)
    )
    claim = evaluate_copd(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "within_copd_baseline" in claim.rationale_codes


def test_copd_hard_bound_dominates_every_context_combination():
    # below the 86 guardrail, escalate for all combinations of other fields
    for accel, activity, status, baseline in itertools.product(
        (AccelLevel.STILL, AccelLevel.VIGOROUS),
        (None, SelfReportedActivity.RESTING),
        (DeviceStatus.OK, DeviceStatus.MOTION_ARTEFACT),
        (88.0, 95.0),
    ):
        alert, view = _alert_view(
            make_epoch(spo2=85.0, accel=accel, activity=activity, status=status),
            make_context(copd=True, baseline_spo2=baseline),
        )
        claim = evaluate_copd(alert, view, CFG)
        assert claim.recommendation is Recommendation.ESCALATE
        assert "below_copd_floor" in claim.rationale_codes


def test_copd_boundary_inclusive():
    alert, view = _alert_view(
        make_epoch(spo2=86.0), make_context(copd=True, baseline_spo2=87.0)
    )
    assert evaluate_copd(alert, view, CFG).recommendation is Recommendation.SUPPRESS


def test_copd_floor_oracle_random():
    rng = random.Random(6)
    for _ in range(200):
        baseline = round(rng.uniform(86.0, 96.0), 1)
        spo2 = round(rng.uniform(80.0, 93.9), 1)
        alert, view = _alert_view(
            make_epoch(spo2=spo2), make_context(copd=True, baseline_spo2=baseline)
        )
        claim = evaluate_copd(alert, view, CFG)
        expected = (
            Recommendation.SUPPRESS
            if spo2 >= max(86.0, baseline - 2.0)
            else Recommendation.ESCALATE
        )
        assert claim.recommendation is expected, (spo2, baseline)


# --- nocturnal -


def test_nocturnal_dip_within_allowance_suppresses():
    alert, view = _alert_view(
        make_epoch(ts=NIGHT, spo2=93.2, position=Position.SUPINE),
        make_context(baseline_spo2=96.0),
    )
    claim = evaluate_nocturnal(alert, view, CFG)
    assert claim.recommendation is Recommendation.SUPPRESS
    assert "nocturnal_pattern_consistent" in claim.rationale_codes


def test_nocturnal_defaults_baseline_when_absent():
    # default baseline 96.0: dip 96 - 93.2 = 2.8 <= 3.0
    alert, view = _alert_view(make_epoch(ts=NIGHT, spo2=93.2, position=Position.SUPINE))
    assert evaluate_nocturnal(alert, view, CFG).recommendation is Recommendation.SUPPRESS
    # 96 - 92.5 = 3.5 > 3.0
    alert, view = _alert_view(make_epoch(ts=NIGHT, spo2=92.5, position=Position.SUPINE))
    claim = evaluate_nocturnal(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert "dip_exceeds_allowance" in claim.rationale_codes


def test_nocturnal_out_of_window_guard():
    alert, view = _alert_view(make_epoch(spo2=93.2, position=Position.SUPINE))
    claim = evaluate_nocturnal(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert "outside_nocturnal_window" in claim.rationale_codes


def test_nocturnal_position_guard():
    alert, view = _alert_view(make_epoch(ts=NIGHT, spo2=93.2, position=Position.UPRIGHT))
    claim = evaluate_nocturnal(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert "position_not_supine" in claim.rationale_codes


def test_nocturnal_motion_guard():
    alert, view = _alert_view(
        make_epoch(ts=NIGHT, spo2=93.4, position=Position.SUPINE, accel=AccelLevel.LIGHT)
    )
    claim = evaluate_nocturnal(alert, view, CFG)
    assert claim.recommendation is Recommendation.INDETERMINATE
    assert "motion_during_sleep" in claim.rationale_codes


def test_nocturnal_low_hr_without_spo2_dip_clause_suppresses():
    alert, view = _alert_view(make_epoch(ts=NIGHT, hr=45.0, position=Position.SUPINE))
    assert evaluate_nocturnal(alert, view, CFG).recommendation is Recommendation.SUPPRESS


# --- dispatch and shared properties -


def test_claims_ordered_by_domain_enumeration():
    alert, view = _alert_view(
        make_epoch(spo2=88.0, hr=105.0, status=DeviceStatus.SYSTEM_FLAG, accel=AccelLevel.LIGHT),
        make_context(copd=True, baseline_spo2=89.0),
    )
    routing = RoutingDecision(
        targets=frozenset(
            {
                AgentDomain.COPD,
                AgentDomain.PROBE_INTEGRITY,
                AgentDomain.TACHYCARDIA,
                AgentDomain.ACTIVITY_INTEGRITY,
            }
        ),
        ambiguity_flag=True,
    )
    claims = claims_for(alert, view, routing, CFG)
    domains = [c.domain for c in claims]
    assert domains == [
        AgentDomain.PROBE_INTEGRITY,
        AgentDomain.ACTIVITY_INTEGRITY,
        AgentDomain.TACHYCARDIA,
        AgentDomain.COPD,
    ]


def test_specialists_are_pure():
    alert, view = _alert_view(
        make_epoch(spo2=89.0, accel=AccelLevel.LIGHT), make_context(copd=True, baseline_spo2=90.0)
    )
    for fn in (
        evaluate_probe_integrity,
        evaluate_activity_integrity,
        evaluate_copd,
        evaluate_nocturnal,
    ):
        assert fn(alert, view, CFG) == fn(alert, view, CFG)


def test_indeterminate_claims_always_below_definitive_confidence():
    # every indeterminate claim carries the low confidence, strictly under
    # the level at which a lone claim is adopted
    alerts = [
        _alert_view(make_epoch(spo2=90.0)),
        _alert_view(make_epoch(spo2=90.0, status=DeviceStatus.SYSTEM_FLAG)),
        _alert_view(make_epoch(ts=NIGHT, spo2=92.0, position=Position.UPRIGHT)),
    ]
    evaluators = [evaluate_probe_integrity, evaluate_probe_integrity, evaluate_nocturnal]
    for (alert, view), fn in zip(alerts, evaluators):
        claim = fn(alert, view, CFG)
        assert claim.recommendation is Recommendation.INDETERMINATE
        assert claim.confidence == CFG.low_confidence < CFG.high_confidence


_EVALUATORS = (
    evaluate_probe_integrity,
    evaluate_activity_integrity,
    evaluate_tachycardia,
    evaluate_bradycardia,
    evaluate_copd,
    evaluate_nocturnal,
)
_RISK = {
    Recommendation.SUPPRESS: RiskLevel.LOW,
    Recommendation.INDETERMINATE: RiskLevel.MEDIUM,
    Recommendation.ESCALATE: RiskLevel.HIGH,
}
_baselines = st.none() | st.floats(80.0, 99.0)


@st.composite
def _alerts_and_views(draw: st.DrawFn):
    """An alerting epoch's alert and view: vitals on both sides of every
    screen and guardrail, day or night, any context, and up to three
    fields tagged inferred, so the missing-field branches are reached."""
    epoch = make_epoch(
        ts=draw(st.sampled_from([DAYTIME, NIGHT])),
        spo2=draw(st.floats(70.0, 100.0)),
        hr=draw(st.floats(25.0, 220.0)),
        accel=draw(st.sampled_from(AccelLevel)),
        status=draw(st.sampled_from(DeviceStatus)),
        position=draw(st.sampled_from(Position)),
        activity=draw(st.none() | st.sampled_from(SelfReportedActivity)),
    )
    copd = draw(st.booleans())
    context = make_context(
        copd=copd,
        baseline_spo2=draw(st.floats(80.0, 99.0) if copd else _baselines),
        baseline_hr=draw(_baselines),
        med=draw(st.booleans()),
    )
    record = make_record(epoch, context)
    names = st.sampled_from(sorted(record.fields))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        record = retag_field(record, name, ProvenanceTag.INFERRED)
    view = project_for_specialists(record)
    alert = detect(view, SCFG)
    assume(alert is not None)
    return alert, view


@pytest.mark.parametrize(
    "cfg", [CFG, SpecialistConfig(high_confidence=0.8, low_confidence=0.3)], ids=["default", "0.8-0.3"]
)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_alerts_and_views())
def test_every_claim_takes_its_confidence_and_risk_from_its_recommendation(cfg, drawn):
    # Property (300 examples per config): every evaluator, routed or not,
    # gives a definitive claim the high confidence and an indeterminate one
    # the low, and each claim's risk level is the one its recommendation
    # carries, in the claim and in its decision-log form.
    alert, view = drawn
    for evaluate_fn in _EVALUATORS:
        claim = evaluate_fn(alert, view, cfg)
        definitive = claim.recommendation is not Recommendation.INDETERMINATE
        assert claim.confidence == (cfg.high_confidence if definitive else cfg.low_confidence)
        assert claim.risk_level is _RISK[claim.recommendation]
        assert claim.to_dict()["risk_level"] == _RISK[claim.recommendation].value


def test_config_invariants():
    with pytest.raises(InvariantViolation):
        SpecialistConfig(low_confidence=0.9, high_confidence=0.4)


def test_every_rationale_code_reachable():
    seen: set[str] = set()

    def collect(claim):
        seen.update(claim.rationale_codes)

    collect(evaluate_probe_integrity(*_alert_view(make_epoch(spo2=88.0, status=DeviceStatus.MOTION_ARTEFACT)), CFG))
    collect(evaluate_probe_integrity(*_alert_view(make_epoch(spo2=88.0, status=DeviceStatus.SYSTEM_FLAG)), CFG))
    collect(evaluate_probe_integrity(*_alert_view(make_epoch(spo2=88.0, status=DeviceStatus.DUPLICATE_ALERT)), CFG))
    collect(evaluate_probe_integrity(*_alert_view(make_epoch(spo2=88.0)), CFG))
    collect(evaluate_activity_integrity(*_alert_view(make_epoch(spo2=90.0, accel=AccelLevel.LIGHT, activity=SelfReportedActivity.WALKING)), CFG))
    collect(evaluate_activity_integrity(*_alert_view(make_epoch(spo2=90.0, accel=AccelLevel.LIGHT)), CFG))
    collect(evaluate_activity_integrity(*_alert_view(make_epoch(spo2=90.0, activity=SelfReportedActivity.WALKING)), CFG))
    collect(evaluate_activity_integrity(*_alert_view(make_epoch(spo2=90.0, accel=AccelLevel.VIGOROUS, activity=SelfReportedActivity.RESTING)), CFG))
    collect(evaluate_activity_integrity(*_alert_view(make_epoch(spo2=90.0)), CFG))
    collect(evaluate_tachycardia(*_alert_view(make_epoch(hr=115.0, accel=AccelLevel.LIGHT)), CFG))
    collect(evaluate_tachycardia(*_alert_view(make_epoch(hr=108.0), make_context(baseline_hr=95.0)), CFG))
    collect(evaluate_tachycardia(*_alert_view(make_epoch(hr=115.0, status=DeviceStatus.SYSTEM_FLAG)), CFG))
    collect(evaluate_tachycardia(*_alert_view(make_epoch(hr=130.0)), CFG))
    collect(evaluate_bradycardia(*_alert_view(make_epoch(hr=46.0), make_context(med=True)), CFG))
    collect(evaluate_bradycardia(*_alert_view(make_epoch(ts=NIGHT, hr=47.0)), CFG))
    collect(evaluate_bradycardia(*_alert_view(make_epoch(hr=35.0)), CFG))
    collect(evaluate_bradycardia(*_alert_view(make_epoch(hr=45.0)), CFG))
    collect(evaluate_copd(*_alert_view(make_epoch(spo2=89.0), make_context(copd=True, baseline_spo2=90.0)), CFG))
    collect(evaluate_copd(*_alert_view(make_epoch(spo2=85.0), make_context(copd=True, baseline_spo2=88.0)), CFG))
    collect(evaluate_nocturnal(*_alert_view(make_epoch(ts=NIGHT, spo2=93.3, position=Position.SUPINE)), CFG))
    collect(evaluate_nocturnal(*_alert_view(make_epoch(spo2=93.3, position=Position.SUPINE)), CFG))
    collect(evaluate_nocturnal(*_alert_view(make_epoch(ts=NIGHT, spo2=93.3)), CFG))
    collect(evaluate_nocturnal(*_alert_view(make_epoch(ts=NIGHT, spo2=92.0, position=Position.SUPINE)), CFG))
    collect(evaluate_nocturnal(*_alert_view(make_epoch(ts=NIGHT, spo2=93.4, position=Position.SUPINE, accel=AccelLevel.VIGOROUS)), CFG))

    expected = {
        "artefact_flagged",
        "system_flag_no_context",
        "ambiguous_device_status",
        "no_artefact_evidence",
        "motion_corroborated",
        "motion_uncontradicted",
        "activity_contradiction",
        "activity_denied_by_patient",
        "no_activity_explanation",
        "activity_context",
        "within_baseline_allowance",
        "device_status_context",
        "isolated_high_hr",
        "medication_context",
        "nocturnal_context",
        "below_personal_floor",
        "unexplained_bradycardia",
        "within_copd_baseline",
        "below_copd_floor",
        "nocturnal_pattern_consistent",
        "outside_nocturnal_window",
        "position_not_supine",
        "motion_during_sleep",
        "dip_exceeds_allowance",
    }
    assert expected <= seen

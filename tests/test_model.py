"""Core type validation, closed enumerations, and round-trip codecs."""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from alertsift.model import (
    AccelLevel,
    AgentClaim,
    AgentDomain,
    AlertType,
    CandidateAlert,
    DeviceStatus,
    EnumParseError,
    Epoch,
    InvariantViolation,
    PatientContext,
    Position,
    ProvenanceTag,
    Recommendation,
    ResolutionPath,
    RiskLevel,
    SelfReportedActivity,
    SystemDecision,
    TaggedValue,
    Verdict,
    format_timestamp,
    parse_enum,
    parse_timestamp,
    validate_epoch,
)
from alertsift.evaluate import OutcomeKind
from alertsift.synthgen import DomainClass
from helpers import DAYTIME, make_context, make_epoch, make_record


def test_validate_epoch_nominal_marginal_values_ok():
    epoch = make_epoch(spo2=93.5, hr=101.8)
    assert validate_epoch(epoch) == []


def test_validate_epoch_boundaries_inclusive():
    assert validate_epoch(make_epoch(spo2=100.0, hr=60.0)) == []
    assert validate_epoch(make_epoch(spo2=70.0, hr=25.0)) == []
    assert validate_epoch(make_epoch(spo2=100.0, hr=220.0)) == []


def test_validate_epoch_spo2_out_of_range():
    violations = validate_epoch(make_epoch(spo2=105.0))
    assert any("spo2 out of [70,100]" in v for v in violations)


def test_validate_epoch_hr_and_patient_and_window():
    violations = validate_epoch(
        make_epoch(hr=10.0, patient_id=1, ts=datetime(2023, 1, 1, tzinfo=timezone.utc))
    )
    joined = "\n".join(violations)
    assert "hr out of [25,220]" in joined
    assert "patient_id out of" in joined
    assert "timestamp out of" in joined


def test_timestamp_minute_resolution_enforced():
    with pytest.raises(InvariantViolation):
        parse_timestamp("2022-06-15T14:00:30Z")
    with pytest.raises(InvariantViolation):
        parse_timestamp("2022-06-15T14:00:00")  # naive


@pytest.mark.parametrize(
    "cls",
    [
        ProvenanceTag,
        DeviceStatus,
        AccelLevel,
        Position,
        SelfReportedActivity,
        AlertType,
        AgentDomain,
        Recommendation,
        RiskLevel,
        Verdict,
        ResolutionPath,
        DomainClass,
        OutcomeKind,
    ],
)
def test_closed_enums_reject_unknown_strings(cls):
    with pytest.raises(EnumParseError):
        parse_enum(cls, "definitely_not_a_member")
    # every declared member parses back
    for member in cls:
        assert parse_enum(cls, member.value) is member
    # The enum's own constructor is the reference: the same member for every
    # value it accepts, EnumParseError for every value it rejects.
    first = next(iter(cls))
    inputs = [m.value for m in cls] + list(cls) + [
        "definitely_not_a_member", "", first.value.upper(), f" {first.value}",
        1, 0, True, None, 1.5, [], [first.value], {}, {first.value: 1},
    ]
    for raw in inputs:
        try:
            expected = cls(raw)
        except ValueError:
            with pytest.raises(EnumParseError):
                parse_enum(cls, raw)
        else:
            assert parse_enum(cls, raw) is expected


def test_format_timestamp_matches_strftime():
    # The strftime form is the reference; glibc does not pad years below
    # 1000, so the sweep stays in years 1001-9998 (offsets never leave it).
    rng = random.Random(20220601)
    stamps = [DAYTIME, *(datetime(2022, m, 1, tzinfo=timezone.utc) for m in (6, 9))]
    for _ in range(2000):
        offset = timezone(timedelta(minutes=rng.randint(-23 * 60 - 59, 23 * 60 + 59)))
        stamps.append(
            datetime(
                rng.randint(1001, 9998), rng.randint(1, 12), rng.randint(1, 28),
                rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
                rng.choice((0, rng.randint(0, 999_999))), tzinfo=offset,
            )
        )
    for ts in stamps:
        reference = ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:00Z")
        assert format_timestamp(ts) == reference, ts


def test_device_status_spellings_match_file_format():
    assert DeviceStatus.MOTION_ARTEFACT.value == "motion_artefact"
    assert {s.value for s in DeviceStatus} == {
        "ok",
        "motion_artefact",
        "probe_cover",
        "system_flag",
        "threshold_marginal",
        "duplicate_alert",
    }


def test_tagged_value_requires_provenance():
    with pytest.raises(InvariantViolation):
        TaggedValue(1.0, None, "src", DAYTIME)  # type: ignore[arg-type]


def test_tagged_value_is_immutable():
    tv = TaggedValue(1.0, ProvenanceTag.DEVICE_VERIFIED, "src", DAYTIME)
    for name in ("value", "provenance", "source_id", "observed_at", "extra"):
        with pytest.raises(AttributeError):
            setattr(tv, name, ProvenanceTag.INFERRED)
    assert tv == TaggedValue(1.0, ProvenanceTag.DEVICE_VERIFIED, "src", DAYTIME)
    assert tv.retagged(ProvenanceTag.INFERRED).provenance is ProvenanceTag.INFERRED
    with pytest.raises(InvariantViolation):
        tv._replace(provenance="inferred")


def test_epoch_round_trip_all_fields():
    epoch = make_epoch(
        spo2=88.25,
        hr=104.5,
        accel=AccelLevel.VIGOROUS,
        status=DeviceStatus.MOTION_ARTEFACT,
        probe_cover=True,
        position=Position.LATERAL,
        activity=SelfReportedActivity.WALKING,
        ambient="heatwave_advisory",
    )
    assert Epoch.from_dict(epoch.to_dict()) == epoch
    for bad in (
        {"spo2": 100.5}, {"spo2": float("inf")}, {"hr": 0.0}, {"hr": float("nan")},
        {"patient_id": 3847291.9}, {"patient_id": True}, {"patient_id": "3847291"},
    ):
        with pytest.raises(InvariantViolation):
            Epoch.from_dict({**epoch.to_dict(), **bad})


def test_epoch_round_trip_optionals_absent():
    epoch = make_epoch(activity=None, ambient=None)
    decoded = Epoch.from_dict(epoch.to_dict())
    assert decoded == epoch
    assert decoded.self_reported_activity is None


def test_patient_context_round_trip():
    ctx = make_context(copd=True, baseline_spo2=89.0, baseline_hr=72.0, med=True)
    assert PatientContext.from_dict(ctx.to_dict()) == ctx
    for bad in ({"baseline_hr": float("nan")}, {"patient_id": 3847291.9}, {"patient_id": True}):
        with pytest.raises(InvariantViolation):
            PatientContext.from_dict({**ctx.to_dict(), **bad})


def test_patient_context_copd_requires_baseline():
    with pytest.raises(InvariantViolation):
        make_context(copd=True, baseline_spo2=None)


def test_candidate_alert_rejects_empty_and_inferred_triggers():
    record = make_record(make_epoch(spo2=88.0))
    spo2 = record.epoch_fields["spo2"]
    with pytest.raises(InvariantViolation):
        CandidateAlert(frozenset(), {}, record, record.timestamp)
    with pytest.raises(InvariantViolation):
        CandidateAlert(
            frozenset({AlertType.LOW_SPO2}),
            {AlertType.LOW_SPO2: spo2.retagged(ProvenanceTag.INFERRED)},
            record,
            record.timestamp,
        )


def test_agent_claim_round_trip_and_confidence_bounds():
    claim = AgentClaim(
        AgentDomain.COPD,
        Recommendation.SUPPRESS,
        0.9,
        RiskLevel.LOW,
        ("within_copd_baseline",),
    )
    assert json.loads(json.dumps(claim.to_dict())) == {
        "domain": "copd",
        "recommendation": "suppress",
        "confidence": 0.9,
        "risk_level": "low",
        "rationale_codes": ["within_copd_baseline"],
    }
    with pytest.raises(InvariantViolation):
        AgentClaim(AgentDomain.COPD, Recommendation.SUPPRESS, 1.5, RiskLevel.LOW)


def test_system_decision_round_trip_and_binary_verdict():
    claim = AgentClaim(
        AgentDomain.PROBE_INTEGRITY,
        Recommendation.INDETERMINATE,
        0.4,
        RiskLevel.MEDIUM,
        ("system_flag_no_context",),
    )
    decision = SystemDecision(
        Verdict.ESCALATE, (claim,), ResolutionPath.AMBIGUITY_DEFAULT, DAYTIME
    )
    assert json.loads(json.dumps(decision.to_dict())) == {
        "verdict": "escalate",
        "contributing_claims": [claim.to_dict()],
        "resolution_path": "ambiguity_default",
        "decided_at": format_timestamp(DAYTIME),
    }
    assert {v.value for v in Verdict} == {"suppress", "escalate"}


def test_round_trip_randomized_epochs():
    rng = random.Random(1234)
    statuses = list(DeviceStatus)
    accels = list(AccelLevel)
    positions = list(Position)
    activities = list(SelfReportedActivity) + [None]
    for _ in range(200):
        epoch = make_epoch(
            spo2=round(rng.uniform(70, 100), 2),
            hr=round(rng.uniform(25, 220), 2),
            accel=rng.choice(accels),
            status=rng.choice(statuses),
            probe_cover=rng.random() < 0.5,
            position=rng.choice(positions),
            activity=rng.choice(activities),
        )
        assert Epoch.from_dict(epoch.to_dict()) == epoch

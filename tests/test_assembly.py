"""Record assembly: tag assignment, recency join, inferred exclusion."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from alertsift.assembly import (
    ConversationEntry,
    PatientIdMismatch,
    SelfReportEntry,
    SourceBundle,
    assemble,
    project_for_specialists,
)
from alertsift.model import (
    AlertType,
    DEVICE_STREAM_FIELDS,
    ProvenanceTag,
    SelfReportedActivity,
    TaggedValue,
)
from alertsift.sentinel import SentinelConfig, detect
from helpers import make_bundle, make_context, make_epoch, make_record, retag_field

NIGHT_2AM = datetime(2022, 6, 15, 2, 0, tzinfo=timezone.utc)


def test_tags_assigned_by_source():
    record = make_record(
        make_epoch(ts=NIGHT_2AM, activity=SelfReportedActivity.RESTING),
        make_context(copd=True, baseline_spo2=89.0),
    )
    for name in DEVICE_STREAM_FIELDS:
        assert record.epoch_fields[name].provenance is ProvenanceTag.DEVICE_VERIFIED
    for name, tv in record.context_fields.items():
        assert tv.provenance is ProvenanceTag.EHR_DERIVED, name
    assert record.context_fields["copd_documented"].value is True
    assert (
        record.epoch_fields["self_reported_activity"].provenance
        is ProvenanceTag.PATIENT_REPORTED
    )
    assert record.epoch_fields["position"].provenance is ProvenanceTag.PATIENT_REPORTED


def test_empty_conversation_log_gives_empty_flags():
    record = make_record(make_epoch())
    assert record.conversation_flags == ()


def test_conversation_flag_attached_with_patient_reported_tag():
    epoch = make_epoch()
    bundle = SourceBundle(
        ehr=make_context(),
        conversation_log=(
            ConversationEntry(epoch.timestamp - timedelta(minutes=30), "breathless_on_stairs"),
            ConversationEntry(epoch.timestamp - timedelta(minutes=5), "feeling_fine"),
            ConversationEntry(epoch.timestamp + timedelta(minutes=5), "from_the_future"),
        ),
        vitals_stream=(epoch,),
        patient_reported=(),
    )
    record = assemble(bundle, epoch)
    assert len(record.conversation_flags) == 1
    flag = record.conversation_flags[0]
    assert flag.value == "feeling_fine"
    assert flag.provenance is ProvenanceTag.PATIENT_REPORTED


def test_recency_join_takes_latest_at_or_before():
    base = datetime(2022, 6, 15, 1, 0, tzinfo=timezone.utc)
    epoch = make_epoch(ts=base + timedelta(minutes=45))
    reports = (
        SelfReportEntry(base, "activity", SelfReportedActivity.WALKING),
        SelfReportEntry(base + timedelta(minutes=30), "activity", SelfReportedActivity.RESTING),
    )
    bundle = SourceBundle(
        ehr=make_context(), conversation_log=(), vitals_stream=(epoch,), patient_reported=reports
    )
    record = assemble(bundle, epoch)
    attached = record.epoch_fields["self_reported_activity"]
    assert attached.value is SelfReportedActivity.RESTING
    assert attached.observed_at == base + timedelta(minutes=30)


def test_recency_join_matches_brute_force_oracle():
    # oracle: linear scan for the max timestamp <= at, over random subsets
    rng = random.Random(777)
    base = datetime(2022, 7, 1, 10, 0, tzinfo=timezone.utc)
    activities = list(SelfReportedActivity)
    for _ in range(100):
        offsets = sorted(rng.sample(range(-90, 90), k=rng.randint(0, 8)))
        at = base
        entries = tuple(
            SelfReportEntry(base + timedelta(minutes=m), "activity", rng.choice(activities))
            for m in offsets
        )
        oracle = None
        for entry in entries:
            if entry.timestamp <= at and (oracle is None or entry.timestamp > oracle.timestamp):
                oracle = entry
        epoch = make_epoch(ts=at, activity=None)
        bundle = SourceBundle(
            ehr=make_context(), conversation_log=(), vitals_stream=(epoch,),
            patient_reported=entries,
        )
        record = assemble(bundle, epoch)
        attached = record.epoch_fields.get("self_reported_activity")
        if oracle is None:
            assert attached is None
        else:
            assert attached is not None
            assert attached.value is oracle.value
            assert attached.observed_at == oracle.timestamp


def test_assemble_errors():
    epoch = make_epoch()
    bundle = make_bundle(epoch)
    with pytest.raises(PatientIdMismatch):
        assemble(bundle, make_epoch(patient_id=epoch.patient_id + 1))
    with pytest.raises(PatientIdMismatch):
        SourceBundle(
            ehr=make_context(patient_id=epoch.patient_id + 1),
            conversation_log=(),
            vitals_stream=(epoch,),
            patient_reported=(),
        )


def test_assemble_deterministic():
    epoch = make_epoch(spo2=91.5)
    bundle = make_bundle(epoch, make_context(copd=True, baseline_spo2=90.0))
    assert assemble(bundle, epoch) == assemble(bundle, epoch)


def test_assemble_never_invents_values():
    # provenance audit: every tagged output value equals a source datum
    epoch = make_epoch(
        spo2=88.5, hr=104.0, activity=SelfReportedActivity.WALKING, ambient="heatwave"
    )
    context = make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0, med=True)
    record = make_record(epoch, context)
    source_values = {
        "spo2": epoch.spo2,
        "hr": epoch.hr,
        "accel_level": epoch.accel_level,
        "device_status": epoch.device_status,
        "probe_cover_present": epoch.probe_cover_present,
        "position": epoch.position,
        "self_reported_activity": epoch.self_reported_activity,
        "ambient_condition": epoch.ambient_condition,
        "copd_documented": context.copd_documented,
        "baseline_spo2": context.baseline_spo2,
        "baseline_hr": context.baseline_hr,
        "rate_limiting_medication": context.rate_limiting_medication,
    }
    for name, tv in record.all_tagged():
        assert tv.value == source_values[name], name


def test_projection_identity_when_nothing_inferred():
    record = make_record(make_epoch(activity=SelfReportedActivity.RESTING))
    view = project_for_specialists(record)
    assert view.field_names() == frozenset(record.epoch_fields) | frozenset(
        record.context_fields
    )


def test_projection_drops_injected_inferred_statement():
    record = make_record(make_epoch())
    inferred_flag = TaggedValue(
        "model_guess_sleeping", ProvenanceTag.INFERRED, "inference/1", record.timestamp
    )
    tampered = type(record)(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        epoch_fields=record.epoch_fields,
        context_fields=record.context_fields,
        conversation_flags=record.conversation_flags + (inferred_flag,),
    )
    view = project_for_specialists(tampered)
    assert all(tv.provenance is not ProvenanceTag.INFERRED for tv in view.conversation_flags)
    assert "model_guess_sleeping" not in [tv.value for tv in view.conversation_flags]


def test_projection_excludes_retagged_spo2_and_sentinel_stays_silent():
    record = retag_field(make_record(make_epoch(spo2=80.0)), "spo2", ProvenanceTag.INFERRED)
    view = project_for_specialists(record)
    assert "spo2" not in view.field_names()
    alert = detect(view, SentinelConfig())
    assert alert is None or AlertType.LOW_SPO2 not in alert.alert_types


def test_projection_field_scan_never_exposes_inferred():
    rng = random.Random(4242)
    names = ["spo2", "hr", "accel_level", "device_status", "position"]
    for _ in range(50):
        record = make_record(make_epoch(spo2=85.0, hr=110.0))
        for name in rng.sample(names, k=rng.randint(1, len(names))):
            record = retag_field(record, name, ProvenanceTag.INFERRED)
        view = project_for_specialists(record)
        for name in view.field_names():
            assert view.get(name).provenance is not ProvenanceTag.INFERRED

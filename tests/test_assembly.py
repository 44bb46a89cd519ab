"""Record assembly: tag assignment, recency join, inferred exclusion."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from alertsift.assembly import (
    ALLOWED_SPECIALIST_PROVENANCE,
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
    Position,
    ProvenanceTag,
    SelfReportedActivity,
    TaggedValue,
    VeritasRecord,
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


def _oracle_latest(entries, at):
    """Linear scan: the first entry, in input order, with the greatest timestamp <= at."""
    best = None
    for entry in entries:
        if entry.timestamp <= at and (best is None or entry.timestamp > best.timestamp):
            best = entry
    return best


def test_recency_join_matches_brute_force_oracle():
    # Offsets are drawn with replacement from a narrow range and left in
    # draw order, so ties and out-of-order entries are common; among tied
    # entries the join must return the first in input order. Both
    # self-report kinds and the conversation log are checked at every epoch.
    rng = random.Random(777)
    base = datetime(2022, 7, 1, 10, 0, tzinfo=timezone.utc)
    choices = {"activity": list(SelfReportedActivity), "position": list(Position)}
    statements = ["feeling_fine", "breathless_on_stairs", "dizzy", "slept_badly"]

    def minute():
        return base + timedelta(minutes=rng.randint(-6, 6))

    for _ in range(200):
        kinds = [rng.choice(["activity", "position"]) for _ in range(rng.randint(0, 10))]
        reports = tuple(SelfReportEntry(minute(), k, rng.choice(choices[k])) for k in kinds)
        log = tuple(
            ConversationEntry(minute(), rng.choice(statements)) for _ in range(rng.randint(0, 6))
        )
        epochs = tuple(
            make_epoch(
                ts=base + timedelta(minutes=m),
                activity=rng.choice([None, *choices["activity"]]),
            )
            for m in range(-8, 9)
        )
        bundle = SourceBundle(
            ehr=make_context(), conversation_log=log, vitals_stream=epochs,
            patient_reported=reports,
        )
        for epoch in epochs:
            at = epoch.timestamp
            record = assemble(bundle, epoch)
            inline = {"activity": epoch.self_reported_activity, "position": epoch.position}
            for kind, name in (("activity", "self_reported_activity"), ("position", "position")):
                oracle = _oracle_latest([e for e in reports if e.kind == kind], at)
                if oracle is not None:
                    expected = (oracle.value, oracle.timestamp)
                elif inline[kind] is not None:
                    expected = (inline[kind], at)  # the epoch's own value
                else:
                    expected = None
                attached = record.epoch_fields.get(name)
                got = None if attached is None else (attached.value, attached.observed_at)
                assert got == expected
                assert attached is None or attached.provenance is ProvenanceTag.PATIENT_REPORTED
            oracle = _oracle_latest(log, at)
            expected_flags = [] if oracle is None else [(oracle.statement, oracle.timestamp)]
            assert [(f.value, f.observed_at) for f in record.conversation_flags] == expected_flags


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


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([
            "spo2", "hr", "accel_level", "device_status", "probe_cover_present", "position",
            "self_reported_activity", "ambient_condition", "copd_documented",
            "rate_limiting_medication", "baseline_spo2", "baseline_hr",
        ]),
        st.sampled_from(list(ProvenanceTag)),
    ),
    st.lists(st.sampled_from(list(ProvenanceTag)), max_size=4),
)
def test_projection_never_exposes_inferred_under_random_provenance(tags, flag_tags):
    # Property: retag any subset of an assembled record's fields and
    # conversation flags at random; the projected view holds no inferred value.
    epoch = make_epoch(activity=SelfReportedActivity.WALKING, ambient="heatwave")
    record = make_record(epoch, make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0))

    def retag(fields):
        return {k: tv.retagged(tags[k]) if k in tags else tv for k, tv in fields.items()}

    tampered = VeritasRecord(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        epoch_fields=retag(record.epoch_fields),
        context_fields=retag(record.context_fields),
        conversation_flags=tuple(
            TaggedValue(f"statement_{i}", tag, "conversation/1", record.timestamp)
            for i, tag in enumerate(flag_tags)
        ),
    )
    view = project_for_specialists(tampered)
    shown = [*view.epoch_fields.values(), *view.context_fields.values(), *view.conversation_flags]
    assert all(tv.provenance is not ProvenanceTag.INFERRED for tv in shown)
    # Only inferred values are dropped.
    kept = [tv for _, tv in tampered.all_tagged() if tv.provenance is not ProvenanceTag.INFERRED]
    assert len(shown) == len(kept)


def test_projection_drops_one_inferred_context_field_and_shares_the_clean_epoch_mapping():
    record = make_record(make_epoch(), make_context(copd=True, baseline_spo2=89.0))
    context_fields = dict(record.context_fields)
    context_fields["baseline_spo2"] = context_fields["baseline_spo2"].retagged(
        ProvenanceTag.INFERRED
    )
    tampered = VeritasRecord(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        epoch_fields=record.epoch_fields,
        context_fields=context_fields,
    )
    view = project_for_specialists(tampered)
    assert "baseline_spo2" not in view.context_fields
    assert view.context_fields is not tampered.context_fields
    assert set(view.context_fields) == set(context_fields) - {"baseline_spo2"}
    # Nothing to drop from the epoch mapping, so it is shared, not copied.
    assert view.epoch_fields is tampered.epoch_fields
    assert view.value("baseline_spo2") is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from([
            "spo2", "hr", "accel_level", "device_status", "position", "ambient_condition",
            "copd_documented", "rate_limiting_medication", "baseline_spo2", "baseline_hr",
        ]),
        st.sampled_from(list(ProvenanceTag)),
    ),
    st.lists(st.sampled_from(list(ProvenanceTag)), max_size=3),
)
def test_projection_never_shares_a_mapping_holding_a_disallowed_tag(tags, flag_tags):
    # Property: whatever the tags, each of the view's three containers either
    # is the record's own (and then every tag in it is allowed) or a filtered
    # copy; no container of the view holds a disallowed tag.
    epoch = make_epoch(ambient="heatwave")
    record = make_record(epoch, make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0))

    def retag(fields):
        return {k: tv.retagged(tags[k]) if k in tags else tv for k, tv in fields.items()}

    tampered = VeritasRecord(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        epoch_fields=retag(record.epoch_fields),
        context_fields=retag(record.context_fields),
        conversation_flags=tuple(
            TaggedValue(f"statement_{i}", tag, "conversation/1", record.timestamp)
            for i, tag in enumerate(flag_tags)
        ),
    )
    view = project_for_specialists(tampered)

    def values(container):
        return list(container.values() if isinstance(container, dict) else container)

    allowed = ALLOWED_SPECIALIST_PROVENANCE
    for shown, source in [
        (view.epoch_fields, tampered.epoch_fields),
        (view.context_fields, tampered.context_fields),
        (view.conversation_flags, tampered.conversation_flags),
    ]:
        if any(tv.provenance not in allowed for tv in values(source)):
            assert shown is not source
        assert values(shown) == [tv for tv in values(source) if tv.provenance in allowed]
